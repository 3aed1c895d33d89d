"""Quasi-permutation matrices, the right action, isomorphism decisions."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_qpl import ref_aut_group, ref_iso_solve

from skewdg import qpl
from skewdg.linalg import Mat
from skewdg.qpl import (
    QplMatrix,
    UnsupportedSize,
    aut_group,
    chi,
    is_quasi_permutation,
    iso_solve,
)


def test_is_quasi_permutation():
    assert is_quasi_permutation(Mat([[0, 2, 0], [3, 0, 0], [0, 0, -1]]))
    assert not is_quasi_permutation(Mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert not is_quasi_permutation(Mat.zero(3, 3))


def test_chi_identity():
    m = Mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert chi(m, QplMatrix.identity(3)) == m


def test_chi_row_swap_display():
    a, b, c, l1, l2 = Q(2), Q(3), Q(5), Q(7), Q(11)
    m = Mat([[a, b, c], [l1 * a, l1 * b, l1 * c], [l2 * a, l2 * b, l2 * c]])
    swapped = chi(m, QplMatrix.transposition(1, 2, 3))
    assert swapped == Mat([[l1 * b, l1 * a, l1 * c], [b, a, c], [l2 * b, l2 * a, l2 * c]])


def test_chi_scaling():
    m = Mat([[0, 4, 0], [0, 0, 0], [0, 0, 0]])
    c = QplMatrix((0, 1, 2), (1, Q(1, 2), 1))
    assert chi(m, c) == Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])


def rand_qpl(rng, n=3):
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [Q(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])) for _ in range(n)]
    return QplMatrix(tuple(perm), tuple(scales))


def test_right_action_law_and_closure():
    rng = random.Random(23)
    for _ in range(60):
        m = Mat([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        c1, c2 = rand_qpl(rng), rand_qpl(rng)
        assert chi(m, c1 * c2) == chi(chi(m, c1), c2)
        assert is_quasi_permutation((c1 * c2).to_mat())
        assert is_quasi_permutation(c1.inverse().to_mat())


def test_rank_invariance_under_action():
    rng = random.Random(29)
    for _ in range(40):
        m = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        assert chi(m, rand_qpl(rng)).rank() == m.rank()


def test_iso_self():
    m = Mat([[1, 2], [3, 4]])
    result = iso_solve(m, m)
    assert result.status == "Witness"
    assert chi(m, result.witness) == m


def test_iso_square_parameters():
    m = Mat([[0, 4, 9], [0, 0, 0], [0, 0, 0]])
    target = Mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    result = iso_solve(m, target)
    assert result.status == "Witness"
    assert chi(m, result.witness) == target


def test_iso_permutation_witness():
    e12 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e13 = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    result = iso_solve(e12, e13)
    assert result.status == "Witness"
    assert result.witness.permutation == (0, 2, 1)


def test_iso_not_isomorphic():
    e12 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    both = Mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    assert iso_solve(e12, both).status == "NotIsomorphic"
    assert iso_solve(both, e12).status == "NotIsomorphic"


def test_iso_closure_only_reports_roots():
    a = Mat([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    b = Mat([[1, 2, 0], [0, 0, 0], [0, 0, 0]])
    result = iso_solve(a, b)
    assert result.status == "ClosureOnly"
    reqs = [(r.degree, r.radicand) for r in result.root_requirements]
    assert (2, Q(2)) in reqs


def test_iso_rediscovers_witnesses():
    rng = random.Random(31)
    for _ in range(30):
        m = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        c = rand_qpl(rng)
        m2 = chi(m, c)
        result = iso_solve(m, m2)
        assert result.status == "Witness"
        assert chi(m, result.witness) == m2
        assert is_quasi_permutation(result.witness.to_mat())


def test_iso_symmetry_of_not_isomorphic():
    rng = random.Random(37)
    for _ in range(25):
        a = Mat([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        b = Mat([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        assert (iso_solve(a, b).status == "NotIsomorphic") == \
            (iso_solve(b, a).status == "NotIsomorphic")


def test_iso_size_bound():
    with pytest.raises(UnsupportedSize):
        iso_solve(Mat.identity(4), Mat.identity(4))


def test_aut_zero_matrix():
    families = aut_group(Mat.zero(3, 3))
    assert len(families) == 6
    assert all(not f.fixed and not f.relations and len(f.free) == 3 for f in families)


def test_aut_identity():
    # Every permutation acts, with all scales pinned to 1.
    families = aut_group(Mat.identity(3))
    assert len(families) == 6
    for fam in families:
        assert fam.fixed == {0: Q(1), 1: Q(1), 2: Q(1)}
        assert not fam.free
        c = QplMatrix(fam.permutation, (1, 1, 1))
        assert chi(Mat.identity(3), c) == Mat.identity(3)


def test_aut_e12():
    families = aut_group(Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    ident = [f for f in families if f.permutation == (0, 1, 2)]
    assert len(ident) == 1
    fam = ident[0]
    assert fam.relations == ["d1 = d2^2"]
    assert fam.free == [1, 2]
    # Spot-check the family law: d = (4, 2, 5) should be an automorphism.
    c = QplMatrix((0, 1, 2), (4, 2, 5))
    m = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert chi(m, c) == m


def test_closure_decision_regression():
    # Every permutation matches the zero pattern, but no scale system is
    # solvable even over the algebraic closure, so no ClosureOnly may appear.
    ones = Mat([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    other = Mat([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
    assert iso_solve(ones, other).status == "NotIsomorphic"
    families = aut_group(other)
    assert [f.permutation for f in families] == [(0, 1, 2), (1, 0, 2)]
    for fam in families:
        assert fam.fixed == {0: Q(1), 1: Q(1), 2: Q(1)}
        assert not fam.relations and not fam.free


def test_one_lattice_elimination_per_call(monkeypatch):
    # The exponent rows depend on M's zero pattern alone, so the first call
    # on a pattern runs one Smith form and one Hermite elimination, and a
    # later call on any matrix of that pattern runs none, although all six
    # permutations pass the zero-pattern screen on the full pattern.
    monkeypatch.setattr(qpl, "_LATTICES", {})
    calls = {"smith_normal_form": 0, "_hermite_rows": 0}

    def counted(name):
        inner = getattr(qpl, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(qpl, name, wrapper)

    counted("smith_normal_form")
    counted("_hermite_rows")
    ones = Mat([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    other = Mat([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
    e12 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    five_e12 = Mat([[0, 5, 0], [0, 0, 0], [0, 0, 0]])
    for solve in (lambda m: iso_solve(m, other), aut_group):
        qpl._LATTICES.clear()
        for m, built in ((ones, 1), (other, 0), (e12, 1), (five_e12, 0)):
            before = dict(calls)
            solve(m)
            assert calls == {name: k + built for name, k in before.items()}, m
        # Keyed on n and the row-major bitmask of the nonzero cells.
        assert list(qpl._LATTICES) == [(3, 2 ** 9 - 1), (3, 1 << 1)]
    before = dict(calls)
    assert iso_solve(ones, other).status == "NotIsomorphic"
    assert len(aut_group(other)) == 2
    assert calls == before


def test_iso_exact_root_of_large_scale():
    # The scale is a square root far beyond float precision.
    m = Mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    target = chi(m, QplMatrix((0, 1, 2), (1, 3 ** 60 + 1, 1)))
    result = iso_solve(m, target)
    assert result.status == "Witness"
    assert chi(m, result.witness) == target


def test_iso_root_beyond_float_range():
    m = Mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    target = chi(m, QplMatrix((0, 1, 2), (1, 10 ** 200 + 7, 1)))
    result = iso_solve(m, target)
    assert result.status == "Witness"
    assert chi(m, result.witness) == target


def _sparse_matrix(rng, n, rank):
    """M = L R with factors of n x rank and rank x n, mostly zero entries
    so that many cells of M vanish and many permutations pass the zero
    pattern."""
    entries = [0, 0, 0, 1, -1, 2, 3, Q(1, 2), Q(-2, 3)]
    left = Mat([[rng.choice(entries) for _ in range(rank)] for _ in range(n)])
    right = Mat([[rng.choice(entries) for _ in range(n)] for _ in range(rank)])
    return left * right if rank else Mat.zero(n, n)


def reference_pairs(rng, count):
    """Seeded pairs (M, M') of three kinds in turn: an orbit image chi(M, C),
    an unrelated matrix of any rank, and chi(M'', C) for M'' equal to M with
    one column scaled by a non-square."""
    for k in range(count):
        n = 2 if k % 10 == 9 else 3
        m = _sparse_matrix(rng, n, rng.randint(0, n))
        kind = k % 3
        if kind == 0:
            other = m
        elif kind == 1:
            other = _sparse_matrix(rng, n, rng.randint(0, n))
        else:
            col, s = rng.randrange(n), rng.choice([2, 3, -1, -3, Q(1, 2), Q(-5, 3)])
            other = Mat([[x * s if j == col else x for j, x in enumerate(row)]
                         for row in m.data])
        yield m, chi(other, rand_qpl(rng, n))


def test_scale_solver_matches_fraction_reference():
    # The integer-pair solver gives exactly what the Fraction reference
    # gives: the same status, permutation, scales, root requirements and
    # automorphism families, every value a normalized Fraction.
    seen = set()
    for m, m2 in reference_pairs(random.Random(53), 2100):
        result = iso_solve(m, m2)
        assert result.as_dict() == ref_iso_solve(m, m2).as_dict(), (m, m2)
        seen.add(result.status)
        for req in result.root_requirements:
            assert type(req.radicand) is Q
        if result.witness is not None:
            assert all(type(d) is Q for d in result.witness.scales)
        for side in (m, m2):
            families = aut_group(side)
            assert [f.as_dict() for f in families] == \
                [f.as_dict() for f in ref_aut_group(side)], side
            assert all(type(v) is Q for f in families for v in f.fixed.values())
    assert seen == {"Witness", "NotIsomorphic", "ClosureOnly"}


ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, 3, Q(1, 2), Q(-2, 3)])


@st.composite
def orbit_cases(draw):
    """(M, chi(M, C), the image with one cell perturbed): n <= 3, mostly
    zero cells, and scales that are often no square."""
    n = draw(st.integers(1, 3))
    m = Mat(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
    perm = draw(st.permutations(range(n)))
    scales = draw(st.lists(st.sampled_from([1, -1, 2, 3, Q(1, 2), Q(-5, 3)]), min_size=n,
                           max_size=n))
    image = chi(m, QplMatrix(tuple(perm), tuple(scales)))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows = [list(row) for row in image.data]
    rows[i][j] = rows[i][j] * draw(st.sampled_from([2, 3, -1])) or Q(1)
    return m, image, Mat(rows)


def _pattern_neighbours(m):
    """Matrices that fill the table before the warm calls, first those of
    other patterns with as many cells: the transpose of M and M with its
    cells moved one column on; then M with every nonzero entry 1, its own
    pattern with other values."""
    n = m.rows
    yield Mat([[m[j, i] for j in range(n)] for i in range(n)])
    yield Mat([[m[i, (j + 1) % n] for j in range(n)] for i in range(n)])
    yield Mat([[int(x != 0) for x in row] for row in m.data])


@settings(max_examples=150, deadline=None)
@given(orbit_cases())
def test_cold_and_warm_lattice_tables_agree(case):
    # An entry of _LATTICES depends on the zero pattern alone: built from
    # another matrix of the pattern, next to entries of other patterns with
    # as many cells, it gives the answers a cold table gives.
    m, image, partner = case

    def answers():
        return ([iso_solve(a, b).as_dict() for a, b in ((m, image), (m, partner), (partner, m))],
                [[f.as_dict() for f in aut_group(a)] for a in (m, image, partner)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qpl, "_LATTICES", {})
        cold = answers()
        mp.setattr(qpl, "_LATTICES", {})
        for a in (m, image, partner):
            for other in _pattern_neighbours(a):
                iso_solve(other, other)
                aut_group(other)
        assert answers() == cold
        # Shared entries are flat tuples of ints, so no caller can change one.
        for entry in qpl._LATTICES.values():
            assert type(entry) is tuple and len(entry) == 6
            for part in entry:
                assert type(part) is tuple and all(type(x) is int for x in part)
