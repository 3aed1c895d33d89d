"""Structure-constant algebras: validation, socle, Frobenius, recognition."""

import random
from fractions import Fraction as Q

import pytest

from skewdg.finalg import AlgebraError, FinAlg, frobenius, recognize_truncated, socle_dim
from skewdg.linalg import Mat
from skewdg.resolution import ext_algebra

from reference_finalg import (
    from_matrix_algebra,
    ref_frobenius,
    ref_is_local,
    ref_matrix_algebra,
    ref_multiply,
    ref_radical_basis,
    ref_radical_filtration,
    ref_recognize_truncated,
    ref_sklyanin_table,
    ref_socle_basis,
    ref_trace_gram,
    sklyanin_algebra,
)
from reference_linalg import ref_inverse
from reference_resolution import published_resolution


def truncated_poly(m):
    """Structure constants of k[x]/(x^m) on the basis 1, x, ..., x^{m-1}."""
    structure = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i + j < m:
                structure[i][j][i + j] = 1
    unit = [1] + [0] * (m - 1)
    return m, unit, structure


def test_make_algebra_truncated_poly():
    alg = FinAlg(*truncated_poly(4))
    assert alg.dim == 4
    assert socle_dim(alg) == 1
    assert alg.radical_filtration() == [1, 1, 1, 1]
    assert recognize_truncated(alg) == 4


def test_make_algebra_rejects_nonassociative():
    m, unit, structure = truncated_poly(3)
    structure[1][2][0] = 1  # x * x^2 gains a unit component
    with pytest.raises(AlgebraError):
        FinAlg(m, unit, structure)


def test_unit_law_failure():
    # k x k with (1, 0) as unit: unit * b_1 = 0.
    with pytest.raises(AlgebraError, match=r"^unit law fails on basis element 1$"):
        FinAlg(2, (1, 0), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    # b_0 is a left unit only: b_1 b_0 = 0.
    with pytest.raises(AlgebraError, match=r"^unit law fails on basis element 1$"):
        FinAlg(2, (1, 0), [[[1, 0], [0, 1]], [[0, 0], [0, 1]]])


def test_associativity_failure_names_the_triple():
    # On 1, b_1..b_5 with b_j b_k = b_u, b_i b_u = b_w and every other
    # product of the b's zero (u, w outside {i, j, k}), associativity fails
    # on the basis triple (i, j, k) alone.
    dim = 6
    for i in range(1, dim):
        for j in range(1, dim):
            for k in range(1, dim):
                u, w = [x for x in range(1, dim) if x not in (i, j, k)][:2]
                structure = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
                for x in range(dim):
                    structure[0][x][x] = structure[x][0][x] = 1
                structure[j][k][u] = structure[i][u][w] = 1
                message = r"^associativity fails on basis triple \(%d, %d, %d\)$" % (i, j, k)
                with pytest.raises(AlgebraError, match=message):
                    FinAlg(dim, [1] + [0] * (dim - 1), structure)


def test_multiply_matches_dense_reference():
    rng = random.Random(67)
    cases = [("k[x]/(x^%d)" % m, FinAlg(*truncated_poly(m)), truncated_poly(m)[2])
             for m in range(1, 9)]
    for params in ((0, 0, 0), (1, 1, 0), (1, 2, 1), (2, -1, 3), (Q(1, 2), 3, Q(-2, 3))):
        cases.append(("sklyanin%s" % (params,), sklyanin_algebra(*params),
                      ref_sklyanin_table(*params)))
    for name, mats in _matrix_algebras():
        dim, unit, table = ref_matrix_algebra(mats)
        alg = from_matrix_algebra(mats)
        assert alg.unit == tuple(Q(x) for x in unit), name
        cases.append((name, alg, table))
    for name, alg, table in cases:
        dim = alg.dim
        assert alg.structure == tuple(
            tuple(tuple((k, Q(c)) for k, c in enumerate(table[i][j]) if c) for j in range(dim))
            for i in range(dim)), name
        vectors = [tuple(Q(int(i == j)) for j in range(dim)) for i in range(dim)]
        for _ in range(6):
            vectors.append(tuple(Q(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))
                                 for _ in range(dim)))
        for x in vectors:
            for y in vectors:
                assert alg.multiply(x, y) == ref_multiply(table, x, y), name


def test_commutant_of_published_first_representative_is_valid():
    res = published_resolution("M1")
    alg = ext_algebra(res)
    assert alg.dim == 8
    assert socle_dim(alg) == 1
    assert alg.radical_filtration() == [1, 2, 2, 2, 1]


def test_sklyanin_family_table():
    alg = sklyanin_algebra(0, 0, 0)
    assert socle_dim(alg) == 3
    assert not frobenius(alg).frobenius
    alg = sklyanin_algebra(1, 1, 0)
    verdict = frobenius(alg)
    assert verdict.frobenius and verdict.symmetric
    alg = sklyanin_algebra(1, 1, 1)
    assert socle_dim(alg) == 2
    assert not frobenius(alg).frobenius


def test_sklyanin_grid():
    for lam in range(-2, 3):
        for mu in range(-2, 3):
            for nu in range(-2, 3):
                verdict = frobenius(sklyanin_algebra(lam, mu, nu))
                assert verdict.frobenius == (lam * mu - nu * nu != 0), (lam, mu, nu)


def _random_basis_change(rng):
    """(p, p^-1): a random invertible 4 x 4 integer matrix and its inverse,
    as lists of rows."""
    while True:
        p = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        inv = ref_inverse(p)
        if inv is not None:
            return p, inv


def test_frobenius_invariant_under_basis_change():
    rng = random.Random(53)
    base = sklyanin_algebra(1, 2, 1)
    expected = frobenius(base).frobenius
    for _ in range(5):
        # Conjugated structure constants: new basis b'_i = sum p[i][j] b_j.
        conjugated = _change(base, *_random_basis_change(rng))
        assert frobenius(conjugated).frobenius == expected


def _change(alg, p, inv):
    """The algebra on the basis b'_i = sum_j p[i][j] b_j: the coordinates
    of x in it are x times p^-1."""
    dim = alg.dim

    def coords(x):
        return tuple(sum(x[j] * inv[j][k] for j in range(dim)) for k in range(dim))

    return FinAlg(dim, coords(alg.unit), [[coords(alg.multiply(bi, bj)) for bj in p] for bi in p])


def test_socle_unsupported_for_nonlocal():
    # k x k: semisimple, not local.
    structure = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    alg = FinAlg(2, (1, 1), structure)
    assert not alg.is_local()
    with pytest.raises(AlgebraError):
        socle_dim(alg)
    # The certificate path still decides it (k x k is Frobenius).
    verdict = frobenius(alg)
    assert verdict.frobenius
    assert verdict.method == "certificate"


def test_recognize_truncated_examples():
    assert recognize_truncated(FinAlg(*truncated_poly(8))) == 8
    # Commutant of the published M5 grid: xi_2^2 = 0, so rad/rad^2 is
    # two-dimensional and recognition correctly declines.
    alg = ext_algebra(published_resolution("M5"))
    assert alg.dim == 4
    assert recognize_truncated(alg) is None
    assert alg.radical_filtration() == [1, 2, 1]


def test_published_m2_commutant_is_not_frobenius():
    # The commutant of the defective published M2 grid has a 2-dimensional
    # socle: falsifies its claimed Frobenius property (the corrected
    # resolution's commutant, dimension 8, is Frobenius; see
    # test_resolution.py).
    alg = ext_algebra(published_resolution("M2"))
    assert alg.dim == 5
    assert socle_dim(alg) == 2
    assert not frobenius(alg).frobenius


def test_recognition_implies_chain_filtration():
    # Recognition forces a one-dimensional socle and an all-ones filtration.
    rng = random.Random(59)
    for m in (2, 3, 5, 7):
        alg = FinAlg(*truncated_poly(m))
        assert recognize_truncated(alg) == m
        assert socle_dim(alg) == 1
        assert alg.radical_filtration() == [1] * m


def test_flat_roundtrip():
    dim, unit, structure = truncated_poly(3)
    flat = [structure[i][j][k] for i in range(dim) for j in range(dim) for k in range(dim)]
    alg = FinAlg.from_flat(dim, unit, flat)
    assert recognize_truncated(alg) == 3


def _unit_matrices(size, cells):
    return [Mat([[1 if (i, j) == cell else 0 for j in range(size)] for i in range(size)])
            for cell in cells]


def _reference_algebras(subcase_resolutions, representative_resolutions):
    """(name, algebra) pairs: local and non-local, commutative and not."""
    for m in range(1, 9):
        yield "k[x]/(x^%d)" % m, FinAlg(*truncated_poly(m))
    rng = random.Random(61)
    for params in ((0, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 1), (2, -1, 3)):
        base = sklyanin_algebra(*params)
        yield "sklyanin%s" % (params,), base
        yield "sklyanin%s changed" % (params,), _change(base, *_random_basis_change(rng))
    for key, data in subcase_resolutions.items():
        if key != "_elapsed":
            yield "ext " + key, data["ext"]
    for name, data in representative_resolutions.items():
        yield "ext " + name, data["ext"]
    for name in ("M2", "M5"):
        yield "published ext " + name, ext_algebra(published_resolution(name))
    yield "k x k", FinAlg(2, (1, 1), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    # Basis (1, 0), (x, 0), (0, 1) of k[x]/(x^2) x k.
    structure = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][0] = [1, 0, 0]
    structure[0][1] = structure[1][0] = [0, 1, 0]
    structure[2][2] = [0, 0, 1]
    yield "k[x]/(x^2) x k", FinAlg(3, (1, 0, 1), structure)
    for name, mats in _matrix_algebras():
        yield name, from_matrix_algebra(mats)


def _matrix_algebras():
    yield "M_2(k)", _unit_matrices(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    yield "upper triangular", _unit_matrices(2, [(0, 0), (0, 1), (1, 1)])
    # k + strictly upper triangular 3 x 3: local and not commutative, with a
    # one-sided annihilator of rad larger than the socle.
    yield "unipotent 3 x 3", [Mat.identity(3)] + _unit_matrices(3, [(0, 1), (0, 2), (1, 2)])


def test_radical_series_matches_reference(subcase_resolutions, representative_resolutions):
    seen = set()
    for name, alg in _reference_algebras(subcase_resolutions, representative_resolutions):
        # The package reads tr(L_i L_j) off tr(L_k); the reference sums
        # c[i][l][k] c[j][k][l].
        gram = [[row.get(j, 0) for j in range(alg.dim)] for row in alg._trace_form()]
        assert gram == ref_trace_gram(alg), name
        rad = ref_radical_basis(alg)
        assert list(alg.radical_powers[0]) == rad, name
        assert alg.radical_filtration() == ref_radical_filtration(alg, rad), name
        assert alg.is_local() == ref_is_local(alg, rad), name
        if alg.is_local():
            ref_socle = ref_socle_basis(alg, rad)
            assert alg.socle_basis() == ref_socle and socle_dim(alg) == len(ref_socle), name
        assert recognize_truncated(alg) == ref_recognize_truncated(alg, rad), name
        assert frobenius(alg).as_dict() == ref_frobenius(alg, rad), name
        seen.add((alg.is_local(), alg.is_commutative()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_matrix_algebra_without_identity():
    with pytest.raises(AlgebraError, match="identity matrix is not in the span"):
        from_matrix_algebra(_unit_matrices(2, [(0, 0)]))


def test_matrix_algebra_not_closed():
    mats = [Mat.identity(2)] + _unit_matrices(2, [(0, 1), (1, 0)])
    with pytest.raises(AlgebraError, match="not multiplicatively closed"):
        from_matrix_algebra(mats)


def test_matrix_algebra_dependent_span():
    with pytest.raises(AlgebraError, match="linearly dependent"):
        from_matrix_algebra([Mat.identity(2), Mat.identity(2)])
