"""The differential, boundary matrices, cohomology and the CY probe."""

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction as Q

import pytest
from conftest import assert_tidy, count_eliminations, random_element
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_linalg import ref_column_pivots, ref_rank, ref_rref
from reference_resolution import coefficient_vector

from skewdg.cli import main
from skewdg.dg import DgSpec, InternalConsistencyError, cup_kernel, cy_probe, koszul_dims
from skewdg.linalg import Mat, kernel_basis
from skewdg.resolution import SemifreeResolution, eilenberg_moore, verify_resolution
from skewdg.skew import SkewElement, graded_basis


def spec_of(rows):
    return DgSpec(Mat(rows))


def test_differential_basic_examples():
    spec = spec_of([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    x1 = SkewElement.variable(1, 3)
    x2 = SkewElement.variable(2, 3)
    x3 = SkewElement.variable(3, 3)
    assert spec.differential(x1) == x2 * x2
    assert spec.differential(x2).is_zero()
    assert spec.differential(x3).is_zero()
    assert spec.differential(SkewElement.one(3)).is_zero()


def test_even_powers_are_cocycles():
    random.seed(7)
    for _ in range(10):
        n = random.choice([2, 3, 4])
        spec = spec_of([[random.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        for i in range(1, n + 1):
            x = SkewElement.variable(i, n)
            sq = x * x
            for t in (1, 2, 3):
                power = sq
                for _ in range(t - 1):
                    power = power * sq
                assert spec.differential(power).is_zero()


def test_boundary_matrix_degree_one_is_transpose():
    m = Mat([[1, 2, 0], [0, 1, 1], [3, 0, 1]])
    spec = DgSpec(m)
    b1 = spec.boundary_matrix(1)
    # Columns: x1, x2, x3; rows: graded_basis(3, 2), squares at 0, 3, 5.
    square_rows = [0, 3, 5]
    embedded = Mat([[b1[r, c] for c in range(3)] for r in square_rows])
    assert embedded == m.T
    others = [r for r in range(6) if r not in square_rows]
    assert all(b1[r, c] == 0 for r in others for c in range(3))


def test_boundary_zero_matrix():
    spec = spec_of([[0] * 3] * 3)
    for d in range(4):
        assert spec.boundary_matrix(d).is_zero()


def test_boundary_identity_rank():
    spec = DgSpec(Mat.identity(3))
    assert spec.boundary_matrix(1).rank() == 3


def test_boundaries_compose_to_zero():
    random.seed(11)
    for _ in range(8):
        n = random.choice([2, 3, 4])
        spec = spec_of([[random.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        for d in range(6):
            assert (spec.boundary_matrix(d + 1) * spec.boundary_matrix(d)).is_zero()


def test_leibniz_exact():
    random.seed(13)
    for _ in range(12):
        n = random.choice([2, 3])
        spec = spec_of([[random.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        for da, db in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
            a = SkewElement(n, {m: random.randint(-2, 2) for m in graded_basis(n, da)})
            b = SkewElement(n, {m: random.randint(-2, 2) for m in graded_basis(n, db)})
            sign = -1 if da % 2 else 1
            assert spec.differential(a * b) == \
                spec.differential(a) * b + (a * spec.differential(b)).scale(sign)


def summed_images(spec, u):
    """d(u) summed term by term over the uncached _monomial_image, whose int
    coefficients are _den times those of d."""
    return SkewElement(spec.n, [(key, coeff * Q(c, spec._den)) for mono, coeff in u.terms.items()
                                for key, c in spec._monomial_image(mono)])


@pytest.mark.parametrize("n", range(1, 6))
def test_differential_is_tidy_and_matches_the_monomial_images(n):
    rng = random.Random(8000 + n)
    for _ in range(4):
        spec = spec_of([[Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                        for _ in range(n)])
        units = [SkewElement(n, {m: 1}) for d in range(4) for m in graded_basis(n, d)]
        mixed = [random_element(rng, n, rng.randint(0, 6)) for _ in range(20)]
        # The sum of two images can cancel: x1 x2 + x2 x1 = 0 before d.
        x1, xn = SkewElement.variable(1, n), SkewElement.variable(n, n)
        for u in units + mixed + [x1 * xn + xn * x1, (x1 + xn) * (x1 - xn), -x1]:
            expect = summed_images(spec, u)
            first = spec.differential(u)
            assert first == expect and spec.differential(u) == expect
            assert_tidy(first, n)
            # A caller that changes a result must not change the next one.
            first.terms.clear()
            spec.differential(u).terms[(9,) * n] = Q(1)
            assert spec.differential(u) == expect
        for d in range(3):
            assert spec.images(d) == [{graded_basis(n, d + 1).index(key): c
                                       for key, c in spec._monomial_image(m)}
                                      for m in graded_basis(n, d)]

def test_cohomology_dims_examples():
    assert DgSpec(Mat.identity(3)).cohomology(3).dims == [1, 0, 0, 0]
    assert spec_of([[0] * 3] * 3).cohomology(3).dims == [1, 3, 6, 10]
    assert spec_of([[1, 0], [0, 0]]).cohomology(4).dims == [1, 1, 1, 1, 1]


def test_cohomology_requires_dmax():
    with pytest.raises(ValueError):
        spec_of([[0] * 3] * 3).cohomology(1)


def test_h1_dimension_is_corank():
    random.seed(17)
    for _ in range(20):
        n = 3
        m = Mat([[random.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        rep = DgSpec(m).cohomology(2)
        assert rep.dims[0] == 1
        assert rep.dims[1] == n - m.rank()


def dense_h2_data(spec):
    """(cocycles, coboundaries) by dense linear algebra: Z^2 from kernel_basis
    on the boundary matrix, B^2 spanned by the columns of boundary_matrix(1),
    the cocycles at the pivots of [B^2 | Z^2] past those of B^2."""
    z2 = kernel_basis(spec.boundary_matrix(2))
    b1 = spec.boundary_matrix(1)
    bound = [b1.column(j) for j in range(b1.cols)]
    basis2 = graded_basis(spec.n, 2)
    cols = bound + z2
    pivots = ref_column_pivots(cols, len(basis2))
    rank = sum(p < len(bound) for p in pivots)

    def element(vec):
        return SkewElement(spec.n, dict(zip(basis2, vec)))

    return ([element(cols[p]) for p in pivots[rank:]], [element(cols[p]) for p in pivots[:rank]])


def rank_r_matrices(rng, ns, per_rank=2):
    """M = L R for random rational n x r and r x n factors, kept when of
    rank r: per_rank matrices of each rank r <= n for each n in ns."""
    entries = [0, 0, 1, -1, 2, Q(1, 2), Q(-2, 3)]
    for n in ns:
        for r in range(n + 1):
            for _ in range(per_rank):
                while True:
                    left = Mat([[rng.choice(entries) for _ in range(r)] for _ in range(n)])
                    right = Mat([[rng.choice(entries) for _ in range(n)] for _ in range(r)])
                    m = left * right if r else Mat.zero(n, n)
                    if m.rank() == r:
                        break
                yield m


def test_h2_data_matches_dense_reference():
    for m in rank_r_matrices(random.Random(23), range(2, 6)):
        spec = DgSpec(m)
        assert spec.cohomology(2).h2_data == dense_h2_data(spec), m


def test_h1_basis_matches_dense_kernel_of_transpose():
    # H^1(A) is read off the complex F on one generator, from sparse_kernel on
    # the rows of d : A^1 -> A^2; those rows are the rows of M^T, so the
    # basis is the dense kernel_basis of M^T as linear forms, in its order.
    for m in rank_r_matrices(random.Random(31), range(1, 6)):
        want = [SkewElement.linear(v, m.rows) for v in kernel_basis(m.T)]
        assert DgSpec(m).cohomology(2).h1_basis == want, m


def test_internal_dimension_consistency():
    # cohomology ranks the sparse images of the differential; the reference
    # ranks the dense boundary matrices by Fraction elimination.  The fixed
    # inputs reach n = 5 at degree 7, a 495 x 330 boundary matrix.  The
    # first has rank 1 but its numerators alone have rank 3, so its images
    # must be cleared of denominators before elimination.
    random.seed(19)
    cases = []
    for _ in range(6):
        n = random.choice([2, 3])
        cases.append(([[random.randint(-2, 2) for _ in range(n)] for _ in range(n)], 5))
    cases += [
        ([[1, Q(1, 2), Q(1, 3)], [2, 1, Q(2, 3)], [3, Q(3, 2), 1]], 8),
        ([[1, -1, 0], [1, 1, 1], [1, -1, 1]], 8),
        ([[0, 1, 0, 0], [0, 0, Q(3, 2), 0], [0, 0, 0, -1], [0, 0, 0, 0]], 7),
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], 7),
        ([[0, Q(1, 3), 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 1], [0] * 5], 6),
        ([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [0] * 5], 7),
    ]
    for rows, dmax in cases:
        spec = spec_of(rows)
        rep = spec.cohomology(dmax)
        ranks = [ref_rank(b.data, b.cols)
                 for b in (spec.boundary_matrix(d) for d in range(dmax + 1))]
        for d in range(dmax + 1):
            total = len(graded_basis(spec.n, d))
            prev = ranks[d - 1] if d else 0
            assert rep.dims[d] == total - ranks[d] - prev, (rows, d)


# Degrees to which the brute force is compared with the Koszul closed form.
KOSZUL_DEGREES = {1: 8, 2: 7, 3: 6, 4: 5, 5: 4}
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _product_matrix(a, b, n):
    """A B for A n x r and B r x n: a matrix of rank at most r."""
    return Mat([[sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(n)]
                for i in range(n)])


@st.composite
def low_rank_matrices(draw, max_n=5, min_n=1):
    n = draw(st.integers(min_n, max_n))
    r = draw(st.integers(0, n))
    a = draw(st.lists(st.lists(RATIONALS, min_size=r, max_size=r), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=r, max_size=r))
    return _product_matrix(a, b, n), r


@settings(max_examples=60, deadline=None)
@given(low_rank_matrices())
def test_koszul_dims_match_brute_force(case):
    # (A, d) is the Koszul complex of M y over k[y_i = x_i^2], so dim H^d
    # depends on n and rank M alone.
    m, r = case
    assert m.rank() <= r
    dmax = KOSZUL_DEGREES[m.rows]
    assert DgSpec(m).cohomology_dims(dmax) == koszul_dims(m.rows, m.rank(), dmax), m


def validate_flags(m):
    """The exit code and the two flags of `skewdg validate` on m."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump({"n": m.rows, "matrix": [[str(x) for x in row] for row in m.data]}, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate", path, "--max-degree", "4"])
    record = json.loads(out.getvalue())
    return code, record["square_zero"], record["leibniz_on_low_degrees"]


@settings(max_examples=30, deadline=None)
@given(low_rank_matrices(max_n=4), RATIONALS.filter(bool))
def test_answers_do_not_change_when_m_is_scaled(case, c):
    # x_i -> c x_i is an isomorphism A(M) -> A(cM).  The images of d are
    # kept as ints times the lcm of the denominators of M, which differs
    # between M and cM; every answer read from them must not.
    m, _ = case
    answers = []
    for mat in (m, Mat([[c * x for x in row] for row in m.data])):
        spec = DgSpec(mat)
        grid, complete = eilenberg_moore(spec)
        check = verify_resolution(spec, SemifreeResolution(spec, grid, None), dmax=spec.n + 2)
        answer = [spec.cohomology_dims(5), len(grid), complete, check.passed, validate_flags(mat)]
        if spec.n == 3:
            answer.append(cup_kernel(spec))
        answers.append(answer)
    assert answers[0] == answers[1], (m, c)
    assert answers[0][2:] == [True, True, (0, True, True)] + answers[0][5:], m


def test_koszul_dims_every_rank():
    assert koszul_dims(3, 1, 6) == [1, 2, 3, 4, 5, 6, 7]
    assert koszul_dims(3, 0, 3) == [1, 3, 6, 10]
    assert koszul_dims(4, 4, 3) == [1, 0, 0, 0]
    rng = random.Random(29)
    for n in range(1, 6):
        for r in range(n + 1):
            while True:
                a = [[Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(r)] for _ in range(n)]
                b = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(r)]
                m = _product_matrix(a, b, n)
                if m.rank() == r:
                    break
            dmax = KOSZUL_DEGREES[n]
            assert DgSpec(m).cohomology_dims(dmax) == koszul_dims(n, r, dmax), m


def test_cup_kernel_rank3_is_empty():
    relations, extra = cup_kernel(DgSpec(Mat.identity(3)))
    assert relations == []
    assert extra == 0


def test_cup_kernel_single_relation():
    relations, extra = cup_kernel(spec_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]]))
    assert len(relations) == 1
    # Symmetric rank-one relation: the square of the first basis class.
    assert relations[0] == (1, 0, 0, 0)


def test_cup_kernel_three_generator_case():
    relations, extra = cup_kernel(spec_of([[0, 1, 0], [0, 0, 0], [0, 1, 0]]))
    assert len(relations) == 2
    assert extra == 1


def dense_cup_kernel(spec):
    """(relation space, new H^2 generators) by dense linear algebra: H^1 from
    kernel_basis(M^T), B^2 spanned by the columns of boundary_matrix(1), the
    relations as the ref_rref rows of the heads of kernel_basis on
    [products | B^2 columns], and the ranks by ref_rank."""
    h1 = [SkewElement.linear(v, 3) for v in kernel_basis(spec.m.T)]
    basis2 = graded_basis(3, 2)
    products = [coefficient_vector(u * v, 2, basis2) for u in h1 for v in h1]
    b1 = spec.boundary_matrix(1)
    bound = [b1.column(j) for j in range(b1.cols)]
    joint = Mat.from_columns(products + bound)
    heads = [v[:len(products)] for v in kernel_basis(joint)]
    red, rank, _ = ref_rref(heads, len(products))
    rank_bound = ref_rank(b1.data, b1.cols)
    image_dim = ref_rank(joint.data, joint.cols) - rank_bound
    b2 = spec.boundary_matrix(2)
    h2_dim = len(basis2) - ref_rank(b2.data, b2.cols) - rank_bound
    return [tuple(row) for row in red[:rank]], h2_dim - image_dim


def test_cup_kernel_matches_dense_reference():
    # The relations come back as the reduced-echelon basis of their space,
    # so they equal the reference's ref_rref rows, whichever spanning set of
    # B^2 the reference eliminates against.
    seen = set()
    for m in rank_r_matrices(random.Random(41), [3], per_rank=50):
        relations, extra = cup_kernel(DgSpec(m))
        assert (relations, extra) == dense_cup_kernel(DgSpec(m)), m
        if len(relations) == 1 and m.rank() == 1:
            t1, t3, _, t2 = relations[0]
            seen.add("degenerate" if t1 * t2 == t3 * t3 else "nondegenerate")
        elif len(relations) == 2:
            seen.add("two relations")
    assert seen == {"degenerate", "nondegenerate", "two relations"}


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices(max_n=3, min_n=3))
def test_cup_relations_are_fractions_and_match_dense_reference(case):
    # The products are summed as ints and the heads scaled back; an int
    # equals a Fraction under ==, so the types are checked apart.
    spec = DgSpec(case[0])
    relations, extra = cup_kernel(spec)
    assert (relations, extra) == dense_cup_kernel(spec), spec
    assert all(type(x) is Q for rel in relations for x in rel)


def test_rank1_probe_runs_three_eliminations(monkeypatch):
    # H^1, the kernel of [products | images of A^1] and the reduced echelon
    # of its heads; the rank of M is read before the count starts.
    m = Mat([[1, 1, 1], [1, 1, 1], [2, 2, 2]])
    assert m.rank() == 1
    calls = count_eliminations(monkeypatch)
    assert cy_probe(DgSpec(m)).branch == "degenerate-quadric"
    assert len(calls) == 3


def test_cy_probe_examples():
    assert not cy_probe(spec_of([[1, 1, 0], [1, 1, 0], [1, 1, 0]])).calabi_yau
    assert not cy_probe(spec_of([[1, 1, 1], [1, 1, 1], [2, 2, 2]])).calabi_yau
    assert cy_probe(DgSpec(Mat.identity(3))).calabi_yau
    assert cy_probe(spec_of([[0] * 3] * 3)).branch == "rank-0"


def test_cy_probe_relation_data():
    verdict = cy_probe(spec_of([[1, 1, 1], [1, 1, 1], [2, 2, 2]]))
    t1, t2, t3 = verdict.relation
    assert t1 * t2 == t3 * t3
