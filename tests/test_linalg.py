"""Exact linear algebra: contract examples and algebraic properties."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdg.dg import DgSpec, _complex_columns
from skewdg.linalg import (Mat, _echelon, _integral, column_pivots, in_span, kernel_basis, rref,
                           solve_linear, sparse_kernel, sparse_rank, sparse_rows, sparse_rref)
from skewdg.resolution import eilenberg_moore

from reference_linalg import (
    ref_column_pivots,
    ref_inverse,
    ref_kernel_basis,
    ref_rank,
    ref_rref,
    ref_solve_linear,
)


def test_rref_proportional_rows():
    _, rank, pivots = rref(Mat([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == [0]


def test_rref_identity():
    red, rank, pivots = rref(Mat.identity(3))
    assert rank == 3
    assert pivots == [0, 1, 2]
    assert red == Mat.identity(3)


def test_rref_symmetric_example():
    # Hand elimination: rows 1 and 3 coincide, so the rank drops to 2.
    m = Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    _, rank, pivots = rref(m.T)
    assert rank == 2
    assert pivots == [0, 1]


def test_solve_with_kernel():
    m = Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]]).T
    particular, kernel = solve_linear(m, (1, 0, 1))
    assert particular == (1, 0, 0)
    assert kernel == [(1, 0, -1)]


def test_solve_identity():
    particular, kernel = solve_linear(Mat.identity(3), (5, -2, 7))
    assert particular == (5, -2, 7)
    assert kernel == []


def test_solve_inconsistent():
    particular, kernel = solve_linear(Mat.zero(2, 2), (1, 0))
    assert particular is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(Mat.identity(2), (1, 2, 3))


def test_in_span():
    span = [(1, 0, 1), (0, 1, 0)]
    assert not in_span(span, (1, 0, 0))
    assert in_span(span, (0, 0, 0))
    assert in_span(span, (2, 3, 2))


small = st.integers(min_value=-6, max_value=6)


def matrices(rows, cols):
    return st.lists(st.lists(small, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Mat)


@settings(max_examples=60, deadline=None)
@given(matrices(3, 4), st.lists(small, min_size=3, max_size=3))
def test_solution_solves_exactly(m, b):
    particular, kernel = solve_linear(m, b)
    if particular is not None:
        assert list(m.apply(particular)) == [Q(x) for x in b]
    for v in kernel:
        assert all(x == 0 for x in m.apply(v))
    assert len(kernel) == m.cols - m.rank()


@settings(max_examples=60, deadline=None)
@given(matrices(4, 3))
def test_rref_idempotent(m):
    red, rank, pivots = rref(m)
    again, rank2, pivots2 = rref(red)
    assert again == red
    assert (rank, pivots) == (rank2, pivots2)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3))
def test_rank_matches_rref(m):
    _, rank, _ = ref_rref(m.data, m.cols)
    assert rank == m.rank()


rationals = st.builds(Q, st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=5))


@st.composite
def rational_systems(draw):
    """(rows, ncols, b): a 0..8 x 1..8 rational matrix, some rows zeroed,
    and a right-hand side."""
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zeroed = draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows))
    rows = [[Q(0)] * ncols if z else row for row, z in zip(rows, zeroed)]
    b = draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    return rows, ncols, b


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_core_matches_fraction_reference(system):
    """The integer echelon agrees with plain Fraction Gauss-Jordan on rref,
    kernel, solve and rank, and on the inverse of the leading square
    block."""
    rows, ncols, b = system
    m = Mat(rows)
    ncols = m.cols  # a matrix without rows has no columns
    ref_red, ref_rank, ref_pivots = ref_rref(rows, ncols)
    assert rref(m) == (Mat(ref_red), ref_rank, ref_pivots)
    assert m.rank() == ref_rank
    assert kernel_basis(m) == ref_kernel_basis(rows, ncols)
    assert solve_linear(m, b) == ref_solve_linear(rows, ncols, b)
    k = min(len(rows), ncols)
    block = [row[:k] for row in rows[:k]]
    ref_inv = ref_inverse(block)
    if ref_inv is None:
        with pytest.raises(ValueError):
            Mat(block).inverse()
    else:
        assert Mat(block).inverse() == Mat(ref_inv)


@st.composite
def column_lists(draw):
    """(columns, height): 0..8 dense columns of height 0..5, drawn with
    repetition from a few rational columns and the zero column."""
    height = draw(st.integers(min_value=0, max_value=5))
    pool = draw(st.lists(st.lists(rationals, min_size=height, max_size=height),
                         min_size=1, max_size=4))
    pool.append([Q(0)] * height)
    return draw(st.lists(st.sampled_from(pool), max_size=8)), height


@settings(max_examples=200, deadline=None)
@given(column_lists())
def test_column_pivots_match_fraction_reference(system):
    """column_pivots on the sparse columns gives the pivots of the Fraction
    rref of the matrix with those columns."""
    columns, height = system
    assert column_pivots(sparse_rows(columns)) == ref_column_pivots(columns, height)


@st.composite
def sparse_rational_matrices(draw):
    """A 0..30 x 1..30 rational matrix, each entry nonzero with a drawn
    probability (denominators 1..5)."""
    nrows = draw(st.integers(min_value=0, max_value=30))
    ncols = draw(st.integers(min_value=1, max_value=30))
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
             if rng.random() < density else Q(0) for _ in range(ncols)]
            for _ in range(nrows)]
    return rows, ncols


@settings(max_examples=100, deadline=None)
@given(sparse_rational_matrices())
def test_sparse_echelon_matches_fraction_reference(system):
    """The sparse echelon spans the row space of the input (same rref as the
    Fraction reference), its rows start in its increasing pivot columns,
    and rref, rank and sparse_rank agree with the reference."""
    rows, ncols = system
    ref_red, rank, pivots = ref_rref(rows, ncols)
    echelon, ech_pivots = _echelon([_integral(row) for row in sparse_rows(rows)])
    assert ech_pivots == pivots
    assert [min(row) for row in echelon] == pivots
    dense = [[Q(row.get(j, 0)) for j in range(ncols)] for row in echelon]
    assert ref_rref(dense, ncols)[0][:rank] == ref_red[:rank]
    assert rank == ref_rank(rows, ncols)
    m = Mat(rows)
    assert rref(m) == (Mat(ref_red), rank, pivots)
    assert m.rank() == rank
    assert sparse_rank({j: x for j, x in enumerate(row) if x} for row in rows) == rank


@settings(max_examples=100, deadline=None)
@given(sparse_rational_matrices())
def test_sparse_kernel_matches_kernel_basis(system):
    """sparse_kernel on the nonzero entries, and kernel_basis on the dense
    rows, give the vectors of the Fraction reference with the same
    first-nonzero-is-1 scaling."""
    rows, ncols = system
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    kernel = sparse_kernel(sparse, ncols)
    assert kernel == ref_kernel_basis(rows, ncols)
    if rows:  # a Mat without rows has no columns
        assert kernel == kernel_basis(Mat(rows))


@settings(max_examples=100, deadline=None)
@given(sparse_rational_matrices(), st.booleans())
def test_kernels_and_solutions_are_fractions(system, integral):
    """Kernel and solution coordinates are made from int pairs, and rows of
    ints enter the elimination as they are; an int equals a Fraction under
    ==, so the types are checked apart from the reference values."""
    rows, ncols = system
    if integral:
        rows = [[int(60 * x) for x in row] for row in rows]
    kernel = sparse_kernel(sparse_rows(rows), ncols)
    assert kernel == ref_kernel_basis(rows, ncols)
    assert all(type(x) is Q for v in kernel for x in v)
    if rows:
        b = [sum(row) + i % 2 for i, row in enumerate(rows)]
        solved = solve_linear(Mat(rows), b)
        assert solved == ref_solve_linear(rows, ncols, b)
        assert all(type(x) is Q for v in [solved[0] or ()] + solved[1] for x in v)


@st.composite
def structured_sparse_matrices(draw):
    """(rows, ncols, perm): a 0..60 x 1..60 rational matrix whose rows come
    in groups sharing one of a few leading columns, with zero rows and
    repeated or rescaled earlier rows mixed in, and a column permutation."""
    nrows = draw(st.integers(min_value=0, max_value=60))
    ncols = draw(st.integers(min_value=1, max_value=60))
    rng = draw(st.randoms(use_true_random=False))
    leads = rng.sample(range(ncols), min(ncols, rng.randint(1, 6)))
    density = rng.choice([0.05, 0.15, 0.4])

    def entry():
        return Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Q(0)] * ncols)
        elif kind < 0.3 and rows:
            c = rng.choice([Q(1), Q(1), Q(-1), Q(2), Q(1, 3)])
            rows.append([c * x for x in rng.choice(rows)])
        else:
            lead = rng.choice(leads)
            rows.append([Q(0)] * lead + [entry()]
                        + [entry() if rng.random() < density else Q(0)
                           for _ in range(lead + 1, ncols)])
    perm = list(range(ncols))
    rng.shuffle(perm)
    return rows, ncols, perm


@settings(max_examples=60, deadline=None)
@given(structured_sparse_matrices())
def test_bucketed_echelon_on_structured_matrices(system):
    """Many rows per leading column, duplicates and zero rows: the echelon's
    pivots and leading columns, sparse_rref, column_pivots and sparse_rank
    agree with the Fraction reference, and sparse_rank does not depend on
    the order of the columns."""
    rows, ncols, perm = system
    ref_red, rank, pivots = ref_rref(rows, ncols)
    sparse = sparse_rows(rows)
    echelon, ech_pivots = _echelon([_integral(row) for row in sparse])
    assert ech_pivots == pivots
    assert [min(row) for row in echelon] == pivots
    assert sparse_rref(sparse) == ([{j: x for j, x in enumerate(row) if x}
                                    for row in ref_red[:rank]], pivots)
    assert column_pivots(sparse) == ref_column_pivots(rows, ncols)
    assert sparse_rank(sparse) == rank == ref_rank(rows, ncols)
    assert sparse_rank({perm[j]: x for j, x in row.items()} for row in sparse) == rank


# The n = 5 input of rank 2 whose d_F drove the entries of the
# natural-order elimination from 17 to 383 bits in degree 4.
N5_BLOWUP = [[2, -2, 2, 2, 2], [2, -1, 2, 3, 3], [1, -2, 1, 0, 0], [2, -2, 2, 2, 2],
             [-1, 0, -1, -2, -2]]


def test_rank_of_n5_complex_in_degrees_3_and_4():
    """The resolution closes at size 8, and d_F has rank 193 in degree 3
    and 367 in degree 4."""
    spec = DgSpec(Mat(N5_BLOWUP))
    grid, complete = eilenberg_moore(spec)
    assert complete and len(grid) == 8
    assert [sparse_rank(_complex_columns(spec, grid, d)) for d in (3, 4)] == [193, 367]
