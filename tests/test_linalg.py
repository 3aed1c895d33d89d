"""Exact linear algebra: contract examples and algebraic properties."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdg.linalg import (Mat, _echelon, _int_rows, in_span, kernel_basis, rref, solve_linear,
                           sparse_kernel, sparse_rank)

from reference_linalg import (
    ref_det,
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
    kernel, solve and rank, and on det and inverse of the leading square
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
    assert Mat(block).det() == ref_det(block)
    ref_inv = ref_inverse(block)
    if ref_inv is None:
        with pytest.raises(ValueError):
            Mat(block).inverse()
    else:
        assert Mat(block).inverse() == Mat(ref_inv)


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
    echelon, ech_pivots, _ = _echelon(_int_rows(rows))
    assert ech_pivots == pivots
    assert [min(row) for row in echelon] == pivots
    dense = [[Q(row.get(j, 0)) for j in range(ncols)] for row in echelon]
    assert ref_rref(dense, ncols)[0][:rank] == ref_red[:rank]
    assert rank == ref_rank(rows, ncols)
    m = Mat(rows)
    assert rref(m) == (Mat(ref_red), rank, pivots)
    assert m.rank() == rank
    assert sparse_rank({j: x for j, x in enumerate(row) if x} for row in rows) == rank
    k = min(len(rows), ncols)
    block = [row[:k] for row in rows[:k]]
    assert Mat(block).det() == ref_det(block)


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
