"""Structure-constant algebras: validation, socle, Frobenius, recognition."""

import random
from fractions import Fraction as Q

import pytest

from skewdg.finalg import (
    AlgebraError,
    FinAlg,
    frobenius,
    radical_filtration,
    recognize_truncated,
    sklyanin_e,
    socle_dim,
)
from skewdg.linalg import Mat
from skewdg.resolution import build_resolution, ext_algebra, published_resolution


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
    assert radical_filtration(alg) == [1, 1, 1, 1]
    assert recognize_truncated(alg) == 4


def test_make_algebra_rejects_nonassociative():
    m, unit, structure = truncated_poly(3)
    structure[1][2][0] = 1  # x * x^2 gains a unit component
    with pytest.raises(AlgebraError):
        FinAlg(m, unit, structure)


def test_commutant_of_published_first_representative_is_valid():
    res = published_resolution("M1")
    alg = ext_algebra(res)
    assert alg.dim == 8
    assert socle_dim(alg) == 1
    assert radical_filtration(alg) == [1, 2, 2, 2, 1]


def test_sklyanin_family_table():
    alg = sklyanin_e(0, 0, 0)
    assert socle_dim(alg) == 3
    assert not frobenius(alg).frobenius
    alg = sklyanin_e(1, 1, 0)
    verdict = frobenius(alg)
    assert verdict.frobenius and verdict.symmetric
    alg = sklyanin_e(1, 1, 1)
    assert socle_dim(alg) == 2
    assert not frobenius(alg).frobenius


def test_sklyanin_grid():
    for lam in range(-2, 3):
        for mu in range(-2, 3):
            for nu in range(-2, 3):
                verdict = frobenius(sklyanin_e(lam, mu, nu))
                assert verdict.frobenius == (lam * mu - nu * nu != 0), (lam, mu, nu)


def test_frobenius_invariant_under_basis_change():
    rng = random.Random(53)
    base = sklyanin_e(1, 2, 1)
    expected = frobenius(base).frobenius
    for _ in range(5):
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if p.det() != 0:
                break
        inv = p.inverse()
        # Conjugated structure constants: new basis b'_i = sum p[i][j] b_j.
        conjugated, _ = _change(base, p, inv)
        assert frobenius(conjugated).frobenius == expected


def _change(alg, p, inv):
    dim = alg.dim
    basis = [tuple(p[i, j] for j in range(dim)) for i in range(dim)]
    structure = []
    for i in range(dim):
        row = []
        for j in range(dim):
            prod = alg.multiply(basis[i], basis[j])
            coords = inv.T.apply(prod)
            row.append(tuple(coords))
        structure.append(row)
    unit_coords = inv.T.apply(alg.unit)
    return FinAlg(dim, unit_coords, structure), basis


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
    assert radical_filtration(alg) == [1, 2, 1]


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
        assert radical_filtration(alg) == [1] * m


def test_flat_roundtrip():
    dim, unit, structure = truncated_poly(3)
    flat = [structure[i][j][k] for i in range(dim) for j in range(dim) for k in range(dim)]
    alg = FinAlg.from_flat(dim, unit, flat)
    assert recognize_truncated(alg) == 3
