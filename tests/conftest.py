"""Shared fixtures: the example batteries, cached battery results and
random skew elements."""

from fractions import Fraction

import pytest

from skewdg import linalg
from skewdg.linalg import Mat
from skewdg.skew import SkewElement, graded_basis

# Example matrices per resolution subcase.  Item (8) of the first family in
# the source listing, [[1,-1,0],[1,1,1],[1,-1,1]], has determinant 2 and is
# genuinely rank 3, so it cannot lie in any rank-2 subcase; it is kept
# separately as an erratum regression below.
CASE_1_1 = [
    [[1, 0, 1], [1, 1, 1], [1, 0, 1]],
    [[0, 1, 0], [1, 0, 1], [1, 1, 1]],
    [[1, 0, 1], [0, 1, 0], [1, 1, 1]],
    [[1, 0, 1], [0, 1, 1], [1, 0, 1]],
    [[1, 1, 1], [0, 1, 0], [1, 1, 1]],
    [[0, 1, 0], [1, 1, 1], [0, 1, 0]],
    [[1, 0, 1], [0, 1, 0], [1, 0, 1]],
    [[1, 1, 1], [-1, 1, 1], [-1, 1, 1]],
]
ERRATUM_1_1 = [[1, -1, 0], [1, 1, 1], [1, -1, 1]]

CASE_1_2_1 = [
    [[1, 1, 0], [1, 0, 1], [1, 1, 0]],
    [[1, 1, 1], [0, 0, 1], [0, 0, 0]],
    [[1, 0, 0], [1, 0, 1], [1, 0, 0]],
    [[0, 0, 1], [0, 1, 0], [0, 0, 0]],
    [[0, 1, 0], [0, 0, 0], [1, 0, 1]],
    [[1, 1, 0], [0, 0, 0], [1, 0, 0]],
]
CASE_1_2_2 = [
    [[1, 1, 1], [1, 0, 1], [1, 1, 1]],
    [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
    [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
]
CASE_1_2_3 = [
    [[1, 1, 1], [0, 0, 0], [1, 0, 1]],
]
CASE_1_2_4 = [
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
]
CASE_1_3_1 = [
    [[1, 0, 1], [1, 1, 1], [0, 1, 0]],
    [[1, 0, 0], [0, 0, 1], [1, 0, 0]],
    [[1, 1, 1], [0, 1, 1], [1, 0, 0]],
]
CASE_1_3_2 = [
    [[1, 1, 0], [1, 1, 0], [0, 1, 0]],
    [[1, 0, 1], [0, 0, 1], [1, 0, 1]],
    [[1, 0, 1], [1, 0, 0], [1, 0, 1]],
    [[1, 0, 1], [-1, 0, -2], [1, 0, 1]],
]

SUBCASE_BATTERY = {
    "1.1": CASE_1_1,
    "1.2.1": CASE_1_2_1,
    "1.2.2": CASE_1_2_2,
    "1.2.3": CASE_1_2_3,
    "1.2.4": CASE_1_2_4,
    "1.3.1": CASE_1_3_1,
    "1.3.2": CASE_1_3_2,
}
SUBCASE_SIZE = {"1.1": 3, "1.2.1": 4, "1.2.2": 5, "1.2.3": 6, "1.2.4": 8,
                "1.3.1": 4, "1.3.2": 6}
SUBCASE_EXT = {"1.1": 3, "1.2.1": 4, "1.2.2": 5, "1.2.3": 6, "1.2.4": 8,
               "1.3.1": 4, "1.3.2": 6}

NOT_CY = [
    [[1, 1, 0], [1, 1, 0], [1, 1, 0]],
    [[0, 1, 1], [0, 1, 1], [0, 1, 1]],
    [[1, 1, 1], [1, 1, 1], [2, 2, 2]],
]

# One representative per cohomology case of the n = 3 taxonomy; the
# degenerate-family representatives are the homologically smooth members,
# whose displayed presentations are complete.
COHOMOLOGY_CASE_REPS = {
    1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    2: [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    3: [[1, 0, 1], [0, 1, 0], [1, 0, 1]],
    4: [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    5: [[2, 1, 1], [2, 1, 1], [0, 0, 0]],
    6: [[2, 1, 1], [2, 1, 1], [2, 1, 1]],
    7: [[1, 1, 1], [1, 1, 1], [0, 0, 0]],
    8: [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
    9: [[0, 1, 1], [0, 0, 0], [0, 0, 0]],
    "7b": [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
    "9b": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
}

# The seven published n = 2 families.
PLANAR_FAMILIES = [
    [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 1], [0, 0]],
    [[1, 0], [1, 0]], [[2, 1], [1, 2]], [[1, 1], [1, 1]],
]


def fresh_minimal_size(m, dmax=7):
    """Size of the resolution that eilenberg_moore builds for m under a cap
    of 16 generators, after checking that the build is complete and exact
    through H^(dmax-1).

    On a split matrix, product_rule_size multiplies this size over the two
    tensor factors, which checks the size build_resolution emits for the
    whole matrix without building it.
    """
    from skewdg.dg import DgSpec
    from skewdg.resolution import SemifreeResolution, eilenberg_moore, verify_resolution

    spec = DgSpec(m)
    grid, complete = eilenberg_moore(spec, max_size=16)
    assert complete, m
    check = verify_resolution(spec, SemifreeResolution(spec, grid, None), dmax=dmax)
    assert check.passed, (m, check.failures)
    return len(grid)


def product_rule_size(m):
    """Minimal resolution size of m predicted from its two tensor factors.

    When the last row and column of m vanish, d(x_n) = 0 and x_n^2 occurs in
    no other d(x_i), so A(m) is the graded tensor product A(m') (x) k[x_n],
    with m' the leading (n-1) x (n-1) block.  Minimal semifree resolutions
    of the trivial module tensor together, so their sizes multiply.
    """
    n = m.rows
    assert all(m[n - 1, j] == 0 for j in range(n)), m
    assert all(m[i, n - 1] == 0 for i in range(n)), m
    block = Mat([[m[i, j] for j in range(n - 1)] for i in range(n - 1)])
    return fresh_minimal_size(block) * fresh_minimal_size(Mat([[0]]))


def random_element(rng, n, size):
    """Up to `size` terms of degree 0..3 with small rational coefficients;
    drawing a monomial twice merges (and sometimes cancels) its terms."""
    monos = [m for d in range(4) for m in graded_basis(n, d)]
    return SkewElement(n, [(rng.choice(monos), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                           for _ in range(size)])


def assert_tidy(elt, n):
    """The terms are what the public constructor makes of them: Fraction
    coefficients, none zero, on tuple monomials of arity n."""
    assert elt.n == n
    assert elt == SkewElement(n, list(elt.terms.items()))
    for mono, c in elt.terms.items():
        assert type(mono) is tuple and len(mono) == n
        assert type(c) is Fraction and c != 0


def count_eliminations(monkeypatch) -> list:
    """Patch the one elimination core, linalg._echelon, to record each call;
    the returned list grows by one entry per elimination."""
    calls = []
    inner = linalg._echelon

    def counted(rows):
        calls.append(len(rows))
        return inner(rows)
    monkeypatch.setattr(linalg, "_echelon", counted)
    return calls


@pytest.fixture(scope="session")
def subcase_resolutions():
    """Built + verified resolutions and Ext data for the whole subcase
    battery; computed once because verification is the expensive step."""
    import time

    from skewdg.dg import DgSpec
    from skewdg.finalg import frobenius, recognize_truncated, socle_dim
    from skewdg.resolution import build_resolution, ext_algebra, verify_resolution

    start = time.time()
    results = {}
    for sub, mats in SUBCASE_BATTERY.items():
        for entry in mats:
            m = Mat(entry)
            res = build_resolution(m)
            check = verify_resolution(DgSpec(m), res, dmax=5)
            ext = ext_algebra(res)
            results[str(entry)] = {
                "subcase": sub,
                "resolution": res,
                "verified": check,
                "ext": ext,
                "ext_dim": ext.dim,
                "truncated": recognize_truncated(ext),
                "socle": socle_dim(ext),
                "frobenius": frobenius(ext),
            }
    results["_elapsed"] = time.time() - start
    return results


@pytest.fixture(scope="session")
def representative_resolutions():
    """Resolutions and Ext data for the six rank-1 equality representatives;
    each is verified with dmax=7 (H^0 = k and H^1..H^6 = 0)."""
    from skewdg.finalg import frobenius, recognize_truncated, socle_dim
    from skewdg.resolution import (SIX_REPRESENTATIVES, build_resolution, ext_algebra,
                                   verify_resolution)

    results = {}
    for name, m in SIX_REPRESENTATIVES.items():
        res = build_resolution(m)
        check = verify_resolution(res.spec, res, dmax=7)
        ext = ext_algebra(res)
        results[name] = {
            "resolution": res,
            "verified": check,
            "ext": ext,
            "socle": socle_dim(ext),
            "frobenius": frobenius(ext),
            "truncated": recognize_truncated(ext),
        }
    return results
