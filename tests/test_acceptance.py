"""Acceptance criteria, one test per criterion (split where a criterion
bundles independent claims).

Each test prints a PASS/FAIL line (visible with pytest -s or on failure).
Criteria 6 and 7 assert the verified resolution sizes and Ext dimensions
(8,8,6,8,6,4) of the six equality representatives, not the published
(8,5,4,5,4,4).  The published tuple is kept as data, and the tests check
that it is falsified: it differs exactly on M2-M5, whose four published
differentials square to zero but are not exact.  The README erratum
paragraph and
test_resolution.py::test_published_fixtures_m1_m6_verify_others_fail carry
the details.
"""

import random
import time
from fractions import Fraction as Q
from itertools import product

import pytest

from conftest import (COHOMOLOGY_CASE_REPS, ERRATUM_1_1, NOT_CY, PLANAR_FAMILIES,
                      SUBCASE_BATTERY, SUBCASE_EXT, SUBCASE_SIZE, fresh_minimal_size,
                      product_rule_size)
from reference_finalg import sklyanin_algebra
from reference_resolution import published_resolution
from skewdg.classify import classify, presentation_of, presented_dims, theorem_c
from skewdg.dg import DgSpec, cy_probe
from skewdg.finalg import frobenius
from skewdg.linalg import Mat
from skewdg.qpl import QplMatrix, chi, is_quasi_permutation, iso_solve
from skewdg.report import analyze, n2_presentation
from skewdg.resolution import SIX_REPRESENTATIVES, build_resolution, verify_resolution
from skewdg.skew import SkewElement, graded_basis


def announce(number, ok, message):
    print("ACCEPTANCE CRITERION %s: %s -- %s" % (number, "PASS" if ok else "FAIL", message))
    assert ok, "criterion %s: %s" % (number, message)


def test_criterion_01_differential_square_zero():
    rng = random.Random(20260809)
    start = time.time()
    for trial in range(200):
        n = rng.choice([2, 3, 4])
        spec = DgSpec(Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
        for d in range(9):
            for mono in graded_basis(n, d):
                elt = SkewElement(n, {mono: 1})
                assert spec.differential(spec.differential(elt)).is_zero(), \
                    (spec.m, mono)
    elapsed = time.time() - start
    announce(1, elapsed < 30.0,
             "d^2 = 0 for 200 random matrices up to degree 8 in %.1fs" % elapsed)


def test_criterion_02_group_action():
    rng = random.Random(47)

    def rand_qpl():
        perm = list(range(3))
        rng.shuffle(perm)
        scales = tuple(Q(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
                       for _ in range(3))
        return QplMatrix(tuple(perm), scales)

    for _ in range(100):
        m = Mat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        c1, c2 = rand_qpl(), rand_qpl()
        assert chi(m, QplMatrix.identity(3)) == m
        assert chi(m, c1 * c2) == chi(chi(m, c1), c2)
    for _ in range(100):
        c1, c2 = rand_qpl(), rand_qpl()
        assert is_quasi_permutation((c1 * c2).to_mat())
        assert is_quasi_permutation(c1.inverse().to_mat())
    announce(2, True, "action unit/associativity and group closure on 100 samples")


# Explicit normalization witnesses for the rank-1 families, with parameters
# chosen as perfect squares wherever the general form needs square roots.
# The published normalizer of the degenerate family has its third scale
# inverted; the corrected scale is used here and the solver independently
# rediscovers witnesses for every pair, including from the uncorrected form.
def _diag(*ds):
    return QplMatrix((0, 1, 2), tuple(ds))


P23 = QplMatrix((0, 2, 1), (1, 1, 1))

WITNESS_BATTERY = [
    (Mat([[0, 4, 9], [0, 0, 0], [0, 0, 0]]), _diag(1, Q(1, 2), Q(1, 3)),
     Mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]])),
    (Mat([[0, 4, 0], [0, 0, 0], [0, 0, 0]]), _diag(1, Q(1, 2), 1),
     Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])),
    (Mat([[0, 0, 9], [0, 0, 0], [0, 0, 0]]), _diag(1, 1, Q(1, 3)),
     Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])),
    (Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), P23,
     Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])),
    (Mat([[4, 1, 1], [8, 2, 2], [0, 0, 0]]), _diag(Q(1, 4), Q(1, 2), Q(1, 2)),
     Mat([[1, 1, 1], [1, 1, 1], [0, 0, 0]])),
    (Mat([[0, 0, 1], [0, 0, 2], [0, 0, 0]]), _diag(Q(1, 4), Q(1, 2), Q(1, 2)),
     Mat([[0, 0, 1], [0, 0, 1], [0, 0, 0]])),
    (Mat([[4, 1, 0], [8, 2, 0], [0, 0, 0]]), _diag(Q(1, 4), Q(1, 2), Q(1, 2)),
     Mat([[1, 1, 0], [1, 1, 0], [0, 0, 0]])),
    (Mat([[4, 1, 1], [0, 0, 0], [8, 2, 2]]), _diag(Q(1, 4), Q(1, 2), Q(1, 2)),
     Mat([[1, 1, 1], [0, 0, 0], [1, 1, 1]])),
    (Mat([[4, 0, 1], [0, 0, 0], [8, 0, 2]]), _diag(Q(1, 4), 1, Q(1, 2)),
     Mat([[1, 0, 1], [0, 0, 0], [1, 0, 1]])),
    (Mat([[0, 1, 0], [0, 0, 0], [0, 2, 0]]), _diag(1, 1, 2),
     Mat([[0, 1, 0], [0, 0, 0], [0, 1, 0]])),
    (Mat([[0, 1, 0], [0, 0, 0], [0, 1, 0]]), P23,
     Mat([[0, 0, 1], [0, 0, 1], [0, 0, 0]])),
    (Mat([[1, 0, 1], [0, 0, 0], [1, 0, 1]]), P23,
     Mat([[1, 1, 0], [1, 1, 0], [0, 0, 0]])),
    (Mat([[1, 1, 1], [1, 1, 1], [0, 0, 0]]), P23,
     Mat([[1, 1, 1], [0, 0, 0], [1, 1, 1]])),
    # Degenerate-family normalization chain (corrected third scale).
    (Mat([[4, 1, 0], [8, 2, 0], [12, 3, 0]]), _diag(Q(1, 4), Q(1, 2), Q(3, 4)),
     Mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]])),
    (Mat([[9, 0, 1], [27, 0, 3], [18, 0, 2]]), P23,
     Mat([[9, 1, 0], [18, 2, 0], [27, 3, 0]])),
]


def test_criterion_03_isomorphism_regression():
    # Row-swap normalizations of the generic rank-1 form.
    a, b, c, l1, l2 = Q(2), Q(3), Q(5), Q(7), Q(11)
    generic = Mat([[a, b, c], [l1 * a, l1 * b, l1 * c], [l2 * a, l2 * b, l2 * c]])
    battery = WITNESS_BATTERY + [
        (generic, QplMatrix((1, 0, 2), (1, 1, 1)),
         Mat([[l1 * b, l1 * a, l1 * c], [b, a, c], [l2 * b, l2 * a, l2 * c]])),
        (generic, QplMatrix((2, 1, 0), (1, 1, 1)),
         Mat([[l2 * c, l2 * b, l2 * a], [l1 * c, l1 * b, l1 * a], [c, b, a]])),
    ]
    for m, witness, target in battery:
        assert chi(m, witness) == target, (m, target)
        found = iso_solve(m, target)
        assert found.status == "Witness", (m, target, found.status)
        assert chi(m, found.witness) == target
    announce(3, True, "%d explicit witnesses verified and rediscovered" % len(battery))


def test_criterion_04_cohomology_table():
    reps = dict(COHOMOLOGY_CASE_REPS)
    # All subcases of the rank-2 degenerate branch share the case-3 shape.
    for sub, mats in SUBCASE_BATTERY.items():
        reps["3/" + sub] = mats[0]
    for case, rows in reps.items():
        m = Mat(rows)
        spec = DgSpec(m)
        brute = spec.cohomology(6).dims
        pres = presentation_of(classify(m))
        assert presented_dims(pres, 6) == brute, (case, rows)
    # The seven published n = 2 families up to degree 5.
    for rows in PLANAR_FAMILIES:
        m = Mat(rows)
        pres = n2_presentation(m)
        assert pres is not None, rows
        assert presented_dims(pres, 5) == DgSpec(m).cohomology(5).dims, rows
    announce(4, True,
             "dimension tables match for %d case representatives and 7 planar rows"
             % len(reps))


GRID_ROWS = list(product([-1, 0, 1, 2], repeat=3))


def test_criterion_05_theorem_c_battery():
    named_not_cy = [Mat(m) for m in NOT_CY]
    named_cy = [Mat.identity(3), Mat.zero(3, 3),
                Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])] + \
        [m for m in SIX_REPRESENTATIVES.values()]
    not_cy_count = 0
    start = time.time()
    for r1 in GRID_ROWS:
        for r2 in GRID_ROWS:
            for r3 in GRID_ROWS:
                m = Mat((r1, r2, r3))
                verdict = theorem_c(m)
                probe = cy_probe(DgSpec(m))
                assert verdict.calabi_yau == probe.calabi_yau, (r1, r2, r3)
                if not verdict.calabi_yau:
                    not_cy_count += 1
                    # Every failure lies in one of the two families.
                    assert verdict.reason in ("degenerate-two-generator-family",
                                              "degenerate-quadric-family")
    for m in named_not_cy:
        assert not theorem_c(m).calabi_yau
        assert not cy_probe(DgSpec(m)).calabi_yau
    for m in named_cy:
        assert theorem_c(m).calabi_yau
        assert cy_probe(DgSpec(m)).calabi_yau
    announce(5, True,
             "verdicts agree on all %d grid matrices (%d not Calabi-Yau) in %.0fs"
             % (len(GRID_ROWS) ** 3, not_cy_count, time.time() - start))


def test_criterion_06_resolution_battery(subcase_resolutions):
    elapsed = subcase_resolutions["_elapsed"]
    count = 0
    for key, data in subcase_resolutions.items():
        if key == "_elapsed":
            continue
        count += 1
        sub = data["subcase"]
        assert data["resolution"].size == SUBCASE_SIZE[sub], key
        check = data["verified"]
        assert check.minimal and check.square_zero, key
        assert check.cohomology_dims[0] == 1, key
        assert all(x == 0 for x in check.cohomology_dims[1:5]), key
    # The ninth matrix listed for the first subcase is rank 3 (an erratum);
    # the engine still resolves it, at the rank-3 size.
    erratum = build_resolution(Mat(ERRATUM_1_1))
    assert erratum.size == 1
    announce("6 (flowchart battery)", elapsed < 120.0,
             "%d example matrices build at sizes 3/4/5/6/8/4/6 and verify in %.0fs"
             % (count, elapsed))


# Minimal resolution sizes of M1..M6, which the Ext dimensions equal.  The
# published values are kept as data: the published grids of M2..M5 square
# to zero but leave H^1 != 0, so those four sizes are not attained.
PUBLISHED_SIZES = {"M1": 8, "M2": 5, "M3": 4, "M4": 5, "M5": 4, "M6": 4}
VERIFIED_SIZES = {"M1": 8, "M2": 8, "M3": 6, "M4": 8, "M5": 6, "M6": 4}


def test_criterion_06_representatives(representative_resolutions):
    sizes = {}
    for name, data in representative_resolutions.items():
        check = data["verified"]
        assert check.passed and len(check.cohomology_dims) == 7, (name, check.failures)
        sizes[name] = data["resolution"].size
        # A fresh eilenberg_moore build under its own size cap.
        assert sizes[name] == fresh_minimal_size(SIX_REPRESENTATIVES[name]), name
    # M2 and M5 split off a k[x3] tensor factor, so their sizes multiply.
    for name in ("M2", "M5"):
        assert sizes[name] == product_rule_size(SIX_REPRESENTATIVES[name]), name
    falsified = [k for k in VERIFIED_SIZES if PUBLISHED_SIZES[k] != VERIFIED_SIZES[k]]
    assert falsified == ["M2", "M3", "M4", "M5"]
    for name in falsified:
        published = published_resolution(name)
        assert published.size == PUBLISHED_SIZES[name], name
        check = verify_resolution(published.spec, published, dmax=4)
        assert check.square_zero and not check.exact, (name, check.cohomology_dims)
    announce("6 (representative sizes)", sizes == VERIFIED_SIZES,
             "verified minimal sizes %s (exact through degree 6, equal to a fresh "
             "build) against the expected %s; the published %s is falsified on "
             "M2-M5, whose published differentials are not exact (see the README "
             "erratum and test_resolution.py::"
             "test_published_fixtures_m1_m6_verify_others_fail)"
             % (sizes, VERIFIED_SIZES, PUBLISHED_SIZES))


def test_criterion_07_ext_table_flowchart(subcase_resolutions):
    for key, data in subcase_resolutions.items():
        if key == "_elapsed":
            continue
        sub = data["subcase"]
        assert data["ext_dim"] == SUBCASE_EXT[sub], key
        assert data["truncated"] == SUBCASE_EXT[sub], key
    announce("7 (staircase Ext table)", True,
             "commutants are k[x]/(x^m) with m = (3,4,5,6,8,4,6) per subcase")


def test_criterion_07_representative_ext(representative_resolutions):
    dims = {}
    for name, data in representative_resolutions.items():
        dims[name] = data["ext"].dim
        assert data["socle"] == 1, name
        verdict = data["frobenius"]
        assert verdict.frobenius and verdict.symmetric, name
    announce("7 (representative Ext dims)", dims == VERIFIED_SIZES,
             "verified Ext dims %s against the expected %s (the published %s is "
             "falsified on M2-M5); socle-1 symmetric Frobenius holds for all "
             "six, so the published Calabi-Yau verdicts are unaffected"
             % (dims, VERIFIED_SIZES, PUBLISHED_SIZES))


def test_criterion_08_symmetry_grid():
    failures = []
    for lam in range(-2, 3):
        for mu in range(-2, 3):
            for nu in range(-2, 3):
                alg = sklyanin_algebra(lam, mu, nu)
                verdict = frobenius(alg)
                expected = lam * mu - nu * nu != 0
                if verdict.frobenius != expected:
                    failures.append((lam, mu, nu))
                if expected:
                    assert verdict.symmetric
    announce(8, not failures, "125-point grid, %d disagreements" % len(failures))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def test_criterion_09_structured_scan():
    rows = list(product(range(-2, 3), repeat=3))
    start = time.time()
    survivors = []
    for r1 in rows:
        for r2 in rows:
            c12 = _cross(r1, r2)
            for r3 in rows:
                if c12[0] * r3[0] + c12[1] * r3[1] + c12[2] * r3[2]:
                    continue
                s = c12
                if not any(s):
                    s = _cross(r1, r3)
                    if not any(s):
                        s = _cross(r2, r3)
                        if not any(s):
                            continue
                c1 = (r1[0], r2[0], r3[0])
                c2 = (r1[1], r2[1], r3[1])
                c3 = (r1[2], r2[2], r3[2])
                t = _cross(c1, c2)
                if not any(t):
                    t = _cross(c1, c3)
                    if not any(t):
                        t = _cross(c2, c3)
                        if not any(t):
                            continue
                if s[0] * t[0] ** 2 + s[1] * t[1] ** 2 + s[2] * t[2] ** 2 == 0:
                    survivors.append((r1, r2, r3))
    deep = 0
    for entry in survivors:
        m = Mat(entry)
        label = classify(m)
        if label.subcase != "1.3.2":
            continue
        deep += 1
        assert _matches_type_pattern(m), entry
        # The final square-form must jump the rank of the system matrix.
        data = label.data
        t, q, r, u, v = (data[k] for k in ("t", "q", "r", "u", "v"))
        final = [4 * vi * ti + 2 * ui * qi + 4 * ri * ri
                 for vi, ti, ui, qi, ri in zip(v, t, u, q, r)]
        cols = [m.T.column(j) for j in range(3)] + [tuple(final)]
        assert Mat.from_columns(cols).rank() == 3, entry
    announce(9, True,
             "%d degenerate rank-2 grid matrices scanned, %d in the deepest "
             "branch, all matching a type pattern with the rank jump (%.0fs)"
             % (len(survivors), deep, time.time() - start))


def _matches_type_pattern(m):
    """One zero column; the other two proportional on two rows with a
    factor lam satisfying a^2 = lam c^2, and e != lam b on the third row."""
    for j0 in range(3):
        if any(m[i, j0] != 0 for i in range(3)):
            continue
        others = [j for j in range(3) if j != j0]
        for j1, j2 in (others, others[::-1]):
            for i0 in range(3):  # the free row carrying (b, e)
                special = [i for i in range(3) if i != i0]
                i1, i2 = special
                a, c = m[i1, j1], m[i2, j1]
                if a == 0 or c == 0:
                    continue
                # lam from the first special row; both rows must agree.
                lam_num, lam_den = m[i1, j2], m[i1, j1]
                if lam_num == 0:
                    continue
                lam = lam_num / lam_den
                if m[i2, j2] != lam * m[i2, j1]:
                    continue
                if a * a != lam * c * c:
                    continue
                b, e = m[i0, j1], m[i0, j2]
                if e != lam * b:
                    return True
    return False


def test_criterion_10_quasi_isomorphism_counterexample():
    first = analyze(Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]]), dmax=6)
    second = analyze(Mat([[0, 0, 1], [0, 1, 0], [0, 0, 0]]), dmax=6)
    dims1 = first["cohomology_dims"]
    dims2 = second["cohomology_dims"]
    ext1 = first["resolution"]["ext"]["dim"]
    ext2 = second["resolution"]["ext"]["dim"]
    assert first["classification"]["subcase"] == "1.1"
    assert second["classification"]["subcase"] == "1.2.1"
    ok = dims1 == dims2 and ext1 == 3 and ext2 == 4
    announce(10, ok,
             "equal cohomology dims %s but Ext dims %d != %d: the structures "
             "are not quasi-isomorphic" % (dims1, ext1, ext2))
