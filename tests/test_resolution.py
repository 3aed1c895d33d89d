"""Resolution construction, verification, and Ext-algebra extraction."""

import os
import random
import sys
from fractions import Fraction as Q
from math import lcm

from conftest import (NOT_CY, SUBCASE_BATTERY, SUBCASE_EXT, SUBCASE_SIZE, fresh_minimal_size,
                      product_rule_size)
from reference_finalg import ref_matrix_algebra
from reference_linalg import ref_column_pivots, ref_rank
from reference_resolution import (commutant_matrices, complex_map_rows, ref_complex_columns,
                                  ref_h1_representatives, ref_square_zero_failures,
                                  reference_resolution)
from skewdg import dg as dg_module
from skewdg import resolution as resolution_module
from skewdg.dg import DgSpec, complex_classes, complex_cohomology_dims
from skewdg.finalg import FinAlg, frobenius, radical_filtration, recognize_truncated, socle_dim
from skewdg.linalg import Mat
from skewdg.qpl import QplMatrix, chi, iso_solve
from skewdg.resolution import (
    SIX_REPRESENTATIVES,
    InfinitePattern,
    SemifreeResolution,
    build_resolution,
    eilenberg_moore,
    ext_algebra,
    published_resolution,
    resolution_from_dict,
    verify_resolution,
)
from skewdg.skew import SkewElement, graded_basis

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
from make_golden import MATRICES as GOLDEN_MATRICES  # noqa: E402

# Rank-2 nondegenerate inputs: A(M) has cohomology k[z], and k has a
# resolution of size 2.
RANK2_NONDEG_INPUTS = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    [[1, 2, 0], [0, 1, 1], [1, 3, 1]],
]


def test_case_1_1_structure():
    m = Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    res, named, _ = reference_resolution(m)
    assert res.size == 3
    assert str(named["t"]) == "x1 - x3"
    assert str(named["sigma"]) == "x1"
    assert res.entry(1, 0) == named["t"]
    assert res.entry(2, 0) == named["sigma"]
    assert res.entry(2, 1) == named["t"]


def test_case_1_2_4_structure():
    m = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    res, _, _ = reference_resolution(m)
    assert res.size == 8
    # The staircase with entries t3 x3, sigma, lambda, eta.
    expect = [
        ["x3"],
        ["x2", "x3"],
        ["0", "x2", "x3"],
        ["x1", "0", "x2", "x3"],
        ["0", "x1", "0", "x2", "x3"],
        ["0", "0", "x1", "0", "x2", "x3"],
        ["0", "0", "0", "x1", "0", "x2", "x3"],
    ]
    for j, row in enumerate(expect, start=1):
        assert [str(res.entry(j, l)) for l in range(j)] == row


def test_rank3_resolution():
    res = build_resolution(Mat.identity(3))
    assert res.size == 1
    check = verify_resolution(res.spec, res, dmax=6)
    assert check.passed
    assert check.cohomology_dims[0] == 1


def test_rank2_nondegenerate_and_zero_resolutions():
    # The branches the paper gives no construction for: the builder resolves
    # them at size 2 (rank 2 nondegenerate) and 8 (the zero matrix, whose
    # resolution has the Koszul shape, 2^3 generators).
    for rows, size in [(r, 2) for r in RANK2_NONDEG_INPUTS] + [([[0] * 3] * 3, 8)]:
        m = Mat(rows)
        res = build_resolution(m)
        assert res.spec.m == m and res.size == size, rows
        check = verify_resolution(res.spec, res, dmax=5)
        assert check.passed, (rows, check.failures)
        ext = ext_algebra(res)
        assert ext.dim == size and ext.is_local() and socle_dim(ext) == 1, rows
        verdict = frobenius(ext)
        assert verdict.frobenius and verdict.symmetric, rows


def test_battery_sizes_verification_and_ext(subcase_resolutions):
    for key, data in subcase_resolutions.items():
        if key == "_elapsed":
            continue
        sub = data["subcase"]
        assert data["resolution"].size == SUBCASE_SIZE[sub], key
        assert data["verified"].passed, (key, data["verified"].failures)
        assert data["ext_dim"] == SUBCASE_EXT[sub], key
        assert data["truncated"] == SUBCASE_EXT[sub], key
        assert data["socle"] == 1
        assert data["frobenius"].frobenius and data["frobenius"].symmetric


def test_mutated_resolution_fails_square_zero():
    m = Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    res = build_resolution(m)
    rows = [row[:] for row in res.d]
    rows[2][0] = rows[2][0] + SkewElement.variable(2, 3)
    bad = SemifreeResolution(res.spec, rows, res.subcase)
    check = verify_resolution(res.spec, bad, dmax=4)
    assert not check.square_zero
    assert any(f[0] == "square-zero" and (f[1], f[2]) == (2, 0) for f in check.failures)


def test_square_zero_failures_match_full_products():
    # verify_resolution skips the products d[j][k] d[k][l] with a zero
    # factor; the reference forms every product.  One entry at a time is
    # perturbed (below the diagonal by one variable, nonzero entries also
    # cleared, and once above the diagonal); both must name the same
    # failures.  M1_image has denominators, and d(x3) = x1^2/2 + x2^2/18
    # there, so its failures read the int images of d back as Fractions.
    for m, var in [(SIX_REPRESENTATIVES["M2"], 1), (Mat(GOLDEN_MATRICES["M1_image"]), 3)]:
        res = build_resolution(m)
        spec = res.spec
        zero, x = SkewElement.zero(3), SkewElement.variable(var, 3)
        perturbed = [(j, l, res.d[j][l] + x) for j in range(res.size) for l in range(j)]
        perturbed += [(j, l, zero) for j in range(res.size) for l in range(j)
                      if not res.d[j][l].is_zero()]
        perturbed.append((0, 1, SkewElement.variable(2, 3)))
        failing = 0
        for j, l, entry in [(0, 0, zero)] + perturbed:
            rows = [row[:] for row in res.d]
            rows[j][l] = entry
            check = verify_resolution(spec, SemifreeResolution(spec, rows, res.subcase), dmax=1)
            want = ref_square_zero_failures(spec, rows)
            assert [f for f in check.failures if f[0] == "square-zero"] == want, (m, j, l)
            assert check.square_zero == (not want)
            failing += bool(want)
        assert failing == len(perturbed), m


def test_coboundaries_on_a_fractional_grid_match_dense_columns():
    # complex_classes ranks d_F as int columns, d_F times _den and the lcm of
    # the denominators of the grid, and divides the coboundaries it returns
    # by that whole scale.  The eilenberg_moore grid of M1_image has
    # denominators, so the scale is not _den.  The reference takes the
    # columns of the dense Fraction map of d_F on F^(degree-1) at its pivots.
    spec = DgSpec(Mat(GOLDEN_MATRICES["M1_image"]))
    grid, complete = eilenberg_moore(spec)
    assert complete and spec._den > 1
    assert any(c.denominator > 1 for row in grid for e in row for c in e.terms.values())
    n, size = spec.n, len(grid)
    for degree in (1, 2):
        basis = graded_basis(n, degree)

        def element(vec):
            return [SkewElement(n, {mono: vec[l * len(basis) + s] for s, mono in enumerate(basis)})
                    for l in range(size)]

        dense = complex_map_rows(spec, grid, degree - 1)
        cols = [[row[c] for row in dense] for c in range(len(dense[0]))]
        cocycles, coboundaries = complex_classes(spec, grid, degree)
        coboundaries = list(coboundaries)
        assert coboundaries, degree
        assert coboundaries == [element(cols[p]) for p in ref_column_pivots(cols, len(dense))]
        # The cocycles are kernel vectors of d_F on F^degree.
        d_next = complex_map_rows(spec, grid, degree)
        for cocycle in cocycles:
            vec = [part.terms.get(mono, 0) for part in cocycle for mono in basis]
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in d_next), degree


def test_h1_representatives_match_dense_kernel(monkeypatch):
    # Each eilenberg_moore round takes the H^1(F) cocycles from sparse_kernel
    # on the rows of d_F; the reference takes them from a dense Mat.  The
    # representatives, and so the resolutions, must be the same.
    package = resolution_module.complex_classes
    rounds = []

    def compared(spec, rows, degree):
        cocycles, coboundaries = package(spec, rows, degree)
        assert degree == 1
        assert cocycles == ref_h1_representatives(spec, rows), (spec, len(rows))
        rounds.append(len(cocycles))
        return cocycles, coboundaries

    monkeypatch.setattr(resolution_module, "complex_classes", compared)
    mats = list(SIX_REPRESENTATIVES.values())
    mats += [Mat(rows) for name, rows in GOLDEN_MATRICES.items() if name.endswith("_image")]
    for m in mats:
        grid, complete = eilenberg_moore(DgSpec(m))
        assert complete, m
    # Every build ends with a round that finds no class.
    assert rounds.count(0) == len(mats) and len(rounds) > 2 * len(mats)


def test_mutated_entry_degree_fails_minimality():
    m = Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    res = build_resolution(m)
    rows = [row[:] for row in res.d]
    rows[1][0] = rows[1][0] + SkewElement.one(3)
    bad = SemifreeResolution(res.spec, rows, res.subcase)
    assert not verify_resolution(res.spec, bad, dmax=3).minimal


def test_quadric_correction_term():
    # The fourth row of the two-generator resolution needs d(w) to hit the
    # quadric exactly; for the all-ones family the solver returns x1.
    m = Mat([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    res, named, relation = reference_resolution(m)
    assert res.size == 4
    assert str(named["w"]) == "x1"
    assert relation == (1, 1, Q(-1, 2))
    assert verify_resolution(res.spec, res, dmax=5).passed
    ext = ext_algebra(res)
    assert ext.dim == 4
    verdict = frobenius(ext)
    assert verdict.frobenius and verdict.symmetric


def test_quadric_case5_and_m6():
    for entry in ([[2, 1, 1], [2, 1, 1], [0, 0, 0]], [[1, 1, 0], [0, 0, 0], [1, 1, 0]]):
        res = build_resolution(Mat(entry))
        assert res.size == 4
        assert verify_resolution(res.spec, res, dmax=5).passed


def test_nonsmooth_families_return_patterns():
    for entry in NOT_CY:
        out = build_resolution(Mat(entry), truncate=8)
        assert isinstance(out, InfinitePattern)
        t1, t2, t3 = out.relation_coeffs
        assert t1 * t2 == t3 * t3
        trunc = out.truncation
        assert trunc is not None and trunc.size <= 8
        # The prefix is minimal and square-zero as far as it goes.
        check = verify_resolution(trunc.spec, trunc, dmax=3)
        assert check.minimal and check.square_zero


def test_published_fixtures_m1_m6_verify_others_fail():
    good, bad = {"M1", "M6"}, {"M2", "M3", "M4", "M5"}
    for name in good:
        res = published_resolution(name)
        assert verify_resolution(res.spec, res, dmax=4).passed, name
    for name in bad:
        res = published_resolution(name)
        check = verify_resolution(res.spec, res, dmax=4)
        assert check.square_zero, name
        assert not check.exact, name
        # The defect is a surviving degree-one class.
        assert check.cohomology_dims[1] == 1, name


def test_ext_algebra_matches_dense_commutant(representative_resolutions):
    # ext_algebra solves the commutant on sparse rows and multiplies its
    # basis as sparse rows; the reference writes one dense row per equation
    # and forms the structure constants from dense Mat products.  Both must
    # give the same kernel basis, hence the same unit and constants.
    cases = [(name, data["resolution"]) for name, data in representative_resolutions.items()]
    cases.append(("published M1", published_resolution("M1")))
    cases.append(("1.2.4/a", build_resolution(Mat(SUBCASE_BATTERY["1.2.4"][0]))))
    for name in ("M1_image", "sub_1_2_4_image", "case4_image"):
        cases.append((name, build_resolution(Mat(GOLDEN_MATRICES[name]))))
    staircase = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    for name, rows in (("n = 4 staircase", staircase), ("n = 4 zero", [[0] * 4] * 4)):
        spec = DgSpec(Mat(rows))
        grid, complete = eilenberg_moore(spec, max_size=16)
        assert complete and len(grid) == 16, name
        cases.append((name, SemifreeResolution(spec, grid, None)))
    for name, res in cases:
        ext = ext_algebra(res)
        ref = FinAlg(*ref_matrix_algebra(commutant_matrices(res)))
        assert (ext.dim, ext.unit, ext.structure) == (ref.dim, ref.unit, ref.structure), name


def test_complex_dims_match_dense_reference(representative_resolutions):
    # complex_cohomology_dims ranks sparse columns of d_F; the reference
    # writes d_F as a dense Fraction matrix and ranks it by Fraction
    # elimination, for degrees 0-6.  The published M2-M5 grids are not
    # exact, so their ranks are not forced by exactness; the chi-image has
    # non-integer entries, so its columns must be cleared of denominators.
    cases = [(name, data["resolution"]) for name, data in representative_resolutions.items()]
    cases += [("published " + name, published_resolution(name))
              for name in ("M2", "M3", "M4", "M5")]
    image = chi(SIX_REPRESENTATIVES["M3"], QplMatrix((2, 0, 1), (Q(1, 2), Q(3), Q(-2, 3))))
    assert any(x.denominator != 1 for row in image.data for x in row)
    cases.append(("chi image of M3", build_resolution(image)))
    dmax = 7
    for name, res in cases:
        ranks = []
        for d in range(dmax):
            dense = complex_map_rows(res.spec, res.d, d)
            ranks.append(ref_rank(dense, len(dense[0])))
        expect = [res.size * len(graded_basis(3, i)) - ranks[i] - (ranks[i - 1] if i else 0)
                  for i in range(dmax)]
        assert complex_cohomology_dims(res.spec, res.d, dmax) == expect, name


def test_complex_columns_match_per_term_reference(monkeypatch):
    # _complex_columns looks each term of d[j][l] up in a shift table kept
    # per (n, degree) for the life of the process; the reference multiplies
    # term by term.  The degrees are the outer loop, so every table is
    # filled with the four n interleaved: a table shared between n gives
    # wrong columns or a missing key.
    monkeypatch.setattr(dg_module, "_SHIFTS", {})
    rng = random.Random(71)
    cases = [("M1", build_resolution(SIX_REPRESENTATIVES["M1"])),
             ("published M3", published_resolution("M3"))]
    for n in (2, 3, 4, 5):
        # A lower-triangular grid of random linear entries, some zero.
        size = 5
        grid = [[SkewElement.linear([Q(rng.choice([0, 0, 1, -1, 2]), rng.choice([1, 1, 3]))
                                     for _ in range(n)], n) if l < j else SkewElement.zero(n)
                 for l in range(size)] for j in range(size)]
        spec = DgSpec(Mat([[rng.choice([0, 1, -1, Q(1, 2)]) for _ in range(n)]
                           for _ in range(n)]))
        cases.append(("random n = %d" % n, SemifreeResolution(spec, grid, None)))
    assert len({res.spec.n for _, res in cases}) == 4
    # The package's columns are ints: d_F times the lcm of the denominators
    # of M times the lcm of those of the grid.
    scales = {name: lcm(*[x.denominator for row in res.spec.m.data for x in row])
              * lcm(*[c.denominator for row in res.d for e in row for c in e.terms.values()])
              for name, res in cases}
    assert any(scale > 1 for scale in scales.values())
    for degree in range(7):
        for name, res in cases:
            want = [{r: scales[name] * c for r, c in col.items()}
                    for col in ref_complex_columns(res.spec, res.d, degree)]
            got = dg_module._complex_columns(res.spec, res.d, degree)
            assert got == want and all(type(c) is int for col in got for c in col.values()), \
                (name, degree)
    assert {key[0] for key in dg_module._SHIFTS} == {2, 3, 4, 5}


def test_ext_algebra_sparse_build_matches_dense_constructor():
    # ext_algebra reads the structure constants of FinAlg.from_sparse_matrices
    # straight off the reduced system; FinAlg(dim, unit, dense constants)
    # stores them from dense vectors, here the reference's dense constants
    # of the dense commutant.  Both must give the same algebra, unit and
    # radical series on the Ext algebra of every golden input.
    seen = 0
    for name, rows in GOLDEN_MATRICES.items():
        if len(rows) != 3:
            continue
        built = build_resolution(Mat(rows))
        if isinstance(built, InfinitePattern):
            continue
        ext = ext_algebra(built)
        dense = FinAlg(*ref_matrix_algebra(commutant_matrices(built)))
        assert (dense.structure, dense.unit, dense.radical_powers) == \
            (ext.structure, ext.unit, ext.radical_powers), name
        seen += 1
    assert seen == 29


def test_representative_resolutions(representative_resolutions):
    # Verified minimal sizes for the six equality-family representatives.
    expected_size = {"M1": 8, "M2": 8, "M3": 6, "M4": 8, "M5": 6, "M6": 4}
    for name, data in representative_resolutions.items():
        assert data["resolution"].size == expected_size[name], name
        assert data["verified"].passed, (name, data["verified"].failures)
        assert data["ext"].dim == expected_size[name]
        assert data["socle"] == 1
        assert data["frobenius"].frobenius and data["frobenius"].symmetric
    # M2 and M5 split off a k[x3] factor of size 2, so their sizes are twice
    # those of [[0,1],[0,0]] (4) and [[1,1],[1,1]] (3); every factor is built
    # from scratch and verified.  An odd size such as the published 5 for M2
    # cannot occur.
    assert fresh_minimal_size(Mat([[0, 1], [0, 0]])) == 4
    assert fresh_minimal_size(Mat([[1, 1], [1, 1]])) == 3
    for name in ("M2", "M5"):
        assert product_rule_size(SIX_REPRESENTATIVES[name]) == expected_size[name], name


def test_m1_filtration_matches_two_generator_structure(representative_resolutions):
    ext = representative_resolutions["M1"]["ext"]
    assert ext.dim == 8
    assert radical_filtration(ext) == [1, 2, 2, 2, 1]
    assert recognize_truncated(ext) is None  # two radical generators


def test_equality_case_resolved_over_input():
    # A scaled case-9 matrix is resolved over itself, not over M2.
    m = Mat([[0, 4, 0], [0, 0, 0], [0, 0, 0]])
    res = build_resolution(m)
    assert res.spec.m == m
    assert res.size == 8
    assert verify_resolution(res.spec, res, dmax=5).passed


def test_equality_case_closure_only_input():
    # Coupled scale constraints d1 = 2 d2^2 = 3 d3^2 force an irrational
    # ratio, so this matrix is isomorphic to M1 only over the closure.  The
    # resolution is built over the matrix itself, over Q.
    m = Mat([[0, 2, 3], [0, 0, 0], [0, 0, 0]])
    assert iso_solve(m, SIX_REPRESENTATIVES["M1"]).status == "ClosureOnly"
    res = build_resolution(m)
    assert res.spec.m == m
    assert res.size == 8
    assert verify_resolution(res.spec, res, dmax=5).passed
    assert ext_algebra(res).dim == 8


def test_paper_formulas_agree_with_build(subcase_resolutions):
    # The paper's staircase and quadric formulas (tests/reference_resolution.py)
    # are an independent route: on every battery matrix and the golden
    # quadric inputs, their grid verifies and matches the emitted
    # resolution in size and Ext dimension.
    built = {}
    for mats in SUBCASE_BATTERY.values():
        for rows in mats:
            data = subcase_resolutions[str(rows)]
            assert data["verified"].passed, (rows, data["verified"].failures)
            built[str(rows)] = (Mat(rows), data["resolution"], data["ext_dim"])
    for name in ("rank1_case4", "rank1_case5", "rank1_case6", "case4_image",
                 "closure_a", "closure_b", "M6"):
        m = Mat(GOLDEN_MATRICES[name])
        res = build_resolution(m)
        check = verify_resolution(res.spec, res, dmax=5)
        assert check.passed, (name, check.failures)
        built[name] = (m, res, ext_algebra(res).dim)
    assert len(built) == 34
    for key, (m, res, ext_dim) in built.items():
        ref, _, _ = reference_resolution(m)
        check = verify_resolution(ref.spec, ref, dmax=5)
        assert check.passed, (key, check.failures)
        assert ref.size == res.size, key
        assert ext_algebra(ref).dim == ext_dim, key


def _random_qpl(rng):
    # The permutations and scales of acceptance criterion 2.
    perm = list(range(3))
    rng.shuffle(perm)
    scales = tuple(Q(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])) for _ in range(3))
    return QplMatrix(tuple(perm), scales)


def test_resolution_orbit_invariance(subcase_resolutions, representative_resolutions):
    # Isomorphism classes are chi-orbits, so resolution size and Ext dim are
    # orbit invariants; every image is resolved over itself and verified.
    bases = [(name, SIX_REPRESENTATIVES[name], data["resolution"].size, data["ext"].dim)
             for name, data in representative_resolutions.items()]
    for sub, mats in SUBCASE_BATTERY.items():
        data = subcase_resolutions[str(mats[0])]
        bases.append((sub, Mat(mats[0]), data["resolution"].size, data["ext_dim"]))
    for rows in ([[0] * 3] * 3, RANK2_NONDEG_INPUTS[0]):
        res = build_resolution(Mat(rows))
        bases.append((str(rows), Mat(rows), res.size, ext_algebra(res).dim))
    rng = random.Random(2009)
    for name, base, size, ext_dim in bases:
        for _ in range(2):
            image = chi(base, _random_qpl(rng))
            res = build_resolution(image)
            assert res.spec.m == image, (name, image)
            check = verify_resolution(res.spec, res, dmax=5)
            assert check.passed, (name, image, check.failures)
            assert res.size == size, (name, image)
            assert ext_algebra(res).dim == ext_dim, (name, image)


def test_serialization_roundtrip():
    for entry in ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [[1, 0, 1], [0, 1, 0], [1, 0, 1]],
                  [[0, 1, 0], [0, 0, 0], [0, 0, 0]]):
        data = build_resolution(Mat(entry)).as_dict()
        assert resolution_from_dict(data).as_dict() == data
