"""Case taxonomy, verdicts, presentations, and presented dimensions."""

import os
import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (COHOMOLOGY_CASE_REPS, ERRATUM_1_1, NOT_CY, PLANAR_FAMILIES,
                      SUBCASE_BATTERY, count_eliminations)
from reference_classify import presented_dims_by_rank
from reference_linalg import ref_det, ref_kernel_basis
from skewdg.classify import (
    RANK2_NONDEG,
    GradedPresentation,
    classify,
    degenerate_presentation,
    presentation_of,
    presented_dims,
    theorem_c,
)
from skewdg.dg import DgSpec, cy_probe
from skewdg.linalg import Mat
from skewdg.qpl import QplMatrix, chi
from skewdg.report import n2_presentation
from skewdg.resolution import SIX_REPRESENTATIVES

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
from make_golden import MATRICES as GOLDEN_MATRICES  # noqa: E402


@st.composite
def rank2_candidates(draw):
    """A B for rational A 3 x 2 and B 2 x 3, with the drawn row and column
    (if any) of the product set to zero: rank at most 2."""
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    a = draw(st.lists(st.lists(entries, min_size=2, max_size=2), min_size=3, max_size=3))
    b = draw(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=2, max_size=2))
    zero_row = draw(st.sampled_from([None, 0, 1, 2]))
    zero_col = draw(st.sampled_from([None, 0, 1, 2]))
    return Mat([[Q(0) if zero_row == i or zero_col == j else a[i][0] * b[0][j] + a[i][1] * b[1][j]
                 for j in range(3)] for i in range(3)])


def assert_fraction_vectors(label):
    # An int equals a Fraction under ==, so the types are checked apart.
    assert all(type(x) is Q for key, v in label.data.items() if key != "axes" for x in v)


@settings(max_examples=150, deadline=None)
@given(rank2_candidates())
def test_rank2_vectors_match_reference_kernels(m):
    # s and t are cross products of rows and columns of M; the reference
    # reads them off a Fraction Gauss-Jordan kernel of M and M^T.
    assume(m.rank() == 2)
    label = classify(m)
    assert label.data["s"] == ref_kernel_basis(m.data, 3)[0]
    assert label.data["t"] == ref_kernel_basis(m.T.data, 3)[0]
    assert_fraction_vectors(label)


def test_rank2_nondegenerate_classify_runs_one_elimination(monkeypatch):
    # The rank of M is the only elimination: s and t are cross products.
    calls = count_eliminations(monkeypatch)
    assert classify(Mat([[1, 2, 0], [0, 1, 1], [1, 3, 1]])).branch == RANK2_NONDEG
    assert len(calls) == 1


def test_classify_examples():
    assert classify(Mat([[1, 0, 1], [0, 1, 0], [1, 0, 1]])).subcase == "1.1"
    assert classify(Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])).subcase == "1.2.4"
    label = classify(Mat([[1, 1, 1], [1, 1, 1], [2, 2, 2]]))
    assert label.branch == "Rank1"
    assert label.coh_case == 4
    assert label.params == (1, 1, 1, 1, 2)
    m11, m12, m13, l1, l2 = label.params
    assert 4 * m12 * m13 * l1 ** 2 * l2 ** 2 == (m12 * l1 ** 2 + m13 * l2 ** 2 - m11) ** 2


def test_classify_battery():
    for sub, mats in SUBCASE_BATTERY.items():
        for entry in mats:
            label = classify(Mat(entry))
            assert label.subcase == sub, entry
            assert_fraction_vectors(label)


def test_erratum_matrix_is_rank3():
    # Listed under Case 1.1 in the source, but its determinant is 2.
    m = Mat(ERRATUM_1_1)
    assert ref_det(ERRATUM_1_1) == 2
    assert classify(m).branch == "Rank3"


def test_classify_rank_boundaries():
    assert classify(Mat.identity(3)).branch == "Rank3"
    assert classify(Mat.zero(3, 3)).branch == "Rank0"
    assert classify(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])).branch == "Rank2Nondeg"


def test_classify_row_normalization():
    # Rank-1 matrix whose first row vanishes: a row-and-column swap
    # normalizes it, moving the nonzero entry to the diagonal slot.
    label = classify(Mat([[0, 0, 0], [0, 2, 0], [0, 4, 0]]))
    assert label.branch == "Rank1"
    assert label.permutation == (1, 0, 2)
    assert label.params == (2, 0, 0, 0, 2)


def test_classify_permutation_stability():
    # Permutation-scale conjugation preserves the branch and the verdict.
    rng = random.Random(41)
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    for _ in range(40):
        m = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        p = QplMatrix(perms[rng.randrange(6)], (1, 1, 1))
        moved = chi(m, p)
        assert classify(moved).branch == classify(m).branch
        assert theorem_c(moved).calabi_yau == theorem_c(m).calabi_yau


def test_branch_conditions_invariant_under_q_shift():
    # Replacing q by q + alpha t never changes the subcase.
    for sub, mats in SUBCASE_BATTERY.items():
        for entry in mats:
            for alpha in (Q(1), Q(-2), Q(3, 5)):
                assert classify(Mat(entry), q_shift=alpha).subcase == sub, (entry, alpha)


def test_theorem_c_examples():
    assert not theorem_c(Mat([[1, 1, 0], [1, 1, 0], [1, 1, 0]])).calabi_yau
    assert not theorem_c(Mat([[0, 1, 1], [0, 1, 1], [0, 1, 1]])).calabi_yau
    assert not theorem_c(Mat([[1, 1, 1], [1, 1, 1], [2, 2, 2]])).calabi_yau
    assert theorem_c(Mat.identity(3)).calabi_yau
    assert theorem_c(Mat.zero(3, 3)).calabi_yau
    verdict = theorem_c(Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert verdict.calabi_yau and verdict.koszul and verdict.homologically_smooth


def test_theorem_c_always_koszul():
    rng = random.Random(43)
    for _ in range(50):
        m = Mat([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        verdict = theorem_c(m)
        assert verdict.koszul
        assert verdict.calabi_yau == verdict.homologically_smooth


def test_probe_agrees_with_verdict_on_samples():
    rng = random.Random(47)
    for _ in range(60):
        m = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        assert cy_probe(DgSpec(m)).calabi_yau == theorem_c(m).calabi_yau


def test_presentations_by_branch():
    assert presentation_of(classify(Mat.identity(3))).generators == []
    pres = presentation_of(classify(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])))
    assert [d for _, d in pres.generators] == [1]
    assert pres.relations == []
    pres = presentation_of(classify(Mat([[2, 1, 1], [2, 1, 1], [4, 2, 2]])))
    # Rank 1, two degree-1 generators.
    assert [d for _, d in pres.generators] == [1, 1]


def test_case6_presentation_relation():
    label = classify(Mat([[2, 1, 1], [2, 1, 1], [2, 1, 1]]))
    assert label.coh_case == 6
    pres = presentation_of(label)
    assert len(pres.relations) == 1
    # u^2 + v^2 with the published coefficients m12, m13.
    assert sorted(pres.relations[0]) == [(Q(1), (0, 0)), (Q(1), (1, 1))]


def test_presented_dims_examples():
    anticomm = GradedPresentation([("u", 1), ("v", 1)], [[(Q(1), (0, 1)), (Q(1), (1, 0))]])
    assert presented_dims(anticomm, 4) == [1, 2, 3, 4, 5]
    usq = GradedPresentation([("u", 1), ("v", 1)], [[(Q(1), (0, 0))]])
    assert presented_dims(usq, 4) == [1, 2, 3, 5, 8]
    line = GradedPresentation([("z", 1)], [])
    assert presented_dims(line, 4) == [1, 1, 1, 1, 1]


def test_presented_dims_rejects_bad_degrees():
    with pytest.raises(ValueError):
        presented_dims(GradedPresentation([("w", 3)], []), 4)


def test_presented_dims_past_degree_ten():
    # The cap of the word-rank oracle is gone: u^2 = 0 has Fibonacci
    # dimensions, and the zero matrix gives the commutative polynomial ring.
    usq = GradedPresentation([("u", 1), ("v", 1)], [[(Q(1), (0, 0))]])
    assert presented_dims(usq, 14)[10:] == [144, 233, 377, 610, 987]
    zero = presentation_of(classify(Mat.zero(3, 3)))
    assert presented_dims(zero, 12) == [(d + 1) * (d + 2) // 2 for d in range(13)]


def test_presented_dims_drops_zero_terms_and_checks_homogeneity():
    gens = [("y1", 1), ("y2", 1), ("w", 2)]
    zero_term = GradedPresentation(gens, [[(Q(1), (0, 0)), (Q(0), (1, 1))]])
    without = GradedPresentation(gens, [[(Q(1), (0, 0))]])
    assert presented_dims(zero_term, 6) == presented_dims(without, 6)
    assert presented_dims(GradedPresentation(gens, [[(Q(0), (2,))]]), 4) == \
        presented_dims(GradedPresentation(gens, []), 4)
    with pytest.raises(ValueError, match="homogeneous"):
        presented_dims(GradedPresentation(gens, [[(Q(1), (0, 0)), (Q(1), (0,))]]), 4)


def _classified_matrices():
    """(name, matrix, smooth) for M1-M6, the cohomology-case representatives,
    the subcase battery, NOT_CY and the 3x3 golden inputs."""
    named = [(name, m) for name, m in SIX_REPRESENTATIVES.items()]
    named += [("case %s" % case, Mat(rows)) for case, rows in COHOMOLOGY_CASE_REPS.items()]
    named += [("%s/%d" % (sub, i), Mat(rows)) for sub, mats in SUBCASE_BATTERY.items()
              for i, rows in enumerate(mats)]
    named += [("NOT_CY %d" % i, Mat(rows)) for i, rows in enumerate(NOT_CY)]
    named += [(name, Mat(rows)) for name, rows in GOLDEN_MATRICES.items() if len(rows) == 3]
    return [(name, m, theorem_c(m).homologically_smooth) for name, m in named]


def test_presented_dims_match_word_rank_oracle():
    for name, m, _ in _classified_matrices():
        pres = presentation_of(classify(m))
        # The three-generator rank-0 presentation has 3^d words in degree d.
        dmax = 7 if m.rank() == 0 else 8
        assert presented_dims(pres, dmax) == presented_dims_by_rank(pres, dmax), name
    for rows in PLANAR_FAMILIES:
        pres = n2_presentation(Mat(rows))
        assert presented_dims(pres, 10) == presented_dims_by_rank(pres, 10), rows
    pres = degenerate_presentation()
    assert presented_dims(pres, 10) == presented_dims_by_rank(pres, 10)


def test_presented_dims_match_cohomology_to_degree_ten():
    # Out of the oracle's reach: brute-force H(A) against the presentation
    # through degree 10.  The NOT_CY families are left out: their displayed
    # presentations lack a cubic relation (ROADMAP item 4).
    checked = 0
    for name, m, smooth in _classified_matrices():
        if smooth:
            pres = presentation_of(classify(m))
            assert presented_dims(pres, 10) == DgSpec(m).cohomology(10).dims, name
            checked += 1
    assert checked >= 40


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2, Q(1, 2)]),
                         min_size=3, max_size=3), min_size=3, max_size=3))
def test_presented_dims_match_oracle_on_random_matrices(rows):
    pres = presentation_of(classify(Mat(rows)))
    assert presented_dims(pres, 6) == presented_dims_by_rank(pres, 6)
