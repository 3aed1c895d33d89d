"""Exact-arithmetic analysis of DG algebra structures on the quantum affine
space O_{-1}(k^n): classification, isomorphism, cohomology, minimal
semifree resolutions, Ext-algebras, and the Calabi-Yau decision."""

from .dg import DgSpec, CohomologyReport, cup_kernel, cy_probe
from .classify import CaseLabel, GradedPresentation, TheoremCVerdict, classify, \
    presentation_of, presented_dims, theorem_c
from .finalg import FinAlg, FrobeniusVerdict, frobenius, \
    radical_filtration, recognize_truncated, sklyanin_e, socle_dim
from .linalg import Mat, Q, in_span, kernel_basis, rref, solve_linear
from .qpl import IsoResult, QplMatrix, aut_group, chi, is_quasi_permutation, iso_solve
from .report import analyze
from .resolution import InfinitePattern, SemifreeResolution, UnsupportedCase, \
    build_resolution, eilenberg_moore, ext_algebra, verify_resolution
from .skew import SkewElement, graded_basis, mono_mul, normalize_word, parse_element, \
    render_element

__all__ = [
    "DgSpec", "CohomologyReport", "cup_kernel", "cy_probe",
    "CaseLabel", "GradedPresentation", "TheoremCVerdict", "classify",
    "presentation_of", "presented_dims", "theorem_c",
    "FinAlg", "FrobeniusVerdict", "frobenius",
    "radical_filtration", "recognize_truncated", "sklyanin_e", "socle_dim",
    "Mat", "Q", "in_span", "kernel_basis", "rref", "solve_linear",
    "IsoResult", "QplMatrix", "aut_group", "chi", "is_quasi_permutation", "iso_solve",
    "analyze",
    "InfinitePattern", "SemifreeResolution", "UnsupportedCase",
    "build_resolution", "eilenberg_moore", "ext_algebra", "verify_resolution",
    "SkewElement", "graded_basis", "mono_mul", "normalize_word", "parse_element",
    "render_element",
]
