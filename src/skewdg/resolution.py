"""Minimal semi-free resolutions of the trivial module and Ext-algebras.

A resolution is a free basis e_0..e_{m-1} in degree 0 together with a
strictly lower triangular matrix of degree-1 entries: d(e_j) = sum d[j][l] e_l.
The verifier checks minimality, the square-zero identity, and truncated
exactness of the associated complex; the Ext-algebra is the scalar
commutant of the differential matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classify import CaseLabel, classify, quadric_coefficients, theorem_c
from .dg import DgSpec, InternalConsistencyError
from .finalg import AlgebraError, FinAlg
from .linalg import Mat, Q, complement_in, frac, kernel_basis, sparse_kernel, sparse_rank
from .skew import SkewElement, graded_basis, mono_mul, parse_element


class UnsupportedCase(ValueError):
    """The input is outside what the command covers, such as n != 3."""


@dataclass
class SemifreeResolution:
    spec: DgSpec  # the DG structure the rows are valid over
    d: list  # m x m grid of SkewElement, strictly lower triangular
    subcase: CaseLabel

    @property
    def size(self) -> int:
        return len(self.d)

    def entry(self, j: int, l: int) -> SkewElement:
        return self.d[j][l]

    def as_dict(self):
        return {
            "size": self.size,
            "matrix": [[str(x) for x in row] for row in self.spec.m.data],
            "subcase": self.subcase.as_dict(),
            "rows": [[str(self.d[j][l]) for l in range(j)] for j in range(self.size)],
        }


def resolution_from_dict(data: dict) -> SemifreeResolution:
    """Re-parse the stable textual serialization produced by as_dict()."""
    mat = Mat([[frac(x) for x in row] for row in data["matrix"]])
    spec = DgSpec(mat)
    size = data["size"]
    zero = SkewElement.zero(spec.n)
    grid = [[zero for _ in range(size)] for _ in range(size)]
    for j, row in enumerate(data["rows"]):
        for l, text in enumerate(row):
            grid[j][l] = parse_element(text, spec.n)
    return SemifreeResolution(spec, grid, classify(mat))


@dataclass
class InfinitePattern:
    relation_coeffs: tuple  # (t1, t2, t3) with t1 t2 = t3^2
    truncation: Optional[SemifreeResolution]

    def as_dict(self):
        out = {
            "homologically_smooth": False,
            "relation": [str(t) for t in self.relation_coeffs],
        }
        if self.truncation is not None:
            out["truncation"] = self.truncation.as_dict()
        return out


# -- the complex F = A (x) k^m and its cohomology -------------------------------


def _complex_columns(spec: DgSpec, rows, degree: int) -> list[dict]:
    """d_F : F^degree -> F^{degree+1} as sparse columns.

    Column j*|src| + s is the image of (monomial s) e_j, keyed by target
    index l*|dst| + (monomial index): its e_j block is the image of the
    monomial under d_A, and its e_l block for l < j is (-1)^degree times
    the monomial times d[j][l].
    """
    n = spec.n
    src = graded_basis(n, degree)
    dst_index = {mono: i for i, mono in enumerate(graded_basis(n, degree + 1))}
    ndst = len(dst_index)
    sign = -1 if degree % 2 else 1
    images = spec.images(degree)
    cols = []
    for j, row in enumerate(rows):
        for mono, image in zip(src, images):
            col = {j * ndst + r: c for r, c in image.items()}
            for l in range(j):
                # mono * d[j][l], term by term: mono times one monomial of
                # the entry is a single signed monomial.
                for mo, c in row[l].terms.items():
                    mono_sign, prod = mono_mul(mono, mo)
                    col[l * ndst + dst_index[prod]] = c if mono_sign == sign else -c
            cols.append(col)
    return cols


def complex_cohomology_dims(spec: DgSpec, rows, dmax: int) -> list[int]:
    """dim H^i of the semifree complex for 0 <= i <= dmax - 1."""
    n = spec.n
    m = len(rows)
    # rank(B^T) = rank(B): each column of d_F is one row of its transpose.
    ranks = [sparse_rank(_complex_columns(spec, rows, d)) for d in range(dmax)]
    dims = []
    for i in range(dmax):
        total = m * len(graded_basis(n, i))
        prev = ranks[i - 1] if i > 0 else 0
        dims.append(total - ranks[i] - prev)
    return dims


@dataclass
class VerificationReport:
    minimal: bool
    square_zero: bool
    cohomology_dims: list
    exact: bool
    failures: list

    @property
    def passed(self) -> bool:
        return self.minimal and self.square_zero and self.exact

    def as_dict(self):
        return {
            "passed": self.passed,
            "minimal": self.minimal,
            "square_zero": self.square_zero,
            "complex_cohomology": self.cohomology_dims,
            "exact": self.exact,
            "failures": self.failures,
        }


def verify_resolution(spec: DgSpec, res: SemifreeResolution, dmax: int = 5) -> VerificationReport:
    """Check minimality, the square-zero identity and truncated exactness.

    Exactness means dim H^0(F) = 1 and H^i(F) = 0 for 1 <= i <= dmax - 1.
    Failures carry the offending indices so a falsified claim is precise.
    """
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    rows = res.d
    m = len(rows)
    failures = []
    minimal = True
    graded = True
    for j in range(m):
        for l in range(m):
            entry = rows[j][l]
            if l >= j and not entry.is_zero():
                minimal = False
                failures.append(("not-lower-triangular", j, l))
            if not entry.is_zero() and entry.degrees() != {1}:
                minimal = False
                graded = False
                failures.append(("entry-degree", j, l, sorted(entry.degrees())))
    square_zero = True
    for j in range(m):
        for l in range(m):
            lhs = spec.differential(rows[j][l])
            rhs = SkewElement.zero(spec.n)
            for k in range(m):
                rhs = rhs + rows[j][k] * rows[k][l]
            if lhs != rhs:
                square_zero = False
                failures.append(("square-zero", j, l, str(lhs - rhs)))
    if graded:
        dims = complex_cohomology_dims(spec, rows, dmax)
        exact = dims[0] == 1 and all(x == 0 for x in dims[1:])
        if not exact:
            failures.append(("cohomology", dims))
    else:
        # Entries of the wrong degree break the grading; there is no graded
        # complex whose exactness could be measured.
        dims = []
        exact = False
        failures.append(("complex-not-graded",))
    return VerificationReport(minimal, square_zero, dims, exact, failures)


# -- generic construction by killing degree-1 cocycle classes -------------------


def _h1_representatives(spec: DgSpec, rows):
    """Cocycle representatives of H^1(F), as lists of degree-1 coefficients."""
    n = spec.n
    m = len(rows)
    basis1 = graded_basis(n, 1)
    cocycles = kernel_basis(Mat.from_sparse_columns(_complex_columns(spec, rows, 1),
                                                    m * len(graded_basis(n, 2))))
    # Coboundary columns: images of the basis elements e_j.
    bound = []
    for j in range(m):
        col = [Q(0)] * (m * n)
        for l in range(j):
            for i, mono in enumerate(basis1):
                col[l * n + i] = rows[j][l].terms.get(mono, Q(0))
        bound.append(tuple(col))
    return [[SkewElement(n, {mono: vec[j * n + i] for i, mono in enumerate(basis1)})
             for j in range(m)] for vec in complement_in(bound, cocycles)]


def _square_grid(spec: DgSpec, rows) -> list:
    m = len(rows)
    zero = SkewElement.zero(spec.n)
    return [[rows[j][l] if l < len(rows[j]) else zero for l in range(m)] for j in range(m)]


def eilenberg_moore(spec: DgSpec, max_size: int = 64):
    """Build a minimal semifree resolution by repeatedly killing H^1.

    Returns (grid, complete); complete is False when the size cap stops the
    construction first (the homologically non-smooth families).
    """
    zero = SkewElement.zero(spec.n)
    rows = [[]]  # row j carries entries for columns 0..j-1
    while True:
        m = len(rows)
        reps = _h1_representatives(spec, rows)
        if not reps:
            break
        if m + len(reps) > max_size:
            return _square_grid(spec, rows), False
        for rep in reps:
            # Each representative is a coefficient list over the basis that
            # existed when it was computed; newer rows contribute zeros.
            rows.append(list(rep) + [zero] * (len(rows) - len(rep)))
    return _square_grid(spec, rows), True


# -- the published equality-case fixtures ------------------------------------------


# The paper's six rank-1 representatives M1-M6, whose resolution sizes and
# Ext dimensions it tabulates.
SIX_REPRESENTATIVES = {
    "M1": Mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]]),
    "M2": Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    "M3": Mat([[1, 1, 1], [1, 1, 1], [0, 0, 0]]),
    "M4": Mat([[0, 1, 0], [0, 0, 0], [0, 1, 0]]),
    "M5": Mat([[1, 1, 0], [1, 1, 0], [0, 0, 0]]),
    "M6": Mat([[1, 1, 0], [0, 0, 0], [1, 1, 0]]),
}

# Published differential grids for the six representatives.  Only M1 and M6
# pass the exactness check; the other four stop short of killing the cocycle
# classes that mix the second degree-one cohomology generator into the
# staircase, so they are kept as regression fixtures and NOT emitted as
# resolutions (see tests for the falsification data).
PUBLISHED_GRIDS = {
    "M1": [
        ["x2"],
        ["x3", "0"],
        ["0", "x3", "x2"],
        ["x1", "x2", "x3", "0"],
        ["0", "0", "x1", "x2", "x3"],
        ["0", "x1", "0", "x3", "x2", "0"],
        ["0", "0", "0", "x1", "0", "x2", "x3"],
    ],
    "M2": [
        ["x2"],
        ["x3", "0"],
        ["x1", "x2", "0"],
        ["0", "x1", "0", "x2"],
    ],
    "M3": [
        ["x1 - x2"],
        ["x3", "0"],
        ["x1", "x1 - x2", "x3"],
    ],
    "M4": [
        ["x2"],
        ["x1 - x3", "0"],
        ["x1", "x2", "0"],
        ["0", "x1", "0", "x2"],
    ],
    "M5": [
        ["x3"],
        ["x1 - x2", "0"],
        ["0", "x1 - x2", "x3"],
    ],
    "M6": [
        ["x2"],
        ["x1 - x3", "0"],
        ["0", "x1 - x3", "x2"],
    ],
}


def _grid_from_table(table) -> list:
    rows = [[parse_element(s, 3) for s in line] for line in table]
    size = len(rows) + 1
    zero = SkewElement.zero(3)
    return [[rows[j - 1][l] if j >= 1 and l < len(rows[j - 1]) else zero
             for l in range(size)] for j in range(size)]


def published_resolution(name: str) -> SemifreeResolution:
    """The grid exactly as published, for comparison and falsification."""
    rep = SIX_REPRESENTATIVES[name]
    return SemifreeResolution(DgSpec(rep), _grid_from_table(PUBLISHED_GRIDS[name]),
                              classify(rep))


def build_resolution(m: Mat, truncate: int = 8):
    """The minimal semifree resolution of k over A(m), built by eilenberg_moore
    on m itself.

    Returns a SemifreeResolution, or an InfinitePattern carrying a truncated
    prefix of at most `truncate` generators for the rank-1 families that are
    not homologically smooth.  A build that does not close on a smooth input
    raises InternalConsistencyError.
    """
    label = classify(m)
    spec = DgSpec(m)
    if not theorem_c(m).homologically_smooth:  # only rank-1 families
        grid, _complete = eilenberg_moore(spec, max_size=truncate)
        return InfinitePattern(quadric_coefficients(label.params),
                               SemifreeResolution(spec, grid, label))
    grid, complete = eilenberg_moore(spec)
    if not complete:
        raise InternalConsistencyError(
            "the resolution of a homologically smooth input did not close "
            "within %d generators" % len(grid))
    return SemifreeResolution(spec, grid, label)


# -- Ext-algebras -------------------------------------------------------------------


def ext_algebra(res: SemifreeResolution) -> FinAlg:
    """The scalar commutant {A : A d = d A} of the resolution differential,
    packaged as an algebra by structure constants."""
    m = res.size
    # The nonzero linear coefficients (j, l, monomial, coefficient) of d.
    linear = [(j, l, mono, c) for j, row in enumerate(res.d) for l, entry in enumerate(row)
              for mono, c in entry.terms.items() if sum(mono) == 1]
    # Unknowns a[j][l], row-major.  One sparse equation per (j, l) and
    # degree-1 monomial: sum_k a[j][k] d[k][l] - d[j][k] a[k][l] = 0.
    eqs = {}
    for k, l, mono, c in linear:
        for j in range(m):
            row = eqs.setdefault((j, l, mono), {})
            row[j * m + k] = row.get(j * m + k, 0) + c
    for j, k, mono, c in linear:
        for l in range(m):
            row = eqs.setdefault((j, l, mono), {})
            row[k * m + l] = row.get(k * m + l, 0) - c
    basis_vecs = sparse_kernel(({u: c for u, c in row.items() if c} for row in eqs.values()),
                               m * m)
    mats = [[{l: v[j * m + l] for l in range(m) if v[j * m + l]} for j in range(m)]
            for v in basis_vecs]
    try:
        return FinAlg.from_sparse_matrices(mats, m)
    except AlgebraError as exc:
        # The commutant of a differential is an algebra by construction.
        raise InternalConsistencyError("the Ext commutant is not an algebra: %s" % exc) from exc
