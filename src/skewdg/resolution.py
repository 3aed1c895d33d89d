"""Minimal semi-free resolutions of the trivial module and Ext-algebras.

A resolution is a free basis e_0..e_{m-1} in degree 0 together with a
strictly lower triangular matrix of degree-1 entries: d(e_j) = sum d[j][l] e_l.
The verifier checks minimality, the square-zero identity, and truncated
exactness of the associated complex F = A (x) k^m, whose maps and cohomology
live in dg; the Ext-algebra is the scalar commutant of the differential
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .classify import CaseLabel, classify, quadric_coefficients, theorem_c
from .dg import DgSpec, InternalConsistencyError, _complex_columns, complex_cohomology_dims
from .finalg import AlgebraError, FinAlg
from .linalg import Mat, Q, sparse_kernel, sparse_rref, sparse_transpose
from .skew import SkewElement, graded_basis, mono_mul


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


@dataclass
class InfinitePattern:
    relation_coeffs: tuple  # (t1, t2, t3) with t1 t2 = t3^2
    truncation: SemifreeResolution

    def as_dict(self):
        return {
            "homologically_smooth": False,
            "relation": [str(t) for t in self.relation_coeffs],
            "truncation": self.truncation.as_dict(),
        }


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
    # g^2 _den (d(d[j][l]) - sum_k d[j][k] d[k][l]) in ints, for g the lcm of the grid's
    # denominators; only a failure becomes an element.
    square_zero = True
    g = lcm(*[c.denominator for row in rows for e in row for c in e.terms.values()])
    ints = [[{mono: c.numerator * (g // c.denominator) for mono, c in e.terms.items()}
             for e in row] for row in rows]
    nonzero = [[(k, e.items()) for k, e in enumerate(row) if e] for row in ints]
    den, image_of = spec._den, spec._image_of
    for j in range(m):
        for l in range(m):
            acc = {}
            for mono, c in ints[j][l].items():
                for key, x in image_of(mono).items():
                    acc[key] = acc.get(key, 0) + g * c * x
            for k, left in nonzero[j]:
                for a, x in left:
                    for b, y in ints[k][l].items():
                        sign, key = mono_mul(a, b)
                        acc[key] = acc.get(key, 0) - sign * den * x * y
            if any(acc.values()):
                square_zero = False
                diff = {key: Q(x, g * g * den) for key, x in acc.items()}
                failures.append(("square-zero", j, l, str(SkewElement(spec.n, diff))))
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


def _square_grid(spec: DgSpec, rows) -> list:
    m = len(rows)
    zero = SkewElement.zero(spec.n)
    return [[rows[j][l] if l < len(rows[j]) else zero for l in range(m)] for j in range(m)]


def _fresh_classes(spec: DgSpec, rows, fresh: int) -> list:
    """The RREF kernel vectors of d_F on F^1 nonzero past coordinate `fresh`,
    the first x_i e_j of the last round's generators, each as m coefficients.

    Appending rows leaves the earlier columns as they were, and a kernel
    vector lives on its free column and the pivots before it.  One with an
    old free column lies in the last round's Z^1, inside B^1 now; B^1 is 0
    past `fresh`.  So these vectors give a basis of H^1(F).
    """
    n, basis = spec.n, graded_basis(spec.n, 1)
    cocycles = sparse_kernel(sparse_transpose(_complex_columns(spec, rows, 1)).values(),
                             len(rows) * n)
    return [[SkewElement(n, {mono: v[l * n + s] for s, mono in enumerate(basis)})
             for l in range(len(rows))] for v in cocycles if any(v[fresh:])]


def eilenberg_moore(spec: DgSpec, max_size: int = 64):
    """Build a minimal semifree resolution by repeatedly killing H^1: each
    round appends a generator e with d(e) = z for each z of _fresh_classes.

    Returns (grid, complete); complete is False when the size cap stops the
    construction first (the homologically non-smooth families).
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    zero = SkewElement.zero(spec.n)
    rows = [[]]  # row j carries entries for columns 0..j-1
    fresh = 0  # the first coordinate of the generators added in the last round
    while True:
        m = len(rows)
        reps = _fresh_classes(spec, rows, fresh)
        if not reps:
            break
        if m + len(reps) > max_size:
            return _square_grid(spec, rows), False
        for rep in reps:
            # Each representative is a coefficient list over the basis that
            # existed when it was computed; newer rows contribute zeros.
            rows.append(list(rep) + [zero] * (len(rows) - len(rep)))
        fresh = m * spec.n
    return _square_grid(spec, rows), True


# -- the equality-case representatives ----------------------------------------------


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


def build_resolution(m: Mat, truncate: int = 8):
    """The minimal semifree resolution of k over A(m), built by eilenberg_moore
    on m itself.

    Returns a SemifreeResolution, or an InfinitePattern carrying a truncated
    prefix of at most `truncate` generators for the rank-1 families that are
    not homologically smooth.  A build that does not close on a smooth input
    raises InternalConsistencyError.
    """
    return _resolve(DgSpec(m), classify(m), theorem_c(m).homologically_smooth, truncate)


def _resolve(spec: DgSpec, label: CaseLabel, smooth: bool, truncate: int):
    """build_resolution over a given spec, with the classification `label`
    and Theorem C's smoothness verdict `smooth` of its matrix."""
    if not smooth:  # only rank-1 families
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
    """The scalar commutant {a : a d = d a} of the resolution differential,
    packaged as an algebra by structure constants.

    F is minimal with H^0(F) = k, so a -> a e_0 maps the commutant one to one
    onto k^m: with the a[j][0] last, the equations pivot on all other unknowns.
    b_t is the solution with column 0 e_t, so b_i b_j = sum_k b_i[k][j] b_k and
    the unit is e_0.  That table is associative exactly when the span of the
    b_t is closed, so FinAlg's validation certifies the commutant.
    """
    m = res.size
    free = m * m - m  # the unknowns a[j][l] at (m - 1 - l) m + j: a[j][0] at free + j
    # The nonzero linear coefficients (j, l, monomial, coefficient) of d, as
    # ints times the lcm g of their denominators.
    linear = [(j, l, mono, c) for j, row in enumerate(res.d) for l, entry in enumerate(row)
              for mono, c in entry.terms.items() if sum(mono) == 1]
    g = lcm(*[c.denominator for *_, c in linear])
    linear = [(j, l, mono, c.numerator * (g // c.denominator)) for j, l, mono, c in linear]
    # One sparse equation per (j, l) and degree-1 monomial:
    # sum_k a[j][k] d[k][l] - d[j][k] a[k][l] = 0.
    eqs = {}
    for k, l, mono, c in linear:
        for j in range(m):
            row = eqs.setdefault((j, l, mono), {})
            u = (m - 1 - k) * m + j
            row[u] = row.get(u, 0) + c
    for j, k, mono, c in linear:
        for l in range(m):
            row = eqs.setdefault((j, l, mono), {})
            u = (m - 1 - l) * m + k
            row[u] = row.get(u, 0) - c
    # A one-term equation fixes its unknown to 0: clearing it from the other rows and keeping
    # one row u = 0 leaves the row space, so the reduced form, unchanged.
    eqs = [{u: c for u, c in row.items() if c} for row in eqs.values()]
    fixed = {next(iter(row)) for row in eqs if len(row) == 1}
    system = [{u: 1} for u in fixed]
    system += [{u: c for u, c in row.items() if u not in fixed} for row in eqs if len(row) > 1]
    red, pivots = sparse_rref(system)
    if pivots != list(range(free)):
        raise InternalConsistencyError("column 0 does not determine the commutant")
    # cols[t][l] = {j: b_t[j][l]}; for l > 0, minus the entry at a[t][0] of a[j][l]'s row.
    cols = [[{t: Q(1)}] + [{} for _ in range(m - 1)] for t in range(m)]
    for row, p in zip(red, pivots):
        for u, x in row.items():
            if u >= free:
                cols[u - free][m - 1 - p // m][p % m] = -x
    table = tuple(tuple(tuple(sorted(col.items())) for col in b) for b in cols)
    try:
        return FinAlg.from_pairs(m, (Q(1),) + (Q(0),) * (m - 1), table)
    except AlgebraError as exc:
        # The commutant of a differential is an algebra by construction.
        raise InternalConsistencyError("the Ext commutant is not an algebra: %s" % exc) from exc
