"""The quasi-permutation group QPL_n and its right action on defining
matrices: chi(M, C) = C^{-1} M (c_ij^2).

Orbits of the action are exactly the isomorphism classes of DG structures,
so deciding isomorphism means deciding whether the orbit equation has a
solution.  For each candidate permutation the scale constraints form a
multiplicative lattice system d_i / d_j^2 = r_ij.  Its exponents depend on
the zero pattern of M alone, so the exponent lattice is eliminated once per
pattern per process (_LATTICES) and each permutation only forms its ratios
r_ij.  The Smith form decides the system: solvability over the algebraic
closure is a character condition on the left kernel of the exponent matrix,
and a rational witness is a matter of extracting rational roots of the
transformed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import isqrt
from typing import Optional, Sequence

from .linalg import Mat, Q, frac, smith_normal_form


class UnsupportedSize(ValueError):
    """The exhaustive permutation search is bounded to n <= 3."""


@dataclass(frozen=True)
class QplMatrix:
    """Invertible quasi-permutation matrix: entry d_i at (i, sigma(i))."""

    permutation: tuple  # sigma as a tuple, 0-based: row i has its entry in column permutation[i]
    scales: tuple  # d_1..d_n, all nonzero

    def __post_init__(self):
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("not a permutation")
        scales = tuple(frac(d) for d in self.scales)
        if len(scales) != n or any(d == 0 for d in scales):
            raise ValueError("scales must be n nonzero rationals")
        object.__setattr__(self, "scales", scales)

    @property
    def n(self) -> int:
        return len(self.permutation)

    def to_mat(self) -> Mat:
        n = self.n
        rows = [[Q(0)] * n for _ in range(n)]
        for i, j in enumerate(self.permutation):
            rows[i][j] = self.scales[i]
        return Mat(rows)

    @staticmethod
    def from_mat(c: Mat) -> "QplMatrix":
        if not is_quasi_permutation(c):
            raise ValueError("not an invertible quasi-permutation matrix")
        perm = []
        scales = []
        for i in range(c.rows):
            j = next(j for j in range(c.cols) if c[i, j] != 0)
            perm.append(j)
            scales.append(c[i, j])
        return QplMatrix(tuple(perm), tuple(scales))

    @staticmethod
    def identity(n: int) -> "QplMatrix":
        return QplMatrix(tuple(range(n)), tuple([Q(1)] * n))

    @staticmethod
    def transposition(i: int, j: int, n: int) -> "QplMatrix":
        """Permutation matrix swapping slots i and j (1-based)."""
        perm = list(range(n))
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
        return QplMatrix(tuple(perm), tuple([Q(1)] * n))

    def __mul__(self, other: "QplMatrix") -> "QplMatrix":
        # Row i of self picks row sigma(i) of other, scaled by d_i.
        sigma = self.permutation
        return QplMatrix(tuple(other.permutation[s] for s in sigma),
                         tuple(d * other.scales[s] for d, s in zip(self.scales, sigma)))

    def inverse(self) -> "QplMatrix":
        # The entry d_i at (i, sigma(i)) becomes 1/d_i at (sigma(i), i).
        perm = [0] * self.n
        scales = [Q(0)] * self.n
        for i, (s, d) in enumerate(zip(self.permutation, self.scales)):
            perm[s] = i
            scales[s] = 1 / d
        return QplMatrix(tuple(perm), tuple(scales))


def is_quasi_permutation(c: Mat) -> bool:
    """Each row and each column has exactly one nonzero entry."""
    if c.rows != c.cols:
        return False
    for i in range(c.rows):
        if sum(1 for x in c.row(i) if x != 0) != 1:
            return False
    for j in range(c.cols):
        if sum(1 for x in c.column(j) if x != 0) != 1:
            return False
    return True


def chi(m: Mat, c) -> Mat:
    """The right action: chi(M, C) = C^{-1} M (entrywise square of C).

    For C with entry d_i at (i, sigma(i)) this is
    chi(M, C)[sigma(i)][sigma(j)] = M[i][j] d_j^2 / d_i.
    """
    if isinstance(c, Mat):
        c = QplMatrix.from_mat(c)
    n = c.n
    if m.rows != n or m.cols != n:
        raise ValueError("dimension mismatch")
    sigma, d = c.permutation, c.scales
    out = [[Q(0)] * n for _ in range(n)]
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x:
                # x d_j^2 / d_i as one Fraction of integer products.
                out[sigma[i]][sigma[j]] = Q(x.numerator * d[j].numerator ** 2 * d[i].denominator,
                                            x.denominator * d[j].denominator ** 2 * d[i].numerator)
    return Mat._exact(out, n)


# -- isomorphism decision -------------------------------------------------------


@dataclass
class RootRequirement:
    variable: int  # 0-based scale index
    degree: int
    radicand: Fraction

    def as_dict(self):
        return {"variable": self.variable + 1, "degree": self.degree, "radicand": str(self.radicand)}


@dataclass
class IsoResult:
    status: str  # "NotIsomorphic" | "Witness" | "ClosureOnly"
    witness: Optional[QplMatrix] = None
    permutation: Optional[tuple] = None
    root_requirements: list = field(default_factory=list)
    certificate: list = field(default_factory=list)

    def as_dict(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["permutation"] = [p + 1 for p in self.witness.permutation]
            out["scales"] = [str(d) for d in self.witness.scales]
        elif self.permutation is not None:
            out["permutation"] = [p + 1 for p in self.permutation]
        if self.root_requirements:
            out["root_requirements"] = [r.as_dict() for r in self.root_requirements]
        if self.certificate:
            out["residual_equations"] = self.certificate
        return out


def _support(m: Mat) -> dict:
    """Each nonzero cell (i, j) of M mapped to its entry, in row-major
    order."""
    return {(i, j): x for i, row in enumerate(m.data) for j, x in enumerate(row) if x}


def _exponents(support: dict, n: int) -> list:
    """The exponent row e_i - 2 e_j of each nonzero cell (i, j), in the
    order of the support.  It depends on M's zero pattern alone, so one
    elimination of these rows (_lattice) serves every permutation and every
    matrix of that pattern."""
    return [[(k == i) - 2 * (k == j) for k in range(n)] for i, j in support]


_LATTICES = {}  # (n, zero-pattern bitmask) -> _lattice; depends on nothing else, kept once built


def _lattice(support: dict, n: int) -> tuple:
    """The eliminations of _exponents(support, n), built once per zero
    pattern and shared by every later call: (kernel, rank rows, diagonal, V,
    echelon exponents, echelon transforms), each one flat tuple of ints,
    row after row; the rows of V and of the echelon exponents are n long,
    the others len(support).

    The Smith form U E V = D gives the rows of U past the rank, a basis of
    the left kernel lattice {z : z E = 0}, which both solvers check closure
    on; the rows of U up to the rank with the nonzero diagonal of D; and V.
    The Hermite form gives aut_group its echelon rows and their transforms.
    The table holds one entry per pattern met, at most 2^(n^2) for each n,
    and the solvers refuse n > 3, so at most 530 entries: lifting that gate
    (ROADMAP item 8) must also bound the table.
    """
    key = (n, sum(1 << (i * n + j) for i, j in support))
    entry = _LATTICES.get(key)
    if entry is None:
        exps = _exponents(support, n)
        u, d, v = smith_normal_form(exps)
        rank = next((i for i in range(min(len(exps), n)) if d[i][i] == 0), min(len(exps), n))
        echelon = _hermite_rows(exps)
        entry = _LATTICES[key] = (_flat(u[rank:]), _flat(u[:rank]),
                                  tuple([d[i][i] for i in range(rank)]), _flat(v),
                                  _flat(e for e, _ in echelon), _flat(t for _, t in echelon))
    return entry


def _flat(rows) -> tuple:
    """Integer rows as one tuple, row after row: a tuple per row would
    cost more than the ints of a short row."""
    return tuple([x for row in rows for x in row])


def _ratios(support: dict, support2: dict, sigma: Sequence[int]):
    """The ratios M[i][j] / M'[s(i)][s(j)] of M's nonzero cells, in the
    order of _exponents, as unreduced pairs of nonzero integers; None if
    the zero patterns differ.  With both supports read once per call, a
    permutation costs one lookup per nonzero cell and no permuted copy of
    M'."""
    if len(support) != len(support2):
        return None
    pairs = []
    for (i, j), a in support.items():
        b = support2.get((sigma[i], sigma[j]))
        if b is None:
            return None
        pairs.append((a.numerator * b.denominator, a.denominator * b.numerator))
    return pairs


def _pairs(flat, pairs):
    """prod pair^z for each integer row z of a _flat tuple of rows as long
    as pairs, as one integer numerator and one integer denominator (a
    negative power swaps the pair), unreduced: the value is 1 exactly when
    they are equal."""
    entries = iter(flat)
    # Each zip takes one row off entries: pairs runs out first, so no entry
    # of the next row is lost.  An empty support has empty rows.
    for _ in range(0, len(flat), len(pairs) or 1):
        num = den = 1
        for (a, b), e in zip(pairs, entries):
            if e < 0:
                a, b, e = b, a, -e
            if e:
                num *= a ** e
                den *= b ** e
        yield num, den


def _values(flat, pairs) -> list:
    """The values of _pairs, each made a Fraction once."""
    return [Q(num, den) for num, den in _pairs(flat, pairs)]


def _int_root(k: int, g: int) -> Optional[int]:
    """Exact g-th root of an integer k >= 1, or None if k is no g-th power."""
    if g == 2:
        r = isqrt(k)
    else:
        # Integer Newton from above, starting at a power of two >= the root.
        r = 1 << -(-k.bit_length() // g)
        while True:
            s = ((g - 1) * r + k // r ** (g - 1)) // g
            if s >= r:
                break
            r = s
    return r if r ** g == k else None


def _nth_root(x: Fraction, g: int) -> Optional[Fraction]:
    """Exact rational g-th root, preferring the positive one; None if absent."""
    if g == 1:
        return x
    if x == 0:
        return Q(0)
    neg = x < 0
    if neg and g % 2 == 0:
        return None
    mag = -x if neg else x

    rn = _int_root(mag.numerator, g)
    rd = _int_root(mag.denominator, g)
    if rn is None or rd is None:
        return None
    root = Q(rn, rd)
    return -root if neg else root


def _hermite_rows(exps):
    """Row-echelon the exponent rows with unimodular row operations.

    Each row carries its transform, the integer combination of the input
    rows it stands for, so the value of a row for given ratios is
    _values(transform, pairs).  Returns the echelon rows as (exponents,
    transform); the leftover rows, whose exponents are zero, span the left
    kernel, which _lattice takes from the Smith form instead."""
    nc = len(exps)
    rows = [(list(e), [int(i == k) for k in range(nc)]) for i, e in enumerate(exps)]
    n = len(exps[0]) if exps else 0
    echelon = []
    col = 0
    while col < n and rows:
        while True:
            nz = [i for i, (e, _) in enumerate(rows) if e[col] != 0]
            if not nz:
                break
            imin = min(nz, key=lambda i: abs(rows[i][0][col]))
            rows[0], rows[imin] = rows[imin], rows[0]
            done = True
            pe, pt = rows[0]
            for i in range(1, len(rows)):
                e, t = rows[i]
                if e[col] != 0:
                    q = e[col] // pe[col]
                    if q:
                        rows[i] = ([a - q * b for a, b in zip(e, pe)],
                                   [a - q * b for a, b in zip(t, pt)])
                    if rows[i][0][col] != 0:
                        done = False
            if done:
                break
        if rows and rows[0][0][col] != 0:
            e, t = rows.pop(0)
            if e[col] < 0:
                e, t = [-x for x in e], [-x for x in t]
            echelon.append((e, t))
        col += 1
    return echelon


def _solve_scales(lattice, pairs, n):
    """Rational solutions of the multiplicative system, via the Smith form
    (U, D, V) of its exponent rows, read off the _lattice entry.

    A unimodular change of variables turns the system into independent
    equations y_i^g = value, so a rational witness exists exactly when each
    value admits a rational g-th root; free transformed variables are set
    to 1 and even roots branch over both signs.  Returns (candidates,
    root requirements), or None when the system has no solution even over
    the algebraic closure; candidates are re-verified by the caller.
    """
    if not pairs:
        return [tuple([Q(1)] * n)], []
    kernel, rows, diagonal, v, _, _ = lattice
    # Rows of U beyond the rank span the left kernel of the exponent
    # matrix: the closure condition prod r^z = 1 over that lattice.
    if any(num != den for num, den in _pairs(kernel, pairs)):
        return None
    needed: list[RootRequirement] = []
    y_choices = []
    for i, ((num, den), g) in enumerate(zip(_pairs(rows, pairs), diagonal)):
        target = Q(num, den) if g > 0 else Q(den, num)
        g = abs(g)
        root = _nth_root(target, g)
        if root is None:
            needed.append(RootRequirement(i, g, target))
            continue
        options = [root] if (g % 2 or root == 0) else [root, -root]
        y_choices.append((i, options))
    if needed:
        return [], needed
    indices = [i for i, _ in y_choices]
    candidates = []
    for combo in product(*[options for _, options in y_choices]):
        y = [(1, 1)] * n
        for i, val in zip(indices, combo):
            y[i] = (val.numerator, val.denominator)
        candidates.append(tuple(_values(v, y)))
    return candidates, needed


def iso_solve(m: Mat, m2: Mat) -> IsoResult:
    """Decide whether two defining matrices lie in the same orbit.

    The exponents of the multiplicative scale system depend on M's zero
    pattern alone, so their Smith form is read from _lattice.  Every
    permutation is screened structurally, then only its ratios are formed
    and pushed through that Smith form: permutations whose system has no
    solution over the algebraic closure are skipped, and a rational witness
    is extracted whenever the required radicals are rational.  Witnesses
    are re-verified exactly before being returned.
    """
    if m.rows != m.cols or m2.rows != m2.cols or m.rows != m2.rows:
        raise ValueError("matrices must be square of equal size")
    n = m.rows
    if n > 3:
        raise UnsupportedSize("isomorphism search is implemented for n <= 3")
    support, support2 = _support(m), _support(m2)
    lattice = _lattice(support, n)
    closure_hits = []
    for sigma in permutations(range(n)):
        pairs = _ratios(support, support2, sigma)
        if pairs is None:
            continue
        solved = _solve_scales(lattice, pairs, n)
        if solved is None:
            continue
        candidates, needed = solved
        for scales in candidates:
            witness = QplMatrix(tuple(sigma), scales)
            if chi(m, witness) == m2:
                return IsoResult("Witness", witness=witness)
        certificate = [
            "d%d^%d = %s" % (req.variable + 1, req.degree, req.radicand) for req in needed
        ]
        closure_hits.append(IsoResult("ClosureOnly", permutation=tuple(sigma),
                                      root_requirements=needed, certificate=certificate))
    if closure_hits:
        return closure_hits[0]
    return IsoResult("NotIsomorphic")


# -- automorphism groups ---------------------------------------------------------


@dataclass
class AutFamily:
    permutation: tuple  # 0-based
    fixed: dict  # scale index -> value (when the system pins it to a rational)
    relations: list  # residual echelon rows as strings
    free: list  # scale indices with no constraint

    def as_dict(self):
        return {
            "permutation": [p + 1 for p in self.permutation],
            "fixed": {("d%d" % (k + 1)): str(v) for k, v in sorted(self.fixed.items())},
            "relations": self.relations,
            "free": ["d%d" % (k + 1) for k in self.free],
        }


def aut_group(m: Mat) -> list[AutFamily]:
    """Describe Aut of the DG structure: for each permutation admitting
    automorphisms, the solved scale constraints."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    if n > 3:
        raise UnsupportedSize("automorphism search is implemented for n <= 3")
    support = _support(m)
    kernel, _, _, _, exps, transforms = _lattice(support, n)
    families = []
    for sigma in permutations(range(n)):
        pairs = _ratios(support, support, sigma)
        # Solvable over the algebraic closure iff the left kernel maps to 1.
        if pairs is None or any(num != den for num, den in _pairs(kernel, pairs)):
            continue
        fixed = {}
        relations = []
        pivot_cols = set()
        # zip(*[iter(exps)] * n) reads the exponent rows back, n ints each.
        for e, r in zip(zip(*[iter(exps)] * n), _values(transforms, pairs)):
            col = next(k for k in range(n) if e[k] != 0)
            pivot_cols.add(col)
            if e[col] == 1 and all(e[k] == 0 for k in range(col + 1, n)):
                fixed[col] = r
            else:
                lhs = "d%d" % (col + 1) if e[col] == 1 else "d%d^%d" % (col + 1, e[col])
                rhs = [] if r == 1 else [str(r)]
                for k in range(n):
                    if k == col or e[k] == 0:
                        continue
                    if e[k] == -1:
                        rhs.append("d%d" % (k + 1))
                    else:
                        rhs.append("d%d^%d" % (k + 1, -e[k]))
                relations.append("%s = %s" % (lhs, "*".join(rhs) if rhs else "1"))
        free = [k for k in range(n) if k not in pivot_cols]
        families.append(AutFamily(tuple(sigma), fixed, relations, free))
    return families
