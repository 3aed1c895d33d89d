"""DG structures on O_{-1}(k^n): the differential attached to a square
matrix M, boundary matrices in the monomial bases, the semifree complexes
F = A (x) k^m with their cohomology (A itself is F on one generator), and
the cohomological Calabi-Yau probe for n = 3.

The differential is determined by d(x_i) = sum_j M[i][j] x_j^2 and the
graded Leibniz rule; d^2 = 0 holds for every M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import comb, lcm
from typing import Optional

from .linalg import (Mat, Q, column_pivots, integer_rank, sparse_kernel, sparse_rows, sparse_rref,
                     sparse_transpose)
from .skew import InternalConsistencyError, SkewElement, add_terms, graded_basis, mono_mul


class DgSpec:
    """The DG algebra on O_{-1}(k^n) determined by an n x n matrix."""

    # __dict__ holds the tables of the cached properties below.
    __slots__ = ("n", "m", "_img_cache", "_mono_images", "__dict__")

    def __init__(self, m: Mat):
        if m.rows != m.cols:
            raise ValueError("defining matrix must be square")
        object.__setattr__(self, "n", m.rows)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_img_cache", {})  # degree -> images(degree)
        object.__setattr__(self, "_mono_images", {})  # monomial -> _image_of(monomial)

    # _den, _support and _values are built on first read: cy_probe decides
    # most matrices from the rank alone and reads none of them.

    @cached_property
    def _den(self) -> int:
        """The lcm of the denominators of M: the images are kept as ints times it."""
        return lcm(*[x.denominator for row in self.m.data for x in row])

    @cached_property
    def _support(self) -> list:
        """Row i of _den M as (j, k, -k) over its nonzero entries k = _den M[i][j]."""
        den = self._den
        support = []
        for row in self.m.data:
            ints = [(j, x.numerator * (den // x.denominator)) for j, x in enumerate(row) if x]
            support.append([(j, k, -k) for j, k in ints])
        return support

    @cached_property
    def _values(self) -> dict:
        """The table {+-k: +-M[i][j]} that reads an image coefficient as a Fraction."""
        values = {k: self.m.data[i][j] for i, ints in enumerate(self._support) for j, k, _ in ints}
        values.update([(-k, -x) for k, x in values.items()])
        return values

    def __setattr__(self, name, value):
        raise AttributeError("DgSpec is immutable")

    def __eq__(self, other):
        return isinstance(other, DgSpec) and self.m == other.m

    def __repr__(self):
        return "DgSpec(%r)" % (self.m,)

    # -- the differential ----------------------------------------------------

    def _monomial_image(self, mono):
        """The terms (monomial, coefficient) of the differential of a normal
        monomial, each coefficient an int: _den times the Fraction one.

        The letters are differentiated in place with alternating signs; a
        letter with even exponent contributes nothing because the signs
        cancel in pairs, and x_j^2 is central so the replacement lands back
        in normal form directly.  The monomials are distinct, because
        mono / x_i * x_j^2 determines i and j, so each coefficient is
        +-_den M[i][j].
        """
        prefix = 0
        support = self._support
        for i, a_i in enumerate(mono):
            if a_i % 2:
                for j, mij, minus in support[i]:
                    new = list(mono)
                    new[i] -= 1
                    new[j] += 2
                    yield tuple(new), (minus if prefix % 2 else mij)
            prefix += a_i

    def _image_of(self, mono) -> dict:
        """The terms of _monomial_image(mono) as {monomial: int coefficient},
        _den times d(mono), built once per monomial.  The dict is shared by
        every later call, so no caller may change it or hand it out; _values
        reads its coefficients as Fractions."""
        image = self._mono_images.get(mono)
        if image is None:
            image = self._mono_images[mono] = dict(self._monomial_image(mono))
        return image

    def differential(self, u: SkewElement) -> SkewElement:
        """Apply the degree +1 differential to an element."""
        if u.n != self.n:
            raise ValueError("element has wrong variable count")
        if len(u.terms) == 1:
            # The image of one monomial has distinct monomials, so nothing is
            # added up; a unit coefficient, the common case, needs no product.
            (mono, coeff), = u.terms.items()
            image, values = self._image_of(mono), self._values
            return SkewElement._tidy(self.n, {key: values[c] for key, c in image.items()}
                                     if coeff == 1 else
                                     {key: coeff * values[c] for key, c in image.items()})
        # The images of several monomials meet: add them up as ints over one
        # denominator and divide once per monomial that survives.
        den = lcm(*[c.denominator for c in u.terms.values()])
        ints = [(mono, c.numerator * (den // c.denominator)) for mono, c in u.terms.items()]
        image_of = self._image_of
        acc = add_terms({}, ((key, a * x) for mono, a in ints for key, x in image_of(mono).items()))
        den *= self._den
        return SkewElement._tidy(self.n, {key: Q(a, den) for key, a in acc.items()})

    # -- boundary matrices and cohomology -------------------------------------

    def images(self, d: int) -> list[dict]:
        """The differential A^d -> A^{d+1} times _den as sparse int columns:
        for each monomial of graded_basis(n, d), _den times its image {index
        in graded_basis(n, d+1): nonzero int}.  A positive scale changes no
        rank, kernel or pivot, so callers that need only the span read the
        ints as they are; _values reads an entry as a Fraction."""
        if d < 0:
            raise ValueError("negative degree")
        cached = self._img_cache.get(d)
        if cached is None:
            index = {m: i for i, m in enumerate(graded_basis(self.n, d + 1))}
            cached = [{index[m]: c for m, c in self._monomial_image(mono)}
                      for mono in graded_basis(self.n, d)]
            self._img_cache[d] = cached
        return cached

    def boundary_matrix(self, d: int) -> Mat:
        """Matrix of the differential A^d -> A^{d+1}.

        Applying it to a coefficient column in graded_basis(n, d) order
        yields coefficients in graded_basis(n, d+1) order.  For d = 1 the
        nonzero block is M^T acting on the x_j^2 coordinates.
        """
        values = self._values
        columns = [{r: values[c] for r, c in col.items()} for col in self.images(d)]
        return Mat.from_sparse_columns(columns, len(graded_basis(self.n, d + 1)))

    def cohomology_dims(self, dmax: int) -> list[int]:
        """dim H^d(A) for 0 <= d <= dmax: A is the complex F on the one
        generator e_0, with no grid entries."""
        if dmax < 0:
            raise ValueError("dmax must be non-negative")
        return complex_cohomology_dims(self, [[]], dmax + 1)

    def cohomology(self, dmax: int) -> "CohomologyReport":
        """Dimensions and low-degree representatives of H(A) up to dmax."""
        if dmax < 2:
            raise ValueError("dmax must be at least 2")
        # A is F on e_0 alone, so every element of F is a one-entry list.
        h1 = complex_classes(self, [[]], 1)[0]
        h2 = complex_classes(self, [[]], 2)
        return CohomologyReport(dims=self.cohomology_dims(dmax), h1_basis=[v[0] for v in h1],
                                h2_data=tuple([v[0] for v in part] for part in h2))


# -- the complex F = A (x) k^m and its cohomology -------------------------------
#
# A grid `rows` of linear entries, row j carrying d[j][l] for l < j, defines
# d(e_j) = sum_l d[j][l] e_l on the free module F = A e_0 + ... + A e_{m-1};
# A itself is F on rows = [[]].  Element sum_l a_l e_l of F^d has the sparse
# coordinates {l*|A^d| + (index of the monomial in graded_basis(n, d)): c}.


_SHIFTS = {}  # (n, degree) -> _shift_table; depends on nothing else, so kept once built


def _shift_table(n: int, degree: int) -> list[dict]:
    """table[s][g] = (sign, t) for (-1)^degree (monomial s) g = sign (monomial t):
    g of degree 1, s and t indices into graded_basis."""
    if (n, degree) not in _SHIFTS:
        index = {mono: i for i, mono in enumerate(graded_basis(n, degree + 1))}
        products = [{g: mono_mul(mono, g) for g in graded_basis(n, 1)}
                    for mono in graded_basis(n, degree)]
        _SHIFTS[n, degree] = [{g: (sign * (-1) ** degree, index[prod])
                               for g, (sign, prod) in row.items()} for row in products]
    return _SHIFTS[n, degree]


def _grid_scale(spec: DgSpec, rows) -> int:
    """The int that _complex_columns multiplies d_F by: _den times the lcm of
    the denominators of the grid."""
    return spec._den * lcm(*[c.denominator for row in rows for e in row for c in e.terms.values()])


def _complex_columns(spec: DgSpec, rows, degree: int) -> list[dict]:
    """d_F : F^degree -> F^{degree+1} times _grid_scale(spec, rows), as
    sparse int columns.  One positive scale changes no rank, kernel or
    pivot; only a caller that hands out the columns themselves divides by it.

    Column j*|src| + s is the image of (monomial s) e_j: its e_j block is the
    image of the monomial under d_A, and its e_l block for l < j is
    (-1)^degree times the monomial times the linear d[j][l], one shift-table
    lookup per term.

    When the grid has no denominators, a column of the block e_0 gets no
    lower terms, so it is the cached image itself, which no caller may change.
    """
    ndst = comb(spec.n + degree, spec.n - 1)  # dim A^{degree+1}
    scale = _grid_scale(spec, rows)
    grid_den = scale // spec._den
    cols = []
    for j, row in enumerate(rows):
        lower = []
        for l in range(j):
            terms = [(g, c.numerator * (scale // c.denominator)) for g, c in row[l].terms.items()]
            if terms:
                # Every sign is +1 in degree 0 (s = 1), so no negative is formed there.
                lower.append((l * ndst, [(g, c, -c if degree else c) for g, c in terms]))
        # Only grid entries read the shift table, so A itself (rows = [[]]) builds none.
        shifts = _shift_table(spec.n, degree) if lower else repeat(None)
        for shift, image in zip(shifts, spec.images(degree)):
            col = ({j * ndst + r: grid_den * c for r, c in image.items()} if j or grid_den > 1
                   else image)
            for base, terms in lower:
                for g, c, minus_c in terms:
                    sign, t = shift[g]
                    col[base + t] = c if sign > 0 else minus_c
            cols.append(col)
    return cols


def complex_cohomology_dims(spec: DgSpec, rows, dmax: int) -> list[int]:
    """dim H^i of the complex F for 0 <= i <= dmax - 1."""
    # rank(B^T) = rank(B): each column of d_F is one row of its transpose.
    ranks = [0] + [integer_rank(_complex_columns(spec, rows, d)) for d in range(dmax)]
    return [len(rows) * comb(spec.n + i - 1, spec.n - 1) - ranks[i + 1] - ranks[i]
            for i in range(dmax)]


def complex_classes(spec: DgSpec, rows, degree: int):
    """(cocycles, coboundaries) in F^degree: the columns at the pivots of
    [images of F^{degree-1} | kernel of d_F on F^degree].  The cocycles
    represent a basis of H^degree(F), and the coboundaries are a basis of
    B^degree.  Each is a list of m SkewElements, its coefficients on e_l.
    The cocycles are kernel vectors, the same for d_F and for the scaled int
    columns; the coboundaries are such columns, divided by the scale.

    The cocycles come as a list and the coboundaries as an iterator that
    builds each element when it is read: the resolution builder reads only
    the cocycles, and in its round on m generators about m coboundaries of
    m entries each would be built for nothing.
    """
    basis = graded_basis(spec.n, degree)
    bound = _complex_columns(spec, rows, degree - 1) if degree else []
    cocycles = sparse_kernel(sparse_transpose(_complex_columns(spec, rows, degree)).values(),
                             len(rows) * len(basis))
    cols = bound + sparse_rows(cocycles)
    pivots = column_pivots(cols)
    rank = sum(c < len(bound) for c in pivots)
    zero = SkewElement.zero(spec.n)

    def element(col):
        parts = {}
        for k, x in col.items():
            l, s = divmod(k, len(basis))
            parts.setdefault(l, {})[basis[s]] = x
        return [SkewElement(spec.n, parts[l]) if l in parts else zero for l in range(len(rows))]

    scale = _grid_scale(spec, rows)
    return ([element(cols[c]) for c in pivots[rank:]],
            (element({k: Q(x, scale) for k, x in cols[c].items()}) for c in pivots[:rank]))


def koszul_dims(n: int, rank: int, dmax: int) -> list[int]:
    """dim H^d(A), 0 <= d <= dmax, for M of rank r: C(d+n-r-1, n-r-1), and
    1, 0, 0, ... when r = n.  S = k[y_i = x_i^2] is central with d(y_i) = 0;
    A is S-free on the square-free x_I and d(x_I) = sum_p (-1)^{p-1} f_{i_p}
    x_{I - i_p} with f = M y, so (A, d) is the Koszul complex K(f; S).  A
    change of basis of f gives H(A) = S/(l_1..l_r) (x) Lambda(k^{n-r}) for a
    regular sequence of linear forms l (Eisenbud, Commutative Algebra, 17):
    Hilbert series (1 + t)^{n-r} / (1 - t^2)^{n-r} = 1 / (1 - t)^{n-r}."""
    return [comb(d + n - rank - 1, n - rank - 1) if rank < n else int(d == 0)
            for d in range(dmax + 1)]


@dataclass
class CohomologyReport:
    dims: list
    h1_basis: list
    h2_data: tuple

    def as_dict(self):
        return {
            "dims": self.dims,
            "h1_basis": [str(z) for z in self.h1_basis],
            "h2_cocycles": [str(z) for z in self.h2_data[0]],
            "h2_coboundaries": [str(z) for z in self.h2_data[1]],
        }


# -- cup products on H^1 and the Calabi-Yau probe ------------------------------


def _cup_relations(spec: DgSpec) -> tuple[list[tuple], int]:
    """The reduced-echelon basis of the kernel of H^1 (x) H^1 -> H^2 for
    n = 3, and dim H^1: three eliminations.

    d(1) = 0, so H^1 is the kernel of d on A^1, each class a vector on
    x_1, x_2, x_3.  The product of two classes is an int column on A^2,
    read off the shift table with its (-1)^1 sign undone, for the classes
    times the lcm of their denominators; B^2 is spanned by all the int
    columns of images(1).  The heads of the kernel vectors of [products |
    B^2] span the relations once multiplied back by those scales."""
    h1 = sparse_kernel(sparse_transpose(spec.images(1)).values(), 3)
    ints = []
    for v in h1:
        den = lcm(*[x.denominator for x in v])
        ints.append((den, [x.numerator * (den // x.denominator) for x in v]))
    shifts = _shift_table(3, 1)  # each row keyed by x_1, x_2, x_3 in that order
    products = [add_terms({}, ((t, -sign * a * b) for s, a in enumerate(u) if a
                               for (sign, t), b in zip(shifts[s].values(), v) if b))
                for _, u in ints for _, v in ints]
    scales = [du * dv for du, _ in ints for dv, _ in ints]
    cols = products + spec.images(1)
    kernel = sparse_kernel(sparse_transpose(cols).values(), len(cols))
    red = sparse_rref({j: x * w for j, (x, w) in enumerate(zip(v, scales)) if x} for v in kernel)[0]
    return [tuple(row.get(j, Q(0)) for j in range(len(products))) for row in red], len(h1)


def cup_kernel(spec: DgSpec) -> tuple[list[tuple], int]:
    """Kernel of the multiplication H^1 (x) H^1 -> H^2 for n = 3.

    Returns (relations, new_h2_generators).  Relation coordinates live on
    the ordered pairs (i, j) of the H^1 basis of complex_classes, row-major.
    The relations are the reduced-echelon basis of the kernel, each 1 at its
    pivot, so they depend on the kernel alone and not on how it was found
    (_cup_relations).  dim B^2 = 3 - dim H^1, and dim H^2 = dim A^2 -
    dim B^2 - rank(d on A^2).
    """
    if spec.n != 3:
        raise ValueError("cup products are analyzed for n = 3 only")
    relations, h1_dim = _cup_relations(spec)
    h2_dim = 6 - (3 - h1_dim) - integer_rank(spec.images(2))
    return relations, h2_dim - (h1_dim ** 2 - len(relations))


@dataclass
class CyProbeVerdict:
    calabi_yau: bool
    branch: str
    relation: Optional[tuple] = None

    def as_dict(self):
        out = {"verdict": "CalabiYau" if self.calabi_yau else "NotSmooth", "branch": self.branch}
        if self.relation is not None:
            out["relation"] = [str(t) for t in self.relation]
        return out


def cy_probe(spec: DgSpec) -> CyProbeVerdict:
    """Cohomological Calabi-Yau decision for n = 3.

    Not homologically smooth exactly when H^1 is 2-dimensional and the cup
    product on it has a single relation t1 y1^2 + t2 y2^2 + t3(y1 y2 + y2 y1)
    with t1 t2 - t3^2 = 0; every other configuration is Calabi-Yau.
    """
    if spec.n != 3:
        raise ValueError("the probe is defined for n = 3")
    rank = spec.m.rank()
    h1_dim = 3 - rank
    if rank == 0:
        return CyProbeVerdict(True, "rank-0")
    if h1_dim == 0:
        return CyProbeVerdict(True, "trivial-cohomology")
    if h1_dim == 1:
        return CyProbeVerdict(True, "rank-2")
    relations = _cup_relations(spec)[0]
    if len(relations) == 0:
        raise InternalConsistencyError("rank-1 matrix with injective cup product")
    if len(relations) >= 2:
        return CyProbeVerdict(True, "three-generator-cohomology")
    rel = relations[0]
    t1, t12, t21, t2 = rel
    if t12 != t21:
        raise InternalConsistencyError("asymmetric single cup relation: %s" % (rel,))
    t3 = t12
    if t1 * t2 - t3 * t3 == 0:
        return CyProbeVerdict(False, "degenerate-quadric", relation=(t1, t2, t3))
    return CyProbeVerdict(True, "nondegenerate-quadric", relation=(t1, t2, t3))
