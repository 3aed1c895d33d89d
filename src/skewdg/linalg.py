"""Exact linear algebra over the rationals.

Dense matrices with ``fractions.Fraction`` entries, and one elimination
core on sparse integer rows ``{column: nonzero int}``.  Everything here is
exact: no floating point, no finite fields.  Matrices are immutable after
construction and all operations are pure functions, so values can be shared
freely.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Q = Fraction


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Mat:
    """Immutable dense matrix over Q (row-major)."""

    __slots__ = ("rows", "cols", "data", "_rank")

    def __init__(self, entries: Iterable[Iterable]):
        data = tuple(tuple(frac(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        self._set(data, width)

    def _set(self, data: tuple, width: int):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_rank", None)  # set by the first rank()

    @staticmethod
    def _exact(rows: Iterable[Sequence[Fraction]], width: int) -> "Mat":
        """A Mat over rows of `width` entries that are already Fractions."""
        mat = object.__new__(Mat)
        mat._set(tuple(map(tuple, rows)), width)
        return mat

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "Mat":
        if not columns:
            return Mat([])
        height = len(columns[0])
        return Mat([[columns[j][i] for j in range(len(columns))] for i in range(height)])

    @staticmethod
    def from_sparse_columns(columns: Sequence[dict], height: int) -> "Mat":
        """The height x len(columns) matrix whose column j has the Fraction
        entries {row: value} of columns[j] and zeros elsewhere."""
        zero = Q(0)
        data = [[zero] * len(columns) for _ in range(height)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                data[i][j] = x
        return Mat._exact(data, len(columns))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "Mat(%s)" % (list(list(map(str, row)) for row in self.data),)

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "Mat":
        return Mat([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    @property
    def T(self) -> "Mat":
        return self.transpose()

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return Mat([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            out = []
            for row in self.data:  # zero terms are skipped
                acc = [0] * other.cols
                for a, orow in zip(row, other.data):
                    if a:
                        for j, b in enumerate(orow):
                            if b:
                                acc[j] += a * b
                out.append(acc)
            return Mat(out)
        c = frac(other)
        return Mat([[c * x for x in row] for row in self.data])

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        vec = [frac(x) for x in vector]
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = Mat([list(self.data[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)])
        red, rank, pivots = rref(aug)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Mat([row[n:] for row in red.data])

    def rank(self) -> int:
        if self._rank is None:
            object.__setattr__(self, "_rank", sparse_rank(sparse_rows(self.data)))
        return self._rank


# ---------------------------------------------------------------------------
# The elimination core.  Rows are sparse integer rows {column: nonzero int}:
# rational rows are cleared of denominators, then reduced by fraction-free
# integer elimination; rank, column pivots and rref (and through it kernels,
# solutions and inverses) all read off the same echelon.
# ---------------------------------------------------------------------------


def _integral(row: dict) -> dict[int, int]:
    """A sparse rational row times the lcm of its denominators; a row of
    ints is returned as it is, since _echelon does not modify its input."""
    if set(map(type, row.values())) == {int}:
        return row
    denom = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (denom // x.denominator) for j, x in row.items()}


def sparse_rows(data) -> list[dict]:
    """Dense rows as sparse rows {column: nonzero entry}."""
    return [{j: x for j, x in enumerate(row) if x} for row in data]


def _combine(row: dict, x: int, prow: dict, pval: int) -> dict:
    """(pval*row - x*prow) divided by its content.  x and pval are the
    entries of row and prow in a shared column, which therefore cancels.
    Dividing x and pval by their gcd first leaves the result the same and
    often makes pval 1."""
    g = gcd(x, pval)
    if g > 1:
        x //= g
        pval //= g
    new = dict(row) if pval == 1 else {j: pval * a for j, a in row.items()}
    for j, b in prow.items():
        t = new.get(j, 0) - x * b
        if t:
            new[j] = t
        else:  # x*b != 0, so j was in new
            del new[j]
    g = gcd(*new.values())
    if g > 1:
        new = {j: t // g for j, t in new.items()}
    return new


def _echelon(rows: list[dict[int, int]]):
    """Row echelon form of sparse integer rows by fraction-free elimination.

    Returns (echelon, pivots): the nonzero echelon rows and their pivot
    columns in increasing order.

    The rows wait in buckets keyed by their leading column, and the keys in
    a heap.  Each step pops the least leading column and takes a pivot of
    least magnitude in its bucket (the first one found on ties).  Only the
    other rows of that bucket are reduced; each goes to the bucket of its
    new leading column after division by its content, or is dropped when it
    becomes zero.  The input rows are not modified.
    """
    buckets = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    heap = list(buckets)
    heapify(heap)
    echelon, pivots = [], []
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        prow = bucket[0]
        best = abs(prow[col])
        for row in bucket:
            if best == 1:
                break
            x = abs(row[col])
            if x < best:
                prow, best = row, x
        pval = prow[col]
        for row in bucket:
            if row is prow:
                continue
            new = _combine(row, row[col], prow, pval)
            if new:
                lead = min(new)
                if lead in buckets:
                    buckets[lead].append(new)
                else:
                    buckets[lead] = [new]
                    heappush(heap, lead)
        echelon.append(prow)
        pivots.append(col)
    return echelon, pivots


def sparse_rank(rows: Iterable[dict]) -> int:
    """Rank of sparse rational rows {column: nonzero coefficient}: the
    integer_rank of the rows cleared of denominators."""
    return integer_rank(_integral(row) for row in rows)


def integer_rank(rows: Iterable[dict]) -> int:
    """Rank of sparse rows {column: nonzero int}.

    The rank does not depend on the order of the columns, so they are
    renumbered sparsest first (by number of nonzeros, ties by index), and
    each row is divided by its content: the pivots then fall on short
    columns and the elimination fills in less.
    """
    rows = list(rows)
    count = Counter(chain.from_iterable(rows))
    order = {j: k for k, j in enumerate(sorted(count, key=lambda j: (count[j], j)))}
    primitive = []
    for row in rows:
        g = gcd(*row.values())
        primitive.append({order[j]: x // g for j, x in row.items()} if g > 1 else
                         {order[j]: x for j, x in row.items()})
    return len(_echelon(primitive)[1])


def sparse_transpose(cols: Sequence[dict]) -> dict:
    """{row: {column: entry}} of the matrix with the sparse columns cols,
    each {row: entry}, without its zero entries."""
    rows = {}
    for c, col in enumerate(cols):
        for r, x in col.items():
            if x:
                rows.setdefault(r, {})[c] = x
    return rows


def sparse_matmul(a: Sequence[dict], b: Sequence[dict]) -> list[dict]:
    """The product of two matrices given as sparse rows {column: entry}:
    row i of a times b, without its zero entries."""
    out = []
    for arow in a:
        acc = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: x for j, x in acc.items() if x})
    return out


def column_pivots(cols: Sequence[dict]) -> list[int]:
    """The indices, in increasing order, of the sparse rational columns
    {row: coefficient} that lie outside the span of the columns before
    them: the pivot columns of their echelon form."""
    return _echelon([_integral(row) for row in sparse_transpose(cols).values()])[1]


def _reduced(rows: Iterable[dict]) -> tuple[list[dict], list[int]]:
    """The echelon of sparse rational rows cleared of denominators, with
    each pivot column cleared above its pivot by sparse integer
    back-substitution: int rows, each a multiple of its reduced row."""
    red, pivots = _echelon([_integral(row) for row in rows])
    for k in range(len(pivots) - 1, 0, -1):
        prow, p = red[k], pivots[k]
        for i in range(k):
            x = red[i].get(p)
            if x:
                red[i] = _combine(red[i], x, prow, prow[p])
    return red, pivots


def sparse_rref(rows: Iterable[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rational rows {column: nonzero
    coefficient}: the nonzero reduced rows, each 1 at its pivot, and the
    pivot columns.  One division per nonzero entry of the _reduced rows
    makes the pivots 1.
    """
    red, pivots = _reduced(rows)
    return [{j: Q(x, row[p]) for j, x in row.items()} for row, p in zip(red, pivots)], pivots


def rref(a: Mat) -> tuple[Mat, int, list[int]]:
    """Reduced row echelon form: (reduced, rank, pivot_columns), the rows of
    sparse_rref laid out densely."""
    red, pivots = sparse_rref(sparse_rows(a.data))
    zero = Q(0)
    dense = []
    for row in red:
        out = [zero] * a.cols
        for j, x in row.items():
            out[j] = x
        dense.append(out)
    dense += [[zero] * a.cols] * (a.rows - len(pivots))
    return Mat._exact(dense, a.cols), len(pivots), pivots


def _kernel_from_rref(red: list[dict], pivots: list[int], ncols: int) -> list[tuple]:
    """Nullspace basis of the first ncols columns of the _reduced int rows
    `red` with pivot columns `pivots`, each vector scaled so its first
    nonzero coordinate equals 1.

    The vector of free column j is 1 at j and -row[j] / row[p] at the pivot
    p of each row; each coordinate is kept as an int pair (num, den) and
    divided by the leading one in one Fraction."""
    free = {j: {j: (1, 1)} for j in range(ncols)}  # free column -> its kernel vector
    for p in pivots:
        free.pop(p, None)
    for row, p in zip(red, pivots):
        for j, x in row.items():
            if j in free:
                free[j][p] = (-x, row[p])
    basis = []
    zero = Q(0)
    for v in free.values():
        lnum, lden = v[min(v)]
        dense = [zero] * ncols
        for k, (num, den) in v.items():
            dense[k] = Q(num * lden, den * lnum)
        basis.append(tuple(dense))
    return basis


def sparse_kernel(rows: Iterable[dict], ncols: int) -> list[tuple]:
    """Basis of the nullspace of the matrix with ncols columns and the
    sparse rational rows {column: nonzero coefficient}.

    Deterministic: derived from the reduced echelon form, each vector scaled
    so its first nonzero coordinate equals 1.
    """
    return _kernel_from_rref(*_reduced(rows), ncols)


def kernel_basis(a: Mat) -> list[tuple]:
    """Basis of the nullspace {v : a.v = 0}: sparse_kernel on a's rows."""
    return sparse_kernel(sparse_rows(a.data), a.cols)


def solve_linear(a: Mat, b: Sequence) -> tuple[Optional[tuple], list[tuple]]:
    """Solve a.x = b exactly.

    Returns (particular, kernel_basis); particular is None iff the system is
    inconsistent.  The particular solution is canonical: free variables are
    set to zero (RREF back-substitution).  One elimination serves both: the
    first a.cols columns of the reduced augmented rows [a | b] are the
    reduced rows of a.
    """
    if len(b) != a.rows:
        raise ValueError("dimension mismatch")
    aug = sparse_rows(a.data)
    for row, bi in zip(aug, b):
        bi = frac(bi)
        if bi:
            row[a.cols] = bi
    red, pivots = _reduced(aug)
    kernel = _kernel_from_rref(red, pivots, a.cols)
    if a.cols in pivots:
        return None, kernel
    x = [Q(0)] * a.cols
    for row, p in zip(red, pivots):
        if a.cols in row:
            x[p] = Q(row[a.cols], row[p])
    return tuple(x), kernel


def in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    """True iff v lies in the linear span of the given columns."""
    vecs = list(vectors)
    if not vecs:
        return all(frac(x) == 0 for x in v)
    if any(len(u) != len(v) for u in vecs):
        raise ValueError("dimension mismatch")
    particular, _ = solve_linear(Mat.from_columns(vecs), v)
    return particular is not None


# ---------------------------------------------------------------------------
# Integer lattices: the Smith form behind the isomorphism solver.
# ---------------------------------------------------------------------------


def smith_normal_form(a: list[list[int]]):
    """Smith normal form with transforms: returns (U, D, V) with U and V
    unimodular and U * a * V = D diagonal.

    Used to solve multiplicative systems d^E = r exactly: the unimodular
    change of variables reduces the system to independent root extractions,
    which decides rational solvability completely.  The rows of U past the
    rank of D are a basis of the left kernel lattice {z : z.a = 0}.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    d = [row[:] for row in a]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def row_addmul(i, k, q):
        d[i] = [x + q * y for x, y in zip(d[i], d[k])]
        u[i] = [x + q * y for x, y in zip(u[i], u[k])]

    def col_swap(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def col_addmul(j, k, q):
        for row in d:
            row[j] += q * row[k]
        for row in v:
            row[j] += q * row[k]

    t = 0
    while t < min(nrows, ncols):
        # Find a pivot of least magnitude in the remaining block.
        piv = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    piv, best = (i, j), abs(x)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_addmul(i, t, -q)
                    if d[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_addmul(j, t, -q)
                    if d[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        t += 1
    return u, d, v
