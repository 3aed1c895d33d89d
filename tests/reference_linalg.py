"""Test-only reference for skewdg.linalg: plain Fraction Gauss-Jordan.

These loops do not share code with the integer echelon that the package
uses, so comparing the two is an independent check.  They are slow and are
meant for small matrices only.
"""

from fractions import Fraction as Q


def ref_rref(data, ncols):
    """(reduced rows, rank, pivot columns) of a list of Fraction rows."""
    m = [[Q(x) for x in row] for row in data]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best, best_key = None, None
        for i in range(r, nrows):
            if m[i][c] != 0:
                key = abs(m[i][c].numerator)
                if best is None or key > best_key:
                    best, best_key = i, key
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, len(pivots), pivots


def ref_column_pivots(columns, height):
    """The pivots of ref_rref of the matrix with these columns of the given
    height: the columns outside the span of the columns before them."""
    return ref_rref([[col[i] for col in columns] for i in range(height)], len(columns))[2]


def ref_det(data):
    """Determinant of a square list of rows by Fraction elimination."""
    n = len(data)
    a = [[Q(x) for x in row] for row in data]
    det = Q(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Q(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def ref_kernel_basis(data, ncols):
    """Nullspace basis, each vector scaled so its first nonzero entry is 1."""
    red, _, pivots = ref_rref(data, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Q(0)] * ncols
        v[j] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][j]
        lead = next(x for x in v if x != 0)
        basis.append(tuple(x / lead for x in v))
    return basis


def ref_solve_linear(data, ncols, b):
    """(particular solution with free variables 0 or None, kernel basis)."""
    red, _, pivots = ref_rref([list(row) + [bi] for row, bi in zip(data, b)], ncols + 1)
    kernel = ref_kernel_basis(data, ncols)
    if ncols in pivots:
        return None, kernel
    x = [Q(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return tuple(x), kernel


def ref_inverse(data):
    """Inverse rows of a square nonsingular list of rows, else None."""
    n = len(data)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(data)]
    red, _, pivots = ref_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def ref_rank(data, ncols):
    """Rank of a list of Fraction rows by forward Fraction elimination."""
    m = [[Q(x) for x in row] for row in data]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        r += 1
    return r
