"""Test-only reference for skewdg.finalg: the radical from products of
left-multiplication matrices, and dense structure constants.

The radical is the kernel of the Gram matrix tr(L_i L_j), with each L_i L_j
formed as a matrix product, instead of the package's closed formula in the
structure constants.  ref_trace_gram is the closed formula the package used
before it read the Gram off tr(L_k): sum_{k,l} c[i][l][k] c[j][k][l].  The
socle is intersected with the radical explicitly, and the truncated-polynomial
generator is lifted by solving against rad^2.  Every elimination here is the
Fraction Gauss-Jordan of reference_linalg, not the package's integer echelon.
Every function takes the radical basis from ref_radical_basis so that a
caller computes it once per algebra.

The package stores structure constants sparse; ref_multiply multiplies on a
dense table c[i][j][k], and ref_matrix_algebra builds that table for a span
of matrices with dense products and one ref_rref.  from_sparse_matrices
builds the FinAlg of such a span with sparse products and one sparse_rref,
checking that the span is independent, holds the identity and is closed;
from_matrix_algebra is the same on dense Mats.
"""

import random

from reference_linalg import (ref_column_pivots, ref_kernel_basis, ref_matmul, ref_rank, ref_rref,
                              ref_solve_linear)

from skewdg.finalg import AlgebraError, FinAlg
from skewdg.linalg import Mat, Q, sparse_matmul, sparse_rows, sparse_rref, sparse_transpose


def _basis_vec(e, i):
    return tuple(Q(1) if k == i else Q(0) for k in range(e.dim))


def _left_mult_matrix(e, x):
    return Mat.from_columns([e.multiply(x, _basis_vec(e, j)) for j in range(e.dim)]).data


def _span_basis(vectors):
    vecs = [tuple(v) for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    return [vecs[p] for p in ref_column_pivots(vecs, len(vecs[0]))]


def _in_span(vectors, v):
    """True iff v lies in the span of the nonempty list of vectors."""
    return ref_solve_linear(Mat.from_columns(vectors).data, len(vectors), v)[0] is not None


def ref_radical_basis(e):
    """Kernel of the trace form, each entry the trace of a matrix product."""
    m = e.dim
    lm = [_left_mult_matrix(e, _basis_vec(e, i)) for i in range(m)]
    gram = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = ref_matmul(lm[i], lm[j], m)
            row.append(sum(prod[k][k] for k in range(m)))
        gram.append(row)
    return ref_kernel_basis(gram, m)


def ref_trace_gram(e):
    """tr(L_i L_j) = sum_{k,l} c[i][l][k] c[j][k][l], as dense rows."""
    lookup = [[dict(pairs) for pairs in row] for row in e.structure]
    gram = []
    for si in e.structure:
        terms = [(k, l, a) for l, pairs in enumerate(si) for k, a in pairs]
        gram.append([sum(a * cj[k].get(l, 0) for k, l, a in terms) for cj in lookup])
    return gram


def ref_radical_filtration(e, rad):
    layers = [e.dim]
    power = list(rad)
    while power:
        layers.append(len(power))
        power = _span_basis([e.multiply(x, y) for x in power for y in rad])
    return [layers[i] - (layers[i + 1] if i + 1 < len(layers) else 0)
            for i in range(len(layers))]


def ref_is_local(e, rad):
    return len(rad) == e.dim - 1


def ref_socle_basis(e, rad):
    """Kernel of the stacked L_r and R_r, intersected with the radical."""
    m = e.dim
    rows = []
    for r in rad:
        rows.extend(_left_mult_matrix(e, r))
        rows.extend(Mat.from_columns([e.multiply(_basis_vec(e, j), r) for j in range(m)]).data)
    if not rows:
        return [_basis_vec(e, i) for i in range(m)]
    return [v for v in ref_kernel_basis(rows, m) if _in_span(rad, v)]


def ref_recognize_truncated(e, rad):
    if not e.is_commutative() or not ref_is_local(e, rad):
        return None
    filtration = ref_radical_filtration(e, rad)
    if len(filtration) < 2 or filtration[1] != 1:
        return None if e.dim > 1 else 1
    rad2 = _span_basis([e.multiply(x, y) for x in rad for y in rad])
    gen = None
    for v in rad:
        if not rad2 or not _in_span(rad2, v):
            gen = v
            break
    if gen is None:
        return None
    power = gen
    for _ in range(e.dim - 2):
        power = e.multiply(power, gen)
    if all(x == 0 for x in power):
        return None
    return e.dim


def _ref_gram_rank(e, functional):
    m = e.dim
    return ref_rank([[sum(f * c for f, c in zip(functional,
                                                e.multiply(_basis_vec(e, i), _basis_vec(e, j))))
                      for j in range(m)] for i in range(m)], m)


def ref_frobenius(e, rad, trials=64, seed=0):
    """as_dict() of the Frobenius verdict, by the same decision procedure as
    skewdg.finalg.frobenius on the reference radical and socle."""
    if e.is_commutative() and ref_is_local(e, rad):
        frob = len(ref_socle_basis(e, rad)) == 1
        return {"frobenius": frob, "symmetric": frob, "method": "socle-criterion"}
    m = e.dim
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            diff = [a - b for a, b in zip(e.multiply(_basis_vec(e, i), _basis_vec(e, j)),
                                          e.multiply(_basis_vec(e, j), _basis_vec(e, i)))]
            if any(diff):
                rows.append(diff)
    sym_space = ref_kernel_basis(rows, m)
    rng = random.Random(seed)
    found = found_sym = None
    for _ in range(trials):
        functional = tuple(Q(rng.randint(-9, 9)) for _ in range(m))
        if found is None and _ref_gram_rank(e, functional) == m:
            found = functional
        if sym_space and found_sym is None:
            coeffs = [Q(rng.randint(-9, 9)) for _ in sym_space]
            cand = tuple(sum(c * v[k] for c, v in zip(coeffs, sym_space)) for k in range(m))
            if _ref_gram_rank(e, cand) == m:
                found_sym = cand
        if found is not None and found_sym is not None:
            break
    witness, symmetric = (found_sym, True) if found_sym is not None else (found, None)
    if witness is None:
        return {"frobenius": False, "symmetric": None, "method": "no-certificate-found"}
    return {"frobenius": True, "symmetric": symmetric, "method": "certificate",
            "witness": [str(x) for x in witness]}


def ref_multiply(table, x, y):
    """x y on the dense structure constants table[i][j][k]."""
    m = len(table)
    out = [Q(0)] * m
    for i in range(m):
        for j in range(m):
            for k in range(m):
                out[k] += Q(x[i]) * Q(y[j]) * Q(table[i][j][k])
    return tuple(out)


def ref_sklyanin_table(lam, mu, nu):
    """Dense constants of the four-dimensional commutative family on 1, e1,
    e2, e3: e1 e1 = lam e3, e1 e2 = e2 e1 = nu e3, e2 e2 = mu e3, every other
    product of radical elements zero."""
    table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        table[0][i][i] = table[i][0][i] = 1
    table[1][1][3], table[1][2][3], table[2][1][3], table[2][2][3] = lam, nu, nu, mu
    return table


def sklyanin_algebra(lam, mu, nu):
    """The FinAlg with the constants of ref_sklyanin_table and the unit 1."""
    return FinAlg(4, (1, 0, 0, 0), ref_sklyanin_table(lam, mu, nu))


def ref_matrix_algebra(mats):
    """(dim, unit, table) of the algebra spanned by linearly independent
    matrices that contain the identity and are closed under products."""
    dim = len(mats)
    size = mats[0].rows
    cols = [[x for row in mat.data for x in row] for mat in mats]
    cols.append([Q(1) if i == j else Q(0) for i in range(size) for j in range(size)])
    cols += [[x for row in ref_matmul(a.data, b.data, size) for x in row]
             for a in mats for b in mats]
    red, _, pivots = ref_rref(Mat.from_columns(cols).data, len(cols))
    assert pivots == list(range(dim)), pivots
    coords = [[red[i][t] for i in range(dim)] for t in range(dim, len(cols))]
    return dim, coords[0], [coords[1 + i * dim: 1 + (i + 1) * dim] for i in range(dim)]


def from_matrix_algebra(mats):
    """from_sparse_matrices on the nonzero entries of each row of mats."""
    return from_sparse_matrices([sparse_rows(mat.data) for mat in mats],
                                mats[0].rows if mats else 0)


def from_sparse_matrices(mats, size):
    """The FinAlg spanned by linearly independent size x size matrices, each
    given as its rows {column: nonzero Fraction}.

    The span must be closed under multiplication and contain the identity;
    AlgebraError names the first violation.  One elimination of [span |
    identity | all products] gives every coordinate: they are the first dim
    rows of its reduced form.
    """
    dim = len(mats)
    if dim == 0:
        raise AlgebraError("empty matrix algebra")
    cols = list(mats) + [[{i: Q(1)} for i in range(size)]]
    cols += [sparse_matmul(a, b) for a in mats for b in mats]
    cells = [{i * size + j: x for i, row in enumerate(mat) for j, x in row.items()}
             for mat in cols]
    red, pivots = sparse_rref(sparse_transpose(cells).values())
    if pivots[:dim] != list(range(dim)):
        raise AlgebraError("the spanning matrices are linearly dependent")
    if dim in pivots:
        raise AlgebraError("identity matrix is not in the span")
    if len(pivots) > dim:
        raise AlgebraError("matrix span is not multiplicatively closed")
    # Column t of the reduced system: the coordinates {k: c} of matrix t.
    coords = sparse_transpose(red)
    table = tuple(tuple(tuple(coords.get(dim + 1 + i * dim + j, {}).items())
                        for j in range(dim)) for i in range(dim))
    return FinAlg.from_pairs(dim, tuple(coords.get(dim, {}).get(k, Q(0)) for k in range(dim)),
                             table)
