"""Test-only reference for skewdg.finalg: the radical from products of
left-multiplication matrices, and dense structure constants.

The radical is the kernel of the Gram matrix tr(L_i L_j), with each L_i L_j
formed as a matrix product, instead of the package's closed formula in the
structure constants.  The socle is intersected with the radical explicitly,
and the truncated-polynomial generator is lifted by solving against rad^2.
Every function takes the radical basis from ref_radical_basis so that a
caller computes it once per algebra.

The package stores structure constants sparse; ref_multiply multiplies on a
dense table c[i][j][k], and ref_matrix_algebra builds that table for a span
of matrices with dense Mat products and one rref, as the package did before
its matrices were multiplied as sparse rows.
"""

import random

from skewdg.linalg import Mat, Q, kernel_basis, rref, solve_linear


def _basis_vec(e, i):
    return tuple(Q(1) if k == i else Q(0) for k in range(e.dim))


def _left_mult_matrix(e, x):
    return Mat.from_columns([e.multiply(x, _basis_vec(e, j)) for j in range(e.dim)])


def _span_basis(vectors):
    vecs = [tuple(v) for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    _, _, pivots = rref(Mat.from_columns(vecs))
    return [vecs[p] for p in pivots]


def ref_radical_basis(e):
    """Kernel of the trace form, each entry the trace of a matrix product."""
    m = e.dim
    lm = [_left_mult_matrix(e, _basis_vec(e, i)) for i in range(m)]
    gram = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = lm[i] * lm[j]
            row.append(sum(prod[k, k] for k in range(m)))
        gram.append(row)
    return kernel_basis(Mat(gram))


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
        rows.extend(_left_mult_matrix(e, r).data)
        rows.extend(Mat.from_columns([e.multiply(_basis_vec(e, j), r) for j in range(m)]).data)
    if not rows:
        return [_basis_vec(e, i) for i in range(m)]
    rad_mat = Mat.from_columns(rad)
    return [v for v in kernel_basis(Mat(rows)) if solve_linear(rad_mat, v)[0] is not None]


def ref_recognize_truncated(e, rad):
    if not e.is_commutative() or not ref_is_local(e, rad):
        return None
    filtration = ref_radical_filtration(e, rad)
    if len(filtration) < 2 or filtration[1] != 1:
        return None if e.dim > 1 else 1
    rad2 = _span_basis([e.multiply(x, y) for x in rad for y in rad])
    gen = None
    for v in rad:
        if not rad2 or solve_linear(Mat.from_columns(rad2), v)[0] is None:
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


def _ref_gram(e, functional):
    m = e.dim
    return Mat([[sum(f * c for f, c in zip(functional,
                                           e.multiply(_basis_vec(e, i), _basis_vec(e, j))))
                 for j in range(m)] for i in range(m)])


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
    sym_space = kernel_basis(Mat(rows)) if rows else [_basis_vec(e, i) for i in range(m)]
    rng = random.Random(seed)
    found = found_sym = None
    for _ in range(trials):
        functional = tuple(Q(rng.randint(-9, 9)) for _ in range(m))
        if found is None and _ref_gram(e, functional).rank() == m:
            found = functional
        if sym_space and found_sym is None:
            coeffs = [Q(rng.randint(-9, 9)) for _ in sym_space]
            cand = tuple(sum(c * v[k] for c, v in zip(coeffs, sym_space)) for k in range(m))
            if _ref_gram(e, cand).rank() == m:
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
    """Dense constants of sklyanin_e on 1, e1, e2, e3: e1 e1 = lam e3,
    e1 e2 = e2 e1 = nu e3, e2 e2 = mu e3, every other product of radical
    elements zero."""
    table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        table[0][i][i] = table[i][0][i] = 1
    table[1][1][3], table[1][2][3], table[2][1][3], table[2][2][3] = lam, nu, nu, mu
    return table


def ref_matrix_algebra(mats):
    """(dim, unit, table) of the algebra spanned by linearly independent
    matrices that contain the identity and are closed under products."""
    dim = len(mats)
    size = mats[0].rows
    cols = [[x for row in mat.data for x in row] for mat in mats]
    cols.append([Q(1) if i == j else Q(0) for i in range(size) for j in range(size)])
    cols += [[x for row in (a * b).data for x in row] for a in mats for b in mats]
    red, _, pivots = rref(Mat.from_columns(cols))
    assert pivots == list(range(dim)), pivots
    coords = [red.column(t)[:dim] for t in range(dim, len(cols))]
    return dim, coords[0], [coords[1 + i * dim: 1 + (i + 1) * dim] for i in range(dim)]
