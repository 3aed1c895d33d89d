"""The paper's closed-form resolutions and the dense complex map, kept as
test-only references.

build_resolution emits the cocycle-killing build of eilenberg_moore for every
input.  The formulas here are the paper's own constructions: the staircase
rows of the seven rank-2 degenerate subcases, and the two-generator rows of
the rank-1 quadric cases 4, 5 and 6 with their correction term w.  They are
an independent route to the same minimal resolutions, and the tests require
the two routes to agree on size and Ext dimension.

complex_map_rows writes d_F as a dense Fraction matrix, entry by entry with
SkewElement products; the package ranks sparse columns of the same map.
commutant_matrices solves the Ext commutant with one dense row of m^2
Fractions per equation; the package solves the same system on sparse rows.
"""

from fractions import Fraction as Q

from skewdg.classify import RANK1, RANK2_DEGENERATE, classify, quadric_coefficients
from skewdg.dg import DgSpec
from skewdg.linalg import Mat, kernel_basis, solve_linear
from skewdg.qpl import QplMatrix, chi
from skewdg.resolution import SemifreeResolution
from skewdg.skew import SkewElement, coefficient_vector, graded_basis


def complex_map_rows(spec, rows, degree):
    """Dense Fraction matrix of d_F : F^degree -> F^{degree+1} for
    F = A (x) k^m (columns = source, summand-major)."""
    n = spec.n
    m = len(rows)
    src = graded_basis(n, degree)
    dst = graded_basis(n, degree + 1)
    dst_index = {mono: i for i, mono in enumerate(dst)}
    sign = -1 if degree % 2 else 1
    ncols = m * len(src)
    out = [[Q(0)] * ncols for _ in range(m * len(dst))]
    # The d_A block of each summand e_j is the boundary matrix of A.
    bnd = spec.boundary_matrix(degree).data
    for j in range(m):
        for r, brow in enumerate(bnd):
            out[j * len(dst) + r][j * len(src): (j + 1) * len(src)] = brow
    for si, mono in enumerate(src):
        elt = SkewElement(n, {mono: Q(1)})
        for j in range(m):
            col = j * len(src) + si
            for l in range(j):
                entry = rows[j][l]
                if entry.is_zero():
                    continue
                prod = elt * entry
                for mo, c in prod.terms.items():
                    out[l * len(dst) + dst_index[mo]][col] += sign * c
    return out


def commutant_matrices(res):
    """A basis of the scalar commutant {A : A d = d A} of the resolution
    differential, from the dense m^2-wide equation rows."""
    m = res.size
    rows = res.d
    basis1 = graded_basis(res.spec.n, 1)
    # Unknowns a[j][l], row-major.  Equation blocks: for each (j, l) and each
    # degree-1 monomial, sum_k a[j][k] d[k][l] - d[j][k] a[k][l] = 0.
    eqs = []
    for j in range(m):
        for l in range(m):
            for mono in basis1:
                row = [Q(0)] * (m * m)
                for k in range(m):
                    c = rows[k][l].terms.get(mono, Q(0))
                    if c != 0:
                        row[j * m + k] += c
                    c = rows[j][k].terms.get(mono, Q(0))
                    if c != 0:
                        row[k * m + l] -= c
                if any(row):
                    eqs.append(row)
    basis_vecs = kernel_basis(Mat(eqs)) if eqs else [
        tuple(Q(1) if idx == p else Q(0) for idx in range(m * m)) for p in range(m * m)
    ]
    return [Mat([[v[j * m + l] for l in range(m)] for j in range(m)]) for v in basis_vecs]


def _row_grid(n, body):
    """Square grid with row j + 1 of the body as the entries of d(e_{j+1})."""
    m = len(body) + 1
    grid = [[SkewElement.zero(n) for _ in range(m)] for _ in range(m)]
    for j, row in enumerate(body, start=1):
        for l, entry in enumerate(row):
            grid[j][l] = entry
    return grid


def staircase_rows(label):
    """(grid, named elements) of the staircase for a rank-2 degenerate subcase."""
    n = 3
    data = label.data
    t = SkewElement.linear(data["t"], n)
    sigma = SkewElement.linear(data["q"], n)
    named = {"t": t, "sigma": sigma}
    zero = SkewElement.zero(n)
    sub = label.subcase
    if sub == "1.1":
        body = [[t], [sigma, t]]
    elif sub in ("1.2.1", "1.2.2", "1.2.3"):
        tau = zero
        named["tau"] = tau
        body = [[t], [sigma, t], [2 * tau, sigma, t]]
        if sub in ("1.2.2", "1.2.3"):
            lam = SkewElement.linear(data["u"], n)
            named["lambda"] = lam
            body.append([lam, 2 * tau, sigma, t])
        if sub == "1.2.3":
            omega = SkewElement.linear(data["v"], n)
            named["omega"] = omega
            body.append([2 * omega, lam, 2 * tau, sigma, t])
    elif sub == "1.2.4":
        lam = SkewElement.linear(data["u"], n)
        eta = SkewElement.linear(data["w"], n)
        named["lambda"] = lam
        named["eta"] = eta
        body = [
            [t],
            [sigma, t],
            [zero, sigma, t],
            [lam, zero, sigma, t],
            [zero, lam, zero, sigma, t],
            [eta, zero, lam, zero, sigma, t],
            [zero, eta, zero, lam, zero, sigma, t],
        ]
    elif sub in ("1.3.1", "1.3.2"):
        tau = SkewElement.linear(data["r"], n)
        named["tau"] = tau
        body = [[t], [sigma, t], [2 * tau, sigma, t]]
        if sub == "1.3.2":
            lam = SkewElement.linear(data["u"], n)
            omega = SkewElement.linear(data["v"], n)
            named["lambda"] = lam
            named["omega"] = omega
            body.append([lam, 2 * tau, sigma, t])
            body.append([2 * omega, lam, 2 * tau, sigma, t])
    else:
        raise ValueError("unknown subcase %r" % sub)
    return _row_grid(n, body), named


def quadric_rows(spec, label):
    """(grid, named elements) of the size-4 resolution for the two-generator
    cohomology with one quadric, over the row-normalized matrix spec.m.

    The last row needs a degree-1 correction term w solving
    d(w) = t1 y1^2 + t2 y2^2 + t3 (y1 y2 + y2 y1); the square-zero identity
    fails without it.
    """
    n = 3
    m11, m12, m13, l1, l2 = label.params
    t1, t2, t3 = quadric_coefficients(label.params)
    y1 = SkewElement.linear((l1, Q(-1), Q(0)), n)
    y2 = SkewElement.linear((l2, Q(0), Q(-1)), n)
    target = (y1 * y1).scale(t1) + (y2 * y2).scale(t2) + (y1 * y2 + y2 * y1).scale(t3)
    if any(c != 0 for mono, c in target.terms.items() if sorted(mono) != [0, 0, 2]):
        raise ValueError("quadric value left the square-form span")
    rhs = coefficient_vector(target, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    w_vec, _ = solve_linear(spec.m.T, rhs)
    if w_vec is None:
        raise ValueError("quadric relation is not a coboundary")
    w = SkewElement.linear(w_vec, n)
    body = [
        [y1],
        [y2, SkewElement.zero(n)],
        [w, y1.scale(t1) + y2.scale(t3), y2.scale(t2) + y1.scale(t3)],
    ]
    return _row_grid(n, body), {"y1": y1, "y2": y2, "w": w}


def reference_resolution(m):
    """(resolution, named elements, quadric relation or None) by the paper's
    formulas, for rank-2 degenerate and rank-1 case 4/5/6 inputs.

    The quadric rows are written over the row-normalized matrix that
    classify reads its parameters from, a permutation image of m; size and
    Ext dimension are invariant under that isomorphism.
    """
    label = classify(m)
    if label.branch == RANK2_DEGENERATE:
        grid, named = staircase_rows(label)
        return SemifreeResolution(DgSpec(m), grid, label), named, None
    if label.branch == RANK1 and label.coh_case in (4, 5, 6):
        spec = DgSpec(chi(m, QplMatrix(label.permutation, (Q(1), Q(1), Q(1)))))
        grid, named = quadric_rows(spec, label)
        return (SemifreeResolution(spec, grid, label), named,
                quadric_coefficients(label.params))
    raise ValueError("no closed formula for %s case %s" % (label.branch, label.coh_case))
