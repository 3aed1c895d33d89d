"""Test-only reference for skewdg.qpl: the scale solver on Fractions.

These are Fraction versions of the package's _ratios, _solve_scales and
_hermite_rows, with the iso_solve and aut_group loops over them.  Every
ratio is a reduced Fraction and every power of a value is a Fraction
power, and each permutation runs its own elimination of (exponents, value)
rows, so they share with the package only the Smith form, the root
extraction, chi and the result types.  The package eliminates the exponent
lattice once per call and maps unreduced integer ratio pairs through the
transforms; comparing the two outputs checks that route.
"""

from itertools import permutations, product

from skewdg.linalg import Q, smith_normal_form
from skewdg.qpl import AutFamily, IsoResult, QplMatrix, RootRequirement, _nth_root, chi


def ref_constraints_for(m, m2, sigma):
    """(exponent e_i - 2 e_j, m[i][j] / m2[s(i)][s(j)]) per nonzero cell, or
    None when the zero patterns differ."""
    n = m.rows
    constraints = []
    for i in range(n):
        for j in range(n):
            a = m[i, j]
            b = m2[sigma[i], sigma[j]]
            if (a == 0) != (b == 0):
                return None
            if a == 0:
                continue
            exp = [0] * n
            exp[i] += 1
            exp[j] -= 2
            constraints.append((exp, a / b))
    return constraints


def ref_hermite_rows(constraints):
    """(echelon, residual) of the multiplicative system by unimodular row
    operations on the exponents, each value a Fraction."""
    rows = [(list(e), r) for e, r in constraints]
    n = len(rows[0][0]) if rows else 0
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
            pe, pr = rows[0]
            for i in range(1, len(rows)):
                e, r = rows[i]
                if e[col] != 0:
                    q = e[col] // pe[col]
                    if q:
                        rows[i] = ([a - q * b for a, b in zip(e, pe)], r * pr ** (-q))
                    if rows[i][0][col] != 0:
                        done = False
            if done:
                break
        if rows and rows[0][0][col] != 0:
            e, r = rows.pop(0)
            if e[col] < 0:
                e, r = [-x for x in e], 1 / r
            echelon.append((e, r))
        col += 1
    residual = [(e, r) for e, r in rows if r != 1]
    return echelon, residual


def ref_solve_scales(constraints, n):
    """(candidates, root requirements) through the Smith form, or None when
    the closure condition fails."""
    if not constraints:
        return [tuple([Q(1)] * n)], []
    exps = [list(c[0]) for c in constraints]
    values = [c[1] for c in constraints]
    u, d, v = smith_normal_form(exps)
    nc = len(exps)
    transformed = []
    for i in range(nc):
        val = Q(1)
        for c in range(nc):
            e = u[i][c]
            if e:
                val *= values[c] ** e
        transformed.append(val)
    needed = []
    y_choices = []
    rank = 0
    for i in range(min(nc, n)):
        g = d[i][i]
        if g == 0:
            break
        rank = i + 1
        target = transformed[i] if g > 0 else 1 / transformed[i]
        g = abs(g)
        root = _nth_root(target, g)
        if root is None:
            needed.append(RootRequirement(i, g, target))
            continue
        options = [root] if (g % 2 or root == 0) else [root, -root]
        y_choices.append((i, options))
    if any(transformed[i] != 1 for i in range(rank, nc)):
        return None
    if needed:
        return [], needed
    indices = [i for i, _ in y_choices]
    candidates = []
    for combo in product(*[options for _, options in y_choices]):
        y = [Q(1)] * n
        for i, val in zip(indices, combo):
            y[i] = val
        scales = []
        for k in range(n):
            val = Q(1)
            for j in range(n):
                e = v[k][j]
                if e:
                    val *= y[j] ** e
            scales.append(val)
        candidates.append(tuple(scales))
    return candidates, needed


def ref_iso_solve(m, m2):
    n = m.rows
    closure_hits = []
    for sigma in permutations(range(n)):
        constraints = ref_constraints_for(m, m2, sigma)
        if constraints is None:
            continue
        solved = ref_solve_scales(constraints, n)
        if solved is None:
            continue
        candidates, needed = solved
        for scales in candidates:
            witness = QplMatrix(tuple(sigma), scales)
            if chi(m, witness) == m2:
                return IsoResult("Witness", witness=witness)
        certificate = ["d%d^%d = %s" % (req.variable + 1, req.degree, req.radicand)
                       for req in needed]
        closure_hits.append(IsoResult("ClosureOnly", permutation=tuple(sigma),
                                      root_requirements=needed, certificate=certificate))
    if closure_hits:
        return closure_hits[0]
    return IsoResult("NotIsomorphic")


def ref_aut_group(m):
    n = m.rows
    families = []
    for sigma in permutations(range(n)):
        constraints = ref_constraints_for(m, m, sigma)
        if constraints is None:
            continue
        echelon, residual = ref_hermite_rows(constraints)
        if residual:
            continue
        fixed = {}
        relations = []
        pivot_cols = set()
        for e, r in echelon:
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
