"""Finite-dimensional algebras by structure constants: validation, radical
and socle analysis, Frobenius decisions, and truncated-polynomial
recognition.

For the local commutative algebras this project produces, Frobenius-ness is
decided by the socle criterion (socle dimension one); a randomized
certificate search is kept for anything outside that path, and every
positive certificate is re-verified before it is reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import Mat, Q, frac, kernel_basis, rref, solve_linear


class AlgebraError(ValueError):
    pass


class FinAlg:
    """Algebra over Q with basis b_0..b_{m-1}: b_i b_j = sum_k c[i][j][k] b_k."""

    __slots__ = ("dim", "unit", "structure")

    def __init__(self, dim: int, unit: Sequence, structure):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "unit", tuple(frac(x) for x in unit))
        table = tuple(
            tuple(tuple(frac(x) for x in structure[i][j]) for j in range(dim))
            for i in range(dim)
        )
        object.__setattr__(self, "structure", table)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("FinAlg is immutable")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_flat(dim: int, unit: Sequence, flat: Sequence) -> "FinAlg":
        """Structure constants as a flat list, index (i*dim + j)*dim + k."""
        if len(flat) != dim ** 3:
            raise AlgebraError("expected %d structure constants" % dim ** 3)
        structure = [
            [[flat[(i * dim + j) * dim + k] for k in range(dim)] for j in range(dim)]
            for i in range(dim)
        ]
        return FinAlg(dim, unit, structure)

    @staticmethod
    def from_matrix_algebra(mats: Sequence[Mat]) -> "FinAlg":
        """Algebra spanned by commuting-closure matrices.

        The span must be closed under multiplication and contain the
        identity; violations are reported as internal errors because the
        callers only pass commutants, which are always closed.
        """
        dim = len(mats)
        if dim == 0:
            raise AlgebraError("empty matrix algebra")
        size = mats[0].rows
        cols = [tuple(mat[i, j] for i in range(size) for j in range(size)) for mat in mats]
        span = Mat.from_columns(cols)
        ident = tuple(Q(1) if i == j else Q(0) for i in range(size) for j in range(size))
        unit, _ = solve_linear(span, ident)
        if unit is None:
            raise AlgebraError("identity matrix is not in the span")
        structure = []
        for a in mats:
            row = []
            for b in mats:
                prod = a * b
                vec = tuple(prod[i, j] for i in range(size) for j in range(size))
                coords, _ = solve_linear(span, vec)
                if coords is None:
                    raise AlgebraError("matrix span is not multiplicatively closed")
                row.append(coords)
            structure.append(row)
        return FinAlg(dim, unit, structure)

    # -- validation -----------------------------------------------------------

    def _validate(self):
        m = self.dim
        for i in range(m):
            left = self.multiply(self.unit, self._basis_vec(i))
            right = self.multiply(self._basis_vec(i), self.unit)
            if left != self._basis_vec(i) or right != self._basis_vec(i):
                raise AlgebraError("unit law fails on basis element %d" % i)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    lhs = self.multiply(self._basis_vec(i),
                                        self.multiply(self._basis_vec(j), self._basis_vec(k)))
                    rhs = self.multiply(self.multiply(self._basis_vec(i), self._basis_vec(j)),
                                        self._basis_vec(k))
                    if lhs != rhs:
                        raise AlgebraError(
                            "associativity fails on basis triple (%d, %d, %d)" % (i, j, k))

    def _basis_vec(self, i: int) -> tuple:
        return tuple(Q(1) if k == i else Q(0) for k in range(self.dim))

    # -- arithmetic -------------------------------------------------------------

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        m = self.dim
        out = [Q(0)] * m
        for i in range(m):
            xi = x[i]
            if xi == 0:
                continue
            row = self.structure[i]
            for j in range(m):
                yj = y[j]
                if yj == 0:
                    continue
                coeffs = row[j]
                c = xi * yj
                for k in range(m):
                    if coeffs[k] != 0:
                        out[k] += c * coeffs[k]
        return tuple(out)

    def left_mult_matrix(self, x: Sequence) -> Mat:
        cols = [self.multiply(x, self._basis_vec(j)) for j in range(self.dim)]
        return Mat.from_columns(cols)

    def is_commutative(self) -> bool:
        m = self.dim
        for i in range(m):
            for j in range(i + 1, m):
                if self.structure[i][j] != self.structure[j][i]:
                    return False
        return True

    # -- radical / socle ----------------------------------------------------------

    def radical_basis(self) -> list[tuple]:
        """Basis of the Jacobson radical via the trace form (char 0)."""
        m = self.dim
        lm = [self.left_mult_matrix(self._basis_vec(i)) for i in range(m)]
        gram = Mat([[sum((lm[i] * lm[j])[k, k] for k in range(m)) for j in range(m)]
                    for i in range(m)])
        return kernel_basis(gram)

    def is_local(self) -> bool:
        return len(self.radical_basis()) == self.dim - 1

    def radical_filtration(self) -> list[int]:
        """Dimensions of rad^i / rad^{i+1}, starting with i = 0 (the quotient
        by the radical itself)."""
        layers = [self.dim]
        power = self.radical_basis()
        rad = list(power)
        while power:
            layers.append(len(power))
            nxt_span = []
            for x in power:
                for y in rad:
                    nxt_span.append(self.multiply(x, y))
            power = _span_basis(nxt_span)
        return [layers[i] - (layers[i + 1] if i + 1 < len(layers) else 0)
                for i in range(len(layers))]

    def socle_basis(self) -> list[tuple]:
        """{x : x rad = rad x = 0}, computed inside the whole algebra."""
        if not self.is_local():
            raise AlgebraError("socle criterion applies to local algebras only")
        rad = self.radical_basis()
        m = self.dim
        rows = []
        for r in rad:
            lm = self.left_mult_matrix(r)
            rm_cols = [self.multiply(self._basis_vec(j), r) for j in range(m)]
            rm = Mat.from_columns(rm_cols)
            rows.extend(lm.data)
            rows.extend(rm.data)
        if not rows:
            return [self._basis_vec(i) for i in range(m)]
        sol = kernel_basis(Mat(rows))
        # The socle is taken inside the radical (the unit direction always
        # survives multiplication, so intersect with the radical span).
        rad_mat = Mat.from_columns(rad) if rad else None
        out = []
        for v in sol:
            if rad_mat is None:
                continue
            coords, _ = solve_linear(rad_mat, v)
            if coords is not None:
                out.append(v)
        return out


def _span_basis(vectors) -> list[tuple]:
    vecs = [tuple(v) for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    _, _, pivots = rref(Mat.from_columns(vecs))
    return [vecs[p] for p in pivots]


def sklyanin_e(lam, mu, nu) -> FinAlg:
    """The four-dimensional commutative family on 1, e1, e2, e3 with
    e1 e1 = lam e3, e1 e2 = nu e3, e2 e2 = mu e3 and e3 annihilating the
    radical."""
    lam, mu, nu = frac(lam), frac(mu), frac(nu)
    z = [Q(0)] * 4

    def vec(*entries):
        return list(entries)

    structure = [[list(z) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        structure[0][i] = vec(*(Q(1) if k == i else Q(0) for k in range(4)))
        structure[i][0] = vec(*(Q(1) if k == i else Q(0) for k in range(4)))
    structure[1][1] = vec(Q(0), Q(0), Q(0), lam)
    structure[1][2] = vec(Q(0), Q(0), Q(0), nu)
    structure[2][1] = vec(Q(0), Q(0), Q(0), nu)
    structure[2][2] = vec(Q(0), Q(0), Q(0), mu)
    return FinAlg(4, (1, 0, 0, 0), structure)


def socle_dim(e: FinAlg) -> int:
    return len(e.socle_basis())


def radical_filtration(e: FinAlg) -> list[int]:
    return e.radical_filtration()


@dataclass
class FrobeniusVerdict:
    frobenius: bool
    symmetric: Optional[bool]
    method: str
    witness: Optional[tuple] = None

    def as_dict(self):
        out = {"frobenius": self.frobenius, "symmetric": self.symmetric,
               "method": self.method}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        return out


def _gram(e: FinAlg, functional: Sequence) -> Mat:
    m = e.dim
    return Mat([
        [sum(f * c for f, c in zip(functional, e.multiply(e._basis_vec(i), e._basis_vec(j))))
         for j in range(m)] for i in range(m)
    ])


def _commutator_annihilator(e: FinAlg) -> list[tuple]:
    """Functionals vanishing on all commutators b_i b_j - b_j b_i."""
    m = e.dim
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            diff = [a - b for a, b in zip(e.multiply(e._basis_vec(i), e._basis_vec(j)),
                                          e.multiply(e._basis_vec(j), e._basis_vec(i)))]
            if any(diff):
                rows.append(diff)
    if not rows:
        return [e._basis_vec(i) for i in range(m)]
    return kernel_basis(Mat(rows))


def frobenius(e: FinAlg, trials: int = 64, seed: int = 0) -> FrobeniusVerdict:
    """Frobenius / symmetric-Frobenius decision.

    Local commutative algebras are decided exactly by the socle criterion.
    Otherwise a randomized functional search runs with the given budget;
    certificates are sound (the Gram matrix is re-checked), and exhaustion
    of the budget is reported as no-certificate-found, which is weaker than
    a disproof.
    """
    if e.is_commutative() and e.is_local():
        frob = socle_dim(e) == 1
        return FrobeniusVerdict(frob, frob, "socle-criterion")
    rng = random.Random(seed)
    sym_space = _commutator_annihilator(e)
    found = None
    found_sym = None
    for _ in range(trials):
        functional = tuple(Q(rng.randint(-9, 9)) for _ in range(e.dim))
        if found is None and _gram(e, functional).rank() == e.dim:
            found = functional
        if sym_space and found_sym is None:
            coeffs = [Q(rng.randint(-9, 9)) for _ in sym_space]
            cand = tuple(sum(c * v[k] for c, v in zip(coeffs, sym_space))
                         for k in range(e.dim))
            if _gram(e, cand).rank() == e.dim:
                found_sym = cand
        if found is not None and found_sym is not None:
            break
    if found_sym is not None:
        return FrobeniusVerdict(True, True, "certificate", witness=found_sym)
    if found is not None:
        return FrobeniusVerdict(True, None, "certificate", witness=found)
    return FrobeniusVerdict(False, None, "no-certificate-found")


def recognize_truncated(e: FinAlg) -> Optional[int]:
    """Return m when the algebra is k[x]/(x^m): commutative, local, with a
    one-dimensional rad/rad^2 whose lift has x^{m-1} != 0."""
    if not e.is_commutative() or not e.is_local():
        return None
    filtration = e.radical_filtration()
    if len(filtration) < 2 or filtration[1] != 1:
        return None if e.dim > 1 else 1
    rad = e.radical_basis()
    # A lift of the rad/rad^2 generator: any radical element outside rad^2.
    rad2 = _span_basis([e.multiply(x, y) for x in rad for y in rad])
    gen = None
    for v in rad:
        cols = Mat.from_columns(rad2) if rad2 else None
        if cols is None:
            gen = v
            break
        coords, _ = solve_linear(cols, v)
        if coords is None:
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
