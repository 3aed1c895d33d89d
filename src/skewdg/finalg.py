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

from .linalg import Mat, Q, column_basis, frac, in_span, kernel_basis, rref


class AlgebraError(ValueError):
    pass


class FinAlg:
    """Algebra over Q with basis b_0..b_{m-1}: b_i b_j = sum_k c[i][j][k] b_k.

    radical_powers holds the bases of rad, rad^2, ..., ending with the first
    empty power; it is computed once, when the algebra is built.
    """

    __slots__ = ("dim", "unit", "structure", "radical_powers")

    def __init__(self, dim: int, unit: Sequence, structure):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "unit", tuple(frac(x) for x in unit))
        table = tuple(
            tuple(tuple(frac(x) for x in structure[i][j]) for j in range(dim))
            for i in range(dim)
        )
        object.__setattr__(self, "structure", table)
        self._validate()
        object.__setattr__(self, "radical_powers", self._radical_powers())

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
        """Algebra spanned by linearly independent commuting-closure matrices.

        The span must be closed under multiplication and contain the
        identity; violations are reported as internal errors because the
        callers only pass commutants, which are always closed.  One
        elimination of [span | identity | all products] gives every
        coordinate: they are the first dim rows of its reduced form.
        """
        dim = len(mats)
        if dim == 0:
            raise AlgebraError("empty matrix algebra")
        size = mats[0].rows
        ident = [Q(1) if i == j else Q(0) for i in range(size) for j in range(size)]
        cols = [[x for row in mat.data for x in row] for mat in mats] + [ident]
        cols += [[x for row in (a * b).data for x in row] for a in mats for b in mats]
        red, _, pivots = rref(Mat.from_columns(cols))
        if pivots[:dim] != list(range(dim)):
            raise AlgebraError("the spanning matrices are linearly dependent")
        if dim in pivots:
            raise AlgebraError("identity matrix is not in the span")
        if len(pivots) > dim:
            raise AlgebraError("matrix span is not multiplicatively closed")
        coords = [red.column(t)[:dim] for t in range(dim, len(cols))]
        structure = [coords[1 + i * dim: 1 + (i + 1) * dim] for i in range(dim)]
        return FinAlg(dim, coords[0], structure)

    # -- validation -----------------------------------------------------------

    def _validate(self):
        m, c = self.dim, self.structure
        basis = [self._basis_vec(i) for i in range(m)]
        for i, b in enumerate(basis):
            if self.multiply(self.unit, b) != b or self.multiply(b, self.unit) != b:
                raise AlgebraError("unit law fails on basis element %d" % i)
        # b_i (b_j b_k) = (b_i b_j) b_k, where b_j b_k = c[j][k].
        for i, b in enumerate(basis):
            for j in range(m):
                for k in range(m):
                    if self.multiply(b, c[j][k]) != self.multiply(c[i][j], basis[k]):
                        raise AlgebraError(
                            "associativity fails on basis triple (%d, %d, %d)" % (i, j, k))

    def _basis_vec(self, i: int) -> tuple:
        return tuple(Q(1) if k == i else Q(0) for k in range(self.dim))

    # -- arithmetic -------------------------------------------------------------

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        out = [Q(0)] * self.dim
        for xi, row in zip(x, self.structure):
            if not xi:
                continue
            for yj, coeffs in zip(y, row):
                if not yj:
                    continue
                c = xi * yj
                for k, ck in enumerate(coeffs):
                    if ck:
                        out[k] += c * ck
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

    def _radical_powers(self) -> tuple:
        """Bases of rad, rad^2, ..., ending with the first empty power.

        The radical is the kernel of the trace form (char 0), read straight
        off the structure constants: tr(L_i L_j) = sum_{k,l} c[i][l][k] c[j][k][l].
        rad^{i+1} is spanned by the products x y with x in rad^i, y in rad.
        """
        m, c = self.dim, self.structure
        gram = Mat([[sum(ci[l][k] * cj[k][l] for k in range(m) for l in range(m) if ci[l][k])
                     for cj in c] for ci in c])
        rad = kernel_basis(gram)
        powers = [rad]
        while powers[-1]:
            powers.append(column_basis([self.multiply(x, y) for x in powers[-1] for y in rad]))
        return tuple(tuple(p) for p in powers)

    def is_local(self) -> bool:
        return len(self.radical_powers[0]) == self.dim - 1

    def radical_filtration(self) -> list[int]:
        """Dimensions of rad^i / rad^{i+1}, starting with i = 0 (the quotient
        by the radical itself)."""
        sizes = [self.dim] + [len(p) for p in self.radical_powers]
        return [a - b for a, b in zip(sizes, sizes[1:])]

    def socle_basis(self) -> list[tuple]:
        """{x : x rad = rad x = 0}, the kernel of the stacked L_r and R_r.

        In a local algebra of dimension > 1 that kernel already lies in rad,
        so it is not intersected with rad: for x = c 1 + y with y in rad,
        x r = 0 for some r in rad outside rad^2 gives c r = -y r in rad^2,
        so c = 0.
        """
        if not self.is_local():
            raise AlgebraError("socle criterion applies to local algebras only")
        m = self.dim
        rows = []
        for r in self.radical_powers[0]:
            rows.extend(self.left_mult_matrix(r).data)
            rows.extend(Mat.from_columns([self.multiply(self._basis_vec(j), r)
                                          for j in range(m)]).data)
        if not rows:
            return [self._basis_vec(i) for i in range(m)]
        return kernel_basis(Mat(rows))


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
    return Mat([[sum(f * c for f, c in zip(functional, row[j])) for j in range(e.dim)]
                for row in e.structure])


def _commutator_annihilator(e: FinAlg) -> list[tuple]:
    """Functionals vanishing on all commutators b_i b_j - b_j b_i."""
    m, c = e.dim, e.structure
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            diff = [a - b for a, b in zip(c[i][j], c[j][i])]
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
    # A lift of the rad/rad^2 generator: any radical element outside rad^2.
    rad, rad2 = e.radical_powers[0], e.radical_powers[1]
    gen = next(v for v in rad if not in_span(rad2, v))
    power = gen
    for _ in range(e.dim - 2):
        power = e.multiply(power, gen)
    if all(x == 0 for x in power):
        return None
    return e.dim
