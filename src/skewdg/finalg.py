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

from .linalg import (Mat, Q, column_pivots, frac, in_span, sparse_kernel, sparse_matmul,
                     sparse_rows, sparse_rref, sparse_transpose)
from .skew import InternalConsistencyError


class AlgebraError(ValueError):
    pass


class FinAlg:
    """Algebra over Q with basis b_0..b_{m-1}: b_i b_j = sum_k c[i][j][k] b_k.

    structure[i][j] holds the nonzero constants of b_i b_j as (k, c[i][j][k])
    pairs in increasing k.  radical_powers holds the bases of rad, rad^2, ...,
    ending with the first empty power; it is computed once, when the algebra
    is built.  The socle is computed on first use and kept.
    """

    __slots__ = ("dim", "unit", "structure", "radical_powers", "_socle")

    def __init__(self, dim: int, unit: Sequence, structure):
        """structure[i][j] is the dense coordinate vector of b_i b_j."""
        table = tuple(tuple(tuple((k, c) for k, c in enumerate(map(frac, structure[i][j])) if c)
                            for j in range(dim)) for i in range(dim))
        self._finish(dim, tuple(frac(x) for x in unit), table)

    def _finish(self, dim: int, unit: tuple, table: tuple) -> "FinAlg":
        """Store the unit and the (k, c) pairs, validate, and compute the
        radical series; returns self."""
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "structure", table)
        object.__setattr__(self, "_socle", None)
        self._validate()
        object.__setattr__(self, "radical_powers", self._radical_powers())
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FinAlg is immutable")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_flat(dim: int, unit: Sequence, flat: Sequence) -> "FinAlg":
        """Structure constants as a flat list, index (i*dim + j)*dim + k."""
        if len(flat) != dim ** 3:
            raise AlgebraError("expected %d structure constants" % dim ** 3)
        if len(unit) != dim:
            raise AlgebraError("expected %d unit coordinates" % dim)
        return FinAlg(dim, unit, [[flat[(i * dim + j) * dim: (i * dim + j + 1) * dim]
                                   for j in range(dim)] for i in range(dim)])

    @staticmethod
    def from_matrix_algebra(mats: Sequence[Mat]) -> "FinAlg":
        """from_sparse_matrices on the nonzero entries of each row of mats."""
        return FinAlg.from_sparse_matrices([sparse_rows(mat.data) for mat in mats],
                                           mats[0].rows if mats else 0)

    @staticmethod
    def from_sparse_matrices(mats: Sequence[Sequence[dict]], size: int) -> "FinAlg":
        """Algebra spanned by linearly independent size x size matrices, each
        given as its rows {column: nonzero Fraction}.

        The span must be closed under multiplication and contain the
        identity; violations are reported as internal errors because the
        callers only pass commutants, which are always closed.  One
        elimination of [span | identity | all products] gives every
        coordinate: they are the first dim rows of its reduced form.  The
        matrices are multiplied and eliminated as sparse rows.
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
        return object.__new__(FinAlg)._finish(
            dim, tuple(coords.get(dim, {}).get(k, Q(0)) for k in range(dim)), table)

    # -- validation -----------------------------------------------------------

    def _validate(self):
        m, s = self.dim, self.structure
        unit = [(a, u) for a, u in zip(range(m), self.unit) if u]
        for i in range(m):
            for acc in (self._product(unit, [(i, 1)]), self._product([(i, 1)], unit)):
                if {k: x for k, x in acc.items() if x} != {i: 1}:
                    raise AlgebraError("unit law fails on basis element %d" % i)
        # b_i (b_j b_k) = (b_i b_j) b_k, where b_j b_k = sum_l c[j][k][l] b_l.
        # By the unit law, it holds on the triples holding a unit b_e.
        e = unit[0][0] if [u for _, u in unit] == [1] else None
        for i, si in enumerate(s):
            for j, sij in enumerate(si):
                for k, sjk in enumerate(s[j]):
                    if e in (i, j, k) or not (sij or sjk):
                        continue
                    diff = {}
                    for l, c in sjk:
                        for t, x in si[l]:
                            diff[t] = diff.get(t, 0) + c * x
                    for l, c in sij:
                        for t, x in s[l][k]:
                            diff[t] = diff.get(t, 0) - c * x
                    if any(diff.values()):
                        raise AlgebraError(
                            "associativity fails on basis triple (%d, %d, %d)" % (i, j, k))

    # -- arithmetic -------------------------------------------------------------

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        out = self._product(_terms(x), _terms(y))
        return tuple(out.get(k, Q(0)) for k in range(self.dim))

    def _product(self, xs, ys) -> dict:
        """x y as {k: coordinate}, for x and y given as their nonzero
        (index, coordinate) pairs."""
        out = {}
        for i, xi in xs:
            row = self.structure[i]
            for j, yj in ys:
                if row[j]:
                    c = xi * yj
                    for k, ck in row[j]:
                        out[k] = out[k] + c * ck if k in out else c * ck
        return out

    def is_commutative(self) -> bool:
        s = self.structure
        return all(s[i][j] == s[j][i] for i in range(self.dim) for j in range(i))

    # -- radical / socle ----------------------------------------------------------

    def _trace_form(self) -> list[dict]:
        """Rows {j: tr(L_i L_j)}.  L is a representation (_validate has passed),
        so tr(L_i L_j) = tr(L_{b_i b_j}) = sum_k c[i][j][k] tr(L_k)."""
        trace = [sum(c for l, pairs in enumerate(row) for k, c in pairs if k == l)
                 for row in self.structure]
        return [{j: x for j, pairs in enumerate(row) if (x := sum(c * trace[k] for k, c in pairs))}
                for row in self.structure]

    def _radical_powers(self) -> tuple:
        """Bases of rad, rad^2, ..., ending with the first empty power.

        The radical is the kernel of the trace form (char 0).  rad^{i+1} is
        spanned by the products x y with x in rad^i, y in rad; its basis is
        the products at their column pivots.
        """
        rad = sparse_kernel(self._trace_form(), self.dim)
        rad_terms = [_terms(y) for y in rad]
        powers = [rad]
        while powers[-1]:
            products = [self._product(xs, ys)
                        for xs in map(_terms, powers[-1]) for ys in rad_terms]
            powers.append([tuple(products[t].get(k, Q(0)) for k in range(self.dim))
                           for t in column_pivots(products)])
            if len(powers[-1]) == len(powers[-2]):
                raise InternalConsistencyError("the trace-form radical is not nilpotent")
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
        if self._socle is None:
            m = self.dim
            rows = []
            for r in map(_terms, self.radical_powers[0]):
                # Column j of L_r and of R_r: the coordinates of r b_j and b_j r.
                rows += sparse_transpose([self._product(r, [(j, 1)]) for j in range(m)]).values()
                rows += sparse_transpose([self._product([(j, 1)], r) for j in range(m)]).values()
            object.__setattr__(self, "_socle", tuple(sparse_kernel(rows, m)))
        return list(self._socle)


def _terms(v: Sequence) -> list:
    """The nonzero (index, coordinate) pairs of a dense vector."""
    return [(i, x) for i, x in enumerate(v) if x]


def sklyanin_e(lam, mu, nu) -> FinAlg:
    """The four-dimensional commutative family on 1, e1, e2, e3 with
    e1 e1 = lam e3, e1 e2 = nu e3, e2 e2 = mu e3 and e3 annihilating the
    radical."""
    structure = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        structure[0][i][i] = structure[i][0][i] = 1
    structure[1][1][3], structure[2][2][3] = lam, mu
    structure[1][2][3] = structure[2][1][3] = nu
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
    return Mat([[sum(functional[k] * c for k, c in pairs) for pairs in row]
                for row in e.structure])


def _commutator_annihilator(e: FinAlg) -> list[tuple]:
    """Functionals vanishing on all commutators b_i b_j - b_j b_i."""
    m, s = e.dim, e.structure
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            row = dict(s[i][j])
            for k, x in s[j][i]:
                row[k] = row.get(k, 0) - x
            rows.append({k: x for k, x in row.items() if x})
    return sparse_kernel(rows, m)


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
    found = found_sym = None
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
