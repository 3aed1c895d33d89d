"""Case taxonomy for 3x3 defining matrices, the Calabi-Yau verdict, graded
presentations of the cohomology, and the dimensions of presented algebras
from a truncated noncommutative Gröbner basis.

Rank 2 with a degenerate kernel pairing fans out into seven subcases driven
by membership of auxiliary square-forms in the coboundary space B^2; rank 1
fans out by the parameters (m11, m12, m13, l1, l2) of the row structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .dg import InternalConsistencyError
from .linalg import Mat, Q, _integral, solve_linear, sparse_rref
from .qpl import QplMatrix, chi

RANK3 = "Rank3"
RANK2_NONDEG = "Rank2Nondeg"
RANK2_DEGENERATE = "Rank2Degenerate"
RANK1 = "Rank1"
RANK0 = "Rank0"


@dataclass
class CaseLabel:
    rank: int
    branch: str
    subcase: Optional[str] = None  # "1.1" .. "1.3.2" for Rank2Degenerate
    coh_case: Optional[int] = None  # 1..9, the cohomology shape
    params: Optional[tuple] = None  # (m11, m12, m13, l1, l2) for Rank1
    permutation: Optional[tuple] = None  # row swap used to normalize Rank1
    data: dict = field(default_factory=dict)  # named auxiliary vectors

    def as_dict(self):
        out = {"rank": self.rank, "branch": self.branch, "cohomology_case": self.coh_case}
        if self.subcase:
            out["subcase"] = self.subcase
        if self.params:
            out["params"] = {k: str(v) for k, v in
                             zip(("m11", "m12", "m13", "l1", "l2"), self.params)}
        if self.permutation and self.permutation != (0, 1, 2):
            out["row_permutation"] = [p + 1 for p in self.permutation]
        if self.data:
            out["vectors"] = {k: [str(x) for x in v] for k, v in sorted(self.data.items())}
        return out


def _vec_mul(u: Sequence, v: Sequence) -> tuple:
    return tuple(a * b for a, b in zip(u, v))


def _vec_sq(u: Sequence) -> tuple:
    return tuple(a * a for a in u)


def _null_vector(rows) -> tuple:
    """The kernel of a rank-2 3x3 matrix with these rows, as kernel_basis
    gives it: the cross product of two independent rows cleared of
    denominators, divided by its first nonzero coordinate."""
    for a, b in combinations([_integral(dict(enumerate(row))) for row in rows], 2):
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        lead = next((x for x in cross if x), 0)
        if lead:
            return tuple(Q(x, lead) for x in cross)


def _classify_rank2(m: Mat, q_shift=None) -> CaseLabel:
    s = _null_vector(m.data)
    t = _null_vector(zip(*m.data))
    pairing = sum(si * ti * ti for si, ti in zip(s, t))
    if pairing != 0:
        return CaseLabel(2, RANK2_NONDEG, coh_case=2, data={"s": s, "t": t})
    mt = m.T

    def solve(rhs):
        """A solution x of M^T x = rhs, or None when rhs is not in B^2."""
        particular, _ = solve_linear(mt, rhs)
        return particular

    data = {"s": s, "t": t}
    t2 = _vec_sq(t)
    q = solve(t2)
    if q is None:
        raise InternalConsistencyError("t^2 not a coboundary in the degenerate rank-2 case")
    if q_shift is not None:
        # Robustness hook: any solution of the same system differs by a
        # multiple of t, and the branch conditions must not notice.
        q = tuple(qi + q_shift * ti for qi, ti in zip(q, t))
    qt = _vec_mul(q, t)
    r = solve(qt)
    if r is None:
        data["q"] = q
        return CaseLabel(2, RANK2_DEGENERATE, subcase="1.1", coh_case=3, data=data)
    # qt is a coboundary: split on whether it is a multiple of t^2.
    sol, _ = solve_linear(Mat.from_columns([t2]), qt)
    if sol is not None:
        # Shift q so that the componentwise product with t vanishes exactly.
        c = sol[0]
        q = tuple(qi - c * ti for qi, ti in zip(q, t))
        qt = _vec_mul(q, t)
        if any(x != 0 for x in qt):
            raise InternalConsistencyError("q*t survives the shift by a multiple of t^2")
        data["q"] = q
        u = solve(_vec_sq(q))
        if u is None:
            return CaseLabel(2, RANK2_DEGENERATE, subcase="1.2.1", coh_case=3, data=data)
        data["u"] = u
        v = solve(_vec_mul(u, t))
        if v is None:
            return CaseLabel(2, RANK2_DEGENERATE, subcase="1.2.2", coh_case=3, data=data)
        data["v"] = v
        c5 = tuple(4 * vi * ti + 2 * qi * ui for vi, ti, qi, ui in zip(v, t, q, u))
        if solve(c5) is None:
            return CaseLabel(2, RANK2_DEGENERATE, subcase="1.2.3", coh_case=3, data=data)
        return _finish_1_2_4(mt, data)
    # qt and t^2 independent inside B^2.
    data["q"] = q
    data["r"] = r
    c3p = tuple(4 * ri * ti + qi * qi for ri, ti, qi in zip(r, t, q))
    u = solve(c3p)
    if u is None:
        return CaseLabel(2, RANK2_DEGENERATE, subcase="1.3.1", coh_case=3, data=data)
    data["u"] = u
    utrq = tuple(ui * ti + 2 * ri * qi for ui, ti, ri, qi in zip(u, t, r, q))
    v = solve(utrq)
    if v is None:
        raise InternalConsistencyError("u*t + 2*r*q escaped B^2 in subcase 1.3.2")
    data["v"] = v
    final = tuple(4 * vi * ti + 2 * ui * qi + 4 * ri * ri
                  for vi, ti, ui, qi, ri in zip(v, t, u, q, r))
    if solve(final) is not None:
        raise InternalConsistencyError("expected rank jump fails in subcase 1.3.2")
    return CaseLabel(2, RANK2_DEGENERATE, subcase="1.3.2", coh_case=3, data=data)


def _finish_1_2_4(mt: Mat, data: dict) -> CaseLabel:
    """Final subcase: assert the coordinate structure the construction needs.

    Exactly one t-component and one q-component survive and they sit at
    different indices; the remaining analysis shows no other configuration
    reaches this branch, so a violation is an internal error.  mt is M^T.
    """
    t, q, u = data["t"], data["q"], data["u"]
    t_support = [i for i, x in enumerate(t) if x != 0]
    q_support = [i for i, x in enumerate(q) if x != 0]
    if len(t_support) != 1 or len(q_support) != 1 or t_support == q_support:
        raise InternalConsistencyError(
            "subcase 1.2.4 must have single disjoint t and q components, got t=%s q=%s"
            % (t, q))
    gamma = t_support[0]
    beta = q_support[0]
    alpha = next(i for i in range(3) if i not in (gamma, beta))
    # Normalize the gamma-component of u away (solutions differ by span(t)).
    u = tuple(ui - (u[gamma] / t[gamma]) * ti for ui, ti in zip(u, t))
    if u[alpha] == 0:
        raise InternalConsistencyError("subcase 1.2.4 needs a nonzero lambda component off q")
    data["u"] = u
    v = (Q(0),) * 3
    data["v"] = v
    rhs = tuple(2 * qi * ui for qi, ui in zip(q, u))
    w, _ = solve_linear(mt, rhs)
    if w is None:
        raise InternalConsistencyError("eta right-hand side escaped B^2 in subcase 1.2.4")
    w = tuple(wi - (w[gamma] / t[gamma]) * ti for wi, ti in zip(w, t))
    data["w"] = w
    data["axes"] = (alpha, beta, gamma)
    return CaseLabel(2, RANK2_DEGENERATE, subcase="1.2.4", coh_case=3, data=data)


def _rank1_params(m: Mat):
    """Row-normalize a rank-1 matrix and read off (m11, m12, m13, l1, l2)."""
    p = next(i for i in range(3) if any(x != 0 for x in m.row(i)))
    perm = (0, 1, 2)
    work = m
    if p != 0:
        swap = QplMatrix.transposition(1, p + 1, 3)
        work = chi(m, swap)
        perm = tuple(swap.permutation)
    row1 = work.row(0)
    j = next(j for j in range(3) if row1[j] != 0)
    l1 = work[1, j] / row1[j]
    l2 = work[2, j] / row1[j]
    return work, (row1[0], row1[1], row1[2], l1, l2), perm


def _rank1_case(params) -> int:
    m11, m12, m13, l1, l2 = params
    if m12 * l1 ** 2 + m13 * l2 ** 2 != m11:
        return 4 if l1 * l2 != 0 else 5
    if l1 != 0 and l2 != 0:
        return 6
    if l1 != 0:
        return 7
    if l2 != 0:
        return 8
    return 9


def quadric_coefficients(params) -> tuple:
    """(t1, t2, t3) of the single cohomology relation in rank-1 case 4/5/6."""
    m11, m12, m13, l1, l2 = params
    case = _rank1_case(params)
    if case == 4:
        t3 = -(m12 * l1 ** 2 + m13 * l2 ** 2 - m11) / (2 * l1 * l2)
        return (m12, m13, t3)
    if case == 5:
        return (Q(0), Q(0), Q(1))
    if case == 6:
        return (m12, m13, Q(0))
    raise ValueError("no two-generator quadric in case %d" % case)


def classify(m: Mat, q_shift=None) -> CaseLabel:
    """Map a 3x3 matrix into the case taxonomy.  Total on all inputs.

    q_shift perturbs the canonical solution of the first auxiliary system
    by that multiple of the transposed kernel vector; the outcome must not
    depend on it (tested), it exists only to exercise that invariance.
    """
    if m.rows != 3 or m.cols != 3:
        raise ValueError("classification is defined for 3x3 matrices")
    rank = m.rank()
    if rank == 3:
        return CaseLabel(3, RANK3, coh_case=1)
    if rank == 2:
        return _classify_rank2(m, q_shift=q_shift)
    if rank == 1:
        _, params, perm = _rank1_params(m)
        return CaseLabel(1, RANK1, coh_case=_rank1_case(params), params=params,
                         permutation=perm)
    return CaseLabel(0, RANK0, coh_case=None)


@dataclass
class TheoremCVerdict:
    calabi_yau: bool
    koszul: bool
    homologically_smooth: bool
    reason: str

    def as_dict(self):
        return {
            "calabi_yau": self.calabi_yau,
            "koszul": self.koszul,
            "homologically_smooth": self.homologically_smooth,
            "reason": self.reason,
        }


def _rank1_not_cy(params) -> Optional[str]:
    m11, m12, m13, l1, l2 = params
    if l1 * l2 == 0:
        return None
    s = m12 * l1 ** 2 + m13 * l2 ** 2
    if s == m11 and m12 * m13 == 0:
        return "degenerate-two-generator-family"
    if s != m11 and 4 * m12 * m13 * l1 ** 2 * l2 ** 2 == (s - m11) ** 2:
        return "degenerate-quadric-family"
    return None


def theorem_c(m: Mat) -> TheoremCVerdict:
    """Final Calabi-Yau verdict: not CY exactly on the two rank-1 families."""
    if m.rows != 3 or m.cols != 3:
        raise ValueError("the verdict is defined for 3x3 matrices")
    rank = m.rank()
    if rank != 1:
        return TheoremCVerdict(True, True, True, "rank-%d" % rank)
    _, params, _ = _rank1_params(m)
    family = _rank1_not_cy(params)
    if family is not None:
        return TheoremCVerdict(False, True, False, family)
    return TheoremCVerdict(True, True, True, "rank-1-regular")


# -- graded presentations and their dimensions ---------------------------------


@dataclass
class GradedPresentation:
    """Generators (name, degree in {1, 2}) and homogeneous relations.

    A relation is a list of (coefficient, word) with each word a tuple of
    generator indices.
    """

    generators: list
    relations: list

    def as_dict(self):
        def word_str(word):
            return "*".join(self.generators[g][0] for g in word) if word else "1"

        rels = []
        for rel in self.relations:
            rels.append(" + ".join("%s*%s" % (c, word_str(w)) if c != 1 else word_str(w)
                                   for c, w in rel))
        return {
            "generators": [{"name": g, "degree": d} for g, d in self.generators],
            "relations": rels,
        }


def _two_gen(names=("y1", "y2")):
    return [(names[0], 1), (names[1], 1)]


def _quadric_relation(t1, t2, t3):
    rel = []
    if t1 != 0:
        rel.append((t1, (0, 0)))
    if t2 != 0:
        rel.append((t2, (1, 1)))
    if t3 != 0:
        rel.append((t3, (0, 1)))
        rel.append((t3, (1, 0)))
    return rel


def _three_gen_presentation(c1, c2):
    """Two degree-1 generators with quadric c1 y1^2 + c2 y2^2, plus a central
    degree-2 generator (cohomology cases 7, 8, 9)."""
    gens = [("y1", 1), ("y2", 1), ("w", 2)]
    rels = [
        [(c1, (0, 0)), (c2, (1, 1))],
        [(Q(1), (0, 1)), (Q(1), (1, 0))],
        [(Q(1), (2, 0)), (Q(-1), (0, 2))],
        [(Q(1), (2, 1)), (Q(-1), (1, 2))],
    ]
    return GradedPresentation(gens, rels)


def degenerate_presentation() -> GradedPresentation:
    """z of degree 1 and a central w of degree 2 with z^2 = 0: the cohomology
    of the degenerate rank-2 branch and of two n = 2 families."""
    return GradedPresentation(
        [("z", 1), ("w", 2)],
        [[(Q(1), (0, 0))], [(Q(1), (0, 1)), (Q(-1), (1, 0))]],
    )


def presentation_of(label: CaseLabel) -> GradedPresentation:
    """The cohomology presentation predicted for a classified matrix."""
    if label.branch == RANK3:
        return GradedPresentation([], [])
    if label.branch == RANK2_NONDEG:
        return GradedPresentation([("z", 1)], [])
    if label.branch == RANK2_DEGENERATE:
        return degenerate_presentation()
    if label.branch == RANK1:
        case = label.coh_case
        m11, m12, m13, l1, l2 = label.params
        if case in (4, 5, 6):
            t1, t2, t3 = quadric_coefficients(label.params)
            return GradedPresentation(_two_gen(), [_quadric_relation(t1, t2, t3)])
        if case == 7:
            return _three_gen_presentation(m12, m13)
        if case == 8:
            return _three_gen_presentation(m13, m12)
        return _three_gen_presentation(m12, m13)
    # Rank 0: the whole algebra with zero differential.
    gens = [("x1", 1), ("x2", 1), ("x3", 1)]
    rels = [
        [(Q(1), (i, j)), (Q(1), (j, i))]
        for i in range(3) for j in range(i + 1, 3)
    ]
    return GradedPresentation(gens, rels)


def presented_dims(pres: GradedPresentation, dmax: int) -> list[int]:
    """Dimensions of the presented graded algebra up to dmax: the number of
    normal words of each degree for a Gröbner basis truncated at dmax.

    Words are ordered by weighted degree, then lexicographically in the
    generator indices.  The rules of degree d are the reduced echelon form
    of the degree-d relations and of the S-polynomials of the overlaps of
    lower rules that land in degree d, each rewritten first by the lower
    rules.  So every ambiguity of weighted degree <= dmax resolves, and by
    Bergman's diamond lemma the words containing no leading word are a basis
    in each degree <= dmax.  No inclusion ambiguity arises: a leading word
    of degree d is normal for the lower rules, and the leading words of one
    degree are distinct pivots.
    """
    degrees = [d for _, d in pres.generators]
    if any(d not in (1, 2) for d in degrees):
        raise ValueError("generator degrees outside {1, 2} are unsupported")

    def weight(word):
        return sum(degrees[g] for g in word)

    pending: dict[int, list[dict]] = {}  # degree -> polynomials {word: coefficient}
    for rel in pres.relations:
        poly = {}
        for c, w in rel:
            poly[w] = poly.get(w, 0) + c
        poly = {w: c for w, c in poly.items() if c}
        if poly:
            d = weight(next(iter(poly)))
            if d == 0 or any(weight(w) != d for w in poly):
                raise ValueError("relations must be homogeneous of positive degree")
            pending.setdefault(d, []).append(poly)

    rules: dict[tuple, dict] = {}  # leading word -> the other terms of its monic rule

    def add_overlaps(a, b):
        # A suffix of a is a proper prefix of b: a = u v, b = v w, and the
        # S-polynomial (a + rest_a) w - u (b + rest_b) has no a w = u b term.
        for k in range(1, min(len(a), len(b))):
            if a[-k:] == b[:k]:
                u, w = a[:-k], b[k:]
                deg = weight(a) + weight(w)
                if deg <= dmax:
                    s = {t + w: c for t, c in rules[a].items()}
                    for t, c in rules[b].items():
                        s[u + t] = s.get(u + t, 0) - c
                    s = {x: c for x, c in s.items() if c}
                    if s:
                        pending.setdefault(deg, []).append(s)

    normal = [[()]]  # the normal words of each degree
    longest = 0  # the length of the longest leading word
    for d in range(1, dmax + 1):
        # The degree-d words without a lower leading word: the prefix is
        # normal, so only a suffix can be one.  Largest word first, so the
        # pivot of an echelon row is its leading word.
        words = sorted((x for g, dg in enumerate(degrees) if dg <= d
                        for x in (w + (g,) for w in normal[d - dg])
                        if not any(x[i:] in rules
                                   for i in range(max(1, len(x) - longest), len(x)))),
                       reverse=True)
        index = {w: i for i, w in enumerate(words)}
        red, pivots = sparse_rref([_rewrite(poly, rules, longest, index)
                                   for poly in pending.pop(d, ())])
        for row, p in zip(red, pivots):
            lead = words[p]
            rules[lead] = {words[j]: c for j, c in row.items() if j != p}
            longest = max(longest, len(lead))
            for other in rules:
                add_overlaps(other, lead)
                if other != lead:
                    add_overlaps(lead, other)
        leads = set(pivots)
        normal.append([w for i, w in enumerate(words) if i not in leads])
    return [len(ws) for ws in normal[: dmax + 1]]


def _rewrite(poly: dict, rules: dict, longest: int, index: dict) -> dict:
    """The normal form of a homogeneous polynomial {word: coefficient} as
    {index[normal word]: nonzero coefficient}; no leading word in `rules`
    is longer than `longest`.

    The largest word is rewritten first; a rewrite only makes smaller words,
    so each normal word is final when it is reached.
    """
    out = {}
    todo = dict(poly)
    while todo:
        word = max(todo)
        c = todo.pop(word)
        col = index.get(word)
        if col is not None:
            out[col] = c
            continue
        i, lead = next((i, word[i:j]) for i in range(len(word))
                       for j in range(i + 1, min(i + longest, len(word)) + 1)
                       if word[i:j] in rules)
        for t, tc in rules[lead].items():
            x = word[:i] + t + word[i + len(lead):]
            v = todo.get(x, 0) - c * tc
            if v:
                todo[x] = v
            else:
                todo.pop(x, None)
    return out
