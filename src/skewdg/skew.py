"""The graded algebra O_{-1}(k^n): generators x_1..x_n with x_i x_j = -x_j x_i.

Monomials are exponent tuples for the normal form x_1^{a_1} ... x_n^{a_n};
elements are sparse maps monomial -> rational coefficient.  Mixing elements
with different n is a hard error.
"""

from __future__ import annotations

import re
from itertools import accumulate, combinations_with_replacement
from math import comb
from operator import add, mul
from typing import Sequence

from .linalg import Q, frac

Monomial = tuple  # exponent vector (a_1, ..., a_n)


class InternalConsistencyError(RuntimeError):
    """A mathematically impossible configuration was produced: an
    implementation bug, reported loudly rather than patched over."""


def normalize_word(letters: Sequence[int], n: int) -> tuple[int, Monomial]:
    """Sort a word in the letters 1..n into normal form.

    Returns (sign, monomial) where the sign is (-1)^inversions; inversions
    count position pairs p < q with letter_p > letter_q.
    """
    for ltr in letters:
        if not 1 <= ltr <= n:
            raise ValueError("letter %r out of range 1..%d" % (ltr, n))
    inversions = 0
    seen = [0] * (n + 1)  # seen[i] = occurrences of letter i so far
    for ltr in letters:
        inversions += sum(seen[ltr + 1:])
        seen[ltr] += 1
    exps = [0] * n
    for ltr in letters:
        exps[ltr - 1] += 1
    return (-1 if inversions % 2 else 1), tuple(exps)


def mono_mul(a: Monomial, b: Monomial) -> tuple[int, Monomial]:
    """Product of two normal monomials: sign and combined exponents.

    The sign is (-1)^{sum_{i>j} a_i b_j}: each letter of b crosses every
    strictly larger letter of a.
    """
    if len(a) != len(b):
        raise ValueError("mixed variable counts")
    crossings = 0
    suffix = 0
    for ai, bi in zip(reversed(a), reversed(b)):
        crossings += suffix * bi
        suffix += ai
    product = tuple(x + y for x, y in zip(a, b))
    return (-1 if crossings % 2 else 1), product


def add_terms(acc: dict, pairs) -> dict:
    """Add (monomial, nonzero coefficient) pairs into acc in place and
    return it, dropping each monomial whose coefficients cancel."""
    for m, c in pairs:
        c0 = acc.get(m)
        if c0 is not None:
            c += c0
            if not c:
                del acc[m]
                continue
        acc[m] = c
    return acc


class SkewElement:
    """Element of O_{-1}(k^n): finite sum of coefficient * normal monomial."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        pairs = []
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                c = frac(coeff)
                if c == 0:
                    continue
                if len(mono) != n:
                    raise ValueError("monomial arity mismatch")
                pairs.append((tuple(mono), c))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", add_terms({}, pairs))

    @staticmethod
    def _tidy(n: int, terms: dict) -> "SkewElement":
        """An element over terms that are already tidy: monomial tuples of
        arity n, each once, with nonzero Fraction coefficients.  The
        arithmetic builds its results so; outside input goes through
        __init__."""
        elt = object.__new__(SkewElement)
        object.__setattr__(elt, "n", n)
        object.__setattr__(elt, "terms", terms)
        return elt

    def __setattr__(self, name, value):
        raise AttributeError("SkewElement is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(n: int) -> "SkewElement":
        return SkewElement(n)

    @staticmethod
    def one(n: int) -> "SkewElement":
        return SkewElement(n, {tuple([0] * n): Q(1)})

    @staticmethod
    def variable(i: int, n: int) -> "SkewElement":
        """The generator x_i (1-based)."""
        exps = [0] * n
        exps[i - 1] = 1
        return SkewElement(n, {tuple(exps): Q(1)})

    @staticmethod
    def linear(coeffs: Sequence, n: int) -> "SkewElement":
        """c_1 x_1 + ... + c_n x_n."""
        terms = {}
        for i, c in enumerate(coeffs):
            exps = [0] * n
            exps[i] = 1
            terms[tuple(exps)] = frac(c)
        return SkewElement(n, terms)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {sum(m) for m in self.terms}

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "SkewElement"):
        if self.n != other.n:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "SkewElement") -> "SkewElement":
        self._check(other)
        return SkewElement._tidy(self.n, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + (-other)

    def __neg__(self) -> "SkewElement":
        return SkewElement._tidy(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "SkewElement":
        c = frac(c)
        if not c:
            return SkewElement.zero(self.n)
        if c == -1:
            return -self
        if c == 1:
            return SkewElement._tidy(self.n, dict(self.terms))
        return SkewElement._tidy(self.n, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SkewElement):
            return self.scale(other)
        self._check(other)
        return SkewElement._tidy(self.n, add_terms({}, self._products(other)))

    def _products(self, other: "SkewElement"):
        """The terms of the product, one per pair of terms: c1 c2 is formed
        only when neither is 1, and negated on an odd sign.  mono_mul's
        crossings sum_{i>j} m1[i] m2[j] are read as sum_j a[j] m2[j], with
        a[j] = m1[j+1] + ... + m1[n-1] formed once per term of self."""
        for m1, c1 in self.terms.items():
            unit = c1 == 1
            after = tuple(accumulate(m1[:0:-1], initial=0))[::-1]
            for m2, c2 in other.terms.items():
                c = c2 if unit else c1 if c2 == 1 else c1 * c2
                yield tuple(map(add, m1, m2)), (-c if sum(map(mul, after, m2)) % 2 else c)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return isinstance(other, SkewElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- text form -----------------------------------------------------------

    def __repr__(self):
        return "SkewElement(%d, %s)" % (self.n, render_element(self))

    def __str__(self):
        return render_element(self)


_BASES = {}  # (n, d) -> graded_basis(n, d); depends on nothing else, so kept once built


def graded_basis(n: int, d: int) -> list[Monomial]:
    """All degree-d normal monomials, largest exponent vector first.

    The count is C(n+d-1, n-1); the order puts x_1^d first and x_n^d last.
    Each call returns a fresh list, so a caller may change it.
    """
    if d < 0:
        raise ValueError("negative degree")
    if (n, d) not in _BASES:
        monomials = set()
        for combo in combinations_with_replacement(range(n), d):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            monomials.add(tuple(exps))
        result = sorted(monomials, reverse=True)
        if len(result) != comb(n + d - 1, n - 1):
            raise InternalConsistencyError("degree-%d basis of %d variables has %d monomials"
                                           % (d, n, len(result)))
        _BASES[n, d] = result
    return list(_BASES[n, d])


# -- textual rendering and parsing -------------------------------------------
#
# Grammar: terms joined by +/-, each term [coeff *] factor*, a factor is
# x<i>[^<e>], a coefficient is an integer or p/q.  Example: 3/2*x1^2*x2 - x3.


def _mono_key(m: Monomial):
    return (sum(m), tuple(-e for e in m))


def render_element(elt: SkewElement) -> str:
    if not elt.terms:
        return "0"
    parts = []
    for m in sorted(elt.terms, key=_mono_key):
        c = elt.terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append("x%d" % (i + 1))
            elif e > 1:
                factors.append("x%d^%d" % (i + 1, e))
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append(("+ " if c > 0 else "- ") + text)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)?\s*\*?\s*(?P<body>(?:x\d+(?:\^\d+)?(?:\s*\*\s*)?)*)\s*$"
)
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_element(text: str, n: int) -> SkewElement:
    """Parse the rendering grammar back into an element."""
    text = text.strip()
    if text in ("", "0"):
        return SkewElement.zero(n)
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    terms = []
    for chunk in chunks:
        if not chunk or chunk in "+-":
            if chunk:
                raise ValueError("dangling sign in %r" % text)
            continue
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (not m.group("coeff") and not m.group("body")):
            raise ValueError("cannot parse term %r" % chunk)
        coeff = Q(m.group("coeff")) if m.group("coeff") else Q(1)
        exps = [0] * n
        for idx, exp in _FACTOR_RE.findall(m.group("body") or ""):
            i = int(idx)
            if not 1 <= i <= n:
                raise ValueError("variable x%d out of range" % i)
            exps[i - 1] += int(exp) if exp else 1
        terms.append((tuple(exps), sign * coeff))
    return SkewElement(n, terms)
