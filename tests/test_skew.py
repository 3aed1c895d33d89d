"""The sign conventions and arithmetic of O_{-1}(k^n)."""

import random
from fractions import Fraction as Q
from itertools import product
from math import comb

import pytest
from conftest import assert_tidy, random_element
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdg.skew import (
    SkewElement,
    graded_basis,
    mono_mul,
    normalize_word,
    parse_element,
    render_element,
)


def test_normalize_word_examples():
    assert normalize_word([2, 1], 3) == (-1, (1, 1, 0))
    assert normalize_word([1, 2, 1], 3) == (-1, (2, 1, 0))
    assert normalize_word([3, 2, 1], 3) == (-1, (1, 1, 1))
    assert normalize_word([], 3) == (1, (0, 0, 0))


def test_normalize_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        normalize_word([0], 3)
    with pytest.raises(ValueError):
        normalize_word([4], 3)


def test_mono_mul_examples():
    assert mono_mul((0, 1, 0), (1, 0, 0)) == (-1, (1, 1, 0))
    # A square of the smallest variable present commutes past everything.
    assert mono_mul((2, 0, 0), (0, 1, 1)) == (1, (2, 1, 1))
    assert mono_mul((1, 1, 0), (1, 0, 1)) == (-1, (2, 1, 1))


def test_mono_mul_agrees_with_word_normalization():
    # Exhaustive on n = 3, degrees <= 4 on each side.
    n = 3
    monos = [m for d in range(5) for m in graded_basis(n, d)]

    def word_of(mono):
        out = []
        for i, e in enumerate(mono):
            out.extend([i + 1] * e)
        return out

    for a in monos:
        for b in monos:
            sign, prod = mono_mul(a, b)
            wsign, wprod = normalize_word(word_of(a) + word_of(b), n)
            assert (sign, prod) == (wsign, wprod), (a, b)


def test_defining_relation_cancels():
    x1 = SkewElement.variable(1, 3)
    x2 = SkewElement.variable(2, 3)
    assert (x1 * x2 + x2 * x1).is_zero()


def test_squares_are_central():
    x1 = SkewElement.variable(1, 3)
    x2 = SkewElement.variable(2, 3)
    sq = x1 * x1
    assert (sq * x2 - x2 * sq).is_zero()


def test_correction_term_identity():
    # (l1 x1 - x2)(l2 x1 - x3) + (l2 x1 - x3)(l1 x1 - x2) = 2 l1 l2 x1^2
    n = 3
    x1 = SkewElement.variable(1, n)
    for l1 in (Q(1), Q(-2), Q(3, 2)):
        for l2 in (Q(1), Q(5), Q(-1, 3)):
            y1 = x1.scale(l1) - SkewElement.variable(2, n)
            y2 = x1.scale(l2) - SkewElement.variable(3, n)
            assert y1 * y2 + y2 * y1 == (x1 * x1).scale(2 * l1 * l2)


def test_graded_basis_counts_and_order():
    assert graded_basis(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(graded_basis(3, 2)) == 6
    assert len(graded_basis(2, 5)) == 6
    for n in range(1, 5):
        for d in range(11):
            assert len(graded_basis(n, d)) == comb(n + d - 1, n - 1)


def test_mixing_variable_counts_is_an_error():
    with pytest.raises(ValueError):
        SkewElement.variable(1, 2) * SkewElement.variable(1, 3)


mono2 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(mono2, st.integers(-3, 3)), max_size=3),
       st.lists(st.tuples(mono2, st.integers(-3, 3)), max_size=3),
       st.lists(st.tuples(mono2, st.integers(-3, 3)), max_size=3))
def test_multiplication_associative(a, b, c):
    ea = SkewElement(3, a)
    eb = SkewElement(3, b)
    ec = SkewElement(3, c)
    assert (ea * eb) * ec == ea * (eb * ec)


def test_sign_symmetry():
    # sign(ab) * sign(ba) = (-1)^{|a||b| - sum a_i b_i}
    monos = [m for d in range(1, 4) for m in graded_basis(3, d)]
    for a in monos:
        for b in monos:
            s1, _ = mono_mul(a, b)
            s2, _ = mono_mul(b, a)
            expected = (-1) ** ((sum(a) * sum(b) - sum(x * y for x, y in zip(a, b))) % 2)
            assert s1 * s2 == expected


def test_render_and_parse():
    elt = SkewElement(3, {(2, 1, 0): Q(3, 2), (0, 0, 1): Q(-1)})
    text = render_element(elt)
    assert text == "-x3 + 3/2*x1^2*x2"
    assert parse_element(text, 3) == elt
    assert parse_element("0", 3).is_zero()
    assert parse_element("2", 3) == SkewElement.one(3).scale(2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(mono2, st.integers(-9, 9)), max_size=5))
def test_parse_roundtrip(terms):
    elt = SkewElement(3, terms)
    assert parse_element(render_element(elt), 3) == elt


def test_graded_basis_returns_a_fresh_list():
    first = graded_basis(3, 2)
    expect = list(first)
    first.reverse()
    first.append((9, 9, 9))
    del first[0]
    assert graded_basis(3, 2) == expect
    assert graded_basis(3, 2) is not graded_basis(3, 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_arithmetic_results_are_tidy(n):
    rng = random.Random(7000 + n)
    x1 = SkewElement.variable(1, n)
    xn = SkewElement.variable(n, n)
    # (x1 + xn)^2 = x1^2 + xn^2 when n > 1: the mixed products cancel.
    fixed = [SkewElement.zero(n), SkewElement.one(n), x1, x1 + xn, x1 - xn.scale(Q(2, 3))]
    for _ in range(40):
        a = random_element(rng, n, rng.randint(0, 6))
        b = random_element(rng, n, rng.randint(0, 6))
        c = rng.choice(fixed)
        # a - a, a + (-a) and a + (b - a) cancel term by term.
        results = [a + b, a - b, a - a, a + (-a), a + (b - a), -a, a * b, b * a, a * c, c * a,
                   c * c, (a + c) * (a - c)]
        results += [a.scale(k) for k in (0, 1, -1, Q(1), Q(-1), 2, Q(-3, 4))]
        results += [3 * a, a * Q(-1, 2)]
        for elt in results:
            assert_tidy(elt, n)
        assert a + (b - a) == b
        assert (a - a).is_zero() and (a + (-a)).is_zero() and a.scale(0).is_zero()
        assert a.scale(1) == a and a.scale(-1) == -a and a.scale(1).terms is not a.terms
