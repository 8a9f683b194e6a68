"""Exact univariate rational-function arithmetic."""

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from igusa import cli
from igusa.errors import InternalConsistencyError, PoleEvaluationError
from igusa.ratfun import Poly, RationalFunction, binomial, sum_over

from conftest import report_budget


def P(*coeffs):
    return Poly(list(coeffs))


class TestPoly:
    def test_normalization_strips_leading_zeros(self):
        assert P(1, 2, 0, 0).degree == 1
        assert P(0).is_zero()

    def test_pseudo_remainder(self):
        assert P(-1, 0, 1).pseudo_remainder(P(1, 1)).is_zero()  # (t^2-1)/(t+1)
        # by a non-monic divisor: 2^2 (t^2+1) = (2t-1) (2t+1) + 5
        assert P(1, 0, 1).pseudo_remainder(P(1, 2)) == P(5)
        assert P(3, 1).pseudo_remainder(P(1, 0, 1)) == P(3, 1)  # k = 0

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(InternalConsistencyError):
            P(1, 1).exact_div(P(0, 1))
        with pytest.raises(InternalConsistencyError):
            P(1, 1).exact_div(P(2))  # the quotient (t+1)/2 is not in Z[t]
        assert P(1, 1).quotient(P(2)) is None
        assert P(2, 6, 4).exact_div(P(1, 2)) == P(2, 2)

    def test_gcd(self):
        a = P(-1, 0, 1)  # (t-1)(t+1)
        b = P(1, 2, 1)   # (t+1)^2
        assert a.gcd(b) == P(1, 1)
        # the gcd in Z[t] carries the gcd of the contents
        assert (a * 6).gcd(b * -4) == P(2, 2)
        assert P(3).gcd(P(0, 2)) == P(1)

    def test_evaluate(self):
        assert P(1, 2, 3).evaluate(Fraction(1, 2)) == Fraction(11, 4)

    def test_content(self):
        q = P(2, 4)
        assert q.content() == 2
        assert q.primitive() == P(1, 2)
        # (2/3)(1 + 2t) is kept as an integer numerator over 3
        f = RF(q, P(3))
        assert (f.num, f.den) == (P(2, 4), P(3))
        assert RF(q, P(6)).num == P(1, 2)

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            Poly([Fraction(1, 2)])

    def test_str(self):
        assert str(P(-1, 0, 2)) == "2*t^2 - 1"
        assert str(Poly([])) == "0"


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_polys = st.lists(st.integers(-30, 30), min_size=0, max_size=4).map(Poly)
nonzero_polys = small_polys.filter(lambda q: not q.is_zero())


def RF(num, den=None):
    return RationalFunction(num, den)


class TestRationalFunction:
    def test_reduction(self):
        # (t^2-1)/(t+1) reduces to t-1
        f = RF(P(-1, 0, 1), P(1, 1))
        assert f == RF(P(-1, 1))

    def test_integer_normalization(self):
        f = RF(P(3), P(0, 6))
        assert f.num == P(1)
        assert f.den == P(0, 2)

    def test_denominator_sign(self):
        f = RF(P(1), P(-1))
        assert f.den.coeffs[-1] > 0
        assert f.evaluate(0) == -1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RF(P(1), Poly([]))

    def test_evaluate_at_pole(self):
        f = RF(P(1), P(-1, 1))
        with pytest.raises(PoleEvaluationError):
            f.evaluate(1)

    def test_json(self):
        f = RF(P(-1, 0, 1), P(2))
        assert cli._ratfun_doc(f) == {"num": ["-1", "0", "1"], "den": ["2"]}

    @given(small_polys, nonzero_polys, small_polys, nonzero_polys)
    def test_field_laws(self, a, b, c, d):
        x = RF(a, b)
        y = RF(c, d)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) - y == x
        if not y.is_zero():
            assert (x / y) * y == x

    @given(small_polys, nonzero_polys, rationals)
    def test_evaluate_homomorphism(self, a, b, t0):
        x = RF(a, b)
        y = RF(P(1, 2))
        try:
            vx = x.evaluate(t0)
        except PoleEvaluationError:
            return
        assert (x + y).evaluate(t0) == vx + y.evaluate(t0)
        assert (x * y).evaluate(t0) == vx * y.evaluate(t0)

    @given(small_polys, nonzero_polys, nonzero_polys)
    def test_reduction_invariant(self, a, b, junk):
        # multiplying numerator and denominator by junk changes nothing
        assert RF(a, b) == RF(a * junk, b * junk)

    def test_scalar_coercion(self):
        x = RF(P(0, 1))
        assert 1 + x == RF(P(1, 1))
        assert Fraction(1, 2) * x == RF(P(0, 1), P(2))


# -- against the arithmetic over Fraction -------------------------------
#
# The reference is Euclid's algorithm over Q followed by clearing
# denominators and contents, the normalization RationalFunction used when
# its coefficients were Fractions.


def _strip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _qmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _qdivmod(a, b):
    rem = list(a)
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    for i in range(len(rem) - 1, len(b) - 2, -1):
        f = rem[i] / b[-1]
        q[i - len(b) + 1] = f
        for j, c in enumerate(b):
            rem[i - len(b) + 1 + j] -= f * c
    return _strip(q), _strip(rem)


def _integerized(a):
    denom = lcm(*(c.denominator for c in a))
    ints = [int(c * denom) for c in a]
    content = gcd(*ints)
    return [c // content for c in ints], Fraction(content, denom)


def _reference(num, den):
    num, den = _strip(num), _strip(den)
    if not num:
        return [], [1]
    a, b = num, den
    while b:
        a, b = b, _qdivmod(a, b)[1]
    g = [c / a[-1] for c in a]
    num, den = _qdivmod(num, g)[0], _qdivmod(den, g)[0]
    num, num_scale = _integerized(num)
    den, den_scale = _integerized(den)
    scale = num_scale / den_scale
    num = [c * scale.numerator for c in num]
    den = [c * scale.denominator for c in den]
    if den[-1] < 0:
        num, den = [-c for c in num], [-c for c in den]
    return num, den


def _as_int_poly(a):
    """(integer Poly, positive d) with a = Poly / d."""
    d = lcm(*(c.denominator for c in a))
    return Poly([int(c * d) for c in a]), d


coefficients = st.one_of(st.integers(-9, 9), rationals).map(Fraction)
low_degree = st.lists(coefficients, min_size=1, max_size=3)
contents = st.sampled_from([1, 2, 6, Fraction(1, 4), Fraction(-10, 3)])


@st.composite
def fraction_pairs(draw):
    """Rational polynomials num, den of degree <= 6 that share a factor of
    degree <= 2 and carry contents."""
    common = _strip(draw(low_degree)) or [Fraction(1)]
    num = _qmul(_qmul(draw(low_degree), common), draw(low_degree))
    den = _qmul(_qmul(draw(low_degree), common), draw(low_degree))
    num = [c * draw(contents) for c in _strip(num)]
    den = [c * draw(contents) for c in _strip(den)]
    return num, den


primes = st.sampled_from([2, 3, 5, 7])
# (a, b) of the binomial p^b - t^a: constants (a = 0), powers that share a
# factor with b, and t^8 - 16, whose t^4 + 4 splits at p = 2
binomial_keys = st.one_of(st.tuples(st.integers(0, 6), st.integers(1, 6)),
                          st.just((8, 4)))


@st.composite
def binomial_sums(draw):
    """(binomials, p, fractions): a multiset of binomials p^b - t^a, with
    repeats, and up to four (num, d) pairs whose d is a content times
    some of the binomials, each at most to its multiplicity."""
    p = draw(primes)
    binomials = Counter(draw(st.lists(binomial_keys, min_size=1, max_size=4)))
    fractions = []
    for num in draw(st.lists(low_degree, min_size=1, max_size=4)):
        a, da = _as_int_poly(num)
        c = draw(contents)
        d = Poly.const(da * c.numerator)
        for key in binomials.elements():
            if draw(st.booleans()):
                d = d * binomial(*key, p)
        fractions.append((a * c.denominator, d))
    return binomials, p, fractions


@st.composite
def reducible_fractions(draw):
    """(binomials, p, num, content): a numerator that carries some factors
    of the binomials (whole binomials, t^a' - p^b' with a = g a' and
    b = g b' for g = gcd(a, b), and at p = 2 the factors of t^4 + 4)
    over a content times their product."""
    p = draw(primes)
    keys = draw(st.lists(binomial_keys, min_size=1, max_size=4))
    pool = [binomial(a, b, p) for a, b in keys]
    pool += [Poly({0: -p**(b // gcd(a, b)), a // gcd(a, b): 1})
             for a, b in keys if a]
    if p == 2:
        pool += [P(2, 2, 1), P(2, -2, 1), P(4, 0, 0, 0, 1)]
    num = draw(nonzero_polys)
    for factor in draw(st.lists(st.sampled_from(pool), max_size=4)):
        num = num * factor
    return Counter(keys), p, num, draw(st.sampled_from([1, 3, -4, 12]))


class TestAgainstFractionArithmetic:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(fraction_pairs())
    def test_normal_form_matches_reference(self, pair):
        num, den = pair
        if not _strip(den):
            return
        want = _reference(num, den)
        (a, da), (b, db) = _as_int_poly(num or [0]), _as_int_poly(den)
        built = RationalFunction(a * db, b * da)
        divided = (RationalFunction(a, Poly.const(da))
                   / RationalFunction(b, Poly.const(db)))
        for f in (built, divided):
            assert (f.num.coeffs, f.den.coeffs) == want
            assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(binomial_sums())
    def test_sum_over_matches_pairwise_sum(self, case):
        binomials, p, fractions = case
        expected = sum((RationalFunction(n, d) for n, d in fractions),
                       RationalFunction.const(0))
        total = sum_over(binomials, p, fractions)
        assert total == expected
        assert all(type(c) is int for c in total.num.coeffs + total.den.coeffs)


class TestSumOverReduction:
    """`sum_over` reduces by the factors of its known binomials; the
    reference is the full gcd of `RationalFunction(num, den)`."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(reducible_fractions())
    def test_matches_full_gcd(self, case):
        binomials, p, num, content = case
        den = Poly.const(content)
        for a, b in binomials.elements():
            den = den * binomial(a, b, p)
        assert sum_over(binomials, p, [(num, den)]) == RationalFunction(num, den)

    def test_split_cyclotomic_factor(self):
        # at p = 2, t^8 - 16 = (t^2 - 2)(t^2 + 2)(t^2 + 2t + 2)(t^2 - 2t + 2);
        # the last two split Phi_4^hom(t^2, 2) = t^4 + 4
        den = binomial(8, 4, 2)
        num = P(2, 2, 1) * P(3, 1)
        total = sum_over({(8, 4): 1}, 2, [(num, den)])
        assert total == RationalFunction(num, den)
        assert (total.num, total.den) == (P(-3, -1),
                                          P(-4, 0, 0, 0, 1) * P(2, -2, 1))
        twice = sum_over({(8, 4): 2}, 2, [(num * num, den * den)])
        assert (twice.num, twice.den) == (total.num * total.num,
                                          total.den * total.den)

    def test_remainder_at_large_degree_budget(self):
        # t + 7 = Phi_2^hom(t, 7), a factor of t^2 - 49 (d = 2), does not
        # divide a random numerator of degree 20000: its remainder is
        # taken in one pass, with no rescaled copy per step
        rng = random.Random(1)
        num = Poly([rng.randint(-5, 5) for _ in range(20000)])
        den = binomial(2, 2, 7) * binomial(20000, 1, 7)
        started = time.perf_counter()
        total = sum_over({(2, 2): 1, (20000, 1): 1}, 7, [(num, den)])
        report_budget("sum_over at t-degree 20000", started, 1.0)
        assert total.den.degree == 20002

    def test_zero_sum(self):
        total = sum_over({(1, 1): 1}, 3, [(P(1), P(3, -1)), (P(-1), P(3, -1))])
        assert (total.num, total.den) == (Poly([]), P(1))
