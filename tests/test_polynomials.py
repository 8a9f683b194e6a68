"""Parser, printer and ring arithmetic of sparse integer polynomials."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from igusa.errors import PolynomialParseError
from igusa.polynomials import (NESTING_LIMIT, IntegerPolynomial,
                               MonomialIdealSpec, PolynomialMapping,
                               _power_steps, parse_monomial_generator,
                               parse_polynomial)

from conftest import evaluate


def poly(text, n=2):
    return parse_polynomial(text, n)


class TestParser:
    def test_basic_terms(self):
        f = poly("x^4*y^2 + x*y^5")
        assert f.terms == {(4, 2): 1, (1, 5): 1}

    def test_coefficients_and_signs(self):
        f = poly("3*x - 2*y + 7")
        assert f.terms == {(1, 0): 3, (0, 1): -2, (0, 0): 7}

    def test_unary_minus_and_parens(self):
        assert poly("-(x - y)") == poly("y - x")
        assert poly("--x") == poly("x")
        assert poly("x*-y") == poly("-x*y")

    def test_power_binds_tighter_than_product(self):
        assert poly("x*y^2") == poly("x*(y^2)")

    def test_expansion(self):
        assert poly("(x + y)^2") == poly("x^2 + 2*x*y + y^2")

    def test_numbered_variables(self):
        f = parse_polynomial("x1*x4^2", 4)
        assert f.terms == {(1, 0, 0, 2): 1}

    def test_aliases_coincide_with_numbered(self):
        assert parse_polynomial("x*y*z", 3) == parse_polynomial("x1*x2*x3", 3)

    def test_whitespace_insensitive(self):
        assert poly(" x +\t y ") == poly("x+y")

    def test_error_position(self):
        for text, message, position in [
                ("x + @", "expected a number, variable or '('", 4),
                ("(x+y", "expected ')'", 4),
                ("x^", "exponent expected after '^'", 2)]:
            with pytest.raises(PolynomialParseError,
                               match=re.escape(message)) as err:
                poly(text)
            assert err.value.position == position

    def test_unknown_variable(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("z", 2)

    def test_trailing_garbage(self):
        with pytest.raises(PolynomialParseError):
            poly("x + y)")

    def test_empty_input(self):
        with pytest.raises(PolynomialParseError):
            poly("")

    def test_exponent_limit(self):
        with pytest.raises(PolynomialParseError):
            poly("x^10000000")

    def test_nesting_limit(self):
        deepest = NESTING_LIMIT * "(" + "x" + NESTING_LIMIT * ")"
        assert poly(f"{deepest} + {deepest}^2") == poly("x + x^2")
        for depth in (NESTING_LIMIT + 1, 300, 10**5):
            with pytest.raises(PolynomialParseError) as err:
                poly("y + " + depth * "(" + "x" + depth * ")")
            # at the first '(' past the limit
            assert err.value.position == 4 + NESTING_LIMIT

    def test_monomial_generator(self):
        assert parse_monomial_generator("x^5*y", 2) == (5, 1)
        with pytest.raises(PolynomialParseError):
            parse_monomial_generator("x + y", 2)
        with pytest.raises(PolynomialParseError):
            parse_monomial_generator("2*x", 2)


exponents = st.tuples(st.integers(0, 5), st.integers(0, 5))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(
    lambda terms: IntegerPolynomial(2, terms))


class TestPowers:
    """A power of one term is written down at once, any other one expanded
    by square and multiply; both give the product of e copies."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(polys.filter(lambda a: len(a.terms) <= 3), st.integers(0, 7))
    def test_power_is_the_repeated_product(self, base, e):
        product = poly("1")
        for _ in range(e):
            product = product * base
        assert poly(f"({base})^{e}") == product
        assert poly(f"-({base})^{e}") == -1 * product

    def test_one_term_figures(self):
        assert poly("(-2*x*y^3)^3").terms == {(3, 9): -8}
        assert poly("(-x)^0").terms == {(0, 0): 1}
        assert poly("x^1000000*y").terms == {(1000000, 1): 1}
        assert poly("0^3 + (x - x)^2").terms == {}


class TestPowerGuard:
    """The work of a power's square-and-multiply chain is weighed before
    its first product."""

    def test_trinomial_figures(self):
        base = parse_polynomial("x + y + z", 3)
        assert _power_steps(base, 160) == 28937988  # admitted, about 6 s
        assert _power_steps(base, 240) == 184988538  # took 42 s

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(polys.filter(lambda a: a.terms), st.integers(0, 7))
    def test_estimate_bounds_the_chain(self, base, e):
        # the chain replayed, each product weighed by its actual terms
        steps, result, power, left = 0, poly("1"), base, e
        while left:
            if left & 1:
                steps += len(result.terms) * len(power.terms) * 2
                result = result * power
            left >>= 1
            if left:
                steps += len(power.terms)**2 * 2
                power = power * power
        assert steps <= _power_steps(base, e)


class TestRingLaws:
    @given(polys, polys, polys)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()

    @given(polys, st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    def test_evaluate_respects_product(self, a, point):
        b = parse_polynomial("x + 2*y", 2)
        assert evaluate(a * b, point) == \
            evaluate(a, point) * evaluate(b, point)

    @given(polys, st.sampled_from([2, 3, 5, 7, 13]),
           st.tuples(st.integers(0, 30), st.integers(0, 30)))
    def test_evaluate_mod_matches_exact(self, a, p, point):
        modulus = p**3
        residue = tuple(v % modulus for v in point)
        assert a.mod_evaluator(modulus)(residue) == evaluate(a, point) % modulus

    @given(polys)
    def test_print_parse_fixpoint(self, a):
        text = str(a)
        again = parse_polynomial(text, 2)
        assert again == a
        assert str(again) == text


class TestDerivative:
    def test_known(self):
        f = poly("x^4*y^2 + x*y^5")
        assert f.partial_derivative(1) == poly("4*x^3*y^2 + y^5")
        assert f.partial_derivative(2) == poly("2*x^4*y + 5*x*y^4")

    @given(polys, polys)
    def test_leibniz(self, a, b):
        lhs = (a * b).partial_derivative(1)
        rhs = a.partial_derivative(1) * b + a * b.partial_derivative(1)
        assert lhs == rhs


class TestMappingAndIdeal:
    def test_mapping_validates(self):
        with pytest.raises(ValueError):
            PolynomialMapping([poly("x + 1")])
        with pytest.raises(ValueError):
            PolynomialMapping([poly("0"), poly("0")])
        with pytest.raises(ValueError):
            PolynomialMapping([poly("x"), parse_polynomial("x1", 3)])

    def test_mapping_support_is_union(self):
        ff = PolynomialMapping([poly("x + y"), poly("x*y")])
        assert ff.support == {(1, 0), (0, 1), (1, 1)}
        assert ff.t == 2

    def test_ideal_validates(self):
        with pytest.raises(ValueError):
            MonomialIdealSpec(2, [])
        with pytest.raises(ValueError):
            MonomialIdealSpec(2, [(0, 0)])
        with pytest.raises(ValueError):
            MonomialIdealSpec(2, [(1, -1)])

    def test_ideal_support_and_str(self):
        spec = MonomialIdealSpec(2, [(5, 1), (3, 2)])
        assert spec.support == {(5, 1), (3, 2)}
        assert str(spec) == "(x^5*y, x^3*y^2)"
