"""Brute-force integration oracles: brackets, measures, closed values."""

import itertools
from fractions import Fraction

import pytest

from igusa import oracle
from igusa.counting import CountTriple
from igusa.errors import HypothesisError, SizeGuardError
from igusa.polynomials import PolynomialMapping, parse_polynomial
from igusa.problem import ProblemSpec, compute
from igusa.zeta import l_delta


def poly(text, n=2):
    return parse_polynomial(text, n)


def torus_value(counts, p, n, s0):
    """The formula's torus integral: the L factor at t = p^(-s0)."""
    return l_delta(counts, p, n, 1).evaluate(Fraction(1, p**s0))


class TestBracket:
    def test_invariants(self):
        b = oracle.Bracket(Fraction(1, 3), Fraction(1, 2))
        assert b.width == Fraction(1, 6)
        assert b.contains(Fraction(2, 5))
        assert not b.contains(Fraction(9, 10))
        with pytest.raises(ValueError):
            oracle.Bracket(Fraction(1), Fraction(0))


class TestTruncatedIntegral:
    def test_geometric_series_one_variable(self):
        # integral of |x|^s over Z_3 at s = 1 is (2/3)/(1 - 1/9) = 3/4
        f = parse_polynomial("x", 1)
        b = oracle.truncated_integral(f, None, 3, 1, 6)
        assert b.contains(Fraction(3, 4))
        assert b.width < Fraction(1, 3**5)

    def test_nested_brackets(self):
        f = poly("x^2 + y^3")
        g = poly("x*y")
        previous = None
        for M in (2, 3, 4, 5):
            b = oracle.truncated_integral(f, g, 2, 1, M)
            if previous is not None:
                assert previous.lo <= b.lo
                assert b.hi <= previous.hi
            previous = b

    def test_contains_formula_value(self):
        f = poly("x^2 + y^3")
        g = poly("x*y")
        for p, s0 in [(2, 1), (3, 2)]:
            comp = compute(ProblemSpec("single", 2, p, f, g))
            value = comp.zeta.evaluate(Fraction(1, p**s0))
            b = oracle.truncated_integral(f, g, p, s0, 5)
            assert b.contains(value)

    def test_ideal_mode_monomial_measure(self):
        from igusa.polynomials import MonomialIdealSpec
        spec = ProblemSpec("ideal", 2, 2, MonomialIdealSpec(2, [(1, 1)]),
                           poly("x*y"))
        comp = compute(spec)
        for s0 in (1, 2):
            value = comp.zeta.evaluate(Fraction(1, 2**s0))
            b = oracle.truncated_integral(spec.fside, spec.g, 2, s0, 8)
            assert b.contains(value)

    def test_mapping_mode(self):
        ff = PolynomialMapping([poly("x", 3), poly("y", 3)])
        g = parse_polynomial("x + y + z + x*y*z", 3)
        comp = compute(ProblemSpec("mapping", 3, 3, ff, g))
        value = comp.zeta.evaluate(Fraction(1, 3))
        b = oracle.truncated_integral(ff, g, 3, 1, 3)
        assert b.contains(value)

    def test_size_guard(self):
        f = poly("x + y")
        with pytest.raises(SizeGuardError):
            oracle.truncated_integral(f, None, 101, 1, 4)


class TestMeasureClosedValue:
    def test_single_mode_grid(self):
        f = poly("x + y + x*y")
        g = poly("x - y")
        f3 = parse_polynomial("x + y + x*y*z", 3)
        g3 = parse_polynomial("x - y + z^2", 3)
        found = 0
        for p in (2, 3, 5):
            for n, (fp, gp) in ((2, (f, g)), (3, (f3, g3))):
                a = oracle.find_base_point(fp, gp, p)
                if a is None:
                    continue
                for k in (1, 2, 3):
                    for l in (1, 2):
                        if k < l:
                            continue
                        got = oracle.measure_A_kl(fp, gp, a, p, k, l)
                        assert got == oracle.closed_measure_value(p, n, k, l)
                        found += 1
        assert found > 10

    def test_mapping_mode(self):
        ff = PolynomialMapping([parse_polynomial("x + z", 3),
                                parse_polynomial("y - z", 3)])
        g = parse_polynomial("x + y + z + x*y*z", 3)
        found = 0
        for p in (3, 5):
            a = oracle.find_base_point(ff, g, p)
            if a is None:
                continue
            for k in (1, 2):
                for l in (1, 2):
                    got = oracle.measure_A_kl(ff, g, a, p, k, l)
                    assert got == oracle.closed_measure_value(p, 3, k, l, t=2)
                    found += 1
        assert found


    def test_invalid_base_point_rejected(self):
        f = poly("x + y + x*y")
        g = poly("x - y")
        with pytest.raises(HypothesisError):
            # (1, 2) annihilates neither factor mod 3
            oracle.measure_A_kl(f, g, (1, 2), 3, 1, 1)

    def test_k_below_l(self):
        # the closed value p^(-n-(k-1)t-l+1) holds for k < l as well
        pairs = {2: (poly("x + y + x*y"), poly("x - y")),
                 3: (parse_polynomial("x + y + x*y*z", 3),
                     parse_polynomial("x - y + z^2", 3))}
        found = 0
        for p, (n, (f, g)) in itertools.product((2, 3, 5), pairs.items()):
            a = oracle.find_base_point(f, g, p)
            if a is None:
                continue
            for k, l in ((1, 2), (1, 3), (2, 3)):
                assert oracle.measure_A_kl(f, g, a, p, k, l) == \
                    oracle.closed_measure_value(p, n, k, l)
                found += 1
        assert found >= 9


class TestCosetIntegral:
    def test_four_cases_single(self):
        f = poly("x + y + x*y")
        g = poly("x - y")
        for p in (2, 3, 5):
            for fz, gz in itertools.product((False, True), repeat=2):
                a = oracle.find_base_point(f, g, p, want_fzero=fz,
                                           want_gzero=gz)
                if a is None:
                    continue
                for s0 in (1, 2):
                    b = oracle.coset_integral(a, f, g, p, s0, 4)
                    value = oracle.coset_closed_value(fz, gz, p, 2, s0)
                    assert b.contains(value), (p, fz, gz, s0)

    def test_four_cases_mapping(self):
        ff = PolynomialMapping([parse_polynomial("x + z", 3),
                                parse_polynomial("y - z", 3)])
        g = parse_polynomial("x + y + z + x*y*z", 3)
        found = 0
        for p in (2, 3, 5):
            for fz, gz in itertools.product((False, True), repeat=2):
                a = oracle.find_base_point(ff, g, p, want_fzero=fz,
                                           want_gzero=gz)
                if a is None:
                    continue
                for s0 in (1, 2):
                    b = oracle.coset_integral(a, ff, g, p, s0, 3)
                    value = oracle.coset_closed_value(fz, gz, p, 3, s0, t=2)
                    assert b.contains(value), (p, fz, gz, s0)
                    found += 1
        assert found

    def test_exact_when_units(self):
        # both factors are units on the whole coset: bracket is degenerate
        f = poly("x + y")
        g = poly("x*y")
        b = oracle.coset_integral((1, 1), f, g, 3, 1, 3)
        assert b.lo == b.hi == Fraction(1, 9)

    def test_hypothesis_checked(self):
        g = poly("x^4*y^2 + x*y^5")
        f = poly("x + y")
        # (1, 2) is a singular zero of g mod 3
        with pytest.raises(HypothesisError):
            oracle.coset_integral((1, 2), f, g, 3, 1, 3)


class TestTorusIntegral:
    def test_constant_integrand(self):
        f = poly("x + y + 1")  # unit on the torus mod 2
        b = oracle.torus_integral(f, None, 2, 1, 1)
        assert b.lo == b.hi == Fraction(1, 4)

    def test_matches_npq_closed_form(self):
        from igusa.counting import count_triple
        f = poly("x + y + x*y")
        g = poly("x - y")
        for p in (2, 3, 5):
            c = count_triple(f, g, p)
            for s0 in (1, 2):
                b = oracle.torus_integral(f, g, p, s0, 3)
                assert b.contains(torus_value(c, p, 2, s0)), (p, s0)

    def test_measure_only(self):
        # monomial f side is a unit on the torus, so only |g| contributes
        g = poly("x^4*y^2 + x*y^5")
        f = poly("x*y")
        value = torus_value(CountTriple(0, 36, 0), 13, 2, 1)
        assert value == Fraction(144 - Fraction(36 * 13, 14), 13**2)
        b = oracle.torus_integral(f, g, 13, 1, 2)
        assert b.contains(value)

    def test_degenerate_point_rejected(self):
        g = poly("x^4*y^2 + x*y^5")
        f = poly("x + y")
        with pytest.raises(HypothesisError):
            oracle.torus_integral(f, g, 3, 1, 2)


class TestPinnedBrackets:
    """Exact brackets, recorded before the three integrators were merged
    into one residue loop; any change to the loop must keep them."""

    def test_truncated_fixture(self):
        from conftest import example_ideal, example_measure
        b = oracle.truncated_integral(example_ideal(), example_measure(),
                                      2, 1, 6)
        assert (b.lo, b.hi) == (Fraction(488721, 4194304),
                                Fraction(32865646415053, 281474976710656))

    def test_truncated_single(self):
        b = oracle.truncated_integral(poly("x^2 + y^3"), poly("x*y"), 2, 1, 5)
        assert (b.lo, b.hi) == (Fraction(4175, 16384), Fraction(4203, 16384))

    def test_truncated_mapping(self):
        ff = PolynomialMapping([poly("x", 3), poly("y", 3)])
        b = oracle.truncated_integral(ff, poly("x + y + z + x*y*z", 3),
                                      3, 1, 3)
        assert (b.lo, b.hi) == (Fraction(924316, 1594323),
                                Fraction(8346307, 14348907))

    def test_truncated_one_variable(self):
        b = oracle.truncated_integral(poly("x", 1), None, 3, 1, 6)
        assert (b.lo, b.hi) == (Fraction(132860, 177147),
                                Fraction(398581, 531441))

    def test_coset(self):
        b = oracle.coset_integral((1, 1), poly("x + y + x*y"), poly("x - y"),
                                  3, 1, 4)
        assert (b.lo, b.hi) == (Fraction(33124, 4782969),
                                Fraction(299209, 43046721))

    def test_torus(self):
        b = oracle.torus_integral(poly("x + y + x*y"), poly("x - y"), 3, 2, 3)
        assert (b.lo, b.hi) == (Fraction(133798, 531441),
                                Fraction(3619672, 14348907))
