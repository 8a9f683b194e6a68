"""Zeta assembly: S and L factors, candidate poles, structural identities."""

import itertools
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from igusa import cli, problem, zeta
from igusa.cones import partition_pair, partition_single
from igusa.counting import CountTriple
from igusa.errors import DegeneracyError, InternalConsistencyError
from igusa.newton import NewtonPolyhedron
from igusa.polynomials import PolynomialMapping, parse_polynomial
from igusa.problem import ProblemSpec, compute
from igusa.ratfun import Poly, RationalFunction
from igusa.zeta import FactoredPiece

from conftest import (class_value, classify, example_ideal, example_measure,
                      example_spec, partition_rays, reference_coset_value,
                      report_budget)
from test_fuzz import problem_texts


def example_computation(p=13):
    return compute(example_spec(p))


class TestSDelta:
    def test_zero_cone(self):
        comp = example_computation()
        term = comp.terms[0]
        assert term.S == 1
        assert term.pieces == (FactoredPiece(((0, 0),), ()),)

    def test_delta4_carries_parallelepiped_term(self):
        comp = example_computation()
        piece, = comp.terms[4].pieces
        assert set(piece.factors) == {(11, 12), (5, 8)}
        assert sorted(piece.terms) == [(0, 0), (8, 10)]

    def test_factored_expansion_matches_reduced(self):
        # each piece evaluated straight from its terms and factors, with
        # p^(a*s+b) = p^b / t^a, not through the sum that built S
        p = 13
        comp = example_computation(p)
        for tval in (Fraction(1, p), Fraction(1, p**2), Fraction(2, 7)):
            def power(a, b):
                return Fraction(p**b) / tval**a

            for term in comp.terms:
                value = sum(
                    sum(power(a, b) for a, b in piece.terms)
                    / prod(power(a, b) - 1 for a, b in piece.factors)
                    for piece in term.pieces)
                assert value == term.S.evaluate(tval)

    def test_series_agreement(self):
        # partial lattice sum vs closed form, within the geometric tail
        p, s0, B = 5, 1, 40
        comp = example_computation(p)
        t0 = Fraction(1, p**s0)
        gamma_f, gamma_g = comp.partition.polyhedra
        for index, term in enumerate(comp.terms):
            cone = term.cone
            partial = Fraction(0)
            for k in itertools.product(range(B + 1), repeat=2):
                if sum(k) > B or classify(comp.partition, k) is not cone:
                    continue
                e = s0 * gamma_f.m_value(k) + gamma_g.m_value(k) + sum(k)
                partial += Fraction(1, p**e)
            tail = Fraction(0)
            for m in range(B + 1, B + 200):
                tail += Fraction(m + 1, p**m)
            value = term.S.evaluate(t0)
            assert abs(value - partial) <= tail, index


# -- reference: the four-term L ---------------------------------------


def reference_l_delta(counts, p, n, t_count) -> RationalFunction:
    """Four-term local factor for a mapping with tc = t_count components,

        L = ((p-1)^n - p^tc N (1-t)/(p^tc - t) - pP/(p+1)
             - pQ (p^(tc-1)(p+1) - (p^(tc-1)+1) t) / ((p+1)(p^tc - t))) / p^n,

    built over its common denominator p^n (p+1) (p^tc - t) and reduced once.

    One formula serves every f side: a single polynomial is t_count = 1,
    and a monomial ideal, whose f side never vanishes on the torus, has
    N = Q = 0, which leaves the constant ((p-1)^n - pP/(p+1)) / p^n.
    """
    q, ptc = p**(t_count - 1), p**t_count
    ptc_minus_t = Poly({0: ptc, 1: -1})
    num = (ptc_minus_t * ((p - 1)**n * (p + 1) - p * counts.P)
           + Poly([-1, 1]) * (ptc * (p + 1) * counts.N)
           + Poly([-q * (p + 1), q + 1]) * (p * counts.Q))
    return RationalFunction(num, ptc_minus_t * (p**n * (p + 1)))


PRIMES = [q for q in range(2, 1010) if all(q % d for d in range(2, q))]


@st.composite
def local_factor_cases(draw):
    """(counts, p, n, t_count): p <= 1009, n <= 4, t_count <= 3 and
    N + P + Q <= (p-1)^n, each count drawn up to what is left."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    left = (p - 1)**n
    N = draw(st.integers(0, left))
    P = draw(st.integers(0, left - N))
    Q = draw(st.integers(0, left - N - P))
    return CountTriple(N, P, Q), p, n, draw(st.integers(1, 3))


class TestCosetValue:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(local_factor_cases())
    def test_l_delta_equals_four_term_formula(self, case):
        assert zeta.l_delta(*case) == reference_l_delta(*case)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 4))
    def test_coset_value_equals_four_cases(self, p, n, t_count, s0):
        for fzero, gzero in itertools.product((False, True), repeat=2):
            assert class_value(fzero, gzero, p, n, s0, t_count) == \
                reference_coset_value(fzero, gzero, p, n, s0, t_count)


class TestLDelta:
    def test_ideal_formula(self):
        # an ideal's f side never vanishes on the torus: with N = Q = 0
        # the mapping formula is a constant, whatever t is
        from igusa.counting import CountTriple
        for p, n, t, P in ((13, 2, 1, 36), (2, 1, 1, 0), (2, 3, 2, 1),
                           (3, 3, 2, 5), (5, 4, 3, 17), (7, 2, 1, 6),
                           (1009, 2, 3, 1000)):
            L = zeta.l_delta(CountTriple(0, P, 0), p, n, t)
            assert L == \
                (Fraction((p - 1)**n) - Fraction(p * P, p + 1)) / p**n

    def test_single_formula_at_sample_points(self):
        from igusa.counting import CountTriple
        p = 5
        counts = CountTriple(3, 2, 1)
        L = zeta.l_delta(counts, p, 2, 1)
        for s0 in (1, 2, 3):
            ps = p**s0
            expected = Fraction(
                (p - 1)**2
                - p * 3 * Fraction(ps - 1, ps * p - 1)
                - 2 * Fraction(p, p + 1)
                - p * 1 * Fraction(ps * (p + 1) - 2, (ps * p - 1) * (p + 1)),
                p**2)
            assert L.evaluate(Fraction(1, ps)) == expected

    def test_mapping_formula_at_sample_points(self):
        from igusa.counting import CountTriple
        p, tc = 3, 2
        counts = CountTriple(4, 1, 2)
        L = zeta.l_delta(counts, p, 3, tc)
        for s0 in (1, 2):
            ps = p**s0
            expected = Fraction(
                (p - 1)**3
                - p**tc * 4 * Fraction(ps - 1, ps * p**tc - 1)
                - 1 * Fraction(p, p + 1)
                - p * 2 * Fraction(p**(tc - 1) * (ps * (p + 1) - 1) - 1,
                                   (ps * p**tc - 1) * (p + 1)),
                p**3)
            assert L.evaluate(Fraction(1, ps)) == expected

    def test_mapping_with_one_component_is_single(self):
        # the same cones, counts and local factors through either mode
        f = parse_polynomial("x^2 + y^3", 2)
        single = compute(ProblemSpec("single", 2, 5, f, None))
        mapped = compute(ProblemSpec("mapping", 2, 5,
                                     PolynomialMapping([f]), None))
        assert [(t.counts, t.L) for t in single.terms] == \
            [(t.counts, t.L) for t in mapped.terms]


class TestAssembly:
    def test_degeneracy_refusal_and_override(self):
        spec = example_spec(3)
        with pytest.raises(DegeneracyError):
            compute(spec)
        comp = compute(spec, override=True)
        assert any("unverified hypothesis" in note
                   for note in cli.compute_report(comp)["zeta"]["notes"])

    def test_redundant_generator_invariance(self):
        from igusa.polynomials import MonomialIdealSpec
        base = example_spec(13)
        fat = ProblemSpec("ideal", 2, 13,
                          MonomialIdealSpec(2, [(5, 1), (3, 2), (2, 5),
                                                (6, 3), (7, 2)]),
                          example_measure())
        assert compute(fat).zeta == compute(base).zeta

    def test_mapping_with_one_component_equals_single_mode(self):
        f = parse_polynomial("x^2 + y^3", 2)
        g = parse_polynomial("x*y", 2)
        for p in (5, 7):
            single = compute(ProblemSpec("single", 2, p, f, g))
            mapped = compute(ProblemSpec(
                "mapping", 2, p, PolynomialMapping([f]), g))
            assert single.zeta == mapped.zeta

    def test_specialization_to_measure_integral(self):
        # at s = 0 the ideal norm drops out, leaving the integral of |g|,
        # which is the trivial-measure zeta of g at s = 1
        for p in (5, 13):
            with_ideal = compute(example_spec(p))
            g_alone = compute(ProblemSpec("single", 2, p,
                                          example_measure(), None))
            assert with_ideal.zeta.evaluate(1) == \
                g_alone.zeta.evaluate(Fraction(1, p))

    def test_binomial_shared_by_l_and_s(self):
        # f = x (1 + y): L's 5^(s+1) - 1 is also the binomial of the S
        # piece on the ray (1, 0), so Z's denominator holds it twice
        f = parse_polynomial("x + x*y", 2)
        comp = compute(ProblemSpec("single", 2, 5, f, None))
        assert comp.binomials == {(0, 1): 1, (1, 1): 2}
        z_x = RationalFunction(Poly([4]), Poly([5, -1]))  # Z of x, of 1 + y
        assert comp.zeta == z_x * z_x == RationalFunction(
            Poly([16]), Poly([25, -10, 1]))

    def test_trivial_measure_single(self):
        # Z for f = x + y over Z_2: hand geometric series
        # sum over k of measure(ord f = k) p^{-ks}; known closed form
        f = parse_polynomial("x + y", 2)
        comp = compute(ProblemSpec("single", 2, 2, f, None))
        p = 2
        for s0 in (1, 2, 3):
            t0 = Fraction(1, p**s0)
            # direct: split by min coordinate order and Hensel structure
            from igusa.oracle import truncated_integral
            bracket = truncated_integral(f, None, p, s0, 9)
            assert bracket.lo <= comp.zeta.evaluate(t0) <= bracket.hi


    def test_trivial_measure_ideal_closed_forms(self):
        from igusa.polynomials import MonomialIdealSpec
        from igusa.ratfun import Poly, RationalFunction
        for p in (2, 3, 5, 7):
            # the maximal ideal (x, y): Z = (p^2 - 1) / (p^2 - t)
            spec = ProblemSpec("ideal", 2, p,
                               MonomialIdealSpec(2, [(1, 0), (0, 1)]), None)
            assert compute(spec).zeta == RationalFunction(
                Poly([p**2 - 1]), Poly([p**2, -1]))
            # a principal ideal x^a y^b: Z = (p-1)^2 / ((p-t^a)(p-t^b))
            for a, b in ((1, 2), (2, 3)):
                spec = ProblemSpec("ideal", 2, p,
                                   MonomialIdealSpec(2, [(a, b)]), None)
                den = Poly({0: p, a: -1}) * Poly({0: p, b: -1})
                assert compute(spec).zeta == RationalFunction(
                    Poly([(p - 1)**2]), den)

    def test_trivial_measure_ideal_against_oracle(self):
        from igusa.oracle import truncated_integral
        p = 5
        comp = compute(ProblemSpec("ideal", 2, p, example_ideal(), None))
        assert comp.zeta.evaluate(1) == 1  # s = 0: the volume of Z_p^2
        bracket = truncated_integral(example_ideal(), None, p, 1, 3)
        assert bracket.contains(comp.zeta.evaluate(Fraction(1, p)))


class TestNonSimplicialFans:
    """Closed forms whose fans hold non-simplicial cones, so that Z goes
    through the pulling triangulation of S."""

    @staticmethod
    def non_simplicial(comp):
        return sum(len(cone.rays) > cone.dim for cone in comp.partition.cones)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_xy_plus_z(self, p):
        # z -> z - xy preserves the measure, so Z is that of |z|^s
        f = parse_polynomial("x*y + z", 3)
        comp = compute(ProblemSpec("single", 3, p, f, None))
        assert len(comp.partition.cones) == 14
        assert self.non_simplicial(comp) == 1
        assert comp.zeta == RationalFunction(Poly([p - 1]),
                                                     Poly([p, -1]))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_split_quadratic_form_in_four_variables(self, p):
        # Igusa's closed form for x1 x2 + x3 x4
        f = parse_polynomial("x1*x2 + x3*x4", 4)
        comp = compute(ProblemSpec("single", 4, p, f, None))
        assert len(comp.partition.cones) == 34
        assert self.non_simplicial(comp) == 7
        assert comp.zeta == RationalFunction(
            Poly([(p - 1) * (p**2 - 1)]), Poly([p, -1]) * Poly([p**2, -1]))


class TestLargeDiagonalCurves:
    """x^a + y^b at p = 7: t-degree about ab, which per-sum reduction over
    Fractions could not reach in minutes. At (100, 101), t-degree about
    10^4, the reduction by the denominator's known binomial factors must
    keep the whole computation under a second."""

    BUDGETS = {(12, 19): 10.0, (20, 31): 10.0, (100, 101): 1.0}

    @pytest.mark.parametrize("a, b", list(BUDGETS))
    def test_values_at_zero_and_one(self, a, b):
        started = time.perf_counter()
        p = 7
        f = parse_polynomial(f"x^{a} + y^{b}", 2)
        comp = compute(ProblemSpec("single", 2, p, f, None))
        z = comp.zeta
        assert z.evaluate(1) == 1  # s = 0: the volume of Z_p^2
        zeros = sum(1 for x in range(p) for y in range(p)
                    if (x**a + y**b) % p == 0)
        assert z.evaluate(0) == 1 - Fraction(zeros, p**2)  # mu(ord f = 0)
        numerator, const, factors = comp.factored()
        for t in (0, 1):  # the view is Z
            assert Fraction(numerator.evaluate(t), const * prod(
                p**b - t**a for a, b in factors)) == z.evaluate(t)
        report_budget(f"x^{a}+y^{b} at p = 7", started, self.BUDGETS[a, b])


class TestDiagonalSurface:
    """x^5 + y^7 + z^11 at p = 2: the cost is the geometry, a fan with the
    ray (77, 55, 35) and simplicial pieces of multiplicity up to 77."""

    def test_values_at_zero_and_one(self):
        started = time.perf_counter()
        f = parse_polynomial("x^5 + y^7 + z^11", 3)
        z = compute(ProblemSpec("single", 3, 2, f, None)).zeta
        assert z.evaluate(1) == 1
        zeros = sum(1 for x, y, w in itertools.product(range(2), repeat=3)
                    if (x**5 + y**7 + w**11) % 2 == 0)
        assert z.evaluate(0) == 1 - Fraction(zeros, 8)
        report_budget("x^5+y^7+z^11 at p = 2", started, 10.0)


class TestCommonDenominatorForm:
    @pytest.mark.parametrize("content, form", [(4, (Poly([3]), 12)),
                                               (6, (Poly([1]), 6))])
    def test_denominator_content_is_carried(self, content, form):
        # z = 1 / (content * (2 - t)) over (p + 1)(2^(s+1) - 1) at p = 2
        z = RationalFunction(Poly([1]), Poly([2 * content, -content]))
        assert zeta.common_denominator_form(z, {(1, 1): 1}, 2) == \
            form + ([(1, 1)],)

    def test_pole_at_its_multiplicity_and_a_constant_once(self):
        # z = 1 / (2 - t)^2 over 3 (2^1 - 1)(2 - t)^2, whatever the
        # multiplicity of the constant 2^1 - 1 in Z's denominator
        z = RationalFunction(Poly([1]), Poly([4, -4, 1]))
        assert zeta.common_denominator_form(
            z, {(1, 1): 2, (0, 1): 2}, 2) == (Poly([3]), 3,
                                              [(0, 1), (1, 1), (1, 1)])

    def test_refused_when_the_denominator_does_not_divide(self):
        # 1 + t is no factor of (p + 1)(p^(s+1) - 1): a broken invariant
        z = RationalFunction(Poly([1]), Poly([1, 1]))
        with pytest.raises(InternalConsistencyError, match="not exact"):
            zeta.common_denominator_form(z, {(1, 1): 1}, 2)


class TestCandidatePoles:
    def test_example_values(self):
        comp = compute(example_spec(13))
        values = {cp.value for cp in comp.poles()}
        assert values == {Fraction(-1), Fraction(-12, 11), Fraction(-8, 5),
                          Fraction(-11, 7), Fraction(-3)}

    def test_sources_name_rays(self):
        comp = compute(example_spec(13))
        by_value = {cp.value: cp for cp in comp.poles()}
        assert by_value[Fraction(-12, 11)] == zeta.CandidatePole(
            Fraction(-12, 11), ((3, 1),), False)
        assert by_value[Fraction(-1)] == zeta.CandidatePole(
            Fraction(-1), ((1, 0),), False)

    def test_trivial_measure_ideal(self):
        from igusa.polynomials import MonomialIdealSpec
        spec = ProblemSpec("ideal", 2, 5, MonomialIdealSpec(2, [(1, 1)]), None)
        comp = compute(spec)
        values = {cp.value for cp in comp.poles()}
        # rays (1,0),(0,1),(1,1) with m = 1,1,2 and sigma = 1,1,2
        assert values == {Fraction(-1)}

    def test_mapping_reports_l_factor(self):
        ff = PolynomialMapping([parse_polynomial("x + z", 3),
                                parse_polynomial("y - z", 3)])
        g = parse_polynomial("x + y + z + x*y*z", 3)
        comp = compute(ProblemSpec("mapping", 3, 3, ff, g))
        by_value = {cp.value: cp for cp in comp.poles()}
        assert by_value[Fraction(-2)].l_factor

    def test_single_mode_includes_minus_one(self):
        f = parse_polynomial("x^2 + y^3", 2)
        comp = compute(ProblemSpec("single", 2, 5, f, None))
        by_value = {cp.value: cp for cp in comp.poles()}
        assert by_value[Fraction(-1)].l_factor


@settings(derandomize=True, max_examples=100, deadline=None)
@given(problem_texts())
def test_poles_from_facet_normals_match_the_fan_rays(drawn):
    # the facet normals of Gamma_f, or of Gamma_f + Gamma_g for a pair,
    # are the rays of the fan the formula sums over: the poles that
    # `poles` and `Computation.poles` read off them are the ones over the
    # rays of the fan's cones
    spec = problem.parse_problem_text(drawn[0])
    gamma_f = NewtonPolyhedron.of(spec.fside)
    partition = (partition_single(gamma_f) if spec.g is None else
                 partition_pair(gamma_f, NewtonPolyhedron.of(spec.g)))
    expected = zeta.candidate_poles(
        partition.polyhedra, partition_rays(partition),
        None if spec.mode == "ideal" else spec.t_count)
    assert problem.poles(spec) == expected
    # `Computation.poles` reads the spec and the fan alone, so the stages
    # past the fan, which would double this test's time, are left empty
    comp = problem.Computation(spec, partition, {}, [], {}, None)
    assert comp.poles() == expected
