"""Brute-force integration oracles: brackets, measures, closed values."""

import itertools
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from igusa import oracle
from igusa.counting import CountTriple
from igusa.errors import SizeGuardError
from igusa.polynomials import (IntegerPolynomial, MonomialIdealSpec,
                               PolynomialMapping, parse_polynomial)
from igusa.problem import ProblemSpec, compute
from igusa.zeta import l_delta

from conftest import (HypothesisFailure, class_value, closed_measure_value,
                      coset_bracket, example_ideal, example_measure,
                      find_base_point, measure_A_kl, report_budget,
                      torus_bracket)


def poly(text, n=2):
    return parse_polynomial(text, n)


def torus_value(counts, p, n, s0):
    """The formula's torus integral: the L factor at t = p^(-s0)."""
    return l_delta(counts, p, n, 1).evaluate(Fraction(1, p**s0))


# -- reference: the walk over every residue mod p^M ----------------------


def _ord_residue(v, p, M):
    """(order, determined) for a residue v mod p^M; undetermined means
    only 'order >= M' is known and M is returned as the lower bound."""
    if v == 0:
        return M, False
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e, True


def _min_ord(pairs):
    """Minimum of orders, each an (order-or-lower-bound, determined) pair."""
    exact = [e for e, det in pairs if det]
    bounds = [e for e, det in pairs if not det]
    if exact and (not bounds or min(exact) <= min(bounds)):
        return min(exact), True
    return min(bounds + exact), False


def reference_bracket(residues, fside, g, p, s0, M):
    """Bracket of the integral of |fside|^s0 |g| |dx| over the cosets
    x + (p^M Z_p)^n for x in residues, each x with coordinates in
    range(p^M): every residue looked up in a table of the orders mod p^M,
    a monomial ideal's orders memoized by the orders of the coordinates."""
    n = fside.n
    modulus = p**M
    order = [_ord_residue(v, p, M) for v in range(modulus)].__getitem__
    if isinstance(fside, MonomialIdealSpec):
        gens = fside.generators
        memo = {}

        def fside_ord(a):
            coords = tuple(map(order, a))
            if coords not in memo:
                memo[coords] = _min_ord([
                    (sum(c * wi for (c, _), wi in zip(coords, w) if wi),
                     all(d for (_, d), wi in zip(coords, w) if wi))
                    for w in gens])
            return memo[coords]
    else:
        comps = [c.mod_evaluator(modulus) for c in fside.components]

        def fside_ord(a):
            return _min_ord([order(ev(a)) for ev in comps])
    gev = None if g is None else g.mod_evaluator(modulus)
    every = {}
    determined = {}
    for a in residues:
        vf, fdet = fside_ord(a)
        vg, gdet = (0, True) if gev is None else order(gev(a))
        e = s0 * vf + vg
        every[e] = every.get(e, 0) + 1
        if fdet and gdet:
            determined[e] = determined.get(e, 0) + 1

    def weigh(counts):
        return sum((Fraction(c, p**e) for e, c in counts.items()),
                   Fraction(0)) / p**(M * n)

    return oracle.Bracket(weigh(determined), weigh(every))


def reference_measure(fside, g, a, p, k, l):
    """The measure of A_{k,l} in a + (pZ_p)^n by a walk over every residue
    mod p^max(k, l) of the coset, each component and g evaluated mod p^k
    and mod p^l."""
    n = fside.n
    depth = max(k, l)
    pk, pl = p**k, p**l
    fevs = [comp.mod_evaluator(pk) for comp in fside.components]
    gev = g.mod_evaluator(pl)
    count = 0
    for c in itertools.product(range(p**(depth - 1)), repeat=n):
        x = [ai + p * ci for ai, ci in zip(a, c)]
        xk = tuple(v % pk for v in x)
        if any(ev(xk) for ev in fevs):
            continue
        if gev(tuple(v % pl for v in x)):
            continue
        count += 1
    return Fraction(count, p**(depth * n))


def reference_census(cosets, fside, g, p, M):
    """`oracle._census` by full evaluation: every part is evaluated mod
    p^M at every sub-coset visited, and a coset mod p^j is split into all
    its p^n sub-cosets mod p^(j+1) while the f side or g is open on it."""
    n = fside.n
    if isinstance(fside, MonomialIdealSpec):
        atoms = [itemgetter(i) for i in range(n)]
        monomials = fside.generators
    else:
        atoms = [c.mod_evaluator(p**M) for c in fside.components]
        monomials = [[0] * k + [1] for k in range(len(atoms))]
    width = 1 + max(map(sum, monomials))
    gev = None if g is None else g.mod_evaluator(p**M)
    census = Counter()

    def refine(points, j):
        pj = p**j
        weight = p**((M - j) * n)
        for a in points:
            keys = []
            for atom in atoms:
                o = _ord_residue(atom(a) % pj, p, j)[0]
                keys.append(width * o + (o == j))
            vf, fopen = divmod(min(sum(map(mul, mono, keys))
                                   for mono in monomials), width)
            vg = 0 if gev is None else _ord_residue(gev(a) % pj, p, j)[0]
            if not fopen and vg < j:
                census[vf, vg, True] += weight
            elif j < M:
                refine(itertools.product(*(range(x, p * pj, pj) for x in a)),
                       j + 1)
            else:
                census[vf, vg, False] += 1

    refine(cosets, 1)
    return census


@st.composite
def integrands(draw):
    """(fside, g, p, s0, M): an f side of any mode and a measure that may
    be trivial, in n <= 3 variables, with p^(Mn) <= 20,000 residues.
    Terms x^p and coefficients divisible by p give parts whose gradient
    is 0 mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    M = draw(st.integers(1, max(m for m in range(1, 15)
                                if p**(m * n) <= 20_000)))
    exponents = st.tuples(*[st.sampled_from([0, 1, 2, 3, p, p + 1])]
                          * n).filter(any)
    coefficients = st.one_of(st.integers(-2 * p, 2 * p),
                             st.sampled_from([p, -p, p * p, 2 * p**3]))

    def polynomial():
        return IntegerPolynomial(n, draw(st.dictionaries(
            exponents, coefficients.filter(bool), min_size=1, max_size=3)))

    mode = draw(st.sampled_from(["ideal", "single", "mapping"]))
    if mode == "ideal":
        fside = MonomialIdealSpec(n, draw(st.lists(exponents, min_size=1,
                                                   max_size=3)))
    elif mode == "single":
        fside = polynomial()
    else:
        fside = PolynomialMapping([polynomial()
                                   for _ in range(draw(st.integers(1, 2)))])
    g = None if draw(st.booleans()) else polynomial()
    return fside, g, p, draw(st.integers(1, 2)), M


# no coset settles before level M = 4: f is 0 mod 8 everywhere
NEVER_SETTLED = (parse_polynomial("8*x + 8*y^2", 2), None, 2, 1, 4)
# the coefficient 3 of g is divisible by p
COEFFICIENT_DIVISIBLE_BY_P = (parse_polynomial("x^2 + y^3", 2),
                              parse_polynomial("3*x*y + y^2", 2), 3, 2, 4)


class TestAgainstReference:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(integrands())
    @example(NEVER_SETTLED)
    @example(COEFFICIENT_DIVISIBLE_BY_P)
    def test_refinement_equals_residue_walk(self, case):
        fside, g, p, s0, M = case
        n = fside.n
        residues = itertools.product(range(p**M), repeat=n)
        assert oracle.truncated_integral(fside, g, p, s0, M) == \
            reference_bracket(residues, fside, g, p, s0, M)
        # the coset and torus integrals start from other level-1 cosets
        a = (1,) * n
        lifts = (tuple(ai + p * ci for ai, ci in zip(a, c))
                 for c in itertools.product(range(p**(M - 1)), repeat=n))
        assert oracle._bracket([a], fside, g, p, s0, M) == \
            reference_bracket(lifts, fside, g, p, s0, M)
        units = [u for u in range(p**M) if u % p]
        torus = list(itertools.product(range(1, p), repeat=n))
        assert oracle._bracket(torus, fside, g, p, s0, M) == \
            reference_bracket(itertools.product(units, repeat=n),
                              fside, g, p, s0, M)


@st.composite
def censuses(draw):
    """(cosets, fside, g, p, M): an integrand and the cosets mod p it
    starts from: all of them, one of them, or the torus."""
    fside, g, p, _, M = draw(integrands())
    n = fside.n
    start = draw(st.sampled_from(["all", "one", "torus"]))
    if start == "all":
        cosets = list(itertools.product(range(p), repeat=n))
    elif start == "one":
        cosets = [draw(st.tuples(*[st.integers(0, p - 1)] * n))]
    else:
        cosets = list(itertools.product(range(1, p), repeat=n))
    return cosets, fside, g, p, M


class TestCensusAgainstReference:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(censuses())
    # x^2 + y^2 at p = 2 has a zero gradient mod 2: it stays open on every
    # sub-coset of (0, 0) and settles on every one of (1, 1)
    @example(([(0, 0), (1, 1)], parse_polynomial("x^2 + y^2", 2),
              parse_polynomial("x^2*y + 2*x", 2), 2, 4))
    @example(([(0, 0), (3, 5)], parse_polynomial("343*x + 343*y^2", 2),
              parse_polynomial("49*x*y", 2), 7, 3))
    @example(([(0, 1), (1, 0)], *NEVER_SETTLED[:3], 4))
    # on the sub-cosets of (0, 1) the two components stay open on the two
    # parallel lines c_1 = 1 and c_1 = 0, which cover them all
    @example(([(0, 1)], PolynomialMapping([parse_polynomial("x + 2*y^2", 2),
                                           parse_polynomial("x + 4*y^2", 2)]),
              None, 2, 3))
    def test_lift_equals_full_evaluation(self, case):
        assert oracle._census(*case) == reference_census(*case)


@st.composite
def measured_pairs(draw):
    """(fside, g, p, k, l): a polynomial or a mapping of t <= 2 components
    in n in {2, 3} variables with t < n, a non-trivial g, and
    p^((max(k, l) - 1)n) <= 20,000 residues in a coset. All of them
    vanish mod p at one torus point, so that a base point is often found."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    k, l = draw(st.tuples(*[st.integers(1, 3)] * 2).filter(
        lambda kl: p**((max(kl) - 1) * n) <= 20_000))
    x = (1,) + (0,) * (n - 1)
    exponents = st.tuples(*[st.integers(0, 2)] * n).filter(
        lambda e: any(e) and e != x)
    # coefficients up to 2p in size, so some are divisible by p
    coefficients = st.integers(-2 * p, 2 * p).filter(bool)
    a = draw(st.tuples(*[st.integers(1, p - 1)] * n))

    def polynomial():
        """Drawn terms, then a multiple of x making it vanish at a mod p."""
        terms = draw(st.dictionaries(exponents, coefficients, min_size=1,
                                     max_size=3))
        value = IntegerPolynomial(n, terms).mod_evaluator(p)(a)
        terms[x] = -value * pow(a[0], -1, p) % p
        return IntegerPolynomial(n, terms)

    t = draw(st.integers(1, n - 1))
    fside = polynomial() if t == 1 and draw(st.booleans()) else \
        PolynomialMapping([polynomial() for _ in range(t)])
    return fside, polynomial(), p, k, l


class TestMeasureAgainstReference:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(measured_pairs())
    def test_census_equals_residue_walk(self, case):
        fside, g, p, k, l = case
        a = find_base_point(fside, g, p)
        assume(a is not None)
        assert measure_A_kl(fside, g, a, p, k, l) == \
            reference_measure(fside, g, a, p, k, l)


class TestBracket:
    def test_invariants(self):
        b = oracle.Bracket(Fraction(1, 3), Fraction(1, 2))
        assert b.hi - b.lo == Fraction(1, 6)
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
        assert b.hi - b.lo < Fraction(1, 3**5)

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
                a = find_base_point(fp, gp, p)
                if a is None:
                    continue
                for k in (1, 2, 3):
                    for l in (1, 2):
                        if k < l:
                            continue
                        got = measure_A_kl(fp, gp, a, p, k, l)
                        assert got == closed_measure_value(p, n, k, l)
                        found += 1
        assert found > 10

    def test_mapping_mode(self):
        ff = PolynomialMapping([parse_polynomial("x + z", 3),
                                parse_polynomial("y - z", 3)])
        g = parse_polynomial("x + y + z + x*y*z", 3)
        found = 0
        for p in (3, 5):
            a = find_base_point(ff, g, p)
            if a is None:
                continue
            for k in (1, 2):
                for l in (1, 2):
                    got = measure_A_kl(ff, g, a, p, k, l)
                    assert got == closed_measure_value(p, 3, k, l, t=2)
                    found += 1
        assert found


    def test_invalid_base_point_rejected(self):
        f = poly("x + y + x*y")
        g = poly("x - y")
        with pytest.raises(HypothesisFailure):
            # (1, 2) annihilates neither factor mod 3
            measure_A_kl(f, g, (1, 2), 3, 1, 1)

    def test_k_below_l(self):
        # the closed value p^(-n-(k-1)t-l+1) holds for k < l as well
        pairs = {2: (poly("x + y + x*y"), poly("x - y")),
                 3: (parse_polynomial("x + y + x*y*z", 3),
                     parse_polynomial("x - y + z^2", 3))}
        found = 0
        for p, (n, (f, g)) in itertools.product((2, 3, 5), pairs.items()):
            a = find_base_point(f, g, p)
            if a is None:
                continue
            for k, l in ((1, 2), (1, 3), (2, 3)):
                assert measure_A_kl(f, g, a, p, k, l) == \
                    closed_measure_value(p, n, k, l)
                found += 1
        assert found >= 9


class TestCosetIntegral:
    def test_four_cases_single(self):
        f = poly("x + y + x*y")
        g = poly("x - y")
        for p in (2, 3, 5):
            for fz, gz in itertools.product((False, True), repeat=2):
                a = find_base_point(f, g, p, want_fzero=fz, want_gzero=gz)
                if a is None:
                    continue
                for s0 in (1, 2):
                    b = coset_bracket(a, f, g, p, s0, 4)
                    value = class_value(fz, gz, p, 2, s0)
                    assert b.contains(value), (p, fz, gz, s0)

    def test_four_cases_mapping(self):
        ff = PolynomialMapping([parse_polynomial("x + z", 3),
                                parse_polynomial("y - z", 3)])
        g = parse_polynomial("x + y + z + x*y*z", 3)
        found = 0
        for p in (2, 3, 5):
            for fz, gz in itertools.product((False, True), repeat=2):
                a = find_base_point(ff, g, p, want_fzero=fz, want_gzero=gz)
                if a is None:
                    continue
                for s0 in (1, 2):
                    b = coset_bracket(a, ff, g, p, s0, 3)
                    value = class_value(fz, gz, p, 3, s0, t=2)
                    assert b.contains(value), (p, fz, gz, s0)
                    found += 1
        assert found

    def test_exact_when_units(self):
        # both factors are units on the whole coset: bracket is degenerate
        f = poly("x + y")
        g = poly("x*y")
        b = coset_bracket((1, 1), f, g, 3, 1, 3)
        assert b.lo == b.hi == Fraction(1, 9)

    def test_hypothesis_checked(self):
        g = poly("x^4*y^2 + x*y^5")
        f = poly("x + y")
        # (1, 2) is a singular zero of g mod 3
        with pytest.raises(HypothesisFailure):
            coset_bracket((1, 2), f, g, 3, 1, 3)

    def test_ideal_off_the_torus_refused(self):
        # the ideal is read as a unit, which holds on the torus only
        with pytest.raises(HypothesisFailure, match="off the torus"):
            coset_bracket((0, 1), example_ideal(), example_measure(), 13, 1,
                          2)


class TestTorusIntegral:
    def test_constant_integrand(self):
        f = poly("x + y + 1")  # unit on the torus mod 2
        b = torus_bracket(f, None, 2, 1, 1)
        assert b.lo == b.hi == Fraction(1, 4)

    def test_matches_npq_closed_form(self):
        from igusa.counting import count_triple
        f = poly("x + y + x*y")
        g = poly("x - y")
        for p in (2, 3, 5):
            c = count_triple(f, g, p)
            for s0 in (1, 2):
                b = torus_bracket(f, g, p, s0, 3)
                assert b.contains(torus_value(c, p, 2, s0)), (p, s0)

    def test_measure_only(self):
        # monomial f side is a unit on the torus, so only |g| contributes
        g = poly("x^4*y^2 + x*y^5")
        f = poly("x*y")
        value = torus_value(CountTriple(0, 36, 0), 13, 2, 1)
        assert value == Fraction(144 - Fraction(36 * 13, 14), 13**2)
        b = torus_bracket(f, g, 13, 1, 2)
        assert b.contains(value)

    def test_monomial_ideal(self):
        # the ideal never vanishes on the torus: N = Q = 0, and P = 36
        # zeros of g, as for the monomial f side above
        p = 13
        value = torus_value(CountTriple(0, 36, 0), p, 2, 1)
        b = torus_bracket(example_ideal(), example_measure(), p, 1, 2)
        assert b.contains(value)
        a = find_base_point(example_ideal(), example_measure(), p,
                            want_fzero=False)
        b = coset_bracket(a, example_ideal(), example_measure(), p, 1, 2)
        assert b.contains(class_value(False, True, p, 2, 1))

    def test_degenerate_point_rejected(self):
        g = poly("x^4*y^2 + x*y^5")
        f = poly("x + y")
        with pytest.raises(HypothesisFailure):
            torus_bracket(f, g, 3, 1, 2)


class TestLiftBudgets:
    def test_fixture_at_p13_level3(self):
        f, g = example_ideal(), example_measure()
        started = time.perf_counter()
        b = oracle.truncated_integral(f, g, 13, 1, 3)
        report_budget("truncated integral of the fixture at p = 13, M = 3",
                      started, 0.5)
        zeta = compute(ProblemSpec("ideal", 2, 13, f, g)).zeta
        assert b.contains(zeta.evaluate(Fraction(1, 13)))

    def test_no_list_of_every_sub_coset(self):
        # 23^4 = 279,841 sub-cosets per split; listing them peaked at 25 MB
        f = parse_polynomial("x1*x2 + x3*x4 + x1^3", 4)
        g = parse_polynomial("x1 + x2 + x3 + x4 + 1", 4)
        a = find_base_point(f, g, 23, True, False)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            b = coset_bracket(a, f, g, 23, 1, 2)
            report_budget("n = 4 coset integral at p = 23, M = 2", started,
                          1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak} bytes"
        assert b.contains(class_value(True, False, 23, 4, 1))


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
        b = coset_bracket((1, 1), poly("x + y + x*y"), poly("x - y"), 3, 1,
                          4)
        assert (b.lo, b.hi) == (Fraction(33124, 4782969),
                                Fraction(299209, 43046721))

    def test_torus(self):
        b = torus_bracket(poly("x + y + x*y"), poly("x - y"), 3, 2, 3)
        assert (b.lo, b.hi) == (Fraction(133798, 531441),
                                Fraction(3619672, 14348907))
