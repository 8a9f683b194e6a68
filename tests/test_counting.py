"""Torus counts and non-degeneracy checks."""

import io
import itertools
import json
import pathlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from igusa import cli
from igusa.counting import (CountTriple, check_nondegenerate_single,
                            check_pair_nondegenerate,
                            check_strong_nondegenerate, count_triple, sweep)
from igusa.cones import partition_pair
from igusa.errors import SizeGuardError
from igusa.linalg import rank_mod
from igusa.newton import NewtonPolyhedron, face_restriction
from igusa.polynomials import (IntegerPolynomial, PolynomialMapping,
                               parse_polynomial)
from igusa.problem import ProblemSpec
from igusa.ratfun import Poly, RationalFunction

from conftest import (evaluate, example_measure, point_test, rank_mod_p,
                      report_budget)
from test_acceptance import closed_form

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "example_ideal.txt"


def brute_counts(fparts, gpart, p, n):
    """Independent recount with plain integer evaluation."""
    N = P = Q = 0
    for a in itertools.product(range(1, p), repeat=n):
        fzero = fparts is not None and all(
            evaluate(c, a) % p == 0 for c in fparts)
        gzero = gpart is not None and evaluate(gpart, a) % p == 0
        N += fzero and not gzero
        P += gzero and not fzero
        Q += fzero and gzero
    return CountTriple(N, P, Q)


class TestCountTriple:
    def test_measure_polynomial_counts(self):
        g = example_measure()
        # case split: 3(p-1) zeros when p = 1,7 mod 12, else p-1
        for p, expected in [(13, 36), (7, 18), (5, 4), (11, 10)]:
            assert count_triple(None, g, p) == CountTriple(0, expected, 0)

    def test_monomial_never_vanishes(self):
        mono = parse_polynomial("x^4*y^2", 2)
        for p in (2, 3, 5, 7):
            assert count_triple(None, mono, p) == CountTriple(0, 0, 0)

    def test_matches_independent_recount(self):
        f = parse_polynomial("x + y + x*y", 2)
        g = parse_polynomial("x - y", 2)
        for p in (2, 3, 5, 7):
            assert count_triple(f, g, p) == brute_counts([f], g, p, 2)

    def test_mapping_needs_all_components_zero(self):
        ff = PolynomialMapping([parse_polynomial("x + y", 2),
                                parse_polynomial("x - y", 2)])
        g = parse_polynomial("x*y - 1", 2)
        for p in (3, 5):
            assert count_triple(ff, g, p) == brute_counts(
                list(ff.components), g, p, 2)

    def test_totals(self):
        f = parse_polynomial("x + y", 2)
        g = parse_polynomial("x + 2*y", 2)
        for p in (3, 5, 7):
            c = count_triple(f, g, p)
            both_nonzero = sum(
                1 for a in itertools.product(range(1, p), repeat=2)
                if evaluate(f, a) % p and evaluate(g, a) % p)
            assert c.N + c.P + c.Q + both_nonzero == (p - 1)**2

    def test_unit_scaling_invariance(self):
        g = example_measure()
        for p in (5, 7, 13):
            for c in (2, 3, p - 1):
                assert count_triple(None, g, p) == count_triple(None, c * g, p)

    def test_size_guard(self):
        g = parse_polynomial("x + y", 2)
        with pytest.raises(SizeGuardError):
            count_triple(None, g, 100003)


class TestRankModP:
    def test_known(self):
        assert rank_mod([[1, 0], [0, 1]], 5) == 2
        assert rank_mod([[2, 4], [1, 2]], 5) == 1
        assert rank_mod([[5, 10], [3, 1]], 5) == 1

    def test_matches_rational_rank_when_no_p_division(self):
        import random
        from igusa import linalg
        rng = random.Random(7)
        for _ in range(50):
            p = rng.choice([3, 5, 7])
            rows = [[rng.randint(0, p - 1) for _ in range(3)]
                    for _ in range(3)]
            rp = rank_mod(rows, p)
            rq = linalg.rank(rows)
            assert rp <= rq
            if all(x in (0, 1) for row in rows for x in row) and p > 3:
                # tiny 0/1 matrices of rank r have a nonzero r-minor < p
                assert rp == rq


class TestSingleCheck:
    def test_example_measure_iff_p_not_3(self):
        g = example_measure()
        gamma = NewtonPolyhedron.of(g)
        report = check_nondegenerate_single(g, gamma, 3)
        assert not report.ok
        assert report.witnesses
        for p in (2, 5, 7, 11, 13):
            assert check_nondegenerate_single(g, gamma, p).ok

    def test_witness_is_singular_zero(self):
        g = example_measure()
        report = check_nondegenerate_single(g, NewtonPolyhedron.of(g), 3)
        _, (point, *_) = report.witnesses[0]
        assert evaluate(g, point) % 3 == 0

    def test_monomial_always_ok(self):
        mono = parse_polynomial("x^3*y", 2)
        gamma = NewtonPolyhedron.of(mono)
        for p in (2, 3, 5):
            assert check_nondegenerate_single(mono, gamma, p).ok


class TestStrongCheck:
    def test_coordinate_mapping_ok(self):
        ff = PolynomialMapping([parse_polynomial("x", 2),
                                parse_polynomial("y", 2)])
        gamma = NewtonPolyhedron.of(ff)
        for p in (2, 3, 5):
            assert check_strong_nondegenerate(ff, gamma, p).ok

    def test_t1_reduces_to_single(self):
        f = parse_polynomial("x + y", 2)
        ff = PolynomialMapping([f])
        gamma = NewtonPolyhedron.of(f)
        for p in (2, 3, 5, 7):
            assert check_strong_nondegenerate(ff, gamma, p).ok == \
                check_nondegenerate_single(f, gamma, p).ok

    def test_exhaustive_small_case(self):
        ff = PolynomialMapping([parse_polynomial("x + y", 2),
                                parse_polynomial("x - y", 2)])
        gamma = NewtonPolyhedron.of(ff)
        # common torus zeros need 2x = 0: vacuous for odd p, while mod 2
        # the point (1,1) kills both with Jacobian rows (1,1),(1,1)
        for p in (3, 5):
            assert check_strong_nondegenerate(ff, gamma, p).ok
        assert not check_strong_nondegenerate(ff, gamma, 2).ok

    def test_more_components_than_variables(self):
        # a torus zero of (x^2 + x, 2x) mod 2 has Jacobian rank 1 < t = 2:
        # degenerate, though the rank is the most that n = 1 allows
        ff = PolynomialMapping([parse_polynomial("x^2 + x", 1),
                                parse_polynomial("2*x", 1)])
        gamma = NewtonPolyhedron.of(ff)
        report = check_strong_nondegenerate(ff, gamma, 2)
        assert not report.ok
        rows = cli.check_report(ProblemSpec("mapping", 1, 2, ff, None),
                                {2: {"f": report}})["results"][0]["reports"]
        assert {(tuple(w["point"]), w["condition"])
                for w in rows["f"]["witnesses"]} == {
            ((1,), "Jacobian rank below 2")}
        assert check_strong_nondegenerate(ff, gamma, 3).ok  # no torus zero


class TestPairCheck:
    def _partition(self, f, g):
        return partition_pair(NewtonPolyhedron.of(f), NewtonPolyhedron.of(g))

    def test_vacuous_linear_pairs(self):
        f = parse_polynomial("x + y", 2)
        for gtext, p in [("x - y", 5), ("x + 2*y", 3), ("x + 2*y", 2)]:
            g = parse_polynomial(gtext, 2)
            report = check_pair_nondegenerate(f, g, self._partition(f, g), p)
            assert report.ok

    def test_dimension_floor(self):
        f = parse_polynomial("x + y", 2)
        ff = PolynomialMapping([f, parse_polynomial("x*y", 2)])
        g = parse_polynomial("x - y", 2)
        with pytest.raises(ValueError):
            check_pair_nondegenerate(ff, g, self._partition(ff, g), 5)

    def test_degenerate_pair_detected(self):
        # mod 2 both reduce to x + y: common zero at (1,1) with
        # proportional gradients, stacked rank 1 < 2; mod 5 the only
        # common zero (1,4) has an invertible stacked Jacobian
        f = parse_polynomial("x + y", 2)
        g = parse_polynomial("x - y + 2*x*y", 2)
        partition = self._partition(f, g)
        report = check_pair_nondegenerate(f, g, partition, 2)
        assert not report.ok
        assert check_pair_nondegenerate(f, g, partition, 5).ok

    def test_monomial_that_p_divides(self):
        # 3*y vanishes on the whole torus mod 3 with a zero gradient, so
        # every torus zero of x + y is a witness, on each of the two cones
        # (the origin and the ray (1, 1)) where f's face part is x + y
        f = parse_polynomial("x + y", 2)
        g = parse_polynomial("3*y", 2)
        report = check_pair_nondegenerate(f, g, self._partition(f, g), 3)
        assert [points for _, points in report.witnesses] == [
            ((1, 2), (2, 1))] * 2
        assert check_pair_nondegenerate(f, g, self._partition(f, g), 5).ok


# -- seeded property tests against exact integer arithmetic -------------


def exact_singular_zeros(parts, n, p, target):
    """Torus points where every part vanishes mod p and the Jacobian has
    rank below target, from exact evaluation reduced mod p."""
    found = []
    for a in itertools.product(range(1, p), repeat=n):
        if any(evaluate(part, a) % p for part in parts):
            continue
        rows = [[evaluate(part.partial_derivative(i), a)
                 for i in range(1, n + 1)] for part in parts]
        if rank_mod_p(rows, p) < target:
            found.append(a)
    return found


@st.composite
def cases(draw, count, min_n=1, max_terms=4):
    """(n, p, count nonzero polynomials in n <= 3 variables that vanish at
    the origin)."""
    n = draw(st.integers(min_n, 3))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    coefficients = st.integers(-5, 5).filter(bool)
    polys = [IntegerPolynomial(n, draw(st.dictionaries(
        exponents, coefficients, min_size=1, max_size=max_terms)))
        for _ in range(count)]
    return n, p, polys


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


class TestAgainstExactArithmetic:
    @PROPERTY
    @given(cases(3), st.booleans(), st.booleans())
    def test_count_triple(self, case, mapping, trivial_measure):
        n, p, (f1, f2, g) = case
        comps = [f1, f2] if mapping else [f1]
        fpart = PolynomialMapping(comps) if mapping else f1
        g = None if trivial_measure else g
        assert count_triple(fpart, g, p) == brute_counts(comps, g, p, n)

    @PROPERTY
    @given(cases(1))
    def test_single_check_witnesses(self, case):
        n, p, (f,) = case
        gamma = NewtonPolyhedron.of(f)
        expected = [(face, tuple(zeros))
                    for face in gamma.enumerate_faces()
                    if (zeros := exact_singular_zeros(
                        [face_restriction(f, face)], n, p, 1))]
        report = check_nondegenerate_single(f, gamma, p)
        assert list(report.witnesses) == expected

    @PROPERTY
    @given(cases(2))
    def test_strong_check_witnesses(self, case):
        n, p, comps = case
        ff = PolynomialMapping(comps[:n])
        gamma = NewtonPolyhedron.of(ff)
        target = min(ff.t, n)
        expected = [(face, tuple(zeros))
                    for face in gamma.enumerate_faces()
                    if (zeros := exact_singular_zeros(
                        [face_restriction(c, face) for c in ff.components],
                        n, p, target))]
        report = check_strong_nondegenerate(ff, gamma, p)
        assert list(report.witnesses) == expected

    @PROPERTY
    @given(cases(3, min_n=2, max_terms=3), st.booleans())
    def test_pair_check_witnesses(self, case, mapping):
        # few terms: the pair fan of three dense polynomials in three
        # variables takes seconds to build
        n, p, (f1, f2, g) = case
        mapping = mapping and n == 3
        fside = PolynomialMapping([f1, f2]) if mapping else f1
        comps = [f1, f2] if mapping else [f1]
        partition = partition_pair(NewtonPolyhedron.of(fside),
                                   NewtonPolyhedron.of(g))
        expected = []
        for cone in partition.cones:
            face_f, face_g = cone.labels
            parts = [face_restriction(c, face_f) for c in comps] + [
                face_restriction(g, face_g)]
            zeros = exact_singular_zeros(parts, n, p, len(comps) + 1)
            expected += [(cone, tuple(zeros))] if zeros else []
        report = check_pair_nondegenerate(fside, g, partition, p)
        assert list(report.witnesses) == expected


# -- the reduced sweep against a walk over the whole torus ---------------


def reference_sweep(fparts, gparts, p):
    """`sweep`'s result from every one of the (p-1)^n torus points, with
    no change of variables: fparts and gparts are lists of polynomials or
    None."""
    n = (fparts or gparts)[0].n
    fzero, gzero, test = point_test(fparts, gparts, p)
    N = P = Q = 0
    found = ([], [], [])
    for a in itertools.product(range(1, p), repeat=n):
        fz, gz = fzero(a), gzero(a)
        N += fz and not gz
        P += gz and not fz
        Q += fz and gz
        if fz or gz:
            for zeros, failed in zip(found, test(a)[2]):
                if failed:
                    zeros.append(a)
    return CountTriple(N, P, Q), tuple(map(tuple, found))


@st.composite
def restrictions(draw):
    """(p, f parts or None, g or None): polynomials in n <= 4 variables
    whose exponents lie on one random affine sublattice of rank 0..n (each
    with its own offset), with coefficients that p may divide."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7] + ([11, 13] if n <= 3 else [])))
    rank = draw(st.integers(0, n))
    basis = [draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in range(rank)]
    coefficients = st.one_of(st.integers(-6, 6).filter(bool),
                             st.sampled_from([-p, p, 2 * p]))

    def polynomial():
        offset = draw(st.tuples(*[st.integers(0, 3)] * n))
        steps = st.tuples(*[st.integers(0, 2)] * rank)
        terms = {tuple(o + sum(k * b[i] for k, b in zip(ks, basis))
                       for i, o in enumerate(offset)): c
                 for ks, c in draw(st.dictionaries(
                     steps, coefficients, min_size=1, max_size=5)).items()}
        low = [min(0, *coords) for coords in zip(*terms)]
        return IntegerPolynomial(n, {tuple(e - m for e, m in zip(exp, low)): c
                                     for exp, c in terms.items()})

    t = draw(st.sampled_from([None, 1, 2]))
    fparts = None if t is None else [polynomial() for _ in range(t)]
    g = polynomial() if fparts is None or draw(st.booleans()) else None
    return p, fparts, g


@st.composite
def fibred_restrictions(draw):
    """(p, f parts or None, g or None): polynomials in n <= 2 variables at
    primes near 100 and 200. A part may carry the factors x - a and y - b,
    so that it vanishes on whole lines, which the sweep's fibres may be,
    and all its coefficients may be multiples of p, so that every fibre
    is a zero."""
    n = draw(st.sampled_from([1, 2, 2, 2]))
    p = draw(st.sampled_from([101, 103, 197, 199]))

    def polynomial():
        part = IntegerPolynomial(n, draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * n),
            st.integers(-6, 6).filter(bool), min_size=2, max_size=4)))
        for i in draw(st.sets(st.integers(0, n - 1))):  # times x_i - a
            part = part * IntegerPolynomial(n, {
                tuple(int(j == i) for j in range(n)): 1,
                (0,) * n: -draw(st.integers(1, p - 1))})
        multiple = draw(st.integers(0, 7)) == 0
        scale = p * draw(st.integers(1, 2)) if multiple else 1
        return IntegerPolynomial(n, {e: scale * c
                                     for e, c in part.terms.items()})

    t = draw(st.sampled_from([None, 1, 2]))
    fparts = None if t is None else [polynomial() for _ in range(t)]
    g = polynomial() if fparts is None or draw(st.booleans()) else None
    return p, fparts, g


class TestReducedSweep:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(restrictions())
    def test_matches_the_whole_torus(self, case):
        p, fparts, g = case
        assert sweep(fparts, g, p) == reference_sweep(
            fparts, None if g is None else [g], p)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fibred_restrictions())
    def test_matches_the_whole_torus_at_large_primes(self, case):
        p, fparts, g = case
        assert sweep(fparts, g, p) == reference_sweep(
            fparts, None if g is None else [g], p)


# -- time budgets for the torus-heavy inputs -----------------------------


def compute_zeta(path):
    """The exit code of `igusa compute path --json` and its Z."""
    out = io.StringIO()
    code = cli.main(["compute", str(path), "--json"], out=out)
    zeta = json.loads(out.getvalue())["zeta"]
    return code, RationalFunction(
        *(Poly([int(c) for c in zeta[k]]) for k in ("num", "den")))


class TestTorusBudgets:
    def test_fixture_at_1009(self, tmp_path):
        # 1009 = 1 mod 3: g's torus zeros take the closed form's case
        path = tmp_path / "fixture.txt"
        path.write_text(FIXTURE.read_text().replace("p=13", "p=1009"))
        started = time.perf_counter()
        code, z = compute_zeta(path)
        report_budget("compute on the fixture at p = 1009", started, 0.5)
        assert code == cli.EXIT_OK
        assert z == closed_form(1009)

    def test_fermat_cubic_at_101(self, tmp_path):
        path = tmp_path / "cubic.txt"
        path.write_text("mode=single\nn=3\np=101\nf=x^3 + y^3 + z^3\n")
        started = time.perf_counter()
        code, z = compute_zeta(path)
        report_budget("compute on x^3+y^3+z^3 at p = 101", started, 2.0)
        assert code == cli.EXIT_OK
        assert z.evaluate(1) == 1

    def test_full_rank_face_at_101(self, tmp_path):
        # the whole Newton polyhedron's face has rank 3: its sweep walks
        # 100^2 fibres of 100 points
        path = tmp_path / "full_rank.txt"
        path.write_text("mode=single\nn=3\np=101\nf=x + y + z + x*y*z\n")
        started = time.perf_counter()
        code, z = compute_zeta(path)
        report_budget("compute on x+y+z+xyz at p = 101", started, 0.3)
        assert code == cli.EXIT_OK
        assert z == RationalFunction(Poly([1019998, 102]),
                                     Poly([1030301, -10201]))
        assert z.evaluate(1) == 1
