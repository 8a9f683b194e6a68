"""Acceptance suite: eight criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -q -s` to see the lines as
they complete; each criterion also enforces its own time budget.
"""

import itertools
import random
import time
from fractions import Fraction

from igusa import linalg, oracle
from igusa.cones import parallelepiped_points, partition_pair, partition_single
from igusa.counting import check_nondegenerate_single, count_triple
from igusa.newton import NewtonPolyhedron
from igusa.polynomials import (MonomialIdealSpec, PolynomialMapping,
                               parse_polynomial)
from igusa.problem import ProblemSpec, compute
from igusa.ratfun import Poly, RationalFunction
from igusa.zeta import l_delta

from conftest import (class_value, classify, closed_measure_value,
                      coset_bracket, example_ideal, example_measure,
                      example_spec, find_base_point, measure_A_kl, minor_gcd,
                      partition_rays, primitive, report_budget, torus_bracket)


def _report(number, label, started, limit):
    report_budget(f"criterion-{number} {label}", started, limit)


# expected ray data: primitive generator -> (m of the ideal, m of the
# measure polynomial, coordinate sum)
RAY_TABLE = {
    (1, 0): (2, 1, 1),
    (3, 1): (11, 8, 4),
    (1, 1): (5, 6, 2),
    (1, 2): (7, 8, 3),
    (0, 1): (1, 2, 1),
}

EXPECTED_POLES = {Fraction(-1), Fraction(-12, 11), Fraction(-8, 5),
                  Fraction(-11, 7), Fraction(-3)}


def test_criterion_1_ray_table_and_poles():
    started = time.perf_counter()
    comp = compute(example_spec(13))
    assert set(partition_rays(comp.partition)) == set(RAY_TABLE)
    gamma_f, gamma_g = comp.partition.polyhedra
    for ray, (m_ideal, m_measure, sig) in RAY_TABLE.items():
        assert gamma_f.m_value(ray) == m_ideal
        assert gamma_g.m_value(ray) == m_measure
        assert sum(ray) == sig
    assert gamma_f.m_value((2, 1)) == 8 and gamma_g.m_value((2, 1)) == 7
    assert {cp.value for cp in comp.poles()} == EXPECTED_POLES
    _report(1, "ray weights and candidate poles", started, 1.0)


# per-cone expectations: ray tuple, then the S data (denominator factors
# as (a, b) pairs of p^(a*s+b)-1, numerator terms p^(a*s+b) as (a, b) pairs)
CONE_TABLE = [
    ((), (), [(0, 0)]),
    (((1, 0),), ((2, 2),), [(0, 0)]),
    (((1, 0), (3, 1)), ((2, 2), (11, 12)), [(0, 0)]),
    (((3, 1),), ((11, 12),), [(0, 0)]),
    (((1, 1), (3, 1)), ((5, 8), (11, 12)), [(0, 0), (8, 10)]),
    (((1, 1),), ((5, 8),), [(0, 0)]),
    (((1, 1), (1, 2)), ((5, 8), (7, 11)), [(0, 0)]),
    (((1, 2),), ((7, 11),), [(0, 0)]),
    (((0, 1), (1, 2)), ((1, 3), (7, 11)), [(0, 0)]),
    (((0, 1),), ((1, 3),), [(0, 0)]),
]


def test_criterion_2_cone_table():
    started = time.perf_counter()
    comp = compute(example_spec(13))
    assert len(comp.terms) == len(CONE_TABLE)
    for term, (rays, factors, terms) in zip(comp.terms, CONE_TABLE):
        assert term.cone.rays == rays
        assert term.cone.dim == len(rays)
        piece, = term.pieces
        assert set(piece.factors) == set(factors)
        assert sorted(piece.terms) == sorted(terms)
    assert minor_gcd([(1, 1), (3, 1)]) == 2
    assert parallelepiped_points([(1, 1), (3, 1)]) == [(0, 0), (2, 1)]
    counts = [term.counts.P for term in comp.terms]
    assert counts == [36, 0, 0, 0, 0, 36, 0, 0, 0, 0]
    _report(2, "cone decomposition and factored S terms", started, 1.0)


# numerator of the closed form, as t-degree -> coefficient polynomial in
# p (exponent -> coefficient); Z = p^6 (p-1) A / ((p+1) (p^2-t^2)
# (p^12-t^11) (p^8-t^5) (p^11-t^7) (p^3-t))
A_COEFFS = {
    21: {2: -1, 1: -3, 0: 1},
    20: {5: 1, 4: 3, 3: -1},
    19: {5: -1, 4: 1, 3: 4, 2: -1},
    18: {7: -1, 6: -3, 5: 1, 4: -1, 2: 1},
    17: {7: 2, 5: -2},
    16: {6: 1, 4: -1},
    15: {9: -1, 7: 1, 6: -1, 4: 1},
    14: {13: 1, 12: 3, 11: -1, 9: 1, 7: -1},
    13: {15: -3},
    12: {15: -1, 14: -3, 13: 1},
    11: {17: 3, 15: 1, 13: -1},
    10: {18: -1, 16: 1, 14: 1, 13: 3, 12: -1},
    9: {17: -2, 16: -3, 15: 2},
    8: {20: 1, 18: -1, 17: 2, 15: -5},
    7: {20: -1, 18: 4},
    6: {19: -1, 17: 1},
    3: {25: -1, 24: -3, 23: 1},
    2: {27: 3},
    1: {26: 3},
    0: {30: 1, 29: -3, 28: -1},
}

DEN_FACTORS = [(2, 2), (12, 11), (8, 5), (11, 7), (3, 1)]  # (b, a): p^b - t^a


def closed_form(p):
    num = Poly({deg: sum(c * p**e for e, c in cs.items())
                for deg, cs in A_COEFFS.items()})
    num = num * Poly.const(p**6 * (p - 1))
    den = Poly.const(p + 1)
    for b, a in DEN_FACTORS:
        den = den * Poly({0: p**b, a: -1})
    return RationalFunction(num, den)


def test_criterion_3_closed_form_identity():
    started = time.perf_counter()
    for p in (13, 37):
        assert compute(example_spec(p)).zeta == closed_form(p)
    _report(3, "closed form matches at p = 13 and p = 37", started, 10.0)


def test_criterion_4_counts_and_degeneracy():
    started = time.perf_counter()
    g = example_measure()
    for p, expected in [(13, 36), (7, 18), (5, 4), (11, 10)]:
        assert count_triple(None, g, p).P == expected
    gamma = NewtonPolyhedron.of(g)
    assert not check_nondegenerate_single(g, gamma, 3).ok
    for p in (2, 5, 7, 11, 13):
        assert check_nondegenerate_single(g, gamma, p).ok
    _report(4, "torus counts and the degeneracy detector", started, 5.0)


def test_criterion_5_oracle_containment():
    started = time.perf_counter()
    spec = example_spec(2)
    comp = compute(spec)
    for s0 in (1, 2):
        bracket = oracle.truncated_integral(spec.fside, spec.g, 2, s0, 10)
        assert bracket.hi - bracket.lo <= Fraction(1, 2**10)
        assert bracket.contains(comp.zeta.evaluate(Fraction(1, 2**s0)))
    _report(5, "truncated-integral brackets at p = 2", started, 30.0)


def test_criterion_6_measure_closed_values():
    started = time.perf_counter()
    single = {
        2: (parse_polynomial("x + y + x*y", 2), parse_polynomial("x - y", 2)),
        3: (parse_polynomial("x + y + x*y*z", 3),
            parse_polynomial("x - y + z^2", 3)),
    }
    grid = [(p, n, k, l) for p, n, k, l in itertools.product(
        (2, 3, 5), (2, 3), (1, 2, 3), (1, 2)) if k >= l]
    # 5^9 residues in the coset, most of them off the zero set of f
    grid.append((5, 3, 4, 1))
    checked = 0
    for p, n, k, l in grid:
        f, g = single[n]
        a = find_base_point(f, g, p)
        if a is None:
            continue
        assert measure_A_kl(f, g, a, p, k, l) == \
            closed_measure_value(p, n, k, l)
        checked += 1
    ff = PolynomialMapping([parse_polynomial("x + z", 3),
                            parse_polynomial("y - z", 3)])
    g = parse_polynomial("x + y + z + x*y*z", 3)
    for p in (3, 5):
        a = find_base_point(ff, g, p)
        for k, l in itertools.product((1, 2), (1, 2)):
            assert measure_A_kl(ff, g, a, p, k, l) == \
                closed_measure_value(p, 3, k, l, t=2)
            checked += 1
    assert checked >= 18
    _report(6, "coset measure closed values on the (p, k, l) grid",
            started, 60.0)


def test_criterion_7_coset_and_torus_closed_values():
    started = time.perf_counter()
    f = parse_polynomial("x + y + x*y", 2)
    g = parse_polynomial("x - y", 2)
    cases = 0
    for p, s0 in itertools.product((2, 3, 5), (1, 2)):
        for fz, gz in itertools.product((False, True), repeat=2):
            a = find_base_point(f, g, p, want_fzero=fz, want_gzero=gz)
            if a is None:
                continue
            bracket = coset_bracket(a, f, g, p, s0, 4)
            assert bracket.contains(class_value(fz, gz, p, 2, s0))
            cases += 1
        c = count_triple(f, g, p)
        bracket = torus_bracket(f, g, p, s0, 3)
        assert bracket.contains(
            l_delta(c, p, 2, 1).evaluate(Fraction(1, p**s0)))
    assert cases >= 16
    _report(7, "coset and torus closed values", started, 60.0)


def _check_partition_properties():
    d = partition_pair(NewtonPolyhedron.of(example_ideal()),
                       NewtonPolyhedron.of(example_measure()))
    for k in itertools.product(range(11), repeat=2):
        classify(d, k)  # exactly one cone carries the labels of k
    for gamma in (NewtonPolyhedron.of(example_ideal()),
                  NewtonPolyhedron.of(example_measure())):
        for cone in partition_single(gamma).cones:
            assert cone.dim + cone.labels[0].dim == 2
    gI = NewtonPolyhedron.of(example_ideal())
    for cone in d.cones:
        for coeffs in itertools.product(range(4), repeat=len(cone.rays)):
            k = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                      for i in range(2))
            assert gI.m_value(k) == sum(c * gI.m_value(r)
                                        for c, r in zip(coeffs, cone.rays))


def _check_multiplicities():
    rng = random.Random(20260824)
    done = 0
    while done < 200:
        n = rng.choice([2, 3])
        r = rng.randint(1, n)
        rays = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(r)]
        if any(not any(ray) for ray in rays):
            continue
        rays = [primitive(ray) for ray in rays]
        if linalg.rank([list(ray) for ray in rays]) != r:
            continue
        assert len(parallelepiped_points(rays)) == minor_gcd(rays)
        done += 1


def _check_series_agreement():
    p, s0, B = 5, 1, 40
    comp = compute(example_spec(p))
    t0 = Fraction(1, p**s0)
    tail = sum(Fraction(m + 1, p**m) for m in range(B + 1, B + 200))
    gamma_f, gamma_g = comp.partition.polyhedra
    for term in comp.terms:
        partial = Fraction(0)
        for k in itertools.product(range(B + 1), repeat=2):
            if sum(k) > B or classify(comp.partition, k) is not term.cone:
                continue
            e = s0 * gamma_f.m_value(k) + gamma_g.m_value(k) + sum(k)
            partial += Fraction(1, p**e)
        assert abs(term.S.evaluate(t0) - partial) <= tail


def _check_structural_identities():
    base = compute(example_spec(13)).zeta
    fat = ProblemSpec("ideal", 2, 13,
                      MonomialIdealSpec(2, [(5, 1), (3, 2), (2, 5),
                                            (6, 3), (7, 2)]),
                      example_measure())
    assert compute(fat).zeta == base
    f = parse_polynomial("x^2 + y^3", 2)
    g = parse_polynomial("x*y", 2)
    for p in (5, 7):
        assert compute(ProblemSpec("single", 2, p, f, g)).zeta == \
            compute(ProblemSpec("mapping", 2, p,
                                PolynomialMapping([f]), g)).zeta
    for p in (5, 13):
        with_ideal = compute(example_spec(p))
        g_alone = compute(ProblemSpec("single", 2, p, example_measure(),
                                      None))
        assert with_ideal.zeta.evaluate(1) == \
            g_alone.zeta.evaluate(Fraction(1, p))


def test_criterion_8_property_suites():
    started = time.perf_counter()
    _check_partition_properties()
    _check_multiplicities()
    _check_series_agreement()
    _check_structural_identities()
    _report(8, "partition, multiplicity, series and identity properties",
            started, 120.0)
