"""Brute-force verification: truncated p-adic integrals with rigorous
two-sided brackets, exact coset measures and the coset closed values
they must bracket. The torus integral must bracket the L factor of the
formula, `zeta.l_delta`, at t = p^(-s0).

All integrals are evaluated at a positive integer s = s0, which makes
the integrand a simple function with exact rational values. Truncation
at level M enumerates residues mod p^M; a coset on which the order of a
factor is not yet determined contributes 0 to the lower bound and a
worst-case value to the upper bound, so the true integral always lies
inside the bracket.

The truncated, coset and torus integrals differ only in the residues
they visit: each is a guard plus one call of `_bracket`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import counting
from .counting import components, guard, point_test
from .errors import HypothesisError
from .polynomials import MonomialIdealSpec


@dataclass(frozen=True)
class Bracket:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty bracket")

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, value):
        return self.lo <= value <= self.hi


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


def _bracket(residues, fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| |dx| over the cosets
    x + (p^M Z_p)^n for x in residues, each x with coordinates in
    range(p^M). g may be None (trivial measure).

    Residues are counted per exponent s0*ord(fside) + ord(g) in integers
    and weighed once at the end: exact, and far cheaper than a Fraction
    sum per residue.
    """
    n = fside.n
    modulus = p**M
    order = [_ord_residue(v, p, M) for v in range(modulus)].__getitem__
    if isinstance(fside, MonomialIdealSpec):
        gens = fside.generators
        memo = {}

        def fside_ord(a):
            # The order of a monomial ideal depends only on the orders of
            # the coordinates, which take few distinct values.
            coords = tuple(map(order, a))
            if coords not in memo:
                memo[coords] = _min_ord([
                    (sum(c * wi for (c, _), wi in zip(coords, w) if wi),
                     all(d for (_, d), wi in zip(coords, w) if wi))
                    for w in gens])
            return memo[coords]
    else:
        comps = [c.mod_evaluator(modulus) for c in components(fside)]

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

    return Bracket(weigh(determined), weigh(every))


def truncated_integral(fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral over Z_p^n of |fside|^s0 |g| |dx| from the
    residues mod p^M. g may be None (trivial measure)."""
    guard(p**(M * fside.n), "truncated integration")
    residues = itertools.product(range(p**M), repeat=fside.n)
    return _bracket(residues, fside, g, p, s0, M)


# -- hypothesis checking ------------------------------------------------


def _hypotheses(fside, g, p):
    """The conditions a coset base point must satisfy, compiled once:
    wherever a factor vanishes mod p, the corresponding Jacobian has
    maximal rank mod p.

    The returned check takes a point with coordinates in range(p),
    returns (fzero, gzero) and raises HypothesisError naming the failing
    condition.
    """
    comps = components(fside)
    test = point_test(comps, None if g is None else [g], p)[2]
    conditions = ("the f side's Jacobian is rank-deficient",
                  "the measure polynomial is singular",
                  f"the stacked Jacobian has rank below {len(comps) + 1}")

    def check(a):
        fzero, gzero, failed = test(a)
        for bad, condition in zip(failed, conditions):
            if bad:
                raise HypothesisError(f"{condition} at {a} mod {p}")
        return fzero, gzero

    return check


def find_base_point(fside, g, p, want_fzero=True, want_gzero=True):
    """Search {1..p-1}^n for a base point with the requested vanishing
    pattern and valid hypotheses; None when the pattern is vacuous."""
    points = counting._torus(p, fside.n)  # the size guard comes first
    check = _hypotheses(fside, g, p)
    for a in points:
        try:
            if check(a) == (want_fzero, want_gzero):
                return a
        except HypothesisError:
            continue
    return None


# -- exact measures and coset/torus brackets ----------------------------


def measure_A_kl(fside, g, a, p, k, l) -> Fraction:
    """Exact measure of {x in a + (pZ_p)^n : fside(x) = 0 mod p^k and
    g(x) = 0 mod p^l}, by counting residues mod p^max(k, l).

    The base point must satisfy the common-vanishing hypothesis with a
    full-rank stacked Jacobian.
    """
    comps = components(fside)
    t = len(comps)
    n = fside.n
    if k < 1 or l < 1:
        raise ValueError("need k, l >= 1")
    if n < t + 1:
        raise HypothesisError(f"need n >= {t + 1} variables, got {n}")
    fzero, gzero = _hypotheses(fside, g, p)(tuple(x % p for x in a))
    if not (fzero and gzero):
        raise HypothesisError(
            "the base point must annihilate both factors mod p")
    depth = max(k, l)
    guard(p**((depth - 1) * n), "measure counting")
    pk, pl = p**k, p**l
    fevs = [comp.mod_evaluator(pk) for comp in comps]
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


def coset_integral(a, fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| over a + (pZ_p)^n."""
    _hypotheses(fside, g, p)(tuple(x % p for x in a))
    n = fside.n
    guard(p**((M - 1) * n), "coset integration")
    modulus = p**M
    lifts = (tuple((ai + p * ci) % modulus for ai, ci in zip(a, c))
             for c in itertools.product(range(p**(M - 1)), repeat=n))
    return _bracket(lifts, fside, g, p, s0, M)


def torus_integral(fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| over (Z_p^x)^n, after
    checking the coset hypotheses at every torus residue."""
    n = fside.n
    guard(((p - 1) * p**(M - 1))**n, "torus integration")
    check = _hypotheses(fside, g, p)
    for a in counting._torus(p, n):
        check(a)
    units = [u for u in range(p**M) if u % p]
    return _bracket(itertools.product(units, repeat=n), fside, g, p, s0, M)


# -- closed values the brackets must contain ----------------------------


def closed_measure_value(p, n, k, l, t=1) -> Fraction:
    """Closed measure of A_{k,l}: p^(-n-k-l+2) for a single polynomial
    (t = 1) and p^(-n-(k-1)t-l+1) for a t-component mapping; the former
    is the t = 1 instance of the latter."""
    return Fraction(1, p**(n + (k - 1) * t + l - 1))


def coset_closed_value(fzero, gzero, p, n, s0, t=1) -> Fraction:
    """The four-case closed value of the coset integral at s = s0."""
    base = Fraction(1, p**n)
    if not fzero and not gzero:
        return base
    if fzero and not gzero:
        return base * Fraction(p**t - 1, p**(s0 + t) - 1)
    if not fzero and gzero:
        return base * Fraction(1, p + 1)
    return base * Fraction(p**t - 1, (p**(s0 + t) - 1) * (p + 1))
