"""Brute-force verification: truncated p-adic integrals with rigorous
two-sided brackets, exact coset measures and the torus/coset closed
values they must bracket.

All integrals are evaluated at a positive integer s = s0, which makes
the integrand a simple function with exact rational values. Truncation
at level M enumerates residues mod p^M; a coset on which the order of a
factor is not yet determined contributes 0 to the lower bound and a
worst-case value to the upper bound, so the true integral always lies
inside the bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .counting import ENUMERATION_LIMIT, components, jacobian_rows, rank_mod_p
from .errors import HypothesisError, SizeGuardError


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


def _guard(points, what):
    if points > ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"{what} needs {points} points, over the limit {ENUMERATION_LIMIT}")


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


def _compile(poly, modulus):
    """Fast mod-modulus evaluator using per-variable power tables."""
    cache = {}
    terms = []
    for exp, c in poly.terms.items():
        factors = []
        for i, e in enumerate(exp):
            if e:
                tab = cache.get((i, e))
                if tab is None:
                    tab = [pow(v, e, modulus) for v in range(modulus)]
                    cache[(i, e)] = tab
                factors.append((i, tab))
        terms.append((c % modulus, factors))

    def evaluate(point):
        total = 0
        for c, factors in terms:
            v = c
            for i, tab in factors:
                v = v * tab[point[i]] % modulus
            total += v
        return total % modulus

    return evaluate


def truncated_integral(mode, fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral over Z_p^n of |fside|^s0 |g| |dx| from the
    residues mod p^M. g may be None (trivial measure)."""
    n = fside.n
    _guard(p**(M * n), "truncated integration")
    modulus = p**M
    coset = Fraction(1, p**(M * n))
    ords = [_ord_residue(v, p, M) for v in range(modulus)]
    if mode == "ideal":
        gens = fside.generators
        memo = {}

        def monomial_ords(coords):
            pairs = []
            for w in gens:
                e = sum(c * wi for (c, _), wi in zip(coords, w) if wi)
                det = all(d for (_, d), wi in zip(coords, w) if wi)
                pairs.append((e, det))
            return _min_ord(pairs)

        def fside_ord(a):
            # The order of a monomial ideal depends only on the orders of
            # the coordinates, which take few distinct values.
            coords = tuple(ords[x] for x in a)
            found = memo.get(coords)
            if found is None:
                found = memo[coords] = monomial_ords(coords)
            return found
    else:
        comps = [_compile(c, modulus) for c in components(fside)]

        def fside_ord(a):
            return _min_ord([ords[ev(a)] for ev in comps])
    gev = None if g is None else _compile(g, modulus)
    # Count residues per exponent in integers and weigh them once at the
    # end: exact, and far cheaper than a Fraction sum per residue.
    every = {}
    determined = {}
    for a in itertools.product(range(modulus), repeat=n):
        vf, fdet = fside_ord(a)
        vg, gdet = (0, True) if gev is None else ords[gev(a)]
        e = s0 * vf + vg
        every[e] = every.get(e, 0) + 1
        if fdet and gdet:
            determined[e] = determined.get(e, 0) + 1
    lo = sum((coset * Fraction(c, p**e) for e, c in determined.items()),
             Fraction(0))
    hi = sum((coset * Fraction(c, p**e) for e, c in every.items()),
             Fraction(0))
    return Bracket(lo, hi)


# -- hypothesis checking ------------------------------------------------


def check_coset_hypotheses(fside, g, a, p):
    """The conditions a coset base point must satisfy: wherever a factor
    vanishes mod p, the corresponding Jacobian has maximal rank mod p.

    Raises HypothesisError naming the failing condition.
    """
    comps = components(fside)
    t = len(comps)
    n = comps[0].n
    fzero = all(c.evaluate_mod(a, p) == 0 for c in comps)
    gzero = g is not None and g.evaluate_mod(a, p) == 0
    if fzero and rank_mod_p(jacobian_rows(comps, a, p), p) < min(t, n):
        raise HypothesisError(
            f"f side vanishes at {a} mod {p} with a rank-deficient Jacobian")
    if gzero and rank_mod_p(jacobian_rows([g], a, p), p) < 1:
        raise HypothesisError(
            f"measure polynomial is singular at {a} mod {p}")
    if fzero and gzero \
            and rank_mod_p(jacobian_rows(comps + [g], a, p), p) < t + 1:
        raise HypothesisError(
            f"stacked Jacobian at {a} mod {p} has rank below {t + 1}")
    return fzero, gzero


def find_base_point(fside, g, p, want_fzero=True, want_gzero=True):
    """Search {1..p-1}^n for a base point with the requested vanishing
    pattern and valid hypotheses; None when the pattern is vacuous."""
    comps = components(fside)
    n = comps[0].n
    _guard((p - 1)**n, "base point search")
    for a in itertools.product(range(1, p), repeat=n):
        fzero = all(c.evaluate_mod(a, p) == 0 for c in comps)
        gzero = g is not None and g.evaluate_mod(a, p) == 0
        if (fzero, gzero) != (want_fzero, want_gzero):
            continue
        try:
            check_coset_hypotheses(fside, g, a, p)
        except HypothesisError:
            continue
        return a
    return None


# -- exact measures and coset/torus brackets ----------------------------


def measure_A_kl(fside, g, a, p, k, l, mode="single") -> Fraction:
    """Exact measure of {x in a + (pZ_p)^n : fside(x) = 0 mod p^k and
    g(x) = 0 mod p^l}, by counting residues mod p^k.

    The base point must satisfy the common-vanishing hypothesis with a
    full-rank stacked Jacobian; single mode additionally needs k >= l.
    """
    comps = components(fside)
    t = len(comps)
    n = comps[0].n
    if k < 1 or l < 1:
        raise ValueError("need k, l >= 1")
    if mode == "single" and k < l:
        raise ValueError("single mode needs k >= l")
    if n < t + 1:
        raise HypothesisError(f"need n >= {t + 1} variables, got {n}")
    fzero, gzero = check_coset_hypotheses(fside, g, a, p)
    if not (fzero and gzero):
        raise HypothesisError(
            "the base point must annihilate both factors mod p")
    depth = max(k, l)
    _guard(p**((depth - 1) * n), "measure counting")
    pk, pl = p**k, p**l
    pdepth = p**depth
    count = 0
    for c in itertools.product(range(p**(depth - 1)), repeat=n):
        x = tuple(ai + p * ci for ai, ci in zip(a, c))
        if any(comp.evaluate_mod(x, pk) for comp in comps):
            continue
        if g.evaluate_mod(x, pl):
            continue
        count += 1
    return Fraction(count, pdepth**n)


def coset_integral(a, fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| over a + (pZ_p)^n."""
    check_coset_hypotheses(fside, g, a, p)
    comps = components(fside)
    n = comps[0].n
    _guard(p**((M - 1) * n), "coset integration")
    modulus = p**M
    coset = Fraction(1, p**(M * n))
    lo = hi = Fraction(0)
    for c in itertools.product(range(p**(M - 1)), repeat=n):
        x = tuple((ai + p * ci) % modulus for ai, ci in zip(a, c))
        vf, fdet = _min_ord(
            [_ord_residue(comp.evaluate_mod(x, modulus), p, M)
             for comp in comps])
        if g is None:
            vg, gdet = 0, True
        else:
            vg, gdet = _ord_residue(g.evaluate_mod(x, modulus), p, M)
        value = coset * Fraction(1, p**(s0 * vf + vg))
        if fdet and gdet:
            lo += value
            hi += value
        else:
            hi += value
    return Bracket(lo, hi)


def torus_integral(fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| over (Z_p^x)^n, after
    checking the coset hypotheses at every torus residue."""
    comps = components(fside)
    n = comps[0].n
    for a in itertools.product(range(1, p), repeat=n):
        check_coset_hypotheses(fside, g, a, p)
    _guard(((p - 1) * p**(M - 1))**n, "torus integration")
    modulus = p**M
    coset = Fraction(1, p**(M * n))
    lo = hi = Fraction(0)
    units = [u for u in range(modulus) if u % p]
    for x in itertools.product(units, repeat=n):
        vf, fdet = _min_ord(
            [_ord_residue(comp.evaluate_mod(x, modulus), p, M)
             for comp in comps])
        if g is None:
            vg, gdet = 0, True
        else:
            vg, gdet = _ord_residue(g.evaluate_mod(x, modulus), p, M)
        value = coset * Fraction(1, p**(s0 * vf + vg))
        if fdet and gdet:
            lo += value
            hi += value
        else:
            hi += value
    return Bracket(lo, hi)


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


def torus_closed_value(N, P, Q, p, n, s0, t=1) -> Fraction:
    """The N/P/Q closed form of the torus integral at s = s0."""
    ps = p**s0
    total = Fraction((p - 1)**n)
    total -= Fraction(p**t * N * (ps - 1), ps * p**t - 1)
    total -= Fraction(P * p, p + 1)
    total -= Fraction(p * Q * (p**(t - 1) * (ps * (p + 1) - 1) - 1),
                      (ps * p**t - 1) * (p + 1))
    return total / p**n
