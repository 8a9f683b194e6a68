"""Brute-force verification: truncated p-adic integrals with rigorous
two-sided brackets, exact coset measures and the coset closed values
they must bracket. The torus integral must bracket the L factor of the
formula, `zeta.l_delta`, at t = p^(-s0).

All integrals are evaluated at a positive integer s = s0, which makes
the integrand a simple function with exact rational values. Truncation
at level M refines cosets down to residues mod p^M at most; a coset on
which the order of a factor is still not determined contributes 0 to
the lower bound and a worst-case value to the upper bound, so the true
integral always lies inside the bracket.

The truncated, coset and torus integrals differ only in the cosets mod
p they start from: each is a guard plus one call of `_bracket`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

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


def _order(v, p, j):
    """The order of a residue v mod p^j; j when v = 0, where only
    'order >= j' is known."""
    if v == 0:
        return j
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e


def _bracket(cosets, fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| |dx| over the cosets
    a + (pZ_p)^n for a in cosets, each a with coordinates in range(p).
    g may be None (trivial measure).

    A coset mod p^j is split into its p^n sub-cosets mod p^(j+1) only
    while the order of the f side or of g on it is open and j < M. A
    coset settled at level j has the same orders on all its p^((M-j)n)
    residues mod p^M; one still open at level M counts its lower bound in
    the upper sum only. Residues are counted per exponent
    s0*ord(fside) + ord(g) in integers and weighed once at the end.
    """
    n = fside.n
    if isinstance(fside, MonomialIdealSpec):
        # a monomial's order is read off the orders of the coordinates
        atoms = [itemgetter(i) for i in range(n)]
        monomials = fside.generators
    else:  # each component is a generator: a unit vector, cut after its 1
        atoms = [c.mod_evaluator(p**M) for c in components(fside)]
        monomials = [[0] * k + [1] for k in range(len(atoms))]
    # A generator's order is the weighted sum of its atoms' orders, open
    # if an atom is. With an order o at level j keyed width*o + (o == j),
    # a generator's key is width*order + its weight on open atoms, so one
    # min finds the least order and prefers a settled generator; settled,
    # it stays least in the sub-cosets, where open orders only grow.
    width = 1 + max(map(sum, monomials))
    gev = None if g is None else g.mod_evaluator(p**M)
    every, determined = Counter(), Counter()

    def refine(points, j):
        pj = p**j
        weight = p**((M - j) * n)
        for a in points:
            keys = []
            for atom in atoms:
                o = _order(atom(a) % pj, p, j)
                keys.append(width * o + (o == j))
            vf, fopen = divmod(min(sum(map(mul, mono, keys))
                                   for mono in monomials), width)
            vg = 0 if gev is None else _order(gev(a) % pj, p, j)
            e = s0 * vf + vg
            if not fopen and vg < j:
                every[e] += weight
                determined[e] += weight
            elif j < M:
                refine(itertools.product(*(range(x, p * pj, pj) for x in a)),
                       j + 1)
            else:
                every[e] += 1

    refine(cosets, 1)

    def weigh(counts):
        return sum((Fraction(c, p**e) for e, c in counts.items()),
                   Fraction(0)) / p**(M * n)

    return Bracket(weigh(determined), weigh(every))


def truncated_integral(fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral over Z_p^n of |fside|^s0 |g| |dx| at
    level M. g may be None (trivial measure)."""
    guard(p**(M * fside.n), "truncated integration")
    return _bracket(itertools.product(range(p), repeat=fside.n),
                    fside, g, p, s0, M)


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
    base = tuple(x % p for x in a)
    _hypotheses(fside, g, p)(base)
    guard(p**((M - 1) * fside.n), "coset integration")
    return _bracket([base], fside, g, p, s0, M)


def torus_integral(fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| over (Z_p^x)^n, after
    checking the coset hypotheses at every torus residue."""
    guard(((p - 1) * p**(M - 1))**fside.n, "torus integration")
    check = _hypotheses(fside, g, p)
    points = list(counting._torus(p, fside.n))
    for a in points:
        check(a)
    return _bracket(points, fside, g, p, s0, M)


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
