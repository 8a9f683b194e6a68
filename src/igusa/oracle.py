"""Brute-force verification: truncated p-adic integrals with rigorous
two-sided brackets and exact coset measures. The closed values they
must bracket at t = p^(-s0) are the formula's own: a coset integral
brackets `zeta.coset_value` of its class, and the torus integral its
sum over the torus, the L factor `zeta.l_delta`.

All integrals are evaluated at a positive integer s = s0, which makes
the integrand a simple function with exact rational values. Truncation
at level M refines cosets down to residues mod p^M at most; a coset on
which the order of a factor is still not determined contributes 0 to
the lower bound and a worst-case value to the upper bound, so the true
integral always lies inside the bracket.

Every quantity reads one census, `_census`: the residues mod p^M of
the starting cosets mod p, counted by the orders of the f side and of
g. The truncated, coset and torus integrals differ only in the cosets
they start from, and each is a guard plus one call of `_bracket`, which
weighs the census; `measure_A_kl` counts the entries that reach (k, l).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from . import counting
from .counting import components, point_test
from .errors import HypothesisError, guard
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


def _census(cosets, fside, g, p, M) -> Counter:
    """The residues mod p^M of the cosets a + (pZ_p)^n, a in cosets (each
    with coordinates in range(p)), counted by (ord fside, ord g, settled).
    g may be None (trivial measure, order 0).

    A coset mod p^j is split into its p^n sub-cosets mod p^(j+1) only
    while the order of the f side or of g on it is open and j < M. A
    coset settled at level j has the same orders on all its p^((M-j)n)
    residues mod p^M; one still open at level M counts 1, with its orders
    as lower bounds: an open order is then at least M.
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
    census = Counter()

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
            if not fopen and vg < j:
                census[vf, vg, True] += weight
            elif j < M:
                refine(itertools.product(*(range(x, p * pj, pj) for x in a)),
                       j + 1)
            else:
                census[vf, vg, False] += 1

    refine(cosets, 1)
    return census


def _bracket(cosets, fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| |dx| over the cosets
    a + (pZ_p)^n for a in cosets, weighed from their census: every entry
    counts in the upper sum, a settled one in the lower sum too."""
    lo = hi = Fraction(0)
    for (vf, vg, settled), count in _census(cosets, fside, g, p, M).items():
        term = Fraction(count, p**(s0 * vf + vg))
        hi += term
        if settled:
            lo += term
    return Bracket(lo / p**(M * fside.n), hi / p**(M * fside.n))


def truncated_integral(fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral over Z_p^n of |fside|^s0 |g| |dx| at
    level M. g may be None (trivial measure)."""
    guard(p, "truncated integration", M * fside.n)
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
    g(x) = 0 mod p^l}, from the census of the coset at level max(k, l).

    The base point must satisfy the common-vanishing hypothesis with a
    full-rank stacked Jacobian.
    """
    t = len(components(fside))
    n = fside.n
    if k < 1 or l < 1:
        raise ValueError("need k, l >= 1")
    if n < t + 1:
        raise HypothesisError(f"need n >= {t + 1} variables, got {n}")
    base = tuple(x % p for x in a)
    fzero, gzero = _hypotheses(fside, g, p)(base)
    if not (fzero and gzero):
        raise HypothesisError(
            "the base point must annihilate both factors mod p")
    depth = max(k, l)
    guard(p, "measure counting", (depth - 1) * n)
    census = _census([base], fside, g, p, depth)
    # an order still open at level depth is at least depth >= k, l
    count = sum(c for (vf, vg, _), c in census.items() if vf >= k and vg >= l)
    return Fraction(count, p**(depth * n))


def coset_integral(a, fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| over a + (pZ_p)^n."""
    base = tuple(x % p for x in a)
    _hypotheses(fside, g, p)(base)
    guard(p, "coset integration", (M - 1) * fside.n)
    return _bracket([base], fside, g, p, s0, M)


def torus_integral(fside, g, p, s0, M) -> Bracket:
    """Bracket of the integral of |fside|^s0 |g| over (Z_p^x)^n, after
    checking the coset hypotheses at every torus residue. The exact work
    ((p-1) p^(M-1))^n is built only once the smaller bound p^((M-1)n) of
    its cosets has passed the guard."""
    guard(p, "torus integration", (M - 1) * fside.n)
    guard((p - 1) * p**(M - 1), "torus integration", fside.n)
    check = _hypotheses(fside, g, p)
    points = list(counting._torus(p, fside.n))
    for a in points:
        check(a)
    return _bracket(points, fside, g, p, s0, M)
