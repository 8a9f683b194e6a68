"""Brute-force verification: the truncated p-adic integral over Z_p^n
with a rigorous two-sided bracket, which `oracle` compares with Z at
t = p^(-s0).

All integrals are evaluated at a positive integer s = s0, which makes
the integrand a simple function with exact rational values. Truncation
at level M refines cosets down to residues mod p^M at most; a coset on
which the order of a factor is still not determined contributes 0 to
the lower bound and a worst-case value to the upper bound, so the true
integral always lies inside the bracket.

The integral reads one census, `_census`: the residues mod p^M of the
starting cosets mod p, counted by the orders of the f side and of g.
`_bracket` weighs it; both take the cosets to start from, so the tests
bracket one coset or the torus, and count the measure of A_{k,l}, from
the same census.

The census lifts one level at a time by an exact first-order Taylor
identity (see `_census`), which assumes no smoothness: a coset mod p^j
is split only into the sub-cosets mod p^(j+1) on which the f side or g
stays open, and each of those evaluates its open parts once. The guard
still refuses by the worst case, p^(Mn) residues, however few of them
the census visits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import guard
from .polynomials import IntegerPolynomial, MonomialIdealSpec


@dataclass(frozen=True)
class Bracket:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty bracket")

    def contains(self, value):
        return self.lo <= value <= self.hi


def _census(cosets, fside, g, p, M) -> Counter:
    """The residues mod p^M of the cosets a + (pZ_p)^n, a in cosets (each
    with coordinates in range(p)), counted by (ord fside, ord g, settled).
    g may be None (trivial measure, order 0).

    The parts are the f side's atoms (the coordinates of a monomial
    ideal, the components otherwise) and g, each an IntegerPolynomial. A
    part is open on a coset mod p^j while it is 0 mod p^j there. A coset
    settles once neither the f side nor g is open, and then has the same
    orders on all its p^((M-j)n) residues mod p^M; one still open at
    level M counts 1, with its orders as lower bounds: an open order is
    then at least M.

    Level 1 evaluates every part at every starting coset. Below it, a
    part P open on a mod p^j, with P(a) = p^j u mod p^(j+1), has

        P(a + p^j c) = p^j (u + grad P(a) . c)  mod p^(j+1)

    for every c in F_p^n. This is exact for every p, 2 included: the
    Taylor coefficients d^k P / k! are integer polynomials, so every term
    of degree >= 2 in p^j c is divisible by p^(2j), and 2j >= j + 1. And
    grad P(a) = grad P(a0) mod p for the starting coset a0 that a lies
    in. So P stays open on the sub-cosets c of one affine hyperplane of
    F_p^n (on all or none of them when its gradient is 0 mod p), and its
    order is exactly j on the others; settled parts keep their orders.

    Only the hyperplanes' p^(n-1) points are listed. A pattern of open
    parts has one key, computed once. The sub-cosets off every hyperplane
    share a pattern and are counted, not visited, as are those whose
    pattern settles or reaches level M. The others are visited, each
    evaluating its open parts once mod p^M; all p^n sub-cosets are
    streamed only when a part with a zero gradient stays open on all.
    """
    n = fside.n
    if isinstance(fside, MonomialIdealSpec):
        atoms = [IntegerPolynomial.monomial(n, [int(i == k) for i in range(n)])
                 for k in range(n)]
        monomials = fside.generators
    else:  # each component is a generator: a unit vector, cut after its 1
        atoms = list(fside.components)
        monomials = [[0] * k + [1] for k in range(len(atoms))]
    # A generator's order is the weighted sum of its atoms' orders, open
    # if an atom is. With an order o keyed width*o + (open), a generator's
    # key is width*order + its weight on open atoms, so one min finds the
    # least order and prefers a settled generator; settled, it stays least
    # in the sub-cosets, where open orders only grow.
    width = 1 + max(map(sum, monomials))
    parts = atoms if g is None else atoms + [g]
    gbit = 0 if g is None else 1 << len(atoms)
    values = [part.mod_evaluator(p**M) for part in parts]
    slopes = [[part.partial_derivative(k).mod_evaluator(p)
               for k in range(1, n + 1)] for part in parts]
    # a sub-coset c is indexed by sum c_k p^k
    places = [p**k for k in range(n)]
    keys = {}
    census = Counter()

    def classify(orders, opened):
        """((ord fside, ord g), settled) from each part's order and the
        bit mask of the open ones, whose orders are lower bounds."""
        if (orders, opened) not in keys:
            marked = [width * o + (opened >> i & 1)
                      for i, o in enumerate(orders)]
            vf, fopen = divmod(min(sum(map(mul, mono, marked))
                                   for mono in monomials), width)
            vg = 0 if g is None else orders[-1]
            keys[orders, opened] = (vf, vg), not (fopen or opened & gbit)
        return keys[orders, opened]

    def hyperplanes(a):
        """For each part, None if its gradient at a is 0 mod p; otherwise
        (place, scale, rows) such that the sub-cosets on which it stays
        open, given u, are r + (w + scale*u) % p * place for (r, w) in
        rows: the pivot coordinate solved from the others."""
        planes = []
        for ds in slopes:
            grad = [d(a) for d in ds]
            pivot = next((k for k, d in enumerate(grad) if d), None)
            if pivot is None:
                planes.append(None)
                continue
            scale = -pow(grad[pivot], -1, p)
            rows = [(0, 0)]
            for k in range(n):
                if k != pivot:
                    rows = [(r + c * places[k], (w + c * grad[k] * scale) % p)
                            for r, w in rows for c in range(p)]
            planes.append((places[pivot], scale, rows))
        return planes

    def refine(a, j, orders, opened, planes):
        """Split the coset a mod p^j into its sub-cosets mod p^(j+1);
        opened maps each part open on a to its value mod p^M."""
        pj = p**j
        weight = p**((M - j - 1) * n)
        full = 0  # open parts with a zero gradient that stay open everywhere
        marks = {}  # sub-coset -> the parts with a gradient open on it
        for i, v in opened.items():
            u = v // pj % p
            if planes[i] is None:
                full |= (u == 0) << i
                continue
            place, scale, rows = planes[i]
            shift = scale * u
            for r, w in rows:
                z = r + (w + shift) % p * place
                marks[z] = marks.get(z, 0) | 1 << i

        tally = Counter(marks.values()) if marks else {}
        tally[0] = p**n - len(marks)
        deeper = {}  # pattern -> the orders of the sub-cosets to split
        for mask, count in tally.items():
            if not count:
                continue
            below = list(orders)
            for i in opened:
                below[i] = j + ((mask | full) >> i & 1)
            below = tuple(below)
            key, settled = classify(below, mask | full)
            if settled or j + 1 == M:
                census[key + (settled,)] += count * weight
            else:
                deeper[mask] = below
        if not deeper:
            return
        # every sub-coset, streamed, when those off the hyperplanes go on
        for z in range(p**n) if 0 in deeper else marks:
            below = deeper.get(marks.get(z, 0))
            if below is not None:
                b = tuple(x + pj * (z // d % p) for x, d in zip(a, places))
                refine(b, j + 1, below,
                       {i: values[i](b) for i in opened if below[i] > j},
                       planes)

    for a in cosets:
        level = [value(a) for value in values]
        opened = sum((v % p == 0) << i for i, v in enumerate(level))
        orders = tuple(opened >> i & 1 for i in range(len(parts)))
        key, settled = classify(orders, opened)
        if settled or M == 1:
            census[key + (settled,)] += p**((M - 1) * n)
        else:
            refine(a, 1, orders,
                   {i: v for i, v in enumerate(level) if opened >> i & 1},
                   hyperplanes(a))
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
