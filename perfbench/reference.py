"""References for the benchmark's outputs, computed apart from the program.

Nothing here imports `igusa`. Every reference is derived from how a
problem was built (see workloads.py) or from brute-force counting, and
none of them is a stored copy of an earlier output. `Reference.check`
raises `Mismatch` when a JSON document disagrees with its reference.

Multivariate polynomials are dicts {exponent tuple: int}; univariate
polynomials in t are lists of ints, index = power of t.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


class Mismatch(Exception):
    """A program output disagrees with its reference."""


class ConstructionError(Exception):
    """A generated problem does not meet the hypothesis of its reference."""


# -- univariate integer polynomials in t -------------------------------


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def pscale(a, c):
    return _trim([c * x for x in a])


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def peval(a, x):
    total = Fraction(0)
    for c in reversed(a):
        total = total * x + c
    return total


def same_ratfun(num, den, ref_num, ref_den):
    """num/den == ref_num/ref_den, by cross-multiplication."""
    return pmul(num, ref_den) == pmul(ref_num, den)


def power_series(num, den, terms):
    """First `terms` Taylor coefficients at t = 0 of num/den."""
    if not den or den[0] == 0:
        raise Mismatch("Z has a pole at t = 0")
    out = []
    rest = [Fraction(c) for c in num] + [Fraction(0)] * terms
    for k in range(terms):
        c = rest[k] / den[0]
        out.append(c)
        for j, d in enumerate(den):
            if k + j < len(rest):
                rest[k + j] -= c * d
    return out


# -- multivariate polynomials over the integers -------------------------


def eval_mod(poly, point, modulus):
    total = 0
    for exp, c in poly.items():
        v = c
        for a, e in zip(point, exp):
            if e:
                v = v * pow(a, e, modulus) % modulus
        total += v
    return total % modulus


def derivative(poly, i):
    out = {}
    for exp, c in poly.items():
        if exp[i]:
            e = list(exp)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + c * exp[i]
    return {e: c for e, c in out.items() if c}


def rank_mod(rows, p):
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_q(vectors):
    """Rank over the rationals of integer vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def degree(poly):
    degrees = {sum(e) for e in poly}
    return degrees.pop() if len(degrees) == 1 else None


# -- Z(s) references as rational functions in t ---------------------------


def homogeneous_zeta(comps, n, p):
    """Z for t forms of one degree d whose Jacobian has rank t at every
    nonzero common zero mod p, trivial measure:

        Z = (p^n - N0 + (N0-1)(p^t-1) T/(p^t-T)) / (p^n - T^d)

    with N0 the number of common zeros in F_p^n. Homogeneity gives
    Z = (contribution of the cosets a + (pZ_p)^n, a != 0) + p^-n T^d Z, and
    on a coset through a smooth zero the integral is p^-n (p^t-1)T/(p^t-T).
    Returns (numerator, denominator) in t.
    """
    d = degree({e: 1 for c in comps for e in c})
    if d is None:
        raise ConstructionError("components are not forms of one degree")
    t = len(comps)
    grads = [[derivative(c, i) for i in range(n)] for c in comps]
    zeros = 0
    for a in itertools.product(range(p), repeat=n):
        if any(eval_mod(c, a, p) for c in comps):
            continue
        zeros += 1
        if any(a):
            rows = [[eval_mod(g, a, p) for g in row] for row in grads]
            if rank_mod(rows, p) != t:
                raise ConstructionError(f"singular common zero {a} mod {p}")
    pt_minus_t = [p**t, -1]
    num = padd(pscale(pt_minus_t, p**n - zeros),
               pscale([0, 1], (zeros - 1) * (p**t - 1)))
    den = pmul(padd([p**n], [0] * d + [-1]), pt_minus_t)
    return num, den


# Closed form of the fixture (monomial ideal (x^5y, x^3y^2, x^2y^5) with
# measure x^4y^2 + xy^5), derived by hand for p = 1 mod 3:
#   Z = p^6 (p-1) A(t) / ((p+1) (p^2-t^2) (p^12-t^11) (p^8-t^5) (p^11-t^7) (p^3-t))
# with A given as t-degree -> {power of p: coefficient}. The torus count of
# the measure's face x^3 + y^3 depends on p mod 3, so the form holds only
# for p = 1 mod 3.
FIXTURE_A = {
    21: {2: -1, 1: -3, 0: 1}, 20: {5: 1, 4: 3, 3: -1},
    19: {5: -1, 4: 1, 3: 4, 2: -1}, 18: {7: -1, 6: -3, 5: 1, 4: -1, 2: 1},
    17: {7: 2, 5: -2}, 16: {6: 1, 4: -1}, 15: {9: -1, 7: 1, 6: -1, 4: 1},
    14: {13: 1, 12: 3, 11: -1, 9: 1, 7: -1}, 13: {15: -3},
    12: {15: -1, 14: -3, 13: 1}, 11: {17: 3, 15: 1, 13: -1},
    10: {18: -1, 16: 1, 14: 1, 13: 3, 12: -1}, 9: {17: -2, 16: -3, 15: 2},
    8: {20: 1, 18: -1, 17: 2, 15: -5}, 7: {20: -1, 18: 4},
    6: {19: -1, 17: 1}, 3: {25: -1, 24: -3, 23: 1}, 2: {27: 3},
    1: {26: 3}, 0: {30: 1, 29: -3, 28: -1},
}
FIXTURE_DEN = ((2, 2), (12, 11), (8, 5), (11, 7), (3, 1))  # p^b - t^a


def fixture_zeta(p):
    if p % 3 != 1:
        raise ConstructionError(f"the fixture's closed form needs p = 1 mod 3, got {p}")
    num = [0] * 22
    for deg, coeffs in FIXTURE_A.items():
        num[deg] = sum(c * p**e for e, c in coeffs.items())
    num = pscale(_trim(num), p**6 * (p - 1))
    den = [p + 1]
    for b, a in FIXTURE_DEN:
        den = pmul(den, padd([p**b], [0] * a + [-1]))
    return num, den


# -- Taylor coefficients from counts of zeros mod p^k ---------------------


def order_measures(poly, n, p, budget=150_000):
    """[mu(ord f = k) for k = 0..K-1], with K as large as `budget`
    allows. The zeros mod p^(k+1) are found by lifting those mod p^k;
    mu(ord f >= k) = N_k / p^(nk)."""
    zeros = [(0,) * n]  # the one residue class mod p^0
    counts = [1]
    modulus = 1
    while len(zeros) * p**n <= budget:
        lifted = []
        new_mod = modulus * p
        for base in zeros:
            for step in itertools.product(range(p), repeat=n):
                x = tuple(b + modulus * s for b, s in zip(base, step))
                if eval_mod(poly, x, new_mod) == 0:
                    lifted.append(x)
        zeros, modulus = lifted, new_mod
        counts.append(len(zeros))
        if not zeros:
            break
    at_least = [Fraction(c, p**(n * k)) for k, c in enumerate(counts)]
    return [at_least[k] - at_least[k + 1] for k in range(len(at_least) - 1)]


# -- Newton polyhedron facets -----------------------------------------


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v)


def facet_normals_2d(support):
    """Primitive inward facet normals of conv(support) + R_+^2, from the
    lower-left convex chain between the lowest-x and lowest-y points."""
    pts = sorted(set(support))
    chain = []
    for q in pts:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (q[1] - y1) - (y2 - y1) * (q[0] - x1) <= 0:
                chain.pop()
            else:
                break
        chain.append(q)
    normals = {(1, 0), (0, 1)}
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        if y2 < y1:
            normals.add(_primitive((y1 - y2, x2 - x1)))
    return normals


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def facet_normals_3d(support):
    """Primitive inward facet normals of conv(support) + R_+^3: every
    normal spanned by two directions drawn from support differences and
    unit vectors, kept when its supporting plane meets the polyhedron in
    a face of dimension 2."""
    pts = sorted(set(support))
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    directions = {tuple(b - a for a, b in zip(p, q))
                  for p, q in itertools.combinations(pts, 2)}
    directions.update(units)
    normals = set()
    for u, v in itertools.combinations(sorted(directions), 2):
        k = _cross(u, v)
        if not any(k):
            continue
        if all(x <= 0 for x in k):
            k = tuple(-x for x in k)
        if any(x < 0 for x in k):
            continue
        k = _primitive(k)
        if k in normals:
            continue
        dots = [sum(a * b for a, b in zip(k, q)) for q in pts]
        m = min(dots)
        touching = [q for q, d in zip(pts, dots) if d == m]
        spans = [tuple(b - a for a, b in zip(touching[0], q)) for q in touching[1:]]
        spans += [e for e, x in zip(units, k) if x == 0]
        if rank_q(spans) == 2:
            normals.add(k)
    return normals


def facet_normals(support, n):
    if n == 2:
        return facet_normals_2d(support)
    if n == 3:
        return facet_normals_3d(support)
    raise ConstructionError(f"no facet reference for n = {n}")


def expected_poles(support, n):
    """Candidate poles of a monomial ideal with trivial measure:
    -sigma(k)/m(k) over the facet normals k with m(k) > 0, each with the
    sorted rays that give it."""
    found = {}
    for k in sorted(facet_normals(support, n)):
        m = min(sum(a * b for a, b in zip(k, q)) for q in support)
        if m:
            found.setdefault(Fraction(-sum(k), m), []).append(k)
    return sorted(found.items())


# -- non-degeneracy verdicts of diagonal forms --------------------------


def diagonal_terms(poly):
    """[(variable index, exponent, coefficient)] of a diagonal form."""
    out = []
    for exp, c in poly.items():
        nonzero = [i for i, e in enumerate(exp) if e]
        if len(nonzero) != 1:
            raise ConstructionError("not a diagonal form")
        out.append((nonzero[0], exp[nonzero[0]], c))
    if len({i for i, _, _ in out}) != len(out):
        raise ConstructionError("not a diagonal form")
    return out


def singular_subsets(terms, p):
    """Subsets of a diagonal form's terms whose face polynomial could have
    a singular torus zero: at least two terms, each exponent divisible by p.
    Any other face polynomial has a partial derivative that is a unit times
    a monomial, hence nonzero on the torus."""
    divisible = [t for t in terms if t[1] % p == 0]
    return [subset for size in range(2, len(divisible) + 1)
            for subset in itertools.combinations(divisible, size)]


def is_singular_torus_zero(terms, point, p):
    if any(a % p == 0 for a in point):
        return False
    return any(sum(c * pow(point[i], e, p) for i, e, c in subset) % p == 0
               for subset in singular_subsets(terms, p))


def diagonal_verdict(terms, n, p):
    """True when the diagonal form is non-degenerate at p."""
    return not any(is_singular_torus_zero(terms, a, p)
                   for a in itertools.product(range(1, p), repeat=n))


# -- checking one output -------------------------------------------------


def _zeta(doc):
    try:
        z = doc["zeta"]
        return [int(c) for c in z["num"]], [int(c) for c in z["den"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise Mismatch(f"no readable zeta in the report: {exc!r}")


_RAY = re.compile(r"ray \(([-\d, ]+)\)")


class Reference:
    """What one problem's output must satisfy; built once per problem,
    outside the timed intervals, then applied to every output."""

    def __init__(self, problem):
        self.problem = problem
        pr = problem
        self.zeta = None  # (num, den) of the exact Z, when known
        self.orders = None  # Taylor coefficients at t = 0, when known
        self.poles = None
        self.verdicts = None
        if pr.command == "poles":
            self.poles = expected_poles(pr.f, pr.n)
            return
        if pr.command == "check":
            self.terms = diagonal_terms(pr.f[0])
            self.verdicts = {q: diagonal_verdict(self.terms, pr.n, q)
                             for q in pr.sweep}
            return
        if pr.kind == "fixture":
            self.zeta = fixture_zeta(pr.p)
        elif pr.kind == "homogeneous":
            self.zeta = homogeneous_zeta(pr.f, pr.n, pr.p)
        if pr.mode == "single" and pr.g is None and pr.p**pr.n <= 400:
            self.orders = order_measures(pr.f[0], pr.n, pr.p)
            if len(self.orders) < 2:
                raise ConstructionError(f"{pr.name}: too few Taylor terms")
        if pr.command == "oracle" and self.zeta is None:
            raise ConstructionError(f"{pr.name}: oracle needs an exact Z")

    def check(self, doc, code):
        """Raise Mismatch unless (doc, exit code) is a correct answer."""
        pr = self.problem
        want = 0
        if pr.command == "check" and not all(self.verdicts.values()):
            want = 2
        if code != want:
            raise Mismatch(f"exit code {code}, expected {want}")
        if doc.get("command") != pr.command:
            raise Mismatch(f"report for {doc.get('command')!r}")
        getattr(self, "_check_" + pr.command)(doc)

    def _check_compute(self, doc):
        pr = self.problem
        num, den = _zeta(doc)
        if self.zeta is not None and not same_ratfun(num, den, *self.zeta):
            raise Mismatch("Z differs from the closed-form reference")
        if self.orders is not None:
            series = power_series(num, den, len(self.orders))
            if series != self.orders:
                raise Mismatch("Taylor coefficients differ from "
                               "mu(ord f = k) counted mod p^k")
        total = peval(den, 1)
        if total == 0:
            raise Mismatch("Z has a pole at t = 1")
        if pr.g_integral is not None and peval(num, 1) / total != pr.g_integral:
            raise Mismatch(f"Z(1) = {peval(num, 1) / total}, expected "
                           f"integral of |g| = {pr.g_integral}")

    def _check_oracle(self, doc):
        pr = self.problem
        s0 = pr.s0
        tval = Fraction(1, pr.p**s0)
        ref = peval(self.zeta[0], tval) / peval(self.zeta[1], tval)
        try:
            value = Fraction(doc["formula_value"])
            lo = Fraction(doc["bracket"]["lo"])
            hi = Fraction(doc["bracket"]["hi"])
            level, got_s0 = doc["level"], doc["s0"]
        except (KeyError, TypeError, ValueError) as exc:
            raise Mismatch(f"unreadable oracle report: {exc!r}")
        if (level, got_s0) != (pr.level, s0):
            raise Mismatch(f"level/s0 {level}/{got_s0}, asked {pr.level}/{s0}")
        if value != ref:
            raise Mismatch(f"formula value {value} != reference {ref}")
        if not lo < hi or not lo <= ref <= hi:
            raise Mismatch(f"bracket [{lo}, {hi}] does not hold {ref} with lo < hi")
        if doc.get("contained") is not True:
            raise Mismatch("report does not say the value is contained")

    def _check_poles(self, doc):
        try:
            rows = [(Fraction(r["value"]),
                     [tuple(int(x) for x in m.split(","))
                      for m in _RAY.findall(r["source"])])
                    for r in doc["poles"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise Mismatch(f"unreadable pole table: {exc!r}")
        if rows != self.poles:
            raise Mismatch(f"poles {rows} != facet-normal reference {self.poles}")

    def _check_check(self, doc):
        pr = self.problem
        try:
            results = [(r["p"], r["ok"], r["reports"]["f"]) for r in doc["results"]]
        except (KeyError, TypeError) as exc:
            raise Mismatch(f"unreadable check report: {exc!r}")
        if [q for q, _, _ in results] != list(pr.sweep):
            raise Mismatch("swept primes differ from the request")
        for q, ok, report in results:
            if ok != self.verdicts[q] or report.get("ok") != ok:
                raise Mismatch(f"verdict at p={q} is {ok}, expected {self.verdicts[q]}")
            witnesses = report.get("witnesses", [])
            if ok != (not witnesses):
                raise Mismatch(f"p={q}: verdict and witnesses disagree")
            for w in witnesses:
                if not is_singular_torus_zero(self.terms, w["point"], q):
                    raise Mismatch(f"p={q}: {w['point']} is not a singular "
                                   "torus zero of a face polynomial")
