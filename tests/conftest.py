"""Shared fixtures and references.

The running two-variable example pairs the monomial ideal (x^5y, x^3y^2,
x^2y^5) with the measure polynomial g = x^4y^2 + xy^5. Its fan, counts
and zeta function are known in closed form, which makes it the anchor
for golden tests.

The references are what the tests check the program against and the CLI
never runs: the rank over F_p by Gaussian elimination, the facets of a
cone by the search over every (d-1)-subset of its rays, the per-point
torus test that `counting.sweep`'s fibres replace, the closed values of
a coset's integral and of the measure of A_{k,l}, the hypotheses under
which they hold, the oracle's brackets over one coset or over the
torus, the cone that holds a weight, and exact evaluation.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from igusa import linalg, oracle, zeta
from igusa.polynomials import MonomialIdealSpec, parse_polynomial
from igusa.problem import ProblemSpec


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p by Gaussian elimination with
    inverses mod p, apart from `linalg.rank_mod`'s echelon form."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def subset_facets(rays):
    """Inward facet normals of a full-dimensional cone by the search over
    every (d-1)-subset of its rays, apart from `linalg.cone_facets`' double
    description. A subset of rank d-1 leaves a single zero row of H in
    the echelon form of its transpose, and the last row of U, orthogonal
    to the d-1 rays, is the candidate; as a row of a unimodular matrix it
    is primitive. A candidate that supports the cone is a facet normal.
    The sum of the rays lies in the interior, where every facet normal is
    positive, so it orients the candidates; many ray subsets span the same
    hyperplane, and each hyperplane is tested once."""
    d = len(rays[0])
    interior = [sum(col) for col in zip(*rays)]
    supporting = {}
    for sub in itertools.combinations(rays, d - 1):
        m, pivots = linalg.echelon(list(zip(*sub)))
        if len(pivots) < d - 1:
            continue
        h = tuple(m[-1][d - 1:])
        if linalg.vec_dot(h, interior) < 0:
            h = tuple(-x for x in h)
        if h not in supporting:
            supporting[h] = all(linalg.vec_dot(h, r) >= 0 for r in rays)
    return sorted(h for h, ok in supporting.items() if ok)


def report_budget(label, started, limit):
    """Print one PASS/FAIL line with the time since `started` (a
    time.perf_counter() reading) and fail when it exceeds `limit` seconds."""
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed <= limit else "FAIL"
    print(f"{status} {label} ({elapsed:.2f}s of {limit:g}s budget)")
    assert elapsed <= limit, f"{label} exceeded {limit}s"


def example_ideal():
    return MonomialIdealSpec(2, [(5, 1), (3, 2), (2, 5)])


def example_measure():
    return parse_polynomial("x^4*y^2 + x*y^5", 2)


def example_spec(p):
    return ProblemSpec("ideal", 2, p, example_ideal(), example_measure())


@pytest.fixture
def ideal():
    return example_ideal()


@pytest.fixture
def measure():
    return example_measure()


def closed_measure_value(p, n, k, l, t=1):
    """Closed measure of A_{k,l}: p^(-n-k-l+2) for a single polynomial
    (t = 1) and p^(-n-(k-1)t-l+1) for a t-component mapping; the former
    is the t = 1 instance of the latter."""
    return Fraction(1, p**(n + (k - 1) * t + l - 1))


def reference_coset_value(fzero, gzero, p, n, s0, t=1) -> Fraction:
    """The four-case closed value of the coset integral at s = s0."""
    base = Fraction(1, p**n)
    if not fzero and not gzero:
        return base
    if fzero and not gzero:
        return base * Fraction(p**t - 1, p**(s0 + t) - 1)
    if not fzero and gzero:
        return base * Fraction(1, p + 1)
    return base * Fraction(p**t - 1, (p**(s0 + t) - 1) * (p + 1))


def class_value(fzero, gzero, p, n, s0, t=1) -> Fraction:
    """The formula's own integral over one coset of the class (fzero,
    gzero) at s = s0: `zeta._class_sum` weighing that class alone."""
    sizes = [0, 0, 0, 0]
    sizes[fzero + 2 * gzero] = 1
    return zeta._class_sum(sizes, p, n, t).evaluate(Fraction(1, p**s0))


# -- the torus test point by point, apart from `counting.sweep`'s fibres


def _zero_test(polys, p):
    """point -> whether every one of polys vanishes at point mod p."""
    evaluators = [poly.mod_evaluator(p) for poly in polys]

    def vanishes(point):
        return not any(value(point) for value in evaluators)
    return vanishes


def point_test(fparts, gparts, p):
    """Compiled once for both sides (None never vanishes): their zero
    tests and point -> (f vanishes, g vanishes, failures), the failures
    being an f-side Jacobian of rank below t for t parts, a zero gradient
    of g and a stacked Jacobian of rank below t + 1."""
    fzero, gzero = ((lambda point: False) if parts is None
                    else _zero_test(parts, p) for parts in (fparts, gparts))
    fgrad, ggrad = ([[poly.partial_derivative(i).mod_evaluator(p)
                      for i in range(1, poly.n + 1)] for poly in parts or ()]
                    for parts in (fparts, gparts))
    t = len(fgrad)

    def test(a):
        fz, gz = fzero(a), gzero(a)
        frows = [[d(a) for d in row] for row in fgrad] if fz else []
        grows = [[d(a) for d in row] for row in ggrad] if gz else []
        return fz, gz, (fz and rank_mod_p(frows, p) < t,
                        gz and rank_mod_p(grows, p) < 1,
                        fz and gz and rank_mod_p(frows + grows, p) < t + 1)
    return fzero, gzero, test


# -- the closed values' hypotheses, and what the oracle brackets under them


class HypothesisFailure(Exception):
    """A closed value's hypothesis does not hold at the given point."""


def hypothesis_check(fside, g, p):
    """The conditions a coset base point must satisfy, compiled once:
    wherever a factor vanishes mod p, the corresponding Jacobian has
    maximal rank mod p.

    The returned check takes a point with coordinates in range(p),
    returns (fzero, gzero) and raises HypothesisFailure naming the
    failing condition. A monomial ideal never vanishes on the torus and
    is read so, as the checks do; a point off the torus is refused.
    """
    ideal = isinstance(fside, MonomialIdealSpec)
    comps = (fside,) if ideal else fside.components
    test = point_test(None if ideal else comps, None if g is None else [g],
                      p)[2]
    conditions = ("the f side's Jacobian is rank-deficient",
                  "the measure polynomial is singular",
                  f"the stacked Jacobian has rank below {len(comps) + 1}")

    def check(a):
        if ideal and 0 in a:
            raise HypothesisFailure(f"{a} mod {p} is off the torus, where a "
                                    "monomial ideal is not read")
        fzero, gzero, failed = test(a)
        for bad, condition in zip(failed, conditions):
            if bad:
                raise HypothesisFailure(f"{condition} at {a} mod {p}")
        return fzero, gzero

    return check


def find_base_point(fside, g, p, want_fzero=True, want_gzero=True):
    """A point of {1..p-1}^n with the requested vanishing pattern at which
    the hypotheses hold; None when there is none."""
    check = hypothesis_check(fside, g, p)
    for a in itertools.product(range(1, p), repeat=fside.n):
        try:
            if check(a) == (want_fzero, want_gzero):
                return a
        except HypothesisFailure:
            continue
    return None


def measure_A_kl(fside, g, a, p, k, l) -> Fraction:
    """Exact measure of {x in a + (pZ_p)^n : fside(x) = 0 mod p^k and
    g(x) = 0 mod p^l}, counted from the census of the coset at level
    max(k, l), where an order still open is at least k and l. The base
    point must annihilate both factors, with the hypotheses holding."""
    if hypothesis_check(fside, g, p)(a) != (True, True):
        raise HypothesisFailure(
            "the base point must annihilate both factors mod p")
    depth = max(k, l)
    census = oracle._census([a], fside, g, p, depth)
    count = sum(c for (vf, vg, _), c in census.items() if vf >= k and vg >= l)
    return Fraction(count, p**(depth * fside.n))


def coset_bracket(a, fside, g, p, s0, M):
    """The oracle's bracket of the integral of |fside|^s0 |g| over the
    coset a + (pZ_p)^n, once the hypotheses hold at a."""
    hypothesis_check(fside, g, p)(a)
    return oracle._bracket([a], fside, g, p, s0, M)


def torus_bracket(fside, g, p, s0, M):
    """The oracle's bracket of the integral of |fside|^s0 |g| over the
    torus (Z_p^x)^n, once the hypotheses hold at every residue."""
    check = hypothesis_check(fside, g, p)
    torus = list(itertools.product(range(1, p), repeat=fside.n))
    for a in torus:
        check(a)
    return oracle._bracket(torus, fside, g, p, s0, M)


def classify(partition, k):
    """The unique cone of the partition whose relatively open set holds
    k >= 0: the one labeled with the faces that each polyhedron meets
    first at k."""
    labels = tuple(gamma.first_meet_locus(k) for gamma in partition.polyhedra)
    matches = [cone for cone in partition.cones if cone.labels == labels]
    assert len(matches) == 1, f"{len(matches)} cones carry the labels of {k}"
    return matches[0]


def partition_rays(partition):
    """All distinct primitive ray generators of the partition's cones,
    sorted: the source of the candidate poles before they were read off
    the facet normals of the fan's polyhedron."""
    return sorted({ray for cone in partition.cones for ray in cone.rays})


def evaluate(poly, point):
    """Exact integer value of an IntegerPolynomial, apart from
    `mod_evaluator`."""
    return sum(c * math.prod(a**e for a, e in zip(point, exp))
               for exp, c in poly.terms.items())


def primitive(v):
    """Scale an integer vector by 1/gcd; the zero vector stays zero."""
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def laplace_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1)**j * m[0][j] * laplace_det([row[:j] + row[j + 1:]
                                                 for row in m[1:]])
               for j in range(len(m)))


def minor_gcd(rays):
    """The multiplicity of independent rays k_1..k_r in Z^n, counted apart
    from the echelon form: the gcd of the r x r minors of the n x r matrix
    (k_1 ... k_r), which is the index of Z k_1 + ... + Z k_r in the
    lattice points of its span."""
    return math.gcd(*(laplace_det([[ray[i] for ray in rays] for i in rows])
                      for rows in itertools.combinations(range(len(rays[0])),
                                                         len(rays))))
