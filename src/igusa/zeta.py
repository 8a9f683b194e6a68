"""Assembly of the zeta function: per-cone local factors L and lattice
sums S, their product-sum, and candidate poles, each a value with the
facet normals that give it and whether L's factor does.

The prime p is a fixed integer, so everything is an exact rational
function in t = p^(-s). Exponentials p^(a*s+b) turn into p^b * t^(-a);
the factor p^(a*s+b) - 1 is kept symbolically as the pair (a, b) for
display and becomes (p^b - t^a)/t^a when expanded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import cones
from .cones import ConePartition, RationalCone, simplicial_decompose
from .errors import InternalConsistencyError
from .ratfun import Poly, RationalFunction, binomial_product, sum_over


@dataclass(frozen=True)
class FactoredPiece:
    """A sum of terms p^(a*s+b) over a product of factors p^(a*s+b) - 1."""

    terms: tuple  # of (a, b), a the coefficient of s
    factors: tuple  # of (a, b)

    def expand(self, p):
        """(numerator, denominator) Polys of the piece, unreduced."""
        a_total = sum(a for a, _ in self.factors)
        coeffs = [0] * (a_total + 1)
        for a, b in self.terms:
            if a > a_total:
                raise InternalConsistencyError(
                    "numerator exponent escapes the denominator t-power")
            coeffs[a_total - a] += p**b
        return Poly(coeffs), binomial_product(self.factors, p)


@dataclass(frozen=True)
class CandidatePole:
    value: Fraction
    normals: tuple  # the facet normals that give the value, as found
    l_factor: bool  # whether L's factor p^(s+t) - 1 gives it


# -- the S factor -------------------------------------------------------


def _exponents(polyhedra, k):
    """(m_f(k), m_g(k) + sigma(k)), sigma(k) the sum of k's entries, from
    the polyhedra: Gamma_f alone for the trivial measure (m_g = 0)."""
    gamma_f, *gamma_g = polyhedra
    return (gamma_f.m_value(k),
            sum(gamma.m_value(k) for gamma in gamma_g) + sum(k))


def s_delta(cone: RationalCone, partition: ConePartition, p):
    """Lattice sum over N^n intersect the relatively open cone, as a
    reduced RationalFunction and the FactoredPieces whose sum it is.

    Uses the closed form over a half-open simplicial decomposition, which
    reads the cone's faces from the partition; the zero-dimensional cone
    contributes 1.
    """
    if cone.dim == 0:
        return RationalFunction.const(1), (FactoredPiece(((0, 0),), ()),)
    pieces = []
    for rays in simplicial_decompose(cone, partition):
        factors = tuple(_exponents(partition.polyhedra, k) for k in rays)
        _check_linear(partition.polyhedra, rays, factors)
        # looked up on the module, where perfbench/tracing.py wraps it
        terms = tuple(sorted(_exponents(partition.polyhedra, h)
                             for h in cones.parallelepiped_points(rays)))
        pieces.append(FactoredPiece(terms, factors))
    binomials = _largest_multiplicities(pieces)
    return (sum_over(binomials, p, (piece.expand(p) for piece in pieces)),
            tuple(pieces))


def _largest_multiplicities(pieces):
    """The factors of the pieces as a {(a, b): multiplicity} multiset,
    each at the largest multiplicity it has in any one piece: the
    binomials p^b - t^a whose product is a common denominator of the
    pieces, and whose known factors `sum_over` reduces by."""
    mult = Counter()
    for piece in pieces:
        mult |= Counter(piece.factors)
    return mult


def _check_linear(polyhedra, rays, exps):
    weight, measure = _exponents(polyhedra, tuple(map(sum, zip(*rays))))
    if weight != sum(a for a, _ in exps):
        raise InternalConsistencyError("weight is not linear on the piece")
    if measure != sum(b for _, b in exps):
        raise InternalConsistencyError("measure weight is not linear on the piece")


# -- the L factors ------------------------------------------------------


def _class_sum(sizes, p, n, t_count) -> RationalFunction:
    """The coset values of the four classes (neither vanishes, the f side
    only, g only, both), weighted by `sizes` and added over their shared
    denominator p^n (p+1) (p^tc - t), reduced.

    The integral of |f side|^s |g| |dx| over a coset a + (pZ_p)^n of a
    torus residue a depends, under non-degeneracy, only on whether the f
    side (tc = t_count components) and g vanish at a mod p:

        1/p^n,  times t (p^tc - 1)/(p^tc - t) when the f side does,
                times 1/(p + 1) when g does.

    Over the shared denominator a class has the numerator p^tc - t where
    the f side does not vanish and t (p^tc - 1) where it does, either
    times p + 1 where g does not vanish."""
    neither, f_only, g_only, both = sizes
    ptc = p**t_count
    fixed, vanishing = (p + 1) * neither + g_only, (p + 1) * f_only + both
    return RationalFunction(Poly([fixed * ptc, vanishing * (ptc - 1) - fixed]),
                            Poly([ptc, -1]) * (p**n * (p + 1)))


def l_delta(counts, p, n, t_count) -> RationalFunction:
    """The local factor L of a cone: the sum of the coset values over the
    (p-1)^n torus residues, whose classes count (p-1)^n - N - P - Q
    (neither vanishes), N (the f side only), P (g only) and Q (both).

    One formula serves every f side: a single polynomial is t_count = 1,
    and a monomial ideal, whose f side never vanishes on the torus, has
    N = Q = 0 and a constant L.
    """
    return _class_sum(((p - 1)**n - counts.N - counts.P - counts.Q, counts.N,
                       counts.P, counts.Q), p, n, t_count)


# -- assembly -----------------------------------------------------------


@dataclass
class ConeTerm:
    cone: RationalCone
    counts: object
    L: RationalFunction
    S: RationalFunction
    pieces: tuple  # FactoredPieces whose sum expands to S


def cone_terms(partition: ConePartition, counts, p, t_count):
    """Per-cone (L, S) data in partition order."""
    return [ConeTerm(cone, ct, l_delta(ct, p, partition.n, t_count),
                     *s_delta(cone, partition, p))
            for cone, ct in zip(partition.cones, counts)]


def denominator_binomials(terms, t_count):
    """Z's common denominator as a {(a, b): multiplicity} multiset of
    binomials p^b - t^a: every factor of the S pieces at its largest
    multiplicity in one piece, and L's p^(s+t_count) - 1 once more where
    some cone has N or Q (elsewhere L is a constant)."""
    binomials = _largest_multiplicities(
        piece for term in terms for piece in term.pieces)
    if any(term.counts.N or term.counts.Q for term in terms):
        binomials[1, t_count] += 1
    return binomials


def assemble(terms, p, binomials) -> RationalFunction:
    """Z(s) = sum over the cone terms of L * S, as a reduced rational
    function in t: the products are added over the product of
    `binomials`, which `denominator_binomials` made of the same terms,
    and reduced once by its factors. A degenerate input has already been
    refused (or overridden) before any term was built."""
    total = sum_over(binomials, p,
                     ((term.L.num * term.S.num, term.L.den * term.S.den)
                      for term in terms))
    _check_no_pole_at_origin(total)
    return total


def _check_no_pole_at_origin(rf: RationalFunction):
    # Z is bounded as Re(s) -> +infinity, so t = 0 cannot be a pole.
    if not rf.is_zero() and rf.den.coeffs[0] == 0:
        raise InternalConsistencyError(
            "residual negative power of t survived reduction")


def common_denominator_form(z: RationalFunction, binomials, p):
    """(numerator Poly with integer coefficients, constant_divisor,
    factors) with z = numerator / (constant_divisor * prod factors).

    `binomials` is Z's {(a, b): multiplicity} denominator multiset, each
    (a, b) standing for p^b - t^a as `binomial_product` multiplies it;
    the factors are its poles (a > 0) at their multiplicity and each
    constant once. The constant divisor is p + 1 times the lcm of the
    denominators the numerator would otherwise have."""
    factors = sorted(f for f, m in binomials.items()
                     for _ in range(m if f[0] else 1))
    den = binomial_product(factors, p) * (p + 1)
    content = z.den.content()
    cof = den.exact_div(z.den.primitive())
    # z = num * cof / (content * den); cancel what content shares with
    # the numerator's content
    numerator = z.num * cof
    common = gcd(numerator.content(), content)
    scale = content // common
    return (Poly([c // common for c in numerator.coeffs]), (p + 1) * scale,
            factors)


# -- candidate poles ----------------------------------------------------


def candidate_poles(polyhedra, normals, l_factor_t):
    """Real parts -(m_g(k)+sigma(k))/m_f(k), read from `polyhedra`, over
    the facet normals k of the polyhedron whose fan the formula sums over,
    plus the candidate -l_factor_t of L's factor p^(s+l_factor_t) - 1
    unless l_factor_t is None (an f side that never vanishes on the torus)."""
    found = {}
    for normal in normals:
        m, b = _exponents(polyhedra, normal)
        if m:
            found.setdefault(Fraction(-b, m), []).append(normal)
    l_values = set() if l_factor_t is None else {Fraction(-l_factor_t)}
    return [CandidatePole(v, tuple(found.get(v, ())), v in l_values)
            for v in sorted(found.keys() | l_values)]
