"""Assembly of the zeta function: per-cone local factors L and lattice
sums S, their product-sum, and candidate-pole extraction.

The prime p is a fixed integer, so everything is an exact rational
function in t = p^(-s). Exponentials p^(a*s+b) turn into p^b * t^(-a);
the factor p^(a*s+b) - 1 is kept symbolically as an ExpFactor (a, b) for
display and becomes (p^b - t^a)/t^a when expanded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cones import ConePartition, RationalCone, simplicial_decompose
from .errors import InternalConsistencyError
from .ratfun import Poly, RationalFunction, sum_over


@dataclass(frozen=True)
class ExpFactor:
    """The denominator factor p^(a*s+b) - 1."""

    a: int  # coefficient of s (nonnegative)
    b: int  # constant part

    def __post_init__(self):
        if (self.a, self.b) == (0, 0):
            raise ValueError("p^0 - 1 would be the zero factor")

    def numerator_poly(self, p):
        if self.a == 0:
            return Poly.const(p**self.b - 1)
        return Poly({0: p**self.b, self.a: -1})


@dataclass(frozen=True)
class FactoredPiece:
    """sum of coeff * p^(a*s+b) terms over a product of ExpFactors."""

    terms: tuple  # of (coeff, a, b)
    factors: tuple  # of ExpFactor

    def expand(self, p):
        """(numerator, denominator) Polys of the piece, unreduced."""
        a_total = sum(f.a for f in self.factors)
        num = Poly({})
        for coeff, a, b in self.terms:
            if a > a_total:
                raise InternalConsistencyError(
                    "numerator exponent escapes the denominator t-power")
            num = num + Poly({a_total - a: coeff * p**b})
        den = Poly.const(1)
        for f in self.factors:
            den = den * f.numerator_poly(p)
        return num, den

    def to_json(self):
        return {"terms": [[c, a, b] for c, a, b in self.terms],
                "factors": [[f.a, f.b] for f in self.factors]}


@dataclass
class ZetaRational:
    reduced: RationalFunction
    factored: tuple = ()  # FactoredPieces whose sum expands to `reduced`
    notes: tuple = ()

    def evaluate(self, tval):
        return self.reduced.evaluate(tval)

    def to_json(self):
        out = self.reduced.to_json()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass(frozen=True)
class CandidatePole:
    value: Fraction
    source: str


# -- the S factor -------------------------------------------------------


def _exponents(partition: ConePartition, k):
    """(m_f(k), m_g(k) + sigma(k)) from the partition's polyhedra, Gamma_f
    alone for the trivial measure (m_g = 0); sigma(k) is the sum of the
    entries of k."""
    gamma_f, *gamma_g = partition.polyhedra
    return (gamma_f.m_value(k),
            sum(gamma.m_value(k) for gamma in gamma_g) + sum(k))


def s_delta(cone: RationalCone, partition: ConePartition, p) -> ZetaRational:
    """Lattice sum over N^n intersect the relatively open cone.

    Uses the closed form over a half-open simplicial decomposition, which
    reads the cone's faces from the partition; the zero-dimensional cone
    contributes 1.
    """
    if cone.dim == 0:
        piece = FactoredPiece(((1, 0, 0),), ())
        return ZetaRational(RationalFunction.const(1), (piece,))
    pieces = []
    for sp in simplicial_decompose(cone, partition):
        exps = [_exponents(partition, k) for k in sp.rays]
        _check_linear(partition, sp.rays, exps)
        factors = tuple(ExpFactor(a, b) for a, b in exps)
        terms = tuple(sorted((1, *_exponents(partition, h))
                             for h in sp.pp_points))
        pieces.append(FactoredPiece(terms, factors))
    den = _binomial_product((piece.factors for piece in pieces), p)
    return ZetaRational(sum_over(den, (piece.expand(p) for piece in pieces)),
                        tuple(pieces))


def _binomial_product(factor_lists, p):
    """Product of the ExpFactors, each at the largest multiplicity it has
    in any one of the lists: a common denominator of the pieces."""
    mult = Counter()
    for factors in factor_lists:
        mult |= Counter(factors)
    den = Poly.const(1)
    for f in mult.elements():
        den = den * f.numerator_poly(p)
    return den


def _check_linear(partition, rays, exps):
    weight, measure = _exponents(partition, tuple(map(sum, zip(*rays))))
    if weight != sum(a for a, _ in exps):
        raise InternalConsistencyError("weight is not linear on the piece")
    if measure != sum(b for _, b in exps):
        raise InternalConsistencyError("measure weight is not linear on the piece")


# -- the L factors ------------------------------------------------------


def l_delta(counts, p, n, t_count) -> RationalFunction:
    """Four-term local factor for a mapping with tc = t_count components,

        L = ((p-1)^n - p^tc N (1-t)/(p^tc - t) - pP/(p+1)
             - pQ (p^(tc-1)(p+1) - (p^(tc-1)+1) t) / ((p+1)(p^tc - t))) / p^n,

    built over its common denominator p^n (p+1) (p^tc - t) and reduced once.

    One formula serves every f side: a single polynomial is t_count = 1,
    and a monomial ideal, whose f side never vanishes on the torus, has
    N = Q = 0, which leaves the constant ((p-1)^n - pP/(p+1)) / p^n.
    """
    q, ptc = p**(t_count - 1), p**t_count
    ptc_minus_t = Poly({0: ptc, 1: -1})
    num = (ptc_minus_t * ((p - 1)**n * (p + 1) - p * counts.P)
           - Poly([1, -1]) * (ptc * (p + 1) * counts.N)
           - Poly([q * (p + 1), -(q + 1)]) * (p * counts.Q))
    return RationalFunction(num, ptc_minus_t * (p**n * (p + 1)))


# -- assembly -----------------------------------------------------------


@dataclass
class ConeTerm:
    cone: RationalCone
    counts: object
    L: RationalFunction
    S: ZetaRational


def cone_terms(partition: ConePartition, counts, p, t_count):
    """Per-cone (L, S) data in partition order."""
    return [ConeTerm(cone, ct, l_delta(ct, p, partition.n, t_count),
                     s_delta(cone, partition, p))
            for cone, ct in zip(partition.cones, counts)]


def assemble(terms, p, notes=()) -> ZetaRational:
    """Z(s) = sum over the cone terms of L * S, as a reduced rational
    function in t.

    The terms come from `cone_terms`; a degenerate input has already been
    refused (or overridden, with `notes` carrying the watermark) before
    any of them was built. The products are added over one common
    denominator, every ExpFactor of the S pieces at its largest
    multiplicity in one piece times each non-constant L denominator
    (p^tc - t), and reduced once.
    """
    den = _binomial_product(
        (piece.factors for term in terms for piece in term.S.factored), p)
    for L in {term.L.den.primitive() for term in terms}:
        if L.degree > 0:
            den = den * L
    total = sum_over(den, ((term.L.num * term.S.reduced.num,
                            term.L.den * term.S.reduced.den)
                           for term in terms))
    _check_no_pole_at_origin(total)
    return ZetaRational(total, notes=tuple(notes))


def _check_no_pole_at_origin(rf: RationalFunction):
    # Z is bounded as Re(s) -> +infinity, so t = 0 cannot be a pole.
    if not rf.is_zero() and rf.den.coeffs[0] == 0:
        raise InternalConsistencyError(
            "residual negative power of t survived reduction")


def display_factors(terms, t_count):
    """Distinct ExpFactors over all cones, for the common-denominator view:
    those of the S pieces, and L's p^(s+t_count) - 1 where some cone has
    N or Q."""
    factors = []
    for term in terms:
        for piece in term.S.factored:
            for f in piece.factors:
                if f not in factors:
                    factors.append(f)
    if any(term.counts.N or term.counts.Q for term in terms):
        lf = ExpFactor(1, t_count)
        if lf not in factors:
            factors.append(lf)
    return sorted(factors, key=lambda f: (f.a, f.b))


def common_denominator_form(z: ZetaRational, factors, p):
    """(numerator Poly with integer coefficients, constant_divisor) with
    z = numerator / (constant_divisor * prod factors), or None when the
    reduced denominator does not divide that product.

    The constant divisor is p + 1 times the lcm of the denominators the
    numerator would otherwise have."""
    den = Poly.const(p + 1)
    for f in factors:
        den = den * f.numerator_poly(p)
    content = z.reduced.den.content()
    cof = den.quotient(z.reduced.den.primitive())
    if cof is None:
        return None
    # z = num * cof / (content * den); cancel what content shares with
    # the numerator's content
    numerator = z.reduced.num * cof
    common = gcd(numerator.content(), content)
    scale = content // common
    return Poly([c // common for c in numerator.coeffs]), (p + 1) * scale


# -- candidate poles ----------------------------------------------------


def candidate_poles(partition: ConePartition, l_factor_t):
    """Real parts -(m_g(k)+sigma(k))/m_f(k) over primitive ray generators,
    plus the candidate -l_factor_t of L's factor p^(s+l_factor_t) - 1
    unless l_factor_t is None (an f side that never vanishes on the
    torus)."""
    found = {}
    for ray in partition.rays():
        m, b = _exponents(partition, ray)
        if m == 0:
            continue
        value = Fraction(-b, m)
        found.setdefault(value, []).append(f"ray {ray}")
    if l_factor_t is not None:
        found.setdefault(Fraction(-l_factor_t), []).append("L-factor")
    return [CandidatePole(v, "; ".join(found[v])) for v in sorted(found)]
