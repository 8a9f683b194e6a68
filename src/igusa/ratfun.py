"""Exact univariate rational-function arithmetic in the variable t.

Polynomials are dense lists of integer coefficients (index = power of t).
Two division loops serve every job. `quotient` is exact division in
Z[t], or None when it is not exact; `exact_div` is the same where the
caller knows it is. `pseudo_remainder` is the remainder of lc^k * self,
which by a monic divisor is the plain remainder. The gcd is the
primitive polynomial remainder sequence over pseudo-remainders (Knuth,
TAOCP vol. 2, 4.6.1): each is divided by its content, so coefficients
stay small. `sum_over` divides by an irreducible monic base factor with
`quotient`, and by one that can split through its remainder and a
small gcd. By a monic divisor neither loop divides or rescales a
coefficient, so each is one pass.

RationalFunction keeps its canonical form: coprime integer polynomials,
jointly content-free, with a positive leading coefficient of the
denominator, which makes equality a plain comparison. A rational constant
such as 1/p^n is an integer numerator over an integer denominator. The
generic constructor reaches it through the full gcd. `sum_over` adds
many fractions over a denominator known to be a product of binomials
p^b - t^a and reduces once, against the monic, pairwise coprime factors
of those binomials, so no gcd at full degree runs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index

from .errors import InternalConsistencyError, PoleEvaluationError
from .polynomials import render_terms


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        """coeffs: integers by power of t, as a sequence or a {power: c} dict."""
        if isinstance(coeffs, dict):
            lst = [0] * (max(coeffs, default=-1) + 1)
            for e, c in coeffs.items():
                lst[e] = index(c)
        else:
            lst = [index(c) for c in coeffs]
        while lst and not lst[-1]:
            lst.pop()
        self.coeffs = lst

    @classmethod
    def _of(cls, lst):
        """A Poly that takes over `lst`, a list of ints the arithmetic
        below made, without checking each one as __init__ does."""
        while lst and not lst[-1]:
            lst.pop()
        poly = cls.__new__(cls)
        poly.coeffs = lst
        return poly

    @classmethod
    def const(cls, c):
        return cls([c])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out)

    def __neg__(self):
        return Poly._of([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly._of([c * other for c in self.coeffs] if other else [])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._of([])
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, c) for j, c in enumerate(b) if c]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in b_terms:
                    out[i + j] += ca * cb
        return Poly._of(out)

    __rmul__ = __mul__

    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        return gcd(*self.coeffs)

    def primitive(self):
        """self divided by its content."""
        c = self.content()
        if c <= 1:
            return self
        return Poly._of([x // c for x in self.coeffs])

    def pseudo_remainder(self, other):
        """r with lc(other)^k * self = q * other + r for some q in Z[t],
        k = max(0, deg self - deg other + 1) and deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        u, v = list(self.coeffs), other.coeffs
        n, lead = other.degree, v[-1]
        v_terms = [(j, c) for j, c in enumerate(v[:-1]) if c]
        for k in range(len(u) - n - 1, -1, -1):
            c = u.pop()  # the coefficient of t^(n+k)
            if lead != 1:  # by a monic divisor, a plain remainder
                u = [x * lead for x in u]
            if c:
                for j, vc in v_terms:
                    u[j + k] -= c * vc
        return Poly._of(u)

    def quotient(self, other):
        """self / other in Z[t], or None when other does not divide self
        there (for a primitive `other`, the same as over Q)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, v = list(self.coeffs), other.coeffs
        n, lead = other.degree, v[-1]
        if len(rem) <= n:
            return None if rem else Poly([])
        v_terms = [(j, c) for j, c in enumerate(v[:-1]) if c]
        q = [0] * (len(rem) - n)
        for k in range(len(q) - 1, -1, -1):
            c = rem[n + k]
            if c:
                if lead != 1:  # by a monic divisor, no division at all
                    c, r = divmod(c, lead)
                    if r:
                        return None
                q[k] = c
                for j, vc in v_terms:
                    rem[j + k] -= c * vc
        if any(rem[:n]):
            return None
        return Poly._of(q)

    def exact_div(self, other):
        """self / other, which the caller's invariants make a polynomial
        in Z[t]."""
        q = self.quotient(other)
        if q is None:
            raise InternalConsistencyError(
                f"division is not exact: ({self}) / ({other})")
        return q

    def gcd(self, other):
        """Greatest common divisor in Z[t], with a positive leading
        coefficient: the gcd of the contents times the last nonzero member
        of the primitive remainder sequence."""
        if self.is_zero() or other.is_zero():
            g = other if self.is_zero() else self
            return -g if g.coeffs and g.coeffs[-1] < 0 else g
        c = gcd(self.content(), other.content())
        a, b = self.primitive(), other.primitive()
        if a.degree < b.degree:
            a, b = b, a
        while b.degree > 0:
            r = a.pseudo_remainder(b)
            if r.is_zero():
                break
            a, b = b, r.primitive()
        else:
            b = Poly([1])
        if b.coeffs[-1] < 0:
            c = -c
        return b if c == 1 else b * c

    def evaluate(self, x):
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __str__(self):
        return render_terms(("t",), ((self.coeffs[e], (e,))
                                     for e in range(self.degree, -1, -1)
                                     if self.coeffs[e]))

    __repr__ = __str__


class RationalFunction:
    """Reduced fraction of integer-coefficient polynomials in t."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = Poly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls(Poly.const(c.numerator), Poly.const(c.denominator),
                   _normalized=True)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def evaluate(self, tval):
        tval = Fraction(tval)
        den = self.den.evaluate(tval)
        if den == 0:
            raise PoleEvaluationError(f"evaluation at pole t = {tval}")
        return self.num.evaluate(tval) / den


def binomial(a, b, p):
    """p^b - t^a, the expansion of p^(a*s+b) - 1 times t^a (a constant
    when a = 0)."""
    if a == 0:
        return Poly.const(p**b - 1)
    return Poly({0: p**b, a: -1})


def binomial_product(pairs, p):
    """The product of the binomials p^b - t^a over the (a, b) in `pairs`,
    each taken as often as it occurs."""
    den = Poly.const(1)
    for a, b in pairs:
        den = den * binomial(a, b, p)
    return den


def sum_over(binomials, p, fractions):
    """The sum of num/d over the (num, d) Poly pairs in `fractions`, as one
    reduced RationalFunction, where every d divides over Q the product of
    the binomials p^b - t^a (b >= 1), each (a, b) taken to its
    multiplicity in the mapping `binomials`.

    Each d is split into its content c and primitive part, which divides
    that product in Z[t]; num * (product / primitive part) / c is brought
    over the product times the lcm of the contents, and the numerators
    are added. The sum is reduced once, against the coprime base of the
    known denominator instead of by a gcd at full degree:

      with g = gcd(a, b), a = g a' and b = g b', t^a - p^b is the product
      over d | g of F = Phi_d^hom(t^a', p^b'). Each F is monic, so N / F
      and N mod F are exact in Z[t]; its roots are the t with t^a' =
      zeta p^b' for a primitive d-th root of unity zeta, so F is
      squarefree and F's of distinct (a', b', d) share no root. For
      d = 1, t^a' - p^b' is irreducible (Capelli: p^b' is no q-th power
      for a prime q | a', and it is positive), so F either divides N or
      is coprime to it; for d > 1, F can split, and N shares
      gcd(N mod F, F) with it.

    Every base factor is divided out as often as the numerator allows,
    then the joint content, the gcd that remains in Z[t], is cancelled.
    The result is the canonical form, the one `RationalFunction(num,
    den)` reaches through the full gcd.
    """
    den = binomial_product(
        (key for key, m in binomials.items() for _ in range(m)), p)
    parts = []
    for num, d in fractions:
        c = d.content()
        cofactor = den.exact_div(d.primitive())
        parts.append((num * cofactor, c))
    common = lcm(*(c for _, c in parts))
    num = Poly([])
    for part, c in parts:
        num = num + part * (common // c)
    if num.is_zero():
        return RationalFunction(num)
    den = den * common
    for factor, d, e in _coprime_base(binomials, p):
        for _ in range(e):
            if d == 1:
                shared, q = factor, num.quotient(factor)
                if q is None:
                    break
            else:  # gcd(0, F) = F when F divides N
                shared = num.pseudo_remainder(factor).gcd(factor)
                if shared.degree == 0:
                    break
                q = num.exact_div(shared)
            num, den = q, den.exact_div(shared)
    c = gcd(num.content(), den.content())
    if den.coeffs[-1] < 0:
        c = -c
    if c != 1:
        num = Poly._of([x // c for x in num.coeffs])
        den = Poly._of([x // c for x in den.coeffs])
    return RationalFunction(num, den, _normalized=True)


def _coprime_base(binomials, p):
    """(F, d, e) for the factors F = Phi_d^hom(t^a', p^b') of the
    non-constant binomials, each with the multiplicity e it has in their
    product; distinct F's are coprime."""
    base = Counter()
    for (a, b), m in binomials.items():
        if a:
            g = gcd(a, b)
            for d in range(1, g + 1):
                if g % d == 0:
                    base[a // g, b // g, d] += m
    for (a, b, d), e in base.items():
        phi = _cyclotomic(d)
        top = len(phi) - 1
        yield (Poly({a * k: c * p**(b * (top - k))
                     for k, c in enumerate(phi) if c}), d, e)


@lru_cache(maxsize=256)
def _cyclotomic(d):
    """Coefficients of the d-th cyclotomic polynomial Phi_d, from
    t^d - 1 = the product of Phi_e over e | d."""
    phi = Poly({0: -1, d: 1})
    for e in range(1, d):
        if d % e == 0:
            phi = phi.exact_div(Poly(_cyclotomic(e)))
    return tuple(phi.coeffs)


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    raise TypeError(f"cannot coerce {x!r}")


def _normalize(num, den):
    if num.is_zero():
        return Poly([]), Poly.const(1)
    g = num.gcd(den)
    if g.coeffs != [1]:
        num, den = num.exact_div(g), den.exact_div(g)
    if den.coeffs[-1] < 0:
        num, den = -num, -den
    return num, den
