"""Sparse multivariate polynomials over arbitrary-precision integers.

Exponent vectors are plain tuples of nonnegative ints of length n. Terms
are stored in a dict mapping exponent tuple -> nonzero int coefficient.
Printed output uses a fixed graded-lexicographic term order so that
print -> parse -> print is a fixpoint.

`IntegerPolynomial.mod_evaluator(m)` is the one evaluator mod m: points
must have coordinates in range(m), and power tables exist only for n >= 2.
"""

from __future__ import annotations

import string
from math import comb

from .errors import PolynomialParseError, guard

EXPONENT_LIMIT = 10**6
# each level of parentheses costs the parser four stack frames
NESTING_LIMIT = 100

_SHORT_NAMES = ("x", "y", "z")


def _grlex_key(exponent):
    return (-sum(exponent), tuple(-e for e in exponent))


def variable_names(n):
    if n <= 3:
        return _SHORT_NAMES[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))


def render_terms(names, terms):
    """'3*x^2*y - y + 1' from (coefficient, exponent) pairs in print
    order, every coefficient nonzero; '0' when there are none. Every
    printed polynomial and monomial goes through here."""
    out = []
    for c, exp in terms:
        factors = [v if e == 1 else f"{v}^{e}"
                   for v, e in zip(names, exp) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not out:
            out.append("-" + body if c < 0 else body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out) or "0"


class IntegerPolynomial:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n:
                raise ValueError(f"exponent {exp} has wrong arity for n={n}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = clean.get(exp, 0) + int(coeff)
            if c:
                clean[exp] = c
            elif exp in clean:
                del clean[exp]
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, n, c):
        return cls(n, {tuple([0] * n): c} if c else {})

    @classmethod
    def monomial(cls, n, exponent, coeff=1):
        return cls(n, {tuple(exponent): coeff})

    # -- queries --------------------------------------------------------

    @property
    def support(self):
        return frozenset(self.terms)

    @property
    def components(self):  # a polynomial is a mapping of one component
        return (self,)

    def is_zero(self):
        return not self.terms

    def vanishes_at_origin(self):
        return tuple([0] * self.n) not in self.terms

    def __eq__(self, other):
        return (isinstance(other, IntegerPolynomial)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return IntegerPolynomial(self.n, terms)

    def __neg__(self):
        return IntegerPolynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntegerPolynomial(
                self.n, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntegerPolynomial(self.n, terms)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, IntegerPolynomial) or other.n != self.n:
            raise ValueError("incompatible polynomial operands")

    def partial_derivative(self, i):
        """Formal derivative with respect to variable i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        terms = {}
        for exp, c in self.terms.items():
            e = exp[i - 1]
            if e == 0:
                continue
            new = list(exp)
            new[i - 1] = e - 1
            terms[tuple(new)] = terms.get(tuple(new), 0) + c * e
        return IntegerPolynomial(self.n, terms)

    def mod_evaluator(self, modulus):
        """The function point -> f(point) mod modulus, compiled once.

        Coordinates must already lie in range(modulus); they are not
        reduced. With n >= 2 residues recur among the points of a sweep,
        so powers come from per-(variable, exponent) tables; with n = 1
        each residue comes up once, and pow keeps memory flat.
        """
        if self.n == 1:
            terms = [(c % modulus, e) for (e,), c in self.terms.items()]
            return lambda point: sum(
                c * pow(point[0], e, modulus) for c, e in terms) % modulus
        tables = {}
        terms = []
        for exp, c in self.terms.items():
            factors = []
            for i, e in enumerate(exp):
                if e:
                    if (i, e) not in tables:
                        tables[i, e] = [pow(v, e, modulus)
                                        for v in range(modulus)]
                    factors.append((i, tables[i, e]))
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

    # -- printing -------------------------------------------------------

    def __str__(self):
        return render_terms(variable_names(self.n),
                            ((self.terms[e], e)
                             for e in sorted(self.terms, key=_grlex_key)))

    def __repr__(self):
        return f"IntegerPolynomial({self.n}, {self})"


class PolynomialMapping:
    """An ordered tuple of polynomials sharing the ambient dimension."""

    __slots__ = ("n", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a mapping needs at least one component")
        n = components[0].n
        if any(c.n != n for c in components):
            raise ValueError("components disagree on the variable count")
        if all(c.is_zero() for c in components):
            raise ValueError("all components are zero")
        for c in components:
            if not c.vanishes_at_origin():
                raise ValueError("every component must vanish at the origin")
        self.n = n
        self.components = components

    @property
    def t(self):
        return len(self.components)

    @property
    def support(self):
        out = set()
        for c in self.components:
            out |= c.support
        return frozenset(out)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


class MonomialIdealSpec:
    """Monic monomial generators of a nonzero proper monomial ideal."""

    __slots__ = ("n", "generators")

    def __init__(self, n, generators):
        generators = [tuple(int(e) for e in g) for g in generators]
        if not generators:
            raise ValueError("the ideal needs at least one generator")
        for g in generators:
            if len(g) != n:
                raise ValueError(f"generator {g} has wrong arity for n={n}")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in generator {g}")
            if not any(g):
                raise ValueError("the zero exponent would make the ideal improper")
        self.n = n
        self.generators = tuple(generators)

    @property
    def support(self):
        return frozenset(self.generators)

    def __str__(self):
        names = variable_names(self.n)
        return "(" + ", ".join(render_terms(names, [(1, g)])
                               for g in self.generators) + ")"


# -- parsing ------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for the ASCII expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-'* base ('^' INT)?
    base   := INT | VAR | '(' expr ')'

    Parentheses nested deeper than NESTING_LIMIT are refused.
    """

    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.pos = 0
        self.depth = 0
        # x1..xn are always accepted, and x, y, z as well where they print
        self.names = {f"x{i + 1}": i for i in range(n)}
        self.names.update((name, i) for i, name in enumerate(variable_names(n)))

    def parse(self):
        poly = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PolynomialParseError(
                f"unexpected character {self.text[self.pos]!r}", self.pos)
        return poly

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self):
        sign = 1
        while self._peek() in ("+", "-"):
            if self._peek() == "-":
                sign = -sign
            self.pos += 1
        poly = self._term() if sign > 0 else -self._term()
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            rhs = self._term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def _term(self):
        poly = self._factor()
        while self._peek() == "*":
            self.pos += 1
            poly = poly * self._factor()
        return poly

    def _factor(self):
        sign = 1
        while self._peek() == "-":
            sign = -sign
            self.pos += 1
        base = self._base()
        if self._peek() == "^":
            self.pos += 1
            e = self._integer("exponent expected after '^'")
            if e > EXPONENT_LIMIT:
                raise PolynomialParseError(
                    f"exponent {e} exceeds the limit {EXPONENT_LIMIT}", self.pos)
            if len(base.terms) == 1:  # (c x^a)^e = c^e x^(a e)
                (exp, c), = base.terms.items()
                return IntegerPolynomial.monomial(
                    self.n, [a * e for a in exp], sign * c**e)
            if base.terms:
                guard(_power_steps(base, e), "power expansion")
            result = IntegerPolynomial.constant(self.n, 1)
            power = base
            while e:
                if e & 1:
                    result = result * power
                e >>= 1
                if e:
                    power = power * power
            base = result
        return base if sign > 0 else -base

    def _base(self):
        ch = self._peek()
        if ch == "(":
            if self.depth == NESTING_LIMIT:
                raise PolynomialParseError(
                    f"parentheses nested deeper than {NESTING_LIMIT}", self.pos)
            self.depth += 1
            self.pos += 1
            poly = self._expr()
            if self._peek() != ")":
                raise PolynomialParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return poly
        if ch.isdigit():
            return IntegerPolynomial.constant(
                self.n, self._integer("integer expected"))
        if ch and ch in string.ascii_lowercase:
            start = self.pos
            name = ch
            self.pos += 1
            while (self.pos < len(self.text)
                   and self.text[self.pos].isdigit()):
                name += self.text[self.pos]
                self.pos += 1
            if name not in self.names:
                raise PolynomialParseError(f"unknown variable {name!r}", start)
            exp = [0] * self.n
            exp[self.names[name]] = 1
            return IntegerPolynomial.monomial(self.n, exp)
        raise PolynomialParseError(
            "expected a number, variable or '('", self.pos)

    def _integer(self, message):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolynomialParseError(message, start)
        return int(self.text[start:self.pos])


def _power_steps(base, e):
    """The work of expanding base^e by square and multiply, as `_factor`
    does: a product of a and b weighs terms(a) terms(b) n steps, and
    base^j, for k >= 1 terms of degree at most deg, has at most
    min(C(j+k-1, k-1), C(j deg + n, n)) terms: the monomials of degree j
    in its k terms, and those of degree at most j deg in n variables."""
    k, n = len(base.terms), base.n
    deg = max(map(sum, base.terms))

    def terms(j):
        return min(comb(j + k - 1, k - 1), comb(j * deg + n, n))

    steps, have, j = 0, 0, 1  # the result is base^have, the power base^j
    while e:
        if e & 1:
            steps += terms(have) * terms(j) * n
            have += j
        e >>= 1
        if e:
            steps += terms(j)**2 * n
            j *= 2
    return steps


def parse_polynomial(text, n):
    """Parse an ASCII expression into a fully expanded IntegerPolynomial."""
    if n < 1:
        raise ValueError("need at least one variable")
    return _Parser(text, n).parse()


def parse_monomial_generator(text, n):
    """Parse a monic monomial (for ideal generators); returns its exponent."""
    poly = parse_polynomial(text, n)
    if len(poly.terms) != 1:
        raise PolynomialParseError(f"{text!r} is not a monomial", 0)
    (exp, coeff), = poly.terms.items()
    if coeff != 1:
        raise PolynomialParseError(f"{text!r} is not monic", 0)
    return exp
