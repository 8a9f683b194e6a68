"""Exhaustive torus counting over (F_p^x)^n and non-degeneracy checks.

Every count is exact. A face restriction depends on only r <= n monomial
coordinates, so `sweep` changes variables by a unimodular monomial map
and walks the restriction's own torus (F_p^x)^r fibre by fibre: the
(p-1)^(r-1) fibres fix all coordinates but the last, and each gives its
p-1 values at once. The size guard still refuses by the (p-1)^n points
of the whole torus, beyond 10^8. All non-degeneracy conditions are
congruences mod p, so checking residues on the torus is equivalent to
checking units of the p-adic integers.

Counts and checks share one pass per distinct pair of restrictions,
`sweep`; its guard comes before any algebra or evaluator. A side with a
unit monomial among its restrictions never vanishes, so it needs none.
A check returns the failing faces or cones with their points, no words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .cones import partition_single
from .errors import guard
from .linalg import echelon, rank_mod, vec_dot, vec_sub
from .newton import Face, NewtonPolyhedron, face_restriction
from .polynomials import IntegerPolynomial

@dataclass(frozen=True)
class CountTriple:
    """Counts over (F_p^x)^n: N (f side vanishes only), P (measure side
    vanishes only), Q (both vanish)."""

    N: int
    P: int
    Q: int


@dataclass(frozen=True)
class DegeneracyReport:
    witnesses: tuple  # (label, points) pairs, label a Face or RationalCone

    @property
    def ok(self):
        return not self.witnesses


def _torus(p, n):
    return itertools.product(range(1, p), repeat=n)


def sweep(fparts, gpart, p):
    """(N, P, Q) and, in itertools.product order, the torus zeros where
    a Jacobian over F_p has rank below its row count: the f side's (t
    rows), g's (one) and the two stacked (t + 1), all from one pass:
    fparts are the f side's components on a cone's f face, gpart is g on
    its g face, and None is a side that never vanishes (monomial ideal,
    trivial measure).

    The pass walks the restrictions' own torus. Let A have as rows each
    part's exponents less that part's first one, and U A^T = H be the
    echelon form of its transpose, of rank r. Then x = y^U, that is x_j =
    prod_i y_i^U[i][j], is an automorphism of (F_p^x)^n that takes x^e to
    y^(U e). The rows of U past r are orthogonal to A's rows, so it takes
    each part to a unit monomial times a polynomial in y_1..y_r alone. So
    the zeros are those of the reduced parts times a free (F_p^x)^(n-r),
    and the counts scale by (p-1)^(n-r). The ranks carry over: at a zero,
    the Jacobian in x is diag(monomials) . (Jacobian in y) . diag(y) . W .
    diag(1/x), with W the transpose of U^-1, which is unimodular and so
    invertible mod p. Witnesses are lifted back through x = y^U and
    sorted.

    The pass goes fibre by fibre: each fixes y_1..y_(r-1) and runs over
    y_r (r = 0, monomials that p divides, is read as r = 1). Each reduced
    part's terms are grouped by their exponent of y_r; on a fibre each
    group's coefficient is evaluated once, and the p-1 values come from
    power tables of y_r. A mapping's parts vanish where their zero sets
    meet, and the Jacobians are read only at the zeros, each by one rule,
    `rank_mod(rows, p) < len(rows)`.
    """
    # one monomial with a unit coefficient has no torus zero: drop its side
    fparts, gparts = (None if parts is None or any(
        len(poly.terms) == 1 and next(iter(poly.terms.values())) % p
        for poly in parts) else parts
        for parts in (fparts, None if gpart is None else [gpart]))
    if fparts is None and gparts is None:
        return CountTriple(0, 0, 0), ((), (), ())  # nothing can vanish
    n = (fparts or gparts)[0].n
    guard(p - 1, f"the torus (F_{p}^x)^{n}", n)  # before any algebra
    polys = [*(fparts or ()), *(gparts or ())]
    m, pivots = echelon(list(zip(*[vec_sub(e, next(iter(poly.terms)))
                                   for poly in polys for e in poly.terms]))
                        or [[0]] * n)
    u = [row[-n:] for row in m]
    r = max(len(pivots), 1)

    def reduced(poly):
        images = {tuple(vec_dot(e, row) for row in u[:r]): c
                  for e, c in poly.terms.items()}
        low = [min(coords) for coords in zip(*images)]
        return IntegerPolynomial(r, {vec_sub(e, low): c
                                     for e, c in images.items()})

    fparts, gparts = (None if parts is None else list(map(reduced, parts))
                      for parts in (fparts, gparts))
    ys = range(1, p)  # a fibre: y_1..y_(r-1) fixed, y_r in ys
    whole = frozenset(ys)

    def grouped(poly):  # [(powers of y_r, its coefficient on a fibre)]
        groups = {}
        for e, c in poly.terms.items():
            groups.setdefault(e[-1], {})[e[:-1]] = c
        return [([pow(y, e, p) for y in ys],
                 IntegerPolynomial(r - 1, terms).mod_evaluator(p))
                for e, terms in groups.items()]

    def vanishing(parts, prefix):  # the y_r where every part vanishes
        common = whole if parts else frozenset()
        for groups in parts:
            terms = [(c, powers) for powers, coefficient in groups
                     if (c := coefficient(prefix))]
            if len(terms) == 1:  # one term is a unit on the torus
                return frozenset()
            if terms:  # the values over the first coefficient: same zeros
                (c, values), *rest = terms
                inverse = pow(c, -1, p)
                for c, powers in rest:
                    c = c * inverse % p
                    values = [u + c * v for u, v in zip(values, powers)]
                common = common.intersection(
                    y for y, u in zip(ys, values) if not u % p)
        return common

    fgroups, ggroups = ([] if parts is None else list(map(grouped, parts))
                        for parts in (fparts, gparts))
    fgrad, ggrad = ([[poly.partial_derivative(i).mod_evaluator(p)
                      for i in range(1, r + 1)] for poly in parts or ()]
                    for parts in (fparts, gparts))
    N = P = Q = 0
    found = ([], [], [])
    for prefix in _torus(p, r - 1):
        fz, gz = vanishing(fgroups, prefix), vanishing(ggroups, prefix)
        N, P, Q = N + len(fz - gz), P + len(gz - fz), Q + len(fz & gz)
        for y in sorted(fz | gz):  # the Jacobians only at the zeros
            a = prefix + (y,)
            frows = [[d(a) for d in row] for row in fgrad] if y in fz else []
            grows = [[d(a) for d in row] for row in ggrad] if y in gz else []
            for witnesses, rows in zip(found, (frows, grows, frows and grows
                                               and frows + grows)):
                if rows and rank_mod(rows, p) < len(rows):
                    witnesses.append(a)

    def lift(zeros):  # x_j = prod_i y_i^U[i][j] for y = z + w, w free
        return tuple(sorted(
            tuple(prod(map(pow, z + w, col, itertools.repeat(p))) % p
                  for col in zip(*u))
            for z in zeros
            for w in itertools.product(range(1, p), repeat=n - r)))
    scale = (p - 1)**(n - r)
    return (CountTriple(N * scale, P * scale, Q * scale),
            tuple(map(lift, found)))


def count_triple(fpart, gpart, p) -> CountTriple:
    """Exact (N, P, Q) for face restrictions fpart and gpart.

    fpart may be None (a side that never vanishes on the torus, as for
    monomial ideals); likewise gpart (trivial measure). A mapping
    vanishes when every component does.
    """
    return sweep(None if fpart is None else fpart.components, gpart, p)[0]


def _face_report(labels, zeros) -> DegeneracyReport:
    """The report over the distinct faces among the cones' `labels` that
    have zeros, in face order (only they are sorted), each with the zeros
    of the first cone that carries it."""
    first = dict(zip(reversed(labels), reversed(zeros)))  # the first wins
    return DegeneracyReport(tuple(
        (face, first[face])
        for face in sorted(filter(first.get, first), key=Face.order)))


def check_nondegenerate_single(ff, gamma: NewtonPolyhedron,
                               p) -> DegeneracyReport:
    """For every face of gamma, the Newton polyhedron of ff (the whole
    polyhedron included): at every common torus zero of the face
    restrictions of ff's t components, the Jacobian has rank t mod p, as
    the coset value of L needs (when t > n, no zero has it). For a single
    polynomial (t = 1), the face polynomial has no singular torus zero.
    Each face of a single fan carries exactly one cone."""
    return cone_checks(ff, None, partition_single(gamma), p)[1]["f"]


# the same check for a mapping, under its own name
check_strong_nondegenerate = check_nondegenerate_single


def check_pair_nondegenerate(fside, g, partition, p) -> DegeneracyReport:
    """At every common torus zero of the two face restrictions on a cone
    of the pair partition, the stacked Jacobian of (fside components, g)
    has full rank (2 for a polynomial side, t+1 for a mapping) mod p."""
    t = len(fside.components)
    if g.n < t + 1:
        raise ValueError(f"need n >= {t + 1} variables, got {g.n}")
    return cone_checks(fside, g, partition, p)[1]["pair"]


def cone_checks(fside, g, partition, p):
    """The (N, P, Q) of every cone and the reports that apply, from one
    sweep per distinct pair of restrictions: f over the cones' f faces, g
    over their g faces, each face with the zeros of the first cone that
    carries it, and pair over the cones, each keeping the labels that
    have zeros. The fan's labels are the faces that the weights k >= 0
    meet first, so they are every face the checks need.
    fside is None for a side that never vanishes (monomial ideal), g for
    the trivial measure."""
    fcomps = None if fside is None else fside.components
    cones = partition.cones
    keys = [(None if fcomps is None else
             tuple(face_restriction(c, cone.labels[0]) for c in fcomps),
             None if g is None else face_restriction(g, cone.labels[1]))
            for cone in cones]
    swept = {key: sweep(*key, p) for key in dict.fromkeys(keys)}
    counts, singular = zip(*map(swept.get, keys))
    fzeros, gzeros, pairzeros = zip(*singular)
    reports = {}
    if fcomps is not None:
        reports["f"] = _face_report([c.labels[0] for c in cones], fzeros)
    if g is not None:
        reports["g"] = _face_report([c.labels[1] for c in cones], gzeros)
        if fcomps is not None:
            reports["pair"] = DegeneracyReport(tuple(
                (cone, zeros) for cone, zeros in zip(cones, pairzeros)
                if zeros))
    return list(counts), reports
