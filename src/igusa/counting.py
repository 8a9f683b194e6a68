"""Exhaustive torus counting over (F_p^x)^n and non-degeneracy checks.

Every count is an exact enumeration of the (p-1)^n points with nonzero
coordinates; a size guard refuses anything beyond 10^8 points. All
non-degeneracy conditions are congruences mod p, so checking residues
on the torus is equivalent to checking units of the p-adic integers.

Every sweep starts in `_torus`, whose guard comes before any evaluator
is compiled; polynomials and their gradients are compiled once per face
or cone. The three checks share one sweep, `singular_zeros`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeGuardError
from .newton import NewtonPolyhedron, face_restriction
from .polynomials import IntegerPolynomial, PolynomialMapping

ENUMERATION_LIMIT = 10**8


@dataclass(frozen=True)
class CountTriple:
    """Counts over (F_p^x)^n: N (f side vanishes only), P (measure side
    vanishes only), Q (both vanish)."""

    N: int
    P: int
    Q: int


@dataclass(frozen=True)
class DegeneracyReport:
    ok: bool
    witnesses: tuple  # of (identifier, point, failed condition)

    def to_json(self):
        return {"ok": self.ok,
                "witnesses": [{"where": str(w[0]), "point": list(w[1]),
                               "condition": w[2]} for w in self.witnesses]}


def _torus(p, n):
    if (p - 1)**n > ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"({p}-1)^{n} torus points exceed the limit {ENUMERATION_LIMIT}")
    return itertools.product(range(1, p), repeat=n)


def components(obj):
    """The polynomials of a mapping, or [obj] for a single polynomial."""
    if isinstance(obj, PolynomialMapping):
        return list(obj.components)
    return [obj]


def _zero_test(polys, p):
    """point -> whether every one of polys vanishes at point mod p."""
    evaluators = [poly.mod_evaluator(p) for poly in polys]

    def vanishes(point):
        # a plain loop: any() over a generator at every point made the
        # torus benchmark 1.8 times slower
        for evaluate in evaluators:
            if evaluate(point):
                return False
        return True
    return vanishes


def count_triple(fpart, gpart, p) -> CountTriple:
    """Exact (N, P, Q) for face restrictions fpart and gpart.

    fpart may be None (a side that never vanishes on the torus, as for
    monomial ideals); likewise gpart (trivial measure). A mapping
    vanishes when every component does.
    """
    if fpart is None and gpart is None:
        return CountTriple(0, 0, 0)  # nothing can vanish: no sweep needed
    n = fpart.n if fpart is not None else gpart.n
    points = _torus(p, n)  # the size guard comes before any table
    fzero, gzero = ((lambda point: False) if part is None
                    else _zero_test(components(part), p)
                    for part in (fpart, gpart))
    N = P = Q = 0
    for a in points:
        if fzero(a):
            if gzero(a):
                Q += 1
            else:
                N += 1
        elif gzero(a):
            P += 1
    return CountTriple(N, P, Q)


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p by row reduction."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows))
                      if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [x * inv % p for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p
                           for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def gradient_evaluators(polys, p):
    """Per polynomial, the mod-p evaluators of its partial derivatives."""
    return [[poly.partial_derivative(i).mod_evaluator(p)
             for i in range(1, poly.n + 1)] for poly in polys]


def jacobian_rows(gradients, point):
    """The gradients at point, one row per polynomial, from the
    evaluators that gradient_evaluators compiled."""
    return [[d(point) for d in row] for row in gradients]


def singular_zeros(parts, n, p, target):
    """Torus points mod p, in itertools.product order, where every part
    vanishes and the Jacobian of the parts has rank below target."""
    points = _torus(p, n)  # the size guard comes before any table
    vanishes = _zero_test(parts, p)
    gradients = gradient_evaluators(parts, p)
    for a in points:
        if vanishes(a) and rank_mod_p(jacobian_rows(gradients, a), p) < target:
            yield a


def _face_report(gamma, polys, p, target, condition):
    """Over every face of gamma, the singular torus zeros of the face
    restrictions of polys, each a witness of the failed condition."""
    witnesses = [(face_name(face), a, condition)
                 for face in gamma.enumerate_faces()
                 for a in singular_zeros(
                     [face_restriction(c, face) for c in polys],
                     gamma.n, p, target)]
    return DegeneracyReport(not witnesses, tuple(witnesses))


def check_nondegenerate_single(f: IntegerPolynomial, gamma: NewtonPolyhedron,
                               p) -> DegeneracyReport:
    """For every face of gamma, the Newton polyhedron of f (the whole
    polyhedron included), the face polynomial has no singular torus zero
    mod p."""
    return _face_report(gamma, [f], p, 1,
                        "face polynomial has a singular torus zero")


def check_strong_nondegenerate(ff: PolynomialMapping, gamma: NewtonPolyhedron,
                               p) -> DegeneracyReport:
    """For every face of gamma, the Newton polyhedron of ff: at every
    common torus zero of the face restrictions of all components, the
    Jacobian has rank min(t, n) mod p."""
    target = min(ff.t, ff.n)
    return _face_report(gamma, ff.components, p, target,
                        f"Jacobian rank below {target}")


def check_pair_nondegenerate(fside, g, partition, p) -> DegeneracyReport:
    """At every common torus zero of the two face restrictions on a cone
    of the pair partition, the stacked Jacobian of (fside components, g)
    has full rank (2 for a polynomial side, t+1 for a mapping) mod p."""
    t = len(components(fside))
    n = g.n
    if n < t + 1:
        raise ValueError(f"need n >= {t + 1} variables, got {n}")
    witnesses = []
    for cone in partition.cones:
        face_f, face_g = cone.labels
        gpart = face_restriction(g, face_g)
        if len(gpart.terms) == 1 and next(iter(gpart.terms.values())) % p:
            continue  # a unit monomial never vanishes on the torus
        parts = [gpart] + [face_restriction(c, face_f)
                           for c in components(fside)]
        witnesses += [(cone_name(cone), a,
                       f"stacked Jacobian rank below {t + 1}")
                      for a in singular_zeros(parts, n, p, t + 1)]
    return DegeneracyReport(not witnesses, tuple(witnesses))


def face_name(face):
    pts = ",".join(str(tuple(pt)) for pt in sorted(face.touching))
    rec = ",".join(map(str, sorted(face.recession)))
    return f"face[dim={face.dim}; touching={pts}; recession={{{rec}}}]"


def cone_name(cone):
    rays = ",".join(str(tuple(r)) for r in cone.rays)
    return f"cone[dim={cone.dim}; rays={rays}]"
