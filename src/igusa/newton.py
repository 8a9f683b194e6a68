"""Newton polyhedra: weight minima, first meet loci, facets and faces.

A polyhedron here is always conv(support) + R_+^n for a finite support in
N^n not containing the origin. Faces are identified by the pair
(touching support points, unbounded coordinate directions), which pins a
face down exactly because the recession cone is the full orthant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from operator import le

from . import linalg
from .errors import guard
from .polynomials import IntegerPolynomial


@dataclass(frozen=True)
class Face:
    touching: frozenset  # support points lying on the face
    recession: frozenset  # 1-based coordinate directions, k_i = 0
    dim: int

    def contains_face(self, other):
        return (other.touching <= self.touching
                and other.recession <= self.recession)

    def order(self):
        """The key that lists faces largest first, then by their points."""
        return (-self.dim, sorted(self.touching), sorted(self.recession))


def minimal_points(points):
    """The points that no other one lies coordinatewise below, sorted.

    A point below another has the smaller total degree, and a dominated
    point lies above some minimal one, so the points are visited by
    degree and each is compared only with the minimal points of smaller
    degree. A homogeneous support needs no comparison.
    """
    minimal = []
    for _, same_degree in itertools.groupby(sorted(points, key=sum), key=sum):
        kept = [pt for pt in same_degree
                if not any(all(map(le, q, pt)) for q in minimal)]
        minimal += kept
    return sorted(minimal)


def _unit(n, i):
    e = [0] * n
    e[i] = 1
    return tuple(e)


class NewtonPolyhedron:
    """Gamma = conv(support) + R_+^n, queried through its support points."""

    def __init__(self, support, n):
        support = frozenset(tuple(int(e) for e in pt) for pt in support)
        if not support:
            raise ValueError("support must be nonempty")
        for pt in support:
            if len(pt) != n:
                raise ValueError(f"support point {pt} has wrong arity")
            if any(e < 0 for e in pt):
                raise ValueError(f"negative entry in support point {pt}")
            if not any(pt):
                raise ValueError("origin in support (f(0) != 0 or improper ideal)")
        self.support = support
        self.n = n
        self._support_list = sorted(support)
        self._normals = None
        self._facets = None

    @classmethod
    def of(cls, obj):
        """Polyhedron of a polynomial, mapping or monomial ideal spec."""
        return cls(obj.support, obj.n)

    def __add__(self, other):
        """The Minkowski sum, whose support is the pairwise sums."""
        if self.n != other.n:
            raise ValueError("polyhedra live in different dimensions")
        return NewtonPolyhedron({linalg.vec_add(a, b) for a in self.support
                                 for b in other.support}, self.n)

    # -- weight queries -------------------------------------------------

    def m_value(self, k):
        """min over the support of the scalar product k . omega."""
        self._check_weight(k)
        return min(linalg.vec_dot(k, pt) for pt in self._support_list)

    def first_meet_locus(self, k):
        """The face on which k is least, ranked: a pair cone's label."""
        touching, recession = self._locus(k, self.m_value(k))  # checks k
        return Face(touching, recession, self._face_dim(touching, recession))

    def _locus(self, k, m):
        """The support points with k . pt = m, and the axes where k is 0."""
        return (frozenset(pt for pt in self.support
                          if linalg.vec_dot(k, pt) == m),
                frozenset(i + 1 for i in range(self.n) if k[i] == 0))

    def _check_weight(self, k):
        if len(k) != self.n:
            raise ValueError(f"weight {k} has wrong arity")
        if any(x < 0 for x in k):
            raise ValueError(f"negative entry in weight {k}")

    def _face_dim(self, touching, recession):
        base = next(iter(touching))
        vectors = [linalg.vec_sub(pt, base) for pt in touching if pt != base]
        vectors += [_unit(self.n, i - 1) for i in recession]
        return linalg.rank(vectors)

    # -- facet structure ------------------------------------------------

    def facet_normals(self):
        """(primitive normal k, offset m) of each facet k . x >= m of Gamma,
        sorted by k: one double description, `_compute_facets`, cached."""
        if self._normals is None:
            self._normals = self._compute_facets()
        return list(self._normals)

    def facets(self):
        """(normal, offset, Face) per facet, the Face read at DD's offset."""
        if self._facets is None:
            self._facets = [(k, m, Face(*self._locus(k, m), self.n - 1))
                            for k, m in self.facet_normals()]
        return list(self._facets)

    def _compute_facets(self):
        """Facets of Gamma from the cone over it (homogenization; Ziegler,
        Lectures on Polytopes, 1.5).

        Gamma is the section at height 1 of the cone in R^(n+1) spanned by
        (v, 1) for the minimal support points v (no other support point
        lies coordinatewise below them, so they include the vertices) and
        by (e_i, 0) for the axes. That cone is full-dimensional, and each
        of its facet normals h = (k, -m) with k != 0 is the facet
        k . x >= m of Gamma; the one with k = 0 is the face at infinity.
        k is primitive because the facet holds an integer vertex v, with
        k . v = m. The facets come sorted by k, as the normals h are.
        """
        n = self.n
        minimal = minimal_points(self._support_list)
        rays = [pt + (1,) for pt in minimal] + [_unit(n + 1, i) for i in range(n)]
        return [(h[:n], -h[n]) for h in linalg.cone_facets(rays) if any(h[:n])]

    def enumerate_faces(self):
        """Every face of Gamma met by some k >= 0, the whole polyhedron included.

        A proper face is the intersection of the facets containing it, and
        a nonempty face holds a vertex, which is a support point (Gamma is
        pointed). So the proper faces are the (touching, recession) pairs
        of the facets closed under intersection with each facet, dropping
        pairs that touch no support point: the face lattice from facet
        incidences (Kaibel and Pfetsch 2002), at a cost of #faces x
        #facets set intersections. A face that is neither a facet nor Gamma
        costs an n x n rank for its dimension, and every cone another in
        `cones.partition_single`, so the guard weighs a face as #facets +
        n^2 steps. A proper face of dimension k is the intersection of
        n - k facets, which bounds #faces before the closure starts.
        """
        n, faces = self.n, [face for _, _, face in self.facets()]
        facets = [(face.touching, face.recession) for face in faces]
        bound = 1 + sum(comb(len(facets), i)
                        for i in range(1, min(n, len(facets)) + 1))
        guard(bound * (len(facets) + n**2), "face enumeration")
        found = set(facets)
        todo = list(facets)
        while todo:
            touching, recession = todo.pop()
            for facet_touching, facet_recession in facets:
                pair = (touching & facet_touching, recession & facet_recession)
                if pair[0] and pair not in found:
                    found.add(pair)
                    todo.append(pair)
                    faces.append(Face(*pair, self._face_dim(*pair)))
        faces.append(Face(self.support, frozenset(range(1, n + 1)), n))
        return sorted(faces, key=Face.order)


def face_restriction(poly, face):
    """Terms of `poly` whose exponents lie on the given face."""
    return IntegerPolynomial(poly.n, {e: c for e, c in poly.terms.items()
                                      if e in face.touching})
