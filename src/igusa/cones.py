"""Cone partitions of R_+^n, simplicial decomposition and multiplicities.

Single partitions come straight from the facet structure of one Newton
polyhedron: one relatively open cone per face, spanned by the normals of
the facets containing that face. Pair partitions are the common
refinement of two such fans, computed as the fan of the Minkowski sum
polyhedron (support = all pairwise sums) and relabeled with the pair of
first-meet-locus faces of an interior witness. A cone's faces are read
from the partition, never searched for: the simplicial decomposition
triangulates over them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InternalConsistencyError, guard
from .newton import NewtonPolyhedron


@dataclass(frozen=True)
class RationalCone:
    rays: tuple  # primitive integer vectors, strictly positively spanning
    dim: int
    labels: tuple  # (Face,) for single partitions, (Face, Face) for pairs

    def witness(self):
        """A lattice point in the relatively open cone: the sum of the
        rays (empty for the zero-dimensional cone)."""
        return tuple(sum(col) for col in zip(*self.rays))


class ConePartition:
    """The fan of fan_polyhedron, relatively open cones partitioning R_+^n."""

    def __init__(self, cones, polyhedra, fan_polyhedron):
        self.cones = list(cones)
        self.n = fan_polyhedron.n
        self.polyhedra = tuple(polyhedra)
        self.fan_polyhedron = fan_polyhedron

    def facets_of(self, cone):
        """The facets of a cone of the fan: the cones one dimension lower
        whose rays are all rays of it (in a fan, such a cone is a face)."""
        rays = set(cone.rays)
        return [c for c in self.cones
                if c.dim == cone.dim - 1 and rays.issuperset(c.rays)]


def _angular_sort(cones, n):
    """Deterministic presentation order: origin cone first; in the plane,
    sweep counterclockwise from the first axis; otherwise sort by rays."""
    def key(cone):
        if cone.dim == 0:
            return (0,)
        w = cone.witness()
        if n == 2:  # the second axis, of no finite slope, comes last
            return (1, w[0] == 0, Fraction(w[1], w[0] or 1), cone.dim)
        return (1, cone.rays)
    return sorted(cones, key=key)


def partition_single(gamma: NewtonPolyhedron) -> ConePartition:
    """The partition D of R_+^n: one relatively open cone per face."""
    facets = gamma.facets()
    cones = []
    for face in gamma.enumerate_faces():
        normals = [normal for normal, _, facet in facets
                   if facet.contains_face(face)]
        dim = linalg.rank(normals)
        if dim != gamma.n - face.dim:
            raise InternalConsistencyError(
                f"cone dimension {dim} != n - dim(face) = {gamma.n - face.dim}")
        cones.append(RationalCone(tuple(sorted(normals)), dim, (face,)))
    return ConePartition(_angular_sort(cones, gamma.n), (gamma,), gamma)


def partition_pair(gamma1: NewtonPolyhedron,
                   gamma2: NewtonPolyhedron) -> ConePartition:
    """Common refinement of the two fans, labeled with face pairs.

    The refinement is the fan of the Minkowski sum polyhedron, whose
    support is the set of pairwise sums of the two supports.
    """
    combined = gamma1 + gamma2
    cones = []
    for cone in partition_single(combined).cones:
        w = cone.witness() or (0,) * gamma1.n
        labels = (gamma1.first_meet_locus(w), gamma2.first_meet_locus(w))
        cones.append(RationalCone(cone.rays, cone.dim, labels))
    return ConePartition(cones, (gamma1, gamma2), combined)


# -- multiplicities and parallelepiped points ---------------------------


def parallelepiped_points(rays):
    """Integer points sum lambda_j k_j with all 0 <= lambda_j < 1.

    Includes the origin; the count is the multiplicity of the rays, the
    index of Z k_1 + ... + Z k_r in the lattice points of their span. With
    U K = H the echelon form of K = (k_1 ... k_r), whose top r x r block T
    is upper triangular with positive diagonal, the point K lambda is
    integral exactly when T lambda is, since U is unimodular and the rows
    of H past r are zero. So the points are lambda = T^-1 z mod 1 for z
    in the box 0 <= z_i < t_ii, one per class of Z^r / T Z^r, that is per
    element of (Z^n cap span) / <rays>. Scaled by D = det T, lambda and
    the sum are integers: back-substitution finds D lambda exactly, and
    the division by D is exact.
    """
    rays = [tuple(map(int, ray)) for ray in rays]
    r = len(rays)
    h, pivots = linalg.echelon(list(zip(*rays)))
    if len(pivots) < r:
        raise ValueError("rays are linearly dependent")
    t = [row[:r] for row in h[:r]]
    diag = [row[i] for i, row in enumerate(t)]
    mult = math.prod(diag)
    guard(mult, "parallelepiped point enumeration")
    points = set()
    for z in itertools.product(*map(range, diag)):
        lam = [0] * r  # D lambda, from the last coordinate up
        for i in reversed(range(r)):
            rest = linalg.vec_dot(t[i][i + 1:], lam[i + 1:])
            lam[i] = (mult * z[i] - rest) // diag[i]
        lam = [x % mult for x in lam]
        point = []
        for coords in zip(*rays):
            total = linalg.vec_dot(lam, coords)
            if total % mult:
                raise InternalConsistencyError(
                    f"parallelepiped point {total}/{mult} of {rays} "
                    f"is not integral")
            point.append(total // mult)
        points.add(tuple(point))
    if len(points) != mult:
        raise InternalConsistencyError(
            f"parallelepiped count {len(points)} != multiplicity {mult}")
    return sorted(points)


# -- simplicial decomposition ------------------------------------------


def _pull_triangulate(cone, facets_of):
    """Triangulate the closed cone by pulling its first ray.

    Returns sorted ray tuples, each spanning a full-dimensional simplicial
    subcone; the result is a face-to-face triangulation using no new
    rays. The cone joins its first ray, the least, to the triangulations
    of the facets that do not contain it.
    """
    if len(cone.rays) == cone.dim:
        return {cone.rays}
    v = cone.rays[0]
    return {(v,) + simplex
            for facet in facets_of(cone) if v not in facet.rays
            for simplex in _pull_triangulate(facet, facets_of)}


def simplicial_decompose(cone: RationalCone, partition: ConePartition):
    """Half-open disjoint cover of the relatively open cone by relatively
    open simplicial pieces whose rays come from the parent, each given as
    the sorted tuple of its linearly independent rays.

    Already-simplicial cones come back as a single identity piece. For
    the rest, a pulling triangulation (first ray in sorted order) is
    computed over the faces that the partition holds, and every simplex
    face whose rays do not all lie in one facet of the parent (so whose
    relative interior lies inside the parent's) becomes a piece.
    """
    if cone.dim < 1:
        raise ValueError("decomposition needs a cone of dimension >= 1")
    if len(cone.rays) == cone.dim:
        return [cone.rays]
    facets = [set(facet.rays) for facet in partition.facets_of(cone)]
    faces = {subset for simplex in _pull_triangulate(cone, partition.facets_of)
             for size in range(1, len(simplex) + 1)
             for subset in itertools.combinations(simplex, size)}
    return [face for face in sorted(faces)
            if not any(facet.issuperset(face) for facet in facets)]
