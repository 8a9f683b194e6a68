"""Cone partitions, multiplicities and simplicial decomposition."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from igusa import cones, counting, linalg
from igusa.cones import (ConePartition, RationalCone, multiplicity,
                         parallelepiped_points, partition_pair,
                         partition_single, simplicial_decompose)
from igusa.errors import SizeGuardError
from igusa.newton import NewtonPolyhedron
from igusa.polynomials import parse_polynomial

from conftest import example_ideal, example_measure
from test_newton import PROPERTY, reference_faces, reference_facets, supports


def pair_partition():
    return partition_pair(NewtonPolyhedron.of(example_ideal()),
                          NewtonPolyhedron.of(example_measure()))


def det(rays):
    (a, b), (c, d) = rays
    return abs(a * d - b * c)


class TestPartitionStructure:
    def test_single_partition_counts(self):
        gI = NewtonPolyhedron.of(example_ideal())
        dI = partition_single(gI)
        # 4 facets: 4 rays + 3 two-dimensional cones + origin
        assert len(dI.cones) == 8

    def test_pair_partition_cone_order(self):
        d = pair_partition()
        rays = [cone.rays for cone in d.cones]
        assert rays == [
            (), ((1, 0),), ((1, 0), (3, 1)), ((3, 1),), ((1, 1), (3, 1)),
            ((1, 1),), ((1, 1), (1, 2)), ((1, 2),), ((0, 1), (1, 2)),
            ((0, 1),)]

    def test_dim_law(self):
        # exact complementarity in a single fan; the pair refinement only
        # refines, so its cones can be smaller than the labeled faces demand
        for gamma in (NewtonPolyhedron.of(example_ideal()),
                      NewtonPolyhedron.of(example_measure())):
            partition = partition_single(gamma)
            for cone in partition.cones:
                assert cone.dim + cone.labels[0].dim == partition.n
        d = pair_partition()
        for cone in d.cones:
            for face in cone.labels:
                assert cone.dim + face.dim <= d.n

    def test_totality_and_disjointness_on_grid(self):
        d = pair_partition()
        for k in itertools.product(range(11), repeat=2):
            matches = [cone for cone in d.cones
                       if cone.labels == d.labels_at(k)]
            assert len(matches) == 1
            assert d.classify(k) is matches[0]

    def test_classify_known_points(self):
        d = pair_partition()
        assert d.classify((2, 1)).rays == ((1, 1), (3, 1))
        assert d.classify((0, 0)).dim == 0
        assert d.classify((1, 0)).rays == ((1, 0),)

    def test_classify_rejects_negative(self):
        with pytest.raises(ValueError):
            pair_partition().classify((-1, 0))

    def test_ray_list(self):
        assert pair_partition().rays() == [
            (0, 1), (1, 0), (1, 1), (1, 2), (3, 1)]

    def test_m_linear_on_closed_cones(self):
        gI = NewtonPolyhedron.of(example_ideal())
        gg = NewtonPolyhedron.of(example_measure())
        d = pair_partition()
        for cone in d.cones:
            if cone.dim == 0:
                continue
            for coeffs in itertools.product(range(4), repeat=len(cone.rays)):
                k = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                          for i in range(2))
                for gamma in (gI, gg):
                    expected = sum(c * gamma.m_value(r)
                                   for c, r in zip(coeffs, cone.rays))
                    assert gamma.m_value(k) == expected


class TestMultiplicity:
    def test_known_values(self):
        assert multiplicity([(3, 1), (1, 1)]) == 2
        assert parallelepiped_points([(3, 1), (1, 1)]) == [(0, 0), (2, 1)]
        assert multiplicity([(1, 0), (3, 1)]) == 1
        assert multiplicity([(2, 1)]) == 1

    def test_dependent_rays_rejected(self):
        with pytest.raises(ValueError):
            multiplicity([(1, 1), (2, 2)])

    def test_random_ray_sets(self):
        rng = random.Random(20260824)
        done = 0
        while done < 200:
            n = rng.choice([2, 3])
            r = rng.randint(1, n)
            rays = [tuple(rng.randint(0, 6) for _ in range(n))
                    for _ in range(r)]
            if any(not any(ray) for ray in rays):
                continue
            rays = [linalg.primitive(ray) for ray in rays]
            if linalg.rank([list(ray) for ray in rays]) != r:
                continue
            mult = multiplicity(rays)
            points = parallelepiped_points(rays)
            assert len(points) == mult
            if r == n:
                rows = [list(ray) for ray in rays]
                if n == 2:
                    assert mult == det(rays)
                else:
                    d = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                         - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                         + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
                    assert mult == abs(d)
            done += 1


def box_scan_points(rays):
    """Reference for parallelepiped_points on nonnegative rays: every point
    of the bounding box whose coordinates lambda solve sum lambda_j k_j = h
    with 0 <= lambda_j < 1."""
    n = len(rays[0])
    bounds = [max(1, sum(r[i] for r in rays)) for i in range(n)]
    points = []
    for h in itertools.product(*(range(b) for b in bounds)):
        lam = linalg.solve_columns(rays, h)
        if lam is not None and all(0 <= x < 1 for x in lam):
            points.append(h)
    return points


# independent nonnegative rays in dimension <= 4 whose bounding box is small
ray_sets = st.integers(1, 4).flatmap(lambda n: st.integers(1, n).flatmap(
    lambda r: st.lists(st.tuples(*[st.integers(0, 4)] * n),
                       min_size=r, max_size=r)))


class TestAgainstReferences:
    @PROPERTY
    @given(ray_sets)
    def test_parallelepiped_points(self, rays):
        assume(linalg.rank([list(r) for r in rays]) == len(rays))
        assume(math.prod(max(1, sum(col)) for col in zip(*rays)) <= 400)
        assert parallelepiped_points(rays) == box_scan_points(rays)

    @PROPERTY
    @given(supports)
    def test_single_partition(self, shaped):
        # the same partition from the facets and faces of the references
        n, support = shaped
        gamma = NewtonPolyhedron(support, n)
        reference = NewtonPolyhedron(support, n)
        facets = reference_facets(reference)
        faces = reference_faces(reference, facets)
        reference.facets = lambda: list(facets)
        reference.enumerate_faces = lambda: list(faces)
        assert partition_single(gamma).cones == partition_single(reference).cones


class TestEnumerationGuard:
    def test_multiplicity_over_the_limit(self):
        with pytest.raises(SizeGuardError):
            parallelepiped_points([(1, 0), (1, 10**8 + 1)])

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(counting, "ENUMERATION_LIMIT", 6)
        assert len(parallelepiped_points([(1, 0), (1, 6)])) == 6
        with pytest.raises(SizeGuardError):
            parallelepiped_points([(1, 0), (1, 7)])


class TestSimplicialDecomposition:
    def test_simplicial_cone_is_identity(self):
        d = pair_partition()
        cone = d.classify((2, 1))
        pieces = simplicial_decompose(cone)
        assert len(pieces) == 1
        assert pieces[0].rays == cone.rays
        assert pieces[0].mult == 2
        assert pieces[0].pp_points == ((0, 0), (2, 1))

    def test_square_based_cone_cover(self):
        # cone over a square: 4 rays, needs triangulation
        from igusa.cones import RationalCone
        rays = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))
        cone = RationalCone(rays, 3, ())
        pieces = simplicial_decompose(cone)
        # every lattice point of the open cone in a box is covered once
        covered = {}
        for pt in itertools.product(range(1, 7), repeat=3):
            hits = []
            for piece in pieces:
                cols = list(piece.rays)
                try:
                    lam = linalg.solve_columns(cols, pt)
                except ValueError:
                    lam = None
                if lam is not None and all(x > 0 for x in lam):
                    hits.append(piece)
            covered[pt] = hits
        interior = {pt: hits for pt, hits in covered.items()
                    if _inside_square_cone(pt)}
        assert interior
        for pt, hits in covered.items():
            assert len(hits) == (1 if _inside_square_cone(pt) else 0), pt

    def test_half_open_pieces_partition_lattice(self):
        # relatively open cone lattice points = disjoint union over pieces
        from igusa.cones import RationalCone
        rays = ((1, 0), (1, 3))
        cone = RationalCone(rays, 2, ())
        pieces = simplicial_decompose(cone)
        for pt in itertools.product(range(1, 12), repeat=2):
            hits = 0
            for piece in pieces:
                lam = linalg.solve_columns(list(piece.rays), pt)
                if lam is not None and all(x > 0 for x in lam):
                    hits += 1
            inside = 0 < 3 * pt[0] - pt[1] and pt[1] > 0
            assert hits == (1 if inside else 0)


def _inside_square_cone(pt):
    x, y, z = pt
    return x > y > 0 and x > z > 0


# -- non-simplicial cones ------------------------------------------------


def reference_cone_facets(rays):
    """linalg.cone_facets with every rank checked: h spans the kernel of
    d-1 independent rays plus the span complement, and the rays tight on
    it have rank d-1."""
    d = linalg.rank(rays)
    if d == 1:
        return []
    complement = linalg.kernel_basis(rays)
    seen = set()
    for sub in itertools.combinations(rays, d - 1):
        if linalg.rank(sub) != d - 1:
            continue
        kernel = linalg.kernel_basis(list(sub) + complement)
        if len(kernel) != 1:
            continue
        h = kernel[0]
        dots = [linalg.vec_dot(h, r) for r in rays]
        if all(x <= 0 for x in dots):
            h = tuple(-x for x in h)
            dots = [-x for x in dots]
        if any(x < 0 for x in dots):
            continue
        tight = [r for r, x in zip(rays, dots) if x == 0]
        if linalg.rank(tight) == d - 1:
            seen.add(h)
    return sorted(seen)


# points in strictly convex position: the corners of an octagon in the
# plane and of the unit cube in space; a cone over any of them has every
# ray extreme
OCTAGON = ((1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1))
CUBE = tuple(itertools.product((0, 1), repeat=3))


@st.composite
def non_simplicial_cones(draw):
    """4-6 extreme rays: a 3-cone in Z^3 or Z^4, or a 4-cone in Z^4."""
    shape = draw(st.sampled_from(["3 in 3", "3 in 4", "4 in 4"]))
    base = OCTAGON if shape != "4 in 4" else CUBE
    corners = draw(st.lists(st.sampled_from(base), min_size=4, max_size=6,
                            unique=True))
    height = draw(st.integers(1, 2))
    rays = [(height,) + corner for corner in corners]
    if shape == "3 in 4":  # into the hyperplane x_4 = x_1 + x_2
        rays = [ray + (ray[0] + ray[1],) for ray in rays]
    order = draw(st.permutations(range(len(rays[0]))))
    rays = [linalg.primitive(tuple(ray[i] for i in order)) for ray in rays]
    assume(linalg.rank(rays) == int(shape[0]))
    return tuple(rays)


class TestNonSimplicialCones:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(non_simplicial_cones())
    def test_facets_and_decomposition(self, rays):
        facets = reference_cone_facets(rays)
        assert linalg.cone_facets(rays) == facets
        complement = linalg.kernel_basis(rays)
        cone = RationalCone(rays, linalg.rank(rays), ())
        pieces = simplicial_decompose(cone)
        # a box at the apex and one around the witness sum(rays)
        boxes = [[range(3)] * len(rays[0]),
                 [range(max(0, x - 2), x + 2) for x in cone.witness()]]
        box = set().union(*(itertools.product(*ranges) for ranges in boxes))
        inside_any = 0
        for pt in sorted(box):
            inside = (all(linalg.vec_dot(c, pt) == 0 for c in complement)
                      and all(linalg.vec_dot(h, pt) > 0 for h in facets))
            hits = 0
            for piece in pieces:
                lam = linalg.solve_columns(piece.rays, pt)
                hits += lam is not None and all(x > 0 for x in lam)
            assert hits == inside, (pt, hits)
            inside_any += inside
        assert 0 < inside_any < len(box)

