"""Cone partitions, multiplicities and simplicial decomposition."""

import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from igusa import errors, linalg
from igusa.cones import (parallelepiped_points, partition_pair,
                         partition_single, simplicial_decompose)
from igusa.errors import SizeGuardError
from igusa.newton import NewtonPolyhedron, minimal_points
from igusa.polynomials import parse_polynomial

from conftest import (classify, example_ideal, example_measure, minor_gcd,
                      partition_rays, primitive, subset_facets)
from test_linalg import reference_kernel, reference_solve
from test_newton import PROPERTY, reference_faces, reference_facets, supports


def pair_partition():
    return partition_pair(NewtonPolyhedron.of(example_ideal()),
                          NewtonPolyhedron.of(example_measure()))


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

    def test_steep_rays_sweep_counterclockwise(self):
        # the ray (1, 2*10^9 + 1) is steeper than any finite stand-in for
        # the slope of the second axis; its cones still come before (0, 1)
        gamma = NewtonPolyhedron({(0, 2), (2 * 10**9 + 1, 1)}, 2)
        steep = (1, 2 * 10**9 + 1)
        assert [cone.rays for cone in partition_single(gamma).cones] == [
            (), ((1, 0),), ((1, 0), steep), (steep,), ((0, 1), steep),
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
            classify(d, k)  # exactly one cone carries the labels of k

    def test_classify_known_points(self):
        d = pair_partition()
        assert classify(d, (2, 1)).rays == ((1, 1), (3, 1))
        assert classify(d, (0, 0)).dim == 0
        assert classify(d, (1, 0)).rays == ((1, 0),)

    def test_classify_rejects_negative(self):
        with pytest.raises(ValueError):
            classify(pair_partition(), (-1, 0))

    def test_ray_list(self):
        assert partition_rays(pair_partition()) == [
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
        assert parallelepiped_points([(3, 1), (1, 1)]) == [(0, 0), (2, 1)]
        assert minor_gcd([(3, 1), (1, 1)]) == 2
        assert parallelepiped_points([(1, 0), (3, 1)]) == [(0, 0)]
        assert parallelepiped_points([(2, 1)]) == [(0, 0)]

    def test_dependent_rays_rejected(self):
        with pytest.raises(ValueError):
            parallelepiped_points([(1, 1), (2, 2)])

    def test_random_ray_sets(self):
        # as many points as the index of the rays' lattice in its
        # saturation, counted by the minors instead of the echelon form
        rng = random.Random(20260824)
        done = 0
        while done < 200:
            n = rng.choice([2, 3])
            r = rng.randint(1, n)
            rays = [tuple(rng.randint(0, 6) for _ in range(n))
                    for _ in range(r)]
            if any(not any(ray) for ray in rays):
                continue
            rays = [primitive(ray) for ray in rays]
            if linalg.rank([list(ray) for ray in rays]) != r:
                continue
            assert len(parallelepiped_points(rays)) == minor_gcd(rays)
            done += 1


def box_scan_points(rays):
    """Reference for parallelepiped_points on nonnegative rays: every point
    of the bounding box whose coordinates lambda solve sum lambda_j k_j = h
    with 0 <= lambda_j < 1."""
    n = len(rays[0])
    bounds = [max(1, sum(r[i] for r in rays)) for i in range(n)]
    points = []
    for h in itertools.product(*(range(b) for b in bounds)):
        lam = reference_solve(rays, h)
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
        monkeypatch.setattr(errors, "ENUMERATION_LIMIT", 6)
        assert len(parallelepiped_points([(1, 0), (1, 6)])) == 6
        with pytest.raises(SizeGuardError):
            parallelepiped_points([(1, 0), (1, 7)])


def xy_plus_z_partition():
    return partition_single(NewtonPolyhedron.of(parse_polynomial("x*y + z", 3)))


def box_hits(pieces, pt):
    """How many pieces hold pt in their relatively open cone."""
    hits = 0
    for rays in pieces:
        lam = reference_solve(list(rays), pt)
        hits += lam is not None and all(x > 0 for x in lam)
    return hits


class TestSimplicialDecomposition:
    def test_simplicial_cone_is_identity(self):
        d = pair_partition()
        cone = classify(d, (2, 1))
        pieces = simplicial_decompose(cone, d)
        assert pieces == [cone.rays]
        assert parallelepiped_points(pieces[0]) == [(0, 0), (2, 1)]

    def test_square_based_cone_cover(self):
        # the cone of f = x*y + z on its vertex z: 0 <= z <= x + y, over a
        # square with the four facets x = 0, y = 0, z = 0 and z = x + y
        d = xy_plus_z_partition()
        cone, = [c for c in d.cones if len(c.rays) > c.dim]
        assert cone.rays == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
        assert len(d.facets_of(cone)) == 4
        pieces = simplicial_decompose(cone, d)
        # every lattice point of the open cone in a box is covered once
        inside_any = 0
        for pt in itertools.product(range(6), repeat=3):
            x, y, z = pt
            inside = x > 0 and y > 0 and 0 < z < x + y
            assert box_hits(pieces, pt) == inside, pt
            inside_any += inside
        assert inside_any

    def test_half_open_pieces_partition_lattice(self):
        # the lattice points of each relatively open cone of a real
        # partition are the disjoint union of its pieces' points
        d = pair_partition()
        cone = classify(d, (2, 1))
        assert cone.dim == 2
        pieces = simplicial_decompose(cone, d)
        for pt in itertools.product(range(12), repeat=2):
            assert box_hits(pieces, pt) == (classify(d, pt) is cone), pt


# -- non-simplicial cones ------------------------------------------------


def reference_cone_facets(rays):
    """linalg.cone_facets with every rank checked: h spans the kernel of
    d-1 independent rays plus the span complement, and the rays tight on
    it have rank d-1. Also serves cones that are not full-dimensional."""
    d = linalg.rank(rays)
    if d == 1:
        return []
    complement = reference_kernel(rays)
    seen = set()
    for sub in itertools.combinations(rays, d - 1):
        if linalg.rank(sub) != d - 1:
            continue
        kernel = reference_kernel(list(sub) + complement)
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


def reference_decompose(rays):
    """The ray tuples of the pieces, with every face found by linear
    algebra on the rays alone: a pulling triangulation (first ray first)
    over reference_cone_facets, and each simplex face kept when the sum
    of its rays is positive on every facet normal of the cone."""
    def pull(idx):
        sub = [rays[i] for i in idx]
        if len(idx) == linalg.rank(sub):
            return {frozenset(idx)}
        v = idx[0]
        simplices = set()
        for h in reference_cone_facets(sub):
            if linalg.vec_dot(h, rays[v]) <= 0:
                continue  # facet contains the pulled ray
            tight = [i for i in idx if linalg.vec_dot(h, rays[i]) == 0]
            simplices |= {simplex | {v} for simplex in pull(tight)}
        return simplices

    facets = reference_cone_facets(rays)
    faces = {subset for simplex in pull(list(range(len(rays))))
             for size in range(1, len(simplex) + 1)
             for subset in itertools.combinations(sorted(simplex), size)}
    kept = []
    for subset in sorted(faces):
        w = [sum(col) for col in zip(*(rays[i] for i in subset))]
        if all(linalg.vec_dot(h, w) > 0 for h in facets):
            kept.append(tuple(rays[i] for i in subset))
    return kept


# points in strictly convex position: the corners of an octagon in the
# plane and of the unit cube in space; a cone over any of them has every
# ray extreme
OCTAGON = ((1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1))
CUBE = tuple(itertools.product((0, 1), repeat=3))


@st.composite
def full_cones(draw):
    """4-6 extreme rays spanning a 3-cone in Z^3 or a 4-cone in Z^4."""
    base = draw(st.sampled_from([OCTAGON, CUBE]))
    corners = draw(st.lists(st.sampled_from(base), min_size=4, max_size=6,
                            unique=True))
    height = draw(st.integers(1, 2))
    rays = [(height,) + corner for corner in corners]
    order = draw(st.permutations(range(len(rays[0]))))
    rays = [primitive(tuple(ray[i] for i in order)) for ray in rays]
    assume(linalg.rank(rays) == len(rays[0]))
    return tuple(rays)


def small_support(n, top):
    point = st.tuples(*[st.integers(0, top)] * n).filter(any)
    return st.sets(point, min_size=1, max_size=5)


@st.composite
def fans(draw):
    """The partition of one random Newton polyhedron or of a pair, n = 3, 4."""
    n, top = draw(st.sampled_from([(3, 3), (4, 2)]))
    gamma = NewtonPolyhedron(draw(small_support(n, top)), n)
    if draw(st.booleans()):
        return partition_single(gamma)
    return partition_pair(gamma, NewtonPolyhedron(draw(small_support(n, top)), n))


@st.composite
def facet_search_cones(draw):
    """Rays of the cones whose facets `linalg.cone_facets` is asked for,
    n = 1..4: over every point of a support, dominated ones included; over
    a homogeneous support, whose rays all lie in one facet, many of them
    not extreme; over the minimal points of a Minkowski sum, as
    `partition_pair` builds it; or the extreme rays of `full_cones`."""
    kind = draw(st.sampled_from(["support", "homogeneous", "sum", "full"]))
    if kind == "full":
        return list(draw(full_cones()))
    n, top = draw(st.sampled_from([(1, 9), (2, 6), (3, 4), (4, 5)]))
    if kind == "homogeneous":
        degree = draw(st.integers(1, top))
        point = st.lists(st.integers(0, n - 1), min_size=degree,
                         max_size=degree).map(
            lambda xs: tuple(map(xs.count, range(n))))
        support = draw(st.sets(point, min_size=1, max_size=10))
    elif kind == "support":
        point = st.tuples(*[st.integers(0, top)] * n).filter(any)
        support = draw(st.sets(point, min_size=1, max_size=10))
    else:
        support, other = (draw(small_support(n, top // 2 + 1))
                          for _ in range(2))
        support = minimal_points({linalg.vec_add(a, b)
                                  for a in support for b in other})
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    return [pt + (1,) for pt in sorted(support)] + units


class TestDoubleDescription:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(facet_search_cones())
    # three points on one edge: a pair of facets meeting in that edge
    # shares d - 2 = 3 tight rays and is not adjacent
    @example([(0, 0, 0, 5, 1), (0, 0, 1, 4, 1), (0, 0, 2, 3, 1),
              (1, 2, 1, 1, 1), (1, 2, 2, 0, 1), (2, 2, 0, 1, 1),
              (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
              (0, 0, 0, 1, 0)])
    def test_against_the_subset_search(self, rays):
        assert linalg.cone_facets(rays) == subset_facets(rays)


class TestNonSimplicialCones:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(full_cones())
    def test_facets(self, rays):
        assert linalg.cone_facets(rays) == reference_cone_facets(rays)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fans())
    def test_decomposition_in_fans(self, partition):
        for cone in partition.cones:
            if len(cone.rays) == cone.dim or cone.dim == 0:
                continue
            pieces = simplicial_decompose(cone, partition)
            assert pieces == reference_decompose(cone.rays)
            # a box at the apex and one around the witness sum(rays)
            boxes = [[range(3)] * partition.n,
                     [range(max(0, x - 1), x + 2) for x in cone.witness()]]
            box = set().union(*(itertools.product(*ranges)
                                for ranges in boxes))
            inside_any = 0
            for pt in sorted(box):
                inside = classify(partition, pt) is cone
                assert box_hits(pieces, pt) == inside, (cone.rays, pt)
                inside_any += inside
            assert 0 < inside_any < len(box)
