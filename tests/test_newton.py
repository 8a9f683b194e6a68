"""Newton polyhedra: weights, first meet loci, facets, faces."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from igusa import errors, linalg
from igusa.errors import SizeGuardError
from igusa.newton import NewtonPolyhedron, face_restriction, minimal_points
from igusa.polynomials import parse_polynomial

from conftest import example_ideal, example_measure, report_budget
from test_linalg import reference_kernel


def gamma_I():
    return NewtonPolyhedron.of(example_ideal())


def gamma_g():
    return NewtonPolyhedron.of(example_measure())


# -- references: the searches over the input space -----------------------


def reference_facets(gamma):
    """(normal, offset, face) of every facet: from each support point, the
    kernel of every n-1 directions to other support points or along the
    axes, kept when its first meet locus has dimension n-1."""
    n = gamma.n
    if n == 1:
        return [((1,), gamma.m_value((1,)), gamma.first_meet_locus((1,)))]
    points = sorted(gamma.support)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = {}
    for base in points:
        pool = [linalg.vec_sub(pt, base) for pt in points if pt != base]
        for combo in itertools.combinations(pool + units, n - 1):
            kernel = reference_kernel(list(combo))
            if len(kernel) != 1:
                continue
            normal = kernel[0]
            if all(x <= 0 for x in normal):
                normal = tuple(-x for x in normal)
            if any(x < 0 for x in normal) or normal in seen:
                continue
            face = gamma.first_meet_locus(normal)
            if face.dim == n - 1:
                seen[normal] = (normal, gamma.m_value(normal), face)
    return sorted(seen.values())


def reference_faces(gamma, facets):
    """First meet loci of the sums of every subset of the facet normals,
    in the order enumerate_faces promises."""
    normals = [normal for normal, _, _ in facets]
    found = {}
    for size in range(len(normals) + 1):
        for combo in itertools.combinations(normals, size):
            k = tuple(sum(col) for col in zip(*combo)) if combo \
                else tuple([0] * gamma.n)
            face = gamma.first_meet_locus(k)
            found.setdefault((face.touching, face.recession), face)
    return sorted(found.values(), key=lambda f: (
        -f.dim, sorted(f.touching), sorted(f.recession)))


def _supports(n, top, size):
    point = st.tuples(*[st.integers(0, top)] * n).filter(any)
    return st.tuples(st.just(n), st.sets(point, min_size=1, max_size=size))


# small supports, n = 1, 2, 3, 4: the references take 2^#facets and
# C(|S|+n-1, n-1) steps per point
supports = st.sampled_from([(2, 6, 6), (3, 3, 5), (4, 2, 5), (1, 9, 4)]).flatmap(
    lambda shape: _supports(*shape))

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def staircase(facets):
    """n=2 support on a strictly convex chain with facets-2 edges of
    distinct slopes, so that Gamma has exactly `facets` facets."""
    slopes = sorted({Fraction(a, b) for a in range(1, 8) for b in range(1, 8)},
                    reverse=True)[:facets - 2]
    x, y = 1, 1 + sum(s.numerator for s in slopes)
    points = [(x, y)]
    for s in slopes:
        x, y = x + s.denominator, y - s.numerator
        points.append((x, y))
    return NewtonPolyhedron(points, 2)


class TestWeights:
    def test_m_values_of_ray_generators(self):
        gI, gg = gamma_I(), gamma_g()
        table = {(1, 0): (2, 1), (3, 1): (11, 8), (1, 1): (5, 6),
                 (1, 2): (7, 8), (0, 1): (1, 2)}
        for k, (mi, mg) in table.items():
            assert gI.m_value(k) == mi
            assert gg.m_value(k) == mg

    def test_m_value_of_pp_point(self):
        assert gamma_I().m_value((2, 1)) == 8
        assert gamma_g().m_value((2, 1)) == 7

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            gamma_I().m_value((-1, 0))

    @given(st.tuples(st.integers(0, 9), st.integers(0, 9)),
           st.tuples(st.integers(0, 9), st.integers(0, 9)))
    def test_m_superadditive(self, k1, k2):
        # min of a sum dominates the sum of mins
        g = gamma_g()
        k = tuple(a + b for a, b in zip(k1, k2))
        assert g.m_value(k) >= g.m_value(k1) + g.m_value(k2)

    def test_origin_in_support_rejected(self):
        with pytest.raises(ValueError):
            NewtonPolyhedron({(0, 0), (1, 0)}, 2)


class TestFirstMeetLocus:
    def test_zero_weight_meets_everything(self):
        g = gamma_I()
        face = g.first_meet_locus((0, 0))
        assert face.touching == g.support
        assert face.dim == 2

    def test_interior_weight_meets_vertex(self):
        face = gamma_I().first_meet_locus((2, 1))
        assert face.touching == {(3, 2)}
        assert face.dim == 0

    def test_facet_weight_meets_edge(self):
        face = gamma_I().first_meet_locus((3, 1))
        assert face.touching == {(3, 2), (2, 5)}
        assert face.dim == 1
        face = gamma_I().first_meet_locus((1, 2))
        assert face.touching == {(5, 1), (3, 2)}
        assert face.dim == 1

    def test_axis_weight_has_recession(self):
        face = gamma_I().first_meet_locus((1, 0))
        assert face.recession == {2}
        assert face.touching == {(2, 5)}
        assert face.dim == 1

    def test_face_containment_order(self):
        g = gamma_I()
        vertex = g.first_meet_locus((2, 1))
        edge = g.first_meet_locus((3, 1))
        assert edge.contains_face(vertex)
        assert not vertex.contains_face(edge)


class TestFacets:
    def test_example_facets(self):
        # inward normals with offsets, one per facet
        assert gamma_I().facet_normals() == [
            ((0, 1), 1), ((1, 0), 2), ((1, 2), 7), ((3, 1), 11)]
        assert gamma_g().facet_normals() == [
            ((0, 1), 2), ((1, 0), 1), ((1, 1), 6)]

    def test_one_dimensional(self):
        g = NewtonPolyhedron({(3,)}, 1)
        assert g.facet_normals() == [((1,), 3)]

    def test_three_dimensional_simplex(self):
        g = NewtonPolyhedron.of(parse_polynomial("x + y + z", 3))
        normals = [n for n, _ in g.facet_normals()]
        assert (1, 1, 1) in normals
        assert set(normals) >= {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_enumerate_faces_closed_under_facets(self):
        g = gamma_I()
        faces = g.enumerate_faces()
        assert any(f.dim == 2 and f.touching == g.support for f in faces)
        for _, _, facet in g.facets():
            assert facet in g.enumerate_faces()

    def test_facets_containing_vertex(self):
        g = gamma_I()
        vertex = g.first_meet_locus((2, 1))
        normals = [n for n, _, facet in g.facets()
                   if facet.contains_face(vertex)]
        assert sorted(normals) == [(1, 2), (3, 1)]


class TestAgainstReferences:
    @PROPERTY
    @given(supports)
    def test_facets_and_faces(self, shaped):
        n, support = shaped
        gamma = NewtonPolyhedron(support, n)
        facets = reference_facets(gamma)
        assert gamma.facets() == facets
        assert gamma.enumerate_faces() == reference_faces(gamma, facets)

    @PROPERTY
    @given(st.integers(1, 4).flatmap(lambda n: st.sets(
        st.tuples(*[st.integers(0, 3)] * n), max_size=30)))
    def test_minimal_points(self, points):
        # every point compared with every other one
        assert minimal_points(points) == sorted(
            pt for pt in points
            if not any(q != pt and all(a <= b for a, b in zip(q, pt))
                       for q in points))

    def test_homogeneous_support_meets_the_facet_guard_at_once(self):
        # the 7,381 monomials of degree 120 in n = 3, the support of
        # (x+y+z)^120: comparing each with every other one took 27 s
        # before the facet guard refused C(7384, 3) eliminations
        support = {(a, b, 120 - a - b) for a in range(121)
                   for b in range(121 - a)}
        started = time.perf_counter()
        assert minimal_points(support) == sorted(support)
        with pytest.raises(SizeGuardError, match="facet search needs "
                                                 "4292668197376 steps"):
            NewtonPolyhedron(support, 3).facets()
        report_budget("the facet guard on a 7,381-point homogeneous support",
                      started, 0.5)

    def test_staircase_faces_budget(self):
        gamma = staircase(16)
        assert len(gamma.facets()) == 16
        started = time.perf_counter()
        faces = gamma.enumerate_faces()
        report_budget("faces of the 16-facet staircase", started, 0.1)
        assert len(faces) == 2 * 16  # 16 facets, 15 vertices, the whole

    def test_four_dimensional_facets_budget(self):
        rng = random.Random(4)
        support = set()
        while len(support) < 30:
            pt = tuple(rng.randint(0, 6) for _ in range(4))
            if any(pt):
                support.add(pt)
        gamma = NewtonPolyhedron(support, 4)
        started = time.perf_counter()
        facets = gamma.facets()
        report_budget("facets of a 30-term support in n = 4", started, 2.0)
        for normal, offset, face in facets:
            assert gamma.m_value(normal) == offset and face.dim == 3
        # reference_facets finds the same 21, in about 30 s
        assert len(facets) == 21

    def test_degree_five_facets_budget(self):
        # the 56 monomials of degree 5 in n = 4: the facet guard admits
        # C(60, 4) = 487,635 ray subsets, whose elimination took 5.6 s
        f = parse_polynomial(" + ".join(
            "*".join(f"x{i}" for i in m)
            for m in itertools.combinations_with_replacement(range(1, 5), 5)),
            4)
        gamma = NewtonPolyhedron.of(f)
        started = time.perf_counter()
        facets = gamma.facets()
        report_budget("facets of the 56 monomials of degree 5 in n = 4",
                      started, 0.5)
        assert [(normal, offset) for normal, offset, _ in facets] == [
            ((0, 0, 0, 1), 0), ((0, 0, 1, 0), 0), ((0, 1, 0, 0), 0),
            ((1, 0, 0, 0), 0), ((1, 1, 1, 1), 5)]

    def test_face_guard_comes_before_the_closure(self):
        # x1 + x2 in n = 30: 31 facets and 3 * 2^29 faces
        gamma = NewtonPolyhedron.of(parse_polynomial("x1 + x2", 30))
        started = time.perf_counter()
        with pytest.raises(SizeGuardError, match="face enumeration"):
            gamma.enumerate_faces()
        report_budget("refusing the faces of x1 + x2 in n = 30", started, 1.0)

    def test_face_guard_bound(self, monkeypatch):
        # n = 4 and 5 facets: at most 1 + 5 + 10 + 10 + 5 faces, each
        # intersected with the 5 facets and weighed by a 4 x 4 rank; the
        # facets are found first, under the facet search's own bound
        gamma = NewtonPolyhedron.of(parse_polynomial("x1 + x2", 4))
        gamma.facets()
        monkeypatch.setattr(errors, "ENUMERATION_LIMIT", 31 * 21 - 1)
        with pytest.raises(SizeGuardError, match="face enumeration"):
            gamma.enumerate_faces()
        monkeypatch.setattr(errors, "ENUMERATION_LIMIT", 31 * 21)
        assert len(gamma.enumerate_faces()) == 3 * 2**3

    def test_facet_guard_bound(self, monkeypatch):
        # the cone over Gamma has 2 support points and 4 axes as rays in
        # R^5, so the facet search eliminates C(6, 4) = 15 subsets, each
        # a 4 x 5 elimination weighed as 5^3 steps
        f = parse_polynomial("x1 + x2", 4)
        monkeypatch.setattr(errors, "ENUMERATION_LIMIT", 1874)
        with pytest.raises(SizeGuardError, match="facet search needs 1875 "):
            NewtonPolyhedron.of(f).facets()
        monkeypatch.setattr(errors, "ENUMERATION_LIMIT", 1875)
        assert len(NewtonPolyhedron.of(f).facets()) == 5


class TestFaceRestriction:
    def test_restriction_keeps_face_terms(self):
        g = gamma_g()
        f = example_measure()
        edge = g.first_meet_locus((1, 1))
        assert face_restriction(f, edge) == f

        axis = g.first_meet_locus((0, 1))
        assert face_restriction(f, axis).terms == {(4, 2): 1}
