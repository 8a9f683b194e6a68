"""Exact integer/rational linear algebra primitives."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from igusa import linalg

from conftest import laplace_det, minor_gcd


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=4):
    return st.integers(min_cols, max_cols).flatmap(lambda c: st.lists(
        st.lists(st.integers(-6, 6), min_size=c, max_size=c),
        min_size=min_rows, max_size=max_rows))


PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def deficient_matrices(draw):
    """Up to 5 x 5, entries -6..6; later rows are often combinations of
    earlier ones, and half the matrices are transposed, so low ranks,
    dependent columns and consistent systems all come up often."""
    rows = draw(matrices(1, 5, 1, 5))
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            j, k = (draw(st.integers(0, i - 1)) for _ in range(2))
            a, b = (draw(st.integers(-1, 1)) for _ in range(2))
            combined = [a * x + b * y for x, y in zip(rows[j], rows[k])]
            if max(map(abs, combined)) > 6:
                combined = [a * x for x in rows[j]]
            rows[i] = combined
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    return rows


# -- reference: reduced row echelon form over Q -------------------------


def reference_echelon(rows):
    """Reduced row echelon form over Q. Returns (rref rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def reference_rank(rows):
    return len(reference_echelon(rows)[1]) if rows else 0


def reference_kernel(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = reference_echelon(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        denom = math.lcm(*(x.denominator for x in v))
        basis.append(linalg.primitive(tuple(int(x * denom) for x in v)))
    return basis


def reference_solve(columns, target):
    ncols = len(columns)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]]
           for i in range(len(target))]
    rref, pivots = reference_echelon(aug)
    if ncols in pivots:
        return None
    if len(pivots) != ncols:
        raise ValueError("columns are linearly dependent")
    lam = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        lam[c] = rref[r][ncols]
    return lam


def outcome(solve, columns, target):
    try:
        return solve(columns, target)
    except ValueError:
        return "dependent"


def invariant_factors(rows):
    return [d for d in linalg.smith_form(rows)[1] if d]


def kernel_vectors(rows):
    """The kernel vectors `cone_facets` takes: one elimination, then one
    back-substitution per free column, in column order."""
    echelon, pivots = linalg._eliminate(rows)
    return [linalg._kernel_vector(echelon, pivots, f)
            for f in range(len(rows[0])) if f not in pivots]


class TestRankKernel:
    def test_rank_known(self):
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([]) == 0

    def test_kernel_orthogonal(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        for v in kernel_vectors(rows):
            assert all(linalg.vec_dot(row, v) == 0 for row in rows)

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    def test_rank_plus_nullity(self, rows):
        assert linalg.rank(rows) + len(kernel_vectors(rows)) == 3

    def test_kernel_vectors_primitive(self):
        from math import gcd
        for v in kernel_vectors([[2, 4, 6]]):
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1


class TestAgainstReference:
    @PROPERTY
    @given(deficient_matrices())
    def test_rank_and_kernel(self, rows):
        assert linalg.rank(rows) == reference_rank(rows)
        assert kernel_vectors(rows) == reference_kernel(rows)
        echelon = linalg._eliminate(rows)[0]
        assert all(type(x) is int for row in echelon for x in row)

    @PROPERTY
    @given(deficient_matrices().filter(lambda rows: len(rows[0]) > 1))
    def test_solve_columns(self, rows):
        # the reference the cone tests solve with, against rank: the last
        # column is the target, the others are the columns
        columns = list(zip(*rows))
        columns, target = columns[:-1], columns[-1]
        got = outcome(reference_solve, columns, target)
        if linalg.rank(rows) > linalg.rank(columns):
            assert got is None
        elif linalg.rank(columns) < len(columns):
            assert got == "dependent"
        else:
            assert [sum(lam * col[i] for lam, col in zip(got, columns))
                    for i in range(len(target))] == list(target)


@st.composite
def newton_cones(draw):
    """(n, rays) of the cone over a Newton polyhedron in n = 1..4, from
    every support point: collinear points give ray subsets of rank below
    n, the dimension of a facet."""
    n, top, size = draw(st.sampled_from(
        [(2, 6, 6), (3, 3, 5), (4, 2, 5), (1, 9, 4)]))
    point = st.tuples(*[st.integers(0, top)] * n).filter(any)
    support = draw(st.sets(point, min_size=1, max_size=size))
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    return n, [pt + (1,) for pt in sorted(support)] + units


class TestConeFacets:
    @PROPERTY
    @given(newton_cones())
    def test_candidate_normals_are_reference_kernels(self, cone):
        n, rays = cone
        taken = []  # (rows eliminated, normals taken from them)
        eliminate, kernel_vector = linalg._eliminate, linalg._kernel_vector

        def record_eliminate(rows):
            taken.append((rows, []))
            return eliminate(rows)

        def record_kernel_vector(*args):
            taken[-1][1].append(kernel_vector(*args))
            return taken[-1][1][-1]

        with mock.patch.object(linalg, "_eliminate", record_eliminate), \
                mock.patch.object(linalg, "_kernel_vector", record_kernel_vector):
            facets = linalg.cone_facets(rays)
        assert [rows for rows, _ in taken] == list(
            itertools.combinations(rays, n))
        for rows, normals in taken:
            kernel = reference_kernel(rows)
            if len(kernel) != 1:
                assert normals == []  # skipped before back-substitution
            else:
                h, = normals
                assert h in (kernel[0], tuple(-x for x in kernel[0]))
        candidates = {h for _, hs in taken for h in hs}
        assert all(h in candidates or tuple(-x for x in h) in candidates
                   for h in facets)


class TestSolve:
    def test_exact_solution(self):
        cols = [(3, 1), (1, 1)]
        sol = reference_solve(cols, (2, 1))
        assert sol == [Fraction(1, 2), Fraction(1, 2)]

    def test_inconsistent_returns_none(self):
        assert reference_solve([(1, 0)], (0, 1)) is None

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            reference_solve([(1, 1), (2, 2)], (3, 3))


class TestSmith:
    def test_known_invariants(self):
        assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
        assert invariant_factors([[1, 0], [0, 1]]) == [1, 1]
        assert invariant_factors([[3, 1], [1, 1]]) == [1, 2]

    def test_divisibility_chain(self):
        factors = invariant_factors([[4, 2, 0], [2, 4, 2], [0, 2, 4]])
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_product_is_absolute_determinant(self, rows):
        d = abs(det3(rows))
        if d == 0:
            return
        factors = invariant_factors(rows)
        product = 1
        for f in factors:
            product *= f
        assert product == d

    @PROPERTY
    @given(matrices())
    def test_smith_form(self, rows):
        # U A V = diag(d) for some unimodular U exactly when the columns
        # of A V past r are zero and column i < r is d_i w_i for integer
        # columns w_i whose maximal minors have gcd 1
        v, d = linalg.smith_form(rows)
        assert abs(laplace_det(v)) == 1
        nonzero = [x for x in d if x]
        assert d == nonzero + [0] * (len(d) - len(nonzero))
        r = len(nonzero)
        columns = list(zip(*matmul(rows, v)))
        assert all(not any(col) for col in columns[r:])
        w = []
        for col, di in zip(columns, nonzero):
            assert all(x % di == 0 for x in col)
            w.append([x // di for x in col])
        assert r == 0 or minor_gcd(w) == 1
        assert all(x > 0 for x in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert len(nonzero) == linalg.rank(rows)

    def test_primitive(self):
        assert linalg.primitive((2, 4, 6)) == (1, 2, 3)
        assert linalg.primitive((0, 5)) == (0, 1)
