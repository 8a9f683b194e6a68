"""Exact integer linear algebra: the echelon form, the ranks and the
facet search, against references over Q and over F_p."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from igusa import linalg

from conftest import laplace_det, primitive, rank_mod_p, subset_facets


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
        basis.append(primitive(tuple(int(x * denom) for x in v)))
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


def split(rows):
    """(H, U, rank) of the echelon form of the rows."""
    m, pivots = linalg.echelon(rows)
    width = len(rows[0]) if rows else 0
    return [row[:width] for row in m], [row[width:] for row in m], len(pivots)


def kernel_vectors(rows):
    """The vectors orthogonal to the rows that `cone_facets` reads for its
    start simplex, and `subset_facets` for every candidate: the rows of U
    past the rank, for the echelon form of the transpose."""
    _, u, r = split([list(col) for col in zip(*rows)])
    return [tuple(row) for row in u[r:]]


class TestRankKernel:
    def test_rank_known(self):
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([]) == 0

    def test_kernel_orthogonal(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        v, = kernel_vectors(rows)
        assert all(linalg.vec_dot(row, v) == 0 for row in rows)

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    def test_rank_plus_nullity(self, rows):
        assert linalg.rank(rows) + len(kernel_vectors(rows)) == 3

    def test_kernel_vectors_primitive(self):
        kernel = kernel_vectors([[2, 4, 6]])
        assert len(kernel) == 2
        assert all(math.gcd(*v) == 1 for v in kernel)


class TestAgainstReference:
    @PROPERTY
    @given(deficient_matrices())
    def test_rank_and_kernel(self, rows):
        assert linalg.rank(rows) == reference_rank(rows)
        got, want = kernel_vectors(rows), reference_kernel(rows)
        assert all(linalg.vec_dot(row, v) == 0 for row in rows for v in got)
        assert len(got) == len(want)
        if len(want) == 1:
            assert got[0] in (want[0], tuple(-x for x in want[0]))

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
def matrices_mod_p(draw):
    """(rows, p): a deficient matrix, tall, wide or of one row, with each
    entry moved by a multiple of p in -2p..2p. So entries are negative or
    past p, and rows dependent over F_p often are not over Q."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    rows = [[x + p * draw(st.integers(-2, 2)) for x in row]
            for row in draw(deficient_matrices())]
    return rows, p


class TestRankMod:
    @PROPERTY
    @given(matrices_mod_p())
    @example(([[4, -2, 6]], 2))  # one row that p divides
    @example(([[1, 2], [3, 4], [5, 6]], 2))  # tall, of rank 1 mod 2
    @example(([], 5))  # no rows
    def test_against_gaussian_elimination(self, case):
        rows, p = case
        assert linalg.rank_mod(rows, p) == rank_mod_p(rows, p)


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
        taken = []  # (rows eliminated, the candidate normal or None)
        echelon = linalg.echelon

        def record_echelon(rows):
            m, pivots = echelon(rows)
            taken.append((rows, tuple(m[-1][n:]) if len(pivots) == n
                          else None))
            return m, pivots

        with mock.patch.object(linalg, "echelon", record_echelon):
            facets = subset_facets(rays)
        assert linalg.cone_facets(rays) == facets
        assert [tuple(zip(*rows)) for rows, _ in taken] == list(
            itertools.combinations(rays, n))
        for rows, h in taken:
            kernel = reference_kernel(list(zip(*rows)))
            if len(kernel) != 1:
                assert h is None  # rank below n: no candidate
            else:
                assert h in (kernel[0], tuple(-x for x in kernel[0]))
        candidates = {h for _, h in taken}
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


def square_matrices():
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n))


class TestEchelon:
    def test_known_forms(self):
        # a diagonal matrix is its own form; a column's pivot is its gcd
        assert split([[2, 0], [0, 3]]) == ([[2, 0], [0, 3]],
                                           [[1, 0], [0, 1]], 2)
        h, u, r = split([[4], [6]])
        assert (h, r) == ([[2], [0]], 1)
        assert u[1] in ([3, -2], [-3, 2])
        h, u, r = split([[1, 2], [2, 4]])
        assert (h, r) == ([[1, 2], [0, 0]], 1)
        assert u[1] in ([2, -1], [-2, 1])

    @PROPERTY
    @given(deficient_matrices())
    def test_unimodular_transform(self, rows):
        h, u, _ = split(rows)
        assert abs(laplace_det(u)) == 1
        assert matmul(u, rows) == h
        assert all(type(x) is int for row in h + u for x in row)

    @PROPERTY
    @given(deficient_matrices())
    def test_echelon_shape(self, rows):
        m, pivots = linalg.echelon(rows)
        h, r = [row[:len(rows[0])] for row in m], len(pivots)
        assert r == reference_rank(rows)
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(h, pivots)):
            assert not any(row[:c]) and row[c] > 0
            assert not any(below[c] for below in h[i + 1:])
        assert not any(x for row in h[r:] for x in row)

    @PROPERTY
    @given(square_matrices())
    def test_product_is_absolute_determinant(self, rows):
        h, _, r = split(rows)
        det = laplace_det(rows)
        if r == len(rows):
            assert math.prod(row[i] for i, row in enumerate(h)) == abs(det)
        else:
            assert det == 0


class TestReferences:
    def test_primitive(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)
        assert primitive((0, 5)) == (0, 1)
        assert primitive((0, 0)) == (0, 0)
