"""Exact integer/rational linear algebra primitives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from igusa import linalg


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def laplace_det(m):
    if not m:
        return 1
    return sum((-1)**j * m[0][j] * laplace_det([row[:j] + row[j + 1:]
                                                 for row in m[1:]])
               for j in range(len(m)))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=4):
    return st.integers(min_cols, max_cols).flatmap(lambda c: st.lists(
        st.lists(st.integers(-6, 6), min_size=c, max_size=c),
        min_size=min_rows, max_size=max_rows))


PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


class TestRankKernel:
    def test_rank_known(self):
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([]) == 0

    def test_kernel_orthogonal(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        for v in linalg.kernel_basis(rows):
            assert all(linalg.vec_dot(row, v) == 0 for row in rows)

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    def test_rank_plus_nullity(self, rows):
        assert linalg.rank(rows) + len(linalg.kernel_basis(rows)) == 3

    def test_kernel_vectors_primitive(self):
        from math import gcd
        for v in linalg.kernel_basis([[2, 4, 6]]):
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1


class TestSolve:
    def test_exact_solution(self):
        cols = [(3, 1), (1, 1)]
        sol = linalg.solve_columns(cols, (2, 1))
        assert sol == [Fraction(1, 2), Fraction(1, 2)]

    def test_inconsistent_returns_none(self):
        assert linalg.solve_columns([(1, 0)], (0, 1)) is None

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_columns([(1, 1), (2, 2)], (3, 3))


class TestSmith:
    def test_known_invariants(self):
        assert linalg.smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
        assert linalg.smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
        assert linalg.smith_invariant_factors([[3, 1], [1, 1]]) == [1, 2]

    def test_divisibility_chain(self):
        factors = linalg.smith_invariant_factors([[4, 2, 0], [2, 4, 2], [0, 2, 4]])
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_product_is_absolute_determinant(self, rows):
        d = abs(det3(rows))
        if d == 0:
            return
        factors = linalg.smith_invariant_factors(rows)
        product = 1
        for f in factors:
            product *= f
        assert product == d

    @PROPERTY
    @given(matrices())
    def test_smith_form(self, rows):
        u, v, d = linalg.smith_form(rows)
        nr, nc = len(rows), len(rows[0])
        assert matmul(matmul(u, rows), v) == [
            [d[i] if i == j else 0 for j in range(nc)] for i in range(nr)]
        assert abs(laplace_det(u)) == abs(laplace_det(v)) == 1
        nonzero = [x for x in d if x]
        assert d == nonzero + [0] * (len(d) - len(nonzero))
        assert all(x > 0 for x in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert len(nonzero) == linalg.rank(rows)
        assert linalg.smith_invariant_factors(rows) == nonzero

    @PROPERTY
    @given(st.integers(1, 4).flatmap(lambda n: matrices(n, n, n, n)))
    def test_det(self, rows):
        assert linalg.det(rows) == laplace_det(rows)

    @PROPERTY
    @given(st.integers(2, 4).flatmap(lambda n: matrices(n - 1, n - 1, n, n)))
    def test_normal_vector(self, vectors):
        normal = linalg.normal_vector(vectors)
        if linalg.rank(vectors) < len(vectors):
            assert normal is None
        else:
            assert all(linalg.vec_dot(normal, v) == 0 for v in vectors)
            assert linalg.rank(vectors + [list(normal)]) == len(normal)

    def test_primitive(self):
        assert linalg.primitive((2, 4, 6)) == (1, 2, 3)
        assert linalg.primitive((0, 5)) == (0, 1)
