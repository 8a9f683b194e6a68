"""Small exact linear algebra over the integers.

The geometry only needs integer matrices: a handful of rows in dimension
<= 5. One elimination, `echelon`, serves every job: it brings a matrix
A to a row echelon form H = U A by unimodular row operations and keeps
U (Hermite's reduction; Cohen, A Course in Computational Algebraic
Number Theory, 2.4). The pivots give the rank. The rows of U past the
rank are a basis of the integer vectors orthogonal to A's columns, so
`cone_facets` reads each candidate facet normal off the last row of U,
`counting.sweep` its monomial change of variables off U, and
`cones.parallelepiped_points` the lattice of a cone's rays off H. And
`rank` and `rank_mod` count its pivots, over Q and over F_p.
"""

import itertools
from math import comb
from operator import mul

from .errors import guard


def vec_dot(a, b):
    return sum(map(mul, a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def echelon(rows):
    """Unimodular row echelon form of an integer matrix A, given by its
    rows: (the rows of [H | U], the pivot columns of H).

    U is unimodular and U A = H. H is in row echelon form: row i < r =
    rank has a positive pivot in column pivots[i], zeros to its left and
    below it, and the rows past r are zero. So the rows of U past r are
    orthogonal to A's columns, and they are a basis of the integer
    vectors that are. Each column is cleared below its pivot by Euclid's
    algorithm on the rows of [A | I]: the pivot row and each row below it
    trade places and remainders until the lower entry is zero.
    """
    size, width = len(rows), len(rows[0]) if rows else 0
    m = [[*row, *[0] * size] for row in rows]
    for i, row in enumerate(m):
        row[width + i] = 1
    pivots = []
    for c in range(width):
        r = len(pivots)
        for i in range(r + 1, size):  # Euclid on rows r and i
            while m[i][c]:
                q = m[r][c] // m[i][c]
                m[r], m[i] = m[i], ([a - q * b for a, b in zip(m[r], m[i])]
                                    if q else m[r])
        if not m[r][c]:
            continue
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        pivots.append(c)
        if r + 1 == size:
            break
    return m, pivots


def rank(rows):
    """Rank over Q, from the side with fewer rows: U carries one identity
    row per row of A."""
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    return len(echelon(rows)[1])


def rank_mod(rows, p):
    """Rank over F_p of an integer matrix A of r columns: the number of
    pivots equal to 1 in the echelon form of A stacked on p I_r. The
    lattice of those rows has index p^(r - rank) and holds every p e_i,
    so each of its r pivots is 1 or p. One row has rank 1 unless p
    divides it, and no row has rank 0."""
    if len(rows) < 2:
        return int(any(x % p for x in rows[0])) if rows else 0
    width = len(rows[0])
    m, pivots = echelon([*rows, *([p * (i == j) for j in range(width)]
                                  for i in range(width))])
    return sum(row[c] == 1 for row, c in zip(m, pivots))


def guard_facet_search(count, d):
    """Refuse, before it starts, a facet search over `count` rays in R^d:
    C(count, d - 1) ray subsets, each weighed as the d^3 steps of the
    echelon form of its d x (d-1) transpose."""
    guard(comb(count, d - 1) * d**3, "facet search")


def cone_facets(rays):
    """Inward facet normals of a full-dimensional closed cone: the sorted
    primitive h with h . r >= 0 for every ray and d-1 independent rays
    tight, d = the dimension of the space.

    Each (d-1)-subset of the rays is eliminated once, after the size
    guard has weighed it. One of rank d-1 leaves a single zero row of H,
    and the last row of U, orthogonal to the d-1 rays, is the candidate;
    as a row of a unimodular matrix it is primitive. A candidate that
    supports the cone is a facet normal. The sum of the rays lies in the
    interior, where every facet normal is positive, so it orients the
    candidates; many ray subsets span the same hyperplane, and each
    hyperplane is tested once.
    """
    d = len(rays[0])
    guard_facet_search(len(rays), d)
    interior = [sum(col) for col in zip(*rays)]
    supporting = {}
    for sub in itertools.combinations(rays, d - 1):
        m, pivots = echelon(list(zip(*sub)))
        if len(pivots) < d - 1:
            continue
        h = tuple(m[-1][d - 1:])
        if vec_dot(h, interior) < 0:
            h = tuple(-x for x in h)
        if h not in supporting:
            supporting[h] = all(vec_dot(h, r) >= 0 for r in rays)
    return sorted(h for h, ok in supporting.items() if ok)
