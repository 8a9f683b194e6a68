"""Small exact linear algebra over the integers.

The geometry only needs integer matrices: a handful of rows in dimension
<= 5. One elimination, `echelon`, serves every job: it brings a matrix
A to a row echelon form H = U A by unimodular row operations and keeps
U (Hermite's reduction; Cohen, A Course in Computational Algebraic
Number Theory, 2.4). The pivots give the rank. The rows of U past the
rank are a basis of the integer vectors orthogonal to A's columns, so
`cone_facets` reads the facet normals of its start simplex off the last
row of U, `counting.sweep` its monomial change of variables off U, and
`cones.parallelepiped_points` the lattice of a cone's rays off H. And
`rank` and `rank_mod` count its pivots, over Q and over F_p.
"""

from math import comb, gcd
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
    """Refuse, before it starts, a facet search over `count` rays in R^d,
    weighed as C(count, d - 1) eliminations of a d x (d-1) matrix of d^3
    steps each. A facet is spanned by d-1 of the rays, so C(count, d - 1)
    bounds the facets the double description holds at once; it does not
    bound the pairs that it tests."""
    guard(comb(count, d - 1) * d**3, "facet search")


def cone_facets(rays):
    """Inward facet normals of a full-dimensional closed cone: the sorted
    primitive h with h . r >= 0 for every ray and d-1 independent rays
    tight, d = the dimension of the space.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996):
    the facets of the cone over the rays seen so far, each with its zero
    set, the bitmask of the rays tight on it. It starts from the simplex
    of the first d independent rays, the pivot columns of the echelon
    form of the rays' transpose; the normal of the facet that omits one
    of them is the last row of U for the other d-1, primitive as a row
    of a unimodular matrix. Each further ray r keeps the facets with
    h . r >= 0 and joins each adjacent pair with h+ . r > 0 > h- . r in
    the primitive s+ h- - s- h+, which is tight on r. The pair is
    adjacent when its common zero set Z holds at least d-2 rays and no
    third facet's zero set contains Z.
    """
    d = len(rays[0])
    guard_facet_search(len(rays), d)
    rays = sorted(rays)
    start = echelon(list(zip(*rays)))[1]
    facets = []
    for i in start:
        others = [j for j in start if j != i]
        h = echelon(list(zip(*(rays[j] for j in others))))[0][-1][d - 1:]
        sign = 1 if vec_dot(h, rays[i]) > 0 else -1
        facets.append((tuple(sign * x for x in h),
                       sum(1 << j for j in others)))
    for i, ray in enumerate(rays):
        if i in start:
            continue
        signs = [vec_dot(h, ray) for h, _ in facets]
        kept = [(h, zero | (s == 0) << i)
                for (h, zero), s in zip(facets, signs) if s >= 0]
        for (hp, zp), sp in zip(facets, signs):
            if sp <= 0:
                continue
            for (hn, zn), sn in zip(facets, signs):
                common = zp & zn
                if (sn >= 0 or common.bit_count() < d - 2
                        or sum(common & z == common for _, z in facets) > 2):
                    continue
                h = [sp * a - sn * b for a, b in zip(hn, hp)]
                g = gcd(*h)
                kept.append((tuple(x // g for x in h), common | 1 << i))
        facets = kept
    return sorted(h for h, _ in facets)
