"""Small exact linear algebra over the integers.

The geometry only needs integer matrices: a handful of rows in dimension
<= 5. One fraction-free forward elimination (Bareiss) serves rank and the
facet search, and every entry it makes is an integer. `cone_facets` is
the one facet search: of the cone over a Newton polyhedron, which gives
the polyhedron's facets; each candidate normal is the one primitive
integer vector orthogonal to d-1 independent rays. The Smith normal form
comes with the unimodular column transform that brings a matrix to it.
"""

import itertools
from math import comb, gcd
from operator import mul

from .errors import guard


def vec_dot(a, b):
    return sum(map(mul, a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def primitive(v):
    """Scale an integer vector by 1/gcd; zero vector stays zero."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def _eliminate(rows):
    """Fraction-free forward elimination (Bareiss 1968).

    Returns (echelon rows, pivot columns).
    Each step divides exactly by the previous pivot, so every entry stays
    an integer: after k pivots, an entry below them is the minor on the k
    pivot rows and columns plus its own row and column. So the last of r
    pivots is, up to the sign, the minor on all pivot rows and columns.
    """
    m = [list(row) for row in rows]
    pivots = []
    prev = 1
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        if not m[r][c]:
            pivot = next((i for i in range(r + 1, len(m)) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
        top, p = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(a * p - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(c)
    return m, pivots


def rank(rows):
    return len(_eliminate(rows)[1])


def _kernel_vector(echelon, pivots, free):
    """The primitive kernel vector with entry 1 at the free column `free`,
    0 at the other free columns, and pivot entries by back-substitution."""
    v = [0] * len(echelon[0])
    v[free] = 1
    # v stays an integer multiple of the solution: scale it by |pivot| / g
    # before setting the pivot entry to -s / pivot
    for row, c in reversed(list(zip(echelon, pivots))):
        s = vec_dot(row[c + 1:], v[c + 1:])
        g = gcd(s, row[c])
        v = [x * (abs(row[c]) // g) for x in v]
        v[c] = -s // g if row[c] > 0 else s // g
    return primitive(v)


def smith_form(rows):
    """Smith normal form of an integer matrix A, given by its rows.

    Returns (V, d): a unimodular integer matrix V (columns x columns) and
    the diagonal d of length min(rows, columns) with U A V = D = diag(d)
    for some unimodular U, every d_i >= 0 and d_1 | d_2 | ... (any zeros
    last). Column operations are applied to V as they are applied to A;
    the row operations are applied to A alone.
    """
    m = [list(map(int, row)) for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def add_row(dst, src, q):  # row dst += q * row src
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]

    def add_col(dst, src, q):  # column dst += q * column src
        for mat in (m, v):
            for row in mat:
                row[dst] += q * row[src]

    def swap_cols(a, b):
        for mat in (m, v):
            for row in mat:
                row[a], row[b] = row[b], row[a]

    diag = []
    for t in range(min(nr, nc)):
        entries = [(abs(m[i][j]), i, j) for i in range(t, nr)
                   for j in range(t, nc) if m[i][j]]
        if not entries:
            diag += [0] * (min(nr, nc) - t)
            break
        _, i0, j0 = min(entries)
        m[t], m[i0] = m[i0], m[t]
        swap_cols(t, j0)
        while True:
            # Euclid steps on column t and row t; a nonzero remainder is
            # smaller than the pivot and takes its place
            clean = True
            for i in range(t + 1, nr):
                if m[i][t]:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        clean = False
            for j in range(t + 1, nc):
                if m[t][j]:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j]:
                        swap_cols(t, j)
                        clean = False
            if not clean:
                continue
            # the pivot must divide the rest; if not, pull an offending
            # row into row t and clear again with a smaller pivot
            bad = next((i for i in range(t + 1, nr)
                        if any(x % m[t][t] for x in m[i][t + 1:])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        diag.append(abs(m[t][t]))
    return v, diag


def guard_facet_search(count, d):
    """Refuse, before it starts, a facet search over `count` rays in R^d:
    C(count, d - 1) ray subsets, each weighed as the d^3 steps of its
    elimination."""
    guard(comb(count, d - 1) * d**3, "facet search")


def cone_facets(rays):
    """Inward facet normals of a full-dimensional closed cone: the sorted
    primitive h with h . r >= 0 for every ray and d-1 independent rays
    tight, d = the dimension of the space.

    Each (d-1)-subset of the rays is eliminated once, after the size
    guard has weighed each as the d^3 steps of its (d-1) x d Bareiss
    elimination; one of rank d-1 has a single free column, and its
    kernel vector is the candidate, on which the d-1 rays are tight. A
    candidate that supports the cone is a facet normal. The sum of the
    rays lies in the interior, where every facet normal is positive, so
    it orients the candidates; many ray subsets span the same
    hyperplane, and each hyperplane is tested once.
    """
    d = len(rays[0])
    guard_facet_search(len(rays), d)
    interior = [sum(col) for col in zip(*rays)]
    supporting = {}
    for sub in itertools.combinations(rays, d - 1):
        echelon, pivots = _eliminate(sub)
        if len(pivots) < d - 1:
            continue
        free, = set(range(d)).difference(pivots)
        h = _kernel_vector(echelon, pivots, free)
        if vec_dot(h, interior) < 0:
            h = tuple(-x for x in h)
        if h not in supporting:
            supporting[h] = all(vec_dot(h, r) >= 0 for r in rays)
    return sorted(h for h, ok in supporting.items() if ok)
