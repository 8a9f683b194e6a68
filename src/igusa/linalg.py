"""Small exact linear algebra helpers (rationals and integer lattices).

Everything here works on tiny matrices (a handful of rows in dimension
<= 4), so plain Fraction Gaussian elimination is fast enough and fully
auditable. Integer work stays in integers: determinants by Bareiss
elimination, normals of hyperplanes as maximal minors, and the Smith
normal form with the unimodular transforms that bring a matrix to it.
"""

from fractions import Fraction
from math import gcd


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def primitive(v):
    """Scale an integer vector by 1/gcd; zero vector stays zero."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def _echelon(rows):
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


def rank(rows):
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def kernel_basis(rows):
    """Basis of {x : M x = 0} as primitive integer vectors.

    `rows` are the rows of M; the kernel lives in the column space side.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append(primitive(tuple(int(x * denom) for x in v)))
    return basis


def solve_columns(columns, target):
    """Solve sum_j lam_j * columns[j] = target exactly over Q.

    Returns the list of Fractions lam, or None when the system is
    inconsistent. Columns must be linearly independent.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(nrows)]
    rref, pivots = _echelon(aug)
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) != ncols:
        raise ValueError("columns are linearly dependent")
    lam = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        lam[c] = rref[r][ncols]
    return lam


def smith_form(rows):
    """Smith normal form of an integer matrix A, given by its rows.

    Returns (U, V, d): unimodular integer matrices U (rows x rows) and
    V (columns x columns) and the diagonal d of length min(rows, columns)
    with U A V = D = diag(d), every d_i >= 0 and d_1 | d_2 | ... (any
    zeros last). Row operations are applied to U and column operations
    to V as they are applied to A.
    """
    m = [list(map(int, row)) for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def add_row(dst, src, q):  # row dst += q * row src
        for mat in (m, u):
            mat[dst] = [a + q * b for a, b in zip(mat[dst], mat[src])]

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
        u[t], u[i0] = u[i0], u[t]
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
                        u[t], u[i] = u[i], u[t]
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
        if m[t][t] < 0:
            add_row(t, t, -2)  # negate row t
        diag.append(m[t][t])
    return u, v, diag


def smith_invariant_factors(rows):
    """Nonzero diagonal entries of the Smith normal form of an integer matrix."""
    return [d for d in smith_form(rows)[2] if d]


def det(rows):
    """Determinant of a square integer matrix (Bareiss elimination, which
    divides exactly at every step)."""
    m = [list(row) for row in rows]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def normal_vector(vectors):
    """The signed maximal minors of n-1 integer vectors in Z^n: a vector
    orthogonal to all of them, or None when their rank is below n-1."""
    n = len(vectors) + 1
    minors = tuple((-1)**i * det([row[:i] + row[i + 1:] for row in vectors])
                   for i in range(n))
    return minors if any(minors) else None
