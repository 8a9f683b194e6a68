"""Small exact linear algebra helpers (rationals and integer lattices).

Everything here works on tiny matrices (a handful of rows in dimension
<= 4), so plain Fraction Gaussian elimination and a textbook Smith normal
form are both fast enough and fully auditable.
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


def smith_invariant_factors(rows):
    """Nonzero diagonal entries of the Smith normal form of an integer matrix."""
    m = [list(map(int, row)) for row in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    factors = []
    top = 0
    left = 0
    while top < nr and left < nc:
        # find a nonzero entry to move to the corner
        pos = None
        for i in range(top, nr):
            for j in range(left, nc):
                if m[i][j] != 0:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            break
        i0, j0 = pos
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[left], row[j0] = row[j0], row[left]
        while True:
            # clear the column with Euclid steps
            dirty = False
            for i in range(top + 1, nr):
                if m[i][left] != 0:
                    q = m[i][left] // m[top][left]
                    for j in range(left, nc):
                        m[i][j] -= q * m[top][j]
                    if m[i][left] != 0:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
            for j in range(left + 1, nc):
                if m[top][j] != 0:
                    q = m[top][j] // m[top][left]
                    for i in range(top, nr):
                        m[i][j] -= q * m[i][left]
                    if m[top][j] != 0:
                        for i in range(top, nr):
                            m[i][left], m[i][j] = m[i][j], m[i][left]
                        dirty = True
            if not dirty:
                break
        factors.append(abs(m[top][left]))
        top += 1
        left += 1
    # the corner elimination gives a diagonal form; restore the
    # divisibility chain d_1 | d_2 | ... with pairwise gcd/lcm swaps
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return factors
