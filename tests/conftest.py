"""Shared fixtures: the running two-variable example used throughout.

The example pairs the monomial ideal (x^5y, x^3y^2, x^2y^5) with the
measure polynomial g = x^4y^2 + xy^5. Its fan, counts and zeta function
are known in closed form, which makes it the anchor for golden tests.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from igusa.polynomials import MonomialIdealSpec, parse_polynomial
from igusa.problem import ProblemSpec


def report_budget(label, started, limit):
    """Print one PASS/FAIL line with the time since `started` (a
    time.perf_counter() reading) and fail when it exceeds `limit` seconds."""
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed <= limit else "FAIL"
    print(f"{status} {label} ({elapsed:.2f}s of {limit:g}s budget)")
    assert elapsed <= limit, f"{label} exceeded {limit}s"


def example_ideal():
    return MonomialIdealSpec(2, [(5, 1), (3, 2), (2, 5)])


def example_measure():
    return parse_polynomial("x^4*y^2 + x*y^5", 2)


def example_spec(p):
    return ProblemSpec("ideal", 2, p, example_ideal(), example_measure())


@pytest.fixture
def ideal():
    return example_ideal()


@pytest.fixture
def measure():
    return example_measure()


def closed_measure_value(p, n, k, l, t=1):
    """Closed measure of A_{k,l}: p^(-n-k-l+2) for a single polynomial
    (t = 1) and p^(-n-(k-1)t-l+1) for a t-component mapping; the former
    is the t = 1 instance of the latter."""
    return Fraction(1, p**(n + (k - 1) * t + l - 1))


def laplace_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1)**j * m[0][j] * laplace_det([row[:j] + row[j + 1:]
                                                 for row in m[1:]])
               for j in range(len(m)))


def minor_gcd(rays):
    """The multiplicity of independent rays k_1..k_r in Z^n, counted apart
    from the Smith form: the gcd of the r x r minors of the n x r matrix
    (k_1 ... k_r), which is the index of Z k_1 + ... + Z k_r in the
    lattice points of its span."""
    return math.gcd(*(laplace_det([[ray[i] for ray in rays] for i in rows])
                      for rows in itertools.combinations(range(len(rays[0])),
                                                         len(rays))))
