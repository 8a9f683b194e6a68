"""Shared fixtures: the running two-variable example used throughout.

The example pairs the monomial ideal (x^5y, x^3y^2, x^2y^5) with the
measure polynomial g = x^4y^2 + xy^5. Its fan, counts and zeta function
are known in closed form, which makes it the anchor for golden tests.
"""

import time

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
