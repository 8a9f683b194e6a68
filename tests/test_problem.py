"""Problem-file parsing and spec validation."""

import math

import pytest

from igusa.errors import PolynomialParseError, SizeGuardError
from igusa.polynomials import PolynomialMapping, parse_polynomial
from igusa.problem import (PRIME_BASES, PSI_13, ProblemSpec, is_prime,
                           parse_problem_file, parse_problem_text,
                           strong_probable_prime)

from conftest import example_spec

EXAMPLE = """\
# worked example
mode=ideal
n=2
p=13
generators=x^5*y, x^3*y^2, x^2*y^5
g=x^4*y^2 + x*y^5
"""


def assert_same_ideal_spec(spec, reference):
    assert (spec.mode, spec.n, spec.p) == \
        (reference.mode, reference.n, reference.p)
    assert spec.fside.generators == reference.fside.generators
    assert spec.g == reference.g


class TestParsing:
    def test_example_file(self, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_text(EXAMPLE)
        assert_same_ideal_spec(parse_problem_file(path), example_spec(13))

    def test_fixture_file(self):
        import pathlib
        fixture = pathlib.Path(__file__).parent / "fixtures" / \
            "example_ideal.txt"
        assert_same_ideal_spec(parse_problem_file(fixture), example_spec(13))

    def test_g_defaults_to_trivial(self):
        spec = parse_problem_text("mode=single\nn=2\np=5\nf=x + y\n")
        assert spec.g is None

    def test_explicit_trivial(self):
        spec = parse_problem_text("mode=single\nn=2\np=5\nf=x + y\ng=trivial\n")
        assert spec.g is None

    def test_mapping_comma_list(self):
        spec = parse_problem_text(
            "mode=mapping\nn=3\np=5\nf=x + z, y - z\ng=x + y + z\n")
        assert isinstance(spec.fside, PolynomialMapping)
        assert spec.t_count == 2

    def test_comments_and_blank_lines(self):
        spec = parse_problem_text(
            "# header\n\nmode=single # trailing\nn=2\np=5\nf=x + y\n")
        assert spec.mode == "single"

    @pytest.mark.parametrize("text,fragment", [
        ("mode=single\nn=2\nf=x\n", "missing key 'p'"),
        ("mode=what\nn=2\np=5\nf=x\n", "unknown mode"),
        ("mode=single\nn=two\np=5\nf=x\n", "must be integers"),
        ("mode=single\nn=2\np=5\nf=x + y\nn=3\n", "duplicate key"),
        ("mode=single\nn=2\np=5\nf=x + y\nbogus=1\n", "unknown keys"),
        ("mode=single\nn=2\np=5\nf=x + y\njunk line\n", "key=value"),
        ("mode=ideal\nn=2\np=5\ng=x*y\n", "needs generators"),
        ("mode=single\nn=2\np=5\n", "needs f"),
        ("mode=single\nn=2\np=5\nf=x, y\n", "exactly one f"),
        ("mode=single\nn=2\np=4\nf=x + y\n", "not prime"),
        ("mode=single\nn=2\np=5\nf=x + 1\n", "f(0)"),
        ("mode=single\nn=2\np=5\nf=x\ng=x*y + 1\n", "g(0)"),
        ("mode=single\nn=2\np=5\nf=x + %\n", "" ),
        ("mode=single\nn=2\np=5\nf=x - x\n", "f is zero"),
        ("mode=single\nn=2\np=5\nf=x\ng=x - x\n", "g is zero"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(PolynomialParseError) as exc:
            parse_problem_text(text)
        assert fragment in str(exc.value)


class TestSpecValidation:
    def test_pair_needs_two_variables(self):
        f = parse_polynomial("x", 1)
        g = parse_polynomial("x^2", 1)
        with pytest.raises(ValueError):
            ProblemSpec("single", 1, 5, f, g)

    def test_mapping_pair_needs_room(self):
        ff = PolynomialMapping([parse_polynomial("x", 2),
                                parse_polynomial("y", 2)])
        g = parse_polynomial("x*y", 2)
        with pytest.raises(ValueError):
            ProblemSpec("mapping", 2, 5, ff, g)

    def test_t_count(self):
        assert example_spec(13).t_count == 1
        ff = PolynomialMapping([parse_polynomial("x", 3),
                                parse_polynomial("y", 3)])
        assert ProblemSpec("mapping", 3, 5, ff, None).t_count == 2


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        for m in range(10**5):
            divisor = next((d for d in range(2, math.isqrt(m) + 1)
                            if m % d == 0), None)
            assert is_prime(m) == (m >= 2 and divisor is None), m

    @pytest.mark.parametrize("factors, passed", [
        ((151, 751, 28351), 4),
        ((149491, 747451, 34233211), 11),
        # psi_12: the first 12 prime bases are not enough
        ((399165290221, 798330580441), 12)])
    def test_strong_pseudoprimes(self, factors, passed):
        # composite, yet a strong probable prime to the first `passed` bases
        m = math.prod(factors)
        rounds = [strong_probable_prime(m, a) for a in PRIME_BASES]
        assert rounds[:passed] == [True] * passed
        assert not rounds[passed]
        assert not is_prime(m)

    def test_large_primes(self):
        assert is_prime(10**18 + 9)
        assert is_prime(10**19 + 51)
        assert not is_prime(10**18 + 11)
        # the largest prime the test decides
        assert is_prime(PSI_13 - 168)
        assert not any(is_prime(PSI_13 - k) for k in range(2, 168, 2))

    def test_refused_from_psi_13(self):
        with pytest.raises(SizeGuardError, match=f"testing p = {PSI_13} for "
                                                 "primality"):
            is_prime(PSI_13)
