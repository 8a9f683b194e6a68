"""Command-line interface: exit codes, rendering, JSON round-trips."""

import io
import itertools
import json
import pathlib
import sys
import time
from fractions import Fraction

import pytest

from igusa import cli, counting, problem, zeta
from igusa.errors import InternalConsistencyError, PoleEvaluationError
from igusa.problem import PSI_13, compute, parse_problem_file
from igusa.ratfun import Poly, RationalFunction, binomial

from test_pipeline import count_calls

FIXTURE = str(pathlib.Path(__file__).parent / "fixtures" / "example_ideal.txt")

SINGLE = """\
mode=single
n=2
p=2
f=x + y
"""


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def write(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCompute:
    def test_example(self):
        code, text = run(["compute", FIXTURE])
        assert code == 0
        assert "delta_4" in text
        assert "Z(s) =" in text
        assert "13^(11s+12)-1" in text
        assert "candidate poles" in text

    def test_json_round_trip_is_byte_identical(self):
        code, text = run(["compute", FIXTURE])
        json_code, payload = run(["compute", FIXTURE, "--json"])
        assert code == json_code == 0
        doc = json.loads(payload)
        assert cli.render_compute(doc) == text

    def test_degenerate_prime_refused(self, tmp_path):
        path = write(tmp_path, """\
mode=ideal
n=2
p=3
generators=x^5*y, x^3*y^2, x^2*y^5
g=x^4*y^2 + x*y^5
""")
        code, _ = run(["compute", path])
        assert code == 2

    def test_override_watermarks(self, tmp_path):
        path = write(tmp_path, """\
mode=ideal
n=2
p=3
generators=x^5*y, x^3*y^2, x^2*y^5
g=x^4*y^2 + x*y^5
""")
        code, text = run(["compute", path, "--override-degenerate"])
        assert code == 0
        assert "unverified hypothesis" in text

    def test_trivial_measure_ideal(self, tmp_path):
        path = write(tmp_path, """\
mode=ideal
n=2
p=5
generators=x^5*y, x^3*y^2, x^2*y^5
""")
        code, text = run(["compute", path])
        assert code == 0
        assert "measure: trivial" in text

    def test_mapping_pair_with_rational_numerator(self, tmp_path):
        # p + 1 = 4 does not absorb the denominator 9 of Z's coefficients
        text = """\
mode=mapping
n=3
p=3
f=x + z, y - z
g=x + y + z + x*y*z
"""
        path = write(tmp_path, text)
        code, payload = run(["compute", path, "--json"])
        assert code == 0
        zf = json.loads(payload)["zeta_factored"]
        den = Poly.const(zf["constant_divisor"])
        for a, b in zf["factors"]:
            den = den * binomial(a, b, 3)
        comp = compute(parse_problem_file(path))
        assert RationalFunction(Poly([int(c) for c in zf["numerator"]]), den) == comp.zeta

    def test_repeated_pole_keeps_the_factored_view(self, tmp_path):
        # Z = 1 / (2 - t)^2: the double pole is listed twice
        path = write(tmp_path, "mode=ideal\nn=2\np=2\ngenerators=x*y\n")
        code, payload = run(["compute", path, "--json"])
        assert code == 0
        zf = json.loads(payload)["zeta_factored"]
        assert zf["factors"] == [[1, 1], [1, 1]]
        den = Poly.const(zf["constant_divisor"])
        for a, b in zf["factors"]:
            den = den * binomial(a, b, 2)
        assert RationalFunction(Poly([int(c) for c in zf["numerator"]]),
                                den) == RationalFunction(Poly([1]),
                                                         Poly([4, -4, 1]))
        assert "       / (3(2^1-t)(2^1-t))\n" in run(["compute", path])[1]

    def test_internal_error_has_its_own_exit_code(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalConsistencyError("weight is not linear on the piece")

        monkeypatch.setattr(zeta, "assemble", broken)
        code, text = run(["compute", FIXTURE])
        assert code == cli.EXIT_INTERNAL == 5
        assert text == ""
        assert capsys.readouterr().err == \
            "internal error: weight is not linear on the piece\n"

    @pytest.mark.parametrize("error", [ValueError("bad value"),
                                       ZeroDivisionError("division by zero")])
    def test_any_escaping_exception_is_internal(self, monkeypatch, capsys,
                                                error):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(zeta, "assemble", broken)
        code, text = run(["compute", FIXTURE])
        assert code == cli.EXIT_INTERNAL == 5
        assert text == ""
        assert capsys.readouterr().err == \
            f"internal error: {type(error).__name__}: {error}\n"

    def test_other_package_error_is_internal(self, monkeypatch, capsys):
        # exit 1 is for parse and I/O errors only
        def broken(*args, **kwargs):
            raise PoleEvaluationError("evaluation at pole t = 1/5")

        monkeypatch.setattr(problem, "compute", broken)
        code, text = run(["compute", FIXTURE])
        assert code == cli.EXIT_INTERNAL == 5
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("internal error: PoleEvaluationError")
        assert err.count("\n") == 1

    def test_malformed_file(self, tmp_path):
        path = write(tmp_path, "mode=single\nn=2\np=5\nf=x + %\n")
        code, _ = run(["compute", path])
        assert code == 1

    def test_missing_file(self):
        code, _ = run(["compute", "/no/such/file.txt"])
        assert code == 1

    def test_non_ascii_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "problem.txt"
        path.write_bytes("mode=single\nn=2\np=5\nf=x + y # \u00e9\n"
                         .encode("utf-8"))
        code, out = run(["compute", str(path)])
        assert code == cli.EXIT_PARSE == 1
        assert out == ""
        assert capsys.readouterr().err.startswith(
            "parse error: 'ascii' codec can't decode")

    @pytest.mark.parametrize("text, message", [
        ("mode=mapping\nn=2\np=3\nf=x + y, x*y - 1\n",
         "every component must vanish at the origin"),
        ("mode=ideal\nn=2\np=3\ngenerators=1, x\n",
         "the zero exponent would make the ideal improper")])
    def test_refused_f_side_is_a_parse_error(self, tmp_path, capsys, text,
                                             message):
        code, out = run(["compute", write(tmp_path, text)])
        assert code == cli.EXIT_PARSE == 1
        assert out == ""
        assert capsys.readouterr().err == \
            f"parse error: {message} (at position 0)\n"

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        # 300 levels would overflow the parser's stack
        path = write(tmp_path, "mode=single\nn=2\np=5\nf="
                               + 300 * "(" + "x + y" + 300 * ")" + "\n")
        code, out = run(["compute", path])
        assert code == cli.EXIT_PARSE == 1
        assert out == ""
        assert capsys.readouterr().err == \
            "parse error: parentheses nested deeper than 100 (at position 100)\n"

    def test_face_enumeration_size_guard(self, tmp_path, capsys):
        # x1 + x2 in n = 30 has 3 * 2^29 faces, which the fan of check
        # needs
        path = write(tmp_path, "mode=single\nn=30\np=2\nf=x1 + x2\n")
        code, out = run(["check", path])
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err.startswith(
            "size guard: face enumeration")

    def test_face_guard_weighs_each_face(self, tmp_path, capsys):
        # x1 in n = 20 has 2^20 faces and 20 facets; each face costs its
        # 20 intersections and a 20 x 20 rank, 2^20 * 420 steps in all
        path = write(tmp_path, "mode=single\nn=20\np=2\nf=x1\n")
        started = time.perf_counter()
        code, out = run(["check", path])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err == ("size guard: face enumeration "
                                           "needs 440401920 steps, over the "
                                           "limit 100000000\n")
        # its 2^10 faces in n = 10 are still enumerated
        path = write(tmp_path, "mode=single\nn=10\np=2\nf=x1\n")
        code, out = run(["check", path])
        assert code == cli.EXIT_OK
        code, out = run(["poles", path])
        assert code == cli.EXIT_OK
        assert out == ("candidate poles (real parts):\n  -1       from ray "
                       f"{(1,) + (0,) * 9}; L-factor\n")

    @pytest.mark.parametrize("n, f, rows", [
        (20, "x1", [("-1", "ray {}; L-factor".format((1,) + (0,) * 19))]),
        (30, "x1 + x2", [("-2", "ray {}".format((1, 1) + (0,) * 28)),
                         ("-1", "L-factor")]),
    ])
    def test_poles_reads_no_faces(self, tmp_path, capsys, n, f, rows):
        # the face guard refuses the fan of these inputs, but poles reads
        # only the facet normals: one, beside the axes of offset 0
        path = write(tmp_path, f"mode=single\nn={n}\np=2\nf={f}\n")
        started = time.perf_counter()
        code, out = run(["poles", path])
        assert time.perf_counter() - started < 0.1
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert out == "candidate poles (real parts):\n" + "".join(
            f"  {value:<8} from {source}\n" for value, source in rows)

    def test_facet_search_size_guard(self, tmp_path, capsys):
        # the 286 monomials of degree 10 in n = 4 and the 4 axes are the
        # rays of the cone over Gamma: C(290, 4) subsets of 4 of them,
        # each a 4 x 5 elimination weighed as 5^3 steps
        terms = ("*".join(f"x{i}" for i in m) for m in
                 itertools.combinations_with_replacement(range(1, 5), 10))
        path = write(tmp_path, "mode=single\nn=4\np=2\nf="
                               + " + ".join(terms) + "\n")
        started = time.perf_counter()
        code, out = run(["poles", path])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err == ("size guard: facet search needs "
                                           "36080205000 steps, over the limit "
                                           "100000000\n")

    def test_facet_guard_weighs_each_elimination(self, tmp_path, capsys):
        # x1 in n = 160: the cone over Gamma has 161 rays in R^161, so
        # C(161, 160) subsets, each a 160 x 161 elimination of 161^3 steps
        path = write(tmp_path, "mode=single\nn=160\np=2\nf=x1\n")
        started = time.perf_counter()
        code, out = run(["poles", path])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err == ("size guard: facet search needs "
                                           "671898241 steps, over the limit "
                                           "100000000\n")

    def test_wide_problem_is_refused_before_it_is_parsed(self, tmp_path,
                                                         capsys):
        # every facet search in n variables weighs at least C(n+1, n)
        # eliminations of (n+1)^3 steps, refused before f is parsed into
        # exponent tuples of length 10^6
        path = write(tmp_path, "mode=single\nn=1000000\np=2\nf=x1\n")
        started = time.perf_counter()
        code, out = run(["poles", path])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err == (
            "size guard: facet search needs 1000004000006000004000001 "
            "steps, over the limit 100000000\n")

    def test_power_expansion_size_guard(self, tmp_path, capsys):
        # the square-and-multiply chain of (x+y+z)^240 weighs 184,988,538
        # steps, refused before its first product; the expansion took 42 s
        path = write(tmp_path, "mode=single\nn=3\np=5\nf=(x+y+z)^240\n")
        started = time.perf_counter()
        code, out = run(["poles", path])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err == ("size guard: power expansion "
                                           "needs 184988538 steps, over the "
                                           "limit 100000000\n")

    def test_parallelepiped_size_guard(self, tmp_path, capsys):
        # a simplicial piece of multiplicity 100460333 > ENUMERATION_LIMIT
        path = write(tmp_path, "mode=single\nn=3\np=2\n"
                               "f=x^10007 + y^10009 + z^10037\n")
        code, out = run(["compute", path])
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err.startswith("size guard: parallelepiped")

    @pytest.mark.parametrize("flags", [["--json"], []])
    def test_compute_too_long_to_print_is_a_size_guard(self, tmp_path,
                                                       capsys, flags):
        limit = sys.get_int_max_str_digits()
        if limit == 0 or limit >= 14444:
            pytest.skip("14444 digits, the longest integer, print under "
                        "this limit")
        # g = x^1200 y^1200 puts integers of up to 14444 digits into S and Z
        path = write(tmp_path, "mode=single\nn=2\np=101\nf=x^2 + y^3\n"
                               "g=x^1200*y^1200\n")
        code, text = run(["compute", path, *flags])
        assert code == cli.EXIT_SIZE == 3
        assert text == ""
        assert capsys.readouterr().err.startswith("size guard: printing")

    @pytest.mark.parametrize("command", ["compute", "check", "poles"])
    def test_huge_prime_size_guard(self, tmp_path, capsys, command):
        # from psi_13 on, Miller-Rabin to the first 13 primes is not exact
        path = write(tmp_path, f"mode=single\nn=2\np={PSI_13}\nf=x + y\n")
        code, out = run([command, path])
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err.startswith(
            f"size guard: testing p = {PSI_13} for primality")

    @pytest.mark.parametrize("command, code", [
        ("compute", cli.EXIT_SIZE), ("check", cli.EXIT_SIZE), ("poles", 0)])
    def test_huge_prime_meets_the_torus_guard(self, tmp_path, capsys,
                                              command, code):
        # p = 10^18 + 9 is prime, so only the commands that walk the torus
        # (10^36 points) are refused
        path = write(tmp_path, "mode=single\nn=2\np=1000000000000000009\n"
                               "f=x + y\n")
        assert run([command, path])[0] == code
        if code:
            assert capsys.readouterr().err.startswith("size guard: the torus")

    def test_huge_swept_prime_size_guard(self, capsys):
        code, out = run(["check", FIXTURE,
                         "--sweep", "5,10000000000000000051"])
        assert code == cli.EXIT_SIZE == 3
        assert out == ""
        assert capsys.readouterr().err.startswith("size guard: the torus")


class TestCheck:
    def test_clean_prime(self):
        code, text = run(["check", FIXTURE])
        assert code == 0
        assert "p=13: ok" in text

    def test_sweep_reports_each_prime(self):
        code, text = run(["check", FIXTURE, "--sweep", "2,3,5"])
        assert code == 2
        assert "p=2: ok" in text
        assert "p=3: DEGENERATE" in text
        assert "p=5: ok" in text
        assert "witness" in text

    def test_repeated_prime_is_checked_once(self, monkeypatch):
        calls = count_calls(monkeypatch, counting, "_torus")
        once = run(["check", FIXTURE, "--sweep", "5", "--json"])
        sweeps = len(calls)
        calls.clear()
        assert run(["check", FIXTURE, "--sweep", "5,5", "--json"]) == once
        assert len(calls) == sweeps > 0
        assert [r["p"] for r in json.loads(once[1])["results"]] == [5]

    @pytest.mark.parametrize("sweep, message", [
        ("abc", "invalid literal for int() with base 10: 'abc'"),
        ("4", "p = 4 is not prime"), ("1", "p = 1 is not prime")])
    def test_bad_sweep_is_a_parse_error(self, capsys, sweep, message):
        code, text = run(["check", FIXTURE, "--sweep", sweep])
        assert code == cli.EXIT_PARSE == 1
        assert text == ""
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_json_round_trip(self):
        code, text = run(["check", FIXTURE, "--sweep", "3,5"])
        json_code, payload = run(["check", FIXTURE, "--sweep", "3,5", "--json"])
        assert code == json_code == 2
        assert cli.render_check(json.loads(payload)) == text


class TestOracle:
    def test_contained(self, tmp_path):
        path = write(tmp_path, SINGLE)
        code, text = run(["oracle", path, "--level", "6"])
        assert code == 0
        assert "contained" in text

    def test_s0_and_level_flags(self, tmp_path):
        path = write(tmp_path, SINGLE)
        code, text = run(["oracle", path, "--level", "5", "--s0", "2"])
        assert code == 0
        assert "s0=2 level=5" in text

    def test_corrupt_hook_trips_violation(self, tmp_path, monkeypatch):
        evaluate = RationalFunction.evaluate
        monkeypatch.setattr(RationalFunction, "evaluate",
                            lambda self, tval: evaluate(self, tval)
                            + Fraction(1, 2))
        path = write(tmp_path, SINGLE)
        code, text = run(["oracle", path, "--level", "6"])
        assert code == 4
        assert "bracket violation" in text

    @pytest.mark.parametrize("flag", ["--level", "--s0"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_flags_refused(self, flag, value, capsys):
        code, text = run(["oracle", FIXTURE, flag, value])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize("command", ["compute", "check", "poles"])
    def test_flags_ignored_by_other_commands(self, command):
        assert run([command, FIXTURE, "--level", "0", "--s0", "-1"])[0] == 0

    def test_size_guard(self, tmp_path):
        path = write(tmp_path, "mode=single\nn=2\np=101\nf=x + y\n")
        code, _ = run(["oracle", path, "--level", "4"])
        assert code == 3

    def test_report_too_long_to_print_is_a_size_guard(self, tmp_path,
                                                      capsys):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("integer string conversion is unlimited")
        # t = 2^(-s0) has a denominator of more than `limit` digits
        path = write(tmp_path, "mode=single\nn=1\np=2\nf=x\n")
        code, text = run(["oracle", path, "--level", "2",
                          "--s0", str(4 * limit)])
        assert code == cli.EXIT_SIZE == 3
        assert text == ""
        assert capsys.readouterr().err.startswith("size guard: printing")

    @pytest.mark.parametrize("level, figure", [
        ("4", "815730721 steps"),  # 13^8 residues
        ("2000", "steps"),  # 13^4000: 4456 digits, too long for str()
        ("10000000", "a 22278868-digit number of steps")])
    def test_truncation_guard_is_prompt(self, level, figure, capsys):
        # the guard compares sizes before it builds 13^(2 level) and names
        # a figure too long to print by its digits
        started = time.perf_counter()
        code, text = run(["oracle", FIXTURE, "--level", level])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("size guard: truncated integration needs ")
        assert err.endswith(f"{figure}, over the limit 100000000\n")

    def test_unprintable_t_is_refused_before_evaluation(self, capsys):
        limit = sys.get_int_max_str_digits()
        if limit == 0 or limit >= 22279:
            pytest.skip("13^20000, 22279 digits, prints under this limit")
        # t = 13^-20000 is refused before Z is evaluated or the census
        # weighed at it
        started = time.perf_counter()
        code, text = run(["oracle", FIXTURE, "--level", "2", "--s0", "20000"])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert text == ""
        assert capsys.readouterr().err.startswith("size guard: printing")

    def test_huge_s0_is_refused_unbuilt(self, capsys):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("integer string conversion is unlimited")
        # 13^(10^9) has over 10^9 digits: refused by their count, before
        # it is built
        started = time.perf_counter()
        code, text = run(["oracle", FIXTURE, "--level", "2",
                          "--s0", "1000000000"])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_SIZE == 3
        assert text == ""
        assert capsys.readouterr().err == (
            "size guard: printing the report needs an integer of more than "
            f"{limit} digits\n")

    def test_override_watermarks(self, tmp_path):
        # x^3 + y^3 is degenerate at p = 3: its formula value is uncertified
        path = write(tmp_path, "mode=single\nn=2\np=3\nf=x^3 + y^3\n")
        argv = ["oracle", path, "--level", "1", "--override-degenerate"]
        code, text = run(argv)
        json_code, payload = run(argv + ["--json"])
        assert code == json_code == 0
        doc = json.loads(payload)
        assert doc["notes"] == [cli.DEGENERACY_NOTE]
        assert f"note: {cli.DEGENERACY_NOTE}\nformula value:" in text
        assert cli.render_oracle(doc) == text
        assert "notes" not in json.loads(run(["oracle", FIXTURE, "--level",
                                              "1", "--json"])[1])

    def test_json_round_trip(self, tmp_path):
        path = write(tmp_path, SINGLE)
        code, text = run(["oracle", path, "--level", "4"])
        json_code, payload = run(["oracle", path, "--level", "4", "--json"])
        assert code == json_code == 0
        assert cli.render_oracle(json.loads(payload)) == text


class TestArguments:
    @pytest.mark.parametrize("argv", [["oracle", FIXTURE, "--level", "abc"],
                                      ["frobnicate", FIXTURE]])
    def test_malformed_arguments_are_parse_errors(self, argv, capsys):
        # argparse's own code, 2, is the degeneracy code
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: igusa")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: igusa")


class TestPoles:
    def test_example_values(self):
        code, text = run(["poles", FIXTURE])
        assert code == 0
        for value in ("-1", "-12/11", "-8/5", "-11/7", "-3"):
            assert value in text

    def test_json_round_trip(self):
        code, text = run(["poles", FIXTURE])
        json_code, payload = run(["poles", FIXTURE, "--json"])
        assert code == json_code == 0
        assert cli.render_poles(json.loads(payload)) == text
