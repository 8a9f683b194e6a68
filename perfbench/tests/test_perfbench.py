"""Tests of the benchmark itself: a smoke run of each workload, and a
negative control for each reference check.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
CLI = run.import_program()


def run_workload(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--seed", "1", "--seconds", "0", "--smoke", *args])
    return code, json.loads(out.getvalue().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def check_result(self, result, metric_group):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for metric in SPEC[metric_group]:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[metric_group]})

    def test_each_workload(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run_workload("--workload", workload)
                self.assertEqual(code, 0)
                self.check_result(result, "end_to_end")

    def test_each_workload_traced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run_workload("--workload", workload, "--trace", "1")
                self.assertEqual(code, 0)
                self.check_result(result, "per_layer")

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            texts = [[pr.text() for pr in workloads.build(workload, 7)] for _ in range(2)]
            self.assertEqual(texts[0], texts[1])
            self.assertNotEqual(texts[0], [pr.text() for pr in workloads.build(workload, 8)])


def find(workload, command, kind=None, name=None):
    for pr in workloads.build(workload, 1, smoke=True):
        if pr.command == command and (kind is None or pr.kind == kind) \
                and (name is None or pr.name.startswith(name)):
            return pr
    raise LookupError((workload, command, kind, name))


def answer(pr):
    """(doc, exit code) of the program on one problem."""
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".work") as tmp:
        path, = workloads.write_problems([pr], tmp)
        _, _, code, text, error = run.run_op(CLI, pr.argv(path))
    assert error is None, error
    return json.loads(text), code


def only(ref, keep):
    """The reference with every closed-form check but `keep` switched off."""
    ref = copy.copy(ref)
    for attr in ("zeta", "orders"):
        if attr != keep:
            setattr(ref, attr, None)
    if keep != "g_integral":
        ref.problem = dataclasses.replace(ref.problem, g_integral=None)
    return ref


def bump(coeffs, i=0, by=1):
    coeffs = list(coeffs)
    coeffs[i] = str(int(coeffs[i]) + by)
    return coeffs


class NegativeControls(unittest.TestCase):
    """Each reference accepts the program's answer and rejects a perturbed one."""

    def assert_rejected(self, ref, doc, code=0):
        with self.assertRaises(reference.Mismatch):
            ref.check(doc, code)

    def controls(self, ref, doc, code, perturbed):
        ref.check(doc, code)  # the unperturbed answer passes
        bad = copy.deepcopy(doc)
        perturbed(bad)
        self.assert_rejected(ref, bad, code)

    def test_homogeneous_closed_form(self):
        pr = find("torus", "compute", "homogeneous", "x^2+y^2+z^2")
        doc, code = answer(pr)
        ref = only(reference.Reference(pr), "zeta")
        self.controls(ref, doc, code,
                      lambda d: d["zeta"].update(num=bump(d["zeta"]["num"])))

    def test_fixture_closed_form(self):
        pr = find("assembly", "compute", "fixture")
        doc, code = answer(pr)
        ref = only(reference.Reference(pr), "zeta")
        self.controls(ref, doc, code,
                      lambda d: d["zeta"].update(den=bump(d["zeta"]["den"], -1)))

    def test_fixture_form_refuses_other_primes(self):
        for p in (2, 5, 11, 101):
            with self.assertRaises(reference.ConstructionError):
                reference.fixture_zeta(p)

    def test_taylor_coefficients(self):
        pr = find("assembly", "compute", name="x^3+y^4")
        doc, code = answer(pr)
        ref = only(reference.Reference(pr), "orders")
        self.assertGreaterEqual(len(ref.orders), 2)

        def perturb(d):  # Z + t^3 (1 - t) / (1 - t) changes one coefficient
            num = [int(c) for c in d["zeta"]["num"]]
            den = [int(c) for c in d["zeta"]["den"]]
            d["zeta"]["num"] = [str(c) for c in reference.padd(num, [0, 0, 0] + den)]
        self.controls(ref, doc, code, perturb)

    def test_value_at_one(self):
        pr = find("torus", "compute", name="x^2+y^3;g=xy+y^2")
        doc, code = answer(pr)
        ref = only(reference.Reference(pr), "g_integral")
        self.assertEqual(pr.g_integral, Fraction(7, 8) ** 2)

        def perturb(d):  # 2Z
            d["zeta"]["num"] = [str(2 * int(c)) for c in d["zeta"]["num"]]
        self.controls(ref, doc, code, perturb)

    def test_poles(self):
        for name in ("staircase", "ideal3"):
            with self.subTest(name=name):
                pr = find("geometry", "poles", name=name)
                doc, code = answer(pr)
                ref = reference.Reference(pr)
                self.controls(ref, doc, code, lambda d: d["poles"].pop())
                self.controls(ref, doc, code, lambda d: d["poles"][0].update(
                    value=str(Fraction(d["poles"][0]["value"]) - 1)))

    def test_oracle(self):
        pr = find("oracle", "oracle")
        doc, code = answer(pr)
        ref = reference.Reference(pr)

        def shift_value(d):
            d["formula_value"] = str(Fraction(d["formula_value"]) + Fraction(1, 10**9))

        def empty_bracket(d):
            d["bracket"]["hi"] = d["bracket"]["lo"]

        def exclude(d):
            d["bracket"]["lo"] = str(Fraction(d["formula_value"]) + 1)
            d["bracket"]["hi"] = str(Fraction(d["formula_value"]) + 2)

        for perturbed in (shift_value, empty_bracket, exclude):
            with self.subTest(perturbed=perturbed.__name__):
                self.controls(ref, doc, code, perturbed)

    def test_check_verdicts(self):
        pr = find("torus", "check", name="x^3+y^3+z^3")
        doc, code = answer(pr)
        ref = reference.Reference(pr)
        self.assertEqual(code, 2)  # p = 3 divides every exponent

        def flip(d):
            d["results"][1]["ok"] = not d["results"][1]["ok"]

        def move_witness(d):  # off the torus
            for w in d["results"][0]["reports"]["f"]["witnesses"]:
                w["point"] = [0] + w["point"][1:]

        for perturbed in (flip, move_witness):
            with self.subTest(perturbed=perturbed.__name__):
                self.controls(ref, doc, code, perturbed)
        self.assert_rejected(ref, doc, 0)

    def test_failed_operation_is_counted(self):
        pr = find("oracle", "oracle")
        doc, code = answer(pr)
        checker = run.Checker([pr])
        checker.record(0, code, json.dumps(doc), None)
        self.assertEqual((checker.failed, checker.wrong), (0, 0))
        doc["formula_value"] = "0"
        with contextlib.redirect_stderr(io.StringIO()):
            checker.record(0, code, json.dumps(doc), None)
        self.assertEqual((checker.failed, checker.wrong), (1, 1))
        with contextlib.redirect_stderr(io.StringIO()):
            checker.record(0, None, "", "AttributeError: boom")
        self.assertEqual((checker.failed, checker.wrong), (2, 1))

if __name__ == "__main__":
    unittest.main()
