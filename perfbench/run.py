"""Run one benchmark workload against the igusa sources of this checkout.

    python3 perfbench/run.py --workload assembly --seed 1 --seconds 20 --trace 0

The workload's problems are generated from the seed and written to files;
then whole rounds of the same operations, each one `igusa.cli.main([...,
"--json"])` call in this process, run until --seconds have passed. Every
output is checked against a reference computed apart from the program
(reference.py); an operation that raises, exits with an unexpected code
or disagrees with its reference counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the public functions of each module
are wrapped (tracing.py) and the metrics are the per-layer ones, while the
spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller problems and one round, for the tests")
    return parser.parse_args(argv)


def import_program():
    """Import igusa from this checkout's src/ and nowhere else."""
    if not (SRC / "igusa" / "cli.py").is_file():
        raise SystemExit(f"no program sources at {SRC / 'igusa'}")
    sys.path.insert(0, str(SRC))
    import igusa.cli

    if Path(igusa.__file__).resolve().parent != SRC / "igusa":
        raise SystemExit(f"imported igusa from {igusa.__file__}, not {SRC}")
    return igusa.cli


def setup_probe(workload, seed, smoke, directory):
    """Seconds a fresh interpreter takes from its start until the first
    operation could run: importing igusa and writing the problem files."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
         workload, str(seed), str(int(smoke)), str(directory)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def run_op(cli, argv):
    """One operation: (wall s, cpu s, exit code, stdout text, error)."""
    out = io.StringIO()
    error = None
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv, out=out)
    except SystemExit as exc:
        code, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, code, out.getvalue(), error


class Checker:
    """Checks outputs against the references and counts the operations
    that failed, and among them those whose output was wrong. An output
    text already verified for the same problem is accepted as it is."""

    def __init__(self, problems):
        self.problems = problems
        self.refs = [reference.Reference(pr) for pr in problems]
        self.verified = [set() for _ in problems]
        self.failed = self.wrong = 0

    def record(self, index, code, text, error):
        why = error if error is not None else self._why_wrong(index, code, text)
        if why is not None:
            self.failed += 1
            self.wrong += error is None
            print(f"FAILED {self.problems[index].name}: {why}", file=sys.stderr)

    def _why_wrong(self, index, code, text):
        if (code, text) in self.verified[index]:
            return None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        try:
            self.refs[index].check(doc, code)
        except reference.Mismatch as exc:
            return f"wrong output: {exc}"
        self.verified[index].add((code, text))
        return None


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    try:
        cli = import_program()
        setups = []  # set-up probes, spread over the run like the rounds

        def probe():
            if not args.trace:
                setups.append(setup_probe(args.workload, args.seed, args.smoke,
                                          work / f"probe{len(setups)}"))

        probe()
        problems = workloads.build(args.workload, args.seed, args.smoke)
        paths = workloads.write_problems(problems, work / "main")
        checker = Checker(problems)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        rounds = []  # per round: [(wall, cpu)] per operation
        measuring = time.perf_counter()
        try:
            while True:
                ops = []
                for i, (pr, path) in enumerate(zip(problems, paths)):
                    if tracer is not None:
                        tracer.op = len(rounds) * len(problems) + i
                    wall, cpu, code, text, error = run_op(cli, pr.argv(path))
                    ops.append((wall, cpu))
                    checker.record(i, code, text, error)
                rounds.append(ops)
                probe()
                if args.smoke or time.perf_counter() - measuring >= args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(setups) < SETUP_PROBES and not args.trace:
            probe()

        if tracer is None:
            walls = [w for ops in rounds for w, _ in ops]
            metrics = {
                "wall_s": (statistics.median(sum(w for w, _ in ops) for ops in rounds), "s"),
                "cpu_s": (statistics.median(sum(c for _, c in ops) for ops in rounds), "s"),
                "op_s.p50": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            results = BENCH_DIR / "results"
            results.mkdir(exist_ok=True)
            metrics = tracing.round_medians(
                tracer, [[w for w, _ in ops] for ops in rounds],
                results / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds of "
              f"{len(problems)} operations, {time.perf_counter() - started:.1f} s "
              "in all", file=sys.stderr)
        result = {"correct": checker.wrong == 0,
                  "attempted": len(rounds) * len(problems), "failed": checker.failed,
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}}
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
