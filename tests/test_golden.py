"""Golden reports: every command on one small input per mode and measure.

Each run's stdout, stderr and exit code must equal, byte for byte, the
files under tests/fixtures/golden/. The goldens were recorded before the
zeta formula was unified across the three modes; a change that means to
alter the output re-records them with

    PYTHONPATH=src python3 tests/test_golden.py

and the diff of the golden files then shows exactly what changed.
"""

import contextlib
import io
import json
import pathlib

import pytest

from igusa import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
STATUS = GOLDEN / "status.json"  # exit code and stderr of every run
INPUTS = {
    "ideal": GOLDEN / "ideal.txt",
    "ideal_g": GOLDEN / "ideal_g.txt",
    "single": GOLDEN / "single.txt",
    "single_g": GOLDEN / "single_g.txt",
    "mapping": GOLDEN / "mapping.txt",
    "mapping_g": GOLDEN / "mapping_g.txt",
    "pair_witness": GOLDEN / "pair_witness.txt",  # check fails pair at p=3
    "nonsimplicial": GOLDEN / "nonsimplicial.txt",  # 4-ray cones in n=3
    "power": GOLDEN / "power.txt",  # f written with a power of a sum
    "example_ideal": FIXTURES / "example_ideal.txt",
}
COMMANDS = {
    "compute": ["compute"],
    "check": ["check", "--sweep", "3,5,7"],
    "poles": ["poles"],
    "oracle": ["oracle", "--level", "2"],
}
RUNS = [(name, command, fmt) for name in INPUTS for command in COMMANDS
        for fmt in ("text", "json")]


def run(name, command, fmt):
    """(exit code, stdout, stderr) of one CLI run."""
    argv = [COMMANDS[command][0], str(INPUTS[name]), *COMMANDS[command][1:]]
    if fmt == "json":
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def stdout_path(name, command, fmt):
    return GOLDEN / f"{name}.{command}.{fmt.replace('text', 'txt')}"


@pytest.fixture(scope="module")
def status():
    return json.loads(STATUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, command, fmt", RUNS,
                         ids=[".".join(r) for r in RUNS])
def test_matches_golden(status, name, command, fmt):
    code, out, err = run(name, command, fmt)
    key = f"{name}.{command}.{fmt}"
    assert (code, err) == (status[key]["exit"], status[key]["stderr"])
    assert out == stdout_path(name, command, fmt).read_text(encoding="utf-8")


def record():
    status = {}
    for name, command, fmt in RUNS:
        code, out, err = run(name, command, fmt)
        status[f"{name}.{command}.{fmt}"] = {"exit": code, "stderr": err}
        stdout_path(name, command, fmt).write_text(out, encoding="utf-8")
    STATUS.write_text(json.dumps(status, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    record()
