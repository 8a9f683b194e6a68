"""Each pipeline stage runs once: call counts through compute and check."""

import io
import pathlib

import pytest

from igusa import cli, counting, problem, zeta
from igusa.newton import NewtonPolyhedron
from igusa.polynomials import parse_polynomial
from igusa.problem import ProblemSpec, compute

from conftest import example_spec

FIXTURE = str(pathlib.Path(__file__).parent / "fixtures" / "example_ideal.txt")


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its arguments to a list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


SPECS = [
    example_spec(13),
    ProblemSpec("single", 2, 5, parse_polynomial("x^2 + y^3", 2), None),
    ProblemSpec("single", 2, 5, parse_polynomial("x^2 + y^3", 2),
                parse_polynomial("x*y + y^2", 2)),
    ProblemSpec("single", 3, 7, parse_polynomial("x^2 + y^2 + z^2", 3), None),
]
IDS = ["ideal-pair", "single", "single-pair", "single-n3"]


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_cone_terms_once_per_compute(monkeypatch, spec):
    calls = count_calls(monkeypatch, zeta, "cone_terms")
    comp = compute(spec)
    assert len(calls) == 1
    assert len(comp.terms) == len(comp.partition.cones)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_no_face_lattice_enumerated_twice(monkeypatch, spec):
    enumerated = []
    original = NewtonPolyhedron.enumerate_faces

    def wrapper(self):
        if self._faces is None:  # a fresh enumeration, not the cached list
            enumerated.append(self.support)
        return original(self)

    monkeypatch.setattr(NewtonPolyhedron, "enumerate_faces", wrapper)
    compute(spec)
    assert enumerated
    assert len(enumerated) == len(set(enumerated))


def test_check_sweep_builds_geometry_once(monkeypatch):
    calls = count_calls(monkeypatch, problem, "build_geometry")
    code = cli.main(["check", FIXTURE, "--sweep", "3,5,7"], out=io.StringIO())
    assert code == cli.EXIT_DEGENERATE  # p = 3 is degenerate
    assert len(calls) == 1


def test_degenerate_compute_counts_nothing(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, counting, "count_triple")
    path = tmp_path / "degenerate.txt"
    path.write_text(pathlib.Path(FIXTURE).read_text().replace("p=13", "p=3"))
    code = cli.main(["compute", str(path)], out=io.StringIO())
    assert code == cli.EXIT_DEGENERATE
    assert calls == []


def test_override_still_counts(monkeypatch):
    calls = count_calls(monkeypatch, counting, "count_triple")
    comp = compute(example_spec(3), override=True)
    assert len(calls) == len(comp.partition.cones)
    assert comp.zeta.notes == (problem.DEGENERACY_NOTE,)
