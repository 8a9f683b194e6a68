"""Each pipeline stage runs once: call counts through compute and check,
and the per-cone sweep against the per-face and per-cone functions."""

import dataclasses
import io
import json
import pathlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from igusa import cli, counting, linalg, problem, zeta
from igusa.newton import Face, NewtonPolyhedron, face_restriction
from igusa.polynomials import (MonomialIdealSpec, PolynomialMapping,
                               parse_polynomial)
from igusa.problem import ProblemSpec, compute

from conftest import example_spec
from test_counting import cases
from test_newton import supports

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
    # one face lattice and one facet search, of the polyhedron whose fan
    # the formula sums over: in a pair, the sum polyhedron alone
    enumerated = count_calls(monkeypatch, NewtonPolyhedron, "enumerate_faces")
    searched = count_calls(monkeypatch, NewtonPolyhedron, "_compute_facets")
    polyhedra = compute(spec).partition.polyhedra
    fan = {tuple(map(sum, zip(*pts)))
           for pts in product(*(g.support for g in polyhedra))}
    assert [g.support for g, in enumerated] == [fan]
    assert [g.support for g, in searched] == [fan]


def test_poles_only_where_printed(monkeypatch):
    # only compute prints candidate poles, so only it computes them
    poles = count_calls(monkeypatch, zeta, "candidate_poles")
    calls = []
    for argv in (["check", FIXTURE, "--sweep", "3,5,7"],
                 ["oracle", FIXTURE, "--level", "2"], ["compute", FIXTURE]):
        poles.clear()
        cli.main(argv, out=io.StringIO())
        calls.append(len(poles))
    assert calls == [0, 0, 1]


def fan_polyhedron(spec):
    """A fresh polyhedron whose fan the formula sums over for spec."""
    sides = [NewtonPolyhedron.of(side) for side in (spec.fside, spec.g)
             if side is not None]
    return sum(sides[1:], sides[0])


def ranks_taken(call):
    """call()'s result, and how many times it called linalg.rank."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, linalg, "rank")
        return call(), len(calls)


def check_ranks(gamma):
    """facets() takes no rank, since a facet's label is read at the double
    description's own offset; enumerate_faces() takes one per face that
    is neither a facet nor gamma."""
    facets, ranked = ranks_taken(gamma.facets)
    assert facets and ranked == 0
    faces, ranked = ranks_taken(gamma.enumerate_faces)
    assert ranked == len(faces) - len(facets) - 1


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_fan_polyhedra_rank_only_the_faces_no_facet_gives(spec):
    check_ranks(fan_polyhedron(spec))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(supports)
def test_random_supports_rank_only_the_faces_no_facet_gives(shaped):
    check_ranks(NewtonPolyhedron(shaped[1], shaped[0]))


MAPPING = PolynomialMapping([parse_polynomial("x + z", 3),
                             parse_polynomial("y - z", 3)])
POLES_SPECS = SPECS + [
    ProblemSpec("ideal", 2, 5, MonomialIdealSpec(2, [(2, 1), (1, 3)]), None),
    ProblemSpec("mapping", 3, 3, MAPPING, None),
    ProblemSpec("mapping", 3, 3, MAPPING,
                parse_polynomial("x + y + z + x*y*z", 3)),
]
POLES_IDS = IDS + ["ideal", "mapping", "mapping-pair"]


@pytest.mark.parametrize("spec", POLES_SPECS, ids=POLES_IDS)
def test_poles_builds_no_face_lattice(monkeypatch, spec):
    # poles reads the facet normals of the polyhedron whose fan the
    # formula sums over, from one facet search, and builds no fan
    enumerated = count_calls(monkeypatch, NewtonPolyhedron, "enumerate_faces")
    searched = count_calls(monkeypatch, NewtonPolyhedron, "_compute_facets")
    monkeypatch.setattr(problem, "parse_problem_file", lambda path: spec)
    assert cli.main(["poles", "problem.txt"], out=io.StringIO()) == cli.EXIT_OK
    sides = [spec.fside] + ([] if spec.g is None else [spec.g])
    supports = [NewtonPolyhedron.of(side).support for side in sides]
    fan = {tuple(map(sum, zip(*pts))) for pts in product(*supports)}
    assert enumerated == []
    assert [g.support for g, in searched] == [fan]


def test_check_sweep_builds_geometry_once(monkeypatch):
    calls = count_calls(monkeypatch, problem, "build_geometry")
    code = cli.main(["check", FIXTURE, "--sweep", "3,5,7"], out=io.StringIO())
    assert code == cli.EXIT_DEGENERATE  # p = 3 is degenerate
    assert len(calls) == 1


def test_check_builds_no_fan_with_nothing_to_check(monkeypatch, tmp_path):
    # a monomial ideal never vanishes on the torus and the trivial measure
    # has no faces: no report, so no fan, whose 2^20 faces the face guard
    # would refuse
    calls = count_calls(monkeypatch, problem, "build_geometry")
    path = tmp_path / "ideal.txt"
    path.write_text("mode=ideal\nn=20\np=2\ngenerators=x1\n")
    out = io.StringIO()
    assert cli.main(["check", str(path)], out=out) == cli.EXIT_OK
    assert out.getvalue() == "p=2: ok\n"
    assert calls == []


def test_one_component_mapping_reports_as_its_polynomial():
    # the checks return the same faces and points; only cli's words differ
    f = parse_polynomial("x^3 + y^3", 2)
    specs = [ProblemSpec("single", 2, 3, f, None),
             ProblemSpec("mapping", 2, 3, PolynomialMapping([f]), None)]
    single, mapping = (
        problem.run_checks(spec, problem.build_geometry(spec))[1]
        for spec in specs)
    assert single == mapping
    assert not single["f"].ok
    single_text, mapping_text = (
        cli.render_check(cli.check_report(spec, {3: single}))
        for spec in specs)
    assert single_text.count(cli.SINGULAR) == 4
    assert mapping_text == single_text.replace(cli.SINGULAR,
                                               "Jacobian rank below 1")


def test_passing_checks_name_and_sort_no_face(monkeypatch):
    # the orthant x1 in n = 10 has 2^10 faces, none with a witness
    spec = ProblemSpec("single", 10, 2, parse_polynomial("x1", 10), None)
    partition = problem.build_geometry(spec)
    orders = count_calls(monkeypatch, Face, "order")
    names = count_calls(monkeypatch, cli, "face_name")
    for p in (2, 3):
        _, reports = problem.run_checks(dataclasses.replace(spec, p=p),
                                        partition)
        assert reports["f"].ok
    assert orders == names == []


def test_degeneracy_counts_witness_points(tmp_path, capsys):
    # x^3 + y^3 = (x + y)^3 mod 3: two singular torus zeros on each of the
    # two faces that carry both monomials
    path = tmp_path / "cube.txt"
    path.write_text("mode=single\nn=2\np=3\nf=x^3 + y^3\n")
    assert cli.main(["compute", str(path)], out=io.StringIO()) == \
        cli.EXIT_DEGENERATE
    assert capsys.readouterr().err == (
        "degenerate input: non-degeneracy check failed: 4 witness(es)\n")


def test_degenerate_compute_counts_nothing(monkeypatch, tmp_path):
    # the counts come from the checks' own sweep; a degenerate input must
    # stop before the per-cone formula
    calls = count_calls(monkeypatch, zeta, "cone_terms")
    path = tmp_path / "degenerate.txt"
    path.write_text(pathlib.Path(FIXTURE).read_text().replace("p=13", "p=3"))
    code = cli.main(["compute", str(path)], out=io.StringIO())
    assert code == cli.EXIT_DEGENERATE
    assert calls == []


def test_override_still_counts():
    spec = example_spec(3)
    comp = compute(spec, override=True)
    assert [term.counts for term in comp.terms] == [
        counting.count_triple(None, face_restriction(spec.g, cone.labels[1]),
                              spec.p)
        for cone in comp.partition.cones]
    assert cli.compute_report(comp)["zeta"]["notes"] == [
        cli.DEGENERACY_NOTE]


# -- one torus pass per distinct pair of restrictions -------------------


def pairs_to_sweep(spec, partition):
    """The distinct (f restrictions, g restriction) pairs of the cones
    with a side that may vanish on the torus: one whose restrictions are
    none of them a single monomial with a unit coefficient mod p."""
    p = spec.p
    swept = set()
    for cone in partition.cones:
        fparts = None if spec.mode == "ideal" else tuple(
            face_restriction(c, cone.labels[0])
            for c in spec.fside.components)
        gpart = None if spec.g is None else face_restriction(
            spec.g, cone.labels[1])
        gparts = None if gpart is None else (gpart,)
        if any(side is not None and all(len(part.terms) > 1 or all(
                c % p == 0 for c in part.terms.values()) for part in side)
               for side in (fparts, gparts)):
            swept.add((fparts, gpart))
    return len(swept)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_one_torus_pass_per_cone(monkeypatch, spec):
    calls = count_calls(monkeypatch, counting, "_torus")
    comp = compute(spec)
    assert len(calls) == pairs_to_sweep(spec, comp.partition) <= len(
        comp.partition.cones)
    partition = problem.build_geometry(spec)
    for p in (2, 3, 5, 7, 11):
        calls.clear()
        pspec = dataclasses.replace(spec, p=p)
        problem.run_checks(pspec, partition)
        assert len(calls) == pairs_to_sweep(pspec, partition) <= len(
            partition.cones)


def test_fixture_compute_sweeps_twice_at_most(monkeypatch):
    calls = count_calls(monkeypatch, counting, "_torus")
    assert cli.main(["compute", FIXTURE], out=io.StringIO()) == cli.EXIT_OK
    assert 0 < len(calls) <= 2


def test_monomial_that_p_divides_is_swept(tmp_path):
    # 7*x*y vanishes everywhere mod 7 with a zero gradient: each of the two
    # faces whose only support point is (1, 1) has all 36 torus points as
    # witnesses
    path = tmp_path / "divisible.txt"
    path.write_text("mode=single\nn=2\np=7\nf=x^3 + 7*x*y\n")
    out = io.StringIO()
    assert cli.main(["check", str(path), "--json"], out=out) == \
        cli.EXIT_DEGENERATE
    witnesses = json.loads(out.getvalue())["results"][0]["reports"]["f"][
        "witnesses"]
    assert len(witnesses) == 72
    assert sorted({w["where"] for w in witnesses}) == [
        "face[dim=0; touching=(1, 1); recession={}]",
        "face[dim=1; touching=(1, 1); recession={2}]"]
    assert cli.main(["compute", str(path)], out=io.StringIO()) == \
        cli.EXIT_DEGENERATE


def test_unit_monomials_need_no_torus(monkeypatch, tmp_path):
    # g = x*y is a unit monomial on every face and an ideal never vanishes,
    # so no cone is swept and the (10007-1)^3 torus guard is never met
    calls = count_calls(monkeypatch, counting, "_torus")
    path = tmp_path / "monomial.txt"
    path.write_text("mode=ideal\nn=3\np=10007\n"
                    "generators=x^2, y^3, z\ng=x*y\n")
    assert cli.main(["compute", str(path)], out=io.StringIO()) == cli.EXIT_OK
    assert calls == []


# -- seeded property test: per-cone pipeline against per-face functions ---


@st.composite
def specs(draw):
    """A valid ProblemSpec of any mode, with or without g, n <= 3."""
    mode = draw(st.sampled_from(problem.MODES))
    with_g = draw(st.booleans())
    n, p, (f1, f2, g) = draw(cases(3, min_n=2 if with_g else 1, max_terms=3))
    if mode == "ideal":
        fside = MonomialIdealSpec(n, sorted(f1.terms))
    elif mode == "single":
        fside = f1
    else:
        t = min(2, n - 1) if with_g else min(2, n)
        fside = PolynomialMapping([f1, f2][:t])
    return ProblemSpec(mode, n, p, fside, g if with_g else None)


def face_check(gamma, polys, p):
    """The f-side report on every face of gamma from one sweep per face,
    apart from the cones of any fan."""
    return counting.DegeneracyReport(tuple(
        (face, zeros) for face in gamma.enumerate_faces()
        if (zeros := counting.sweep([face_restriction(c, face)
                                     for c in polys], None, p)[1][0])))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(specs())
def test_cone_sweeps_match_face_and_cone_functions(spec):
    partition = problem.build_geometry(spec)
    counts, reports = problem.run_checks(spec, partition)
    cones = partition.cones
    p = spec.p
    expected = {}
    if spec.mode == "single":
        gamma = partition.polyhedra[0]
        expected["f"] = face_check(gamma, [spec.fside], p)
        assert counting.check_nondegenerate_single(
            spec.fside, gamma, p) == expected["f"]
    elif spec.mode == "mapping":
        gamma = partition.polyhedra[0]
        expected["f"] = face_check(gamma, spec.fside.components, p)
        assert counting.check_strong_nondegenerate(
            spec.fside, gamma, p) == expected["f"]
    if spec.g is not None:
        gamma = partition.polyhedra[1]
        expected["g"] = face_check(gamma, [spec.g], p)
        assert counting.check_nondegenerate_single(
            spec.g, gamma, p) == expected["g"]
        if spec.mode != "ideal":
            expected["pair"] = counting.check_pair_nondegenerate(
                spec.fside, spec.g, partition, p)
    assert reports == expected
    fside = None if spec.mode == "ideal" else spec.fside
    assert counts == [counting.count_triple(
        None if fside is None else PolynomialMapping(
            [face_restriction(c, cone.labels[0])
             for c in fside.components]),
        None if spec.g is None else face_restriction(spec.g, cone.labels[1]),
        p) for cone in cones]
    if fside is not None:
        assert set(partition.polyhedra[0].enumerate_faces()) <= {
            cone.labels[0] for cone in cones}
    if spec.g is not None:
        assert set(partition.polyhedra[1].enumerate_faces()) <= {
            cone.labels[1] for cone in cones}
