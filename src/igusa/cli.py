"""Command-line front end.

Subcommands: compute (full pipeline with per-cone table), check
(non-degeneracy reports, optionally swept over primes), oracle
(truncated-integral bracket vs formula value) and poles (candidate-pole
table, read off the facet normals alone: no faces, no fan). Every
report's JSON document, every word included, is built here alone from
the spec and the pipeline's data, and its text is a pure function of
it, so JSON output round-trips to byte-identical text.

Exit codes: 0 ok, 1 parse error, 2 degeneracy, 3 size guard, 4 oracle
violation, 5 internal error (a broken invariant, or any other exception
that escapes: a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from math import log10

from . import oracle, problem
from .errors import (DegeneracyError, InternalConsistencyError,
                     PolynomialParseError, SizeGuardError)
from .ratfun import Poly

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DEGENERATE = 2
EXIT_SIZE = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5

SINGULAR = "face polynomial has a singular torus zero"
DEGENERACY_NOTE = ("unverified hypothesis: non-degeneracy fails; "
                   "formula output is not certified")


def _poly_str(coeffs):
    return str(Poly([int(c) for c in coeffs]))


def _ratfun_str(doc):
    num, den = _poly_str(doc["num"]), _poly_str(doc["den"])
    if den == "1":
        return num
    return f"({num}) / ({den})"


def _exp_str(p, a, b):
    # b = m_g(k) + sigma(k) >= 1 for every k != 0, so b > 0 wherever a > 0
    if a == 0:
        return f"{p}^{b}"
    return f"{p}^({a if a != 1 else ''}s+{b})"


def _t_power(a):
    return "1" if a == 0 else "t" if a == 1 else f"t^{a}"


def _factored_str(p, pieces):
    chunks = []
    for piece in pieces:
        num = " + ".join(_exp_str(p, a, b) if (a, b) != (0, 0) else "1"
                         for _, a, b in piece["terms"])
        if not piece["factors"]:
            chunks.append(num)
            continue
        den = "".join(f"({_exp_str(p, a, b)}-1)"
                      for a, b in piece["factors"])
        chunks.append(f"({num}) / ({den})")
    return " + ".join(chunks)


# -- report construction -------------------------------------------------


def _fraction_str(value):
    """str(value) for an int or Fraction, refused as a size guard when a
    numerator or denominator has more digits than the interpreter converts
    to a string. Every number a report prints that can grow past that
    passes through here before any output is written."""
    try:
        return str(value)
    except ValueError:  # the only ValueError int.__str__ raises
        raise _unprintable() from None


def _unprintable():
    return SizeGuardError("printing the report needs an integer of more "
                          f"than {sys.get_int_max_str_digits()} digits")


def _spec_doc(spec):
    doc = {"mode": spec.mode, "n": spec.n, "p": spec.p,
           "f": str(spec.fside),
           "g": "trivial" if spec.g is None else str(spec.g)}
    if spec.mode == "mapping":
        doc["t"] = spec.t_count
    return doc


def _pole_rows(poles):
    return [{"value": str(cp.value), "source": "; ".join(
        [f"ray {k}" for k in cp.normals] + ["L-factor"] * cp.l_factor)}
        for cp in poles]


def _ratfun_doc(rf):
    return {"num": [_fraction_str(c) for c in rf.num.coeffs],
            "den": [_fraction_str(c) for c in rf.den.coeffs]}


def face_name(face):
    pts = ",".join(str(tuple(pt)) for pt in sorted(face.touching))
    rec = ",".join(map(str, sorted(face.recession)))
    return f"face[dim={face.dim}; touching={pts}; recession={{{rec}}}]"


def cone_name(cone):
    rays = ",".join(str(tuple(r)) for r in cone.rays)
    return f"cone[dim={cone.dim}; rays={rays}]"


def _report_doc(rep, where, condition):
    return {"ok": rep.ok,
            "witnesses": [{"where": where(label), "point": list(a),
                           "condition": condition}
                          for label, points in rep.witnesses for a in points]}


def _reports_doc(spec, reports):
    """The reports in words: f and g name faces, pair names cones, and a
    condition reads the mode and the f side's t."""
    t = spec.t_count
    words = {"f": (face_name, f"Jacobian rank below {t}"
                   if spec.mode == "mapping" else SINGULAR),
             "g": (face_name, SINGULAR),
             "pair": (cone_name, f"stacked Jacobian rank below {t + 1}")}
    return {name: _report_doc(rep, *words[name])
            for name, rep in reports.items()}


def _notes(comp):  # the watermark of a failed report, let through
    return [DEGENERACY_NOTE] if not all(
        rep.ok for rep in comp.reports.values()) else []


def compute_report(comp):
    doc = {"command": "compute", "spec": _spec_doc(comp.spec)}
    doc["reports"] = _reports_doc(comp.spec, comp.reports)
    rows = []
    for i, term in enumerate(comp.terms):
        cone = term.cone
        rows.append({
            "cone": f"delta_{i}",
            "dim": cone.dim,
            "rays": [list(r) for r in cone.rays],
            "counts": {"N": term.counts.N, "P": term.counts.P,
                       "Q": term.counts.Q},
            "L": _ratfun_doc(term.L),
            "S": _ratfun_doc(term.S),
            "S_factored": [{"terms": [[1, a, b] for a, b in piece.terms],
                            "factors": [list(f) for f in piece.factors]}
                           for piece in term.pieces],
        })
    doc["cones"] = rows
    doc["zeta"] = _ratfun_doc(comp.zeta)
    if notes := _notes(comp):
        doc["zeta"]["notes"] = notes
    numerator, const, factors = comp.factored()
    _fraction_str(const)  # refused here, not half-way through the output
    doc["zeta_factored"] = {
        "numerator": [_fraction_str(c) for c in numerator.coeffs],
        "constant_divisor": const,
        "factors": [list(f) for f in factors],
    }
    doc["poles"] = _pole_rows(comp.poles())
    return doc


def render_compute(doc):
    spec = doc["spec"]
    p = spec["p"]
    lines = []
    lines.append(f"mode={spec['mode']} n={spec['n']} p={p}")
    lines.append(f"f side: {spec['f']}")
    lines.append(f"measure: {spec['g']}")
    lines.append("")
    lines.append("cone      dim  rays                 N     P     Q"
                 "     L, S")
    for row in doc["cones"]:
        rays = " ".join(str(tuple(r)) for r in row["rays"]) or "-"
        c = row["counts"]
        lines.append(f"{row['cone']:<9} {row['dim']:<4} {rays:<20} "
                     f"{c['N']:<5} {c['P']:<5} {c['Q']:<5}")
        lines.append(f"    L = {_ratfun_str(row['L'])}")
        lines.append(f"    S = {_factored_str(p, row['S_factored'])}")
    lines.append("")
    for note in doc["zeta"].get("notes", []):
        lines.append(f"note: {note}")
    lines.append(f"Z(s) = {_ratfun_str(doc['zeta'])}")
    zf = doc["zeta_factored"]
    den = f"{zf['constant_divisor']}" + "".join(
        f"({p}^{b}-{_t_power(a)})" for a, b in zf["factors"])
    lines.append(f"     = ({_poly_str(zf['numerator'])})")
    lines.append(f"       / ({den})")
    lines.append("")
    return "\n".join(lines) + "\n" + render_poles(doc)


def check_report(spec, reports_by_p):
    doc = {"command": "check", "results": []}
    for p, reports in reports_by_p.items():
        doc["results"].append({
            "p": p,
            "ok": all(rep.ok for rep in reports.values()),
            "reports": _reports_doc(spec, reports),
        })
    return doc


def render_check(doc):
    lines = []
    for result in doc["results"]:
        status = "ok" if result["ok"] else "DEGENERATE"
        lines.append(f"p={result['p']}: {status}")
        for name, rep in sorted(result["reports"].items()):
            mark = "ok" if rep["ok"] else "failed"
            lines.append(f"  {name}: {mark}")
            for w in rep["witnesses"]:
                point = tuple(w["point"])
                lines.append(f"    witness {point} in {w['where']}: "
                             f"{w['condition']}")
    return "\n".join(lines) + "\n"


def oracle_report(comp, s0, M):
    spec = comp.spec
    limit = sys.get_int_max_str_digits()
    if limit and s0 * log10(spec.p) >= limit:  # p^s0 too long, unbuilt
        raise _unprintable()
    tval = Fraction(1, spec.p**s0)
    t_value = _fraction_str(tval)  # refused before anything is evaluated
    value = comp.zeta.evaluate(tval)
    bracket = oracle.truncated_integral(spec.fside, spec.g, spec.p, s0, M)
    doc = {
        "command": "oracle", "spec": _spec_doc(spec),
        "s0": s0, "level": M, "t_value": t_value,
        "formula_value": _fraction_str(value),
        "bracket": {"lo": _fraction_str(bracket.lo),
                    "hi": _fraction_str(bracket.hi)},
        "contained": bracket.contains(value),
    }
    if notes := _notes(comp):
        doc["notes"] = notes
    return doc


def render_oracle(doc):
    lines = [f"s0={doc['s0']} level={doc['level']} t={doc['t_value']}"]
    lines += [f"note: {note}" for note in doc.get("notes", [])]
    lines += [f"formula value: {doc['formula_value']}",
              f"bracket: [{doc['bracket']['lo']}, {doc['bracket']['hi']}]"]
    lines.append("contained" if doc["contained"] else "bracket violation")
    return "\n".join(lines) + "\n"


def poles_report(spec, poles):
    return {"command": "poles", "spec": _spec_doc(spec),
            "poles": _pole_rows(poles)}


def render_poles(doc):
    lines = ["candidate poles (real parts):"]
    for row in doc["poles"]:
        lines.append(f"  {row['value']:<8} from {row['source']}")
    return "\n".join(lines) + "\n"


# -- entry point ---------------------------------------------------------


def _emit(doc, renderer, as_json, out):
    if as_json:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(renderer(doc))


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, the degeneracy code
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = _ArgumentParser(
        prog="igusa",
        description="Exact p-adic zeta functions from Newton polyhedra")
    parser.add_argument("command",
                        choices=["compute", "check", "oracle", "poles"])
    parser.add_argument("problem_file")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--override-degenerate", action="store_true")
    parser.add_argument("--level", type=int, default=4,
                        help="truncation level M for the oracle")
    parser.add_argument("--s0", type=int, default=1,
                        help="integer evaluation point s = s0")
    parser.add_argument("--sweep", default="",
                        help="comma-separated primes for check")
    args = parser.parse_args(argv)
    for flag, value in (("--level", args.level), ("--s0", args.s0)):
        if args.command == "oracle" and value < 1:  # only oracle reads them
            print(f"parse error: {flag} must be a positive integer, "
                  f"got {value}", file=sys.stderr)
            return EXIT_PARSE

    try:
        spec = problem.parse_problem_file(args.problem_file)
        if args.command == "compute":
            comp = problem.compute(spec, override=args.override_degenerate)
            _emit(compute_report(comp), render_compute, args.json, out)
            return EXIT_OK
        if args.command == "check":
            try:  # each swept prime must make a valid problem
                pspecs = [dataclasses.replace(spec, p=int(x))
                          for x in args.sweep.split(",") if x] or [spec]
            except ValueError as exc:
                print(f"parse error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            doc = check_report(spec, problem.check(pspecs))
            _emit(doc, render_check, args.json, out)
            ok = all(result["ok"] for result in doc["results"])
            return EXIT_OK if ok else EXIT_DEGENERATE
        if args.command == "oracle":
            comp = problem.compute(spec, override=args.override_degenerate)
            doc = oracle_report(comp, args.s0, args.level)
            _emit(doc, render_oracle, args.json, out)
            if not doc["contained"]:
                print("bracket violation", file=sys.stderr)
                return EXIT_ORACLE
            return EXIT_OK
        _emit(poles_report(spec, problem.poles(spec)), render_poles,
              args.json, out)
        return EXIT_OK
    except DegeneracyError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (PolynomialParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # anything else escaping is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
