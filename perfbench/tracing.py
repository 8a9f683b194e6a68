"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the igusa modules with
wrappers, each patched onto the attribute its caller looks up, and
`uninstall()` puts the originals back. Every wrapped call records one span
(name, start, end, parent span, operation id) in memory; a few wrappers
also bump counters. `layer_metrics` turns the spans and counters of one
round into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import weakref
from collections import Counter, defaultdict

RATFUN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")
CHECKS = ("check_nondegenerate_single", "check_strong_nondegenerate",
          "check_pair_nondegenerate")
REPORTS = ("compute_report", "check_report", "oracle_report", "poles_report",
           "_emit")

COUNTS = ("newton.face_subsets", "cones.pp_box_points", "counting.torus_sweeps",
          "counting.torus_points", "zeta.cone_terms_calls", "ratfun.ops")
UNITS = {**{name: "count" for name in COUNTS},
         "newton.face_yield": "ratio", "cones.pp_yield": "ratio"}  # else "s"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = defaultdict(Counter)  # op id -> counter
        self._patched = []
        self._enumerated = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if after is not None:
                after(self.counts[self.op], args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self):
        from igusa import cli, cones, counting, newton, oracle, problem, ratfun, zeta

        self._patch(problem, "parse_problem_file", "problem.parse")
        poly_cls = newton.NewtonPolyhedron
        self._patch(poly_cls, "facets", "newton.facets")
        self._patch(poly_cls, "facet_normals", "newton.facets")
        self._patch(poly_cls, "enumerate_faces", "newton.faces", self._faces)
        for owner in (problem, cones):
            self._patch(owner, "partition_single", "cones.partition")
        self._patch(problem, "partition_pair", "cones.partition")
        self._patch(zeta, "simplicial_decompose", "cones.decompose")
        self._patch(cones, "parallelepiped_points", "cones.pp", self._pp)
        for check in CHECKS:
            self._patch(counting, check, "counting.checks")
        self._patch(counting, "count_triple", "counting.counts")
        self._patch(counting, "_torus", "counting.torus", self._torus)
        self._patch(zeta, "cone_terms", "zeta.cone_terms", self._cone_terms)
        self._patch(zeta, "assemble", "zeta.assemble")
        for op in RATFUN_OPS:
            self._patch(ratfun.RationalFunction, op, "ratfun.op")
        self._patch(ratfun.Poly, "gcd", "ratfun.gcd")
        self._patch(oracle, "truncated_integral", "oracle.integral")
        for report in REPORTS:
            self._patch(cli, report, "cli.report")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counters taken at the wrapped boundaries --------------------------

    def _faces(self, counts, args, faces):
        polyhedron = args[0]
        if polyhedron in self._enumerated:
            return  # later calls return the cached list
        self._enumerated.add(polyhedron)
        # tried: every subset of the facet normals (read from the cache
        # that enumerate_faces filled, outside any span)
        facets = len(polyhedron.facets.__wrapped__(polyhedron))
        counts["newton.face_subsets"] += 2**facets
        counts["newton.faces"] += len(faces)

    @staticmethod
    def _pp(counts, args, points):
        rays = [tuple(r) for r in args[0]]
        box = 1
        for i in range(len(rays[0])):
            box *= max(1, sum(abs(r[i]) for r in rays))
        counts["cones.pp_box_points"] += box
        counts["cones.pp_points"] += len(points)

    @staticmethod
    def _torus(counts, args, _):
        p, n = args
        counts["counting.torus_sweeps"] += 1
        counts["counting.torus_points"] += (p - 1)**n

    @staticmethod
    def _cone_terms(counts, args, _):
        counts["zeta.cone_terms_calls"] += 1

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span, one JSON object a line."""
        with open(path, "w", encoding="ascii") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op}) + "\n")


def _span_times(spans, ops):
    """Per span name, over the spans of the given operations: total time,
    self time, time minus only cone_terms children, and the time and number
    of the outermost spans (those whose parent has another name)."""
    ops = set(ops)
    child_time = defaultdict(float)
    child_cone_terms = defaultdict(float)
    for name, start, end, parent, op in spans:
        if op in ops and parent >= 0:
            child_time[parent] += end - start
            if name == "zeta.cone_terms":
                child_cone_terms[parent] += end - start
    total, self_time, minus_ct, outer = (defaultdict(float) for _ in range(4))
    outer_calls = Counter()
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        duration = end - start
        total[name] += duration
        self_time[name] += duration - child_time[i]
        minus_ct[name] += duration - child_cone_terms[i]
        if parent < 0 or spans[parent][0] != name:
            outer[name] += duration
            outer_calls[name] += 1
    return total, self_time, minus_ct, outer, outer_calls


def layer_metrics(tracer, ops):
    """Per-layer metrics of the given operations (one round)."""
    total, self_time, minus_ct, outer, outer_calls = _span_times(tracer.spans, ops)
    counts = Counter()
    for op in ops:
        counts.update(tracer.counts[op])
    subsets = counts["newton.face_subsets"]
    box = counts["cones.pp_box_points"]
    return {
        "problem.parse_s": total["problem.parse"],
        "newton.facets_s": outer["newton.facets"],
        "newton.faces_s": self_time["newton.faces"],
        "newton.face_subsets": subsets,
        "newton.face_yield": counts["newton.faces"] / subsets if subsets else 0.0,
        "cones.partition_s": self_time["cones.partition"],
        "cones.decompose_s": self_time["cones.decompose"],
        "cones.pp_s": total["cones.pp"],
        "cones.pp_box_points": box,
        "cones.pp_yield": counts["cones.pp_points"] / box if box else 0.0,
        "counting.checks_s": total["counting.checks"],
        "counting.counts_s": total["counting.counts"],
        "counting.torus_sweeps": counts["counting.torus_sweeps"],
        "counting.torus_points": counts["counting.torus_points"],
        "zeta.cone_terms_calls": counts["zeta.cone_terms_calls"],
        "zeta.cone_terms_s": self_time["zeta.cone_terms"],
        "zeta.assemble_s": minus_ct["zeta.assemble"],
        "ratfun.ops": outer_calls["ratfun.op"],
        "ratfun.ops_s": outer["ratfun.op"],
        "ratfun.gcd_s": total["ratfun.gcd"],
        "oracle.integral_s": total["oracle.integral"],
        "cli.report_s": self_time["cli.report"],
    }


def layer_shares(tracer, ops, op_wall):
    """Share of the operations' wall time spent in each module's own code
    (self time of its spans); the rest is code outside any wrapped call."""
    self_time = _span_times(tracer.spans, ops)[1]
    shares = Counter()
    for name, seconds in self_time.items():
        shares[name.split(".")[0]] += seconds / op_wall
    shares["unwrapped"] = 1.0 - sum(shares.values())
    return dict(shares)


def round_medians(tracer, round_walls, spans_path):
    """{metric: (median over rounds, unit)}, given each round's operation
    wall times. Also prints the traced wall_s and the layer shares on a
    '#' line, and writes the spans to spans_path."""
    per_round, shares = [], []
    start = 0
    for walls in round_walls:
        ops = range(start, start + len(walls))
        start += len(walls)
        per_round.append(layer_metrics(tracer, ops))
        shares.append(layer_shares(tracer, ops, sum(walls)))
    share = {layer: round(statistics.median(s.get(layer, 0.0) for s in shares), 4)
             for layer in sorted({layer for s in shares for layer in s})}
    wall = statistics.median(sum(walls) for walls in round_walls)
    print(f"# traced wall_s {wall!r}; layer shares {json.dumps(share)}")
    tracer.write(spans_path)
    # counts repeat exactly from round to round; keep them whole numbers
    return {name: ((statistics.median_low if name in COUNTS else statistics.median)(
                [m[name] for m in per_round]), UNITS.get(name, "s"))
            for name in per_round[0]}
