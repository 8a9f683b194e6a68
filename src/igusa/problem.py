"""Problem descriptions and the end-to-end computation pipeline.

A problem file is line-oriented text: `key=value` pairs with `#`
comments. Keys: mode (ideal|single|mapping), n, p, generators (ideal
mode, comma-separated monic monomials), f (one polynomial, or a
comma-separated list in mapping mode) and g (a polynomial, or `trivial`
for the plain Haar measure).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import counting, zeta
from .cones import partition_pair, partition_single
from .errors import DegeneracyError, PolynomialParseError, SizeGuardError
from .linalg import guard_facet_search
from .newton import NewtonPolyhedron
from .polynomials import (MonomialIdealSpec, PolynomialMapping,
                          parse_monomial_generator, parse_polynomial)

MODES = ("ideal", "single", "mapping")


# Miller-Rabin to the first 13 prime bases is exact below psi_13, the
# least composite that is a strong probable prime to all of them
# (Sorenson and Webster, Math. Comp. 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def strong_probable_prime(m, a):
    """Does odd m > 2 pass the Miller-Rabin round to base a?"""
    r = ((m - 1) & (1 - m)).bit_length() - 1  # 2^r exactly divides m - 1
    x = pow(a, (m - 1) >> r, m)
    if x == 1:
        return True
    for _ in range(r):
        if x == m - 1:
            return True
        x = x * x % m
    return False


def is_prime(m):
    """Deterministic Miller-Rabin to the bases PRIME_BASES; m >= PSI_13,
    where those bases no longer decide, is refused."""
    if m >= PSI_13:
        raise SizeGuardError(f"testing p = {m} for primality: the test is "
                             f"exact only below {PSI_13}")
    if m < 2:
        return False
    for q in PRIME_BASES:
        if m % q == 0:
            return m == q
    return all(strong_probable_prime(m, a) for a in PRIME_BASES)


@dataclass
class ProblemSpec:
    mode: str
    n: int
    p: int
    fside: object  # MonomialIdealSpec | IntegerPolynomial | PolynomialMapping
    g: object  # IntegerPolynomial or None for trivial measure

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.mode == "single" and self.g is not None and self.n < 2:
            raise ValueError("a polynomial pair needs n >= 2")
        if self.mode == "mapping" and self.g is not None \
                and self.n < self.t_count + 1:
            raise ValueError(
                f"a mapping pair with t={self.t_count} needs n >= "
                f"{self.t_count + 1}")
        if self.mode == "single" and self.fside.is_zero():
            raise ValueError("f is zero")
        if self.mode == "single" and not self.fside.vanishes_at_origin():
            raise ValueError("f(0) != 0")
        if self.g is not None:
            if self.g.is_zero():
                raise ValueError("g is zero")
            if not self.g.vanishes_at_origin():
                raise ValueError("g(0) != 0")

    @property
    def t_count(self):
        if self.mode == "mapping":
            return self.fside.t
        return 1


def parse_problem_text(text) -> ProblemSpec:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PolynomialParseError(
                f"line {lineno}: expected key=value, got {line!r}", 0)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in entries:
            raise PolynomialParseError(f"line {lineno}: duplicate key {key!r}", 0)
        entries[key] = value.strip()
    for required in ("mode", "n", "p"):
        if required not in entries:
            raise PolynomialParseError(f"missing key {required!r}", 0)
    mode = entries.pop("mode")
    if mode not in MODES:
        raise PolynomialParseError(f"unknown mode {mode!r}", 0)
    try:
        n = int(entries.pop("n"))
        p = int(entries.pop("p"))
    except ValueError as exc:
        raise PolynomialParseError(f"n and p must be integers: {exc}", 0)
    if n >= 1:  # the cone over Gamma has at least n + 1 rays in R^(n+1)
        guard_facet_search(n + 1, n + 1)
    gtext = entries.pop("g", "trivial")
    try:  # a bad n, an ideal or mapping refused, or a refused problem
        g = None if gtext == "trivial" else parse_polynomial(gtext, n)
        fside = _parse_fside(mode, n, entries)
        if entries:
            raise PolynomialParseError(
                f"unknown keys: {', '.join(sorted(entries))}", 0)
        return ProblemSpec(mode, n, p, fside, g)
    except ValueError as exc:
        raise PolynomialParseError(str(exc), 0)


def _parse_fside(mode, n, entries):
    """The f side of a problem: its entries are popped from `entries`."""
    if mode == "ideal":
        gens = entries.pop("generators", "")
        if not gens:
            raise PolynomialParseError("ideal mode needs generators=", 0)
        return MonomialIdealSpec(
            n, [parse_monomial_generator(part, n)
                for part in gens.split(",")])
    ftext = entries.pop("f", "")
    if not ftext:
        raise PolynomialParseError(f"{mode} mode needs f=", 0)
    parts = [parse_polynomial(part, n) for part in ftext.split(",")]
    if mode == "single":
        if len(parts) != 1:
            raise PolynomialParseError("single mode takes exactly one f", 0)
        return parts[0]
    return PolynomialMapping(parts)


def parse_problem_file(path) -> ProblemSpec:
    with open(path, "r", encoding="ascii") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise PolynomialParseError(str(exc), exc.start) from None
    return parse_problem_text(text)


# -- pipeline -----------------------------------------------------------


@dataclass(frozen=True)
class Computation:
    """What `compute` found, each value made once, by the stage it names."""

    spec: ProblemSpec
    partition: object  # holds the Newton polyhedra, Gamma_f first
    reports: dict
    terms: list  # each ConeTerm holds its cone's counts
    binomials: dict  # Z's denominator, by (a, b)
    zeta: object  # the reduced RationalFunction Z(t)

    def factored(self):
        """Z's common-denominator view, over the binomials Z was summed on."""
        return zeta.common_denominator_form(self.zeta, self.binomials,
                                            self.spec.p)

    def poles(self):
        """The candidate poles, over the facet normals of the fan."""
        return _poles(self.spec, self.partition.polyhedra,
                      self.partition.fan_polyhedron)


def _poles(spec, polyhedra, fan_polyhedron):
    """Candidate poles over the facet normals of the fan's polyhedron."""
    return zeta.candidate_poles(
        polyhedra, [k for k, _ in fan_polyhedron.facet_normals()],
        None if spec.mode == "ideal" else spec.t_count)


def poles(spec: ProblemSpec):
    """The candidate poles alone, with no face lattice and no fan."""
    gamma_f = NewtonPolyhedron.of(spec.fside)
    if spec.g is None:
        return _poles(spec, (gamma_f,), gamma_f)
    gamma_g = NewtonPolyhedron.of(spec.g)
    return _poles(spec, (gamma_f, gamma_g), gamma_f + gamma_g)


def build_geometry(spec: ProblemSpec):
    """The ConePartition of Gamma_f, or of Gamma_f + Gamma_g for a pair."""
    gamma_f = NewtonPolyhedron.of(spec.fside)
    return (partition_single(gamma_f) if spec.g is None else
            partition_pair(gamma_f, NewtonPolyhedron.of(spec.g)))


def run_checks(spec: ProblemSpec, partition):
    """(counts, reports) at spec.p: each cone's (N, P, Q) and every
    non-degeneracy report the mode relies on, from one sweep per cone."""
    return counting.cone_checks(None if spec.mode == "ideal" else spec.fside,
                                spec.g, partition, spec.p)


def check(pspecs):
    """{p: reports} for each prime's spec, each prime once, over one fan
    (the same for every p); none for a monomial ideal with the trivial
    measure, which has nothing to check."""
    primes = {pspec.p: pspec for pspec in pspecs}
    if pspecs[0].mode == "ideal" and pspecs[0].g is None:
        return {p: {} for p in primes}
    partition = build_geometry(pspecs[0])
    return {p: run_checks(pspec, partition)[1] for p, pspec in primes.items()}


def compute(spec: ProblemSpec, override=False) -> Computation:
    """Full pipeline, each stage once: the fan, checks and torus counts
    from one sweep per cone, then (a degenerate input is refused here unless
    `override` asks to go on) the per-cone terms and Z, their sum."""
    partition = build_geometry(spec)
    counts, reports = run_checks(spec, partition)
    bad = [rep for rep in reports.values() if not rep.ok]
    if bad and not override:
        raise DegeneracyError(bad[0])
    terms = zeta.cone_terms(partition, counts, spec.p, spec.t_count)
    binomials = zeta.denominator_binomials(terms, spec.t_count)
    return Computation(spec, partition, reports, terms, binomials,
                       zeta.assemble(terms, spec.p, binomials))
