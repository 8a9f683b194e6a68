"""The benchmark's problems, generated from a seed.

Each workload is a fixed list of base problems. The seed changes how each
problem is presented and, for the ideals that `poles` reads, draws the
generators themselves:

- variables are permuted and scaled by units u_i (x_i -> u_i x_i), which
  is a measure-preserving change of variables on Z_p^n. Z(s) is unchanged,
  so the references still hold and the work each operation does stays the
  same from seed to seed;
- `oracle` operations draw s0 from {1, 2};
- staircase ideals (n=2) draw the slopes of their edges, with the number
  of facets fixed; n=3 ideals draw their interior generators, with the
  vertices fixed up to a permutation.

The README records the make-up of each workload and the reasons for it.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("assembly", "torus", "geometry", "oracle")
VARIABLES = ("x", "y", "z")


@dataclass(frozen=True)
class Problem:
    name: str
    command: str  # compute | check | oracle | poles
    mode: str  # ideal | single | mapping
    n: int
    p: int
    f: tuple  # exponent tuples (ideal) or polynomials {exponent: coeff}
    g: dict | None = None
    kind: str = ""  # "fixture" or "homogeneous": which closed form applies
    g_integral: Fraction | None = None  # integral of |g| over Z_p^n
    level: int = 0  # oracle truncation level
    s0: int = 1  # oracle evaluation point
    sweep: tuple = ()  # primes for check

    def text(self):
        lines = [f"# {self.name}", f"mode={self.mode}", f"n={self.n}",
                 f"p={self.p}"]
        if self.mode == "ideal":
            lines.append("generators=" + ", ".join(
                monomial_text(e) for e in self.f))
        else:
            lines.append("f=" + ", ".join(poly_text(c) for c in self.f))
        lines.append("g=" + ("trivial" if self.g is None else poly_text(self.g)))
        return "\n".join(lines) + "\n"

    def argv(self, path):
        args = [self.command, str(path)]
        if self.command == "oracle":
            args += ["--level", str(self.level), "--s0", str(self.s0)]
        if self.command == "check":
            args += ["--sweep", ",".join(map(str, self.sweep))]
        return args + ["--json"]


def monomial_text(exp):
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, exp) if e]
    return "*".join(factors) or "1"


def poly_text(poly):
    parts = []
    for exp, c in sorted(poly.items(), reverse=True):
        mono = monomial_text(exp)
        body = mono if c == 1 and any(exp) else (
            str(c) if not any(exp) else f"{c}*{mono}")
        parts.append(body)
    return " + ".join(parts)


def poly(n, *terms):
    """{exponent: coeff} from (coeff, exponent) pairs."""
    out = {}
    for c, exp in terms:
        assert len(exp) == n
        out[exp] = out.get(exp, 0) + c
    return out


def diagonal(exps):
    n = len(exps)
    return poly(n, *[(1, tuple(e if j == i else 0 for j in range(n)))
                     for i, e in enumerate(exps)])


class Presentation:
    """A seeded change of variables x_i -> u_i x_{perm(i)}."""

    def __init__(self, rng, n, primes):
        self.perm = list(range(n))
        rng.shuffle(self.perm)
        units = [u for u in range(1, 7) if all(u % q for q in primes)]
        self.units = [rng.choice(units) for _ in range(n)]

    def exponent(self, exp):
        out = [0] * len(exp)
        for i, e in enumerate(exp):
            out[self.perm[i]] = e
        return tuple(out)

    def poly(self, f):
        out = {}
        for exp, c in f.items():
            for u, e in zip(self.units, exp):
                c *= u**e
            out[self.exponent(exp)] = c
        return out


def _present(rng, base):
    """The base problem under a seeded change of variables."""
    pres = Presentation(rng, base.n, {base.p, *base.sweep})
    if base.mode == "ideal":
        f = tuple(sorted(pres.exponent(e) for e in base.f))
    else:
        f = tuple(pres.poly(c) for c in base.f)
    g = None if base.g is None else pres.poly(base.g)
    return dataclasses.replace(base, f=f, g=g)


# -- base problems --------------------------------------------------------

FIXTURE_GENERATORS = ((5, 1), (3, 2), (2, 5))
FIXTURE_G = poly(2, (1, (4, 2)), (1, (1, 5)))


def fixture(command, p, **kw):
    return Problem(f"fixture@{p}", command, "ideal", 2, p, FIXTURE_GENERATORS,
                   FIXTURE_G, kind="fixture", **kw)


def single(name, command, p, f, g=None, **kw):
    n = len(next(iter(f)))
    return Problem(f"{name}@{p}", command, "single", n, p, (f,), g, **kw)


def linear_integral(p, factors):
    """Integral of |product of `factors` independent linear forms with unit
    coefficients|: a unimodular change of variables makes them coordinates,
    and the integral of |x| over Z_p is p/(p+1)."""
    return Fraction(p, p + 1) ** factors


def assembly(rng, smoke):
    ladder = [((5, 7), 3), ((7, 9), 5), ((6, 7), 5), ((8, 11), 3), ((9, 10), 7)]
    if smoke:
        ladder = [((3, 4), 5)]
    out = [fixture("compute", p) for p in ((13,) if smoke else (13, 19, 37))]
    for (a, b), p in ladder:
        out.append(single(f"x^{a}+y^{b}", "compute", p, diagonal((a, b)),
                          g_integral=Fraction(1)))
    out.append(single("x^4+y^5;g=x+y", "compute", 5, diagonal((4, 5)),
                      poly(2, (1, (1, 0)), (1, (0, 1))),
                      g_integral=linear_integral(5, 1)))
    return [_present(rng, base) for base in out]


def torus(rng, smoke):
    def at(p):
        return 7 if smoke else p

    sq3 = diagonal((2, 2, 2))
    pair = poly(3, (1, (1, 1, 0)), (1, (0, 0, 2)))
    out = [
        single("x^2+y^3;g=xy+y^2", "compute", at(101), diagonal((2, 3)),
               poly(2, (1, (1, 1)), (1, (0, 2))),
               g_integral=linear_integral(at(101), 2)),
        single("x^2+y^2+z^2", "compute", at(23), sq3, kind="homogeneous",
               g_integral=Fraction(1)),
        single("x^3+y^3+z^3", "compute", at(19), diagonal((3, 3, 3)),
               kind="homogeneous", g_integral=Fraction(1)),
        Problem(f"(x^2+y^2+z^2,xy+z^2)@{at(17)}", "compute", "mapping", 3,
                at(17), (sq3, pair), kind="homogeneous", g_integral=Fraction(1)),
        Problem(f"(x^2y,y^2z,xz^2);g=x+y+z@{at(17)}", "compute", "ideal", 3,
                at(17), ((2, 1, 0), (0, 2, 1), (1, 0, 2)),
                poly(3, (1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))),
                g_integral=linear_integral(at(17), 1)),
        single("x^2+y^3+z^5", "check", 7, diagonal((2, 3, 5)),
               sweep=(7,) if smoke else (7, 11, 13, 17)),
        single("x^3+y^3+z^3", "check", 7, diagonal((3, 3, 3)),
               sweep=(3, 7) if smoke else (3, 7, 13, 19, 23)),
    ]
    return [_present(rng, base) for base in out]


def staircase(rng, facets):
    """n=2 ideal whose generators are the vertices of a strictly convex
    chain with facets-1 edges, so Gamma has exactly `facets` facets."""
    slopes = set()
    while len(slopes) < facets - 2:
        slopes.add(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
    edges = [(s.denominator, s.numerator) for s in sorted(slopes, reverse=True)]
    x, y = 1, 1 + sum(dy for _, dy in edges)  # off the axes
    points = [(x, y)]
    for dx, dy in edges:
        x, y = x + dx, y - dy
        points.append((x, y))
    return Problem(f"staircase[{facets} facets]", "poles", "ideal", 2, 2,
                   tuple(sorted(points)))


# Generators of an n=3 ideal whose Newton polyhedron has 10 facets and 7
# distinct candidate poles; the seed permutes the variables.
SKELETON_3D = ((1, 1, 7), (1, 8, 1), (2, 1, 4), (2, 2, 3), (2, 4, 5),
               (3, 1, 2), (3, 4, 1), (4, 3, 1), (7, 1, 1))


def ideal_3d(rng, generators):
    """n=3 ideal: the skeleton plus generators drawn strictly inside Gamma
    (a rounded-up convex combination of three skeleton points plus (1,1,1)
    beats every facet inequality), which touch no face."""
    perm = list(range(3))
    rng.shuffle(perm)
    verts = [tuple(v[perm[i]] for i in range(3)) for v in SKELETON_3D]
    points = set(verts)
    while len(points) < generators:
        picks = rng.sample(verts, 3)
        w = [rng.randint(1, 4) for _ in picks]
        q = tuple(-(-sum(wi * v[i] for wi, v in zip(w, picks)) // sum(w)) + 1
                  for i in range(3))
        points.add(q)
    return Problem(f"ideal3[{generators} generators]", "poles", "ideal", 3, 2,
                   tuple(sorted(points)))


def geometry(rng, smoke):
    out = []
    for diag in ((2, 3, 3),) if smoke else ((2, 3, 5), (3, 3, 4)):
        name = "+".join(f"{v}^{e}" for v, e in zip(VARIABLES, diag))
        out.append(_present(rng, single(name, "compute", 2, diagonal(diag),
                                        g_integral=Fraction(1))))
    for facets in ((6,) if smoke else (13, 14)):
        out.append(staircase(rng, facets))
    out.append(ideal_3d(rng, 12 if smoke else 20))
    return out


def oracle(rng, smoke):
    sq2, sq3 = diagonal((2, 2)), diagonal((2, 2, 2))
    pair = poly(3, (1, (1, 1, 0)), (1, (0, 0, 2)))
    if smoke:
        out = [single("x^2+y^2", "oracle", 5, sq2, kind="homogeneous", level=2)]
    else:
        out = [
            fixture("oracle", 7, level=3),
            single("x^2+y^2", "oracle", 7, sq2, kind="homogeneous", level=3),
            Problem("(x^2+y^2+z^2,xy+z^2)@7", "oracle", "mapping", 3, 7,
                    (sq3, pair), kind="homogeneous", level=2),
        ]
    return [dataclasses.replace(_present(rng, base), s0=rng.choice((1, 2)))
            for base in out]


BUILDERS = {"assembly": assembly, "torus": torus, "geometry": geometry,
            "oracle": oracle}


def build(workload, seed, smoke=False):
    """The workload's problems for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, smoke)


def write_problems(problems, directory):
    """Write one problem file per problem; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, pr in enumerate(problems):
        path = directory / f"op{i:02d}.txt"
        path.write_text(pr.text(), encoding="ascii")
        paths.append(path)
    return paths
