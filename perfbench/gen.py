"""Seeded metric-file generator for the benchmark.

Every generated metric is emitted twice: as metric-file text for the
program under test, and as a hand-written Python closed form that the
benchmark's own finite-difference oracle (oracle.py) evaluates.  The two are
written independently, so a transcription slip in either one shows up as a
failed correctness check rather than being mirrored into both.

Parameters are always bound on the command line (``--param``): a metric file
with unbound parameters cannot be sampled.  The seed varies parameter values,
coordinate ranges and small exponents, never the shape, so the symbolic
work per shape stays comparable from seed to seed.

Why each family is here:

- ``static_fh``: static, diagonal, g_tt = -1/g_rr (Hayward).  The common
  black-hole shape, like the bardeen builtin but with another lapse, so the
  benchmark does not measure only the catalogue's own expressions.
- ``static_fneh``: static, diagonal, g_tt != -1/g_rr.  Breaks the f = h
  cancellations; its Ricci tensor is not of the f = h form and exp() enters
  the derivative tree.
- ``ingoing``: off-diagonal dv dr term (Reissner-Nordstrom-de Sitter in
  ingoing coordinates).  Exercises the symbolic inverse with a nonzero
  off-diagonal block, as the reissner_nordstrom builtin does.
- ``time_dependent``: diagonal and depending on t only (shapes ``flrw``,
  with spatial curvature, and power-law ``bianchi_i``).  Moves the
  derivative work to another coordinate, away from the horizon heuristics
  of the static shapes.
- ``rt_conformal``: conformally flat with a factor depending on r and
  theta.  Two-coordinate dependence makes every layer much larger; it is
  the stress case and is kept to a small share of the mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

# generator shapes; flrw and bianchi_i are the two shapes of the
# time_dependent family, generated separately so that every cycle of a
# workload has the same mix of shapes whatever the seed
SHAPES = ("static_fh", "static_fneh", "ingoing", "flrw", "bianchi_i",
          "rt_conformal")


@dataclass
class GeneratedMetric:
    name: str
    coords: List[str]
    params: Dict[str, float]
    ranges: Dict[str, tuple]
    text: Optional[str]                  # metric-file source
    closed_form: Callable[[Dict[str, float]], np.ndarray]

    def param_args(self) -> List[str]:
        out = []
        for k, v in sorted(self.params.items()):
            out += ["--param", f"{k}={v!r}"]
        return out


def _u(rng, lo, hi) -> float:
    return round(rng.uniform(lo, hi), 4)


def _header(coords, params, ranges) -> str:
    lines = ["dim 4", "coords " + " ".join(coords)]
    if params:
        lines.append("params " + " ".join(sorted(params)))
    for c, (lo, hi) in ranges.items():
        lines.append(f"range {c} {lo!r} {hi!r}")
    return "\n".join(lines) + "\n"


def _spherical(x):
    return x["r"] ** 2, x["r"] ** 2 * math.sin(x["theta"]) ** 2


def static_fh(rng, name):
    p = {"M": _u(rng, 0.6, 1.0), "l": _u(rng, 0.2, 0.5)}
    lo = round(2 * p["M"] + 0.6, 4)
    ranges = {"r": (lo, round(lo + 1.5, 4))}
    lapse = "1 - 2*M*r^2/(r^3 + 2*M*l^2)"
    text = _header(["t", "r", "theta", "phi"], p, ranges) + (
        f"g[0][0] = -({lapse})\n"
        f"g[1][1] = 1/({lapse})\n"
        "g[2][2] = r^2\n"
        "g[3][3] = r^2*sin(theta)^2\n")

    def g(x):
        r = x["r"]
        f = 1 - 2 * x["M"] * r ** 2 / (r ** 3 + 2 * x["M"] * x["l"] ** 2)
        return np.diag([-f, 1 / f, *_spherical(x)])
    return GeneratedMetric(name, ["t", "r", "theta", "phi"], p, ranges,
                           text, g)


def static_fneh(rng, name):
    p = {"M": _u(rng, 0.5, 0.9), "a": _u(rng, 0.1, 0.5),
         "q": _u(rng, 0.1, 0.5)}
    lo = round(2 * p["M"] + 0.7, 4)
    ranges = {"r": (lo, round(lo + 1.5, 4))}
    text = _header(["t", "r", "theta", "phi"], p, ranges) + (
        "g[0][0] = -exp(-2*a/r)*(1 - 2*M/r)\n"
        "g[1][1] = 1/(1 - 2*M/r + q^2/r^2)\n"
        "g[2][2] = r^2\n"
        "g[3][3] = r^2*sin(theta)^2\n")

    def g(x):
        r, M = x["r"], x["M"]
        f = math.exp(-2 * x["a"] / r) * (1 - 2 * M / r)
        h = 1 - 2 * M / r + x["q"] ** 2 / r ** 2
        return np.diag([-f, 1 / h, *_spherical(x)])
    return GeneratedMetric(name, ["t", "r", "theta", "phi"], p, ranges,
                           text, g)


def ingoing(rng, name):
    p = {"M": _u(rng, 0.5, 0.9), "q": _u(rng, 0.1, 0.5),
         "L": _u(rng, 0.005, 0.02)}
    lo = round(2 * p["M"] + 0.6, 4)
    ranges = {"r": (lo, round(lo + 1.5, 4))}
    text = _header(["v", "r", "theta", "phi"], p, ranges) + (
        "g[0][0] = -(1 - 2*M/r + q^2/r^2 - L*r^2)\n"
        "g[0][1] = 1\n"
        "g[2][2] = r^2\n"
        "g[3][3] = r^2*sin(theta)^2\n")

    def g(x):
        r = x["r"]
        f = 1 - 2 * x["M"] / r + x["q"] ** 2 / r ** 2 - x["L"] * r ** 2
        out = np.diag([-f, 0.0, *_spherical(x)])
        out[0, 1] = out[1, 0] = 1.0
        return out
    return GeneratedMetric(name, ["v", "r", "theta", "phi"], p, ranges,
                           text, g)


_EXPONENTS = ((1, 3), (1, 2), (2, 3), (3, 4), (1, 1))


def _power(rng) -> str:
    n, d = rng.choice(_EXPONENTS)
    return f"{2 * n}/{d}"           # exponent of a(t)^2 for a = t^(n/d)


def flrw(rng, name):
    """time_dependent family: FLRW with spatial curvature k."""
    a2 = _power(rng)
    p = {"k": _u(rng, -0.5, 0.5)}
    coords = ["t", "r", "theta", "phi"]
    ranges = {"t": (1.0, 3.0), "r": (0.2, 0.9)}
    text = _header(coords, p, ranges) + (
        "g[0][0] = -1\n"
        f"g[1][1] = t^({a2})/(1 - k*r^2)\n"
        f"g[2][2] = t^({a2})*r^2\n"
        f"g[3][3] = t^({a2})*r^2*sin(theta)^2\n")
    e = _fraction(a2)

    def g(x):
        s = x["t"] ** e
        r2, r2s = _spherical(x)
        return np.diag([-1.0, s / (1 - x["k"] * x["r"] ** 2), s * r2,
                        s * r2s])
    return GeneratedMetric(name, coords, p, ranges, text, g)


def bianchi_i(rng, name):
    """time_dependent family: power-law Bianchi I."""
    powers = [_power(rng) for _ in range(3)]
    coords = ["t", "x", "y", "z"]
    ranges = {"t": (1.0, 3.0)}
    text = _header(coords, {}, ranges) + "g[0][0] = -1\n" + "".join(
        f"g[{i}][{i}] = t^({a})\n" for i, a in enumerate(powers, start=1))
    es = [_fraction(a) for a in powers]

    def g(x):
        return np.diag([-1.0] + [x["t"] ** e for e in es])
    return GeneratedMetric(name, coords, {}, ranges, text, g)


def _fraction(text: str) -> float:
    n, d = text.split("/")
    return int(n) / int(d)


def rt_conformal(rng, name):
    p = {"a": _u(rng, 0.05, 0.2)}
    ranges = {"r": (1.0, 2.0)}
    omega2 = "(1 + a*r*cos(theta))^2"
    text = _header(["t", "r", "theta", "phi"], p, ranges) + (
        f"g[0][0] = -{omega2}\n"
        f"g[1][1] = {omega2}\n"
        f"g[2][2] = {omega2}*r^2\n"
        f"g[3][3] = {omega2}*r^2*sin(theta)^2\n")

    def g(x):
        w = (1 + x["a"] * x["r"] * math.cos(x["theta"])) ** 2
        r2, r2s = _spherical(x)
        return np.diag([-w, w, w * r2, w * r2s])
    return GeneratedMetric(name, ["t", "r", "theta", "phi"], p, ranges,
                           text, g)


_MAKERS = {"static_fh": static_fh, "static_fneh": static_fneh,
           "ingoing": ingoing, "flrw": flrw, "bianchi_i": bianchi_i,
           "rt_conformal": rt_conformal}


def generate(shape: str, rng, name: str) -> GeneratedMetric:
    """One metric of the given shape, drawn from rng (a random.Random)."""
    return _MAKERS[shape](rng, name)


# closed forms of the catalogue's builtins, transcribed from their published
# definitions, for the oracle checks of point_sweep and symbolic_dump
def _bardeen(x):
    r = x["r"]
    f = 1 - 2 * x["M"] * r ** 2 / (x["e"] ** 2 + r ** 2) ** 1.5
    return np.diag([-f, 1 / f, *_spherical(x)])


def _reissner_nordstrom(x):
    r = x["r"]
    out = np.diag([-(1 - 2 * x["m"] / r + x["q"] ** 2 / r ** 2), 0.0,
                   *_spherical(x)])
    out[0, 1] = out[1, 0] = -1.0
    return out


def _schwarzschild(x):
    f = 1 - 2 * x["M"] / x["r"]
    return np.diag([-f, 1 / f, *_spherical(x)])


_SPHERICAL = ["t", "r", "theta", "phi"]
_BUILTINS = {
    "bardeen": (_SPHERICAL, {"M": 1.0, "e": 0.5}, {"r": (1.5, 3.0)},
                _bardeen),
    "reissner_nordstrom": (_SPHERICAL, {"m": 1.0, "q": 0.5},
                           {"r": (1.5, 3.0)}, _reissner_nordstrom),
    "schwarzschild": (_SPHERICAL, {"M": 1.0}, {"r": (2.2, 4.0)},
                      _schwarzschild),
    "minkowski": (["t", "x", "y", "z"], {}, {},
                  lambda x: np.diag([-1.0, 1.0, 1.0, 1.0])),
}
BUILTINS = tuple(_BUILTINS)


def builtin(metric_id: str) -> GeneratedMetric:
    """A catalogue builtin with its closed form; text is None because the
    program is given the builtin's id, not a file."""
    coords, params, ranges, g = _BUILTINS[metric_id]
    return GeneratedMetric(metric_id, coords, dict(params), ranges, None, g)


def sample_point(m: GeneratedMetric, rng) -> Dict[str, float]:
    """A point inside the metric's coordinate ranges, with its params."""
    x = {}
    for c in m.coords:
        lo, hi = m.ranges.get(c, (0.3, math.pi - 0.3) if c == "theta"
                              else (1.0, 3.0))
        x[c] = rng.uniform(lo, hi)
    x.update(m.params)
    return x
