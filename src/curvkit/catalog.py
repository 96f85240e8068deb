"""The metric description file loader, the built-in metrics written in its
format, and the published reference data.

A metric file is plain text, one directive per line: `dim`, `coords`, the
optional `params` and `range <coord> <lo> <hi>`, then `g[i][j] = <expr>`
(see _BUILTINS).  `#` starts a comment.  Unspecified components are zero,
g[j][i] is filled by symmetry, and assigning both g[i][j] and g[j][i] is an
error.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import exprcore as ec
from .exprcore import ParseError
from .tensor import ComponentTensor


class CatalogError(Exception):
    pass


@dataclass
class MetricSpec:
    id: str
    dim: int
    coords: List[str]
    params: List[str]
    components: np.ndarray              # (n,n) object array of Expr
    defaults: Dict[str, float] = field(default_factory=dict)
    ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def coordinate_range(self, name: str) -> Tuple[float, float]:
        return self.ranges.get(name, default_range(name))

    def g(self) -> ComponentTensor:
        return ComponentTensor(self.components, 2, self.dim)

    def bind(self, params: Optional[Dict[str, float]]) -> Dict[str, float]:
        """The defaults, overridden by params; every parameter that occurs
        in g must get a value."""
        unknown = set(params or ()) - set(self.params)
        if unknown:
            raise CatalogError(f"unknown parameters {sorted(unknown)}")
        bound = dict(self.defaults, **(params or {}))
        unbound = set().union(*(e.free_symbols()
                                for e in self.components.flat))
        unbound -= set(self.coords) | set(bound)
        if unbound:
            raise CatalogError(f"no value for the metric's parameters "
                               f"{sorted(unbound)}")
        return bound

    def regular_points(self, names: List[str], bound: Dict[str, float],
                       need: int, seed: int, floor: float = 0.0
                       ) -> Tuple[List[Dict[str, float]], np.ndarray]:
        """The first need points where g is finite, has |det| > 1e-12 with
        each row divided by its largest |entry| (a test free of g's scale;
        a norm would square and overflow) and |g00| >= floor.  Random(seed)
        draws each of names in order, one candidate at a time, in batches
        of need, with bound for the other symbols, for at most 200 * need
        candidates.  Also returns the candidates counted by the first
        check each failed: not finite, singular, below floor, none."""
        rng = random.Random(seed)
        points: List[Dict[str, float]] = []
        tally = np.zeros(4, dtype=int)
        while len(points) < need and tally.sum() < 200 * need:
            cand = np.array([[rng.uniform(*self.coordinate_range(nm))
                              for nm in names] for _ in range(need)])
            m = self.g().evaluate(dict(zip(names, cand.T), **bound)).data
            with np.errstate(all="ignore"):
                scaled = m / np.abs(m).max(axis=2, keepdims=True)
                why = np.select([~np.isfinite(m).all(axis=(1, 2)),
                                 ~(np.abs(np.linalg.det(scaled)) > 1e-12),
                                 np.abs(m[:, 0, 0]) < floor], [0, 1, 2], 3)
            tally += np.bincount(why, minlength=4)
            keep = np.flatnonzero(why == 3)[:need - len(points)]
            points += [dict(zip(names, row)) for row in cand[keep].tolist()]
        return points, tally


def default_range(name: str) -> Tuple[float, float]:
    """Sampling window of a symbol without a `range` line; angle-like names
    stay inside (0, pi)."""
    if name.startswith("theta"):
        return (0.3, math.pi - 0.3)
    return (1.0, 3.0)


# each builtin as metric-file text, with its parameter defaults
_BUILTINS = {
    "bardeen": ("""\
dim 4
coords t r theta phi
params M e
range r 1.5 3
g[0][0] = -(1 - 2*M*r^2/(e^2+r^2)^(3/2))
g[1][1] = 1/(1 - 2*M*r^2/(e^2+r^2)^(3/2))
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
""", {"M": 1.0, "e": 0.5}),
    "reissner_nordstrom": ("""\
# ingoing coordinates, with a dt dr cross term
dim 4
coords t r theta phi
params m q
range r 1.5 3
g[0][0] = -(1 - 2*m/r + q^2/r^2)
g[0][1] = -1
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
""", {"m": 1.0, "q": 0.5}),
    "schwarzschild": ("""\
dim 4
coords t r theta phi
params M
range r 2.2 4
g[0][0] = -(1 - 2*M/r)
g[1][1] = 1/(1 - 2*M/r)
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
""", {"M": 1.0}),
    "minkowski": ("""\
dim 4
coords t x y z
g[0][0] = -1
g[1][1] = 1
g[2][2] = 1
g[3][3] = 1
""", {}),
}
BUILTIN_IDS = tuple(_BUILTINS)


def builtin_source(metric_id: str) -> str:
    """The metric-file text of a builtin."""
    if metric_id not in _BUILTINS:
        raise CatalogError(f"unknown metric id '{metric_id}' "
                           f"(builtins: {', '.join(BUILTIN_IDS)})")
    return _BUILTINS[metric_id][0]


def builtin(metric_id: str) -> MetricSpec:
    spec = parse_metric_source(builtin_source(metric_id), metric_id)
    spec.defaults = dict(_BUILTINS[metric_id][1])
    return spec


def parse_metric_source(text: str, metric_id: str = "custom") -> MetricSpec:
    dim = None
    coords: Optional[List[str]] = None
    params: List[str] = []
    ranges: Dict[str, Tuple[float, float]] = {}
    # the line of each directive that may occur once: dim, coords, params
    # and range <name>
    at: Dict[str, int] = {}
    entries: Dict[Tuple[int, int], Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head in ("dim", "coords", "params", "range"):
            key = " ".join(line.split()[:1 + (head == "range")])
            if key in at:
                raise CatalogError(f"line {lineno}: {key} already declared "
                                   f"at line {at[key]}")
            at[key] = lineno
        if head == "dim":
            try:
                dim = int(rest)
            except ValueError:
                dim = 0
            if dim < 1:
                raise CatalogError(f"line {lineno}: bad dimension {rest!r}")
        elif head == "coords":
            coords = rest.split()
        elif head == "params":
            params = rest.split()
        elif head == "range":
            parts = rest.split()
            if len(parts) != 3:
                raise CatalogError(f"line {lineno}: range needs "
                                   "'range <coord> <lo> <hi>'")
            try:
                lo, hi = float(parts[1]), float(parts[2])
            except ValueError:
                lo = hi = math.nan
            if not -math.inf < lo < hi < math.inf:
                raise CatalogError(f"line {lineno}: range bounds must be "
                                   f"finite numbers with lo < hi, got "
                                   f"{parts[1]} {parts[2]}")
            ranges[parts[0]] = (lo, hi)
        elif head.startswith("g["):
            lhs, eq, expr_text = line.partition("=")
            if not eq:
                raise CatalogError(f"line {lineno}: missing '=' in "
                                   "component assignment")
            idx_text = lhs.strip()
            target = re.fullmatch(r"g\[([0-9]+)\]\[([0-9]+)\]", idx_text)
            if target is None:
                raise CatalogError(f"line {lineno}: bad component index "
                                   f"{idx_text!r}")
            i, j = int(target[1]), int(target[2])
            if dim is None or coords is None:
                raise CatalogError(f"line {lineno}: dim and coords must "
                                   "come before components")
            if not (0 <= i < dim and 0 <= j < dim):
                raise CatalogError(f"line {lineno}: index out of range for "
                                   f"dimension {dim}")
            key = (min(i, j), max(i, j))
            if key in entries:
                raise CatalogError(
                    f"line {lineno}: component g[{i}][{j}] already assigned "
                    f"at line {entries[key][1]}")
            entries[key] = (expr_text.strip(), lineno)
        else:
            raise CatalogError(f"line {lineno}: unrecognized directive "
                               f"{head!r}")
    if dim is None or coords is None:
        raise CatalogError("file must declare dim and coords")
    if len(coords) != dim:
        raise CatalogError(f"line {at['coords']}: expected {dim} coordinate "
                           f"names, got {len(coords)}")
    kinds: Dict[str, str] = {}
    for kind, names in (("coords", coords), ("params", params)):
        for name in names:
            if name in kinds:
                raise CatalogError(f"line {at[kind]}: '{name}' is "
                                   f"already declared in {kinds[name]}")
            kinds[name] = kind
    for name in ranges:
        if name not in kinds:
            raise CatalogError(f"line {at['range ' + name]}: range of "
                               f"undeclared name '{name}'")
    allowed = set(kinds)
    comps = np.empty((dim, dim), dtype=object)
    comps[...] = ec.ZERO
    for (i, j), (expr_text, lineno) in entries.items():
        try:
            e = ec.parse_expr(expr_text, allowed)
        except ParseError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from None
        comps[i, j] = e
        comps[j, i] = e
    spec = MetricSpec(id=metric_id, dim=dim, coords=coords, params=params,
                      components=comps, ranges=ranges)
    # the load probe: g must be regular at 4 of the first 32 draws of seed
    # 11 over the coordinates and the parameters.  The search runs in
    # batches of 4, so it passes 32 draws exactly when it found fewer
    _, tally = spec.regular_points(coords + params, {}, 4, 11)
    if tally.sum() > 32:
        raise CatalogError(f"metric '{metric_id}' is singular or not finite "
                           f"at all probe points")
    return spec


def load_metric(path: str) -> MetricSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CatalogError(f"cannot read metric file '{path}': "
                           f"{exc.strerror or exc}") from None
    import os
    metric_id = os.path.splitext(os.path.basename(path))[0]
    return parse_metric_source(text, metric_id)


# ---------------------------------------------------------------------------
# published reference data for the Bardeen metric
#
# Component values and closed-form coefficients transcribed verbatim from the
# published tables for this spacetime.  The verify layer compares them against
# the engine; entries that disagree are logged and the engine value is
# re-checked against a finite-difference oracle.  Shorthand used below:
#   P  = e^2 + r^2          (square of the published radial auxiliary)
#   D  = -2*M*r^2 + P^(3/2) (P^(3/2) - 2*M*r^2, the lapse numerator)
#   s2 = sin(theta)^2

_P = "(e^2+r^2)"
_D = f"(-2*M*r^2+{_P}^(3/2))"
_S2 = "sin(theta)^2"


def _chain(group, kind, base_expr, entries):
    """entries: list of (indices, factor) where the component equals
    factor * base_expr."""
    out = []
    for idx, factor in entries:
        expr = base_expr if factor == "1" else f"({factor})*({base_expr})"
        out.append({"group": group, "kind": kind, "indices": idx,
                    "expr": expr})
    return out


def reference_component_checks() -> list:
    """All published nonzero component table entries for the Bardeen
    metric, 1-based indices, derivative index last for derivative slots."""
    P, D, s2 = _P, _D, _S2
    c = []
    A = c.extend

    # Riemann, Ricci, scalar curvature
    A(_chain("riemann_ricci", "tensor:R",
             f"M*(15*r^2*e^2-2*{P}^2)/{P}^(7/2)", [((1, 2, 1, 2), "1")]))
    A(_chain("riemann_ricci", "tensor:R",
             f"M*r^2*({P}-3*e^2)*{D}/{P}^4",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("riemann_ricci", "tensor:R",
             f"-M*r^2*({P}-3*e^2)/({P}*{D})",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), s2)]))
    A(_chain("riemann_ricci", "tensor:R",
             f"2*M*r^4*{s2}/{P}^(3/2)", [((3, 4, 3, 4), "1")]))
    A(_chain("riemann_ricci", "tensor:S",
             f"3*M*e^2*(2*{P}-3*e^2)*{D}/{P}^5", [((1, 1), "1")]))
    A(_chain("riemann_ricci", "tensor:S",
             f"3*e^2*M*(5*r^2-2*{P})/({P}^2*{D})", [((2, 2), "1")]))
    A(_chain("riemann_ricci", "tensor:S",
             f"-6*M*e^2*r^2/{P}^(5/2)",
             [((3, 3), "1"), ((4, 4), s2)]))
    c.append({"group": "riemann_ricci", "kind": "kappa", "indices": (),
              "expr": f"6*M*e^2*(5*r^2-4*{P})/{P}^(7/2)"})

    # Kulkarni-Nomizu wedge products L1 = g^g, L2 = g^S, L3 = S^S
    A(_chain("wedge_products", "wedge:g:g", "2", [((1, 2, 1, 2), "1")]))
    A(_chain("wedge_products", "wedge:g:g",
             f"2*(r^2-2*M*r^4/{P}^(3/2))",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("wedge_products", "wedge:g:g",
             f"2*r^2*{P}^(3/2)/(2*M*r^2-{P}^(3/2))",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), f"-{s2}")]))
    A(_chain("wedge_products", "wedge:g:g",
             f"-2*r^2*{s2}", [((3, 4, 3, 4), "1")]))
    A(_chain("wedge_products", "wedge:g:S",
             f"6*M*e^2*(5*r^2-2*{P})/{P}^(7/2)", [((1, 2, 1, 2), "1")]))
    A(_chain("wedge_products", "wedge:g:S",
             f"-3*M*e^2*r^2*(4*{P}-5*r^2)*{D}/{P}^5",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("wedge_products", "wedge:g:S",
             f"3*M*e^2*r^2*(4*{P}-5*r^2)/({P}^2*{D})",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), s2)]))
    A(_chain("wedge_products", "wedge:g:S",
             f"12*M*e^2*r^4*{s2}/{P}^(5/2)", [((3, 4, 3, 4), "1")]))
    A(_chain("wedge_products", "wedge:S:S",
             f"18*M^2*e^4*(2*{P}-5*r^2)^2/{P}^7", [((1, 2, 1, 2), "1")]))
    A(_chain("wedge_products", "wedge:S:S",
             f"36*M^2*e^4*r^2*(2*{P}-5*r^2)*{D}/{P}^(15/2)",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("wedge_products", "wedge:S:S",
             f"-36*M^2*e^4*r^2*(2*{P}-5*r^2)/({P}^(9/2)*{D})",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), s2)]))
    A(_chain("wedge_products", "wedge:S:S",
             f"-72*M^2*e^4*r^4*{s2}/{P}^5", [((3, 4, 3, 4), "1")]))

    # conformal curvature
    A(_chain("conformal", "tensor:C",
             f"M*r^2*(3*{P}-5*r^2)/{P}^(7/2)",
             [((1, 2, 1, 2), "1"), ((3, 4, 3, 4), f"-r^4*{s2}")]))
    A(_chain("conformal", "tensor:C",
             f"-M*r^4*(3*{P}-5*r^2)*{D}/(2*{P}^(5/2))",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("conformal", "tensor:C",
             f"M*r^4*(3*{P}-5*r^2)/(2*{P}^2*{D})",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), s2)]))

    # covariant derivative of R (derivative index last)
    A(_chain("nabla_riemann", "tensor:nabla_R",
             f"3*M*r*(12*e^4-21*e^2*r^2+2*r^5)/{P}^(9/2)",
             [((1, 2, 1, 2, 2), "1")]))
    A(_chain("nabla_riemann", "tensor:nabla_R",
             f"-3*M*r^3*(5*r^2-4*{P})*{D}/{P}^(5/2)",
             [((1, 2, 1, 3, 3), "1"), ((1, 3, 1, 3, 2), "-1"),
              ((1, 2, 1, 4, 4), s2), ((1, 4, 1, 4, 2), s2)]))
    A(_chain("nabla_riemann", "tensor:nabla_R",
             f"3*M*r^3*(5*r^2-4*{P})/({P}^2*{D})",
             [((2, 3, 2, 3, 2), "1"), ((2, 4, 2, 4, 2), s2)]))
    A(_chain("nabla_riemann", "tensor:nabla_R",
             f"3*M*r^5*{s2}/{P}^(5/2)",
             [((2, 3, 3, 4, 4), "1"), ((2, 4, 3, 4, 3), "-1"),
              ((3, 4, 3, 4, 2), "-1/2")]))

    # covariant derivative of C
    A(_chain("nabla_conformal", "tensor:nabla_C",
             f"r*M*(6*e^4-23*e^2*r^2+6*r^5)/{P}^(9/2)",
             [((1, 2, 1, 2, 2), "1"), ((3, 4, 3, 4, 2), f"-r^4*{s2}")]))
    A(_chain("nabla_conformal", "tensor:nabla_C",
             f"3*M*r^3*(3*{P}-5*r^2)*{D}/(2*{P}^(5/2))",
             [((1, 2, 1, 3, 3), "1"), ((1, 2, 1, 4, 4), s2)]))
    A(_chain("nabla_conformal", "tensor:nabla_C",
             f"-M*r^3*(6*e^4-23*e^2*r^2+6*r^4)*{D}/(2*{P}^3)",
             [((1, 3, 1, 3, 2), "1"), ((1, 4, 1, 4, 2), f"-{s2}")]))
    A(_chain("nabla_conformal", "tensor:nabla_C",
             f"M*r^3*(6*e^4-23*e^2*r^2+6*r^4)/(2*{P}^3*{D})",
             [((2, 3, 2, 3, 2), "1"), ((2, 4, 2, 4, 2), s2)]))
    A(_chain("nabla_conformal", "tensor:nabla_C",
             f"-3*M*r^5*(3*{P}-5*r^2)*{s2}/(2*{P}^(7/2))",
             [((2, 3, 3, 4, 4), "1"), ((2, 4, 3, 4, 3), "-1")]))

    # curvature products: B1 = R.C, B2 = C.R
    A(_chain("riemann_dot_weyl", "dot:R:C",
             f"-3*M^2*r^4*(2*{P}-3*r^2)*(3*{P}-5*r^2)/(2*{P}^6)",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 2, 4, 1, 4), s2),
              ((1, 2, 1, 3, 2, 3), "-1"), ((1, 2, 1, 4, 2, 4), f"-{s2}")]))
    A(_chain("riemann_dot_weyl", "dot:R:C",
             f"-3*M^2*r^6*(2*{P}-3*r^2)*(3*{P}-5*r^2)*(-2*M*r^2+{P})*{s2}"
             f"/(2*{P}^(15/2))",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("riemann_dot_weyl", "dot:R:C",
             f"3*M^2*r^6*(2*{P}-3*r^2)*(3*{P}-5*r^2)*{s2}/(2*{P}^(9/2)*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "-1")]))
    A(_chain("weyl_dot_riemann", "dot:C:R",
             f"3*M^2*r^6*(-4*{P}+5*r^2)*(3*{P}-5*r^2)/(2*{P}^7)",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 1, 3, 2, 3), "-1"),
              ((1, 2, 2, 4, 1, 4), s2), ((1, 2, 1, 4, 2, 4), f"-{s2}")]))
    A(_chain("weyl_dot_riemann", "dot:C:R",
             f"3*M^2*r^8*(3*{P}-5*r^2)*{D}/(2*{P}^(15/2))",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("weyl_dot_riemann", "dot:C:R",
             f"-3*M^2*r^8*(3*{P}-5*r^2)/(2*{P}^(9/2)*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "-1")]))

    # Tachibana tensors F1 = Q(g,R), F2 = Q(S,R), F3 = Q(g,C), F4 = Q(S,C)
    A(_chain("tachibana_g_R", "tach:g:R",
             f"-3*M*r^4*(-4*{P}+5*r^2)/{P}^(7/2)",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 1, 4, 2, 4), f"-{s2}"),
              ((1, 2, 2, 4, 1, 4), s2), ((1, 2, 1, 3, 2, 3), "-1")]))
    A(_chain("tachibana_g_R", "tach:g:R",
             f"3*M*r^6*(2*M*r^2-{P}^(3/2))*{s2}/{P}^2",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("tachibana_g_R", "tach:g:R",
             f"3*M*r^6*{s2}/({P}*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "-1")]))
    A(_chain("tachibana_S_R", "tach:S:R",
             f"3*M^2*e^2*r^4*(14*{P}+13*r^2)/{P}^6",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 1, 3, 2, 3), "-1"),
              ((1, 2, 2, 4, 1, 4), s2), ((1, 2, 1, 4, 2, 4), f"-{s2}")]))
    A(_chain("tachibana_S_R", "tach:S:R",
             f"-12*M^2*e^2*r^6*{D}*{s2}/{P}^(13/2)",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("tachibana_S_R", "tach:S:R",
             f"12*M^2*e^2*r^6*{s2}/({P}^(7/2)*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "-1")]))
    A(_chain("tachibana_g_C", "tach:g:C",
             f"3*M*r^4*(3*{P}-5*r^2)/(2*{P}^(7/2))",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 1, 3, 2, 3), "-1"),
              ((1, 2, 2, 4, 1, 4), s2), ((1, 2, 1, 4, 2, 4), f"-{s2}")]))
    A(_chain("tachibana_g_C", "tach:g:C",
             f"3*M*r^6*(3*{P}-5*r^2)*{D}*{s2}/(2*{P}^5)",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("tachibana_g_C", "tach:g:C",
             f"-3*M*r^6*(3*{P}-5*r^2)*{s2}/(2*{P}^2*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "-1")]))
    A(_chain("tachibana_S_C", "tach:S:C",
             f"3*M^2*e^2*r^4*(3*{P}-5*r^2)*(6*{P}-7*r^2)/(2*{P}^7)",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 2, 4, 1, 4), s2),
              ((1, 2, 1, 3, 2, 3), "-1"), ((1, 2, 1, 4, 2, 4), s2)]))
    A(_chain("tachibana_S_C", "tach:S:C",
             f"-3*M^2*e^2*r^6*(3*{P}-5*r^2)^2*{D}*{s2}/{P}^(17/2)",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("tachibana_S_C", "tach:S:C",
             f"3*M^2*e^2*r^6*(3*{P}-5*r^2)/({P}^(11/2)*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "1")]))

    # B3 = W.R, B4 = K.R
    A(_chain("concircular_dot_riemann", "dot:W:R",
             f"3*M^2*r^6*(-4*{P}+5*r^2)*(3*{P}-5*r^2)/(2*{P}^7)",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 1, 3, 2, 3), "-1"),
              ((1, 2, 2, 4, 1, 4), s2), ((1, 2, 1, 4, 2, 4), f"-{s2}")]))
    A(_chain("concircular_dot_riemann", "dot:W:R",
             f"3*M^2*r^8*(3*{P}-5*r^2)*{D}*{s2}/(2*{P}^(15/2))",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("concircular_dot_riemann", "dot:W:R",
             f"-3*M^2*r^8*(3*{P}-5*r^2)*{s2}/(2*{P}^(9/2)*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "-1")]))
    A(_chain("conharmonic_dot_riemann", "dot:K:R",
             f"-3*M^2*r^4*(-4*{P}+5*r^2)*(8*e^4-5*e^2*r^2+2*r^4)/(2*{P}^7)",
             [((1, 2, 2, 3, 1, 3), "1"), ((1, 2, 1, 3, 2, 3), "-1"),
              ((1, 2, 2, 4, 1, 4), s2), ((1, 2, 1, 4, 2, 4), f"-{s2}")]))
    A(_chain("conharmonic_dot_riemann", "dot:K:R",
             f"-3*M^2*r^6*(8*e^4-5*e^2*r^2+2*r^4)*{D}*{s2}/(2*{P}^(15/2))",
             [((1, 4, 3, 4, 1, 3), "1"), ((1, 3, 3, 4, 1, 4), "-1")]))
    A(_chain("conharmonic_dot_riemann", "dot:K:R",
             f"3*M^2*r^6*(8*e^4-5*e^2*r^2+2*r^4)*{s2}/(2*{P}^(9/2)*{D})",
             [((2, 4, 3, 4, 2, 3), "1"), ((2, 3, 3, 4, 2, 4), "-1")]))

    # energy-momentum tensor and its products (Lambda kept symbolic)
    A(_chain("stress_energy", "tensor:T",
             f"-{D}*(6*M*e^2+{P}^(5/2)*Lambda)/{P}^4", [((1, 1), "1")]))
    A(_chain("stress_energy", "tensor:T",
             f"(6*M*e^2+{P}^(5/2)*Lambda)/({P}*{D})", [((2, 2), "1")]))
    A(_chain("stress_energy", "tensor:T",
             f"r^2*(3*M*e^2*(2*{P}-5*r^2)+{P}^(7/2)*Lambda)/{P}^(7/2)",
             [((3, 3), "1"), ((4, 4), s2)]))
    A(_chain("riemann_dot_stress", "dot:R:T",
             f"15*M^2*e^2*r^4*(-2*{P}+3*r^2)*{D}/(8*{P}^(15/2))",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("riemann_dot_stress", "dot:R:T",
             f"-15*M^2*e^2*r^4*(-2*{P}+3*r^2)/(8*{P}^(9/2)*{D})",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), s2)]))
    A(_chain("tachibana_g_stress", "tach:g:T",
             f"15*M*e^2*r^4*{D}/(8*{P}^5)",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("tachibana_g_stress", "tach:g:T",
             f"-15*M*e^2*r^4/(8*{P}^2*{D})",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), s2)]))
    A(_chain("weyl_dot_stress", "dot:C:T",
             f"-15*M*e^2*r^6*(3*{P}-5*r^2)*{D}/(2*{P}^(17/2))",
             [((1, 3, 1, 3), "1"), ((1, 4, 1, 4), s2)]))
    A(_chain("weyl_dot_stress", "dot:C:T",
             f"-15*M*e^2*r^6*(3*{P}-5*r^2)/(2*{P}^(11/2)*{D})",
             [((2, 3, 2, 3), "1"), ((2, 4, 2, 4), s2)]))
    return c


def reference_coefficient_forms(metric_id: str) -> dict:
    """Closed forms of fitted coefficients, per structure, per coefficient:
    a list of candidate expression strings tried in order."""
    if metric_id != "bardeen":
        return {}
    P, D, s2 = _P, _D, _S2
    # two published variants of the same coefficient disagree; both are
    # tried and the log records which one the fit actually matches
    L_R = [f"-M*(2*{P}-3*r^2)^(5/2)/{P}",
           f"-M*(2*{P}-3*r^2)/{P}^(5/2)"]
    rho_C = [f"-M*r^2*(3*{P}-5*r^2)/(2*{P}^(7/2))"]
    rho_K = [f"M*(8*e^4-5*e^2*r^2+2*r^4)/(2*{P}^(7/2))"]
    zero = ["0"]
    return {
        "pseudosymmetric": [L_R],
        "conformal_pseudosymmetric": [L_R],
        "pseudosymmetric_weyl": [rho_C],
        "weyl_dot_riemann_pseudosymmetric": [rho_C],
        "concircular_dot_riemann_pseudosymmetric": [rho_C],
        "conharmonic_dot_riemann_pseudosymmetric": [rho_K],
        "riemann_minus_ricci_tachibana":
            [[f"2*M*(6*{P}-7*r^2)/((3*{P}-5*r^2)*{P}^(3/2))"]],
        "difference_tensor_vs_g_S_riemann":
            [[f"-M*(3*{P}-5*r^2)*(r^2*(6*{P}-7*r^2)-(2*{P}-3*r^2)^2)"
              f"/(2*(6*{P}-7*r^2)*{P}^(7/2))"],
             [f"1-(3/14)*e^2*(12/(6*{P}-7*r^2)+5/{P})"]],
        "difference_tensor_vs_S_g_weyl":
            [["1"], [f"2*M*(4*{P}-5*r^2)*e^2/{P}^(7/2)"]],
        "roter": [[f"M*(18*{P}-25*r^2)/(25*r^2*{P}^(3/2))"],
                  [f"{P}*(6*{P}-5*r^2)/(25*e^2*r^2)"],
                  [f"(3*{P}-5*r^2)*{P}^(7/2)/(150*M*e^4*r^2)"]],
        "einstein_level_2": [[f"3*M*e^2*(4*{P}-5*r^2)/{P}^(7/2)"],
                             [f"18*M^2*e^4*(2*{P}-5*r^2)/{P}^6"]],
        "weakly_generalized_recurrent":
            [zero, [f"6*r*(8*M-5*{P}^(1/2))/(5*{D})"], zero, zero,
             zero, [f"-r*(29*e^4+e^2*(53*r^2-8*M*{P}^(1/2))"
                    f"+24*(r^2-2*M*{P}^(1/2)*r^2))/(30*M*{D})"],
             zero, zero],
        "special_metric_ricci_wedge_recurrent":
            [zero, [f"2*r*(8*M-5*{P}^(1/2))/(5*{D})"], zero, zero],
        "conformal_two_forms_recurrent":
            [zero, [f"5*e^2*(3*{P}-7*r^2)/(r*{P}*(3*{P}-5*r^2))"],
             zero, zero],
        "stress_pseudosymmetric": [[f"-M*(2*{P}-3*r^2)/{P}^(5/2)"]],
        "stress_weyl_pseudosymmetric": [rho_C],
    }
