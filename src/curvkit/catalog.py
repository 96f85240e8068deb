"""Built-in metric definitions and the metric description file loader.

File format (plain text, newline-delimited):

    dim 4
    coords t r theta phi
    params M e
    range r 1.5 3
    g[0][0] = -(1 - 2*M*r^2/(e^2+r^2)^(3/2))
    ...

Unspecified components are zero, g[j][i] is filled by symmetry, and
assigning both g[i][j] and g[j][i] different expressions is an error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import exprcore as ec
from .exprcore import Expr, ParseError
from .tensor import ComponentTensor

BUILTIN_IDS = ("bardeen", "reissner_nordstrom", "schwarzschild", "minkowski")


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
    note: str = ""

    def coordinate_range(self, name: str) -> Tuple[float, float]:
        return self.ranges.get(name, ec.default_range(name))

    def g(self) -> ComponentTensor:
        return ComponentTensor(self.components, 2, self.dim)


def _components_from(dim, coords, params, entries) -> np.ndarray:
    allowed = set(coords) | set(params)
    out = np.empty((dim, dim), dtype=object)
    out[...] = ec.ZERO
    for (i, j), text in entries.items():
        e = ec.parse_expr(text, allowed)
        out[i, j] = e
        out[j, i] = e
    return out


def builtin(metric_id: str) -> MetricSpec:
    if metric_id == "bardeen":
        lapse = "1 - 2*M*r^2/(e^2+r^2)^(3/2)"
        comps = _components_from(
            4, ["t", "r", "theta", "phi"], ["M", "e"],
            {(0, 0): f"-({lapse})",
             (1, 1): f"1/({lapse})",
             (2, 2): "r^2",
             (3, 3): "r^2*sin(theta)^2"})
        return MetricSpec(
            id="bardeen", dim=4, coords=["t", "r", "theta", "phi"],
            params=["M", "e"], components=comps,
            defaults={"M": 1.0, "e": 0.5},
            ranges={"r": (1.5, 3.0), "theta": (0.3, math.pi - 0.3)},
            note="regular charged black hole, spherical coordinates")
    if metric_id == "reissner_nordstrom":
        comps = _components_from(
            4, ["t", "r", "theta", "phi"], ["m", "q"],
            {(0, 0): "-(1 - 2*m/r + q^2/r^2)",
             (0, 1): "-1",
             (2, 2): "r^2",
             (3, 3): "r^2*sin(theta)^2"})
        return MetricSpec(
            id="reissner_nordstrom", dim=4,
            coords=["t", "r", "theta", "phi"], params=["m", "q"],
            components=comps, defaults={"m": 1.0, "q": 0.5},
            ranges={"r": (1.5, 3.0), "theta": (0.3, math.pi - 0.3)},
            note="charged black hole, ingoing coordinates with a dt dr "
                 "cross term")
    if metric_id == "schwarzschild":
        comps = _components_from(
            4, ["t", "r", "theta", "phi"], ["M"],
            {(0, 0): "-(1 - 2*M/r)",
             (1, 1): "1/(1 - 2*M/r)",
             (2, 2): "r^2",
             (3, 3): "r^2*sin(theta)^2"})
        return MetricSpec(
            id="schwarzschild", dim=4, coords=["t", "r", "theta", "phi"],
            params=["M"], components=comps, defaults={"M": 1.0},
            ranges={"r": (2.2, 4.0), "theta": (0.3, math.pi - 0.3)},
            note="vacuum spherically symmetric control case")
    if metric_id == "minkowski":
        comps = _components_from(
            4, ["t", "x", "y", "z"], [],
            {(0, 0): "-1", (1, 1): "1", (2, 2): "1", (3, 3): "1"})
        return MetricSpec(
            id="minkowski", dim=4, coords=["t", "x", "y", "z"], params=[],
            components=comps, note="flat control case")
    raise CatalogError(f"unknown metric id '{metric_id}' "
                       f"(builtins: {', '.join(BUILTIN_IDS)})")


def parse_metric_source(text: str, metric_id: str = "custom") -> MetricSpec:
    dim = None
    coords: Optional[List[str]] = None
    params: List[str] = []
    ranges: Dict[str, Tuple[float, float]] = {}
    entries: Dict[Tuple[int, int], Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "dim":
            try:
                dim = int(rest)
            except ValueError:
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
            ranges[parts[0]] = (float(parts[1]), float(parts[2]))
        elif head.startswith("g["):
            lhs, eq, expr_text = line.partition("=")
            if not eq:
                raise CatalogError(f"line {lineno}: missing '=' in "
                                   "component assignment")
            idx_text = lhs.strip()
            try:
                inner = idx_text[1:].replace("]", "").split("[")
                i, j = int(inner[1]), int(inner[2])
            except (ValueError, IndexError):
                raise CatalogError(f"line {lineno}: bad component index "
                                   f"{idx_text!r}")
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
        raise CatalogError(f"expected {dim} coordinate names, got "
                           f"{len(coords)}")
    allowed = set(coords) | set(params)
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
    _probe_invertibility(spec)
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


def _probe_invertibility(spec: MetricSpec, probes: int = 4, seed: int = 11):
    """g must be finite and invertible at probes of probes * 8 points."""
    rng = random.Random(seed)
    names = spec.coords + spec.params
    draws = np.array([[rng.uniform(*spec.coordinate_range(nm))
                       for nm in names] for _ in range(probes * 8)])
    m = spec.g().evaluate(dict(zip(names, draws.T), **spec.defaults)).data
    with np.errstate(all="ignore"):
        ok = np.isfinite(m).all(axis=(1, 2)) \
            & (np.abs(np.linalg.det(m)) > 1e-12)
    if ok.sum() < probes:
        raise CatalogError(f"metric '{spec.id}' is singular or not finite "
                           f"at all probe points")


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
