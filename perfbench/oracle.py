"""Correctness checks that do not come from the code under test.

- ``Curvature``: Riemann, Ricci and scalar curvature of a closed-form metric
  from fourth-order central finite differences of g and the textbook
  second-derivative formula for the Christoffel derivatives.  Sign
  conventions are those documented by curvkit: R^h_ijk = d_j Gamma^h_ik -
  d_k Gamma^h_ij + Gamma^h_jl Gamma^l_ik - Gamma^h_kl Gamma^l_ij, lowered on
  the first slot, S_ij = g^hk R_hijk.
- ``evaluate``: a small evaluator for the expressions curvkit prints.
- ``same_json``: comparison against the frozen copies of the committed
  reports in ``frozen/``.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import os
from typing import Callable, Dict, List

import numpy as np

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen")

STEP = 1e-3            # relative to max(1, |x|) ...
STEP_SCALE = 1e-2      # ... and to the length over which g varies, which
                       # is short next to a horizon
KAPPA_TOL = 1e-6        # relative to 1 + max |R|; FD error is ~1e-9
COMPONENT_TOL = 1e-6
FROZEN_REL = 1e-10      # committed-report numbers agree to this, relative
FROZEN_ABS = 1e-13      # ... with this floor for values at rounding noise


# ---------------------------------------------------------------------------
# finite-difference curvature of a closed form

def _d(f, x: Dict[str, float], name: str, h: float):
    def at(k):
        y = dict(x)
        y[name] = x[name] + k * h
        return f(y)
    return (-at(2) + 8 * at(1) - 8 * at(-1) + at(-2)) / (12 * h)


def _steps(gfun, coords, x) -> Dict[str, float]:
    """Per-coordinate FD step: small against |x| and against the shortest
    length |g_ab| / |d g_ab| over which a component changes."""
    g = np.abs(np.asarray(gfun(x), dtype=float))
    out = {}
    for c in coords:
        h = STEP * max(1.0, abs(x[c]))
        dg = np.abs(_d(gfun, x, c, 1e-3 * h))
        live = (g > 0) & (dg > 0)
        if live.any():
            h = min(h, STEP_SCALE * float((g[live] / dg[live]).min()))
        out[c] = h
    return out


def _kn(a, b):
    """Kulkarni-Nomizu product in curvkit's slot order."""
    return (np.einsum("iy,jx->ijxy", a, b) - np.einsum("ix,jy->ijxy", a, b)
            + np.einsum("jx,iy->ijxy", a, b) - np.einsum("jy,ix->ijxy", a, b))


class Curvature:
    """Curvature of gfun (values dict -> n x n array) at one point."""

    def __init__(self, gfun: Callable, coords: List[str],
                 x: Dict[str, float], lam: float = 0.0):
        n = len(coords)
        h = _steps(gfun, coords, x)

        def dg_at(y):  # dg[a, b, c] = d_c g_ab
            return np.stack([_d(gfun, y, c, h[c]) for c in coords], axis=-1)

        g = np.asarray(gfun(x), dtype=float)
        gi = np.linalg.inv(g)
        dg = dg_at(x)
        ddg = np.stack([_d(dg_at, x, c, h[c]) for c in coords], axis=-1)
        brace = (np.einsum("kji->kij", dg) + np.einsum("kij->kij", dg)
                 - np.einsum("ijk->kij", dg))           # [k, i, j]
        gam = 0.5 * np.einsum("hk,kij->hij", gi, brace)
        dgi = -np.einsum("ha,abl,bk->hkl", gi, dg, gi)
        dbrace = (np.einsum("kjil->kijl", ddg) + np.einsum("kijl->kijl", ddg)
                  - np.einsum("ijkl->kijl", ddg))
        dgam = 0.5 * (np.einsum("hkl,kij->hijl", dgi, brace)
                      + np.einsum("hk,kijl->hijl", gi, dbrace))
        rup = (np.einsum("hikj->hijk", dgam) - dgam
               + np.einsum("hjl,lik->hijk", gam, gam)
               - np.einsum("hkl,lij->hijk", gam, gam))
        R = np.einsum("hl,lijk->hijk", g, rup)
        S = np.einsum("hk,hijk->ij", gi, R)
        kappa = float(np.einsum("ij,ij->", gi, S))
        gg, gS = _kn(g, g), _kn(g, S)
        K = R - gS / (n - 2)
        self.kappa = kappa
        self.arrays = {
            "g": g, "R": R, "S": S, "K": K,
            "C": K + kappa / (2 * (n - 1) * (n - 2)) * gg,
            "W": R - kappa / (2 * n * (n - 1)) * gg,
            "P": R + (np.einsum("hj,ik->hijk", S, g)
                      - np.einsum("ij,hk->hijk", S, g)) / (n - 1),
            "T": S + (lam - kappa / 2) * g,
            "S2": S @ gi @ S,
        }
        self.scale = 1.0 + float(np.abs(R).max())


# ---------------------------------------------------------------------------
# evaluator for printed expressions

_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
          "cot": lambda u: math.cos(u) / math.sin(u), "sqrt": math.sqrt,
          "exp": math.exp, "log": math.log, "abs": abs}
_BIN = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
        ast.Pow: lambda a, b: a ** b}


def evaluate(text: str, values: Dict[str, float]) -> float:
    """Value of a printed curvkit expression ('^' is the power operator)."""
    def ev(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN:
            return _BIN[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return float(node.value)
        if isinstance(node, ast.Name):
            return float(values[node.id])
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS and len(node.args) == 1):
            return _FUNCS[node.func.id](ev(node.args[0]))
        raise ValueError(f"unexpected syntax {ast.dump(node)[:60]}")
    out = ev(ast.parse(text.replace("^", "**"), mode="eval").body)
    if not isinstance(out, float) or not math.isfinite(out):
        raise ValueError(f"non-real value {out!r}")
    return out


def _close(a: float, b: float, scale: float, tol: float) -> bool:
    return abs(a - b) <= tol * scale


# ---------------------------------------------------------------------------
# checks

def check_kappa(report: Dict, gfun: Callable, coords: List[str],
                params: Dict[str, float]) -> List[str]:
    """A classify report's kappa_per_point against the oracle."""
    fits = {s["name"]: s for s in report["structures"]}
    kappas = fits["scalar_curvature_zero"]["extra"]["kappa_per_point"]
    if report["params"] != params:
        return [f"params {report['params']} != {params}"]
    if len(kappas) != len(report["points"]):
        return ["kappa_per_point length differs from the point count"]
    names = sorted(coords)
    out = []
    for i, (pt, kap) in enumerate(zip(report["points"], kappas)):
        x = dict(zip(names, pt))
        x.update(params)
        cv = Curvature(gfun, coords, x)
        if not _close(kap, cv.kappa, cv.scale, KAPPA_TOL):
            out.append(f"point {i}: kappa {kap!r}, oracle {cv.kappa!r}")
    return out


CHECKED_TENSORS = ("g", "R", "S", "S2", "C", "P", "W", "K", "T")


def check_components(payload: Dict, tensor: str, gfun: Callable,
                     coords: List[str], x: Dict[str, float]) -> List[str]:
    """Re-evaluate a ``components`` dump at the point x."""
    cv = Curvature(gfun, coords, x)
    if tensor == "kappa":
        got = evaluate(payload["expression"], x)
        ok = _close(got, cv.kappa, cv.scale, COMPONENT_TOL)
        return [] if ok else [f"kappa {got!r}, oracle {cv.kappa!r}"]
    comps = payload["nonzero_components"]
    valence = payload["valence"]
    n = len(coords)
    if payload["dimension"] != n or any(len(k) != valence or
                                        not set(k) <= set("0123")
                                        for k in comps):
        return [f"malformed {tensor} dump"]
    if tensor not in CHECKED_TENSORS:
        # nabla_*: third derivatives are beyond the oracle's precision;
        # check only that the dump is well formed and nonempty
        return [] if comps else [f"{tensor} dump is empty"]
    want = cv.arrays[tensor]
    scale = 1.0 + float(np.abs(want).max())
    out = []
    for idx in itertools.product(range(n), repeat=valence):
        key = "".join(map(str, idx))
        got = evaluate(comps[key], x) if key in comps else 0.0
        if not _close(got, float(want[idx]), scale, COMPONENT_TOL):
            out.append(f"{tensor}[{key}] = {got!r}, oracle {want[idx]!r}")
    return out


def load_frozen(name: str):
    with open(os.path.join(FROZEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def same_json(got, want, path: str = "") -> List[str]:
    """Structural equality; numbers agree to FROZEN_REL relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in want:
            out += same_json(got[k], want[k], f"{path}/{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list length differs"]
        out = []
        for i, (a, b) in enumerate(zip(got, want)):
            out += same_json(a, b, f"{path}[{i}]")
        return out
    if (isinstance(want, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        if abs(got - want) <= FROZEN_REL * max(abs(got), abs(want)) \
                + FROZEN_ABS:
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
