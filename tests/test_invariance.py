"""Metamorphic invariance of verdicts: a builtin's metric file rewritten
in other coordinates must get every verdict of the original.

Each transformed file is built from the builtin's own text
(`catalog.builtin_source`), so no hand-written copy can drift from it.
The transforms here are the ones that hold today: a relabelling of the
coordinates, and the ingoing form of a static metric, -f dt^2 - 2 dt dr
+ r^2 dOmega^2 (the dt of the static form shifted by the tortoise
coordinate), also on an r range that crosses both of bardeen's horizons;
Schwarzschild in the isotropic radius; and flat space times a constant,
run through the command line.
"""

import json
import math
import re
from functools import cache

import pytest

from curvkit import cli
from curvkit.catalog import builtin, builtin_source, parse_metric_source
from curvkit.classify import classify_metric
from curvkit.curvature import build_bundle
from curvkit.tensor import invert_metric

_ENTRY = re.compile(r"g\[(\d)\]\[(\d)\] = (.*)")


def permuted(text: str, order) -> str:
    """text with its coordinates listed in `order`, a permutation of the
    coords line, and each g[i][j] moved to the new positions."""
    lines = text.splitlines()
    old = next(ln for ln in lines if ln.startswith("coords ")).split()[1:]
    assert sorted(order) == sorted(old)
    at = {name: order.index(name) for name in old}
    out = []
    for line in lines:
        entry = _ENTRY.fullmatch(line)
        if line.startswith("coords "):
            line = "coords " + " ".join(order)
        elif entry:
            i, j = sorted(at[old[int(k)]] for k in entry.group(1, 2))
            line = f"g[{i}][{j}] = {entry.group(3)}"
        out.append(line)
    return "\n".join(out) + "\n"


def ingoing(text: str, r_range=None) -> str:
    """A static text with g11 = 1/f in ingoing form: g01 = -1 and no g11,
    optionally on another r range."""
    out = []
    for line in text.splitlines():
        if line.startswith("g[1][1] = "):
            line = "g[0][1] = -1"
        elif line.startswith("range r ") and r_range:
            line = "range r {} {}".format(*r_range)
        out.append(line)
    assert "g[0][1] = -1" in out
    return "\n".join(out) + "\n"


def isotropic(text: str, mass: float) -> str:
    """A static text in r rewritten in the isotropic radius rho, where
    r = rho (1 + M/(2 rho))^2: r substituted in every entry, g11 times
    (dr/drho)^2, on the rho range that maps onto the r range (outside the
    horizon, with M = mass)."""
    r_of = "(rho*(1 + M/(2*rho))^2)"
    dr_drho = "((1 + M/(2*rho))*(1 - M/(2*rho)))"

    def rho_of(r):
        return (r - mass + math.sqrt(r * r - 2 * mass * r)) / 2

    out = []
    for line in text.splitlines():
        entry = _ENTRY.fullmatch(line)
        if line.startswith("coords "):
            line = re.sub(r"\br\b", "rho", line)
        elif line.startswith("range r "):
            lo, hi = (rho_of(float(v)) for v in line.split()[2:])
            line = f"range rho {lo!r} {hi!r}"
        elif entry:
            i, j, e = entry.groups()
            e = re.sub(r"\br\b", r_of, e)
            if i == j == "1":
                e = f"({e})*{dr_drho}^2"
            line = f"g[{i}][{j}] = {e}"
        out.append(line)
    return "\n".join(out) + "\n"


CASES = {
    "bardeen_r_t_theta_phi": (
        "bardeen", permuted(builtin_source("bardeen"),
                            ["r", "t", "theta", "phi"])),
    "bardeen_theta_phi_t_r": (
        "bardeen", permuted(builtin_source("bardeen"),
                            ["theta", "phi", "t", "r"])),
    "bardeen_ingoing": ("bardeen", ingoing(builtin_source("bardeen"))),
    "bardeen_ingoing_across_horizons": (
        "bardeen", ingoing(builtin_source("bardeen"), (0.5, 3))),
    "schwarzschild_r_first": (
        "schwarzschild", permuted(builtin_source("schwarzschild"),
                                  ["r", "t", "theta", "phi"])),
    "schwarzschild_isotropic": (
        "schwarzschild", isotropic(builtin_source("schwarzschild"),
                                   builtin("schwarzschild").defaults["M"])),
}


@cache
def _loaded(metric_id: str, text: str):
    spec = parse_metric_source(text, metric_id)
    return spec, build_bundle(invert_metric(spec.g()), spec.coords)


@cache
def verdicts(metric_id: str, text: str, seed: int) -> dict:
    spec, bundle = _loaded(metric_id, text)
    report = classify_metric(spec, bundle, params=builtin(metric_id).defaults,
                             count=12, seed=seed)
    return {name: fit.verdict for name, fit in report.structures.items()}


def test_transforms_rewrite_the_builtin_text():
    # the transformed files are the builtin with only the intended lines
    # changed
    text = CASES["bardeen_theta_phi_t_r"][1]
    assert "coords theta phi t r" in text
    assert "g[2][2] = -(1 - 2*M*r^2/(e^2+r^2)^(3/2))" in text
    assert "g[0][0] = r^2" in text and "g[1][1] = r^2*sin(theta)^2" in text
    wide = CASES["bardeen_ingoing_across_horizons"][1]
    assert "range r 0.5 3" in wide and "g[1][1]" not in wide
    iso = CASES["schwarzschild_isotropic"][1]
    assert "coords t rho theta phi" in iso and not re.search(r"\br\b", iso)
    m = builtin("schwarzschild").defaults["M"]
    ends = re.search(r"range rho (\S+) (\S+)", iso).groups()
    assert [float(v) * (1 + m / (2 * float(v))) ** 2 for v in ends] \
        == pytest.approx([2.2, 4], rel=1e-12)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_verdicts_do_not_depend_on_the_coordinates(case, seed):
    metric_id, text = CASES[case]
    want = verdicts(metric_id, builtin_source(metric_id), seed)
    got = verdicts(metric_id, text, seed)
    assert got.keys() == want.keys()
    moved = {name: (want[name], got[name]) for name in want
             if got[name] != want[name]}
    assert moved == {}


def test_rescaled_flat_space_classifies_as_minkowski(tmp_path, capsys):
    # g = (2/1000) diag(-1, 1, 1, 1): the regularity test divides each row
    # by its largest |entry|, so a small constant factor is not singular
    path = tmp_path / "small.metric"
    path.write_text(re.sub(r"= (.*)", r"= 2/1000*(\1)",
                           builtin_source("minkowski")))
    assert cli.run(["classify", "--metric", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)["structures"]
    assert cli.run(["classify", "--metric", "minkowski"]) == 0
    want = json.loads(capsys.readouterr().out)["structures"]
    assert [(s["name"], s["verdict"]) for s in got] == \
        [(s["name"], s["verdict"]) for s in want]
