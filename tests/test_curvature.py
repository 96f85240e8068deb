"""Curvature pipeline against finite-difference and sympy oracles."""

import importlib
import os
import random
from pathlib import Path

import numpy as np
import pytest

import curvkit.exprcore as ec
from curvkit.catalog import builtin, parse_metric_source
from curvkit.curvature import (build_bundle, covariant_derivative,
                               derived_curvatures, partials)
from curvkit.tensor import ComponentTensor, invert_metric
from oracles import bardeen_lapse, reissner_nordstrom_lapse

N = 4


@pytest.fixture(scope="module")
def bardeen():
    spec = builtin("bardeen")
    return spec, build_bundle(invert_metric(spec.g()), spec.coords)


@pytest.fixture(scope="module")
def schw():
    spec = builtin("schwarzschild")
    return spec, build_bundle(invert_metric(spec.g()), spec.coords)


def sample_points(spec, count, seed=17):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        values = dict(spec.defaults)
        for c in spec.coords:
            lo, hi = spec.coordinate_range(c)
            values[c] = rng.uniform(lo, hi)
        pts.append(values)
    return pts


def eval_obj(arr, values):
    return ComponentTensor(arr, arr.ndim, N).evaluate(values).data


def gmat(spec, values):
    return eval_obj(spec.components, values)


# ---------------------------------------------------------------------------
# finite-difference oracles

def test_christoffel_matches_finite_differences(bardeen):
    spec, bundle = bardeen
    for values in sample_points(spec, 10):
        dg = np.empty((N, N, N))
        for c, name in enumerate(spec.coords):
            up = dict(values)
            dn = dict(values)
            up[name] = values[name] + 1e-5
            dn[name] = values[name] - 1e-5
            dg[..., c] = (gmat(spec, up) - gmat(spec, dn)) / 2e-5
        ginv = np.linalg.inv(gmat(spec, values))
        want = 0.5 * (np.einsum("hk,jki->hij", ginv, dg)
                      + np.einsum("hk,ikj->hij", ginv, dg)
                      - np.einsum("hk,ijk->hij", ginv, dg))
        got = eval_obj(bundle.gamma, values)
        assert np.abs(got - want).max() <= 1e-6 * (1 + np.abs(want).max())


def test_riemann_matches_finite_differences(bardeen):
    # outer derivative of the Christoffel field taken by central differences
    spec, bundle = bardeen
    for values in sample_points(spec, 10):
        gam = eval_obj(bundle.gamma, values)
        dgam = np.empty((N, N, N, N))
        for c, name in enumerate(spec.coords):
            up = dict(values)
            dn = dict(values)
            up[name] = values[name] + 1e-5
            dn[name] = values[name] - 1e-5
            dgam[..., c] = (eval_obj(bundle.gamma, up)
                            - eval_obj(bundle.gamma, dn)) / 2e-5
        rup = (np.einsum("hikj->hijk", dgam) - dgam
               + np.einsum("hjl,lik->hijk", gam, gam)
               - np.einsum("hkl,lij->hijk", gam, gam))
        want = np.einsum("hl,lijk->hijk", gmat(spec, values), rup)
        got = eval_obj(bundle.R.data, values)
        assert np.abs(got - want).max() <= 1e-6 * (1 + np.abs(want).max())


def test_riemann_and_ricci_match_sympy(bardeen, spherical_oracle):
    spec, bundle = bardeen
    at = spherical_oracle.evaluator(("R", "S", "kappa"), bardeen_lapse())
    for values in sample_points(spec, 3, seed=23):
        want = at(values)
        got_R = eval_obj(bundle.R.data, values)
        got_S = eval_obj(bundle.S.data, values)
        got_k = ec.eval_float(bundle.kappa, values, {})
        assert np.abs(got_R - want["R"]).max() <= 1e-9 * (
            1 + np.abs(want["R"]).max())
        assert np.abs(got_S - want["S"]).max() <= 1e-9 * (
            1 + np.abs(want["S"]).max())
        assert abs(got_k - want["kappa"]) <= 1e-9 * (1 + abs(want["kappa"]))


def dump_point(seed, cycle, tmp_path, monkeypatch):
    """The point at which perfbench's symbolic_dump workload, run with
    seed, checks its reissner_nordstrom S dump in that cycle: the cycles
    are replayed from the run's generator."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    drawn = []
    sample_point = gen.sample_point
    monkeypatch.setattr(gen, "sample_point", lambda m, rng: drawn.append(
        sample_point(m, rng)) or drawn[-1])
    wl = workloads.SymbolicDump(str(tmp_path))
    os.makedirs(wl.metrics)
    rng = random.Random(seed)
    for c in range(cycle + 1):
        drawn.clear()
        wl.cycle(rng, c)
    return drawn[workloads.DUMP_PAIRS.index(("reissner_nordstrom", "S"))]


@pytest.mark.parametrize("seed, cycle, r", [
    (21, 70, 1.8664634770812156), (23, 60, 1.8658594371756605)])
def test_ricci_at_the_outer_horizon_matches_sympy(seed, cycle, r, tmp_path,
                                                  monkeypatch,
                                                  ingoing_oracle):
    # r lies within 5e-4 of r+ = 1 + sqrt(3)/2, where g00 changes sign and
    # the ingoing g stays regular.  The benchmark's finite-difference
    # check of S fails there (S11 = 2.7e-6 where S11 = 0 exactly); the
    # program's S agrees with sympy's
    values = dump_point(seed, cycle, tmp_path, monkeypatch)
    assert values["r"] == r
    spec = builtin("reissner_nordstrom")
    bundle = build_bundle(invert_metric(spec.g()), spec.coords)
    assert bundle.S.data[1, 1] is ec.ZERO
    want = ingoing_oracle.evaluator(("S",), reissner_nordstrom_lapse())(
        values)["S"]
    got = eval_obj(bundle.S.data, values)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# structural identities

def test_riemann_symmetries_and_first_bianchi(bardeen):
    spec, bundle = bardeen
    for values in sample_points(spec, 4, seed=5):
        R = eval_obj(bundle.R.data, values)
        scale = 1 + np.abs(R).max()
        assert np.abs(R + np.transpose(R, (1, 0, 2, 3))).max() < 1e-10 * scale
        assert np.abs(R + np.transpose(R, (0, 1, 3, 2))).max() < 1e-10 * scale
        assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-10 * scale
        cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
        assert np.abs(cyc).max() < 1e-10 * scale


def test_second_bianchi(bardeen):
    spec, bundle = bardeen
    for values in sample_points(spec, 4, seed=6):
        nab = eval_obj(bundle.nabla_R.data, values)
        cyc = (nab + np.transpose(nab, (0, 1, 3, 4, 2))
               + np.transpose(nab, (0, 1, 4, 2, 3)))
        assert np.abs(cyc).max() < 1e-9 * (1 + np.abs(nab).max())


def test_metric_is_parallel(bardeen):
    spec, bundle = bardeen
    nabla_g = covariant_derivative(bundle.metric.g, bundle.gamma,
                                   bundle.coords)
    for values in sample_points(spec, 3, seed=7):
        arr = eval_obj(nabla_g.data, values)
        assert np.abs(arr).max() < 1e-10


def test_weyl_is_trace_free(bardeen):
    spec, bundle = bardeen
    for values in sample_points(spec, 4, seed=8):
        C = eval_obj(bundle.C.data, values)
        ginv = np.linalg.inv(gmat(spec, values))
        tr = np.einsum("hk,hijk->ij", ginv, C)
        assert np.abs(tr).max() < 1e-9 * (1 + np.abs(C).max())


def test_contracted_second_bianchi(bardeen):
    # div S = (1/2) d kappa
    spec, bundle = bardeen
    nabla_S = bundle.nabla_S
    dkappa = [ec.differentiate(bundle.kappa, c) for c in bundle.coords]
    for values in sample_points(spec, 3, seed=9):
        ginv = np.linalg.inv(gmat(spec, values))
        ns = eval_obj(nabla_S.data, values)
        div = np.einsum("jk,ijk->i", ginv, ns)
        grad = np.array([ec.eval_float(d, values, {}) for d in dkappa])
        assert np.abs(div - grad / 2).max() <= 1e-9 * (1 + np.abs(grad).max())


def test_stress_energy_definition(bardeen):
    spec, bundle = bardeen
    lam = ec.parse_expr("3/10", set())
    T = derived_curvatures(bundle.R, bundle.S, bundle.kappa,
                           bundle.metric.g, lam)[4]
    for values in sample_points(spec, 2, seed=10):
        got = eval_obj(T.data, values)
        S = eval_obj(bundle.S.data, values)
        g = gmat(spec, values)
        k = ec.eval_float(bundle.kappa, values, {})
        want = S + (0.3 - k / 2) * g
        assert np.abs(got - want).max() < 1e-10 * (1 + np.abs(want).max())


# ---------------------------------------------------------------------------
# control cases and parameter limits

def test_vacuum_metric_is_ricci_flat_with_weyl_equal_riemann(schw):
    spec, bundle = schw
    for values in sample_points(spec, 4, seed=12):
        S = eval_obj(bundle.S.data, values)
        assert np.abs(S).max() < 1e-10
        C = eval_obj(bundle.C.data, values)
        R = eval_obj(bundle.R.data, values)
        assert np.abs(C - R).max() < 1e-10 * (1 + np.abs(R).max())


def test_charge_to_zero_limit_is_quadratic(schw):
    # the regular metric tends to the vacuum one with error O(e^2)
    spec_s, bundle_s = schw
    spec_b = builtin("bardeen")
    bundle_b = build_bundle(invert_metric(spec_b.g()), spec_b.coords)
    values = {"t": 0.0, "r": 2.5, "theta": 1.1, "phi": 0.4, "M": 1.0}
    R_s = eval_obj(bundle_s.R.data, values)
    errs = []
    for eps in (1e-2, 1e-3):
        vb = dict(values)
        vb["e"] = eps
        R_b = eval_obj(bundle_b.R.data, vb)
        errs.append(np.abs(R_b - R_s).max())
    assert errs[0] < 1e-2
    # quadratic decay: shrinking e by 10 shrinks the error by about 100
    assert errs[1] < errs[0] / 50


# ---------------------------------------------------------------------------
# node identity of the covariant derivative

def incremental_covariant_derivative(T, gamma, coords):
    """Reference: d_f T minus each Gamma contraction subtracted from the
    growing sum, one nonzero Gamma entry and slot at a time."""
    k = T.valence
    out = partials(T.data, coords)
    for (u, f, c), gterm in np.ndenumerate(gamma):
        if gterm.is_zero():
            continue
        for s in range(k):
            pre = (slice(None),) * s
            post = (slice(None),) * (k - 1 - s)
            out[pre + (c,) + post + (f,)] -= T.data[pre + (u,) + post] * gterm
    return out


INLINE_METRICS = {
    # off-diagonal, ingoing coordinates, mass growing with v
    "ingoing_v": """dim 4
coords v r theta phi
params M q
g[0][0] = -(1 - 2*M*v/r + q^2/r^2)
g[0][1] = 1
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
""",
    # diagonal, depending on t only
    "bianchi_t": """dim 4
coords t x y z
range t 1 3
g[0][0] = -1
g[1][1] = t^(2/3)
g[2][2] = t^(4/3)
g[3][3] = t^(1/2)
""",
    # conformally flat, factor depending on r and theta
    "conformal_r_theta": """dim 4
coords t r theta phi
params a
range r 1 2
g[0][0] = -(1 + a*r*cos(theta))^2
g[1][1] = (1 + a*r*cos(theta))^2
g[2][2] = (1 + a*r*cos(theta))^2*r^2
g[3][3] = (1 + a*r*cos(theta))^2*r^2*sin(theta)^2
""",
}


BUILTIN_FIXTURES = {"bardeen": "bardeen_classified",
                    "reissner_nordstrom": "rn_classified",
                    "schwarzschild": "schw_classified",
                    "minkowski": "mink_classified"}


@pytest.mark.parametrize("metric_id", [*BUILTIN_FIXTURES, *INLINE_METRICS])
def test_covariant_derivative_equals_incremental_sums(metric_id, request):
    # one add per entry gives the very nodes of the one-term-at-a-time form
    if metric_id in INLINE_METRICS:
        spec = parse_metric_source(INLINE_METRICS[metric_id], metric_id)
        bundle = build_bundle(invert_metric(spec.g()), spec.coords)
    else:
        bundle = request.getfixturevalue(BUILTIN_FIXTURES[metric_id])[1]
    for name, T in (("nabla_R", bundle.R), ("nabla_C", bundle.C),
                    ("nabla_S", bundle.S)):
        want = incremental_covariant_derivative(T, bundle.gamma,
                                                bundle.coords)
        got = getattr(bundle, name).data
        assert got.shape == want.shape
        for idx, e in np.ndenumerate(want):
            assert got[idx] is e, (name, idx)
