"""Exact vacuum and Lambda-vacuum solutions against facts that hold for
them whatever the literature says: Kerr's Kretschmann scalar in closed
form, the R/C pairs of a Ricci-flat metric, and Kottler's constant scalar
curvature."""

import numpy as np
import pytest
import sympy as sp

from curvkit import exprcore as ec
from curvkit.catalog import parse_metric_source
from curvkit.classify import build_sample_plan, classify_metric
from curvkit.curvature import build_bundle, christoffel, riemann
from curvkit.tensor import invert_metric
from oracles import r as r_sym

# Boyer-Lindquist coordinates; Sigma = r^2 + a^2 cos^2(theta),
# Delta = r^2 - 2 M r + a^2
_SIGMA = "(r^2 + a^2*cos(theta)^2)"
KERR = f"""\
dim 4
coords t r theta phi
params M a
range r 3 6
g[0][0] = -(1 - 2*M*r/{_SIGMA})
g[0][3] = -2*M*a*r*sin(theta)^2/{_SIGMA}
g[1][1] = {_SIGMA}/(r^2 - 2*M*r + a^2)
g[2][2] = {_SIGMA}
g[3][3] = (r^2 + a^2 + 2*M*a^2*r*sin(theta)^2/{_SIGMA})*sin(theta)^2
"""
KERR_PARAMS = {"M": 1.0, "a": 0.5}

KOTTLER = """\
dim 4
coords t r theta phi
params M L
range r 2.5 4
g[0][0] = -(1 - 2*M/r - L*r^2/3)
g[1][1] = 1/(1 - 2*M/r - L*r^2/3)
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
"""
KOTTLER_PARAMS = {"M": 1.0, "L": 0.01}


@pytest.fixture(scope="module")
def kerr():
    spec = parse_metric_source(KERR, "kerr")
    return spec, invert_metric(spec.g())


@pytest.fixture(scope="module")
def kerr_bundle(kerr):
    spec, metric = kerr
    return build_bundle(metric, spec.coords)


def test_kerr_kretschmann_scalar_matches_closed_form(kerr):
    # R_abcd R^abcd = 48 M^2 (r^2 - x)(r^4 - 14 x r^2 + x^2) / (r^2 + x)^6
    # with x = a^2 cos^2(theta) (Henry, ApJ 2000)
    spec, metric = kerr
    R = riemann(christoffel(metric, spec.coords), metric, spec.coords)
    plan = build_sample_plan(spec, KERR_PARAMS)
    values = plan.binding()
    Rv = R.evaluate(values).data
    ginv = np.linalg.inv(metric.g.evaluate(values).data)
    Rup = np.einsum("pabcd,pae,pbf,pcg,pdh->pefgh",
                    Rv, ginv, ginv, ginv, ginv)
    got = np.einsum("pabcd,pabcd->p", Rv, Rup)
    M, a = KERR_PARAMS["M"], KERR_PARAMS["a"]
    r, x = values["r"], (a * np.cos(values["theta"])) ** 2
    want = 48 * M**2 * (r**2 - x) * (r**4 - 14 * x * r**2 + x**2) \
        / (r**2 + x) ** 6
    assert len(got) == 12
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# with S = 0 the Weyl tensor C is R itself, so each structure built on R
# and its twin built on C must agree, whatever the verdict is
RICCI_FLAT_PAIRS = [("pseudosymmetric", "pseudosymmetric_weyl"),
                    ("riemann_two_forms_recurrent",
                     "conformal_two_forms_recurrent"),
                    ("venzi_riemann", "venzi_weyl")]


@pytest.mark.parametrize("seed", [42, 7])
def test_ricci_flat_riemann_and_weyl_structures_agree(
        seed, schw_classified, kerr, kerr_bundle):
    schw_spec, schw_bundle, _ = schw_classified
    for spec, bundle, params in ((schw_spec, schw_bundle, None),
                                 (kerr[0], kerr_bundle, KERR_PARAMS)):
        report = classify_metric(spec, bundle, params, seed=seed)
        for on_R, on_C in RICCI_FLAT_PAIRS:
            assert report.verdict(on_R) == report.verdict(on_C), \
                (spec.id, on_R, on_C)


def test_kottler_is_einstein_with_the_oracles_scalar_curvature(
        spherical_oracle):
    spec = parse_metric_source(KOTTLER, "kottler")
    bundle = build_bundle(invert_metric(spec.g()), spec.coords)
    report = classify_metric(spec, bundle, KOTTLER_PARAMS)
    assert report.verdict("einstein") == "holds"

    values = report.plan.binding()
    got = np.broadcast_to(ec.eval_float(bundle.kappa, values, {}),
                          (len(report.plan),))
    M, L = sp.symbols("M L")
    lapse = 1 - 2 * M / r_sym - L * r_sym**2 / 3
    want = spherical_oracle.evaluator(("kappa",), lapse)(values)["kappa"]
    assert np.allclose(got, want, rtol=1e-9, atol=0)
    # kappa = -4 Lambda under the engine's sign of S_ij = g^hk R_hijk
    assert np.allclose(got, -4 * KOTTLER_PARAMS["L"], rtol=1e-9, atol=0)
