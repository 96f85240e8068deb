"""Structure classification: determinism, soundness, and controls."""

import json

import numpy as np
import pytest

from curvkit import exprcore as ec
from curvkit.catalog import builtin, parse_metric_source
from curvkit.classify import (ClassifyError, StructureReport,
                              build_sample_plan, classify_metric,
                              compare_metrics, evaluate_plan)
from curvkit.curvature import TENSORS, build_bundle
from curvkit.tensor import invert_metric

METRIC_REGULARITY_FLOOR = 1e-3


# ---------------------------------------------------------------------------
# sampling

def test_sample_plan_deterministic_and_in_range():
    spec = builtin("bardeen")
    a = build_sample_plan(spec)
    b = build_sample_plan(spec)
    assert a.points == b.points
    assert len(a.points) == 12
    for pt in a.points:
        lo, hi = spec.coordinate_range("r")
        assert lo <= pt["r"] <= hi
        lo, hi = spec.coordinate_range("theta")
        assert lo <= pt["theta"] <= hi


def test_sample_plan_seed_changes_points():
    spec = builtin("bardeen")
    a = build_sample_plan(spec, seed=1)
    b = build_sample_plan(spec, seed=2)
    assert a.points != b.points


def test_sample_plan_parameter_override():
    spec = builtin("bardeen")
    plan = build_sample_plan(spec, {"e": 0.9})
    assert plan.params["e"] == 0.9
    assert plan.params["M"] == 1.0


UNBOUND = """\
dim 4
coords t r theta phi
params M e a
range r 2.5 4
g[0][0] = -(1 - 2*M*r^2/(e^2+r^2)^(3/2))
g[1][1] = 1
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
"""


def test_sample_plan_skips_overflowing_points():
    # exp(r) overflows float64 above r = 709.78: those candidates are
    # rejected as not finite, and the plan keeps the first 12 others
    spec = parse_metric_source(
        "dim 4\ncoords t r theta phi\nrange r 700 720\n"
        "g[0][0] = -exp(r)\ng[1][1] = 1\ng[2][2] = r^2\n"
        "g[3][3] = r^2*sin(theta)^2\n", "overflow")
    plan = build_sample_plan(spec)
    assert len(plan) == 12
    assert all(pt["r"] < 709.78 for pt in plan.points)


@pytest.mark.parametrize("fixture", ["bardeen_classified", "rn_classified",
                                     "schw_classified", "mink_classified"])
def test_evaluate_plan_equals_one_point_evaluations(fixture, request):
    # one evaluation over the point axis gives each point's own floats
    _, bundle, report = request.getfixturevalue(fixture)
    plan = report.plan
    batch = evaluate_plan(bundle, plan)
    for i, pt in enumerate(plan.points):
        values = dict(pt, **plan.params)
        for name in TENSORS:
            one = bundle.tensor(name).evaluate(values).data
            assert np.array_equal(batch.arrays[name][i], one), (name, i)
        assert batch.kappa[i] == ec.eval_float(bundle.kappa, values, {})


def test_sample_plan_names_unbound_parameters():
    # a parameter of g with no value is an error before any sampling; the
    # declared parameter a does not occur in g and needs no value
    spec = parse_metric_source(UNBOUND, "unbound")
    with pytest.raises(ClassifyError, match=r"\['M', 'e'\]"):
        build_sample_plan(spec)
    with pytest.raises(ClassifyError, match=r"\['e'\]"):
        build_sample_plan(spec, {"M": 1.0})
    plan = build_sample_plan(spec, {"M": 1.0, "e": 0.5})
    assert plan.params == {"M": 1.0, "e": 0.5}


# ---------------------------------------------------------------------------
# determinism of the full report

def test_classification_deterministic(bardeen_classified):
    spec, bundle, report = bardeen_classified
    again = classify_metric(spec, bundle)
    a = json.dumps(report.to_json(), sort_keys=True)
    # reference matching only annotates; verdicts and numbers must agree
    b = json.dumps(again.to_json(), sort_keys=True)
    ja, jb = json.loads(a), json.loads(b)
    for sa, sb in zip(ja["structures"], jb["structures"]):
        assert sa["name"] == sb["name"]
        assert sa["verdict"] == sb["verdict"]
        assert sa["residual"] == sb["residual"]
        assert sa["coefficients"] == sb["coefficients"]


# ---------------------------------------------------------------------------
# verdict spot checks against the published structure lists

def test_regular_black_hole_verdicts(bardeen_classified):
    _, _, report = bardeen_classified
    holds = ["pseudosymmetric", "conformal_pseudosymmetric",
             "pseudosymmetric_weyl", "weyl_dot_riemann_pseudosymmetric",
             "concircular_dot_riemann_pseudosymmetric",
             "conharmonic_dot_riemann_pseudosymmetric",
             "riemann_minus_ricci_tachibana", "roter", "einstein_level_2",
             "two_quasi_einstein", "riemann_compatible_ricci",
             "weyl_compatible_ricci", "concircular_compatible_ricci",
             "conharmonic_compatible_ricci", "riemann_compatible_stress",
             "weyl_compatible_stress", "conformal_two_forms_recurrent",
             "stress_pseudosymmetric", "stress_weyl_pseudosymmetric",
             "difference_tensor_vs_g_S_riemann",
             "difference_tensor_vs_S_g_weyl"]
    fails = ["semisymmetric", "einstein", "quasi_einstein", "recurrent",
             "codazzi_ricci", "cyclic_parallel_ricci", "chaki_pseudosymmetric",
             "weakly_symmetric", "venzi_riemann", "venzi_weyl",
             "riemann_two_forms_recurrent", "ricci_one_forms_recurrent",
             "projective_compatible_ricci", "scalar_curvature_zero",
             "ricci_generalized_pseudosymmetric"]
    for name in holds:
        assert report.verdict(name) == "holds", name
    for name in fails:
        assert report.verdict(name) == "fails", name


def test_charged_vacuum_verdicts(rn_classified):
    _, _, report = rn_classified
    assert report.verdict("scalar_curvature_zero") == "holds"
    assert report.verdict("roter") == "holds"
    assert report.verdict("pseudosymmetric") == "holds"
    assert report.verdict("einstein") == "fails"


def test_vacuum_control_verdicts(schw_classified):
    _, _, report = schw_classified
    assert report.verdict("einstein") == "holds"
    assert report.verdict("pseudosymmetric") == "holds"
    assert report.verdict("ricci_one_forms_recurrent") == "holds"
    # with a vanishing Ricci tensor the Ricci-built bases collapse
    assert report.verdict("roter") == "degenerate"
    assert report.verdict("two_quasi_einstein") == "degenerate"


def test_flat_control_verdicts(mink_classified):
    _, _, report = mink_classified
    assert report.verdict("einstein") == "holds"
    assert report.verdict("scalar_curvature_zero") == "holds"
    for name, fit in report.structures.items():
        if name in ("einstein", "scalar_curvature_zero"):
            continue
        assert fit.verdict == "degenerate", name


def test_failures_carry_witnesses(bardeen_classified):
    _, _, report = bardeen_classified
    for name in ("semisymmetric", "einstein", "recurrent", "codazzi_ricci",
                 "weakly_symmetric"):
        fit = report.structures[name]
        assert fit.witness is not None, name
    # nullspace-based tests report the per-point nullspace dimensions instead
    venzi = report.structures["venzi_riemann"]
    assert venzi.extra.get("nullspace_dim_per_point") == [0] * 12


def test_reference_annotations(bardeen_classified):
    _, _, report = bardeen_classified
    for name in ("roter", "einstein_level_2", "pseudosymmetric",
                 "conformal_two_forms_recurrent", "stress_pseudosymmetric",
                 "riemann_minus_ricci_tachibana"):
        assert report.structures[name].reference_match is True, name
    # the two published variants of the pseudosymmetry coefficient disagree;
    # the log records which one the fit matches
    assert any("pseudosymmetric" in d and "alternative" in d
               for d in report.discrepancies)
    # the first published difference-tensor coefficient matches no candidate
    assert report.structures["difference_tensor_vs_g_S_riemann"] \
        .reference_match is False
    assert any("difference_tensor_vs_g_S_riemann" in d
               for d in report.discrepancies)


# ---------------------------------------------------------------------------
# negative control: a generic metric exhibits none of the special structures

GENERIC = """\
dim 4
coords t x y z
range x 1 2
range y 1 2
range z 1 2
g[0][0] = -(1 + x^2 + y^2)
g[1][1] = 1 + y^2 + z^2
g[2][2] = 1 + z^2
g[3][3] = 1 + x^2*y^2
"""


def test_generic_metric_has_no_special_structure():
    spec = parse_metric_source(GENERIC, "generic")
    bundle = build_bundle(invert_metric(spec.g()), spec.coords)
    report = classify_metric(spec, bundle)
    for name in ("pseudosymmetric", "roter", "einstein", "recurrent",
                 "semisymmetric", "einstein_level_2", "codazzi_ricci",
                 "weakly_symmetric", "riemann_compatible_ricci"):
        assert report.verdict(name) == "fails", name


def test_constant_rescaling_preserves_verdicts(bardeen_classified):
    _, _, base = bardeen_classified
    lapse = "1 - 2*M*r^2/(e^2+r^2)^(3/2)"
    text = (
        "dim 4\ncoords t r theta phi\nparams M e\n"
        "range r 1.5 3\nrange theta 0.3 2.8\n"
        f"g[0][0] = -2*({lapse})\n"
        f"g[1][1] = 2/({lapse})\n"
        "g[2][2] = 2*r^2\n"
        "g[3][3] = 2*r^2*sin(theta)^2\n")
    spec = parse_metric_source(text, "rescaled")
    bundle = build_bundle(invert_metric(spec.g()), spec.coords)
    report = classify_metric(spec, bundle, params={"M": 1.0, "e": 0.5})
    for name, fit in base.structures.items():
        assert report.verdict(name) == fit.verdict, name


# ---------------------------------------------------------------------------
# comparison

def test_compare_metrics(bardeen_classified, rn_classified):
    _, _, rep_a = bardeen_classified
    _, _, rep_b = rn_classified
    cmp = compare_metrics(rep_a, rep_b)
    assert cmp["metrics"] == ["bardeen", "reissner_nordstrom"]
    for name in ("roter", "pseudosymmetric", "einstein_level_2"):
        assert name in cmp["shared_holds"]
    assert "scalar_curvature_zero" in cmp["differing"]
    assert "einstein" in cmp["shared_fails"]


def test_compare_metrics_requires_same_structures(bardeen_classified):
    _, _, rep = bardeen_classified
    partial = StructureReport(metric_id="partial", plan=rep.plan, tol=rep.tol)
    with pytest.raises(ClassifyError):
        compare_metrics(rep, partial)
