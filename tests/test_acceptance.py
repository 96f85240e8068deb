"""Acceptance criteria for the curvature structure engine.

One test per criterion; each prints a single PASS/FAIL line and then
asserts.  Where a published table entry or claim is false for the metric,
the criterion checks that an oracle sharing no code with curvkit
(``oracles.py``: sympy curvature and index-loop products) agrees with the
engine and refutes the published statement, so a regression anywhere in
the criterion still turns it red.
"""

import itertools
import json
import time

import numpy as np
import sympy as sp

import curvkit.exprcore as ec
from curvkit import cli
from curvkit.catalog import (builtin, reference_component_checks)
from curvkit.classify import (DEFAULT_SEED, VERIFY_POINTS, build_sample_plan,
                              check_values, compare_metrics, evaluate_plan,
                              verify_component_tables)
from curvkit.curvature import build_bundle
from curvkit.tensor import (dot_action, invert_metric, kulkarni_nomizu,
                            tachibana)

from oracles import (COORDS, bardeen_lapse, dot_oracle, f, kn_oracle, r,
                     reissner_nordstrom_lapse, tach_oracle)
from test_curvature import eval_obj, gmat, sample_points
from test_tensor import rand_tensor

N = 4


def outcome(num, label, ok, detail):
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'} "
          f"- {detail}")


def coeff_matches(report, name, index, expr_text, spec, rel_tol=1e-8):
    fit = report.structures[name]
    expr = ec.parse_expr(expr_text, set(spec.coords) | set(spec.params))
    for pi, coef in enumerate(fit.coefficients):
        if coef is None:
            continue
        values = dict(report.plan.points[pi])
        values.update(report.plan.params)
        want = ec.eval_float(expr, values, {})
        if abs(coef[index] - want) > rel_tol * (1 + abs(coef[index])
                                                + abs(want)):
            return False
    return True


# ---------------------------------------------------------------------------

# Entries of the published bardeen tables (reference_component_checks())
# that are false for the metric, keyed by (kind, 1-based indices).  The value
# is the exact ratio true/published where the slip is a single factor, in
# sympy syntax with P = e^2 + r^2; None where the printed expression differs
# in form.
_P = "(e**2 + r**2)"
PUBLISHED_TABLE_DEFECTS = {
    # sign slips
    ("wedge:g:g", (2, 4, 2, 4)): "-1",
    ("dot:C:T", (2, 3, 2, 3)): "-1",
    ("dot:C:T", (2, 4, 2, 4)): "-1",
    # R.T and Q(g,T) printed at 1/8 of their value; T itself matches
    ("dot:R:T", (1, 3, 1, 3)): "8",
    ("dot:R:T", (1, 4, 1, 4)): "8",
    ("dot:R:T", (2, 3, 2, 3)): "8",
    ("dot:R:T", (2, 4, 2, 4)): "8",
    ("tach:g:T", (1, 3, 1, 3)): "8",
    ("tach:g:T", (1, 4, 1, 4)): "8",
    ("tach:g:T", (2, 3, 2, 3)): "8",
    ("tach:g:T", (2, 4, 2, 4)): "8",
    ("tensor:nabla_R", (3, 4, 3, 4, 2)): "4",
    # P^(5/2) printed where P^5 belongs; spherical symmetry alone forces
    # C_1313 = -(r^2 f/2) C_1212, and C_1212 matches
    ("tensor:C", (1, 3, 1, 3)): f"{_P}**(-5/2)",
    ("tensor:C", (1, 4, 1, 4)): f"{_P}**(-5/2)",
    ("tensor:nabla_R", (1, 2, 1, 3, 3)): f"{_P}**(-5/2)",
    ("tensor:nabla_R", (1, 2, 1, 4, 4)): f"{_P}**(-5/2)",
    ("tensor:nabla_R", (1, 4, 1, 4, 2)): f"{_P}**(-5/2)",
    ("tensor:nabla_R", (1, 3, 1, 3, 2)): f"-{_P}**(-5/2)",  # and the sign
    ("tensor:nabla_C", (1, 2, 1, 3, 3)): f"{_P}**(-5/2)",
    ("tensor:nabla_C", (1, 2, 1, 4, 4)): f"{_P}**(-5/2)",
    # (g^g)_3434 = -2 g_33 g_44 printed without one factor r^2
    ("wedge:g:g", (3, 4, 3, 4)): "r**2",
    # different in form
    ("tensor:S", (1, 1)): None,
    ("tensor:nabla_R", (1, 2, 1, 2, 2)): None,
    ("tensor:nabla_C", (1, 2, 1, 2, 2)): None,
    ("tensor:nabla_C", (3, 4, 3, 4, 2)): None,
    ("tensor:nabla_C", (1, 3, 1, 3, 2)): None,
    ("tensor:nabla_C", (1, 4, 1, 4, 2)): None,
    ("dot:R:C", (1, 4, 3, 4, 1, 3)): None,
    ("dot:R:C", (1, 3, 3, 4, 1, 4)): None,
    ("dot:C:R", (1, 4, 3, 4, 1, 3)): None,
    ("dot:C:R", (1, 3, 3, 4, 1, 4)): None,
    ("dot:C:R", (2, 4, 3, 4, 2, 3)): None,
    ("dot:C:R", (2, 3, 3, 4, 2, 4)): None,
    ("tach:g:R", (1, 4, 3, 4, 1, 3)): None,
    ("tach:g:R", (1, 3, 3, 4, 1, 4)): None,
    ("tach:S:R", (1, 2, 2, 3, 1, 3)): None,
    ("tach:S:R", (1, 2, 1, 3, 2, 3)): None,
    ("tach:S:R", (1, 2, 2, 4, 1, 4)): None,
    ("tach:S:R", (1, 2, 1, 4, 2, 4)): None,
    ("tach:S:C", (1, 2, 2, 3, 1, 3)): None,
    ("tach:S:C", (1, 2, 2, 4, 1, 4)): None,
    ("tach:S:C", (1, 2, 1, 3, 2, 3)): None,
    ("tach:S:C", (1, 2, 1, 4, 2, 4)): None,
    ("tach:S:C", (2, 4, 3, 4, 2, 3)): None,
    ("tach:S:C", (2, 3, 3, 4, 2, 4)): None,
}

TABLE_SYMBOLS = {str(x): x for x in COORDS}
TABLE_SYMBOLS.update({n: sp.Symbol(n) for n in ("M", "e", "Lambda")})


def table_function(texts):
    """Catalog expressions evaluated by sympy, not by curvkit's parser:
    values dict -> list of floats, with Lambda = 0 as in verify and in the
    oracle's T."""
    fn = sp.lambdify(list(TABLE_SYMBOLS.values()),
                     [sp.sympify(text.replace("^", "**"), locals=TABLE_SYMBOLS)
                      for text in texts])
    return lambda values: fn(*(values.get(name, 0.0)
                               for name in TABLE_SYMBOLS))


def oracle_table_value(arrays, kind, indices, products):
    """The oracle's value of one table entry; products caches the
    loop-oracle products per point."""
    idx = tuple(i - 1 for i in indices)
    op, *names = kind.split(":")
    if op == "tensor":
        return float(arrays[names[0]][idx])
    if kind not in products:
        a, b = (arrays[nm] for nm in names)
        if op == "wedge":
            products[kind] = kn_oracle(a, b)
        elif op == "dot":
            products[kind] = dot_oracle(a, b, arrays["ginv"])
        else:
            products[kind] = tach_oracle(a, b)
    return float(products[kind][idx])


def close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def test_criterion_01_component_regression(bardeen_classified,
                                           spherical_oracle):
    spec, bundle, _ = bardeen_classified
    seed = DEFAULT_SEED
    start = time.perf_counter()
    res = verify_component_tables(spec, bundle, reference_component_checks(),
                                  seed=seed)
    elapsed = time.perf_counter() - start
    mismatches = [c for c in res["checks"] if c["status"] == "mismatch"]
    all_logged = all(c.get("engine_confirmed_by_finite_differences") is True
                     for c in mismatches)
    mismatched = {(c["kind"], tuple(c["indices"])) for c in mismatches}
    unlisted = sorted(mismatched - set(PUBLISHED_TABLE_DEFECTS))
    now_matching = sorted(set(PUBLISHED_TABLE_DEFECTS) - mismatched)

    # the oracle decides each listed entry at the two points where verify
    # re-checks mismatches by finite differences
    published = {(c["kind"], c["indices"]): c["expr"]
                 for c in reference_component_checks()}
    keys = list(PUBLISHED_TABLE_DEFECTS)
    published_at = table_function([published[k] for k in keys])
    slips = [k for k in keys if PUBLISHED_TABLE_DEFECTS[k] is not None]
    ratios_at = table_function([PUBLISHED_TABLE_DEFECTS[k] for k in slips])
    at = spherical_oracle.evaluator(
        ("g", "ginv", "R", "S", "C", "T", "nabla_R", "nabla_C"),
        bardeen_lapse())
    plan = build_sample_plan(spec, None, VERIFY_POINTS, seed)
    batch, tables = evaluate_plan(bundle, plan), {}
    refuted = set(PUBLISHED_TABLE_DEFECTS)
    failures = []
    for pi, pt in enumerate(plan.points[:2]):
        values = dict(pt, **plan.params)
        arrays, products = at(values), {}
        pubs = dict(zip(keys, published_at(values)))
        ratios = dict(zip(slips, ratios_at(values)))
        for key in keys:
            kind, indices = key
            want = oracle_table_value(arrays, kind, indices, products)
            eng = float(check_values(kind, indices, batch, tables)[pi])
            pub = pubs[key]
            ok = close(want, eng, 1e-9) and not close(want, pub, 1e-6)
            if key in ratios:
                ok = ok and close(want, ratios[key] * pub, 1e-9)
            if not ok:
                refuted.discard(key)
                failures.append((key, want, eng, pub))
    accounted = res["matched"] + len(refuted)
    frac = accounted / res["total"]
    ok = (frac >= 0.95 and all_logged and elapsed < 60.0 and not unlisted
          and not now_matching and not failures)
    outcome(1, "component regression", ok,
            f"{res['matched']}/{res['total']} entries match verbatim, "
            f"{len(refuted)}/{len(mismatches)} mismatches are published "
            f"defects the oracle confirms, {100 * frac:.1f}% accounted for, "
            f"all FD-confirmed: {all_logged}, runtime {elapsed:.1f}s")
    assert elapsed < 60.0
    assert all_logged, "every mismatch must be FD-confirmed engine-side"
    assert not unlisted, f"mismatches not listed as published defects: " \
        f"{unlisted}"
    assert not now_matching, f"listed defects that now match: {now_matching}"
    assert not failures, (
        "listed entries where the oracle does not match the engine, or does "
        f"not refute the published value as listed: {failures}")
    assert frac >= 0.95, (
        f"only {100 * frac:.1f}% of published entries match verbatim or are "
        f"defects confirmed by the oracle")


def test_criterion_02_roter_fit(bardeen_classified):
    spec, _, report = bardeen_classified
    fit = report.structures["roter"]
    ok = fit.verdict == "holds" and fit.reference_match is True \
        and len(report.plan.points) == 12
    outcome(2, "Roter fit", ok,
            f"verdict {fit.verdict}, residual {fit.residual:.2e}, all three "
            f"coefficients match the published closed forms at 12 points")
    assert ok


def test_criterion_03_einstein_level_two(bardeen_classified):
    spec, _, report = bardeen_classified
    fit = report.structures["einstein_level_2"]
    beta_ok = coeff_matches(report, "einstein_level_2", 0,
                            "3*M*e^2*(4*(e^2+r^2)-5*r^2)/(e^2+r^2)^(7/2)",
                            spec)
    ok = (fit.verdict == "holds" and fit.residual < 1e-9 and beta_ok
          and report.verdict("einstein") == "fails")
    outcome(3, "Ein(2)", ok,
            f"residual {fit.residual:.2e}, beta matches closed form: "
            f"{beta_ok}, einstein verdict {report.verdict('einstein')}")
    assert ok


def test_criterion_04_pseudosymmetry_suite(bardeen_classified):
    spec, _, report = bardeen_classified
    names = ("pseudosymmetric", "conformal_pseudosymmetric",
             "weyl_dot_riemann_pseudosymmetric", "pseudosymmetric_weyl",
             "concircular_dot_riemann_pseudosymmetric",
             "conharmonic_dot_riemann_pseudosymmetric")
    holds = all(report.verdict(n) == "holds" for n in names)
    wk_match = all(report.structures[n].reference_match is True for n in
                   ("concircular_dot_riemann_pseudosymmetric",
                    "conharmonic_dot_riemann_pseudosymmetric"))
    semi = report.structures["semisymmetric"]
    ok = holds and wk_match and semi.verdict == "fails" \
        and semi.witness is not None
    outcome(4, "pseudosymmetry suite", ok,
            f"all six fits hold: {holds}, W.R/K.R closed forms match: "
            f"{wk_match}, semisymmetric {semi.verdict} with witness")
    assert ok


def test_criterion_05_difference_tensor(bardeen_classified):
    spec, _, report = bardeen_classified
    a = report.structures["difference_tensor_vs_g_S_riemann"]
    b = report.structures["difference_tensor_vs_S_g_weyl"]
    unit = coeff_matches(report, "difference_tensor_vs_S_g_weyl", 0, "1",
                         spec)
    rb3 = coeff_matches(
        report, "difference_tensor_vs_S_g_weyl", 1,
        "2*M*(4*(e^2+r^2)-5*r^2)*e^2/(e^2+r^2)^(7/2)", spec)
    ok = (a.verdict == "holds" and a.residual < 1e-9
          and b.verdict == "holds" and b.residual < 1e-9 and unit and rb3)
    outcome(5, "difference-tensor relations", ok,
            f"residuals {a.residual:.2e}/{b.residual:.2e}, Q(S,C) "
            f"coefficient = 1: {unit}, Q(g,C) coefficient matches: {rb3}")
    assert ok


# nabla_theta R_{t r t theta}, 0-based with the derivative index last
RECURRENCE_SLOT = (0, 1, 0, 2, 2)
PUBLISHED_RECURRENCE = ("weakly_generalized_recurrent",
                        "special_metric_ricci_wedge_recurrent")
RECURRENCE_FITS = ("recurrent",) + PUBLISHED_RECURRENCE


def recurrence_obstruction(oracle, lapse, classified):
    """Why nabla R = A (x) R + B (x) (S^S) and nabla R = A (x) (g^S) have no
    solution on a metric -f dt^2 + ... with lapse f.

    At every slot where R, g^S and S^S vanish identically, a pointwise fit
    of nabla R on any of those bases keeps nabla R itself as its residual.
    RECURRENCE_SLOT is such a slot, and sympy derives
    nabla R there = f (r f'' - f')/2 from the metric.  Returns whether that
    closed form holds, whether the engine's nabla R matches it at every
    sample point, and per sample point the lower bound that these slots put
    on the relative residual of each fit."""
    _, bundle, report = classified
    gS = kn_oracle(oracle.g, oracle.S)
    SS = kn_oracle(oracle.S, oracle.S)
    zero_slots = [q for q in itertools.product(range(4), repeat=4)
                  if oracle.R[q] == 0 and sp.cancel(gS[q]) == 0
                  and sp.cancel(SS[q]) == 0]
    closed = f * (r * f.diff(r, 2) - f.diff(r)) / 2
    closed_ok = (RECURRENCE_SLOT[:4] in zero_slots
                 and sp.simplify(oracle.nabla_R[RECURRENCE_SLOT] - closed)
                 == 0)
    params = sorted(lapse.free_symbols - {r}, key=str)
    closed_at = sp.lambdify([r] + params, closed.subs(f, lapse).doit())
    at = oracle.evaluator(("nabla_R",), lapse)
    engine_ok = True
    bounds = []
    for pt in report.plan.points:
        values = dict(pt)
        values.update(report.plan.params)
        want = closed_at(values["r"], *(values[str(p)] for p in params))
        eng = ec.eval_float(bundle.nabla_R.data[RECURRENCE_SLOT], values, {})
        engine_ok = engine_ok and close(eng, want, 1e-9)
        nab = np.abs(at(values)["nabla_R"])
        bounds.append(max(nab[q].max() for q in zero_slots)
                      / (1.0 + nab.max()))
    return closed_ok, engine_ok, bounds


def residuals_forced(fit, bounds, tol):
    """fit fails at every point by at least the bound nabla R forces, and
    every bound is far above tol."""
    return (fit.verdict == "fails" and fit.witness is not None
            and min(bounds) > 1e6 * tol
            and all(res is not None and res >= b * (1 - 1e-6)
                    for res, b in zip(fit.residuals, bounds)))


def test_criterion_06_recurrence(bardeen_classified, spherical_oracle):
    _, _, report = bardeen_classified
    closed_ok, engine_ok, bounds = recurrence_obstruction(
        spherical_oracle, bardeen_lapse(), bardeen_classified)
    fits = {n: report.structures[n] for n in RECURRENCE_FITS}
    fail_ok = all(residuals_forced(fit, bounds, report.tol)
                  for fit in fits.values())
    logged = all(any(d.startswith(f"bardeen/{n}:")
                     for d in report.discrepancies)
                 for n in PUBLISHED_RECURRENCE)
    ok = closed_ok and engine_ok and fail_ok and logged
    outcome(6, "recurrence", ok,
            f"plain, weakly generalized and special recurrence fail with "
            f"residuals {[round(fit.residual, 3) for fit in fits.values()]}, "
            f"up to {max(bounds):.3f} forced where R, g^S and S^S vanish; "
            f"nabla R closed form derived: {closed_ok}, engine matches it: "
            f"{engine_ok}, published claims logged: {logged}")
    assert closed_ok, "sympy no longer gives nabla R = f (r f'' - f')/2 " \
        "on a slot where R, g^S and S^S vanish"
    assert engine_ok, "engine nabla R differs from the sympy closed form"
    assert fail_ok, (
        "each recurrence fit must fail at every point with at least the "
        "residual that nabla R forces on slots where every basis tensor "
        f"vanishes ({bounds}): {fits}")
    assert logged, "the published recurrence 1-forms must be logged as " \
        "discrepancies"


def test_criterion_07_form_recurrence(bardeen_classified):
    spec, _, report = bardeen_classified
    c = report.structures["conformal_two_forms_recurrent"]
    r = report.structures["riemann_two_forms_recurrent"]
    ok = (c.verdict == "holds" and c.reference_match is True
          and r.verdict == "fails")
    outcome(7, "curvature 2-form recurrence", ok,
            f"conformal: {c.verdict} with the published 1-form "
            f"(match {c.reference_match}), riemann: {r.verdict}")
    assert ok


def test_criterion_08_compatibility_and_negatives(bardeen_classified):
    spec, _, report = bardeen_classified
    compat = ["riemann_compatible_ricci", "weyl_compatible_ricci",
              "riemann_compatible_stress", "weyl_compatible_stress"]
    compat_ok = all(report.verdict(n) == "holds"
                    and report.structures[n].residual < 1e-9 for n in compat)
    negatives = ["codazzi_ricci", "cyclic_parallel_ricci",
                 "chaki_pseudosymmetric", "weakly_symmetric",
                 "venzi_riemann", "venzi_weyl", "venzi_projective",
                 "venzi_concircular", "venzi_conharmonic", "quasi_einstein"]
    neg_ok = True
    for n in negatives:
        fit = report.structures[n]
        evidenced = fit.witness is not None or bool(fit.extra)
        neg_ok = neg_ok and fit.verdict == "fails" and evidenced
    ok = compat_ok and neg_ok
    outcome(8, "compatibility and negatives", ok,
            f"Ricci/T Riemann- and Weyl-compatible: {compat_ok}, all ten "
            f"negative structures fail with evidence: {neg_ok}")
    assert ok


# structures the paper finds shared by the two charged black holes, and
# those that set them apart
SIMILARITY_STRUCTURES = (
    "roter",
    "einstein_level_2",
    "pseudosymmetric",
    "conformal_two_forms_recurrent",
    "riemann_compatible_ricci",
    "weyl_compatible_ricci",
)
DISSIMILARITY_STRUCTURES = (
    "scalar_curvature_zero",
    "weakly_generalized_recurrent",
    "special_metric_ricci_wedge_recurrent",
)


def test_criterion_09_comparison(bardeen_classified, rn_classified,
                                 ingoing_oracle):
    _, _, rep_b = bardeen_classified
    _, _, rep_r = rn_classified
    cmp = compare_metrics(rep_b, rep_r)
    sim_ok = all(n in cmp["shared_holds"] for n in SIMILARITY_STRUCTURES)
    kappa_differs = "scalar_curvature_zero" in cmp["differing"]
    recurrence = [n for n in DISSIMILARITY_STRUCTURES
                  if n != "scalar_curvature_zero"]
    shared = all(n in cmp["shared_fails"] for n in recurrence)
    kap_rn = rep_r.structures["scalar_curvature_zero"]
    kap_b = rep_b.structures["scalar_curvature_zero"]
    kappa_ok = (kap_rn.verdict == "holds"
                and kap_b.verdict == "fails"
                and all(abs(k) > 1e-6
                        for k in kap_b.extra["kappa_per_point"]))
    closed_ok, engine_ok, bounds = recurrence_obstruction(
        ingoing_oracle, reissner_nordstrom_lapse(), rn_classified)
    rn_ok = closed_ok and engine_ok and all(
        residuals_forced(rep_r.structures[n], bounds, rep_r.tol)
        for n in recurrence)
    ok = sim_ok and kappa_differs and kappa_ok and shared and rn_ok
    outcome(9, "published comparison", ok,
            f"similarities shared: {sim_ok}, kappa(RN)=0 and "
            f"kappa(regular)!=0: {kappa_ok and kappa_differs}, both "
            f"recurrence structures fail on both metrics: {shared}, RN "
            f"residuals up to {max(bounds):.3f} forced by nabla R: {rn_ok}")
    assert sim_ok and kappa_ok and kappa_differs
    assert shared, (
        f"the published recurrence dissimilarities are false: both "
        f"structures must fail on both metrics, got "
        f"{ {n: cmp['verdicts'][n] for n in recurrence} }")
    assert rn_ok, (
        "on reissner_nordstrom nabla R must match the sympy closed form and "
        "force each recurrence residual above the bound")


def test_criterion_10_controls(mink_classified, schw_classified):
    _, _, mink = mink_classified
    spec_s, bundle_s, _ = schw_classified
    trivial = {"einstein", "scalar_curvature_zero"}
    flat_ok = all(fit.verdict == "degenerate"
                  for name, fit in mink.structures.items()
                  if name not in trivial)
    flat_ok = flat_ok and mink.verdict("einstein") == "holds" \
        and mink.verdict("scalar_curvature_zero") == "holds"

    ricci_ok = True
    for values in sample_points(spec_s, 6, seed=31):
        S = eval_obj(bundle_s.S.data, values)
        ricci_ok = ricci_ok and np.abs(S).max() < 1e-10

    spec_b = builtin("bardeen")
    bundle_b = build_bundle(invert_metric(spec_b.g()), spec_b.coords)
    conv_ok = True
    rates = []
    for values in sample_points(spec_s, 3, seed=37):
        R_s = eval_obj(bundle_s.R.data, values)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            vb = dict(values)
            vb["e"] = eps
            errs.append(np.abs(eval_obj(bundle_b.R.data, vb) - R_s).max())
        c_hat = errs[0] / 1e-4
        rates.append(c_hat)
        # quadratic decay, allowing slack for float64 noise at e = 1e-4
        conv_ok = conv_ok and errs[1] <= 5 * c_hat * 1e-6 + 1e-12
        conv_ok = conv_ok and errs[2] <= 5 * c_hat * 1e-8 + 1e-10

    ok = flat_ok and ricci_ok and conv_ok
    outcome(10, "controls", ok,
            f"flat metric degenerate-flat: {flat_ok}, vacuum Ricci < 1e-10: "
            f"{ricci_ok}, O(e^2) convergence: {conv_ok}")
    assert ok


def test_criterion_11_oracle_equivalence(bardeen_classified):
    prod_ok = True
    for _ in range(50):
        tau = rand_tensor(2, 3, "symmetric")
        lam = rand_tensor(2, 3, "symmetric")
        D = rand_tensor(4, 3, "riemann")
        eta = rand_tensor(3, 3)
        ginv = rand_tensor(2, 3, "symmetric").data + 3 * np.eye(3)
        checks = [
            (kulkarni_nomizu(tau, lam).data, kn_oracle(tau.data, lam.data)),
            (dot_action(D, eta, ginv).data,
             dot_oracle(D.data, eta.data, ginv)),
            (tachibana(lam, eta).data, tach_oracle(lam.data, eta.data)),
        ]
        for got, want in checks:
            prod_ok = prod_ok and np.abs(got - want).max() <= 1e-11 * (
                1 + np.abs(want).max())

    spec, bundle, _ = bardeen_classified
    fd_ok = True
    for values in sample_points(spec, 10, seed=41):
        dg = np.empty((N, N, N))
        for c, name in enumerate(spec.coords):
            up, dn = dict(values), dict(values)
            up[name] += 1e-5
            dn[name] -= 1e-5
            dg[..., c] = (gmat(spec, up) - gmat(spec, dn)) / 2e-5
        ginv = np.linalg.inv(gmat(spec, values))
        gam_fd = 0.5 * (np.einsum("hk,jki->hij", ginv, dg)
                        + np.einsum("hk,ikj->hij", ginv, dg)
                        - np.einsum("hk,ijk->hij", ginv, dg))
        gam = eval_obj(bundle.gamma, values)
        fd_ok = fd_ok and np.abs(gam - gam_fd).max() <= 1e-6 * (
            1 + np.abs(gam_fd).max())

        dgam = np.empty((N, N, N, N))
        for c, name in enumerate(spec.coords):
            up, dn = dict(values), dict(values)
            up[name] += 1e-5
            dn[name] -= 1e-5
            dgam[..., c] = (eval_obj(bundle.gamma, up)
                            - eval_obj(bundle.gamma, dn)) / 2e-5
        rup = (np.einsum("hikj->hijk", dgam) - dgam
               + np.einsum("hjl,lik->hijk", gam, gam)
               - np.einsum("hkl,lij->hijk", gam, gam))
        R_fd = np.einsum("hl,lijk->hijk", gmat(spec, values), rup)
        R = eval_obj(bundle.R.data, values)
        fd_ok = fd_ok and np.abs(R - R_fd).max() <= 1e-6 * (
            1 + np.abs(R_fd).max())

    ok = prod_ok and fd_ok
    outcome(11, "oracle equivalence", ok,
            f"products match loop oracles on 50 dimension-3 inputs: "
            f"{prod_ok}, Christoffel/Riemann match finite differences at "
            f"10 points: {fd_ok}")
    assert ok


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = cli.run(["classify", "--metric", "bardeen", "--out", str(a)])
    rc2 = cli.run(["classify", "--metric", "bardeen", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # must be valid JSON
    ok = rc1 == 0 and rc2 == 0 and identical
    outcome(12, "determinism", ok,
            f"two seeded runs byte-identical: {identical}")
    assert ok
