"""Command-line front end.

Subcommands:
    components  dump a named tensor of the curvature bundle
    classify    full structure classification report
    verify      compare engine output against the published component tables
    compare     side-by-side classification of two metrics

Exit codes: 0 success (flagged discrepancies do not fail the run),
1 computation/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Dict, List, Optional

from . import catalog
from . import classify as cf
from . import curvature as cv
from . import exprcore as ec
from . import tensor as tn


class UsageError(Exception):
    pass


def _parse_params(items: Optional[List[str]]) -> Dict[str, float]:
    out = {}
    for item in items or []:
        name, eq, val = item.partition("=")
        if not eq:
            raise UsageError(f"--param needs K=V, got '{item}'")
        try:
            out[name] = float(val)
        except ValueError:
            raise UsageError(f"bad numeric value in --param '{item}'")
    return out


def _resolve_metric(selector: str) -> catalog.MetricSpec:
    if selector in catalog.BUILTIN_IDS:
        return catalog.builtin(selector)
    return catalog.load_metric(selector)


def _build(spec: catalog.MetricSpec, lam: float) -> cv.CurvatureBundle:
    md = tn.invert_metric(spec.g())
    return cv.build_bundle(md, spec.coords, lam)


def _emit(text: str, out_path: Optional[str]):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_components(args) -> int:
    spec = _resolve_metric(args.metric[0])
    bundle = _build(spec, args.lam)
    name = args.tensor
    if name == "kappa":
        payload = {"metric": spec.id, "tensor": "kappa",
                   "expression": ec.to_string(bundle.kappa)}
    else:
        try:
            t = bundle.tensor(name)
        except KeyError as exc:
            raise UsageError(str(exc).strip('"'))
        comps = {}
        memo = {}   # one printer memo for the dump: entries share subtrees
        for idx in itertools.product(range(t.dim), repeat=t.valence):
            e = t.data[idx]
            if not e.is_zero():
                comps["".join(str(i) for i in idx)] = ec.to_string(e, memo)
        payload = {"metric": spec.id, "tensor": name,
                   "dimension": t.dim, "valence": t.valence,
                   "nonzero_components": comps}
    if args.format == "markdown":
        lines = [f"# {spec.id}: {name}", ""]
        if "expression" in payload:
            lines.append(f"    kappa = {payload['expression']}")
        else:
            for k, v in sorted(payload["nonzero_components"].items()):
                lines.append(f"    [{k}] = {v}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dump(payload), args.out)
    return 0


def _classify_one(selector: str, args) -> cf.StructureReport:
    spec = _resolve_metric(selector)
    bundle = _build(spec, args.lam)
    forms = catalog.reference_coefficient_forms(spec.id)
    return cf.classify_metric(spec, bundle, _parse_params(args.param),
                              count=args.points, tol=args.tol,
                              seed=args.seed, reference_forms=forms)


def _report_markdown(data: Dict) -> str:
    lines = [f"# Classification: {data['metric']}", "",
             f"seed {data['seed']}, tol {data['tol']}, "
             f"{len(data['points'])} points", "",
             "| structure | verdict | residual | reference form |",
             "|---|---|---|---|"]
    for s in data["structures"]:
        ref = {True: "match", False: "MISMATCH", None: "-"}[
            s["reference_form_match"]]
        lines.append(f"| {s['name']} | {s['verdict']} | "
                     f"{s['residual']:.3e} | {ref} |")
    if data["discrepancies"]:
        lines += ["", "## Discrepancies", ""]
        lines += [f"- {d}" for d in data["discrepancies"]]
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    report = _classify_one(args.metric[0], args)
    data = report.to_json()
    if args.format == "markdown":
        _emit(_report_markdown(data), args.out)
    else:
        _emit(_json_dump(data), args.out)
    return 0


def _cmd_verify(args) -> int:
    spec = _resolve_metric(args.metric[0])
    if spec.id != "bardeen":
        raise UsageError("verify has published reference tables only for "
                         "--metric bardeen")
    bundle = _build(spec, args.lam)
    res = cf.verify_component_tables(spec, bundle,
                                     catalog.reference_component_checks(),
                                     lam=args.lam, seed=args.seed)
    if args.format == "markdown":
        lines = [f"# Component verification: {spec.id}", "",
                 f"{res['matched']}/{res['total']} published entries match "
                 f"the engine", ""]
        for chk in res["checks"]:
            if chk["status"] == "mismatch":
                fd = ("engine confirmed by finite differences"
                      if chk.get("engine_confirmed_by_finite_differences")
                      else "engine NOT confirmed by finite differences")
                lines.append(f"- FLAG {chk['group']} {chk['kind']} "
                             f"{chk['indices']}: {fd}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dump(res), args.out)
    return 0


def _cmd_compare(args) -> int:
    if len(args.metric) != 2:
        raise UsageError("compare needs exactly two --metric selectors")
    rep_a = _classify_one(args.metric[0], args)
    rep_b = _classify_one(args.metric[1], args)
    comp = cf.compare_metrics(rep_a, rep_b)
    if args.format == "markdown":
        lines = [f"# Comparison: {comp['metrics'][0]} vs "
                 f"{comp['metrics'][1]}", "", "## Shared (holds)", ""]
        lines += [f"- {n}" for n in comp["shared_holds"]]
        lines += ["", "## Shared (fails)", ""]
        lines += [f"- {n}" for n in comp["shared_fails"]]
        lines += ["", "## Differing", ""]
        for n in comp["differing"]:
            row = comp["verdicts"][n]
            lines.append(f"- {n}: " + ", ".join(
                f"{m}={v}" for m, v in sorted(row.items())))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dump(comp), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvkit",
        description="curvature structure engine for closed-form metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("components", _cmd_components),
                     ("classify", _cmd_classify),
                     ("verify", _cmd_verify),
                     ("compare", _cmd_compare)):
        p = sub.add_parser(name)
        p.add_argument("--metric", action="append", required=True,
                       help="builtin id or path to a metric file "
                            "(repeatable for compare)")
        p.add_argument("--param", action="append", metavar="K=V")
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)
        p.add_argument("--points", type=int, default=cf.DEFAULT_POINTS)
        p.add_argument("--tol", type=float, default=cf.DEFAULT_TOL)
        p.add_argument("--seed", type=int, default=cf.DEFAULT_SEED)
        p.add_argument("--format", choices=("json", "markdown"),
                       default="json")
        p.add_argument("--out", default=None)
        if name == "components":
            p.add_argument("--tensor", default="R",
                           help=", ".join(cv.TENSORS) + ", or kappa")
        p.set_defaults(fn=fn)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.tol <= 0:
            raise UsageError("--tol must be positive")
        if args.points < 4:
            raise UsageError("--points must be at least 4")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (catalog.CatalogError, ec.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ec.EvalError, tn.TensorError, cf.ClassifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
