"""Command-line front end.

Subcommands:
    components  dump a named tensor of the curvature bundle
    classify    full structure classification report
    verify      compare engine output against the published component tables
    compare     side-by-side classification of two metrics

Exit codes: 0 success (flagged discrepancies do not fail the run),
1 computation/domain error, 2 usage error, 141 stdout closed by its
reader before the output was written (128 + SIGPIPE, the status a shell
reports for a program that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
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


def _one_metric(args) -> str:
    """The one --metric selector of a single-metric subcommand."""
    first, *extra = args.metric
    if extra:
        raise UsageError(f"{args.command} takes one --metric; got also "
                         + ", ".join(f"'{m}'" for m in extra))
    return first


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
    spec = _resolve_metric(_one_metric(args))
    # lazy: the dump builds only the layers of the tensor it prints
    bundle = cv.CurvatureBundle(tn.invert_metric(spec.g()), spec.coords,
                                args.lam)
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


def _classify_all(selectors: List[str], args) -> List[cf.StructureReport]:
    """The report of each metric, with one shared --param list.  Every
    option and each metric's parameters are checked before any symbolic
    build; with two metrics, a parameter error names the metric."""
    if args.tol <= 0:
        raise UsageError("--tol must be positive")
    if args.points < 4:
        raise UsageError("--points must be at least 4")
    specs = [_resolve_metric(m) for m in selectors]
    params = _parse_params(args.param)
    for spec in specs:
        try:
            spec.bind(params)
        except catalog.CatalogError as exc:
            if len(specs) == 1:
                raise
            raise catalog.CatalogError(
                f"metric '{spec.id}': {exc}") from None
    return [cf.classify_metric(
        spec, _build(spec, args.lam), params, count=args.points,
        tol=args.tol, seed=args.seed,
        reference_forms=catalog.reference_coefficient_forms(spec.id))
        for spec in specs]


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
    report, = _classify_all([_one_metric(args)], args)
    data = report.to_json()
    if args.format == "markdown":
        _emit(_report_markdown(data), args.out)
    else:
        _emit(_json_dump(data), args.out)
    return 0


def _cmd_verify(args) -> int:
    spec = _resolve_metric(_one_metric(args))
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
    comp = cf.compare_metrics(*_classify_all(args.metric, args))
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


# the options each subcommand reads besides --metric, --format and --out
_OPTIONS = {"param": dict(action="append", metavar="K=V"),
            "lambda": dict(dest="lam", type=float, default=0.0),
            "points": dict(type=int, default=cf.DEFAULT_POINTS),
            "tol": dict(type=float, default=cf.DEFAULT_TOL),
            "seed": dict(type=int, default=cf.DEFAULT_SEED),
            "tensor": dict(default="R",
                           help=", ".join(cv.TENSORS) + ", or kappa")}
_CLASSIFY = "param lambda points tol seed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvkit",
        description="curvature structure engine for closed-form metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in (
            ("components", _cmd_components, "lambda tensor"),
            ("classify", _cmd_classify, _CLASSIFY),
            ("verify", _cmd_verify, "lambda seed"),
            ("compare", _cmd_compare, _CLASSIFY)):
        p = sub.add_parser(name)
        p.add_argument("--metric", action="append", required=True,
                       help="builtin id or path to a metric file "
                            "(twice for compare)")
        for opt in options.split():
            p.add_argument(f"--{opt}", **_OPTIONS[opt])
        p.add_argument("--format", choices=("json", "markdown"),
                       default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    return parser


# built on the first run: a process that runs many commands parses each
# with the same tree
_PARSER: Optional[argparse.ArgumentParser] = None
# the exit status when the reader of stdout closes it early
EXIT_BROKEN_PIPE = 128 + 13


def run(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, catalog.CatalogError, ec.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ec.EvalError, tn.TensorError, cf.ClassifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE


def main():
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # the reader is gone (`curvkit ... | head`): point stdout at
        # devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
