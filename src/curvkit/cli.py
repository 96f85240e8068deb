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
import math
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
            out[name] = math.nan
        if not math.isfinite(out[name]):    # also inf, nan and 1e400
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


# each _cmd_* returns its JSON payload, and each _*_markdown renders one
# as a list of lines; run writes either form

def _cmd_components(args) -> Dict:
    spec = _resolve_metric(_one_metric(args))
    # lazy: the dump builds only the layers of the tensor it prints
    bundle = cv.CurvatureBundle(tn.invert_metric(spec.g()), spec.coords,
                                args.lam)
    name = args.tensor
    if name == "kappa":
        return {"metric": spec.id, "tensor": "kappa",
                "expression": ec.to_string(bundle.kappa)}
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
    return {"metric": spec.id, "tensor": name, "dimension": t.dim,
            "valence": t.valence, "nonzero_components": comps}


def _components_markdown(data: Dict) -> List[str]:
    lines = [f"# {data['metric']}: {data['tensor']}", ""]
    if "expression" in data:
        return lines + [f"    kappa = {data['expression']}"]
    return lines + [f"    [{k}] = {v}" for k, v in
                    sorted(data["nonzero_components"].items())]


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


def _cmd_classify(args) -> Dict:
    report, = _classify_all([_one_metric(args)], args)
    return report.to_json()


def _classify_markdown(data: Dict) -> List[str]:
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
    return lines


def _cmd_verify(args) -> Dict:
    spec = _resolve_metric(_one_metric(args))
    if spec.id != "bardeen":
        raise UsageError("verify has published reference tables only for "
                         "--metric bardeen")
    bundle = _build(spec, args.lam)
    return cf.verify_component_tables(spec, bundle,
                                      catalog.reference_component_checks(),
                                      lam=args.lam, seed=args.seed)


def _verify_markdown(data: Dict) -> List[str]:
    lines = [f"# Component verification: {data['metric']}", "",
             f"{data['matched']}/{data['total']} published entries match "
             f"the engine", ""]
    for chk in data["checks"]:
        if chk["status"] == "mismatch":
            fd = ("engine confirmed by finite differences"
                  if chk.get("engine_confirmed_by_finite_differences")
                  else "engine NOT confirmed by finite differences")
            lines.append(f"- FLAG {chk['group']} {chk['kind']} "
                         f"{chk['indices']}: {fd}")
    return lines


def _cmd_compare(args) -> Dict:
    if len(args.metric) != 2:
        raise UsageError("compare needs exactly two --metric selectors")
    return cf.compare_metrics(*_classify_all(args.metric, args))


def _compare_markdown(data: Dict) -> List[str]:
    lines = [f"# Comparison: {data['metrics'][0]} vs {data['metrics'][1]}",
             "", "## Shared (holds)", ""]
    lines += [f"- {n}" for n in data["shared_holds"]]
    lines += ["", "## Shared (fails)", ""]
    lines += [f"- {n}" for n in data["shared_fails"]]
    lines += ["", "## Differing", ""]
    for n in data["differing"]:
        lines.append(f"- {n}: " + ", ".join(
            f"{m}={v}" for m, v in sorted(data["verdicts"][n].items())))
    return lines


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
    for name, fn, markdown, options in (
            ("components", _cmd_components, _components_markdown,
             "lambda tensor"),
            ("classify", _cmd_classify, _classify_markdown, _CLASSIFY),
            ("verify", _cmd_verify, _verify_markdown, "lambda seed"),
            ("compare", _cmd_compare, _compare_markdown, _CLASSIFY)):
        p = sub.add_parser(name)
        p.add_argument("--metric", action="append", required=True,
                       help="builtin id or path to a metric file "
                            "(twice for compare)")
        for opt in options.split():
            p.add_argument(f"--{opt}", **_OPTIONS[opt])
        p.add_argument("--format", choices=("json", "markdown"),
                       default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn, markdown=markdown)
    return parser


# built on the first run: a process that runs many commands parses each
# with the same tree
_PARSER: Optional[argparse.ArgumentParser] = None
# the exit status when the reader of stdout closes it early
EXIT_BROKEN_PIPE = 128 + 13


def run(argv: Optional[List[str]] = None) -> int:
    """The exit status of one command.  The one output path: the command
    returns its payload, and run renders it, writes it to stdout or --out
    and flushes stdout."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        data = args.fn(args)
        if args.format == "markdown":
            text = "\n".join(args.markdown(data)) + "\n"
        else:
            text = json.dumps(data, indent=2, sort_keys=True)
        if args.out is None:
            # the newline is a write of its own: with unbuffered stdout
            # (python -u) a reader that closes cuts the text's write short
            # without an error, and only the next write meets the pipe
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
        else:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write '{args.out}': "
                                 f"{exc.strerror}") from None
        code = 0
    except SystemExit as exc:
        code = 2 if exc.code not in (0, None) else 0
    except (UsageError, catalog.CatalogError, ec.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (ec.EvalError, tn.TensorError, cf.ClassifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    return code


def main():
    code = run()
    if code == EXIT_BROKEN_PIPE:
        # the reader is gone (`curvkit ... | head`): point stdout at
        # devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
