#!/usr/bin/env python3
"""Regenerate the full set of reports for the built-in metrics:
classification for each builtin, the published-table verification for the
regular charged black hole, and the side-by-side comparison of the two
charged black holes.  Reports land in reports/ as JSON.

reports/components_sha256.json holds the sha256 of the bytes that
`curvkit components --metric M --tensor X` prints for every builtin and
every tensor of the bundle, so that `git status reports/` after a run shows
whether a change moved any symbolic component.  reports/classify_sha256.json
likewise holds the sha256 of what `curvkit classify --metric M --points P
--seed S` prints for every builtin at 12, 48 and 192 points and seeds 42
and 7, so that a change to the numeric path shows if it moves any bit of a
classification.  reports/generated_sha256.json extends both to the
benchmark's generated corpus: for each shape of perfbench/gen.py drawn at
seeds 1-3, the sha256 of its `classify` output and of its nabla_R, nabla_C
and nabla_S dumps (rt_conformal's nabla_C is left out: that dump alone
takes about 14 s).  reports/markdown_sha256.json holds the sha256 of the
`--format markdown` output of every subcommand, keyed by its command line:
the R and kappa dumps and the classification of each builtin, the
published-table verification and the comparison, so that a change to how
the CLI renders or writes shows if it moves any markdown byte.

With --check nothing is written: every report is regenerated in memory and
compared with the committed file byte for byte; the exit status is 1 and
the differing files are named if any differs."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from curvkit import catalog, cli, curvature

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "reports")
BUILTINS = catalog.BUILTIN_IDS
TENSORS = curvature.TENSORS + ("kappa",)
CLASSIFY_POINTS = (12, 48, 192)
CLASSIFY_SEEDS = (42, 7)
GENERATED_SEEDS = (1, 2, 3)
GENERATED_DUMPS = ("nabla_R", "nabla_C", "nabla_S")
JOBS = tuple((f"classify_{mid}.json", ["classify", "--metric", mid])
             for mid in BUILTINS) + (
    ("verify_bardeen.json", ["verify", "--metric", "bardeen"]),
    ("compare_bardeen_rn.json",
     ["compare", "--metric", "bardeen", "--metric", "reissner_nordstrom"]),
)
MARKDOWN_TENSORS = ("R", "kappa")


def run_cli(argv):
    """Exit code and stdout of one in-process `curvkit` run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def digest(argv):
    """sha256 of the stdout of one in-process `curvkit` run, which must
    succeed; the captured text is the CLI's stdout byte for byte."""
    rc, text = run_cli(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def component_digests():
    """sha256 of each `components` dump."""
    return {mid: {name: digest(["components", "--metric", mid,
                                "--tensor", name]) for name in TENSORS}
            for mid in BUILTINS}


def classify_digests():
    """sha256 of each classification, keyed by metric, then by
    "<points>/<seed>"."""
    return {mid: {f"{n}/{seed}": digest(["classify", "--metric", mid,
                                         "--points", str(n),
                                         "--seed", str(seed)])
                  for n in CLASSIFY_POINTS for seed in CLASSIFY_SEEDS}
            for mid in BUILTINS}


def generated_digests():
    """sha256 of `classify` and of the nabla dumps of each generated
    metric, keyed by "<shape>_<seed>", then by "classify" or the tensor.
    Each metric file is written under its key, which becomes its id."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for shape in gen.SHAPES:
            for seed in GENERATED_SEEDS:
                name = f"{shape}_{seed}"
                m = gen.generate(shape, random.Random(seed), name)
                path = os.path.join(tmp, f"{name}.metric")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(m.text)
                got = out[name] = {"classify": digest(
                    ["classify", "--metric", path, *m.param_args()])}
                for tensor in GENERATED_DUMPS:
                    if (shape, tensor) != ("rt_conformal", "nabla_C"):
                        got[tensor] = digest(["components", "--metric",
                                              path, "--tensor", tensor])
    return out


def markdown_digests():
    """sha256 of each markdown output, keyed by its command line without
    `--format markdown`."""
    runs = [["components", "--metric", mid, "--tensor", name]
            for mid in BUILTINS for name in MARKDOWN_TENSORS]
    runs += [argv for _, argv in JOBS]
    return {" ".join(argv): digest(argv + ["--format", "markdown"])
            for argv in runs}


def reports():
    """(file name, exit code, text) of every report.  The CLI ends stdout
    with a newline that the JSON text, as `--out` writes it, lacks."""
    for fname, argv in JOBS:
        rc, text = run_cli(argv)
        yield fname, rc, text[:-1]
    for fname, digests in (("components_sha256.json", component_digests),
                           ("classify_sha256.json", classify_digests),
                           ("generated_sha256.json", generated_digests),
                           ("markdown_sha256.json", markdown_digests)):
        yield fname, 0, json.dumps(digests(), indent=2) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with reports/ instead of writing it")
    args = ap.parse_args(argv)
    if not args.check:
        os.makedirs(OUT, exist_ok=True)
    status = 0
    differ = []
    for fname, rc, text in reports():
        path = os.path.join(OUT, fname)
        if rc != 0:
            print(f"{fname}: exit {rc}")
            status = 1
        elif args.check:
            try:
                with open(path, "rb") as fh:
                    same = fh.read() == text.encode("utf-8")
            except FileNotFoundError:
                same = False
            print(f"{fname}: {'same' if same else 'DIFFERS'}")
            if not same:
                differ.append(fname)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"{fname}: ok")
    if differ:
        print("differ from reports/: " + ", ".join(differ))
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
