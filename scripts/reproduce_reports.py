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
classification.

With --check nothing is written: every report is regenerated in memory and
compared with the committed file byte for byte; the exit status is 1 and
the differing files are named if any differs."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

from curvkit import cli, curvature

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "reports")
BUILTINS = ("bardeen", "reissner_nordstrom", "schwarzschild", "minkowski")
TENSORS = curvature.TENSORS + ("kappa",)
CLASSIFY_POINTS = (12, 48, 192)
CLASSIFY_SEEDS = (42, 7)
JOBS = tuple((f"classify_{mid}.json", ["classify", "--metric", mid])
             for mid in BUILTINS) + (
    ("verify_bardeen.json", ["verify", "--metric", "bardeen"]),
    ("compare_bardeen_rn.json",
     ["compare", "--metric", "bardeen", "--metric", "reissner_nordstrom"]),
)


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


def reports():
    """(file name, exit code, text) of every report.  The CLI ends stdout
    with a newline that the JSON text, as `--out` writes it, lacks."""
    for fname, argv in JOBS:
        rc, text = run_cli(argv)
        yield fname, rc, text[:-1]
    for fname, digests in (("components_sha256.json", component_digests),
                           ("classify_sha256.json", classify_digests)):
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
