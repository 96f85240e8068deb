#!/usr/bin/env python3
"""Regenerate the full set of reports for the built-in metrics:
classification for each builtin, the published-table verification for the
regular charged black hole, and the side-by-side comparison of the two
charged black holes.  Reports land in reports/ as JSON.

reports/components_sha256.json holds the sha256 of the bytes that
`curvkit components --metric M --tensor X` prints for every builtin and
every tensor of the bundle, so that `git status reports/` after a run shows
whether a change moved any symbolic component."""

import contextlib
import hashlib
import io
import json
import os
import sys

from curvkit import cli

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "reports")
BUILTINS = ("bardeen", "reissner_nordstrom", "schwarzschild", "minkowski")
TENSORS = ("g", "R", "S", "S2", "C", "P", "W", "K", "T", "nabla_R",
           "nabla_C", "nabla_S", "kappa")


def component_digests():
    """sha256 of each `components` dump, run in-process through cli.run;
    the captured text is the CLI's stdout byte for byte."""
    out = {}
    for mid in BUILTINS:
        for name in TENSORS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.run(["components", "--metric", mid,
                              "--tensor", name])
            if rc != 0:
                raise SystemExit(f"components {mid} {name}: exit {rc}")
            digest = hashlib.sha256(buf.getvalue().encode("utf-8"))
            out.setdefault(mid, {})[name] = digest.hexdigest()
    return out


def main():
    os.makedirs(OUT, exist_ok=True)
    jobs = []
    for mid in BUILTINS:
        jobs.append((f"classify_{mid}.json",
                     ["classify", "--metric", mid]))
    jobs.append(("verify_bardeen.json", ["verify", "--metric", "bardeen"]))
    jobs.append(("compare_bardeen_rn.json",
                 ["compare", "--metric", "bardeen",
                  "--metric", "reissner_nordstrom"]))
    status = 0
    for fname, argv in jobs:
        path = os.path.join(OUT, fname)
        rc = cli.run(argv + ["--out", path])
        print(f"{fname}: {'ok' if rc == 0 else f'exit {rc}'}")
        status = status or rc
    with open(os.path.join(OUT, "components_sha256.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(component_digests(), indent=2) + "\n")
    print("components_sha256.json: ok")
    return status


if __name__ == "__main__":
    sys.exit(main())
