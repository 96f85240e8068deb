#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

    python scripts/bench.py --parent REV --out BENCH_6.json [--pairs 5]

REV is exported with `git archive` into a temporary directory (under
TMPDIR), so the repository's own .git is left as it was.  For every
workload of BENCHMARK.json, each pair runs `perfbench/run.py --trace 0`
once on the parent's files and once on this checkout as it stands on disk,
with the same seed; which side runs first alternates from pair to pair.
Each side runs its own perfbench/, as the benchmark is defined by the
checkout it measures.

The output file holds every run's JSON line and, per workload and
end-to-end metric, each side's median and quartiles, the pairs the change
won (ties count for neither side) and the change's worsening against the
metric's bound from BENCHMARK.json.  The temporary directory is removed
afterwards, also when a run fails.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str):
    """The files of commit rev, as git archive writes them, under dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line of one untraced benchmark run from the checkout root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True,
                         text=True, timeout=max(600.0, 20 * seconds)).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(runs, end_to_end):
    """Per workload and metric: both sides' spread, the change's pair wins,
    and its worsening relative to the parent's median."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for _, p in sorted(pairs.items())]
        rows = {"failed": {side: sum(p[side]["failed"] for p in pairs)
                           for side in ("parent", "change")}}
        for m in end_to_end:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            par = [p["parent"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["metrics"][name]["value"] for p in pairs]
            p_sp, c_sp = spread(par), spread(chg)
            worse_by = sign * (c_sp["median"] - p_sp["median"]) \
                / abs(p_sp["median"])
            rows[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": p_sp, "change": c_sp,
                "change_wins": sum(sign * (c - p) < 0
                                   for p, c in zip(par, chg)),
                "pairs": len(pairs), "worse_by": worse_by,
                "within_bound": worse_by <= m["bound"],
            }
        out[workload] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--pairs", type=int, default=5)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", args.parent],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="curvkit-bench-") as tmp:
        export(rev, tmp)
        roots = {"parent": tmp, "change": ROOT}
        for wl in bench["workloads"]:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    result = run_once(roots[side], wl["name"], pair + 1,
                                      bench["run_seconds"])
                    runs.append({"workload": wl["name"], "pair": pair,
                                 "seed": pair + 1, "side": side,
                                 "result": result})
                    print(f"{wl['name']} pair {pair} {side}: failed "
                          f"{result['failed']}", flush=True)
    doc = {"parent": rev, "seconds": bench["run_seconds"],
           "pairs": args.pairs, "runs": runs,
           "summary": summarise(runs, bench["end_to_end"])}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
