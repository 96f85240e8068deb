#!/usr/bin/env python3
"""curvkit benchmark.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (workloads.py): cli_mix, point_sweep, symbolic_dump, each a
closed loop with one client.  A run always completes its first cycle of
request kinds, then keeps going until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics come from untraced requests.
With ``--trace 1`` every request runs twice with the same inputs, untraced
and traced (alternating which goes first); the per-layer metrics come from
the traced ones and the difference is the tracing overhead.

Times are in reference seconds.  The speed of the machines this runs on
drifts by 20-40% over tens of seconds, and the drift is the same for every
CPU-bound Python workload, so a fixed pure-Python kernel is timed between
requests and every wall time is scaled by REFERENCE_S over the kernel's
median time around it.  On a machine at its reference speed, reference
seconds are wall seconds.  Raw wall times are printed next to them.

Every output is checked (workloads.py, oracle.py); a failed check, a
nonzero exit, an exception or a timeout counts as a failed request.  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import shutil
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List

import tracer
import workloads
from workloads import Outcome, Request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")

REFERENCE_S = 0.02         # time of calibrate() at the reference speed
SPEED_WINDOW_S = 2.0       # calibrations this close to a request count
NODES_TENSORS = ("R", "S", "kappa", "C", "nabla_R", "nabla_C", "nabla_S")


def calibrate() -> float:
    """Time of a fixed pure-Python kernel of tuple, hash and dict work, the
    operations curvkit's expression kernel spends its time on."""
    t0 = time.perf_counter()
    d: Dict[tuple, int] = {}
    for i in range(50_000):
        k = (i % 97, i % 89, "x")
        d[k] = d.get(k, 0) + hash(k) % 7
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration times over the run, to scale wall times to reference
    seconds."""

    def __init__(self):
        self.samples: List[tuple] = []
        self.tick()

    def tick(self):
        t = time.perf_counter()
        self.samples.append((t, calibrate()))

    def factor(self, t0: float, t1: float) -> float:
        near = [k for t, k in self.samples
                if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        return REFERENCE_S / statistics.median(near)


# ---------------------------------------------------------------------------
# measurement

def execute(wl, req: Request, speed: SpeedLog, tr=None) -> Outcome:
    try:
        out = wl.run(req, tr)
    except Exception as exc:     # a failed request, counted, never fatal
        now = time.perf_counter()
        out = Outcome(float("nan"), now, now, [f"{type(exc).__name__}: "
                                               f"{exc}"])
    speed.tick()
    return out


def measure(wl, rng: random.Random, seconds: float, speed: SpeedLog,
            tr=None):
    """Closed loop: returns [(request, untraced, traced or None)], the
    kinds of the first cycle's requests, and the tracer counts after the
    first cycle."""
    rows = []
    first_cycle = first_counts = None
    start = time.perf_counter()
    for c in itertools.count():
        cycle = wl.cycle(rng, c)
        if first_cycle is None:
            first_cycle = [req.kind for req in cycle]
        for req in cycle:
            if c > 0 and time.perf_counter() - start >= seconds:
                return rows, first_cycle, first_counts
            if tr is None:
                rows.append((req, execute(wl, req, speed), None))
                continue
            tr.request = len(rows)
            if len(rows) % 2 == 0:
                plain = execute(wl, req, speed)
                traced = execute(wl, req, speed, tr)
            else:
                traced = execute(wl, req, speed, tr)
                plain = execute(wl, req, speed)
            rows.append((req, plain, traced))
        if first_counts is None and tr is not None:
            first_counts = dict(tr.counts)


def end_to_end(wl, rows, cycle_kinds, setup: List[float], lines: List[str]):
    """The median and the rates are those of one whole cycle, every request
    at the mean time of its kind in this run, so that a run that stops
    part-way through a cycle still reports the whole mix."""
    kinds = defaultdict(list)
    points = {}
    for req, out, _ in rows:
        kinds[req.kind].append(out.time)
        points[req.kind] = req.points
    means = {k: statistics.fmean(v) for k, v in kinds.items()}
    for k in sorted(kinds):
        lines.append(f"  {k:34s} {means[k]:.4f} s mean of {len(kinds[k])}")
    cycle = [means[k] for k in cycle_kinds if k in means]
    rps = len(cycle) / sum(cycle)
    pps = sum(points[k] for k in cycle_kinds) / sum(cycle)
    times = sorted(out.time for _, out, _ in rows)
    # the highest order statistic with at least 10 samples beyond it
    j = max(0, len(times) - 11)
    lines.append(f"req_tail_s is p{100 * (j + 1) / len(times):.0f} of "
                 f"{len(times)} requests")
    walls = [out.wall for _, out, _ in rows]
    lines.append(f"wall seconds: p50 {statistics.median(walls):.4f}, "
                 f"total {sum(walls):.2f}")
    if pps > 0:
        lines.append(f"points_per_s {pps:.4f} 1/s (not in the JSON line: "
                     "symbolic_dump classifies no points)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "req_p50_s": (statistics.median(cycle), "s"),
        "req_tail_s": (times[j], "s"),
        "requests_per_s": (rps, "1/s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }


def structure_counts() -> Dict[str, int]:
    """Exact DAG counts of bardeen's bundle tensors."""
    from curvkit import catalog, curvature, exprcore, tensor
    spec = catalog.builtin("bardeen")
    b = curvature.build_bundle(tensor.invert_metric(spec.g()), spec.coords)
    out = {}
    for name in NODES_TENSORS:
        exprs = ([b.kappa] if name == "kappa"
                 else list(b.tensor(name).data.flat))
        live = [e for e in exprs if not e.is_zero()]
        seen, stack = set(), list(live)
        while stack:
            e = stack.pop()
            if id(e) not in seen:
                seen.add(id(e))
                stack.extend(e.children)
        out[f"curvature.nodes.{name}"] = len(seen)
        out[f"curvature.nonzero.{name}"] = len(live)
    # structurally nonzero nabla_C entries that vanish at a fixed point
    x = dict(spec.defaults, t=1.3, r=2.1, theta=1.1, phi=0.7)
    memo: dict = {}
    vals = [exprcore.eval_float(e, x, memo) for e in b.nabla_C.data.flat
            if not e.is_zero()]
    scale = max(abs(v) for v in vals)
    out["curvature.zero_valued.nabla_C"] = sum(abs(v) <= 1e-12 * scale
                                               for v in vals)
    return out


def per_layer(wl, rows, tr, first_counts, setup, lines: List[str]):
    """rows: [(request id, request, untraced, traced)]."""
    n = len(rows)
    times = tracer.layer_times(tr.spans)
    metrics = {}
    for name in tracer.SPAN_NAMES:
        total = sum(times[i].get(name, 0.0) * t.time / t.wall
                    for i, _, _, t in rows)
        metrics[f"{name}_s"] = (total / n, "s")
    counts = first_counts or {}
    for key in sorted(set(tracer.CALL_COUNTS.values())
                      | {"classify.points", "classify.fits"}):
        metrics[key] = (counts.get(key, 0), "count")
    fits = counts.get("classify.fits", 0)
    ratio = counts.get("classify.nondegenerate_fits", 0) / fits if fits else 0
    metrics["classify.nondegenerate_ratio"] = (ratio, "ratio")
    for key, value in structure_counts().items():
        metrics[key] = (value, "count")
    overhead = statistics.median(t.time - p.time for _, _, p, t in rows)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (
        overhead / statistics.median(p.time for _, _, p, _ in rows), "ratio")
    # traced self times against the untraced request; a cold request's
    # import is not in any span but cli.import, so it is taken out of both
    import_s = statistics.median(setup) if wl.name == "cli_mix" else 0.0
    coverage = [tracer.self_total(tr.spans, i) * t.time / t.wall
                / (p.time - import_s) for i, _, p, t in rows]
    metrics["trace.coverage_ratio"] = (statistics.median(coverage), "ratio")
    bardeen = [c for c, (_, req, _, _) in zip(coverage, rows)
               if req.kind == "classify:bardeen"]
    if bardeen:
        lines.append(f"bardeen classify coverage {min(bardeen):.3f} "
                     f"(lowest of {len(bardeen)})")
    lines.append(f"per-layer times are per traced request over {n} "
                 "requests; counts cover the first cycle")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "curvkit",
                                       "__init__.py")):
        print(f"error: no curvkit sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)
    # one CPU for the benchmark and every process it starts, so that the
    # calibration kernel measures the CPU the requests run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    scratch = os.path.join(WORK, str(os.getpid()))
    os.makedirs(scratch)
    try:
        speed = SpeedLog()
        wl = workloads.WORKLOADS[args.workload](scratch)
        setup = wl.setup(speed)
        tr = tracer.Tracer() if args.trace else None
        rows, cycle_kinds, first_counts = measure(
            wl, random.Random(args.seed), args.seconds, speed, tr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    outcomes = [o for _, *pair in rows for o in pair if o is not None]
    for o in outcomes:
        o.time = o.wall * speed.factor(o.t0, o.t1)
    failed = [o for o in outcomes if o.problems]
    calibration = statistics.median(k for _, k in speed.samples)
    lines = [f"workload {wl.name}, seed {args.seed}, {len(rows)} requests; "
             f"calibration kernel median {calibration:.5f} s, reference "
             f"{REFERENCE_S} s"]
    lines += [f"FAILED: {p}" for o in failed[:10] for p in o.problems[:3]]
    lines.append(f"fail_ratio {len(failed) / len(outcomes):.4f} "
                 f"({len(failed)} of {len(outcomes)})")
    ok = [(i, *r) for i, r in enumerate(rows)
          if not any(o is not None and o.problems for o in r[1:])]
    if args.trace:
        metrics = per_layer(wl, ok, tr, first_counts, setup, lines)
    else:
        metrics = end_to_end(wl, [r[1:] for r in ok], cycle_kinds, setup,
                             lines)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:44s} {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed, "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
