"""The benchmark's three workloads, their requests and the checks of every
output.

A workload is a cycle of requests of fixed kinds, in an order and with
inputs drawn from the run's seed.

- ``cli_mix``: every request is a fresh ``curvkit`` process with an empty
  HOME, XDG_CACHE_HOME, TMPDIR and cwd, so no on-disk cache can turn a cold
  request warm: classify on the four builtins, verify, compare, and
  classify on one generated metric file of each shape.  What a
  command-line user pays per invocation; most of it is the symbolic build.
- ``point_sweep``: in-process ``classify_metric`` on bardeen and
  reissner_nordstrom bundles built during set-up, at 12, 48 and 192 points
  (two, two and one request per metric and cycle) with seeded plan seeds.
  Point evaluation and the classifier groups; the symbolic layers run only
  in set-up, so a symbolic speed-up must not move it, and work moved into
  set-up shows in setup_s.
- ``symbolic_dump``: in-process ``curvkit components`` over 16 (metric,
  tensor) pairs that cover every tensor, every builtin and every
  one-coordinate generated shape.  Every exact component must exist and be
  printed, which guards against a classify gain that costs ``components``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import gen
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

REQUEST_TIMEOUT = 90.0
IMPORT_PROBES = 9
SWEEP_PROBES = 3
# what the ``curvkit`` console script runs
ENTRY = ("import sys; from curvkit.cli import main; "
         "sys.argv[0] = 'curvkit'; main()")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import curvkit.cli; "
                "print(time.perf_counter() - t)")
SWEEP_METRICS = ("bardeen", "reissner_nordstrom")
# (points, requests per metric and cycle).  48-point requests are the
# middle 40% of a cycle's requests, so the median and the tail order
# statistic (p45 to p75 for the 20 to 45 requests a run makes) fall among
# them rather than on the jump between two sizes.
SWEEP_MIX = ((12, 2), (48, 2), (192, 1))
SWEEP_PROBE = (
    "import time; t = time.perf_counter()\n"
    "from curvkit import catalog, curvature, tensor\n"
    f"for m in {SWEEP_METRICS!r}:\n"
    "    s = catalog.builtin(m)\n"
    "    curvature.build_bundle(tensor.invert_metric(s.g()), s.coords)\n"
    "print(time.perf_counter() - t)")


@dataclass
class Request:
    kind: str                          # one entry of the workload's cycle
    args: List[str]                    # curvkit command line
    check: Callable[[object], List[str]]
    metric: Optional[gen.GeneratedMetric] = None   # file to write first
    points: int = 0                    # sample points classified
    plan: tuple = ()                   # point_sweep: (metric id, count, seed)


@dataclass
class Outcome:
    wall: float                        # seconds, as measured
    t0: float                          # perf_counter at start and end
    t1: float
    problems: List[str] = field(default_factory=list)
    time: float = 0.0                  # wall in reference seconds (run.py)


def hermetic_env(base: str) -> Dict[str, str]:
    """Fresh, empty HOME, cache, temp and working directories under base."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": SRC, "LANG": "C.UTF-8"}
    for key, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "cache"),
                     ("TMPDIR", "tmp"), ("PWD", "cwd")):
        env[key] = os.path.join(base, sub)
        os.makedirs(env[key])
    return env


def run_child(cmd: List[str], base: str, env: Dict[str, str]):
    """Run cmd to completion in env's cwd with stdout and stderr in files
    under base; return (exit code, start, end, peak RSS in MB from the
    child's rusage)."""
    with open(os.path.join(base, "stdout"), "wb") as out, \
            open(os.path.join(base, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=env["PWD"], env=env, stdout=out,
                                stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0


def probes(code: str, count: int, scratch: str, speed) -> List[float]:
    """Set-up time measured count times in fresh processes, each printing
    its own timing, in reference seconds."""
    out = []
    for i in range(count):
        base = os.path.join(scratch, f"probe{i}")
        env = hermetic_env(base)
        rc, t0, t1, _ = run_child([sys.executable, "-c", code], base, env)
        speed.tick()
        with open(os.path.join(base, "stdout"), encoding="utf-8") as fh:
            text = fh.read()
        shutil.rmtree(base)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}")
        out.append(float(text.split()[-1]) * speed.factor(t0, t1))
    return out


# ---------------------------------------------------------------------------
# checks: each takes the request's output and returns a list of problems

def frozen_check(name: str):
    want = oracle.load_frozen(name)
    return lambda got: oracle.same_json(got, want)


def verify_check(got) -> List[str]:
    out = oracle.same_json(got, oracle.load_frozen("verify_bardeen.json"))
    if (got.get("matched"), got.get("total")) != (90, 135):
        out.append(f"verify matched {got.get('matched')}/{got.get('total')}"
                   ", expected 90/135")
    return out


def kappa_check(m: gen.GeneratedMetric):
    return lambda report: oracle.check_kappa(report, m.closed_form, m.coords,
                                             m.params)


def sweep_check(metric_id: str):
    """Verdicts and reference-form matches as in the committed report (the
    plan differs, so coefficients do not compare), and kappa at every
    point against the oracle."""
    frozen = oracle.load_frozen(f"classify_{metric_id}.json")
    want = {s["name"]: (s["verdict"], s["reference_form_match"])
            for s in frozen["structures"]}
    kappa = kappa_check(gen.builtin(metric_id))

    def check(report) -> List[str]:
        report = report.to_json()
        got = {s["name"]: (s["verdict"], s["reference_form_match"])
               for s in report["structures"]}
        out = [f"{k}: {got.get(k)} != {v}" for k, v in want.items()
               if got.get(k) != v]
        return out + kappa(report)
    return check


def components_check(m: gen.GeneratedMetric, tensor: str,
                     x: Dict[str, float]):
    return lambda text: oracle.check_components(
        json.loads(text), tensor, m.closed_form, m.coords, x)


# ---------------------------------------------------------------------------
# workloads

class ColdCli:
    name = "cli_mix"

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.peak_rss = 0.0
        self._n = itertools.count()

    def setup(self, speed) -> List[float]:
        # untimed warm-up: compiles the .pyc files of curvkit and of the
        # traced child runner
        warm = Request("warm-up", ["classify", "--metric", "minkowski"],
                       lambda _: [])
        self.run(warm)
        self.run(warm, tracer.Tracer())
        self.peak_rss = 0.0
        return probes(IMPORT_PROBE, IMPORT_PROBES, self.scratch, speed)

    def cycle(self, rng: random.Random, c: int) -> List[Request]:
        reqs = [Request(f"classify:{mid}", ["classify", "--metric", mid],
                        frozen_check(f"classify_{mid}.json"), points=12)
                for mid in gen.BUILTINS]
        reqs.append(Request("verify", ["verify", "--metric", "bardeen"],
                            verify_check))
        reqs.append(Request("compare", ["compare", "--metric", "bardeen",
                                        "--metric", "reissner_nordstrom"],
                            frozen_check("compare_bardeen_rn.json"),
                            points=24))
        for shape in gen.SHAPES:
            m = gen.generate(shape, rng, f"{shape}_{c}")
            args = ["classify", "--metric", f"{m.name}.metric",
                    *m.param_args(), "--seed", str(rng.randrange(1, 10**6))]
            reqs.append(Request(f"classify:{shape}", args, kappa_check(m),
                                metric=m, points=12))
        rng.shuffle(reqs)
        return reqs

    def run(self, req: Request, tr=None) -> Outcome:
        base = os.path.join(self.scratch, f"req{next(self._n)}")
        env = hermetic_env(base)
        if req.metric is not None:
            with open(os.path.join(env["PWD"], f"{req.metric.name}.metric"),
                      "w", encoding="utf-8") as fh:
                fh.write(req.metric.text)
        spans = os.path.join(base, "spans.json")
        if tr is None:
            cmd = [sys.executable, "-c", ENTRY, *req.args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), spans,
                   *req.args]
        rc, t0, t1, rss = run_child(cmd, base, env)
        self.peak_rss = max(self.peak_rss, rss)
        out = Outcome(t1 - t0, t0, t1)
        if rc != 0:
            with open(os.path.join(base, "stderr"), encoding="utf-8",
                      errors="replace") as fh:
                out.problems.append(f"exit {rc}: {fh.read()[-300:]}")
        else:
            with open(os.path.join(base, "stdout"), encoding="utf-8") as fh:
                out.problems += req.check(json.load(fh))
            if tr is not None:
                tr.load(spans, tr.request)
        shutil.rmtree(base)
        return out

    def peak_rss_mb(self) -> float:
        """Largest peak RSS of any request's process."""
        return self.peak_rss


class InProcess:
    """Shared part of the two in-process workloads: only the call into
    curvkit is timed; checking its output is not."""

    def peak_rss_mb(self) -> float:
        """Peak RSS of the benchmark's own process: curvkit's interned
        expression table never shrinks."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run(self, req: Request, tr=None) -> Outcome:
        if tr is not None:
            tr.install()
        try:
            t0 = time.perf_counter()
            result = self.call(req, tr)
            t1 = time.perf_counter()
        finally:
            if tr is not None:
                tr.uninstall()
        return Outcome(t1 - t0, t0, t1, req.check(result))


class PointSweep(InProcess):
    name = "point_sweep"

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.prepared = {}

    def setup(self, speed) -> List[float]:
        samples = probes(SWEEP_PROBE, SWEEP_PROBES, self.scratch, speed)
        from curvkit import catalog, curvature, tensor
        for mid in SWEEP_METRICS:
            spec = catalog.builtin(mid)
            bundle = curvature.build_bundle(tensor.invert_metric(spec.g()),
                                            spec.coords)
            self.prepared[mid] = (spec, bundle,
                                  catalog.reference_coefficient_forms(mid))
        return samples

    def cycle(self, rng: random.Random, c: int) -> List[Request]:
        reqs = [Request(f"{mid}:{n}", [], sweep_check(mid), points=n,
                        plan=(mid, n, rng.randrange(1, 10**6)))
                for mid in SWEEP_METRICS for n, k in SWEEP_MIX
                for _ in range(k)]
        rng.shuffle(reqs)
        return reqs

    def call(self, req: Request, tr):
        from curvkit import classify
        mid, count, seed = req.plan
        spec, bundle, forms = self.prepared[mid]
        return classify.classify_metric(spec, bundle, None, count=count,
                                        seed=seed, reference_forms=forms)


# (metric, tensor) pairs of symbolic_dump: every tensor, every builtin and
# every one-coordinate shape.  The rt_conformal shape is left out: its
# nabla_C dump alone takes about 14 s and 9 MB.
DUMP_PAIRS = (
    ("bardeen", "nabla_C"), ("bardeen", "kappa"),
    ("reissner_nordstrom", "nabla_R"), ("reissner_nordstrom", "S"),
    ("schwarzschild", "nabla_S"), ("schwarzschild", "R"),
    ("minkowski", "C"), ("minkowski", "g"),
    ("static_fh", "nabla_C"), ("static_fh", "P"),
    ("static_fneh", "nabla_R"), ("static_fneh", "W"),
    ("ingoing", "nabla_S"), ("ingoing", "K"),
    ("flrw", "T"), ("bianchi_i", "S2"),
)


class SymbolicDump(InProcess):
    name = "symbolic_dump"

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.metrics = os.path.join(scratch, "metrics")

    def setup(self, speed) -> List[float]:
        samples = probes(IMPORT_PROBE, IMPORT_PROBES, self.scratch, speed)
        os.makedirs(self.metrics)
        import curvkit.cli  # noqa: F401  (the in-process set-up, untimed)
        return samples

    def cycle(self, rng: random.Random, c: int) -> List[Request]:
        reqs = []
        for i, (shape, tensor) in enumerate(DUMP_PAIRS):
            if shape in gen.BUILTINS:
                m = gen.builtin(shape)
                selector = shape
            else:
                m = gen.generate(shape, rng, f"{shape}_{c}_{i}")
                selector = os.path.join(self.metrics, f"{m.name}.metric")
                with open(selector, "w", encoding="utf-8") as fh:
                    fh.write(m.text)
            x = gen.sample_point(m, rng)
            reqs.append(Request(f"{shape}:{tensor}",
                                ["components", "--metric", selector,
                                 "--tensor", tensor],
                                components_check(m, tensor, x)))
        rng.shuffle(reqs)
        return reqs

    def call(self, req: Request, tr):
        import curvkit.cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tr is None:
                rc = curvkit.cli.run(req.args)
            else:
                with tr.span("cli.self"):
                    rc = curvkit.cli.run(req.args)
        if rc != 0:
            raise RuntimeError(f"components exited {rc}")
        return buf.getvalue()


WORKLOADS = {w.name: w for w in (ColdCli, PointSweep, SymbolicDump)}
