"""Per-layer tracing by replacing curvkit module attributes with timing
wrappers.

curvkit's layers call one another through module attributes (``tn.``,
``cv.``, ``cf.``, ``ec.``, ``catalog.``) or through their own module
globals, so replacing an attribute puts a span around every call into that
function.  Nothing under ``src/`` is edited.  ``eval_float``, ``to_string``
and ``_diff`` are deliberately not wrapped: they recurse through module
globals, so a wrapper would run on every recursive call.

A span is (name, start, end, parent index, request id).  Spans stay in
memory and are written out at the end.  A span's self time is its duration
minus the durations of its direct children; calls are strictly nested
(one thread), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List

# (module, attribute, span name)
LAYERS = [
    ("catalog", "builtin", "catalog.load"),
    ("catalog", "load_metric", "catalog.load"),
    ("tensor", "invert_metric", "tensor.invert_metric"),
    ("tensor", "kulkarni_nomizu", "tensor.products"),
    ("tensor", "dot_action", "tensor.products"),
    ("tensor", "tachibana", "tensor.products"),
    ("curvature", "build_bundle", "curvature.build_bundle"),
    ("curvature", "christoffel", "curvature.christoffel"),
    ("curvature", "riemann", "curvature.riemann"),
    ("curvature", "ricci_family", "curvature.ricci_family"),
    ("curvature", "derived_curvatures", "curvature.derived"),
    ("curvature", "covariant_derivative", "curvature.covariant_derivative"),
    ("exprcore", "differentiate", "exprcore.differentiate"),
    ("classify", "classify_metric", "classify.classify_metric"),
    ("classify", "build_sample_plan", "classify.sample_plan"),
    ("classify", "evaluate_plan", "classify.evaluate_plan"),
    ("classify", "verify_reference_coefficients",
     "classify.reference_coefficients"),
    ("classify", "verify_component_tables", "classify.verify_tables"),
]
GROUPS = ("pseudosymmetries", "einstein", "roter", "recurrence",
          "form_recurrence", "ricci_properties", "symmetry_forms",
          "stress_pseudosymmetry", "scalars")
LAYERS += [("classify", f"classify_{g}", f"classify.groups.{g}")
           for g in GROUPS]

# spans whose per-layer figure is their inclusive time, not self time
INCLUSIVE = ("curvature.build_bundle",)
# span name -> call counter reported next to its time
CALL_COUNTS = {"exprcore.differentiate": "exprcore.differentiate_calls",
               "curvature.covariant_derivative":
                   "curvature.covariant_derivative_calls",
               "tensor.products": "tensor.products_calls"}
# spans opened by the benchmark itself: the timed import of a cold request,
# and the command around curvkit.cli.run, whose self time is the CLI's own
# work (argument parsing, JSON output, to_string printing)
SPAN_NAMES = sorted({name for _, _, name in LAYERS}
                    | {"cli.import", "cli.self"})


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        i = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(i, name, t0)

    def _open(self) -> int:
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        return i

    def _close(self, i: int, name: str, t0: float):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[i] = (name, t0, t1, parent, self.request)
        if name in CALL_COUNTS:
            self.counts[CALL_COUNTS[name]] += 1

    def _wrap(self, fn, name):
        numeric_only = name == "tensor.products"
        count_fits = name == "classify.classify_metric"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if numeric_only and args[0].symbolic:
                return fn(*args, **kwargs)   # stays in the caller's layer
            i = self._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i, name, t0)
            if count_fits:
                self._count_fits(out)
            return out
        return wrapped

    def _count_fits(self, report):
        n = len(report.plan)
        self.counts["classify.points"] += n
        for fit in report.structures.values():
            self.counts["classify.fits"] += n
            bad = len(fit.degenerate_points)
            if fit.verdict == "degenerate" and not bad:
                bad = n            # degenerate as a whole, no per-point list
            self.counts["classify.nondegenerate_fits"] += n - bad

    # -- installing wrappers -----------------------------------------------
    def install(self):
        for mod_name, attr, name in LAYERS:
            mod = importlib.import_module(f"curvkit.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- persistence -------------------------------------------------------
    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def load(self, path: str, request: int):
        """Append spans and counts written by a child process's dump()."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, t0, t1, parent, _ in data["spans"]:
            self.spans.append((name, t0, t1,
                               parent + base if parent >= 0 else -1, request))
        self.counts.update(data["counts"])


def layer_times(spans: List[tuple]) -> Dict[int, Dict[str, float]]:
    """request id -> span name -> self time (inclusive for INCLUSIVE)."""
    child_time = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, t0, t1, parent, req) in enumerate(spans):
        own = t1 - t0
        if name not in INCLUSIVE:
            own -= child_time[i]
        out[req][name] += own
    return out


def self_total(spans: List[tuple], request: int) -> float:
    """Sum of the self times of one request's spans but cli.import: the
    traced time of the request after its import."""
    return sum(t1 - t0 for name, t0, t1, parent, req in spans
               if req == request and parent < 0 and name != "cli.import")
