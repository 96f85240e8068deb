"""Structure classification by per-point least squares.

Every geometric structure is decided numerically: the symbolic curvature
bundle is evaluated at a deterministic plan of sample points, the linear
relation defining the structure is fitted pointwise (scalar coefficients or
1-form components as unknowns), and the verdict is

    holds       residual <= tol at every non-degenerate point,
    fails       residual > tol at some non-degenerate point,
    degenerate  the defining basis vanishes or is rank-deficient everywhere.

Fitted coefficients are additionally compared against known closed forms
where available; mismatches are logged as discrepancies, never silently
dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import curvature as cv
from . import exprcore as ec
from . import tensor as tn
from .catalog import MetricSpec
from .curvature import CurvatureBundle
from .tensor import ComponentTensor

DEFAULT_POINTS = 12
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42
GRAM_CONDITION_LIMIT = 1e10
RANK_CUTOFF = 1e-8
NULLSPACE_CUTOFF = 1e-8
METRIC_REGULARITY_FLOOR = 1e-3


class ClassifyError(Exception):
    pass


@dataclass
class SamplePlan:
    """Deterministic coordinate sample points with a parameter binding."""

    points: List[Dict[str, float]]
    params: Dict[str, float]
    seed: int

    def __len__(self):
        return len(self.points)


def build_sample_plan(spec: MetricSpec, params: Optional[Dict[str, float]] = None,
                      count: int = DEFAULT_POINTS,
                      seed: int = DEFAULT_SEED) -> SamplePlan:
    """Draw count in-range points, resampling any point where the metric is
    singular, nearly degenerate, or hits an evaluation domain error."""
    if count < 4:
        raise ClassifyError("a sample plan needs at least 4 points")
    bound = dict(spec.defaults)
    if params:
        unknown = set(params) - set(spec.params)
        if unknown:
            raise ClassifyError(f"unknown parameters {sorted(unknown)}")
        bound.update(params)
    rng = random.Random(seed)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ClassifyError("could not find enough regular sample points")
        pt = {c: rng.uniform(*spec.coordinate_range(c)) for c in spec.coords}
        values = dict(pt)
        values.update(bound)
        try:
            g = spec.g().evaluate(values).data
        except ec.EvalError:
            continue
        if not np.all(np.isfinite(g)):
            continue
        if abs(np.linalg.det(g)) < 1e-10:
            continue
        if abs(g[0, 0]) < METRIC_REGULARITY_FLOOR:
            continue  # stay away from horizons where components blow up
        points.append(pt)
    return SamplePlan(points=points, params=bound, seed=seed)


@dataclass
class CoefficientFit:
    relation: str
    verdict: str                      # holds | fails | degenerate
    residual: float = 0.0
    coefficients: List[Optional[List[float]]] = field(default_factory=list)
    residuals: List[Optional[float]] = field(default_factory=list)
    degenerate_points: List[int] = field(default_factory=list)
    witness: Optional[Dict] = None
    reference_match: Optional[bool] = None
    extra: Dict = field(default_factory=dict)

    def to_json(self, plan: SamplePlan) -> Dict:
        coeffs = []
        for i, c in enumerate(self.coefficients):
            if c is None:
                continue
            coeffs.append({"point": [plan.points[i][k]
                                     for k in sorted(plan.points[i])],
                           "values": list(c)})
        out = {
            "name": self.relation,
            "verdict": self.verdict,
            "residual": self.residual,
            "coefficients": coeffs,
            "reference_form_match": self.reference_match,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.extra:
            out["extra"] = {k: v for k, v in sorted(self.extra.items())}
        return out


@dataclass
class StructureReport:
    metric_id: str
    plan: SamplePlan
    tol: float
    structures: Dict[str, CoefficientFit] = field(default_factory=dict)
    discrepancies: List[str] = field(default_factory=list)

    def add(self, fit: CoefficientFit):
        if fit.relation in self.structures:
            raise ClassifyError(f"duplicate structure '{fit.relation}'")
        self.structures[fit.relation] = fit

    def verdict(self, name: str) -> str:
        return self.structures[name].verdict

    def to_json(self) -> Dict:
        return {
            "metric": self.metric_id,
            "params": {k: v for k, v in sorted(self.plan.params.items())},
            "seed": self.plan.seed,
            "tol": self.tol,
            "points": [[p[k] for k in sorted(p)] for p in self.plan.points],
            "structures": [self.structures[name].to_json(self.plan)
                           for name in sorted(self.structures)],
            "discrepancies": list(self.discrepancies),
        }


# ---------------------------------------------------------------------------
# numeric evaluation of the bundle at one point

BUNDLE_TENSORS = ("g", "R", "S", "S2", "C", "P", "W", "K", "T",
                  "nabla_R", "nabla_C", "nabla_S")


class PointData:
    """Curvature tensors at one sample point as float arrays, with cached
    products."""

    def __init__(self, bundle: CurvatureBundle, values: Dict[str, float]):
        memo: dict = {}
        arrays = {name: bundle.tensor(name).evaluate(values, memo).data
                  for name in BUNDLE_TENSORS}
        self._fill(values, arrays, ec.eval_float(bundle.kappa, values, memo))

    @classmethod
    def from_arrays(cls, values: Dict[str, float],
                    arrays: Dict[str, np.ndarray], kappa: float) -> "PointData":
        """Point data over tensors computed without a bundle."""
        point = cls.__new__(cls)
        point._fill(values, arrays, kappa)
        return point

    def _fill(self, values, arrays, kappa):
        self.values = values
        self.arrays = arrays
        self.kappa = kappa
        self.n = arrays["g"].shape[0]
        self.ginv = np.linalg.inv(arrays["g"])
        self.J = self.ginv @ arrays["S"]
        self._cache: Dict[tuple, np.ndarray] = {}

    def arr(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def _tensor(self, name: str) -> ComponentTensor:
        a = self.arrays[name]
        return ComponentTensor(a, a.ndim, self.n)

    def wedge(self, a: str, b: str) -> np.ndarray:
        key = ("wedge", a, b)
        if key not in self._cache:
            self._cache[key] = tn.kulkarni_nomizu(
                self._tensor(a), self._tensor(b)).data
        return self._cache[key]

    def dot(self, D: str, eta: str) -> np.ndarray:
        key = ("dot", D, eta)
        if key not in self._cache:
            self._cache[key] = tn.dot_action(
                self._tensor(D), self._tensor(eta), self.ginv).data
        return self._cache[key]

    def tach(self, lam: str, eta: str) -> np.ndarray:
        key = ("tach", lam, eta)
        if key not in self._cache:
            self._cache[key] = tn.tachibana(
                self._tensor(lam), self._tensor(eta)).data
        return self._cache[key]


def evaluate_plan(bundle: CurvatureBundle,
                  plan: SamplePlan) -> List[PointData]:
    out = []
    for pt in plan.points:
        values = dict(pt)
        values.update(plan.params)
        out.append(PointData(bundle, values))
    return out


# ---------------------------------------------------------------------------
# fitting primitives

def _lstsq_point(target: np.ndarray, columns: Sequence[np.ndarray]):
    """Least squares at one point.

    Returns (coefficients or None, residual or None, degenerate flag)."""
    A = np.stack([c.ravel() for c in columns], axis=1)
    b = target.ravel()
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] == 0.0:
        return None, None, True
    gram_cond = (sv[0] / sv[-1]) ** 2 if sv[-1] > 0 else np.inf
    if gram_cond > GRAM_CONDITION_LIMIT:
        return None, None, True
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.abs(b - A @ coef).max() / (1.0 + np.abs(target).max())
    return [float(c) for c in coef], float(resid), False


def _assemble(relation: str, per_point, tol: float) -> CoefficientFit:
    """per_point: list of (coef, resid, degenerate)."""
    fit = CoefficientFit(relation=relation, verdict="degenerate")
    worst = None
    any_ok = False
    for i, (coef, resid, deg) in enumerate(per_point):
        fit.coefficients.append(coef)
        fit.residuals.append(resid)
        if deg:
            fit.degenerate_points.append(i)
            continue
        any_ok = True
        if worst is None or resid > worst[1]:
            worst = (i, resid)
    if not any_ok:
        return fit
    fit.residual = worst[1]
    if worst[1] <= tol:
        fit.verdict = "holds"
    else:
        fit.verdict = "fails"
        fit.witness = {"point_index": worst[0], "residual": worst[1]}
    return fit


def fit_scalar_relation(relation: str, points: List[PointData],
                        target_of: Callable[[PointData], np.ndarray],
                        columns_of: Callable[[PointData], List[np.ndarray]],
                        tol: float) -> CoefficientFit:
    rows = []
    for p in points:
        rows.append(_lstsq_point(target_of(p), columns_of(p)))
    return _assemble(relation, rows, tol)


def direct_test(relation: str, points: List[PointData],
                deviation_of: Callable[[PointData], np.ndarray],
                scale_of: Callable[[PointData], float],
                tol: float) -> CoefficientFit:
    """Equality test: deviation must vanish relative to a natural scale."""
    rows = []
    for p in points:
        dev = np.abs(deviation_of(p)).max()
        scale = scale_of(p)
        resid = dev / (1.0 + scale)
        degenerate = scale <= tol and dev <= tol
        rows.append((None, None, True) if degenerate else ([], resid, False))
    fit = _assemble(relation, rows, tol)
    return fit


# ---------------------------------------------------------------------------
# column builders for 1-form unknowns (unknown A enters as n columns)

def _outer_cols(D: np.ndarray, n: int) -> List[np.ndarray]:
    """Columns for nabla(target) = A (x) D with the derivative slot last."""
    cols = []
    for u in range(n):
        c = np.zeros(D.shape + (n,))
        c[..., u] = D
        cols.append(c)
    return cols


def _cyc5(nab: np.ndarray) -> np.ndarray:
    """Cyclic sum over (derivative slot, first two slots) of a (0,5) tensor
    stored derivative-last: out[a,b,c,x,y] = nab[b,c,x,y,a] + cyclic."""
    X = np.transpose(nab, (4, 0, 1, 2, 3))
    return X + np.transpose(X, (1, 2, 0, 3, 4)) + np.transpose(X, (2, 0, 1, 3, 4))


def _cyc_cols(D: np.ndarray, n: int) -> List[np.ndarray]:
    """Columns of A for the cyclic relation: out[a,b,c,x,y] =
    A_a D[b,c,x,y] + A_b D[c,a,x,y] + A_c D[a,b,x,y]."""
    cols = []
    for u in range(n):
        c = np.zeros((n,) * 5)
        c[u, :, :, :, :] += D
        c[:, u, :, :, :] += np.einsum("caxy->acxy", D)
        c[:, :, u, :, :] += D
        cols.append(c)
    return cols


def _weak_symmetry_cols(R: np.ndarray, n: int) -> List[np.ndarray]:
    """Five unknown 1-forms weighting R in the derivative slot and the four
    curvature slots."""
    patterns = []
    for pos in range(5):
        for u in range(n):
            c = np.zeros((n,) * 5)
            if pos == 0:
                c[:, :, :, :, u] = R
            elif pos == 1:
                c[u, :, :, :, :] = np.transpose(R, (1, 2, 3, 0))
            elif pos == 2:
                c[:, u, :, :, :] = np.transpose(R, (0, 2, 3, 1))
            elif pos == 3:
                c[:, :, u, :, :] = np.transpose(R, (0, 1, 3, 2))
            else:
                c[:, :, :, u, :] = R
            patterns.append(c)
    return patterns


def _chaki_cols(R: np.ndarray, n: int) -> List[np.ndarray]:
    """Single 1-form with the slot weights doubled relative to the
    derivative weight."""
    cols = []
    for u in range(n):
        c = np.zeros((n,) * 5)
        c[:, :, :, :, u] += R
        c[u, :, :, :, :] += 2 * np.transpose(R, (1, 2, 3, 0))
        c[:, u, :, :, :] += 2 * np.transpose(R, (0, 2, 3, 1))
        c[:, :, u, :, :] += 2 * np.transpose(R, (0, 1, 3, 2))
        c[:, :, :, u, :] += 2 * R
        cols.append(c)
    return cols


def _compat_cyc(Jop: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Cyclic sum over (a,b,c) of sum_u J^u_a D[u,x,b,c]."""
    X1 = np.einsum("ua,uxbc->axbc", Jop, D)
    return (X1 + np.transpose(X1, (2, 1, 3, 0))
            + np.transpose(X1, (3, 1, 0, 2)))


# ---------------------------------------------------------------------------
# classification groups

def classify_pseudosymmetries(points: List[PointData], tol: float,
                              report: StructureReport):
    def add_fit(name, target_of, cols_of):
        report.add(fit_scalar_relation(name, points, target_of, cols_of, tol))

    report.add(direct_test(
        "semisymmetric", points,
        lambda p: p.dot("R", "R"),
        lambda p: float(np.abs(p.tach("g", "R")).max()), tol))

    add_fit("pseudosymmetric",
            lambda p: p.dot("R", "R"), lambda p: [p.tach("g", "R")])
    add_fit("ricci_pseudosymmetric",
            lambda p: p.dot("R", "S"), lambda p: [p.tach("g", "S")])
    add_fit("conformal_pseudosymmetric",
            lambda p: p.dot("R", "C"), lambda p: [p.tach("g", "C")])
    add_fit("concircular_pseudosymmetric",
            lambda p: p.dot("R", "W"), lambda p: [p.tach("g", "W")])
    add_fit("conharmonic_pseudosymmetric",
            lambda p: p.dot("R", "K"), lambda p: [p.tach("g", "K")])
    add_fit("projective_pseudosymmetric",
            lambda p: p.dot("R", "P"), lambda p: [p.tach("g", "P")])
    add_fit("pseudosymmetric_weyl",
            lambda p: p.dot("C", "C"), lambda p: [p.tach("g", "C")])
    add_fit("weyl_dot_riemann_pseudosymmetric",
            lambda p: p.dot("C", "R"), lambda p: [p.tach("g", "R")])
    add_fit("concircular_dot_riemann_pseudosymmetric",
            lambda p: p.dot("W", "R"), lambda p: [p.tach("g", "R")])
    add_fit("conharmonic_dot_riemann_pseudosymmetric",
            lambda p: p.dot("K", "R"), lambda p: [p.tach("g", "R")])
    add_fit("ricci_generalized_pseudosymmetric",
            lambda p: p.dot("R", "R"), lambda p: [p.tach("S", "R")])
    add_fit("riemann_minus_ricci_tachibana",
            lambda p: p.dot("R", "R") - p.tach("S", "R"),
            lambda p: [p.tach("g", "C")])
    add_fit("difference_tensor_vs_g_S_riemann",
            lambda p: p.dot("C", "R") - p.dot("R", "C"),
            lambda p: [p.tach("g", "R"), p.tach("S", "R")])
    add_fit("difference_tensor_vs_S_g_weyl",
            lambda p: p.dot("C", "R") - p.dot("R", "C"),
            lambda p: [p.tach("S", "C"), p.tach("g", "C")])


def classify_einstein(points: List[PointData], tol: float,
                      report: StructureReport):
    n = points[0].n
    # S = 0 satisfies S = (kappa/n) g with kappa = 0, so Ricci-flat space
    # is (trivially) Einstein rather than degenerate
    rows = []
    for p in points:
        dev = np.abs(p.arr("S") - (p.kappa / n) * p.arr("g")).max()
        rows.append(([], dev / (1.0 + np.abs(p.arr("S")).max()), False))
    report.add(_assemble("einstein", rows, tol))

    # quasi-Einstein family: minimal rank of S - alpha g over eigenvalues
    # alpha of the Ricci operator; degenerate where S itself vanishes
    min_ranks: List[Optional[int]] = []
    for p in points:
        if np.abs(p.arr("S")).max() <= tol:
            min_ranks.append(None)
            continue
        evals = np.linalg.eigvals(p.J)
        scale = max(np.abs(evals).max(), 1e-30)
        best = n
        for al in evals:
            if abs(al.imag) > 1e-8 * scale:
                continue
            dev = p.arr("S") - al.real * p.arr("g")
            sv = np.linalg.svd(dev, compute_uv=False)
            rank = int((sv > RANK_CUTOFF * max(sv[0], 1e-30)).sum())
            best = min(best, rank)
        min_ranks.append(best)
    for target_rank in (1, 2, 3):
        name = {1: "quasi_einstein", 2: "two_quasi_einstein",
                3: "three_quasi_einstein"}[target_rank]
        live = [r for r in min_ranks if r is not None]
        if not live:
            fit = CoefficientFit(relation=name, verdict="degenerate")
        else:
            ok = all(r == target_rank for r in live)
            fit = CoefficientFit(relation=name,
                                 verdict="holds" if ok else "fails")
            if not ok:
                bad = next(i for i, r in enumerate(min_ranks)
                           if r is not None and r != target_rank)
                fit.witness = {"point_index": bad, "rank": min_ranks[bad]}
        fit.degenerate_points = [i for i, r in enumerate(min_ranks)
                                 if r is None]
        fit.extra["min_rank_per_point"] = [
            -1 if r is None else r for r in min_ranks]
        report.add(fit)

    # Einstein levels: minimal polynomial of the Ricci operator, expressed
    # through powers of S lowered with g
    def spow(p: PointData, k: int) -> np.ndarray:
        out = p.arr("g").copy()
        for _ in range(k):
            out = out @ p.ginv @ p.arr("S")
        return out

    for level in (2, 3, 4):
        def target(p, level=level):
            return -spow(p, level)

        def cols(p, level=level):
            return [spow(p, k) for k in range(level)][::-1]

        report.add(fit_scalar_relation(f"einstein_level_{level}", points,
                                       target, cols, tol))


def classify_roter(points: List[PointData], tol: float,
                   report: StructureReport):
    report.add(fit_scalar_relation(
        "roter", points, lambda p: p.arr("R"),
        lambda p: [p.wedge("g", "g"), p.wedge("g", "S"), p.wedge("S", "S")],
        tol))
    report.add(fit_scalar_relation(
        "generalized_roter", points, lambda p: p.arr("R"),
        lambda p: [p.wedge("g", "g"), p.wedge("g", "S"), p.wedge("S", "S"),
                   p.wedge("g", "S2"), p.wedge("S", "S2"),
                   p.wedge("S2", "S2")],
        tol))


def classify_recurrence(points: List[PointData], tol: float,
                        report: StructureReport):
    n = points[0].n

    def add(name, bases):
        def cols(p, bases=bases):
            out = []
            for b in bases:
                out.extend(_outer_cols(b(p), n))
            return out
        report.add(fit_scalar_relation(name, points,
                                       lambda p: p.arr("nabla_R"), cols, tol))

    add("recurrent", [lambda p: p.arr("R")])
    add("weakly_generalized_recurrent",
        [lambda p: p.arr("R"), lambda p: p.wedge("S", "S")])
    add("hyper_generalized_recurrent",
        [lambda p: p.arr("R"), lambda p: p.wedge("S", "g")])
    add("super_generalized_recurrent",
        [lambda p: p.arr("R"), lambda p: p.wedge("g", "g"),
         lambda p: p.wedge("S", "g"), lambda p: p.wedge("S", "S")])
    add("special_metric_ricci_wedge_recurrent",
        [lambda p: p.wedge("g", "S")])


def _nullspace_dim(columns: List[np.ndarray]) -> Optional[int]:
    A = np.stack([c.ravel() for c in columns], axis=1)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] == 0.0:
        return None  # the map itself vanishes: degenerate
    return int((sv < NULLSPACE_CUTOFF * sv[0]).sum())


def classify_form_recurrence(points: List[PointData], tol: float,
                             report: StructureReport):
    n = points[0].n
    for name, dkey, nkey in (("riemann_two_forms_recurrent", "R", "nabla_R"),
                             ("conformal_two_forms_recurrent", "C",
                              "nabla_C")):
        rows = []
        trivial_lhs = []
        for p in points:
            D = p.arr(dkey)
            lhs = _cyc5(p.arr(nkey))
            scale = np.abs(p.arr(nkey)).max()
            if np.abs(D).max() <= tol:
                rows.append((None, None, True))
                trivial_lhs.append(False)
                continue
            if np.abs(lhs).max() <= tol * (1.0 + scale):
                # the cyclic sum vanishes identically; recurrence then
                # requires a nonzero 1-form annihilating the cyclic map
                dim = _nullspace_dim(_cyc_cols(D, n))
                ok = dim is not None and dim >= 1
                rows.append(([0.0] * n, 0.0 if ok else 1.0, False))
                trivial_lhs.append(True)
                continue
            rows.append(_lstsq_point(lhs, _cyc_cols(D, n)))
            trivial_lhs.append(False)
        fit = _assemble(name, rows, tol)
        if any(trivial_lhs):
            fit.extra["cyclic_sum_vanishes"] = trivial_lhs
        report.add(fit)

    # recurrence of the 1-forms attached to the Ricci tensor, in both the
    # two-1-form and single-1-form variants
    def target(p: PointData) -> np.ndarray:
        nab = p.arr("nabla_S")  # nab[i,j,f] = (nabla_f S)_{ij}
        return (np.transpose(nab, (2, 0, 1))
                - np.transpose(nab, (0, 2, 1)))

    def cols_two(p: PointData) -> List[np.ndarray]:
        S = p.arr("S")
        cols = []
        for u in range(n):
            c = np.zeros((n,) * 3)
            c[u, :, :] = S
            cols.append(c)
        for u in range(n):
            c = np.zeros((n,) * 3)
            c[:, u, :] = -S
            cols.append(c)
        return cols

    def cols_one(p: PointData) -> List[np.ndarray]:
        two = cols_two(p)
        return [two[u] + two[n + u] for u in range(n)]

    report.add(fit_scalar_relation("ricci_one_forms_recurrent", points,
                                   target, cols_two, tol))
    report.add(fit_scalar_relation("ricci_one_forms_recurrent_single",
                                   points, target, cols_one, tol))


def classify_ricci_properties(points: List[PointData], tol: float,
                              report: StructureReport):
    report.add(direct_test(
        "codazzi_ricci", points,
        lambda p: p.arr("nabla_S") - np.transpose(p.arr("nabla_S"),
                                                  (0, 2, 1)),
        lambda p: float(np.abs(p.arr("nabla_S")).max()), tol))
    report.add(direct_test(
        "cyclic_parallel_ricci", points,
        lambda p: (p.arr("nabla_S") + np.transpose(p.arr("nabla_S"), (2, 0, 1))
                   + np.transpose(p.arr("nabla_S"), (1, 2, 0))),
        lambda p: float(np.abs(p.arr("nabla_S")).max()), tol))

    for dname, dkey in (("riemann", "R"), ("weyl", "C"),
                        ("projective", "P"), ("concircular", "W"),
                        ("conharmonic", "K")):
        for sname, op in (("ricci", lambda p: p.J),
                          ("stress", lambda p: p.ginv @ p.arr("T"))):
            report.add(direct_test(
                f"{dname}_compatible_{sname}", points,
                lambda p, dkey=dkey, op=op: _compat_cyc(op(p), p.arr(dkey)),
                lambda p, dkey=dkey, op=op: float(
                    np.abs(np.einsum("ua,uxbc->axbc", op(p),
                                     p.arr(dkey))).max()),
                tol))


def classify_symmetry_forms(points: List[PointData], tol: float,
                            report: StructureReport):
    n = points[0].n
    report.add(fit_scalar_relation(
        "weakly_symmetric", points, lambda p: p.arr("nabla_R"),
        lambda p: _weak_symmetry_cols(p.arr("R"), n), tol))
    report.add(fit_scalar_relation(
        "chaki_pseudosymmetric", points, lambda p: p.arr("nabla_R"),
        lambda p: _chaki_cols(p.arr("R"), n), tol))
    for dname, dkey in (("riemann", "R"), ("weyl", "C"),
                        ("projective", "P"), ("concircular", "W"),
                        ("conharmonic", "K")):
        dims = []
        degenerate = True
        for p in points:
            dim = _nullspace_dim(_cyc_cols(p.arr(dkey), n))
            dims.append(dim)
            if dim is not None:
                degenerate = False
        if degenerate:
            verdict = "degenerate"
        elif all(d is not None and d >= 1 for d in dims):
            verdict = "holds"
        else:
            verdict = "fails"
        fit = CoefficientFit(relation=f"venzi_{dname}", verdict=verdict)
        fit.extra["nullspace_dim_per_point"] = [
            -1 if d is None else d for d in dims]
        report.add(fit)


def classify_stress_pseudosymmetry(points: List[PointData], tol: float,
                                   report: StructureReport):
    report.add(fit_scalar_relation(
        "stress_pseudosymmetric", points,
        lambda p: p.dot("R", "T"), lambda p: [p.tach("g", "T")], tol))
    report.add(fit_scalar_relation(
        "stress_weyl_pseudosymmetric", points,
        lambda p: p.dot("C", "T"), lambda p: [p.tach("g", "T")], tol))


def classify_scalars(points: List[PointData], tol: float,
                     report: StructureReport):
    kappas = [p.kappa for p in points]
    ok = all(abs(k) <= tol for k in kappas)
    fit = CoefficientFit(relation="scalar_curvature_zero",
                         verdict="holds" if ok else "fails")
    fit.extra["kappa_per_point"] = kappas
    if not ok:
        bad = max(range(len(kappas)), key=lambda i: abs(kappas[i]))
        fit.witness = {"point_index": bad, "kappa": kappas[bad]}
    report.add(fit)


# ---------------------------------------------------------------------------
# closed-form coefficient verification

def verify_reference_coefficients(report: StructureReport, spec: MetricSpec,
                                  forms: Dict[str, List[List[str]]],
                                  rel_tol: float = 1e-8):
    """Compare fitted coefficient values against candidate closed forms.

    forms maps structure name -> per-coefficient list of candidate
    expression strings (in the metric's coordinates and parameters).
    """
    allowed = set(spec.coords) | set(spec.params) | {"Lambda"}
    for name, candidate_lists in forms.items():
        fit = report.structures.get(name)
        if fit is None or fit.verdict == "degenerate":
            continue
        all_ok = True
        for ci, candidates in enumerate(candidate_lists):
            matched = None
            notes = []
            for cand in candidates:
                expr = ec.parse_expr(cand, allowed)
                ok = True
                for pi, coef in enumerate(fit.coefficients):
                    if coef is None:
                        continue
                    values = dict(report.plan.points[pi])
                    values.update(report.plan.params)
                    try:
                        want = ec.eval_float(expr, values, {})
                    except ec.EvalError as exc:
                        notes.append(f"candidate '{cand}' not evaluable: "
                                     f"{exc}")
                        ok = False
                        break
                    have = coef[ci]
                    if abs(have - want) > rel_tol * (1 + abs(have)
                                                     + abs(want)):
                        notes.append(
                            f"candidate '{cand}' off at point {pi}: "
                            f"fitted {have!r}, closed form {want!r}")
                        ok = False
                        break
                if ok:
                    matched = cand
                    break
            if matched is None:
                all_ok = False
                report.discrepancies.append(
                    f"{report.metric_id}/{name}: coefficient {ci} matches "
                    f"no candidate closed form ({'; '.join(notes)})")
            elif matched != candidates[0]:
                report.discrepancies.append(
                    f"{report.metric_id}/{name}: coefficient {ci} matches "
                    f"the alternative closed form '{matched}', not "
                    f"'{candidates[0]}'")
        fit.reference_match = all_ok


# ---------------------------------------------------------------------------
# top level

def classify_metric(spec: MetricSpec, bundle: CurvatureBundle,
                    params: Optional[Dict[str, float]] = None,
                    count: int = DEFAULT_POINTS, tol: float = DEFAULT_TOL,
                    seed: int = DEFAULT_SEED,
                    reference_forms: Optional[Dict] = None) -> StructureReport:
    plan = build_sample_plan(spec, params, count, seed)
    points = evaluate_plan(bundle, plan)
    report = StructureReport(metric_id=spec.id, plan=plan, tol=tol)
    classify_pseudosymmetries(points, tol, report)
    classify_einstein(points, tol, report)
    classify_roter(points, tol, report)
    classify_recurrence(points, tol, report)
    classify_form_recurrence(points, tol, report)
    classify_ricci_properties(points, tol, report)
    classify_symmetry_forms(points, tol, report)
    classify_stress_pseudosymmetry(points, tol, report)
    classify_scalars(points, tol, report)
    if reference_forms:
        verify_reference_coefficients(report, spec, reference_forms)
    return report


SIMILARITY_STRUCTURES = (
    "roter",
    "einstein_level_2",
    "pseudosymmetric",
    "conformal_two_forms_recurrent",
    "riemann_compatible_ricci",
    "weyl_compatible_ricci",
)

DISSIMILARITY_STRUCTURES = (
    "scalar_curvature_zero",
    "weakly_generalized_recurrent",
    "special_metric_ricci_wedge_recurrent",
)


def compare_metrics(rep_a: StructureReport, rep_b: StructureReport) -> Dict:
    names_a = set(rep_a.structures)
    names_b = set(rep_b.structures)
    if names_a != names_b:
        raise ClassifyError("reports cover different structure sets")
    shared_holds, shared_fails, differing = [], [], []
    rows = {}
    for name in sorted(names_a):
        va = rep_a.verdict(name)
        vb = rep_b.verdict(name)
        rows[name] = {rep_a.metric_id: va, rep_b.metric_id: vb}
        if va == vb == "holds":
            shared_holds.append(name)
        elif va == vb == "fails":
            shared_fails.append(name)
        elif va != vb:
            differing.append(name)
    return {
        "metrics": [rep_a.metric_id, rep_b.metric_id],
        "shared_holds": shared_holds,
        "shared_fails": shared_fails,
        "differing": differing,
        "verdicts": rows,
    }


# ---------------------------------------------------------------------------
# published component-table verification

def _fd_curvature(spec: MetricSpec, values: Dict[str, float],
                  lam: float = 0.0, h: float = 2e-4) -> PointData:
    """Numeric curvature at one point using central finite differences of
    the metric components only; independent of the symbolic derivative
    path.  The derived tensors follow from R, S and kappa by the engine's
    own derived_curvatures formulas."""
    n = spec.dim
    coords = spec.coords

    def gmat(vals):
        return spec.g().evaluate(vals).data

    def shifted(vals, k, dh):
        out = dict(vals)
        out[coords[k]] = out[coords[k]] + dh
        return out

    def fd(func, vals):
        base = func(vals)
        out = np.empty(base.shape + (n,))
        for k in range(n):
            step = h * max(1.0, abs(vals[coords[k]]))
            out[..., k] = (func(shifted(vals, k, step))
                           - func(shifted(vals, k, -step))) / (2 * step)
        return out

    def gamma_at(vals):
        g = gmat(vals)
        ginv = np.linalg.inv(g)
        dg = fd(gmat, vals)
        return 0.5 * (np.einsum("hk,jki->hij", ginv, dg)
                      + np.einsum("hk,ikj->hij", ginv, dg)
                      - np.einsum("hk,ijk->hij", ginv, dg))

    def rlow_at(vals):
        g = gmat(vals)
        gam = gamma_at(vals)
        dgam = fd(gamma_at, vals)
        rup = (np.einsum("hikj->hijk", dgam) - dgam
               + np.einsum("hjl,lik->hijk", gam, gam)
               - np.einsum("hkl,lij->hijk", gam, gam))
        return np.einsum("hl,lijk->hijk", g, rup)

    def curvature_at(vals):
        g = gmat(vals)
        ginv = np.linalg.inv(g)
        R = rlow_at(vals)
        S = np.einsum("hk,hijk->ij", ginv, R)
        kappa = float(np.einsum("ij,ij->", ginv, S))
        derived = cv.derived_curvatures(
            ComponentTensor(R, 4, n), ComponentTensor(S, 2, n), kappa,
            ComponentTensor(g, 2, n), lam)
        arrays = {"g": g, "R": R, "S": S}
        arrays.update(zip("CPWKT", (t.data for t in derived)))
        return arrays, kappa

    gam = gamma_at(values)

    def covariant(func):
        base = func(values)
        d = fd(func, values)
        k = base.ndim
        out = d.copy()
        for s in range(k):
            moved = np.moveaxis(base, s, 0)          # [u, rest...]
            corr = np.einsum("ufc,u...->...cf", gam, moved)
            # corr has shape rest... + (c, f); put c back at slot s
            corr = np.moveaxis(corr, -2, s)
            out -= corr
        return out

    arrays, kappa = curvature_at(values)
    arrays["nabla_R"] = covariant(rlow_at)
    arrays["nabla_C"] = covariant(lambda vals: curvature_at(vals)[0]["C"])
    return PointData.from_arrays(values, arrays, kappa)


def _check_value(kind, indices, point: PointData):
    idx = tuple(i - 1 for i in indices)
    if kind == "kappa":
        return point.kappa
    op, *names = kind.split(":")
    if op == "tensor":
        return float(point.arr(names[0])[idx])
    if op == "wedge":
        return float(point.wedge(names[0], names[1])[idx])
    if op == "dot":
        return float(point.dot(names[0], names[1])[idx])
    if op == "tach":
        return float(point.tach(names[0], names[1])[idx])
    raise ClassifyError(f"unknown check kind '{kind}'")


def verify_component_tables(spec: MetricSpec, bundle: CurvatureBundle,
                            checks: List[Dict], lam: float = 0.0,
                            count: int = 8, seed: int = DEFAULT_SEED,
                            rel_tol: float = 1e-10) -> Dict:
    """Compare published component values against the engine at random
    points; re-verify every mismatching engine value with the
    finite-difference oracle.

    The oracle recomputes only the factor tensors (R, S, kappa and what
    follows from them, nabla_R, nabla_C) from finite differences of the
    metric.  A wedge:, dot: or tach: entry is then formed with the engine's
    own product code, so its confirmation cannot catch an error in a
    product's convention."""
    plan = build_sample_plan(spec, None, count, seed)
    points = evaluate_plan(bundle, plan)
    allowed = set(spec.coords) | set(spec.params) | {"Lambda"}
    results = []
    fd_cache: Dict[int, PointData] = {}
    for chk in checks:
        expr = ec.parse_expr(chk["expr"], allowed)
        status = "match"
        detail = None
        for pi, p in enumerate(points):
            values = dict(p.values)
            values.setdefault("Lambda", lam)
            try:
                ref = ec.eval_float(expr, values, {})
            except ec.EvalError as exc:
                status = "mismatch"
                detail = {"point_index": pi, "reason": f"reference value "
                          f"not evaluable: {exc}"}
                break
            eng = _check_value(chk["kind"], chk["indices"], p)
            if abs(eng - ref) > rel_tol * (1.0 + abs(eng) + abs(ref)):
                status = "mismatch"
                detail = {"point_index": pi, "engine": eng, "reference": ref}
                break
        entry = {"group": chk["group"], "kind": chk["kind"],
                 "indices": list(chk["indices"]), "status": status}
        if detail is not None:
            entry.update(detail)
        if status == "mismatch":
            # confirm the engine value independently at two points
            fd_ok = True
            worst = 0.0
            for pi in (0, 1):
                p = points[pi]
                if pi not in fd_cache:
                    fd_cache[pi] = _fd_curvature(spec, p.values, lam)
                eng = _check_value(chk["kind"], chk["indices"], p)
                fdv = _check_value(chk["kind"], chk["indices"], fd_cache[pi])
                rel = abs(eng - fdv) / (1.0 + abs(eng) + abs(fdv))
                worst = max(worst, rel)
                if rel > 5e-5:
                    fd_ok = False
            entry["engine_confirmed_by_finite_differences"] = fd_ok
            entry["finite_difference_rel_err"] = worst
        results.append(entry)
    matched = sum(1 for r in results if r["status"] == "match")
    return {"metric": spec.id, "seed": seed, "total": len(results),
            "matched": matched, "match_fraction": matched / len(results),
            "checks": results}
