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
from typing import Dict, List, Optional, Sequence

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

    def binding(self) -> Dict[str, object]:
        """The plan for exprcore.eval_float: each coordinate as an array
        over the points, each parameter a float."""
        return dict({c: np.array([pt[c] for pt in self.points])
                     for c in self.points[0]}, **self.params)


def build_sample_plan(spec: MetricSpec, params: Optional[Dict[str, float]] = None,
                      count: int = DEFAULT_POINTS,
                      seed: int = DEFAULT_SEED) -> SamplePlan:
    """Draw count in-range points, resampling any point where the metric is
    not finite (a domain error or an overflow), singular, or nearly
    degenerate."""
    if count < 4:
        raise ClassifyError("a sample plan needs at least 4 points")
    bound = dict(spec.defaults)
    if params:
        unknown = set(params) - set(spec.params)
        if unknown:
            raise ClassifyError(f"unknown parameters {sorted(unknown)}")
        bound.update(params)
    unbound = set().union(*(e.free_symbols() for e in spec.components.flat))
    unbound -= set(spec.coords) | set(bound)
    if unbound:
        raise ClassifyError(f"no value for the metric's parameters "
                            f"{sorted(unbound)}")
    rng = random.Random(seed)
    points: List[Dict[str, float]] = []
    tally = np.zeros(4, dtype=int)  # candidates by first check failed, 3: none
    while len(points) < count:
        if tally.sum() >= 200 * count:
            raise ClassifyError(
                f"could not find enough regular sample points: "
                f"{tally.sum()} candidates drawn, {tally[0]} not finite "
                f"(a domain error or an overflow), {tally[1]} with a "
                f"singular det, {tally[2]} with |g00| below "
                f"{METRIC_REGULARITY_FLOOR}")
        # candidates in batches of count, drawn in the order of one at a
        # time, so the first count regular ones are the plan
        cand = np.array([[rng.uniform(*spec.coordinate_range(c))
                          for c in spec.coords] for _ in range(count)])
        gv = spec.g().evaluate(dict(zip(spec.coords, cand.T), **bound)).data
        # the first check each candidate fails; the g00 floor keeps away
        # from horizons, where components blow up
        with np.errstate(all="ignore"):
            why = np.select([~np.isfinite(gv).all(axis=(1, 2)),
                             np.abs(np.linalg.det(gv)) < 1e-10,
                             np.abs(gv[:, 0, 0]) < METRIC_REGULARITY_FLOOR],
                            [0, 1, 2], 3)
        tally += np.bincount(why, minlength=4)
        keep = np.flatnonzero(why == 3)[:count - len(points)]
        points += [dict(zip(spec.coords, row)) for row in cand[keep].tolist()]
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
# numeric evaluation of the bundle at every sample point

@dataclass
class PointBatch:
    """Curvature at a batch of points as float arrays whose leading axis is
    the point: arrays maps a tensor name to its (P, n, ..., n) stack."""

    arrays: Dict[str, np.ndarray]
    kappa: np.ndarray                 # (P,)
    ginv: np.ndarray = field(init=False)   # (P, n, n)
    J: np.ndarray = field(init=False)      # (P, n, n) Ricci operator g^-1 S

    def __post_init__(self):
        self.ginv = np.linalg.inv(self.arrays["g"])
        self.J = self.ginv @ self.arrays["S"]

    @property
    def n(self) -> int:
        return self.arrays["g"].shape[-1]

    def tensor(self, name: str) -> ComponentTensor:
        a = self.arrays[name]
        return ComponentTensor(a, a.ndim - 1, self.n)


def evaluate_plan(bundle: CurvatureBundle, plan: SamplePlan) -> PointBatch:
    """The bundle at every plan point: one evaluation per tensor, over the
    point axis.  An entry that is not finite at a point fails the run."""
    values, memo = plan.binding(), {}
    arrays = {name: bundle.tensor(name).evaluate(values, memo).data
              for name in cv.TENSORS}
    kappa = np.full(len(plan), ec.eval_float(bundle.kappa, values, memo))
    for name, a in (*arrays.items(), ("kappa", kappa)):
        bad = np.flatnonzero(~np.isfinite(a.reshape(len(plan), -1)).all(1))
        if bad.size:
            raise ec.EvalError(f"{name} is not finite at sample point "
                               f"{bad[0]} {plan.points[bad[0]]}")
    return PointBatch(arrays, kappa)


# the products over a batch, computed afresh by each caller; a classify
# group keeps the ones it uses more than once as locals

def _wedge(batch: PointBatch, a: str, b: str) -> np.ndarray:
    return tn.kulkarni_nomizu(batch.tensor(a), batch.tensor(b)).data


def _dot(batch: PointBatch, D: str, eta: str) -> np.ndarray:
    return tn.dot_action(batch.tensor(D), batch.tensor(eta), batch.ginv).data


def _tach(batch: PointBatch, lam: str, eta: str) -> np.ndarray:
    return tn.tachibana(batch.tensor(lam), batch.tensor(eta)).data


_PRODUCTS = {"wedge": _wedge, "dot": _dot, "tach": _tach}


def _amax(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry at each point."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def _permute(a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """np.transpose of the last len(axes) axes; leading point axes stay."""
    lead = a.ndim - len(axes)
    return np.transpose(a, (*range(lead), *(lead + k for k in axes)))


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


def fit_scalar_relation(relation: str, target: np.ndarray,
                        columns: Sequence[np.ndarray],
                        tol: float) -> CoefficientFit:
    """target ~ sum_k c_k columns[k] with scalar c_k fitted at each point;
    the arrays' leading axis is the point."""
    rows = [_lstsq_point(target[i], [c[i] for c in columns])
            for i in range(len(target))]
    return _assemble(relation, rows, tol)


def direct_test(relation: str, deviation: np.ndarray, scale: np.ndarray,
                tol: float) -> CoefficientFit:
    """Equality test: deviation must vanish relative to a natural scale,
    one entry of scale per point."""
    rows = []
    for dev, sc in zip(_amax(deviation), scale):
        degenerate = sc <= tol and dev <= tol
        rows.append((None, None, True) if degenerate
                    else ([], dev / (1.0 + sc), False))
    return _assemble(relation, rows, tol)


# ---------------------------------------------------------------------------
# column builders for 1-form unknowns (unknown A enters as n columns); the
# tensors may carry leading point axes

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
            c = np.zeros(R.shape + (n,))
            if pos == 0:
                c[..., u] = R
            elif pos == 1:
                c[..., u, :, :, :, :] = _permute(R, (1, 2, 3, 0))
            elif pos == 2:
                c[..., :, u, :, :, :] = _permute(R, (0, 2, 3, 1))
            elif pos == 3:
                c[..., :, :, u, :, :] = _permute(R, (0, 1, 3, 2))
            else:
                c[..., :, :, :, u, :] = R
            patterns.append(c)
    return patterns


def _chaki_cols(R: np.ndarray, n: int) -> List[np.ndarray]:
    """Single 1-form with the slot weights doubled relative to the
    derivative weight."""
    cols = []
    for u in range(n):
        c = np.zeros(R.shape + (n,))
        c[..., u] += R
        c[..., u, :, :, :, :] += 2 * _permute(R, (1, 2, 3, 0))
        c[..., :, u, :, :, :] += 2 * _permute(R, (0, 2, 3, 1))
        c[..., :, :, u, :, :] += 2 * _permute(R, (0, 1, 3, 2))
        c[..., :, :, :, u, :] += 2 * R
        cols.append(c)
    return cols


# ---------------------------------------------------------------------------
# classification groups

def classify_pseudosymmetries(batch: PointBatch, tol: float,
                              report: StructureReport):
    def add_fit(name, target, *columns):
        report.add(fit_scalar_relation(name, target, columns, tol))

    # a (0,6) product takes 32 kB a point; del drops each one that no later
    # fit uses, which bounds the group's peak memory
    RR = _dot(batch, "R", "R")
    QgR = _tach(batch, "g", "R")
    QSR = _tach(batch, "S", "R")
    QgC = _tach(batch, "g", "C")
    report.add(direct_test("semisymmetric", RR, _amax(QgR), tol))
    add_fit("pseudosymmetric", RR, QgR)
    add_fit("ricci_generalized_pseudosymmetric", RR, QSR)
    add_fit("riemann_minus_ricci_tachibana", RR - QSR, QgC)
    del RR

    for name, eta in (("ricci_pseudosymmetric", "S"),
                      ("concircular_pseudosymmetric", "W"),
                      ("conharmonic_pseudosymmetric", "K"),
                      ("projective_pseudosymmetric", "P")):
        add_fit(name, _dot(batch, "R", eta), _tach(batch, "g", eta))
    add_fit("pseudosymmetric_weyl", _dot(batch, "C", "C"), QgC)
    add_fit("concircular_dot_riemann_pseudosymmetric",
            _dot(batch, "W", "R"), QgR)
    add_fit("conharmonic_dot_riemann_pseudosymmetric",
            _dot(batch, "K", "R"), QgR)

    CR = _dot(batch, "C", "R")
    add_fit("weyl_dot_riemann_pseudosymmetric", CR, QgR)
    RC = _dot(batch, "R", "C")
    add_fit("conformal_pseudosymmetric", RC, QgC)
    difference = CR - RC
    del CR, RC
    add_fit("difference_tensor_vs_g_S_riemann", difference, QgR, QSR)
    add_fit("difference_tensor_vs_S_g_weyl", difference,
            _tach(batch, "S", "C"), QgC)


def classify_einstein(batch: PointBatch, tol: float,
                      report: StructureReport):
    n = batch.n
    g, S = batch.arrays["g"], batch.arrays["S"]
    # S = 0 satisfies S = (kappa/n) g with kappa = 0, so Ricci-flat space
    # is (trivially) Einstein rather than degenerate
    dev = _amax(S - (batch.kappa / n)[:, None, None] * g)
    report.add(_assemble("einstein",
                         [([], d / (1.0 + s), False)
                          for d, s in zip(dev, _amax(S))], tol))

    # quasi-Einstein family: minimal rank of S - alpha g over eigenvalues
    # alpha of the Ricci operator; degenerate where S itself vanishes
    min_ranks: List[Optional[int]] = []
    for i in range(len(S)):
        if np.abs(S[i]).max() <= tol:
            min_ranks.append(None)
            continue
        evals = np.linalg.eigvals(batch.J[i])
        scale = max(np.abs(evals).max(), 1e-30)
        best = n
        for al in evals:
            if abs(al.imag) > 1e-8 * scale:
                continue
            sv = np.linalg.svd(S[i] - al.real * g[i], compute_uv=False)
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
    # through powers of S lowered with g: powers[k] = g (g^-1 S)^k
    powers = [g]
    for _ in range(4):
        powers.append(powers[-1] @ batch.ginv @ S)
    for level in (2, 3, 4):
        report.add(fit_scalar_relation(f"einstein_level_{level}",
                                       -powers[level], powers[level - 1::-1],
                                       tol))


def classify_roter(batch: PointBatch, tol: float, report: StructureReport):
    R = batch.arrays["R"]
    basis = [_wedge(batch, "g", "g"), _wedge(batch, "g", "S"),
             _wedge(batch, "S", "S")]
    report.add(fit_scalar_relation("roter", R, basis, tol))
    basis += [_wedge(batch, "g", "S2"), _wedge(batch, "S", "S2"),
              _wedge(batch, "S2", "S2")]
    report.add(fit_scalar_relation("generalized_roter", R, basis, tol))


def classify_recurrence(batch: PointBatch, tol: float,
                        report: StructureReport):
    n = batch.n
    R, nabla_R = batch.arrays["R"], batch.arrays["nabla_R"]
    gg, gS = _wedge(batch, "g", "g"), _wedge(batch, "g", "S")
    Sg, SS = _wedge(batch, "S", "g"), _wedge(batch, "S", "S")
    for name, bases in (("recurrent", [R]),
                        ("weakly_generalized_recurrent", [R, SS]),
                        ("hyper_generalized_recurrent", [R, Sg]),
                        ("super_generalized_recurrent", [R, gg, Sg, SS]),
                        ("special_metric_ricci_wedge_recurrent", [gS])):
        cols = [c for b in bases for c in _outer_cols(b, n)]
        report.add(fit_scalar_relation(name, nabla_R, cols, tol))


def _nullspace_dim(columns: List[np.ndarray]) -> Optional[int]:
    A = np.stack([c.ravel() for c in columns], axis=1)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] == 0.0:
        return None  # the map itself vanishes: degenerate
    return int((sv < NULLSPACE_CUTOFF * sv[0]).sum())


def classify_form_recurrence(batch: PointBatch, tol: float,
                             report: StructureReport):
    n = batch.n
    for name, dkey, nkey in (("riemann_two_forms_recurrent", "R", "nabla_R"),
                             ("conformal_two_forms_recurrent", "C",
                              "nabla_C")):
        rows = []
        trivial_lhs = []
        for D, nab in zip(batch.arrays[dkey], batch.arrays[nkey]):
            lhs = _cyc5(nab)
            scale = np.abs(nab).max()
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
    S = batch.arrays["S"]
    nab = batch.arrays["nabla_S"]  # nab[i,j,f] = (nabla_f S)_{ij}
    target = _permute(nab, (2, 0, 1)) - _permute(nab, (0, 2, 1))
    cols_two = []
    for u in range(n):
        c = np.zeros(S.shape[:-2] + (n,) * 3)
        c[..., u, :, :] = S
        cols_two.append(c)
    for u in range(n):
        c = np.zeros(S.shape[:-2] + (n,) * 3)
        c[..., :, u, :] = -S
        cols_two.append(c)
    cols_one = [cols_two[u] + cols_two[n + u] for u in range(n)]
    report.add(fit_scalar_relation("ricci_one_forms_recurrent", target,
                                   cols_two, tol))
    report.add(fit_scalar_relation("ricci_one_forms_recurrent_single",
                                   target, cols_one, tol))


def classify_ricci_properties(batch: PointBatch, tol: float,
                              report: StructureReport):
    nab = batch.arrays["nabla_S"]
    scale = _amax(nab)
    report.add(direct_test("codazzi_ricci", nab - _permute(nab, (0, 2, 1)),
                           scale, tol))
    report.add(direct_test(
        "cyclic_parallel_ricci",
        nab + _permute(nab, (2, 0, 1)) + _permute(nab, (1, 2, 0)),
        scale, tol))

    ops = (("ricci", batch.J), ("stress", batch.ginv @ batch.arrays["T"]))
    for dname, dkey in (("riemann", "R"), ("weyl", "C"),
                        ("projective", "P"), ("concircular", "W"),
                        ("conharmonic", "K")):
        for sname, op in ops:
            # X[a,x,b,c] = sum_u op^u_a D[u,x,b,c]; the deviation is its
            # cyclic sum over (a, b, c)
            X = np.einsum("...ua,...uxbc->...axbc", op, batch.arrays[dkey])
            cyc = X + _permute(X, (2, 1, 3, 0)) + _permute(X, (3, 1, 0, 2))
            report.add(direct_test(f"{dname}_compatible_{sname}", cyc,
                                   _amax(X), tol))


def classify_symmetry_forms(batch: PointBatch, tol: float,
                            report: StructureReport):
    n = batch.n
    R, nabla_R = batch.arrays["R"], batch.arrays["nabla_R"]
    report.add(fit_scalar_relation("weakly_symmetric", nabla_R,
                                   _weak_symmetry_cols(R, n), tol))
    report.add(fit_scalar_relation("chaki_pseudosymmetric", nabla_R,
                                   _chaki_cols(R, n), tol))
    for dname, dkey in (("riemann", "R"), ("weyl", "C"),
                        ("projective", "P"), ("concircular", "W"),
                        ("conharmonic", "K")):
        dims = [_nullspace_dim(_cyc_cols(D, n)) for D in batch.arrays[dkey]]
        if all(d is None for d in dims):
            verdict = "degenerate"
        elif all(d is not None and d >= 1 for d in dims):
            verdict = "holds"
        else:
            verdict = "fails"
        fit = CoefficientFit(relation=f"venzi_{dname}", verdict=verdict)
        fit.extra["nullspace_dim_per_point"] = [
            -1 if d is None else d for d in dims]
        report.add(fit)


def classify_stress_pseudosymmetry(batch: PointBatch, tol: float,
                                   report: StructureReport):
    QgT = _tach(batch, "g", "T")
    report.add(fit_scalar_relation("stress_pseudosymmetric",
                                   _dot(batch, "R", "T"), [QgT], tol))
    report.add(fit_scalar_relation("stress_weyl_pseudosymmetric",
                                   _dot(batch, "C", "T"), [QgT], tol))


def classify_scalars(batch: PointBatch, tol: float,
                     report: StructureReport):
    kappas = batch.kappa.tolist()
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

def _first_miss(have: np.ndarray, want: np.ndarray,
                rel_tol: float) -> Optional[int]:
    """Index of the first point where want is not finite or differs from
    have by more than rel_tol relative, or None."""
    with np.errstate(invalid="ignore"):
        off = np.abs(have - want) > rel_tol * (1.0 + np.abs(have)
                                               + np.abs(want))
    miss = np.flatnonzero(off | ~np.isfinite(want))
    return int(miss[0]) if miss.size else None


def verify_reference_coefficients(report: StructureReport, spec: MetricSpec,
                                  forms: Dict[str, List[List[str]]],
                                  rel_tol: float = 1e-8):
    """Compare fitted coefficient values against candidate closed forms.

    forms maps structure name -> per-coefficient list of candidate
    expression strings (in the metric's coordinates and parameters).
    """
    allowed = set(spec.coords) | set(spec.params) | {"Lambda"}
    values, memo = report.plan.binding(), {}
    for name, candidate_lists in forms.items():
        fit = report.structures.get(name)
        if fit is None or fit.verdict == "degenerate":
            continue
        live = [pi for pi, c in enumerate(fit.coefficients) if c is not None]
        all_ok = True
        for ci, candidates in enumerate(candidate_lists):
            have = np.array([fit.coefficients[pi][ci] for pi in live])
            matched = None
            notes = []
            for cand in candidates:
                want = np.broadcast_to(ec.eval_float(
                    ec.parse_expr(cand, allowed), values, memo),
                    (len(report.plan),))[live]
                miss = _first_miss(have, want, rel_tol)
                if miss is None:
                    matched = cand
                    break
                pi = live[miss]
                notes.append(f"candidate '{cand}' " + (
                    f"off at point {pi}: fitted {float(have[miss])!r}, "
                    f"closed form {float(want[miss])!r}"
                    if np.isfinite(want[miss])
                    else f"not evaluable at point {pi}"))
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
    batch = evaluate_plan(bundle, plan)
    report = StructureReport(metric_id=spec.id, plan=plan, tol=tol)
    classify_pseudosymmetries(batch, tol, report)
    classify_einstein(batch, tol, report)
    classify_roter(batch, tol, report)
    classify_recurrence(batch, tol, report)
    classify_form_recurrence(batch, tol, report)
    classify_ricci_properties(batch, tol, report)
    classify_symmetry_forms(batch, tol, report)
    classify_stress_pseudosymmetry(batch, tol, report)
    classify_scalars(batch, tol, report)
    if reference_forms:
        verify_reference_coefficients(report, spec, reference_forms)
    return report


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

def _fd_curvature(spec: MetricSpec, points: List[Dict[str, float]],
                  lam: float = 0.0, h: float = 2e-4) -> PointBatch:
    """Numeric curvature at the given points using central finite
    differences of the metric components only; independent of the symbolic
    derivative path.  The derived tensors follow from R, S and kappa by the
    engine's own derived_curvatures formulas."""
    n = spec.dim
    coords = spec.coords
    seen: Dict[tuple, np.ndarray] = {}

    def gmat(vals):
        # the nested stencils below visit each point about 12 times
        key = tuple(vals[c] for c in coords)
        if key not in seen:
            seen[key] = spec.g().evaluate(vals).data
        return seen[key]

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

    def covariant(func, values):
        gam = gamma_at(values)
        base = func(values)
        out = fd(func, values)
        for s in range(base.ndim):
            moved = np.moveaxis(base, s, 0)          # [u, rest...]
            corr = np.einsum("ufc,u...->...cf", gam, moved)
            # corr has shape rest... + (c, f); put c back at slot s
            out -= np.moveaxis(corr, -2, s)
        return out

    per_point, kappas = [], []
    for values in points:
        arrays, kappa = curvature_at(values)
        arrays["nabla_R"] = covariant(rlow_at, values)
        arrays["nabla_C"] = covariant(
            lambda vals: curvature_at(vals)[0]["C"], values)
        per_point.append(arrays)
        kappas.append(kappa)
    return PointBatch({name: np.stack([p[name] for p in per_point])
                       for name in per_point[0]}, np.array(kappas))


def check_values(kind: str, indices: Sequence[int], batch: PointBatch,
                 tables: Dict[str, np.ndarray]) -> np.ndarray:
    """One published-table entry (kind, 1-based indices) at every point of
    the batch.  tables holds each kind's table over the batch, filled on
    first use, so that a product is formed once per kind."""
    if kind not in tables:
        op, *names = kind.split(":")
        if kind == "kappa":
            tables[kind] = batch.kappa
        elif op == "tensor":
            tables[kind] = batch.arrays[names[0]]
        elif op in _PRODUCTS:
            tables[kind] = _PRODUCTS[op](batch, *names)
        else:
            raise ClassifyError(f"unknown check kind '{kind}'")
    return tables[kind][(slice(None), *(i - 1 for i in indices))]


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
    batch = evaluate_plan(bundle, plan)
    values, memo = dict(plan.binding(), Lambda=lam), {}
    allowed = set(spec.coords) | set(spec.params) | {"Lambda"}
    results = []
    tables: Dict[str, np.ndarray] = {}
    fd_batch = None
    fd_tables: Dict[str, np.ndarray] = {}
    for chk in checks:
        engine = check_values(chk["kind"], chk["indices"], batch, tables)
        ref = np.broadcast_to(ec.eval_float(
            ec.parse_expr(chk["expr"], allowed), values, memo), engine.shape)
        pi = _first_miss(engine, ref, rel_tol)
        entry = {"group": chk["group"], "kind": chk["kind"],
                 "indices": list(chk["indices"]),
                 "status": "match" if pi is None else "mismatch"}
        if pi is not None:
            entry["point_index"] = pi
            if np.isfinite(ref[pi]):
                entry.update(engine=float(engine[pi]),
                             reference=float(ref[pi]))
            else:
                entry["reason"] = "reference value not evaluable"
            # confirm the engine value independently at two points
            if fd_batch is None:
                fd_batch = _fd_curvature(spec, [
                    dict(pt, **plan.params) for pt in plan.points[:2]], lam)
            fd_values = check_values(chk["kind"], chk["indices"], fd_batch,
                                     fd_tables)
            eng = engine[:2]
            rel = np.abs(eng - fd_values) / (1.0 + np.abs(eng)
                                             + np.abs(fd_values))
            entry["engine_confirmed_by_finite_differences"] = \
                not (rel > 5e-5).any()
            entry["finite_difference_rel_err"] = max(0.0, *rel.tolist())
        results.append(entry)
    matched = sum(1 for r in results if r["status"] == "match")
    return {"metric": spec.id, "seed": seed, "total": len(results),
            "matched": matched, "match_fraction": matched / len(results),
            "checks": results}
