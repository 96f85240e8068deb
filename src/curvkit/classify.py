"""Structure classification by per-point least squares.

Every geometric structure is decided numerically: the symbolic curvature
bundle is evaluated at a deterministic plan of sample points, the linear
relation defining the structure is fitted pointwise (scalar coefficients or
1-form components as unknowns), and the verdict is

    holds       residual <= tol at every non-degenerate point,
    fails       residual > tol at some non-degenerate point,
    degenerate  the defining basis vanishes or is rank-deficient everywhere.

A fit is stacked over the points: one design with the unknowns on its last
axis (one builder, _design, serves every 1-form relation), one svd call for
all points, and lstsq point by point.  A value in a fit that is not finite
is an error, never a verdict.

Fitted coefficients are additionally compared against known closed forms
where available; mismatches are logged as discrepancies, never silently
dropped.
"""

from __future__ import annotations

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
VERIFY_POINTS = 8


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
    """The first count regular points (MetricSpec.regular_points), with
    |g00| at least METRIC_REGULARITY_FLOOR to keep away from horizons,
    where components blow up."""
    if count < 4:
        raise ClassifyError("a sample plan needs at least 4 points")
    bound = spec.bind(params)
    points, tally = spec.regular_points(spec.coords, bound, count, seed,
                                        METRIC_REGULARITY_FLOOR)
    if len(points) < count:
        raise ClassifyError(
            f"could not find enough regular sample points: "
            f"{tally.sum()} candidates drawn, {tally[0]} not finite "
            f"(a domain error or an overflow), {tally[1]} with a "
            f"singular det, {tally[2]} with |g00| below "
            f"{METRIC_REGULARITY_FLOOR}")
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
    # singular values of a tensor's cyclic design (P, k), by tensor name:
    # form recurrence and the Venzi nullspaces share them
    cyclic_sv: Dict[str, np.ndarray] = field(default_factory=dict)
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
# fitting primitives: each point's system is A c ~ b with the unknowns on
# the last axis of the design; one stacked svd serves every point

def _require_finite(relation: str, *arrays: np.ndarray):
    """A verdict must not rest on an overflow or a NaN: ClassifyError at the
    first point where an array has an entry that is not finite.  Per-point
    min and max find one without a temporary the size of the array."""
    ok = np.ones(len(arrays[0]), dtype=bool)
    for a in arrays:
        axes = tuple(range(1, a.ndim))
        ok &= np.isfinite(a.min(axis=axes)) & np.isfinite(a.max(axis=axes))
    if not ok.all():
        raise ClassifyError(f"cannot decide {relation}: not finite (an "
                            f"overflow or a NaN) at sample point "
                            f"{np.argmin(ok)}")


def _svd(relation: str, a: np.ndarray) -> np.ndarray:
    """Singular values of every point's matrix, one stacked call."""
    _require_finite(relation, a)
    return np.linalg.svd(a, compute_uv=False)


def _conditioned(sv: np.ndarray) -> np.ndarray:
    """Points whose Gram matrix A^T A is well enough conditioned to fit."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (sv[:, -1] > 0) & ((sv[:, 0] / sv[:, -1]) ** 2
                                  <= GRAM_CONDITION_LIMIT)


def _nullity(sv: np.ndarray) -> np.ndarray:
    """Dimension of each point's numerical nullspace; -1 where the map
    itself vanishes."""
    return np.where(sv[:, 0] == 0.0, -1,
                    (sv < NULLSPACE_CUTOFF * sv[:, :1]).sum(axis=1))


def _system(relation: str, target: np.ndarray, design: np.ndarray):
    """Each point's system: A (P, m, k), b (P, m) and A's singular values."""
    P = len(target)
    A, b = design.reshape(P, -1, design.shape[-1]), target.reshape(P, -1)
    _require_finite(relation, b)
    return A, b, _svd(relation, A)


def _lstsq(A: np.ndarray, b: np.ndarray, live: np.ndarray):
    """Coefficients (P, k) and residuals (P,) of the least-squares fit at
    the live points, zero elsewhere.  lstsq runs point by point: a batched
    solve differs from it in the last bits."""
    coefs, resid = np.zeros((len(A), A.shape[-1])), np.zeros(len(A))
    for i in np.flatnonzero(live):
        coefs[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
        resid[i] = (np.abs(b[i] - A[i] @ coefs[i]).max()
                    / (1.0 + np.abs(b[i]).max()))
    return coefs, resid


def _assemble(relation: str, coefs: np.ndarray, resid: np.ndarray,
              degenerate: np.ndarray, tol: float) -> CoefficientFit:
    """One verdict from the per-point coefficients (P, k), residuals (P,)
    and degenerate mask."""
    _require_finite(relation, resid)
    fit = CoefficientFit(relation=relation, verdict="degenerate",
                         degenerate_points=np.flatnonzero(degenerate).tolist())
    fit.coefficients = [None if d else c
                        for c, d in zip(coefs.tolist(), degenerate)]
    fit.residuals = [None if d else r
                     for r, d in zip(resid.tolist(), degenerate)]
    if degenerate.all():
        return fit
    worst = int(np.argmax(np.where(degenerate, -1.0, resid)))
    fit.residual = fit.residuals[worst]
    if fit.residual <= tol:
        fit.verdict = "holds"
    else:
        fit.verdict = "fails"
        fit.witness = {"point_index": worst, "residual": fit.residual}
    return fit


def _fit(relation: str, target: np.ndarray, design: np.ndarray,
         tol: float) -> CoefficientFit:
    """target ~ design @ c with c fitted at each point; degenerate where
    the design vanishes or is ill conditioned."""
    A, b, sv = _system(relation, target, design)
    live = _conditioned(sv)
    return _assemble(relation, *_lstsq(A, b, live), ~live, tol)


def fit_scalar_relation(relation: str, target: np.ndarray,
                        columns: Sequence[np.ndarray],
                        tol: float) -> CoefficientFit:
    """target ~ sum_k c_k columns[k] with scalar c_k fitted at each point;
    the arrays' leading axis is the point."""
    return _fit(relation, target, np.stack(columns, axis=-1), tol)


def direct_test(relation: str, deviation: np.ndarray, scale: np.ndarray,
                tol: float) -> CoefficientFit:
    """Equality test: deviation must vanish relative to a natural scale,
    one entry of scale per point."""
    dev = _amax(deviation)
    _require_finite(relation, dev, scale)
    return _assemble(relation, np.zeros((len(dev), 0)), dev / (1.0 + scale),
                     (scale <= tol) & (dev <= tol), tol)


def _design(forms) -> np.ndarray:
    """Design of a relation linear in unknown 1-forms, one form per 1-form:
    (P, n, ..., n, k) with component u of form f at column f*n + u.  A form
    is a list of terms (w, D, s), each adding w A_u D with A's index in
    slot s and the (P, n, ..., n) tensor D over the other slots in order.
    A lone term is copied (a signed zero keeps its sign); several terms
    are summed from zero in order."""
    D0 = forms[0][0][1]
    P, n = D0.shape[0], D0.shape[-1]
    out = np.zeros((P,) + (n,) * D0.ndim + (n * len(forms),))
    for f, terms in enumerate(forms):
        for u in range(n):
            for w, D, s in terms:
                at = out[(slice(None),) * (s + 1) + (u, ..., f * n + u)]
                at[...] = w * D if len(terms) == 1 else at + w * D
    return out


def _cyclic_design(D: np.ndarray) -> np.ndarray:
    """out[a,b,c,x,y] = A_a D[b,c,x,y] + A_b D[c,a,x,y] + A_c D[a,b,x,y]."""
    return _design([[(1, D, 0), (1, _permute(D, (1, 0, 2, 3)), 1),
                     (1, D, 2)]])


def _cyc5(nab: np.ndarray) -> np.ndarray:
    """Cyclic sum over (derivative slot, first two slots) of a (0,5) tensor
    stored derivative-last: out[a,b,c,x,y] = nab[b,c,x,y,a] + cyclic."""
    X = _permute(nab, (4, 0, 1, 2, 3))
    return X + _permute(X, (1, 2, 0, 3, 4)) + _permute(X, (2, 0, 1, 3, 4))


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
    n, P = batch.n, len(batch.kappa)
    g, S = batch.arrays["g"], batch.arrays["S"]
    # S = 0 satisfies S = (kappa/n) g with kappa = 0, so Ricci-flat space
    # is (trivially) Einstein rather than degenerate
    dev = _amax(S - (batch.kappa / n)[:, None, None] * g)
    report.add(_assemble("einstein", np.zeros((P, 0)), dev / (1.0 + _amax(S)),
                         np.zeros(P, dtype=bool), tol))

    # quasi-Einstein family: minimal rank of S - alpha g over the real
    # eigenvalues alpha of the Ricci operator; -1 where S itself vanishes
    _require_finite("quasi_einstein", batch.J)
    evals = np.linalg.eigvals(batch.J)
    scale = np.maximum(np.abs(evals).max(axis=1), 1e-30)
    sv = _svd("quasi_einstein",
              S[:, None] - evals.real[..., None, None] * g[:, None])
    rank = (sv > RANK_CUTOFF * np.maximum(sv[..., :1], 1e-30)).sum(axis=-1)
    real = np.abs(evals.imag) <= 1e-8 * scale[:, None]
    live = _amax(S) > tol
    min_rank = np.where(live, np.where(real, rank, n).min(axis=1), -1)
    for target_rank, name in enumerate(("quasi_einstein", "two_quasi_einstein",
                                        "three_quasi_einstein"), start=1):
        fit = CoefficientFit(relation=name, verdict="degenerate",
                             degenerate_points=np.flatnonzero(~live).tolist())
        off = np.flatnonzero(live & (min_rank != target_rank))
        if live.any():
            fit.verdict = "fails" if off.size else "holds"
        if off.size:
            fit.witness = {"point_index": int(off[0]),
                           "rank": int(min_rank[off[0]])}
        fit.extra["min_rank_per_point"] = min_rank.tolist()
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
    # nabla R = sum over the bases of A (x) basis, derivative slot last
    R, nabla_R = batch.arrays["R"], batch.arrays["nabla_R"]
    gg, gS = _wedge(batch, "g", "g"), _wedge(batch, "g", "S")
    Sg, SS = _wedge(batch, "S", "g"), _wedge(batch, "S", "S")
    for name, bases in (("recurrent", [R]),
                        ("weakly_generalized_recurrent", [R, SS]),
                        ("hyper_generalized_recurrent", [R, Sg]),
                        ("super_generalized_recurrent", [R, gg, Sg, SS]),
                        ("special_metric_ricci_wedge_recurrent", [gS])):
        report.add(_fit(name, nabla_R,
                        _design([[(1, b, 4)] for b in bases]), tol))


def classify_form_recurrence(batch: PointBatch, tol: float,
                             report: StructureReport):
    for name, dkey, nkey in (("riemann_two_forms_recurrent", "R", "nabla_R"),
                             ("conformal_two_forms_recurrent", "C",
                              "nabla_C")):
        D, nab = batch.arrays[dkey], batch.arrays[nkey]
        lhs = _cyc5(nab)
        A, b, sv = _system(name, lhs, _cyclic_design(D))
        batch.cyclic_sv[dkey] = sv
        vanishing = _amax(D) <= tol
        # where the cyclic sum vanishes identically, recurrence requires a
        # nonzero 1-form annihilating the cyclic map
        trivial = ~vanishing & (_amax(lhs) <= tol * (1.0 + _amax(nab)))
        live = ~vanishing & ~trivial & _conditioned(sv)
        coefs, resid = _lstsq(A, b, live)
        resid[trivial] = np.where(_nullity(sv) >= 1, 0.0, 1.0)[trivial]
        fit = _assemble(name, coefs, resid, ~live & ~trivial, tol)
        if trivial.any():
            fit.extra["cyclic_sum_vanishes"] = trivial.tolist()
        report.add(fit)

    # recurrence of the 1-forms attached to the Ricci tensor, in both the
    # two-1-form and single-1-form variants
    S = batch.arrays["S"]
    nab = batch.arrays["nabla_S"]  # nab[i,j,f] = (nabla_f S)_{ij}
    target = _permute(nab, (2, 0, 1)) - _permute(nab, (0, 2, 1))
    report.add(_fit("ricci_one_forms_recurrent", target,
                    _design([[(1, S, 0)], [(-1, S, 1)]]), tol))
    report.add(_fit("ricci_one_forms_recurrent_single", target,
                    _design([[(1, S, 0), (-1, S, 1)]]), tol))


# the Riemann tensor and the Weyl-type tensors built from it, by name
_WEYL_FAMILY = (("riemann", "R"), ("weyl", "C"), ("projective", "P"),
                ("concircular", "W"), ("conharmonic", "K"))


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
    for dname, dkey in _WEYL_FAMILY:
        for sname, op in ops:
            # X[a,x,b,c] = sum_u op^u_a D[u,x,b,c]; the deviation is its
            # cyclic sum over (a, b, c)
            X = np.einsum("...ua,...uxbc->...axbc", op, batch.arrays[dkey])
            cyc = X + _permute(X, (2, 1, 3, 0)) + _permute(X, (3, 1, 0, 2))
            report.add(direct_test(f"{dname}_compatible_{sname}", cyc,
                                   _amax(X), tol))


def classify_symmetry_forms(batch: PointBatch, tol: float,
                            report: StructureReport):
    # nabla_x R_abcd with 1-forms weighting R in the derivative slot (4)
    # and in each curvature slot
    R, nabla_R = batch.arrays["R"], batch.arrays["nabla_R"]
    slots = [(R, 4), (_permute(R, (1, 2, 3, 0)), 0),
             (_permute(R, (0, 2, 3, 1)), 1), (_permute(R, (0, 1, 3, 2)), 2),
             (R, 3)]
    report.add(_fit("weakly_symmetric", nabla_R,
                    _design([[(1, D, s)] for D, s in slots]), tol))
    # a single 1-form, the slot weights doubled against the derivative's
    report.add(_fit("chaki_pseudosymmetric", nabla_R,
                    _design([[(1 if s == 4 else 2, D, s)
                              for D, s in slots]]), tol))
    for dname, dkey in _WEYL_FAMILY:
        if dkey not in batch.cyclic_sv:
            A = _cyclic_design(batch.arrays[dkey])
            batch.cyclic_sv[dkey] = _svd(f"venzi_{dname}", A.reshape(
                len(A), -1, A.shape[-1]))
        report.add(_venzi(f"venzi_{dname}", batch.cyclic_sv[dkey]))


def _venzi(relation: str, sv: np.ndarray) -> CoefficientFit:
    """Venzi: a nonzero 1-form annihilates the cyclic map at every point."""
    dims = _nullity(sv)
    fit = CoefficientFit(relation=relation, verdict=(
        "degenerate" if (dims == -1).all()
        else "holds" if (dims >= 1).all() else "fails"))
    fit.extra["nullspace_dim_per_point"] = dims.tolist()
    return fit


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
                                  forms: Dict[str, List[List[str]]]):
    """Match fitted coefficients to candidate closed forms, to 1e-8 relative.

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
                miss = _first_miss(have, want, 1e-8)
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
    # a product that overflows is reported by the fits' finite checks
    with np.errstate(over="ignore", invalid="ignore"):
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
                  lam: float = 0.0) -> PointBatch:
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
            step = 2e-4 * max(1.0, abs(vals[coords[k]]))
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
                            seed: int = DEFAULT_SEED) -> Dict:
    """Compare published component values against the engine at
    VERIFY_POINTS sample points, to 1e-10 relative; re-verify every
    mismatching engine value with the finite-difference oracle.

    The oracle recomputes only the factor tensors (R, S, kappa and what
    follows from them, nabla_R, nabla_C) from finite differences of the
    metric.  A wedge:, dot: or tach: entry is then formed with the engine's
    own product code, so its confirmation cannot catch an error in a
    product's convention."""
    plan = build_sample_plan(spec, None, VERIFY_POINTS, seed)
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
        pi = _first_miss(engine, ref, 1e-10)
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
