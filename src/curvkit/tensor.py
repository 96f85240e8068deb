"""Dense component tensors, metric inversion, and the two product
constructions (Kulkarni-Nomizu wedge; curvature action D.eta and the
Tachibana tensor Q(lambda, eta)).

Tensors are stored dense as numpy arrays: dtype=object holding Expr in
symbolic mode, float64 in evaluated mode.  Each product has one
implementation, written as array arithmetic (broadcasting and einsum) that
numpy carries out with Expr operators on object arrays and in floating
point on float arrays; the test suite checks it against brute-force
index-loop oracles.  The products also take stacks of evaluated tensors
(leading axes before the slots, such as one axis over sample points) and
give, stack entry by stack entry, the same floats as one call per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exprcore as ec
from .exprcore import Expr


class TensorError(Exception):
    pass


class ComponentTensor:
    """Dense (0,k) tensor over dimension n: the last k axes of data are the
    tensor's slots; leading axes, if any, index a stack of such tensors."""

    __slots__ = ("data", "valence", "dim")

    def __init__(self, data, valence: int, dim: int):
        arr = np.asarray(data)
        if (arr.ndim < valence
                or arr.shape[arr.ndim - valence:] != (dim,) * valence):
            raise TensorError(
                f"shape {arr.shape} does not match valence {valence}, "
                f"dimension {dim}")
        self.data = arr
        self.valence = valence
        self.dim = dim

    @property
    def symbolic(self) -> bool:
        return self.data.dtype == object

    def evaluate(self, values, memo: Optional[dict] = None) -> "ComponentTensor":
        """Evaluated-mode copy under an exprcore.eval_float binding; with
        coordinates bound to arrays over P points, the (P, n, ..., n) stack.
        The memo may be shared by tensors evaluated under one binding."""
        if not self.symbolic:
            return self
        memo = {} if memo is None else memo
        points = max((v.shape for v in values.values()
                      if isinstance(v, np.ndarray)), default=())
        # x * 1.0 is x to the bit; it gives each entry the points' shape
        ones = np.ones(points) if points else 1.0
        entry = np.frompyfunc(
            lambda e: ec.eval_float(e, values, memo) * ones, 1, 1)
        out = np.array(entry(self.data).ravel().tolist())  # (N, P) or (N,)
        return ComponentTensor(out.T.reshape(points + self.data.shape),
                               self.valence, self.dim)


@dataclass(frozen=True)
class MetricData:
    """Metric with its exact symbolic inverse and determinant."""

    g: ComponentTensor            # (0,2) symmetric
    g_inv: np.ndarray             # (n,n) object array of Expr
    det: Expr

    @property
    def dim(self) -> int:
        return self.g.dim


def _minor(rows: list, i: int, j: int) -> list:
    """rows without row i and column j."""
    return [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]


def _det(rows: list) -> Expr:
    """Determinant of a square list of rows of Expr, by cofactor expansion
    along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = ec.ZERO
    for j, a in enumerate(rows[0]):
        if a.is_zero():
            continue
        term = ec.mul(a, _det(_minor(rows, 0, j)))
        total = total + term if j % 2 == 0 else total - term
    return total


def invert_metric(g: ComponentTensor) -> MetricData:
    """Exact symbolic inverse via the adjugate.  Only a structurally zero
    determinant is rejected here; a metric file's g is checked numerically
    for singularity when it is loaded (catalog.parse_metric_source)."""
    if g.valence != 2:
        raise TensorError("metric must be a (0,2) tensor")
    n = g.dim
    rows = g.data.tolist()
    for i in range(n):
        for j in range(n):
            if rows[i][j] is not rows[j][i]:
                raise TensorError("metric must be symmetric")
    det = _det(rows)
    if det.is_zero():
        raise TensorError("metric is symbolically singular")
    inv = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            cof = _det(_minor(rows, j, i))
            if (i + j) % 2 == 1:
                cof = ec.neg(cof)
            inv[i, j] = ec.div(cof, det)
    return MetricData(g=g, g_inv=inv, det=det)


def _require_same_mode(*tensors):
    if len({t.symbolic for t in tensors}) != 1:
        raise TensorError("cannot mix symbolic and evaluated tensors")


# einsum letters for the slots of eta besides the one a product acts on; the
# stack axes are the einsum ellipsis
_REST = "defgh"


def kulkarni_nomizu(tau: ComponentTensor, lam: ComponentTensor) -> ComponentTensor:
    """(tau ^ lam)(z1,z2,X,Y) = tau(z1,Y)lam(z2,X) - tau(z1,X)lam(z2,Y)
    + tau(z2,X)lam(z1,Y) - tau(z2,Y)lam(z1,X)."""
    if tau.valence != 2 or lam.valence != 2 or tau.dim != lam.dim:
        raise TensorError("wedge product needs two (0,2) tensors of equal "
                          "dimension")
    _require_same_mode(tau, lam)

    def slots(m):
        # m[z1,X], m[z1,Y], m[z2,X], m[z2,Y] broadcast over (z1, z2, X, Y)
        return (m[..., :, None, :, None], m[..., :, None, None, :],
                m[..., None, :, :, None], m[..., None, :, None, :])

    a1x, a1y, a2x, a2y = slots(tau.data)
    b1x, b1y, b2x, b2y = slots(lam.data)
    out = a1y * b2x - a1x * b2y + a2x * b1y - a2y * b1x
    return ComponentTensor(out, 4, tau.dim)


def dot_action(D: ComponentTensor, eta: ComponentTensor,
               g_inv: np.ndarray) -> ComponentTensor:
    """(D.eta)_{i1..il a b} = -g^{uv} sum_s D_{a b i_s v} eta_{i1.. u ..il}.

    The two appended slots (a, b) come last; the result is antisymmetric in
    them when D has the Riemann antisymmetries.
    """
    if eta.valence < 1:
        raise TensorError("eta must have valence >= 1")
    if D.valence != 4 or D.dim != eta.dim:
        raise TensorError("D must be a (0,4) tensor of matching dimension")
    n = D.dim
    l = eta.valence
    _require_same_mode(D, eta, ComponentTensor(g_inv, 2, n))
    # contract the last slot of D with g^{uv} once
    Dg = np.einsum("...abcv,...uv->...abcu", D.data, g_inv)
    rest = _REST[:l - 1]
    out = np.zeros(eta.data.shape + (n, n), dtype=eta.data.dtype)
    for s in range(l):
        eta_m = np.moveaxis(eta.data, s - l, -l)
        term = np.einsum(f"...abcu,...u{rest}->...{rest}cab", Dg, eta_m)
        out -= np.moveaxis(term, -3, s - l - 2)
    return ComponentTensor(out, l + 2, n)


def tachibana(lam: ComponentTensor, eta: ComponentTensor) -> ComponentTensor:
    """Q(lam,eta)_{i1..il a b} =
    sum_s [lam_{i_s a} eta(..b at s..) - lam_{i_s b} eta(..a at s..)].

    This is the lowered form of ((X wedge_lam Y).eta) with the appended
    slots (a, b) = (X, Y); it is antisymmetric in (a, b).
    """
    if lam.valence != 2 or lam.dim != eta.dim:
        raise TensorError("lam must be a (0,2) tensor of matching dimension")
    if eta.valence < 1:
        raise TensorError("eta must have valence >= 1")
    n = lam.dim
    l = eta.valence
    _require_same_mode(lam, eta)
    rest = _REST[:l - 1]
    out = np.zeros(eta.data.shape + (n, n), dtype=eta.data.dtype)
    for s in range(l):
        eta_m = np.moveaxis(eta.data, s - l, -l)
        t1 = np.einsum(f"...ca,...b{rest}->...{rest}cab", lam.data, eta_m)
        t2 = np.einsum(f"...cb,...a{rest}->...{rest}cab", lam.data, eta_m)
        out += np.moveaxis(t1 - t2, -3, s - l - 2)
    return ComponentTensor(out, l + 2, n)
