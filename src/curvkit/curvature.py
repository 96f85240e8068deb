"""Curvature pipeline: Christoffel symbols, Riemann tensor, the Ricci
family, the derived curvatures (conformal C, projective P, concircular W,
conharmonic K), covariant derivatives, and the energy-momentum tensor.

Sign conventions: R^h_ijk = d_j Gamma^h_ik - d_k Gamma^h_ij + Gamma Gamma
terms, lowered on the first slot, and S_ij = g^{hk} R_{hijk}.  With these
choices a static spherically symmetric metric with signature (-,+,+,+)
reproduces the component tables used by the regression suite.

Each layer is an array formula (einsum, @, transposes) over `partials`, the
one caller of `differentiate`.  Sums are canonical in any order or grouping;
products are not, so each formula keeps the grouping of its index sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from . import exprcore as ec
from . import tensor as tn
from .exprcore import Expr
from .tensor import ComponentTensor, MetricData


def partials(a: np.ndarray, coords: Sequence[str]) -> np.ndarray:
    """out[..., k] = d_k a[...]: every entry differentiated by every
    coordinate, with the derivative index appended last."""
    diff = np.frompyfunc(ec.differentiate, 2, 1)
    return diff(a[..., None], np.array(coords, dtype=object))


def christoffel(metric: MetricData, coords: Sequence[str]) -> np.ndarray:
    """Second-kind Christoffel symbols Gamma^h_ij, symmetric in (i, j)."""
    dg = partials(metric.g.data, coords)  # dg[i,j,k] = d_k g_ij
    # A_ijk = d_i g_jk + d_j g_ik - d_k g_ij; g^-1 multiplies the whole
    # bracket and 1/2 the contraction, the grouping that fixes each node
    A = dg.transpose(2, 0, 1) + dg.transpose(0, 2, 1) - dg
    return np.einsum("hk,ijk->hij", metric.g_inv, A) * Fraction(1, 2)


def riemann(gamma: np.ndarray, metric: MetricData,
            coords: Sequence[str]) -> ComponentTensor:
    """Lowered Riemann tensor R_{hijk} with full Riemann symmetries."""
    dgamma = partials(gamma, coords)  # d_k Gamma^h_ij
    rup = (dgamma.swapaxes(2, 3) - dgamma
           + np.einsum("hjl,lik->hijk", gamma, gamma)
           - np.einsum("hkl,lij->hijk", gamma, gamma))
    low = np.einsum("hl,lijk->hijk", metric.g.data, rup)
    return ComponentTensor(low, 4, metric.dim)


def ricci_family(R: ComponentTensor, metric: MetricData):
    """Ricci tensor S, scalar curvature, and S^2 = S J with the Ricci
    operator J."""
    n = metric.dim
    ginv = metric.g_inv
    S = np.einsum("hk,hijk->ij", ginv, R.data)
    kappa = np.einsum("ij,ij->", ginv, S)
    S2 = S @ (ginv @ S)  # J^i_j = g^ik S_kj
    return ComponentTensor(S, 2, n), kappa, ComponentTensor(S2, 2, n)


def derived_curvatures(R: ComponentTensor, S: ComponentTensor, kappa,
                       g: ComponentTensor, lam=0):
    """Conformal C, projective P, concircular W, conharmonic K, and the
    energy-momentum tensor T = S - (kappa/2) g + Lambda g (geometric units
    with the coupling constant set to 1).

    Symbolic (kappa and lam Expr or rational) and evaluated (floats)
    tensors go through the same array formulas."""
    n = g.dim
    if n < 3:
        raise tn.TensorError("derived curvatures need dimension >= 3")
    gg = tn.kulkarni_nomizu(g, g).data
    gS = tn.kulkarni_nomizu(g, S).data
    r, s, m = R.data, S.data, g.data
    K = r + gS / (2 - n)             # R - (g^S)/(n-2)
    C = K + gg * (kappa / (2 * (n - 1) * (n - 2)))
    W = r + gg * (-kappa / (2 * n * (n - 1)))
    # P_hijk = R_hijk + (S_hj g_ik - S_ij g_hk) / (n - 1)
    P = r + (s[:, None, :, None] * m[None, :, None, :]
             - s[None, :, :, None] * m[:, None, None, :]) / (n - 1)
    T = s + m * (lam - kappa / 2)
    return (ComponentTensor(C, 4, n), ComponentTensor(P, 4, n),
            ComponentTensor(W, 4, n), ComponentTensor(K, 4, n),
            ComponentTensor(T, 2, n))


def covariant_derivative(T: ComponentTensor, gamma: np.ndarray,
                         coords: Sequence[str]) -> ComponentTensor:
    """(0,k+1) tensor with the derivative index appended last:
    out[a..., f] = d_f T_{a...} - sum over slots of Gamma contraction.

    Each entry collects its terms first, d_f T and every -(T_{..u..}
    Gamma^u_fc) built as neg(mul(T, Gamma)), and is summed by one `add`:
    a sum is the same node in any order or grouping, so this equals
    subtracting the terms one at a time, without re-collecting the growing
    sum at every step.  Zero Gamma and T entries give no term."""
    k = T.valence
    terms = np.frompyfunc(lambda d: [d], 1, 1)(partials(T.data, coords))
    for (u, f, c), gterm in np.ndenumerate(gamma):
        if gterm.is_zero():
            continue
        for s in range(k):
            pre = (slice(None),) * s
            post = (slice(None),) * (k - 1 - s)
            # slices of length one keep both sides arrays, also for k = 1
            dst = terms[pre + (slice(c, c + 1),) + post + (slice(f, f + 1),)]
            src = T.data[pre + (slice(u, u + 1),) + post]
            for acc, t in zip(dst.flat, src.flat):
                if not t.is_zero():
                    acc.append(ec.neg(ec.mul(t, gterm)))
    out = np.frompyfunc(lambda ts: ec.add(*ts), 1, 1)(terms)
    return ComponentTensor(out, k + 1, T.dim)


# the names CurvatureBundle.tensor accepts
TENSORS = ("g", "R", "S", "S2", "C", "P", "W", "K", "T",
           "nabla_R", "nabla_C", "nabla_S")


@dataclass
class CurvatureBundle:
    """Everything the classifier consumes, fully symbolic."""

    metric: MetricData
    coords: List[str]
    gamma: np.ndarray
    R: ComponentTensor
    S: ComponentTensor
    kappa: Expr
    S2: ComponentTensor
    C: ComponentTensor
    P: ComponentTensor
    W: ComponentTensor
    K: ComponentTensor
    nabla_R: ComponentTensor
    nabla_C: ComponentTensor
    nabla_S: ComponentTensor
    T: ComponentTensor

    def tensor(self, name: str) -> ComponentTensor:
        if name not in TENSORS:
            raise KeyError(f"unknown tensor '{name}' (choose from "
                           f"{sorted(TENSORS)})")
        return self.metric.g if name == "g" else getattr(self, name)


def build_bundle(metric: MetricData, coords: Sequence[str],
                 lam=0) -> CurvatureBundle:
    gamma = christoffel(metric, coords)
    R = riemann(gamma, metric, coords)
    S, kappa, S2 = ricci_family(R, metric)
    lam_e = lam if isinstance(lam, Expr) else ec.const(Fraction(lam))
    C, P, W, K, T = derived_curvatures(R, S, kappa, metric.g, lam_e)
    nabla_R = covariant_derivative(R, gamma, coords)
    nabla_C = covariant_derivative(C, gamma, coords)
    nabla_S = covariant_derivative(S, gamma, coords)
    return CurvatureBundle(metric=metric, coords=list(coords), gamma=gamma,
                           R=R, S=S, kappa=kappa, S2=S2, C=C, P=P, W=W,
                           K=K, nabla_R=nabla_R, nabla_C=nabla_C,
                           nabla_S=nabla_S, T=T)
