"""Curvature pipeline: Christoffel symbols, Riemann tensor, the Ricci
family, the derived curvatures (conformal C, projective P, concircular W,
conharmonic K), covariant derivatives, and the energy-momentum tensor.

Sign conventions: R^h_ijk = d_j Gamma^h_ik - d_k Gamma^h_ij + Gamma Gamma
terms, lowered on the first slot, and S_ij = g^{hk} R_{hijk}.  With these
choices a static spherically symmetric metric with signature (-,+,+,+)
reproduces the component tables used by the regression suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from . import exprcore as ec
from . import tensor as tn
from .exprcore import Expr
from .tensor import ComponentTensor, MetricData


def christoffel(metric: MetricData, coords: Sequence[str]) -> np.ndarray:
    """Second-kind Christoffel symbols Gamma^h_ij, symmetric in (i, j)."""
    n = metric.dim
    g = metric.g.data
    ginv = metric.g_inv
    dg = np.empty((n, n, n), dtype=object)  # dg[i,j,k] = d_k g_ij
    for i, j in itertools.product(range(n), repeat=2):
        for k in range(n):
            dg[i, j, k] = ec.differentiate(g[i, j], coords[k])
    gamma = np.empty((n, n, n), dtype=object)
    half = ec.const(Fraction(1, 2))
    for h in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = ec.ZERO
                for k in range(n):
                    acc = acc + ginv[h, k] * (dg[j, k, i] + dg[i, k, j]
                                              - dg[i, j, k])
                gamma[h, i, j] = half * acc
                gamma[h, j, i] = gamma[h, i, j]
    return gamma


def riemann(gamma: np.ndarray, metric: MetricData,
            coords: Sequence[str]) -> ComponentTensor:
    """Lowered Riemann tensor R_{hijk} with full Riemann symmetries."""
    n = metric.dim
    rup = np.empty((n, n, n, n), dtype=object)
    dgamma = np.empty((n, n, n, n), dtype=object)  # d_k Gamma^h_ij
    for h, i, j, k in itertools.product(range(n), repeat=4):
        dgamma[h, i, j, k] = ec.differentiate(gamma[h, i, j], coords[k])
    for h, i, j, k in itertools.product(range(n), repeat=4):
        acc = dgamma[h, i, k, j] - dgamma[h, i, j, k]
        for l in range(n):
            acc = acc + gamma[h, j, l] * gamma[l, i, k] \
                      - gamma[h, k, l] * gamma[l, i, j]
        rup[h, i, j, k] = acc
    g = metric.g.data
    low = np.empty((n, n, n, n), dtype=object)
    for h, i, j, k in itertools.product(range(n), repeat=4):
        acc = ec.ZERO
        for l in range(n):
            acc = acc + g[h, l] * rup[l, i, j, k]
        low[h, i, j, k] = acc
    return ComponentTensor(low, 4, n)


def ricci_family(R: ComponentTensor, metric: MetricData):
    """Ricci tensor S, scalar curvature, and S^2 = S J with the Ricci
    operator J."""
    n = metric.dim
    ginv = metric.g_inv
    S = np.empty((n, n), dtype=object)
    for i, j in itertools.product(range(n), repeat=2):
        acc = ec.ZERO
        for h, k in itertools.product(range(n), repeat=2):
            if ginv[h, k].is_zero():
                continue
            acc = acc + ginv[h, k] * R.data[h, i, j, k]
        S[i, j] = acc
    kappa = ec.ZERO
    for i, j in itertools.product(range(n), repeat=2):
        if not ginv[i, j].is_zero():
            kappa = kappa + ginv[i, j] * S[i, j]
    J = np.empty((n, n), dtype=object)  # J^i_j
    for i, j in itertools.product(range(n), repeat=2):
        acc = ec.ZERO
        for k in range(n):
            acc = acc + ginv[i, k] * S[k, j]
        J[i, j] = acc
    S2 = np.empty((n, n), dtype=object)
    for i, j in itertools.product(range(n), repeat=2):
        acc = ec.ZERO
        for k in range(n):
            acc = acc + S[i, k] * J[k, j]
        S2[i, j] = acc
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
    out[a..., f] = d_f T_{a...} - sum over slots of Gamma contraction."""
    n = T.dim
    k = T.valence
    out = np.empty((n,) * (k + 1), dtype=object)
    for idx in itertools.product(range(n), repeat=k):
        for f in range(n):
            acc = ec.differentiate(T.data[idx], coords[f])
            for s in range(k):
                for u in range(n):
                    gterm = gamma[u, f, idx[s]]
                    if gterm.is_zero():
                        continue
                    jdx = list(idx)
                    jdx[s] = u
                    acc = acc - gterm * T.data[tuple(jdx)]
            out[idx + (f,)] = acc
    return ComponentTensor(out, k + 1, n)


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
    lam: object = 0

    def tensor(self, name: str) -> ComponentTensor:
        by_name = {
            "g": self.metric.g, "R": self.R, "S": self.S, "S2": self.S2,
            "C": self.C, "P": self.P, "W": self.W, "K": self.K,
            "T": self.T, "nabla_R": self.nabla_R,
            "nabla_C": self.nabla_C, "nabla_S": self.nabla_S,
        }
        if name not in by_name:
            raise KeyError(f"unknown tensor '{name}' (choose from "
                           f"{sorted(by_name)})")
        return by_name[name]


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
                           nabla_S=nabla_S, T=T, lam=lam)
