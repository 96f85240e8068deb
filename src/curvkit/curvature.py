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

Each derived tensor has one formula of its own inputs (K of R and g^S, C
of K and g^g, W of R and g^g, P of R, S and g, T of S, kappa and g), and
derived_curvatures composes the five.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

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


def _dim(t: ComponentTensor) -> int:
    if t.dim < 3:
        raise tn.TensorError("derived curvatures need dimension >= 3")
    return t.dim


def conharmonic(R: ComponentTensor, gS: ComponentTensor) -> ComponentTensor:
    """K = R - (g ^ S)/(n - 2), from R and the wedge gS = g ^ S."""
    n = _dim(R)
    return ComponentTensor(R.data + gS.data / (2 - n), 4, n)


def conformal(K: ComponentTensor, gg: ComponentTensor,
              kappa) -> ComponentTensor:
    """Weyl's C = K + kappa/(2(n-1)(n-2)) g ^ g, from K and gg = g ^ g."""
    n = _dim(K)
    return ComponentTensor(
        K.data + gg.data * (kappa / (2 * (n - 1) * (n - 2))), 4, n)


def concircular(R: ComponentTensor, gg: ComponentTensor,
                kappa) -> ComponentTensor:
    """W = R - kappa/(2n(n-1)) g ^ g, from R and gg = g ^ g."""
    n = _dim(R)
    return ComponentTensor(
        R.data + gg.data * (-kappa / (2 * n * (n - 1))), 4, n)


def projective(R: ComponentTensor, S: ComponentTensor,
               g: ComponentTensor) -> ComponentTensor:
    """P_hijk = R_hijk + (S_hj g_ik - S_ij g_hk) / (n - 1)."""
    n = _dim(R)
    s, m = S.data, g.data
    return ComponentTensor(
        R.data + (s[:, None, :, None] * m[None, :, None, :]
                  - s[None, :, :, None] * m[:, None, None, :]) / (n - 1),
        4, n)


def energy_momentum(S: ComponentTensor, kappa, g: ComponentTensor,
                    lam) -> ComponentTensor:
    """T = S - (kappa/2) g + Lambda g (geometric units with the coupling
    constant set to 1)."""
    return ComponentTensor(S.data + g.data * (lam - kappa / 2), 2, g.dim)


def derived_curvatures(R: ComponentTensor, S: ComponentTensor, kappa,
                       g: ComponentTensor, lam=0):
    """(C, P, W, K, T), composed from the per-tensor formulas above.

    Symbolic (kappa and lam Expr or rational) and evaluated (floats)
    tensors go through the same array formulas."""
    gg = tn.kulkarni_nomizu(g, g)
    K = conharmonic(R, tn.kulkarni_nomizu(g, S))
    return (conformal(K, gg, kappa), projective(R, S, g),
            concircular(R, gg, kappa), K, energy_momentum(S, kappa, g, lam))


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


class CurvatureBundle:
    """Everything the classifier consumes, fully symbolic.  Each tensor is
    built on first access from only the layers it depends on, and kept."""

    def __init__(self, metric: MetricData, coords: Sequence[str], lam=0):
        self.metric = metric
        self.coords = list(coords)
        self.lam = lam if isinstance(lam, Expr) else ec.const(Fraction(lam))

    @cached_property
    def gamma(self) -> np.ndarray:
        return christoffel(self.metric, self.coords)

    @cached_property
    def R(self) -> ComponentTensor:
        return riemann(self.gamma, self.metric, self.coords)

    @cached_property
    def ricci_family(self):
        return ricci_family(self.R, self.metric)

    S = property(lambda self: self.ricci_family[0])
    kappa = property(lambda self: self.ricci_family[1])
    S2 = property(lambda self: self.ricci_family[2])

    # each derived tensor from its own inputs; g^g and g^S are shared
    g_wedge_g = cached_property(
        lambda self: tn.kulkarni_nomizu(self.metric.g, self.metric.g))
    g_wedge_S = cached_property(
        lambda self: tn.kulkarni_nomizu(self.metric.g, self.S))
    K = cached_property(lambda self: conharmonic(self.R, self.g_wedge_S))
    C = cached_property(
        lambda self: conformal(self.K, self.g_wedge_g, self.kappa))
    W = cached_property(
        lambda self: concircular(self.R, self.g_wedge_g, self.kappa))
    P = cached_property(
        lambda self: projective(self.R, self.S, self.metric.g))
    T = cached_property(lambda self: energy_momentum(
        self.S, self.kappa, self.metric.g, self.lam))

    @cached_property
    def nabla_R(self) -> ComponentTensor:
        return covariant_derivative(self.R, self.gamma, self.coords)

    @cached_property
    def nabla_C(self) -> ComponentTensor:
        return covariant_derivative(self.C, self.gamma, self.coords)

    @cached_property
    def nabla_S(self) -> ComponentTensor:
        return covariant_derivative(self.S, self.gamma, self.coords)

    def tensor(self, name: str) -> ComponentTensor:
        if name not in TENSORS:
            raise KeyError(f"unknown tensor '{name}' (choose from "
                           f"{sorted(TENSORS)})")
        return self.metric.g if name == "g" else getattr(self, name)


def build_bundle(metric: MetricData, coords: Sequence[str],
                 lam=0) -> CurvatureBundle:
    """The bundle with every tensor built, in the order of the layers."""
    bundle = CurvatureBundle(metric, coords, lam)
    for name in TENSORS:
        bundle.tensor(name)
    return bundle
