"""Reference implementations that share no code with curvkit.

The algebraic products are direct loops over their definitions, and the
curvature of a metric is built by sympy from its components.  Nothing
here imports curvkit, so agreement with the engine is independent
evidence for the engine's values.

Conventions are the engine's: R^h_ijk = d_j Gamma^h_ik - d_k Gamma^h_ij
+ Gamma Gamma terms, lowered on the first slot; S_ij = g^{hk} R_hijk;
covariant derivatives carry the derivative index last.
"""

import itertools
import re
from functools import cached_property

import numpy as np
import sympy as sp


# ---------------------------------------------------------------------------
# algebraic products, written as direct loops over the definitions

def kn_oracle(tau, lam):
    """Kulkarni-Nomizu product; works on float and on sympy object arrays."""
    n = tau.shape[0]
    out = np.zeros((n,) * 4, dtype=np.result_type(tau, lam))
    for i, j, x, y in itertools.product(range(n), repeat=4):
        out[i, j, x, y] = (tau[i, y] * lam[j, x] - tau[i, x] * lam[j, y]
                           + tau[j, x] * lam[i, y] - tau[j, y] * lam[i, x])
    return out


def dot_oracle(D, eta, ginv):
    n = D.shape[0]
    l = eta.ndim
    out = np.zeros(eta.shape + (n, n))
    for idx in itertools.product(range(n), repeat=l + 2):
        body, a, b = idx[:l], idx[l], idx[l + 1]
        acc = 0.0
        for s in range(l):
            for u in range(n):
                for v in range(n):
                    jdx = list(body)
                    jdx[s] = u
                    acc += ginv[u, v] * D[a, b, body[s], v] * eta[tuple(jdx)]
        out[idx] = -acc
    return out


def tach_oracle(lam, eta):
    n = lam.shape[0]
    l = eta.ndim
    out = np.zeros(eta.shape + (n, n))
    for idx in itertools.product(range(n), repeat=l + 2):
        body, a, b = idx[:l], idx[l], idx[l + 1]
        acc = 0.0
        for s in range(l):
            jdx = list(body)
            jdx[s] = b
            kdx = list(body)
            kdx[s] = a
            acc += lam[body[s], a] * eta[tuple(jdx)] \
                - lam[body[s], b] * eta[tuple(kdx)]
        out[idx] = acc
    return out


# ---------------------------------------------------------------------------
# printed expressions as sympy expressions

_SYMPY_FUNCTIONS = {"sin": sp.sin, "cos": sp.cos, "tan": sp.tan,
                    "cot": sp.cot, "exp": sp.exp, "log": sp.log,
                    "sqrt": sp.sqrt, "abs": sp.Abs}


def sympy_of(text):
    """The sympy expression of infix text in curvkit's printed syntax:
    `^` for powers, exact rationals, and the functions above.  Every other
    name is a plain symbol, so `e` is a symbol, not Euler's number."""
    local = {name: sp.Symbol(name)
             for name in re.findall(r"[A-Za-z_]\w*", text)}
    local.update(_SYMPY_FUNCTIONS)
    return sp.parse_expr(text.replace("^", "**"), local_dict=local)


# ---------------------------------------------------------------------------
# sympy curvature of a metric

t, r, theta, phi = sp.symbols("t r theta phi")
COORDS = (t, r, theta, phi)
N = 4

# An undefined lapse keeps the symbolic tensors small; the metric's own
# lapse is substituted, with its radial derivatives, only at a point.
f = sp.Function("f")(r)
JET_ORDER = 4          # nabla R and nabla C involve f up to f'''


def static_spherical(lapse):
    """-lapse dt^2 + dr^2/lapse + r^2 dOmega^2."""
    return sp.diag(-lapse, 1 / lapse, r**2, r**2 * sp.sin(theta)**2)


def ingoing(lapse):
    """-lapse dt^2 - 2 dt dr + r^2 dOmega^2."""
    g = sp.diag(-lapse, 0, r**2, r**2 * sp.sin(theta)**2)
    g[0, 1] = g[1, 0] = -1
    return g


def bardeen_lapse():
    M, e = sp.symbols("M e")
    return 1 - 2 * M * r**2 / (e**2 + r**2)**sp.Rational(3, 2)


def reissner_nordstrom_lapse():
    m, q = sp.symbols("m q")
    return 1 - 2 * m / r + q**2 / r**2


def _array(shape, entry):
    out = np.empty(shape, dtype=object)
    for idx in itertools.product(*(range(s) for s in shape)):
        out[idx] = entry(*idx)
    return out


class SympyCurvature:
    """Curvature tensors of a 4-D metric, as numpy object arrays of sympy
    expressions.  T is the energy-momentum tensor S - (kappa/2) g with no
    cosmological constant."""

    def __init__(self, g):
        x = COORDS
        self.g = _array((N, N), lambda i, j: g[i, j])
        ginv = sp.simplify(g.inv())
        self.ginv = _array((N, N), lambda i, j: ginv[i, j])
        self.gamma = _array((N, N, N), lambda h, i, j: sp.cancel(sum(
            ginv[h, k] * (sp.diff(g[j, k], x[i]) + sp.diff(g[i, k], x[j])
                          - sp.diff(g[i, j], x[k])) for k in range(N)) / 2))
        gam = self.gamma

        def rup(h, i, j, k):
            return (sp.diff(gam[h, i, k], x[j]) - sp.diff(gam[h, i, j], x[k])
                    + sum(gam[h, j, l] * gam[l, i, k]
                          - gam[h, k, l] * gam[l, i, j] for l in range(N)))

        self.R = _array((N,) * 4, lambda h, i, j, k: sp.cancel(sum(
            g[h, l] * rup(l, i, j, k) for l in range(N))))
        self.S = _array((N, N), lambda i, j: sp.cancel(sum(
            ginv[h, k] * self.R[h, i, j, k]
            for h in range(N) for k in range(N))))
        self.kappa = sp.cancel(sum(ginv[i, j] * self.S[i, j]
                                   for i in range(N) for j in range(N)))

    @cached_property
    def C(self):
        gS = kn_oracle(self.g, self.S)
        gg = kn_oracle(self.g, self.g)
        return _array((N,) * 4, lambda *idx: sp.cancel(
            self.R[idx] - gS[idx] / (N - 2)
            + self.kappa * gg[idx] / (2 * (N - 1) * (N - 2))))

    @cached_property
    def T(self):
        return self.S - self.kappa / 2 * self.g

    @cached_property
    def nabla_R(self):
        return self.nabla(self.R)

    @cached_property
    def nabla_C(self):
        return self.nabla(self.C)

    def nabla(self, T):
        """Covariant derivative, derivative index appended last."""
        k = T.ndim

        def entry(*idx):
            body, d = idx[:k], idx[k]
            acc = sp.diff(T[body], COORDS[d])
            for s in range(k):
                for u in range(N):
                    jdx = list(body)
                    jdx[s] = u
                    acc -= self.gamma[u, d, body[s]] * T[tuple(jdx)]
            return acc

        return _array((N,) * (k + 1), entry)

    def evaluator(self, names, lapse):
        """Return values -> {name: float array} for the tensors in names,
        with the undefined lapse f replaced by the expression lapse.
        values maps coordinate and parameter names to floats."""
        jet = sp.symbols(f"f0:{JET_ORDER}")
        swap = {f.diff(r, k): jet[k] for k in range(JET_ORDER - 1, 0, -1)}
        swap[f] = jet[0]
        params = sorted(lapse.free_symbols - {r}, key=str)
        jet_of = sp.lambdify([r] + params,
                             [lapse.diff(r, k) for k in range(JET_ORDER)])
        tensors = [np.vectorize(lambda e: sp.sympify(e).xreplace(swap),
                                otypes=[object])(getattr(self, nm))
                   for nm in names]
        fn = sp.lambdify(list(COORDS) + list(jet),
                         [a.tolist() for a in tensors])

        def at(values):
            jets = jet_of(values["r"], *(values[str(p)] for p in params))
            arrays = fn(*(values[str(x)] for x in COORDS), *jets)
            return {nm: np.array(a, dtype=float)
                    for nm, a in zip(names, arrays)}

        return at
