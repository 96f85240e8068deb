"""Tensor containers and algebraic products against brute-force oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import curvkit.exprcore as ec
from curvkit.curvature import derived_curvatures
from curvkit.tensor import (ComponentTensor, TensorError, dot_action,
                            invert_metric, kulkarni_nomizu, tachibana)
from oracles import dot_oracle, kn_oracle, tach_oracle

RNG = np.random.default_rng(2024)


def rand_tensor(valence, dim, symmetry="none"):
    a = RNG.uniform(-2, 2, size=(dim,) * valence)
    if symmetry == "symmetric":
        a = a + np.swapaxes(a, 0, 1)
    elif symmetry == "riemann":
        a = a - np.transpose(a, (1, 0, 2, 3))
        a = a - np.transpose(a, (0, 1, 3, 2))
        a = a + np.transpose(a, (2, 3, 0, 1))
    return ComponentTensor(a, valence, dim)


def close(a, b, tol=1e-11):
    return np.abs(a - b).max() <= tol * (1 + np.abs(b).max())


# ---------------------------------------------------------------------------
# numeric paths vs oracles, 50 random dimension-3 inputs each

def test_kulkarni_nomizu_matches_oracle():
    for _ in range(50):
        tau = rand_tensor(2, 3, "symmetric")
        lam = rand_tensor(2, 3, "symmetric")
        got = kulkarni_nomizu(tau, lam)
        assert close(got.data, kn_oracle(tau.data, lam.data))
        # the wedge of two symmetric tensors has the Riemann symmetries
        R = got.data
        assert close(R, -np.transpose(R, (1, 0, 2, 3)))
        assert close(R, -np.transpose(R, (0, 1, 3, 2)))
        assert close(R, np.transpose(R, (2, 3, 0, 1)))


def test_dot_action_matches_oracle():
    for _ in range(50):
        D = rand_tensor(4, 3, "riemann")
        valence = 2 + (_ % 3)
        eta = rand_tensor(valence, 3)
        ginv = rand_tensor(2, 3, "symmetric").data + 3 * np.eye(3)
        got = dot_action(D, eta, ginv)
        assert close(got.data, dot_oracle(D.data, eta.data, ginv))
        # antisymmetry in the two appended slots
        assert close(got.data, -np.swapaxes(got.data, -1, -2))


def test_tachibana_matches_oracle():
    for _ in range(50):
        lam = rand_tensor(2, 3, "symmetric")
        valence = 2 + (_ % 3)
        eta = rand_tensor(valence, 3)
        got = tachibana(lam, eta)
        assert close(got.data, tach_oracle(lam.data, eta.data))
        assert close(got.data, -np.swapaxes(got.data, -1, -2))


def test_tachibana_of_metric_with_itself_vanishes():
    g = rand_tensor(2, 3, "symmetric")
    got = tachibana(g, g)
    assert np.abs(got.data).max() < 1e-12


def stack(make, count=5):
    """A (count, n, ..., n) stack of tensors from make(), and the tensors."""
    items = [make() for _ in range(count)]
    return ComponentTensor(np.stack([t.data for t in items]),
                           items[0].valence, items[0].dim), items


def test_products_over_a_stack_equal_each_entrys_own_call():
    # a leading stack axis gives, entry by entry, the very floats of one
    # call per entry
    lam, lams = stack(lambda: rand_tensor(2, 4, "symmetric"))
    tau, taus = stack(lambda: rand_tensor(2, 4, "symmetric"))
    D, Ds = stack(lambda: rand_tensor(4, 4, "riemann"))
    ginv = np.stack([rand_tensor(2, 4, "symmetric").data + 3 * np.eye(4)
                     for _ in range(5)])
    got = kulkarni_nomizu(tau, lam)
    assert got.valence == 4 and got.data.shape == (5,) + (4,) * 4
    for i in range(5):
        assert np.array_equal(got.data[i],
                              kulkarni_nomizu(taus[i], lams[i]).data)
    for valence in (1, 2, 4):
        eta, etas = stack(lambda: rand_tensor(valence, 4))
        dots = dot_action(D, eta, ginv).data
        tachs = tachibana(lam, eta).data
        assert dots.shape == tachs.shape == (5,) + (4,) * (valence + 2)
        for i in range(5):
            assert np.array_equal(dots[i],
                                  dot_action(Ds[i], etas[i], ginv[i]).data)
            assert np.array_equal(tachs[i], tachibana(lams[i], etas[i]).data)


# ---------------------------------------------------------------------------
# symbolic path agrees with the numeric path

def frac_tensor(valence, dim, symmetry="none"):
    num = RNG.integers(-6, 7, size=(dim,) * valence)
    a = np.array([[Fraction(int(v), 4) for v in row]
                  for row in num.reshape(dim, -1)]).reshape((dim,) * valence)
    if symmetry == "symmetric":
        a = a + np.swapaxes(a, 0, 1)
    sym = np.empty((dim,) * valence, dtype=object)
    for idx in itertools.product(range(dim), repeat=valence):
        sym[idx] = ec.const(a[idx])
    return (ComponentTensor(sym, valence, dim),
            ComponentTensor(a.astype(float), valence, dim))


def test_symbolic_and_numeric_products_agree():
    for _ in range(5):
        tau_s, tau_f = frac_tensor(2, 3, "symmetric")
        lam_s, lam_f = frac_tensor(2, 3, "symmetric")
        eta_s, eta_f = frac_tensor(3, 3)
        D_s, D_f = frac_tensor(4, 3)
        ginv_s = tau_s.data  # any symmetric array works as a stand-in
        ginv_f = tau_f.data
        kappa = Fraction(int(RNG.integers(-6, 7)), 4)

        pairs = [
            (kulkarni_nomizu(tau_s, lam_s), kulkarni_nomizu(tau_f, lam_f)),
            (dot_action(D_s, eta_s, ginv_s), dot_action(D_f, eta_f, ginv_f)),
            (tachibana(lam_s, eta_s), tachibana(lam_f, eta_f)),
        ]
        # D, lam and tau stand in for R, S and g
        pairs += zip(
            derived_curvatures(D_s, lam_s, ec.const(kappa), tau_s,
                               ec.const(Fraction(1, 3))),
            derived_curvatures(D_f, lam_f, float(kappa), tau_f, 1 / 3))
        for sym_t, num_t in pairs:
            ev = sym_t.evaluate({})
            assert close(ev.data, num_t.data, tol=1e-13)


# ---------------------------------------------------------------------------
# metric inversion

def test_invert_metric_exact_inverse():
    names = {"r", "theta", "M", "e"}
    g = np.empty((4, 4), dtype=object)
    g[...] = ec.ZERO
    f = ec.parse_expr("1 - 2*M*r^2/(e^2+r^2)^(3/2)", names)
    g[0, 0] = ec.neg(f)
    g[1, 1] = ec.div(ec.ONE, f)
    g[2, 2] = ec.parse_expr("r^2", names)
    g[3, 3] = ec.parse_expr("r^2*sin(theta)^2", names)
    md = invert_metric(ComponentTensor(g, 2, 4))
    for i in range(4):
        for j in range(4):
            prod = ec.ZERO
            for k in range(4):
                prod = prod + md.g.data[i, k] * md.g_inv[k, j]
            target = ec.ONE if i == j else ec.ZERO
            assert ec.equal_probabilistic(prod, target), (i, j)


def test_invert_metric_with_off_diagonal_term():
    names = {"r", "theta", "M", "e"}
    g = np.empty((2, 2), dtype=object)
    a = ec.parse_expr("1 + r^2", names)
    b = ec.parse_expr("r", names)
    c = ec.parse_expr("2", names)
    g[0, 0], g[0, 1], g[1, 0], g[1, 1] = a, b, b, c
    md = invert_metric(ComponentTensor(g, 2, 2))
    det = ec.parse_expr("2*(1 + r^2) - r^2", names)
    assert ec.equal_probabilistic(md.det, det)
    assert ec.equal_probabilistic(md.g_inv[0, 0], ec.div(c, det))
    assert ec.equal_probabilistic(md.g_inv[0, 1], ec.div(ec.neg(b), det))


def test_invert_metric_rejects_singular():
    g = np.empty((2, 2), dtype=object)
    g[...] = ec.ONE
    with pytest.raises(TensorError):
        invert_metric(ComponentTensor(g, 2, 2))


def test_invert_metric_rejects_asymmetric():
    names = {"r"}
    g = np.empty((2, 2), dtype=object)
    g[0, 0] = ec.ONE
    g[1, 1] = ec.ONE
    g[0, 1] = ec.parse_expr("r", names)
    g[1, 0] = ec.parse_expr("2*r", names)
    with pytest.raises(TensorError):
        invert_metric(ComponentTensor(g, 2, 2))


# ---------------------------------------------------------------------------
# container checks

def test_shape_validation():
    with pytest.raises(TensorError):
        ComponentTensor(np.zeros((3, 3)), 2, 4)
    with pytest.raises(TensorError):
        ComponentTensor(np.zeros((3, 4)), 2, 4)
    with pytest.raises(TensorError):
        ComponentTensor(np.zeros(4), 2, 4)
    # leading axes are a stack; only the trailing valence axes are slots
    assert ComponentTensor(np.zeros((5, 4, 4)), 2, 4).valence == 2


def test_mode_mixing_rejected():
    sym_t, num_t = frac_tensor(2, 3, "symmetric")
    with pytest.raises(TensorError):
        kulkarni_nomizu(sym_t, num_t)
