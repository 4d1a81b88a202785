"""Loop-coefficient integration, recovery, and the carried identities."""

import numpy as np
import pytest
from scipy.linalg import expm

from sympind import (BlendFamily, Dimensions, OperatorCoefficients,
                     coefficients_from_path, loop_identity_residuals,
                     path_from_coefficients)
from sympind import coefficients
from sympind.coefficients import generator_tables
from sympind.errors import IntegratorBlowup, InvalidInput, ShapeError
from sympind.specflow import random_coefficients, random_operator_family


def _constant_coeffs(dims, s0, c0, d0, n_theta=256):
    reps = lambda arr, shape: np.broadcast_to(
        np.asarray(arr, dtype=float).reshape(shape), (n_theta,) + shape).copy()
    return OperatorCoefficients(
        dims,
        reps(s0, (dims.loop, dims.loop)),
        reps(c0, (dims.m, dims.loop)),
        reps(d0, (dims.m, dims.m)))


def _closed(arr):
    return np.concatenate([arr, arr[:1]], axis=0)


def test_constant_coefficients_integrate_to_exponential():
    dims = Dimensions(1, 0)
    s0 = np.array([[0.9, 0.2], [0.2, -0.4]])
    pd = path_from_coefficients(_constant_coeffs(dims, s0, [], []))
    want = expm(dims.j_loop() @ s0)
    np.testing.assert_allclose(pd.psi[-1], want, atol=1e-10)
    mid = expm(0.5 * dims.j_loop() @ s0)
    np.testing.assert_allclose(pd.psi[128], mid, atol=1e-10)


def test_constant_coefficients_with_parameters_match_big_exponential():
    # with constant (S, C, D) the assembled path is exp(theta * Jext H)
    # for H = [[S, C^T, 0], [C, D, 0], [0, 0, 0]]
    dims = Dimensions(1, 1)
    s0 = np.array([[0.7, 0.1], [0.1, -0.3]])
    c0 = np.array([[0.4, -0.2]])
    d0 = np.array([[0.6]])
    pd = path_from_coefficients(_constant_coeffs(dims, s0, c0, d0))
    h = np.zeros((dims.total, dims.total))
    h[:2, :2] = s0
    h[:2, 2:3] = c0.T
    h[2:3, :2] = c0
    h[2:3, 2:3] = d0
    want = expm(dims.j_ext() @ h)
    np.testing.assert_allclose(pd.assembled()[-1], want, atol=1e-9)
    np.testing.assert_allclose(pd.endpoint().to_matrix(), want, atol=1e-9)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 0)])
def test_roundtrip_recovers_coefficient_tables(n, m):
    dims = Dimensions(n, m)
    rng = np.random.default_rng(10 * n + m)
    coeffs = random_coefficients(dims, rng, n_theta=512)
    pd = path_from_coefficients(coeffs)
    s2, c2, d2 = coefficients_from_path(pd)
    assert float(np.max(np.abs(s2 - _closed(coeffs.s)))) <= 1e-6
    if dims.m:
        assert float(np.max(np.abs(c2 - _closed(coeffs.c)))) <= 1e-6
        assert float(np.max(np.abs(d2 - _closed(coeffs.d)))) <= 1e-6


def test_loop_identities_hold_along_integrated_path():
    dims = Dimensions(1, 2)
    rng = np.random.default_rng(5)
    pd = path_from_coefficients(random_coefficients(dims, rng, n_theta=512))
    r_anti, r_shear, r_cpsi = loop_identity_residuals(pd)
    assert r_anti <= 1e-7
    assert r_shear <= 1e-6
    assert r_cpsi <= 1e-6


def test_spline_derivative_is_ode_exact_at_the_start():
    # value-spline differentiation degrades at the interval ends; the
    # carried right-hand sides must survive the spline round trip
    dims = Dimensions(1, 1)
    rng = np.random.default_rng(6)
    coeffs = random_coefficients(dims, rng, n_theta=256)
    pd = path_from_coefficients(coeffs)
    path = pd.to_snm_path().to_path()
    d0 = path.deriv(0.0)
    want = dims.j_loop() @ coeffs.s[0]  # Psi(0) = I
    np.testing.assert_allclose(d0[:2, :2], want, atol=1e-9)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2)])
def test_batched_return_data_matches_single_path(n, m):
    # the batched endpoint propagation and the node-keeping path of one
    # s value integrate the same tables; frozen ends included
    fam = random_operator_family(Dimensions(n, m), seed=20 + n)
    s_vals = np.array([fam.s_min - 3.0, fam.s_min, -0.8, 0.3, 2.1,
                       fam.s_max, fam.s_max + 3.0])
    psi, x, e = fam.return_data_at(s_vals)
    for i, s in enumerate(s_vals):
        el = path_from_coefficients(fam.coefficients_at(s)).endpoint()
        np.testing.assert_allclose(psi[i], el.psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x[i], el.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(e[i], el.e, rtol=0, atol=1e-12)


def test_hyperbolic_growth_raises_blowup():
    # J0 S = diag(-40, 40): |Psi| = e^{40 theta} passes 1e8 between the
    # checks at steps 192 and 256
    coeffs = _constant_coeffs(Dimensions(1, 0), [[0.0, 40.0], [40.0, 0.0]],
                              [], [], n_theta=512)
    with pytest.raises(IntegratorBlowup, match="step 256"):
        path_from_coefficients(coeffs)


@pytest.mark.parametrize("rate,n_theta,step", [(25.0, 100, 100), (40.0, 32, 32)])
def test_blowup_is_checked_after_the_last_partial_block(rate, n_theta, step):
    # |Psi| = e^{rate theta} passes 1e8 after the last multiple of 64
    # steps, so only the check after the partial last block can see it
    coeffs = _constant_coeffs(Dimensions(1, 0), [[0.0, rate], [rate, 0.0]],
                              [], [], n_theta=n_theta)
    with pytest.raises(IntegratorBlowup, match=f"step {step}"):
        path_from_coefficients(coeffs)


def _stage_by_stage_propagate(dims, nodes, mids, keep_nodes=True):
    """Reference RK4: four stages per step, each one product K W."""
    batch, nsteps = mids.shape[:2]
    pm, size = dims.m, dims.loop + dims.m
    h = 1.0 / nsteps
    w = np.zeros((batch, size + pm, size))
    w[:, pm:] = np.eye(size)
    stage = w.copy()
    ws = np.empty((batch, nsteps + 1) + w.shape[1:])
    ws[:, 0] = w
    for i in range(nsteps):
        k1 = nodes[:, i] @ w[:, pm:]
        stage[:, :size] = w[:, :size] + 0.5 * h * k1
        k2 = mids[:, i] @ stage[:, pm:]
        stage[:, :size] = w[:, :size] + 0.5 * h * k2
        k3 = mids[:, i] @ stage[:, pm:]
        stage[:, :size] = w[:, :size] + h * k3
        k4 = nodes[:, i + 1] @ stage[:, pm:]
        w[:, :size] += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ws[:, i + 1] = w
    return ws if keep_nodes else w


def _assert_relative_close(got, want, rel=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.size:
        assert float(np.max(np.abs(got - want))) <= rel * float(np.max(np.abs(want)))


@pytest.mark.parametrize("n_theta", [512, 100])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 0)])
def test_step_increments_match_stage_by_stage_rk4(monkeypatch, n, m, n_theta):
    # N = 100 ends on a partial block of 36 steps
    dims = Dimensions(n, m)
    coeffs = random_coefficients(dims, np.random.default_rng(40 + 3 * n + m),
                                 n_theta=n_theta)
    got = path_from_coefficients(coeffs)
    monkeypatch.setattr(coefficients, "_propagate", _stage_by_stage_propagate)
    want = path_from_coefficients(coeffs)
    for name in ("theta", "psi", "x", "e", "f_raw", "b_raw", "dpsi", "dx", "de"):
        _assert_relative_close(getattr(got, name), getattr(want, name))


def test_batched_return_data_matches_stage_by_stage_rk4(monkeypatch):
    # the family combines the K tables of its two sets; the reference builds
    # each s value's K tables and runs four RK4 stages per step on them
    fam = random_operator_family(Dimensions(2, 2), seed=1003)
    s_vals = np.array([fam.s_min, -2.5, 0.1, 1.7, fam.s_max])
    got = fam.return_data_at(s_vals)
    samples = [fam.coefficients_at(s) for s in s_vals]
    tables = generator_tables(fam.dims, *(np.stack([getattr(c, name) for c in samples])
                                          for name in "scd"))
    monkeypatch.setattr(coefficients, "_propagate", _stage_by_stage_propagate)
    want = coefficients.return_data(fam.dims, *tables)
    for g, w in zip(got, want):
        _assert_relative_close(g, w)


def test_blend_return_data_blowup_is_checked_after_the_last_partial_block():
    # J0 S = diag(-25, 25) on N = 100: |Psi| passes 1e8 after step 64
    coeffs = _constant_coeffs(Dimensions(1, 0), [[0.0, 25.0], [25.0, 0.0]],
                              [], [], n_theta=100)
    fam = BlendFamily(coeffs, coeffs)
    with pytest.raises(IntegratorBlowup, match="at step 100"):
        fam.return_data_at(np.array([0.0]))


@pytest.mark.parametrize("case", ["constant", "frozen_ends"])
def test_blend_return_data_matches_single_path(case):
    # the combined K tables match those of each s value's coefficients
    # for a family with equal ends and for s beyond the grid
    dims = Dimensions(2, 1)
    rng = np.random.default_rng(71)
    left, right = (random_coefficients(dims, rng) for _ in range(2))
    if case == "constant":
        fam = BlendFamily(left, left)
        s_vals = np.array([fam.s_min, 0.3, fam.s_max])
    else:
        fam = BlendFamily(left, right)
        s_vals = np.array([fam.s_min - 5.0, fam.s_min - 0.5, fam.s_max + 0.5,
                           fam.s_max + 5.0])
    psi, x, e = fam.return_data_at(s_vals)
    for i, s in enumerate(s_vals):
        el = path_from_coefficients(fam.coefficients_at(s)).endpoint()
        np.testing.assert_allclose(psi[i], el.psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x[i], el.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(e[i], el.e, rtol=0, atol=1e-12)


def test_resampling_is_exact_for_band_limited_tables():
    dims = Dimensions(1, 1)
    rng = np.random.default_rng(7)
    coeffs = random_coefficients(dims, rng, n_theta=64, degree=3)
    fine = coeffs.resampled(128)
    np.testing.assert_allclose(fine.s[::2], coeffs.s, atol=1e-10)
    np.testing.assert_allclose(fine.d[::2], coeffs.d, atol=1e-10)


def test_asymmetric_tables_rejected():
    dims = Dimensions(1, 0)
    s = np.broadcast_to(np.array([[0.0, 1.0], [0.0, 0.0]]), (8, 2, 2)).copy()
    with pytest.raises(InvalidInput):
        OperatorCoefficients(dims, s, np.zeros((8, 0, 2)), np.zeros((8, 0, 0)))


def test_wrong_block_shape_rejected():
    dims = Dimensions(1, 1)
    with pytest.raises(ShapeError):
        OperatorCoefficients(dims, np.zeros((8, 2, 2)), np.zeros((8, 2, 2)),
                             np.zeros((8, 1, 1)))
