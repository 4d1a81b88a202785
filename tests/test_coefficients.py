"""Loop-coefficient integration, recovery, and the carried identities."""

import numpy as np
import pytest
from scipy.linalg import expm

from sympind import (Dimensions, OperatorCoefficients, coefficients_from_path,
                     loop_identity_residuals, path_from_coefficients)
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
