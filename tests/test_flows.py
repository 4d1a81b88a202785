"""Linearized return data of quadratic and radial model systems."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from sympind import (CriticalPoint, HalfInteger, check_critical_point,
                     exp_shear_path, extended_flow_check,
                     linearized_flow_path, parametrized_rs_index, snm_index)
from sympind.errors import DegenerateEndpoint, InvalidInput, ShapeError
from sympind.linalg import random_orthogonal, random_symplectic
from sympind.systems import (quadratic_system, radial_system,
                             random_quadratic_system, split_system)
from sympind.flows import transform_point, transform_system


def test_split_system_closed_form():
    # H = x^T K x / 2 + lam^T F lam / 2 linearizes to the shear family
    # with S = -K, E = -F, so the index is (sig(-K) + sig(-F)) / 2
    cases = [
        (np.diag([0.9, 0.4]), np.array([[0.7]]), HalfInteger(-3)),
        (np.diag([0.8, -0.5]), np.array([[-0.6]]), HalfInteger(1)),
        (np.diag([-0.9, -0.4]), np.array([[0.7]]), HalfInteger(1)),
    ]
    for k, f, want in cases:
        sys_, pt = split_system(k, f)
        res = parametrized_rs_index(linearized_flow_path(sys_, pt))
        assert res.value == want
        oracle = snm_index(exp_shear_path(-k, -f))
        assert res.value == oracle.value


def test_quadratic_flow_matches_big_exponential():
    # constant coefficients: the assembled flow is exp(theta * Jext * H)
    # with H = [[-K, -G^T, 0], [-G, -F, 0], [0, 0, 0]]
    kb = np.array([[0.7, 0.2], [0.2, -0.4]])
    gb = np.array([[0.5, -0.3]])
    fb = np.array([[0.6]])
    sys_, pt = quadratic_system(kb, gb, fb)
    pd = linearized_flow_path(sys_, pt)
    dims = sys_.dims
    h = np.zeros((dims.total, dims.total))
    h[:2, :2] = -kb
    h[:2, 2:3] = -gb.T
    h[2:3, :2] = -gb
    h[2:3, 2:3] = -fb
    for k, theta in ((pd.nsteps // 2, 0.5), (pd.nsteps, 1.0)):
        want = expm(theta * dims.j_ext() @ h)
        np.testing.assert_allclose(pd.assembled()[k], want, atol=1e-9)


def test_non_critical_loop_is_rejected():
    sys_, _ = split_system(np.diag([0.9, 0.4]), np.array([[0.7]]))
    bad = CriticalPoint(np.full((64, 2), 0.3), np.zeros(1))
    assert not check_critical_point(sys_, bad).ok
    with pytest.raises(InvalidInput):
        linearized_flow_path(sys_, bad)


def test_extended_flow_certificate():
    rng = np.random.default_rng(3)
    sys_, pt = random_quadratic_system(2, 1, rng)
    pd = linearized_flow_path(sys_, pt)
    report = extended_flow_check(pd)
    assert report.ok
    assert report.symplectic_defect <= 1e-6
    stripped = dataclasses.replace(pd, f_raw=None, b_raw=None)
    with pytest.raises(InvalidInput):
        extended_flow_check(stripped)


def test_index_is_natural_under_coordinate_changes():
    rng = np.random.default_rng(4)
    sys_, pt = random_quadratic_system(1, 2, rng, scale=0.6)
    base = parametrized_rs_index(linearized_flow_path(sys_, pt))
    phi = random_symplectic(rng, sys_.dims.j_loop(), 0.7)
    rot = random_orthogonal(rng, sys_.dims.m)
    moved_sys = transform_system(sys_, phi, rot)
    moved_pt = transform_point(pt, phi, rot)
    assert check_critical_point(moved_sys, moved_pt).ok
    moved = parametrized_rs_index(linearized_flow_path(moved_sys, moved_pt))
    assert moved.value == base.value


def test_degenerate_return_map_is_refused():
    sys_, pt = split_system(np.zeros((2, 2)), np.array([[0.7]]))
    pd = linearized_flow_path(sys_, pt)
    with pytest.raises(DegenerateEndpoint):
        parametrized_rs_index(pd)


def test_radial_loop_is_critical_but_degenerate():
    sys_, pt = radial_system(slope=-1.0, curvature=0.5, turns=1)
    report = check_critical_point(sys_, pt)
    assert report.ok
    assert report.flow_residual < 1e-9
    pd = linearized_flow_path(sys_, pt)
    assert extended_flow_check(pd).ok
    # the critical orbits form a circle, so the plain parametrized index
    # does not exist; the block-family treatment lives in rabinowitz
    with pytest.raises(DegenerateEndpoint):
        parametrized_rs_index(pd)


def test_radial_winding_closes_the_chart():
    sys_, pt = radial_system(slope=-1.0, curvature=0.5, turns=2)
    gamma0 = pt.gamma_at(np.array([0.0]))[0]
    gamma1 = pt.gamma_at(np.array([1.0]))[0]
    np.testing.assert_allclose(gamma1 - gamma0, pt.winding, atol=1e-10)
    assert abs(pt.winding[1] - 4.0 * np.pi) < 1e-12


CALLBACKS = ("vector_field", "jac_x", "jac_lam", "grad_lam", "hess_mixed")


def _rewired(system, wrap):
    """The system with wrap applied to each of its callbacks."""
    return dataclasses.replace(
        system, **{name: wrap(getattr(system, name)) for name in CALLBACKS})


def _model_systems(wrap=lambda f: f):
    """(system, point) for each built-in family and a transformed system.

    wrap is applied to every callback, and for the transformed system to
    the callbacks of its base system as well.
    """
    rng = np.random.default_rng(4)
    base, base_pt = random_quadratic_system(1, 2, rng, scale=0.6)
    phi = random_symplectic(rng, base.dims.j_loop(), 0.7)
    rot = random_orthogonal(rng, base.dims.m)
    cases = [
        split_system(np.diag([0.9, 0.4]), np.array([[0.7]])),
        quadratic_system(np.array([[0.7, 0.2], [0.2, -0.4]]),
                         np.array([[0.5, -0.3]]), np.array([[0.6]])),
        radial_system(slope=-1.0, curvature=0.5, turns=1),
        (transform_system(_rewired(base, wrap), phi, rot),
         transform_point(base_pt, phi, rot)),
    ]
    return [(_rewired(sys_, wrap), pt) for sys_, pt in cases]


@pytest.mark.parametrize("case", range(4))
def test_callbacks_receive_whole_loop_grids(case):
    seen = []

    def record(f):
        def call(t, x, lam):
            seen.append((t, x))
            return f(t, x, lam)
        return call

    sys_, pt = _model_systems(record)[case]
    linearized_flow_path(sys_, pt)
    # two calls on the sample grid, three on each of the node and
    # midpoint grids; the transformed system's base sees the same again
    assert len(seen) == (16 if case == 3 else 8)
    for t, x in seen:
        assert isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == float
        assert x.shape == (t.size, sys_.dims.loop)


@pytest.mark.parametrize("case", range(4))
def test_batched_callbacks_match_per_point_calls_bitwise(case):
    def per_point(f):
        def call(t, x, lam):
            return np.stack([f(t[i:i + 1], x[i:i + 1], lam)[0]
                             for i in range(t.size)])
        return call

    sys_, pt = _model_systems()[case]
    ref_sys, _ = _model_systems(per_point)[case]
    got = linearized_flow_path(sys_, pt)
    want = linearized_flow_path(ref_sys, pt)
    for field in ("psi", "x", "e"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_callback_stack_of_wrong_shape_is_named():
    sys_, pt = random_quadratic_system(1, 2, np.random.default_rng(2))
    # one (m,) gradient for the whole grid would broadcast into the mean
    flat = dataclasses.replace(sys_, grad_lam=lambda t, x, lam: np.zeros(2))
    with pytest.raises(ShapeError, match="grad_lam"):
        check_critical_point(flat, pt)
    jx = sys_.jac_x(np.zeros(1), np.zeros((1, 2)), pt.lam)[0]
    single = dataclasses.replace(sys_, jac_x=lambda t, x, lam: jx)
    with pytest.raises(ShapeError, match="jac_x"):
        linearized_flow_path(single, pt)
