"""Linearized return data of quadratic and radial model systems."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

import sympind.coefficients
import sympind.flows
from sympind import (CriticalPoint, HalfInteger, check_critical_point,
                     exp_shear_path, extended_flow_check,
                     linearized_flow_path, parametrized_rs_index, snm_index)
from sympind.coefficients import generator, integrate_path, trig_eval
from sympind.errors import DegenerateEndpoint, InvalidInput, ShapeError
from sympind.flows import HamiltonianSystem
from sympind.linalg import random_orthogonal, random_symmetric, random_symplectic
from sympind.snm import Dimensions
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
    grid = pt.gamma_on_grid(2 * pt.samples)
    np.testing.assert_allclose(grid[-1] - grid[0], pt.winding, atol=1e-10)
    assert abs(pt.winding[1] - 4.0 * np.pi) < 1e-12


def _dense_gamma(point, thetas):
    """The loop's interpolant at arbitrary points by the dense trigonometric sum."""
    return trig_eval(point.periodic_part(), thetas) + thetas[:, None] * point.winding


@pytest.mark.parametrize("samples", [5, 8, 33, 128, 256, 257])
def test_loop_grid_matches_the_dense_sum(samples):
    rng = np.random.default_rng(samples)
    winding = rng.uniform(-3.0, 3.0, 4)
    thetas = np.arange(samples) / samples
    pt = CriticalPoint(rng.standard_normal((samples, 4)) + thetas[:, None] * winding,
                       np.zeros(1), winding)
    nsteps = max(samples, 128)
    grid = pt.gamma_on_grid(2 * nsteps)
    assert grid.shape == (2 * nsteps + 1, 4)
    nodes = _dense_gamma(pt, np.arange(nsteps + 1) / nsteps)
    mids = _dense_gamma(pt, (np.arange(nsteps) + 0.5) / nsteps)
    scale = float(np.max(np.abs(nodes)))
    assert float(np.max(np.abs(grid[::2] - nodes))) <= 1e-13 * scale
    assert float(np.max(np.abs(grid[1::2] - mids))) <= 1e-13 * scale


def test_loop_grid_must_refine_the_samples():
    pt = CriticalPoint(np.zeros((8, 2)), np.zeros(1))
    with pytest.raises(ShapeError, match="exceed"):
        pt.gamma_on_grid(8)


def _wavy_system(rng):
    """(system, point): a band-limited loop with winding whose Jacobians vary along it.

    The callbacks need not come from one Hamiltonian: linearized_flow_path
    only needs the loop to pass the critical-point check and jac_x to be
    infinitesimally symplectic, and the Jacobians depend on x, so every
    sampled loop value enters the return data.
    """
    dims = Dimensions(1, 1)
    modes, samples = 3, 100
    a, b = rng.standard_normal((2, modes, 2)) * 0.3
    winding = np.array([0.0, 2.0 * np.pi])
    freq = 2.0 * np.pi * np.arange(1, modes + 1)

    def loop(t):
        return (np.cos(np.outer(t, freq)) @ a + np.sin(np.outer(t, freq)) @ b
                + t[:, None] * winding)

    def velocity(t):
        return ((np.cos(np.outer(t, freq)) * freq) @ b
                - (np.sin(np.outer(t, freq)) * freq) @ a + winding)

    j0 = dims.j_loop()
    s0, s1 = random_symmetric(rng, 2), random_symmetric(rng, 2)
    g = rng.standard_normal((1, 2))

    def jx(t, x, lam):
        sym = s0 + np.sin(x[:, 0])[:, None, None] * s1
        return j0 @ sym

    def jl(t, x, lam):
        return np.cos(x @ g.T)[:, :, None] * np.ones((1, 2, 1))

    def hm(t, x, lam):
        return np.concatenate([np.sin(x)[:, None, :], np.cos(x[:, :1])[:, None, :]], axis=2)

    system = HamiltonianSystem(dims, lambda t, x, lam: velocity(t), jx, jl,
                               lambda t, x, lam: np.zeros((len(t), 1)), hm)
    thetas = np.arange(samples) / samples
    return system, CriticalPoint(loop(thetas), np.array([0.7]), winding)


def _dense_flow_path(system, point):
    """linearized_flow_path with the loop evaluated by the dense sum."""
    dims = system.dims
    nsteps = max(point.samples, 128)
    node_t = np.arange(nsteps + 1) / nsteps
    stacks = []
    for ts in (node_t, (np.arange(nsteps) + 0.5) / nsteps):
        gs = _dense_gamma(point, ts)
        hm = system.hess_mixed(ts, gs, point.lam)
        stacks.append(generator(dims, system.jac_x(ts, gs, point.lam),
                                system.jac_lam(ts, gs, point.lam),
                                -hm[:, :, :dims.loop], -hm[:, :, dims.loop:]))
    return integrate_path(dims, node_t, *stacks)


@pytest.mark.parametrize("case", ["radial", "wavy"])
def test_flow_path_evaluates_the_loop_without_the_dense_sum(case, monkeypatch):
    if case == "radial":
        sys_, pt = radial_system(slope=-1.3, curvature=0.7, turns=2)
    else:
        sys_, pt = _wavy_system(np.random.default_rng(11))
    want = _dense_flow_path(sys_, pt)

    def refuse(*args, **kwargs):
        raise AssertionError("dense trigonometric sum called")

    monkeypatch.setattr(sympind.coefficients, "trig_eval", refuse)
    monkeypatch.setattr(sympind.flows, "trig_eval", refuse, raising=False)
    got = linearized_flow_path(sys_, pt)
    for field in ("psi", "x", "e"):
        ref = getattr(want, field)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(getattr(got, field) - ref))) <= 1e-13 * scale


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
