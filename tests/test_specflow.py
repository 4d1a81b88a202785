"""Spectral flow by endpoint matrices and by Galerkin truncation."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from sympind import (Dimensions, OperatorFamily, path_from_coefficients,
                     spectral_flow_galerkin, spectral_flow_matrix, specflow)
from sympind.cli import main
from sympind.coefficients import generator_tables, return_data
from sympind.errors import (DegenerateAsymptote, InvalidInput, ShapeError,
                            TruncationUnstable)
from sympind.linalg import sym_part
from sympind.specflow import (asymptotic_kernel, fourier_profiles,
                              galerkin_kernel_dimension, galerkin_matrix,
                              main_theorem_check, random_operator_family,
                              random_trig_samples, split_tanh_family)

ALPHA = 1.2
GALERKIN_K = 32


def _anchor_coeffs(d0, m=1, n_theta=256):
    fam = split_tanh_family(alpha=ALPHA, m=m, n_theta=n_theta)
    left = fam.left_asymptote()
    d = np.broadcast_to(d0 * np.eye(m), left.d.shape).copy()
    return type(left)(left.dims, left.s, left.c, d)


@pytest.mark.parametrize("m", [1, 2])
def test_anchor_family_flow_equals_parameter_count(m):
    fam = split_tanh_family(alpha=ALPHA, m=m, n_theta=256)
    res = spectral_flow_matrix(fam)
    assert res.value == m
    assert sum(c.signature for c in res.crossings) == m
    assert all(abs(c.s) < 1e-6 for c in res.crossings)
    assert all(max(c.block_deviation, c.reduced_deviation) <= 1e-6
               for c in res.crossings)
    gal = spectral_flow_galerkin(fam, modes=12)
    assert gal.value == m


def test_galerkin_matrix_eigenvalues_uncoupled_closed_form():
    # S = alpha*I, C = 0, D = d0: the truncated operator splits into
    # frequency blocks with eigenvalues alpha +- 2*pi*k, plus d0
    d0, modes = -1.0, 3
    g = galerkin_matrix(_anchor_coeffs(d0), modes)
    nb = 2 * modes + 1
    assert g.shape == (2 * nb + 1, 2 * nb + 1)
    np.testing.assert_allclose(g, g.T, atol=1e-14)
    want = [ALPHA, ALPHA, d0]
    for k in range(1, modes + 1):
        want.extend([ALPHA + 2 * np.pi * k] * 2)
        want.extend([ALPHA - 2 * np.pi * k] * 2)
    np.testing.assert_allclose(np.linalg.eigvalsh(g), np.sort(want), atol=1e-9)


def _einsum_galerkin_matrix(coeffs, modes):
    """Reference assembly: the loop form as plain three-operand einsums."""
    dims, n_theta = coeffs.dims, coeffs.n_theta
    ln, pm = dims.loop, dims.m
    prof = fourier_profiles(modes, np.arange(n_theta) / n_theta)
    nb = prof.shape[0]
    loop = np.einsum("ag,gij,bg->aibj", prof, coeffs.s, prof).reshape(
        nb * ln, nb * ln) / n_theta
    for k in range(1, modes + 1):
        ic, isn = 2 * k - 1, 2 * k
        loop[ic * ln:(ic + 1) * ln, isn * ln:(isn + 1) * ln] += 2 * np.pi * k * dims.j_loop()
        loop[isn * ln:(isn + 1) * ln, ic * ln:(ic + 1) * ln] -= 2 * np.pi * k * dims.j_loop()
    out = np.zeros((nb * ln + pm, nb * ln + pm))
    out[:nb * ln, :nb * ln] = loop
    coup = np.einsum("bg,gai->bia", prof, coeffs.c).reshape(nb * ln, pm) / n_theta
    out[:nb * ln, nb * ln:] = coup
    out[nb * ln:, :nb * ln] = coup.T
    out[nb * ln:, nb * ln:] = coeffs.d.mean(axis=0)
    return sym_part(out)


@pytest.mark.parametrize("seed,dims", [(1000, Dimensions(1, 1)),
                                       (1002, Dimensions(1, 2)),
                                       (1003, Dimensions(2, 2))])
def test_galerkin_matrix_matches_einsum_reference(seed, dims):
    fam = random_operator_family(dims, seed=seed)
    for s in (fam.s_grid[0], -0.7, 0.0, 1.3, fam.s_grid[-1]):
        coeffs = fam.coefficients_at(s)
        got = galerkin_matrix(coeffs, GALERKIN_K)
        want = _einsum_galerkin_matrix(coeffs, GALERKIN_K)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert (np.count_nonzero(np.linalg.eigvalsh(got) < 0)
                == np.count_nonzero(np.linalg.eigvalsh(want) < 0))


def test_galerkin_negative_count_tracks_modes():
    for modes in (4, 9):
        w = np.linalg.eigvalsh(galerkin_matrix(_anchor_coeffs(-1.0), modes))
        assert int(np.count_nonzero(w < 0)) == 2 * modes + 1
        w = np.linalg.eigvalsh(galerkin_matrix(_anchor_coeffs(1.0), modes))
        assert int(np.count_nonzero(w < 0)) == 2 * modes


def test_degenerate_asymptote_found_by_both_methods():
    degenerate = _anchor_coeffs(0.0)
    kern = asymptotic_kernel(degenerate)
    assert kern.dimension == 1
    # kernel element is the pure parameter direction: loop part vanishes
    assert float(np.max(np.abs(kern.loops(np.linspace(0, 1, 9))))) < 1e-9
    assert abs(abs(kern.vectors[-1, 0]) - 1.0) < 1e-9
    assert galerkin_kernel_dimension(degenerate, modes=8) == 1

    healthy = _anchor_coeffs(1.0)
    assert asymptotic_kernel(healthy).dimension == 0
    fam = OperatorFamily.from_asymptotes(degenerate, healthy)
    with pytest.raises(DegenerateAsymptote):
        spectral_flow_matrix(fam)


def test_near_kernel_asymptote_fails_truncation_guard():
    fam = OperatorFamily.from_asymptotes(_anchor_coeffs(-1.0),
                                         _anchor_coeffs(1e-12))
    with pytest.raises(TruncationUnstable):
        spectral_flow_galerkin(fam, modes=8)


def test_constant_family_has_zero_flow():
    left = _anchor_coeffs(-1.0)
    fam = OperatorFamily.from_asymptotes(left, left)
    res = spectral_flow_matrix(fam)
    assert res.value == 0 and res.crossings == []
    assert spectral_flow_galerkin(fam, modes=8).value == 0


def test_main_theorem_single_instance():
    fam = random_operator_family(Dimensions(1, 1), seed=42, n_theta=256)
    left = path_from_coefficients(fam.left_asymptote())
    right = path_from_coefficients(fam.right_asymptote())
    report = main_theorem_check(left, right, fam, modes=16)
    assert report.ok
    assert report.flow_matrix.value == report.index_difference.as_int()
    assert report.reproduction_error <= 1e-6
    assert all(max(c.block_deviation, c.reduced_deviation) <= 1e-6
               for c in report.flow_matrix.crossings)


def test_each_asymptote_is_integrated_once_per_family(monkeypatch):
    # the retry, the reproduction check and spectral_flow_matrix all read
    # the family's two kernels
    counts = {"asymptotic_kernel": 0, "path_from_coefficients": 0}
    for name in counts:
        def counting(*args, _real=getattr(specflow, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(specflow, name, counting)
    fam = random_operator_family(Dimensions(1, 1), seed=42, n_theta=256)
    report = main_theorem_check(fam.left_kernel.path_data,
                                fam.right_kernel.path_data, fam, modes=16)
    assert report.ok and report.reproduction_error == 0.0
    assert counts == {"asymptotic_kernel": 2, "path_from_coefficients": 2}


def test_crossing_pair_two_grid_steps_apart():
    # crossings at s = -0.527 and -0.406, 1.9 scan steps apart: the matrix
    # flow must see both and equal the Galerkin flow and the index difference
    fam = random_operator_family(Dimensions(2, 2), seed=9007)
    left = path_from_coefficients(fam.left_asymptote())
    right = path_from_coefficients(fam.right_asymptote())
    report = main_theorem_check(left, right, fam)
    assert report.flow_matrix.value == report.flow_galerkin.value == 0
    assert report.index_difference.as_int() == 0
    assert report.ok


def test_generator_skips_asymptotes_in_the_ambiguous_band():
    # the first draw of seed 6001 has a left asymptote at relative
    # monitored singular value 2.7e-5: no kernel at tol_sv, but inside
    # the band where find_crossings refuses it
    fam = random_operator_family(Dimensions(2, 1), seed=6001)
    left = path_from_coefficients(fam.left_asymptote())
    right = path_from_coefficients(fam.right_asymptote())
    assert main_theorem_check(left, right, fam).ok


def test_chunked_return_data_matches_one_at_a_time():
    # 130 values span three s-chunks; the frozen ends are included
    fam = random_operator_family(Dimensions(1, 1), seed=21)
    s_vals = np.linspace(fam.s_min - 1.0, fam.s_max + 1.0, 130)
    psi, x, e = fam.return_data_at(s_vals)
    for i, s in enumerate(s_vals):
        one = fam.return_data_at(np.array([s]))
        assert all(np.array_equal(a[i], b[0]) for a, b in zip((psi, x, e), one))


def test_scan_grid_return_data_stays_in_bounded_memory():
    # a 513-value grid of the (2, 2) family: every K table at once is 265 MiB
    fam = random_operator_family(Dimensions(2, 2), seed=1003)
    tracemalloc.start()
    try:
        fam.return_path()(np.linspace(fam.s_min, fam.s_max, 513))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_family_input_validation():
    left = _anchor_coeffs(-1.0)
    wrong = _anchor_coeffs(1.0, m=2)
    with pytest.raises(InvalidInput):
        OperatorFamily.from_asymptotes(left, wrong)
    dims = left.dims
    short = np.linspace(-1.0, 1.0, 4)
    with pytest.raises(ShapeError):
        OperatorFamily(dims, short,
                       np.zeros((4, 8, dims.loop, dims.loop)),
                       np.zeros((4, 8, dims.m, dims.loop)),
                       np.zeros((4, 8, dims.m, dims.m)))


def test_family_construction_stays_in_bounded_memory():
    # two basis sets, not 161 spline rows: the full S, C and D tables of
    # the (2, 2) family and their splines take over 100 MiB
    tracemalloc.start()
    try:
        random_operator_family(Dimensions(2, 2), seed=1003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def _blended_tables(left, right, w):
    """(S, C, D) tables left + w(s_i) (right - left), as from_asymptotes
    defines its family."""
    w = w[:, None, None, None]
    return [a[None] + w * (b - a)[None]
            for a, b in ((left.s, right.s), (left.c, right.c), (left.d, right.d))]


def _family_tables(fam):
    return _blended_tables(fam.left_asymptote(), fam.right_asymptote(),
                           0.5 * (1.0 + np.tanh(fam.s_grid)))


def _perturbed_tables(fam, seed, size=0.05):
    """_family_tables plus a smooth perturbation of full s-rank.

    Row i adds sum_j g(s_i - s_j) R_j with independent random loops R_j
    and a Gaussian g, damped to below 1e-15 on the outer tenth of the
    grid so the ends stay frozen.
    """
    rng = np.random.default_rng(seed)
    s = fam.s_grid
    mix = np.exp(-((s[:, None] - s[None, :]) / 0.5) ** 2)
    mix *= size * np.exp(-(s / 2.0) ** 2)[:, None]
    out = []
    for table, symmetric in zip(_family_tables(fam), (True, False, True)):
        noise = np.stack([random_trig_samples(rng, fam.n_theta, table.shape[2:],
                                              symmetric=symmetric) for _ in s])
        out.append(table + np.tensordot(mix, noise, axes=1))
    return out


def _componentwise_spline_return_data(dims, s_grid, tables, s_vals):
    """Reference: spline each table in s, build K, propagate."""
    s_vals = np.clip(s_vals, s_grid[0], s_grid[-1])
    samples = [CubicSpline(s_grid, t, axis=0)(s_vals) for t in tables]
    return return_data(dims, *generator_tables(dims, *samples))


@pytest.mark.parametrize("seed,dims", [(1001, Dimensions(2, 1)),
                                       (1003, Dimensions(2, 2))])
def test_table_family_matches_componentwise_spline(seed, dims):
    fam = random_operator_family(dims, seed=seed, n_theta=128)
    tables = _perturbed_tables(fam, seed)
    table_fam = OperatorFamily(dims, fam.s_grid, *tables)
    grid = fam.s_grid
    s_vals = np.concatenate([[grid[0] - 1.0], grid[::16], grid[-1:],
                             np.linspace(-3.1, 2.9, 13), [grid[-1] + 1.0]])
    got = table_fam.return_data_at(s_vals)
    want = _componentwise_spline_return_data(dims, grid, tables, s_vals)
    for g, w in zip(got, want):
        assert float(np.max(np.abs(g - w))) <= 1e-12 * float(np.max(np.abs(w)))
    # the perturbation is visible, and the frozen ends are the end rows
    plain = fam.return_data_at(s_vals)
    assert float(np.max(np.abs(plain[0] - got[0]))) > 1e-3
    np.testing.assert_array_equal(table_fam.left_asymptote().c, tables[1][0])
    np.testing.assert_array_equal(table_fam.right_asymptote().c, tables[1][-1])


def test_spectralflow_cli_reads_dense_family_file(tmp_path, capsys):
    fam = split_tanh_family(alpha=ALPHA, m=1, n_theta=64)
    s_table, c_table, d_table = _family_tables(fam)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({
        "kind": "dense_family", "n": 1, "m": 1, "s_grid": fam.s_grid.tolist(),
        "theta_grid": (np.arange(64) / 64).tolist(), "S": s_table.tolist(),
        "C": c_table.tolist(), "D": d_table.tolist()}))
    rc = main(["spectralflow", str(path), "--modes", "8", "--json"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["matrix"] == 1 and body["galerkin"] == 1


@pytest.mark.parametrize("build", ["tables", "profile"])
def test_drifting_ends_are_rejected(build):
    # a linear profile never freezes: its ends drift by 1e-1 per edge
    left, right = _anchor_coeffs(-1.0), _anchor_coeffs(1.0)
    ramp = lambda s: 0.5 + s / 32.0
    with pytest.raises(InvalidInput, match="asymptotically constant"):
        if build == "profile":
            OperatorFamily.from_asymptotes(left, right, profile=ramp)
        else:
            s_grid = np.linspace(-16.0, 16.0, 161)
            OperatorFamily(left.dims, s_grid,
                           *_blended_tables(left, right, ramp(s_grid)))
