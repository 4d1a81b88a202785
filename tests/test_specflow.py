"""Spectral flow by endpoint matrices and by Galerkin truncation."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from sympind import (Dimensions, KernelFamily, OperatorCoefficients,
                     OperatorFamily, coefficients, path_from_coefficients,
                     rs_index_stratified, spectral_flow_galerkin,
                     spectral_flow_matrix, specflow)
from sympind.cli import main
from sympind.coefficients import generator_tables, return_data
from sympind.errors import (DegenerateAsymptote, InvalidInput, ShapeError,
                            TruncationUnstable)
from sympind.linalg import inertia, sym_part
from sympind.specflow import (FLOW_TOL_SV, asymptotic_kernel, fourier_profiles,
                              galerkin_matrix, main_theorem_check,
                              random_operator_family, random_trig_samples,
                              split_tanh_family)

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


@pytest.mark.parametrize("seed,dims", [(1000, Dimensions(1, 1)),
                                       (1003, Dimensions(2, 2))])
def test_galerkin_flow_assembles_each_end_once(seed, dims, monkeypatch):
    # the smaller matrix is a slice of the wider one, so its inertia is
    # that of the matrix assembled directly at modes
    fam = random_operator_family(dims, seed=seed)
    modes = 12
    want = {k: (inertia(galerkin_matrix(fam.left_asymptote(), k), 1e-8).negative
                - inertia(galerkin_matrix(fam.right_asymptote(), k), 1e-8).negative)
            for k in (modes, modes + specflow.GALERKIN_GAP)}
    calls = []
    real = specflow.galerkin_matrix

    def counting(coeffs, k):
        calls.append(k)
        return real(coeffs, k)

    monkeypatch.setattr(specflow, "galerkin_matrix", counting)
    res = spectral_flow_galerkin(fam, modes=modes)
    assert calls == [modes + specflow.GALERKIN_GAP] * 2
    assert res.details["negatives_by_modes"] == want


def test_degenerate_asymptote_found_by_both_methods():
    degenerate = _anchor_coeffs(0.0)
    kern = asymptotic_kernel(degenerate)
    assert kern.dimension == 1
    # kernel element is the pure parameter direction: loop part vanishes
    assert float(np.max(np.abs(kern.loops(np.linspace(0, 1, 9))))) < 1e-9
    assert abs(abs(kern.vectors[-1, 0]) - 1.0) < 1e-9
    assert inertia(galerkin_matrix(degenerate, 8), 1e-6).zero == 1

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


def test_affine_increments_are_formed_once_per_family(monkeypatch):
    # the table is built with the family; a scan grid and a short batch
    # only combine it
    calls = []

    def counting(*args, _real=coefficients._step_increments):
        calls.append(args[1].shape)
        return _real(*args)

    monkeypatch.setattr(coefficients, "_step_increments", counting)
    rng = np.random.default_rng(5)
    left, right = (specflow.random_coefficients(Dimensions(1, 1), rng)
                   for _ in range(2))
    fam = OperatorFamily.from_asymptotes(left, right)
    fam.return_data_at(np.linspace(fam.s_min, fam.s_max, 513))
    fam.return_data_at(np.array([-1.0, 0.0, 1.0]))
    assert calls == [(5, 512, 3, 3)]


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


def _s_scan(fam):
    """The s-scan of the return path at its 512 intervals, by public calls."""
    return rs_index_stratified(fam.return_path(), KernelFamily.dual_slot(fam.dims),
                               tol_sv=FLOW_TOL_SV, validate=False)


_SCAN_FAMILIES = [(seed, Dimensions(*((1, 1), (2, 1), (1, 2), (2, 2))[seed % 4]))
                  for seed in range(1000, 1008)] + [(9007, Dimensions(2, 2)),
                                                    (None, Dimensions(1, 1))]


@pytest.mark.parametrize("seed,dims", _SCAN_FAMILIES)
def test_w_scan_matches_the_s_scan(seed, dims):
    # flow does not change under the reparametrization s -> w^(s); each
    # crossing maps back to the s-scan's instant and path form
    fam = (split_tanh_family(alpha=ALPHA) if seed is None
           else random_operator_family(dims, seed=seed))
    res = spectral_flow_matrix(fam)
    want = _s_scan(fam)
    assert res.details["scan"] == "w" and res.details["index"].samples == 128
    assert res.value == want.value.as_int()
    assert ([(c.kernel_dim, c.signature) for c in res.crossings]
            == [(c.kernel_dim, c.signature) for c in want.crossings])
    for got, ref in zip(res.crossings, want.crossings):
        assert abs(got.s - ref.t) <= 1e-10
        assert np.max(np.abs(got.form_path - ref.form)) <= 1e-6
        assert max(got.block_deviation, got.reduced_deviation) <= 1e-6


def test_w_scan_crossing_reproduces_its_matrix_at_s():
    # the w-path and return_data_at share one w^ and one increment table
    fam = random_operator_family(Dimensions(2, 2), seed=1003)
    res = spectral_flow_matrix(fam)
    (rep,) = res.details["index"].crossings
    (crossing,) = res.crossings
    np.testing.assert_allclose(fam.return_path()(crossing.s), fam.profile_path()(rep.t),
                               rtol=0.0, atol=1e-12)
    assert abs(fam.profile(np.array([crossing.s]))[0] - rep.t) <= 1e-15


def test_table_family_keeps_the_s_scan():
    fam = split_tanh_family(alpha=ALPHA, n_theta=64)
    table_fam = OperatorFamily(fam.dims, fam.s_grid, *_family_tables(fam))
    assert table_fam.profile is None
    with pytest.raises(InvalidInput):
        table_fam.profile_path()
    res = spectral_flow_matrix(table_fam)
    assert res.details["scan"] == "s" and res.details["index"].samples == 512
    assert res.value == 1


def test_non_monotone_profile_keeps_the_s_scan():
    # a table family blended by w = (1 + tanh s)/2 - s exp(-s^2), which
    # passes 1/2 down at s = 0 and up at s = +-0.95: three crossings of
    # the anchor, flow +1
    left, right = _anchor_coeffs(-1.0), _anchor_coeffs(1.0)
    s_grid = np.linspace(-16.0, 16.0, 161)
    w = 0.5 * (1.0 + np.tanh(s_grid)) - s_grid * np.exp(-s_grid * s_grid)
    fam = OperatorFamily(left.dims, s_grid, *_blended_tables(left, right, w))
    res = spectral_flow_matrix(fam)
    assert res.details["scan"] == "s" and res.details["index"].samples == 512
    assert res.value == 1
    assert [c.signature for c in res.crossings] == [1, -1, 1]
    assert abs(res.crossings[1].s) < 1e-9


def test_w_scan_propagates_fewer_rows(monkeypatch):
    # family 1003: the 17 series nodes and the 3 finite-difference rows of
    # its one crossing go through the increment table (159 rows for a scan
    # of the exact w-path, 546 for the s-scan, whose grid alone has 513)
    rows = []
    real = coefficients.AffineIncrements.return_data

    def counting(self, w):
        rows.append(len(w))
        return real(self, w)

    fam = random_operator_family(Dimensions(2, 2), seed=1003)
    monkeypatch.setattr(coefficients.AffineIncrements, "return_data", counting)
    spectral_flow_matrix(fam)
    assert sum(rows) == 20


@pytest.mark.parametrize("seed,dims", _SCAN_FAMILIES)
def test_profile_series_matches_the_exact_path(seed, dims):
    # F is entire in w, so its series agrees with F to rounding on the scan
    # grid, and the series' derivative with F's central differences
    fam = (split_tanh_family(alpha=ALPHA) if seed is None
           else random_operator_family(dims, seed=seed))
    path = fam.profile_path()
    w = np.linspace(*path.domain, specflow.W_SCAN_INTERVALS + 1)
    exact = fam._profile_values(w)
    assert np.max(np.abs(path(w) - exact)) <= 1e-12 * np.max(np.abs(exact))
    h = specflow.FD_S_FACTOR * (path.domain[1] - path.domain[0])
    inner = w[1:-1]
    central = (fam._profile_values(inner + h) - fam._profile_values(inner - h)) / (2 * h)
    assert np.max(np.abs(path.deriv(inner) - central)) <= 1e-6


def test_unconverged_series_falls_back_to_the_exact_path(monkeypatch):
    # family 1002 has two crossings; with no tail small enough the series
    # is refitted up to its cap and the scan runs on F itself
    dims = Dimensions(1, 2)
    res = spectral_flow_matrix(random_operator_family(dims, seed=1002))
    assert res.details["series_nodes"] == specflow.SERIES_DEGREE + 1
    assert res.details["series_tail"] <= specflow.SERIES_TAIL_TOL
    monkeypatch.setattr(specflow, "SERIES_TAIL_TOL", 0.0)
    fam = random_operator_family(dims, seed=1002)
    exact = spectral_flow_matrix(fam)
    assert fam.profile_series.nodes == specflow.SERIES_MAX_DEGREE + 1
    assert exact.details["series_nodes"] is None
    assert exact.details["series_tail"] > 0.0
    assert exact.value == res.value
    assert ([(c.kernel_dim, c.signature) for c in exact.crossings]
            == [(c.kernel_dim, c.signature) for c in res.crossings])
    assert len(res.crossings) == 2
    for got, ref in zip(exact.crossings, res.crossings):
        assert abs(got.s - ref.s) <= 1e-10


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


def _combined_sets(fam, sets, s):
    """(S, C, D) at s as sum_j u_j(s) B_j over the family's basis sets."""
    idx, u = fam._weights(np.array([float(s)]))
    return [specflow._combine(b, idx, u)[0] for b in sets]


def test_coefficients_are_read_back_exactly_from_the_node_tables():
    rng = np.random.default_rng(1001)
    left, right = (specflow.random_coefficients(Dimensions(2, 1), rng, n_theta=64)
                   for _ in range(2))
    fam = OperatorFamily.from_asymptotes(left, right)
    tables = _family_tables(fam)
    table_fam = OperatorFamily(fam.dims, fam.s_grid, *tables)
    table_sets = [np.concatenate([t, specflow._spline_slopes(fam.s_grid, t)])
                  for t in tables]
    affine_sets = [np.stack([a, b - a]) for a, b in
                   ((left.s, right.s), (left.c, right.c), (left.d, right.d))]
    for family, sets in ((table_fam, table_sets), (fam, affine_sets)):
        for s in (fam.s_min - 1.0, fam.s_min, -2.3, fam.s_grid[70], 0.61, fam.s_max):
            got = family.coefficients_at(s)
            want = OperatorCoefficients(fam.dims, *_combined_sets(family, sets, s))
            for name in "scd":
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    for name, table in zip("scd", tables):
        np.testing.assert_array_equal(getattr(table_fam.left_asymptote(), name), table[0])
        np.testing.assert_array_equal(getattr(table_fam.right_asymptote(), name), table[-1])


def test_table_family_keeps_only_its_k_tables():
    # the (2, 2) family on 161 x 512: node and midpoint K tables of the
    # 322 basis sets take 95 MB; the sets themselves would add 37 MB
    fam = random_operator_family(Dimensions(2, 2), seed=1003)
    tables = _family_tables(fam)
    tracemalloc.start()
    try:
        table_fam = OperatorFamily(fam.dims, fam.s_grid, *tables)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table_fam.n_theta == 512
    assert held < 100 * 2 ** 20


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


def test_drifting_ends_are_rejected():
    # a linear blend never freezes: its ends drift by 1e-1 per edge
    left, right = _anchor_coeffs(-1.0), _anchor_coeffs(1.0)
    s_grid = np.linspace(-16.0, 16.0, 161)
    with pytest.raises(InvalidInput, match="asymptotically constant"):
        OperatorFamily(left.dims, s_grid,
                       *_blended_tables(left, right, 0.5 + s_grid / 32.0))


def test_every_affine_family_shares_one_increasing_frozen_profile():
    # the shared profile is inverted piece by piece, its control points
    # bound the increment table's interval [0, 1], and its ends are
    # frozen far below the edge check of a table family
    fam = split_tanh_family(alpha=ALPHA, n_theta=64)
    profile = fam.profile
    assert random_operator_family(Dimensions(1, 1), seed=1000).profile is profile
    assert fam.s_grid is profile.s_grid
    assert np.all(np.diff(profile.w) > 0.0)
    assert np.all(np.diff(profile.control, axis=1) > 0.0)
    assert 0.0 < profile.control.min() and profile.control.max() < 1.0
    edge = max(2, int(np.ceil(specflow.EDGE_FRACTION * len(profile.w))))
    assert np.max(np.abs(profile.w[:edge] - profile.w[0])) <= 1e-11
    assert np.max(np.abs(profile.w[-edge:] - profile.w[-1])) <= 1e-11
