"""Spectral flow by endpoint matrices and by Galerkin truncation."""

import numpy as np
import pytest

from sympind import (Dimensions, OperatorFamily, path_from_coefficients,
                     spectral_flow_galerkin, spectral_flow_matrix)
from sympind.errors import (DegenerateAsymptote, InvalidInput, ShapeError,
                            TruncationUnstable)
from sympind.specflow import (asymptotic_kernel, galerkin_kernel_dimension,
                              galerkin_matrix, main_theorem_check,
                              random_operator_family, split_tanh_family)

ALPHA = 1.2


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


def test_generator_skips_asymptotes_in_the_ambiguous_band():
    # the first draw of seed 6001 has a left asymptote at relative
    # monitored singular value 2.7e-5: no kernel at tol_sv, but inside
    # the band where find_crossings refuses it
    fam = random_operator_family(Dimensions(2, 1), seed=6001)
    left = path_from_coefficients(fam.left_asymptote())
    right = path_from_coefficients(fam.right_asymptote())
    assert main_theorem_check(left, right, fam).ok


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
