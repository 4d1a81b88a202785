"""Small dense symplectic linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from sympind import inertia, signature, standard_j, sym_part
from sympind import linalg
from sympind.linalg import (ExpCurve, kernel_basis, kernel_dimension,
                            random_orthogonal, random_symmetric,
                            random_symplectic,
                            symplectic_defect, symplectic_inverse)


def test_standard_j_square():
    for n in (1, 2, 3):
        j = standard_j(n)
        assert j.shape == (2 * n, 2 * n)
        np.testing.assert_allclose(j @ j, -np.eye(2 * n), atol=1e-15)
        np.testing.assert_allclose(j.T, -j, atol=1e-15)


def test_standard_j_extended_blocks():
    j = standard_j(1, 2, extended=True)
    assert j.shape == (6, 6)
    np.testing.assert_allclose(j[:2, :2], standard_j(1), atol=1e-15)
    # the parameter pairing couples the two dual slots antisymmetrically
    np.testing.assert_allclose(j @ j, -np.eye(6), atol=1e-15)
    np.testing.assert_allclose(j.T, -j, atol=1e-15)


def test_inertia_constructed_spectrum():
    q = random_orthogonal(np.random.default_rng(5), 5)
    s = q @ np.diag([2.0, 0.5, 0.0, -1.0, -3.0]) @ q.T
    res = inertia(s)
    assert (res.positive, res.zero, res.negative) == (2, 1, 2)
    assert res.signature == 0
    assert signature(s) == 0


def test_signature_threshold_band():
    s = np.diag([1.0, 1e-12, -1.0])
    assert signature(s, tol_eig=1e-8) == 0
    assert inertia(s, tol_eig=1e-8).zero == 1
    assert signature(s, tol_eig=1e-14) == 1


def test_kernel_basis_orthonormal_and_annihilated():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 3))
    m = a @ a.T  # rank 3, kernel dimension 2
    basis = kernel_basis(m, tol_sv=1e-10)
    assert basis.shape == (5, 2)
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    assert float(np.max(np.abs(m @ basis))) < 1e-10
    assert kernel_dimension(m, tol_sv=1e-10) == 2
    # SnmElement.stratum hands a single matrix's count on as an int
    assert type(kernel_dimension(m, tol_sv=1e-10)) is int

    batch = np.stack([m, np.eye(5), np.zeros((5, 5)), m - np.eye(5)])
    counts = kernel_dimension(batch, tol_sv=1e-10)
    assert counts.shape == (4,)
    assert counts.tolist() == [kernel_dimension(b, tol_sv=1e-10) for b in batch]
    assert counts.tolist()[:3] == [2, 0, 5]


def test_symplectic_inverse_vs_solve():
    rng = np.random.default_rng(7)
    j = standard_j(2)
    m = random_symplectic(rng, j)
    assert symplectic_defect(m, j) < 1e-12
    np.testing.assert_allclose(symplectic_inverse(m, j), np.linalg.inv(m),
                               atol=1e-10)


def test_random_orthogonal_is_orthogonal():
    q = random_orthogonal(np.random.default_rng(3), 4)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)


def test_exp_curve_matches_expm():
    rng = np.random.default_rng(9)
    j = standard_j(2)
    gen = j @ random_symmetric(rng, 4)
    curve = ExpCurve(gen)
    for phi in (-1.3, 0.0, 0.4, 2.7):
        np.testing.assert_allclose(curve(phi), expm(phi * gen), atol=1e-11)
    batch = curve(np.array([0.1, 0.2]))
    assert batch.shape == (2, 4, 4)
    np.testing.assert_allclose(batch[0], expm(0.1 * gen), atol=1e-11)


def test_exp_curve_defective_generator_falls_back_to_expm():
    gen = np.array([[0.0, 1.0], [0.0, 0.0]])
    curve = ExpCurve(gen)
    assert not curve._ok
    for phi in (-1.3, 0.0, 0.4, 2.7):
        np.testing.assert_allclose(curve(phi), np.eye(2) + phi * gen,
                                   rtol=0, atol=1e-15)
    assert curve(np.array([0.1, 0.2])).shape == (2, 2, 2)


def _hamiltonian_draws(count=300):
    """J S for random symmetric S, n = 1..3, at the suites' scales 0.7-1.0."""
    rng = np.random.default_rng(2005)
    for n in (1, 2, 3):
        j = standard_j(n)
        for _ in range(count):
            yield rng, j @ random_symmetric(rng, 2 * n, 0.7 + 0.3 * rng.random())


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_expm_matches_scipy_at_suite_scales():
    worst = max(_relative_error(linalg.expm(a), expm(a)) for _, a in _hamiltonian_draws())
    assert worst <= 1e-13


def test_expm_matches_scipy_through_squaring():
    # ||A||_1 up to 60 takes up to four squarings; at this size the
    # reference itself is off by a few 1e-12 from a 40-digit expm
    worst = 0.0
    for rng, a in _hamiltonian_draws():
        a = a * (60.0 * rng.random() / np.linalg.norm(a, 1))
        worst = max(worst, _relative_error(linalg.expm(a), expm(a)))
    assert worst <= 1e-11


def test_expm_of_zero_and_empty():
    assert np.array_equal(linalg.expm(np.zeros((4, 4))), np.eye(4))
    assert linalg.expm(np.zeros((0, 0))).shape == (0, 0)


def test_random_symplectic_defect_at_suite_scales():
    rng = np.random.default_rng(2009)
    for n in (1, 2, 3):
        j = standard_j(n)
        for _ in range(300):
            m = random_symplectic(rng, j, 0.7 + 0.3 * rng.random())
            assert symplectic_defect(m, j) <= 1e-13


symmetric_entries = st.floats(min_value=-5.0, max_value=5.0,
                              allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_signature_odd_under_negation(seed):
    s = random_symmetric(np.random.default_rng(seed), 4)
    assert signature(-s) == -signature(s)
    assert abs(signature(s)) <= 4


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_signature_orthogonal_invariance(seed):
    rng = np.random.default_rng(seed)
    s = random_symmetric(rng, 4)
    q = random_orthogonal(rng, 4)
    assert signature(q @ s @ q.T) == signature(s)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_symplectic_preserves_form(seed):
    rng = np.random.default_rng(seed)
    j = standard_j(2)
    m = random_symplectic(rng, j)
    assert symplectic_defect(m, j) < 1e-9


def test_sym_part_idempotent():
    a = np.arange(9.0).reshape(3, 3)
    s = sym_part(a)
    np.testing.assert_allclose(s, s.T, atol=1e-15)
    np.testing.assert_allclose(sym_part(s), s, atol=1e-15)
