"""Subgroup elements: assembly, recognition, group law, strata."""

import numpy as np
import pytest
from scipy.linalg import expm

from sympind import Dimensions, SnmElement, standard_j
from sympind.errors import (DimensionMismatch, NegativeStratum, NotInSubgroup,
                            NotSymplectic, ShapeError)
from sympind.linalg import random_symmetric, symplectic_defect
from sympind.snm import assemble_blocks, dual_slot_basis, reduced_return_matrix


def _random_element(rng, dims, scale=0.9):
    j0 = dims.j_loop()
    psi = expm(j0 @ random_symmetric(rng, dims.loop, scale))
    x = rng.standard_normal((dims.loop, dims.m)) * scale
    e = random_symmetric(rng, dims.m, scale)
    return SnmElement(dims, psi, x, e)


def test_assembled_matrix_is_extended_symplectic():
    rng = np.random.default_rng(0)
    for dims in (Dimensions(1, 1), Dimensions(2, 1), Dimensions(1, 2)):
        el = _random_element(rng, dims)
        m = el.to_matrix()
        assert m.shape == (dims.total, dims.total)
        assert symplectic_defect(m, dims.j_ext()) < 1e-10


def test_dual_slot_always_in_kernel():
    rng = np.random.default_rng(1)
    dims = Dimensions(2, 2)
    el = _random_element(rng, dims)
    m = el.to_matrix()
    basis = dual_slot_basis(dims)
    assert float(np.max(np.abs((m - np.eye(dims.total)) @ basis))) < 1e-12


def test_from_matrix_roundtrip():
    rng = np.random.default_rng(2)
    dims = Dimensions(2, 1)
    el = _random_element(rng, dims)
    back = SnmElement.from_matrix(el.to_matrix(), dims)
    np.testing.assert_allclose(back.psi, el.psi, atol=1e-10)
    np.testing.assert_allclose(back.x, el.x, atol=1e-10)
    np.testing.assert_allclose(back.e, el.e, atol=1e-10)


def test_from_matrix_rejects_broken_blocks():
    dims = Dimensions(1, 1)
    el = SnmElement.identity(dims)
    m = el.to_matrix().copy()
    m[2, 0] = 0.5  # parameter row must stay (0, I, 0)
    with pytest.raises(ShapeError):
        SnmElement.from_matrix(m, dims)


def test_from_matrix_rejects_non_symplectic():
    dims = Dimensions(1, 1)
    m = np.eye(dims.total)
    m[0, 0] = 2.0  # breaks the loop block without touching frozen rows
    with pytest.raises(NotSymplectic):
        SnmElement.from_matrix(m, dims)


def test_constructor_rejects_asymmetric_e():
    dims = Dimensions(1, 2)
    with pytest.raises(NotInSubgroup):
        SnmElement(dims, np.eye(2), np.zeros((2, 2)),
                   np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_constructor_rejects_wrong_psi_shape():
    with pytest.raises(ShapeError):
        SnmElement(Dimensions(2, 1), np.eye(2), np.zeros((4, 1)), np.zeros((1, 1)))


def test_inverse_is_group_inverse():
    rng = np.random.default_rng(4)
    dims = Dimensions(2, 1)
    a = _random_element(rng, dims)
    prod = a.to_matrix() @ a.inverse().to_matrix()
    np.testing.assert_allclose(prod, np.eye(dims.total), atol=1e-9)


def test_stratum_identity_and_generic():
    dims = Dimensions(2, 1)
    assert SnmElement.identity(dims).stratum() == 2 * dims.n + dims.m
    rng = np.random.default_rng(5)
    el = _random_element(rng, dims)
    assert el.stratum() == 0  # generic elements sit on the open stratum


def test_negative_stratum_guard(monkeypatch):
    # The dual slot is an exact zero column of M - I, so a genuine input
    # cannot undershoot; the guard protects against rank miscounts.
    dims = Dimensions(1, 1)
    rng = np.random.default_rng(6)
    el = _random_element(rng, dims)
    monkeypatch.setattr("sympind.snm.linalg.kernel_dimension",
                        lambda mat, tol: 0)
    with pytest.raises(NegativeStratum):
        el.stratum()


def test_reduced_return_matrix_determinant_example():
    # reduced endpoint determinant of the hyperbolic shear family
    dims = Dimensions(1, 1)
    for a, b in ((0.0, 0.0), (1.0, -0.5), (2.0, 1.5)):
        el = SnmElement(dims, np.diag([2.0, 0.5]), np.array([[a], [b]]),
                        np.array([[1.0]]), validate=False)
        det = float(np.linalg.det(reduced_return_matrix(el)))
        assert abs(det - (-0.5 + 1.5 * a * b)) < 1e-12


def test_assemble_blocks_layout():
    dims = Dimensions(1, 1)
    psi = np.array([[1.0, 0.3], [0.0, 1.0]])
    x = np.array([[0.2], [0.4]])
    e = np.array([[0.7]])
    m = assemble_blocks(dims, psi, x, e)
    np.testing.assert_allclose(m[:2, :2], psi, atol=1e-15)
    np.testing.assert_allclose(m[:2, 2:3], psi @ x, atol=1e-15)
    j0 = standard_j(1)
    np.testing.assert_allclose(m[3:, :2], x.T @ j0, atol=1e-15)
    np.testing.assert_allclose(m[3:, 2:3], e + 0.5 * (x.T @ j0 @ x), atol=1e-15)
