"""Model system constructors and their critical loops."""

import numpy as np
import pytest

from sympind import (RabinowitzData, check_critical_point,
                     linearized_flow_path, rabinowitz_block_path)
from sympind.errors import InvalidInput, ShapeError
from sympind.systems import (quadratic_system, radial_system,
                             random_quadratic_system, split_system)


def test_split_point_is_critical():
    sys_, pt = split_system(np.diag([0.9, 0.4]), np.array([[0.7]]))
    assert check_critical_point(sys_, pt).ok
    assert np.all(pt.gamma == 0.0) and np.all(pt.lam == 0.0)


def test_split_shape_and_symmetry_validation():
    with pytest.raises(ShapeError):
        split_system(np.eye(3), np.array([[1.0]]))
    with pytest.raises(InvalidInput):
        split_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0]]))
    with pytest.raises(InvalidInput):
        split_system(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_quadratic_coupling_shape_validation():
    with pytest.raises(ShapeError):
        quadratic_system(np.eye(2), np.zeros((1, 3)), np.array([[1.0]]))
    sys_, pt = quadratic_system(np.eye(2), np.array([[0.4, 0.0]]),
                                np.array([[1.0]]))
    assert check_critical_point(sys_, pt).ok


def test_radial_linearization_equals_shear_block():
    slope, curvature, turns = -1.0, 0.5, 1
    sys_, pt = radial_system(slope, curvature, turns=turns)
    pd = linearized_flow_path(sys_, pt)
    lam = -2.0 * np.pi * turns / slope
    block = rabinowitz_block_path(RabinowitzData(lam, slope, curvature)).to_path()
    diff = float(np.max(np.abs(pd.assembled() - block(pd.theta))))
    assert diff < 1e-12


def test_radial_explicit_multiplier_stays_critical():
    sys_, pt = radial_system(slope=0.8, curvature=-0.3, lam=2.2)
    assert pt.lam[0] == 2.2
    assert check_critical_point(sys_, pt).ok
    assert abs(pt.winding[1] + 2.2 * 0.8) < 1e-12


def test_radial_rejects_flat_level():
    with pytest.raises(InvalidInput):
        radial_system(slope=0.0, curvature=1.0)


def test_random_quadratic_is_seed_deterministic():
    a, _ = random_quadratic_system(1, 1, np.random.default_rng(9))
    b, _ = random_quadratic_system(1, 1, np.random.default_rng(9))
    t = np.array([0.1])
    x = np.array([[0.3, -0.2]])
    lam = np.array([0.5])
    np.testing.assert_array_equal(a.jac_x(t, x, lam), b.jac_x(t, x, lam))
    np.testing.assert_array_equal(a.vector_field(t, x, lam),
                                  b.vector_field(t, x, lam))
