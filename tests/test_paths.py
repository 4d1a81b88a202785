"""The evaluator rule: callbacks get a 1-D array, a scalar t is one entry.

Every constructor and combinator of paths.py, plus perturb_stratified,
OperatorFamily.return_path and BlendFamily.profile_path, is built
over recording callbacks where it takes any; a scalar t must give
exactly the first entry of the batch [t], and every callback must only
ever see 1-D float arrays.
"""

import numpy as np
import pytest

from sympind.coefficients import path_from_coefficients
from sympind.linalg import ExpCurve, standard_j
from sympind.paths import (KernelFamily, SnmPath, SymplecticPath, block_conjugator,
                           catenate, conjugate, constant_path, constant_stack, direct_sum,
                           exp_path, exp_shear_path, loop_multiply, reverse,
                           snm_direct_sum)
from sympind.rsindex import perturb_stratified
from sympind.snm import Dimensions, dual_slot_basis
from sympind.specflow import AsymptoticKernel, random_coefficients, split_tanh_family
from sympind.suites import stratified_corpus

J2 = standard_j(1)
S2 = np.array([[0.9, 0.2], [0.2, 0.5]])
CURVE = ExpCurve(J2 @ S2)
TURN = ExpCurve(J2 @ np.array([[0.3, -0.4], [-0.4, 0.7]]))
DIMS = Dimensions(1, 1)
PSI = ExpCurve(DIMS.j_loop() @ np.array([[0.8, 0.3], [0.3, -0.5]]))
X1 = np.array([[0.4], [-0.7]])
E1 = np.array([[0.9]])


def _base(rec, derivative=True):
    deriv = rec(lambda t: CURVE.generator @ CURVE(t)) if derivative else None
    return SymplecticPath((0.0, 1.0), rec(CURVE), deriv, jmat=J2)


def _snm(rec):
    return SnmPath(DIMS, rec(PSI), rec(lambda t: t[:, None, None] * X1),
                   rec(lambda t: t[:, None, None] * E1),
                   dpsi=rec(lambda t: PSI.generator @ PSI(t)),
                   dx=rec(lambda t: constant_stack(X1, t)),
                   de=rec(lambda t: constant_stack(E1, t)))


def _from_samples(rec):
    theta = np.linspace(0.0, 1.0, 17)
    snm = _snm(rec)
    return SnmPath.from_samples(DIMS, theta, snm.psi(theta), snm.x(theta), snm.e(theta))


def _catenate(rec):
    head = _base(rec)
    end = head(1.0)
    return catenate(head, SymplecticPath((0.0, 0.5), rec(lambda t: TURN(t) @ end), jmat=J2))


def _perturbed(rec):
    inst = stratified_corpus(seed=0, count=3)[2]  # family with both symplectic types
    fam = inst.family
    return perturb_stratified(inst.path, KernelFamily(rec(fam), fam.dim, fam.rank_omega),
                              inst.eps)


def _perturbed_snm(rec):
    fam = KernelFamily.dual_slot(DIMS)
    return perturb_stratified(_snm(rec).to_path(),
                              KernelFamily(rec(fam), fam.dim, fam.rank_omega))


def _return_path(rec):
    fam = split_tanh_family(n_theta=64)
    fam.return_data_at = rec(fam.return_data_at)
    return fam.return_path()


def _profile_path(rec):
    fam = split_tanh_family(n_theta=64)
    fam._profile_data = rec(fam._profile_data)
    return fam.profile_path()


PATHS = {
    "SymplecticPath": _base,
    "SymplecticPath-fd": lambda rec: _base(rec, derivative=False),
    "constant_path": lambda rec: constant_path(CURVE(0.4), jmat=J2),
    "exp_path": lambda rec: exp_path(S2, J2),
    "exp_path-phase": lambda rec: exp_path(S2, J2, phase=rec(lambda t: t * t),
                                           dphase=rec(lambda t: 2.0 * t)),
    "exp_shear_path": lambda rec: exp_shear_path(S2, E1).to_path(),
    "SnmPath.to_path": lambda rec: _snm(rec).to_path(),
    "SnmPath.from_samples": lambda rec: _from_samples(rec).to_path(),
    "SnmPath.flip_x": lambda rec: _snm(rec).flip_x().to_path(),
    "SnmPath.first_inverse_transform":
        lambda rec: _snm(rec).first_inverse_transform().to_path(),
    "SnmPath.variant_inverse_transform":
        lambda rec: _snm(rec).variant_inverse_transform().to_path(),
    "snm_direct_sum": lambda rec: snm_direct_sum(_snm(rec), _snm(rec)).to_path(),
    "catenate": _catenate,
    "direct_sum": lambda rec: direct_sum(_base(rec), _base(rec, derivative=False)),
    "reverse": lambda rec: reverse(_base(rec)),
    "conjugate": lambda rec: conjugate(_base(rec), TURN),
    "loop_multiply": lambda rec: loop_multiply(_base(rec), ExpCurve(2.0 * np.pi * J2)),
    "perturb_stratified": _perturbed,
    "perturb_stratified-snm": _perturbed_snm,
    "OperatorFamily.return_path": _return_path,
    "BlendFamily.profile_path": _profile_path,
}
# built from closed-form data only: no callback to record
CLOSED = {"constant_path", "exp_path", "exp_shear_path"}


def _recorder():
    seen = []

    def rec(fn):
        def wrapped(t):
            seen.append(t)
            return fn(t)
        return wrapped

    return rec, seen


def _probes(domain):
    a, b = domain
    return (a, a + 0.37 * (b - a), b)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_scalar_t_is_the_one_element_batch(name):
    path = PATHS[name](_recorder()[0])
    for t in _probes(path.domain):
        one = np.array([t])
        value, slope = path(t), path.deriv(t)
        assert value.shape == slope.shape == (path.size, path.size)
        np.testing.assert_array_equal(value, path(one)[0])
        np.testing.assert_array_equal(slope, path.deriv(one)[0])


@pytest.mark.parametrize("name", sorted(set(PATHS) - CLOSED))
def test_callbacks_see_only_1d_float_arrays(name):
    rec, seen = _recorder()
    path = PATHS[name](rec)
    ts = np.linspace(*path.domain, 5)
    for t in (path.domain[0], 0.5 * sum(path.domain), ts):
        path(t)
        path.deriv(t)
    assert seen
    for t in seen:
        assert isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == np.float64


@pytest.mark.parametrize("name", sorted(PATHS))
def test_empty_batch_is_an_empty_stack(name):
    path = PATHS[name](_recorder()[0])
    empty = np.array([])
    assert path(empty).shape == path.deriv(empty).shape == (0, path.size, path.size)


def test_snm_element_is_the_one_element_batch():
    rec, seen = _recorder()
    snm = _snm(rec)
    el = snm.element(0.3)
    one = np.array([0.3])
    np.testing.assert_array_equal(el.psi, snm.psi(one)[0])
    np.testing.assert_array_equal(el.x, snm.x(one)[0])
    np.testing.assert_array_equal(el.e, snm.e(one)[0])
    assert all(t.ndim == 1 for t in seen)


@pytest.mark.parametrize("family", [
    KernelFamily.constant(dual_slot_basis(DIMS), DIMS.j_ext()),
    KernelFamily.dual_slot(DIMS),
    KernelFamily.conjugated(dual_slot_basis(DIMS),
                            block_conjugator(DIMS, TURN, lambda t: np.eye(DIMS.m)), 0),
], ids=["constant", "dual_slot", "conjugated"])
def test_kernel_family_scalar_t_is_the_one_element_batch(family):
    for t in (0.0, 0.4, 1.0):
        frame = family(t)
        assert frame.shape == (DIMS.total, family.dim)
        np.testing.assert_array_equal(frame, family(np.array([t]))[0])


def test_asymptotic_kernel_loops_match_per_theta_products():
    rng = np.random.default_rng(5)
    for dims in (Dimensions(1, 1), Dimensions(2, 1), Dimensions(1, 2)):
        pd = path_from_coefficients(random_coefficients(dims, rng, n_theta=64))
        vectors = rng.standard_normal((dims.loop + dims.m, 3))
        kernel = AsymptoticKernel(3, vectors, pd.endpoint(), pd)
        thetas = np.linspace(0.0, 1.0, 11)
        snm = pd.to_snm_path()
        z0, ell = vectors[:dims.loop], vectors[dims.loop:]
        want = np.stack([snm.psi(t) @ (z0 + snm.x(t) @ ell) for t in thetas])
        np.testing.assert_array_equal(kernel.loops(thetas), want)
