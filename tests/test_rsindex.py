"""Index values against closed forms and the perturbation oracle."""

import re

import numpy as np
import pytest

from sympind import (HalfInteger, KernelFamily, SymplecticPath, catenate,
                     constant_path, direct_sum, conjugate, exp_path,
                     exp_shear_path, loop_multiply, perturb_stratified, reverse,
                     rs_index, rs_index_stratified, snm_index)
from sympind.errors import (ContainmentError, JunctionMismatch, RankDrift,
                            SymplecticityLoss)
from sympind.linalg import ExpCurve, random_orthogonal, standard_j
from sympind.paths import constant_stack
from sympind.snm import dual_slot_basis
from sympind.suites import stratified_corpus

J2 = standard_j(1)
EYE2 = np.eye(2)
TWO_PI = 2.0 * np.pi


def _rotation(rate, offset=0.0):
    return exp_path(EYE2, J2, phase=lambda t: offset + rate * t,
                    dphase=lambda t: np.full_like(t, rate))


@pytest.mark.parametrize("svals,eval_", [
    ((0.7, 0.4), 0.6),     # sig S = 2, sig E = 1  -> 3/2
    ((0.7, -0.4), -0.6),   # sig S = 0, sig E = -1 -> -1/2
    ((-0.7, -0.4), 0.6),   # sig S = -2, sig E = 1 -> -1/2
    ((-0.7, -0.4), -0.6),  # sig S = -2, sig E = -1 -> -3/2
])
def test_shear_family_index_is_half_total_signature(svals, eval_):
    rng = np.random.default_rng(7)
    q = random_orthogonal(rng, 2)
    s = q @ np.diag(svals) @ q.T
    res = snm_index(exp_shear_path(s, np.array([[eval_]])))
    want = int(np.sign(svals[0]) + np.sign(svals[1]) + np.sign(eval_))
    assert res.value == HalfInteger(want)
    assert [c.at_endpoint for c in res.crossings] == ["start"]
    assert res.recompute_twice() == res.value.twice


def test_shear_family_with_two_parameter_slots():
    s = np.diag([0.8, 0.5])
    e = np.diag([0.5, -0.3])
    res = snm_index(exp_shear_path(s, e))
    assert res.value == HalfInteger(2)  # (2 + 0) / 2


def test_crossing_free_path_has_zero_index():
    res = rs_index(_rotation(0.4, offset=0.3))
    assert res.value == HalfInteger(0)
    assert res.crossings == []


def test_catenation_is_additive():
    rate = 2.6 * np.pi
    p = _rotation(rate)                 # start + one interior turn: 3
    q = _rotation(rate, offset=rate)    # one interior turn: 2
    mp, mq = rs_index(p), rs_index(q)
    assert (mp.value, mq.value) == (HalfInteger(6), HalfInteger(4))
    cat = rs_index(catenate(p, q))
    assert cat.value == mp.value + mq.value


def test_reverse_negates_interior_crossings():
    p = _rotation(TWO_PI, offset=0.3)
    assert rs_index(p).value == HalfInteger(4)
    assert rs_index(reverse(p)).value == HalfInteger(-4)


def test_conjugation_invariance():
    p = _rotation(TWO_PI, offset=0.3)
    rng = np.random.default_rng(11)
    gen = rng.standard_normal((2, 2))
    curve = ExpCurve(J2 @ (gen + gen.T) * 0.3)
    moved = conjugate(p, lambda t: curve(np.asarray(t, dtype=float)))
    assert rs_index(moved).value == rs_index(p).value


@pytest.mark.parametrize("winding", [1, -1])
def test_loop_multiplication_shifts_by_twice_winding(winding):
    base = _rotation(0.1, offset=0.3)
    curve = ExpCurve(winding * TWO_PI * J2)
    prod = loop_multiply(base, lambda t: curve(np.asarray(t, dtype=float)))
    assert rs_index(prod).value == HalfInteger(4 * winding)


def test_direct_sum_is_additive():
    p = _rotation(TWO_PI, offset=0.3)   # index 2
    q = _rotation(0.4, offset=0.2)      # index 0
    assert rs_index(direct_sum(p, q)).value == HalfInteger(4)
    both = rs_index(direct_sum(p, p))   # crossings coincide in t
    assert both.value == HalfInteger(8)


def test_stratified_index_matches_perturbation_oracle():
    for inst in stratified_corpus(seed=3, count=3):
        strat = rs_index_stratified(inst.path, inst.family)
        flat = rs_index(perturb_stratified(inst.path, inst.family, inst.eps))
        assert strat.value == flat.value, inst.label
        assert strat.stratum_floor == inst.family.dim


def test_family_outside_kernel_is_rejected():
    p = _rotation(TWO_PI, offset=0.3)
    basis = np.array([[1.0], [0.0]])
    fam = KernelFamily.constant(basis, J2)
    with pytest.raises(ContainmentError):
        rs_index_stratified(p, fam, validate=True)


def _tilted_dual_slot(dims, angle):
    """The dual-slot frame turned towards the first loop direction by
    angle(t) radians; it leaves the kernel wherever the angle is not 0."""
    base = dual_slot_basis(dims)[:, 0]
    away = np.eye(dims.total)[0]

    def evaluate(t):
        a = angle(t)[:, None, None]
        return np.cos(a) * base[:, None] + np.sin(a) * away[:, None]

    return KernelFamily(evaluate, 1, 0)


def _reference_containment_error(path, family, tol_sv):
    """The containment verdict with the SVD of M - I at every sample."""
    ts = np.linspace(*path.domain, path.sample_hint + 1)
    ms, bs = path(ts), family(ts)
    eye = np.eye(path.size)
    allowed = tol_sv * np.maximum(np.linalg.svd(ms - eye, compute_uv=False)[:, 0], 1.0)
    worst = np.max(np.abs((ms - eye) @ bs), axis=(-1, -2))
    if not np.any(worst > allowed):
        return None, worst
    i = int(np.argmax(worst - allowed))
    return f"family leaves the kernel by {worst[i]:.3e} at t={ts[i]:.6g}", worst


def test_family_leaving_the_kernel_is_reported_where_it_leaves():
    shear = exp_shear_path(np.diag([2.5, 1.5]), np.array([[0.6]]))
    path = shear.to_path()
    leaving = _tilted_dual_slot(shear.dims, lambda t: 1e-6 * np.maximum(t - 0.6, 0.0))
    want, _ = _reference_containment_error(path, leaving, 1e-8)
    assert want is not None
    with pytest.raises(ContainmentError, match=f"^{re.escape(want)}$"):
        rs_index_stratified(path, leaving, tol_sv=1e-8, validate=True)


def test_residual_between_tol_sv_and_its_cut_passes():
    # a frame turned by 0.9 tol_sv: residuals up to 0.9 tol_sv |M - I|,
    # above tol_sv at some samples but below tol_sv sigma_max everywhere
    shear = exp_shear_path(np.diag([2.5, 1.5]), np.array([[0.6]]))
    path = shear.to_path()
    tilted = _tilted_dual_slot(shear.dims, lambda t: np.full_like(t, 0.9e-8))
    want, worst = _reference_containment_error(path, tilted, 1e-8)
    assert want is None and np.any(worst > 1e-8)
    res = rs_index_stratified(path, tilted, tol_sv=1e-8, validate=True)
    assert res.value == snm_index(shear).value


def test_index_call_evaluates_its_scan_grid_once(counted):
    # the defect check, the family validation and the crossing scan
    # share one batch of the path on the scan grid
    shear = exp_shear_path(np.diag([0.8, 0.5]), np.array([[0.6]]))
    path, sizes = counted(shear.to_path())
    res = rs_index_stratified(path, KernelFamily.dual_slot(shear.dims),
                              validate=True)
    assert res.value == snm_index(shear).value
    assert sizes.count(path.sample_hint + 1) == 1


# --- documented error codes, reached through the public API ---------------

def test_catenating_paths_whose_ends_differ_is_refused():
    with pytest.raises(JunctionMismatch) as exc:
        catenate(_rotation(1.0), _rotation(1.0, offset=0.5))
    assert exc.value.code == "JUNCTION_MISMATCH"


def test_index_of_a_path_off_the_group_is_refused():
    rot = _rotation(1.0)
    doubled = SymplecticPath(rot.domain, lambda t: 2.0 * rot(t), jmat=J2)
    with pytest.raises(SymplecticityLoss) as exc:
        rs_index_stratified(doubled, KernelFamily.constant(np.zeros((2, 0)), J2))
    assert exc.value.code == "SYMPLECTICITY_LOSS"


def test_family_of_the_wrong_symplectic_rank_is_refused():
    # ker(I - I) is all of R^4; span(e_q1, e_p1) has omega-rank 2, not 0
    j4 = standard_j(2)
    frame = np.eye(4)[:, [0, 2]]
    assert np.linalg.matrix_rank(frame.T @ j4 @ frame) == 2
    family = KernelFamily(lambda t: constant_stack(frame, t), 2, 0)
    with pytest.raises(RankDrift) as exc:
        rs_index_stratified(constant_path(np.eye(4), jmat=j4), family, validate=True)
    assert exc.value.code == "RANK_DRIFT"
