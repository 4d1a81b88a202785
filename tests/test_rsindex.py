"""Index values against closed forms and the perturbation oracle."""

import numpy as np
import pytest

from sympind import (HalfInteger, KernelFamily, catenate, direct_sum,
                     conjugate, exp_path, exp_shear_path, loop_multiply,
                     perturb_stratified, reverse, rs_index,
                     rs_index_stratified, snm_index)
from sympind.errors import ContainmentError
from sympind.linalg import ExpCurve, random_orthogonal, standard_j
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


def test_index_call_evaluates_its_scan_grid_once(counted):
    # the defect check, the family validation and the crossing scan
    # share one batch of the path on the scan grid
    shear = exp_shear_path(np.diag([0.8, 0.5]), np.array([[0.6]]))
    path, sizes = counted(shear.to_path())
    res = rs_index_stratified(path, KernelFamily.dual_slot(shear.dims),
                              validate=True)
    assert res.value == snm_index(shear).value
    assert sizes.count(path.sample_hint + 1) == 1
