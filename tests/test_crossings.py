"""Crossing detection on paths engineered to defeat a naive grid scan."""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from sympind import (exp_path, constant_path, find_crossings, random_snm_path,
                     rs_index)
from sympind.errors import IrregularCrossing, NonIsolated, UnresolvedCrossing
from sympind.linalg import standard_j
from sympind.paths import SymplecticPath
from sympind.suites import _AXIOM_DIMS, _sp_path, run_axiom

J2 = standard_j(1)
EYE2 = np.eye(2)


def _phase_path(phase, dphase, domain=(0.0, 1.0), s=EYE2):
    return exp_path(s, J2, phase=phase, dphase=dphase, domain=domain)


def test_rebound_recrossing_inside_one_bracket():
    # phase t -> g*t - c*t^2 leaves zero at t=0 and recrosses at t=g/c,
    # far inside the first scan bracket; both must be reported.
    gamma, c = 1e-3, 1.0
    path = _phase_path(lambda t: gamma * t - c * t * t,
                       lambda t: gamma - 2.0 * c * t)
    crossings = find_crossings(path)
    assert len(crossings) == 2
    assert crossings[0].at_endpoint == "start"
    interior = [c_ for c_ in crossings if c_.at_endpoint is None]
    assert len(interior) == 1
    assert abs(interior[0].t - gamma / c) < 1e-10

    res = rs_index(path)
    # +2 signature halved at the start, -2 at the rebound: total -1
    assert res.value.twice == -2
    assert res.recompute_twice() == -2


def test_junction_pair_straddling_one_grid_step():
    # two zeros 0.0009 apart, both hiding behind a single scan minimum
    t1, t2 = 0.5, 0.5009
    path = _phase_path(lambda t: (t - t1) * (t - t2),
                       lambda t: 2.0 * t - (t1 + t2))
    for samples in (None, 2048):
        crossings = find_crossings(path, samples=samples)
        ts = sorted(c.t for c in crossings)
        assert len(ts) == 2
        assert abs(ts[0] - t1) < 1e-9 and abs(ts[1] - t2) < 1e-9
    res = rs_index(path)
    assert res.value.twice == 0  # -2 then +2, both interior
    assert len(res.crossings) == 2
    assert {c.signature for c in res.crossings} == {-2, 2}


def test_one_sided_minimum_next_to_domain_end():
    # zero between the last grid sample and the right endpoint
    t0 = 0.9995
    path = _phase_path(lambda t: t - t0, lambda t: np.ones_like(np.asarray(t, float)))
    crossings = find_crossings(path)
    assert len(crossings) == 1
    assert crossings[0].at_endpoint is None
    assert abs(crossings[0].t - t0) < 1e-10
    assert rs_index(path).value.twice == 4  # full-weight positive rotation


def test_loop_endpoints_take_half_weight():
    path = exp_path(2.0 * np.pi * EYE2, J2)
    res = rs_index(path)
    assert [c.at_endpoint for c in res.crossings] == ["start", "end"]
    assert all(c.weight == 0.5 for c in res.crossings)
    assert res.value.twice == 4  # winding-one loop has index 2


def test_crossing_report_contents():
    path = _phase_path(lambda t: t - 0.25, lambda t: np.ones_like(np.asarray(t, float)))
    res = rs_index(path)
    (rep,) = res.crossings
    assert rep.kernel_dim == 2 and rep.excess_dim == 2
    assert rep.signature == 2 and rep.weight == 1.0
    # rotation through the identity: form is dphase * I on the kernel
    np.testing.assert_allclose(rep.form, np.eye(2), atol=1e-6)


def _rotation_pair(c1, c2):
    # rotations by t - c1 and t - c2 in the two symplectic planes of R^4
    def blocks(t, entries):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (4, 4))
        for i, c in enumerate((c1, c2)):
            a, b = entries(t - c)
            out[..., i, i], out[..., i, i + 2] = a, -b
            out[..., i + 2, i], out[..., i + 2, i + 2] = b, a
        return out

    return SymplecticPath((0.0, 1.0), lambda t: blocks(t, lambda x: (np.cos(x), np.sin(x))),
                          lambda t: blocks(t, lambda x: (-np.sin(x), np.cos(x))),
                          jmat=standard_j(2))


def test_same_sign_pair_split_by_the_signature_check():
    # both planes turn through the identity 1e-4 apart: the first bracket
    # counts both (+8) but its kernel holds one (+4), so it is split again
    res = rs_index(_rotation_pair(0.3, 0.3001))
    assert res.value.twice == 8
    assert [c.signature for c in res.crossings] == [2, 2]
    np.testing.assert_allclose([c.t for c in res.crossings], [0.3, 0.3001], atol=1e-10)


def test_pair_below_resolution_is_refused_not_halved():
    # 3e-8 apart: above the kernel cut, below what the splits resolve
    with pytest.raises(UnresolvedCrossing, match="disagrees"):
        rs_index(_rotation_pair(0.3, 0.3 + 3e-8))


def test_index_call_releases_its_path():
    # nothing the root polishing hands to scipy may keep the path (and
    # with it a return path's operator family) alive until the cycle
    # collector happens to run
    path = _phase_path(lambda t: t - 0.3, lambda t: np.ones_like(np.asarray(t, float)))
    ref = weakref.ref(path)
    gc.disable()
    try:
        assert rs_index(path).value.twice == 4
        del path
        assert ref() is None
    finally:
        gc.enable()


def test_constant_identity_is_non_isolated():
    with pytest.raises(NonIsolated):
        find_crossings(constant_path(np.eye(2)))


def test_near_tangency_raises_unresolved():
    # phase bottoms out at 1e-6: too small for a clean miss, too large
    # for a crossing, and no neighbouring zero explains the dip
    path = _phase_path(lambda t: (t - 0.5) ** 2 + 1e-6,
                       lambda t: 2.0 * (t - 0.5))
    with pytest.raises(UnresolvedCrossing):
        find_crossings(path)


def test_cubic_tangency_is_irregular():
    # the zero is found, but its crossing form vanishes, so no index
    path = _phase_path(lambda t: (t - 0.49) ** 3,
                       lambda t: 3.0 * (t - 0.49) ** 2)
    crossings = find_crossings(path)
    assert len(crossings) == 1 and abs(crossings[0].t - 0.49) < 1e-6
    with pytest.raises(IrregularCrossing):
        rs_index(path)


def test_far_apart_crossings_unaffected_by_rescans():
    # sanity: widely separated zeros keep their count and locations
    t1, t2 = 0.2, 0.7
    path = _phase_path(lambda t: (t - t1) * (t - t2),
                       lambda t: 2.0 * t - (t1 + t2))
    ts = sorted(c.t for c in find_crossings(path))
    assert len(ts) == 2
    assert abs(ts[0] - t1) < 1e-9 and abs(ts[1] - t2) < 1e-9


def test_clear_misses_need_no_refinement(counted):
    # the phase stays in [0.2, 0.8], so every scan minimum sits far above
    # the cut compared with how fast M moves: the scan is the only batch
    phase = lambda t: 0.5 + 0.3 * np.sin(4.0 * np.pi * np.asarray(t, float))
    dphase = lambda t: 1.2 * np.pi * np.cos(4.0 * np.pi * np.asarray(t, float))
    path, sizes = counted(exp_path(EYE2, J2, phase=phase, dphase=dphase,
                                   sample_hint=64))
    assert find_crossings(path) == []
    assert sizes == [65]


def _crossing_list(path, floor):
    try:
        return [[c.t, c.at_endpoint] for c in find_crossings(path, floor)]
    except (NonIsolated, UnresolvedCrossing) as exc:
        return type(exc).__name__


def test_seeded_crossing_lists_match_recorded_values():
    # 36 seeded draws, with the crossing lists that the singular-value
    # search with bisection located for them
    recorded = json.loads((Path(__file__).parent / "data" / "crossing_lists.json")
                          .read_text(encoding="utf-8"))
    rng = np.random.default_rng(20261018)
    draws = []
    for i in range(18):
        dims = _AXIOM_DIMS[i % len(_AXIOM_DIMS)]
        draws.append((random_snm_path(rng, dims).to_path(), dims.m))
        draws.append((_sp_path(rng, 1 + i % 2, translate=bool(i % 3)), 0))
    assert len(recorded) == len(draws)
    for (path, floor), want in zip(draws, recorded):
        got = _crossing_list(path, floor)
        if isinstance(want, str):
            assert got == want
            continue
        assert [c[1] for c in got] == [c[1] for c in want]
        np.testing.assert_allclose([c[0] for c in got], [c[0] for c in want],
                                   rtol=0.0, atol=1e-12)
    assert any(want for want in recorded)


@pytest.mark.parametrize("name, seed", [
    ("product", 151), ("product", 277), ("catenation", 305),
    ("catenation", 332), ("catenation", 357), ("loop", 332)])
def test_seeded_law_draws_hidden_behind_a_neighbouring_branch(name, seed):
    # each draw has a crossing that the minimum singular value of M - I
    # hides behind another branch; the eigenphase count sees every branch
    check = run_axiom(name, seed, instances=3)
    assert check.passed, check.detail


def test_samples_with_eigenvalue_minus_one():
    # exact -I on the scan grid is phase pi: no crossing, no refusal
    assert rs_index(constant_path(-np.eye(4))).value.twice == 0
    assert rs_index(exp_path(np.pi * EYE2, J2)).value.twice == 2
