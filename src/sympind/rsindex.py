"""Crossing detection and half-integer indices of symplectic paths.

The index of a path with regular crossings is half the endpoint crossing
signatures plus the full interior ones.  For paths that carry a built-in
degeneracy (a family E(t) inside ker(M(t) - I), e.g. the dual slot of a
subgroup path) the same sum runs over the quotient forms ker/E instead;
crossings are then the instants where the kernel exceeds the family.

Crossings are located by the eigenphases of the Souriau map
W(t) = U_L U_L^T conj(U_D U_D^T), where U_L and U_D put orthonormal frames
of the graph of M(t) and of the diagonal in unitary form under the
complex structure diag(J, -J).  W is unitary, independent of the frames,
and its eigenvalue 1 has multiplicity dim ker(M(t) - I).  Its phases come
from one real symmetric eigensolve of a Cayley transform (_phases), which
keeps small phases to full relative accuracy.  The d phases a family of
dimension d pins at zero are dropped; the rest are the excess phases.

Each scan interval gets a window delta: no excess phase at either end
lies within the reach 2 |W(t_{i+1}) - W(t_i)|_F of delta.  The change in
the number of phases in (0, delta), a phase at zero counting one half, is
-1 times the interval's index (Phillips' partition definition of spectral
flow).  Intervals with a nonzero count, with no window, or with a phase
within reach of zero (a zero-net pair inside one step) are split, and
each isolated sign change of the smallest excess phase goes to Brent's
method.  A crossing whose weighted quotient-form signature differs from
its count has its bracket split again.  The singular values of M - I
serve only at the two domain ends and for the kernel at a crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy.optimize import brentq

from . import linalg
from .errors import (ContainmentError, InvalidInput, IrregularCrossing,
                     NonIsolated, RankDrift, SymplecticityLoss,
                     UnresolvedCrossing)
from .halfint import HalfInteger
from .linalg import TOL_EIG, TOL_SV, inertia, kernel_basis, sym_part
from .paths import KernelFamily, SymplecticPath, constant_stack
from .snm import SnmElement

SYMPLECTIC_LOSS = 1e-6
# excess phases between tol_sv and tol_sv ** AMBIGUITY_EXPONENT are
# neither zero nor a clean miss
AMBIGUITY_EXPONENT = 0.5
# pieces a flagged scan interval is split into, and how often
SPLIT = 4
MAX_SPLITS = 6


@dataclass
class CrossingLocation:
    """A crossing, its bracket, and twice the bracket's index by the phase
    count, which its weighted quotient-form signature must match."""
    t: float
    lo: float
    hi: float
    at_endpoint: Optional[str] = None  # 'start' | 'end' | None
    count: int = 0


@dataclass
class CrossingReport:
    t: float
    width: float
    at_endpoint: Optional[str]
    kernel_dim: int
    excess_dim: int
    signature: int
    form: np.ndarray
    basis: np.ndarray

    @property
    def weight(self) -> float:
        return 0.5 if self.at_endpoint else 1.0


@dataclass
class IndexResult:
    value: HalfInteger
    crossings: List[CrossingReport]
    stratum_floor: int
    tol_sv: float
    tol_eig: float
    samples: int

    def recompute_twice(self) -> int:
        twice = 0
        for c in self.crossings:
            twice += c.signature if c.at_endpoint else 2 * c.signature
        return twice


def endpoint_phase(el: SnmElement) -> float:
    """Smallest eigenphase of a subgroup element beyond its m dual
    directions: what find_crossings compares with its cuts."""
    return abs(float(_phases(el.to_matrix()[None], el.dims.j_ext(), el.dims.m)[0, 0]))


def is_nondegenerate(el: SnmElement, tol_sv: float = TOL_SV) -> bool:
    """No kernel beyond the dual slot, clear of the ambiguous band.

    The smallest excess eigenphase must exceed tol_sv ** AMBIGUITY_EXPONENT,
    the cut above which find_crossings takes a phase for a clean miss.
    """
    return endpoint_phase(el) > tol_sv ** AMBIGUITY_EXPONENT


def _phases(ms: np.ndarray, jmat: np.ndarray, floor: int) -> np.ndarray:
    """Signed excess eigenphases of the Souriau map, sorted by modulus; batched.

    They are 2 arctan of the eigenvalues of the symmetric Cayley transform
    J (M + I)^{-1} (M - I), which keeps small phases to full accuracy.
    """
    eye = np.eye(ms.shape[-1])
    try:
        c = jmat @ np.linalg.solve(ms + eye, ms - eye)
    except np.linalg.LinAlgError:
        # an exact eigenvalue -1 (phase pi): turn M by a symplectic rotation
        # of 1e-12, which moves every phase by about that much
        ms = ms @ (eye + 1e-12 * jmat)
        c = jmat @ np.linalg.solve(ms + eye, ms - eye)
    phases = 2.0 * np.arctan(np.linalg.eigvalsh(c))  # reads one triangle
    order = np.argsort(np.abs(phases), axis=-1, kind="stable")
    return np.take_along_axis(phases, order, axis=-1)[..., floor:]


def _reach(ms: np.ndarray, i: np.ndarray) -> np.ndarray:
    """2 |W(t_{i+1}) - W(t_i)|_F for the listed intervals i of the samples ms.

    Graphs are Lagrangian, so |W - W'|_F = sqrt(2) |Pi - Pi'|_F for the
    orthogonal projectors Pi onto them, whose blocks are K, M K and M K M^T
    with K = (I + M^T M)^{-1}.
    """
    at, pos = np.unique(np.concatenate([i, i + 1]), return_inverse=True)
    m, a, b = ms[at], pos[:len(i)], pos[len(i):]

    def step(block):
        return np.sum((block[b] - block[a]) ** 2, axis=(-2, -1))

    k = np.linalg.inv(np.eye(m.shape[-1]) + np.swapaxes(m, -1, -2) @ m)
    square = step(k)
    k = m @ k
    square += 2.0 * step(k) + step(k @ np.swapaxes(m, -1, -2))
    return 2.0 * np.sqrt(2.0 * square)


class _PhaseScan:
    """Excess phases of W on a growing sample set, with interval counts.

    At the domain ends the excess kernel dimension, the number of phases
    that count as zero, comes from the singular values of M - I.
    """

    def __init__(self, path: SymplecticPath, floor: int, tol_sv: float,
                 ts: np.ndarray, ms: np.ndarray):
        self.path, self.floor, self.zero_cut = path, floor, tol_sv
        self.band = tol_sv ** AMBIGUITY_EXPONENT
        kernel = linalg.kernel_dimension(ms[[0, -1]] - np.eye(path.size), tol_sv)
        excess = np.maximum(kernel - floor, 0)
        self.ends = {t: int(k) for t, k, at in zip(path.domain, excess, ts[[0, -1]])
                     if at == t}
        self.ts, self.ms = ts, ms
        self.ph, self.zero = self._phase_data(ts, ms)

    def _phase_data(self, ts: np.ndarray, ms: np.ndarray):
        ph = _phases(ms, self.path.jmat, self.floor)
        zero = np.abs(ph) <= self.zero_cut
        for t, k in self.ends.items():
            zero[ts == t] = np.arange(ph.shape[-1]) < k
        return ph, zero

    def split(self, intervals: np.ndarray) -> None:
        """Evaluate SPLIT - 1 interior points of each listed interval."""
        if not len(intervals):
            return
        lo, hi = self.ts[intervals, None], self.ts[intervals + 1, None]
        ts = (lo + (hi - lo) * np.arange(1, SPLIT) / SPLIT).ravel()
        ms = self.path(ts)
        at = np.searchsorted(self.ts, ts)
        old, new = (self.ts, self.ms, self.ph, self.zero), (ts, ms) + self._phase_data(ts, ms)
        self.ts, self.ms, self.ph, self.zero = (np.insert(a, at, b, axis=0)
                                                for a, b in zip(old, new))

    def intervals(self):
        """Per interval: twice its index by the phase count, whether a
        window exists, and whether a phase is within reach of zero."""
        mag = np.abs(self.ph)
        edges = np.full((len(mag) - 1, 2 * mag.shape[1] + 2), math.pi)
        edges[:, 0] = 0.0
        edges[:, 1:-1] = np.sort(np.concatenate([mag[:-1], mag[1:]], axis=-1), axis=-1)
        rows = np.arange(len(edges))
        best = np.argmax(np.diff(edges, axis=-1), axis=-1)
        lo, hi = edges[rows, best], edges[rows, best + 1]
        delta, gap, low = 0.5 * (lo + hi)[:, None], hi - lo, mag[:-1, 0] + mag[1:, 0]
        # |Pi - Pi'|_F <= sqrt(2) |M - M'|_F, so 4 |M - M'|_F bounds the
        # reach; _reach is needed only where the bound decides nothing
        step = np.diff(self.ms, axis=0)
        reach = 4.0 * np.sqrt(np.einsum("ijk,ijk->i", step, step))
        i = np.flatnonzero((gap <= 2.0 * reach) | (low <= reach))
        reach[i] = _reach(self.ms, i)

        def twice_n(ph, zero):
            return zero.sum(-1) + 2 * np.sum((ph > 0.0) & (ph < delta) & ~zero, -1)

        count = twice_n(self.ph[:-1], self.zero[:-1]) - twice_n(self.ph[1:], self.zero[1:])
        return count, gap > 2.0 * reach, low <= reach


def _groups(count: np.ndarray, zero: np.ndarray):
    """Runs (first, last sample) of intervals with a nonzero count or
    touching a zero sample, joined across zero samples."""
    active = (count != 0) | zero[:-1] | zero[1:]
    link = zero[1:-1]
    first = np.flatnonzero(active & ~np.concatenate([[False], link]))
    last = np.flatnonzero(active & ~np.concatenate([link, [False]]))
    return list(zip(first, last + 1)), active


def _smallest_phase(t: float, path: SymplecticPath, floor: int, known: dict) -> float:
    """The smallest excess phase at t, signed; memoized in known."""
    if t not in known:
        known[t] = _phases(path(np.array([t])), path.jmat, floor)[0, 0]
    return known[t]


def _check_band(scan: _PhaseScan, active: np.ndarray) -> None:
    """Refuse a phase that enters the ambiguous band with no count change."""
    f = scan.ph[:, 0]
    edges = np.flatnonzero(np.diff(np.concatenate([[0], np.abs(f) < scan.band, [0]])))
    for p, q in zip(edges[::2], edges[1::2]):
        if not active[max(p - 1, 0):q].any():
            k = p + int(np.argmin(np.abs(f[p:q])))
            raise UnresolvedCrossing(
                f"excess eigenphase bottoms out at {abs(f[k]):.3e} near t={scan.ts[k]:.6g} "
                "without changing the count; tangential crossing or insufficient "
                "resolution")


def _locate(scan: _PhaseScan, judge: Optional[Callable]) -> List[CrossingLocation]:
    """Isolate and polish every crossing on the scan's samples."""
    a, b = scan.path.domain
    width_floor = 64 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    count, window, near = scan.intervals()
    scan.split(np.flatnonzero((count != 0) | ~window | near))
    roots, splits = {}, 0
    while True:
        count, window, _ = scan.intervals()
        ts, f, zero = scan.ts, scan.ph[:, 0], scan.zero[:, 0]
        groups, active = _groups(count, zero)
        found, pending = [], list(np.flatnonzero(~window))
        for u, v in groups:
            total, lo, hi = int(count[u:v].sum()), float(ts[u]), float(ts[v])
            if lo == a and zero[u]:
                found.append(CrossingLocation(a, lo, hi, "start", total))
            elif hi == b and zero[v]:
                found.append(CrossingLocation(b, lo, hi, "end", total))
            elif total and f[u] * f[v] < 0.0:
                if (lo, hi) not in roots:
                    # superlinear at a regular crossing, slow at an odd-order
                    # tangency; the phase at the result decides.  The
                    # objective's state goes in args, not in a closure:
                    # brentq wraps the callable in a reference cycle, which
                    # would hold the path until the cycle collector runs.
                    known = {lo: f[u], hi: f[v]}
                    args = (scan.path, scan.floor, known)
                    t_star = brentq(_smallest_phase, lo, hi, args=args,
                                    xtol=width_floor, maxiter=200, disp=False)
                    ok = abs(_smallest_phase(t_star, *args)) <= scan.zero_cut
                    roots[lo, hi] = t_star if ok else None
                if roots[lo, hi] is None:
                    pending.extend(range(u, v))
                else:
                    found.append(CrossingLocation(roots[lo, hi], lo, hi, None, total))
            elif not total and f[u] * f[v] > 0.0 and v > u + 1:
                # touches zero without changing the count: left to the
                # crossing form (IrregularCrossing) or to judge
                k = u + 1 + int(np.argmin(np.abs(f[u + 1:v])))
                found.append(CrossingLocation(float(ts[k]), lo, hi, None, total))
            else:
                pending.extend(range(u, v))
        rejected = []
        if not pending:
            _check_band(scan, active)
            rejected = [loc for loc in found if judge is not None and not judge(loc)]
            if not rejected:
                return found
            pending = [i for loc in rejected for i in range(*np.searchsorted(ts, [loc.lo, loc.hi]))]
        if splits == MAX_SPLITS:
            what = "disagrees with its quotient-form signature" if rejected else "is not isolated"
            raise UnresolvedCrossing(f"eigenphase count near t={ts[pending[0]]:.6g} {what} "
                                     f"after {MAX_SPLITS} splits; insufficient resolution")
        scan.split(np.unique(pending))
        splits += 1


def find_crossings(path: SymplecticPath, stratum_floor: int = 0,
                   tol_sv: float = TOL_SV, samples: Optional[int] = None, *,
                   grid: Optional[np.ndarray] = None,
                   judge: Optional[Callable[[CrossingLocation], bool]] = None
                   ) -> List[CrossingLocation]:
    """Bracketed instants where dim ker(M(t)-I) exceeds stratum_floor.

    The excess eigenphases are counted on the scan grid and each crossing
    is polished by Brent's method (module docstring).  A domain end whose
    relative monitored singular value of M - I is at most tol_sv is an
    endpoint crossing.  Each location carries its bracket and the
    bracket's count.  Refusals:

    * an excess phase at zero (|phase| <= tol_sv) on three consecutive or
      on too many grid samples raises NonIsolated;
    * an excess phase that enters the band up to tol_sv **
      AMBIGUITY_EXPONENT without changing the count raises
      UnresolvedCrossing, as does a count that no isolated sign change
      explains after MAX_SPLITS splits.

    judge, when given, sees every location once the count is isolated; a
    location it rejects (rs_index_stratified: its weighted signature is
    not its count) has its bracket split further, and a rejection that
    outlasts the MAX_SPLITS splits raises UnresolvedCrossing.

    grid, when given, holds the path's matrices on the scan grid (the
    samples + 1 points of linspace over the domain) so a caller that
    already evaluated them pays nothing here.
    """
    a, b = path.domain
    count = path.sample_hint if samples is None else int(samples)
    ts = np.linspace(a, b, count + 1)
    if grid is None:
        grid = path(ts)
    elif np.shape(grid) != (count + 1, path.size, path.size):
        raise InvalidInput(f"grid must hold the path at {count + 1} scan points, "
                           f"got shape {np.shape(grid)}")
    if stratum_floor >= path.size:
        raise InvalidInput("stratum floor exceeds the matrix size")
    scan = _PhaseScan(path, stratum_floor, tol_sv, ts, grid)
    zero = scan.zero[:, 0]
    if np.any(zero[:-2] & zero[1:-1] & zero[2:]):
        raise NonIsolated(
            "kernel excess persists over consecutive samples; the path "
            "does not have isolated crossings at this stratum floor")
    if int(zero.sum()) > max(4, count // 20):
        raise NonIsolated("kernel excess at too many samples for isolated crossings")
    return _locate(scan, judge)


def crossing_form_matrix(path: SymplecticPath, t: float, basis: np.ndarray) -> np.ndarray:
    """Matrix of v -> <v, -J M'(t) M(t)^{-1} v> restricted to the basis."""
    q = sym_part(-path.jmat @ path.deriv(t) @ path.inverse_at(t))
    return basis.T @ q @ basis


def _trivial_family(size: int) -> KernelFamily:
    return KernelFamily.constant(np.zeros((size, 0)), np.zeros((size, size)))


def _validate_family(path: SymplecticPath, family: KernelFamily, ts: np.ndarray,
                     ms: np.ndarray, tol_sv: float) -> None:
    """Frames at ts orthonormal, inside ker(M - I) (ms: the path at ts)
    and of constant symplectic rank."""
    bs = family(ts)
    if bs.shape[-2:] != (path.size, family.dim):
        raise ContainmentError(
            f"family frame must be {path.size}x{family.dim}, got {bs.shape[-2:]}")
    gram = np.swapaxes(bs, -1, -2) @ bs - np.eye(family.dim)
    if gram.size and np.max(np.abs(gram)) > 1e-8:
        raise ContainmentError("family frames are not orthonormal")
    resid = (ms - np.eye(path.size)) @ bs
    if resid.size:
        # the cut tol_sv max(sigma_max, 1) is at least tol_sv, so only a
        # sample whose residual exceeds tol_sv needs the SVD
        worst = np.max(np.abs(resid), axis=(-1, -2))
        allowed = np.full(len(worst), tol_sv)
        over = worst > tol_sv
        if np.any(over):
            sv_top = np.linalg.svd(ms[over] - np.eye(path.size), compute_uv=False)[..., 0]
            allowed[over] = tol_sv * np.maximum(sv_top, 1.0)
        if np.any(worst > allowed):
            i = int(np.argmax(worst - allowed))
            raise ContainmentError(
                f"family leaves the kernel by {worst[i]:.3e} at t={ts[i]:.6g}")
    omega = path.jmat.T
    w = np.swapaxes(bs, -1, -2) @ omega @ bs
    if w.size:
        sv = np.linalg.svd(w, compute_uv=False)
        ranks = np.sum(sv > 1e-8, axis=-1)
        if np.any(ranks != family.rank_omega):
            raise RankDrift(
                f"symplectic rank on the family varies (saw {sorted(set(ranks.tolist()))}, "
                f"declared {family.rank_omega})")


def _quotient_basis(m: np.ndarray, fam_basis: np.ndarray, tol_sv: float):
    """Orthonormal complement of the family inside ker(M - I)."""
    k = kernel_basis(m - np.eye(m.shape[0]), tol_sv)
    d = fam_basis.shape[1]
    if k.shape[1] <= d:
        raise UnresolvedCrossing(
            "kernel extraction found no excess beyond the family at a flagged "
            "crossing; tolerances are inconsistent here")
    proj = k - fam_basis @ (fam_basis.T @ k)
    u, s, _ = np.linalg.svd(proj, full_matrices=False)
    q = int(np.sum(s > 0.5))
    if q != k.shape[1] - d:
        raise UnresolvedCrossing(
            "quotient dimension is ambiguous at a crossing (family not "
            "cleanly inside the kernel)")
    return u[:, :q], k.shape[1]


def _report(path: SymplecticPath, family: KernelFamily, loc: CrossingLocation,
            tol_sv: float, tol_eig: float) -> CrossingReport:
    """Quotient crossing form at a located crossing; must be nondegenerate."""
    basis, kdim = _quotient_basis(path(loc.t), family(loc.t), tol_sv)
    form = crossing_form_matrix(path, loc.t, basis)
    ine = inertia(form, tol_eig)
    if ine.zero:
        where = loc.at_endpoint or f"t={loc.t:.6g}"
        raise IrregularCrossing(
            f"quotient crossing form at {where} is degenerate "
            f"({ine.zero} null direction(s) at tol_eig={tol_eig:.1e})")
    return CrossingReport(loc.t, loc.hi - loc.lo, loc.at_endpoint, kdim, basis.shape[1],
                          ine.signature, form, basis)


def rs_index_stratified(path: SymplecticPath, family: KernelFamily,
                        tol_sv: float = TOL_SV, tol_eig: float = TOL_EIG,
                        samples: Optional[int] = None,
                        validate: bool = True) -> IndexResult:
    """Index of a path relative to a kernel family.

    Endpoint quotient signatures enter with weight one half, interior
    ones with weight one; each quotient form must be nondegenerate
    (IrregularCrossing otherwise).  With a zero-dimensional family this
    is the classical regular-crossing index.  A crossing whose weighted
    signature is not its eigenphase count is split further by
    find_crossings, which raises UnresolvedCrossing if that persists.
    """
    count = path.sample_hint if samples is None else int(samples)
    ts = np.linspace(path.domain[0], path.domain[1], count + 1)
    grid = path(ts)
    defect = linalg.symplectic_defect(grid, path.jmat)
    if defect > SYMPLECTIC_LOSS:
        raise SymplecticityLoss(f"path symplectic defect {defect:.3e} on the scan grid")
    if validate and family.dim:
        _validate_family(path, family, ts, grid, tol_sv)

    reports = {}

    def agrees(loc: CrossingLocation) -> bool:
        rep = reports[loc.t] = _report(path, family, loc, tol_sv, tol_eig)
        return rep.signature * (1 if rep.at_endpoint else 2) == loc.count

    locs = find_crossings(path, family.dim, tol_sv, count, grid=grid, judge=agrees)
    crossings = [reports[loc.t] for loc in locs]
    ends = {c.at_endpoint: c.signature for c in crossings}
    value = HalfInteger.from_signatures(
        ends.get("start", 0), [c.signature for c in crossings if not c.at_endpoint],
        ends.get("end", 0))
    return IndexResult(value, crossings, family.dim, tol_sv, tol_eig, count)


def rs_index(path: SymplecticPath, tol_sv: float = TOL_SV, tol_eig: float = TOL_EIG,
             samples: Optional[int] = None) -> IndexResult:
    """Classical index: no distinguished family along the path.

    Every crossing form must be nondegenerate (IrregularCrossing
    otherwise).
    """
    return rs_index_stratified(path, _trivial_family(path.size), tol_sv, tol_eig,
                               samples)


def snm_index(snm_path, **kwargs) -> IndexResult:
    """Index of a subgroup path relative to its dual-slot family."""
    fam = KernelFamily.dual_slot(snm_path.dims)
    return rs_index_stratified(snm_path.to_path(), fam, **kwargs)


def _split_family_frames(basis: np.ndarray, omega: np.ndarray, rank: int):
    """Isotropic/symplectic split of a family frame, batched."""
    w = np.swapaxes(basis, -1, -2) @ omega @ basis
    u, s, vt = np.linalg.svd(w)
    c1 = np.swapaxes(vt[..., :rank, :], -1, -2)
    c0 = np.swapaxes(vt[..., rank:, :], -1, -2)
    return basis @ c1, basis @ c0


def perturb_stratified(path: SymplecticPath, family: KernelFamily,
                       eps: float = 0.5) -> SymplecticPath:
    """Symplectic perturbation removing the family from interior kernels.

    The returned path equals M(t) Phi(t), where Phi shears the isotropic
    part of the family along J and rotates the symplectic part by the
    bump angle beta(t) = eps sin(pi (t-a)/(b-a)).  Endpoints are fixed;
    interior crossings collapse onto the quotient so the classical index
    of the result equals the stratified index of the input.  Requires
    0 < eps < pi so the rotation never returns to the identity.
    """
    if not 0.0 < eps < math.pi:
        raise InvalidInput("eps must lie strictly between 0 and pi")
    a, b = path.domain
    jmat = path.jmat
    omega = jmat.T
    d, r = family.dim, family.rank_omega
    eye = np.eye(path.size)

    def factor(t):
        beta = eps * np.sin(math.pi * (t - a) / (b - a))
        basis = family(t)
        u1, u0 = _split_family_frames(basis, omega, r)
        out = constant_stack(eye, t)
        if d - r:
            shear = jmat @ u0 @ np.swapaxes(u0, -1, -2)
            out = out + beta[..., None, None] * shear
        if r:
            w1 = np.swapaxes(u1, -1, -2) @ omega @ u1
            uu, ss, vv = np.linalg.svd(w1)
            jrot = uu @ vv  # orthogonal antisymmetric polar factor
            rot = (np.cos(beta)[..., None, None] * np.eye(r)
                   + np.sin(beta)[..., None, None] * jrot)
            w1_inv = np.swapaxes(vv, -1, -2) @ ((1.0 / ss)[..., None] * np.swapaxes(uu, -1, -2))
            out = out @ (constant_stack(eye, t)
                         + u1 @ (rot - np.eye(r)) @ w1_inv @ np.swapaxes(u1, -1, -2) @ omega)
        return out

    def evaluate(t):
        return path(t) @ factor(t)

    return SymplecticPath(path.domain, evaluate, jmat=jmat,
                          sample_hint=path.sample_hint)
