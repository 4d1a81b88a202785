"""Crossing detection and half-integer indices of symplectic paths.

The index of a path with regular crossings is half the endpoint crossing
signatures plus the full interior ones.  For paths that carry a built-in
degeneracy (a family E(t) inside ker(M(t) - I), e.g. the dual slot of a
subgroup path) the same sum runs over the quotient forms ker/E instead;
crossings are then the instants where the kernel exceeds the family.

Crossing instants are located by scanning the monitored singular value
of M(t) - I (the (d+1)-th smallest, d = family dimension) on a grid and
then bisecting on its slope sign, which halves the bracket every step.
All scans are batched, so grids of hundreds of points cost a single SVD
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import linalg
from .errors import (ContainmentError, InvalidInput, IrregularCrossing,
                     NonIsolated, RankDrift, SymplecticityLoss,
                     UnresolvedCrossing)
from .halfint import HalfInteger
from .linalg import TOL_EIG, TOL_SV, inertia, kernel_basis, sym_part
from .paths import KernelFamily, SymplecticPath
from .snm import SnmElement

BISECT_ITERS = 60
SYMPLECTIC_LOSS = 1e-6
# refined minima above sqrt(tol) are clean misses; in between is unresolved
AMBIGUITY_EXPONENT = 0.5


@dataclass
class CrossingLocation:
    t: float
    width: float
    at_endpoint: Optional[str] = None  # 'start' | 'end' | None


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


def _monitored_sigma(path: SymplecticPath, ts: np.ndarray, floor: int):
    """Monitored singular value of M(t)-I and the largest one, batched."""
    m = path(np.atleast_1d(np.asarray(ts, dtype=float)))
    r = m - np.eye(path.size)
    sv = np.linalg.svd(r, compute_uv=False)  # descending
    if floor >= path.size:
        raise InvalidInput("stratum floor exceeds the matrix size")
    g = sv[..., path.size - 1 - floor]
    return g, sv[..., 0]


def endpoint_sigma(el: SnmElement) -> float:
    """Relative monitored singular value of M - I for a subgroup element.

    The (m+1)-th smallest singular value over max(sigma_max, 1), which is
    what find_crossings compares with its cuts at stratum floor m.
    """
    sv = np.linalg.svd(el.to_matrix() - np.eye(el.dims.total), compute_uv=False)
    return float(sv[-1 - el.dims.m] / max(float(sv[0]), 1.0))


def is_nondegenerate(el: SnmElement, tol_sv: float = TOL_SV) -> bool:
    """No kernel beyond the dual slot, clear of the ambiguous band.

    The relative monitored singular value must exceed
    tol_sv ** AMBIGUITY_EXPONENT: a value between tol_sv and that cut has
    no kernel at tol_sv, yet find_crossings refuses it as unresolved.
    """
    return endpoint_sigma(el) > tol_sv ** AMBIGUITY_EXPONENT


def _edge_rebound_candidates(path: SymplecticPath, floor: int, edge: float,
                             inner: float, tol_sv: float):
    """Candidate brackets for crossings hiding next to an endpoint crossing.

    Next to a crossing the monitored value vanishes to first order, so a
    second zero a short way off (a branch bending back through zero, or an
    unrelated crossing sharing the bracket) leaves no sampled local minimum
    for the coarse scan to see.  Dividing out the structural factor
    |t - edge| exposes such zeros as local minima of the ratio on a
    logarithmic grid.

    The candidate cut is structural, not absolute: near the edge the ratio
    plateaus at the edge crossing's slope, so a dip below half the plateau
    marks a potential zero.  Acceptance stays with the bisection in the
    caller, so a lenient cut here only costs a few cheap refinements.  The
    far-end level must stay out of the cut: where it exceeds the plateau it
    would let plateau noise through, and such candidates bisect into the
    edge crossing's own vanishing and read as spurious near-duplicates.
    """
    span = abs(inner - edge)
    if span <= 0.0:
        return []
    direction = 1.0 if inner > edge else -1.0
    offs = np.geomspace(span * 1e-9, span, 160)
    ts = edge + direction * offs
    g, top = _monitored_sigma(path, ts, floor)
    ratio = g / offs
    cut = 0.5 * float(np.median(ratio[:16]))
    out = []
    for i in range(1, len(offs) - 1):
        if ratio[i] <= ratio[i - 1] and ratio[i] <= ratio[i + 1] and ratio[i] <= cut:
            lo_t, hi_t = sorted((float(ts[i - 1]), float(ts[i + 1])))
            out.append((lo_t, hi_t, float(ts[i]), float(g[i]),
                        max(float(top[i]), 1.0)))
    return out


def find_crossings(path: SymplecticPath, stratum_floor: int = 0,
                   tol_sv: float = TOL_SV, samples: Optional[int] = None,
                   bisect_iters: int = BISECT_ITERS) -> List[CrossingLocation]:
    """Bracketed instants where dim ker(M(t)-I) exceeds stratum_floor.

    Endpoints are tested directly.  Interior candidates are the local
    minima of the monitored singular value, including one-sided minima
    at the outermost samples; each is narrowed by slope bisection and
    kept only if the refined value sits below the relative tolerance.
    The neighbourhood of every accepted crossing is then rescanned with
    the ratio monitor, because a second zero less than a grid step away
    hides behind the first-order vanishing of its neighbour.  A refined
    minimum in the ambiguous band between tol_sv and sqrt(tol_sv) raises
    UnresolvedCrossing (tangential behaviour); persistent degeneracy
    over consecutive grid points raises NonIsolated.
    """
    a, b = path.domain
    count = path.sample_hint if samples is None else int(samples)
    ts = np.linspace(a, b, count + 1)
    g, top = _monitored_sigma(path, ts, stratum_floor)
    scale = np.maximum(top, 1.0)
    below = g <= tol_sv * scale

    run = 0
    for flag in below:
        run = run + 1 if flag else 0
        if run >= 3:
            raise NonIsolated(
                "kernel excess persists over consecutive samples; the path "
                "does not have isolated crossings at this stratum floor")
    if int(below.sum()) > max(4, count // 20):
        raise NonIsolated("kernel excess at too many samples for isolated crossings")

    found: List[CrossingLocation] = []
    if below[0]:
        found.append(CrossingLocation(float(a), 0.0, "start"))
    if below[-1]:
        found.append(CrossingLocation(float(b), 0.0, "end"))

    interior_min = []
    # A crossing just inside the domain shows up as a monotone descent
    # into an endpoint sample that itself clears the tolerance; bracket
    # the outermost step as a one-sided candidate so it gets bisected.
    if count >= 2 and not below[0] and g[0] <= g[1]:
        interior_min.append(0)
    for i in range(1, count):
        if g[i] <= g[i - 1] and g[i] <= g[i + 1] and (g[i] < g[i - 1] or g[i] < g[i + 1]):
            interior_min.append(i)
    if count >= 2 and not below[-1] and g[count] <= g[count - 1]:
        interior_min.append(count)

    cand = [(ts[max(i - 1, 0)], ts[min(i + 1, count)], ts[i], g[i], scale[i])
            for i in interior_min]
    if count >= 2 and below[0]:
        cand.extend(_edge_rebound_candidates(path, stratum_floor, float(a),
                                             float(ts[2]), tol_sv))
    if count >= 2 and below[-1]:
        cand.extend(_edge_rebound_candidates(path, stratum_floor, float(b),
                                             float(ts[count - 2]), tol_sv))

    width_floor = 64 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    ambiguous_cut = tol_sv ** AMBIGUITY_EXPONENT

    def refine_and_accept(cand_list) -> List[float]:
        """Bisect candidate brackets; returns the newly accepted instants."""
        if not cand_list:
            return []
        lo = np.array([c[0] for c in cand_list])
        hi = np.array([c[1] for c in cand_list])
        best_t = np.array([c[2] for c in cand_list])
        best_g = np.array([c[3] for c in cand_list])
        best_scale = np.array([c[4] for c in cand_list])

        for _ in range(bisect_iters):
            active = (hi - lo) > width_floor
            if not np.any(active):
                break
            mid = 0.5 * (lo + hi)
            delta = np.maximum((hi - lo) * 1e-3,
                               4 * np.finfo(float).eps * np.maximum(np.abs(mid), 1.0))
            probes = np.concatenate([mid[active] - delta[active], mid[active] + delta[active]])
            gp, tp = _monitored_sigma(path, probes, stratum_floor)
            half = len(gp) // 2
            gl, gr = gp[:half], gp[half:]
            idx = np.flatnonzero(active)
            for j, k in enumerate(idx):
                # smaller left probe: the minimum lies left of the midpoint
                if gl[j] < gr[j]:
                    hi[k] = mid[k] + delta[k]
                else:
                    lo[k] = mid[k] - delta[k]
                for tt, gg, sc in ((mid[k] - delta[k], gl[j], tp[:half][j]),
                                   (mid[k] + delta[k], gr[j], tp[half:][j])):
                    if gg < best_g[k]:
                        best_g[k], best_t[k] = gg, tt
                        best_scale[k] = max(sc, 1.0)

        fresh: List[float] = []
        ambiguous: List[int] = []
        for k in range(len(cand_list)):
            rel = best_g[k] / best_scale[k]
            if rel <= tol_sv:
                t_star = float(best_t[k])
                if abs(t_star - a) <= (b - a) * 1e-9 or abs(t_star - b) <= (b - a) * 1e-9:
                    continue  # endpoint already reported
                if any(abs(t_star - c.t) <= (b - a) * 1e-9 for c in found):
                    continue
                found.append(CrossingLocation(t_star, float(hi[k] - lo[k]), None))
                fresh.append(t_star)
            elif rel < ambiguous_cut:
                ambiguous.append(k)
        for k in ambiguous:
            # A bracket adjoining a crossing that is already counted bisects
            # into its edge and bottoms out above tol_sv without marking a
            # new zero; only raise when no known crossing explains the dip.
            halo = 4.0 * max(cand_list[k][1] - cand_list[k][0], width_floor)
            if any(abs(float(best_t[k]) - c.t) <= halo for c in found):
                continue
            rel = best_g[k] / best_scale[k]
            raise UnresolvedCrossing(
                f"singular value bottoms out at relative {rel:.3e} near t={best_t[k]:.6g}; "
                "tangential crossing or insufficient resolution")
        return fresh

    frontier = refine_and_accept(cand)
    step = (b - a) / max(count, 1)
    for _ in range(3):
        if not frontier:
            break
        near = []
        for t0 in frontier:
            for inner in (max(a, t0 - 2 * step), min(b, t0 + 2 * step)):
                near.extend(_edge_rebound_candidates(path, stratum_floor, t0,
                                                     inner, tol_sv))
        frontier = refine_and_accept(near)

    found.sort(key=lambda c: c.t)
    deduped: List[CrossingLocation] = []
    for c in found:
        if deduped and abs(c.t - deduped[-1].t) <= (b - a) * 1e-9:
            continue
        deduped.append(c)
    return deduped


def crossing_form_matrix(path: SymplecticPath, t: float, basis: np.ndarray) -> np.ndarray:
    """Matrix of v -> <v, -J M'(t) M(t)^{-1} v> restricted to the basis."""
    q = sym_part(-path.jmat @ path.deriv(t) @ path.inverse_at(t))
    return basis.T @ q @ basis


def _trivial_family(size: int) -> KernelFamily:
    return KernelFamily.constant(np.zeros((size, 0)), np.zeros((size, size)))


def _validate_family(path: SymplecticPath, family: KernelFamily, ts: np.ndarray,
                     tol_sv: float) -> None:
    bs = family(ts)
    if bs.shape[-2:] != (path.size, family.dim):
        raise ContainmentError(
            f"family frame must be {path.size}x{family.dim}, got {bs.shape[-2:]}")
    gram = np.swapaxes(bs, -1, -2) @ bs - np.eye(family.dim)
    if gram.size and np.max(np.abs(gram)) > 1e-8:
        raise ContainmentError("family frames are not orthonormal")
    ms = path(ts)
    resid = (ms - np.eye(path.size)) @ bs
    if resid.size:
        sv_top = np.linalg.svd(ms - np.eye(path.size), compute_uv=False)[..., 0]
        allowed = tol_sv * np.maximum(sv_top, 1.0)
        worst = np.max(np.abs(resid), axis=(-1, -2))
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


def rs_index_stratified(path: SymplecticPath, family: KernelFamily,
                        tol_sv: float = TOL_SV, tol_eig: float = TOL_EIG,
                        samples: Optional[int] = None,
                        bisect_iters: int = BISECT_ITERS,
                        validate: bool = True) -> IndexResult:
    """Index of a path relative to a kernel family.

    Endpoint quotient signatures enter with weight one half, interior
    ones with weight one; each quotient form must be nondegenerate
    (IrregularCrossing otherwise).  With a zero-dimensional family this
    is the classical regular-crossing index.
    """
    count = path.sample_hint if samples is None else int(samples)
    ts = np.linspace(path.domain[0], path.domain[1], count + 1)
    defect = linalg.symplectic_defect(path(ts), path.jmat)
    if defect > SYMPLECTIC_LOSS:
        raise SymplecticityLoss(f"path symplectic defect {defect:.3e} on the scan grid")
    if validate and family.dim:
        _validate_family(path, family, ts, tol_sv)

    crossings = find_crossings(path, family.dim, tol_sv, count, bisect_iters)
    reports: List[CrossingReport] = []
    start_sig = end_sig = 0
    interior: List[int] = []
    for loc in crossings:
        m = path(loc.t)
        fam_b = family(loc.t)
        basis, kdim = _quotient_basis(m, fam_b, tol_sv)
        form = crossing_form_matrix(path, loc.t, basis)
        ine = inertia(form, tol_eig)
        if ine.zero:
            where = loc.at_endpoint or f"t={loc.t:.6g}"
            raise IrregularCrossing(
                f"quotient crossing form at {where} is degenerate "
                f"({ine.zero} null direction(s) at tol_eig={tol_eig:.1e})")
        sig = ine.signature
        reports.append(CrossingReport(loc.t, loc.width, loc.at_endpoint,
                                      kdim, basis.shape[1], sig, form, basis))
        if loc.at_endpoint == "start":
            start_sig = sig
        elif loc.at_endpoint == "end":
            end_sig = sig
        else:
            interior.append(sig)

    value = HalfInteger.from_signatures(start_sig, interior, end_sig)
    return IndexResult(value, reports, family.dim, tol_sv, tol_eig, count)


def rs_index(path: SymplecticPath, tol_sv: float = TOL_SV, tol_eig: float = TOL_EIG,
             samples: Optional[int] = None,
             bisect_iters: int = BISECT_ITERS) -> IndexResult:
    """Classical index: no distinguished family along the path.

    Every crossing form must be nondegenerate (IrregularCrossing
    otherwise).
    """
    return rs_index_stratified(path, _trivial_family(path.size), tol_sv, tol_eig,
                               samples, bisect_iters)


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
        t = np.asarray(t, dtype=float)
        beta = eps * np.sin(math.pi * (t - a) / (b - a))
        basis = family(t)
        scalar = t.ndim == 0
        if scalar:
            basis = basis[None]
            beta = np.atleast_1d(beta)
        u1, u0 = _split_family_frames(basis, omega, r)
        out = np.broadcast_to(eye, basis.shape[:-2] + eye.shape).copy()
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
            out = out @ (np.broadcast_to(eye, out.shape).copy()
                         + u1 @ (rot - np.eye(r)) @ w1_inv @ np.swapaxes(u1, -1, -2) @ omega)
        return out[0] if scalar else out

    def evaluate(t):
        return path(t) @ factor(t)

    return SymplecticPath(path.domain, evaluate, jmat=jmat,
                          sample_hint=path.sample_hint)
