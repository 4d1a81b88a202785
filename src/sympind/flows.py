"""Parameter-dependent Hamiltonian systems and their linearized flows.

A system supplies the vector field of H(theta, x, lam) on R^{2n} x R^m
together with its first derivatives in x and lam, the gradient of H in
lam, and the mixed Hessian of that gradient.  Sign conventions follow
the standard structure J0: the field is X_H = -J0 grad_x H, so the
linearization Dx X_H equals J0 S with S = -Hess_x H symmetric.

Around a critical point (a loop gamma with matching parameter vector)
the linearized return data (Psi, X, E) solves the linear ODE of
coefficients.py for one state W = [[B, F], [Psi, A], [0, I]] with the
generator sampled along the loop,

    K = [ -(d/dx grad_lam H)   -(d/dlam grad_lam H) ]
        [  Dx X_H               Dlam X_H            ],

so Psi' = (Dx X_H) Psi, A' = (Dx X_H) A + Dlam X_H, F' = -Hmix [A; I] and
B' = -(d/dx grad_lam H) Psi, with X = Psi^{-1} A and E = sym(F).  B and
the antisymmetric part of F are redundant with X; their residuals
certify that the assembled extended matrix really is the differential
of the parametrized flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coefficients import (PathData, carried_block_residuals, generator,
                           integrate_path, trig_eval)
from .errors import (DegenerateEndpoint, DimensionMismatch, InvalidInput,
                     ShapeError)
from .paths import KernelFamily
from .rsindex import (IndexResult, endpoint_phase, is_nondegenerate,
                      rs_index_stratified)
from .snm import Dimensions

TOL_CRIT = 1e-6


@dataclass
class HamiltonianSystem:
    """Callable bundle describing H(theta, x, lam) through its derivatives.

    vector_field: (theta, x, lam) -> (2n,)        the field -J0 grad_x H
    jac_x:        (theta, x, lam) -> (2n, 2n)     d(vector_field)/dx
    jac_lam:      (theta, x, lam) -> (2n, m)      d(vector_field)/dlam
    grad_lam:     (theta, x, lam) -> (m,)         d H / d lam
    hess_mixed:   (theta, x, lam) -> (m, 2n + m)  d(grad_lam)/d(x, lam)
    """

    dims: Dimensions
    vector_field: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    jac_x: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    jac_lam: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    grad_lam: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    hess_mixed: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    label: str = "system"


@dataclass
class CriticalPoint:
    """Loop samples with parameter vector; gamma_j at theta_j = j/G.

    winding records the affine drift gamma(theta + 1) = gamma(theta) + winding,
    so angle-valued coordinates can live in a linear chart.
    """

    gamma: np.ndarray
    lam: np.ndarray
    winding: Optional[np.ndarray] = None

    def __post_init__(self):
        self.gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        self.lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if self.winding is None:
            self.winding = np.zeros(self.gamma.shape[1])
        else:
            self.winding = np.asarray(self.winding, dtype=float)
        if self.winding.shape != (self.gamma.shape[1],):
            raise ShapeError("winding must match the loop coordinate count")

    @property
    def samples(self) -> int:
        return self.gamma.shape[0]

    def periodic_part(self) -> np.ndarray:
        thetas = np.arange(self.samples) / self.samples
        return self.gamma - thetas[:, None] * self.winding[None, :]

    def gamma_at(self, thetas) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        vals = trig_eval(self.periodic_part(), thetas)
        return vals + thetas[:, None] * self.winding[None, :]

    def velocity_at_nodes(self) -> np.ndarray:
        per = self.periodic_part()
        spec = np.fft.rfft(per, axis=0)
        k = np.arange(spec.shape[0])
        if self.samples % 2 == 0:
            k = k.copy()
            k[-1] = 0
        dper = np.fft.irfft(2j * np.pi * k[:, None] * spec, n=self.samples, axis=0)
        return dper + self.winding[None, :]


@dataclass
class CriticalPointReport:
    flow_residual: float
    gradient_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return (self.flow_residual <= self.tol
                and self.gradient_residual <= self.tol)


def check_critical_point(system: HamiltonianSystem, point: CriticalPoint,
                         tol: float = TOL_CRIT) -> CriticalPointReport:
    """Residuals of the two critical-point equations at the loop samples.

    The loop must satisfy gamma' = X_H(theta, gamma, lam) pointwise and the
    average of grad_lam H over the loop must vanish.
    """
    dims = system.dims
    if point.gamma.shape[1] != dims.loop or point.lam.shape != (dims.m,):
        raise DimensionMismatch("critical point does not match system dimensions")
    thetas = np.arange(point.samples) / point.samples
    vel = point.velocity_at_nodes()
    flow_res = 0.0
    grad_sum = np.zeros(dims.m)
    for j, t in enumerate(thetas):
        fx = np.asarray(system.vector_field(t, point.gamma[j], point.lam), dtype=float)
        flow_res = max(flow_res, float(np.max(np.abs(vel[j] - fx))))
        grad_sum += np.asarray(system.grad_lam(t, point.gamma[j], point.lam), dtype=float)
    grad_res = float(np.max(np.abs(grad_sum / point.samples))) if dims.m else 0.0
    return CriticalPointReport(flow_res, grad_res, tol)


def _stage_points(point: CriticalPoint, nsteps: int):
    """Loop values at integration nodes (wrapped) and midpoints."""
    node_t = np.arange(nsteps + 1) / nsteps
    mid_t = (np.arange(nsteps) + 0.5) / nsteps
    return (node_t, point.gamma_at(node_t)), (mid_t, point.gamma_at(mid_t))


def linearized_flow_path(system: HamiltonianSystem, point: CriticalPoint,
                         tol: float = TOL_CRIT) -> PathData:
    """Integrate the linearized return data along the critical loop.

    The loop must pass check_critical_point at tol; the integration takes
    max(point.samples, 128) steps.
    """
    dims = system.dims
    report = check_critical_point(system, point, tol)
    if not report.ok:
        raise InvalidInput(
            "loop is not a critical point: flow residual "
            f"{report.flow_residual:.3e}, gradient residual "
            f"{report.gradient_residual:.3e} (tol {tol:.1e})")
    nsteps = max(point.samples, 128)
    (node_t, node_g), (mid_t, mid_g) = _stage_points(point, nsteps)

    ln, pm = dims.loop, dims.m

    def sample(ts, gs):
        count = len(ts)
        jx = np.empty((count, ln, ln))
        jl = np.empty((count, ln, pm))
        hx = np.empty((count, pm, ln))
        hl = np.empty((count, pm, pm))
        for i, (t, g) in enumerate(zip(ts, gs)):
            jx[i] = np.asarray(system.jac_x(t, g, point.lam), dtype=float)
            jl[i] = np.asarray(system.jac_lam(t, g, point.lam),
                               dtype=float).reshape(ln, pm)
            hm = np.asarray(system.hess_mixed(t, g, point.lam),
                            dtype=float).reshape(pm, ln + pm)
            hx[i] = hm[:, :ln]
            hl[i] = hm[:, ln:]
        return jx, jl, hx, hl

    jx_n, jl_n, hx_n, hl_n = sample(node_t, node_g)
    jx_m, jl_m, hx_m, hl_m = sample(mid_t, mid_g)

    j0 = dims.j_loop()
    stacked = j0 @ np.concatenate([jx_n, jx_m])
    asym = 0.5 * float(np.max(np.abs(stacked - np.swapaxes(stacked, -1, -2))))
    if asym > 1e-6 * max(1.0, float(np.max(np.abs(jx_n)))):
        raise InvalidInput(
            f"jac_x is not infinitesimally symplectic (defect {asym:.3e}); "
            "check the sign convention of the vector field")

    return integrate_path(dims, node_t, generator(dims, jx_n, jl_n, -hx_n, -hl_n),
                          generator(dims, jx_m, jl_m, -hx_m, -hl_m))


@dataclass
class ExtendedFlowReport:
    symplectic_defect: float
    dual_block_residual: float
    twist_block_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return max(self.symplectic_defect, self.dual_block_residual,
                   self.twist_block_residual) <= self.tol


def extended_flow_check(pd: PathData, tol: float = 1e-6) -> ExtendedFlowReport:
    """Certify that the sampled path assembles to a flow differential.

    Uses the independently integrated blocks carried by the path data:
    B must equal X^T J0 and the antisymmetric part of the raw parameter
    integral must equal X^T J0 X / 2; the assembled matrix must be
    symplectic for the extended structure.
    """
    if pd.f_raw is None or pd.b_raw is None:
        raise InvalidInput("path data lacks the raw integral blocks; "
                           "integrate it with linearized_flow_path")
    jext = pd.dims.j_ext()
    mats = pd.assembled()
    defect = float(np.max(np.abs(np.swapaxes(mats, -1, -2) @ jext @ mats - jext)))
    twist, dual = carried_block_residuals(pd)
    return ExtendedFlowReport(defect, dual, twist, tol)


def parametrized_rs_index(pd: PathData, tol_sv: Optional[float] = None,
                          sample_hint: Optional[int] = None) -> IndexResult:
    """Index of the linearized return path with the dual-slot family.

    The endpoint must be nondegenerate (is_nondegenerate): the kernel of
    the extended return matrix may contain nothing beyond the structural
    dual directions, with the margin find_crossings needs.
    """
    kwargs = {} if tol_sv is None else {"tol_sv": tol_sv}
    el = pd.endpoint()
    if not is_nondegenerate(el, **kwargs):
        raise DegenerateEndpoint(
            "return map is degenerate at theta = 1 (smallest excess "
            f"eigenphase {endpoint_phase(el):.3e})")
    snm = pd.to_snm_path(sample_hint=sample_hint)
    path = snm.to_path()
    family = KernelFamily.dual_slot(pd.dims)
    return rs_index_stratified(path, family, validate=False, **kwargs)


def transform_system(system: HamiltonianSystem, phi: np.ndarray,
                     rot: np.ndarray) -> HamiltonianSystem:
    """Push the system through x -> phi x, lam -> rot lam.

    phi must be symplectic for the loop structure and rot orthogonal.
    The transformed Hamiltonian is H(theta, phi x, rot lam); its derivative
    data follows by the chain rule, and critical points map by the inverse
    coordinate change.
    """
    dims = system.dims
    j0 = dims.j_loop()
    phi = np.asarray(phi, dtype=float)
    rot = np.asarray(rot, dtype=float)
    if float(np.max(np.abs(phi.T @ j0 @ phi - j0))) > 1e-9:
        raise InvalidInput("phi is not symplectic for the loop structure")
    if dims.m and float(np.max(np.abs(rot.T @ rot - np.eye(dims.m)))) > 1e-9:
        raise InvalidInput("rot is not orthogonal")
    phi_inv = np.linalg.solve(phi, np.eye(dims.loop))

    def vf(t, x, lam):
        return phi_inv @ system.vector_field(t, phi @ x, rot @ lam)

    def jx(t, x, lam):
        return phi_inv @ system.jac_x(t, phi @ x, rot @ lam) @ phi

    def jl(t, x, lam):
        return phi_inv @ np.asarray(system.jac_lam(t, phi @ x, rot @ lam)).reshape(
            dims.loop, dims.m) @ rot

    def gl(t, x, lam):
        return rot.T @ np.asarray(system.grad_lam(t, phi @ x, rot @ lam)).reshape(dims.m)

    def hm(t, x, lam):
        h = np.asarray(system.hess_mixed(t, phi @ x, rot @ lam)).reshape(
            dims.m, dims.loop + dims.m)
        left = rot.T @ h[:, :dims.loop] @ phi
        right = rot.T @ h[:, dims.loop:] @ rot
        return np.concatenate([left, right], axis=1)

    return HamiltonianSystem(dims, vf, jx, jl, gl, hm,
                             label=system.label + "+transformed")


def transform_point(point: CriticalPoint, phi: np.ndarray,
                    rot: np.ndarray) -> CriticalPoint:
    """Critical point of the transformed system matching transform_system."""
    phi = np.asarray(phi, dtype=float)
    rot = np.asarray(rot, dtype=float)
    phi_inv = np.linalg.solve(phi, np.eye(phi.shape[0]))
    gamma = point.gamma @ phi_inv.T
    lam = rot.T @ point.lam if point.lam.size else point.lam
    winding = phi_inv @ point.winding
    return CriticalPoint(gamma, lam, winding)
