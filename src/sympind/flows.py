"""Parameter-dependent Hamiltonian systems and their linearized flows.

A system supplies the vector field of H(theta, x, lam) on R^{2n} x R^m
together with its first derivatives in x and lam, the gradient of H in
lam, and the mixed Hessian of that gradient.  Sign conventions follow
the standard structure J0: the field is X_H = -J0 grad_x H, so the
linearization Dx X_H equals J0 S with S = -Hess_x H symmetric.  Every
callback is evaluated on a whole grid of loop times in one call: it takes
a 1-D array of B times, the (B, 2n) loop points and the (m,) parameter
vector, and returns its values stacked along axis 0 (HamiltonianSystem
lists the shapes).

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

The loop is known by G samples, and between them by its trigonometric
interpolant (the one trig_eval evaluates).  The RK4 nodes j/N and
midpoints (j + 1/2)/N together form the uniform grid k/(2N), so the
integration evaluates the interpolant there by one zero-padded inverse
FFT (CriticalPoint.gamma_on_grid) instead of a dense sum over the
points; for even G the Nyquist term enters with weight one, as in
trig_eval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coefficients import (PathData, carried_block_residuals, generator,
                           integrate_path)
from .errors import (DegenerateEndpoint, DimensionMismatch, InvalidInput,
                     ShapeError)
from .linalg import TOL_EIG, TOL_SV
from .paths import KernelFamily
from .rsindex import (IndexResult, endpoint_phase, is_nondegenerate,
                      rs_index_stratified)
from .snm import Dimensions

TOL_CRIT = 1e-6


SystemCallback = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class HamiltonianSystem:
    """Callable bundle describing H(theta, x, lam) through its derivatives.

    Each callback takes (theta, x, lam): theta a 1-D array of B loop times,
    x the (B, 2n) loop points and lam the (m,) parameter vector.  It
    returns one value per time, stacked along axis 0:

    vector_field: (B, 2n)           the field -J0 grad_x H
    jac_x:        (B, 2n, 2n)       d(vector_field)/dx
    jac_lam:      (B, 2n, m)        d(vector_field)/dlam
    grad_lam:     (B, m)            d H / d lam
    hess_mixed:   (B, m, 2n + m)    d(grad_lam)/d(x, lam)
    """

    dims: Dimensions
    vector_field: SystemCallback
    jac_x: SystemCallback
    jac_lam: SystemCallback
    grad_lam: SystemCallback
    hess_mixed: SystemCallback


def _evaluate(system: HamiltonianSystem, name: str, thetas: np.ndarray,
              xs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """One callback on the loop grid, with the shape of its stack checked."""
    ln, m = system.dims.loop, system.dims.m
    tail = {"vector_field": (ln,), "jac_x": (ln, ln), "jac_lam": (ln, m),
            "grad_lam": (m,), "hess_mixed": (m, ln + m)}[name]
    out = getattr(system, name)(thetas, xs, lam)
    want = (len(thetas),) + tail
    if np.shape(out) != want:
        raise ShapeError(f"{name} returned shape {np.shape(out)}, expected {want}")
    return out


@dataclass
class CriticalPoint:
    """Loop samples with parameter vector; gamma_j at theta_j = j/G.

    winding records the affine drift gamma(theta + 1) = gamma(theta) + winding,
    so angle-valued coordinates can live in a linear chart.  Between the
    samples the loop is theta * winding plus the trigonometric interpolant
    of the periodic part, with the Nyquist cosine of an even G counted
    once (as trig_eval counts it); gamma_on_grid evaluates it on a finer
    uniform grid.
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

    def gamma_on_grid(self, size: int) -> np.ndarray:
        """The loop at theta = k/size for k = 0..size, size > samples.

        One zero-padded inverse real FFT of the periodic part.  An even
        G's Nyquist bin is halved, since the longer transform would count
        it twice; the wrap value k = size repeats k = 0 before the drift
        theta * winding is added.
        """
        if size <= self.samples:
            raise ShapeError(f"grid size {size} must exceed the {self.samples} samples")
        spec = np.fft.rfft(self.periodic_part(), axis=0)
        if self.samples % 2 == 0:
            spec[-1] *= 0.5
        per = np.fft.irfft(spec, n=size, axis=0) * (size / self.samples)
        thetas = np.arange(size + 1) / size
        return np.concatenate([per, per[:1]]) + thetas[:, None] * self.winding[None, :]

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
    fx = _evaluate(system, "vector_field", thetas, point.gamma, point.lam)
    grad = _evaluate(system, "grad_lam", thetas, point.gamma, point.lam)
    flow_res = float(np.max(np.abs(point.velocity_at_nodes() - fx)))
    grad_res = float(np.max(np.abs(grad.mean(axis=0)))) if dims.m else 0.0
    return CriticalPointReport(flow_res, grad_res, tol)


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
    node_t = np.arange(nsteps + 1) / nsteps
    # nodes j/N and midpoints (j + 1/2)/N are the even and odd points of
    # the grid k/(2N), as the same floats
    gs = point.gamma_on_grid(2 * nsteps)

    def sample(ts, xs):
        """Callback stacks on a grid of loop times; hess_mixed split in x, lam."""
        jx = _evaluate(system, "jac_x", ts, xs, point.lam)
        jl = _evaluate(system, "jac_lam", ts, xs, point.lam)
        hm = _evaluate(system, "hess_mixed", ts, xs, point.lam)
        return jx, jl, hm[:, :, :dims.loop], hm[:, :, dims.loop:]

    jx_n, jl_n, hx_n, hl_n = sample(node_t, gs[::2])
    jx_m, jl_m, hx_m, hl_m = sample((np.arange(nsteps) + 0.5) / nsteps, gs[1::2])

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


def extended_flow_check(pd: PathData) -> ExtendedFlowReport:
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
    return ExtendedFlowReport(defect, dual, twist, 1e-6)


def parametrized_rs_index(pd: PathData, tol_sv: float = TOL_SV,
                          tol_eig: float = TOL_EIG,
                          sample_hint: Optional[int] = None) -> IndexResult:
    """Index of the linearized return path with the dual-slot family.

    The endpoint must be nondegenerate (is_nondegenerate): the kernel of
    the extended return matrix may contain nothing beyond the structural
    dual directions, with the margin find_crossings needs.
    """
    el = pd.endpoint()
    if not is_nondegenerate(el, tol_sv):
        raise DegenerateEndpoint(
            "return map is degenerate at theta = 1 (smallest excess "
            f"eigenphase {endpoint_phase(el):.3e})")
    snm = pd.to_snm_path(sample_hint=sample_hint)
    path = snm.to_path()
    family = KernelFamily.dual_slot(pd.dims)
    return rs_index_stratified(path, family, tol_sv, tol_eig, validate=False)


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
        return system.vector_field(t, x @ phi.T, rot @ lam) @ phi_inv.T

    def jx(t, x, lam):
        return phi_inv @ system.jac_x(t, x @ phi.T, rot @ lam) @ phi

    def jl(t, x, lam):
        return phi_inv @ system.jac_lam(t, x @ phi.T, rot @ lam) @ rot

    def gl(t, x, lam):
        return system.grad_lam(t, x @ phi.T, rot @ lam) @ rot

    def hm(t, x, lam):
        h = system.hess_mixed(t, x @ phi.T, rot @ lam)
        left = rot.T @ h[:, :, :dims.loop] @ phi
        right = rot.T @ h[:, :, dims.loop:] @ rot
        return np.concatenate([left, right], axis=2)

    return HamiltonianSystem(dims, vf, jx, jl, gl, hm)


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
