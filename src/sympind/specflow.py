"""Spectral flow of loop-operator families, two independent ways.

An operator family interpolates coefficient sets (S, C, D) between two
s-independent asymptotes.  Its spectral flow is computed

* by the matrix path: s maps to the endpoint matrix M(s, 1) of the
  integrated coefficients, and the stratified index with the constant
  dual-slot family counts crossings with signs; and

* by Galerkin truncation: the quadratic form

      (zeta, ell) -> int <J0 zeta' + S zeta + C^T ell, zeta> dtheta
                     + <int C zeta dtheta + (int D) ell, ell>

  restricted to Fourier modes |k| <= K, where the flow of a family on a
  fixed finite space is the inertia difference of its endpoints.

Both routes return the same integer on nondegenerate families; crossing
reports carry the quadratic-form matrices computed three ways (from the
path derivative, from the endpoint-block display, and from the reduced
(zeta_0, ell) display) so their agreement can be asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .coefficients import (OperatorCoefficients, PathData,
                           path_from_coefficients, return_data)
from .errors import (DegenerateAsymptote, InvalidInput, ShapeError,
                     TruncationUnstable)
from .halfint import HalfInteger
from .linalg import TOL_SV, kernel_basis, sym_part, symplectic_inverse
from .paths import KernelFamily, SymplecticPath
from .rsindex import (CrossingReport, endpoint_sigma, is_nondegenerate,
                      rs_index_stratified)
from .snm import Dimensions, SnmElement, assemble_blocks, reduced_return_matrix

S_SPAN = 16.0
S_COUNT = 161
ASYMPTOTE_TOL = 1e-9
EDGE_FRACTION = 0.1
GALERKIN_MODES = 32
GALERKIN_GAP = 8
GALERKIN_EIG_TOL = 1e-8
FLOW_TOL_SV = 1e-7
FD_S_FACTOR = 1e-6


class OperatorFamily:
    """Coefficient tables over an s-grid with frozen ends.

    Tables are sampled at (s_i, theta_j) with theta_j = j/N; between
    s-grid points the family is the componentwise cubic spline of its
    samples, which is what every computation here consumes.
    """

    def __init__(self, dims: Dimensions, s_grid: np.ndarray, s_table: np.ndarray,
                 c_table: np.ndarray, d_table: np.ndarray, validate: bool = True):
        self.dims = dims
        self.s_grid = np.asarray(s_grid, dtype=float)
        self.s_table = np.asarray(s_table, dtype=float)
        self.c_table = np.asarray(c_table, dtype=float)
        self.d_table = np.asarray(d_table, dtype=float)
        ns = len(self.s_grid)
        if ns < 8:
            raise ShapeError("s_grid needs at least 8 points")
        if np.any(np.diff(self.s_grid) <= 0):
            raise InvalidInput("s_grid must be strictly increasing")
        n_theta = self.s_table.shape[1] if self.s_table.ndim > 1 else 0
        if self.s_table.shape != (ns, n_theta, dims.loop, dims.loop):
            raise ShapeError("S table shape mismatch")
        if self.c_table.shape != (ns, n_theta, dims.m, dims.loop):
            raise ShapeError("C table shape mismatch")
        if self.d_table.shape != (ns, n_theta, dims.m, dims.m):
            raise ShapeError("D table shape mismatch")
        self.n_theta = n_theta
        if validate:
            self._validate()
        self._spline_s = CubicSpline(self.s_grid, self.s_table, axis=0)
        self._spline_c = CubicSpline(self.s_grid, self.c_table, axis=0)
        self._spline_d = CubicSpline(self.s_grid, self.d_table, axis=0)

    def _validate(self) -> None:
        for name, arr in (("S", self.s_table), ("D", self.d_table)):
            if arr.size:
                dev = float(np.max(np.abs(arr - np.swapaxes(arr, -1, -2))))
                if dev > 1e-8 * max(1.0, float(np.max(np.abs(arr)))):
                    raise InvalidInput(f"{name} table asymmetric by {dev:.3e}")
        edge = max(2, int(np.ceil(EDGE_FRACTION * len(self.s_grid))))
        for name, arr in (("S", self.s_table), ("C", self.c_table),
                          ("D", self.d_table)):
            if not arr.size:
                continue
            scale = max(1.0, float(np.max(np.abs(arr))))
            lo = float(np.max(np.abs(arr[:edge] - arr[0])))
            hi = float(np.max(np.abs(arr[-edge:] - arr[-1])))
            if max(lo, hi) > ASYMPTOTE_TOL * scale:
                raise InvalidInput(
                    f"{name} not asymptotically constant: edge drift "
                    f"{max(lo, hi):.3e} exceeds {ASYMPTOTE_TOL:.1e}")

    @property
    def s_min(self) -> float:
        return float(self.s_grid[0])

    @property
    def s_max(self) -> float:
        return float(self.s_grid[-1])

    def left_asymptote(self) -> OperatorCoefficients:
        return OperatorCoefficients(self.dims, self.s_table[0], self.c_table[0],
                                    self.d_table[0])

    def right_asymptote(self) -> OperatorCoefficients:
        return OperatorCoefficients(self.dims, self.s_table[-1], self.c_table[-1],
                                    self.d_table[-1])

    def coefficients_at(self, s: float) -> OperatorCoefficients:
        if s <= self.s_min:
            return self.left_asymptote()
        if s >= self.s_max:
            return self.right_asymptote()
        return OperatorCoefficients(self.dims, self._spline_s(s),
                                    self._spline_c(s), self._spline_d(s))

    def tables_at(self, s_batch: np.ndarray):
        s_batch = np.clip(np.asarray(s_batch, dtype=float), self.s_min, self.s_max)
        return (self._spline_s(s_batch), self._spline_c(s_batch),
                self._spline_d(s_batch))

    def return_data_at(self, s_batch: np.ndarray):
        """(Psi, X, E) at theta = 1 for a batch of s values."""
        s_arr = np.atleast_1d(np.asarray(s_batch, dtype=float))
        return return_data(self.dims, *self.tables_at(s_arr))

    def return_path(self) -> SymplecticPath:
        """The path s -> M(s, 1) as a vectorized symplectic path."""
        dims = self.dims

        def evaluate(s):
            psi, x, e = self.return_data_at(s)
            mats = assemble_blocks(dims, psi, x, e)
            return mats[0] if np.ndim(s) == 0 else mats

        return SymplecticPath((self.s_min, self.s_max), evaluate,
                              jmat=dims.j_ext(), sample_hint=512,
                              vectorized=True)

    @classmethod
    def from_asymptotes(cls, left: OperatorCoefficients,
                        right: OperatorCoefficients,
                        s_span: float = S_SPAN, s_count: int = S_COUNT,
                        profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
                        ) -> "OperatorFamily":
        """Monotone interpolation between two frozen asymptotes.

        The default profile (1 + tanh s)/2 is flat to below 1e-9 on the
        outer 10% of [-s_span, s_span].
        """
        if left.dims != right.dims or left.n_theta != right.n_theta:
            raise InvalidInput("asymptotes must share dimensions and grid")
        s_grid = np.linspace(-s_span, s_span, s_count)
        w = 0.5 * (1.0 + np.tanh(s_grid)) if profile is None else profile(s_grid)
        w = np.asarray(w, dtype=float)

        def blend(a, b):
            return a[None] + w[:, None, None, None] * (b - a)[None]

        return cls(left.dims, s_grid, blend(left.s, right.s),
                   blend(left.c, right.c), blend(left.d, right.d))


def random_trig_samples(rng: np.random.Generator, n_theta: int, shape,
                        degree: int = 3, alpha: float = 0.8,
                        symmetric: bool = False) -> np.ndarray:
    """Random trigonometric-polynomial samples on theta_j = j/N."""
    thetas = np.arange(n_theta) / n_theta
    out = np.zeros((n_theta,) + shape)
    for k in range(degree + 1):
        scale = alpha / (1.0 + k) ** 2
        a = rng.standard_normal(shape) * scale
        if symmetric:
            a = sym_part(a)
        if k == 0:
            out += a[None]
            continue
        b = rng.standard_normal(shape) * scale
        if symmetric:
            b = sym_part(b)
        out += (np.cos(2 * np.pi * k * thetas)[:, None, None] * a[None]
                + np.sin(2 * np.pi * k * thetas)[:, None, None] * b[None])
    return out


def random_coefficients(dims: Dimensions, rng: np.random.Generator,
                        n_theta: int = 512, degree: int = 3,
                        alpha: float = 0.8) -> OperatorCoefficients:
    s = random_trig_samples(rng, n_theta, (dims.loop, dims.loop), degree,
                            alpha, symmetric=True)
    c = random_trig_samples(rng, n_theta, (dims.m, dims.loop), degree, alpha)
    d = random_trig_samples(rng, n_theta, (dims.m, dims.m), degree, alpha,
                            symmetric=True)
    return OperatorCoefficients(dims, s, c, d)


def random_operator_family(dims: Dimensions, seed: int, n_theta: int = 512,
                           degree: int = 3, alpha: float = 0.8,
                           s_span: float = S_SPAN, s_count: int = S_COUNT,
                           max_tries: int = 16) -> OperatorFamily:
    """Seeded family with nondegenerate asymptotes (retrying the draw).

    A drawn asymptote must pass is_nondegenerate at FLOW_TOL_SV, the
    check spectral_flow_matrix makes; the retry is deterministic in the
    seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        left = random_coefficients(dims, rng, n_theta, degree, alpha)
        right = random_coefficients(dims, rng, n_theta, degree, alpha)
        if all(is_nondegenerate(asymptotic_kernel(c).element, FLOW_TOL_SV)
               for c in (left, right)):
            return OperatorFamily.from_asymptotes(left, right, s_span, s_count)
    raise InvalidInput(f"no nondegenerate asymptote pair found for seed {seed}")


def split_tanh_family(alpha: float = 1.2, m: int = 1, n: int = 1,
                      n_theta: int = 512) -> OperatorFamily:
    """Uncoupled anchor family: S = alpha I fixed, D sweeping -I to +I.

    For 0 < alpha < pi the flow is +m: each parameter direction carries
    one eigenvalue crossing zero upward at s = 0.
    """
    if not 0.0 < alpha < np.pi:
        raise InvalidInput("alpha must lie in (0, pi)")
    dims = Dimensions(n, m)
    s0 = np.broadcast_to(alpha * np.eye(dims.loop),
                         (n_theta, dims.loop, dims.loop)).copy()
    c0 = np.zeros((n_theta, dims.m, dims.loop))
    dm = np.broadcast_to(-np.eye(m), (n_theta, m, m)).copy()
    dp = np.broadcast_to(np.eye(m), (n_theta, m, m)).copy()
    left = OperatorCoefficients(dims, s0, c0, dm)
    right = OperatorCoefficients(dims, s0, c0, dp)
    return OperatorFamily.from_asymptotes(left, right)


@dataclass
class AsymptoticKernel:
    """Kernel of the asymptotic operator from the endpoint linear system."""

    dimension: int
    vectors: np.ndarray          # (2n+m, dim) solutions (zeta_0, ell)
    element: SnmElement
    path_data: PathData

    def loops(self, thetas: np.ndarray) -> np.ndarray:
        """Kernel loops zeta(theta) = Psi (zeta_0 + X ell), one per column."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        dims = self.path_data.dims
        snm = self.path_data.to_snm_path()
        out = np.empty((len(thetas), dims.loop, self.dimension))
        for i, t in enumerate(thetas):
            psi = snm.psi(t)
            x = snm.x(t)
            z0 = self.vectors[:dims.loop]
            ell = self.vectors[dims.loop:]
            out[i] = psi @ (z0 + x @ ell)
        return out


def asymptotic_kernel(coeffs: OperatorCoefficients,
                      tol_sv: float = TOL_SV) -> AsymptoticKernel:
    """Solve the endpoint linear system for kernel elements of A.

    The count always equals dim ker(M(1) - I) - m; a dimension of zero
    certifies a nondegenerate asymptote.
    """
    pd = path_from_coefficients(coeffs)
    el = pd.endpoint()
    red = reduced_return_matrix(el)
    vecs = kernel_basis(red, tol_sv)
    stratum = el.stratum(tol_sv)
    if vecs.shape[1] != stratum:
        raise InvalidInput(
            f"kernel count mismatch: reduced system gives {vecs.shape[1]}, "
            f"extended matrix gives {stratum}; tighten the grid")
    return AsymptoticKernel(vecs.shape[1], vecs, el, pd)


@dataclass
class FlowCrossing:
    s: float
    kernel_dim: int
    signature: int
    form_path: np.ndarray
    form_blocks: np.ndarray
    form_reduced: np.ndarray

    @property
    def block_deviation(self) -> float:
        return float(np.max(np.abs(self.form_path - self.form_blocks)))

    @property
    def reduced_deviation(self) -> float:
        return float(np.max(np.abs(self.form_path - self.form_reduced)))


@dataclass
class SpectralFlowResult:
    value: int
    method: str
    crossings: List[FlowCrossing] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _crossing_block_forms(fam: OperatorFamily, report: CrossingReport,
                          delta: Optional[float] = None):
    """The two displayed quadratic-form matrices at one crossing.

    Central finite differences in s of the return data feed both the
    full-size block matrix (acting on (zeta_0, ell, v)) and the reduced
    one (acting on (zeta_0, ell)); each is then compressed onto the
    crossing's quotient basis.
    """
    dims = fam.dims
    j0 = dims.j_loop()
    ln, pm = dims.loop, dims.m
    if delta is None:
        delta = FD_S_FACTOR * (fam.s_max - fam.s_min)
    s = report.t
    psi3, x3, e3 = fam.return_data_at(np.array([s - delta, s, s + delta]))
    psi, x = psi3[1], x3[1]
    dpsi = (psi3[2] - psi3[0]) / (2 * delta)
    dx = (x3[2] - x3[0]) / (2 * delta)
    de = (e3[2] - e3[0]) / (2 * delta)
    s_hat = sym_part(-j0 @ dpsi @ symplectic_inverse(psi, j0))
    sym_xjdx = sym_part(x.T @ j0 @ dx)

    blocks = np.zeros((dims.total, dims.total))
    blocks[:ln, :ln] = s_hat
    blocks[:ln, ln:ln + pm] = -j0 @ psi @ dx
    blocks[ln:ln + pm, :ln] = dx.T @ psi.T @ j0
    blocks[ln:ln + pm, ln:ln + pm] = de + sym_xjdx

    reduced = np.zeros((ln + pm, ln + pm))
    reduced[:ln, :ln] = s_hat
    reduced[:ln, ln:] = -j0 @ dx
    reduced[ln:, :ln] = dx.T @ j0
    reduced[ln:, ln:] = de - sym_xjdx

    basis = report.basis
    form_blocks = basis.T @ blocks @ basis
    trunc = basis[:ln + pm]
    form_reduced = trunc.T @ reduced @ trunc
    return form_blocks, form_reduced


def spectral_flow_matrix(fam: OperatorFamily, tol_sv: float = FLOW_TOL_SV,
                         samples: Optional[int] = None) -> SpectralFlowResult:
    """Spectral flow as the stratified index of the endpoint-matrix path."""
    for side, coeffs in (("left", fam.left_asymptote()),
                         ("right", fam.right_asymptote())):
        kernel = asymptotic_kernel(coeffs)
        if not is_nondegenerate(kernel.element, tol_sv):
            raise DegenerateAsymptote(
                f"{side} asymptote is degenerate (kernel dimension "
                f"{kernel.dimension}, relative monitored singular value "
                f"{endpoint_sigma(kernel.element):.3e})")
    path = fam.return_path()
    family = KernelFamily.dual_slot(fam.dims)
    result = rs_index_stratified(path, family, tol_sv=tol_sv, samples=samples,
                                 validate=False)
    if not result.value.is_integer():
        raise InvalidInput(
            f"flow came out non-integer ({result.value}) despite "
            "nondegenerate asymptotes")
    crossings = []
    for rep in result.crossings:
        form_blocks, form_reduced = _crossing_block_forms(fam, rep)
        crossings.append(FlowCrossing(rep.t, rep.kernel_dim, rep.signature,
                                      rep.form, form_blocks, form_reduced))
    return SpectralFlowResult(result.value.as_int(), "matrix", crossings,
                              details={"index": result})


def fourier_profiles(modes: int, thetas: np.ndarray) -> np.ndarray:
    """Orthonormal real Fourier profiles evaluated on a theta grid.

    Row 0 is the constant; rows 2k-1 and 2k are sqrt(2) cos and sin of
    frequency k, for k = 1..modes.
    """
    rows = [np.ones_like(thetas)]
    for k in range(1, modes + 1):
        rows.append(np.sqrt(2.0) * np.cos(2 * np.pi * k * thetas))
        rows.append(np.sqrt(2.0) * np.sin(2 * np.pi * k * thetas))
    return np.stack(rows)


def galerkin_matrix(coeffs: OperatorCoefficients, modes: int) -> np.ndarray:
    """Symmetric matrix of the loop form on modes |k| <= modes plus R^m.

    Quadrature is the exact grid mean; the coefficient samples must be
    band-limited below the Nyquist frequency of their own grid, which
    holds for every generator in this package.
    """
    dims = coeffs.dims
    ln, pm = dims.loop, dims.m
    n_theta = coeffs.n_theta
    if 2 * (modes + 1) >= n_theta:
        raise InvalidInput("theta grid too coarse for the requested modes")
    thetas = np.arange(n_theta) / n_theta
    prof = fourier_profiles(modes, thetas)          # (2K+1, N)
    nb = prof.shape[0]
    j0 = dims.j_loop()

    s_block = np.einsum("ag,gij,bg->aibj", prof, coeffs.s, prof) / n_theta
    loop = s_block.reshape(nb * ln, nb * ln).copy()
    for k in range(1, modes + 1):
        rate = 2 * np.pi * k
        ic, isn = 2 * k - 1, 2 * k
        loop[ic * ln:(ic + 1) * ln, isn * ln:(isn + 1) * ln] += rate * j0
        loop[isn * ln:(isn + 1) * ln, ic * ln:(ic + 1) * ln] -= rate * j0

    size = nb * ln + pm
    out = np.zeros((size, size))
    out[:nb * ln, :nb * ln] = loop
    if pm:
        coup = np.einsum("bg,gai->bia", prof, coeffs.c).reshape(nb * ln, pm)
        coup /= n_theta
        out[:nb * ln, nb * ln:] = coup
        out[nb * ln:, :nb * ln] = coup.T
        out[nb * ln:, nb * ln:] = coeffs.d.mean(axis=0)
    return sym_part(out)


def galerkin_kernel_dimension(coeffs: OperatorCoefficients, modes: int,
                              threshold: float = 1e-6) -> int:
    """Count near-zero eigenvalues of the truncated operator."""
    g = galerkin_matrix(coeffs, modes)
    w = np.linalg.eigvalsh(g)
    cut = threshold * max(1.0, float(np.max(np.abs(w))))
    return int(np.count_nonzero(np.abs(w) <= cut))


def _galerkin_negatives(coeffs: OperatorCoefficients, modes: int,
                        tol_eig: float) -> int:
    g = galerkin_matrix(coeffs, modes)
    w = np.linalg.eigvalsh(g)
    guard = tol_eig * max(1.0, float(np.max(np.abs(w))))
    if float(np.min(np.abs(w))) <= guard:
        raise TruncationUnstable(
            "near-zero Galerkin eigenvalue at an asymptote; the endpoint "
            "operator must be invertible (raise modes or fix the family)")
    return int(np.count_nonzero(w < 0))


def spectral_flow_galerkin(fam: OperatorFamily, modes: int = GALERKIN_MODES,
                           gap: int = GALERKIN_GAP,
                           tol_eig: float = GALERKIN_EIG_TOL) -> SpectralFlowResult:
    """Spectral flow as the endpoint inertia difference, checked at two K."""
    left = fam.left_asymptote()
    right = fam.right_asymptote()
    values = {}
    for k in (modes, modes + gap):
        values[k] = (_galerkin_negatives(left, k, tol_eig)
                     - _galerkin_negatives(right, k, tol_eig))
    if values[modes] != values[modes + gap]:
        raise TruncationUnstable(
            f"flow value changed between {modes} and {modes + gap} modes "
            f"({values[modes]} vs {values[modes + gap]}); raise modes")
    return SpectralFlowResult(values[modes], "galerkin",
                              details={"negatives_by_modes": values,
                                       "modes": modes})


@dataclass
class MainTheoremReport:
    flow_matrix: SpectralFlowResult
    flow_galerkin: SpectralFlowResult
    index_left: HalfInteger
    index_right: HalfInteger
    reproduction_error: float

    @property
    def index_difference(self) -> HalfInteger:
        return self.index_right - self.index_left

    @property
    def ok(self) -> bool:
        diff = self.index_difference
        return (diff.is_integer()
                and self.flow_matrix.value == self.flow_galerkin.value
                and self.flow_matrix.value == diff.as_int())


def main_theorem_check(left_pd: PathData, right_pd: PathData,
                       fam: OperatorFamily, modes: int = GALERKIN_MODES,
                       tol_repro: float = 1e-6,
                       tol_sv: float = FLOW_TOL_SV) -> MainTheoremReport:
    """Compare both spectral flows with the endpoint index difference.

    The family's frozen ends must reproduce the supplied asymptote paths;
    the verdict asserts flow = index(right end) - index(left end).
    """
    from .flows import parametrized_rs_index

    repro = 0.0
    for pd, coeffs in ((left_pd, fam.left_asymptote()),
                       (right_pd, fam.right_asymptote())):
        own = path_from_coefficients(coeffs, nsteps=pd.nsteps)
        repro = max(repro,
                    float(np.max(np.abs(own.psi - pd.psi))),
                    float(np.max(np.abs(own.x - pd.x))) if pd.x.size else 0.0,
                    float(np.max(np.abs(own.e - pd.e))) if pd.e.size else 0.0)
    if repro > tol_repro:
        raise InvalidInput(
            f"family ends do not reproduce the asymptote paths "
            f"(deviation {repro:.3e} > {tol_repro:.1e})")
    mu_left = parametrized_rs_index(left_pd).value
    mu_right = parametrized_rs_index(right_pd).value
    flow_m = spectral_flow_matrix(fam, tol_sv=tol_sv)
    flow_g = spectral_flow_galerkin(fam, modes=modes)
    return MainTheoremReport(flow_m, flow_g, mu_left, mu_right, repro)
