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

A family is the componentwise cubic spline in s of its coefficient
tables.  Both that spline and the generator K of the theta-ODE are
linear in the tables, so a family is stored as a few basis coefficient
sets B_k with their K tables, built once, and per-s weights u_k(s):
K(s) = sum_k u_k(s) K(B_k), summed term by term in a fixed order, so an
s value's return data is the same in every batch (see OperatorFamily).
Each end's kernel is integrated once per family and shared by the
generator's retry, spectral_flow_matrix and main_theorem_check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .coefficients import (OperatorCoefficients, PathData, generator_tables,
                           path_from_coefficients, return_data)
from .errors import (DegenerateAsymptote, InvalidInput, ShapeError,
                     TruncationUnstable)
from .halfint import HalfInteger
from .linalg import TOL_SV, kernel_basis, sym_part, symplectic_inverse
from .paths import KernelFamily, SymplecticPath
from .rsindex import (CrossingReport, endpoint_phase, is_nondegenerate,
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
_S_CHUNK = 64


def _spline_slopes(s_grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline of values (axis 0).

    The slopes are a fixed linear map of the values: row i of the map is
    the slope at node i of each cardinal spline (the spline of a unit
    vector), so one small spline serves tables of any shape.
    """
    cardinal = CubicSpline(s_grid, np.eye(len(s_grid)), axis=0)(s_grid, 1)
    return np.tensordot(cardinal, values, axes=1)


def _hermite(s_grid: np.ndarray, s: np.ndarray):
    """Interval index i of each s and its cubic Hermite weights.

    The weights (h00, dh10, h01, dh11) multiply the value at s_i, the
    slope at s_i, the value at s_i+1 and the slope at s_i+1; at a node
    they are exactly (1, 0, 0, 0), or (0, 0, 1, 0) at the last node.
    s outside the grid is moved to its nearer end.
    """
    s = np.clip(s, s_grid[0], s_grid[-1])
    i = np.clip(np.searchsorted(s_grid, s, side="right") - 1, 0, len(s_grid) - 2)
    step = s_grid[i + 1] - s_grid[i]
    t = (s - s_grid[i]) / step
    r = 1.0 - t
    return i, np.stack([(1.0 + 2.0 * t) * r * r, step * t * r * r,
                        t * t * (3.0 - 2.0 * t), step * t * t * (t - 1.0)], axis=1)


def _combine(sets: np.ndarray, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j u[:, j] sets[idx[..., j]], one term at a time, elementwise.

    idx is (B, k), or (k,) when every s uses the same sets.  The terms
    are added in a fixed order by elementwise operations only, so the
    value for one s does not depend on the batch it is part of.
    """
    shape = (len(u),) + (1,) * (sets.ndim - 1)
    out = u[:, 0].reshape(shape) * sets[idx[..., 0]]
    for j in range(1, u.shape[1]):
        out += u[:, j].reshape(shape) * sets[idx[..., j]]
    return out


class OperatorFamily:
    """Loop coefficients (S, C, D) over an s-interval with frozen ends.

    Between the s-grid points the family is the componentwise not-a-knot
    cubic spline of its samples at (s_i, theta_j), theta_j = j/N, and
    outside the grid it is frozen at the end samples.  It is stored as a
    few basis coefficient sets B_k and per-s weights u_k(s):

        (S, C, D)(s) = sum_k u_k(s) B_k.

    The generator K of the theta-ODE (coefficients.py) is linear in
    (S, C, D), and so is its spectral midpoint table, so the K tables of
    every B_k are built once, here, and K(s) = sum_k u_k(s) K(B_k) for
    any s.  Spline interpolation is linear in the data too, so this is
    the componentwise spline up to rounding:

    * the table constructor keeps the table rows and their spline node
      slopes as sets; u(s) holds the cubic Hermite weights of the
      interval containing s, so each s combines four sets;
    * from_asymptotes, whose tables are left + w(s_i) (right - left),
      keeps the two sets (left, right - left) with u(s) = (1, w^(s)),
      where w^ is the spline of the scalar profile w.

    The sums run term by term in a fixed order with elementwise
    operations, so an s value's K tables, and its return data, do not
    depend on the batch it is evaluated in.  At the grid ends u is exact,
    so the asymptotes are the end samples bit for bit.  Each end's
    AsymptoticKernel is integrated once, on first use.
    """

    def __init__(self, dims: Dimensions, s_grid: np.ndarray, s_table: np.ndarray,
                 c_table: np.ndarray, d_table: np.ndarray, validate: bool = True):
        s_grid = _checked_s_grid(s_grid)
        ns = len(s_grid)
        tables = tuple(np.asarray(t, dtype=float) for t in (s_table, c_table, d_table))
        n_theta = tables[0].shape[1] if tables[0].ndim > 1 else 0
        for name, table, block in zip("SCD", tables, ((dims.loop, dims.loop),
                                                       (dims.m, dims.loop),
                                                       (dims.m, dims.m))):
            if table.shape != (ns, n_theta) + block:
                raise ShapeError(f"{name} table shape mismatch")
        if validate:
            _validate_tables(tables)
        sets = tuple(np.concatenate([t, _spline_slopes(s_grid, t)]) for t in tables)

        def weights(s):
            i, h = _hermite(s_grid, s)
            return np.stack([i, ns + i, i + 1, ns + i + 1], axis=1), h

        self._set_basis(dims, s_grid, sets, weights)

    def _set_basis(self, dims: Dimensions, s_grid: np.ndarray, sets, weights) -> None:
        """Store the basis sets (S, C, D), their K tables and the weight rule.

        weights maps an array of s values to the set indices and weights
        (idx, u) that _combine takes.
        """
        self.dims = dims
        self.s_grid = s_grid
        self.n_theta = sets[0].shape[1]
        self._sets = sets
        self._weights = weights
        self._nodes, self._mids = generator_tables(dims, *sets)

    @property
    def s_min(self) -> float:
        return float(self.s_grid[0])

    @property
    def s_max(self) -> float:
        return float(self.s_grid[-1])

    def left_asymptote(self) -> OperatorCoefficients:
        return self.coefficients_at(self.s_min)

    def right_asymptote(self) -> OperatorCoefficients:
        return self.coefficients_at(self.s_max)

    @cached_property
    def left_kernel(self) -> "AsymptoticKernel":
        """Kernel of the left asymptote, integrated on first use."""
        return asymptotic_kernel(self.left_asymptote())

    @cached_property
    def right_kernel(self) -> "AsymptoticKernel":
        """Kernel of the right asymptote, integrated on first use."""
        return asymptotic_kernel(self.right_asymptote())

    def coefficients_at(self, s: float) -> OperatorCoefficients:
        idx, u = self._weights(np.array([float(s)]))
        return OperatorCoefficients(self.dims, *(_combine(t, idx, u)[0]
                                                 for t in self._sets))

    def return_data_at(self, s_batch: np.ndarray):
        """(Psi, X, E) at theta = 1 for a batch of s values.

        The batch's K tables are combined from the basis tables and
        propagated _S_CHUNK s values at a time, so the K tables of a long
        scan grid are never all live at once.  An s value's return data
        does not depend on the chunk it falls in.
        """
        s_arr = np.atleast_1d(np.asarray(s_batch, dtype=float))
        parts = []
        for i in range(0, len(s_arr), _S_CHUNK):
            idx, u = self._weights(s_arr[i:i + _S_CHUNK])
            parts.append(return_data(self.dims, _combine(self._nodes, idx, u),
                                     _combine(self._mids, idx, u)))
        return tuple(np.concatenate(blocks) for blocks in zip(*parts))

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

        The family's tables are left + w(s_i) (right - left); they are
        never built.  The default profile (1 + tanh s)/2 is flat to below
        1e-9 on the outer 10% of [-s_span, s_span].
        """
        if left.dims != right.dims or left.n_theta != right.n_theta:
            raise InvalidInput("asymptotes must share dimensions and grid")
        s_grid = _checked_s_grid(np.linspace(-s_span, s_span, s_count))
        w = 0.5 * (1.0 + np.tanh(s_grid)) if profile is None else profile(s_grid)
        w = np.asarray(w, dtype=float)
        sets = tuple(np.stack([a, b - a]) for a, b in ((left.s, right.s),
                                                        (left.c, right.c),
                                                        (left.d, right.d)))
        _validate_profile(w, sets)
        slopes = _spline_slopes(s_grid, w)

        def weights(s):
            i, h = _hermite(s_grid, s)
            w_s = (h[:, 0] * w[i] + h[:, 1] * slopes[i] + h[:, 2] * w[i + 1]
                   + h[:, 3] * slopes[i + 1])
            return np.array([0, 1]), np.stack([np.ones_like(w_s), w_s], axis=1)

        fam = cls.__new__(cls)
        fam._set_basis(left.dims, s_grid, sets, weights)
        return fam


def _checked_s_grid(s_grid) -> np.ndarray:
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) < 8:
        raise ShapeError("s_grid needs at least 8 points")
    if np.any(np.diff(s_grid) <= 0):
        raise InvalidInput("s_grid must be strictly increasing")
    return s_grid


def _edge_count(ns: int) -> int:
    return max(2, int(np.ceil(EDGE_FRACTION * ns)))


def _check_edge_drift(name: str, drift: float, scale: float) -> None:
    if drift > ASYMPTOTE_TOL * scale:
        raise InvalidInput(
            f"{name} not asymptotically constant: edge drift "
            f"{drift:.3e} exceeds {ASYMPTOTE_TOL:.1e}")


def _validate_tables(tables) -> None:
    """S and D tables symmetric, every table constant on its outer edges."""
    for name, arr in (("S", tables[0]), ("D", tables[2])):
        if arr.size:
            dev = float(np.max(np.abs(arr - np.swapaxes(arr, -1, -2))))
            if dev > 1e-8 * max(1.0, float(np.max(np.abs(arr)))):
                raise InvalidInput(f"{name} table asymmetric by {dev:.3e}")
    edge = _edge_count(len(tables[0]))
    for name, arr in zip("SCD", tables):
        if arr.size:
            scale = max(1.0, float(np.max(np.abs(arr))))
            lo = float(np.max(np.abs(arr[:edge] - arr[0])))
            hi = float(np.max(np.abs(arr[-edge:] - arr[-1])))
            _check_edge_drift(name, max(lo, hi), scale)


def _validate_profile(w: np.ndarray, sets) -> None:
    """The edge check of _validate_tables for tables a + w(s_i) b.

    Each entry of such a table is affine in w, so its drift over an edge
    is the profile's drift times |b|, and its largest size is reached at
    the smallest or the largest w.  The sets come from symmetric
    OperatorCoefficients, so the tables are symmetric.
    """
    edge = _edge_count(len(w))
    drift = max(float(np.max(np.abs(w[:edge] - w[0]))),
                float(np.max(np.abs(w[-edge:] - w[-1]))))
    for name, (a, b) in zip("SCD", sets):
        if a.size:
            size = max(float(np.max(np.abs(a + w_end * b)))
                       for w_end in (w.min(), w.max()))
            _check_edge_drift(name, drift * float(np.max(np.abs(b))),
                              max(1.0, size))


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

    Both asymptotes of the family must pass is_nondegenerate at
    FLOW_TOL_SV, the check spectral_flow_matrix makes; the family keeps
    the kernels it was checked with.  The retry is deterministic in the
    seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        left = random_coefficients(dims, rng, n_theta, degree, alpha)
        right = random_coefficients(dims, rng, n_theta, degree, alpha)
        fam = OperatorFamily.from_asymptotes(left, right, s_span, s_count)
        if (is_nondegenerate(fam.left_kernel.element, FLOW_TOL_SV)
                and is_nondegenerate(fam.right_kernel.element, FLOW_TOL_SV)):
            return fam
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


def _require_nondegenerate(side: str, kernel: AsymptoticKernel,
                           tol_sv: float) -> None:
    if not is_nondegenerate(kernel.element, tol_sv):
        raise DegenerateAsymptote(
            f"{side} asymptote is degenerate (kernel dimension "
            f"{kernel.dimension}, smallest excess eigenphase "
            f"{endpoint_phase(kernel.element):.3e})")


def spectral_flow_matrix(fam: OperatorFamily, tol_sv: float = FLOW_TOL_SV,
                         samples: Optional[int] = None) -> SpectralFlowResult:
    """Spectral flow as the stratified index of the endpoint-matrix path."""
    _require_nondegenerate("left", fam.left_kernel, tol_sv)
    _require_nondegenerate("right", fam.right_kernel, tol_sv)
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

    # block (a, b) is the grid mean of prof_a prof_b S: weight the samples
    # by each profile, then one batched product with the profiles
    weighted = prof[:, :, None] * coeffs.s.reshape(n_theta, ln * ln)
    s_block = (prof @ weighted).reshape(nb, nb, ln, ln) / n_theta
    loop = s_block.transpose(0, 2, 1, 3).reshape(nb * ln, nb * ln)
    for k in range(1, modes + 1):
        rate = 2 * np.pi * k
        ic, isn = 2 * k - 1, 2 * k
        loop[ic * ln:(ic + 1) * ln, isn * ln:(isn + 1) * ln] += rate * j0
        loop[isn * ln:(isn + 1) * ln, ic * ln:(ic + 1) * ln] -= rate * j0

    size = nb * ln + pm
    out = np.zeros((size, size))
    out[:nb * ln, :nb * ln] = loop
    if pm:
        coup = np.tensordot(prof, coeffs.c, axes=(1, 0)).transpose(0, 2, 1)
        coup = coup.reshape(nb * ln, pm) / n_theta
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
    an end's own path is the one its kernel was solved on when the step
    counts agree.  The verdict asserts flow = index(right end) -
    index(left end).
    """
    from .flows import parametrized_rs_index

    repro = 0.0
    for pd, side in ((left_pd, "left"), (right_pd, "right")):
        if pd.nsteps == fam.n_theta:
            own = getattr(fam, f"{side}_kernel").path_data
        else:
            own = path_from_coefficients(getattr(fam, f"{side}_asymptote")(),
                                         nsteps=pd.nsteps)
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
