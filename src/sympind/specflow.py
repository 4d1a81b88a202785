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

A TableFamily is the componentwise cubic spline in s of its coefficient
tables; a BlendFamily of two asymptotes is left + w(s) (right - left).
A table family keeps one B-spline per table (scipy's
make_interp_spline), the size of the table, and builds the K tables of
the theta-ODE per chunk of s values from the splines' values there.  A
blend is affine in one scalar w, so it keeps the K tables of its two
sets and forms K(left) + w K(right - left) per chunk of w values
instead.  Either way the K tables go to coefficients.return_data, and
an s value's return data is the same in every batch.  Each end's
kernel is integrated once per family (OperatorFamily) and shared by
the generator's retry, spectral_flow_matrix and main_theorem_check.

With its ends fixed, spectral flow is a homotopy invariant, so the
weight blending two asymptotes cannot change any flow: every such
family uses w(s) = (1 + tanh s)/2 (blend), with s clipped to
[-S_SPAN, S_SPAN], which is increasing.  Its return path is M(s) =
F(w(s)), where F(w) is the return matrix of K(left) + w K(right -
left).  Spectral flow does not change under a monotone
reparametrization (Robbin and Salamon, Bull. LMS 27 (1995); Phillips,
Canad. Math. Bull. 39 (1996)), so spectral_flow_matrix scans w -> F(w)
over [w(s_min), w(s_max)] at W_SCAN_INTERVALS intervals instead of
s -> M(s) at 512.  Each crossing w* goes back to s* = (log w* -
log1p(-w*))/2 (blend_inverse) and its path form to w'(s*) =
1/(2 cosh^2 s*) (blend_slope) times the form in w; the displayed forms
are computed in s as before, from finite differences of the return
data, so they check the path form independently.  Table families are
scanned in s.

F solves a linear ODE whose coefficients are affine in w, so it is
entire in w and its Chebyshev coefficients on the w-interval decay
faster than any geometric rate (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 8).  The w-scan therefore runs
on the Chebyshev series of F (ChebyshevSeries), fitted once per family
from F at SERIES_DEGREE + 1 Chebyshev-Lobatto points, the degree
doubling until the last two coefficients are at most SERIES_TAIL_TOL of
the largest; the path's derivative is the series' derivative.  If the
tail has not converged at SERIES_MAX_DEGREE, which costs about as many
propagations as the scan grid, the scan runs on F itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List

import numpy as np
from numpy.polynomial import chebyshev
from scipy.fft import dct
from scipy.interpolate import make_interp_spline

from .coefficients import (OperatorCoefficients, PathData, generator_tables,
                           path_from_coefficients, return_data)
from .errors import (DegenerateAsymptote, InvalidInput, ShapeError,
                     TruncationUnstable)
from .flows import parametrized_rs_index
from .halfint import HalfInteger
from .linalg import TOL_SV, inertia, kernel_basis, sym_part, symplectic_inverse
from .paths import KernelFamily, SymplecticPath
from .rsindex import endpoint_phase, is_nondegenerate, rs_index_stratified
from .snm import Dimensions, SnmElement, assemble_blocks, reduced_return_matrix

S_SPAN = 16.0
ASYMPTOTE_TOL = 1e-9
EDGE_FRACTION = 0.1
GALERKIN_MODES = 32
GALERKIN_GAP = 8
GALERKIN_EIG_TOL = 1e-8
FLOW_TOL_SV = 1e-7
FD_S_FACTOR = 1e-6
W_SCAN_INTERVALS = 128
SERIES_DEGREE = 16
SERIES_MAX_DEGREE = 128
SERIES_TAIL_TOL = 1e-14
_S_CHUNK = 64


def _in_chunks(data: Callable, values: np.ndarray):
    """The return data blocks of data(values), _S_CHUNK values at a time.

    Only one chunk's propagation is live at once, so a long scan grid
    stays in bounded memory.  An empty batch is one empty chunk, so it
    gives empty stacks.
    """
    starts = range(0, len(values), _S_CHUNK) or [0]
    parts = [data(values[i:i + _S_CHUNK]) for i in starts]
    return tuple(np.concatenate(blocks) for blocks in zip(*parts))


class ChebyshevSeries:
    """Chebyshev series of a matrix function of w on [lo, hi].

    fit samples the function at the Chebyshev-Lobatto points
    w_k = (lo + hi)/2 + (hi - lo)/2 cos(pi k / n), ends included, and
    takes the coefficients of the interpolant by a DCT-I.  The degree n
    starts at SERIES_DEGREE and doubles; the doubled point set holds the
    previous one at its even k, so only the odd points are new.  It stops
    once the tail (the larger of the last two coefficients, in the max
    norm, over the largest) is at most SERIES_TAIL_TOL, or at
    SERIES_MAX_DEGREE; converged says which.  The series and its
    derivative are evaluated by Clenshaw's recurrence (chebval), whose
    operations are elementwise in w, so a w's value does not depend on
    its batch.
    """

    def __init__(self, lo: float, hi: float, coeffs: np.ndarray):
        self.lo, self.hi, self.coeffs = lo, hi, coeffs
        size = np.max(np.abs(coeffs.reshape(len(coeffs), -1)), axis=1)
        self.tail = float(max(size[-2], size[-1]) / size.max())
        self.converged = self.tail <= SERIES_TAIL_TOL
        self._dcoeffs = chebyshev.chebder(coeffs, scl=2.0 / (hi - lo), axis=0)

    @property
    def nodes(self) -> int:
        return len(self.coeffs)

    @classmethod
    def fit(cls, f: Callable, lo: float, hi: float) -> "ChebyshevSeries":
        """The series of f, which maps a 1-D array of w to a stack."""
        n = SERIES_DEGREE
        values = f(cls._points(lo, hi, n, np.arange(n + 1)))
        while True:
            coeffs = dct(values, type=1, axis=0) / n
            coeffs[[0, n]] *= 0.5
            series = cls(lo, hi, coeffs)
            if series.converged or n >= SERIES_MAX_DEGREE:
                return series
            doubled = np.empty((2 * n + 1,) + values.shape[1:])
            doubled[::2] = values
            doubled[1::2] = f(cls._points(lo, hi, 2 * n, np.arange(1, 2 * n, 2)))
            values, n = doubled, 2 * n

    @staticmethod
    def _points(lo: float, hi: float, n: int, k: np.ndarray) -> np.ndarray:
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / n)

    def _sum(self, coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
        # x is exactly -1 and 1 at the ends
        x = ((w - self.lo) - (self.hi - w)) / (self.hi - self.lo)
        return np.ascontiguousarray(np.moveaxis(chebyshev.chebval(x, coeffs), -1, 0))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return self._sum(self.coeffs, w)

    def deriv(self, w: np.ndarray) -> np.ndarray:
        return self._sum(self._dcoeffs, w)


def blend(s: np.ndarray) -> np.ndarray:
    """The weight w(s) = (1 + tanh s)/2 of a blend, frozen outside [-S_SPAN, S_SPAN]."""
    return 0.5 * (1.0 + np.tanh(np.clip(s, -S_SPAN, S_SPAN)))


def blend_inverse(w: float) -> float:
    """The s with w(s) = w, for w strictly between 0 and 1."""
    return float(0.5 * (np.log(w) - np.log1p(-w)))


def blend_slope(s: float) -> float:
    """w'(s) = 1/(2 cosh^2 s) inside [-S_SPAN, S_SPAN]."""
    return float(0.5 / np.cosh(s) ** 2)


class OperatorFamily:
    """Loop coefficients (S, C, D) over [s_min, s_max] with frozen ends.

    The part BlendFamily and TableFamily share: the asymptotes, each
    end's AsymptoticKernel, integrated once on first use, and the return
    path s -> M(s, 1).  A subclass gives dims, n_theta, s_min, s_max,
    coefficients_at(s) and _return_data_chunk, the return data of one
    chunk of s values.
    """

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

    def return_data_at(self, s_batch: np.ndarray):
        """(Psi, X, E) at theta = 1 for a batch of s values.

        The batch is propagated _S_CHUNK s values at a time, so the K
        tables of a long scan grid are never all live at once.  An s
        value's return data does not depend on the chunk it falls in.
        """
        return _in_chunks(self._return_data_chunk,
                          np.atleast_1d(np.asarray(s_batch, dtype=float)))

    def return_path(self) -> SymplecticPath:
        """The path s -> M(s, 1) as a vectorized symplectic path."""
        dims = self.dims

        def evaluate(s):
            return assemble_blocks(dims, *self.return_data_at(s))

        return SymplecticPath((self.s_min, self.s_max), evaluate,
                              jmat=dims.j_ext(), sample_hint=512)


class BlendFamily(OperatorFamily):
    """The blend left + w(s) (right - left) of two frozen asymptotes.

    w is the blend weight (1 + tanh s)/2 on [s_min, s_max] = [-S_SPAN,
    S_SPAN] (module notes).  The family keeps the two sets (left,
    right - left) and coefficients_at(s) is left + w(s) (right - left)
    on them; w(-+S_SPAN) is not exactly 0 or 1.  The node and midpoint
    K tables of the two sets (generator_tables) are built once, here;
    each chunk of w values hands K(left) + w K(right - left) to
    coefficients.return_data (_profile_data), which return_data_at
    reaches at w(s).  The tables are combined entrywise, so the batch
    does not change a w value's rounding.

    profile_path is the path w -> F(w) over [w(s_min), w(s_max)], where
    return_data_at(s) is F(w(s)), and spectral_flow_matrix scans it at
    W_SCAN_INTERVALS intervals instead of return_path at 512.  That path
    is the Chebyshev series profile_series, fitted once from
    _profile_data with as many nodes as its tail needs, or F itself
    when the tail has not converged by SERIES_MAX_DEGREE (module notes).
    """

    s_min, s_max = -S_SPAN, S_SPAN

    def __init__(self, left: OperatorCoefficients, right: OperatorCoefficients):
        if left.dims != right.dims or left.n_theta != right.n_theta:
            raise InvalidInput("asymptotes must share dimensions and grid")
        self.dims, self.n_theta = left.dims, left.n_theta
        self._sets = tuple(np.stack([a, b - a]) for a, b in ((left.s, right.s),
                                                              (left.c, right.c),
                                                              (left.d, right.d)))
        # No edge check (_validate_tables): w moves by 7.6e-12 over each
        # outer tenth of [s_min, s_max], so the family drifts there by at
        # most 7.6e-12 max|right - left| <= 1.6e-11 size, below
        # ASYMPTOTE_TOL max(1, size) for any asymptotes.
        self._tables = generator_tables(self.dims, *self._sets)

    def coefficients_at(self, s: float) -> OperatorCoefficients:
        """(S, C, D) at s: left + w(s) (right - left)."""
        w = blend(np.array([float(s)]))[0]
        return OperatorCoefficients(self.dims, *(a + w * b for a, b in self._sets))

    def _profile_data(self, w: np.ndarray):
        """(Psi, X, E) of F at a chunk of w: one propagation of K0 + w K1."""
        scale = w[:, None, None, None]
        return return_data(self.dims, *(k[0] + scale * k[1] for k in self._tables))

    def _return_data_chunk(self, s: np.ndarray):
        return self._profile_data(blend(s))

    def _profile_values(self, w: np.ndarray) -> np.ndarray:
        """F(w), _S_CHUNK values of w at a time."""
        return assemble_blocks(self.dims, *_in_chunks(self._profile_data, w))

    @cached_property
    def profile_series(self) -> ChebyshevSeries:
        """The Chebyshev series of F over [w(s_min), w(s_max)], fitted once."""
        lo, hi = blend(np.array([self.s_min, self.s_max]))
        return ChebyshevSeries.fit(self._profile_values, float(lo), float(hi))

    def profile_path(self) -> SymplecticPath:
        """The path w -> F(w) over [w(s_min), w(s_max)] (module notes).

        F(w(s)) is return_path at s.  The path is profile_series, with
        the series' derivative, when its tail converged; otherwise it is
        F itself.
        """
        series = self.profile_series
        domain = (series.lo, series.hi)
        if series.converged:
            return SymplecticPath(domain, series, series.deriv, jmat=self.dims.j_ext())
        return SymplecticPath(domain, self._profile_values, jmat=self.dims.j_ext())


class TableFamily(OperatorFamily):
    """The componentwise cubic spline in s of sampled coefficient tables.

    Between its s-grid points the family is the componentwise
    not-a-knot cubic spline of its samples at (s_i, theta_j), theta_j =
    j/N, and outside the grid it is frozen at the end samples.  The
    family keeps one cubic B-spline per table (make_interp_spline, k =
    3, along s), which takes the memory of the table itself, and no K
    table: a chunk of return_data_at evaluates the three splines at its
    s values and builds their K tables there (generator_tables).  A
    spline is evaluated point by point, so an s value's coefficients,
    and its return data, do not depend on the batch it is evaluated in.
    The clamped B-spline takes its end coefficients at the grid ends, so
    the asymptotes are the end samples bit for bit.
    spectral_flow_matrix scans the family in s.
    """

    def __init__(self, dims: Dimensions, s_grid: np.ndarray, s_table: np.ndarray,
                 c_table: np.ndarray, d_table: np.ndarray):
        s_grid = np.asarray(s_grid, dtype=float)
        if len(s_grid) < 8:
            raise ShapeError("s_grid needs at least 8 points")
        if not (np.all(np.isfinite(s_grid)) and np.all(np.diff(s_grid) > 0)):
            raise InvalidInput("s_grid must be finite and strictly increasing")
        ns = len(s_grid)
        tables = tuple(np.asarray(t, dtype=float) for t in (s_table, c_table, d_table))
        n_theta = tables[0].shape[1] if tables[0].ndim > 1 else 0
        for name, table, block in zip("SCD", tables, ((dims.loop, dims.loop),
                                                       (dims.m, dims.loop),
                                                       (dims.m, dims.m))):
            if table.shape != (ns, n_theta) + block:
                raise ShapeError(f"{name} table shape mismatch")
        _validate_tables(tables)
        self.dims, self.s_grid, self.n_theta = dims, s_grid, n_theta
        self._splines = tuple(make_interp_spline(s_grid, t, k=3, axis=0) for t in tables)

    @property
    def s_min(self) -> float:
        return float(self.s_grid[0])

    @property
    def s_max(self) -> float:
        return float(self.s_grid[-1])

    def _tables_at(self, s: np.ndarray):
        """The (S, C, D) samples at each s, moved into the grid first."""
        s = np.clip(s, self.s_grid[0], self.s_grid[-1])
        return tuple(spline(s) for spline in self._splines)

    def coefficients_at(self, s: float) -> OperatorCoefficients:
        """(S, C, D) at s, from the three splines."""
        return OperatorCoefficients(self.dims, *(t[0] for t in
                                                 self._tables_at(np.array([float(s)]))))

    def _return_data_chunk(self, s: np.ndarray):
        return return_data(self.dims, *generator_tables(self.dims, *self._tables_at(s)))


def _validate_tables(tables) -> None:
    """Every table finite and constant on its outer edges, S and D symmetric."""
    if not all(np.all(np.isfinite(t)) for t in tables):
        raise InvalidInput("S, C and D tables must be finite")
    for name, arr in (("S", tables[0]), ("D", tables[2])):
        if arr.size:
            dev = float(np.max(np.abs(arr - np.swapaxes(arr, -1, -2))))
            if dev > 1e-8 * max(1.0, float(np.max(np.abs(arr)))):
                raise InvalidInput(f"{name} table asymmetric by {dev:.3e}")
    edge = max(2, int(np.ceil(EDGE_FRACTION * len(tables[0]))))
    for name, arr in zip("SCD", tables):
        if arr.size:
            scale = max(1.0, float(np.max(np.abs(arr))))
            drift = max(float(np.max(np.abs(arr[:edge] - arr[0]))),
                        float(np.max(np.abs(arr[-edge:] - arr[-1]))))
            if drift > ASYMPTOTE_TOL * scale:
                raise InvalidInput(
                    f"{name} not asymptotically constant: edge drift "
                    f"{drift:.3e} exceeds {ASYMPTOTE_TOL:.1e}")


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
                           degree: int = 3, alpha: float = 0.8) -> BlendFamily:
    """Seeded family with nondegenerate asymptotes (retrying the draw).

    Both asymptotes of the family must pass is_nondegenerate at
    FLOW_TOL_SV, the check spectral_flow_matrix makes; the family keeps
    the kernels it was checked with.  The retry is deterministic in the
    seed, with at most 16 draws.
    """
    if not np.isfinite(alpha):
        raise InvalidInput("alpha must be finite")
    rng = np.random.default_rng(seed)
    for _ in range(16):
        left = random_coefficients(dims, rng, n_theta, degree, alpha)
        right = random_coefficients(dims, rng, n_theta, degree, alpha)
        fam = BlendFamily(left, right)
        if (is_nondegenerate(fam.left_kernel.element, FLOW_TOL_SV)
                and is_nondegenerate(fam.right_kernel.element, FLOW_TOL_SV)):
            return fam
    raise InvalidInput(f"no nondegenerate asymptote pair found for seed {seed}")


def split_tanh_family(alpha: float = 1.2, m: int = 1, n: int = 1,
                      n_theta: int = 512) -> BlendFamily:
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
    return BlendFamily(left, right)


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
        snm = self.path_data.to_snm_path()
        z0, ell = np.split(self.vectors, [self.path_data.dims.loop])
        return snm.psi(thetas) @ (z0 + snm.x(thetas) @ ell)


def asymptotic_kernel(coeffs: OperatorCoefficients) -> AsymptoticKernel:
    """Solve the endpoint linear system for kernel elements of A.

    The count always equals dim ker(M(1) - I) - m; a dimension of zero
    certifies a nondegenerate asymptote.
    """
    pd = path_from_coefficients(coeffs)
    el = pd.endpoint()
    red = reduced_return_matrix(el)
    vecs = kernel_basis(red, TOL_SV)
    stratum = el.stratum(TOL_SV)
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


def _crossing_block_forms(fam: OperatorFamily, s: float, basis: np.ndarray):
    """The two displayed quadratic-form matrices at the crossing s.

    Central finite differences in s of the return data feed both the
    full-size block matrix (acting on (zeta_0, ell, v)) and the reduced
    one (acting on (zeta_0, ell)); each is then compressed onto the
    crossing's quotient basis.
    """
    dims = fam.dims
    j0 = dims.j_loop()
    ln, pm = dims.loop, dims.m
    delta = FD_S_FACTOR * (fam.s_max - fam.s_min)
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


def spectral_flow_matrix(fam: OperatorFamily, tol_sv: float = FLOW_TOL_SV
                         ) -> SpectralFlowResult:
    """Spectral flow as the stratified index of the endpoint-matrix path.

    A BlendFamily, whose blend w is increasing, is scanned in w: its
    profile_path w -> F(w) at W_SCAN_INTERVALS intervals, which has the
    same flow as s -> M(s) = F(w(s)) because flow does not change under
    a monotone reparametrization.  That path is the
    Chebyshev series of F, whose node count doubles from SERIES_DEGREE +
    1 until its tail is below SERIES_TAIL_TOL, or F itself if that fails
    by SERIES_MAX_DEGREE.  Each crossing w* is reported at s* =
    blend_inverse(w*), with path form w'(s*) = blend_slope(s*) times its
    form in w; the kernel basis and signature carry over since w' > 0.
    A TableFamily is scanned in s, on return_path at its 512 intervals.
    details["scan"] says which ("w" or "s"): it is the parameter of the
    crossing instants in details["index"].  A w-scan also records
    details["series_nodes"] (None when F itself was scanned) and
    details["series_tail"], the series' relative tail.
    """
    _require_nondegenerate("left", fam.left_kernel, tol_sv)
    _require_nondegenerate("right", fam.right_kernel, tol_sv)
    in_w = isinstance(fam, BlendFamily)
    if in_w:
        path, samples = fam.profile_path(), W_SCAN_INTERVALS
        series = fam.profile_series
        details = {"scan": "w", "series_tail": series.tail,
                   "series_nodes": series.nodes if series.converged else None}
    else:
        path, samples, details = fam.return_path(), None, {"scan": "s"}
    family = KernelFamily.dual_slot(fam.dims)
    result = rs_index_stratified(path, family, tol_sv=tol_sv, samples=samples,
                                 validate=False)
    if not result.value.is_integer():
        raise InvalidInput(
            f"flow came out non-integer ({result.value}) despite "
            "nondegenerate asymptotes")
    crossings = []
    for rep in result.crossings:
        s, form = rep.t, rep.form
        if in_w:
            s = blend_inverse(rep.t)
            form = blend_slope(s) * rep.form
        form_blocks, form_reduced = _crossing_block_forms(fam, s, rep.basis)
        crossings.append(FlowCrossing(s, rep.kernel_dim, rep.signature,
                                      form, form_blocks, form_reduced))
    return SpectralFlowResult(result.value.as_int(), "matrix", crossings,
                              details={"index": result, **details})


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
    if modes < 0:
        raise InvalidInput(f"modes must be non-negative, got {modes}")
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


def _galerkin_negatives(coeffs: OperatorCoefficients, modes: int, wide: int) -> dict:
    """Negative inertia of the form at modes and at wide >= modes, by K.

    The matrix is assembled once, at wide; the modes matrix is its rows
    and columns of the first 2 modes + 1 profiles and of the parameter
    block.
    """
    full = galerkin_matrix(coeffs, wide)
    ln = coeffs.dims.loop
    keep = np.r_[0:(2 * modes + 1) * ln, (2 * wide + 1) * ln:len(full)]
    negatives = {}
    for k, mat in ((modes, full[np.ix_(keep, keep)]), (wide, full)):
        ine = inertia(mat, GALERKIN_EIG_TOL)
        if ine.zero:
            raise TruncationUnstable(
                "near-zero Galerkin eigenvalue at an asymptote; the endpoint "
                "operator must be invertible (raise modes or fix the family)")
        negatives[k] = ine.negative
    return negatives


def spectral_flow_galerkin(fam: OperatorFamily,
                           modes: int = GALERKIN_MODES) -> SpectralFlowResult:
    """Spectral flow as the endpoint inertia difference, checked at two K."""
    if modes < 0:
        raise InvalidInput(f"modes must be non-negative, got {modes}")
    wide = modes + GALERKIN_GAP
    left = _galerkin_negatives(fam.left_asymptote(), modes, wide)
    right = _galerkin_negatives(fam.right_asymptote(), modes, wide)
    values = {k: left[k] - right[k] for k in (modes, wide)}
    if values[modes] != values[wide]:
        raise TruncationUnstable(
            f"flow value changed between {modes} and {wide} modes "
            f"({values[modes]} vs {values[wide]}); raise modes")
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
                       fam: OperatorFamily,
                       modes: int = GALERKIN_MODES) -> MainTheoremReport:
    """Compare both spectral flows with the endpoint index difference.

    The family's frozen ends must reproduce the supplied asymptote paths;
    an end's own path is the one its kernel was solved on when the step
    counts agree.  The verdict asserts flow = index(right end) -
    index(left end).
    """
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
    if repro > 1e-6:
        raise InvalidInput(
            f"family ends do not reproduce the asymptote paths "
            f"(deviation {repro:.3e} > 1e-6)")
    mu_left = parametrized_rs_index(left_pd).value
    mu_right = parametrized_rs_index(right_pd).value
    flow_m = spectral_flow_matrix(fam)
    flow_g = spectral_flow_galerkin(fam, modes=modes)
    return MainTheoremReport(flow_m, flow_g, mu_left, mu_right, repro)
