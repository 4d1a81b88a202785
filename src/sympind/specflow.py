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
A family between two asymptotes is affine in one scalar, so its RK4
step increments are tabulated once and combined per s instead.
Each end's kernel is integrated once per family and shared by the
generator's retry, spectral_flow_matrix and main_theorem_check.

With its ends fixed, spectral flow is a homotopy invariant, so the
profile blending two asymptotes cannot change any flow: every family
between two asymptotes shares one, the spline w^ of (1 + tanh s)/2 on
the fixed s-grid, which is increasing.  Its return path is M(s) =
F(w^(s)), where F(w) is the return matrix of K(left) + w K(right -
left).  Spectral flow does not change under a monotone
reparametrization (Robbin and Salamon, Bull. LMS 27 (1995); Phillips,
Canad. Math. Bull. 39 (1996)), so spectral_flow_matrix scans w -> F(w)
over [w^(s_min), w^(s_max)] at W_SCAN_INTERVALS intervals instead of
s -> M(s) at 512.  Each crossing w* goes back to the s* with w^(s*) =
w* (Brent's method on its spline piece) and its path form to w^'(s*)
times the form in w; the displayed forms are computed in s as before,
from finite differences of the return data, so they check the path
form independently.  Table families are scanned in s.

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
from functools import cache, cached_property
from typing import Callable, List, Optional

import numpy as np
from numpy.polynomial import chebyshev
from scipy.fft import dct
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .coefficients import (AffineIncrements, OperatorCoefficients, PathData,
                           generator_coefficients, generator_tables,
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
S_COUNT = 161
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


def _in_chunks(data: Callable, values: np.ndarray):
    """The return data blocks of data(values), _S_CHUNK values at a time.

    Only one chunk's propagation is live at once, so a long scan grid
    stays in bounded memory.
    """
    parts = [data(values[i:i + _S_CHUNK]) for i in range(0, len(values), _S_CHUNK)]
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


class Profile:
    """The spline w^ of profile samples w_i on an s-grid.

    w^ is the not-a-knot cubic spline of the w_i, evaluated piece by
    piece with the cubic Hermite weights of _hermite; each piece lies in
    the hull of its Bezier control points (w_i, w_i + h m_i / 3,
    w_i+1 - h m_i+1 / 3, w_i+1), with node slopes m_i and step h.  It is
    inverted piece by piece, so the w_i and every piece's control points
    must increase, as they do for the shared profile (_shared_profile).
    """

    def __init__(self, s_grid: np.ndarray, w: np.ndarray):
        self.s_grid, self.w = s_grid, w
        self.slopes = _spline_slopes(s_grid, w)
        step = np.diff(s_grid)
        self.control = np.stack([w[:-1], w[:-1] + step * self.slopes[:-1] / 3.0,
                                 w[1:] - step * self.slopes[1:] / 3.0, w[1:]], axis=1)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """w^ at a 1-D array of s, frozen outside the grid."""
        i, h = _hermite(self.s_grid, s)
        return (h[:, 0] * self.w[i] + h[:, 1] * self.slopes[i]
                + h[:, 2] * self.w[i + 1] + h[:, 3] * self.slopes[i + 1])

    def slope(self, s: float) -> float:
        """w^'(s) inside the grid, from the control points of its piece."""
        i = int(np.clip(np.searchsorted(self.s_grid, s, side="right") - 1,
                        0, len(self.s_grid) - 2))
        lo, hi = self.s_grid[i], self.s_grid[i + 1]
        t = (s - lo) / (hi - lo)
        d = np.diff(self.control[i])
        return float(3.0 * ((1.0 - t) ** 2 * d[0] + 2.0 * t * (1.0 - t) * d[1]
                            + t * t * d[2]) / (hi - lo))

    def _gap(self, s: float, w_star: float) -> float:
        return float(self(np.array([s]))[0]) - w_star

    def inverse(self, w_star: float) -> float:
        """The s with w^(s) = w_star.

        Brent's method runs on the piece whose end values bracket w_star;
        w^ is exactly w_i at the node s_i, so the bracket holds.
        """
        w_star = float(np.clip(w_star, self.w[0], self.w[-1]))
        i = int(np.clip(np.searchsorted(self.w, w_star, side="right") - 1,
                        0, len(self.w) - 2))
        return float(brentq(self._gap, self.s_grid[i], self.s_grid[i + 1],
                            args=(w_star,), xtol=4 * np.finfo(float).eps,
                            maxiter=200))


@cache
def _shared_profile() -> Profile:
    """The spline of (1 + tanh s)/2 on the S_COUNT-point grid of [-S_SPAN, S_SPAN].

    Built once and shared by every from_asymptotes family, so its arrays
    are read-only.  Its node steps are at least 6.2e-15 and its control
    point steps at least 1.6e-15, so it increases on every piece, and
    its control points lie in [1.3e-14, 1 - 1.3e-14].
    """
    s_grid = np.linspace(-S_SPAN, S_SPAN, S_COUNT)
    profile = Profile(s_grid, 0.5 * (1.0 + np.tanh(s_grid)))
    for arr in (profile.s_grid, profile.w, profile.slopes, profile.control):
        arr.flags.writeable = False
    return profile


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
      where w^ is the spline of the shared profile w (module notes).

    The sums run term by term in a fixed order with elementwise
    operations, so an s value's K tables, and its return data, do not
    depend on the batch it is evaluated in.  At the grid ends u is exact,
    so the asymptotes are the end samples bit for bit.  Only the node
    and midpoint K tables of the sets are kept; coefficients_at reads
    (S, C, D) back from the node tables, exactly.

    An affine family's K(s) = K(left) + w^(s) K(right - left) has RK4
    step increments of degree 4 in w^ (coefficients.AffineIncrements).
    They are tabulated once, here, at 5 Chebyshev nodes of [0, 1], which
    holds the whole range of w^, and return_data_at combines them with
    each s value's Lagrange weights, one stacked product per s so that
    the batch does not change the rounding; the affine family keeps no
    midpoint tables and builds no K tables per s.  Each end's
    AsymptoticKernel is integrated once, on first use.

    An affine family keeps the shared profile spline w^ as profile (None
    for a table family).  profile_path is the path w -> F(w) over
    [w^(s_min), w^(s_max)], where return_data_at(s) is F(w^(s)), and
    spectral_flow_matrix scans it at W_SCAN_INTERVALS intervals instead
    of return_path at 512.  That path is the Chebyshev series
    profile_series, fitted once from the same increment table with as
    many nodes as its tail needs, or F itself when the tail has not
    converged by SERIES_MAX_DEGREE (module notes).
    """

    def __init__(self, dims: Dimensions, s_grid: np.ndarray, s_table: np.ndarray,
                 c_table: np.ndarray, d_table: np.ndarray):
        s_grid = np.asarray(s_grid, dtype=float)
        if len(s_grid) < 8:
            raise ShapeError("s_grid needs at least 8 points")
        if np.any(np.diff(s_grid) <= 0):
            raise InvalidInput("s_grid must be strictly increasing")
        ns = len(s_grid)
        tables = tuple(np.asarray(t, dtype=float) for t in (s_table, c_table, d_table))
        n_theta = tables[0].shape[1] if tables[0].ndim > 1 else 0
        for name, table, block in zip("SCD", tables, ((dims.loop, dims.loop),
                                                       (dims.m, dims.loop),
                                                       (dims.m, dims.m))):
            if table.shape != (ns, n_theta) + block:
                raise ShapeError(f"{name} table shape mismatch")
        _validate_tables(tables)
        sets = tuple(np.concatenate([t, _spline_slopes(s_grid, t)]) for t in tables)

        def weights(s):
            i, h = _hermite(s_grid, s)
            return np.stack([i, ns + i, i + 1, ns + i + 1], axis=1), h

        self._set_basis(dims, s_grid, sets, weights)

    def _set_basis(self, dims: Dimensions, s_grid: np.ndarray, sets, weights,
                   profile: Optional[Profile] = None) -> None:
        """Build the basis sets' K tables; store them and the weight rule.

        weights maps an array of s values to the set indices and weights
        (idx, u) that _combine takes.  An affine family passes its
        profile spline w^; its midpoint tables then go into an increment
        table over [0, 1] and are not kept.  The sets themselves are not
        kept: coefficients_at reads them back from the node tables.
        """
        self.dims = dims
        self.s_grid = s_grid
        self.n_theta = sets[0].shape[1]
        self.profile = profile
        self._weights = weights
        self._nodes, mids = generator_tables(dims, *sets)
        if profile is None:
            self._mids, self._increments = mids, None
        else:
            self._mids = None
            self._increments = AffineIncrements(dims, self._nodes, mids)

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
        """(S, C, D) at s, read back from the combined K node table."""
        idx, u = self._weights(np.array([float(s)]))
        k = _combine(self._nodes, idx, u)[0, :-1]
        return OperatorCoefficients(self.dims, *generator_coefficients(self.dims, k))

    def return_data_at(self, s_batch: np.ndarray):
        """(Psi, X, E) at theta = 1 for a batch of s values.

        The batch is propagated _S_CHUNK s values at a time.  An affine
        family combines each s value's step increments from its table;
        otherwise the chunk's K tables are combined from the basis
        tables, so the K tables of a long scan grid are never all live
        at once.  An s value's return data does not depend on the chunk
        it falls in.
        """
        return _in_chunks(self._return_data_chunk,
                          np.atleast_1d(np.asarray(s_batch, dtype=float)))

    def _return_data_chunk(self, s: np.ndarray):
        idx, u = self._weights(s)
        if self._increments is not None:
            return self._increments.return_data(u[:, 1])
        return return_data(self.dims, _combine(self._nodes, idx, u),
                           _combine(self._mids, idx, u))

    def return_path(self) -> SymplecticPath:
        """The path s -> M(s, 1) as a vectorized symplectic path."""
        dims = self.dims

        def evaluate(s):
            return assemble_blocks(dims, *self.return_data_at(s))

        return SymplecticPath((self.s_min, self.s_max), evaluate,
                              jmat=dims.j_ext(), sample_hint=512)

    def _profile_values(self, w: np.ndarray) -> np.ndarray:
        """F(w) from the increment table, _S_CHUNK values of w at a time."""
        return assemble_blocks(self.dims, *_in_chunks(self._increments.return_data, w))

    @cached_property
    def profile_series(self) -> ChebyshevSeries:
        """The Chebyshev series of F over [w^(s_min), w^(s_max)], fitted once.

        Only for an affine family (module notes).
        """
        if self.profile is None:
            raise InvalidInput("profile_path needs a from_asymptotes family")
        return ChebyshevSeries.fit(self._profile_values, float(self.profile.w[0]),
                                   float(self.profile.w[-1]))

    def profile_path(self) -> SymplecticPath:
        """The path w -> F(w) over [w^(s_min), w^(s_max)] (module notes).

        Only for an affine family; F(w^(s)) is return_path at s.  The
        path is profile_series, with the series' derivative, when its tail
        converged; otherwise it is F itself, from the increment table.
        """
        series = self.profile_series
        domain = (series.lo, series.hi)
        if series.converged:
            return SymplecticPath(domain, series, series.deriv, jmat=self.dims.j_ext())
        return SymplecticPath(domain, self._profile_values, jmat=self.dims.j_ext())

    @classmethod
    def from_asymptotes(cls, left: OperatorCoefficients,
                        right: OperatorCoefficients) -> "OperatorFamily":
        """Monotone interpolation between two frozen asymptotes.

        The family's tables are left + w(s_i) (right - left), with w the
        shared profile (1 + tanh s)/2 on [-S_SPAN, S_SPAN]; they are never
        built.  The family is scanned in w (module notes).
        """
        if left.dims != right.dims or left.n_theta != right.n_theta:
            raise InvalidInput("asymptotes must share dimensions and grid")
        sets = tuple(np.stack([a, b - a]) for a, b in ((left.s, right.s),
                                                        (left.c, right.c),
                                                        (left.d, right.d)))
        # No edge check (_validate_tables): w moves by 7.6e-12 over each
        # outer 17 samples, so a table a + w b drifts there by at most
        # 7.6e-12 max|b| <= 1.6e-11 size, below ASYMPTOTE_TOL max(1, size)
        # for any asymptotes, NaN and inf included.
        profile = _shared_profile()

        def weights(s):
            w_s = profile(s)
            return np.array([0, 1]), np.stack([np.ones_like(w_s), w_s], axis=1)

        fam = cls.__new__(cls)
        fam._set_basis(left.dims, profile.s_grid, sets, weights, profile)
        return fam


def _validate_tables(tables) -> None:
    """S and D tables symmetric, every table constant on its outer edges."""
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
                           degree: int = 3, alpha: float = 0.8) -> OperatorFamily:
    """Seeded family with nondegenerate asymptotes (retrying the draw).

    Both asymptotes of the family must pass is_nondegenerate at
    FLOW_TOL_SV, the check spectral_flow_matrix makes; the family keeps
    the kernels it was checked with.  The retry is deterministic in the
    seed, with at most 16 draws.
    """
    rng = np.random.default_rng(seed)
    for _ in range(16):
        left = random_coefficients(dims, rng, n_theta, degree, alpha)
        right = random_coefficients(dims, rng, n_theta, degree, alpha)
        fam = OperatorFamily.from_asymptotes(left, right)
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
        snm = self.path_data.to_snm_path()
        z0, ell = np.split(self.vectors, [self.path_data.dims.loop])
        return snm.psi(thetas) @ (z0 + snm.x(thetas) @ ell)


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

    A from_asymptotes family, whose profile w^ is increasing, is scanned
    in w: its profile_path w -> F(w) at W_SCAN_INTERVALS intervals, which
    has the same flow as s -> M(s) = F(w^(s)) because flow does not
    change under a monotone reparametrization.  That path is the Chebyshev series of F, whose
    node count doubles from SERIES_DEGREE + 1 until its tail is below
    SERIES_TAIL_TOL, or F itself if that fails by SERIES_MAX_DEGREE.
    Each crossing w* is reported at the s* with w^(s*) = w*, with path
    form w^'(s*) times its form in w; the kernel basis and signature
    carry over since w^' > 0.  A table family is scanned in s, on
    return_path at its 512 intervals.  details["scan"] says which ("w"
    or "s"): it is the parameter of the crossing instants in
    details["index"].  A w-scan also records details["series_nodes"]
    (None when F itself was scanned) and details["series_tail"], the
    series' relative tail.
    """
    _require_nondegenerate("left", fam.left_kernel, tol_sv)
    _require_nondegenerate("right", fam.right_kernel, tol_sv)
    profile = fam.profile
    if profile is None:
        path, samples, details = fam.return_path(), None, {"scan": "s"}
    else:
        path, samples = fam.profile_path(), W_SCAN_INTERVALS
        series = fam.profile_series
        details = {"scan": "w", "series_tail": series.tail,
                   "series_nodes": series.nodes if series.converged else None}
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
        if profile is not None:
            s = profile.inverse(rep.t)
            form = profile.slope(s) * rep.form
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


def _galerkin_negatives(coeffs: OperatorCoefficients, modes: int, wide: int,
                        tol_eig: float) -> dict:
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
        ine = inertia(mat, tol_eig)
        if ine.zero:
            raise TruncationUnstable(
                "near-zero Galerkin eigenvalue at an asymptote; the endpoint "
                "operator must be invertible (raise modes or fix the family)")
        negatives[k] = ine.negative
    return negatives


def spectral_flow_galerkin(fam: OperatorFamily, modes: int = GALERKIN_MODES,
                           tol_eig: float = GALERKIN_EIG_TOL) -> SpectralFlowResult:
    """Spectral flow as the endpoint inertia difference, checked at two K."""
    wide = modes + GALERKIN_GAP
    left = _galerkin_negatives(fam.left_asymptote(), modes, wide, tol_eig)
    right = _galerkin_negatives(fam.right_asymptote(), modes, wide, tol_eig)
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
                       fam: OperatorFamily, modes: int = GALERKIN_MODES,
                       tol_sv: float = FLOW_TOL_SV) -> MainTheoremReport:
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
    flow_m = spectral_flow_matrix(fam, tol_sv=tol_sv)
    flow_g = spectral_flow_galerkin(fam, modes=modes)
    return MainTheoremReport(flow_m, flow_g, mu_left, mu_right, repro)
