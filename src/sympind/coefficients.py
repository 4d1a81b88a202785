"""Loop coefficients of the asymptotic operator and their path data.

A coefficient set (S, C, D) over the circle (S, D symmetric) determines
a subgroup path (Psi, X, E).  All of it solves one linear ODE in theta
for the state W and the generator K,

        [ B    F ]
    W = [ Psi  A ],      K = [ C     D      ],      W[:2n+m]' = K W[m:],
        [ 0    I ]           [ J0 S  J0 C^T ]

from W(0) = [[0, 0], [I, 0], [0, I]], that is

    Psi' = J0 S Psi,   A' = J0 S A + J0 C^T,   F' = C A + D,   B' = C Psi,

and the path blocks are X = Psi^{-1} A and E = sym(F).  B, whose exact
value is X^T J0, and the antisymmetric part of F, whose exact value is
X^T J0 X / 2, are kept as consistency diagnostics.  K is tabulated at
the theta nodes and midpoints (coefficients are sampled there through
exact trigonometric interpolation, so classical fixed-step RK4 keeps its
full order).  The ODE is linear, so one RK4 step is

    W[:2n+m] += Delta_i W[m:],

where the step increment Delta_i is a polynomial in the step's node,
midpoint and node tables of K.  The increments of a block of steps are
formed in batched products, and each step then costs one product.

Delta_i has degree 4 in K (see _step_increments).  So for an affine
generator K0 + w K1 it is a polynomial of degree exactly 4 in the
scalar w, and AffineIncrements tabulates it once, at 5 Chebyshev nodes
of [0, 1], which holds every w it will be asked for; the increments
at any w are then a Lagrange combination of the table, and no K table
is built per w.  That combination runs one stacked product per w: a
single 2-D product over the batch would round differently with the
batch size, and a w value's return data must not depend on its batch.
The layout of K and W is known to this module alone.  The reverse map
recovers the coefficients from a sampled path by fourth-order finite
differences:

    S = sym(-J0 Psi' Psi^{-1}),  C = X'^T Psi^T J0,  D = E' + sym(X^T J0 X').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (IntegratorBlowup, InvalidInput, ShapeError,
                     SymplecticityLoss)
from .linalg import TOL_SYM, sym_part, symplectic_inverse
from .paths import SnmPath
from .snm import Dimensions, SnmElement, assemble_blocks

BLOWUP_LIMIT = 1e8
SYMPLECTIC_LOSS = 1e-6
_STEP_BLOCK = 64
_TABLE_BLOCK = 64
_AFFINE_NODES = 5   # Delta has degree 4 in w


def periodic_midpoints(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Samples at theta_j + h/2 from samples at theta_j = j/N, spectrally."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    spec = np.fft.rfft(values, axis=axis)
    k = np.arange(spec.shape[axis])
    phase = np.exp(1j * np.pi * k / n)
    shape = [1] * values.ndim
    shape[axis] = len(k)
    spec = spec * phase.reshape(shape)
    return np.fft.irfft(spec, n=n, axis=axis)


def trig_eval(values: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Evaluate periodic samples (axis 0, theta_j = j/N) at arbitrary points."""
    values = np.asarray(values, dtype=float)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    n = values.shape[0]
    spec = np.fft.rfft(values, axis=0)
    k = np.arange(spec.shape[0])
    weights = np.full(len(k), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    ph = np.exp(2j * np.pi * np.outer(thetas, k))  # (T, K)
    flat = spec.reshape(len(k), -1)
    out = (ph * weights) @ flat
    return out.real.reshape((len(thetas),) + values.shape[1:]) / n


def fd4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order derivative of uniformly spaced nodes along axis 0."""
    f = np.asarray(values, dtype=float)
    if f.shape[0] < 5:
        raise ShapeError("fourth-order differences need at least five nodes")
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    return d


class OperatorCoefficients:
    """Sampled loop coefficients (S, C, D); S, D symmetric.

    Samples live on the uniform grid theta_j = j/N (no duplicate at 1).
    """

    def __init__(self, dims: Dimensions, s: np.ndarray, c: np.ndarray, d: np.ndarray):
        self.dims = dims
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        d = np.asarray(d, dtype=float)
        n_theta = s.shape[0]
        if s.shape != (n_theta, dims.loop, dims.loop):
            raise ShapeError(f"S samples must be (N, {dims.loop}, {dims.loop})")
        if c.shape != (n_theta, dims.m, dims.loop):
            raise ShapeError(f"C samples must be (N, {dims.m}, {dims.loop})")
        if d.shape != (n_theta, dims.m, dims.m):
            raise ShapeError(f"D samples must be (N, {dims.m}, {dims.m})")
        for name, arr in (("S", s), ("D", d)):
            if arr.size:
                dev = float(np.max(np.abs(arr - np.swapaxes(arr, -1, -2))))
                if dev > 100 * TOL_SYM:
                    raise InvalidInput(f"{name} samples asymmetric by {dev:.3e}")
        self.s = sym_part(s)
        self.c = c
        self.d = sym_part(d) if dims.m else d
        self.n_theta = n_theta

    def resampled(self, n_theta: int) -> "OperatorCoefficients":
        if n_theta == self.n_theta:
            return self
        thetas = np.arange(n_theta) / n_theta
        return OperatorCoefficients(self.dims, trig_eval(self.s, thetas),
                                    trig_eval(self.c, thetas), trig_eval(self.d, thetas))


@dataclass
class PathData:
    """Subgroup path sampled on theta nodes 0..1 (inclusive).

    dpsi/dx/de hold the exact ODE right-hand sides at the nodes when the
    path comes out of an integrator; interpolating those beats
    differentiating the value splines, whose endpoint-derivative error
    is large enough to corrupt crossing forms at theta = 0 and 1.
    """

    dims: Dimensions
    theta: np.ndarray
    psi: np.ndarray
    x: np.ndarray
    e: np.ndarray
    f_raw: Optional[np.ndarray] = None
    b_raw: Optional[np.ndarray] = None
    dpsi: Optional[np.ndarray] = None
    dx: Optional[np.ndarray] = None
    de: Optional[np.ndarray] = None

    @property
    def nsteps(self) -> int:
        return len(self.theta) - 1

    def endpoint(self) -> SnmElement:
        return SnmElement(self.dims, self.psi[-1], self.x[-1], self.e[-1], validate=False)

    def assembled(self) -> np.ndarray:
        return assemble_blocks(self.dims, self.psi, self.x, self.e)

    def to_snm_path(self, sample_hint: Optional[int] = None) -> SnmPath:
        hint = self.nsteps if sample_hint is None else sample_hint
        return SnmPath.from_samples(self.dims, self.theta, self.psi, self.x,
                                    self.e, sample_hint=hint,
                                    dpsi=self.dpsi, dx=self.dx, de=self.de)


def _quarters(dims: Dimensions, mat: np.ndarray):
    """Views of the four blocks of K, of K W, or of W's moving rows.

    K = [[C, D], [J0 S, J0 C^T]], W[:2n+m] = [[B, F], [Psi, A]] and
    K W[m:] = [[B', F'], [Psi', A']] share one layout: m rows above 2n,
    2n columns left of m.
    """
    pm, ln = dims.m, dims.loop
    return (mat[..., :pm, :ln], mat[..., :pm, ln:],
            mat[..., pm:pm + ln, :ln], mat[..., pm:pm + ln, ln:])


def carried_block_residuals(pd: PathData):
    """(|antisym(F) - X^T J0 X / 2|, |B - X^T J0|) as maxima over nodes.

    The carried blocks F and B of W against their exact values; a block
    the path data lacks, or an empty one (m = 0), gives 0.0.
    """
    j0 = pd.dims.j_loop()
    xt = np.swapaxes(pd.x, -1, -2)
    twist = dual = 0.0
    if pd.f_raw is not None and pd.f_raw.size:
        anti = 0.5 * (pd.f_raw - np.swapaxes(pd.f_raw, -1, -2))
        twist = float(np.max(np.abs(anti - 0.5 * (xt @ j0 @ pd.x))))
    if pd.b_raw is not None and pd.b_raw.size:
        dual = float(np.max(np.abs(pd.b_raw - xt @ j0)))
    return twist, dual


def generator(dims: Dimensions, j0s, j0ct, c, d) -> np.ndarray:
    """K from its blocks J0 S, J0 C^T, C and D; batched over leading axes."""
    k = np.empty(np.shape(j0s)[:-2] + (dims.loop + dims.m,) * 2)
    for block, value in zip(_quarters(dims, k), (c, d, j0s, j0ct)):
        block[...] = value
    return k


def _j0_times(dims: Dimensions, mat: np.ndarray, out: np.ndarray) -> None:
    """out = J0 mat, as signed copies of row halves: J0 = [[0, -I], [I, 0]]."""
    n = dims.n
    np.negative(mat[..., n:, :], out=out[..., :n, :])
    out[..., n:, :] = mat[..., :n, :]


def generator_tables(dims: Dimensions, s, c, d):
    """K at the theta nodes (wrap node appended) and at the midpoints.

    s, c, d are periodic samples batched as (B, N, ...).  Each block of
    the node table is written in place; the midpoint table is the
    spectral midpoint interpolant of the node table, which is linear and
    acts entrywise, so it equals K built from interpolated coefficients.
    It is taken _TABLE_BLOCK batch entries at a time, which bounds the
    FFT's complex temporaries and changes no value.
    """
    batch, n_theta = s.shape[:2]
    size = dims.loop + dims.m
    nodes = np.empty((batch, n_theta + 1, size, size))
    c_k, d_k, j0s_k, j0ct_k = _quarters(dims, nodes[:, :-1])
    c_k[...] = c
    d_k[...] = d
    _j0_times(dims, s, j0s_k)
    _j0_times(dims, np.swapaxes(c, -1, -2), j0ct_k)
    nodes[:, -1] = nodes[:, 0]
    mids = np.empty((batch, n_theta, size, size))
    for i in range(0, batch, _TABLE_BLOCK):
        mids[i:i + _TABLE_BLOCK] = periodic_midpoints(nodes[i:i + _TABLE_BLOCK, :-1],
                                                      axis=1)
    return nodes, mids


def generator_coefficients(dims: Dimensions, k: np.ndarray):
    """(S, C, D) read back from K; the inverse of generator.

    C and D are copies of K's blocks, and S = -J0 (J0 S) is a signed
    copy too, so the values are exactly those K was built from.
    """
    c, d, j0s, _ = _quarters(dims, k)
    s = np.empty(j0s.shape)
    _j0_times(dims, j0s, s)
    np.negative(s, out=s)
    return s, c.copy(), d.copy()


def _step_increments(dims: Dimensions, k_lo: np.ndarray, k_mid: np.ndarray,
                     k_hi: np.ndarray, h: float) -> np.ndarray:
    """Delta with W[:2n+m] += Delta W[m:] equal to one classical RK4 step.

    k_lo, k_mid and k_hi are K at the left node, the midpoint and the
    right node of each step, batched alike.  Let H(K) be K's bottom 2n
    rows over m zero rows (only Psi and A move inside W[m:]).  RK4 stage
    j feeds K the rows X_j W[m:], with

        X_1 = I + (h/2) H(k_lo),  X_2 = I + (h/2) H(k_mid) X_1,
        X_3 = I + h H(k_mid) X_2,
        Delta = (h/6) (k_lo + 2 k_mid (X_1 + X_2) + k_hi X_3).

    X_j - I is c_j times Y_j over m zero rows, with c = (h/2, h/2, h),
    Y_1 = G(k_lo), Y_2 = G(k_mid) + (h/2) G(k_mid)[:, :2n] Y_1 and Y_3 the
    same with Y_2, where G(K) = K[m:].  So K X_j = K + c_j K[:, :2n] Y_j,
    and the products run on the 2n moving rows only:

        Delta = (h/6) (k_lo + 4 k_mid + k_hi
                       + h k_mid[:, :2n] (Y_1 + Y_2) + h k_hi[:, :2n] Y_3).
    """
    pm, ln = dims.m, dims.loop
    rows_mid = k_mid[..., pm:, :]
    y1 = k_lo[..., pm:, :]
    y2 = rows_mid + (0.5 * h) * (rows_mid[..., :ln] @ y1)
    y3 = rows_mid + (0.5 * h) * (rows_mid[..., :ln] @ y2)
    delta = k_lo + 4 * k_mid + k_hi
    delta += h * (k_mid[..., :ln] @ (y1 + y2) + k_hi[..., :ln] @ y3)
    delta *= h / 6.0
    return delta


def _march(dims: Dimensions, increments: Callable[[int, int], np.ndarray],
           batch: int, nsteps: int, keep_nodes: bool) -> np.ndarray:
    """Classical RK4 for W' = K W over theta in [0, 1], batched.

    increments(start, stop) returns the step increments Delta of steps
    start..stop-1, (B, stop - start, 2n+m, 2n+m).  Returns the node
    trajectory of W, (B, N+1, 2n+2m, 2n+m), or just W(1) when
    keep_nodes is false.

    The steps run in blocks of _STEP_BLOCK: a block's increments are
    fetched at once, then applied one product per step, and |Psi| is
    checked against BLOWUP_LIMIT after every block, the last partial one
    included.
    """
    pm, size = dims.m, dims.loop + dims.m
    w = np.zeros((batch, size + pm, size))
    w[:, pm:] = np.eye(size)
    moving, rows, psi = w[:, :size], w[:, pm:], _quarters(dims, w)[2]
    if keep_nodes:
        ws = np.empty((batch, nsteps + 1) + w.shape[1:])
        ws[:, 0] = w
    for start in range(0, nsteps, _STEP_BLOCK):
        stop = min(start + _STEP_BLOCK, nsteps)
        for i, delta in enumerate(np.swapaxes(increments(start, stop), 0, 1), start + 1):
            moving += delta @ rows
            if keep_nodes:
                ws[:, i] = w
        if float(np.max(np.abs(psi))) > BLOWUP_LIMIT:
            raise IntegratorBlowup(f"|Psi| exceeded {BLOWUP_LIMIT:.0e} at step {stop}")
    return ws if keep_nodes else w


def _propagate(dims: Dimensions, nodes: np.ndarray, mids: np.ndarray,
               keep_nodes: bool = True) -> np.ndarray:
    """_march with increments formed from K tables.

    nodes (B, N+1, ...) and mids (B, N, ...) are tables of K; each block
    of increments comes from one _step_increments call.
    """
    batch, nsteps = mids.shape[:2]
    h = 1.0 / nsteps

    def increments(start, stop):
        return _step_increments(dims, nodes[:, start:stop], mids[:, start:stop],
                                nodes[:, start + 1:stop + 1], h)

    return _march(dims, increments, batch, nsteps, keep_nodes)


class AffineIncrements:
    """The step increments of the generator K0 + w K1, tabulated in w.

    Delta(w) is a polynomial of degree 4 in w (see the module notes), so
    its values at 5 Chebyshev nodes of [0, 1] determine it; [0, 1]
    should hold every w asked for, where the Lagrange weights stay small.
    The table (5, N, 2n+m, 2n+m) is built once, from the K tables nodes
    (2, N+1, ...) and mids (2, N, ...) of K0 and K1.
    """

    def __init__(self, dims: Dimensions, nodes: np.ndarray, mids: np.ndarray):
        j = np.arange(_AFFINE_NODES)
        self.w_nodes = 0.5 + 0.5 * np.cos((2 * j + 1) * np.pi / (2 * _AFFINE_NODES))
        gaps = self.w_nodes[:, None] - self.w_nodes[None, :]
        np.fill_diagonal(gaps, 1.0)
        self._bary = 1.0 / np.prod(gaps, axis=1)
        scale = self.w_nodes[:, None, None, None]
        k_nodes = nodes[0] + scale * nodes[1]
        self.dims = dims
        self.table = _step_increments(dims, k_nodes[:, :-1], mids[0] + scale * mids[1],
                                      k_nodes[:, 1:], 1.0 / mids.shape[1])

    def lagrange_weights(self, w: np.ndarray) -> np.ndarray:
        """(B, 5) weights l_j(w) = bary_j prod_{k != j} (w - w_k), elementwise."""
        diff = np.asarray(w, dtype=float)[:, None] - self.w_nodes
        ell = np.empty_like(diff)
        for j in range(_AFFINE_NODES):
            ell[:, j] = self._bary[j]
            for k in range(_AFFINE_NODES):
                if k != j:
                    ell[:, j] *= diff[:, k]
        return ell

    def return_data(self, w: np.ndarray):
        """(Psi, X, E) at theta = 1 for the generators K0 + w K1, batched.

        Each block of increments is one stacked product of the (1, 5)
        weight row of each w with the table's block: the rounding of
        a w's increments depends on that w alone.
        """
        ell = self.lagrange_weights(w)[:, None, :]
        nsteps, shape = self.table.shape[1], self.table.shape[2:]

        def increments(start, stop):
            block = self.table[:, start:stop].reshape(_AFFINE_NODES, -1)
            return (ell @ block).reshape((len(ell), stop - start) + shape)

        return _return_blocks(self.dims, _march(self.dims, increments, len(ell),
                                                nsteps, keep_nodes=False))


def _state_blocks(dims: Dimensions, w: np.ndarray):
    """(B, F, Psi, A) of a batch of states, as contiguous arrays."""
    return tuple(np.ascontiguousarray(q) for q in _quarters(dims, w))


def _return_blocks(dims: Dimensions, w: np.ndarray):
    """(Psi, X, E) of a batch of states at theta = 1."""
    _, f, psi, a = _state_blocks(dims, w)
    return psi, symplectic_inverse(psi, dims.j_loop()) @ a, sym_part(f)


def integrate_path(dims: Dimensions, thetas: np.ndarray, nodes: np.ndarray,
                   mids: np.ndarray) -> PathData:
    """Integrate one set of K tables into PathData on the theta nodes.

    The node derivatives are exact ODE right-hand sides: dPsi and dE
    come from K W, dX = Psi^-1 J0 C^T.
    """
    w = _propagate(dims, nodes[None], mids[None])[0]
    b_raw, f_raw, psi, a = _state_blocks(dims, w)
    j0 = dims.j_loop()
    defect = float(np.max(np.abs(np.swapaxes(psi, -1, -2) @ j0 @ psi - j0)))
    if defect > SYMPLECTIC_LOSS:
        raise SymplecticityLoss(f"loop part lost symplecticity (defect {defect:.3e})")
    psi_inv = symplectic_inverse(psi, j0)
    _, df, dpsi, _ = _state_blocks(dims, nodes @ w[:, dims.m:])
    j0ct = _quarters(dims, nodes)[3]
    return PathData(dims, thetas, psi, psi_inv @ a, sym_part(f_raw),
                    f_raw=f_raw, b_raw=b_raw, dpsi=dpsi, dx=psi_inv @ j0ct,
                    de=sym_part(df))


def return_data(dims: Dimensions, nodes: np.ndarray, mids: np.ndarray):
    """(Psi, X, E) at theta = 1 for K tables batched as (B, N+1, ...), (B, N, ...)."""
    return _return_blocks(dims, _propagate(dims, nodes, mids, keep_nodes=False))


def path_from_coefficients(coeffs: OperatorCoefficients,
                           nsteps: Optional[int] = None) -> PathData:
    """Integrate the coefficient ODEs into a sampled subgroup path."""
    if nsteps is not None and nsteps != coeffs.n_theta:
        coeffs = coeffs.resampled(nsteps)
    nodes, mids = generator_tables(coeffs.dims, coeffs.s[None], coeffs.c[None],
                                   coeffs.d[None])
    thetas = np.linspace(0.0, 1.0, coeffs.n_theta + 1)
    return integrate_path(coeffs.dims, thetas, nodes[0], mids[0])


def coefficients_from_path(pd: PathData):
    """Recover (S, C, D) node samples from a sampled subgroup path.

    Returns node arrays on pd.theta (closed grid, N+1 values); the last
    node duplicates the first up to the reconstruction error when the
    path really comes from loop coefficients.
    """
    dims = pd.dims
    j0 = dims.j_loop()
    h = pd.theta[1] - pd.theta[0]
    dpsi = fd4(pd.psi, h)
    dx = fd4(pd.x, h)
    de = fd4(pd.e, h)
    psi_inv = symplectic_inverse(pd.psi, j0)
    s = sym_part(-j0 @ dpsi @ psi_inv)
    c = np.swapaxes(dx, -1, -2) @ np.swapaxes(pd.psi, -1, -2) @ j0
    d = sym_part(de + sym_part(np.swapaxes(pd.x, -1, -2) @ j0 @ dx))
    return s, c, d


def loop_identity_residuals(pd: PathData):
    """Diagnostics tying the carried integrals to the path blocks.

    Returns (|antisym(F) - X^T J0 X / 2|, |B - X^T J0|, |C Psi - X'^T J0|)
    as maxima over nodes.
    """
    j0 = pd.dims.j_loop()
    s, c, d = coefficients_from_path(pd)
    dx = fd4(pd.x, pd.theta[1] - pd.theta[0])
    r3 = float(np.max(np.abs(c @ pd.psi - np.swapaxes(dx, -1, -2) @ j0))) if pd.dims.m else 0.0
    return carried_block_residuals(pd) + (r3,)
