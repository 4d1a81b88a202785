"""The subgroup of extended symplectic matrices built from loop data.

An element is determined by a symplectic Psi in Sp(2n), a coupling block
X (2n x m) and a symmetric E (m x m), packed into Sp(2n + 2m) as

    M = [[Psi, Psi X, 0],
         [0,   I,     0],
         [X^T J0, E + X^T J0 X / 2, I]].

The parameter directions are never moved and the dual directions only
collect shears, which is exactly the shape of a linearized parametrized
Hamiltonian return map.  Composition and inversion follow the closed
group law; the stratification counts kernel excess of M - I beyond the
m dual directions that are always fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, NegativeStratum, NotInSubgroup,
                     NotSymplectic, ShapeError)
from .linalg import (TOL_BLOCK, TOL_SV, TOL_SYM, standard_j, sym_part,
                     symplectic_inverse)


@dataclass(frozen=True)
class Dimensions:
    """Loop dimension 2n and parameter dimension m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("n must be >= 1")
        if self.m < 0:
            raise DimensionMismatch("m must be >= 0")

    @property
    def loop(self) -> int:
        return 2 * self.n

    @property
    def total(self) -> int:
        return 2 * self.n + 2 * self.m

    def j_loop(self) -> np.ndarray:
        return standard_j(self.n)

    def j_ext(self) -> np.ndarray:
        return standard_j(self.n, self.m, extended=True)


class SnmElement:
    """One subgroup element (Psi, X, E) with its assembled matrix."""

    def __init__(self, dims: Dimensions, psi: np.ndarray, x: np.ndarray, e: np.ndarray,
                 validate: bool = True):
        self.dims = dims
        psi = np.asarray(psi, dtype=float)
        x = np.asarray(x, dtype=float).reshape(dims.loop, dims.m)
        e = np.asarray(e, dtype=float).reshape(dims.m, dims.m)
        if psi.shape != (dims.loop, dims.loop):
            raise ShapeError(f"Psi must be {dims.loop}x{dims.loop}, got {psi.shape}")
        if validate:
            linalg.check_symplectic(psi, dims.j_loop(), what="Psi")
            if dims.m and np.max(np.abs(e - e.T)) > TOL_SYM:
                raise NotInSubgroup(f"E asymmetric by {np.max(np.abs(e - e.T)):.3e}")
        self.psi = psi
        self.x = x
        self.e = sym_part(e) if dims.m else e

    @classmethod
    def identity(cls, dims: Dimensions) -> "SnmElement":
        return cls(dims, np.eye(dims.loop), np.zeros((dims.loop, dims.m)),
                   np.zeros((dims.m, dims.m)), validate=False)

    def to_matrix(self) -> np.ndarray:
        return assemble_blocks(self.dims, self.psi, self.x, self.e)

    @classmethod
    def from_matrix(cls, m: np.ndarray, dims: Dimensions) -> "SnmElement":
        """Recognize a dense matrix as a subgroup element.

        Checks the frozen blocks (zeros and identities), symplecticity
        with respect to the extended structure, and symmetry of the
        recovered E.  Raises ShapeError / NotSymplectic / NotInSubgroup.
        """
        m = np.asarray(m, dtype=float)
        ln, pm, total = dims.loop, dims.m, dims.total
        if m.shape != (total, total):
            raise ShapeError(f"matrix must be {total}x{total}, got {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        frozen = [
            (m[ln:ln + pm, :ln], 0.0, "parameter-row loop block"),
            (m[ln:ln + pm, ln:ln + pm], np.eye(pm), "parameter identity block"),
            (m[ln:ln + pm, ln + pm:], 0.0, "parameter-row dual block"),
            (m[:ln, ln + pm:], 0.0, "loop-row dual block"),
            (m[ln + pm:, ln + pm:], np.eye(pm), "dual identity block"),
        ]
        for block, want, name in frozen:
            dev = float(np.max(np.abs(block - want))) if block.size else 0.0
            if dev > TOL_BLOCK * scale:
                raise ShapeError(f"{name} deviates by {dev:.3e}")
        linalg.check_symplectic(m, dims.j_ext(), what="matrix")
        psi = m[:ln, :ln]
        linalg.check_symplectic(psi, dims.j_loop(), what="upper-left block")
        j0 = dims.j_loop()
        x = symplectic_inverse(psi, j0) @ m[:ln, ln:ln + pm]
        bottom = m[ln + pm:, :ln]
        if bottom.size and np.max(np.abs(bottom - x.T @ j0)) > TOL_BLOCK * scale:
            raise NotInSubgroup("lower-left block is not X^T J0 for the recovered X")
        c = m[ln + pm:, ln:ln + pm]
        e_raw = c - 0.5 * (x.T @ j0 @ x)
        if pm and np.max(np.abs(e_raw - e_raw.T)) > max(TOL_SYM, TOL_BLOCK * scale):
            raise NotInSubgroup(
                f"recovered E asymmetric by {np.max(np.abs(e_raw - e_raw.T)):.3e}")
        return cls(dims, psi, x, sym_part(e_raw) if pm else e_raw, validate=False)

    def inverse(self) -> "SnmElement":
        j0 = self.dims.j_loop()
        psi_inv = symplectic_inverse(self.psi, j0)
        resid = float(np.max(np.abs(psi_inv @ self.psi - np.eye(self.dims.loop))))
        if resid > 1e-6:
            raise NotSymplectic(f"Psi too far from symplectic to invert (residual {resid:.3e})")
        return SnmElement(self.dims, psi_inv, -self.psi @ self.x, -self.e, validate=False)

    def stratum(self, tol_sv: float = TOL_SV) -> int:
        """Kernel excess k: dim ker(M - I) = m + k, k in 0..2n+m."""
        m = self.to_matrix()
        k = linalg.kernel_dimension(m - np.eye(self.dims.total), tol_sv) - self.dims.m
        if k < 0:
            raise NegativeStratum(
                "kernel smaller than the dual slot; tol_sv too small for this data")
        return k

    def __repr__(self):
        return f"SnmElement(n={self.dims.n}, m={self.dims.m})"


def assemble_blocks(dims: Dimensions, psi: np.ndarray, x: np.ndarray,
                    e: np.ndarray) -> np.ndarray:
    """Assembled matrix; batched over leading axes of psi/x/e."""
    psi = np.asarray(psi, dtype=float)
    x = np.asarray(x, dtype=float)
    e = np.asarray(e, dtype=float)
    ln, pm, total = dims.loop, dims.m, dims.total
    batch = psi.shape[:-2]
    j0 = dims.j_loop()
    m = np.zeros(batch + (total, total))
    m[..., :ln, :ln] = psi
    m[..., :ln, ln:ln + pm] = psi @ x
    m[..., ln:ln + pm, ln:ln + pm] = np.eye(pm)
    m[..., ln + pm:, ln + pm:] = np.eye(pm)
    xt = np.swapaxes(x, -1, -2)
    m[..., ln + pm:, :ln] = xt @ j0
    m[..., ln + pm:, ln:ln + pm] = e + 0.5 * (xt @ j0 @ x)
    return m


def assemble_derivative(dims: Dimensions, psi, x, e, dpsi, dx, de) -> np.ndarray:
    """d/dt of the assembled matrix from component derivatives."""
    ln, pm, total = dims.loop, dims.m, dims.total
    j0 = dims.j_loop()
    psi, x, e = (np.asarray(a, dtype=float) for a in (psi, x, e))
    dpsi, dx, de = (np.asarray(a, dtype=float) for a in (dpsi, dx, de))
    batch = psi.shape[:-2]
    dm = np.zeros(batch + (total, total))
    dm[..., :ln, :ln] = dpsi
    dm[..., :ln, ln:ln + pm] = dpsi @ x + psi @ dx
    xt = np.swapaxes(x, -1, -2)
    dxt = np.swapaxes(dx, -1, -2)
    dm[..., ln + pm:, :ln] = dxt @ j0
    dm[..., ln + pm:, ln:ln + pm] = de + 0.5 * (dxt @ j0 @ x + xt @ j0 @ dx)
    return dm


def dual_slot_basis(dims: Dimensions) -> np.ndarray:
    """Orthonormal basis of the always-fixed dual directions (2n+2m) x m."""
    b = np.zeros((dims.total, dims.m))
    for i in range(dims.m):
        b[dims.loop + dims.m + i, i] = 1.0
    return b


def reduced_return_matrix(el: SnmElement) -> np.ndarray:
    """(2n+m) x (2n+m) block matrix whose kernel is ker(M-I) mod duals.

    Rows: the fixed-point equations for the loop part and the dual-shear
    part; the free dual directions are quotiented out.
    """
    j0 = el.dims.j_loop()
    ln, pm = el.dims.loop, el.dims.m
    top = np.hstack([el.psi - np.eye(ln), el.psi @ el.x])
    bottom = np.hstack([el.x.T @ j0, el.e + 0.5 * (el.x.T @ j0 @ el.x)])
    return np.vstack([top, bottom]) if pm else (el.psi - np.eye(ln))
