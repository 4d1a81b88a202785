"""Dense linear-algebra primitives shared by the index machinery.

Conventions.  The complex structure on R^{2n} is

    J0 = [[0, -I], [I, 0]],

the symplectic form is omega(u, v) = <J0 u, v> = u^T J0^T v, and a matrix
M is symplectic when M^T J M = J.  The extended space R^{2n} x R^m x R^m
(loop directions, parameters, duals) carries the block structure

    Jext = [[J0, 0, 0], [0, 0, -I], [0, I, 0]],

which is again a complex structure, so the same formulas apply to both.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotSymplectic, ShapeError

TOL_SV = 1e-8
TOL_SYM = 1e-9
TOL_SYMP = 1e-9
TOL_EIG = 1e-8
TOL_BLOCK = 1e-8


def standard_j(n: int, m: int = 0, extended: bool = False) -> np.ndarray:
    """Complex structure: J0 on R^{2n}, or the extended block form.

    With extended=True the result is the (2n+2m) x (2n+2m) matrix acting
    on (loop, parameter, dual) coordinates.
    """
    if n < 0 or m < 0:
        raise DimensionMismatch("n and m must be nonnegative")
    j0 = np.zeros((2 * n, 2 * n))
    j0[:n, n:] = -np.eye(n)
    j0[n:, :n] = np.eye(n)
    if not extended:
        return j0
    size = 2 * n + 2 * m
    j = np.zeros((size, size))
    j[: 2 * n, : 2 * n] = j0
    j[2 * n : 2 * n + m, 2 * n + m :] = -np.eye(m)
    j[2 * n + m :, 2 * n : 2 * n + m] = np.eye(m)
    return j


def sym_part(p: np.ndarray) -> np.ndarray:
    """Symmetric part (P + P^T)/2."""
    p = np.asarray(p, dtype=float)
    return 0.5 * (p + np.swapaxes(p, -1, -2))


class Inertia(NamedTuple):
    positive: int
    zero: int
    negative: int

    @property
    def signature(self) -> int:
        return self.positive - self.negative


def inertia(s: np.ndarray, tol_eig: float = TOL_EIG) -> Inertia:
    """Eigenvalue counts of a symmetric matrix.

    Eigenvalues within tol_eig * max(1, ||S||_2) of zero count as zero;
    the zero count is the side channel for kernel dimension.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError("inertia expects a square matrix")
    if s.shape[0] == 0:
        return Inertia(0, 0, 0)
    asym = np.max(np.abs(s - s.T))
    if asym > 1e-7 * max(1.0, np.max(np.abs(s))):
        raise ShapeError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    w = np.linalg.eigvalsh(sym_part(s))
    cut = tol_eig * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    pos = int(np.sum(w > cut))
    neg = int(np.sum(w < -cut))
    return Inertia(pos, s.shape[0] - pos - neg, neg)


def signature(s: np.ndarray, tol_eig: float = TOL_EIG) -> int:
    """Signature of a symmetric matrix: #(eig > tol) - #(eig < -tol)."""
    return inertia(s, tol_eig).signature


def kernel_basis(m: np.ndarray, tol_sv: float = TOL_SV) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, as columns.

    Singular values below tol_sv * max(sigma_max, 1) count as zero; the
    threshold is relative so the decision is scale-free.
    """
    m = np.asarray(m, dtype=float)
    u, sv, vt = np.linalg.svd(m)
    cut = tol_sv * max(float(sv[0]) if sv.size else 0.0, 1.0)
    rank = int(np.sum(sv > cut))
    return vt[rank:].T.copy()


def kernel_dimension(m: np.ndarray, tol_sv: float = TOL_SV):
    """Numerical kernel dimension, with the cut of kernel_basis.

    Batched over leading axes: an int for one matrix, else an integer
    array of the batch shape.
    """
    sv = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    cut = tol_sv * np.maximum(sv[..., :1], 1.0)
    count = np.sum(sv <= cut, axis=-1)
    return int(count) if count.ndim == 0 else count


def symplectic_defect(m: np.ndarray, jmat: np.ndarray) -> float:
    """max |M^T J M - J|, batched over leading axes."""
    m = np.asarray(m, dtype=float)
    r = np.swapaxes(m, -1, -2) @ jmat @ m - jmat
    return float(np.max(np.abs(r)))


def check_symplectic(m: np.ndarray, jmat: np.ndarray, tol_symp: float = TOL_SYMP,
                     what: str = "matrix") -> None:
    d = symplectic_defect(m, jmat)
    if d > tol_symp:
        raise NotSymplectic(f"{what} fails M^T J M = J by {d:.3e} (tol {tol_symp:.1e})")


def symplectic_inverse(m: np.ndarray, jmat: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix via -J M^T J (exact group inverse)."""
    mt = np.swapaxes(np.asarray(m, dtype=float), -1, -2)
    return -jmat @ mt @ jmat


def random_symmetric(rng: np.random.Generator, size: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((size, size))
    s = sym_part(a)
    norm = np.linalg.norm(s, 2) if size else 1.0
    if norm > 0:
        s *= scale / norm
    return s


# Degree-13 Pade coefficients b_0..b_13 and the 1-norm bound theta_13 below
# which that approximant is accurate to double precision (Higham, SIAM J.
# Matrix Anal. Appl. 26 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-13 Pade approximant.

    numpy only: scipy.linalg.expm ends in OpenBLAS getrs, which wakes a
    helper thread on every call, however small the matrix.
    """
    a = np.asarray(a, dtype=float)
    if not a.any():
        return np.eye(a.shape[0])
    norm = float(np.linalg.norm(a, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_symplectic(rng: np.random.Generator, jmat: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Random symplectic matrix exp(J S) for random symmetric S."""
    size = jmat.shape[0]
    s = random_symmetric(rng, size, scale)
    return expm(jmat @ s)


def random_orthogonal(rng: np.random.Generator, size: int) -> np.ndarray:
    if size == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


class ExpCurve:
    """t -> exp(phi(t) * G) evaluated through one eigendecomposition.

    Vectorizes over arrays of t, which keeps crossing scans cheap.  Falls
    back to expm when G is too defective to diagonalize stably.
    """

    def __init__(self, generator: np.ndarray):
        g = np.asarray(generator, dtype=float)
        self.generator = g
        self._ok = False
        if g.shape[0]:
            w, v = np.linalg.eig(g)
            try:
                vinv = np.linalg.inv(v)
                if np.linalg.cond(v) < 1e10:
                    self._w, self._v, self._vinv = w, v, vinv
                    self._ok = True
            except np.linalg.LinAlgError:
                pass

    def __call__(self, phi):
        phi = np.asarray(phi, dtype=float)
        scalar = phi.ndim == 0
        ph = np.atleast_1d(phi)
        if self._ok:
            lam = np.exp(ph[:, None] * self._w[None, :])
            out = np.einsum("ij,tj,jk->tik", self._v, lam, self._vinv).real
        else:
            out = np.stack([expm(float(c) * self.generator) for c in ph])
        return out[0] if scalar else out
