"""Built-in parameter-dependent Hamiltonian systems with known answers.

Three families, each returning (HamiltonianSystem, CriticalPoint):

* split:       H = x^T K x / 2 + lam^T F lam / 2, uncoupled; the return
               data is Psi = exp(-J0 K theta), X = 0, E = -theta F, and
               the index is sig(-K)/2 + sig(-F)/2 when both are invertible.
* quadratic:   H = x^T K x / 2 + lam^T G x + lam^T F lam / 2; coupling G
               makes X nontrivial while gamma = 0, lam = 0 stays critical.
* radial:      H = lam k(r) in a flat chart (r, phi) with k(1) = 0; the
               circle r = 1 carries critical points whose linearized data
               is the shear block built from T = -lam k''(1), A = -k'(1).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInput, ShapeError
from .flows import CriticalPoint, HamiltonianSystem
from .linalg import random_symmetric, standard_j, sym_part
from .paths import constant_stack
from .snm import Dimensions

LOOP_SAMPLES = 256


def _check_symmetric(name: str, a: np.ndarray, size: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (size, size):
        raise ShapeError(f"{name} must be {size} x {size}")
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise InvalidInput(f"{name} must be symmetric")
    return sym_part(a)


def split_system(k_block: np.ndarray,
                 f_block: np.ndarray) -> Tuple[HamiltonianSystem, CriticalPoint]:
    """Uncoupled quadratic system H = x^T K x / 2 + lam^T F lam / 2.

    quadratic_system with G = 0; a scalar F is the 1 x 1 block.
    """
    k_block = np.asarray(k_block, dtype=float)
    f_block = np.atleast_2d(np.asarray(f_block, dtype=float))
    return quadratic_system(k_block, np.zeros((f_block.shape[0], k_block.shape[0])),
                            f_block)


def quadratic_system(k_block: np.ndarray, g_block: np.ndarray,
                     f_block: np.ndarray) -> Tuple[HamiltonianSystem, CriticalPoint]:
    """Coupled quadratic system H = x^T K x / 2 + lam^T G x + lam^T F lam / 2."""
    k_block = np.asarray(k_block, dtype=float)
    g_block = np.asarray(g_block, dtype=float)
    loop = k_block.shape[0]
    if loop % 2:
        raise ShapeError("K must act on an even-dimensional loop space")
    n = loop // 2
    if g_block.ndim != 2 or g_block.shape[1] != loop:
        raise ShapeError(f"G must be m x {loop}")
    m = g_block.shape[0]
    dims = Dimensions(n, m)
    kb = _check_symmetric("K", k_block, loop)
    fb = _check_symmetric("F", np.asarray(f_block, dtype=float).reshape(m, m), m)
    j0 = standard_j(n)
    jk = -j0 @ kb
    jg = -j0 @ g_block.T
    hm = np.concatenate([g_block, fb], axis=1)

    sys = HamiltonianSystem(
        dims,
        vector_field=lambda t, x, lam: x @ jk.T + jg @ lam,
        jac_x=lambda t, x, lam: constant_stack(jk, t),
        jac_lam=lambda t, x, lam: constant_stack(jg, t),
        grad_lam=lambda t, x, lam: x @ g_block.T + fb @ lam,
        hess_mixed=lambda t, x, lam: constant_stack(hm, t))
    point = CriticalPoint(np.zeros((LOOP_SAMPLES, loop)), np.zeros(m))
    return sys, point


def random_quadratic_system(n: int, m: int, rng: np.random.Generator,
                            scale: float = 0.8) -> Tuple[HamiltonianSystem, CriticalPoint]:
    """Random coupled quadratic instance with bounded coefficient size."""
    kb = random_symmetric(rng, 2 * n) * scale
    gb = rng.standard_normal((m, 2 * n)) * scale
    fb = random_symmetric(rng, m) * scale if m else np.zeros((0, 0))
    return quadratic_system(kb, gb, fb)


def radial_system(slope: float, curvature: float, turns: int = 1,
                  lam: Optional[float] = None) -> Tuple[HamiltonianSystem, CriticalPoint]:
    """One-parameter system H = lam k(r) in a flat angle chart.

    k(r) = slope (r - 1) + curvature (r - 1)^2 / 2, so k(1) = 0,
    k'(1) = slope, k''(1) = curvature.  The chart coordinates are
    x = (r, phi) with the standard structure; phi is angle-valued, so the
    critical loop closes up to an integer multiple of 2 pi recorded in
    the winding field.  The parameter value is quantized by the turn
    count: lam = -2 pi turns / slope (or passed explicitly).
    """
    if slope == 0.0:
        raise InvalidInput("slope k'(1) must be nonzero")
    dims = Dimensions(1, 1)
    if lam is None:
        lam_val = -2.0 * np.pi * turns / slope
    else:
        lam_val = float(lam)

    def kfun(r):
        return slope * (r - 1.0) + 0.5 * curvature * (r - 1.0) ** 2

    def kprime(r):
        return slope + curvature * (r - 1.0)

    def vf(t, x, lam_):
        # X_H = -J0 grad_x H with grad_x H = (lam k'(r), 0)
        return np.stack([np.zeros(len(t)), -lam_[0] * kprime(x[:, 0])], axis=1)

    def jx(t, x, lam_):
        return constant_stack(np.array([[0.0, 0.0], [-lam_[0] * curvature, 0.0]]), t)

    def jl(t, x, lam_):
        return np.stack([np.zeros(len(t)), -kprime(x[:, 0])], axis=1)[:, :, None]

    def gl(t, x, lam_):
        return kfun(x[:, 0])[:, None]

    def hm(t, x, lam_):
        zero = np.zeros(len(t))
        return np.stack([kprime(x[:, 0]), zero, zero], axis=1)[:, None, :]

    sys = HamiltonianSystem(dims, vf, jx, jl, gl, hm)
    thetas = np.arange(LOOP_SAMPLES) / LOOP_SAMPLES
    drift = -lam_val * slope
    gamma = np.stack([np.ones(LOOP_SAMPLES), drift * thetas], axis=1)
    point = CriticalPoint(gamma, np.array([lam_val]),
                          winding=np.array([0.0, drift]))
    return sys, point
