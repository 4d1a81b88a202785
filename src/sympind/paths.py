"""Paths of symplectic matrices and distinguished kernel families.

A SymplecticPath bundles a domain, an evaluator, an optional derivative
and the complex structure the path is symplectic for.  All index
machinery consumes this type.  A KernelFamily is a continuously varying
subspace of ker(M(t) - I) along a path, used by the stratified index;
the m dual directions of a subgroup path are the standard one.

Evaluator callbacks (path values, derivatives, kernel frames, subgroup
components) take a 1-D float array of t and return the stack of their
matrices along axis 0.  The objects built from them accept a scalar t as
well: _at turns it into a one-element array and returns the one matrix,
so path(t) is path(np.array([t]))[0] bit for bit.  Conjugator and loop
callables (conjugate, loop_multiply, block_conjugator) are also called
with the scalar domain ends, so they must take either form.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from . import linalg
from .errors import (DimensionMismatch, InvalidInput, JunctionMismatch,
                     ShapeError)
from .linalg import standard_j
from .snm import (Dimensions, SnmElement, assemble_blocks, assemble_derivative,
                  dual_slot_basis)

FD_STEP_FACTOR = 1e-6


def _at(fn: Callable, t):
    """fn at t, for an evaluator fn that maps a 1-D array to a stack.

    A scalar t goes in as a one-element array and its one matrix comes
    out; an array t goes straight through.
    """
    t = np.asarray(t, dtype=float)
    return fn(t[None])[0] if t.ndim == 0 else fn(t)


def constant_stack(mat: np.ndarray, t: np.ndarray) -> np.ndarray:
    """mat repeated once per entry of the 1-D array t, as a new array."""
    return np.broadcast_to(mat, t.shape + mat.shape).copy()


class SymplecticPath:
    """C^1 path in Sp(2N).

    evaluate and derivative take a 1-D array of t and return the
    (len(t), 2N, 2N) stack of values; the path itself and deriv also take
    a scalar t and return one (2N, 2N) matrix.
    """

    def __init__(self, domain, evaluate: Callable, derivative: Optional[Callable] = None,
                 jmat: Optional[np.ndarray] = None, sample_hint: int = 512):
        a, b = float(domain[0]), float(domain[1])
        if not b > a:
            raise InvalidInput(f"domain must satisfy a < b, got [{a}, {b}]")
        self.domain = (a, b)
        self._eval = evaluate
        self._deriv = derivative
        m0 = _at(evaluate, a)
        if m0.ndim != 2 or m0.shape[0] != m0.shape[1] or m0.shape[0] % 2:
            raise ShapeError(f"path values must be even-size square matrices, got {m0.shape}")
        self.size = m0.shape[0]
        self.jmat = standard_j(self.size // 2) if jmat is None else np.asarray(jmat, dtype=float)
        if self.jmat.shape != (self.size, self.size):
            raise DimensionMismatch("jmat size does not match path values")
        if sample_hint < 16:
            raise InvalidInput("sample_hint must be >= 16")
        self.sample_hint = int(sample_hint)

    def __call__(self, t):
        return _at(self._eval, t)

    def deriv(self, t):
        """Analytic derivative when supplied, else second-order differences.

        The step is 1e-6 * (b - a); endpoints use one-sided stencils so no
        evaluation leaves the domain.
        """
        return _at(self._fd_deriv if self._deriv is None else self._deriv, t)

    def _fd_deriv(self, ts: np.ndarray) -> np.ndarray:
        a, b = self.domain
        h = FD_STEP_FACTOR * (b - a)
        out = np.empty(ts.shape + (self.size, self.size))
        left = ts - h < a
        right = ts + h > b
        mid = ~(left | right)
        if np.any(mid):
            tm = ts[mid]
            out[mid] = (self._eval(tm + h) - self._eval(tm - h)) / (2 * h)
        if np.any(left):
            tl = ts[left]
            out[left] = (-3 * self._eval(tl) + 4 * self._eval(tl + h)
                         - self._eval(tl + 2 * h)) / (2 * h)
        if np.any(right):
            tr = ts[right]
            out[right] = (3 * self._eval(tr) - 4 * self._eval(tr - h)
                          + self._eval(tr - 2 * h)) / (2 * h)
        return out

    def inverse_at(self, t):
        return linalg.symplectic_inverse(_at(self._eval, t), self.jmat)


class KernelFamily:
    """Subspace family t -> span of an orthonormal (2N x d) frame.

    rank_omega is the (constant) rank of the symplectic form restricted
    to the family; validation against a concrete path happens inside the
    stratified index.
    """

    def __init__(self, evaluate: Callable, dim: int, rank_omega: int):
        if dim < 0 or rank_omega < 0 or rank_omega > dim or rank_omega % 2:
            raise InvalidInput("rank_omega must be even and within 0..dim")
        self.dim = int(dim)
        self.rank_omega = int(rank_omega)
        self._eval = evaluate

    def __call__(self, t):
        return _at(self._eval, t)

    @classmethod
    def constant(cls, basis: np.ndarray, jmat: np.ndarray) -> "KernelFamily":
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise ShapeError("family basis must be a 2-d array of columns")
        q, _ = np.linalg.qr(basis)
        d = basis.shape[1]
        omega = q.T @ jmat.T @ q
        sv = np.linalg.svd(omega, compute_uv=False) if d else np.zeros(0)
        rank = int(np.sum(sv > 1e-10))
        return cls(lambda t: constant_stack(q, t), d, rank)

    @classmethod
    def dual_slot(cls, dims: Dimensions) -> "KernelFamily":
        return cls.constant(dual_slot_basis(dims), dims.j_ext())

    @classmethod
    def conjugated(cls, base_basis: np.ndarray, conjugator: Callable,
                   rank_omega: int) -> "KernelFamily":
        """Family t -> orthonormalized P(t) B0 for a symplectic P(t)."""
        b0 = np.asarray(base_basis, dtype=float)

        def evaluate(t):
            p = conjugator(t)
            q, _ = np.linalg.qr(p @ b0)
            return q

        return cls(evaluate, b0.shape[1], rank_omega)


class SnmPath:
    """Path in the subgroup, kept as its (Psi, X, E) components."""

    def __init__(self, dims: Dimensions, psi: Callable, x: Callable, e: Callable,
                 domain=(0.0, 1.0), dpsi: Optional[Callable] = None,
                 dx: Optional[Callable] = None, de: Optional[Callable] = None,
                 sample_hint: int = 512):
        self.dims = dims
        self.domain = (float(domain[0]), float(domain[1]))
        self.psi, self.x, self.e = psi, x, e
        self._dpsi, self._dx, self._de = dpsi, dx, de
        self.sample_hint = int(sample_hint)

    def element(self, t: float) -> SnmElement:
        return SnmElement(self.dims, _at(self.psi, t), _at(self.x, t), _at(self.e, t),
                          validate=False)

    def to_path(self) -> SymplecticPath:
        dims = self.dims

        def evaluate(t):
            return assemble_blocks(dims, self.psi(t), self.x(t), self.e(t))

        derivative = None
        if self._dpsi is not None:
            def derivative(t):
                return assemble_derivative(dims, self.psi(t), self.x(t), self.e(t),
                                           self._dpsi(t), self._dx(t), self._de(t))

        return SymplecticPath(self.domain, evaluate, derivative,
                              jmat=dims.j_ext(), sample_hint=self.sample_hint)

    def transform(self, psi_map, x_map, e_map) -> "SnmPath":
        """New subgroup path with componentwise-transformed data."""
        return SnmPath(
            self.dims,
            lambda t: psi_map(self.psi(t), t),
            lambda t: x_map(self.psi(t), self.x(t), t),
            lambda t: e_map(self.e(t), t),
            domain=self.domain, sample_hint=self.sample_hint)

    def flip_x(self) -> "SnmPath":
        return self.transform(lambda p, t: p, lambda p, x, t: -x, lambda e, t: e)

    def first_inverse_transform(self) -> "SnmPath":
        """Componentwise (Psi^-1, Psi X, -E)."""
        j0 = self.dims.j_loop()
        return self.transform(
            lambda p, t: linalg.symplectic_inverse(p, j0),
            lambda p, x, t: p @ x,
            lambda e, t: -e)

    def variant_inverse_transform(self) -> "SnmPath":
        """Componentwise (Psi^-1, X, -E)."""
        j0 = self.dims.j_loop()
        return self.transform(
            lambda p, t: linalg.symplectic_inverse(p, j0),
            lambda p, x, t: x,
            lambda e, t: -e)

    @classmethod
    def from_samples(cls, dims: Dimensions, theta: np.ndarray, psi: np.ndarray,
                     x: np.ndarray, e: np.ndarray, sample_hint: int = 512,
                     dpsi: Optional[np.ndarray] = None,
                     dx: Optional[np.ndarray] = None,
                     de: Optional[np.ndarray] = None) -> "SnmPath":
        """Cubic-spline interpolation of sampled components.

        When derivative samples are supplied they are interpolated in
        their own splines, which keeps the derivative exact at the nodes
        (the value-spline derivative is one order worse at the domain
        ends, enough to corrupt endpoint crossing forms).
        """
        theta = np.asarray(theta, dtype=float)
        nn = len(theta)
        sp_psi = CubicSpline(theta, np.asarray(psi, dtype=float), axis=0)
        sp_x = CubicSpline(theta, np.asarray(x, dtype=float).reshape(nn, dims.loop, dims.m), axis=0)
        sp_e = CubicSpline(theta, np.asarray(e, dtype=float).reshape(nn, dims.m, dims.m), axis=0)

        def deriv(spline, samples, shape):
            if samples is None:
                return spline.derivative()
            arr = np.asarray(samples, dtype=float).reshape((nn,) + shape)
            return CubicSpline(theta, arr, axis=0)

        d_psi = deriv(sp_psi, dpsi, (dims.loop, dims.loop))
        d_x = deriv(sp_x, dx, (dims.loop, dims.m))
        d_e = deriv(sp_e, de, (dims.m, dims.m))
        return cls(dims, sp_psi, sp_x, sp_e, domain=(theta[0], theta[-1]),
                   dpsi=d_psi, dx=d_x, de=d_e, sample_hint=sample_hint)


def constant_path(matrix: np.ndarray, domain=(0.0, 1.0), jmat=None,
                  sample_hint: int = 512) -> SymplecticPath:
    matrix = np.asarray(matrix, dtype=float)
    zero = np.zeros_like(matrix)
    return SymplecticPath(domain, lambda t: constant_stack(matrix, t),
                          lambda t: constant_stack(zero, t), jmat=jmat,
                          sample_hint=sample_hint)


def exp_path(s: np.ndarray, jmat: np.ndarray, phase: Optional[Callable] = None,
             dphase: Optional[Callable] = None, domain=(0.0, 1.0),
             sample_hint: int = 512) -> SymplecticPath:
    """Path t -> exp(phase(t) * J S) for symmetric S (default phase t)."""
    s = linalg.sym_part(np.asarray(s, dtype=float))
    gen = jmat @ s
    curve = linalg.ExpCurve(gen)
    if phase is None:
        phase, dphase = (lambda t: t), np.ones_like

    def evaluate(t):
        return curve(phase(t))

    derivative = None
    if dphase is not None:
        def derivative(t):
            return dphase(t)[:, None, None] * (gen @ curve(phase(t)))

    return SymplecticPath(domain, evaluate, derivative, jmat=jmat, sample_hint=sample_hint)


def exp_shear_path(s: np.ndarray, e: np.ndarray, domain=(0.0, 1.0),
                   sample_hint: int = 512) -> SnmPath:
    """Subgroup path t -> (exp(t J0 S), 0, t E) on the given domain."""
    s = linalg.sym_part(np.asarray(s, dtype=float))
    e = np.asarray(e, dtype=float)
    if s.shape[0] % 2:
        raise ShapeError("S must act on an even-dimensional space")
    dims = Dimensions(s.shape[0] // 2, e.shape[0] if e.ndim == 2 else 0)
    curve = linalg.ExpCurve(dims.j_loop() @ s)
    em = e.reshape(dims.m, dims.m)
    zx = np.zeros((dims.loop, dims.m))
    return SnmPath(
        dims,
        psi=curve,
        x=lambda t: constant_stack(zx, t),
        e=lambda t: t[:, None, None] * em,
        domain=domain,
        dpsi=lambda t: curve.generator @ curve(t),
        dx=lambda t: constant_stack(zx, t),
        de=lambda t: constant_stack(em, t),
        sample_hint=sample_hint)


def catenate(p: SymplecticPath, q: SymplecticPath) -> SymplecticPath:
    """Concatenation; q's domain is shifted to start where p ends."""
    if p.size != q.size:
        raise DimensionMismatch("paths have different matrix sizes")
    if np.max(np.abs(p.jmat - q.jmat)) > 0:
        raise DimensionMismatch("paths use different complex structures")
    gap = float(np.max(np.abs(p(p.domain[1]) - q(q.domain[0]))))
    if gap > 1e-9:
        raise JunctionMismatch(f"endpoint mismatch {gap:.3e} at the junction")
    a1, b1 = p.domain
    a2, b2 = q.domain
    cut = b1

    def evaluate(t):
        out = np.empty(t.shape + (p.size, p.size))
        first = t <= cut
        if np.any(first):
            out[first] = p(t[first])
        if np.any(~first):
            out[~first] = q(a2 + (t[~first] - cut))
        return out

    return SymplecticPath((a1, b1 + (b2 - a2)), evaluate, jmat=p.jmat,
                          sample_hint=p.sample_hint + q.sample_hint)


def direct_sum(p: SymplecticPath, q: SymplecticPath) -> SymplecticPath:
    """Blockwise direct sum; domains must agree."""
    if p.domain != q.domain:
        raise DimensionMismatch("direct sum requires equal domains")
    np_, nq = p.size, q.size
    jmat = np.zeros((np_ + nq, np_ + nq))
    jmat[:np_, :np_] = p.jmat
    jmat[np_:, np_:] = q.jmat

    def embed(mp, mq):
        batch = mp.shape[:-2]
        out = np.zeros(batch + (np_ + nq, np_ + nq))
        out[..., :np_, :np_] = mp
        out[..., np_:, np_:] = mq
        return out

    def evaluate(t):
        return embed(p(t), q(t))

    def derivative(t):
        return embed(p.deriv(t), q.deriv(t))

    return SymplecticPath(p.domain, evaluate, derivative, jmat=jmat,
                          sample_hint=max(p.sample_hint, q.sample_hint))


def snm_interleave_indices(na: Dimensions, nb: Dimensions):
    """Coordinate embeddings of two subgroup factors into their sum.

    The sum orders loop coordinates as (x of both, y of both), then the
    concatenated parameters, then the concatenated duals.
    """
    n, m = na.n + nb.n, na.m + nb.m
    idx_a = np.concatenate([
        np.arange(na.n),
        n + np.arange(na.n),
        2 * n + np.arange(na.m),
        2 * n + m + np.arange(na.m)])
    idx_b = np.concatenate([
        na.n + np.arange(nb.n),
        n + na.n + np.arange(nb.n),
        2 * n + na.m + np.arange(nb.m),
        2 * n + m + na.m + np.arange(nb.m)])
    return Dimensions(n, m), idx_a, idx_b


def snm_direct_sum(a: "SnmPath", b: "SnmPath") -> "SnmPath":
    """Componentwise direct sum of two subgroup paths.

    Loop blocks interleave so that the result again has the standard
    (x, y) coordinate split; parameter and dual slots concatenate.
    """
    if a.domain != b.domain:
        raise DimensionMismatch("direct sum requires equal domains")
    dims, idx_a, idx_b = snm_interleave_indices(a.dims, b.dims)
    la, lb = idx_a[:a.dims.loop], idx_b[:b.dims.loop]

    def psi(t):
        pa, pb = a.psi(t), b.psi(t)
        out = np.zeros((len(t), dims.loop, dims.loop))
        out[..., la[:, None], la[None, :]] = pa
        out[..., lb[:, None], lb[None, :]] = pb
        return out

    def x(t):
        xa, xb = a.x(t), b.x(t)
        out = np.zeros((len(t), dims.loop, dims.m))
        out[..., la, :a.dims.m] = xa
        out[..., lb, a.dims.m:] = xb
        return out

    def e(t):
        ea, eb = a.e(t), b.e(t)
        out = np.zeros((len(t), dims.m, dims.m))
        out[..., :a.dims.m, :a.dims.m] = ea
        out[..., a.dims.m:, a.dims.m:] = eb
        return out

    return SnmPath(dims, psi, x, e, domain=a.domain,
                   sample_hint=max(a.sample_hint, b.sample_hint))


def block_conjugator(dims: Dimensions, phi: Callable, orth: Callable) -> Callable:
    """t -> diag(Phi(t), A(t), A(t)) with Phi symplectic, A orthogonal."""
    def evaluate(t):
        f = np.asarray(phi(t), dtype=float)
        a = np.asarray(orth(t), dtype=float)
        batch = f.shape[:-2]
        out = np.zeros(batch + (dims.total, dims.total))
        ln, pm = dims.loop, dims.m
        out[..., :ln, :ln] = f
        out[..., ln:ln + pm, ln:ln + pm] = a
        out[..., ln + pm:, ln + pm:] = a
        return out

    return evaluate


def conjugate(path: SymplecticPath, conjugator: Callable) -> SymplecticPath:
    """t -> P(t) M(t) P(t)^{-1} for a symplectic conjugator path."""
    a, _ = path.domain
    p0 = conjugator(a)
    if p0.shape != (path.size, path.size):
        raise DimensionMismatch("conjugator size does not match path")
    linalg.check_symplectic(p0, path.jmat, what="conjugator")

    def evaluate(t):
        p = conjugator(t)
        pinv = linalg.symplectic_inverse(p, path.jmat)
        return p @ path(t) @ pinv

    return SymplecticPath(path.domain, evaluate, jmat=path.jmat,
                          sample_hint=path.sample_hint)


def loop_multiply(path: SymplecticPath, loop: Callable) -> SymplecticPath:
    """t -> P(t) M(t) for a loop P (P(a) = P(b))."""
    a, b = path.domain
    pa, pb = loop(a), loop(b)
    if float(np.max(np.abs(pa - pb))) > 1e-9:
        raise JunctionMismatch("multiplier path is not a loop")
    linalg.check_symplectic(pa, path.jmat, what="loop")

    def evaluate(t):
        return loop(t) @ path(t)

    return SymplecticPath(path.domain, evaluate, jmat=path.jmat,
                          sample_hint=path.sample_hint)


def reverse(path: SymplecticPath) -> SymplecticPath:
    a, b = path.domain

    def evaluate(t):
        return path(a + b - t)

    def derivative(t):
        return -path.deriv(a + b - t)

    return SymplecticPath((a, b), evaluate, derivative, jmat=path.jmat,
                          sample_hint=path.sample_hint)

