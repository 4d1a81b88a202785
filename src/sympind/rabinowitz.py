"""Radial one-parameter model: shear block path and grading formula.

For H = lam k(r) near a regular level k(1) = 0, the transverse part of
the linearized return data in the radial 2-plane is the unipotent block
path

    Psi(t) = [[1, 0], [t T, 1]],  X(t) = t (0, A)^T,  E(t) = 0,

with T = -lam k''(1) and A = -k'(1) != 0.  Along the whole path the
extended kernel contains the isotropic plane spanned by the angle
direction and the dual slot; the stratified index relative to that
plane is always 0, so the grading of the full critical point reduces to
the index of the remaining block, yielding the piecewise formula

    sign(-k'(1)) * mu_reeb   for lam > 0,
    0                        for lam = 0,
    -sign(-k'(1)) * mu_reeb  for lam < 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .halfint import HalfInteger
from .linalg import TOL_SV
from .paths import (KernelFamily, SnmPath, snm_direct_sum,
                    snm_interleave_indices)
from .rsindex import IndexResult, rs_index_stratified
from .snm import Dimensions


@dataclass(frozen=True)
class RabinowitzData:
    """Model constants: multiplier, level slope and curvature, orbit index."""

    lam: float
    k1: float
    k2: float
    mu_reeb: HalfInteger = HalfInteger.from_int(0)

    def __post_init__(self):
        if self.k1 == 0.0:
            raise InvalidInput("k'(1) must be nonzero")
        if not isinstance(self.mu_reeb, HalfInteger):
            object.__setattr__(self, "mu_reeb", HalfInteger(int(2 * self.mu_reeb)))

    @property
    def shear(self) -> float:
        """T = -lam k''(1)."""
        return -self.lam * self.k2

    @property
    def coupling(self) -> float:
        """A = -k'(1)."""
        return -self.k1


def rabinowitz_block_path(data: RabinowitzData,
                          sample_hint: int = 512) -> SnmPath:
    """The 4 x 4 shear block path attached to the model constants."""
    dims = Dimensions(1, 1)
    t_val = data.shear
    a_val = data.coupling

    def psi(t):
        out = np.zeros(t.shape + (2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        out[:, 1, 0] = t_val * t
        return out

    def x(t):
        out = np.zeros(t.shape + (2, 1))
        out[:, 1, 0] = a_val * t
        return out

    def zeros(t):
        return np.zeros(t.shape + (1, 1))

    def dpsi(t):
        out = np.zeros(t.shape + (2, 2))
        out[:, 1, 0] = t_val
        return out

    def dx(t):
        out = np.zeros(t.shape + (2, 1))
        out[:, 1, 0] = a_val
        return out

    return SnmPath(dims, psi, x, zeros, dpsi=dpsi, dx=dx, de=zeros,
                   sample_hint=sample_hint)


def rabinowitz_block_family() -> KernelFamily:
    """Isotropic plane (angle direction, dual slot) inside the kernel."""
    basis = np.zeros((4, 2))
    basis[1, 0] = 1.0
    basis[3, 1] = 1.0
    return KernelFamily.constant(basis, Dimensions(1, 1).j_ext())


def rabinowitz_block_index(data: RabinowitzData,
                           tol_sv: float = TOL_SV) -> IndexResult:
    """Stratified index of the block path; 0 for every valid data set."""
    path = rabinowitz_block_path(data).to_path()
    return rs_index_stratified(path, rabinowitz_block_family(), tol_sv=tol_sv)


def rabinowitz_index(data: RabinowitzData) -> HalfInteger:
    """Grading of the critical point from the orbit index, by multiplier sign."""
    orientation = 1 if -data.k1 > 0 else -1
    if data.lam > 0:
        return data.mu_reeb * orientation
    if data.lam < 0:
        return data.mu_reeb * (-orientation)
    return HalfInteger.from_int(0)


def composite_radial_path(data: RabinowitzData, transverse: SnmPath) -> SnmPath:
    """Direct sum of a transverse loop-only block with the shear block.

    Models the full linearization splitting into a path on the contact
    hyperplane bundle and the radial block; the index of the sum with the
    embedded isotropic family equals index(transverse) + 0.
    """
    if transverse.dims.m != 0:
        raise InvalidInput("transverse block must have no parameter slots")
    return snm_direct_sum(transverse, rabinowitz_block_path(data))


def composite_radial_family(transverse_dims: Dimensions) -> KernelFamily:
    """The shear block's isotropic plane embedded in the composite path."""
    dims, _, idx_b = snm_interleave_indices(transverse_dims, Dimensions(1, 1))
    basis = np.zeros((dims.total, 2))
    basis[idx_b[1], 0] = 1.0      # angle direction of the block
    basis[idx_b[3], 1] = 1.0      # dual slot of the block
    return KernelFamily.constant(basis, dims.j_ext())
