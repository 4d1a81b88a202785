"""Seeded verification batteries shared by the test suite and the CLI.

Each ``suite_*`` function runs a named battery over a deterministic
random corpus and returns a SuiteResult: one SuiteCheck per property (or
per corpus instance) with a human-readable detail string.  The batteries
are the executable form of the package's contracts:

* axioms:       the ten algebraic identities of the half-integer index
                (catenation, naturality, ...) plus the explicit shear
                determinant example, each on fresh random paths;
* roundtrip:    (S, C, D) -> (Psi, X, E) -> (S, C, D) reconstruction and
                the loop identities tying C to X;
* main-theorem: dual-method spectral flow equals the endpoint index
                difference on random operator families;
* appendix-c:   the radial block model: its stratified index vanishes
                and the resulting grading matches the closed form.

All randomness flows through one generator per suite, so a seed pins the
whole corpus; draws that land on genuinely excluded configurations
(tangential crossings, degenerate junctions) are redrawn from the same
stream, keeping results reproducible.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .coefficients import (loop_identity_residuals, path_from_coefficients,
                           coefficients_from_path)
from .errors import (IrregularCrossing, JunctionMismatch, NonIsolated,
                     UnresolvedCrossing)
from .halfint import HalfInteger
from .linalg import (ExpCurve, expm, inertia, kernel_basis, kernel_dimension,
                     random_orthogonal, random_symmetric, random_symplectic,
                     signature, sym_part, symplectic_inverse)
from .paths import (KernelFamily, SnmPath, SymplecticPath, block_conjugator,
                    catenate, conjugate, constant_path, constant_stack,
                    direct_sum, exp_shear_path, loop_multiply, snm_direct_sum)
from .rabinowitz import (RabinowitzData, rabinowitz_block_index,
                         rabinowitz_index)
from .rsindex import rs_index, rs_index_stratified, snm_index
from .snm import Dimensions, SnmElement, reduced_return_matrix
from .specflow import (GALERKIN_MODES, main_theorem_check,
                       random_coefficients, random_operator_family)

AXIOM_INSTANCES = 50
SUITE_NAMES = ("axioms", "roundtrip", "main-theorem", "appendix-c")

_REDRAW_ERRORS = (UnresolvedCrossing, IrregularCrossing, NonIsolated,
                  JunctionMismatch)

_AXIOM_DIMS = (Dimensions(1, 1), Dimensions(2, 1), Dimensions(1, 2))
_FAMILY_DIMS = (Dimensions(1, 1), Dimensions(2, 1), Dimensions(1, 2),
                Dimensions(2, 2))


class _Redraw(Exception):
    """Internal: the random draw hit an excluded configuration."""


@dataclass
class SuiteCheck:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}: {self.detail}" if self.detail else f"{tag}  {self.name}"


@dataclass
class SuiteResult:
    suite: str
    seed: int
    checks: List[SuiteCheck] = field(default_factory=list)
    payload: Optional[list] = None

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed_count(self) -> int:
        return len(self.checks) - self.passed_count

    @property
    def ok(self) -> bool:
        return self.failed_count == 0

    def lines(self) -> List[str]:
        body = [c.line() for c in self.checks]
        body.append(f"{self.suite}: {self.passed_count}/{len(self.checks)} checks passed")
        return body

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed_count,
            "failed": self.failed_count,
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


def _retry_instance(fn: Callable[[np.random.Generator], Tuple[bool, str]],
                    rng: np.random.Generator) -> Tuple[bool, str]:
    last: Optional[BaseException] = None
    for _ in range(16):
        try:
            return fn(rng)
        except _REDRAW_ERRORS + (_Redraw,) as exc:
            last = exc
    return False, f"no usable draw after 16 tries ({type(last).__name__})"


def _exp_product(rng: np.random.Generator, j0: np.ndarray, scale: float):
    """Random t -> exp(t J0 S1) exp(t^2 J0 S2) and its derivative.

    Draws S1 then S2 from rng, so every caller consumes the stream in
    the same order.
    """
    s1 = random_symmetric(rng, len(j0), scale * (0.5 + rng.random()))
    s2 = random_symmetric(rng, len(j0), scale * rng.random())
    g1, g2 = j0 @ s1, j0 @ s2
    c1, c2 = ExpCurve(g1), ExpCurve(g2)

    def value(t):
        return c1(t) @ c2(t * t)

    def deriv(t):
        a, b = c1(t), c2(t * t)
        return g1 @ a @ b + (2.0 * t)[:, None, None] * (a @ (g2 @ b))

    return value, deriv


def random_snm_path(rng: np.random.Generator, dims: Dimensions) -> SnmPath:
    """Smooth random subgroup path on [0, 1] starting at the identity.

    The loop block is a product of two one-parameter symplectic groups
    run at phases t and t^2, the coupling and shear blocks are quadratic
    polynomials in t; every component vanishes at t = 0 and all
    derivatives are analytic, so crossing forms need no differencing.
    """
    ln, pm = dims.loop, dims.m
    scale = 0.9
    psi, dpsi = _exp_product(rng, dims.j_loop(), scale)
    x1 = rng.standard_normal((ln, pm)) * scale
    x2 = rng.standard_normal((ln, pm)) * (0.5 * scale)
    e1 = random_symmetric(rng, pm, 1.2 * scale)
    e2 = random_symmetric(rng, pm, 0.6 * scale)

    def x(t):
        return t[:, None, None] * x1 + (t * t)[:, None, None] * x2

    def dx(t):
        return x1 + (2.0 * t)[:, None, None] * x2

    def e(t):
        return t[:, None, None] * e1 + (t * t)[:, None, None] * e2

    def de(t):
        return e1 + (2.0 * t)[:, None, None] * e2

    return SnmPath(dims, psi, x, e, domain=(0.0, 1.0), dpsi=dpsi, dx=dx, de=de,
                   sample_hint=192)


def snm_right_translate(path: SnmPath, el: SnmElement) -> SnmPath:
    """The path t -> M(t) M0 for a fixed subgroup element M0.

    Componentwise group law: the translated path starts at M0 when the
    input starts at the identity, which is how catenation corpora chain
    random pieces together.
    """
    dims = path.dims
    j0 = dims.j_loop()
    p0, x0, e0 = el.psi, el.x, el.e
    p0_inv = symplectic_inverse(p0, j0)
    j0p0x0 = j0 @ p0 @ x0

    def psi(t):
        return path.psi(t) @ p0

    def x(t):
        return x0 + p0_inv @ path.x(t)

    def e(t):
        xt = np.swapaxes(path.x(t), -1, -2)
        return path.e(t) + e0 + sym_part(xt @ j0p0x0)

    dpsi = dx = de = None
    if path._dpsi is not None:
        def dpsi(t):
            return path._dpsi(t) @ p0

        def dx(t):
            return p0_inv @ path._dx(t)

        def de(t):
            dxt = np.swapaxes(path._dx(t), -1, -2)
            return path._de(t) + sym_part(dxt @ j0p0x0)

    return SnmPath(dims, psi, x, e, domain=path.domain, dpsi=dpsi, dx=dx,
                   de=de, sample_hint=path.sample_hint)


def random_snm_element(rng: np.random.Generator, dims: Dimensions) -> SnmElement:
    psi = random_symplectic(rng, dims.j_loop(), 0.9)
    x = rng.standard_normal((dims.loop, dims.m)) * 0.9
    e = random_symmetric(rng, dims.m, 0.9)
    return SnmElement(dims, psi, x, e, validate=False)


def _sp_path(rng: np.random.Generator, n: int, scale: float = 0.9,
             translate: bool = True, sample_hint: int = 192) -> SymplecticPath:
    """Random loop-block path: exp product, optionally with generic start."""
    j0 = Dimensions(n, 0).j_loop()
    value, deriv = _exp_product(rng, j0, scale)
    right = random_symplectic(rng, j0, scale) if translate else np.eye(2 * n)

    def evaluate(t):
        return value(t) @ right

    def derivative(t):
        return deriv(t) @ right

    return SymplecticPath((0.0, 1.0), evaluate, derivative, jmat=j0,
                          sample_hint=sample_hint)


# --- the ten index identities, one random instance each -------------------

def _axiom_catenation(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    p1 = random_snm_path(rng, dims)
    end = p1.element(1.0)
    if end.stratum() != 0:
        raise _Redraw("junction would be a crossing")
    p2 = snm_right_translate(random_snm_path(rng, dims), end)
    i1 = snm_index(p1).value
    i2 = snm_index(p2).value
    fam = KernelFamily.dual_slot(dims)
    whole = rs_index_stratified(catenate(p1.to_path(), p2.to_path()), fam,
                                validate=True).value
    return whole == i1 + i2, f"{whole} == {i1} + {i2}"


def _axiom_naturality(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    base = random_snm_path(rng, dims)
    phi_path = _sp_path(rng, dims.n, translate=False)
    k_gen = rng.standard_normal((dims.m, dims.m))
    a_curve = ExpCurve(0.5 * (k_gen - k_gen.T))
    conj = block_conjugator(dims, phi_path, a_curve)
    fam = KernelFamily.dual_slot(dims)
    plain = snm_index(base).value
    moved = rs_index_stratified(conjugate(base.to_path(), conj), fam,
                                validate=True).value
    return moved == plain, f"{moved} == {plain}"


def _axiom_loop(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    base = random_snm_path(rng, dims)
    k = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
    j0 = dims.j_loop()
    b = random_symplectic(rng, j0, 0.7)
    b_inv = symplectic_inverse(b, j0)
    curve = ExpCurve(2.0 * math.pi * k * j0)

    def phi(t):
        return b @ curve(t) @ b_inv

    # The loop b exp(2*pi*k*J0*t) b^-1 winds k times around the generator of
    # pi_1(Sp(2n)), so its degree is n*k; for a loop the path index is twice
    # the degree, which the computed index must reproduce before we use it.
    degree = dims.n * k
    phi_path = SymplecticPath((0.0, 1.0), phi, jmat=j0, sample_hint=256)
    mu_phi = rs_index(phi_path).value
    if mu_phi != HalfInteger(4 * degree):
        return False, f"loop index {mu_phi} != 2 * degree {degree}"
    fam = KernelFamily.dual_slot(dims)
    # block_conjugator broadcasts the constant orthogonal block over t
    multiplier = block_conjugator(dims, phi, lambda t: np.eye(dims.m))
    product = loop_multiply(base.to_path(), multiplier)
    # The multiplier sweeps eigenvalue 1 up to |k| times across [0, 1], so
    # product crossings can fall close together; scan finely enough to
    # bracket each one separately.
    mu_pm = rs_index_stratified(product, fam, samples=768,
                                validate=True).value
    mu_m = snm_index(base).value
    ok = mu_pm - mu_m == HalfInteger(4 * degree)
    return ok, f"{mu_pm} - {mu_m} == 2 * degree {degree}"


def _axiom_product(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    other = _AXIOM_DIMS[int(rng.integers(0, len(_AXIOM_DIMS)))]
    p1 = random_snm_path(rng, dims)
    p2 = random_snm_path(rng, other)
    total = snm_direct_sum(p1, p2)
    i1 = snm_index(p1).value
    i2 = snm_index(p2).value
    i12 = snm_index(total).value
    return i12 == i1 + i2, f"{i12} == {i1} + {i2}"


def _axiom_splitting(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    psi_path = _sp_path(rng, dims.n, translate=True)
    if kernel_dimension(psi_path(0.0) - np.eye(dims.loop)) or \
            kernel_dimension(psi_path(1.0) - np.eye(dims.loop)):
        raise _Redraw("loop block degenerate at an endpoint")
    e0 = random_symmetric(rng, dims.m, 1.0)
    e1 = random_symmetric(rng, dims.m, 1.0)
    if inertia(e0).zero or inertia(e0 + e1).zero:
        raise _Redraw("shear endpoint degenerate")

    zx = np.zeros((dims.loop, dims.m))

    def xfn(t):
        return constant_stack(zx, t)

    def efn(t):
        return e0 + t[:, None, None] * e1

    snm = SnmPath(dims, psi_path, xfn, efn, dpsi=psi_path.deriv, dx=xfn,
                  de=lambda t: constant_stack(e1, t), sample_hint=192)
    mu = snm_index(snm).value
    mu_psi = rs_index(psi_path).value
    shear = HalfInteger(signature(e0 + e1) - signature(e0))
    ok = mu == mu_psi + shear
    return ok, f"{mu} == {mu_psi} + {shear}"


def _axiom_signature(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    s = random_symmetric(rng, dims.loop, 0.5 + 1.5 * rng.random())
    e = random_symmetric(rng, dims.m, 0.5 + rng.random())
    if inertia(s).zero or inertia(e).zero:
        raise _Redraw("generator degenerate")
    mu = snm_index(exp_shear_path(s, e)).value
    want = HalfInteger(signature(s) + signature(e))
    return mu == want, f"{mu} == ({signature(s)} + {signature(e)})/2"


def _axiom_zero(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    ln, pm = dims.loop, dims.m
    j0 = dims.j_loop()
    drop = int(rng.integers(1, ln))
    q = random_orthogonal(rng, ln)
    vals = np.concatenate([np.zeros(drop),
                           np.sign(rng.standard_normal(ln - drop))
                           * (0.3 + rng.random(ln - drop))])
    s0 = q @ np.diag(vals) @ q.T
    psi0 = expm(j0 @ s0)
    e0 = random_symmetric(rng, pm, 1.0)
    if inertia(e0).zero:
        raise _Redraw("shear block degenerate")
    el = SnmElement(dims, psi0, np.zeros((ln, pm)), e0, validate=False)
    k = el.stratum()
    if k != drop:
        raise _Redraw("stratum differs from the planned kernel")
    m0 = el.to_matrix()
    basis0 = kernel_basis(m0 - np.eye(dims.total))
    omega = dims.j_ext().T
    w = basis0.T @ omega @ basis0
    rank = int(np.sum(np.linalg.svd(w, compute_uv=False) > 1e-8))

    phi_path = _sp_path(rng, dims.n, translate=False)
    a_gen = rng.standard_normal((pm, pm))
    a_curve = ExpCurve(0.5 * (a_gen - a_gen.T))
    conj = block_conjugator(dims, phi_path, a_curve)
    path = conjugate(constant_path(m0, jmat=dims.j_ext(), sample_hint=192), conj)
    fam = KernelFamily.conjugated(basis0, conj, rank)
    res = rs_index_stratified(path, fam, validate=True)
    ok = res.value == HalfInteger(0) and not res.crossings
    return ok, f"stratum {k}: index {res.value} with {len(res.crossings)} crossings"


def _axiom_integrality(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    path = random_snm_path(rng, dims)
    if rng.random() < 0.5:
        path = snm_right_translate(path, random_snm_element(rng, dims))
    res = snm_index(path)
    k_a = path.element(path.domain[0]).stratum()
    k_b = path.element(path.domain[1]).stratum()
    ok = (res.value.twice + k_a - k_b) % 2 == 0
    return ok, f"2mu={res.value.twice}, strata {k_a}->{k_b}"


def _axiom_determinant(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    path = random_snm_path(rng, dims)
    end = path.element(1.0)
    if end.stratum() != 0:
        raise _Redraw("endpoint not in the open stratum")
    det = float(np.linalg.det(reduced_return_matrix(end)))
    if abs(det) < 1e-10:
        raise _Redraw("endpoint determinant too small to sign")
    mu = snm_index(path).value
    twice_exp = 2 * dims.n + dims.m - mu.twice
    if twice_exp % 2:
        return False, f"exponent 2n+m-2mu = {twice_exp} is odd"
    exponent = twice_exp // 2
    ok = ((-1) ** exponent > 0) == (det > 0)
    return ok, f"(-1)^{exponent} vs det {det:+.3e}"


def _axiom_involution(rng: np.random.Generator, dims: Dimensions) -> Tuple[bool, str]:
    path = random_snm_path(rng, dims)
    mu = snm_index(path).value
    mu_flip = snm_index(path.flip_x()).value
    mu_inv = snm_index(path.first_inverse_transform()).value
    ok = mu_flip == mu and mu_inv == -mu
    try:
        mu_var = snm_index(path.variant_inverse_transform()).value
        variant = "agrees" if mu_var == -mu else f"differs ({mu_var})"
    except _REDRAW_ERRORS as exc:
        variant = f"unresolved ({type(exc).__name__})"
    return ok, f"mu={mu}, flip={mu_flip}, inverse={mu_inv}; variant {variant} (not asserted)"


_AXIOMS: Sequence[Tuple[str, Callable]] = (
    ("catenation", _axiom_catenation),
    ("naturality", _axiom_naturality),
    ("loop", _axiom_loop),
    ("product", _axiom_product),
    ("splitting", _axiom_splitting),
    ("signature", _axiom_signature),
    ("zero", _axiom_zero),
    ("integrality", _axiom_integrality),
    ("determinant", _axiom_determinant),
    ("involution", _axiom_involution),
)


def axiom_names() -> List[str]:
    return [name for name, _ in _AXIOMS]


def run_axiom(name: str, seed: int = 0,
              instances: int = AXIOM_INSTANCES) -> SuiteCheck:
    """All instances of one identity, aggregated into a single check."""
    table = dict(_AXIOMS)
    if name not in table:
        raise KeyError(f"unknown axiom {name!r}")
    fn = table[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()) * 100003 + seed)
    failures: List[str] = []
    sample_detail = ""
    for i in range(instances):
        dims = _AXIOM_DIMS[i % len(_AXIOM_DIMS)]
        ok, detail = _retry_instance(lambda r: fn(r, dims), rng)
        if not ok:
            failures.append(f"instance {i} (n={dims.n}, m={dims.m}): {detail}")
        elif not sample_detail:
            sample_detail = detail
    if failures:
        return SuiteCheck(name, False,
                          f"{instances - len(failures)}/{instances} passed; first failure: "
                          + failures[0])
    return SuiteCheck(name, True, f"{instances}/{instances} instances, e.g. {sample_detail}")


def determinant_example_check(seed: int = 0, count: int = 20) -> SuiteCheck:
    """Closed-form determinant of the hyperbolic-shear endpoint family.

    For the element (diag(2, 1/2), (a, b), 1) the reduced endpoint
    determinant equals -1/2 + (3/2) a b; checked to 1e-10.
    """
    rng = np.random.default_rng(seed)
    dims = Dimensions(1, 1)
    worst = 0.0
    for _ in range(count):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        el = SnmElement(dims, np.diag([2.0, 0.5]), np.array([[a], [b]]),
                        np.array([[1.0]]), validate=False)
        det = float(np.linalg.det(reduced_return_matrix(el)))
        worst = max(worst, abs(det - (-0.5 + 1.5 * a * b)))
    return SuiteCheck("determinant-example", bool(worst <= 1e-10),
                      f"max |det - (-1/2 + 3ab/2)| = {worst:.3e} over {count} draws")


def _hyperbolic_shear_path(a: float, b: float) -> SnmPath:
    """Explicit path from the identity to (diag(2, 1/2), (a, b), 1)."""
    dims = Dimensions(1, 1)
    log2 = math.log(2.0)
    x1 = np.array([[a], [b]])
    e1 = np.array([[1.0]])

    def psi(t):
        p = np.zeros(t.shape + (2, 2))
        p[:, 0, 0] = 2.0 ** t
        p[:, 1, 1] = 2.0 ** (-t)
        return p

    def dpsi(t):
        p = psi(t)
        p[:, 0, 0] *= log2
        p[:, 1, 1] *= -log2
        return p

    return SnmPath(dims, psi,
                   lambda t: t[:, None, None] * x1,
                   lambda t: t[:, None, None] * e1,
                   dpsi=dpsi,
                   dx=lambda t: constant_stack(x1, t),
                   de=lambda t: constant_stack(e1, t),
                   sample_hint=192)


def determinant_parity_check() -> SuiteCheck:
    """Index parity against the endpoint determinant sign, both classes.

    The endpoints (a, b) = (0, 0) and (1, 1) have reduced determinants
    -1/2 and +1, so paths from the identity must land in the two parity
    classes mu in 1/2 + 2Z and mu in 3/2 + 2Z respectively.
    """
    details = []
    ok = True
    for (a, b), residue in (((0.0, 0.0), 1), ((1.0, 1.0), 3)):
        mu = snm_index(_hyperbolic_shear_path(a, b)).value
        good = mu.twice % 4 == residue
        ok = ok and good
        details.append(f"(a,b)=({a:g},{b:g}): mu={mu}, class {residue}/2 + 2Z"
                       + ("" if good else " VIOLATED"))
    return SuiteCheck("determinant-parity", ok, "; ".join(details))


def suite_axioms(seed: int = 0, instances: int = AXIOM_INSTANCES) -> SuiteResult:
    res = SuiteResult("axioms", seed)
    for name, _ in _AXIOMS:
        res.checks.append(run_axiom(name, seed, instances))
    res.checks.append(determinant_example_check(seed))
    res.checks.append(determinant_parity_check())
    return res


# --- stratified corpus for the perturbation oracle -------------------------

@dataclass
class StratifiedInstance:
    path: SymplecticPath
    family: KernelFamily
    label: str
    eps: float


def _shear_factor(rng: np.random.Generator) -> SymplecticPath:
    """2x2 upper shear with a coupling that never vanishes.

    Its kernel is the constant isotropic line span{e1}, which is the
    smallest nontrivial family a path can carry.
    """
    c0 = float((0.6 + 0.8 * rng.random()) * (1 if rng.random() < 0.5 else -1))
    c1 = float(0.4 * c0 * rng.uniform(-1.0, 1.0))
    jmat = np.zeros((2, 2))
    jmat[0, 1], jmat[1, 0] = -1.0, 1.0

    def evaluate(t):
        out = np.zeros(t.shape + (2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        out[:, 0, 1] = c0 + c1 * t
        return out

    return SymplecticPath((0.0, 1.0), evaluate, jmat=jmat, sample_hint=192)


def stratified_corpus(seed: int = 0, count: int = 20) -> List[StratifiedInstance]:
    """Paths carrying a built-in kernel family of every symplectic type.

    Each instance direct-sums a generic loop-block path with degenerate
    factors whose fixed kernels form the family: a nonvanishing shear
    (isotropic line), a constant identity plane (symplectic), or both
    (mixed).  A constant symplectic conjugation then mixes coordinates
    without changing the family type.  These are the inputs for checking
    the stratified index against its perturbation oracle.
    """
    rng = np.random.default_rng(seed)
    kinds = ("isotropic", "symplectic", "mixed")
    out: List[StratifiedInstance] = []
    tries = 0
    while len(out) < count and tries < 40 * count:
        tries += 1
        i = len(out)
        kind = kinds[i % 3]
        n0 = 1 + i % 2
        base = _sp_path(rng, n0, scale=1.2 + 1.2 * rng.random(),
                        translate=True, sample_hint=192)
        if kernel_dimension(base(0.0) - np.eye(2 * n0)) or \
                kernel_dimension(base(1.0) - np.eye(2 * n0)):
            continue
        path = base
        cols = []
        offset = 2 * n0
        if kind in ("isotropic", "mixed"):
            path = direct_sum(path, _shear_factor(rng))
            cols.append(offset)
            offset += 2
        if kind in ("symplectic", "mixed"):
            eye2 = constant_path(np.eye(2), sample_hint=192)
            path = direct_sum(path, eye2)
            cols.extend([offset, offset + 1])
            offset += 2
        basis = np.zeros((path.size, len(cols)))
        for j, c in enumerate(cols):
            basis[c, j] = 1.0
        phi = random_symplectic(rng, path.jmat, 0.8)
        conjugated = conjugate(path, lambda t, p=phi: p)
        family = KernelFamily.constant(phi @ basis, path.jmat)
        eps = float(0.3 + 0.6 * rng.random())
        out.append(StratifiedInstance(conjugated, family, kind, eps))
    if len(out) < count:
        raise RuntimeError("could not draw enough nondegenerate corpus instances")
    return out


# --- coefficient round-trips ----------------------------------------------

def suite_roundtrip(seed: int = 0, count: int = 20) -> SuiteResult:
    res = SuiteResult("roundtrip", seed)
    rng = np.random.default_rng(seed)
    for i in range(count):
        dims = _FAMILY_DIMS[i % len(_FAMILY_DIMS)]
        coeffs = random_coefficients(dims, rng)
        pd = path_from_coefficients(coeffs)
        s2, c2, d2 = coefficients_from_path(pd)
        # Recovered tables live on the closed grid (the last node repeats
        # node 0); close the reference tables the same way.
        closed = lambda arr: np.concatenate([arr, arr[:1]], axis=0)
        err = max(float(np.max(np.abs(s2 - closed(coeffs.s)))),
                  float(np.max(np.abs(c2 - closed(coeffs.c)))) if c2.size else 0.0,
                  float(np.max(np.abs(d2 - closed(coeffs.d)))) if d2.size else 0.0)
        r_anti, r_dual, r_cpsi = loop_identity_residuals(pd)
        passed = (err <= 1e-6 and r_anti <= 1e-7 and r_dual <= 1e-6
                  and r_cpsi <= 1e-6)
        res.checks.append(SuiteCheck(
            f"roundtrip[{i}] n={dims.n} m={dims.m}", passed,
            f"coeff sup-err {err:.3e}, identities {r_anti:.3e}/{r_dual:.3e}/{r_cpsi:.3e}"))
    return res


# --- dual-method spectral flow --------------------------------------------

def suite_main_theorem(seed: int = 0, count: int = 20,
                       modes: int = GALERKIN_MODES) -> SuiteResult:
    res = SuiteResult("main-theorem", seed, payload=[])
    for i in range(count):
        dims = _FAMILY_DIMS[i % len(_FAMILY_DIMS)]
        fam = random_operator_family(dims, seed=1000 * (seed + 1) + i)
        report = main_theorem_check(fam.left_kernel.path_data,
                                    fam.right_kernel.path_data, fam, modes=modes)
        dev = max((max(c.block_deviation, c.reduced_deviation)
                   for c in report.flow_matrix.crossings), default=0.0)
        passed = report.ok and dev <= 1e-6
        res.checks.append(SuiteCheck(
            f"family[{i}] n={dims.n} m={dims.m}", passed,
            f"matrix {report.flow_matrix.value:+d} == galerkin "
            f"{report.flow_galerkin.value:+d} == {report.index_right} - "
            f"{report.index_left}; {len(report.flow_matrix.crossings)} crossings, "
            f"form dev {dev:.3e}"))
        res.payload.append(report)
    return res


# --- radial block model ----------------------------------------------------

def suite_rabinowitz(seed: int = 0, triples: int = 25) -> SuiteResult:
    res = SuiteResult("appendix-c", seed)
    rng = np.random.default_rng(seed)
    for i in range(triples):
        lam = 0.0 if i % 5 == 2 else float(rng.uniform(0.2, 2.0) * np.sign(rng.standard_normal()))
        k1 = float(rng.uniform(0.4, 1.6) * (1 if rng.random() < 0.5 else -1))
        k2 = float(rng.uniform(-1.5, 1.5))
        mu_reeb = int(i % 7) - 3
        data = RabinowitzData(lam, k1, k2, mu_reeb=mu_reeb)
        block = rabinowitz_block_index(data).value
        got = rabinowitz_index(data)
        sign = 1 if -k1 > 0 else -1
        if lam > 0:
            want = HalfInteger.from_int(sign * mu_reeb)
        elif lam < 0:
            want = HalfInteger.from_int(-sign * mu_reeb)
        else:
            want = HalfInteger.from_int(0)
        passed = block == HalfInteger(0) and got == want
        res.checks.append(SuiteCheck(
            f"triple[{i}] lam={lam:+.3f} k1={k1:+.3f} k2={k2:+.3f} mu={mu_reeb}",
            passed, f"block index {block}, grading {got} (expected {want})"))
    return res


_SUITE_TABLE = {
    "axioms": suite_axioms,
    "roundtrip": suite_roundtrip,
    "main-theorem": suite_main_theorem,
    "appendix-c": suite_rabinowitz,
}


def run_suite(name: str, seed: int = 0, **overrides) -> SuiteResult:
    """Dispatch a named battery; overrides pass through to the suite."""
    if name not in _SUITE_TABLE:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITE_TABLE[name](seed=seed, **overrides)
