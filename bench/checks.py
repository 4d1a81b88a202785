"""Independent checks of the benchmark's outputs.

Every check recomputes the expected answer from the generated inputs or
from a property the method must have; none compares against a stored
copy of earlier output.  Each returns a list of problems, empty when the
output is right.  ``selftest.py`` plants wrong answers (a flipped sign,
an index off by one half) to show that no check passes silently.

Only numpy and scipy are used here, never sympind, so a fault in the
package cannot make its own check agree with it.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

# Crossing forms computed three ways must agree to this (criterion 7).
FORM_DEVIATION_TOL = 1e-6
# Coefficient reconstruction and loop-identity bounds of the roundtrip
# battery: (S, C, D) sup error, |antisym F - X^T J0 X / 2|,
# |B - X^T J0|, |C Psi - X'^T J0|.
ROUNDTRIP_BOUNDS = (1e-6, 1e-7, 1e-6, 1e-6)
# Psi(1) from 512 RK4 steps against an adaptive DOP853 solve at
# rtol 1e-12: they differ by 2e-12 to 1.1e-11 on random degree-3
# coefficients, so 1e-8 leaves three orders of margin and still rejects
# any error in the propagator's stages.
PSI_ENDPOINT_TOL = 1e-8


def signature(mat: np.ndarray) -> int:
    """Positive minus negative eigenvalue count of a symmetric matrix."""
    w = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    return int(np.count_nonzero(w > 0) - np.count_nonzero(w < 0))


def twice_of(text: str) -> int:
    """2 mu for an index printed as ``p/2``."""
    num, den = text.split("/")
    if den != "2":
        raise ValueError(f"index {text!r} is not a p/2 string")
    return int(num)


def standard_j(n: int) -> np.ndarray:
    """J0 = [[0, -I], [I, 0]] on R^{2n}, the convention of the package."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


# --- main-theorem -----------------------------------------------------------

def check_main_theorem(out: dict, anchor_flow: Optional[int] = None) -> List[str]:
    """flow_matrix == flow_galerkin == index_right - index_left, forms agree.

    ``out`` holds plain fields read off a report: the two flows, twice
    the two endpoint indices, and per crossing the (path, block, reduced)
    form matrices.  ``anchor_flow`` is the closed-form flow of an anchor
    family, when the instance is one.
    """
    problems = []
    fm, fg = out["flow_matrix"], out["flow_galerkin"]
    twice = out["index_right_twice"] - out["index_left_twice"]
    if twice % 2:
        problems.append(f"index difference {twice}/2 is not an integer")
    elif not fm == fg == twice // 2:
        problems.append(f"flows matrix {fm:+d}, galerkin {fg:+d} vs index "
                        f"difference {twice // 2:+d}")
    for k, (f_path, f_blocks, f_reduced) in enumerate(out["forms"]):
        dev = max(float(np.max(np.abs(f_path - f_blocks), initial=0.0)),
                  float(np.max(np.abs(f_path - f_reduced), initial=0.0)))
        if not dev <= FORM_DEVIATION_TOL:
            problems.append(f"crossing {k}: form deviation {dev:.3e}")
    if anchor_flow is not None and fm != anchor_flow:
        problems.append(f"anchor flow {fm:+d}, closed form {anchor_flow:+d}")
    return problems


# --- axioms -----------------------------------------------------------------

def check_axiom(name: str, passed: bool, detail: str, instances: int) -> List[str]:
    """Every requested instance of one law was attempted and held."""
    want = f"{instances}/{instances} instances"
    if passed and detail.startswith(want):
        return []
    return [f"{name}: {detail}"]


def check_sum_law(label: str, whole_twice: int, parts_twice: Sequence[int]) -> List[str]:
    """An index that must equal the sum of others (the catenation law)."""
    if whole_twice == sum(parts_twice):
        return []
    parts = " + ".join(f"{p}/2" for p in parts_twice)
    return [f"{label}: {whole_twice}/2 != {parts}"]


# --- roundtrip --------------------------------------------------------------

def check_roundtrip(coeffs: Sequence[np.ndarray], recovered: Sequence[np.ndarray],
                    residuals: Sequence[float]) -> List[str]:
    """Reconstruction error and loop-identity residuals within the bounds.

    ``coeffs`` are the (S, C, D) input samples on theta_j = j/N and
    ``recovered`` the node arrays on the closed grid (N + 1 values).
    """
    err = 0.0
    for given, got in zip(coeffs, recovered):
        if given.size:
            closed = np.concatenate([given, given[:1]], axis=0)
            err = max(err, float(np.max(np.abs(got - closed))))
    names = ("coefficient error", "antisym(F) residual", "B residual",
             "C Psi residual")
    values = (err,) + tuple(float(r) for r in residuals)
    return [f"{name} {value:.3e} > {bound:.0e}"
            for name, value, bound in zip(names, values, ROUNDTRIP_BOUNDS)
            if not value <= bound]


def trig_interpolant(samples: np.ndarray):
    """theta -> trigonometric interpolant of periodic samples at j/N.

    Real Fourier series from the DFT, the Nyquist term taken as a cosine
    so the interpolant is real; exact for band-limited samples.
    """
    n = samples.shape[0]
    flat = samples.reshape(n, -1)
    spec = np.fft.rfft(flat, axis=0) / n
    k = np.arange(spec.shape[0])
    weight = np.where((k == 0) | ((n % 2 == 0) & (k == n // 2)), 1.0, 2.0)
    a = weight[:, None] * spec.real
    b = -weight[:, None] * spec.imag

    def evaluate(theta: float) -> np.ndarray:
        ang = 2.0 * np.pi * k * theta
        vals = np.cos(ang) @ a + np.sin(ang) @ b
        return vals.reshape(samples.shape[1:])

    return evaluate


def reference_psi_endpoint(s_samples: np.ndarray) -> np.ndarray:
    """Psi(1) of Psi' = J0 S(theta) Psi, Psi(0) = I, by adaptive DOP853."""
    ln = s_samples.shape[1]
    j0 = standard_j(ln // 2)
    s_of = trig_interpolant(s_samples)

    def rhs(theta, y):
        return (j0 @ s_of(theta) @ y.reshape(ln, ln)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(ln).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(ln, ln)


def check_psi_endpoint(psi_program: np.ndarray, psi_reference: np.ndarray) -> List[str]:
    dev = float(np.max(np.abs(psi_program - psi_reference)))
    if dev <= PSI_ENDPOINT_TOL:
        return []
    return [f"Psi(1) differs from the reference integration by {dev:.3e}"]


# --- cli --------------------------------------------------------------------

def check_cli(expected_twice: int, code: int, text: str) -> List[str]:
    """Exit code 0 and the closed-form index in the --json body."""
    if code != 0:
        return [f"exit code {code}: {text.strip()[:200]}"]
    body = json.loads(text)
    got = twice_of(body["index"])
    if got != expected_twice:
        return [f"index {body['index']}, closed form {expected_twice}/2"]
    return []


def check_repeat(first: str, again: str) -> List[str]:
    """Identical inputs must give byte-identical --json output."""
    return [] if first == again else ["repeated call gave different JSON"]
