"""Amplitude dynamics on the Krylov chain and the dispersion bound.

Once a chain of coefficients b_1, b_2, ... is known, the Heisenberg
evolution of the seed operator reduces to a hopping problem on a half line:
with the phase convention i^n factored out of the wavefunction, the
amplitudes phi_n(t) are real and obey

    d/dt phi_n = b_n phi_{n-1} - b_{n+1} phi_{n+1},    phi_n(0) = delta_n0.

Everything this module computes derives from that recursion: the mean chain
position K(t) = sum n phi_n^2 (operator complexity), its spread Delta K, the
exact growth rate, the two-sided budget |dK/dt| <= 2 b_1 Delta K, and the
short-time expansion whose fourth/sixth order terms set the time where
generic chains leave the saturation regime.

The default integrator diagonalizes the (zero-diagonal, symmetric)
tridiagonal hopping matrix T = Q diag(lambda) Q^T once and evaluates every
time from the full spectral sum in real arithmetic: with the weights
W_nk = (-1)^(n//2) Q_nk Q_0k,

    phi_n(t) = sum_k W_nk cos(lambda_k t)    (n even),
    phi_n(t) = sum_k W_nk sin(lambda_k t)    (n odd),

two real matrix products per block of times.  All eigenpairs are used:
pairing +lambda with -lambda through the chain's chirality halves the sum
but fails where such a pair is degenerate to rounding.  A classical
fourth-order Runge-Kutta walker is kept as an independent cross-check.
Infinite coefficient families are truncated and the truncation grows
(doubling) until the mass in the last two sites stays below ``TAIL_TOL``
over the whole time grid, up to ``MAX_TRUNCATION`` sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError, ValidationError
from ._util import open_write, validate_times

TAIL_TOL = 1e-12
# Dispersion below max(this, 16 sqrt(eps) * the peak rms position) marks
# ratio/tau_K undefined there: t = 0, revivals, and one-site pileups are
# 0/0 points, and the dispersion is a difference of squares whose rounding
# noise is sqrt(eps) * rms position, not a fixed constant.
UNDEFINED_CUTOFF = 1e-12
RK4_NORM_TOL = 1e-6
DEFAULT_TRUNCATION = 64
# Longest chain a callable family grows to.  Evolving N sites holds about
# 2 N^2 float64 values (measured: 1.08 GB for 8193 sites), so this is a
# memory limit: a grid that needs a longer chain raises NumericalError
# instead of exhausting the machine.
MAX_TRUNCATION = 1 << 13

# i^n, exact by table lookup
_PHASE_POS = np.array([1.0, 1.0j, -1.0, -1.0j])

__all__ = [
    "TAIL_TOL",
    "UNDEFINED_CUTOFF",
    "RK4_NORM_TOL",
    "DEFAULT_TRUNCATION",
    "AmplitudeTrajectory",
    "ComplexityProfile",
    "evolve_amplitudes",
    "complexity_profile",
    "anticommutator_expectation",
    "liouvillian_moments",
    "short_time_coefficients",
    "deviation_time",
    "save_profile_csv",
    "save_amplitudes_csv",
]


@dataclass(eq=False)
class AmplitudeTrajectory:
    """Real chain amplitudes phi[k, n] = phi_n(times[k]).

    b is the coefficient array actually evolved (length N - 1 for N sites).
    truncated marks chains cut off from a longer or infinite family; for
    those, tail_mass is the largest probability found in the last two sites
    over the grid (kept below TAIL_TOL by the auto-grown truncation), while
    exact finite chains report 0.  A grid point at exactly t = 0 carries the
    seed e_0 = [1, 0, ..., 0] exactly, whatever the method.
    """

    times: np.ndarray
    phi: np.ndarray
    b: np.ndarray
    truncated: bool
    tail_mass: float
    method: str

    @property
    def sites(self) -> int:
        return self.phi.shape[1]


@dataclass(eq=False)
class ComplexityProfile:
    """Complexity observables on a time grid.

    ratio is |rate| / bound and tau_k is dispersion / |rate|; both are NaN
    where their denominators fall below UNDEFINED_CUTOFF * b1 (undefined,
    not zero or infinite).
    """

    times: np.ndarray
    complexity: np.ndarray
    rate: np.ndarray
    dispersion: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray
    tau_k: np.ndarray
    b1: float


def _validate_coefficients(b) -> np.ndarray:
    arr = np.asarray(b, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValidationError("b contains non-finite values")
    if np.any(arr <= 0.0):
        raise ValidationError("b entries must all be positive")
    return arr


def _eval_family(bfun, count: int) -> np.ndarray:
    ns = np.arange(1, count + 1)
    try:
        vals = np.asarray(bfun(ns), dtype=np.float64)
        if vals.shape != ns.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([float(bfun(int(n))) for n in ns])
    return _validate_coefficients(vals)


def _tridiag_apply(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = T x for the symmetric zero-diagonal tridiagonal T with offdiag b."""
    y = np.zeros_like(x)
    if b.size:
        y[1:] = b * x[:-1]
        y[:-1] += b * x[1:]
    return y


def _hop_deriv(b: np.ndarray, phi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(phi)
    if b.size:
        out[1:] = b * phi[:-1]
        out[:-1] -= b * phi[1:]
    return out


def _evolve_eigen(b: np.ndarray, times: np.ndarray) -> np.ndarray:
    n_sites = b.size + 1
    if n_sites == 1:
        return np.ones((times.size, 1))
    # An array chain is evolved at its full length, so its memory is bounded
    # only by the machine's.
    try:
        lam, Q = eigh_tridiagonal(np.zeros(n_sites), b)
        # phi_n(t) = Re[(-i)^n sum_k Q_nk Q_0k e^{i lam_k t}], and the real part
        # of (-i)^n e^{ix} is (-1)^(n//2) cos x for even n and (-1)^(n//2) sin x
        # for odd n: with W_nk = (-1)^(n//2) Q_nk Q_0k, even sites are cosine
        # sums and odd sites sine sums, all in real arithmetic.
        Q *= Q[0].copy()
        Q[2::4] *= -1.0
        Q[3::4] *= -1.0
        # Q is Fortran-ordered, so its strided row halves are copied into
        # contiguous blocks that BLAS multiplies as they are; with Q they take
        # 2 N^2 values, no more than the eigensolver's own peak.
        w_even, w_odd = Q[0::2].copy(), Q[1::2].copy()
        del Q
        phi = np.empty((times.size, n_sites))
        # Chunk the time axis so the work array stays modest.
        chunk = max(1, int(2_000_000 // n_sites))
        for lo in range(0, times.size, chunk):
            arg = np.outer(times[lo:lo + chunk], lam)
            phi[lo:lo + chunk, 0::2] = np.cos(arg) @ w_even.T
            phi[lo:lo + chunk, 1::2] = np.sin(arg, out=arg) @ w_odd.T
    except MemoryError as exc:
        raise NumericalError(
            f"evolving {n_sites} sites needs about 16 N^2 = "
            f"{16 * n_sites**2 / 1e9:.3g} GB of memory, more than is available"
        ) from exc
    # The spectral sum at t = 0 is sum_k Q_nk Q_0k = delta_n0 only up to
    # rounding; the initial condition is exact by definition.
    at_zero = times == 0.0
    phi[at_zero] = 0.0
    phi[at_zero, 0] = 1.0
    return phi


def _rk4_span(phi: np.ndarray, b: np.ndarray, t0: float, t1: float,
              hmax: float) -> np.ndarray:
    span = t1 - t0
    if span == 0.0:
        return phi
    nsub = max(1, int(math.ceil(abs(span) / hmax)))
    h = span / nsub
    for _ in range(nsub):
        k1 = _hop_deriv(b, phi)
        k2 = _hop_deriv(b, phi + 0.5 * h * k1)
        k3 = _hop_deriv(b, phi + 0.5 * h * k2)
        k4 = _hop_deriv(b, phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def _evolve_rk4(b: np.ndarray, times: np.ndarray, step: float | None) -> np.ndarray:
    n_sites = b.size + 1
    bmax = float(b.max()) if b.size else 1.0
    if step is None:
        spacing = float(np.min(np.diff(times))) if times.size > 1 else np.inf
        step = min(0.005 / bmax, spacing)
    out = np.empty((times.size, n_sites))
    start = np.zeros(n_sites)
    start[0] = 1.0

    def march(idx_list):
        phi = start
        t_prev = 0.0
        for k in idx_list:
            phi = _rk4_span(phi, b, t_prev, float(times[k]), step)
            t_prev = float(times[k])
            drift = abs(float(phi @ phi) - 1.0)
            if drift > RK4_NORM_TOL:
                raise NumericalError(
                    f"rk4 lost unit norm at t = {t_prev:g} (drift {drift:.3e}); "
                    "reduce rk4_step"
                )
            out[k] = phi

    nonneg = int(np.searchsorted(times, 0.0))
    march(range(nonneg - 1, -1, -1))  # negative times, walking backward from 0
    march(range(nonneg, times.size))
    return out


def evolve_amplitudes(
    b,
    times,
    method: str = "eigen",
    truncation: int | None = None,
    rk4_step: float | None = None,
    tail_tol: float = TAIL_TOL,
) -> AmplitudeTrajectory:
    """Integrate the chain amplitudes phi_n(t) for a coefficient chain.

    Parameters
    ----------
    b : array-like or callable
        Either the complete coefficient chain of a finite-D problem (length
        D - 1, all positive), or a callable n -> b_n representing an
        infinite family (called with a 1-based integer array; a scalar
        fallback is attempted).
    times : array-like
        Strictly increasing, may include negative values.
    method : {"eigen", "rk4"}
        Spectral evaluation of the hopping matrix, or an explicit
        fourth-order Runge-Kutta walker (cross-check; loses unit norm above
        RK4_NORM_TOL -> NumericalError).
    truncation : int, optional
        For a callable family: the starting chain length (default
        DEFAULT_TRUNCATION), grown by doubling until the tail mass over the
        grid drops below ``tail_tol``.  For an array: evolve only the first
        ``truncation`` coefficients, growing back toward the full array if
        the tail demands it.
    rk4_step : float, optional
        Substep for method "rk4"; default min(grid spacing, 0.005 / max b).

    Notes
    -----
    The tail mass is the largest total weight found in the last two sites
    across the grid.  Exact finite chains (array input, no cut) are closed
    systems: amplitudes reflect off the end and the tail is reported as 0.
    A grid point at exactly t = 0 (also an interior one of a grid with
    negative times) carries the initial condition e_0 exactly, with either
    method, so K and Delta K are exactly 0 there.
    """
    t = validate_times(times)
    if method not in ("eigen", "rk4"):
        raise ValidationError(f"method must be 'eigen' or 'rk4', got {method!r}")
    if rk4_step is not None:
        rk4_step = float(rk4_step)
        if not (rk4_step > 0.0) or not np.isfinite(rk4_step):
            raise ValidationError(f"rk4_step must be positive, got {rk4_step}")
    if truncation is not None:
        truncation = int(truncation)
        if truncation < 1:
            raise ValidationError(f"truncation must be >= 1, got {truncation}")
    tail_tol = float(tail_tol)

    if callable(b):
        count = max(4, truncation or DEFAULT_TRUNCATION)
        cap = None
        arr = None
    else:
        arr = _validate_coefficients(b)
        if truncation is None or truncation >= arr.size:
            phi = (_evolve_eigen(arr, t) if method == "eigen"
                   else _evolve_rk4(arr, t, rk4_step))
            return AmplitudeTrajectory(t, phi, arr, False, 0.0, method)
        count = max(4, truncation)
        cap = arr.size

    while True:
        if arr is None:
            used = _eval_family(b, count)
        else:
            used = arr[:count]
        phi = (_evolve_eigen(used, t) if method == "eigen"
               else _evolve_rk4(used, t, rk4_step))
        if cap is not None and count >= cap:
            # Grew back to the full finite chain: it is exact after all.
            return AmplitudeTrajectory(t, phi, used, False, 0.0, method)
        tail = float(np.max(np.sum(phi[:, -2:] ** 2, axis=1)))
        if tail < tail_tol:
            return AmplitudeTrajectory(t, phi, used, True, tail, method)
        if cap is not None:
            count = min(2 * count, cap)
        else:
            count *= 2
            if count > MAX_TRUNCATION:
                raise NumericalError(
                    f"truncation exceeded {MAX_TRUNCATION} sites with tail mass "
                    f"{tail:.3e}; the grid reaches times this family cannot "
                    "be materialized for: evolving N sites needs about "
                    "16 N^2 bytes of memory, and the limit keeps that near 1 GB"
                )


def complexity_profile(trajectory: AmplitudeTrajectory) -> ComplexityProfile:
    """Complexity, dispersion, exact growth rate, and the two-sided budget.

    K(t) = sum_n n phi_n^2, Delta K its standard deviation, and the rate is
    evaluated from the recursion itself,

        dK/dt = 2 sum_n n phi_n (b_n phi_{n-1} - b_{n+1} phi_{n+1}),

    not by differencing.  bound = 2 b_1 Delta K; ratio = |rate| / bound.
    """
    phi = trajectory.phi
    b = trajectory.b
    n_sites = phi.shape[1]
    ns = np.arange(n_sites, dtype=np.float64)
    prob = phi * phi
    complexity = prob @ ns
    second = prob @ (ns * ns)
    dispersion = np.sqrt(np.maximum(second - complexity**2, 0.0))

    flow = np.zeros_like(phi)
    if b.size:
        flow[:, 1:] = phi[:, :-1] * b
        flow[:, :-1] -= phi[:, 1:] * b
    rate = 2.0 * ((phi * flow) @ ns)

    b1 = float(b[0]) if b.size else 0.0
    bound = 2.0 * b1 * dispersion
    eps = float(np.finfo(np.float64).eps)
    rms_peak = float(np.sqrt(second.max())) if second.size else 0.0
    disp_floor = max(UNDEFINED_CUTOFF, 16.0 * np.sqrt(eps) * rms_peak)
    rate_floor = 2.0 * b1 * disp_floor
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dispersion > disp_floor, np.abs(rate) / bound, np.nan)
        tau_k = np.where(np.abs(rate) > rate_floor, dispersion / np.abs(rate), np.nan)
    return ComplexityProfile(
        times=trajectory.times,
        complexity=complexity,
        rate=rate,
        dispersion=dispersion,
        bound=bound,
        ratio=ratio,
        tau_k=tau_k,
        b1=b1,
    )


def _complex_state(trajectory: AmplitudeTrajectory, k: int) -> np.ndarray:
    if not 0 <= k < trajectory.times.size:
        raise ValidationError(
            f"time index must lie in [0, {trajectory.times.size}), got {k}"
        )
    n_sites = trajectory.phi.shape[1]
    return trajectory.phi[k] * _PHASE_POS[np.arange(n_sites) % 4]


def anticommutator_expectation(trajectory: AmplitudeTrajectory, k: int) -> float:
    """Re <O(t)| {K, L} |O(t)> at time index k; vanishes identically.

    K is the chain-position operator and L the hopping (Liouvillian) matrix.
    The cancellation is structural (position is even under the chain's
    conserved parity while the current is odd), so the return value measures
    accumulated rounding, not physics.
    """
    psi = _complex_state(trajectory, k)
    ns = np.arange(psi.size, dtype=np.float64)
    val = 2.0 * np.vdot(psi, ns * _tridiag_apply(trajectory.b, psi)).real
    return float(val)


def liouvillian_moments(trajectory: AmplitudeTrajectory, k: int) -> tuple[float, float]:
    """(<L>, <L^2>) in the evolved state at time index k.

    Both are conserved: <L> = 0 and <L^2> = b_1^2 for all t.
    """
    psi = _complex_state(trajectory, k)
    tpsi = _tridiag_apply(trajectory.b, psi)
    first = float(np.vdot(psi, tpsi).real)
    second = float(np.vdot(tpsi, tpsi).real)
    return first, second


def _check_positive(**kwargs) -> None:
    for name, val in kwargs.items():
        v = float(val)
        if not np.isfinite(v) or v <= 0.0:
            raise ValidationError(f"{name} must be positive and finite, got {val}")


def short_time_coefficients(b1: float, b2: float) -> tuple[float, float]:
    """Coefficients (c2, c4) of K(t) = c2 t^2 + c4 t^4 + O(t^6).

    c2 = b_1^2 and c4 = b_1^2 (b_2^2 - 2 b_1^2) / 6, fixed by brute-force
    expansion of the amplitude recursion; c4 changes sign at b_2^2 = 2 b_1^2
    (negative for chains that bend down, positive for growing ones).
    """
    _check_positive(b1=b1, b2=b2)
    b1 = float(b1)
    b2 = float(b2)
    c2 = b1 * b1
    c4 = c2 * (b2 * b2 - 2.0 * c2) / 6.0
    return c2, c4


def _sixth_coefficient(b1: float, b2: float, b3: float) -> float:
    p1, p2, p3 = b1 * b1, b2 * b2, b3 * b3
    return p1 * (8.0 * p1 * p1 + p1 * p2 - 7.0 * p2 * p2 + 3.0 * p2 * p3) / 180.0


def deviation_time(b1: float, b2: float, b3: float) -> float:
    """Crossing time of the fourth- and sixth-order terms of the growth rate.

    dK/dt = 2 c2 t + 4 c4 t^3 + 6 c6 t^5 + ...; the positive balance point
    |4 c4| tau^3 = |6 c6| tau^5 gives tau_d = sqrt(|4 c4| / |6 c6|), the
    scale where a generic chain stops tracking the saturated solution.  It
    exists only when both terms are present: either coefficient vanishing
    (e.g. b_2^2 = 2 b_1^2, within roundoff of the squared inputs) leaves the
    time undefined.

    Only meaningful as a deviation marker for chains that do NOT satisfy the
    saturation recursion; for saturating families the value is returned
    verbatim but marks no departure.
    """
    _check_positive(b1=b1, b2=b2, b3=b3)
    _, c4 = short_time_coefficients(b1, b2)
    c6 = _sixth_coefficient(float(b1), float(b2), float(b3))
    p1, p2, p3 = float(b1) ** 2, float(b2) ** 2, float(b3) ** 2
    c4_scale = p1 * max(p2, 2.0 * p1) / 6.0
    c6_scale = p1 * (8.0 * p1 * p1 + p1 * p2 + 7.0 * p2 * p2 + 3.0 * p2 * p3) / 180.0
    if abs(c4) <= 1e-12 * c4_scale or abs(c6) <= 1e-12 * c6_scale:
        raise NumericalError(
            "deviation time undefined: the fourth- or sixth-order term of the "
            "growth rate vanishes for these coefficients"
        )
    return math.sqrt(abs(4.0 * c4) / abs(6.0 * c6))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_profile_csv(profile: ComplexityProfile, path, tau_d: float | None = None) -> None:
    """CSV with columns t, K, rate, dispersion, bound, ratio, tau_K.

    Undefined entries are written as nan.  When ``tau_d`` is given (possibly
    NaN for "undefined"), it is recorded in a leading comment line.
    """
    with open_write(path) as fh:
        if tau_d is not None:
            fh.write(f"# tau_d = {_fmt(float(tau_d))}\n")
        fh.write("t,K,rate,dispersion,bound,ratio,tau_K\n")
        for k in range(profile.times.size):
            row = (
                profile.times[k],
                profile.complexity[k],
                profile.rate[k],
                profile.dispersion[k],
                profile.bound[k],
                profile.ratio[k],
                profile.tau_k[k],
            )
            fh.write(",".join(_fmt(float(x)) for x in row) + "\n")


def save_amplitudes_csv(trajectory: AmplitudeTrajectory, path) -> None:
    """CSV with columns t, phi_0 ... phi_{N-1}."""
    with open_write(path) as fh:
        header = ",".join(["t"] + [f"phi_{n}" for n in range(trajectory.sites)])
        fh.write(header + "\n")
        for k in range(trajectory.times.size):
            cells = [_fmt(float(trajectory.times[k]))]
            cells += [_fmt(float(x)) for x in trajectory.phi[k]]
            fh.write(",".join(cells) + "\n")
