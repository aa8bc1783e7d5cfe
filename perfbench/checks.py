"""Independent checks of kbound outputs, written with numpy and scipy only.

Nothing here imports kbound: every reference value is recomputed from the
inputs the benchmark generated (Hamiltonians, observables, family
parameters), or is a property the method must have.  Each check returns a
``Verdict`` with the measured error next to its tolerance, so a failure says
by how much it failed.

Tolerances sit far from both sides of what the package produces today: the
spectral residual of every seed-7 d = 32 GOE chain is below 7e-9, while a
tail coefficient scaled by 1 + 1e-3 moves it to >= 1e-5 and the d = 48
tail fault to ~4e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

NODE_TOL = 1e-6      # max node error / max |omega|
CDF_TOL = 1e-5       # Kolmogorov distance between the two spectral measures
PROFILE_TOL = 1e-8   # K, rate, dispersion and bound against an independent evolution
GRAM_TOL = 1e-8      # max |<O_m|O_n> - delta_mn| of a stored basis
REPORT_TOL = 1e-10   # program Gram matrix against the independent one
THREE_TERM_TOL = 1e-8  # max_n ||[H, O_n] - b_n O_{n-1} - b_{n+1} O_{n+1}|| / max b
AMPLITUDE_TOL = 1e-8  # max |phi_n(t) - closed form|
RATES_TOL = 1e-8     # closure alpha, gamma against the family's rates


@dataclass
class Verdict:
    name: str
    ok: bool
    error: float
    tol: float
    detail: str = ""

    def __str__(self):
        state = "ok" if self.ok else "FAILED"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {state}, error {self.error:.3e} vs tol {self.tol:.0e}{extra}"


def _verdict(name, error, tol, detail=""):
    error = float(error)
    return Verdict(name, bool(np.isfinite(error) and error <= tol), error, tol, detail)


# ------------------------------------------------------------------ inputs

def goe_redraw(seed: int, index: int, dim: int, sigma: float = 1.0) -> np.ndarray:
    """Realization ``index`` of the documented ledger, drawn without kbound.

    SeedSequence(entropy=seed, spawn_key=(index,)) feeds PCG64; the matrix is
    (X + X^T) / 2 with X i.i.d. N(0, sigma^2).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    x = np.random.Generator(np.random.PCG64(ss)).normal(0.0, sigma, size=(dim, dim))
    return 0.5 * (x + x.T)


def read_matrix_json(payload: dict) -> np.ndarray:
    """A {"dim", "re", "im"} matrix payload as a complex array."""
    re = np.array(payload["re"], dtype=np.float64)
    im = np.array(payload["im"], dtype=np.float64) if "im" in payload else 0.0 * re
    return re + 1j * im


# -------------------------------------------------------- spectral measure

@dataclass
class Measure:
    """The seed operator's spectral measure under L = [H, .]."""

    nodes: np.ndarray    # sorted distinct frequencies E_i - E_j
    weights: np.ndarray  # normalized, same order
    scale: float         # max |omega|, the Liouvillian's spectral radius


def liouvillian_measure(H, O=None, beta: float = 0.0) -> Measure:
    """Nodes E_i - E_j and weights w_i w_j |(V^dag O V)_ij|^2 from eigh(H).

    O = None is the uniform observable (all-ones in the eigenbasis).  The
    d diagonal slots share the frequency 0 and are merged into one node.
    """
    H = np.asarray(H)
    d = H.shape[0]
    E, V = np.linalg.eigh(H)
    if O is None:
        mass = np.ones((d, d))
    else:
        Ot = V.conj().T @ np.asarray(O, dtype=np.complex128) @ V
        mass = np.abs(Ot) ** 2
    if beta > 0.0:
        w = np.exp(-beta * (E - E.min()) / 2.0)
        mass = mass * np.outer(w, w)
    omega = E[:, None] - E[None, :]
    off = ~np.eye(d, dtype=bool)
    nodes = np.concatenate([omega[off], [0.0]])
    weights = np.concatenate([mass[off], [np.trace(mass)]])
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep] / weights[keep].sum()
    order = np.argsort(nodes, kind="stable")
    return Measure(nodes[order], weights[order], float(np.max(np.abs(omega))))


def _jacobi(b: np.ndarray, vectors: bool):
    b = np.asarray(b, dtype=np.float64)
    return eigh_tridiagonal(np.zeros(b.size + 1), b, eigvals_only=not vectors)


def spectral_check(b, measure: Measure, name: str = "spectral") -> Verdict:
    """Jacobi matrix of the chain against the measure it must reproduce.

    The error reported is the node error, max node error / max |omega|;
    the CDF distance must also stay within CDF_TOL.  Nodes are matched in
    sorted order when the counts agree (a lost and a spurious eigenvalue
    shift a whole run of them), otherwise by nearest neighbour in both
    directions.  The weights are compared as cumulative distributions at
    the midpoints of gaps wider than the node tolerance, which
    near-degenerate frequencies cannot flip.
    """
    lam, Q = _jacobi(b, vectors=True)
    wj = Q[0] ** 2
    nodes, scale = measure.nodes, measure.scale
    if lam.size == nodes.size:
        node_err = float(np.max(np.abs(lam - nodes)))
    else:
        node_err = max(_nearest(lam, nodes), _nearest(nodes, lam))
    node_err /= scale
    gaps = np.diff(nodes)
    wide = gaps > 2.0 * NODE_TOL * scale
    mids = 0.5 * (nodes[1:] + nodes[:-1])[wide]
    cdf_measure = np.cumsum(measure.weights)[:-1][wide]
    cdf_chain = np.concatenate([[0.0], np.cumsum(wj)])[np.searchsorted(lam, mids)]
    cdf_err = float(np.max(np.abs(cdf_measure - cdf_chain))) if mids.size else 0.0
    ok = node_err <= NODE_TOL and cdf_err <= CDF_TOL
    detail = (f"node error {node_err:.2e} of max|omega|, CDF distance {cdf_err:.2e}, "
              f"{lam.size} eigenvalues vs {nodes.size} nodes")
    return Verdict(name, bool(ok), node_err, NODE_TOL, detail)


def _nearest(xs: np.ndarray, grid: np.ndarray) -> float:
    i = np.clip(np.searchsorted(grid, xs), 1, grid.size - 1)
    return float(np.max(np.minimum(np.abs(xs - grid[i - 1]), np.abs(xs - grid[i]))))


# ------------------------------------------------------------ chain profile

def chain_profile(b, times) -> dict:
    """K, dispersion and dK/dt of psi(t) = exp(-i J t) e_0, from eigh of J.

    The rate is the spectral derivative 2 Re sum_n n conj(psi_n) dpsi_n/dt,
    not the package's current formula.
    """
    b = np.asarray(b, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    lam, Q = _jacobi(b, vectors=True)
    phase = Q[0][:, None] * np.exp(-1j * np.outer(lam, t))
    psi = Q @ phase
    dpsi = Q @ (-1j * lam[:, None] * phase)
    ns = np.arange(b.size + 1, dtype=np.float64)
    prob = np.abs(psi) ** 2
    K = ns @ prob
    disp = np.sqrt(np.maximum(ns**2 @ prob - K * K, 0.0))
    rate = 2.0 * (ns @ (psi.conj() * dpsi).real)
    return {"K": K, "dispersion": disp, "rate": rate, "bound": 2.0 * b[0] * disp}


def profile_check(profile: dict, reference: dict, b1: float, name: str = "profile") -> Verdict:
    """Program profile columns against an independent one, plus the bound.

    K is compared relative to max(1, peak K) and the rate relative to 2 b_1
    times the peak dispersion.  The dispersion and the bound are compared
    through their squares, relative to the peak second moment <n^2>: the
    dispersion is a difference of squares, so its rounding scales with
    <n^2>, not with the dispersion itself.  The dispersion bound
    |dK/dt| <= 2 b_1 dK must hold on every grid point at the same scale.
    """
    K, disp = reference["K"], reference["dispersion"]
    kscale = max(1.0, float(np.max(K)))
    second = max(1.0, float(np.max(K * K + disp * disp)))
    vscale = 4.0 * b1 * b1 * second
    rscale = 2.0 * b1 * max(1.0, float(np.max(disp)))
    errs = {
        "K": np.max(np.abs(profile["K"] - K)) / kscale,
        "dispersion": np.max(np.abs(profile["dispersion"] ** 2 - disp**2)) / second,
        "rate": np.max(np.abs(profile["rate"] - reference["rate"])) / rscale,
        "bound": np.max(np.abs(profile["bound"] ** 2 - reference["bound"] ** 2)) / vscale,
        "excess": np.max(profile["rate"] ** 2 - profile["bound"] ** 2) / vscale,
    }
    worst = max(errs, key=errs.get)
    return _verdict(name, errs[worst], PROFILE_TOL, f"worst column {worst}")


# ------------------------------------------------------------ stored basis

class ThermalFrame:
    """H eigenframe with the beta-weighted product folded in.

    Frame vectors x satisfy <A|B> = vdot(x_A, x_B) for
    <A|B> = Tr(rho^1/2 A^dag rho^1/2 B) / Z.
    """

    def __init__(self, H, beta: float):
        self.H = np.asarray(H, dtype=np.complex128)
        self.d = self.H.shape[0]
        E, self.V = np.linalg.eigh(self.H)
        w = np.exp(-beta * (E - E.min()) / 2.0)
        self.sqrt_weights = np.sqrt(np.outer(w, w) / np.sum(w * w))

    def matrices(self, rows: np.ndarray) -> np.ndarray:
        """Column-major vectorized operators (rows) as a (D, d, d) stack."""
        return rows.reshape(rows.shape[0], self.d, self.d).transpose(0, 2, 1)

    def frame(self, mats: np.ndarray) -> np.ndarray:
        Vh = self.V.conj().T
        return ((Vh @ mats @ self.V) * self.sqrt_weights).reshape(mats.shape[0], -1)


def gram_matrix(basis: np.ndarray, frame: ThermalFrame) -> np.ndarray:
    """<O_m|O_n> for every pair of stored rows, as one matmul."""
    X = frame.frame(frame.matrices(basis))
    return X.conj() @ X.T


def gram_check(gram: np.ndarray, name: str = "gram") -> Verdict:
    err = np.max(np.abs(gram - np.eye(gram.shape[0])))
    return _verdict(name, err, GRAM_TOL)


def report_check(report_gram: np.ndarray, gram: np.ndarray, name: str = "report") -> Verdict:
    if report_gram.shape != gram.shape:
        return Verdict(name, False, math.inf, REPORT_TOL, f"shape {report_gram.shape}")
    return _verdict(name, np.max(np.abs(report_gram - gram)), REPORT_TOL)


def three_term_check(basis: np.ndarray, b, frame: ThermalFrame, seed_op,
                     name: str = "three-term") -> Verdict:
    """[H, O_n] = b_n O_{n-1} + b_{n+1} O_{n+1} for every n, in the thermal norm.

    O_0 must also be the normalized seed operator, up to a phase.
    """
    b = np.asarray(b, dtype=np.float64)
    M = frame.matrices(basis)
    if M.shape[0] != b.size + 1:
        return Verdict(name, False, math.inf, THREE_TERM_TOL,
                       f"{M.shape[0]} basis rows for {b.size} coefficients")
    R = frame.H @ M - M @ frame.H
    R[1:] -= b[:, None, None] * M[:-1]
    R[:-1] -= b[:, None, None] * M[1:]
    err = float(np.max(np.linalg.norm(frame.frame(R), axis=1)) / np.max(b))
    x0 = frame.frame(M[:1])[0]
    xs = frame.frame(np.asarray(seed_op, dtype=np.complex128)[None])[0]
    seed_err = abs(1.0 - abs(np.vdot(x0, xs)) / np.linalg.norm(xs))
    return _verdict(name, max(err, seed_err), THREE_TERM_TOL,
                    f"seed alignment error {seed_err:.2e}")


# ----------------------------------------------------- closed-form families

def _signed_power_log(base: np.ndarray, exps: np.ndarray):
    """log|base^e| and sign(base^e) on the (t, n) grid, with 0^0 = 1."""
    absb = np.abs(base)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(exps[None, :] == 0, 0.0, exps[None, :] * np.log(absb))
    odd = (exps.astype(np.int64) % 2 == 1)[None, :]
    sign = np.where((base[:, None] < 0.0) & odd, -1.0, 1.0)
    return logmag, sign


def family_amplitudes(kind: str, params: dict, times, sites: int) -> np.ndarray:
    """phi_n(t), n < sites, of the su2, hw or sl2r family in closed form."""
    nu = params["nu"]
    x = nu * np.asarray(times, dtype=np.float64)
    ns = np.arange(sites, dtype=np.float64)
    if kind == "su2":
        twoj = 2.0 * params["j"]
        logc = 0.5 * (gammaln(twoj + 1) - gammaln(ns + 1) - gammaln(twoj - ns + 1))
        lc, sc = _signed_power_log(np.cos(x), twoj - ns)
        ls, ss = _signed_power_log(np.sin(x), ns)
        return sc * ss * np.exp(logc[None, :] + lc + ls)
    if kind == "hw":
        lx, sx = _signed_power_log(x, ns)
        return sx * np.exp(lx - 0.5 * gammaln(ns + 1)[None, :] - 0.5 * (x * x)[:, None])
    eta = params["eta"]
    lt, st = _signed_power_log(np.tanh(x), ns)
    logc = 0.5 * (gammaln(ns + eta) - gammaln(ns + 1) - gammaln(eta))
    return st * np.exp(logc[None, :] + lt - eta * np.log(np.cosh(x))[:, None])


def family_curves(kind: str, params: dict, times) -> dict:
    """K, dispersion, rate and bound of a saturating family in closed form."""
    nu = params["nu"]
    x = nu * np.asarray(times, dtype=np.float64)
    if kind == "su2":
        j = params["j"]
        K, disp, rate = 2 * j * np.sin(x) ** 2, math.sqrt(j / 2) * np.abs(np.sin(2 * x)), \
            2 * j * nu * np.sin(2 * x)
        b1 = nu * math.sqrt(2 * j)
    elif kind == "hw":
        K, disp, rate, b1 = x * x, np.abs(x), 2 * nu * x, nu
    else:
        eta = params["eta"]
        K, disp, rate = eta * np.sinh(x) ** 2, 0.5 * math.sqrt(eta) * np.abs(np.sinh(2 * x)), \
            eta * nu * np.sinh(2 * x)
        b1 = nu * math.sqrt(eta)
    return {"K": K, "dispersion": disp, "rate": rate, "bound": 2 * b1 * disp, "b1": b1}


def family_rates(kind: str, params: dict) -> tuple[float, float]:
    """(alpha, gamma) of b_n^2 = alpha n (n - 1) / 4 + gamma n / 2."""
    nu2 = params["nu"] ** 2
    if kind == "su2":
        return -4.0 * nu2, 4.0 * nu2 * params["j"]
    if kind == "hw":
        return 0.0, 2.0 * nu2
    return 4.0 * nu2, 2.0 * nu2 * params["eta"]


def amplitude_check(phi: np.ndarray, reference: np.ndarray, name: str) -> Verdict:
    if phi.shape[1] > reference.shape[1] or phi.shape[0] != reference.shape[0]:
        return Verdict(name, False, math.inf, AMPLITUDE_TOL, f"shape {phi.shape}")
    err = np.max(np.abs(phi - reference[:, :phi.shape[1]]))
    # The sites past the returned window must hold no weight either.
    missing = np.max(np.sum(reference[:, phi.shape[1]:] ** 2, axis=1), initial=0.0)
    return _verdict(name, max(err, missing), AMPLITUDE_TOL, f"{phi.shape[1]} sites")


def rates_check(closed: bool, alpha: float, gamma: float, expected: tuple[float, float],
                name: str) -> Verdict:
    scale = max(1.0, abs(expected[0]), abs(expected[1]))
    err = max(abs(alpha - expected[0]), abs(gamma - expected[1])) / scale
    if not closed:
        return Verdict(name, False, err, RATES_TOL, "chain reported as not closed")
    return _verdict(name, err, RATES_TOL)
