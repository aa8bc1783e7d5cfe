"""Amplitude dynamics on the Krylov chain and the dispersion bound.

Once a chain of coefficients b_1, b_2, ... is known, the Heisenberg
evolution of the seed operator reduces to a hopping problem on a half line:
with the phase convention i^n factored out of the wavefunction, the
amplitudes phi_n(t) are real and obey

    d/dt phi_n = b_n phi_{n-1} - b_{n+1} phi_{n+1},    phi_n(0) = delta_n0,

that is d/dt phi = A phi with the real antisymmetric hopping generator A.
Everything this module computes derives from that recursion: the mean chain
position K(t) = sum n phi_n^2 (operator complexity), its spread Delta K, the
exact growth rate, the two-sided budget |dK/dt| <= 2 b_1 Delta K, and the
short-time expansion whose fourth/sixth order terms set the time where
generic chains leave the saturation regime.  The growth rate is the total
current over the bonds,

    dK/dt = 2 sum_n n phi_n (b_n phi_{n-1} - b_{n+1} phi_{n+1})
          = 2 sum_{n>=1} b_n phi_{n-1} phi_n,

since shifting n -> n - 1 in the second term leaves (n - (n - 1)) = 1 on
each bond.

Every chain is evolved on a window that follows the amplitude out along
it: a coefficient array, closed or open-ended, or a callable family
(n -> b_n).  The state moves from t = 0 through the grid, forward for
positive and backward for negative times, by the Chebyshev expansion of
the propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984):

    exp(h A) phi = J_0(a h) phi + 2 sum_k J_k(a h) R_k,
    R_0 = phi,  R_1 = (A / a) phi,  R_{k+1} = 2 (A / a) R_k + R_{k-1},

in real arithmetic, with a = 2 max b over the sites from 0 to the window's
top bounding the spectrum of A and the series stopped once |J_k(a h)|
falls below rounding.  The grid is taken in blocks: the consecutive points
whose argument a |t_j - t_start| stays within 32 share one set of vectors
R_0 .. R_K, built once for the widest offset, and all their rows come from
one matrix product with the J_k(a h_j).  Where fewer than 8 points lie
within 32, the block takes more, up to 8, out to 128: each block pays a
series tail of about 40 terms past its argument (K + 1 = 70 at 32, 186 at
128), which a sparse grid would otherwise pay every two or three points,
while a dense grid keeps its blocks, since each row pays for its own
series.  A gap wider than that is one block of its own, stepped by
accumulating the series (and split where the window cannot hold it).
Each series J_k(x) comes from Miller's backward recurrence
J_{k-1} = (2k / x) J_k - J_{k+1} (Gautschi, SIAM Rev. 9, 24, 1967),
normalized by Neumann's identity J_0 + 2 sum_k J_2k = 1.  Its terms meet
that identity to rounding, which keeps the norm of the evolved state
within a few rounding errors over the blocks.

An order-K block moves amplitude at most K sites, so before each one the
window is set to the occupied band (phi_n^2 > 1e-30) and K + 2 sites on
either side: from the first occupied site - K - 2, rounded down to a
multiple of 8, or from 0, up to the last occupied site + K + 2.  Only the
coefficients new to it are fetched.  The entries the lower edge drops are
below 1e-15, as are those past the top.  A packet that has moved away from
site 0 (su2, hw, sl2r) is marched on its own span, not on every site
behind it.  ``MAX_TRUNCATION`` caps the top.  The window stops at the end
of an array: there a closed chain reflects, and an open-ended array, which
lists only the first coefficients of a longer chain, is used while its
last two sites stay below ``TAIL_TOL``.

Every march runs on (sites, r) columns, one chain each: an array or a
family is r = 1, an ensemble's batch one column per chain.  The march
keeps no row: it hands each block's rows to its caller as it makes them,
on the window it made them on, with the window's lower edge.
evolve_amplitudes stores those rows as they are: an array whole, one slice
assignment per block into an output allocated before the first block,
which stays 0 outside each block's window; a family up to the last site
where |phi_n| exceeds ``TAIL_TOL``, plus 2.
A profile builds no grid: ``_batch_profiles`` reduces the same rows as
they are made, by the row reductions of complexity_profile, so memory is
the window's vectors and one block's rows.  A single chain's profile
(``_batch_profiles([b], ...)``, which ``kbound bound`` runs) is
complexity_profile's of its stored grid bit for bit; a batch's profiles
agree with each chain's own to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from ._util import (coefficients, finite_or_none, output_array, positive, row_blocks,
                    validate_times, write_csv)

TAIL_TOL = 1e-12
# Dispersion below max(this, 16 sqrt(eps) * the peak rms position) marks
# ratio/tau_K undefined there: t = 0, revivals, and one-site pileups are
# 0/0 points, where the quotient is the amplitudes' rounding and not a
# growth rate.
UNDEFINED_CUTOFF = 1e-12
# Most sites an evolution window may reach, counted from site 0, a memory
# limit: a grid that needs a higher top raises NumericalError before the
# window is fetched.  The output grid of evolve_amplitudes holds one float64
# per grid time and site (201 times over the whole window take 105 MB); a
# profile builds no grid, and its limit is the window's vectors (up to 186
# of them for a block at a |h| = 128, 98 MB at MAX_TRUNCATION sites).
MAX_TRUNCATION = 1 << 16
# A site is occupied while phi_n^2 exceeds this, an amplitude at the
# rounding of a unit vector's entries: it sizes the next block's window.
_OCCUPIED = 1e-30
# Chebyshev terms stop once |J_k| drops below this: every R_k has norm at
# most 1, and the J_k fall off faster than geometrically past k = a h.
_SERIES_FLOOR = 1e-17
# Miller's recurrence for J_k(x) starts at an order where J_N(x) is below
# this, far enough past _SERIES_FLOOR that the start leaves no error there.
_START_TOL = 1e-20
# Widest series argument a |t_j - t_start| of the grid points evaluated from
# one set of Chebyshev vectors.  On the su2 D = 100 pileup (41 points to
# t = pi, a |h| = 7.9 per point) the norm error is 7.8e-16 with every block
# within 32, against 4.4e-15 with one step per point, and 1.3e-15 under the
# rule below (6 blocks of up to 8 points, out to a |h| = 63) or with every
# block within 64 or 128.
_BLOCK_ARG = 32.0
# A block with fewer than _SPARSE_POINTS grid points within _BLOCK_ARG takes
# more, up to that many, out to a |h| <= _SPARSE_ARG.  On the three
# saturating families of the benchmark (su2 D = 2000, 601 points to t = 3;
# hw nu = 10 and sl2r eta = 101, 201 points to t = 4 and 2) the march took
# 387 blocks and 25,531 terms with blocks within 32 alone, and 145 and
# 18,861 with this rule.  It leaves dense grids alone: there each row pays
# for its own Bessel series, which grows with the block's argument.
_SPARSE_POINTS = 8
_SPARSE_ARG = 128.0
# A window's lower edge is a multiple of this many sites, the float64 lanes
# of an AVX-512 vector (and a multiple of narrower ones).  numpy's SIMD sum
# of the products of two rows gives lane l the entries l, l + 8, ...
# counted from the row's start, so a streamed row, reduced on its window,
# groups its sums as the stored row does (which starts at site 0): the
# streamed Delta K is the grid's bit for bit.
_EDGE_ALIGN = 8

__all__ = [
    "TAIL_TOL",
    "UNDEFINED_CUTOFF",
    "AmplitudeTrajectory",
    "ComplexityProfile",
    "evolve_amplitudes",
    "complexity_profile",
    "profile_to_dict",
    "short_time_coefficients",
    "deviation_time",
    "save_profile_csv",
    "save_amplitudes_csv",
]


@dataclass(eq=False)
class AmplitudeTrajectory:
    """Real chain amplitudes phi[k, n] = phi_n(times[k]).

    b is the coefficient array of the reported sites (length N - 1 for N
    sites).  truncated marks a trajectory of an open-ended array or a
    family.  The tail_mass of an open-ended array is the largest
    probability, over the grid, in its last two sites; that of a family is
    the largest the evolution window held past the reported sites (each
    site left out has |phi_n| <= TAIL_TOL throughout); a closed array
    reports 0.
    method is "window" (Chebyshev blocks on a window that follows the
    amplitude) or "closed-form".  A window evolution records the blocks it
    evaluated, the Chebyshev terms summed over them (each block's order
    K + 1) and the most sites a block's window spanned (from its lower edge
    to its top); a closed form records 0.
    A grid point at exactly t = 0 carries the seed e_0 = [1, 0, ..., 0]
    exactly, whatever the method.
    """

    times: np.ndarray
    phi: np.ndarray
    b: np.ndarray
    truncated: bool
    tail_mass: float
    method: str
    blocks: int = 0
    terms: int = 0
    window: int = 0

    @property
    def sites(self) -> int:
        return self.phi.shape[1]


@dataclass(eq=False)
class ComplexityProfile:
    """Complexity observables on a time grid.

    bound is 2 b1 dispersion, ratio is |rate| / bound and tau_k is
    dispersion / |rate|.  One rule marks where the last two are undefined,
    NaN and not zero or infinite: given a floor f, ratio where the
    dispersion is at most f and tau_k where |rate| is at most 2 b1 f.
    complexity_profile takes f = max(UNDEFINED_CUTOFF, 16 sqrt(eps) * the
    peak rms position), model_observables f = UNDEFINED_CUTOFF / 2.
    """

    times: np.ndarray
    complexity: np.ndarray
    rate: np.ndarray
    dispersion: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray
    tau_k: np.ndarray
    b1: float


# The CSV column / JSON key of each ComplexityProfile array, in output order.
_PROFILE_COLUMNS = {"t": "times", "K": "complexity", "rate": "rate",
                    "dispersion": "dispersion", "bound": "bound",
                    "ratio": "ratio", "tau_K": "tau_k"}
# Columns that are NaN where undefined: null in JSON.
_UNDEFINED_COLUMNS = ("ratio", "tau_K")


def _eval_family(bfun, first: int, stop: int) -> np.ndarray:
    """b_n for first <= n < stop from a family callable."""
    ns = np.arange(first, stop)
    try:
        vals = np.asarray(bfun(ns), dtype=np.float64)
        if vals.shape != ns.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([float(bfun(int(n))) for n in ns])
    return coefficients(vals, "the family's b_n")


def _bessel_series(x: float) -> np.ndarray:
    """J_k(x), k = 0 .. K, for x >= 0, up to the last one above _SERIES_FLOOR.

    Miller's backward recurrence from f_{N+1} = 0, f_N = x, divided by
    f_0 + 2 sum_k f_2k, which Neumann's identity makes the scale of the
    f_k (Abramowitz & Stegun 9.1.46).  Below x = 20 the start order N is
    where the bound J_n(x) <= (x/2)^n / n! falls below _START_TOL (at most
    58); that keeps the f_k, which span about 1 / J_N, within range down to
    the smallest subnormal x, and the loop that finds it costs less than the
    recurrence steps it saves.  From x = 20 on, N is x + 12 x^(1/3) + 32,
    past which the J_k are below 1e-20 for every x up to 1e5 (a window of
    MAX_TRUNCATION sites splits steps far below that).  The start leaves an
    error of about J_N^2 / J_k in every J_k kept, under 1e-23.  Each term is
    within a few 1e-16 of the exact J_k (4.3e-16 at x = 1234.5), and the
    terms meet Neumann's identity to rounding.
    """
    x = float(x)
    if x == 0.0:
        return np.array([1.0, 0.0])
    if x < 20.0:
        n, bound = 0, 1.0
        while bound >= _START_TOL:
            n += 1
            bound *= 0.5 * x / n
    else:
        n = int(x + 12.0 * x ** (1.0 / 3.0) + 32.0)
    f = [0.0] * (n + 1)
    nxt, cur = 0.0, x
    f[n] = cur
    for k in range(n, 0, -1):
        nxt, cur = cur, (k + k) * cur / x - nxt
        f[k - 1] = cur
    scale = f[0] + 2.0 * math.fsum(f[2::2])
    floor = _SERIES_FLOOR * abs(scale)
    while n > 1 and abs(f[n]) < floor:
        n -= 1
    return np.array(f[:n + 1]) / scale


def _chebyshev_step(phi: np.ndarray, bonds: np.ndarray, coef: np.ndarray):
    """exp(h A) phi from the series coef[k] = J_k(a h), bonds = sign(h) 2 b / a.

    phi is a (window, r) state, one chain per column, and bonds its
    (window - 1, r) coefficients: every operation acts on each column alike.
    With M = 2 A / a the terms are R_1 = M phi / 2 and
    R_{k+1} = M R_k + R_{k-1}; the window has one site more than the
    support of any R_k, so its end never reflects.  A 1-D coef accumulates
    its sum term by term and returns the state.  A 2-D coef holds one series
    per row, for offsets h_j of one sign: the R_k are then stored as a
    (K + 1, window, r) array, and the rows exp(h_j A) phi, (rows, window, r),
    come from one product with them per row block of at most
    _util._BLOCK_CELLS cells, returned as (row slice, rows) pairs made as
    they are taken.
    """
    def hop(x, out):
        out[1:] += bonds * x[:-1]
        out[:-1] -= bonds * x[1:]
        return out

    if coef.ndim == 2:
        R = np.empty((coef.shape[1],) + phi.shape)
        R[0] = phi
        R[1] = 0.5 * hop(phi, np.zeros_like(phi))
        for k in range(2, R.shape[0]):
            R[k] = R[k - 2]
            hop(R[k - 1], R[k])
        weights = 2.0 * coef
        weights[:, 0] = coef[:, 0]
        R = R.reshape(R.shape[0], -1)
        return ((rows, (weights[rows] @ R).reshape((-1,) + phi.shape))
                for rows in row_blocks(weights.shape[0], R.shape[1]))

    prev = phi.copy()
    cur = 0.5 * hop(phi, np.zeros_like(phi))
    out = coef[0] * phi + (2.0 * coef[1]) * cur
    for c in coef[2:]:
        nxt = hop(cur, prev)          # R_{k+1} overwrites R_{k-1}
        out += (2.0 * c) * nxt
        prev, cur = cur, nxt
    return out


def _occupied(phi: np.ndarray, threshold: float) -> tuple[int, int]:
    """Indices of the first and the last site with phi_n^2 above threshold,
    in any chain of a (sites, r) state ((0, 0) if none)."""
    above = np.flatnonzero((phi * phi > threshold).any(axis=1))
    return (int(above[0]), int(above[-1])) if above.size else (0, 0)


def _in_block(points: int, x: float) -> bool:
    """Whether a block of this many grid points may reach series argument
    x = a |h|: within _BLOCK_ARG, or within _SPARSE_ARG for the first
    _SPARSE_POINTS points."""
    return x <= _BLOCK_ARG or (points <= _SPARSE_POINTS and x <= _SPARSE_ARG)


def _evolve_window(source, times: np.ndarray, open_end: bool, record):
    """Chebyshev blocks on a window that follows the occupied band.

    source is a family callable, marched as one column, or an (N - 1, r)
    array of chains, one per column and zero past its own end, which march
    together with one a = 2 max b over the sites 0 .. top of all of them.
    The end of an open-ended array stands in for the coefficients it does
    not list while the last two sites of each of its chains hold less than
    TAIL_TOL; the first row that puts more there raises.  Each block goes
    to record(ks, block, lo, b) as it is made: block[j] is phi(times[ks[j]])
    on the window's sites lo, lo + 1, ..., (rows, sites, r), every site
    below lo holds less than 1e-15, and b, (fetched, r), holds the
    coefficients fetched so far.  Returns (b, tail_mass, blocks, terms,
    widest), tail_mass the most probability an open end's last two sites
    held (else 0) and widest the most sites a block spanned.
    """
    family = callable(source)
    end = None if family else source.shape[0] + 1
    b = np.empty((0, 1)) if family else source
    cap = MAX_TRUNCATION if family else min(end, MAX_TRUNCATION)
    wall_mass = 0.0
    blocks = terms = widest = 0

    def chain(sites: int) -> np.ndarray:
        """b_1 .. b_{sites-1}; a family is asked only for ones not yet held."""
        nonlocal b
        if family and b.size < sites - 1:
            b = np.concatenate([b, _eval_family(source, b.size + 1, sites)[:, None]])
        return b[:sites - 1]

    def plan(reach: int, offsets: np.ndarray):
        """(sites, a, J_k(a |h|), steps) for the next block.

        offsets are the candidate grid points' offsets from the state's time,
        of one sign and growing in size.  The block keeps those _in_block
        allows, at least the first; steps is that prefix, and h its last
        entry, for which the series is computed.  The window's top, sites,
        must reach K + 2 past the last occupied site, and K grows with
        a = 2 max b over b_1 .. b_{sites - 1}, so the top rises until it
        holds the block: to at most twice its first value plus 64, the
        array's end or MAX_TRUNCATION.  (The caller sets the lower edge.)
        A block that needs more drops its last point, and a single point
        that needs more is approached by a step halved until it fits the
        window already fetched (steps is then [h], short of the point), so
        every coefficient fetched is evolved.  The series of a window has at
        most as many terms as its top has sites, and K exceeds a |h|, so
        that is checked before the series is computed.  A top of
        MAX_TRUNCATION that cannot hold a step of a |h| = 1 raises: the tail
        has reached the ceiling, and ever shorter steps would only creep
        toward it.
        """
        sites = min(reach + 2, cap)
        top = min(2 * sites + 64, cap)
        steps, x = offsets, None

        def shorten(steps):
            return steps[:-1] if steps.size > 1 else 0.5 * steps

        while True:
            a = 2.0 * float(chain(sites).max())
            while steps.size > 1 and not _in_block(steps.size, a * abs(steps[-1])):
                steps = steps[:-1]
            if a * abs(steps[-1]) > top:
                steps = shorten(steps)
                continue
            if a * abs(steps[-1]) != x:
                # A wider window with the same a reuses its series.
                x = a * abs(steps[-1])
                coef = _bessel_series(x)
            need = reach + coef.size + 1
            if need <= sites or sites == end:
                return sites, a, coef, steps
            if sites < top:
                sites = min(need, top)
            elif top == MAX_TRUNCATION and x <= 1.0 and steps.size == 1:
                raise NumericalError(
                    f"the amplitude's tail needs a window of more than {top} "
                    f"sites, past MAX_TRUNCATION = {MAX_TRUNCATION}; the grid "
                    "reaches times this chain cannot be evolved to within the "
                    "memory limit"
                )
            else:
                steps = shorten(steps)

    def band(phi: np.ndarray, lo: int) -> tuple[int, int]:
        """The first and the last occupied site of a state on sites lo, ..."""
        first, last = _occupied(phi, _OCCUPIED)
        return lo + first, lo + last

    def emit(ks: np.ndarray, block: np.ndarray, lo: int) -> tuple[int, int]:
        """Record the rows past the open end's test; the last one's first
        and last occupied sites."""
        nonlocal wall_mass
        if open_end:
            # Each row's most probability in any chain's last two sites, but
            # never the seed's site 0; the first row at TAIL_TOL raises.
            last = block[:, max(1, end - 2) - lo:]
            mass = np.max(np.sum(last * last, axis=1), axis=1)
            wall_mass = max(wall_mass, float(mass.max()))
            if wall_mass >= TAIL_TOL:
                j = int(np.argmax(mass >= TAIL_TOL))
                raise NumericalError(
                    f"the chain lists {end - 1} coefficients, and by t = "
                    f"{times[ks[j]]:g} its last two sites hold probability "
                    f"{mass[j]:.3e}, past TAIL_TOL = {TAIL_TOL:g}; list "
                    "more coefficients or shorten the grid"
                )
        record(ks, block, lo, b)
        return band(block[-1], lo)

    def march(order):
        """Evolve from e_0 at t = 0 through the grid points in order.

        Each pass of the loop evaluates one block.  Its candidates are the
        next point and those after it that _in_block allows at the a of the
        smallest window, which only grows as plan widens it.  phi is the
        state on the sites lo, lo + 1, ...
        """
        nonlocal blocks, terms, widest
        order = np.asarray(order, dtype=np.intp)
        phi = np.zeros((2, b.shape[1]))
        phi[0] = 1.0
        lo = first = last = 0
        t_now, i = 0.0, 0
        while i < order.size:
            if times[order[i]] == t_now:
                # t = 0 itself: the seed e_0, exactly.
                first, last = emit(order[i:i + 1], phi[None], lo)
                i += 1
                continue
            a = 2.0 * float(chain(min(last + 2, cap)).max())
            j = i + 1
            while j < order.size and _in_block(j - i + 1, a * abs(times[order[j]] - t_now)):
                j += 1
            offsets = times[order[i:j]] - t_now
            sites, a, coef, steps = plan(last, offsets)
            m = steps.size
            if m > 1:
                head = np.zeros((m - 1, coef.size))
                for row, h in zip(head, steps[:-1]):
                    series = _bessel_series(a * abs(h))
                    row[:series.size] = series
                coef = np.vstack([head, coef])
            # Every R_k stays within K sites of the band; one site more
            # keeps the lower end from reflecting, as at the top.
            edge = max(0, first - coef.shape[-1] - 1) // _EDGE_ALIGN * _EDGE_ALIGN
            blocks += 1
            terms += coef.shape[-1]
            widest = max(widest, sites - edge)
            state = np.zeros((sites - edge, phi.shape[1]))
            start, stop = max(edge, lo), min(sites, lo + phi.shape[0])
            state[start - edge:stop - edge] = phi[start - lo:stop - lo]
            lo = edge
            bonds = math.copysign(2.0 / a, steps[-1]) * b[lo:sites - 1]
            if m > 1:
                for rows, block in _chebyshev_step(state, bonds, coef):
                    first, last = emit(order[i:i + m][rows], block, lo)
                phi = block[-1]
            else:
                phi = _chebyshev_step(state, bonds, coef)
                if steps[-1] != offsets[0]:
                    # A split step toward the next point.
                    t_now += float(steps[-1])
                    first, last = band(phi, lo)
                    continue
                first, last = emit(order[i:i + 1], phi[None], lo)
            t_now = float(times[order[i + m - 1]])
            i += m

    start = int(np.searchsorted(times, 0.0))
    march(range(start - 1, -1, -1))
    march(range(start, times.size))

    return b, wall_mass, blocks, terms, widest


def evolve_amplitudes(b, times, open_end: bool = False) -> AmplitudeTrajectory:
    """Integrate the chain amplitudes phi_n(t) for a coefficient chain.

    Parameters
    ----------
    b : array-like or callable
        Either the coefficient array of a chain (length N - 1 for N sites,
        all positive), or a callable n -> b_n representing an infinite
        family (called with a 1-based integer array of the coefficients new
        to the window, each requested once; a scalar fallback is
        attempted).
    times : array-like
        Strictly increasing, may include negative values.
    open_end : bool
        The array lists only the first coefficients of a longer chain (a
        Lanczos run cut short, or a family's listed coefficients).  Its end
        stands in for the rest while the probability in its last two sites
        stays below TAIL_TOL over the grid: the result is truncated, with
        tail_mass that probability, and a grid that moves more there raises
        NumericalError.  Ignored for a family.

    Notes
    -----
    Each block of Chebyshev order K runs on a window from K + 2 sites
    below the first occupied site (phi_n^2 > 1e-30), or from site 0, to
    K + 2 sites past the last (module docstring).  A step whose window top
    would pass MAX_TRUNCATION is split, and one of a |h| = 1 that still
    does not fit raises NumericalError; no coefficient past the ceiling is
    fetched.  Every row holds the values the march made, on the window it
    made them on.  An array, closed or open-ended, is reported whole, 0
    outside that window; a closed one reflects off its end.
    A family is reported up to r + 2 sites, r the last site whose |phi_r|
    exceeds TAIL_TOL somewhere on the grid, so every amplitude it leaves
    out stays within TAIL_TOL.
    AmplitudeTrajectory defines tail_mass and the exact seed at t = 0.  An
    output the machine cannot allocate raises NumericalError naming its size.
    """
    t = validate_times(times)
    if callable(b):
        kept = []
        b, _, *stats = _evolve_window(
            b, t, False, lambda ks, block, lo, _: kept.append((ks, lo, block[..., 0])))
        # Each block's rows taken as the chains of one state.
        n_sites = max(lo + _occupied(block.T, TAIL_TOL * TAIL_TOL)[1]
                      for _, lo, block in kept) + 2
        phi = output_array(t.size, n_sites)
        tail = 0.0
        for ks, lo, block in kept:
            phi[ks, lo:lo + block.shape[1]] = block[:, :n_sites - lo]
            past = block[:, n_sites - lo:]
            tail = max(tail, float(np.max(np.einsum("kn,kn->k", past, past))))
        return AmplitudeTrajectory(t, phi, b[:n_sites - 1, 0].copy(), True, tail, "window",
                                   *stats)
    b = coefficients(b)
    open_end = bool(open_end)
    if b.size == 0:
        if open_end:
            raise ValidationError("an open-ended chain must list a coefficient")
        # D = 1: nothing moves.
        phi = output_array(t.size, 1)
        phi[:] = 1.0
        return AmplitudeTrajectory(t, phi, b, False, 0.0, "window")
    phi = output_array(t.size, b.size + 1)

    def store(ks, block, lo, _):
        phi[ks, lo:lo + block.shape[1]] = block[..., 0]

    _, tail, *stats = _evolve_window(b[:, None], t, open_end, store)
    return AmplitudeTrajectory(t, phi, b, open_end, tail, "window", *stats)


def complexity_profile(trajectory: AmplitudeTrajectory) -> ComplexityProfile:
    """Complexity, dispersion, exact growth rate, and the two-sided budget.

    K(t) = sum_n n phi_n^2, Delta K its standard deviation, and the rate is
    evaluated from the recursion itself, not by differencing: shifting the
    index of its second term,

        dK/dt = 2 sum_n n phi_n (b_n phi_{n-1} - b_{n+1} phi_{n+1})
              = 2 sum_{n>=1} b_n phi_{n-1} phi_n,

    the current over the bonds, with no n-weighted cancellation.  Delta K^2
    is the centred sum sum_n (n - K)^2 phi_n^2, not <n^2> - K^2, whose
    difference of squares cancels where K is large and Delta K small.
    bound = 2 b_1 Delta K; ratio = |rate| / bound.  The grid is reduced one
    row block (_util.row_blocks) at a time, and every row on its own: a
    row's values do not depend on the other rows of the grid.
    """
    phi = trajectory.phi
    b = trajectory.b
    ns = np.arange(phi.shape[1], dtype=np.float64)
    moments = np.empty((3, phi.shape[0], 1))
    for rows in row_blocks(*phi.shape):
        moments[:, rows] = _row_moments(phi[rows, :, None], b[:, None], ns)
    return _moments_profile(trajectory.times, *moments[..., 0],
                            float(b[0]) if b.size else 0.0)


def _row_moments(phi: np.ndarray, b: np.ndarray, ns: np.ndarray) -> tuple:
    """(rows, r) K, rate and Delta K^2 of each row and chain of phi,
    (rows, sites, r) with b (sites - 1, r), as complexity_profile defines
    them; ns is arange(sites).  Each einsum reduces every row on its own."""
    complexity = np.einsum("knr,knr,n->kr", phi, phi, ns)
    rate = 2.0 * np.einsum("knr,knr,nr->kr", phi[:, :-1], phi[:, 1:], b)
    dev = ns[:, None] - complexity[:, None]
    dev *= phi
    return complexity, rate, np.einsum("knr,knr->kr", dev, dev)


def _moments_profile(times, complexity, rate, variance, b1: float) -> ComplexityProfile:
    """The profile of a chain's K, rate and Delta K^2 columns, with the
    floor of complexity_profile: 16 sqrt(eps) times the peak rms position,
    and at least UNDEFINED_CUTOFF."""
    eps = float(np.finfo(np.float64).eps)
    rms_peak = float(np.sqrt(np.max(complexity**2 + variance, initial=0.0)))
    floor = max(UNDEFINED_CUTOFF, 16.0 * np.sqrt(eps) * rms_peak)
    return _profile(times, complexity, rate, np.sqrt(variance), b1, floor)


def _stream_moments(source: np.ndarray, times: np.ndarray, open_end: bool):
    """(3, points, r) K, rate and Delta K^2 of each chain of an (N - 1, r)
    array, from the rows of its march reduced by _row_moments as they are
    made, on the window the march made them on."""
    moments = np.empty((3, times.size, source.shape[1]))
    ns = np.arange(source.shape[0] + 1, dtype=np.float64)

    def reduce(ks, block, lo, b):
        top = lo + block.shape[1]
        moments[:, ks] = _row_moments(block, b[lo:top - 1], ns[lo:top])

    _evolve_window(source, times, open_end, reduce)
    return moments


def _batch_profiles(chains, times: np.ndarray, open_end: bool = False) -> list[ComplexityProfile]:
    """complexity_profile(evolve_amplitudes(b, times, open_end)) of each
    chain b from one march of them all (_stream_moments on their
    columns, zero past each chain's end), which builds no amplitude grid.
    A single chain's profile is the grid's bit for bit, and a batch's agree
    with each chain's own to rounding.  The caller keeps the chain count
    times the longest chain's D within _util._BLOCK_CELLS, so that every
    one of the march's vectors is too."""
    columns = np.zeros((max(b.size for b in chains), len(chains)))
    for c, b in enumerate(chains):
        columns[:b.size, c] = b
    moments = _stream_moments(columns, times, open_end)
    return [_moments_profile(times, *moments[:, :, c], float(b[0]) if b.size else 0.0)
            for c, b in enumerate(chains)]


def _profile(times, complexity, rate, dispersion, b1: float, floor: float) -> ComplexityProfile:
    """The profile of these columns, its bound, ratio and tau_k built from
    them by the one rule of :class:`ComplexityProfile`, given its floor."""
    bound = 2.0 * b1 * dispersion
    speed = np.abs(rate)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dispersion > floor, speed / bound, np.nan)
        tau_k = np.where(speed > 2.0 * b1 * floor, dispersion / speed, np.nan)
    return ComplexityProfile(times, complexity, rate, dispersion, bound, ratio, tau_k, b1)


def _profile_columns(profile: ComplexityProfile) -> dict[str, list]:
    """Every profile column as a list of floats, by name, in output order."""
    return {name: np.asarray(getattr(profile, attr), dtype=np.float64).tolist()
            for name, attr in _PROFILE_COLUMNS.items()}


def profile_to_dict(profile: ComplexityProfile) -> dict:
    """JSON-ready dict of a profile: one list per column, then b1.

    ratio and tau_K are null where undefined, never NaN.
    """
    out = _profile_columns(profile)
    for name in _UNDEFINED_COLUMNS:
        out[name] = [finite_or_none(x) for x in out[name]]
    out["b1"] = profile.b1
    return out


def short_time_coefficients(b1: float, b2: float) -> tuple[float, float]:
    """Coefficients (c2, c4) of K(t) = c2 t^2 + c4 t^4 + O(t^6).

    c2 = b_1^2 and c4 = b_1^2 (b_2^2 - 2 b_1^2) / 6, fixed by brute-force
    expansion of the amplitude recursion; c4 changes sign at b_2^2 = 2 b_1^2
    (negative for chains that bend down, positive for growing ones).
    """
    b1 = positive(b1, "b1")
    b2 = positive(b2, "b2")
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
    b1, b2, b3 = positive(b1, "b1"), positive(b2, "b2"), positive(b3, "b3")
    _, c4 = short_time_coefficients(b1, b2)
    c6 = _sixth_coefficient(b1, b2, b3)
    p1, p2, p3 = b1 ** 2, b2 ** 2, b3 ** 2
    c4_scale = p1 * max(p2, 2.0 * p1) / 6.0
    c6_scale = p1 * (8.0 * p1 * p1 + p1 * p2 + 7.0 * p2 * p2 + 3.0 * p2 * p3) / 180.0
    if abs(c4) <= 1e-12 * c4_scale or abs(c6) <= 1e-12 * c6_scale:
        raise NumericalError(
            "deviation time undefined: the fourth- or sixth-order term of the "
            "growth rate vanishes for these coefficients"
        )
    return math.sqrt(abs(4.0 * c4) / abs(6.0 * c6))


def save_profile_csv(profile: ComplexityProfile, path, tau_d: float | None = None) -> None:
    """CSV with columns t, K, rate, dispersion, bound, ratio, tau_K.

    Undefined entries are written as nan.  When ``tau_d`` is given (possibly
    NaN for "undefined"), it is recorded in a leading comment line.
    """
    comment = None if tau_d is None else f"tau_d = {float(tau_d):.17g}"
    columns = _profile_columns(profile)
    write_csv(path, list(columns), zip(*columns.values()), comment)


def save_amplitudes_csv(trajectory: AmplitudeTrajectory, path) -> None:
    """CSV with columns t, phi_0 ... phi_{N-1}."""
    header = ["t"] + [f"phi_{n}" for n in range(trajectory.sites)]
    # One row's list at a time: tolist() of the whole grid takes about four
    # times the array's own memory.
    rows = ([t] + row.tolist() for t, row in zip(trajectory.times.tolist(),
                                                 trajectory.phi))
    write_csv(path, header, rows)
