"""Gaussian orthogonal ensembles and the uniform-observable experiment.

A GOE draw is H = (X + X^T) / 2 with X filled by i.i.d. N(0, sigma^2), so
diagonal entries have variance sigma^2 and off-diagonal sigma^2 / 2.  The
companion observable is "uniform" in Liouville space: equal components along
every orthonormalized eigendirection of L = [H, .].  Concretely, with
u = sum of the eigenvectors of H, O = u u^dag / (d sqrt(nu0)); in the H
eigenbasis this is the all-ones matrix, which touches each frequency slot
with the same weight and drives the Lanczos chain to its maximal length
D = d^2 - d + 1 for a generic spectrum.

Reproducibility scheme: realization i of an ensemble seeded with s draws
from numpy's SeedSequence(entropy=s, spawn_key=(i,)) and a PCG64 generator,
so results are independent of how realizations are distributed over worker
processes, and any single realization can be redrawn in isolation.

The realizations are cut by index alone into ceil(count / cap) batches
whose sizes differ by at most one, cap being as many realizations as fill
``_util._BLOCK_CELLS`` with the longest chains they can have (65 at
d = 32, so count 100 is two batches of 50).  A batch's chains run as one
qd wavefront (see ``kbound.lanczos``), and every chain comes out bit for
bit as its own run_lanczos.  With a time grid, its chains are then evolved
as one Chebyshev march whose rows are reduced to each chain's profile
columns as they are made (``dynamics._batch_profiles``); no amplitude grid
is built.  A march that fails costs its batch, which is not redone chain
by chain (``_run_share``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NumericalError, ValidationError
from ._util import (fraction, integer, positive, row_blocks, validate_times, write_csv,
                    write_json)
from .operators import InnerProductSpec, OperatorVector, _Frame, as_hermitian
from .lanczos import DEFAULT_HALT_TOL, _run_batch, max_chain_length
from .dynamics import ComplexityProfile, _batch_profiles, profile_to_dict

__all__ = [
    "GoeSpec",
    "goe_sample",
    "uniform_observable",
    "EnsembleResult",
    "run_ensemble",
    "ensemble_to_dict",
    "save_ensemble_json",
    "save_ensemble_csv",
]

_FAILURES = (NumericalError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class GoeSpec:
    """Parameters of one ensemble run.

    seed feeds the per-realization SeedSequence scheme above; it must be
    below 2**64, so that the ensemble's JSON artifact can hold it.
    """

    dim: int
    sigma: float = 1.0
    count: int = 1
    seed: int = 0
    halt_tol: float = DEFAULT_HALT_TOL

    def __post_init__(self):
        object.__setattr__(self, "dim", integer(self.dim, "dim", 2))
        object.__setattr__(self, "sigma", positive(self.sigma, "sigma"))
        object.__setattr__(self, "count", integer(self.count, "count"))
        seed = integer(self.seed, "seed", 0)
        if seed >= 2**64:
            raise ValidationError(f"seed must be an integer < 2**64, got {seed!r}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "halt_tol", fraction(self.halt_tol, "halt_tol"))


def goe_sample(dim: int, sigma: float = 1.0, seed=None) -> np.ndarray:
    """One symmetric draw H = (X + X^T)/2, X i.i.d. N(0, sigma^2).

    seed may be an int >= 0, a numpy SeedSequence, a Generator, or None
    for fresh entropy.  Equal seeds give bit-equal matrices.
    """
    dim = integer(dim, "dim")
    sigma = positive(sigma, "sigma")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        if not (seed is None or isinstance(seed, np.random.SeedSequence)):
            seed = integer(seed, "seed", 0)
        rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(0.0, sigma, size=(dim, dim))
    return 0.5 * (x + x.T)


def uniform_observable(hamiltonian, spec: InnerProductSpec | None = None) -> OperatorVector:
    """The unit-norm operator with equal weight on every eigendirection of L.

    Requires a beta = 0 inner product (the eigen-operator basis E_i E_j^dag
    is orthonormal only there).  With u the sum of the eigenvectors of H,
    returns u u^dag / (d sqrt(nu0)), which has <O|O> = 1 exactly.
    """
    H = as_hermitian(hamiltonian)
    spec = InnerProductSpec() if spec is None else spec
    if spec.beta != 0.0:
        raise ValidationError("uniform observable requires a beta = 0 inner product")
    d = H.dim
    u = _Frame(spec, d, H).vectors.sum(axis=1)
    nu0 = spec.norm_factor(d)
    mat = np.outer(u, u.conj()) / (d * np.sqrt(nu0))
    return OperatorVector.from_matrix(mat, spec)


@dataclass(eq=False)
class EnsembleResult:
    """Aggregated ensemble output.

    b_list holds one coefficient array per successful realization, in
    realization order, and indices their realization numbers; D_values and
    D_histogram are read off b_list.  mean_b_sq / std_b_sq are the
    pointwise ensemble moments of b_n^2 over the shared chain length (the
    shortest realization; population std).  failed records (index,
    message) for realizations that raised, without aborting the rest.
    profile, when requested, holds the pointwise mean of every
    per-realization profile column (NaN wherever the column is undefined
    for at least one member).
    """

    spec: GoeSpec
    b_list: list[np.ndarray]
    indices: list[int]
    mean_b_sq: np.ndarray
    std_b_sq: np.ndarray
    failed: list[tuple[int, str]] = field(default_factory=list)
    profile: ComplexityProfile | None = None

    @property
    def D_values(self) -> np.ndarray:
        return np.array([b.size + 1 for b in self.b_list], dtype=np.int64)

    @property
    def D_histogram(self) -> dict[int, int]:
        return dict(Counter(b.size + 1 for b in self.b_list))


def _draw(dim, sigma, ss):
    """One realization's GOE draw and its uniform observable; the draw's one
    HermitianMatrix carries its eigendecomposition on to the chain."""
    H = as_hermitian(goe_sample(dim, sigma, ss))
    return H, uniform_observable(H)


def _failure(index: int, exc: Exception) -> dict:
    return {"index": index, "error": f"{type(exc).__name__}: {exc}"}


def _run_share(args):
    """The chains (and profiles) of one share's batches of realizations, or
    the numerical error each met.

    A batch's chains run as one qd wavefront (``lanczos._run_batch``) and
    are evolved as one march (``dynamics._batch_profiles``).  A march's
    numerical error is recorded for each of its chains: a closed chain's
    march fails only on a window past MAX_TRUNCATION sites, and a batch
    holds more than one chain only when each is at most half that long.  A
    ValidationError is not caught: it comes from the spec or the grid,
    which every realization shares, so it is the run's error.
    """
    dim, sigma, batches, halt_tol, times = args
    out = []
    for batch in batches:
        indices, pairs = [], []
        for index, ss in batch:
            try:
                pairs.append(_draw(dim, sigma, ss))
                indices.append(index)
            except _FAILURES as exc:
                out.append(_failure(index, exc))
        chains = []
        for index, res in zip(indices, _run_batch(pairs, halt_tol)):
            if isinstance(res, Exception):
                out.append(_failure(index, res))
            else:
                chains.append((index, res.b))
        profiles = [None] * len(chains)
        if times is not None and chains:
            try:
                profiles = _batch_profiles([b for _, b in chains], times)
            except _FAILURES as exc:
                out += [_failure(index, exc) for index, _ in chains]
                continue
        out += [{"index": index, "b": b, "profile": profile}
                for (index, b), profile in zip(chains, profiles)]
    return out


def _batches(count: int, dim: int) -> list[slice]:
    """The realizations' batches (module docstring): ceil(count / cap)
    contiguous slices whose sizes differ by at most one."""
    n = sum(1 for _ in row_blocks(count, max_chain_length(dim)))
    return [slice(count * k // n, count * (k + 1) // n) for k in range(n)]


def run_ensemble(spec: GoeSpec, profile_times=None, workers: int = 1) -> EnsembleResult:
    """Draw, chain, and aggregate ``spec.count`` realizations.

    Parameters
    ----------
    spec : GoeSpec
    profile_times : array-like, optional
        When given, each realization is also evolved on this grid and the
        ensemble-averaged complexity profile is attached to the result.
    workers : int
        Most processes the run uses.  The realizations are cut into
        batches by index alone (module docstring), and the batches into at
        most ``workers`` contiguous shares of whole batches.  This process
        runs the first share, and a pool of one process per other share
        runs the rest, so a run of one batch starts no process.  Each
        chain is bit for bit its own ``run_lanczos``, and results are
        aggregated in realization order, so the outcome is identical for
        any worker count, bit for bit.
    """
    workers = integer(workers, "workers")
    times = None
    if profile_times is not None:
        times = validate_times(profile_times, "profile_times")
    # The seed sequences are made here rather than in the workers, so
    # numpy.random (~15 ms to import) is loaded once, before the pool forks.
    members = [(i, np.random.SeedSequence(entropy=spec.seed, spawn_key=(i,)))
               for i in range(spec.count)]
    batches = [members[rows] for rows in _batches(spec.count, spec.dim)]
    shares = min(workers, len(batches))
    bounds = [len(batches) * k // shares for k in range(shares + 1)]
    tasks = [(spec.dim, spec.sigma, batches[lo:hi], spec.halt_tol, times)
             for lo, hi in zip(bounds, bounds[1:])]
    if len(tasks) == 1:
        raw = _run_share(tasks[0])
    else:
        # Imported only here: it loads multiprocessing, logging and socket.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(tasks) - 1) as pool:
            rest = pool.map(_run_share, tasks[1:])
            raw = _run_share(tasks[0]) + [r for share in rest for r in share]
    raw.sort(key=lambda r: r["index"])

    done = [r for r in raw if "error" not in r]
    failed = [(r["index"], r["error"]) for r in raw if "error" in r]
    if not done:
        # count >= 1, so every realization left an error.
        raise NumericalError(f"every realization failed; first error: {failed[0][1]}")
    b_list = [r["b"] for r in done]
    shared = min(arr.size for arr in b_list)
    stack = np.stack([arr[:shared] ** 2 for arr in b_list])

    profile = None
    if times is not None:
        profiles = [r["profile"] for r in done]
        means = {f.name: np.stack([getattr(p, f.name) for p in profiles]).mean(axis=0)
                 for f in fields(ComplexityProfile) if f.name not in ("times", "b1")}
        b1_mean = float(np.mean([p.b1 for p in profiles]))
        profile = ComplexityProfile(times=times, b1=b1_mean, **means)
    return EnsembleResult(spec, b_list, [r["index"] for r in done], stack.mean(axis=0),
                          stack.std(axis=0), failed, profile)


def ensemble_to_dict(result: EnsembleResult) -> dict:
    """JSON-ready dict; undefined values are null, never NaN."""
    spec = result.spec
    return {
        "dim": spec.dim,
        "sigma": spec.sigma,
        "count": spec.count,
        "seed": spec.seed,
        "halt_tol": spec.halt_tol,
        "D_histogram": {str(k): v for k, v in sorted(result.D_histogram.items())},
        "mean_b_sq": result.mean_b_sq.tolist(),
        "std_b_sq": result.std_b_sq.tolist(),
        "realizations": [
            {"index": int(idx), "D": b.size + 1, "b": b.tolist()}
            for idx, b in zip(result.indices, result.b_list)
        ],
        "failed": [{"index": int(i), "error": msg} for i, msg in result.failed],
        "profile": None if result.profile is None else profile_to_dict(result.profile),
    }


def save_ensemble_json(result: EnsembleResult, path) -> None:
    write_json(path, ensemble_to_dict(result))


def save_ensemble_csv(result: EnsembleResult, path) -> None:
    """Summary CSV: n, mean_b_sq, std_b_sq."""
    rows = zip(range(1, result.mean_b_sq.size + 1), result.mean_b_sq.tolist(),
               result.std_b_sq.tolist())
    write_csv(path, ("n", "mean_b_sq", "std_b_sq"), rows)
