"""Lanczos chain of the Liouvillian L = [H, .], built on the seed's spectral measure.

The recursion

    A_{n+1} = L O_n - b_n O_{n-1},      b_{n+1} = ||A_{n+1}||,

builds the Krylov chain O_0, O_1, ... of a seed operator and its
coefficients b_1, b_2, ...  In the eigenbasis of H, with the inner-product
weights folded into the components (an exact unitary change of frame), the
normalized seed is a vector x, the inner product the plain dot product, and
L the elementwise multiply by omega_ij = E_i - E_j.  So O_n = p_n(omega) * x
with p_n the orthonormal polynomials of the spectral measure
mu = sum_ij |x_ij|^2 delta(omega - omega_ij): the chain depends on mu alone.
The diagonal coefficients <O_n|L O_n>, which must vanish to keep the
recursion two-term, all do exactly when mu is symmetric; that is tested
once, up front.

A symmetric mu folds onto s = |omega|: node 0 carries sum_i |x_ii|^2, and
each pair i < j is one node at |omega_ij| (IEEE subtraction is exactly
antisymmetric) with weight m = |x_ij|^2 + |x_ji|^2.  Frequencies equal up to
rounding (degenerate levels) share a node, and frame entries at the
rounding level of the change of frame are taken as the zeros they are in
exact arithmetic; otherwise the chain would go on to resolve rounding noise.  Even p_n are even and
odd p_n odd, so the vectors sqrt(m) p_n(s), named u_n for even n and v_n for
odd n, are the Golub-Kahan bidiagonalization of A = diag(s) from
u_0 = sqrt(m) (Golub & Kahan, SIAM J. Numer. Anal. B 2, 1965):

    b_{n+1} v_{n+1} = A u_n - b_n v_{n-1}   (n even),
    b_{n+1} u_{n+1} = A v_n - b_n u_{n-1}   (n odd).

That is real arithmetic on about d^2 / 2 nodes for any H and product.  Each
family is fully reorthogonalized against itself (as for long Krylov chains in
Rabinovici et al., arXiv:2009.01862) by one classical Gram-Schmidt pass per
step, repeated only when that pass cancels, i.e. shrinks the three-term
residual below 1/sqrt(2) of its norm (Daniel, Gragg, Kaufman & Stewart,
Math. Comp. 30, 1976).  On the chains measured, only the step at which the
chain halts needs the second pass.  A stored basis is rebuilt as
O_n[ij] = sign(omega_ij)^n (u_n or v_n)[k] x_ij / sqrt(m_k), k the node of ij,
and its orthogonality is measured on that returned basis, by the Gram
matrix :func:`orthogonality_report` builds.  Dividing by the weights, the
rebuild cannot hold a basis whose thermal weights span too many decades;
such a basis is refused.

Because the chain depends on mu alone, a run that does not store the basis
(every GOE realization, ``kbound lanczos`` without --store-basis, capped or
not) skips the vectors and reads the chain off the folded measure
nu = w0 delta(t) + sum_k m_k delta(t - s_k^2) on t = s^2 >= 0, with no
reorthogonalization.  The Jacobi matrix of nu is L L^T with L lower
bidiagonal, and the chain's squares are exactly nu's qd variables (its
Stieltjes continued fraction): b^2 = (q_1, e_1, q_2, e_2, ...).  They are
built by qd insertion (Laurie, J. Comput. Appl. Math. 112, 165, 1999; in
differential form, as in Fernando & Parlett, Numer. Math. 67, 191, 1994):
the nodes go in one at a time, in descending order, node 0 last.  With
M_j = m_1 + ... + m_j, node j goes in at the origin of coordinates centred
on it,

    delta = (m_j / M_j) q_1,  q_1 = (M_{j-1} / M_j) q_1,  then for each k
    e_k' = e_k + delta,  r = q_{k+1} / e_k',  q_{k+1}' = e_k r,  delta = delta r,

and the origin then moves to the next node by a stationary qd step with
shift -Delta_j, Delta_j = (s_j - s_{j+1}) (s_j + s_{j+1}) and s_{J+1} = 0:

    tau = Delta_j,  then for each k
    q_k' = q_k + tau,  r = e_k / q_k',  e_k' = q_k r,  tau = tau r + Delta_j.

Descending order is what makes this subtraction-free.  In coordinates
centred on the node going in, every node already in lies at t > 0, so
the measure stays on [0, inf) and its qd variables stay positive; the
insertion only adds mass at the origin, and the move to the next node
shifts the measure away from 0, by Delta_j > 0.  Every operation then adds,
multiplies or divides positive numbers, each correct to an ulp, and the one
subtraction is s_j - s_{j+1} of the exact nodes (the difference of their
rounded squares would lose digits on close nodes: up to 7.9e-10 of max b
at a relative gap of 1e-8, against 1.6e-15 from the product).  Ascending
order would shift towards 0, by subtractions that cancel.  The q_1 of
every sweep has a closed form, the mean of the shifted measure,
x_j = sum_{i <= j} M_i Delta_i / M_j, from two cumulative sums.

The insertion and the shift at position k fuse into one cell, which reads
(e_k, q_{k+1}) as the previous sweep left them and writes them back.  Node
j's sweep reaches position k at step j + k, so the double loop runs as a
wavefront of about 2J steps of 9 elementwise calls (2 divisions) for J
nodes: O(J^2) work and O(J) memory.  A chain capped at K stops every sweep
at position K / 2, which later positions never feed: its head is the full
chain's, bit for bit.  A weight that underflows to 0 on the way makes a NaN
that reaches the chain; such a chain is discarded and the run takes the
Gram-Schmidt recursion, which alone gives Krylov vectors.

Against a 40-digit reference on the same measure, max |db| / max b on GOE
ledger draws (d, seed, realization) is as below, beside the RKPW update
with one +-s_k pair per sweep (Gragg & Harrod, Numer. Math. 44, 1984),
which qd insertion replaced, and the Gram-Schmidt recursion:

    draw       qd        RKPW pair sweep   Gram-Schmidt
    16 7 0     2.5e-15   3.1e-15           2.2e-15
    24 11 2    2.6e-15   1.8e-14           8.2e-15
    32 8 0     7.6e-15   2.9e-12           1.5e-12
    32 5 3     6.3e-15   5.6e-13           9.9e-14
    48 7 0     9.9e-15   1.5e-12           1.2e-13
    64 7 0     2.7e-14   6.5e-12           1.2e-12

Every operation of the wavefront is elementwise on slices of the node
axis, or a cumulative sum along it, so chains with the same node count can
share one wavefront, a column each, and each column comes out bit for bit
as its chain run alone.  ``_run_batch`` groups the full chains of a GOE
ensemble's batch by (node 0 kept, node count) and runs each group so,
which pays numpy's per-call overhead (most of a d = 32 chain's time) once
per group instead of once per chain; a non-finite column takes the
recursion for its chain alone.  A single chain keeps 1-D arrays.

The chain terminates at D <= d^2 - d + 1 basis vectors: d^2 - d off-diagonal
frequency slots plus a single direction out of the d-dimensional commutant
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from ._util import (coefficients, complex_array, fraction, integer, json_chain, json_field,
                    load_json_object, nonnegative, positive, write_csv, write_json)
from .operators import InnerProductSpec, OperatorVector, _Frame, as_hermitian

DEFAULT_HALT_TOL = 1e-10
DIAGONAL_TOL = 1e-8
_ROUNDING = 64 * float(np.finfo(np.float64).eps)  # per Hilbert-space dimension
_SQRT_HALF = math.sqrt(0.5)
# A stored basis must be orthonormal to half the digits (Simon's
# semi-orthogonality level, Math. Comp. 42, 1984) or it is refused.
_ORTHO_TOL = math.sqrt(float(np.finfo(np.float64).eps))

__all__ = [
    "DEFAULT_HALT_TOL",
    "ReorthPolicy",
    "default_policy",
    "LanczosResult",
    "run_lanczos",
    "OrthogonalityReport",
    "orthogonality_report",
    "max_chain_length",
    "result_to_dict",
    "save_result_json",
    "load_result_json",
    "save_coefficients_csv",
]


def max_chain_length(dim: int) -> int:
    """Largest possible Krylov dimension for a d-dimensional Hilbert space."""
    dim = integer(dim, "dim")
    return dim * dim - dim + 1


@dataclass(frozen=True)
class ReorthPolicy:
    """Reorthogonalization of the chain; "full" (see module docstring) is the
    only mode, kept so that callers passing ``default_policy(dim)`` work.
    :func:`run_lanczos` ignores it."""

    mode: str = "full"

    def __post_init__(self):
        if self.mode != "full":
            raise ValidationError(f"mode must be 'full', got {self.mode!r}")


def default_policy(dim: int) -> ReorthPolicy:
    """The policy of every run, whatever the dimension: full reorthogonalization."""
    return ReorthPolicy()


@dataclass(eq=False)
class LanczosResult:
    """Output of :func:`run_lanczos`.

    b is the coefficient array (b[0] = b_1), and D = b.size + 1 the Krylov
    dimension reached.  basis, when stored, holds the column-major
    vectorized operators O_0 .. O_{D-1} as rows (O_n is
    ``basis[n].reshape((dim, dim), order="F")``), and ortho_error is then
    max |G - I| for the Gram matrix G of that returned basis, as
    :func:`orthogonality_report` builds it.  truncated marks a run
    stopped by max_steps instead of the halting test.  reorth_passes counts
    the Gram-Schmidt passes of a run that stored its basis or had a chain
    qd insertion could not rebuild; it is 0 for every run rebuilt from the
    measure by qd insertion, capped or not, and None for a result reloaded
    from a file that predates the count.
    """

    b: np.ndarray
    dim: int
    spec: InnerProductSpec
    basis: np.ndarray | None = None
    ortho_error: float | None = None
    truncated: bool = False
    halt_tol: float = DEFAULT_HALT_TOL
    reorth_passes: int | None = None

    @property
    def D(self) -> int:
        return self.b.size + 1


def _check_symmetric(s: np.ndarray, below: np.ndarray, above: np.ndarray,
                     scale: float) -> None:
    """Raise unless the seed measure is symmetric under omega -> -omega.

    Pair p weighs below[p] at -s[p] and above[p] at +s[p].  Pairs with s
    equal within DIAGONAL_TOL * scale form a group that need only be
    symmetric in aggregate; the group at s ~ 0 always is.  The sides are
    compared as amplitudes (square roots), so that rounding in a nearly
    empty group cannot fail the test.
    """
    order = np.argsort(s, kind="stable")
    group = np.cumsum(np.diff(s[order], prepend=0.0) > DIAGONAL_TOL * scale)
    lo = np.sqrt(np.bincount(group, below[order]))
    hi = np.sqrt(np.bincount(group, above[order]))
    bad = np.flatnonzero(np.abs(lo - hi)[1:] > DIAGONAL_TOL) + 1
    if bad.size:
        raise NumericalError(
            "inner-product property 2 violated: the seed's spectral measure is not "
            f"symmetric at |omega| = {s[order][group == bad[0]][0]:.6g}, so "
            "<O_n|L O_n> cannot vanish; the seed operator is incompatible with "
            "the two-term recursion under this inner product"
        )


def _reorthogonalize(w: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, int]:
    """w with the span of B's orthonormal rows projected out, and the number
    of classical Gram-Schmidt passes (BLAS-2 on the stacked family) it took.

    A pass that keeps at least 1/sqrt(2) of the norm leaves w orthogonal to
    working precision; one that cancels more is repeated once (DGKS 1976).
    """
    norm0 = np.linalg.norm(w)
    w = w - B.T @ (B @ w)
    if np.linalg.norm(w) >= norm0 * _SQRT_HALF:
        return w, 1
    return w - B.T @ (B @ w), 2


def _qd(w0, s: np.ndarray, m: np.ndarray, last: int | None = None) -> np.ndarray:
    """Squared Lanczos coefficients b_1^2 .. b_last^2 of the folded measure
    w0 delta(t) + sum_j m[j] delta(t - s[j]^2), s ascending, by qd insertion
    (module docstring); last is at most its default, the chain length
    2 s.size - 1, plus 1 if w0 > 0.

    s and m may carry a trailing chain axis: (n, r) arrays of r measures
    with the same n nodes, w0 then an (r,) array, all > 0 or all 0.  Column
    c of the output is then the chain of column c, bit for bit as a call on
    that column alone: every operation below is elementwise or a cumsum on
    axis 0, so each column gets the same operations in the same order.

    Node j = 0, 1, ... (descending, node 0 last) goes in by sweep j over
    positions k = 1 .. min(j, last // 2), stopped there since later
    positions never feed earlier ones.  Cell (j, k) inserts at
    (e_k, q_{k+1}), shifts at (q_k, e_k) and writes the shifted q_{k+1}, at
    step j + k, so at every step the active sweeps hold distinct, contiguous
    positions and advance together: the double loop as a wavefront, the
    same arithmetic in the same order.  Sweep state is stored in reverse
    (index J - 1 - j) so that it runs the same way as the positions.  A zero
    weight divides 0 by 0 somewhere; the NaN it makes reaches the output,
    which the caller tests.
    """
    first = int(np.any(w0 > 0.0))
    tail = (1,) + s.shape[1:]
    s = np.concatenate([s[::-1], np.zeros(tail)]) if first else s[::-1]
    m = np.concatenate([m[::-1], np.reshape(w0, tail)]) if first else m[::-1]
    J = s.shape[0]
    last = 2 * J - 1 - first if last is None else min(last, 2 * J - 1 - first)
    cells = last // 2
    b2 = np.zeros((2 * cells + 1,) + s.shape[1:])
    q, e = b2[0::2], b2[1::2]
    with np.errstate(all="ignore"):
        # Delta_j = s_j^2 - s_{j+1}^2 as a product: no cancellation.
        s_next = np.concatenate([s[1:], np.zeros(tail)])
        shift = (s - s_next) * (s + s_next)
        M = np.cumsum(m, axis=0)
        M_prev = np.concatenate([np.zeros(tail), M[:-1]])
        # q_1 after sweep j, in closed form, and before it.
        x = np.cumsum(M * shift, axis=0) / M
        x_prev = np.concatenate([np.zeros(tail), x[:-1]])
        delta = (m / M * x_prev)[::-1].copy()
        q_in = (M_prev / M * x_prev)[::-1]
        shift = shift[::-1].copy()
        tau = shift.copy()
        # The unshifted q_k of each sweep, read from one buffer and written
        # to the other, which trade places every step; a sweep's first read
        # is its q_1, in both.
        unshifted = np.stack([q_in, q_in])
        # Work space sized for the widest step, so that no step allocates:
        # the temporaries of ~2J steps otherwise leave heap fragments behind.
        work = np.empty((2,) + s.shape)
        for step in range(2, J + cells if cells else 0):
            # Sweeps j at this step: step - cells <= j <= J - 1, 1 <= step - j <= j.
            lo, hi = max((step + 1) // 2, step - cells), min(step - 1, J - 1)
            if hi == step - 1:  # sweep hi starts: its shifted q_1
                q[0] = x[hi]
            ks, js = slice(step - hi - 1, step - lo), slice(J - 1 - hi, J - lo)
            ek, qk, qn = e[ks], q[ks], q[step - hi:step - lo + 1]
            dj, tj = delta[js], tau[js]
            u, u_next = unshifted[step % 2, js], unshifted[(step + 1) % 2, js]
            ins, r = work[:, :hi - lo + 1]
            # Insert at 0: e' = e + delta, r = q_next / e', q_next' = e r,
            # delta' = delta r.
            np.add(ek, dj, out=ins)
            np.divide(qn, ins, out=r)
            np.multiply(ek, r, out=u_next)
            np.multiply(dj, r, out=dj)
            # Shift by -Delta, with q the sweep's own shifted q_k: r = e' / q,
            # e'' = u r, tau' = tau r + Delta, q_next'' = q_next' + tau'.
            np.divide(ins, qk, out=r)
            np.multiply(u, r, out=ek)
            np.multiply(tj, r, out=tj)
            np.add(tj, shift[js], out=tj)
            np.add(u_next, tj, out=qn)
    q[0] = x[-1]
    return b2[:last]


def run_lanczos(
    hamiltonian,
    operator,
    spec: InnerProductSpec | None = None,
    policy: ReorthPolicy | None = None,
    halt_tol: float = DEFAULT_HALT_TOL,
    max_steps: int | None = None,
    store_basis: bool = True,
) -> LanczosResult:
    """Run the Lanczos recursion for L = [H, .] (see module docstring).

    Parameters
    ----------
    hamiltonian : HermitianMatrix or array
    operator : OperatorVector or square array
        Seed O_0.  Normalized internally, so only its direction matters.
    spec : InnerProductSpec, optional
        Defaults to the spec carried by ``operator`` (beta = 0 with
        normalization 1/d for a bare array).  A beta > 0 spec without a
        bound Hamiltonian is bound to ``hamiltonian``.
    policy : ReorthPolicy, optional
        Accepted for compatibility and ignored: a run that stores its basis
        reorthogonalizes each family fully, and a chain rebuilt from the
        measure by qd insertion reorthogonalizes nothing.
    halt_tol : float
        Stop when ||A_{n+1}|| <= halt_tol * b_1 (at the very first step the
        Liouvillian's spectral width stands in for b_1).
    max_steps : int, optional
        Cap on the number of coefficients; stopping there flags the result
        as truncated.  Independently of this, the recursion never runs past
        d^2 - d coefficients: the operator space has at most d^2 - d + 1
        Krylov directions, so any further "coefficient" is a rounding
        artifact (near-degenerate Liouvillian frequencies can keep the
        residual above the halting threshold right at exhaustion).  Hitting
        that structural bound, or a family spanning all its nodes, is
        exhaustion, not truncation.
    store_basis : bool
        Rebuild the Krylov operators in the result, by the Gram-Schmidt
        recursion, and set ortho_error from the Gram matrix of the returned
        basis (:func:`orthogonality_report`).  The rebuild divides by the
        inner-product weights, so a thermal product with weights that
        underflow to 0, or that span so many decades that the returned
        basis is orthonormal only to more than sqrt(eps), raises
        NumericalError; the chain alone (store_basis=False, rebuilt from
        the measure by qd insertion, capped or not) does not need the basis.

    Raises
    ------
    NumericalError
        If the seed's spectral measure is not symmetric, so that some
        diagonal coefficient <O_n|L O_n> cannot vanish ("inner-product
        property 2 violated"): the seed operator is not compatible with the
        two-term recursion under this inner product.  Also when the thermal
        weights keep a stored basis from being held (see store_basis).
    """
    fold = _fold(hamiltonian, operator, spec, halt_tol, max_steps, store_basis)
    # No basis: qd, one past the cap so that the halting test comes first.
    b2 = None if store_basis else _qd(*fold.qd_args(), fold.max_steps + 1)
    return _chain(fold, b2)


@dataclass(eq=False)
class _Fold:
    """A run's checked arguments and its seed's folded measure (module
    docstring): the kept nodes s, ascending with node 0 first when it is
    kept (node0), and their weights m.  A run that stores its basis also
    keeps the seed x in H's frame and the kept node of each frame slot."""

    dim: int
    spec: InnerProductSpec
    halt_tol: float
    max_steps: int
    capped: bool
    frame: _Frame
    s: np.ndarray
    m: np.ndarray
    node0: bool
    omega_scale: float
    x: np.ndarray | None = None
    slot: np.ndarray | None = None

    def qd_args(self) -> tuple:
        """_qd's (w0, s, m) for this measure: w0 = 0 when node 0 is dropped."""
        first = int(self.node0)
        return self.m[0] if first else 0.0, self.s[first:], self.m[first:]


def _fold(hamiltonian, operator, spec, halt_tol, max_steps, store_basis) -> _Fold:
    """Check run_lanczos's arguments, change to H's frame and fold the seed's
    measure (see run_lanczos for the arguments and errors)."""
    H = as_hermitian(hamiltonian)
    op = operator if isinstance(operator, OperatorVector) else \
        OperatorVector.from_matrix(operator)
    spec = op.spec if spec is None else spec
    if H.dim != op.dim:
        raise ValidationError(
            f"hamiltonian dim {H.dim} does not match operator dim {op.dim}"
        )
    if spec.beta > 0.0:
        if spec.hamiltonian is None:
            spec = InnerProductSpec(spec.beta, spec.normalization, H)
        elif not np.array_equal(spec.hamiltonian.entries, H.entries):
            raise ValidationError(
                "inner-product hamiltonian differs from the evolution hamiltonian"
            )
    halt_tol = fraction(halt_tol, "halt_tol")
    structural_cap = max_chain_length(H.dim) - 1
    if max_steps is None:
        max_steps = structural_cap
    else:
        max_steps = min(integer(max_steps, "max_steps"), structural_cap)

    d = H.dim
    frame = _Frame(spec, d, H)
    sqrt_weights = frame.sqrt_weights.ravel(order="F")
    if store_basis and not np.all(sqrt_weights > 0.0):
        raise NumericalError(
            "thermal weights underflowed to 0, and the stored basis is rebuilt "
            "by dividing by them; pass store_basis=False for the chain alone"
        )
    x = frame.to_frame(op.components)
    # The change of frame rounds each entry by about d eps of the seed's
    # norm, before the inner-product weights scale it.
    rounding = _ROUNDING * d
    unweighted = np.divide(np.abs(x), sqrt_weights, out=np.zeros(x.size),
                           where=sqrt_weights > 0.0)
    x[unweighted <= rounding * np.linalg.norm(unweighted)] = 0.0
    norm0 = float(np.linalg.norm(x))
    if norm0 == 0.0:
        raise ValidationError("operator has zero norm")
    x = x / norm0

    # Fold the measure: pair p is (iu[p], ju[p]) with iu < ju.
    weight = np.abs(x.reshape((d, d), order="F")) ** 2
    iu, ju = np.triu_indices(d, 1)
    s = np.abs(frame.omega[iu, ju])
    omega_scale = float(s.max(initial=0.0))
    _check_symmetric(s, weight[iu, ju], weight[ju, iu], omega_scale)
    # Node 0 takes the diagonal; pair frequencies equal up to rounding, as
    # degenerate levels give, share a node at the smallest of them, and
    # those near 0 join node 0.
    s = np.concatenate([[0.0], s])
    m = np.concatenate([[np.trace(weight)], weight[iu, ju] + weight[ju, iu]])
    order = np.argsort(s, kind="stable")
    starts = np.diff(s[order], prepend=0.0) > rounding * omega_scale
    node = np.empty(s.size, dtype=np.intp)
    node[order] = np.cumsum(starts)
    m = np.bincount(node, m)
    keep = m > 0.0
    s = np.concatenate([[0.0], s[order][starts]])
    fold = _Fold(d, spec, halt_tol, max_steps, max_steps < structural_cap, frame,
                 s[keep], m[keep], bool(keep[0]), omega_scale)
    if store_basis:
        # Slot ij reads p_n at its node; slots of weightless (dropped) nodes
        # hold x = 0, so whichever kept node they map to gives O_n = 0 there.
        pair = np.zeros((d, d), dtype=np.intp)
        pair[iu, ju] = pair[ju, iu] = np.arange(1, iu.size + 1)
        fold.x = x
        fold.slot = (np.cumsum(keep) - 1)[node[pair.ravel(order="F")]]
    return fold


def _chain(fold: _Fold, b2: np.ndarray | None = None) -> LanczosResult:
    """The chain of a folded measure, from b2, the qd squares of its
    chain's head, when given and finite, and otherwise by the Gram-Schmidt
    recursion, which also rebuilds a stored basis (module docstring)."""
    d, spec, halt_tol, s = fold.dim, fold.spec, fold.halt_tol, fold.s
    if b2 is not None:
        b = np.sqrt(b2)
        if np.all(np.isfinite(b)):
            halt_scale = np.full(b.size, b[0] if b.size else 0.0)
            halt_scale[:1] = fold.omega_scale
            b = b[:np.argmax(np.append(b <= halt_tol * halt_scale, True))]
            truncated, b = b.size > fold.max_steps, b[:fold.max_steps]
            return LanczosResult(b=b, dim=d, spec=spec, truncated=truncated,
                                 halt_tol=halt_tol, reorth_passes=0)

    sqrt_m = np.sqrt(fold.m)
    # Row capacity of each family: the u family holds the even O_n, the v
    # family the odd ones, and neither can outgrow its nodes.
    rows = min(s.size, fold.max_steps // 2 + 1)
    families = (np.empty((rows, s.size)), np.empty((rows, s.size)))
    counts = [1, 0]
    families[0][0] = sqrt_m / np.linalg.norm(sqrt_m)

    b: list[float] = []
    truncated = False
    passes = 0
    prev: np.ndarray | None = None
    cur = families[0][0]
    while True:
        n = len(b)
        fam = (n + 1) % 2
        if counts[fam] == s.size:
            break
        w = s * cur
        if prev is not None:
            w -= b[-1] * prev
        w, k = _reorthogonalize(w, families[fam][:counts[fam]])
        passes += k
        bnew = float(np.linalg.norm(w))
        halt_scale = b[0] if b else fold.omega_scale
        if bnew <= halt_tol * halt_scale:
            break
        if n >= fold.max_steps:
            truncated = fold.capped
            break
        b.append(bnew)
        prev, cur = cur, families[fam][counts[fam]]
        cur[:] = w / bnew
        counts[fam] += 1

    result = LanczosResult(b=np.asarray(b, dtype=np.float64), dim=d, spec=spec,
                           truncated=truncated, halt_tol=halt_tol, reorth_passes=passes)
    if fold.slot is not None:
        D = result.D
        x, frame = fold.x, fold.frame
        odd_x = np.sign(frame.omega).ravel(order="F") * x
        frame_rows = np.empty((D, d * d), dtype=np.complex128)
        frame_rows[0::2] = (families[0][:counts[0]] / sqrt_m)[:, fold.slot] * x
        frame_rows[1::2] = (families[1][:counts[1]] / sqrt_m)[:, fold.slot] * odd_x
        result.basis = frame.from_frame(frame_rows)
        # The report's own frame, so that ortho_error is read off its Gram
        # matrix bit for bit: at beta = 0 the identity, not H's eigenframe.
        gram = _gram(frame if spec.beta > 0.0 else _Frame(spec, d), result.basis)
        result.ortho_error = float(np.max(np.abs(gram - np.eye(D))))
        if result.ortho_error > _ORTHO_TOL:
            raise NumericalError(
                f"the stored basis is orthonormal only to {result.ortho_error:.1e}: "
                "the thermal weights span more decades than operator coordinates "
                "hold; pass store_basis=False for the chain alone"
            )
    return result


def _run_batch(pairs, halt_tol: float = DEFAULT_HALT_TOL) -> list:
    """``run_lanczos(H, operator, halt_tol=halt_tol, store_basis=False)`` of
    each (H, operator) pair, bit for bit, with the qd sweeps of the chains
    that share (node 0 kept, node count) run as one wavefront, a column each.

    A column that comes out non-finite takes the recursion for its chain
    alone.  A pair whose run meets a NumericalError or LinAlgError gets that
    exception in place of its result, and the others run on; any other
    error is the batch's.
    """
    out: list = [None] * len(pairs)
    groups: dict[tuple[bool, int], list[tuple[int, _Fold]]] = {}
    for i, (H, op) in enumerate(pairs):
        try:
            fold = _fold(H, op, None, halt_tol, None, False)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            out[i] = exc
            continue
        groups.setdefault((fold.node0, fold.s.size), []).append((i, fold))
    for members in groups.values():
        columns = zip(*(fold.qd_args() for _, fold in members))
        b2 = _qd(*(np.stack(c, axis=-1) for c in columns))
        for k, (i, fold) in enumerate(members):
            out[i] = _chain(fold, b2[:, k])
    return out


@dataclass(eq=False)
class OrthogonalityReport:
    """The Gram matrix of a stored Lanczos basis: gram[i, j] = <O_i|O_j>."""

    gram: np.ndarray


def orthogonality_report(result: LanczosResult) -> OrthogonalityReport:
    """Gram matrix of a stored basis under the result's product, built as
    ``run_lanczos`` builds it to read off ortho_error.

    A beta > 0 result reloaded by :func:`load_result_json` lacks the
    weighting Hamiltonian and raises ValidationError.
    """
    if result.basis is None:
        raise ValidationError("orthogonality report needs a stored basis")
    return OrthogonalityReport(gram=_gram(_Frame(result.spec, result.dim), result.basis))


def _gram(frame: _Frame, basis: np.ndarray) -> np.ndarray:
    """gram[i, j] = <O_i|O_j> for the rows of ``basis``, in ``frame``."""
    X = frame.to_frame(basis)
    return X.conj() @ X.T


def result_to_dict(result: LanczosResult, include_basis: bool = False) -> dict:
    out = {
        "b": result.b.tolist(),
        "D": int(result.D),
        "dim": int(result.dim),
        "beta": float(result.spec.beta),
        "normalization": result.spec.normalization,
        "truncated": bool(result.truncated),
        "halt_tol": float(result.halt_tol),
        "ortho_error": None if result.ortho_error is None else float(result.ortho_error),
        "reorth_passes": (None if result.reorth_passes is None
                          else int(result.reorth_passes)),
    }
    if include_basis and result.basis is not None:
        # Views of the basis: write_json encodes them row by row.
        out["basis"] = {"re": result.basis.real, "im": result.basis.imag}
    return out


def save_result_json(result: LanczosResult, path, include_basis: bool = False) -> None:
    """Write a LanczosResult as JSON; the basis is opt-in (it is large)."""
    write_json(path, result_to_dict(result, include_basis))


def load_result_json(path) -> LanczosResult:
    """Reload a result written by :func:`save_result_json`.

    A beta > 0 result comes back with its beta but without the weighting
    Hamiltonian (matrices are not serialized here): its spec weights a new
    run_lanczos by that run's Hamiltonian, but orthogonality_report of the
    result raises ValidationError.
    """
    payload = load_json_object(path)
    b, D, truncated = json_chain(payload, path, complete=True)
    dim = json_field(payload, "dim", integer, path)
    return LanczosResult(
        b=b,
        dim=dim,
        spec=InnerProductSpec(
            json_field(payload, "beta", nonnegative, path, default=0.0),
            json_field(payload, "normalization", positive, path, default=None),
        ),
        basis=json_field(payload, "basis", complex_array, path, (D, dim * dim),
                         default=None),
        ortho_error=json_field(payload, "ortho_error", nonnegative, path, default=None),
        truncated=truncated,
        halt_tol=json_field(payload, "halt_tol", fraction, path, default=DEFAULT_HALT_TOL),
        reorth_passes=json_field(payload, "reorth_passes", integer, path, 0, default=None),
    )


def save_coefficients_csv(b, path) -> None:
    """Two-column CSV of the chain: n, b_n (n starting at 1)."""
    write_csv(path, ("n", "b"), enumerate(coefficients(b).tolist(), start=1))
