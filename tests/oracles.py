"""Brute-force reference implementations, used only by the tests.

Everything here favors obviousness over speed and shares no code with the
package: operators stay matrices, inner products are literal traces,
Heisenberg evolution goes through a dense matrix exponential, and the
short-time expansion is generated term by term from the amplitude
recursion.  Disagreement between these and the package is a bug in one of
the two.
"""

import numpy as np
import scipy.linalg


def random_hermitian(rng, dim, scale=1.0):
    x = rng.normal(size=(dim, dim), scale=scale)
    y = rng.normal(size=(dim, dim), scale=scale)
    m = x + 1j * y
    return 0.5 * (m + m.conj().T)


def random_real_symmetric(rng, dim, scale=1.0):
    x = rng.normal(size=(dim, dim), scale=scale)
    return 0.5 * (x + x.T)


def trace_product(A, B, nu0):
    """<A|B> = nu0 Tr(A^dag B), literally."""
    return nu0 * np.trace(A.conj().T @ B)


def thermal_trace_product(H, beta, A, B):
    """Tr(rho^(1/2) A^dag rho^(1/2) B) with rho = e^(-beta H) / Z."""
    half = scipy.linalg.expm(-0.5 * beta * H)
    Z = np.trace(scipy.linalg.expm(-beta * H))
    return np.trace(half @ A.conj().T @ half @ B) / Z


def gram_schmidt_lanczos(H, O, product, max_steps=200, halt_tol=1e-10):
    """Matrix-space Lanczos with full Gram-Schmidt at every step.

    product(A, B) is the inner product to use.  Returns (b, ops) with ops
    the orthonormal operator basis as a list of matrices.  The chain is at
    most as long as the seed's spectral measure has nodes (frequencies
    within 1e-9 of max |omega| merged, weights up to 1e-20 dropped): on
    spectra degenerate up to rounding the residual past that point is
    rounding noise, which the halting rule alone would keep resolving.
    Thermal weights vanish where the flat ones do, so the flat node count
    bounds every product.
    """

    def liouville(A):
        return H @ A - A @ H

    nodes, _, _ = liouvillian_measure(H, O, 0.0, 1e-9, 1e-20)
    norm0 = np.sqrt(product(O, O).real)
    ops = [O / norm0]
    b = []
    scale0 = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    for _ in range(min(max_steps, nodes.size - 1)):
        w = liouville(ops[-1])
        for _ in range(2):
            for q in ops:
                w = w - product(q, w) * q
        bn = np.sqrt(max(product(w, w).real, 0.0))
        ref = b[0] if b else 2.0 * max(scale0, 1.0)
        if bn <= halt_tol * ref:
            break
        b.append(bn)
        ops.append(w / bn)
    return np.asarray(b), ops


def liouvillian_measure(H, O, beta=0.0, merge_tol=0.0, floor=0.0):
    """Spectral measure of the seed O under L = [H, .].

    Nodes are the frequencies E_i - E_j, weights w_i w_j |(V^dag O V)_ij|^2
    with w_i = e^{-beta E_i / 2} (1 at beta = 0), normalized to total 1.
    Frequencies closer than merge_tol * max|omega|
    to their sorted neighbour merge into one node at their mean (with the
    default 0 only exactly equal ones, such as the d diagonal slots), and
    weights at or below floor drop out.  Returns (nodes ascending, weights,
    max |E_i - E_j|).
    """
    E, V = np.linalg.eigh(H)
    Ot = V.conj().T @ np.asarray(O, dtype=np.complex128) @ V
    omega = E[:, None] - E[None, :]
    scale = float(np.max(np.abs(omega)))
    w = np.exp(-0.5 * beta * (E - E.min()))
    weight = (np.outer(w, w) * np.abs(Ot) ** 2).ravel()
    weight = weight / weight.sum()
    order = np.argsort(omega.ravel(), kind="stable")
    freq = omega.ravel()[order]
    group = np.concatenate([[0], np.cumsum(np.diff(freq) > merge_tol * scale)])
    nodes = np.bincount(group, weights=freq) / np.bincount(group)
    weights = np.bincount(group, weights=weight[order])
    keep = weights > floor
    return nodes[keep], weights[keep] / weights[keep].sum(), scale


def gauss_rule_mismatch(b, H, O, merge_tol=0.0, floor=0.0):
    """How far the chain b is from the spectral measure of (H, O).

    The zero-diagonal Jacobi matrix of b is diagonalized; its eigenvalues
    and squared first eigenvector components (the Gauss nodes and weights)
    must reproduce the measure node by node.  Returns (node error relative
    to max |omega|, weight error relative to the total weight 1), or
    (inf, inf) when the chain has a different number of nodes.  Every
    coefficient of the chain enters both.  merge_tol and floor go to
    liouvillian_measure.
    """
    b = np.asarray(b, dtype=np.float64)
    nodes, weights, scale = liouvillian_measure(H, O, 0.0, merge_tol, floor)
    lam, Q = scipy.linalg.eigh_tridiagonal(np.zeros(b.size + 1), b)
    if lam.size != nodes.size:
        return np.inf, np.inf
    node_err = float(np.max(np.abs(lam - nodes))) / scale
    weight_err = float(np.max(np.abs(Q[0] ** 2 - weights)))
    return node_err, weight_err


def stieltjes_chain(nodes, weights, dps=100, halt=1e-40):
    """Lanczos coefficients of a discrete measure, computed in mpmath.

    The Stieltjes procedure with two full Gram-Schmidt passes per step, at
    dps decimal digits; it stops when a residual norm drops below halt
    (exhaustion shows up as a residual at the working precision).
    """
    import mpmath as mp

    with mp.workdps(dps):
        x = [mp.mpf(float(t)) for t in nodes]
        q = [mp.sqrt(mp.mpf(float(w))) for w in weights]
        norm = mp.sqrt(mp.fsum(v * v for v in q))
        basis = [[v / norm for v in q]]
        b = []
        while len(basis) < len(x):
            r = [xi * qi for xi, qi in zip(x, basis[-1])]
            for _ in range(2):
                for u in basis:
                    c = mp.fsum(ui * ri for ui, ri in zip(u, r))
                    r = [ri - c * ui for ri, ui in zip(r, u)]
            bn = mp.sqrt(mp.fsum(v * v for v in r))
            if bn <= halt:
                break
            b.append(bn)
            basis.append([v / bn for v in r])
        return np.array([float(v) for v in b])


def rkpw_chain(nodes, weights, dps=40):
    """Lanczos coefficients of a discrete measure by the RKPW update, in mpmath.

    The nodes are inserted one at a time, in the order given, into the
    Jacobi matrix of the ones before (Gragg & Harrod, Numer. Math. 44, 1984;
    Gautschi's OPQ routine RKPW), as a plain double loop at dps decimal
    digits.  Returns all len(nodes) - 1 coefficients; no halting test.
    """
    import mpmath as mp

    with mp.workdps(dps):
        x = [mp.mpf(float(v)) for v in nodes]
        w = [mp.mpf(float(v)) for v in weights]
        alpha = list(x)
        beta = [w[0]] + [mp.mpf(0)] * (len(x) - 1)
        for n in range(1, len(x)):
            p, gam, sig, t = w[n], mp.mpf(1), mp.mpf(0), mp.mpf(0)
            for k in range(n + 1):
                rho = beta[k] + p
                shrunk = gam * rho
                prev_sig = sig
                if rho <= 0:
                    gam, sig = mp.mpf(1), mp.mpf(0)
                else:
                    gam, sig = beta[k] / rho, p / rho
                tk = sig * (x[n] - alpha[k]) - gam * t
                alpha[k] += tk - t
                t = tk
                p = t * t / sig if sig > 0 else prev_sig * beta[k]
                beta[k] = shrunk
        return np.array([float(mp.sqrt(v)) for v in beta[1:]])


def rkpw_pair_chain(w0, s, h, dps=40):
    """Lanczos coefficients of w0 delta(t) + sum_j h[j] (delta(t - s[j]) +
    delta(t + s[j])) by the RKPW update with each +-s[j] pair inserted in
    one sweep, in mpmath.

    Every alpha of a symmetric measure is 0, and the -s sweep's t is minus
    the +s sweep's, so a pair's sweep carries the +s sweep's (gamma, p, t)
    and the -s sweep's (gamma, p) over positions 0 .. first + 2j + 1, first
    = 1 if w0 > 0, as a plain double loop at dps decimal digits.
    """
    import mpmath as mp

    with mp.workdps(dps):
        first = int(w0 > 0)
        beta = [mp.mpf(float(w0))] + [mp.mpf(0)] * (first + 2 * len(s) - 1)
        for j, (sj, hj) in enumerate(zip(s, h)):
            sj = mp.mpf(float(sj))
            gp = gm = mp.mpf(1)
            pp = pm = mp.mpf(float(hj))
            t = mp.mpf(0)
            for k in range(first + 2 * j + 2):
                rho = beta[k] + pp
                shrunk = gp * rho
                gp, sig = beta[k] / rho, pp / rho
                t = sig * sj - gp * t
                t2 = t * t
                pp = t2 / sig
                rho = shrunk + pm
                beta[k] = gm * rho
                gm = shrunk / rho
                pm = t2 / (pm / rho)
        return np.array([float(mp.sqrt(v)) for v in beta[1:]])


def qd_chain(w0, s, m, dps=40):
    """Lanczos coefficients of w0 delta(t) + sum_j m[j] (delta(t - s[j]) +
    delta(t + s[j])) / 2 by qd insertion on the folded measure, in mpmath.

    The squares b_1^2, b_2^2, ... are the qd variables q_1, e_1, q_2, ...
    of the measure in t^2.  The nodes go in descending order, node 0 (if
    w0 > 0) last; each is inserted at the origin of coordinates centred on
    it, and the origin then moves to the next node by a stationary qd step
    with shift -Delta, Delta = (s_j - s_{j+1})(s_j + s_{j+1}).  q_1 after
    each sweep is the mean of the shifted measure, sum_i M_i Delta_i / M_j
    with M_j the partial weight sums.  A plain double loop at dps decimal
    digits.
    """
    import mpmath as mp

    with mp.workdps(dps):
        first = int(w0 > 0)
        nodes = [mp.mpf(float(v)) for v in reversed(s)] + [mp.mpf(0)] * first
        weights = [mp.mpf(float(v)) for v in reversed(m)] + [mp.mpf(float(w0))] * first
        J = len(nodes)
        q, e = [mp.mpf(0)] * (J + 1), [mp.mpf(0)] * J
        total = moment = x = mp.mpf(0)
        for j in range(J):
            nxt = nodes[j + 1] if j + 1 < J else mp.mpf(0)
            shift = (nodes[j] - nxt) * (nodes[j] + nxt)
            prev_total, total = total, total + weights[j]
            moment = moment + total * shift
            x_prev, x = x, moment / total
            delta = weights[j] / total * x_prev
            u = prev_total / total * x_prev
            tau = shift
            q[0] = x
            for k in range(1, j + 1):
                ins = e[k - 1] + delta
                r = q[k] / ins
                u_next = e[k - 1] * r
                delta = delta * r
                r = ins / q[k - 1]
                e[k - 1] = u * r
                tau = tau * r + shift
                q[k] = u_next + tau
                u = u_next
        b2 = [v for pair in zip(q, e) for v in pair][:2 * J - 1 - first]
        return np.array([float(mp.sqrt(v)) for v in b2])


def dense_heisenberg(H, O, t):
    """O(t) = e^{iHt} O e^{-iHt} via dense exponentials."""
    U = scipy.linalg.expm(1j * t * H)
    return U @ O @ U.conj().T


def superoperator_heisenberg(H, O, t):
    """Same evolution through the vectorized commutator superoperator."""
    d = H.shape[0]
    L = np.kron(np.eye(d), H) - np.kron(H.T, np.eye(d))
    vec = O.ravel(order="F")
    out = scipy.linalg.expm(1j * t * L) @ vec
    return out.reshape((d, d), order="F")


def chain_amplitudes(b, times):
    """phi[k, n] = phi_n(times[k]) from a dense matrix exponential.

    The hopping generator A (A[n, n-1] = b_n, A[n-1, n] = -b_n) is
    antisymmetric, and phi(t) = expm(t A) e_0 solves
    d/dt phi_n = b_n phi_{n-1} - b_{n+1} phi_{n+1} with phi(0) = e_0.
    Each time gets its own exponential, so nothing accumulates along the
    grid.
    """
    b = np.asarray(b, dtype=np.float64)
    A = np.diag(b, -1) - np.diag(b, 1)
    return np.array([scipy.linalg.expm(t * A)[:, 0] for t in np.ravel(times)])


def chain_moments(b, phi):
    """(<{K, L}>, <L>, <L^2>) in the state psi_n = i^n phi_n of the chain b.

    L is the dense Hermitian hopping matrix (b on both off-diagonals) and
    K = diag(0, 1, 2, ...) the chain position.  All three are real:
    <{K, L}> and <L> vanish, and <L^2> = b_1^2, for every amplitude vector
    of the recursion.
    """
    b = np.asarray(b, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    L = np.diag(b, 1) + np.diag(b, -1)
    K = np.diag(np.arange(phi.size, dtype=np.float64))
    psi = np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(phi.size) % 4] * phi
    anti = np.vdot(psi, (K @ L + L @ K) @ psi)
    first = np.vdot(psi, L @ psi)
    second = np.vdot(psi, L @ L @ psi)
    return float(anti.real), float(first.real), float(second.real)


def chain_rate(b, phi):
    """dK/dt in the state psi_n = i^n phi_n of the chain b, from the commutator.

    With L and K as in chain_moments, the amplitude recursion reads
    d psi/dt = i L psi in this phase convention, so
    dK/dt = <psi| i[K, L] |psi> = -<psi| i[L, K] |psi>.
    """
    b = np.asarray(b, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    L = np.diag(b, 1) + np.diag(b, -1)
    K = np.diag(np.arange(phi.size, dtype=np.float64))
    psi = np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(phi.size) % 4] * phi
    rate = np.vdot(psi, -1j * (L @ K - K @ L) @ psi)
    return float(rate.real)


def spectral_amplitudes(b, times):
    """phi[k, n] = phi_n(times[k]) from the eigenpairs of the hopping matrix.

    The zero-diagonal tridiagonal T = Q diag(lambda) Q^T with off-diagonal
    b gives phi_n(t) = Re[(-i)^n sum_j Q_nj Q_0j e^(i lambda_j t)]: with
    W_nj = (-1)^(n//2) Q_nj Q_0j, a cosine sum over all eigenpairs for even
    n and a sine sum for odd n.  One eigensolve serves every time, so this
    reaches chains of thousands of sites where a matrix exponential per
    time does not.
    """
    b = np.asarray(b, dtype=np.float64)
    times = np.ravel(times)
    lam, Q = scipy.linalg.eigh_tridiagonal(np.zeros(b.size + 1), b)
    W = Q * Q[0]
    W[2::4] *= -1.0
    W[3::4] *= -1.0
    arg = np.outer(times, lam)
    phi = np.empty((times.size, b.size + 1))
    phi[:, 0::2] = np.cos(arg) @ W[0::2].T
    phi[:, 1::2] = np.sin(arg) @ W[1::2].T
    return phi


def rk4_amplitudes(b, times, rk4_step=None, norm_tol=1e-6):
    """phi[k, n] from a classical fourth-order Runge-Kutta walk.

    Integrates d/dt phi_n = b_n phi_{n-1} - b_{n+1} phi_{n+1} on the finite
    chain b from phi(0) = e_0, forward through the non-negative times and
    backward from 0 through the negative ones, in substeps of at most
    rk4_step (default min(grid spacing, 0.005 / max b)).  Raises
    RuntimeError where the norm drifts from 1 by more than norm_tol.
    """
    b = np.asarray(b, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    n_sites = b.size + 1
    if rk4_step is None:
        spacing = float(np.min(np.diff(times))) if times.size > 1 else np.inf
        rk4_step = min(0.005 / float(b.max()), spacing)

    def deriv(phi):
        out = np.zeros_like(phi)
        out[1:] = b * phi[:-1]
        out[:-1] -= b * phi[1:]
        return out

    out = np.empty((times.size, n_sites))
    start = int(np.searchsorted(times, 0.0))
    for order in (range(start - 1, -1, -1), range(start, times.size)):
        phi = np.zeros(n_sites)
        phi[0] = 1.0
        t_prev = 0.0
        for k in order:
            span = float(times[k]) - t_prev
            nsub = int(np.ceil(abs(span) / rk4_step)) if span else 0
            for _ in range(nsub):
                h = span / nsub
                k1 = deriv(phi)
                k2 = deriv(phi + 0.5 * h * k1)
                k3 = deriv(phi + 0.5 * h * k2)
                k4 = deriv(phi + h * k3)
                phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_prev = float(times[k])
            drift = abs(float(phi @ phi) - 1.0)
            if drift > norm_tol:
                raise RuntimeError(
                    f"rk4 lost unit norm at t = {t_prev:g} (drift {drift:.3e}); "
                    "reduce rk4_step"
                )
            out[k] = phi
    return out


def amplitude_series(b, order):
    """Taylor coefficients a[n, k] of phi_n(t) = sum_k a[n, k] t^k.

    Generated directly from d/dt phi_n = b_n phi_{n-1} - b_{n+1} phi_{n+1}
    on the finite chain b (b_{N} = 0 past the end).
    """
    b = np.asarray(b, dtype=np.float64)
    n_sites = b.size + 1
    a = np.zeros((n_sites, order + 1))
    a[0, 0] = 1.0
    for k in range(order):
        for n in range(n_sites):
            acc = 0.0
            if n >= 1:
                acc += b[n - 1] * a[n - 1, k]
            if n + 1 < n_sites:
                acc -= b[n] * a[n + 1, k]
            a[n, k + 1] = acc / (k + 1)
    return a


def complexity_series(b, order=8):
    """Taylor coefficients c[m] of K(t) = sum_m c[m] t^m (odd ones vanish)."""
    a = amplitude_series(b, order)
    n_sites = a.shape[0]
    c = np.zeros(order + 1)
    for m in range(order + 1):
        for n in range(1, n_sites):
            c[m] += n * sum(a[n, j] * a[n, m - j] for j in range(m + 1))
    return c
