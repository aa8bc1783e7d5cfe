import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbound import lanczos
from kbound.errors import NumericalError, ValidationError
from kbound.lanczos import (
    DEFAULT_HALT_TOL,
    LanczosResult,
    ReorthPolicy,
    _reorthogonalize,
    _qd,
    default_policy,
    load_result_json,
    max_chain_length,
    orthogonality_report,
    result_to_dict,
    run_lanczos,
    save_coefficients_csv,
    save_result_json,
)
from kbound.operators import InnerProductSpec, OperatorVector, _Frame
from kbound.ensembles import goe_sample, uniform_observable
from oracles import (
    gauss_rule_mismatch,
    gram_schmidt_lanczos,
    liouvillian_measure,
    random_hermitian,
    qd_chain,
    rkpw_chain,
    rkpw_pair_chain,
    stieltjes_chain,
    thermal_trace_product,
    trace_product,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])
SQRT2 = math.sqrt(2.0)


def cold_thermal_pair():
    """H with levels 0, 0.11, 0.23, 0.37, 50, 61 in a random frame, and a
    random real symmetric seed."""
    rng = np.random.default_rng(1)
    Q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    H = Q @ np.diag([0.0, 0.11, 0.23, 0.37, 50.0, 61.0]) @ Q.T
    A = rng.normal(size=(6, 6))
    return H, A + A.T


def heisenberg_chain_z0(n=4):
    """Heisenberg chain on n sites with seed Z on the first site."""
    paulis = (SX, np.array([[0.0, -1j], [1j, 0.0]]), SZ)

    def site(k, P):
        out = np.eye(1)
        for j in range(n):
            out = np.kron(out, P if j == k else np.eye(2))
        return out

    H = sum(site(k, P) @ site(k + 1, P) for k in range(n - 1) for P in paulis)
    return H, site(0, SZ)


class TestQubitChains:
    # Chains small enough to work out by hand.

    def test_mixed_seed(self):
        res = run_lanczos(SZ, SX + SZ)
        np.testing.assert_allclose(res.b, [SQRT2, SQRT2], atol=1e-12)
        assert res.D == 3
        assert not res.truncated

    def test_rotating_seed_terminates_at_two(self):
        res = run_lanczos(SZ, SX)
        np.testing.assert_allclose(res.b, [2.0], atol=1e-12)
        assert res.D == 2

    def test_conserved_seed_is_a_fixed_point(self):
        res = run_lanczos(SZ, SZ)
        assert res.D == 1
        assert res.b.size == 0

    def test_matrix_unit_seed_violates_diagonal_property(self):
        E01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match="property 2"):
            run_lanczos(SZ, E01)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValidationError, match="zero norm"):
            run_lanczos(SZ, np.zeros((2, 2)))


class TestAgainstGramSchmidtOracle:
    def test_flat_product(self, rng):
        for d in (2, 3, 4):
            H = random_hermitian(rng, d)
            O = random_hermitian(rng, d)
            res = run_lanczos(H, O)
            b_ref, _ = gram_schmidt_lanczos(
                H, O.astype(np.complex128), lambda A, B: trace_product(A, B, 1.0 / d)
            )
            assert res.b.size == b_ref.size
            np.testing.assert_allclose(res.b, b_ref, atol=1e-8)

    def test_thermal_product(self, rng):
        d = 3
        beta = 0.9
        H = random_hermitian(rng, d)
        O = random_hermitian(rng, d)
        spec = InnerProductSpec(beta=beta, hamiltonian=H)
        res = run_lanczos(H, OperatorVector.from_matrix(O, spec))
        b_ref, _ = gram_schmidt_lanczos(
            H, O.astype(np.complex128),
            lambda A, B: thermal_trace_product(H, beta, A, B),
        )
        assert res.b.size == b_ref.size
        np.testing.assert_allclose(res.b, b_ref, atol=1e-8)

    def test_oracle_stops_at_the_measure_nodes(self):
        # The Liouvillian measure of this seed has 23 nodes; without the node
        # bound the oracle resolved rounding noise up to D = 51.
        H, O = heisenberg_chain_z0()
        b_ref, ops = gram_schmidt_lanczos(
            H, O.astype(np.complex128), lambda A, B: trace_product(A, B, 1.0 / 16)
        )
        assert len(ops) == 23
        np.testing.assert_allclose(b_ref, run_lanczos(H, O).b, rtol=0, atol=1e-8)

    def test_basis_is_orthonormal_under_the_declared_product(self, rng):
        d = 4
        H = random_hermitian(rng, d)
        res = run_lanczos(H, random_hermitian(rng, d))
        report = orthogonality_report(res)
        assert report.gram.shape == (res.D, res.D)
        assert np.max(np.abs(report.gram - np.eye(res.D))) < 1e-10


class TestChainLength:
    def test_max_chain_length_formula(self):
        assert max_chain_length(2) == 3
        assert max_chain_length(8) == 57
        assert max_chain_length(32) == 993

    def test_generic_seed_reaches_the_cap(self, rng):
        d = 8
        H = goe_sample(d, seed=rng)
        res = run_lanczos(H, uniform_observable(H), store_basis=False)
        assert res.D == max_chain_length(d)
        assert not res.truncated

    def test_never_exceeds_the_cap(self, rng):
        for d in (2, 3, 5):
            H = random_hermitian(rng, d)
            res = run_lanczos(H, random_hermitian(rng, d), store_basis=False)
            assert res.D <= max_chain_length(d)

    def test_max_steps_truncates(self, rng):
        d = 6
        H = goe_sample(d, seed=rng)
        res = run_lanczos(H, uniform_observable(H), max_steps=3, store_basis=False)
        assert res.truncated
        assert res.b.size == 3
        assert res.D == 4


class TestReorthPolicies:
    def test_policy_validation(self):
        for mode in ("sometimes", "partial", "none"):
            with pytest.raises(ValidationError):
                ReorthPolicy(mode)

    def test_default_is_full_at_every_dimension(self):
        for d in (2, 64, 65):
            assert default_policy(d).mode == "full"

    def test_default_keeps_the_basis_orthogonal(self, rng):
        d = 16
        H = goe_sample(d, seed=rng)
        res = run_lanczos(H, uniform_observable(H))
        assert res.D == max_chain_length(d)
        assert res.ortho_error < 1e-6

    def test_full_mode_orthogonality_at_goe_scale(self, rng):
        d = 32
        H = goe_sample(d, seed=rng)
        res = run_lanczos(H, uniform_observable(H))
        assert res.D == max_chain_length(d)
        assert res.ortho_error < 1e-8


def _ledger_draw(seed, realization, d):
    """Realization ``realization`` of the GOE ledger seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(realization,))
    return goe_sample(d, 1.0, ss)


class TestWholeChainOracle:
    # Every coefficient is checked through the Gauss rule of the whole chain.
    # Ledger seed 11 realization 1 and seed 8 realization 0 at d = 32, and
    # seed 7 realization 0 at d = 48, are draws whose chain tail the former
    # operator-space recursion got wrong (node errors 6.5e-3, 6.3e-6, 4.3e-3).
    TOL = 1e-10

    def _check(self, H):
        obs = uniform_observable(H)
        res = run_lanczos(H, obs, store_basis=False)
        assert res.D == max_chain_length(H.shape[0])
        node_err, weight_err = gauss_rule_mismatch(res.b, H, obs.to_matrix())
        assert node_err <= self.TOL
        assert weight_err <= self.TOL

    @pytest.mark.parametrize(
        "seed, realization, d",
        [(7, 0, 8), (7, 0, 16), (7, 0, 32), (11, 1, 32), (8, 0, 32), (7, 0, 48)],
    )
    def test_ledger_draws(self, seed, realization, d):
        self._check(_ledger_draw(seed, realization, d))

    def test_fixture_draw(self, rng):
        self._check(goe_sample(12, seed=rng))

    def test_rkpw_oracle_equals_the_stieltjes_oracle(self):
        pytest.importorskip("mpmath")
        H = _ledger_draw(7, 0, 8)
        nodes, weights, _ = liouvillian_measure(H, uniform_observable(H).to_matrix())
        np.testing.assert_array_equal(rkpw_chain(nodes, weights),
                                      stieltjes_chain(nodes, weights))

    def test_whole_chain_against_high_precision(self):
        # Every coefficient of a d = 16 chain, on both paths.
        pytest.importorskip("mpmath")
        H = _ledger_draw(7, 0, 16)
        obs = uniform_observable(H)
        nodes, weights, _ = liouvillian_measure(H, obs.to_matrix())
        ref = rkpw_chain(nodes, weights)
        for store_basis in (False, True):
            res = run_lanczos(H, obs, store_basis=store_basis)
            assert res.D == ref.size + 1 == max_chain_length(16)
            np.testing.assert_allclose(res.b, ref, rtol=0, atol=1e-12 * np.max(ref))

    def test_cold_thermal_chain_against_high_precision(self):
        # At beta = 40 the thermal weights of this draw span ~100 decades; the
        # former recursion got its chain tail wrong by 3.5e-2 of max b.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        d, beta = 6, 40.0
        H = random_hermitian(rng, d)
        O = random_hermitian(rng, d)
        spec = InnerProductSpec(beta=beta, hamiltonian=H)
        res = run_lanczos(H, OperatorVector.from_matrix(O, spec), store_basis=False)
        nodes, weights, _ = liouvillian_measure(H, O, beta)
        ref = stieltjes_chain(nodes, weights)
        assert res.b.size == ref.size
        np.testing.assert_allclose(res.b, ref, rtol=0, atol=self.TOL * np.max(ref))

    def test_chain_with_underflowing_thermal_weights(self, recwarn):
        # Levels at 50 and 61 put e^{-beta (E_i + E_j) / 2} below the
        # smallest double at beta = 40 for 20 of the 36 slots; those slots
        # carry no mass, and the chain is that of the other 16.
        pytest.importorskip("mpmath")
        H, O = cold_thermal_pair()
        spec = InnerProductSpec(beta=40.0, hamiltonian=H)
        assert np.count_nonzero(_Frame(spec, 6).sqrt_weights == 0.0) == 20
        res = run_lanczos(H, OperatorVector.from_matrix(O, spec), store_basis=False)
        nodes, weights, _ = liouvillian_measure(H, O, 40.0)
        ref = stieltjes_chain(nodes, weights)
        assert res.D == 13
        assert res.b.size == ref.size
        np.testing.assert_allclose(res.b, ref, rtol=0, atol=self.TOL * np.max(ref))
        assert not recwarn.list


class TestReorthogonalization:
    def test_cancelling_pass_is_repeated(self, rng):
        # w lies within 1e-8 of the span of B: the first pass cancels almost
        # all of it and leaves rounding of size eps * ||c|| along B, far
        # above 1e-14 of what remains; the second pass removes it.
        B = np.linalg.qr(rng.normal(size=(200, 40)))[0].T
        w = B.T @ rng.normal(size=40) + 1e-8 * rng.normal(size=200)
        w, passes = _reorthogonalize(w, B)
        assert passes == 2
        assert np.linalg.norm(B @ w) <= 1e-14 * np.linalg.norm(w)

    def test_fresh_direction_takes_one_pass(self, rng):
        B = np.linalg.qr(rng.normal(size=(200, 40)))[0].T
        w, passes = _reorthogonalize(rng.normal(size=200), B)
        assert passes == 1
        assert np.linalg.norm(B @ w) <= 1e-14 * np.linalg.norm(w)

    def test_one_pass_per_step_on_a_goe_chain(self):
        # Two passes at every step would give 2 D; only the halting step
        # needs the second one.  A stored basis runs the Gram-Schmidt path.
        H = _ledger_draw(7, 0, 32)
        res = run_lanczos(H, uniform_observable(H), store_basis=True)
        assert res.D == max_chain_length(32)
        assert res.D <= res.reorth_passes <= res.D + 1

    def test_chain_rebuilt_from_the_measure_makes_no_pass(self):
        H = _ledger_draw(7, 0, 8)
        res = run_lanczos(H, uniform_observable(H), store_basis=False)
        assert res.D == max_chain_length(8)
        assert res.reorth_passes == 0

    def test_stored_basis_of_a_goe_chain(self, rng):
        H = goe_sample(24, seed=rng)
        res = run_lanczos(H, uniform_observable(H))
        assert res.D == max_chain_length(24)
        assert res.ortho_error <= 1e-13

    def test_stored_basis_of_a_cold_thermal_chain(self):
        # At beta = 40 the weights span ~100 decades, so the returned
        # operators would reach 5e46 and operator coordinates cannot hold
        # their thermal orthogonality: the stored basis is refused.  The
        # chain alone stays exact.
        rng = np.random.default_rng(0)
        d = 6
        H = random_hermitian(rng, d)
        O = random_hermitian(rng, d)
        spec = InnerProductSpec(beta=40.0, hamiltonian=H)
        with pytest.raises(NumericalError, match="orthonormal only.*store_basis=False"):
            run_lanczos(H, OperatorVector.from_matrix(O, spec))
        pytest.importorskip("mpmath")
        res = run_lanczos(H, OperatorVector.from_matrix(O, spec), store_basis=False)
        ref = stieltjes_chain(*liouvillian_measure(H, O, 40.0)[:2])
        assert res.b.size == ref.size
        np.testing.assert_allclose(res.b, ref, rtol=0, atol=1e-13 * np.max(ref))

    def test_stored_basis_with_underflowing_weights_is_refused(self):
        # The rebuild divides by the weights, so slots whose weight is 0
        # would fill the basis with NaN.
        H, O = cold_thermal_pair()
        spec = InnerProductSpec(beta=40.0, hamiltonian=H)
        with pytest.raises(NumericalError, match="stored basis.*store_basis=False"):
            run_lanczos(H, OperatorVector.from_matrix(O, spec))


class TestRkpwAgainstGramSchmidt:
    # A run without a stored basis, capped or not, rebuilds the chain from
    # the measure by qd insertion; a stored basis, or a qd chain that is not
    # finite, runs the Gram-Schmidt recursion.

    def _same_chain(self, H, O):
        gs = run_lanczos(H, O, store_basis=True)
        rk = run_lanczos(H, O, store_basis=False)
        assert rk.D == gs.D
        np.testing.assert_allclose(rk.b, gs.b, rtol=0, atol=1e-12 * np.max(gs.b))
        return rk.D

    def test_goe_chain(self, rng):
        H = goe_sample(24, seed=rng)
        assert self._same_chain(H, uniform_observable(H)) == max_chain_length(24)

    def test_degenerate_spin_chain(self):
        assert self._same_chain(*heisenberg_chain_z0()) == 23

    def test_complex_thermal_chain(self):
        rng = np.random.default_rng(5)
        d = 16
        H = random_hermitian(rng, d, 1.0 / np.sqrt(d))
        spec = InnerProductSpec(beta=0.5, hamiltonian=H)
        O = OperatorVector.from_matrix(random_hermitian(rng, d, 1.0 / np.sqrt(d)), spec)
        assert self._same_chain(H, O) == max_chain_length(d)

    def test_capped_chain_is_the_head_of_the_full_one(self, rng):
        # The capped qd sweeps give the full chain's head bit for bit; a
        # cap at or past the end of the halted chain is no truncation.
        H = goe_sample(24, seed=rng)
        obs = uniform_observable(H)
        full = run_lanczos(H, obs, store_basis=False)
        n = full.b.size
        for k in (1, 2, 10, 300, n - 1, n, n + 5):
            capped = run_lanczos(H, obs, max_steps=k, store_basis=False)
            np.testing.assert_array_equal(capped.b, full.b[:k])
            assert (capped.D, capped.truncated, capped.reorth_passes) == \
                (min(k, n) + 1, k < n, 0)

    def test_capped_recursion_agrees_with_the_capped_chain(self, rng):
        # A stored basis still takes the Gram-Schmidt recursion under a cap.
        H = goe_sample(24, seed=rng)
        obs = uniform_observable(H)
        for k in (1, 10, 300):
            gs = run_lanczos(H, obs, max_steps=k, store_basis=True)
            rk = run_lanczos(H, obs, max_steps=k, store_basis=False)
            assert gs.truncated
            assert gs.reorth_passes >= k
            np.testing.assert_allclose(gs.b, rk.b, rtol=0, atol=1e-12 * np.max(rk.b))

    def test_capped_chain_memory(self):
        # Capped at 800 coefficients, the d = 48 chain holds no Krylov
        # family: the recursion's two 401 x 1129 families took 7.4 MB.
        H = _ledger_draw(7, 0, 48)
        obs = uniform_observable(H)
        tracemalloc.start()
        try:
            res = run_lanczos(H, obs, max_steps=800, store_basis=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.b.size == 800 and res.truncated
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("node0", [False, True])
    @pytest.mark.parametrize("columns", [(), (3,)])
    def test_bound_stops_at_the_head(self, rng, node0, columns):
        # On a single measure and on (n, r) columns, with and without node 0.
        s = np.sort(rng.uniform(0.1, 1.0, size=(30,) + columns), axis=0)
        m = rng.uniform(0.1, 1.0, size=(30,) + columns)
        w0 = rng.uniform(0.1, 1.0, size=columns) if node0 else np.zeros(columns)
        full = _qd(w0, s, m)
        n = full.shape[0]
        assert n == int(node0) + 59
        for last in (1, 2, 31, n, n + 7):
            np.testing.assert_array_equal(_qd(w0, s, m, last), full[:last])

    @pytest.mark.parametrize("store_basis", [True, False])
    @pytest.mark.parametrize("nudge", [0.0, 1e-12])
    def test_conserved_seed_halts_at_once(self, rng, store_basis, nudge):
        # A nudge above the rounding level still gives b_1 below halt_tol
        # times the spectral width, the first coefficient's halting scale.
        H = random_hermitian(rng, 5)
        O = H @ H - 2.0 * H + nudge * random_hermitian(rng, 5)
        res = run_lanczos(H, O, store_basis=store_basis)
        assert res.D == 1
        assert res.b.size == 0

    def test_wavefront_is_the_pair_loop(self, rng):
        # At 53 bits the qd oracle rounds every operation as float64 does;
        # with and without a node at 0.  At 40 digits it is the RKPW pair
        # loop's chain, which shares none of its arithmetic.
        pytest.importorskip("mpmath")
        s = np.sort(rng.uniform(0.1, 1.0, size=30))
        m = rng.uniform(0.1, 1.0, size=30)
        for w0 in (0.0, 0.7):
            np.testing.assert_array_equal(np.sqrt(_qd(w0, s, m)), qd_chain(w0, s, m, dps=15))
            ref = rkpw_pair_chain(w0, s, 0.5 * m)
            np.testing.assert_allclose(qd_chain(w0, s, m), ref, rtol=1e-15, atol=0)

    def test_zero_weight_gives_a_non_finite_chain(self, rng):
        s = np.sort(rng.uniform(0.1, 1.0, size=30))
        m = rng.uniform(0.1, 1.0, size=30)
        m[[0, 17]] = 0.0
        assert not np.all(np.isfinite(_qd(0.7, s, m)))

    def test_non_finite_chain_falls_back_to_the_recursion(self, rng, monkeypatch):
        H = goe_sample(12, seed=rng)
        obs = uniform_observable(H)
        gs = run_lanczos(H, obs, store_basis=True)
        monkeypatch.setattr(lanczos, "_qd", lambda *args: np.array([np.nan]))
        res = run_lanczos(H, obs, store_basis=False)
        np.testing.assert_array_equal(res.b, gs.b)
        assert (res.D, res.truncated) == (gs.D, False)
        assert res.reorth_passes == gs.reorth_passes > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_close_nodes(self, seed, monkeypatch):
        # The folded measure of a d = 16 GOE chain (node 0 and 120 pairs,
        # 241 nodes unfolded), with one pair moved to a relative gap of 1e-8
        # from its neighbour.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        H = goe_sample(16, seed=rng)
        folded = []
        monkeypatch.setattr(lanczos, "_qd", lambda *args: folded.append(args) or _qd(*args))
        run_lanczos(H, uniform_observable(H), store_basis=False)
        w0, s, m = folded[0][:3]
        assert w0 > 0.0 and s.size == 120
        k = rng.integers(s.size - 1)
        s = s.copy()
        s[k + 1] = s[k] * (1.0 + 1e-8)
        nodes = np.concatenate([[0.0], np.stack([s, -s], 1).ravel()])
        ref = rkpw_chain(nodes, np.concatenate([[w0], np.repeat(0.5 * m, 2)]))
        np.testing.assert_allclose(np.sqrt(_qd(w0, s, m)), ref, rtol=0,
                                   atol=1e-13 * np.max(ref))


class TestBatchedChains:
    # lanczos._run_batch runs the full chains of many measures through one
    # qd wavefront, a column per chain, each bit for bit its own run.

    @pytest.mark.parametrize("node0", [False, True])
    def test_columns_are_single_calls(self, rng, node0):
        s = np.sort(rng.uniform(0.1, 1.0, size=(30, 3)), axis=0)
        m = rng.uniform(0.1, 1.0, size=(30, 3))
        w0 = rng.uniform(0.1, 1.0, size=3) if node0 else np.zeros(3)
        batch = _qd(w0, s, m)
        assert batch.shape == (int(node0) + 59, 3)
        for c in range(3):
            np.testing.assert_array_equal(batch[:, c], _qd(w0[c], s[:, c], m[:, c]))
        # At 53 bits the oracle rounds every operation as float64 does.
        pytest.importorskip("mpmath")
        for c in range(3):
            np.testing.assert_array_equal(np.sqrt(batch[:, c]),
                                          qd_chain(w0[c], s[:, c], m[:, c], dps=15))

    def test_batch_mixes_node_counts(self, rng):
        # Two GOE chains share a group; the degenerate spin chain has fewer
        # nodes, and a seed with no weight on the diagonal of H's frame
        # drops node 0.  A one-sided measure fails in its own place.
        H1, H2 = goe_sample(6, seed=rng), goe_sample(6, seed=rng)
        _, V = np.linalg.eigh(H1)
        A = rng.normal(size=(6, 6))
        A = A + A.T
        np.fill_diagonal(A, 0.0)
        pairs = [(H1, uniform_observable(H1)), heisenberg_chain_z0(),
                 (H2, uniform_observable(H2)), (SZ, np.array([[0.0, 1.0], [0.0, 0.0]])),
                 (H1, V @ A @ V.T)]
        runs = [0, 1, 2, 4]
        folds = [lanczos._fold(*pairs[k], None, DEFAULT_HALT_TOL, None, False) for k in runs]
        groups = {(f.node0, f.s.size) for f in folds}
        assert len(groups) == 3 and {node0 for node0, _ in groups} == {False, True}
        out = lanczos._run_batch(pairs)
        assert isinstance(out[3], NumericalError) and "property 2" in str(out[3])
        for k in runs:
            alone = run_lanczos(*pairs[k], store_basis=False)
            np.testing.assert_array_equal(out[k].b, alone.b)
            assert (out[k].D, out[k].truncated, out[k].reorth_passes) == \
                (alone.D, alone.truncated, 0)

    def test_non_finite_column_falls_back_alone(self, rng, monkeypatch):
        Hs = [goe_sample(8, seed=rng) for _ in range(3)]
        pairs = [(H, uniform_observable(H)) for H in Hs]
        alone = [run_lanczos(*pair, store_basis=False) for pair in pairs]
        gs = run_lanczos(*pairs[1], store_basis=True)

        def poisoned(w0, s, m):
            out = _qd(w0, s, m)
            out[-1, 1] = np.nan
            return out

        monkeypatch.setattr(lanczos, "_qd", poisoned)
        out = lanczos._run_batch(pairs)
        np.testing.assert_array_equal(out[1].b, gs.b)
        assert out[1].reorth_passes == gs.reorth_passes > 0
        for k in (0, 2):
            np.testing.assert_array_equal(out[k].b, alone[k].b)
            assert out[k].reorth_passes == 0


class TestMeasureFold:
    def test_aggregate_symmetry_is_accepted(self):
        # omega_01 = -1 and omega_32 = +1 carry one weight each: the measure
        # is symmetric only across the degenerate pairs at s = 1.
        H = np.diag([0.0, 1.0, 1.0, 2.0])
        O = np.zeros((4, 4))
        O[0, 1] = O[3, 2] = 1.0
        res = run_lanczos(H, O)
        np.testing.assert_allclose(res.b, [1.0], atol=1e-12)
        assert res.D == 2

    def test_one_sided_measure_is_rejected(self):
        E01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match="property 2"):
            run_lanczos(SZ, E01)

    def test_degenerate_spin_chain(self):
        # Levels are degenerate up to rounding, and many frame entries of the
        # seed are rounding noise.  The chain must stop at the 23 distinct
        # frequencies that carry weight instead of resolving the noise.
        H, O = heisenberg_chain_z0()
        res = run_lanczos(H, O)
        assert res.D == 23
        assert res.ortho_error < 1e-12
        node_err, weight_err = gauss_rule_mismatch(res.b, H, O, merge_tol=1e-9,
                                                   floor=1e-20)
        assert node_err <= 1e-10
        assert weight_err <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        d=st.integers(min_value=2, max_value=5),
        c=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_scale_covariance(self, seed, d, c):
        rng = np.random.default_rng(seed)
        H = random_hermitian(rng, d)
        O = random_hermitian(rng, d)
        base = run_lanczos(H, O, store_basis=False)
        scaled = run_lanczos(c * H, O, store_basis=False)
        assert scaled.D == base.D
        np.testing.assert_allclose(scaled.b, c * base.b, rtol=0,
                                   atol=1e-10 * c * np.max(base.b))

    @pytest.mark.parametrize("store_basis", [False, True])
    @pytest.mark.parametrize("c", [1e-15, 1e-11, 1.0, 1e6])
    def test_halting_is_unit_free(self, store_basis, c):
        # The first step halts relative to the omega width alone; with a
        # floor of 1 on it, a d = 8 GOE chain at c = 1e-11 stopped at D = 1.
        H = goe_sample(8, seed=1)
        O = uniform_observable(H)
        base = run_lanczos(H, O, store_basis=False)
        scaled = run_lanczos(c * H, O, store_basis=store_basis)
        assert scaled.D == base.D == 57
        np.testing.assert_allclose(scaled.b / c, base.b, rtol=0,
                                   atol=1e-12 * np.max(base.b))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        d=st.integers(min_value=2, max_value=5),
    )
    def test_unitary_invariance(self, seed, d):
        rng = np.random.default_rng(seed)
        H = random_hermitian(rng, d)
        O = random_hermitian(rng, d)
        U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        base = run_lanczos(H, O, store_basis=False)
        rotated = run_lanczos(U @ H @ U.conj().T, U @ O @ U.conj().T,
                              store_basis=False)
        assert rotated.D == base.D
        np.testing.assert_allclose(rotated.b, base.b, rtol=0,
                                   atol=1e-10 * np.max(base.b))


class TestOrthogonalityReport:
    def _loop_gram(self, res, product):
        ops = [res.basis[n].reshape((res.dim, res.dim), order="F") for n in range(res.D)]
        return np.array([[product(a, b) for b in ops] for a in ops])

    def test_matches_pairwise_products(self, rng):
        d = 4
        H = random_hermitian(rng, d)
        O = random_hermitian(rng, d)
        thermal = InnerProductSpec(beta=0.7, hamiltonian=H)
        cases = [
            (run_lanczos(H, O, spec=InnerProductSpec(normalization=2.0)),
             lambda A, B: trace_product(A, B, 2.0)),
            (run_lanczos(H, OperatorVector.from_matrix(O, thermal)),
             lambda A, B: thermal_trace_product(H, 0.7, A, B)),
        ]
        for res, product in cases:
            report = orthogonality_report(res)
            np.testing.assert_allclose(report.gram, self._loop_gram(res, product),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_ortho_error_is_read_off_the_report(self, beta):
        # ortho_error is measured on the basis the result returns, by the
        # report's own Gram matrix, so the two agree bit for bit.
        d = 16
        H = goe_sample(d, seed=np.random.default_rng(1601))
        spec = InnerProductSpec(beta, None, H if beta else None)
        res = run_lanczos(H, OperatorVector.from_matrix(uniform_observable(H).to_matrix(),
                                                        spec))
        assert res.D == max_chain_length(d)
        gram = orthogonality_report(res).gram
        assert res.ortho_error == float(np.max(np.abs(gram - np.eye(res.D))))

    def test_reloaded_thermal_result_names_the_missing_hamiltonian(self, rng, tmp_path):
        d = 4
        H = random_hermitian(rng, d)
        spec = InnerProductSpec(beta=0.5, hamiltonian=H)
        res = run_lanczos(H, OperatorVector.from_matrix(random_hermitian(rng, d), spec))
        path = tmp_path / "thermal.json"
        save_result_json(res, path, include_basis=True)
        back = load_result_json(path)
        assert back.spec.beta == 0.5
        assert back.spec.hamiltonian is None
        with pytest.raises(ValidationError, match="Hamiltonian"):
            orthogonality_report(back)


class TestArgumentHandling:
    def test_bad_halt_tol(self, rng):
        H = random_hermitian(rng, 2)
        with pytest.raises(ValidationError):
            run_lanczos(H, SX, halt_tol=0.0)
        with pytest.raises(ValidationError):
            run_lanczos(H, SX, halt_tol=1.0)

    def test_bad_max_steps(self):
        with pytest.raises(ValidationError):
            run_lanczos(SZ, SX, max_steps=0)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValidationError):
            run_lanczos(SZ, random_hermitian(rng, 3))

    def test_thermal_spec_binds_to_the_hamiltonian(self, rng):
        d = 3
        H = random_hermitian(rng, d)
        res = run_lanczos(H, random_hermitian(rng, d),
                          spec=InnerProductSpec(beta=0.5, hamiltonian=H))
        assert res.spec.hamiltonian is not None

    def test_thermal_spec_with_foreign_hamiltonian_rejected(self, rng):
        d = 3
        H = random_hermitian(rng, d)
        other = random_hermitian(rng, d)
        spec = InnerProductSpec(beta=0.5, hamiltonian=other)
        with pytest.raises(ValidationError, match="differs"):
            run_lanczos(H, OperatorVector.from_matrix(random_hermitian(rng, d)),
                        spec=spec)

    def test_store_basis_false_skips_diagnostics(self, rng):
        d = 4
        H = random_hermitian(rng, d)
        res = run_lanczos(H, random_hermitian(rng, d), store_basis=False)
        assert res.basis is None
        assert res.ortho_error is None
        with pytest.raises(ValidationError):
            orthogonality_report(res)


class TestSerialization:
    def test_json_round_trip(self, rng, tmp_path):
        d = 3
        H = random_hermitian(rng, d)
        res = run_lanczos(H, random_hermitian(rng, d))
        path = tmp_path / "res.json"
        save_result_json(res, path, include_basis=True)
        back = load_result_json(path)
        np.testing.assert_array_equal(back.b, res.b)
        assert back.D == res.D
        assert back.dim == res.dim
        assert back.halt_tol == res.halt_tol
        assert back.truncated == res.truncated
        assert back.reorth_passes == res.reorth_passes > 0
        np.testing.assert_allclose(back.basis, res.basis, atol=0.0)

    def test_D_is_read_off_b(self, tmp_path):
        res = LanczosResult(b=np.array([1.0, 2.0]), dim=2, spec=InnerProductSpec())
        assert res.D == 3
        path = tmp_path / "res.json"
        save_result_json(res, path)
        assert json.loads(path.read_text())["D"] == 3
        assert load_result_json(path).D == 3

    def test_basis_excluded_by_default(self, rng, tmp_path):
        d = 3
        H = random_hermitian(rng, d)
        res = run_lanczos(H, random_hermitian(rng, d))
        path = tmp_path / "res.json"
        save_result_json(res, path)
        assert load_result_json(path).basis is None

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "res.json"
        path.write_text('{"b": [1.0]}')
        with pytest.raises(ValidationError, match="D"):
            load_result_json(path)

    @pytest.mark.parametrize("payload, field", [
        ({"realizations": [1, 2]}, "'b'"),
        ({"b": "x", "D": 2, "dim": 2}, "'b'"),
        ({"b": [1.0], "D": "two", "dim": 2}, "'D'"),
        ({"b": [1.0], "D": 2, "dim": [2]}, "'dim'"),
        ({"b": [1.0], "D": 2, "dim": 2, "beta": "hot"}, "'beta'"),
        ({"b": [1.0], "D": 2, "dim": 2, "beta": -1.0}, "'beta'"),
        ({"b": [1.0], "D": 2, "dim": 2, "halt_tol": "x"}, "'halt_tol'"),
        ({"b": [1.0], "D": 2, "dim": 2, "normalization": "x"}, "'normalization'"),
        ({"b": [1.0], "D": 2, "dim": 2, "basis": [1]}, "'basis'"),
        ({"b": [1.0], "D": 2, "dim": 2, "basis": {"re": [[1.0]]}}, "'basis'"),
        ({"b": [1.0], "D": 2, "dim": 2, "basis": {"re": [1.0], "im": [0.0]}},
         "'basis'"),
        ({"b": [1.0], "D": 2, "dim": 2, "truncated": "false"}, "'truncated'"),
        ({"b": [1.0], "D": 2, "dim": 2, "ortho_error": "x"}, "'ortho_error'"),
        ({"b": [[1.0, 2.0]], "D": 3, "dim": 2}, "'b'"),
        ({"b": [1, 2], "D": 3.9, "dim": 2}, "'D'"),
        ({"b": [1, 2], "D": 3, "dim": 2.7}, "'dim'"),
        ({"b": [1.0], "D": True, "dim": 2}, "'D'"),
        ({"b": [1.0], "D": 2, "dim": 0}, "'dim'"),
        ({"b": [], "D": 0, "dim": 2}, "'D'"),
        ({"b": [1.0], "D": 2, "dim": 2, "reorth_passes": 1.5}, "'reorth_passes'"),
        ({"b": [1.0], "D": 2, "dim": 2, "reorth_passes": -1}, "'reorth_passes'"),
    ])
    def test_malformed_fields_name_file_and_field(self, tmp_path, payload, field):
        path = tmp_path / "res.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"res.json: .*field {field}"):
            load_result_json(path)

    def test_file_without_pass_count_loads(self, tmp_path):
        path = tmp_path / "res.json"
        path.write_text('{"b": [1.0], "D": 2, "dim": 2}')
        assert load_result_json(path).reorth_passes is None

    def test_coefficients_csv_preserves_all_digits(self, rng, tmp_path):
        b = rng.uniform(0.1, 3.0, size=17)
        path = tmp_path / "b.csv"
        save_coefficients_csv(b, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,b"
        assert len(lines) == 18
        for i, line in enumerate(lines[1:]):
            n, val = line.split(",")
            assert int(n) == i + 1
            assert float(val) == b[i]

    def test_csv_to_file_like(self):
        buf = io.StringIO()
        save_coefficients_csv([1.5, 2.5], buf)
        assert buf.getvalue().splitlines() == ["n,b", "1,1.5", "2,2.5"]

    def test_result_to_dict_is_json_clean(self, rng):
        d = 3
        H = random_hermitian(rng, d)
        res = run_lanczos(H, random_hermitian(rng, d))
        out = result_to_dict(res)
        assert isinstance(out["b"][0], float)
        assert isinstance(out["D"], int)
        assert out["beta"] == 0.0
