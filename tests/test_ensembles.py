import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbound._util as _util
import kbound.ensembles as ens
from kbound import lanczos
from kbound.ensembles import (
    GoeSpec,
    ensemble_to_dict,
    goe_sample,
    run_ensemble,
    save_ensemble_csv,
    save_ensemble_json,
    uniform_observable,
)
from kbound import cli
from kbound.dynamics import complexity_profile, evolve_amplitudes
from kbound.errors import NumericalError, ValidationError
from kbound.lanczos import max_chain_length, run_lanczos
from kbound.operators import InnerProductSpec
from oracles import trace_product


class TestGoeSample:
    def test_symmetric_and_real(self):
        H = goe_sample(12, 1.0, seed=3)
        assert H.dtype == np.float64
        np.testing.assert_array_equal(H, H.T)

    def test_deterministic_by_seed(self):
        np.testing.assert_array_equal(goe_sample(8, 2.0, seed=11),
                                      goe_sample(8, 2.0, seed=11))
        assert not np.array_equal(goe_sample(8, 2.0, seed=11),
                                  goe_sample(8, 2.0, seed=12))

    def test_accepts_generator_and_seed_sequence(self):
        a = goe_sample(6, 1.0, seed=np.random.SeedSequence(5))
        b = goe_sample(6, 1.0,
                       seed=np.random.Generator(np.random.PCG64(
                           np.random.SeedSequence(5))))
        np.testing.assert_array_equal(a, b)

    def test_variance_profile(self):
        # Pool many draws: Var = sigma^2 on the diagonal, sigma^2 / 2 off it.
        sigma = 1.5
        rng = np.random.default_rng(77)
        diag, off = [], []
        for _ in range(400):
            m = goe_sample(10, sigma, seed=rng)
            diag.append(np.diag(m))
            off.append(m[np.triu_indices(10, k=1)])
        assert np.var(np.concatenate(diag)) == pytest.approx(sigma**2, rel=0.1)
        assert np.var(np.concatenate(off)) == pytest.approx(sigma**2 / 2, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValidationError):
            goe_sample(0, 1.0)
        with pytest.raises(ValidationError):
            goe_sample(4, -1.0)


class TestUniformObservable:
    def test_unit_norm(self):
        obs = uniform_observable(goe_sample(9, 1.0, seed=2))
        O = obs.to_matrix()
        assert trace_product(O, O, 1.0 / 9).real == pytest.approx(1.0, abs=1e-13)

    def test_all_ones_in_eigenbasis(self):
        H = goe_sample(7, 1.0, seed=4)
        obs = uniform_observable(H)
        _, V = np.linalg.eigh(H)
        rotated = V.conj().T @ obs.to_matrix() @ V
        np.testing.assert_allclose(rotated, np.full((7, 7), rotated[0, 0]),
                                   atol=1e-12)

    def test_rejects_thermal_weighting(self):
        H = goe_sample(5, 1.0, seed=6)
        with pytest.raises(ValidationError, match="beta"):
            uniform_observable(H, InnerProductSpec(beta=0.5, hamiltonian=H))


class TestRunEnsemble:
    def test_small_dims_saturate_chain_bound(self):
        for d in (3, 4):
            res = run_ensemble(GoeSpec(dim=d, sigma=1.0, count=5, seed=1))
            assert res.D_values.tolist() == [max_chain_length(d)] * 5
            assert res.failed == []
            assert res.D_histogram == {max_chain_length(d): 5}

    def test_worker_count_does_not_change_results(self):
        spec = GoeSpec(dim=6, sigma=1.0, count=6, seed=42)
        t = np.linspace(0.0, 1.0, 5)
        serial = run_ensemble(spec, profile_times=t, workers=1)
        parallel = run_ensemble(spec, profile_times=t, workers=2)
        assert ensemble_to_dict(serial) == ensemble_to_dict(parallel)

    def test_child_seed_scheme_is_reproducible_externally(self):
        # Each realization must be recoverable without the ensemble
        # machinery, from the published seed layout alone.
        spec = GoeSpec(dim=5, sigma=2.0, count=4, seed=9)
        res = run_ensemble(spec)
        for i in (0, 3):
            H = goe_sample(5, 2.0,
                           seed=np.random.SeedSequence(entropy=9, spawn_key=(i,)))
            redone = run_lanczos(H, uniform_observable(H), store_basis=False)
            np.testing.assert_array_equal(redone.b, res.b_list[i])

    def test_moments_over_shared_length(self):
        res = run_ensemble(GoeSpec(dim=5, sigma=1.0, count=4, seed=0))
        L = min(b.size for b in res.b_list)
        assert res.mean_b_sq.shape == (L,)
        assert res.std_b_sq.shape == (L,)
        stacked = np.stack([b[:L] ** 2 for b in res.b_list])
        np.testing.assert_array_equal(res.mean_b_sq, stacked.mean(axis=0))
        np.testing.assert_array_equal(res.std_b_sq, stacked.std(axis=0))

    def test_profile_averaging(self):
        t = np.linspace(0.0, 1.0, 11)
        res = run_ensemble(GoeSpec(dim=4, sigma=1.0, count=3, seed=7),
                           profile_times=t)
        assert res.profile is not None
        assert res.profile.ratio.shape == t.shape
        assert np.isnan(res.profile.ratio[0])
        assert np.all(res.profile.complexity >= 0.0)
        defined = ~np.isnan(res.profile.ratio)
        assert np.all(res.profile.ratio[defined] <= 1.0 + 1e-8)

    def test_failures_are_recorded(self, monkeypatch):
        real = ens._draw

        def flaky(dim, sigma, ss):
            if ss.spawn_key == (1,):
                raise NumericalError("synthetic breakdown")
            return real(dim, sigma, ss)

        monkeypatch.setattr(ens, "_draw", flaky)
        res = run_ensemble(GoeSpec(dim=4, sigma=1.0, count=3, seed=5))
        assert res.failed == [(1, "NumericalError: synthetic breakdown")]
        assert res.indices == [0, 2]
        assert len(res.b_list) == 2
        # The failed realization's batch-mates are intact.
        for i, b in zip(res.indices, res.b_list):
            H = goe_sample(4, 1.0, seed=np.random.SeedSequence(entropy=5, spawn_key=(i,)))
            np.testing.assert_array_equal(
                b, run_lanczos(H, uniform_observable(H), store_basis=False).b)

    def test_chain_and_evolution_failures_are_recorded(self, monkeypatch, capsys):
        # A chain that fails inside its batch (realization 1) costs its own
        # realization only.  A march that fails (the batch holding
        # realization 3) costs every chain of that batch, and no chain is
        # evolved again.  26 cells make batches of at most two d = 4
        # realizations (D <= 13 each): {0}, {1, 2} and {3, 4}.
        monkeypatch.setattr(_util, "_BLOCK_CELLS", 26)
        spec = GoeSpec(dim=4, sigma=1.0, count=5, seed=5)
        t = np.linspace(0.0, 1.0, 5)
        clean = run_ensemble(spec, profile_times=t)
        real_fold, real_march = lanczos._fold, ens._batch_profiles
        H1 = goe_sample(4, 1.0, seed=np.random.SeedSequence(entropy=5, spawn_key=(1,)))
        marched = []

        def fold(H, *args):
            if np.array_equal(H.entries, H1):
                raise NumericalError("synthetic chain breakdown")
            return real_fold(H, *args)

        def march(chains, times):
            marched.append(len(chains))
            if any(np.array_equal(b, clean.b_list[3]) for b in chains):
                raise NumericalError("synthetic march breakdown")
            return real_march(chains, times)

        monkeypatch.setattr(lanczos, "_fold", fold)
        monkeypatch.setattr(ens, "_batch_profiles", march)
        res = run_ensemble(spec, profile_times=t, workers=1)
        assert marched == [1, 1, 2]
        assert res.failed == [(1, "NumericalError: synthetic chain breakdown"),
                              (3, "NumericalError: synthetic march breakdown"),
                              (4, "NumericalError: synthetic march breakdown")]
        assert res.indices == [0, 2]
        for i, b in zip(res.indices, res.b_list):
            np.testing.assert_array_equal(b, clean.b_list[i])
        assert cli.main(["goe", "--dim", "4", "--count", "5", "--seed", "5",
                         "--tmax", "1", "--steps", "5"]) == 0
        out, err = capsys.readouterr()
        assert [f["index"] for f in json.loads(out)["failed"]] == [1, 3, 4]
        assert "warning: 3 of 5 realizations failed" in err

    @pytest.mark.parametrize("sigma", [1e-12, 1e6])
    def test_chains_do_not_depend_on_the_unit_of_energy(self, sigma):
        base = run_ensemble(GoeSpec(dim=8, sigma=1.0, count=3, seed=7))
        scaled = run_ensemble(GoeSpec(dim=8, sigma=sigma, count=3, seed=7))
        assert scaled.D_histogram == base.D_histogram == {57: 3}
        for b, ref in zip(scaled.b_list, base.b_list):
            np.testing.assert_allclose(b / sigma, ref, rtol=0, atol=1e-12 * np.max(ref))

    def test_all_failures_raise(self, monkeypatch):
        def broken(dim, sigma, ss):
            raise NumericalError("nope")

        monkeypatch.setattr(ens, "_draw", broken)
        with pytest.raises(NumericalError, match="every realization failed"):
            run_ensemble(GoeSpec(dim=4, sigma=1.0, count=2, seed=5))

    @pytest.mark.parametrize("block_cells", [None, 42])
    def test_shares_and_batches_are_bit_equal(self, monkeypatch, block_cells):
        # 42 cells are batches of at most two d = 5 realizations (D <= 21 each).
        if block_cells is not None:
            monkeypatch.setattr(_util, "_BLOCK_CELLS", block_cells)
        spec = GoeSpec(dim=5, sigma=1.0, count=7, seed=13)
        t = np.linspace(0.0, 1.0, 5)
        runs = [run_ensemble(spec, profile_times=t, workers=w) for w in (1, 2, 3)]
        assert ensemble_to_dict(runs[0]) == ensemble_to_dict(runs[1]) == \
            ensemble_to_dict(runs[2])
        assert runs[0].indices == list(range(7))
        for i, b in zip(runs[0].indices, runs[0].b_list):
            H = goe_sample(5, 1.0, seed=np.random.SeedSequence(entropy=13, spawn_key=(i,)))
            np.testing.assert_array_equal(
                b, run_lanczos(H, uniform_observable(H), store_basis=False).b)

    def test_a_single_batch_runs_one_wavefront_and_starts_no_pool(self, monkeypatch):
        # Six d = 32 realizations are one batch (65 fill _BLOCK_CELLS), so
        # two workers change nothing: this process does all the work.
        widths = []
        real = lanczos._qd

        def qd(w0, s, m, last=None):
            widths.append(s.shape)
            return real(w0, s, m, last)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(lanczos, "_qd", qd)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        res = run_ensemble(GoeSpec(dim=32, sigma=1.0, count=6, seed=7),
                           profile_times=np.linspace(0.0, 3.0, 31), workers=2)
        assert widths == [(496, 6)]
        assert res.indices == list(range(6))

    def test_batches_are_balanced(self):
        # ceil(count / 65) batches at d = 32 (65 chains fill _BLOCK_CELLS),
        # contiguous, their sizes within one of each other: count 100 is
        # 50 + 50, not 65 + 35.
        for count in range(1, 400):
            batches = ens._batches(count, 32)
            sizes = [rows.stop - rows.start for rows in batches]
            assert len(sizes) == -(-count // 65)
            assert max(sizes) - min(sizes) <= 1
            assert [rows.start for rows in batches] == [0] + [rows.stop for rows in batches[:-1]]
            assert batches[-1].stop == count
        assert [rows.stop - rows.start for rows in ens._batches(100, 32)] == [50, 50]
        assert [rows.stop - rows.start for rows in ens._batches(300, 32)] == [60] * 5

    def test_profile_is_the_mean_of_each_realization_alone(self):
        t = np.linspace(0.0, 3.0, 301)
        res = run_ensemble(GoeSpec(dim=32, sigma=1.0, count=6, seed=7), profile_times=t,
                           workers=2)
        alone = [complexity_profile(evolve_amplitudes(b, t)) for b in res.b_list]
        for name in ("complexity", "rate", "dispersion"):
            want = np.mean([getattr(p, name) for p in alone], axis=0)
            got = getattr(res.profile, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_validation(self):
        with pytest.raises(ValidationError):
            GoeSpec(dim=1, sigma=1.0, count=2, seed=0)
        with pytest.raises(ValidationError):
            GoeSpec(dim=4, sigma=0.0, count=2, seed=0)
        with pytest.raises(ValidationError):
            GoeSpec(dim=4, sigma=1.0, count=0, seed=0)
        with pytest.raises(ValidationError):
            run_ensemble(GoeSpec(dim=4, sigma=1.0, count=2, seed=0), workers=0)
        with pytest.raises(ValidationError):
            run_ensemble(GoeSpec(dim=4, sigma=1.0, count=2, seed=0),
                         profile_times=[1.0, 0.5])


class TestSerialization:
    def test_dict_schema(self):
        t = np.linspace(0.0, 0.5, 6)
        res = run_ensemble(GoeSpec(dim=4, sigma=1.0, count=3, seed=2),
                           profile_times=t)
        d = ensemble_to_dict(res)
        assert (d["dim"], d["sigma"], d["count"], d["seed"]) == (4, 1.0, 3, 2)
        assert [r["index"] for r in d["realizations"]] == [0, 1, 2]
        assert all(isinstance(k, str) for k in d["D_histogram"])
        assert d["profile"]["ratio"][0] is None  # undefined at t = 0
        assert d["failed"] == []
        json.dumps(d, allow_nan=False)  # every leaf must be JSON-clean

    def test_profile_none_when_not_requested(self):
        res = run_ensemble(GoeSpec(dim=4, sigma=1.0, count=2, seed=2))
        assert ensemble_to_dict(res)["profile"] is None

    def test_json_round_trip(self, tmp_path):
        t = np.linspace(0.0, 0.5, 4)
        res = run_ensemble(GoeSpec(dim=4, sigma=1.0, count=2, seed=3),
                           profile_times=t)
        path = tmp_path / "ens.json"
        save_ensemble_json(res, path)
        assert json.loads(path.read_text()) == ensemble_to_dict(res)

    def test_csv_summary(self, tmp_path):
        res = run_ensemble(GoeSpec(dim=4, sigma=1.0, count=3, seed=2))
        path = tmp_path / "ens.csv"
        save_ensemble_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,mean_b_sq,std_b_sq"
        assert len(lines) == 1 + res.mean_b_sq.size
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == res.mean_b_sq[0]

    def test_load_rejects_wrong_payload(self, tmp_path, capsys):
        # Ensemble files are read by the CLI's --realization.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 4}))
        assert cli.main(["bound", str(path), "--realization", "0"]) == 1
        assert "not an ensemble file" in capsys.readouterr().err

    def test_load_rejects_non_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert cli.main(["bound", str(path), "--realization", "0"]) == 1
        assert "not valid JSON" in capsys.readouterr().err


def test_each_draw_is_decomposed_once(monkeypatch):
    # The uniform observable and the chain read one eigendecomposition of
    # each draw's Hamiltonian.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    result = run_ensemble(GoeSpec(dim=8, count=30, seed=7))
    assert len(result.b_list) == 30 and len(calls) == 30


def test_import_loads_no_process_pool():
    # concurrent.futures (with multiprocessing, logging and socket) is
    # imported by run_ensemble only when it starts a pool.
    src = str(Path(ens.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    code = "import sys, kbound; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
