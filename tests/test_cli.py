import json
import math
import tracemalloc

import numpy as np
import pytest

from kbound.cli import main
from kbound.ensembles import goe_sample


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sigma3_file(tmp_path):
    path = tmp_path / "H.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}))
    return str(path)


@pytest.fixture
def mixed_obs_file(tmp_path):
    path = tmp_path / "O.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1.0, 1.0], [1.0, -1.0]]}))
    return str(path)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "model" in out and "goe" in out

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "/nonexistent/chain.json")
        assert code == 1
        assert "error:" in err

    def test_bad_value_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "model", "su2:j=1", "--steps", "1")
        assert code == 1
        assert "steps" in err

    def test_model_past_the_double_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "model", "syk:eta=1", "--tmax", "400", "--out", "-")
        assert code == 2
        assert "overflows a double past nu t = 355.238" in err

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        # Without "D" the three coefficients are a cut chain, and t = 5 needs
        # more of them.
        chain.write_text(json.dumps({"b": [1.0, 1.5, 2.0]}))
        code, _, err = run_cli(capsys, "evolve", str(chain), "--tmax", "5",
                               "--steps", "2")
        assert code == 2
        assert err.startswith("numerical error:")

    def test_one_coefficient_cut_chain_fails_where_its_wall_fills(self, tmp_path, capsys):
        # The wall of a one-coefficient cut chain is site 1, not the seed's
        # site 0: it holds sin^2(t), past TAIL_TOL = 1e-12 by t = 0.001.
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [1.0]}))
        code, _, err = run_cli(capsys, "evolve", str(chain), "--tmax", "0.001",
                               "--steps", "2")
        assert code == 2
        assert "by t = 0.001 its last two sites hold probability 1.000e-06" in err

    @pytest.mark.parametrize("command", ["evolve", "bound"])
    def test_truncation_flag_is_gone(self, tmp_path, capsys, command):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [1.0, 1.5, 2.0]}))
        code, _, err = run_cli(capsys, command, str(chain), "--truncation", "5")
        assert code == 1
        assert "--truncation" in err

    @pytest.mark.parametrize("payload, extra, field", [
        ({"realizations": [1, 2]}, ["--realization", "0"], "realization 0"),
        ({"b": "x"}, [], "field 'b'"),
        ({"b": [1.0, 2.0], "D": "two"}, [], "field 'D'"),
        ({"b": [1.0, 2.0], "truncated": "false"}, [], "field 'truncated'"),
    ])
    def test_malformed_chain_fields_are_input_errors(self, tmp_path, capsys,
                                                     payload, extra, field):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "bound", str(chain), "--tmax", "1", *extra)
        assert code == 1
        assert err.startswith(f"error: {chain}: ")
        assert field in err


class TestModelCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "model", "su2:j=1,nu=1")
        assert code == 0
        d = json.loads(out)
        assert d["kind"] == "su2"
        assert d["D"] == 3
        assert d["alpha"] == -4.0
        np.testing.assert_allclose(d["b"], [math.sqrt(2)] * 2)
        t = np.array(d["curve"]["t"])
        np.testing.assert_allclose(d["curve"]["K"],
                                   2.0 * np.sin(t) ** 2, atol=1e-12)

    def test_infinite_family_coefficient_count(self, capsys):
        code, out, _ = run_cli(capsys, "model", "hw:nu=2", "--coeffs", "7")
        assert code == 0
        d = json.loads(out)
        assert d["D"] is None
        assert len(d["b"]) == 7
        np.testing.assert_allclose(d["b"], 2.0 * np.sqrt(np.arange(1, 8)))

    def test_csv_curve(self, capsys):
        code, out, _ = run_cli(capsys, "model", "syk:eta=1", "--format", "csv",
                               "--tmax", "1", "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,K,dispersion"
        assert len(lines) == 6

    def test_coeffs_out_side_file(self, tmp_path, capsys):
        aux = tmp_path / "b.csv"
        code, _, _ = run_cli(capsys, "model", "su2:j=1.5", "--coeffs-out",
                             str(aux), "--out", str(tmp_path / "m.json"))
        assert code == 0
        lines = aux.read_text().strip().splitlines()
        assert lines[0] == "n,b"
        assert len(lines) == 4  # D - 1 = 3 coefficients

    def test_chains_past_the_site_cap(self, monkeypatch, capsys):
        # A su2 chain of D = 2e9 sites, or a count of 1e10 coefficients, is
        # refused before any coefficient is computed.
        from kbound.algebras import AlgebraModel

        def unreached(self, n):
            raise AssertionError("coefficients computed")
        monkeypatch.setattr(AlgebraModel, "b", unreached)
        code, _, err = run_cli(capsys, "model", "su2:j=1e9")
        assert code == 2
        assert "D = 2000000001 sites, past MAX_MODEL_SITES = 4194304" in err
        code, _, err = run_cli(capsys, "model", "hw:nu=1", "--coeffs", "10000000000")
        assert code == 1
        assert ("argument --coeffs: value must be at most MAX_MODEL_SITES = 4194304, "
                "got 10000000000") in err

    def test_bad_spec(self, capsys):
        code, _, err = run_cli(capsys, "model", "su2:j=banana")
        assert code == 1
        assert "error:" in err

    def test_out_extension_drives_format(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "model", "hw:", "--out", str(out),
                             "--tmax", "1", "--steps", "3")
        assert code == 0
        assert out.read_text().startswith("t,K,dispersion")


class TestLanczosCommand:
    def test_default_observable(self, sigma3_file, capsys):
        code, out, _ = run_cli(capsys, "lanczos", sigma3_file)
        assert code == 0
        d = json.loads(out)
        assert d["D"] == 3
        np.testing.assert_allclose(d["b"], [math.sqrt(2)] * 2, atol=1e-12)

    def test_default_observable_decomposes_h_once(self, sigma3_file, monkeypatch, capsys):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        assert run_cli(capsys, "lanczos", sigma3_file)[0] == 0
        assert len(calls) == 1

    def test_explicit_observable(self, sigma3_file, mixed_obs_file, capsys):
        code, out, _ = run_cli(capsys, "lanczos", sigma3_file,
                               "--observable", mixed_obs_file)
        assert code == 0
        d = json.loads(out)
        np.testing.assert_allclose(d["b"], [math.sqrt(2)] * 2, atol=1e-12)

    def test_beta_needs_observable(self, sigma3_file, capsys):
        code, _, err = run_cli(capsys, "lanczos", sigma3_file, "--beta", "0.5")
        assert code == 1
        assert "observable" in err

    def test_thermal_chain(self, sigma3_file, mixed_obs_file, capsys):
        code, out, _ = run_cli(capsys, "lanczos", sigma3_file, "--beta", "0.5",
                               "--observable", mixed_obs_file)
        assert code == 0
        assert json.loads(out)["beta"] == 0.5

    def test_csv_output(self, sigma3_file, capsys):
        code, out, _ = run_cli(capsys, "lanczos", sigma3_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,b"
        assert len(lines) == 3

    def test_capped_chain_feeds_bound(self, tmp_path, capsys):
        # A d = 8 GOE chain has 56 coefficients; capped at 40 it is the head
        # of the full one, bit for bit, and evolves as an open-ended chain.
        H = goe_sample(8, seed=np.random.default_rng(3))
        path = tmp_path / "H.json"
        path.write_text(json.dumps({"dim": 8, "re": H.tolist()}))
        full, capped = tmp_path / "full.json", tmp_path / "capped.json"
        assert run_cli(capsys, "lanczos", str(path), "--out", str(full))[0] == 0
        assert run_cli(capsys, "lanczos", str(path), "--max-steps", "40",
                       "--out", str(capped))[0] == 0
        f, c = json.loads(full.read_text()), json.loads(capped.read_text())
        assert (len(f["b"]), f["truncated"]) == (56, False)
        assert (c["D"], c["truncated"], c["reorth_passes"]) == (41, True, 0)
        assert c["b"] == f["b"][:40]
        code, out, _ = run_cli(capsys, "bound", str(capped), "--tmax", "0.5",
                               "--steps", "11")
        assert code == 0
        assert len(out.splitlines()) == 13


class TestEvolveCommand:
    def test_csv_default(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [math.sqrt(2)] * 2, "D": 3}))
        code, out, _ = run_cli(capsys, "evolve", str(chain), "--tmax", "1",
                               "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,phi_0,phi_1,phi_2"
        assert len(lines) == 6

    def test_json_payload(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [1.0], "D": 2}))
        code, out, _ = run_cli(capsys, "evolve", str(chain), "--format", "json",
                               "--tmax", "1", "--steps", "3")
        assert code == 0
        d = json.loads(out)
        assert d["method"] == "window"
        assert d["blocks"] >= 1 and d["terms"] >= 2 * d["blocks"]
        assert d["window"] == 2
        assert d["truncated"] is False
        assert len(d["phi"]) == 3
        np.testing.assert_allclose(d["phi"][2], [math.cos(1.0), math.sin(1.0)],
                                   atol=1e-12)

    def test_model_artifact_feeds_evolve(self, tmp_path, capsys):
        art = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "model", "hw:nu=1", "--coeffs", "64",
                             "--out", str(art))
        assert code == 0
        code, out, _ = run_cli(capsys, "evolve", str(art), "--format", "json",
                               "--tmax", "1", "--steps", "3")
        assert code == 0
        d = json.loads(out)
        phi = np.array(d["phi"])
        np.testing.assert_allclose(np.sum(phi**2, axis=1), 1.0, atol=1e-10)

    def test_json_reports_how_a_cut_chain_was_evolved(self, tmp_path, capsys):
        art = tmp_path / "m.json"
        run_cli(capsys, "model", "hw:nu=1", "--coeffs", "64", "--out", str(art))
        code, out, _ = run_cli(capsys, "evolve", str(art), "--format", "json",
                               "--tmax", "1", "--steps", "3")
        assert code == 0
        d = json.loads(out)
        assert d["method"] == "window"
        assert d["truncated"] is True
        assert 0.0 <= d["tail_mass"] < 1e-12
        # The window follows the amplitude, not the 65 listed sites.
        assert d["window"] < 64

    def test_exhausted_artifact_chain(self, tmp_path, capsys):
        # 10 listed coefficients cannot cover the spread at t = 10.
        art = tmp_path / "m.json"
        run_cli(capsys, "model", "hw:nu=1", "--coeffs", "10", "--out", str(art))
        code, _, err = run_cli(capsys, "evolve", str(art), "--tmax", "10")
        assert code == 2
        assert "more" in err

    @pytest.mark.parametrize("tmax, steps, code", [
        ("1.8", "301", 0), ("1.8", "2", 0), ("1.9", "301", 2),
    ])
    def test_cut_chain_runs_until_its_end_is_reached(self, tmp_path, capsys,
                                                     tmax, steps, code):
        # The 256 listed coefficients of b_n = n hold the amplitude's tail
        # below 1e-12 in their last two sites up to t = 1.8, on a fine grid
        # or a coarse one, and no further.
        art = tmp_path / "m.json"
        run_cli(capsys, "model", "sl2r:eta=1", "--out", str(art))
        got, out, err = run_cli(capsys, "bound", str(art), "--tmax", tmax,
                                "--steps", steps)
        assert got == code
        if code == 0:
            assert len(out.splitlines()) == int(steps) + 2
        else:
            assert err.startswith("numerical error:")

    def test_ensemble_input_needs_realization(self, tmp_path, capsys):
        ens = tmp_path / "e.json"
        code, _, _ = run_cli(capsys, "goe", "--dim", "3", "--count", "2",
                             "--seed", "1", "--out", str(ens))
        assert code == 0
        code, _, err = run_cli(capsys, "evolve", str(ens), "--tmax", "1")
        assert code == 1
        assert "--realization" in err
        code, _, err = run_cli(capsys, "evolve", str(ens), "--tmax", "1",
                               "--realization", "5")
        assert code == 1
        code, out, _ = run_cli(capsys, "evolve", str(ens), "--tmax", "1",
                               "--steps", "4", "--realization", "0",
                               "--format", "json")
        assert code == 0
        assert len(json.loads(out)["t"]) == 4

    def test_realization_is_picked_by_its_index(self, tmp_path, capsys):
        # An ensemble file lists only the realizations that succeeded, each
        # with its index: with realization 1 failed, the second entry is
        # realization 2.
        ens = tmp_path / "e.json"
        assert main(["goe", "--dim", "4", "--count", "3", "--seed", "5",
                     "--out", str(ens)]) == 0
        d = json.loads(ens.read_text())
        del d["realizations"][1]
        d["failed"] = [{"index": 1, "error": "NumericalError: synthetic"}]
        ens.write_text(json.dumps(d))
        for n, entry in zip((0, 2), d["realizations"]):
            code, out, _ = run_cli(capsys, "evolve", str(ens), "--realization", str(n),
                                   "--steps", "2", "--format", "json")
            assert code == 0
            assert json.loads(out)["b"] == entry["b"]
        code, _, err = run_cli(capsys, "closure", str(ens), "--realization", "1")
        assert code == 1
        assert err == f"error: {ens}: realization 1 failed; it has no chain\n"
        code, _, err = run_cli(capsys, "closure", str(ens), "--realization", "3")
        assert code == 1
        assert err == f"error: {ens}: realization 3 is neither listed nor failed\n"

    def test_realization_flag_rejected_elsewhere(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [1.0], "D": 2}))
        code, _, err = run_cli(capsys, "evolve", str(chain), "--realization", "0")
        assert code == 1
        assert "not an ensemble" in err


class TestBoundCommand:
    def test_csv_with_deviation_time_comment(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps(
            {"b": [math.sqrt(33), math.sqrt(50), math.sqrt(56)], "D": 4}))
        code, out, _ = run_cli(capsys, "bound", str(chain), "--tmax", "1",
                               "--steps", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tau_d = 0.50355314379")
        assert lines[1] == "t,K,rate,dispersion,bound,ratio,tau_K"

    def test_short_chain_has_nan_tau_d(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [math.sqrt(2)] * 2, "D": 3}))
        code, out, _ = run_cli(capsys, "bound", str(chain), "--tmax", "1",
                               "--steps", "5")
        assert code == 0
        assert out.splitlines()[0] == "# tau_d = nan"

    def test_json_nullable_fields(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [math.sqrt(2)] * 2, "D": 3}))
        code, out, _ = run_cli(capsys, "bound", str(chain), "--format", "json",
                               "--tmax", "1", "--steps", "5")
        assert code == 0
        d = json.loads(out)
        assert d["tau_d"] is None
        assert d["ratio"][0] is None
        assert d["ratio"][1] == pytest.approx(1.0, abs=1e-8)
        assert d["b1"] == pytest.approx(math.sqrt(2))

    def test_bound_builds_no_grid(self, tmp_path):
        # 2001 points to t = 10 on a 20000-coefficient hw head: the grid of
        # evolve_amplitudes takes 2001 x 20001 floats (320 MB), while the
        # profile is reduced from the rows as they are made.
        chain, csv = tmp_path / "hw.json", tmp_path / "bound.csv"
        assert main(["model", "hw:nu=1", "--coeffs", "20000", "--out", str(chain)]) == 0
        tracemalloc.start()
        try:
            code = main(["bound", str(chain), "--tmax", "10", "--steps", "2001",
                         "--out", str(csv)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 10e6
        assert len(csv.read_text().splitlines()) == 2003


class TestClosureCommand:
    def test_saturating_chain(self, tmp_path, capsys):
        n = np.arange(1, 21)
        b = np.sqrt(0.25 * 4.0 * n * (n - 1) + 0.5 * 202.0 * n)
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": b.tolist()}))
        code, out, _ = run_cli(capsys, "closure", str(chain))
        assert code == 0
        d = json.loads(out)
        assert d["closed"] is True
        assert d["alpha"] == pytest.approx(4.0, abs=1e-9)
        assert d["gamma"] == pytest.approx(202.0)
        assert d["classification"] == "sl2r"

    def test_perturbed_chain(self, tmp_path, capsys):
        n = np.arange(1, 21)
        b = np.sqrt(0.25 * 4.0 * n * (n - 1) + 0.5 * 202.0 * n)
        b[7] *= 1.1
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": b.tolist()}))
        code, out, _ = run_cli(capsys, "closure", str(chain))
        assert code == 0
        d = json.loads(out)
        assert d["closed"] is False
        assert d["classification"] is None
        assert d["max_residual"] > d["tol"]

    @pytest.mark.parametrize("spec, family", [("hw:nu=1e4", "hw"),
                                              ("su2:j=3,nu=1e-5", "su2"),
                                              ("syk:eta=0.01", "sl2r")])
    def test_family_of_a_model_artifact(self, tmp_path, capsys, spec, family):
        chain = tmp_path / "c.json"
        assert main(["model", spec, "--coeffs", "2000", "--out", str(chain)]) == 0
        code, out, _ = run_cli(capsys, "closure", str(chain))
        assert code == 0
        d = json.loads(out)
        assert d["closed"] is True and d["classification"] == family

    def test_csv_report(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps(
            {"b": [1.0, math.sqrt(2.0), math.sqrt(3.0)]}))
        code, out, _ = run_cli(capsys, "closure", str(chain), "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert lines[1] == "closed,1"

    def test_malformed_chain_file(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"coefficients": [1.0]}))
        code, _, err = run_cli(capsys, "closure", str(chain))
        assert code == 1
        assert "'b'" in err

    def test_fractional_D_is_an_input_error(self, tmp_path, capsys):
        # int() would read D = 3.5 as a complete D = 3 chain.
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"b": [1, 2], "D": 3.5}))
        code, out, err = run_cli(capsys, "closure", str(chain))
        assert code == 1
        assert out == ""
        assert "field 'D' must be an integer >= 1" in err


class TestGoeCommand:
    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "goe", "--dim", "4", "--count", "3",
                               "--seed", "2")
        assert code == 0
        d = json.loads(out)
        assert d["D_histogram"] == {"13": 3}
        assert len(d["realizations"]) == 3

    def test_profile_attached_when_grid_given(self, capsys):
        code, out, _ = run_cli(capsys, "goe", "--dim", "3", "--count", "2",
                               "--seed", "2", "--tmax", "1", "--steps", "4")
        assert code == 0
        d = json.loads(out)
        assert d["profile"] is not None
        assert len(d["profile"]["ratio"]) == 4
        assert d["profile"]["ratio"][0] is None

    def test_csv_summary(self, capsys):
        code, out, _ = run_cli(capsys, "goe", "--dim", "3", "--count", "2",
                               "--seed", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,mean_b_sq,std_b_sq"

    def test_workers_flag_changes_nothing(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, "goe", "--dim", "5", "--count", "4", "--seed", "3",
                "--out", str(a))
        run_cli(capsys, "goe", "--dim", "5", "--count", "4", "--seed", "3",
                "--workers", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dim_required(self, capsys):
        code, _, err = run_cli(capsys, "goe", "--count", "2")
        assert code == 1
        assert "dim" in err
