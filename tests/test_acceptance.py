"""End-to-end guarantees of the package, one test per guarantee.

Each test prints its wall time (visible under ``pytest -s``); tests with an
interactive runtime target assert a 5x ceiling so a loaded machine does not
flake them.
"""

import time

import numpy as np
import pytest

from oracles import chain_moments, random_hermitian, superoperator_heisenberg, trace_product
from kbound.algebras import AlgebraModel
from kbound.dynamics import (
    complexity_profile,
    deviation_time,
    evolve_amplitudes,
    short_time_coefficients,
)
from kbound.ensembles import GoeSpec, run_ensemble, save_ensemble_json
from kbound.lanczos import run_lanczos

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])


def _report(name: str, t0: float) -> float:
    elapsed = time.perf_counter() - t0
    print(f"\n[{name}] {elapsed:.2f} s")
    return elapsed


def test_qubit_chain_and_complexity_are_exact():
    t0 = time.perf_counter()
    res = run_lanczos(SIGMA3, SIGMA1 + SIGMA3)
    assert res.D == 3
    np.testing.assert_allclose(res.b, [np.sqrt(2.0)] * 2, rtol=0, atol=1e-12)
    grid = np.linspace(0.0, 2.0 * np.pi, 301)
    prof = complexity_profile(evolve_amplitudes(res.b, grid))
    np.testing.assert_allclose(prof.complexity, 2.0 * np.sin(grid) ** 2,
                               rtol=0, atol=1e-10)
    assert _report("qubit", t0) < 5.0


def test_saturating_families_match_closed_form_curves():
    t0 = time.perf_counter()
    cases = [
        (AlgebraModel.from_rates(4.0, 202.0), np.linspace(0.0, 1.5, 301),
         lambda t: 101.0 * np.sinh(t) ** 2),
        (AlgebraModel.from_rates(0.0, 200.0), np.linspace(0.0, 2.0, 301),
         lambda t: 100.0 * t * t),
        (AlgebraModel.from_rates(-4.0, 198.0, D=100), np.linspace(0.0, np.pi, 301),
         lambda t: 99.0 * np.sin(t) ** 2),
    ]
    for model, grid, reference in cases:
        if model.D is not None:
            traj = evolve_amplitudes(model.b(np.arange(1, model.D)), grid)
        else:
            traj = evolve_amplitudes(lambda n: model.b(np.asarray(n)), grid)
            assert traj.tail_mass < 1e-12
        prof = complexity_profile(traj)
        np.testing.assert_allclose(prof.complexity, reference(grid),
                                   rtol=1e-8, atol=1e-8)
        defined = ~np.isnan(prof.ratio)
        np.testing.assert_allclose(prof.ratio[defined], 1.0, rtol=0, atol=1e-8)
    assert _report("families", t0) < 50.0


def test_dispersion_bound_holds_for_random_chains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90210)
    grid = np.linspace(0.0, 5.0, 50)
    for _ in range(100):
        b = 3.0 - rng.uniform(0.0, 3.0, size=20)  # uniform over (0, 3]
        traj = evolve_amplitudes(b, grid)
        prof = complexity_profile(traj)
        defined = ~np.isnan(prof.ratio)
        assert np.all(prof.ratio[defined] <= 1.0 + 1e-8)
        for k in range(grid.size):
            anti, m1, m2 = chain_moments(b, traj.phi[k])
            assert abs(anti) < 1e-10
            assert abs(m1) < 1e-9
            assert abs(m2 - b[0] ** 2) < 1e-9
    assert _report("random chains", t0) < 150.0


def test_saturation_iff_closed_coefficient_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    for _ in range(50):
        kind = rng.choice(["su2", "hw", "sl2r"])
        nu = rng.uniform(0.3, 1.2)
        if kind == "su2":
            j = rng.integers(2, 41) / 2.0
            model = AlgebraModel.su2(j, nu)
            grid = np.linspace(0.0, np.pi / nu, 201)  # one full revival
            b = model.b(np.arange(1, model.D))
            chain = b
        elif kind == "hw":
            model = AlgebraModel.hw(nu)
            grid = np.linspace(0.0, 2.0 / nu, 201)
            chain = lambda n, m=model: m.b(np.asarray(n))
        else:
            model = AlgebraModel.sl2r(rng.uniform(0.5, 8.0), nu)
            grid = np.linspace(0.0, 2.0 / nu, 201)
            chain = lambda n, m=model: m.b(np.asarray(n))
        prof = complexity_profile(evolve_amplitudes(chain, grid))
        defined = ~np.isnan(prof.ratio)
        np.testing.assert_allclose(prof.ratio[defined], 1.0, rtol=0, atol=1e-8)

        # Bump one coefficient by 10% at a site the wavepacket crosses
        # within the grid; the law breaks and so must the saturation.
        kmax = min(6, (model.D - 1) if model.D is not None else 6)
        k = int(rng.integers(1, kmax + 1))
        if model.D is not None:
            perturbed = b.copy()
            perturbed[k - 1] *= 1.1
        else:
            def perturbed(n, m=model, k=k):
                ns = np.asarray(n)
                vals = np.array(m.b(ns), dtype=np.float64, copy=True)
                vals[ns == k] *= 1.1
                return vals
        pprof = complexity_profile(evolve_amplitudes(perturbed, grid))
        assert np.nanmin(pprof.ratio) < 1.0 - 1e-3
    assert _report("closure equivalence", t0) < 300.0


def test_goe_ensemble_saturates_early_and_departs_after_deviation_time():
    t0 = time.perf_counter()
    res = run_ensemble(GoeSpec(dim=32, sigma=1.0, count=100, seed=7))
    assert res.failed == []
    assert res.D_values.tolist() == [993] * 100
    grid = np.linspace(0.0, 3.0, 301)
    conforming = 0
    for b in res.b_list:
        prof = complexity_profile(evolve_amplitudes(b, grid))
        defined = ~np.isnan(prof.ratio)
        assert np.all(prof.ratio[defined] <= 1.0 + 1e-8)
        tau = deviation_time(b[0], b[1], b[2])
        assert 0.2 < tau < 1.0
        early = defined & (grid <= tau / 2.0)
        window = defined & (grid >= tau) & (grid <= 5.0 * tau)
        if np.all(prof.ratio[early] >= 0.99) and np.min(prof.ratio[window]) < 0.95:
            conforming += 1
    assert conforming >= 90
    assert _report(f"goe ensemble ({conforming}/100 conforming)", t0) < 1500.0


def test_tridiagonal_evolution_matches_dense_superoperator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    grid = np.linspace(0.0, 5.0, 51)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        H = random_hermitian(rng, d)
        O = random_hermitian(rng, d)
        res = run_lanczos(H, O, store_basis=True)
        traj = evolve_amplitudes(res.b, grid)
        seed_norm = np.sqrt(trace_product(O, O, 1.0 / d).real)
        for k, t in enumerate(grid):
            heis = superoperator_heisenberg(H, O, t)
            for n in range(res.D):
                basis = res.basis[n].reshape((d, d), order="F")
                proj = trace_product(basis, heis, 1.0 / d) / seed_norm
                assert abs(proj - (1j) ** n * traj.phi[k, n]) < 1e-8
    _report("superoperator oracle", t0)


def test_linear_family_matches_exponential_growth():
    t0 = time.perf_counter()
    model = AlgebraModel.sl2r(1.0, 1.0)
    np.testing.assert_array_equal(model.b(np.arange(1, 9)),
                                  np.arange(1.0, 9.0))
    grid = np.linspace(0.0, 3.0, 301)
    traj = evolve_amplitudes(lambda n: model.b(np.asarray(n)), grid)
    assert traj.tail_mass < 1e-12
    prof = complexity_profile(traj)
    K = np.sinh(grid) ** 2
    np.testing.assert_allclose(prof.complexity, K, rtol=1e-8, atol=1e-8)
    defined = ~np.isnan(prof.ratio)
    np.testing.assert_allclose(prof.ratio[defined], 1.0, rtol=0, atol=1e-8)
    _report("linear family", t0)


def test_short_time_residual_scales_as_sixth_power():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e-1, 25)])
    for _ in range(20):
        b = rng.uniform(0.2, 3.0, size=12)
        prof = complexity_profile(evolve_amplitudes(b, grid))
        c2, c4 = short_time_coefficients(b[0], b[1])
        residual = np.abs(prof.complexity[1:] - c2 * grid[1:] ** 2
                          - c4 * grid[1:] ** 4)
        assert np.all(residual > 0.0)
        slope = np.polyfit(np.log(grid[1:]), np.log(residual), 1)[0]
        assert slope >= 5.5
    _report("short-time law", t0)


def test_worker_count_leaves_ensemble_bytes_unchanged(tmp_path):
    t0 = time.perf_counter()
    spec = GoeSpec(dim=8, sigma=1.0, count=12, seed=42)
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    save_ensemble_json(run_ensemble(spec, workers=1), serial)
    save_ensemble_json(run_ensemble(spec, workers=8), pooled)
    assert serial.read_bytes() == pooled.read_bytes()
    _report("worker determinism", t0)
