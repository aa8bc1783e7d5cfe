import functools
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kbound._util

from kbound.dynamics import (
    AmplitudeTrajectory,
    ComplexityProfile,
    complexity_profile,
    deviation_time,
    evolve_amplitudes,
    save_amplitudes_csv,
    save_profile_csv,
    short_time_coefficients,
    _batch_profiles,
    _bessel_series,
    _sixth_coefficient,
)
from kbound.algebras import AlgebraModel, model_amplitudes, model_observables
from kbound.ensembles import GoeSpec, goe_sample, run_ensemble, uniform_observable
from kbound.errors import NumericalError, ValidationError
from kbound.lanczos import run_lanczos
from oracles import (
    chain_amplitudes,
    chain_moments,
    chain_rate,
    complexity_series,
    rk4_amplitudes,
    spectral_amplitudes,
)

QUBIT_B = np.array([math.sqrt(2.0), math.sqrt(2.0)])


class SmallMachine:
    """numpy, except that zeros refuses arrays past 1 GB as a small machine would."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def zeros(shape, *args, **kwargs):
        if 8 * math.prod(shape) > 1e9:
            raise MemoryError("Unable to allocate")
        return np.zeros(shape, *args, **kwargs)


chain_lists = st.lists(
    st.floats(min_value=0.05, max_value=3.0), min_size=2, max_size=12
)


class TestEvolution:
    def test_qubit_complexity_closed_form(self):
        t = np.linspace(0.0, 2.0 * np.pi, 401)
        traj = evolve_amplitudes(QUBIT_B, t)
        prof = complexity_profile(traj)
        np.testing.assert_allclose(prof.complexity, 2.0 * np.sin(t) ** 2, atol=1e-10)
        assert not traj.truncated
        assert traj.tail_mass == 0.0

    def test_single_site_chain(self):
        # D = 1: nothing moves.
        traj = evolve_amplitudes(np.empty(0), np.linspace(0.0, 1.0, 5))
        np.testing.assert_array_equal(traj.phi, np.ones((5, 1)))
        prof = complexity_profile(traj)
        np.testing.assert_array_equal(prof.complexity, np.zeros(5))
        assert np.all(np.isnan(prof.ratio))

    def test_norm_is_conserved(self, rng):
        b = rng.uniform(0.2, 2.5, size=15)
        t = np.linspace(0.0, 8.0, 60)
        traj = evolve_amplitudes(b, t)
        np.testing.assert_allclose(np.sum(traj.phi**2, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("family, tmax", [
        (lambda n: np.asarray(n, dtype=float), 2.5),             # sl2r, eta = 1
        (lambda n: 10.0 * np.sqrt(np.asarray(n, dtype=float)), 4.0),  # hw, nu = 10
    ], ids=["sl2r", "hw"])
    def test_norm_stays_at_rounding_over_many_steps(self, family, tmax):
        # Over 85 and 90 Chebyshev blocks the norm error stays at 3.1e-15
        # and 8e-15: each series meets Neumann's identity
        # J_0 + 2 sum J_2k = 1 to rounding.  Values that miss it by a few
        # 1e-16 (scipy's jv, as it comes) drove it to 8.6e-14 and 5.2e-14.
        traj = evolve_amplitudes(family, np.linspace(0.0, tmax, 201))
        assert traj.tail_mass < 1e-20
        assert np.max(np.abs(np.sum(traj.phi**2, axis=1) - 1.0)) <= 2e-14

    def test_eigen_and_rk4_agree(self, rng):
        b = rng.uniform(0.3, 2.0, size=8)
        t = np.linspace(0.0, 2.0, 21)
        eig = evolve_amplitudes(b, t)
        np.testing.assert_allclose(rk4_amplitudes(b, t), eig.phi, atol=1e-9)

    def test_negative_times(self, rng):
        b = rng.uniform(0.3, 2.0, size=6)
        t = np.linspace(-2.0, 2.0, 41)
        eig = evolve_amplitudes(b, t)
        np.testing.assert_allclose(rk4_amplitudes(b, t), eig.phi, atol=1e-9)
        # phi_n(-t) = (-1)^n phi_n(t): reversing time flips odd sites.
        signs = (-1.0) ** np.arange(eig.phi.shape[1])
        np.testing.assert_allclose(eig.phi[::-1], eig.phi * signs, atol=1e-12)

    def test_rk4_with_coarse_step_reports_norm_loss(self):
        with pytest.raises(RuntimeError, match="rk4_step"):
            rk4_amplitudes(10.0 * QUBIT_B, np.linspace(0.0, 5.0, 6), rk4_step=0.5)

    def test_infinite_family_grows_until_tail_clears(self):
        traj = evolve_amplitudes(
            lambda n: np.sqrt(np.asarray(n, dtype=float)), np.linspace(0.0, 3.0, 31)
        )
        assert traj.truncated
        assert traj.tail_mass < 1e-12
        prof = complexity_profile(traj)
        t = traj.times
        np.testing.assert_allclose(prof.complexity, t * t, atol=1e-9)

    def test_scalar_only_family_falls_back(self):
        traj = evolve_amplitudes(
            lambda n: math.sqrt(n), np.linspace(0.0, 1.0, 5)
        )
        assert traj.truncated
        np.testing.assert_allclose(
            complexity_profile(traj).complexity, traj.times**2, atol=1e-10
        )

    def test_family_exhaustion_cap(self, monkeypatch):
        # A family too spread out to materialize: b_n = n moves mass to
        # ~sinh^2(t) sites, far past any ceiling at large t.  The ceiling is
        # lowered so the test does not have to diagonalize its way up to the
        # production value.
        import kbound.dynamics as dyn

        monkeypatch.setattr(dyn, "MAX_TRUNCATION", 512)
        with pytest.raises(NumericalError, match="tail"):
            evolve_amplitudes(
                lambda n: np.asarray(n, dtype=float),
                np.array([0.0, 25.0]),
            )

    def test_huge_coefficients_split_steps(self, monkeypatch):
        # b_n = 1e12 n: one step from 0 to 1 would take a Chebyshev series of
        # some 2e12 terms.  It is split instead, and the spread then meets
        # the (lowered) window ceiling.
        import kbound.dynamics as dyn

        monkeypatch.setattr(dyn, "MAX_TRUNCATION", 512)
        with pytest.raises(NumericalError, match="MAX_TRUNCATION = 512"):
            evolve_amplitudes(lambda n: 1e12 * np.asarray(n, dtype=float), [0.0, 1.0])

    def test_coarse_grid_fits_under_the_cap(self, monkeypatch):
        # b_n = n (sl2r, eta = 1) to t = 1.65 keeps phi_n^2 > 1e-30 out to
        # n = 454, within a ceiling of 512 sites.  A step from 0 to 1.65
        # would need a far wider window, so it is split rather than refused:
        # the two-point grid runs wherever the fine one does.
        import kbound.dynamics as dyn

        monkeypatch.setattr(dyn, "MAX_TRUNCATION", 512)
        family = lambda n: np.asarray(n, dtype=float)
        fine = evolve_amplitudes(family, np.linspace(0.0, 1.65, 301))
        coarse = evolve_amplitudes(family, [0.0, 1.65])
        closed = np.tanh(1.65) ** np.arange(coarse.sites) / np.cosh(1.65)
        np.testing.assert_allclose(coarse.phi[-1], closed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fine.phi[-1, :coarse.sites], coarse.phi[-1],
                                   rtol=0, atol=1e-12)

    def test_open_ended_array_stops_at_its_end(self):
        # 256 listed coefficients of b_n = n: their end stands in for the
        # rest while the last two sites hold less than TAIL_TOL, as they do
        # up to t = 1.8, and a grid that moves more there is refused.  Up
        # to then the amplitudes are those of the closed 257-site chain,
        # whose reflection moves them by up to 2.4e-7 from the infinite
        # chain's, within the amplitude of 1e-6 that TAIL_TOL lets the wall
        # carry.
        b = np.arange(1.0, 257.0)
        times = np.linspace(0.0, 1.8, 301)
        traj = evolve_amplitudes(b, times, open_end=True)
        assert traj.method == "window"
        assert traj.truncated
        assert traj.sites == 257
        assert 0.0 < traj.tail_mass < 1e-12
        np.testing.assert_allclose(traj.phi[::50], chain_amplitudes(b, times[::50]),
                                   rtol=0, atol=1e-12)
        closed = np.tanh(1.8) ** np.arange(257) / np.cosh(1.8)
        np.testing.assert_allclose(traj.phi[-1], closed, rtol=0, atol=1e-6)
        with pytest.raises(NumericalError, match="lists 256 coefficients"):
            evolve_amplitudes(b, np.linspace(0.0, 1.9, 301), open_end=True)

    def test_open_ended_wall_mass_leaves_out_the_seed(self):
        # One listed coefficient: the last two sites are the seed's site 0
        # and site 1, and only site 1 is the wall, holding sin^2(t).
        traj = evolve_amplitudes([1.0], [0.0, 1e-7], open_end=True)
        assert traj.tail_mass == pytest.approx(1e-14, rel=1e-6)
        with pytest.raises(NumericalError, match=r"t = 0\.001 .* 1\.000e-06"):
            evolve_amplitudes([1.0], [0.0, 1e-3], open_end=True)

    def test_array_chain_out_of_memory(self, monkeypatch):
        # A complete chain's output is allocated before the first block;
        # where the machine cannot hold it, the error names its size instead
        # of numpy's bare MemoryError.
        monkeypatch.setattr(kbound._util, "np", SmallMachine())
        with pytest.raises(NumericalError, match="50000 grid points by 20000 sites .* 8 GB"):
            evolve_amplitudes(np.ones(19_999), np.linspace(0.0, 1.0, 50_000))

    def test_model_output_out_of_memory(self, monkeypatch):
        # hw with nu = 1 to t = 2000 spans 4014079 sites, under
        # MAX_MODEL_SITES; over 200 grid points that is 6.42 GB.
        monkeypatch.setattr(kbound._util, "np", SmallMachine())
        with pytest.raises(NumericalError,
                           match="200 grid points by 4014079 sites .* 6.42 GB"):
            model_amplitudes(AlgebraModel.hw(), np.linspace(0.0, 2000.0, 200))

    def test_validation(self):
        with pytest.raises(ValidationError):
            evolve_amplitudes(QUBIT_B, [0.0, 0.0, 1.0])
        with pytest.raises(ValidationError):
            evolve_amplitudes(QUBIT_B, [])
        with pytest.raises(ValidationError):
            evolve_amplitudes([1.0, -1.0], [0.0, 1.0])
        with pytest.raises(ValidationError, match="must list a coefficient"):
            evolve_amplitudes([], [0.0, 1.0], open_end=True)


class TestBesselSeries:
    """The Chebyshev series J_k(x) against 40-digit values of mpmath.besselj."""

    XS = [1e-300, 1e-12, 1e-6, 0.3, 1.0, 5.0, 32.0, 100.0, 1234.5]

    @staticmethod
    def _series(x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _bessel_series(x)

    @pytest.mark.parametrize("x", XS)
    def test_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        coef = self._series(x)
        # Every order, and a few past the cut; at 1234.5 (some 10 ms an
        # order) every 11th and the last few.
        orders = range(coef.size + 3)
        if x > 1000.0:
            orders = sorted({*range(0, coef.size, 11), *orders[-6:]})
        with mpmath.workdps(40):
            ref = {k: float(mpmath.besselj(k, mpmath.mpf(x))) for k in orders}
        tol = 2e-15 if x > 1000.0 else 4e-16
        for k, value in ref.items():
            if k < coef.size:
                assert abs(coef[k] - value) <= tol, (k, coef[k], value)
            else:
                assert abs(value) < 1e-17
        assert abs(coef[-1]) >= 1e-17 or coef.size == 2

    def test_against_normalized_scipy_at_large_argument(self):
        from scipy.special import jv

        coef = self._series(1e4)
        ref = jv(np.arange(coef.size + 40), 1e4)
        ref /= ref[0] + 2.0 * ref[2::2].sum()
        np.testing.assert_allclose(coef, ref[:coef.size], rtol=0, atol=1e-13)
        assert np.max(np.abs(ref[coef.size:])) < 1e-17

    @pytest.mark.parametrize("x", XS + [5e-324, 1e4])
    def test_neumann_identity_holds_to_rounding(self, x):
        coef = self._series(x)
        eps = np.finfo(np.float64).eps
        assert abs(coef[0] + 2.0 * coef[2::2].sum() - 1.0) <= 4 * eps

    def test_tiny_step_gives_the_seed(self):
        # a h = 4e-300: the step's row is stored as the march made it, with
        # phi_1 = b_1 t = 1e-300 exactly, and no overflow on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_amplitudes([1.0, 2.0], [0.0, 1e-300])
        np.testing.assert_array_equal(traj.phi, [[1.0, 0.0, 0.0], [1.0, 1e-300, 0.0]])

    def test_block_rows_match_their_own_series(self):
        # Constant b = 1 has a = 2 on every window.  Once the state has
        # spread over the chain (t = 20), the 40 points after it are one
        # block whose rows have x = 2 (t - 20) from 0.01 to 32.  Each row
        # must be the single step from t = 20 with its own series.
        b = np.ones(80)
        offsets = np.geomspace(0.005, 16.0, 40)
        traj = evolve_amplitudes(b, np.concatenate([[0.0, 20.0], 20.0 + offsets]))
        assert traj.blocks == evolve_amplitudes(b, [0.0, 20.0]).blocks + 1
        for row, h in zip(traj.phi[2:], offsets):
            alone = evolve_amplitudes(b, [0.0, 20.0, 20.0 + h])
            np.testing.assert_allclose(row, alone.phi[2], rtol=0, atol=2e-15)


@pytest.mark.parametrize("grid, problem", [
    ([], "no points"),
    ([0.0, np.nan], "non-finite values"),
    ([1.0, 0.5], "strictly increasing"),
])
def test_time_grids_share_one_validator(grid, problem):
    # Every entry point that takes a grid rejects it the same way and names
    # its own argument.
    with pytest.raises(ValidationError, match=f"^times .*{problem}"):
        evolve_amplitudes(QUBIT_B, grid)
    with pytest.raises(ValidationError, match=f"^times .*{problem}"):
        model_amplitudes(AlgebraModel.hw(), grid)
    with pytest.raises(ValidationError, match=f"^times .*{problem}"):
        model_observables(AlgebraModel.hw(), grid)
    with pytest.raises(ValidationError, match=f"^profile_times .*{problem}"):
        run_ensemble(GoeSpec(dim=4), profile_times=grid)


class TestInitialCondition:
    """phi_n(0) = delta_n0 holds exactly, not up to the propagator's rounding."""

    @staticmethod
    def _check_seed_row(traj):
        (k0,) = np.flatnonzero(traj.times == 0.0)
        seed = np.zeros(traj.sites)
        seed[0] = 1.0
        assert np.array_equal(traj.phi[k0], seed)
        prof = complexity_profile(traj)
        assert prof.complexity[k0] == 0.0
        assert prof.dispersion[k0] == 0.0

    def test_long_array_chain(self, rng):
        b = rng.uniform(0.3, 2.0, size=300)
        self._check_seed_row(evolve_amplitudes(b, np.linspace(0.0, 4.0, 41)))

    def test_truncated_window(self, rng):
        b = rng.uniform(0.3, 2.0, size=300)
        traj = evolve_amplitudes(b[:40], np.linspace(0.0, 0.5, 11), open_end=True)
        assert traj.truncated
        assert traj.sites == 41
        self._check_seed_row(traj)

    def test_callable_family(self):
        traj = evolve_amplitudes(
            lambda n: np.sqrt(np.asarray(n, dtype=float)), np.linspace(0.0, 3.0, 31)
        )
        assert traj.truncated
        self._check_seed_row(traj)

    def test_zero_inside_grid_with_negative_times(self, rng):
        b = rng.uniform(0.3, 2.0, size=200)
        half = np.linspace(0.1, 2.0, 20)
        times = np.concatenate([-half[::-1], [0.0], half])
        self._check_seed_row(evolve_amplitudes(b, times))

    @pytest.mark.parametrize("model", [AlgebraModel.su2(999.5), AlgebraModel.su2(3.0, 1.2),
                                       AlgebraModel.hw(10.0), AlgebraModel.sl2r(101.0)],
                             ids=lambda m: m.label())
    def test_closed_forms(self, model):
        self._check_seed_row(model_amplitudes(model, np.linspace(-2.0, 2.0, 41)))


class TestAgainstExpmOracle:
    """The amplitudes against a dense expm of the hopping generator."""

    TOL = 1e-12

    def _check(self, b, times):
        traj = evolve_amplitudes(b, times)
        np.testing.assert_allclose(traj.phi, chain_amplitudes(b, times),
                                   rtol=0, atol=self.TOL)
        return traj

    @pytest.mark.parametrize("sites", [2, 3, 4, 5, 6, 7, 300, 301])
    def test_odd_and_even_site_counts(self, rng, sites):
        self._check(rng.uniform(0.3, 2.0, size=sites - 1), np.linspace(0.0, 4.0, 21))

    def test_negative_times(self, rng):
        self._check(rng.uniform(0.3, 2.0, size=40), np.linspace(-3.0, 2.5, 23))

    def test_su2_through_its_pileup(self):
        # D = 100, nu = 1: all weight sits on the last site at t = pi / 2.
        n = np.arange(1, 100)
        times = np.linspace(0.0, np.pi, 41)
        traj = self._check(np.sqrt(n * (100.0 - n)), times)
        assert traj.phi[20, -1] ** 2 > 1.0 - 1e-12
        assert np.max(np.abs(np.sum(traj.phi**2, axis=1) - 1.0)) <= 1e-14

    def test_goe_chain(self, rng):
        H = goe_sample(8, seed=rng)
        res = run_lanczos(H, uniform_observable(H), store_basis=False)
        self._check(res.b, np.linspace(0.0, 5.0, 26))

    @pytest.mark.parametrize("bonds", [30, 29])
    def test_chain_with_modes_at_zero(self, bonds):
        # A weak first bond between strong ones: nearly all of phi_0 sits in
        # the modes at zero energy (one for 31 sites; for 30 a +-lambda pair
        # equal to rounding), so a synthesis from half of the spectrum,
        # mirrored by the chain's chirality, loses it.
        self._check(np.array([0.01, 3.0] * 15)[:bonds], np.linspace(0.0, 60.0, 31))

    def _check_window(self, b, times, chain, open_end=False):
        """A windowed trajectory against the oracle on the finite chain.

        chain holds the coefficients of the oracle's chain; the sites the
        trajectory leaves out must hold nothing above TOL either.
        """
        traj = evolve_amplitudes(b, times, open_end=open_end)
        assert traj.method == "window"
        ref = chain_amplitudes(chain, times)
        assert traj.sites <= ref.shape[1]
        np.testing.assert_allclose(traj.phi, ref[:, :traj.sites], rtol=0, atol=self.TOL)
        assert np.max(np.abs(ref[:, traj.sites:]), initial=0.0) < self.TOL
        return traj

    @pytest.mark.parametrize("points", [31, 2])
    def test_callable_family(self, points):
        # hw with nu = 1: by t = 3 the amplitude has spread over ~50 sites.
        # On the two-point grid the one step from 0 to 3 would more than
        # double the window, so it is split.
        traj = self._check_window(lambda n: np.sqrt(np.asarray(n, dtype=float)),
                                  np.linspace(0.0, 3.0, points),
                                  np.sqrt(np.arange(1.0, 150.0)))
        assert traj.truncated
        assert traj.tail_mass < 1e-20

    def test_cut_array(self, rng):
        # The first 40 coefficients of a 300-site chain, open-ended: up to
        # t = 4 their last two sites stay below TAIL_TOL, and the 41 sites
        # are those of the whole chain.
        b = rng.uniform(0.3, 2.0, size=299)
        traj = self._check_window(b[:40], np.linspace(0.0, 4.0, 21), b, open_end=True)
        assert traj.truncated
        assert traj.sites == 41
        assert traj.tail_mass < 1e-12

    def test_negative_times_on_a_window(self, rng):
        b = rng.uniform(0.3, 2.0, size=299)
        times = np.linspace(-3.0, 3.0, 25)
        traj = self._check_window(b, times, b)
        # phi_n(-t) = (-1)^n phi_n(t), from separate walks forward and back.
        signs = (-1.0) ** np.arange(traj.sites)
        np.testing.assert_allclose(traj.phi[::-1], traj.phi * signs, rtol=0, atol=self.TOL)


class TestAgainstSpectralOracle:
    """Complete chains of thousands of sites against one eigensolve of T."""

    def test_oracle_agrees_with_expm(self, rng):
        b = rng.uniform(0.3, 2.0, size=39)
        times = np.linspace(-2.0, 4.0, 13)
        np.testing.assert_allclose(spectral_amplitudes(b, times),
                                   chain_amplitudes(b, times), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [32, 48])
    def test_goe_ledger_chain(self, dim):
        # Seed 7, realization 0 of the GOE ledger: 993 and 2257 sites.  By
        # t = 3 the windows span fewer than 300 of them; the rest hold 0.
        H = goe_sample(dim, seed=np.random.SeedSequence(entropy=7, spawn_key=(0,)))
        b = run_lanczos(H, uniform_observable(H)).b
        times = np.linspace(0.0, 3.0, 301)
        traj = evolve_amplitudes(b, times)
        assert traj.sites == b.size + 1
        assert not traj.truncated and traj.tail_mass == 0.0
        assert traj.method == "window"
        assert 1 <= traj.blocks <= 10
        assert traj.window < 300
        np.testing.assert_allclose(traj.phi, spectral_amplitudes(b, times),
                                   rtol=0, atol=1e-12)
        assert np.max(np.abs(np.sum(traj.phi**2, axis=1) - 1.0)) <= 1e-14

    def test_su2_against_its_closed_form(self):
        # D = 2000 over 601 times: the window covers the whole chain, which
        # the amplitude crosses and comes back from.
        model = AlgebraModel.su2(999.5)
        times = np.linspace(0.0, 3.0, 601)
        traj = evolve_amplitudes(model.b(np.arange(1, 2000)), times)
        assert traj.window == 2000
        np.testing.assert_allclose(traj.phi, model_amplitudes(model, times).phi,
                                   rtol=0, atol=1e-12)


class RecordingFamily:
    """b_n = sqrt(n (n + 100)) (sl2r, eta = 101), recording every n asked for."""

    def __init__(self):
        self.requested = []

    def __call__(self, n):
        n = np.asarray(n)
        self.requested.append(n.copy())
        return np.sqrt(n * (n + 100.0))


@pytest.mark.parametrize("points", [201, 2])
def test_family_is_asked_once_per_coefficient_and_only_inside_the_window(
        monkeypatch, points):
    import kbound.dynamics as dyn

    windows = []
    step = dyn._chebyshev_step

    def recording_step(phi, bonds, coef):
        windows.append(phi.size)
        return step(phi, bonds, coef)

    monkeypatch.setattr(dyn, "_chebyshev_step", recording_step)
    family = RecordingFamily()
    traj = evolve_amplitudes(family, np.linspace(0.0, 2.0, points))
    asked = np.concatenate(family.requested)
    # Every coefficient once, in order: the blocks tile 1 .. max.
    np.testing.assert_array_equal(asked, np.arange(1, asked.size + 1))
    # Never past the widest window a step ran on, also where a coarse grid
    # splits its steps, and that window stays within one step's spread of
    # the amplitude's reach: by t = 2 the closed form has phi_n^2 > 1e-30
    # up to n = 3471.
    assert asked[-1] <= max(windows) - 1
    assert max(windows) < 4000
    assert traj.sites <= max(windows)


def test_window_memory_stays_linear():
    # sl2r eta = 101 to t = 2 over 201 times: the output is 201 x ~3500
    # values (6 MB).  Doubling eigensolves up to 4097 sites peaked near 270 MB.
    family = RecordingFamily()
    tracemalloc.start()
    try:
        evolve_amplitudes(family, np.linspace(0.0, 2.0, 201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_synthesis_memory_stays_real():
    # 2049 sites over 201 times: the output takes 3.3 MB, and the blocks add
    # a few window-length vectors per series term.  A dense eigensolve of
    # the chain peaked near 70 MB.
    n = np.arange(1, 2049)
    b = np.sqrt(n * (n + 100.0))
    tracemalloc.start()
    try:
        evolve_amplitudes(b, np.linspace(0.0, 2.0, 201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("model, tmax", [(AlgebraModel.su2(999.5), 3.0),
                                         (AlgebraModel.hw(10.0), 4.0),
                                         (AlgebraModel.sl2r(101.0), 2.0)],
                         ids=["su2", "hw", "sl2r"])
def test_model_amplitudes_do_not_depend_on_the_row_block(monkeypatch, model, tmax):
    t = np.linspace(0.0, tmax, 101)
    blocked = model_amplitudes(model, t).phi
    assert blocked.size > kbound._util._BLOCK_CELLS
    for cells in (1, blocked.size):          # one row, the whole grid
        monkeypatch.setattr(kbound._util, "_BLOCK_CELLS", cells)
        np.testing.assert_array_equal(model_amplitudes(model, t).phi, blocked)


def test_grid_passes_keep_their_working_set_small(tmp_path):
    # su2 D = 2000 on 601 points, a 9.6 MB grid.  Filled in blocks of 1 << 20
    # cells, model_amplitudes peaked at 68 MB; the full-size temporaries of
    # complexity_profile took 29 MB, and the amplitude CSV's tolist() of the
    # whole grid 39 MB.
    model = AlgebraModel.su2(999.5)
    t = np.linspace(0.0, 3.0, 601)
    tracemalloc.start()
    try:
        traj = model_amplitudes(model, t)
        amplitudes_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        complexity_profile(traj)
        profile_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        save_amplitudes_csv(AmplitudeTrajectory(t[:61], traj.phi[:61], traj.b, False, 0.0,
                                                "closed-form"), tmp_path / "phi.csv")
        csv_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert amplitudes_peak <= 1.5 * traj.phi.nbytes
    assert profile_peak < 2e6
    assert csv_peak < 1e6


class TestBatchProfiles:
    # Chains of unequal D marched together, a column each, zero past the end
    # of each, against each chain's own evolution and profile.

    @staticmethod
    def chains():
        out = []
        for d in (2, 3, 5):
            H = goe_sample(d, 1.0, seed=d)
            out.append(run_lanczos(H, uniform_observable(H), store_basis=False).b)
        out += [np.array([0.7]), np.linspace(2.5, 0.5, 40)]
        assert len({b.size for b in out}) == len(out)
        return out

    @pytest.mark.parametrize("times, single_steps", [
        (np.linspace(0.0, 3.0, 61), False),
        (np.linspace(-2.5, 2.0, 46), False),
        # Gaps of a |h| far past _BLOCK_ARG: steps of one point each.
        (np.array([-40.0, -0.5, 0.0, 0.25, 30.0, 30.1]), True),
    ], ids=["grid", "negative", "gaps"])
    def test_each_chain_matches_its_own_profile(self, monkeypatch, times, single_steps):
        import kbound.dynamics as dyn

        calls = set()
        step = dyn._chebyshev_step

        def recording_step(phi, bonds, coef):
            calls.add((phi.ndim, coef.ndim))
            return step(phi, bonds, coef)

        monkeypatch.setattr(dyn, "_chebyshev_step", recording_step)
        chains = self.chains()
        batch = _batch_profiles(chains, times)
        assert calls <= {(2, 1), (2, 2)}
        assert ((2, 1) in calls) == single_steps
        monkeypatch.undo()
        for b, prof in zip(chains, batch):
            alone = complexity_profile(evolve_amplitudes(b, times))
            assert prof.b1 == alone.b1
            for name in ("complexity", "rate", "dispersion", "bound"):
                want = getattr(alone, name)
                np.testing.assert_allclose(getattr(prof, name), want, rtol=0,
                                           atol=1e-12 * np.max(np.abs(want)))

    def test_seed_rows_are_exact(self):
        # t = 0 carries e_0 in every column, so K, rate and Delta K are 0.
        batch = _batch_profiles(self.chains(), np.array([-1.0, 0.0, 1.0]))
        for prof in batch:
            assert prof.complexity[1] == prof.rate[1] == prof.dispersion[1] == 0.0
            assert np.isnan(prof.ratio[1])


def _ledger_chain(d, seed):
    H = goe_sample(d, 1.0, seed=np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    return run_lanczos(H, uniform_observable(H), store_basis=False).b


# (b, open_end) of each chain the streamed profile is checked on: GOE ledger
# draws (realization 0), random chains, su2 D = 2000 and two open-ended heads.
_STREAMED_CHAINS = {
    **{f"goe-d{d}-s{seed}": (lambda d=d, seed=seed: (_ledger_chain(d, seed), False))
       for d, seed in [(8, 1), (16, 7), (24, 11), (32, 8), (32, 5), (48, 7)]},
    **{f"random-{n}": (lambda n=n: (np.random.default_rng(n).uniform(0.3, 2.0, n), False))
       for n in (3, 10, 255, 2000)},
    "su2-D2000": lambda: (AlgebraModel.su2(999.5).b(np.arange(1, 2000)), False),
    "hw-head400": lambda: (AlgebraModel.hw(1.0).b(np.arange(1, 401)), True),
    "sl2r-head3000": lambda: (AlgebraModel.sl2r(2.5).b(np.arange(1, 3001)), True),
}
_STREAMED_GRIDS = {
    "grid": np.linspace(0.0, 3.0, 301),
    "negative": np.linspace(-2.5, 2.0, 46),
    "gaps": np.array([-40.0, -0.5, 0.0, 0.25, 30.0, 30.1]),
    "one": np.array([0.7]),
    "long": np.linspace(0.0, 20.0, 2001),
    # Times down to 1e-8, where phi_2 ~ b_1 b_2 t^2 / 2 is about 1e-16 and
    # moves the last bits of K and Delta K: both paths reduce it.
    "tiny": np.geomspace(1e-8, 1.0, 200),
}
# The cases where the open end's wall fills, and both paths raise.
_WALL_CASES = {("hw-head400", "long"), ("sl2r-head3000", "gaps"),
               ("sl2r-head3000", "long")}


@functools.lru_cache(maxsize=None)
def _streamed_chain(name):
    return _STREAMED_CHAINS[name]()


@pytest.mark.parametrize("grid", list(_STREAMED_GRIDS))
@pytest.mark.parametrize("chain", list(_STREAMED_CHAINS))
def test_streamed_profile_is_the_grid_profile(chain, grid):
    # The profile reduced from the rows as the march makes them equals
    # complexity_profile of the stored grid bit for bit (NaN where it is
    # NaN); where the grid path raises, it raises the same message.
    b, open_end = _streamed_chain(chain)
    times = _STREAMED_GRIDS[grid]
    try:
        want = complexity_profile(evolve_amplitudes(b, times, open_end=open_end))
    except NumericalError as exc:
        assert (chain, grid) in _WALL_CASES
        with pytest.raises(NumericalError) as info:
            _batch_profiles([b], times, open_end)
        assert str(info.value) == str(exc)
        return
    assert (chain, grid) not in _WALL_CASES
    got = _batch_profiles([b], times, open_end)[0]
    for name in ComplexityProfile.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def test_every_march_runs_on_columns(monkeypatch):
    # An array, a family and a single chain's streamed profile march as one
    # column: every state _chebyshev_step gets, for single steps and for
    # blocks of rows alike, is (sites, 1), its bonds (sites - 1, 1).
    import kbound.dynamics as dyn

    calls = []
    step = dyn._chebyshev_step

    def recording_step(phi, bonds, coef):
        calls.append((phi.shape, bonds.shape, coef.ndim))
        return step(phi, bonds, coef)

    monkeypatch.setattr(dyn, "_chebyshev_step", recording_step)
    # Blocks of rows, and single steps over the gaps.
    times = np.array([-40.0, -1.0, -0.9, -0.8, 0.0, 0.1, 0.2, 30.0])
    near = np.array([-1.5, -0.5, -0.45, 0.0, 0.05, 0.1, 1.5])
    for run in (lambda: evolve_amplitudes(_streamed_chain("goe-d16-s7")[0], times),
                lambda: evolve_amplitudes(RecordingFamily(), near),
                lambda: _batch_profiles([_streamed_chain("hw-head400")[0]], times,
                                        open_end=True)):
        calls.clear()
        run()
        assert {ndim for *_, ndim in calls} == {1, 2}
        for (sites, r), bonds, _ in calls:
            assert r == 1 and bonds == (sites - 1, 1)


@pytest.mark.parametrize("grid", ["grid", "gaps", "tiny"])
@pytest.mark.parametrize("chain", ["goe-d48-s7", "su2-D2000"])
def test_stored_rows_are_the_march_rows(chain, grid):
    # evolve_amplitudes stores each row as the march made it, on the window
    # it was made on, and exact zeros past that window: at tiny times too,
    # where phi_2 ~ b_1 b_2 t^2 / 2 is below the occupied threshold.
    import kbound.dynamics as dyn

    b = _streamed_chain(chain)[0]
    times = _STREAMED_GRIDS[grid]
    rows = {}

    def record(ks, block, _):
        rows.update(zip(ks.tolist(), block[..., 0]))

    dyn._evolve_window(b[:, None], times, False, record)
    phi = evolve_amplitudes(b, times).phi
    assert sorted(rows) == list(range(times.size))
    for k, row in rows.items():
        np.testing.assert_array_equal(phi[k, :row.size], row, err_msg=f"row {k}")
        assert not np.any(phi[k, row.size:]), f"row {k}"


class TestProfile:
    def test_rate_is_exact_not_differenced(self, rng):
        # Compare against centered differences at two resolutions: the
        # difference error must shrink quadratically, which it only can if
        # the profile's rate is the analytic one.
        b = rng.uniform(0.3, 2.0, size=10)

        def diff_error(steps):
            t = np.linspace(0.0, 3.0, steps)
            prof = complexity_profile(evolve_amplitudes(b, t))
            h = t[1] - t[0]
            approx = (prof.complexity[2:] - prof.complexity[:-2]) / (2.0 * h)
            return float(np.max(np.abs(approx - prof.rate[1:-1])))

        coarse, fine = diff_error(301), diff_error(601)
        assert 3.0 < coarse / fine < 5.5

    def test_rate_oracle_is_the_differenced_rate(self, rng):
        # Fixes the sign of the commutator oracle: it must follow the
        # centered differences of K, whose error here is about 5e-5.
        b = rng.uniform(0.3, 2.0, size=10)
        t = np.linspace(0.0, 3.0, 601)
        traj = evolve_amplitudes(b, t)
        prof = complexity_profile(traj)
        oracle = np.array([chain_rate(b, row) for row in traj.phi])
        approx = (prof.complexity[2:] - prof.complexity[:-2]) / (2.0 * (t[1] - t[0]))
        assert np.max(np.abs(oracle[1:-1] - approx)) < 1e-3 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("grid", ["one point", "one row block and a row", "D = 1"])
    def test_rate_is_the_commutator(self, rng, grid):
        if grid == "D = 1":
            b, t = np.empty(0), np.linspace(0.0, 2.0, 5)
        elif grid == "one point":
            b, t = rng.uniform(0.3, 2.0, size=10), np.array([0.7])
        else:
            b = rng.uniform(0.3, 2.0, size=255)
            t = np.linspace(0.0, 3.0, kbound._util._BLOCK_CELLS // 256 + 1)
        traj = evolve_amplitudes(b, t)
        prof = complexity_profile(traj)
        oracle = np.array([chain_rate(b, row) for row in traj.phi])
        np.testing.assert_allclose(prof.rate, oracle, rtol=0.0,
                                   atol=1e-13 * max(1.0, np.max(np.abs(oracle))))

    def test_rows_are_reduced_on_their_own(self):
        # Each row's K, dispersion and rate come out the same, bit for bit,
        # from the whole grid and from that row alone.
        model = AlgebraModel.su2(99.5)
        traj = model_amplitudes(model, np.linspace(0.0, 3.0, 41))
        whole = complexity_profile(traj)
        for k in range(traj.times.size):
            one = complexity_profile(AmplitudeTrajectory(
                traj.times[k:k + 1], traj.phi[k:k + 1], traj.b, False, 0.0, "closed-form"))
            for name in ("complexity", "dispersion", "rate"):
                assert getattr(one, name)[0] == getattr(whole, name)[k], (k, name)

    def test_dispersion_at_a_pileup(self):
        # su2 D = 2000 near t = pi/2, where K = 1999 and Delta K = 0.19: as
        # <n^2> - K^2, a difference of squares, it was 2.6e-6 off.
        model = AlgebraModel.su2(999.5)
        t = np.linspace(0.0, 3.0, 601)
        prof = complexity_profile(model_amplitudes(model, t))
        want = model_observables(model, t)
        assert np.max(np.abs(prof.dispersion - want.dispersion)) < 1e-9

    def test_bound_and_ratio_shapes(self, rng):
        b = rng.uniform(0.3, 2.0, size=10)
        t = np.linspace(0.0, 4.0, 41)
        prof = complexity_profile(evolve_amplitudes(b, t))
        assert prof.b1 == pytest.approx(b[0])
        np.testing.assert_allclose(prof.bound, 2.0 * b[0] * prof.dispersion)
        assert np.isnan(prof.ratio[0])  # t = 0: bound is zero, ratio undefined
        defined = ~np.isnan(prof.ratio)
        assert np.all(prof.ratio[defined] <= 1.0 + 1e-8)

    def test_tau_k_lower_bound(self, rng):
        # dispersion / |rate| >= 1 / (2 b1) pointwise wherever defined.
        b = rng.uniform(0.3, 2.0, size=12)
        t = np.linspace(0.0, 5.0, 101)
        prof = complexity_profile(evolve_amplitudes(b, t))
        defined = ~np.isnan(prof.tau_k)
        assert np.all(prof.tau_k[defined] * 2.0 * b[0] >= 1.0 - 1e-8)


@settings(max_examples=40, deadline=None)
@given(chain=chain_lists)
def test_bound_holds_for_arbitrary_chains(chain):
    b = np.asarray(chain)
    t = np.linspace(0.0, 6.0, 37)
    prof = complexity_profile(evolve_amplitudes(b, t))
    defined = ~np.isnan(prof.ratio)
    assert np.all(prof.ratio[defined] <= 1.0 + 1e-8)


@settings(max_examples=25, deadline=None)
@given(chain=chain_lists, k=st.integers(min_value=0, max_value=36))
def test_structural_conservation_laws(chain, k):
    b = np.asarray(chain)
    t = np.linspace(0.0, 6.0, 37)
    traj = evolve_amplitudes(b, t)
    anti, first, second = chain_moments(b, traj.phi[k])
    assert abs(anti) < 1e-10
    assert abs(first) < 1e-9
    assert abs(second - b[0] ** 2) < 1e-9


class TestShortTimeExpansion:
    def test_qubit_coefficients(self):
        c2, c4 = short_time_coefficients(math.sqrt(2.0), math.sqrt(2.0))
        assert c2 == pytest.approx(2.0, abs=1e-15)
        assert c4 == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_linear_chain_coefficients(self):
        c2, c4 = short_time_coefficients(1.0, 2.0)
        assert c2 == pytest.approx(1.0, abs=1e-15)
        assert c4 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_against_series_oracle(self, rng):
        for _ in range(10):
            b = rng.uniform(0.3, 2.5, size=6)
            series = complexity_series(b, order=6)
            c2, c4 = short_time_coefficients(b[0], b[1])
            c6 = _sixth_coefficient(b[0], b[1], b[2])
            assert series[2] == pytest.approx(c2, rel=1e-12)
            assert series[4] == pytest.approx(c4, rel=1e-10, abs=1e-13)
            assert series[6] == pytest.approx(c6, rel=1e-10, abs=1e-13)
            assert abs(series[3]) < 1e-13 and abs(series[5]) < 1e-13

    def test_c4_sign_change(self):
        # c4 crosses zero exactly at b2^2 = 2 b1^2.
        assert short_time_coefficients(1.0, math.sqrt(2.0))[1] == pytest.approx(0.0, abs=1e-15)
        assert short_time_coefficients(1.0, 1.0)[1] < 0.0
        assert short_time_coefficients(1.0, 2.0)[1] > 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            short_time_coefficients(0.0, 1.0)
        with pytest.raises(ValidationError):
            short_time_coefficients(1.0, -2.0)


class TestDeviationTime:
    def test_frozen_value(self):
        # c4 = -88, c6 = 6941/30; tau_d = sqrt(352 / (6 * 6941 / 30)).
        got = deviation_time(math.sqrt(33.0), math.sqrt(50.0), math.sqrt(56.0))
        assert got == pytest.approx(0.50355314379044086, rel=1e-14)

    def test_inverse_scaling(self):
        b = (1.3, 1.9, 2.4)
        base = deviation_time(*b)
        for s in (0.5, 2.0, 7.0):
            scaled = deviation_time(*(s * x for x in b))
            assert scaled == pytest.approx(base / s, rel=1e-12)

    def test_undefined_when_fourth_order_vanishes(self):
        with pytest.raises(NumericalError, match="undefined"):
            deviation_time(1.0, math.sqrt(2.0), math.sqrt(3.0))

    def test_undefined_when_sixth_order_vanishes(self):
        # p3 = (7 p2^2 - p1 p2 - 8 p1^2) / (3 p2) makes c6 = 0 exactly.
        b3 = math.sqrt(25.0 / 3.0)
        with pytest.raises(NumericalError, match="undefined"):
            deviation_time(1.0, 2.0, b3)

    def test_needs_positive_coefficients(self):
        with pytest.raises(ValidationError):
            deviation_time(1.0, 0.0, 1.0)


class TestCsvOutput:
    def test_profile_round_trip(self, rng):
        b = rng.uniform(0.3, 2.0, size=6)
        t = np.linspace(0.0, 2.0, 9)
        prof = complexity_profile(evolve_amplitudes(b, t))
        buf = io.StringIO()
        save_profile_csv(prof, buf, tau_d=0.5)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "# tau_d = 0.5"
        assert lines[1] == "t,K,rate,dispersion,bound,ratio,tau_K"
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert first[5] == "nan"
        row3 = [float(x) for x in lines[3].split(",")]
        assert row3[1] == prof.complexity[1]
        assert row3[5] == prof.ratio[1]

    def test_profile_without_deviation_comment(self, rng):
        prof = complexity_profile(evolve_amplitudes(QUBIT_B, np.linspace(0, 1, 3)))
        buf = io.StringIO()
        save_profile_csv(prof, buf)
        assert buf.getvalue().startswith("t,K,")

    def test_amplitudes_layout(self):
        traj = evolve_amplitudes(QUBIT_B, np.linspace(0.0, 1.0, 3))
        buf = io.StringIO()
        save_amplitudes_csv(traj, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,phi_0,phi_1,phi_2"
        assert len(lines) == 4
        assert [float(x) for x in lines[1].split(",")][1] == 1.0
