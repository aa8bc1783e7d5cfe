import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbound.algebras import (
    AlgebraModel,
    classify_algebra,
    closure_test,
    model_amplitudes,
    model_observables,
    parse_model_spec,
)
from kbound.dynamics import TAIL_TOL, complexity_profile, evolve_amplitudes
from kbound.errors import NumericalError, ValidationError


class TestAlgebraModel:
    def test_su2_chain_values(self):
        m = AlgebraModel.su2(1.5)
        np.testing.assert_allclose(
            m.b(np.array([1, 2, 3])), [math.sqrt(3.0), 2.0, math.sqrt(3.0)]
        )
        assert m.D == 4
        assert m.alpha == -4.0
        assert m.gamma == 6.0

    def test_hw_chain_values(self):
        m = AlgebraModel.hw(nu=2.0)
        np.testing.assert_allclose(m.b(np.arange(1, 5)), 2.0 * np.sqrt([1, 2, 3, 4]))
        assert m.alpha == 0.0
        assert m.gamma == 8.0
        assert m.D is None

    def test_linear_growth_chain(self):
        # eta = nu = 1 collapses b_n = nu sqrt(n (n - 1 + eta)) to b_n = n.
        m = AlgebraModel.sl2r(1.0)
        np.testing.assert_allclose(m.b(np.arange(1, 8)), np.arange(1.0, 8.0))
        assert m.alpha == 4.0
        assert m.gamma == 2.0

    def test_su2_rejects_out_of_range_site(self):
        m = AlgebraModel.su2(1.0)
        with pytest.raises(ValidationError):
            m.b(3)
        with pytest.raises(ValidationError):
            m.b(0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            AlgebraModel("su3", 1.0)
        with pytest.raises(ValidationError):
            AlgebraModel.su2(0.7)  # not a half-integer
        with pytest.raises(ValidationError):
            AlgebraModel.su2(1.0, nu=0.0)
        with pytest.raises(ValidationError):
            AlgebraModel.sl2r(-1.0)
        with pytest.raises(ValidationError):
            AlgebraModel("su2", 1.0)  # j missing

    def test_half_integer_snapping(self):
        m = AlgebraModel.su2(2.5 + 1e-9)
        assert m.j == 2.5


class TestFromRates:
    def test_positive_alpha(self):
        m = AlgebraModel.from_rates(4.0, 202.0)
        assert m.kind == "sl2r"
        assert m.nu == pytest.approx(1.0)
        assert m.eta == pytest.approx(101.0)
        assert m.alpha == pytest.approx(4.0)
        assert m.gamma == pytest.approx(202.0)

    def test_zero_alpha(self):
        m = AlgebraModel.from_rates(0.0, 200.0)
        assert m.kind == "hw"
        assert m.nu == pytest.approx(10.0)

    def test_negative_alpha(self):
        m = AlgebraModel.from_rates(-4.0, 198.0)
        assert m.kind == "su2"
        assert m.j == pytest.approx(49.5)
        assert m.D == 100

    def test_negative_alpha_with_consistent_d(self):
        assert AlgebraModel.from_rates(-4.0, 198.0, D=100).D == 100

    def test_negative_alpha_with_wrong_d(self):
        with pytest.raises(ValidationError):
            AlgebraModel.from_rates(-4.0, 198.0, D=99)

    def test_finite_d_needs_negative_alpha(self):
        with pytest.raises(ValidationError):
            AlgebraModel.from_rates(4.0, 202.0, D=100)

    def test_non_half_integer_spin_rejected(self):
        with pytest.raises(ValidationError):
            AlgebraModel.from_rates(-4.0, 199.0)

    def test_round_trips_through_rates(self):
        for m in (AlgebraModel.su2(7.0, 0.8), AlgebraModel.hw(1.7),
                  AlgebraModel.sl2r(3.3, 1.2)):
            back = AlgebraModel.from_rates(m.alpha, m.gamma, m.D)
            assert back.kind == m.kind
            assert back.nu == pytest.approx(m.nu)


class TestParseModelSpec:
    def test_su2(self):
        m = parse_model_spec("su2:j=3.5,nu=2")
        assert (m.kind, m.j, m.nu) == ("su2", 3.5, 2.0)

    def test_nu_defaults_to_one(self):
        assert parse_model_spec("hw:").nu == 1.0
        assert parse_model_spec("syk:eta=2").nu == 1.0

    def test_syk_is_an_alias(self):
        m = parse_model_spec("syk:eta=1,nu=1")
        assert m.kind == "sl2r"
        assert m.label() == "syk:eta=1,nu=1"

    def test_saturating_spec(self):
        m = parse_model_spec("sat:alpha=-4,gamma=198,d=100")
        assert m.kind == "su2" and m.D == 100

    def test_rejects_malformed(self):
        for bad in ("su2", "su2:j", "su2:j=x", "su2:j=1,j=2", "orbit:j=1",
                    "su2:j=1,q=2", "hw:eta=1", "su2:nu=1"):
            with pytest.raises(ValidationError):
                parse_model_spec(bad)


def _law(alpha, gamma, n):
    """b_n of the saturating law, evaluated here from (alpha, gamma)."""
    n = np.asarray(n, dtype=np.float64)
    return np.sqrt(0.25 * alpha * n * (n - 1.0) + 0.5 * gamma * n)


class TestSaturatingLaw:
    def test_matches_family_chains(self):
        n = np.arange(1, 30)
        for m in (AlgebraModel.hw(1.3), AlgebraModel.sl2r(2.5, 0.7)):
            np.testing.assert_allclose(
                AlgebraModel.from_rates(m.alpha, m.gamma).b(n),
                _law(m.alpha, m.gamma, n), rtol=1e-13
            )
        m = AlgebraModel.su2(10.0, 1.1)
        n = np.arange(1, m.D)
        np.testing.assert_allclose(
            AlgebraModel.from_rates(m.alpha, m.gamma).b(n),
            _law(m.alpha, m.gamma, n), rtol=1e-13
        )

    def test_rejects_indices_past_the_finite_chain(self):
        with pytest.raises(ValidationError, match="n = 100"):
            AlgebraModel.from_rates(-4.0, 198.0).b(np.arange(1, 101))

    def test_rejects_non_integer_index(self):
        with pytest.raises(ValidationError):
            AlgebraModel.from_rates(0.0, 2.0).b(1.5)

    @pytest.mark.parametrize("alpha", [5e-324, 2.2250738585072014e-308, 1e-40])
    def test_alpha_below_resolution_is_hw(self, alpha):
        # eta = 2 gamma / alpha overflows (or nearly), while the alpha term
        # of b_n^2 is below rounding at any index a chain can reach.
        m = AlgebraModel.from_rates(alpha, 0.1)
        assert m.kind == "hw"
        n = np.arange(1, 51)
        np.testing.assert_allclose(m.b(n), _law(alpha, 0.1, n), rtol=1e-15)


class TestClosureTest:
    def test_exact_families_are_closed(self):
        for m in (AlgebraModel.su2(12.0, 0.9), AlgebraModel.hw(1.4),
                  AlgebraModel.sl2r(5.5, 1.3)):
            M = (m.D - 1) if m.D else 40
            b = m.b(np.arange(1, M + 1))
            rep = closure_test(b, D=m.D)
            assert rep.closed
            assert not rep.trivial
            assert rep.alpha == pytest.approx(m.alpha, abs=1e-10 * max(1, abs(m.alpha)))
            assert rep.gamma == pytest.approx(m.gamma, rel=1e-12)

    def test_gamma_is_twice_b1_squared(self, rng):
        b = rng.uniform(0.5, 2.0, size=10)
        rep = closure_test(b)
        assert rep.gamma == 2.0 * b[0] ** 2

    def test_single_perturbed_coefficient_breaks_closure(self):
        m = AlgebraModel.sl2r(3.0, 1.0)
        b = m.b(np.arange(1, 25))
        b[6] *= 1.1
        rep = closure_test(b)
        assert not rep.closed
        assert rep.max_residual > 0.1

    def test_trivial_chain_flagged(self):
        rep = closure_test([1.5], D=2)
        assert rep.trivial
        assert rep.closed  # one f value is constant by definition

    def test_open_chain_needs_two_coefficients(self):
        with pytest.raises(ValidationError, match="too short"):
            closure_test([1.5])

    def test_finite_d_must_match_length(self):
        with pytest.raises(ValidationError):
            closure_test([1.0, 1.0], D=5)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValidationError):
            closure_test([1.0, 0.0, 1.0])

    def test_scale_relative_tolerance(self):
        # A chain 100x larger has f values 1e4 larger; the same relative
        # wiggle must not flip the verdict.
        b = AlgebraModel.from_rates(0.5, 3.0).b(np.arange(1, 20))
        assert closure_test(b * 100.0).closed

    def test_classification(self):
        assert classify_algebra(-2.0) == "su2"
        assert classify_algebra(0.0) == "hw"
        assert classify_algebra(1e-12) == "hw"
        assert classify_algebra(3.0) == "sl2r"


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=5.0),
    gamma=st.floats(min_value=0.1, max_value=10.0),
    count=st.integers(min_value=3, max_value=50),
)
def test_saturating_chains_always_close(alpha, gamma, count):
    b = AlgebraModel.from_rates(alpha, gamma).b(np.arange(1, count + 1))
    rep = closure_test(b)
    assert rep.closed
    assert rep.alpha == pytest.approx(alpha, abs=1e-9 * max(1.0, gamma))


class TestSaturatedComplexity:
    """K(t) of the saturating law, reached from the rates (alpha, gamma)."""

    @staticmethod
    def _complexity(alpha, gamma, t, D=None):
        return model_observables(AlgebraModel.from_rates(alpha, gamma, D), t).complexity

    def test_three_branches(self):
        t = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(
            self._complexity(4.0, 202.0, t), 101.0 * np.sinh(t) ** 2, rtol=1e-13
        )
        np.testing.assert_allclose(
            self._complexity(0.0, 200.0, t), 100.0 * t * t, rtol=1e-13
        )
        np.testing.assert_allclose(
            self._complexity(-4.0, 198.0, t, D=100), 99.0 * np.sin(t) ** 2,
            rtol=1e-12, atol=1e-12,
        )

    def test_finite_branch_requires_d(self):
        # alpha < 0 fixes the chain length D = 1 + 2 gamma / |alpha|, which
        # must be whole; K is then (D - 1) sin^2(omega t) with
        # omega = sqrt(gamma / (2 (D - 1))).
        with pytest.raises(ValidationError, match="half-integer"):
            AlgebraModel.from_rates(-4.0, 197.0)
        t = np.linspace(0.0, 2.0, 9)
        for alpha, gamma, D in ((-4.0, 198.0, 100), (-0.5, 3.25, 14)):
            assert AlgebraModel.from_rates(alpha, gamma).D == D
            omega = math.sqrt(gamma / (2.0 * (D - 1)))
            np.testing.assert_allclose(
                self._complexity(alpha, gamma, t), (D - 1) * np.sin(omega * t) ** 2,
                rtol=1e-12, atol=1e-12,
            )

    def test_inconsistent_rates_rejected(self):
        with pytest.raises(ValidationError):
            self._complexity(-4.0, 198.0, [0.0, 1.0], D=50)


class TestModelAmplitudes:
    def test_su2_quarter_period(self):
        traj = model_amplitudes(AlgebraModel.su2(1.0), np.array([math.pi / 4]))
        np.testing.assert_allclose(
            traj.phi[0], [0.5, math.sqrt(0.5), 0.5], atol=1e-14
        )
        assert not traj.truncated

    def test_matches_chain_evolution_su2(self):
        m = AlgebraModel.su2(3.5, 1.2)
        t = np.linspace(0.0, 4.0, 33)
        closed = model_amplitudes(m, t)
        evolved = evolve_amplitudes(m.b(np.arange(1, m.D)), t)
        np.testing.assert_allclose(closed.phi, evolved.phi, atol=1e-12)

    def test_matches_chain_evolution_hw(self):
        # The closed form stops where its probability tail falls below its
        # tolerance; the family's window reports the wider amplitude tail.
        m = AlgebraModel.hw(0.9)
        t = np.linspace(0.0, 3.0, 25)
        closed = model_amplitudes(m, t)
        evolved = evolve_amplitudes(lambda n: m.b(np.asarray(n)), t)
        assert evolved.sites >= closed.sites
        np.testing.assert_allclose(
            closed.phi, evolved.phi[:, :closed.sites], atol=1e-12
        )

    def test_matches_chain_evolution_sl2r(self):
        m = AlgebraModel.sl2r(2.5, 0.8)
        t = np.linspace(0.0, 2.5, 21)
        closed = model_amplitudes(m, t)
        evolved = evolve_amplitudes(lambda n: m.b(np.asarray(n)), t)
        assert evolved.sites >= closed.sites
        np.testing.assert_allclose(
            closed.phi, evolved.phi[:, :closed.sites], atol=1e-12
        )

    def test_unit_norm_on_huge_chains(self):
        # Log-space evaluation must survive thousands of sites.
        m = AlgebraModel.sl2r(1.0)
        traj = model_amplitudes(m, np.array([0.0, 2.0, 4.0]))
        assert traj.sites >= 1000
        np.testing.assert_allclose(np.sum(traj.phi**2, axis=1), 1.0, rtol=0,
                                   atol=1e-10)

    def test_su2_rows_are_normalized(self):
        # Each row is divided by its own norm, which takes out the rounding
        # of the gammaln sums: K of D = 2000 over 601 points to t = 3 was
        # 2.7e-9 off its closed form without it, against 1.3e-11 for the
        # evolution of the same chain.
        m = AlgebraModel.su2(999.5)
        t = np.linspace(0.0, 3.0, 601)
        traj = model_amplitudes(m, t)
        assert traj.phi[0, 0] == 1.0 and not np.any(traj.phi[0, 1:])
        assert np.max(np.abs(np.sum(traj.phi**2, axis=1) - 1.0)) <= 1e-14
        K = complexity_profile(traj).complexity
        assert np.max(np.abs(K - model_observables(m, t).complexity)) < 1e-11

    def test_tail_mass_bounds_the_geometric_tail(self):
        # sl2r at eta = 1 puts tanh^(2n) x sech^2 x on site n: the mass
        # past the last of N sites is exactly tanh^(2N) x.
        traj = model_amplitudes(AlgebraModel.sl2r(1.0), np.array([0.0, 2.0, 4.0]))
        assert TAIL_TOL > traj.tail_mass >= math.tanh(4.0) ** (2 * traj.sites)
        np.testing.assert_allclose(np.sum(traj.phi**2, axis=1), 1.0, rtol=0,
                                   atol=2e-12)

    def test_tail_mass_is_the_poisson_tail(self):
        # hw puts the Poisson(x^2) weights e^{-x^2} x^{2n} / n! on site n.
        m = AlgebraModel.hw(0.9)
        traj = model_amplitudes(m, np.linspace(0.0, 3.0, 25))
        lam = (0.9 * 3.0) ** 2
        past = math.fsum(
            math.exp(n * math.log(lam) - lam - math.lgamma(n + 1.0))
            for n in range(traj.sites, traj.sites + 200)
        )
        assert traj.tail_mass == pytest.approx(past, rel=1e-9, abs=0.0)
        assert traj.tail_mass < TAIL_TOL
        np.testing.assert_allclose(np.sum(traj.phi**2, axis=1), 1.0, rtol=0,
                                   atol=2e-12)

    def test_grid_past_the_site_cap(self):
        with pytest.raises(NumericalError, match="MAX_MODEL_SITES"):
            model_amplitudes(AlgebraModel.hw(1.0), np.array([0.0, 1e4]))
        with pytest.raises(NumericalError, match="non-finite"):
            model_amplitudes(AlgebraModel.sl2r(2.0), np.array([0.0, 1e3]))

    def test_time_grid_validation(self):
        with pytest.raises(ValidationError):
            model_amplitudes(AlgebraModel.hw(1.0), [1.0, 0.5])


class TestModelObservables:
    def test_su2_closed_forms(self):
        m = AlgebraModel.su2(2.0, 1.5)
        t = np.linspace(0.0, 2.0, 17)
        prof = model_observables(m, t)
        x = 1.5 * t
        np.testing.assert_allclose(prof.complexity, 4.0 * np.sin(x) ** 2, rtol=1e-13)
        np.testing.assert_allclose(
            prof.dispersion, np.sqrt(1.0) * np.abs(np.sin(2 * x)), rtol=1e-12,
            atol=1e-15,
        )
        assert prof.b1 == pytest.approx(1.5 * 2.0)

    def test_ratio_is_one_wherever_defined(self):
        t = np.linspace(0.0, 3.0, 61)
        for m in (AlgebraModel.su2(4.5, 0.7), AlgebraModel.hw(1.1),
                  AlgebraModel.sl2r(3.0, 0.6)):
            prof = model_observables(m, t)
            defined = ~np.isnan(prof.ratio)
            np.testing.assert_allclose(prof.ratio[defined], 1.0, atol=1e-12)

    def test_agrees_with_evolved_profile(self):
        m = AlgebraModel.sl2r(4.0, 0.5)
        t = np.linspace(0.0, 3.0, 31)
        closed = model_observables(m, t)
        evolved = complexity_profile(
            evolve_amplitudes(lambda n: m.b(np.asarray(n)), t)
        )
        np.testing.assert_allclose(evolved.complexity, closed.complexity, atol=1e-9)
        np.testing.assert_allclose(evolved.rate, closed.rate, atol=1e-8)
        np.testing.assert_allclose(evolved.dispersion, closed.dispersion, atol=1e-9)


def _family_formulas(m, t):
    """Chain, (alpha, gamma, D) and closed-form profile of one family, each
    family written out on its own."""
    x = m.nu * t
    if m.kind == "su2":
        j = m.j
        n = np.arange(1.0, 2.0 * j + 1.0)
        b = m.nu * np.sqrt(n * (2.0 * j + 1.0 - n))
        rates = (-4.0 * m.nu**2, 4.0 * m.nu**2 * j, int(round(2.0 * j)) + 1)
        K = 2.0 * j * np.sin(x) ** 2
        disp = math.sqrt(j / 2.0) * np.abs(np.sin(2.0 * x))
        rate = 2.0 * j * m.nu * np.sin(2.0 * x)
        b1 = m.nu * math.sqrt(2.0 * j)
    elif m.kind == "hw":
        n = np.arange(1.0, 60.0)
        b = m.nu * np.sqrt(n)
        rates = (0.0, 2.0 * m.nu**2, None)
        K, disp, rate, b1 = x * x, np.abs(x), 2.0 * m.nu * x, m.nu
    else:
        eta = m.eta
        n = np.arange(1.0, 60.0)
        b = m.nu * np.sqrt(n * (n - 1.0 + eta))
        rates = (4.0 * m.nu**2, 2.0 * m.nu**2 * eta, None)
        K = eta * np.sinh(x) ** 2
        disp = 0.5 * math.sqrt(eta) * np.abs(np.sinh(2.0 * x))
        rate = eta * m.nu * np.sinh(2.0 * x)
        b1 = m.nu * math.sqrt(eta)
    bound = 2.0 * b1 * disp
    cutoff = 1e-12 * b1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > cutoff, np.abs(rate) / bound, np.nan)
        tau_k = np.where(np.abs(rate) > cutoff, disp / np.abs(rate), np.nan)
    return n, b, rates, (K, rate, disp, bound, ratio, tau_k), b1


@pytest.mark.parametrize("model", [
    AlgebraModel.su2(0.5), AlgebraModel.su2(7.0, 0.8), AlgebraModel.su2(999.5, 1.3),
    AlgebraModel.hw(1.7), AlgebraModel.hw(10.0), AlgebraModel.from_rates(1e-40, 0.1),
    AlgebraModel.sl2r(1.0), AlgebraModel.sl2r(101.0, 0.6), AlgebraModel.sl2r(0.03, 2.2),
], ids=lambda m: m.label())
def test_one_law_gives_each_family_bit_for_bit(model):
    # b_n^2 = nu^2 n (w + kappa (n - 1)) with one (kappa, w) per family: the
    # chain, the rates and every closed-form column equal the family's own
    # formulas exactly, NaN placement included.
    t = np.concatenate([np.linspace(-3.0, 3.0, 121), np.pi / model.nu * np.arange(1, 4)])
    t = np.unique(t)
    n, b, rates, columns, b1 = _family_formulas(model, t)
    np.testing.assert_array_equal(model.b(n), b)
    assert (model.alpha, model.gamma, model.D) == rates
    prof = model_observables(model, t)
    assert prof.b1 == b1
    for name, want in zip(("complexity", "rate", "dispersion", "bound", "ratio", "tau_k"),
                          columns):
        np.testing.assert_array_equal(getattr(prof, name), want, err_msg=name)
