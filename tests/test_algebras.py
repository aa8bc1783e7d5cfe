import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbound import algebras
from kbound.algebras import (
    _LAWS,
    MAX_MODEL_SITES,
    AlgebraModel,
    _cut,
    closure_test,
    model_amplitudes,
    model_observables,
    parse_model_spec,
)
from kbound.dynamics import TAIL_TOL, complexity_profile, evolve_amplitudes
from kbound.ensembles import goe_sample, uniform_observable
from kbound.errors import NumericalError, ValidationError
from kbound.lanczos import run_lanczos


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

    def test_rates_that_overflow_name_nu(self):
        # nu^2 overflows past nu ~ 1.3e154; nu itself is finite.
        m = AlgebraModel.hw(1e200)
        for rate in ("alpha", "gamma"):
            with pytest.raises(ValidationError, match=rf"{rate} of .* nu = 1e\+200"):
                getattr(m, rate)
        assert AlgebraModel.hw(1e150).gamma == 2.0 * 1e150 * 1e150

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
            assert rep.closed and rep.family == m.kind
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

    @pytest.mark.parametrize("model, sites", [
        (AlgebraModel.su2(0.5, 3.0), None), (AlgebraModel.hw(1e4), 2000),
        (AlgebraModel.sl2r(0.01), 20000), (AlgebraModel.su2(2e4), None),
    ], ids=lambda v: v.label() if isinstance(v, AlgebraModel) else str(v))
    def test_family_of_a_closed_chain(self, model, sites):
        # Neither the scale nor the length of a chain decides its verdict or
        # its family.  hw nu = 1e4 has f values of rounding size 1e-5 (an
        # absolute limit read them as sl2r).  The f values of sl2r eta = 0.01
        # round at max b_n^2 = 4e8, not at b_1^2 = 0.01 (a limit of
        # tol * max(1, b_1^2) = 1e-8 called the chain open).  The second
        # difference 2 nu^2 of a long sl2r or su2 chain is below
        # tol * max b_n^2, but not its quadratic term over the whole chain.
        b = model.b(np.arange(1, (model.D or sites + 1)))
        rep = closure_test(b, D=model.D)
        assert rep.closed and rep.family == model.kind

    def test_no_family_for_an_open_chain(self):
        b = AlgebraModel.sl2r(3.0, 1.0).b(np.arange(1, 25))
        b[6] *= 1.1
        assert closure_test(b).family is None

    @pytest.mark.parametrize("D", [None, "full"])
    def test_small_chain_is_not_closed_by_its_scale(self, D):
        # A GOE chain does not saturate at any scale; at 1e-5 its f values
        # (~1e-10) sat under an absolute limit of 1e-8.
        H = goe_sample(8, seed=1)
        res = run_lanczos(H, uniform_observable(H), store_basis=False)
        for scale in (1.0, 1e-5):
            rep = closure_test(scale * res.b, D=res.D if D else None)
            assert not rep.closed and rep.family is None


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

    @pytest.mark.parametrize("model, tmax, points", [
        (AlgebraModel.su2(999.5), 3.0, 601),
        (AlgebraModel.hw(10.0), 4.0, 201),
        (AlgebraModel.sl2r(101.0), 2.0, 201),
    ], ids=["su2", "hw", "sl2r"])
    def test_rows_are_plain_exp_of_their_logs(self, monkeypatch, model, tmax, points):
        # The rows skip exp where it underflows to exactly 0, and are then
        # bit for bit those of plain np.exp over the same logs; the su2 grid
        # holds exact zeros and subnormals both.
        def plain_power_rows(logw, log_size, negative, log_envelope):
            zero = log_size == -np.inf
            phi = np.outer(np.where(zero, 0.0, log_size),
                           np.arange(logw.size, dtype=np.float64))
            phi[zero, 1:] = -np.inf
            phi += logw
            phi += log_envelope[:, None]
            np.exp(phi, out=phi)
            phi[negative, 1::2] *= -1.0
            return phi

        times = np.linspace(0.0, tmax, points)
        got = model_amplitudes(model, times).phi
        monkeypatch.setattr(algebras, "_power_rows", plain_power_rows)
        want = model_amplitudes(model, times).phi
        np.testing.assert_array_equal(got, want)
        if model.D is not None:
            tiny = np.abs(want) < np.finfo(np.float64).tiny
            assert np.any(want == 0.0) and np.any(tiny & (want != 0.0))

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
        # past the last of N sites is exactly tanh^(2N) x.  Both sides round
        # it, the right one through the rounding of tanh 4, which 2N = 41186
        # multiplies to 4e-13 relative.
        traj = model_amplitudes(AlgebraModel.sl2r(1.0), np.array([0.0, 2.0, 4.0]))
        assert traj.tail_mass == pytest.approx(math.tanh(4.0) ** (2 * traj.sites),
                                               rel=1e-12, abs=0.0)
        assert traj.tail_mass < TAIL_TOL
        # Against tanh 4 in 40 digits it is within 1.6e-15: site n carries
        # n log tanh x to the rounding of that log (log(np.tanh) gave 4.2e-13).
        import mpmath
        with mpmath.workdps(40):
            exact = float(mpmath.tanh(4) ** (2 * traj.sites))
        assert traj.tail_mass == pytest.approx(exact, rel=1e-13, abs=0.0)
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

    @pytest.mark.parametrize("kind, w, x", [
        *[("hw", 1.0, x) for x in (0.0, 1e-3, 0.1, 1.0, 2.7, 10.0, 40.0, 100.0)],
        *[("sl2r", w, x) for w in (1e-6, 0.3, 1.0, 2.5, 101.0)
          for x in (0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0)],
    ])
    def test_cut_is_the_scipy_quantile(self, kind, w, x):
        # scipy's quantile k at 1 - TAIL_TOL of Poisson(x^2) or negative
        # binomial (w, sech^2 x) keeps ceil(k) + 2 sites, and its tail
        # function gives the mass past them.  Twice the cut keeps one site
        # less, where the tail past an integer is within 2e-6 below
        # TAIL_TOL and nbdtrik's root lands just past that integer:
        #   w = 1e-6, x = 1e-3: P(n >= 1) = (1 - 1.7e-7) TAIL_TOL, k = 1.5e-6;
        #   w = 1,    x = 1e-3: P(n >= 2) = (1 - 1.3e-6) TAIL_TOL, k = 1 + 1.5e-6.
        from scipy.special import betainc, nbdtrik, pdtrc, pdtrik
        model = AlgebraModel.hw(1.0) if kind == "hw" else AlgebraModel.sl2r(w)
        sites, tail, logw = _cut(model, x)
        if kind == "hw":
            k, past = pdtrik(1.0 - TAIL_TOL, x * x), pdtrc(sites - 1, x * x)
        else:
            k = nbdtrik(1.0 - TAIL_TOL, w, 1.0 / math.cosh(x) ** 2)
            past = betainc(sites, w, math.tanh(x) ** 2)
        off_by_one = (kind, w, x) in {("sl2r", 1e-6, 1e-3), ("sl2r", 1.0, 1e-3)}
        assert sites == math.ceil(k) + 2 - off_by_one
        assert logw.size == sites
        # The log-weights of site n carry about n log n ulps of rounding.
        assert tail == pytest.approx(past, rel=64 * 2.0**-52 * sites * math.log(sites),
                                     abs=0.0)
        assert tail <= TAIL_TOL

    def test_cut_near_the_site_cap(self):
        # hw at x = 2044 keeps 4192325 sites, 1979 below MAX_MODEL_SITES.
        # pdtrc's tail is 5.6e-4 off there, so the tail is checked against
        # a 40-digit sum of the Poisson terms; the log-weights near 4.2e6
        # round to 7.5e-9.
        import mpmath
        from scipy.special import pdtrik
        x = 2044.0
        sites, tail, _ = _cut(AlgebraModel.hw(1.0), x)
        assert sites == math.ceil(pdtrik(1.0 - TAIL_TOL, x * x)) + 2 == MAX_MODEL_SITES - 1979
        with mpmath.workdps(40):
            lam = mpmath.mpf(x) ** 2
            term = mpmath.exp(sites * mpmath.log(lam) - lam - mpmath.loggamma(sites + 1))
            n, past = sites, mpmath.mpf(0)
            while term > past * mpmath.mpf(10) ** -30:
                past += term
                n += 1
                term *= lam / n
        assert tail == pytest.approx(float(past), rel=1e-8, abs=0.0)
        # At x = 2045 the mean x^2 is below the cap and the cut past it.
        with pytest.raises(NumericalError, match="at least 4194306 sites"):
            _cut(AlgebraModel.hw(1.0), 2045.0)

    def test_tail_too_slow_to_sum(self, monkeypatch):
        # sl2r at w << 1 puts about w tanh^(2n) x / n on site n.  At x = 20
        # the ratio of its terms, tanh^2 x, rounds to 1: the cut raises
        # before it evaluates a single row.
        def unreached(*args):
            raise AssertionError("rows evaluated")
        law = _LAWS["sl2r"]
        monkeypatch.setitem(_LAWS, "sl2r", law._replace(logw=unreached, rows=unreached))
        with pytest.raises(NumericalError, match="too slowly to sum past 4194304 sites: "
                                                 "the ratio of its terms tends to 1.0$"):
            model_amplitudes(AlgebraModel.sl2r(1e-20), np.array([0.0, 20.0]))
        monkeypatch.setitem(_LAWS, "sl2r", law)
        # Under a cap of 4096 sites eta = 1e-12 is cut exactly where betainc
        # cuts it, and tail_mass is the mass past the kept sites, two-sided.
        from scipy.special import betainc
        monkeypatch.setattr(algebras, "MAX_MODEL_SITES", 1 << 12)
        w = 1e-12
        for x, sites in ((3.5, 75), (5.5, 3965)):
            traj = model_amplitudes(AlgebraModel.sl2r(w), np.array([0.0, x]))
            t2 = math.tanh(x) ** 2
            assert traj.sites == sites
            assert betainc(sites - 2, w, t2) > TAIL_TOL >= betainc(sites - 1, w, t2)
            assert traj.tail_mass == pytest.approx(betainc(sites, w, t2), rel=1e-11, abs=0.0)
        # At x = 6 the cut (10774 sites) lies past the cap.
        with pytest.raises(NumericalError, match="at least 4098 sites"):
            model_amplitudes(AlgebraModel.sl2r(w), np.array([0.0, 6.0]))

    def test_slow_tail_is_cut_where_betainc_cuts(self):
        # sl2r at eta = 1e-12 falls by 1e-5 a site at x = 7 and by 4.5e-7
        # at x = 8.  40-digit betainc puts the cut where it is kept and the
        # mass past it at past; tail_mass carries the rounding of tanh^2 x,
        # which 1 / sech^2 x magnifies.
        import mpmath
        w = 1e-12
        for x, sites, past in ((7.0, 79595, 9.99990028128e-13),
                               (8.0, 588123, 9.99997499180e-13)):
            kept, tail, _ = _cut(AlgebraModel.sl2r(w), x)
            assert kept == sites
            with mpmath.workdps(40):
                t2 = mpmath.tanh(mpmath.mpf(x)) ** 2
                I = [mpmath.betainc(n, w, 0, t2, regularized=True)
                     for n in (sites - 2, sites - 1, sites)]
            assert I[0] > TAIL_TOL >= I[1]
            assert float(I[2]) == pytest.approx(past, rel=1e-11, abs=0.0)
            assert tail == pytest.approx(past, rel=1e-9, abs=0.0)

    def test_su2_past_the_site_cap(self, monkeypatch):
        # D = 2e9 sites would take 15 GB of log-weights: the chain is refused
        # before they are computed.
        def unreached(*args):
            raise AssertionError("log-weights computed")
        monkeypatch.setitem(_LAWS, "su2", _LAWS["su2"]._replace(logw=unreached))
        with pytest.raises(NumericalError, match="D = 2000000001 sites, past "
                                                 "MAX_MODEL_SITES = 4194304"):
            model_amplitudes(AlgebraModel.su2(1e9), np.array([0.0, 1.0]))

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

    def test_overflow_names_the_largest_nu_t(self):
        # sinh(2 nu t) overflows a double past nu t = asinh(max) / 2.
        m = AlgebraModel.sl2r(1.0)
        with pytest.raises(NumericalError, match=r"past nu t = 355\.238, .* nu t = 400"):
            model_observables(m, [0.0, 400.0])
        edge = math.asinh(np.finfo(np.float64).max) / 2.0
        prof = model_observables(m, [0.0, edge * (1.0 - 1e-12)])
        assert np.all(np.isfinite(prof.complexity)) and np.all(np.isfinite(prof.bound))
        with pytest.raises(NumericalError, match="syk:eta=1,nu=0.5"):
            model_observables(AlgebraModel.sl2r(1.0, 0.5), [0.0, 720.0])

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


@pytest.mark.parametrize("kind, w", [("su2", 4199.0), ("hw", 1.0), ("sl2r", 0.3),
                                     ("sl2r", 101.0)])
def test_log_weights_against_mpmath(kind, w):
    # Each log-weight is half a sum of up to three math.lgamma values below
    # 3.2e4, each within about an ulp (3.6e-12) of its 40-digit value.
    import mpmath
    ns = np.arange(0.0, 4200.0, 3.0)
    lg = mpmath.loggamma
    exact = {"su2": lambda n: (lg(w + 1) - lg(n + 1) - lg(w - n + 1)) / 2,
             "hw": lambda n: -lg(n + 1) / 2,
             "sl2r": lambda n: (lg(n + w) - lg(n + 1) - lg(w)) / 2}[kind]
    with mpmath.workdps(40):
        want = np.array([float(exact(mpmath.mpf(n))) for n in ns])
    got = _LAWS[kind].logw(ns, w)
    assert np.max(np.abs(got - want)) <= 2.0 * math.ulp(3.2e4)


# (kappa, w, x) and the site counts n where the cut's window starts and
# where it cuts (hw at w = 1, sl2r at w = eta; sl2r at eta = 1e-6, x = 8 is
# cut past the site cap).
_TAIL_CASES = [
    (0.0, 1.0, 0.5, (69, 11)), (0.0, 1.0, 2.0, (84, 27)), (0.0, 1.0, 4.0, (112, 53)),
    (0.0, 1.0, 8.0, (192, 130)),
    (1.0, 1e-12, 0.5, (65, 2)), (1.0, 1e-12, 2.0, (65, 6)), (1.0, 1e-12, 4.0, (65, 199)),
    (1.0, 1e-12, 8.0, (82, 588123)),
    (1.0, 1e-6, 0.5, (65, 9)), (1.0, 1e-6, 2.0, (65, 156)), (1.0, 1e-6, 4.0, (70, 8431)),
    (1.0, 1e-6, 8.0, (17839,)),
    (1.0, 0.3, 0.5, (67, 18)), (1.0, 0.3, 2.0, (128, 333)), (1.0, 0.3, 4.0, (3553, 18093)),
    (1.0, 1.0, 0.5, (69, 19)), (1.0, 1.0, 2.0, (187, 379)), (1.0, 1.0, 4.0, (6771, 20593)),
    (1.0, 101.0, 0.5, (139, 83)), (1.0, 101.0, 2.0, (2490, 2526)),
    (1.0, 101.0, 4.0, (135200, 140500)),
]


@pytest.mark.parametrize("kappa, w, x, n", [(kappa, w, x, n) for kappa, w, x, ns in _TAIL_CASES
                                            for n in ns])
def test_tail_ratio_against_mpmath(kappa, w, x, n):
    # The mass from site n on over p_n: for sl2r the 40-digit incomplete beta
    # I_t2(n, w) over its leading term, for hw the 40-digit Poisson(x^2) tail
    # summed term by term.  The fraction's terms 1 + a d cancel to about
    # 1 - kappa t2 (sech^2 x for sl2r) of their size, so its rounding grows
    # as 1 / (1 - kappa t2): over these cases it is at most 78 ulps times
    # that (2e-10 at x = 8, n = 588123), and 256 are allowed.
    import mpmath
    S = x if kappa == 0.0 else math.sinh(x)
    K = w * S * S
    t2 = K / (w + kappa * K)
    got = algebras._tail_ratio(kappa, w, t2, n)
    with mpmath.workdps(40):
        T2 = mpmath.mpf(t2)
        if kappa:
            want = mpmath.betainc(n, w, 0, T2, regularized=True) / mpmath.exp(
                mpmath.loggamma(n + w) - mpmath.loggamma(n + 1) - mpmath.loggamma(w)
                + n * mpmath.log(T2) + w * mpmath.log(1 - T2))
        else:
            term, want, m = mpmath.mpf(1), mpmath.mpf(0), n
            while term > want * mpmath.mpf(10) ** -30:
                want += term
                m += 1
                term *= T2 * w / m
    assert got == pytest.approx(float(want), rel=2.0**-44 / (1.0 - kappa * t2), abs=0.0)


def test_log_tanh_against_mpmath():
    # sl2r's site n carries n log tanh x, so log tanh x must be good to
    # rounding relative to its value: log(np.tanh(4.0)) is 1.5e-14 off.
    import mpmath
    a = np.array([1e-300, 1e-8, 1e-3, 0.1, 0.49, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 300.0])
    with mpmath.workdps(300):             # tanh 300 = 1 - 5e-261
        want = np.array([float(mpmath.log(mpmath.tanh(mpmath.mpf(v)))) for v in a])
    got = algebras._log_tanh(a)
    np.testing.assert_allclose(got, want, rtol=4 * 2.0**-52, atol=0.0)
    assert algebras._log_tanh(np.array([0.0]))[0] == -np.inf


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
