"""Tests for tail laws, winsorization, and effective-variance computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyreg import tails
from heavyreg.errors import ConfigError, ConvergenceError
from heavyreg.streams import substream
from heavyreg.tails import (
    NoiseFamily,
    TailLaw,
    WinsorPlan,
    effective_variance_asymptotic,
    effective_variance_exact,
    fisher_information,
    mean_absolute,
    sample_noise,
    truncated_fourth_moment,
    winsor_plan,
    winsorize,
)

PARETO = TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=1.5)
STUDENT = TailLaw(NoiseFamily.STUDENT_T, alpha=1.5)
STABLE = TailLaw(NoiseFamily.ALPHA_STABLE, alpha=1.5)


class TestTailLawValidation:
    """Constructor contracts for tail laws."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5, float("nan")])
    def test_rejects_tail_index_outside_open_interval(self, alpha):
        with pytest.raises(ConfigError):
            TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=alpha)

    def test_rejects_negative_scale(self):
        with pytest.raises(ConfigError):
            TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=1.5, scale=-1.0)

    def test_zero_scale_is_accepted_for_noiseless_rows(self):
        law = TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=1.5, scale=0.0)
        assert law.scale == 0.0


class TestTailConstants:
    """Unit-scale tail constants c = lim t^alpha P(|w| > t)."""

    def test_pareto_constant_is_one(self):
        assert PARETO.c == 1.0

    def test_student_constant_matches_gamma_closed_form(self):
        # 2 nu^(nu/2-1) Gamma((nu+1)/2) / (sqrt(pi) Gamma(nu/2)) at nu = 1.5.
        assert STUDENT.c == pytest.approx(0.7541704864032494, rel=1.0e-12)

    def test_failed_student_self_check_is_a_convergence_failure(self, monkeypatch):
        closed_form = tails._student_tail_constant
        monkeypatch.setattr(tails, "_student_tail_constant", lambda alpha: 1.001 * closed_form(alpha))
        with pytest.raises(ConvergenceError, match="self-check failed"):
            TailLaw(NoiseFamily.STUDENT_T, alpha=1.37)

    def test_stable_constant_matches_gamma_closed_form(self):
        # (2/pi) Gamma(alpha) sin(pi alpha / 2) at alpha = 1.5.
        assert STABLE.c == pytest.approx(0.3989422804014327, rel=1.0e-12)

    @pytest.mark.parametrize("law", [PARETO, STUDENT, STABLE], ids=lambda l: l.family.value)
    def test_survival_times_power_approaches_constant(self, law):
        """t^alpha * P(|w| > t) converges to c as t grows."""
        t = 1.0e5
        assert t ** law.alpha * float(law.survival(t)) == pytest.approx(law.c, rel=1.0e-3)


class TestSurvival:
    """Survival-function shape checks."""

    @pytest.mark.parametrize("law", [PARETO, STUDENT, STABLE], ids=lambda l: l.family.value)
    def test_survival_is_a_decreasing_probability(self, law):
        t = np.geomspace(1.0e-3, 1.0e4, 60)
        s = law.survival(t)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert np.all(np.diff(s) <= 1.0e-15)

    def test_pareto_survival_closed_form(self):
        assert float(PARETO.survival(0.5)) == 1.0
        assert float(PARETO.survival(4.0)) == pytest.approx(4.0 ** -1.5, rel=0.0, abs=0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            PARETO.survival(-1.0)


class TestWinsorize:
    """Clamping contracts."""

    def test_values_clamped_to_threshold(self):
        out = winsorize(np.array([-5.0, -0.5, 0.0, 2.0, 100.0]), 2.0)
        assert np.array_equal(out, np.array([-2.0, -0.5, 0.0, 2.0, 2.0]))

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigError):
            winsorize(np.array([1.0]), 0.0)

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ConfigError):
            winsorize(np.array([1.0, float("inf")]), 2.0)

    @given(
        st.lists(st.floats(-1.0e6, 1.0e6), min_size=1, max_size=50),
        st.floats(1.0e-3, 1.0e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_sign_and_idempotence(self, values, tau):
        """|out| <= tau, signs survive, and winsorizing twice is a no-op."""
        x = np.asarray(values)
        out = winsorize(x, tau)
        assert np.all(np.abs(out) <= tau)
        assert np.all(np.sign(out) == np.sign(x))
        assert np.array_equal(winsorize(out, tau), out)
        inside = np.abs(x) <= tau
        assert np.array_equal(out[inside], x[inside])


class TestEffectiveVariance:
    """Second moment of the winsorized law."""

    def test_pareto_closed_form_at_tau_100(self):
        # 1 + (2/(2-alpha)) (tau^(2-alpha) - 1) = 1 + 4*(10-1) = 37 exactly.
        assert effective_variance_exact(PARETO, 100.0) == 37.0

    def test_pareto_closed_form_at_tau_1e4(self):
        assert effective_variance_exact(PARETO, 1.0e4) == 397.0

    def test_pareto_below_unit_threshold_is_tau_squared(self):
        assert effective_variance_exact(PARETO, 0.5) == 0.25

    def test_pareto_asymptotic_form(self):
        # (2c/(2-alpha)) n^((2-alpha)/alpha) = 4 sqrt(n^(2/3)) ... = 40 at n=1000.
        assert effective_variance_asymptotic(PARETO, 1000) == pytest.approx(40.0, rel=1.0e-12)
        assert effective_variance_asymptotic(PARETO, 10 ** 6) == pytest.approx(400.0, rel=1.0e-12)

    def test_student_exact_matches_independent_integration(self):
        # Frozen from a direct quad of 2 t P(|w| > t) over [0, 100].
        assert effective_variance_exact(STUDENT, 100.0) == pytest.approx(27.16762745875146, rel=1.0e-8)

    def test_student_asymptotic_value(self):
        assert effective_variance_asymptotic(STUDENT, 1000) == pytest.approx(30.166819456129975, rel=1.0e-12)

    def test_exact_approaches_asymptotic_for_large_thresholds(self):
        """The exact-to-asymptotic ratio tends to 1 as tau = n^(1/alpha) grows."""
        ratios = []
        for n in (10 ** 3, 10 ** 5, 10 ** 7):
            tau = n ** (1.0 / STUDENT.alpha)
            ratios.append(effective_variance_exact(STUDENT, tau) / effective_variance_asymptotic(STUDENT, n))
        gaps = [abs(r - 1.0) for r in ratios]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.02

    def test_scale_squared_factors_out(self):
        scaled = TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=1.5, scale=3.0)
        base = effective_variance_exact(PARETO, 100.0)
        assert effective_variance_exact(scaled, 100.0) == pytest.approx(9.0 * base, rel=1.0e-12)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_quadrature_that_misses_its_tolerance_is_a_convergence_failure(self):
        """Near alpha = 2 the stable tail integral loses 1e-10 to roundoff at tau_n
        for n = 1e5; valid arguments, so the failure is numerical."""
        law = TailLaw(NoiseFamily.ALPHA_STABLE, 1.95)
        with pytest.raises(ConvergenceError, match="quadrature did not converge"):
            effective_variance_exact(law, 1.0e5 ** (1.0 / 1.95))


class TestWinsorPlan:
    """Threshold schedule tied to the sample size."""

    def test_plan_threshold_and_variance(self):
        plan = winsor_plan(PARETO, 1000)
        assert isinstance(plan, WinsorPlan)
        assert plan.tau == pytest.approx(1000 ** (2.0 / 3.0), rel=1.0e-14)
        assert plan.sigma2 == pytest.approx(effective_variance_exact(PARETO, plan.tau), rel=1.0e-14)

    def test_fisher_information_at_n_1000(self):
        # n / sigma_n^2 with the asymptotic variance: 1000 / 40 = 25.
        assert fisher_information(PARETO, 1000) == pytest.approx(25.0, rel=1.0e-12)

    def test_information_grows_with_sample_size(self):
        """More winsorized observations always carry more information."""
        values = [fisher_information(PARETO, n) for n in (10 ** 2, 10 ** 3, 10 ** 4)]
        assert values[0] < values[1] < values[2]


class TestFourthMoment:
    """Borderline-variance diagnostic."""

    def test_asymptotic_value_at_tau_10(self):
        assert truncated_fourth_moment(PARETO, 10.0) == pytest.approx(505.96442562694074, rel=1.0e-12)

    def test_unit_threshold(self):
        assert truncated_fourth_moment(PARETO, 1.0) == pytest.approx(1.6, rel=1.0e-12)

    def test_rejects_subunit_threshold(self):
        with pytest.raises(ConfigError):
            truncated_fourth_moment(PARETO, 0.5)

    def test_borderline_ratio_is_order_one_in_n(self):
        """n^-1 M4 / sigma4 stays bounded when tau = n^(1/alpha)."""
        ratios = []
        for n in (10 ** 3, 10 ** 5, 10 ** 7):
            tau = n ** (1.0 / PARETO.alpha)
            m4 = truncated_fourth_moment(PARETO, tau)
            s2 = effective_variance_asymptotic(PARETO, n)
            ratios.append(m4 / (n * s2 ** 2))
        assert max(ratios) / min(ratios) < 1.0001


class TestMeanAbsolute:
    """First absolute moments, all finite for tail index above one."""

    def test_pareto(self):
        assert mean_absolute(PARETO) == pytest.approx(3.0, rel=1.0e-12)

    def test_student(self):
        assert mean_absolute(STUDENT) == pytest.approx(2.044409887732162, rel=1.0e-12)

    def test_stable(self):
        assert mean_absolute(STABLE) == pytest.approx(1.705465240152388, rel=1.0e-12)

    def test_scale_multiplies_linearly(self):
        scaled = TailLaw(NoiseFamily.STUDENT_T, alpha=1.5, scale=2.5)
        assert mean_absolute(scaled) == pytest.approx(2.5 * mean_absolute(STUDENT), rel=1.0e-12)


class TestSampling:
    """Noise sampler distributional checks (seeded, deterministic)."""

    def test_zero_scale_gives_zeros(self):
        law = TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=1.5, scale=0.0)
        w = sample_noise(law, 100, substream(7, "noise"))
        assert np.array_equal(w, np.zeros(100))

    def test_scale_equivariance_is_exact(self):
        """Scaling the law multiplies the identical unit draw bit-for-bit."""
        for family in NoiseFamily:
            unit = TailLaw(family, alpha=1.5)
            scaled = TailLaw(family, alpha=1.5, scale=7.25)
            w_unit = sample_noise(unit, 500, substream(11, "noise", 3))
            w_scaled = sample_noise(scaled, 500, substream(11, "noise", 3))
            assert np.array_equal(w_scaled, 7.25 * w_unit)

    def test_pareto_magnitudes_start_at_one(self):
        w = sample_noise(PARETO, 10 ** 5, substream(3, "noise"))
        assert np.min(np.abs(w)) >= 1.0

    def test_pareto_empirical_mean_near_zero(self):
        """Symmetry: mean within 3 SEs of 0, SE from the winsorized proxy."""
        w = sample_noise(PARETO, 10 ** 6, substream(5, "noise"))
        proxy_sd = math.sqrt(effective_variance_exact(PARETO, 10 ** 6 ** (1 / 1.5)))
        assert abs(float(np.mean(w))) <= 3.0 * proxy_sd / math.sqrt(10 ** 6)

    def test_pareto_empirical_mean_absolute_within_two_percent(self):
        w = sample_noise(PARETO, 10 ** 6, substream(5, "noise"))
        assert float(np.mean(np.abs(w))) == pytest.approx(3.0, rel=0.02)

    def test_pareto_winsorized_moments_match_closed_forms(self):
        """E|w^tau| = 3 - 2/sqrt(tau) and E[(w^tau)^2] from the closed form."""
        tau = 10.0
        w = winsorize(sample_noise(PARETO, 2 * 10 ** 5, substream(9, "noise")), tau)
        assert float(np.mean(np.abs(w))) == pytest.approx(3.0 - 2.0 / math.sqrt(tau), rel=0.01)
        assert float(np.mean(w ** 2)) == pytest.approx(effective_variance_exact(PARETO, tau), rel=0.02)

    @pytest.mark.parametrize("law", [STUDENT, STABLE], ids=lambda l: l.family.value)
    def test_empirical_exceedance_matches_survival(self, law):
        """Observed exceedance frequencies track the law's survival function."""
        n = 4 * 10 ** 5
        w = np.abs(sample_noise(law, n, substream(13, "noise")))
        for t in (1.0, 3.0, 10.0):
            p = float(law.survival(t))
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(float(np.mean(w > t)) - p) <= 4.0 * se

    def test_streams_are_purpose_and_replication_disjoint(self):
        a = sample_noise(PARETO, 50, substream(21, "noise", 0))
        b = sample_noise(PARETO, 50, substream(21, "noise", 1))
        c = sample_noise(PARETO, 50, substream(21, "signal", 0))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_same_stream_reproduces_identically(self):
        a = sample_noise(STABLE, 64, substream(21, "noise", 4))
        b = sample_noise(STABLE, 64, substream(21, "noise", 4))
        assert np.array_equal(a, b)
