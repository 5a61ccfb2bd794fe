"""Tests for the deterministic risk predictions.

The closed-form ridge route is checked against three independent references:
a Stieltjes-transform identity for the null-misalignment identity-covariance
case, the classical fixed-design formula in the zero-aspect-ratio limit, and
finite-sample Monte Carlo with Gaussian noise.  The general fixed-point route
is then required to reproduce the closed form and to achieve the universal
large-noise floor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyreg.convex import RegKind, Regularizer
from heavyreg.errors import ConvergenceError
from heavyreg.spectrum import CovarianceModel, decompose, project_delta, q_sigma, sample_sphere
from heavyreg.streams import substream
from heavyreg.theory import (
    RiskPrediction,
    TheoryInputs,
    ridge_risk_closed_form,
    solve_companion_v,
    solve_general_fixed_point,
)


def make_spectrum(p=400, rho=0.5, seed=123, radius=1.0, identity=False):
    model = CovarianceModel.identity(p) if identity else CovarianceModel.ar1(p, rho)
    spec = decompose(model)
    delta = sample_sphere(p, radius, substream(seed, "signal"))
    return project_delta(spec, delta, np.zeros(p))


def mp_resolvent_integral(gamma, mu):
    """int s/(s+mu)^2 dMP_gamma(s) = m(-mu) - mu m'(-mu), via the explicit
    Marchenko-Pastur Stieltjes transform."""
    z = -mu
    m = ((1.0 - gamma - z) - math.sqrt((1.0 - gamma - z) ** 2 - 4.0 * gamma * z)) / (2.0 * gamma * z)
    mprime = (gamma * m ** 2 + m) / ((1.0 - gamma - z) - 2.0 * gamma * z * m)
    return m - mu * mprime


class TestCompanion:
    """The scalar companion equation 1/v = 1 + gamma E[S/(Sv+mu)]."""

    def test_flat_spectrum_analytic_root(self):
        """For S = 1, gamma = 1/2, mu = 1 the equation reduces to
        v^2 + v/2 - 1 = 0 with positive root (sqrt(17)/2 - 1/2)/2."""
        v = solve_companion_v(np.ones(400), 0.5, 1.0)
        assert v == pytest.approx((math.sqrt(4.25) - 0.5) / 2.0, rel=1.0e-13)
        assert v == pytest.approx(0.7807764064044151, rel=1.0e-12)

    def test_zero_aspect_ratio_gives_unit_root(self):
        assert solve_companion_v(np.ones(10), 0.0, 3.0) == 1.0

    def test_unpenalized_underparametrized_root(self):
        assert solve_companion_v(np.linspace(0.5, 2.0, 20), 0.4, 0.0) == pytest.approx(0.6, rel=1.0e-12)

    def test_unpenalized_overparametrized_rejected(self):
        with pytest.raises(ValueError):
            solve_companion_v(np.ones(4), 1.2, 0.0)

    def test_nonpositive_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            solve_companion_v(np.array([1.0, 0.0]), 0.5, 1.0)

    @given(st.floats(0.05, 0.95), st.floats(1.0e-3, 1.0e3))
    @settings(max_examples=80, deadline=None)
    def test_root_lies_in_unit_interval_with_tiny_residual(self, gamma, mu):
        s = decompose(CovarianceModel.ar1(60, 0.5)).eigenvalues
        v = solve_companion_v(s, gamma, mu)
        assert 0.0 < v <= 1.0
        residual = 1.0 / v - 1.0 - gamma * float(np.mean(s / (s * v + mu)))
        assert abs(residual) <= 1.0e-10

    def test_root_decreases_with_aspect_ratio(self):
        """More parameters per observation force more effective shrinkage."""
        s = np.ones(50)
        roots = [solve_companion_v(s, g, 1.0) for g in (0.1, 0.5, 0.9)]
        assert roots[0] > roots[1] > roots[2]


class TestRidgeClosedForm:
    """Companion-resolvent closed form against independent references."""

    def test_null_misalignment_matches_stieltjes_identity(self):
        """With identity covariance and zero misalignment the scaled risk
        equals the Marchenko-Pastur resolvent integral exactly."""
        p, gamma, sigma2, lt = 500, 0.5, 1.0, 1.0
        spec = decompose(CovarianceModel.identity(p))
        spec = project_delta(spec, np.zeros(p), np.zeros(p))
        pred = ridge_risk_closed_form(TheoryInputs(spec, gamma, sigma2, lt))
        scaled = pred.risk / (gamma * sigma2 / p)
        assert scaled == pytest.approx(mp_resolvent_integral(gamma, lt * sigma2), rel=1.0e-10)

    def test_zero_aspect_ratio_recovers_fixed_design_bias(self):
        """At gamma = 0 the prediction is the classical deterministic
        shrinkage bias mu^2 p^-1 sum s Delta^2 / (s + mu)^2."""
        spec = make_spectrum(p=200, seed=5)
        mu = 0.7
        pred = ridge_risk_closed_form(TheoryInputs(spec, 0.0, 1.0, 0.7))
        direct = mu ** 2 * float(np.mean(spec.eigenvalues * spec.delta_coeffs ** 2 / (spec.eigenvalues + mu) ** 2))
        assert pred.risk == pytest.approx(direct, rel=1.0e-12)
        assert pred.variance_term == 0.0
        assert pred.tau == 1.0

    def test_finite_sample_monte_carlo_agreement(self):
        """Gaussian-noise Monte Carlo at n = 1600 falls within 3 SEs."""
        n, p = 1600, 800
        gamma = p / n
        sigma2, lt = 2.0, 1.0
        spec = make_spectrum(p=p, seed=11)
        pred = ridge_risk_closed_form(TheoryInputs(spec, gamma, sigma2, lt))
        sqrt_sigma = spec.sqrt_matrix()
        delta = spec.basis @ spec.delta_coeffs
        rng = np.random.default_rng(2024)
        mu = lt * sigma2
        risks = []
        for _ in range(24):
            x = rng.standard_normal((n, p)) @ sqrt_sigma
            w = rng.standard_normal(n) * math.sqrt(sigma2)
            y = x @ delta + w  # centering shift cancels; fit against beta0 = 0
            g = x.T @ x / n
            d = np.linalg.solve(g + mu * np.eye(p), x.T @ y / n)
            err = d - delta
            risks.append(float(err @ spec.matrix @ err) / p)
        mc = float(np.mean(risks))
        se = float(np.std(risks, ddof=1)) / math.sqrt(len(risks))
        assert abs(pred.risk - mc) <= 3.0 * se

    def test_decomposition_adds_up(self):
        spec = make_spectrum()
        pred = ridge_risk_closed_form(TheoryInputs(spec, 0.5, 10.0, 0.5))
        assert pred.bias_term >= 0.0 and pred.variance_term >= 0.0
        assert pred.risk == pytest.approx(pred.bias_term + pred.variance_term, rel=1.0e-12)
        assert pred.tau == pytest.approx(math.sqrt(1.0 + 0.5 * pred.risk), rel=1.0e-14)

    def test_noiseless_input_gives_zero_risk(self):
        pred = ridge_risk_closed_form(TheoryInputs(make_spectrum(), 0.5, 0.0, 1.0))
        assert pred.risk == 0.0 and pred.tau == 1.0

    def test_noise_adapted_penalty_saturates_at_the_floor(self):
        """As the noise level diverges the risk climbs to the misalignment
        energy and stops there."""
        spec = make_spectrum()
        q = q_sigma(spec)
        risks = [ridge_risk_closed_form(TheoryInputs(spec, 0.5, s2, 1.0)).risk for s2 in (1.0, 1.0e2, 1.0e4, 1.0e10)]
        assert all(a < b for a, b in zip(risks, risks[1:]))
        assert risks[-1] == pytest.approx(q, rel=1.0e-4)
        assert risks[-1] <= q

    def test_rejects_non_ridge_penalty(self):
        with pytest.raises(ValueError):
            ridge_risk_closed_form(TheoryInputs(make_spectrum(), 0.5, 1.0, 1.0, reg=Regularizer(RegKind.LASSO)))

    def test_inputs_validate_gamma_against_sample_size(self):
        with pytest.raises(ValueError):
            TheoryInputs(make_spectrum(p=400), 0.5, 1.0, 1.0, n=1000)
        TheoryInputs(make_spectrum(p=400), 0.5, 1.0, 1.0, n=800)

    def test_inputs_require_projected_spectrum(self):
        spec = decompose(CovarianceModel.identity(8))
        with pytest.raises(ValueError):
            TheoryInputs(spec, 0.5, 1.0, 1.0)


class TestGeneralFixedPoint:
    """Scalar fixed-point route for general separable penalties."""

    @pytest.mark.parametrize("identity", [True, False], ids=["identity", "ar1"])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("sigma2", [1.0, 50.0])
    def test_ridge_specialization_matches_closed_form(self, identity, gamma, sigma2):
        """The quadrature fixed point reproduces the closed form to 1e-6."""
        spec = make_spectrum(identity=identity)
        ti = TheoryInputs(spec, gamma, sigma2, 1.0)
        closed = ridge_risk_closed_form(ti)
        fixed = solve_general_fixed_point(ti)
        assert fixed.risk == pytest.approx(closed.risk, rel=1.0e-6)
        assert fixed.tau == pytest.approx(closed.tau, rel=1.0e-6)

    def test_quadrature_node_count_is_converged(self):
        """Doubling the Gauss-Hermite nodes leaves the answer unchanged."""
        spec = make_spectrum()
        for reg in (Regularizer(RegKind.RIDGE), Regularizer(RegKind.LASSO), Regularizer(RegKind.ELASTIC_NET, 0.5)):
            ti = TheoryInputs(spec, 0.5, 5.0, 1.0, reg=reg)
            r61 = solve_general_fixed_point(ti, gh_nodes=61).risk
            r121 = solve_general_fixed_point(ti, gh_nodes=121).risk
            assert r121 == pytest.approx(r61, rel=1.0e-8)

    @pytest.mark.parametrize("reg", [Regularizer(RegKind.LASSO), Regularizer(RegKind.ELASTIC_NET, 0.5)], ids=["lasso", "elastic_net"])
    def test_large_noise_floor_is_exact(self, reg):
        """At enormous noise the prox collapses and the risk equals the
        misalignment energy; tau hits sqrt(1 + gamma q)."""
        spec = make_spectrum()
        ti = TheoryInputs(spec, 0.5, 1.0e12, 1.0, reg=reg)
        pred = solve_general_fixed_point(ti)
        q = q_sigma(spec)
        assert pred.risk == pytest.approx(q, rel=1.0e-9)
        assert pred.tau == pytest.approx(math.sqrt(1.0 + 0.5 * q), rel=1.0e-12)

    def test_risk_rises_monotonically_to_the_floor(self):
        """With order-one coefficients the soft threshold is selective at low
        noise, and the risk climbs through it to the floor."""
        spec = make_spectrum(radius=20.0)
        q = q_sigma(spec)
        risks = [
            solve_general_fixed_point(TheoryInputs(spec, 0.5, s2, 0.5, reg=Regularizer(RegKind.LASSO))).risk
            for s2 in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a < b for a, b in zip(risks[:4], risks[1:4]))
        assert risks[-1] <= q * (1.0 + 1.0e-9)
        assert risks[-1] == pytest.approx(q, rel=1.0e-6)

    def test_tiny_misalignment_pins_the_lasso_at_the_floor(self):
        """Unit-sphere misalignment spreads 1/sqrt(p) mass per coordinate:
        any noise-adapted soft threshold wipes it out, so the risk sits at
        the floor across the whole noise range."""
        spec = make_spectrum()
        q = q_sigma(spec)
        for s2 in (1.0, 100.0):
            pred = solve_general_fixed_point(TheoryInputs(spec, 0.5, s2, 1.0, reg=Regularizer(RegKind.LASSO)))
            assert pred.risk == pytest.approx(q, rel=1.0e-12)

    def test_reported_diagnostics(self):
        pred = solve_general_fixed_point(TheoryInputs(make_spectrum(), 0.5, 3.0, 1.0))
        assert isinstance(pred, RiskPrediction)
        assert 1 <= pred.iterations <= 500
        assert pred.residual <= 1.0e-9
        assert pred.tau >= 1.0
        assert pred.tau == pytest.approx(math.sqrt(1.0 + 0.5 * pred.risk), rel=1.0e-14)

    def test_noiseless_input_short_circuits(self):
        pred = solve_general_fixed_point(TheoryInputs(make_spectrum(), 0.5, 0.0, 1.0))
        assert pred.risk == 0.0 and pred.tau == 1.0

