"""Tests for the regression fitters and their optimality certificates."""

import numpy as np
import pytest

from heavyreg.convex import Loss, LossKind, RegKind, Regularizer
from heavyreg.errors import ConfigError
from heavyreg.estimators import (
    EstimatorConfig,
    FitResult,
    empirical_risk,
    fit_ols,
    fit_proximal,
    fit_ridge,
)

SQUARED = Loss(LossKind.SQUARED)
RIDGE = Regularizer(RegKind.RIDGE)
LASSO = Regularizer(RegKind.LASSO)


def make_problem(n=60, p=12, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta_star = rng.standard_normal(p)
    y = x @ beta_star + noise * rng.standard_normal(n)
    return x, y, beta_star


class TestEstimatorConfig:
    """Validation of the solver settings."""

    def test_unknown_penalty_mode_is_rejected(self):
        # the penalty level is always explicit; no mode keyword is accepted
        with pytest.raises(TypeError):
            EstimatorConfig(SQUARED, RIDGE, lambda_mode="annealed")

    def test_nonpositive_penalty_weight_is_rejected(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(SQUARED, RIDGE, lambda_value=0.0)

    def test_empty_iteration_budget_is_rejected(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(SQUARED, RIDGE, max_iterations=0)


class TestFitOls:
    """Unpenalized least squares through the QR path."""

    def test_stacked_identity_design_returns_the_response_block(self):
        p = 5
        b = np.arange(1.0, p + 1.0)
        x = np.vstack([np.eye(p), np.eye(p)])
        fit = fit_ols(x, np.concatenate([b, b]))
        np.testing.assert_allclose(fit.beta_hat, b, rtol=0.0, atol=1.0e-12)
        assert fit.converged and fit.iterations == 0

    def test_noiseless_data_is_recovered(self):
        x, y, beta_star = make_problem()
        fit = fit_ols(x, y)
        np.testing.assert_allclose(fit.beta_hat, beta_star, rtol=0.0, atol=1.0e-8)

    def test_matches_the_normal_equations(self):
        x, y, _ = make_problem(n=50, p=2, noise=0.5)
        expected = np.linalg.solve(x.T @ x, x.T @ y)
        fit = fit_ols(x, y)
        np.testing.assert_allclose(fit.beta_hat, expected, rtol=1.0e-8)

    def test_residual_is_orthogonal_to_the_columns(self):
        x, y, _ = make_problem(noise=1.0)
        fit = fit_ols(x, y)
        resid = y - x @ fit.beta_hat
        assert np.max(np.abs(x.T @ resid)) <= 1.0e-8 * np.linalg.norm(y)

    def test_objective_is_half_mean_squared_residual(self):
        x, y, _ = make_problem(noise=1.0)
        fit = fit_ols(x, y)
        resid = y - x @ fit.beta_hat
        assert fit.objective == pytest.approx(0.5 * np.mean(resid**2), rel=1.0e-12)

    def test_square_or_wide_designs_are_rejected(self):
        x, y, _ = make_problem(n=12, p=12)
        with pytest.raises(ConfigError):
            fit_ols(x, y)

    def test_rank_deficiency_is_rejected(self):
        x, y, _ = make_problem()
        x = x.copy()
        x[:, -1] = x[:, 0]
        with pytest.raises(ConfigError):
            fit_ols(x, y)

    def test_response_shape_mismatch_is_rejected(self):
        x, y, _ = make_problem()
        with pytest.raises(ConfigError):
            fit_ols(x, y[:-1])


class TestFitRidge:
    """Closed-form penalized least squares."""

    def test_huge_penalty_pins_the_estimate_at_the_center(self):
        x, y, _ = make_problem(noise=1.0)
        beta0 = np.linspace(-1.0, 1.0, x.shape[1])
        fit = fit_ridge(x, y, 1.0e12, beta0=beta0)
        assert np.linalg.norm(fit.beta_hat - beta0) <= 1.0e-6

    def test_vanishing_penalty_approaches_least_squares(self):
        x, y, _ = make_problem(noise=0.3)
        ols = fit_ols(x, y)
        ridge = fit_ridge(x, y, 1.0e-12)
        np.testing.assert_allclose(ridge.beta_hat, ols.beta_hat, rtol=0.0, atol=1.0e-4)

    def test_single_column_shrinkage_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 1))
        y = rng.standard_normal(40)
        lam = 0.8
        n = 40
        expected = (x[:, 0] @ y / n) / (x[:, 0] @ x[:, 0] / n + lam)
        fit = fit_ridge(x, y, lam)
        assert fit.beta_hat[0] == pytest.approx(expected, rel=1.0e-12)

    def test_centering_shifts_the_solution_exactly(self):
        x, y, _ = make_problem(noise=0.7)
        beta0 = np.full(x.shape[1], 0.3)
        shifted = fit_ridge(x, y, 0.4, beta0=beta0)
        plain = fit_ridge(x, y - x @ beta0, 0.4)
        np.testing.assert_allclose(shifted.beta_hat, beta0 + plain.beta_hat, rtol=0.0, atol=1.0e-12)

    def test_nonpositive_penalty_is_rejected(self):
        x, y, _ = make_problem()
        with pytest.raises(ConfigError):
            fit_ridge(x, y, 0.0)

    def test_center_shape_mismatch_is_rejected(self):
        x, y, _ = make_problem()
        with pytest.raises(ConfigError):
            fit_ridge(x, y, 1.0, beta0=np.zeros(3))


class TestFitProximal:
    """Accelerated proximal gradient with backtracking and restarts."""

    def test_matches_the_ridge_closed_form(self):
        x, y, _ = make_problem(n=100, p=40, seed=7, noise=1.0)
        config = EstimatorConfig(SQUARED, RIDGE, 0.3)
        fista = fit_proximal(config, x, y)
        exact = fit_ridge(x, y, 0.3)
        assert fista.converged
        assert np.linalg.norm(fista.beta_hat - exact.beta_hat) <= 1.0e-6

    def test_huber_recovers_noiseless_data(self):
        x, y, beta_star = make_problem(n=80, p=20, seed=11)
        config = EstimatorConfig(Loss(LossKind.HUBER, 1.5), RIDGE, 1.0e-12)
        fit = fit_proximal(config, x, y)
        assert fit.converged
        np.testing.assert_allclose(fit.beta_hat, beta_star, rtol=0.0, atol=1.0e-4)

    def test_overwhelming_lasso_penalty_returns_the_center_exactly(self):
        x, y, _ = make_problem(noise=1.0)
        beta0 = np.linspace(0.0, 1.0, x.shape[1])
        config = EstimatorConfig(SQUARED, LASSO, 1.0e9, center=beta0)
        fit = fit_proximal(config, x, y)
        assert fit.converged
        assert np.array_equal(fit.beta_hat, beta0)

    def test_nonsmooth_losses_are_rejected(self):
        x, y, _ = make_problem()
        for kind in (LossKind.ABSOLUTE, LossKind.QUANTILE):
            loss = Loss(kind, 0.3) if kind is LossKind.QUANTILE else Loss(kind)
            with pytest.raises(ConfigError):
                fit_proximal(EstimatorConfig(loss, RIDGE), x, y)

    def test_exhausted_budget_reports_nonconvergence_without_raising(self):
        x, y, _ = make_problem(n=100, p=40, seed=5, noise=1.0)
        config = EstimatorConfig(SQUARED, RIDGE, 0.3, max_iterations=3)
        fit = fit_proximal(config, x, y)
        assert not fit.converged
        assert fit.iterations == 3

    def test_warm_start_reuses_the_previous_solution(self):
        x, y, _ = make_problem(n=100, p=40, seed=9, noise=1.0)
        config = EstimatorConfig(Loss(LossKind.HUBER, 1.5), RIDGE, 0.1)
        cold = fit_proximal(config, x, y)
        warm = fit_proximal(config, x, y, x0=cold.beta_hat)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        assert warm.iterations <= 2

    def test_objective_trace_is_monotone_up_to_slack(self):
        x, y, _ = make_problem(n=100, p=40, seed=13, noise=2.0)
        config = EstimatorConfig(SQUARED, LASSO, 0.05)
        fit = fit_proximal(config, x, y, record_trace=True)
        trace = np.array(fit.objective_trace)
        slack = 1.0e-9 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(trace[1:] <= trace[:-1] + slack)

    def test_converged_fit_carries_a_valid_certificate(self):
        x, y, _ = make_problem(n=100, p=40, seed=21, noise=1.0)
        config = EstimatorConfig(SQUARED, LASSO, 0.05)
        fit = fit_proximal(config, x, y)
        assert fit.converged
        bound = config.gradient_map_tol * (1.0 + np.linalg.norm(fit.beta_hat))
        assert fit.gradient_map_norm <= bound

    def test_lasso_stationarity_via_subgradient(self):
        x, y, _ = make_problem(n=100, p=40, seed=17, noise=1.0)
        lam = 0.05
        config = EstimatorConfig(SQUARED, LASSO, lam, gradient_map_tol=1.0e-10)
        fit = fit_proximal(config, x, y)
        grad = -(x.T @ (y - x @ fit.beta_hat)) / x.shape[0]
        active = np.abs(fit.beta_hat) > 1.0e-12
        # active coordinates: gradient + lam * sign = 0; inactive: |gradient| <= lam
        assert np.max(np.abs(grad[active] + lam * np.sign(fit.beta_hat[active]))) <= 1.0e-7
        assert np.max(np.abs(grad[~active])) <= lam + 1.0e-7


class TestEmpiricalRisk:
    """Covariance-weighted parameter error."""

    def test_zero_when_the_estimate_is_exact(self):
        beta = np.arange(4.0)
        assert empirical_risk(beta, beta, np.eye(4)) == 0.0

    def test_unit_coordinate_error_under_identity(self):
        p = 8
        beta_star = np.zeros(p)
        beta_hat = np.zeros(p)
        beta_hat[0] = 1.0
        assert empirical_risk(beta_hat, beta_star, np.eye(p)) == pytest.approx(1.0 / p)

    def test_weights_the_error_by_the_covariance(self):
        sigma = np.array([[2.0, 0.0], [0.0, 0.5]])
        risk = empirical_risk(np.array([1.0, 1.0]), np.zeros(2), sigma)
        assert risk == pytest.approx((2.0 + 0.5) / 2.0)

    def test_shape_mismatches_are_rejected(self):
        with pytest.raises(ConfigError):
            empirical_risk(np.zeros(3), np.zeros(4), np.eye(3))
        with pytest.raises(ConfigError):
            empirical_risk(np.zeros(3), np.zeros(3), np.eye(4))
