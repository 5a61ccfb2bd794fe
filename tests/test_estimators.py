"""Tests for the regression fitters and their optimality certificates."""

import dataclasses

import numpy as np
import pytest

from heavyreg import estimators
from heavyreg.convex import Loss, LossKind, RegKind, Regularizer
from heavyreg.errors import ConfigError
from heavyreg.estimators import (
    EstimatorConfig,
    FitResult,
    Resolvent,
    _shifted_solve,
    empirical_risk,
    fit_proximal,
)

SQUARED = Loss(LossKind.SQUARED)
RIDGE = Regularizer(RegKind.RIDGE)
LASSO = Regularizer(RegKind.LASSO)
HUBER = Loss(LossKind.HUBER, 1.5)


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


class TestResolvent:
    """The Gram eigendecomposition every fit goes through, against explicit
    dense oracles."""

    def test_solve_matches_the_explicit_penalized_gram_system(self):
        x, _, _ = make_problem(n=60, p=12, seed=4)
        n, p = x.shape
        design = Resolvent.of(x)
        rhs = np.random.default_rng(5).standard_normal(p)
        for lam in (0.0, 1.0e-3, 1.0):
            expected = np.linalg.solve(x.T @ x / n + lam * np.eye(p), rhs)
            np.testing.assert_allclose(design.solve(rhs, lam), expected, rtol=1.0e-10, atol=1.0e-12)

    def test_solve_takes_a_block_of_right_hand_sides(self):
        x, _, _ = make_problem(n=60, p=12, seed=4)
        n, p = x.shape
        design = Resolvent.of(x)
        rhs = np.random.default_rng(5).standard_normal((p, 3))
        for lam in (0.0, 1.0e-3, 1.0):
            expected = np.linalg.solve(x.T @ x / n + lam * np.eye(p), rhs)
            np.testing.assert_allclose(design.solve(rhs, lam), expected, rtol=1.0e-10, atol=1.0e-12)

    def test_solve_takes_one_shift_per_column_of_a_block(self):
        for n, p in ((60, 12), (30, 50)):
            x, _, _ = make_problem(n=n, p=p, seed=6)
            design = Resolvent.of(x)
            rhs = np.random.default_rng(7).standard_normal((p, 4))
            shifts = np.array([1.0e-3, 0.1, 1.0, 1.0e3])
            sol = design.solve(rhs, shifts)
            for k, lam in enumerate(shifts):
                expected = np.linalg.solve(x.T @ x / n + lam * np.eye(p), rhs[:, k])
                np.testing.assert_allclose(sol[:, k], expected, rtol=1.0e-9, atol=1.0e-12)

    def test_scalar_shift_keeps_the_block_arithmetic(self):
        # a repeated per-column shift and the scalar one divide by the same
        # values after the same products, so they agree bit for bit
        x, _, _ = make_problem(n=60, p=12, seed=4)
        design = Resolvent.of(x)
        rhs = np.random.default_rng(5).standard_normal((12, 3))
        scalar = design.solve(rhs, 0.3)
        assert np.array_equal(design.solve(rhs, np.full(3, 0.3)), scalar)
        assert np.array_equal(scalar, design.evecs @ ((design.evecs.T @ rhs) / (design.evals + 0.3)[:, None]))
        vector = rhs[:, 1]
        assert np.array_equal(design.solve(vector, 0.3),
                              design.evecs @ ((design.evecs.T @ vector) / (design.evals + 0.3)))

    def test_top_eigenvalue_is_the_squared_spectral_norm_over_n(self):
        for n, p in ((60, 12), (30, 50)):
            x, _, _ = make_problem(n=n, p=p, seed=8)
            assert Resolvent.of(x).evals[-1] == pytest.approx(np.linalg.norm(x, 2) ** 2 / n, rel=1.0e-12)

    def test_non_finite_or_non_matrix_designs_are_rejected(self):
        x, _, _ = make_problem()
        for bad in (np.nan, np.inf):
            corrupt = x.copy()
            corrupt[3, 2] = bad
            with pytest.raises(ConfigError):
                Resolvent.of(corrupt)
        with pytest.raises(ConfigError):
            Resolvent.of(x[0])


class TestShiftedSolve:
    """Conjugate gradients over a block of shifted Gram systems, against the
    eigenbasis solve, on right-hand sides of the transient sweep's form
    ``sqrt(s) X'w/n - s d``."""

    SHIFTS = np.array([1.0e-6, 1.0e-3, 0.1, 1.0, 10.0, 1.0e4])

    @staticmethod
    def make_block(n, p, shifts):
        rng = np.random.default_rng(n + p)
        x = rng.standard_normal((n, p)) * np.linspace(0.3, 2.0, p)  # a spread spectrum
        v = x.T @ rng.standard_t(1.5, n) / n
        d = rng.standard_normal(p)
        return x, v[:, None] * np.sqrt(shifts) - d[:, None] * shifts

    @pytest.mark.parametrize("n, p", [(200, 50), (40, 60), (60, 60), (800, 400)])
    def test_matches_the_eigenbasis_solve(self, n, p):
        x, rhs = self.make_block(n, p, self.SHIFTS)
        sol, certificate, fell_back = _shifted_solve(x, rhs, self.SHIFTS)
        design = Resolvent.of(x)
        for k, shift in enumerate(self.SHIFTS):
            want = design.solve(rhs[:, k], shift)
            assert np.linalg.norm(sol[:, k] - want) <= 1.0e-10 * np.linalg.norm(want)
            residual = np.linalg.norm(x.T @ (x @ sol[:, k]) / n + shift * sol[:, k] - rhs[:, k])
            assert residual <= 1.0e-10 * np.linalg.norm(rhs[:, k])
        assert np.all(certificate <= 1.0e-10)
        assert not fell_back[self.SHIFTS >= 1.0].any()  # conditioned within 5: conjugate gradients

    def test_spent_budget_falls_back_to_the_resolvent(self, monkeypatch):
        x, rhs = self.make_block(800, 400, self.SHIFTS)
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        sol, certificate, fell_back = _shifted_solve(x, rhs, self.SHIFTS)
        assert not fell_back.any() and eighs == []
        monkeypatch.setattr(estimators, "_CG_BUDGET", 0)
        forced, forced_certificate, forced_back = _shifted_solve(x, rhs, self.SHIFTS)
        assert forced_back.all() and eighs == [(400, 400)]  # one Resolvent for the whole block
        assert np.all(forced_certificate <= 1.0e-10)
        assert np.all(np.linalg.norm(forced - sol, axis=0) <= 1.0e-10 * np.linalg.norm(sol, axis=0))

    def test_zero_right_hand_side_is_solved_exactly(self):
        x, rhs = self.make_block(60, 12, self.SHIFTS)
        rhs[:, 2] = 0.0
        sol, certificate, fell_back = _shifted_solve(x, rhs, self.SHIFTS)
        assert np.array_equal(sol[:, 2], np.zeros(12)) and certificate[2] == 0.0 and not fell_back[2]


class TestNonFiniteInput:
    """Every fitter rejects a non-finite response, center or warm start
    instead of returning a NaN estimate or failing inside the iteration."""

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_response(self, bad):
        x, y, _ = make_problem(noise=1.0)
        design = Resolvent.of(x)
        y = y.copy()
        y[5] = bad
        for loss in (SQUARED, Loss(LossKind.HUBER, 1.5)):
            with pytest.raises(ConfigError):
                fit_proximal(EstimatorConfig(loss, RIDGE, 0.1), design, y)

    def test_proximal_center_and_warm_start(self):
        x, y, _ = make_problem(noise=1.0)
        design = Resolvent.of(x)
        nan_vector = np.full(x.shape[1], np.nan)
        with pytest.raises(ConfigError):
            fit_proximal(EstimatorConfig(SQUARED, LASSO, 0.1, center=nan_vector), design, y)
        with pytest.raises(ConfigError):
            fit_proximal(EstimatorConfig(SQUARED, LASSO, 0.1), design, y, x0=nan_vector)


class TestFitProximal:
    """The exact active-set Newton fit: squared or Huber loss with a ridge or
    lasso penalty, certified by the gradient map."""

    def test_matches_the_ridge_closed_form(self):
        x, y, _ = make_problem(n=100, p=40, seed=7, noise=1.0)
        config = EstimatorConfig(SQUARED, RIDGE, 0.3)
        design = Resolvent.of(x)
        newton = fit_proximal(config, design, y)
        exact = np.linalg.solve(x.T @ x / 100 + 0.3 * np.eye(40), x.T @ y / 100)
        assert newton.converged and newton.iterations == 1
        np.testing.assert_allclose(newton.beta_hat, exact, rtol=1.0e-12, atol=0.0)

    def test_huber_recovers_noiseless_data(self):
        x, y, beta_star = make_problem(n=80, p=20, seed=11)
        config = EstimatorConfig(HUBER, RIDGE, 1.0e-12)
        fit = fit_proximal(config, Resolvent.of(x), y)
        assert fit.converged
        np.testing.assert_allclose(fit.beta_hat, beta_star, rtol=0.0, atol=1.0e-8)

    @pytest.mark.parametrize("n, p, seed", ((100, 40, 9), (60, 90, 3), (800, 40, 1)))
    @pytest.mark.parametrize("noise", (1.0, 30.0))
    def test_huber_ridge_stationarity_holds_exactly(self, n, p, seed, noise):
        # lambda b = X' psi_k(y - X b) / n, whichever route solved the last pattern
        x, y, _ = make_problem(n=n, p=p, seed=seed, noise=noise)
        lam = 0.1
        fit = fit_proximal(EstimatorConfig(HUBER, RIDGE, lam), Resolvent.of(x), y)
        assert fit.converged
        psi = np.clip(y - x @ fit.beta_hat, -1.5, 1.5)
        lhs = lam * fit.beta_hat
        assert np.linalg.norm(lhs - x.T @ psi / n) <= 1.0e-12 * np.linalg.norm(lhs)

    def test_all_outliers_give_the_closed_form_top_of_sweep_fit(self):
        # once every residual exceeds k the fit is (k / (lam n)) X' sign(r)
        x, _, _ = make_problem(n=200, p=40, seed=31)
        n, lam, k = 200, 0.1, 1.5
        y = 1.0e6 * np.random.default_rng(32).standard_t(1.5, n)
        b_inf = k / (lam * n) * (x.T @ np.sign(y))
        assert np.all(np.abs(y - x @ b_inf) > k)
        config = EstimatorConfig(HUBER, RIDGE, lam)
        design = Resolvent.of(x)
        for start in (None, b_inf):
            fit = fit_proximal(config, design, y, x0=start)
            assert fit.converged
            np.testing.assert_allclose(fit.beta_hat, b_inf, rtol=1.0e-14, atol=0.0)
        assert fit.iterations <= 1

    def test_noiseless_lasso_at_the_penalty_floor_certifies(self):
        x, y, beta_star = make_problem(n=80, p=40, seed=19)
        center = beta_star + np.random.default_rng(20).standard_normal(40)
        config = EstimatorConfig(SQUARED, LASSO, 1.0e-12, center=center)
        fit = fit_proximal(config, Resolvent.of(x), y)
        assert fit.converged and fit.iterations <= 3
        np.testing.assert_allclose(fit.beta_hat, beta_star, rtol=0.0, atol=1.0e-9)

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_wide_lasso_certifies(self, loss):
        # more features than rows: the support must shrink below n first
        x, y, _ = make_problem(n=30, p=60, seed=29, noise=3.0)
        fit = fit_proximal(EstimatorConfig(loss, LASSO, 0.05), Resolvent.of(x), y)
        assert fit.converged
        assert np.count_nonzero(fit.beta_hat) <= 30

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_lasso_with_a_duplicated_column_certifies(self, loss):
        # both copies free with one sign make the pattern's Cholesky fail
        x, _, _ = make_problem(n=100, p=40, seed=3)
        x[:, 1] = x[:, 0]
        y = x @ np.random.default_rng(4).standard_normal(40) + np.random.default_rng(5).standard_normal(100)
        fit = fit_proximal(EstimatorConfig(loss, LASSO, 1.0e-3), Resolvent.of(x), y)
        assert fit.converged

    def test_overwhelming_lasso_penalty_returns_the_center_exactly(self):
        x, y, _ = make_problem(noise=1.0)
        beta0 = np.linspace(0.0, 1.0, x.shape[1])
        config = EstimatorConfig(SQUARED, LASSO, 1.0e9, center=beta0)
        fit = fit_proximal(config, Resolvent.of(x), y, x0=beta0 + 1.0)
        assert fit.converged and fit.iterations == 0
        assert np.array_equal(fit.beta_hat, beta0)

    def test_nonsmooth_losses_are_rejected(self):
        x, y, _ = make_problem()
        for kind in (LossKind.ABSOLUTE, LossKind.QUANTILE):
            loss = Loss(kind, 0.3) if kind is LossKind.QUANTILE else Loss(kind)
            with pytest.raises(ConfigError):
                fit_proximal(EstimatorConfig(loss, RIDGE), Resolvent.of(x), y)

    @pytest.mark.parametrize("loss, reg", ((Loss(LossKind.LOGCOSH), RIDGE), (SQUARED, None),
                                           (HUBER, Regularizer(RegKind.ELASTIC_NET, 0.5))),
                             ids=("logcosh", "no_penalty", "elastic_net"))
    def test_pairs_outside_the_piecewise_quadratic_family_are_rejected(self, loss, reg):
        x, y, _ = make_problem()
        with pytest.raises(ConfigError):
            fit_proximal(EstimatorConfig(loss, reg), Resolvent.of(x), y)

    def test_exhausted_budget_reports_nonconvergence_without_raising(self):
        x, y, _ = make_problem(n=100, p=40, seed=5, noise=3.0)
        design = Resolvent.of(x)
        full = fit_proximal(EstimatorConfig(HUBER, RIDGE, 0.1), design, y)
        assert full.converged and full.iterations >= 3
        fit = fit_proximal(EstimatorConfig(HUBER, RIDGE, 0.1, max_iterations=1), design, y)
        assert not fit.converged
        assert fit.iterations == 1

    def test_objective_trace_is_monotone_up_to_slack(self):
        # the fit stopped after j steps is the method's j-th iterate
        x, y, _ = make_problem(n=100, p=40, seed=13, noise=2.0)
        config = EstimatorConfig(SQUARED, LASSO, 0.05)
        design = Resolvent.of(x)
        final = fit_proximal(config, design, y)
        trace = np.array([fit_proximal(dataclasses.replace(config, max_iterations=j), design, y).objective
                          for j in range(1, final.iterations + 1)])
        assert trace[-1] == final.objective
        slack = 1.0e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(trace[1:] <= trace[:-1] + slack)

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    @pytest.mark.parametrize("reg", (RIDGE, LASSO), ids=("ridge", "lasso"))
    def test_fixed_step_never_increases_the_objective(self, loss, reg):
        # every step, full or halved, keeps the objective from rising, for
        # wide and tall designs alike and whether or not the fit certifies
        for n, p, seed in ((100, 40, 23), (30, 60, 29)):
            x, y, _ = make_problem(n=n, p=p, seed=seed, noise=3.0)
            design = Resolvent.of(x)
            for lam in (1.0e-12, 1.0e-3, 0.05, 1.0e9):
                trace = np.array([fit_proximal(EstimatorConfig(loss, reg, lam, max_iterations=j), design, y).objective
                                  for j in range(1, 9)])
                assert np.all(np.isfinite(trace))
                assert np.all(trace[1:] <= trace[:-1] + 1.0e-12 * np.abs(trace[:-1]))

    def test_warm_start_reuses_the_previous_solution(self):
        x, y, _ = make_problem(n=100, p=40, seed=9, noise=1.0)
        config = EstimatorConfig(HUBER, RIDGE, 0.1)
        design = Resolvent.of(x)
        cold = fit_proximal(config, design, y)
        warm = fit_proximal(config, design, y, x0=cold.beta_hat)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        assert warm.iterations <= 2

    def test_makes_no_eigendecomposition(self, monkeypatch):
        x, y, _ = make_problem(n=100, p=40, seed=13, noise=5.0)
        design = Resolvent.of(x)

        def forbidden(*args, **kwargs):
            raise AssertionError("fit_proximal called numpy.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        for loss in (SQUARED, HUBER):
            for reg in (RIDGE, LASSO):
                assert fit_proximal(EstimatorConfig(loss, reg, 0.05), design, y).converged

    def test_converged_fit_carries_a_valid_certificate(self):
        x, y, _ = make_problem(n=100, p=40, seed=21, noise=1.0)
        config = EstimatorConfig(SQUARED, LASSO, 0.05)
        fit = fit_proximal(config, Resolvent.of(x), y)
        assert fit.converged
        bound = config.gradient_map_tol * (1.0 + np.linalg.norm(fit.beta_hat))
        assert fit.gradient_map_norm <= bound

    def test_lasso_stationarity_via_subgradient(self):
        x, y, _ = make_problem(n=100, p=40, seed=17, noise=1.0)
        lam = 0.05
        config = EstimatorConfig(SQUARED, LASSO, lam, gradient_map_tol=1.0e-10)
        fit = fit_proximal(config, Resolvent.of(x), y)
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
