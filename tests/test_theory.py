"""Tests for the deterministic risk predictions.

The closed-form ridge route is checked against three independent references:
a Stieltjes-transform identity for the null-misalignment identity-covariance
case, the classical fixed-design formula in the zero-aspect-ratio limit, and
finite-sample Monte Carlo with Gaussian noise.  The general fixed-point route
is then required to reproduce the closed form and to achieve the universal
large-noise floor.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyreg import theory
from heavyreg.convex import RegKind, Regularizer, prox_reg
from heavyreg.errors import ConfigError, ConvergenceError
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


PENALTIES = [Regularizer(RegKind.RIDGE), Regularizer(RegKind.LASSO), Regularizer(RegKind.ELASTIC_NET, 0.5)]
PENALTY_IDS = ["ridge", "lasso", "elastic_net"]
L1_WEIGHT = {RegKind.RIDGE: 0.0, RegKind.LASSO: 1.0, RegKind.ELASTIC_NET: 0.5}  # the threshold is eta * L1_WEIGHT


def risk_from_definition(ti, risk, nodes=61):
    """The risk functional R at ``risk``, built here from its definition:
    per eigen-atom, the squared move ``prox(u) - delta`` of the misalignment
    coefficient ``delta`` under Gaussian noise, ``u = delta - noise``,
    integrated node by node by a ``nodes``-point Gauss-Hermite rule.

    With ``prox(u) = soft(u, eta l1) / (1 + eta l2)`` the move is ``-delta``
    where ``|u| <= eta l1`` and ``-(noise + eta l1 sign(u) + eta l2 delta) /
    (1 + eta l2)`` beyond.  Formed that way it keeps its digits at a tiny
    step ``eta``, where ``prox(u) - delta`` cancels."""
    spec = ti.spectrum
    s, delta, p = spec.eigenvalues, spec.delta_coeffs[:, None], spec.p
    mu = ti.lambda_tilde * ti.sigma2
    v = solve_companion_v(s, ti.gamma, mu)
    x, w = hermgauss(nodes)
    l1 = ti.reg.mix if ti.reg.kind is RegKind.ELASTIC_NET else L1_WEIGHT[ti.reg.kind]
    l2 = 1.0 - l1
    eta = (mu / (v * s))[:, None]
    noise = np.sqrt((ti.sigma2 + p * risk) * ti.gamma / (p * s))[:, None] * (math.sqrt(2.0) * x)[None, :]
    u = delta - noise
    move = np.where(np.abs(u) > eta * l1, -(noise + eta * l1 * np.sign(u) + eta * l2 * delta) / (1.0 + eta * l2), -delta)
    return float(np.sum(s * ((move ** 2) @ (w / math.sqrt(math.pi)))) / p)


def plain_fixed_point(ti):
    """The plain iteration ``r <- R(r)`` from ``r = 0`` with the solver's
    stopping rule ``|R(r) - r| <= 1e-12 max(1, r)``: the returned ``r`` and
    its step count, or ``None`` when 500 steps do not settle it."""
    risk = 0.0
    with np.errstate(all="ignore"):  # the divergent cases run into inf
        for steps in range(1, 501):
            again = risk_from_definition(ti, risk)
            if abs(again - risk) <= 1.0e-12 * max(1.0, risk):
                return risk, steps
            risk = again
    return None


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

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 20.0, 100.0])
    @pytest.mark.parametrize("mu", [1.0e-12, 1.0e-8, 1.0e-6, 1.0e-4, 1.0e-2, 1.0, 1.0e6, 1.0e18])
    def test_root_over_a_wide_grid_has_a_tiny_relative_residual(self, gamma, mu):
        """For gamma > 1 at small mu the root falls below 1e-6; an absolute
        bracket tolerance once stopped about 6 digits from it and the residual
        check raised on valid inputs (gamma = 2, mu = 1e-6; gamma = 20,
        mu = 1e-4)."""
        s = decompose(CovarianceModel.ar1(200, 0.5)).eigenvalues
        v = solve_companion_v(s, gamma, mu)
        assert mu / (mu + gamma * float(np.mean(s))) <= v <= 1.0
        assert abs(1.0 - v - gamma * v * float(np.mean(s / (s * v + mu)))) <= 1.0e-14

    @pytest.mark.parametrize("gamma", [0.5, 0.9, 1.1, 2.0, 20.0, 100.0])
    @pytest.mark.parametrize("mu", [1.0e-12, 1.0e-6, 1.0e-2, 1.0e2, 1.0e16, 1.0e300])
    def test_flat_spectrum_root_over_a_wide_grid(self, gamma, mu):
        """For S = 1 the root of v^2 + (mu + gamma - 1) v - mu = 0 is closed
        form; gamma = 1 is left out, where the root ~ sqrt(mu) is
        ill-conditioned."""
        b = mu + gamma - 1.0
        root = math.hypot(b, 2.0 * math.sqrt(mu))
        exact = 2.0 * mu / (b + root) if b > 0.0 else (root - b) / 2.0
        assert solve_companion_v(np.ones(200), gamma, mu) == pytest.approx(exact, rel=1.0e-14)

    def test_root_decreases_with_aspect_ratio(self):
        """More parameters per observation force more effective shrinkage."""
        s = np.ones(50)
        roots = [solve_companion_v(s, g, 1.0) for g in (0.1, 0.5, 0.9)]
        assert roots[0] > roots[1] > roots[2]

    @pytest.mark.parametrize("mu", [1.0e-14, 1.0e-10, 1.0e-6])
    def test_unit_aspect_ratio_root_matches_high_precision(self, mu):
        """At gamma = 1 the root ~ sqrt(mu) is the balance of two terms near 1
        in ``1 - mean(s v / (s v + mu))``; the gap written as one fraction per
        atom, ``mean((mu + (1 - gamma) s v) / (s v + mu)) - v``, has no such
        cancellation.  The root once sat up to 9e-10 from a 40-digit one."""
        mp = pytest.importorskip("mpmath")
        s = decompose(CovarianceModel.ar1(60, 0.5)).eigenvalues
        v = solve_companion_v(s, 1.0, mu)
        with mp.workdps(40):
            atoms = [mp.mpf(float(x)) for x in s]
            m = mp.mpf(mu)
            root = mp.findroot(lambda x: mp.fsum(m / (a * x + m) for a in atoms) / len(atoms) - x,
                               (mp.mpf(v) * (1 - mp.mpf(1.0e-6)), mp.mpf(v) * (1 + mp.mpf(1.0e-6))),
                               solver="anderson")
            assert float(abs(v - root) / root) <= 1.0e-15


class TestCompanionMemo:
    """The companion root is solved once per (spectrum, gamma, mu)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The ``(gamma, mu)`` of every :func:`solve_companion_v` call."""
        calls = []
        solve = theory.solve_companion_v

        def counted(s, gamma, mu):
            calls.append((gamma, mu))
            return solve(s, gamma, mu)

        monkeypatch.setattr(theory, "solve_companion_v", counted)
        return calls

    def test_predictions_at_one_key_share_one_solve(self, calls):
        spec = make_spectrum(p=60)
        inputs = [TheoryInputs(spec, 0.5, 4.0, 0.3, reg=reg) for reg in PENALTIES]
        shared = [solve_general_fixed_point(ti) for ti in inputs] + [ridge_risk_closed_form(inputs[0])]
        assert calls == [(0.5, 0.3 * 4.0)]
        assert spec._companion_roots == {(0.5, 0.3 * 4.0): shared[0].v}
        # each prediction again on its own copy of the spectrum, whose memo is empty
        alone = [solve_general_fixed_point(dataclasses.replace(ti, spectrum=dataclasses.replace(spec)))
                 for ti in inputs]
        alone.append(ridge_risk_closed_form(dataclasses.replace(inputs[0], spectrum=dataclasses.replace(spec))))
        assert len(calls) == 5
        assert [dataclasses.astuple(r) for r in shared] == [dataclasses.astuple(r) for r in alone]

    def test_each_key_is_solved_once(self, calls):
        spec = make_spectrum(p=60)
        for gamma, sigma2 in [(0.5, 1.0), (0.5, 2.0), (2.0, 1.0), (0.5, 1.0), (0.5, 0.0), (0.5, 0.0)]:
            ridge_risk_closed_form(TheoryInputs(spec, gamma, sigma2, 1.0))
        assert calls == [(0.5, 1.0), (0.5, 2.0), (2.0, 1.0), (0.5, 0.0)]

    def test_a_fresh_decompose_starts_with_an_empty_memo(self):
        model = CovarianceModel.ar1(40, 0.5)
        spec = project_delta(decompose(model), np.ones(40), np.zeros(40))
        ridge_risk_closed_form(TheoryInputs(spec, 0.5, 1.0, 1.0))
        assert len(spec._companion_roots) == 1
        assert decompose(model)._companion_roots == {}
        assert project_delta(spec, np.ones(40), np.zeros(40))._companion_roots == {}


class TestBracketedSecant:
    """The one root-finder behind the companion root and the risk fixed point."""

    def test_stops_once_no_float_lies_inside_the_bracket(self):
        """A jump has no root and no point where the gap meets a tolerance of
        0; the search ends on the two adjacent floats around it."""
        jump = 0.3

        def gap(x):
            return 1.0 if x < jump else -1.0

        x, g, evaluations, settled = theory._bracketed_secant(gap, 0.0, 0.0, 1.0, 0.0)
        assert settled and evaluations < 100
        assert x in (jump, math.nextafter(jump, 0.0))
        assert g == gap(x)

    def test_out_of_budget_returns_the_last_evaluated_point(self):
        seen = []

        def gap(x):
            seen.append(x)
            return 1.0

        x, g, evaluations, settled = theory._bracketed_secant(gap, 0.0, 0.0, math.inf, 1.0e-12)
        assert not settled and evaluations == 500 == len(seen)
        assert x == seen[-1] and g == 1.0


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
        sigma = CovarianceModel.ar1(p, 0.5).materialize()  # make_spectrum's covariance
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
            risks.append(float(err @ sigma @ err) / p)
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

    def test_inputs_require_projected_spectrum(self):
        spec = decompose(CovarianceModel.identity(8))
        with pytest.raises(ValueError):
            TheoryInputs(spec, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_noiseless_inputs_at_or_past_unit_aspect_ratio_are_rejected(self, gamma):
        """sigma2 = 0 zeroes the adapted penalty, and the ridgeless limit at
        gamma >= 1 keeps a null-space bias, so a risk of 0 would be wrong."""
        with pytest.raises(ConfigError, match=r"sigma2 = 0 requires gamma < 1, got gamma = "):
            TheoryInputs(make_spectrum(p=40), gamma, 0.0, 1.0)


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

    def test_gauss_hermite_rule_is_built_once_and_read_only(self):
        """Every fixed-point solve shares one rule per node count."""
        zeta, wts = theory._gauss_hermite_standard_normal(61)
        assert theory._gauss_hermite_standard_normal(61)[0] is zeta
        assert not zeta.flags.writeable and not wts.flags.writeable
        x, w = hermgauss(61)
        assert np.array_equal(zeta, x * math.sqrt(2.0)) and np.array_equal(wts, w / math.sqrt(math.pi))
        prefix, suffix = theory._gauss_hermite_moments(61)
        assert theory._gauss_hermite_moments(61)[0] is prefix
        assert not prefix.flags.writeable and not suffix.flags.writeable
        moments = [np.sum(wts), np.sum(wts * zeta), np.sum(wts * zeta ** 2)]
        assert np.allclose(prefix[:, -1], moments) and np.allclose(suffix[:, 0], moments)
        assert not prefix[:, 0].any() and not suffix[:, -1].any()

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

    @pytest.mark.parametrize("reg", [Regularizer(RegKind.LASSO), Regularizer(RegKind.ELASTIC_NET, 0.5)], ids=["lasso", "elastic_net"])
    @pytest.mark.parametrize("sigma2", [1.0, 10.0, 100.0, 1.0e4])
    def test_settled_risk_stops_the_iteration_within_five_steps(self, reg, sigma2):
        """Near the floor the risk settles at once, and nothing else is left
        to converge."""
        pred = solve_general_fixed_point(TheoryInputs(make_spectrum(), 0.5, sigma2, 1.0, reg=reg))
        assert pred.iterations <= 5

    @pytest.mark.parametrize("reg", [Regularizer(RegKind.RIDGE), Regularizer(RegKind.LASSO), Regularizer(RegKind.ELASTIC_NET, 0.5)], ids=["ridge", "lasso", "elastic_net"])
    def test_residual_is_the_gap_at_the_returned_risk(self, reg):
        """``residual`` is gamma |R(r) - r| at the returned r, with R the risk
        functional evaluated here from its definition."""
        gamma, sigma2 = 0.5, 1.0
        spec = make_spectrum()
        ti = TheoryInputs(spec, gamma, sigma2, 0.1, reg=reg)
        pred = solve_general_fixed_point(ti)
        again = risk_from_definition(ti, pred.risk)
        assert pred.iterations > 2
        assert pred.residual <= gamma * 1.0e-12 * max(1.0, pred.risk)
        assert pred.residual == pytest.approx(gamma * abs(again - pred.risk), rel=0.0, abs=1.0e-15 * max(1.0, pred.risk))

    def test_noiseless_input_short_circuits(self):
        pred = solve_general_fixed_point(TheoryInputs(make_spectrum(), 0.5, 0.0, 1.0))
        assert pred.risk == 0.0 and pred.tau == 1.0

    @pytest.mark.parametrize("reg", PENALTIES, ids=PENALTY_IDS)
    def test_zero_aspect_ratio_is_the_prox_of_the_misalignment(self, reg):
        """At gamma = 0 the Gaussian perturbation has scale 0 at every atom, so
        R is the constant mean(s (prox(delta) - delta)^2): for ridge the
        closed form's fixed-design bias.  No node count divides by the scale."""
        spec = make_spectrum(p=200, radius=20.0, seed=5)
        ti = TheoryInputs(spec, 0.0, 1.0, 0.5, reg=reg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = solve_general_fixed_point(ti)
        s, delta = spec.eigenvalues, spec.delta_coeffs
        if reg.kind is RegKind.RIDGE:
            expected = ridge_risk_closed_form(ti).risk
        else:
            expected = float(np.mean(s * (prox_reg(reg, 0.5 / s, delta) - delta) ** 2))
            assert 0.0 < expected < q_sigma(spec)  # some atoms pass the threshold, some do not
        assert pred.risk == pytest.approx(expected, rel=1.0e-13, abs=0.0)
        assert pred.tau == 1.0 and pred.iterations == 2

    @pytest.mark.parametrize("nodes", [0, -3])
    def test_rejects_an_empty_quadrature_rule(self, nodes):
        with pytest.raises(ConfigError, match="gh_nodes must be >= 1"):
            solve_general_fixed_point(TheoryInputs(make_spectrum(p=40), 0.5, 1.0, 1.0), gh_nodes=nodes)


def spectrum_with(deltas):
    """The identity spectrum with misalignment coefficients ``deltas``."""
    return dataclasses.replace(make_spectrum(p=len(deltas), identity=True), delta_coeffs=np.asarray(deltas, dtype=float))


class TestPieceSums:
    """R summed per piece of the prox is the Gauss-Hermite rule applied node
    by node.  The lower piece's moments are sums over the top nodes, taken
    from the top: as differences of prefix sums they put R 4e-8 off in
    ``test_thin_outer_pieces``."""

    @staticmethod
    def piece_sum(ti, risk, nodes):
        v = solve_companion_v(ti.spectrum.eigenvalues, ti.gamma, ti.lambda_tilde * ti.sigma2)
        return theory._risk_functional(ti, v, nodes)(risk)

    @pytest.mark.parametrize("reg", PENALTIES, ids=PENALTY_IDS)
    @pytest.mark.parametrize("nodes", [1, 2, 61, 121])
    def test_matches_the_rule_node_by_node(self, reg, nodes):
        for radius in (1.0, 20.0):
            spec = make_spectrum(p=120, radius=radius)
            for gamma in (0.2, 1.0, 3.0):
                for sigma2, lambda_tilde in ((1.0e-4, 1.0e-3), (0.01, 1.0), (1.0, 0.1), (1.0, 1.0), (100.0, 0.5)):
                    ti = TheoryInputs(spec, gamma, sigma2, lambda_tilde, reg=reg)
                    for risk in (0.0, 0.3, 30.0):
                        assert self.piece_sum(ti, risk, nodes) == pytest.approx(
                            risk_from_definition(ti, risk, nodes), rel=1.0e-13, abs=0.0)

    def test_reference_keeps_its_digits_at_tiny_steps(self):
        """At gamma = 0 and mu = 1e-7 every prox step is tiny.  Formed as
        ``prox(delta) - delta``, the move put the reference 1.2e-10 off the
        ridge closed form and 3.9e-10 off the 40-digit elastic-net value."""
        import mpmath

        ridge = TheoryInputs(make_spectrum(p=60, seed=1), 0.0, 1.0e-4, 1.0e-3)
        assert risk_from_definition(ridge, 0.0) == pytest.approx(ridge_risk_closed_form(ridge).risk, rel=1.0e-13, abs=0.0)
        enet = TheoryInputs(make_spectrum(p=40, seed=4, radius=100.0), 0.0, 1.0e-4, 1.0e-3,
                            reg=Regularizer(RegKind.ELASTIC_NET, 0.5))
        spec, mu = enet.spectrum, enet.lambda_tilde * enet.sigma2
        v = solve_companion_v(spec.eigenvalues, 0.0, mu)
        with mpmath.workdps(40):  # one node, z = 0: each atom moves by prox(delta) - delta
            total = mpmath.mpf(0)
            for s, delta in zip(map(mpmath.mpf, spec.eigenvalues), map(mpmath.mpf, spec.delta_coeffs)):
                eta = mpmath.mpf(mu) / (mpmath.mpf(v) * s)
                moved = mpmath.sign(delta) * max(abs(delta) - eta / 2, 0) / (1 + eta / 2)
                total += s * (moved - delta) ** 2
            oracle = float(total / spec.p)
        assert risk_from_definition(enet, 0.0, 1) == pytest.approx(oracle, rel=1.0e-13, abs=0.0)
        assert self.piece_sum(enet, 0.0, 1) == pytest.approx(oracle, rel=1.0e-13, abs=0.0)

    @pytest.mark.parametrize("reg", PENALTIES, ids=PENALTY_IDS)
    @pytest.mark.parametrize("nodes", [1, 61, 121])
    def test_breakpoint_on_a_node(self, reg, nodes):
        """An odd rule has the node 0; delta = +-eta l1 puts a breakpoint
        (delta -+ eta l1) / kappa on it, and for ridge delta = 0 does."""
        zeta, _ = theory._gauss_hermite_standard_normal(nodes)
        assert zeta[nodes // 2] == 0.0
        thresh = 0.5 / solve_companion_v(np.ones(4), 0.5, 0.5) * L1_WEIGHT[reg.kind]  # mu / (v s) * l1
        deltas = np.array([thresh, -thresh, 0.0, 0.3])
        assert deltas[0] - thresh == 0.0 == deltas[1] + thresh
        ti = TheoryInputs(spectrum_with(deltas), 0.5, 1.0, 0.5, reg=reg)
        for risk in (0.0, 0.7):
            assert self.piece_sum(ti, risk, nodes) == pytest.approx(risk_from_definition(ti, risk, nodes), rel=1.0e-13, abs=0.0)

    @pytest.mark.parametrize("reg", PENALTIES, ids=PENALTY_IDS)
    @pytest.mark.parametrize("nodes, tail", [(3, 1), (61, 1), (121, 1), (61, 16), (121, 40)])
    def test_thin_outer_pieces(self, reg, nodes, tail):
        """One atom's upper piece holds only the lowest ``tail`` nodes, the
        other's lower piece only the highest: the outermost node alone, or the
        nodes above z = 6, of total weight about 1e-9.  For the sparse
        penalties the threshold is ``kappa * cut - small``, with ``cut``
        halfway between the piece's last node and the next, so the atoms are
        ``-+small`` and their risk is about ``small^2``; the thin pieces'
        moments taken as differences of sums over the whole rule were off by
        rounding of the threshold squared."""
        zeta, _ = theory._gauss_hermite_standard_normal(nodes)
        assert tail == 1 or zeta[-tail - 1] < 6.0 < zeta[-tail]
        gamma, sigma2, risk, p = 0.5, 2.0, 0.4, 2
        kappa = math.sqrt((sigma2 + p * risk) * gamma / p)
        cut = 0.5 * (zeta[-tail - 1] + zeta[-tail])
        l1 = L1_WEIGHT[reg.kind]
        if l1:
            eta = (kappa * cut - 3.0e-4 * kappa) / l1
            lambda_tilde = eta * (1.0 + eta - gamma) / (1.0 + eta) / sigma2  # mu / v = eta at s = 1
        else:
            lambda_tilde = 0.25
        mu = lambda_tilde * sigma2
        thresh = mu / solve_companion_v(np.ones(p), gamma, mu) * l1
        deltas = np.array([thresh - kappa * cut, kappa * cut - thresh])
        upper = np.searchsorted(zeta, (deltas - thresh) / kappa)
        lower = np.searchsorted(zeta, (deltas + thresh) / kappa, side="right")
        assert upper[0] == tail and lower[1] == nodes - tail
        ti = TheoryInputs(spectrum_with(deltas), gamma, sigma2, lambda_tilde, reg=reg)
        assert self.piece_sum(ti, risk, nodes) == pytest.approx(risk_from_definition(ti, risk, nodes), rel=1.0e-13, abs=0.0)


SLOW_GAMMAS = (0.9, 1.0, 1.1)
SLOW_LAMBDAS = (1.0e-6, 1.0e-4, 1.0e-3)


class TestSlowRegion:
    """Near gamma = 1 at small lambda_tilde the plain iteration r <- R(r)
    contracts ever more slowly: on AR(1) rho = 0.5, p = 200, sigma2 = 1 it
    ran out of its 500 steps for ridge at gamma = 1 and lambda_tilde <= 1e-4,
    and took 200-280 steps elsewhere on this grid."""

    @pytest.mark.parametrize("gamma", SLOW_GAMMAS)
    @pytest.mark.parametrize("lambda_tilde", SLOW_LAMBDAS)
    def test_ridge_lands_on_the_closed_form_in_four_evaluations(self, gamma, lambda_tilde):
        ti = TheoryInputs(make_spectrum(p=200), gamma, 1.0, lambda_tilde)
        fixed = solve_general_fixed_point(ti)
        assert fixed.iterations <= 4
        assert fixed.risk == pytest.approx(ridge_risk_closed_form(ti).risk, rel=1.0e-9)

    @pytest.mark.parametrize("reg", [Regularizer(RegKind.LASSO), Regularizer(RegKind.ELASTIC_NET, 0.5)], ids=["lasso", "elastic_net"])
    @pytest.mark.parametrize("gamma", SLOW_GAMMAS)
    def test_sparse_penalties_return_a_certified_root(self, reg, gamma):
        spec = make_spectrum(p=200)
        for lambda_tilde in SLOW_LAMBDAS:
            ti = TheoryInputs(spec, gamma, 1.0, lambda_tilde, reg=reg)
            pred = solve_general_fixed_point(ti)
            again = risk_from_definition(ti, pred.risk)
            assert pred.residual <= gamma * 1.0e-12 * max(1.0, pred.risk)
            assert pred.residual == pytest.approx(gamma * abs(again - pred.risk), rel=0.0, abs=1.0e-15 * max(1.0, pred.risk))


class TestSameRootAsThePlainIteration:
    """Wherever the plain iteration settles, the secant search returns its
    root.  The plain loop stops up to ~3e-8 relative short of the root near
    r ~ 2e-5, hence the tolerance."""

    @pytest.mark.parametrize("reg", [Regularizer(RegKind.RIDGE), Regularizer(RegKind.LASSO), Regularizer(RegKind.ELASTIC_NET, 0.5)], ids=["ridge", "lasso", "elastic_net"])
    @pytest.mark.parametrize("radius", [1.0, 20.0])
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9, 2.0])
    def test_secant_root_matches_the_plain_iteration(self, reg, radius, gamma):
        spec = make_spectrum(p=120, radius=radius)
        settled = 0
        for lambda_tilde in (1.0e-2, 1.0e-1, 1.0):
            for sigma2 in (0.01, 1.0, 100.0):
                ti = TheoryInputs(spec, gamma, sigma2, lambda_tilde, reg=reg)
                oracle = plain_fixed_point(ti)
                if oracle is None:
                    continue
                settled += 1
                pred = solve_general_fixed_point(ti)
                assert pred.risk == pytest.approx(oracle[0], rel=1.0e-7, abs=1.0e-11)
                assert pred.iterations <= max(oracle[1], 5)
        assert settled > 0


class TestDivergence:
    """The lasso risk grows like gamma * r for large r, so at gamma > 1 with a
    large misalignment there is no finite fixed point."""

    def test_overflowing_risk_fails_at_once_and_quietly(self, monkeypatch):
        searches = []  # the points each root search evaluates its gap at
        secant = theory._bracketed_secant

        def counting(gap, *args):
            points = []
            searches.append(points)
            return secant(lambda x: points.append(x) or gap(x), *args)

        monkeypatch.setattr(theory, "_bracketed_secant", counting)
        ti = TheoryInputs(make_spectrum(p=120, radius=20.0), 5.0, 1.0, 1.0, reg=Regularizer(RegKind.LASSO))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not finite at r = "):
                solve_general_fixed_point(ti)
        _, risks = searches  # the companion root, then r = R(r)
        assert 0 < len(risks) < 500

    def test_unbounded_risk_fails_quietly(self):
        ti = TheoryInputs(make_spectrum(p=120, radius=20.0), 2.0, 0.01, 1.0, reg=Regularizer(RegKind.LASSO))
        assert plain_fixed_point(ti) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                solve_general_fixed_point(ti)
