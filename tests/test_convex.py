"""Tests for losses, regularizers, conjugate classification, and prox maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyreg.convex import (
    Loss,
    LossKind,
    RegKind,
    Regularizer,
    classify,
    moment_verdict,
    numerical_growth_probe,
    prox_loss,
    prox_loss_conjugate,
    prox_reg,
    required_alpha,
)

ALL_LOSSES = [
    Loss(LossKind.SQUARED),
    Loss(LossKind.ABSOLUTE),
    Loss(LossKind.HUBER, 1.345),
    Loss(LossKind.QUANTILE, 0.3),
    Loss(LossKind.LOGCOSH),
]
ALL_REGS = [
    Regularizer(RegKind.RIDGE),
    Regularizer(RegKind.LASSO),
    Regularizer(RegKind.ELASTIC_NET, 0.5),
]

loss_ids = lambda l: l.kind.value
reg_ids = lambda r: r.kind.value


class TestLossValidation:
    """Loss constructor contracts."""

    def test_huber_requires_positive_knee(self):
        with pytest.raises(ValueError):
            Loss(LossKind.HUBER, 0.0)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5])
    def test_quantile_level_must_be_interior(self, q):
        with pytest.raises(ValueError):
            Loss(LossKind.QUANTILE, q)

    def test_parameterless_losses_reject_parameters(self):
        with pytest.raises(ValueError):
            Loss(LossKind.SQUARED, 2.0)


class TestLossValues:
    """Pointwise loss values and derivatives."""

    def test_squared(self):
        loss = Loss(LossKind.SQUARED)
        assert float(loss.value(2.0)) == 2.0
        assert float(loss.derivative(2.0)) == 2.0

    def test_absolute(self):
        loss = Loss(LossKind.ABSOLUTE)
        assert float(loss.value(-3.0)) == 3.0
        assert float(loss.derivative(-3.0)) == -1.0
        assert float(loss.derivative(0.0)) == 0.0

    def test_huber_quadratic_then_linear(self):
        loss = Loss(LossKind.HUBER, 1.0)
        assert float(loss.value(0.5)) == 0.125
        assert float(loss.value(2.0)) == pytest.approx(1.5, rel=0.0)
        assert float(loss.derivative(2.0)) == 1.0
        assert float(loss.derivative(-0.25)) == -0.25

    def test_quantile_tilted_slopes(self):
        loss = Loss(LossKind.QUANTILE, 0.3)
        assert float(loss.value(1.0)) == pytest.approx(0.3, rel=0.0)
        assert float(loss.value(-1.0)) == pytest.approx(0.7, rel=0.0)

    def test_logcosh_is_stable_at_extremes(self):
        """log cosh(t) = |t| - log 2 + o(1), without overflow at |t| = 1e4."""
        loss = Loss(LossKind.LOGCOSH)
        assert float(loss.value(0.0)) == 0.0
        assert float(loss.value(1.0e4)) == pytest.approx(1.0e4 - math.log(2.0), rel=1.0e-12)
        assert float(loss.derivative(50.0)) == pytest.approx(1.0, rel=1.0e-12)

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=loss_ids)
    @given(st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_with_zero_at_origin(self, loss, t):
        assert float(loss.value(0.0)) == 0.0
        assert float(loss.value(t)) >= 0.0

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=loss_ids)
    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_convexity_at_midpoints(self, loss, a, b):
        mid = float(loss.value(0.5 * (a + b)))
        assert mid <= 0.5 * float(loss.value(a)) + 0.5 * float(loss.value(b)) + 1.0e-12


class TestClassification:
    """Conjugate-domain boundedness classification."""

    def test_squared_is_the_unbounded_case(self):
        c = classify(Loss(LossKind.SQUARED))
        assert not c.bounded
        assert c.q_growth == 2.0
        assert c.interval is None and c.K is None

    @pytest.mark.parametrize(
        "loss,interval",
        [
            (Loss(LossKind.ABSOLUTE), (-1.0, 1.0)),
            (Loss(LossKind.HUBER, 1.5), (-1.5, 1.5)),
            (Loss(LossKind.QUANTILE, 0.3), (-0.7, 0.3)),
            (Loss(LossKind.LOGCOSH), (-1.0, 1.0)),
        ],
        ids=["absolute", "huber", "quantile", "logcosh"],
    )
    def test_bounded_intervals(self, loss, interval):
        c = classify(loss)
        assert c.bounded
        assert c.interval == pytest.approx(interval, rel=0.0)

    def test_half_widths(self):
        assert classify(Loss(LossKind.HUBER, 1.5)).K == 1.5
        assert classify(Loss(LossKind.ABSOLUTE)).K == 1.0
        assert classify(Loss(LossKind.QUANTILE, 0.3)).K == pytest.approx(0.5, rel=0.0)

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=loss_ids)
    def test_numerical_probe_agrees_with_analytic_flag(self, loss):
        """Growth-rate probing reproduces the boundedness verdict."""
        probe = numerical_growth_probe(loss)
        assert probe["bounded"] == classify(loss).bounded

    def test_probe_reports_growth_exponents(self):
        assert numerical_growth_probe(Loss(LossKind.SQUARED))["growth_exponent"] == pytest.approx(2.0, abs=1.0e-6)
        assert numerical_growth_probe(Loss(LossKind.ABSOLUTE))["growth_exponent"] == pytest.approx(1.0, abs=1.0e-6)


class TestRequiredAlpha:
    """Minimal tail index for bounded risk under superlinear growth."""

    def test_quadratic_growth_needs_index_two(self):
        assert required_alpha(2.0) == 2.0

    def test_linear_growth_needs_any_index_above_one(self):
        assert required_alpha(1.0) == 1.0

    def test_cubic_growth(self):
        assert required_alpha(3.0) == pytest.approx(1.5, rel=0.0)

    def test_subunit_exponent_rejected(self):
        with pytest.raises(ValueError):
            required_alpha(0.5)

    def test_verdicts_in_the_heavy_tail_regime(self):
        assert moment_verdict(classify(Loss(LossKind.SQUARED)), 1.5) == "diverges-without-transfer"
        assert moment_verdict(classify(Loss(LossKind.HUBER, 1.0)), 1.5) == "bounded-risk"
        with pytest.raises(ValueError):
            moment_verdict(classify(Loss(LossKind.SQUARED)), 2.5)


class TestProxLoss:
    """Proximal maps of the losses."""

    def test_squared_linear_shrinkage(self):
        assert float(prox_loss(Loss(LossKind.SQUARED), 1.0, 2.0)) == 1.0

    def test_absolute_soft_threshold(self):
        assert float(prox_loss(Loss(LossKind.ABSOLUTE), 1.0, 3.0)) == 2.0
        assert float(prox_loss(Loss(LossKind.ABSOLUTE), 1.0, -0.5)) == 0.0

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            prox_loss(Loss(LossKind.SQUARED), 0.0, 1.0)

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=loss_ids)
    def test_origin_is_a_fixed_point(self, loss):
        assert float(prox_loss(loss, 2.5, 0.0)) == 0.0

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=loss_ids)
    @given(st.floats(-50.0, 50.0), st.floats(1.0e-2, 1.0e2))
    @settings(max_examples=150, deadline=None)
    def test_prox_satisfies_first_order_optimality(self, loss, x, eta):
        """z + eta * dL(z) recovers x (subgradient inclusion at kinks)."""
        z = float(prox_loss(loss, eta, x))
        if loss.kind is LossKind.ABSOLUTE and z == 0.0:
            assert abs(x) <= eta + 1.0e-9
        elif loss.kind is LossKind.QUANTILE and z == 0.0:
            q = loss.param
            assert -eta * (1.0 - q) - 1.0e-9 <= x <= eta * q + 1.0e-9
        else:
            assert z + eta * float(loss.derivative(z)) == pytest.approx(x, abs=1.0e-8 * max(1.0, abs(x)))

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=loss_ids)
    def test_firm_nonexpansiveness(self, loss):
        """(prox(x) - prox(y))^2 <= (prox(x) - prox(y)) (x - y)."""
        rng = np.random.default_rng(31)
        x = rng.normal(scale=10.0, size=500)
        y = rng.normal(scale=10.0, size=500)
        px = prox_loss(loss, 1.7, x)
        py = prox_loss(loss, 1.7, y)
        assert np.all((px - py) ** 2 <= (px - py) * (x - y) + 1.0e-10)

    def test_logcosh_prox_solves_its_stationarity_equation(self):
        eta = 3.7
        x = np.linspace(-80.0, 80.0, 2001)
        z = prox_loss(Loss(LossKind.LOGCOSH), eta, x)
        residual = z + eta * np.tanh(z) - x
        assert float(np.max(np.abs(residual))) <= 1.0e-10

    def test_large_step_collapses_every_prox_toward_the_origin(self):
        """With step 1e6 and |x| <= 10, all five proxes output |z| <= 1e-3."""
        x = np.linspace(-10.0, 10.0, 101)
        for loss in ALL_LOSSES:
            z = np.asarray(prox_loss(loss, 1.0e6, x))
            assert float(np.max(np.abs(z))) <= 1.0e-3


class TestProxConjugate:
    """Proximal maps of the convex conjugates."""

    @pytest.mark.parametrize(
        "loss",
        [Loss(LossKind.ABSOLUTE), Loss(LossKind.HUBER, 1.345), Loss(LossKind.QUANTILE, 0.3), Loss(LossKind.LOGCOSH)],
        ids=["absolute", "huber", "quantile", "logcosh"],
    )
    def test_outputs_stay_inside_the_conjugate_domain(self, loss):
        """1e4 random inputs land inside the classified interval."""
        rng = np.random.default_rng(17)
        u = rng.normal(scale=50.0, size=10 ** 4)
        out = prox_loss_conjugate(loss, 0.9, u)
        lo, hi = classify(loss).interval
        assert float(np.min(out)) >= lo - 1.0e-9
        assert float(np.max(out)) <= hi + 1.0e-9

    def test_squared_conjugate_is_linear_shrinkage(self):
        assert float(prox_loss_conjugate(Loss(LossKind.SQUARED), 1.0, 4.0)) == 2.0

    @pytest.mark.parametrize(
        "loss",
        [Loss(LossKind.SQUARED), Loss(LossKind.ABSOLUTE), Loss(LossKind.HUBER, 1.345), Loss(LossKind.QUANTILE, 0.3)],
        ids=["squared", "absolute", "huber", "quantile"],
    )
    def test_moreau_decomposition(self, loss):
        """prox_{sL}(u) + s prox_{L*/s}(u/s) = u for closed-form conjugates."""
        rng = np.random.default_rng(7)
        u = rng.normal(scale=5.0, size=2000)
        for s in (0.3, 1.0, 1.7):
            recon = prox_loss(loss, s, u) + s * prox_loss_conjugate(loss, 1.0 / s, u / s)
            assert float(np.max(np.abs(recon - u))) <= 1.0e-9


class TestRegularizers:
    """Penalty values and prox maps."""

    def test_elastic_net_mix_must_be_interior(self):
        with pytest.raises(ValueError):
            Regularizer(RegKind.ELASTIC_NET, 1.0)
        with pytest.raises(ValueError):
            Regularizer(RegKind.RIDGE, 0.5)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=reg_ids)
    def test_coercive_along_rays(self, reg):
        """Penalty value blows up along any fixed direction."""
        direction = np.array([1.0, -2.0, 0.5])
        values = [float(reg.value(r * direction)) for r in (1.0, 10.0, 100.0, 1000.0)]
        assert values[0] < values[1] < values[2] < values[3]
        assert values[3] > 100.0 * values[0] / 2.0

    @pytest.mark.parametrize("reg", ALL_REGS, ids=reg_ids)
    def test_prox_fixes_the_origin(self, reg):
        assert np.array_equal(prox_reg(reg, 2.0, np.zeros(4)), np.zeros(4))

    def test_ridge_prox_shrinks_linearly(self):
        out = prox_reg(Regularizer(RegKind.RIDGE), 1.0e6, np.array([10.0]))
        assert float(out[0]) == pytest.approx(1.0e-5, rel=1.0e-4)

    def test_lasso_prox_soft_thresholds(self):
        out = prox_reg(Regularizer(RegKind.LASSO), 2.0, np.array([3.0, -0.5]))
        assert np.allclose(out, [1.0, 0.0], rtol=0.0, atol=0.0)

    def test_elastic_net_prox_thresholds_then_shrinks(self):
        reg = Regularizer(RegKind.ELASTIC_NET, 0.5)
        out = prox_reg(reg, 2.0, np.array([3.0]))
        assert float(out[0]) == pytest.approx((3.0 - 1.0) / 2.0, rel=1.0e-12)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=12),
           st.floats(1.0e-300, 1.0e300), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_one_formula_equals_the_three_textbook_proxes(self, values, eta, mix):
        """``soft(v, eta l1) / (1 + eta l2)`` returns exactly what ``v / (1 + eta)``,
        the soft threshold and the thresholded shrinkage return, for a scalar
        step and for the same step as an array."""
        v = np.array(values)

        def soft(t):
            return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

        textbook = [
            (Regularizer(RegKind.RIDGE), v / (1.0 + eta)),
            (Regularizer(RegKind.LASSO), soft(eta)),
            (Regularizer(RegKind.ELASTIC_NET, mix), soft(eta * mix) / (1.0 + eta * (1.0 - mix))),
        ]
        for reg, expected in textbook:
            assert np.array_equal(prox_reg(reg, eta, v), expected)
            assert np.array_equal(prox_reg(reg, np.full(v.shape, eta), v), expected)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=reg_ids)
    def test_array_step_equals_row_wise_scalar_steps(self, reg):
        rng = np.random.default_rng(5)
        v = rng.normal(scale=3.0, size=(6, 9))
        eta = np.geomspace(0.01, 10.0, 6)
        rows = np.stack([prox_reg(reg, float(e), row) for e, row in zip(eta, v)])
        assert np.array_equal(prox_reg(reg, eta[:, None], v), rows)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_every_step_entry_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError):
            prox_reg(Regularizer(RegKind.LASSO), np.array([[1.0], [bad]]), np.ones((2, 3)))
        with pytest.raises(ValueError):
            prox_reg(Regularizer(RegKind.LASSO), bad, np.ones(3))

    @pytest.mark.parametrize("reg", ALL_REGS, ids=reg_ids)
    def test_prox_firm_nonexpansiveness(self, reg):
        rng = np.random.default_rng(23)
        x = rng.normal(scale=10.0, size=(200, 6))
        y = rng.normal(scale=10.0, size=(200, 6))
        px = np.stack([prox_reg(reg, 1.3, row) for row in x])
        py = np.stack([prox_reg(reg, 1.3, row) for row in y])
        lhs = np.sum((px - py) ** 2, axis=1)
        rhs = np.sum((px - py) * (x - y), axis=1)
        assert np.all(lhs <= rhs + 1.0e-10)
