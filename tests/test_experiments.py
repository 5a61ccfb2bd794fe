"""Tests for the Monte Carlo harness: protocol, runners, serialization."""

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from heavyreg import experiments
from heavyreg.errors import ConfigError
from heavyreg.experiments import (
    CSV_HEADER,
    EXPERIMENT_NAMES,
    ExperimentConfig,
    RiskRecord,
    default_config,
    run_experiment,
    summarize,
    write_outputs,
    write_records_csv,
)
from heavyreg.spectrum import CovarianceModel, decompose, sample_design
from heavyreg.streams import substream
from heavyreg.tails import NoiseFamily, TailLaw


def tiny_config(name, **overrides):
    """A deterministic configuration small enough for unit tests."""
    base = dict(
        name=name,
        n=120,
        p=40,
        cov=CovarianceModel.ar1(40, 0.5),
        replications=5,
        master_seed=20240817,
    )
    if name == "transient":
        base["sigma_grid"] = tuple(float(v) for v in np.geomspace(1.0, 1.0e4, 6))
    elif name == "concentration":
        base.update(noise=TailLaw(NoiseFamily.SYMMETRIC_PARETO, 1.5), n_grid=(500, 2000), replications=30)
    elif name == "trichotomy":
        base["scale_grid"] = (0.0, 1.0, 10.0, 100.0, 1.0e3, 1.0e4, 1.0e5)
    else:
        base["scale_grid"] = (0.0, 1.0, 10.0, 100.0, 1.0e3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    """Validation of the run description."""

    def test_unknown_experiment_name_is_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="warmup", scale_grid=(1.0,))

    def test_grids_must_ascend_strictly(self):
        with pytest.raises(ConfigError):
            tiny_config("paradox", scale_grid=(0.0, 10.0, 10.0))

    def test_each_experiment_requires_its_sweep_grid(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="transient", n=120, p=40, cov=CovarianceModel.ar1(40, 0.5))
        with pytest.raises(ConfigError):
            ExperimentConfig(name="paradox", n=120, p=40, cov=CovarianceModel.ar1(40, 0.5))

    def test_covariance_dimension_must_match(self):
        with pytest.raises(ConfigError):
            tiny_config("paradox", cov=CovarianceModel.identity(8))

    def test_replication_and_worker_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            tiny_config("paradox", replications=0)
        with pytest.raises(ConfigError):
            tiny_config("paradox", workers=0)

    def test_sweeps_own_the_noise_scale(self):
        with pytest.raises(ConfigError):
            tiny_config("paradox", noise=TailLaw(NoiseFamily.STUDENT_T, 1.5, scale=2.0))

    @pytest.mark.parametrize("field", ("lambda_tilde", "lambda_fixed", "huber_k", "delta_norm"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_penalties_knee_and_misalignment_are_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            tiny_config("paradox", **{field: bad})

    def test_nonpositive_penalties_knee_and_negative_misalignment_are_rejected(self):
        for field, bad in (("lambda_tilde", 0.0), ("lambda_fixed", -1.0), ("huber_k", 0.0), ("delta_norm", -1.0)):
            with pytest.raises(ConfigError, match=field):
                tiny_config("paradox", **{field: bad})
        assert tiny_config("paradox", delta_norm=0.0).delta_norm == 0.0

    def test_degenerate_noise_law_is_an_explicit_error(self):
        with pytest.raises(ConfigError):
            tiny_config("concentration", noise=TailLaw(NoiseFamily.SYMMETRIC_PARETO, 1.5, scale=0.0))

    def test_aspect_ratio_property(self):
        assert tiny_config("paradox").gamma == pytest.approx(40.0 / 120.0)

    def test_resolved_config_serializes_to_json(self):
        blob = json.dumps(tiny_config("paradox").to_dict())
        parsed = json.loads(blob)
        assert parsed["cov"] == {"kind": "ar1", "p": 40, "rho": 0.5}
        assert parsed["noise"]["family"] == "student_t"

    def test_design_free_config_echoes_only_the_fields_it_reads(self):
        echo = json.loads(json.dumps(default_config("concentration").to_dict()))
        assert echo == {
            "name": "concentration",
            "noise": {"family": "symmetric_pareto", "alpha": 1.5, "scale": 1.0},
            "n_grid": [1000, 10000, 100000],
            "replications": 200,
            "master_seed": 12345,
            "workers": 1,
            "paper_scale": False,
        }


class TestDefaultConfigs:
    """Desk-scale and paper-scale presets."""

    def test_every_experiment_has_a_default(self):
        for name in EXPERIMENT_NAMES:
            config = default_config(name)
            assert config.name == name

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ConfigError):
            default_config("warmup")

    def test_desk_scale_dimensions(self):
        config = default_config("paradox")
        assert (config.n, config.p, config.replications) == (800, 400, 100)
        assert config.scale_grid[0] == 0.0
        assert config.scale_grid[-1] == pytest.approx(1.0e3)

    def test_transient_desk_grid_has_ten_variance_points(self):
        config = default_config("transient")
        assert len(config.sigma_grid) == 10
        assert config.replications == 200

    def test_trichotomy_grid_reaches_the_flat_regime(self):
        config = default_config("trichotomy")
        assert config.scale_grid[-1] == pytest.approx(1.0e5)

    def test_concentration_uses_a_power_tail_and_large_samples(self):
        config = default_config("concentration")
        assert config.noise.family is NoiseFamily.SYMMETRIC_PARETO
        assert config.n_grid == (10**3, 10**4, 10**5)
        assert config.replications == 200

    def test_paper_scale_switches_dimensions(self):
        config = default_config("transient", paper_scale=True)
        assert (config.n, config.p, config.replications) == (2000, 1000, 500)
        assert len(config.sigma_grid) == 25


class TestRecordProtocol:
    """Completeness, uniqueness, and reproducibility of the record set."""

    def test_record_set_is_complete_and_unique(self):
        result = run_experiment(tiny_config("paradox"))
        config = result.config
        expected = 3 * len(config.scale_grid) * config.replications
        assert len(result.records) == expected
        keys = {(r.estimator, r.sweep_value, r.replication) for r in result.records}
        assert len(keys) == expected

    def test_identical_configs_reproduce_risks_bitwise(self):
        a = run_experiment(tiny_config("paradox"))
        b = run_experiment(tiny_config("paradox"))
        assert [r.risk for r in a.records] == [r.risk for r in b.records]

    def test_worker_count_does_not_change_the_records(self):
        serial = run_experiment(tiny_config("paradox", replications=4))
        parallel = run_experiment(tiny_config("paradox", replications=4, workers=2))
        assert [(r.estimator, r.sweep_value, r.replication, r.risk) for r in serial.records] == [
            (r.estimator, r.sweep_value, r.replication, r.risk) for r in parallel.records
        ]

    def test_the_master_seed_changes_the_draws(self):
        a = run_experiment(tiny_config("paradox"))
        b = run_experiment(tiny_config("paradox", master_seed=7))
        assert [r.risk for r in a.records] != [r.risk for r in b.records]

    def test_rademacher_design_entries_are_signs(self):
        spec = decompose(CovarianceModel.identity(16))
        x = sample_design(spec, 32, substream(0, "design", 0), kind="rademacher")
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_every_closed_form_sweep_point_matches_a_dense_oracle(self):
        # the oracle solves each fit's centred normal equations densely in
        # the beta form; the harness solves the error form in the eigenbasis
        from heavyreg.experiments import _adapted_lambda, _build_plan, _draw_replication, _error_block

        cfg = tiny_config("paradox")
        plan = _build_plan(cfg)
        draw = _draw_replication(plan, rep=0)
        x = draw.x
        estimators = ("ols", "fixed_ridge", "transfer_ridge")
        points = [(e, scale, scale ** 2 * plan.sigma2_unit) for scale in cfg.scale_grid for e in estimators]
        rhs, shifts = _error_block(plan, draw, points)
        errors = draw.design.solve(rhs, shifts)
        assert 0.0 in cfg.scale_grid
        for k, (estimator, scale, sigma2) in enumerate(points):
            y = x @ plan.beta_star + scale * draw.w_wins_unit
            lam, center = {"ols": (0.0, np.zeros(cfg.p)),
                           "fixed_ridge": (cfg.lambda_fixed, np.zeros(cfg.p)),
                           "transfer_ridge": (_adapted_lambda(cfg, sigma2), plan.beta0)}[estimator]
            system = x.T @ x / cfg.n + lam * np.eye(cfg.p)
            oracle = center + np.linalg.solve(system, x.T @ (y - x @ center) / cfg.n)
            np.testing.assert_allclose(plan.beta_star + errors[:, k], oracle, rtol=1.0e-10, atol=1.0e-12,
                                       err_msg=f"{estimator} at scale {scale}")


class TestErrorBlock:
    """The closed-form squared-loss fits: each estimator's penalty and
    centre, and the error systems one draw solves as a block."""

    @staticmethod
    def solved(config, points, draw=None, **plan_fields):
        """``(plan, draw, errors)`` for ``points`` on ``draw`` (the plan's
        first draw when omitted), the plan's fields overridden as given."""
        plan = dataclasses.replace(experiments._build_plan(config), **plan_fields)
        draw = draw or experiments._draw_replication(plan, rep=0)
        rhs, shifts = experiments._error_block(plan, draw, points)
        return plan, draw, draw.design.solve(rhs, shifts)

    @staticmethod
    def response(plan, draw, amplitude):
        return draw.x @ plan.beta_star + amplitude * draw.w_wins_unit

    def test_each_estimator_has_its_penalty_and_centre(self):
        cfg = tiny_config("paradox", lambda_tilde=0.5, lambda_fixed=0.2)
        plan = experiments._build_plan(cfg)
        origin = np.zeros(cfg.p)
        for estimator, lam, centre in (("ols", 0.0, origin), ("fixed_ridge", 0.2, origin), ("huber", 0.2, origin),
                                       ("transfer_ridge", 1.5, plan.beta0), ("transfer_lasso", 1.5, plan.beta0)):
            got_lam, got_centre = experiments._penalty_and_centre(plan, estimator, 3.0)
            assert got_lam == lam, estimator
            assert np.array_equal(got_centre, centre), estimator

    def test_noiseless_transfer_penalty_keeps_its_floor(self):
        plan = experiments._build_plan(tiny_config("paradox"))
        lam, _ = experiments._penalty_and_centre(plan, "transfer_ridge", 0.0)
        assert lam == experiments._NOISELESS_PENALTY > 0.0

    def test_unknown_estimator_is_rejected(self):
        plan = experiments._build_plan(tiny_config("paradox"))
        with pytest.raises(ConfigError):
            experiments._penalty_and_centre(plan, "elastic_net", 1.0)

    def test_block_has_one_column_and_one_shift_per_point(self):
        cfg = tiny_config("paradox")
        plan = experiments._build_plan(cfg)
        draw = experiments._draw_replication(plan, rep=0)
        points = [("ols", 1.0, 1.0), ("fixed_ridge", 2.0, 4.0), ("transfer_ridge", 3.0, 9.0)]
        rhs, shifts = experiments._error_block(plan, draw, points)
        assert rhs.shape == (cfg.p, 3)
        assert shifts.tolist() == [0.0, cfg.lambda_fixed, experiments._adapted_lambda(cfg, 9.0)]

    def test_stacked_identity_design_averages_the_two_response_blocks(self):
        # X = [I; I] makes X'X/n = 2I/n, so least squares is the mean of the blocks
        cfg = tiny_config("paradox", n=8, p=4, cov=CovarianceModel.identity(4))
        noise = np.arange(1.0, 9.0)
        draw = experiments._RepDraw(x=np.vstack([np.eye(4), np.eye(4)]), w_unit=noise, w_wins_unit=noise)
        plan, _, errors = self.solved(cfg, [("ols", 2.0, 4.0)], draw=draw)
        np.testing.assert_allclose(errors[:, 0], 2.0 * (noise[:4] + noise[4:]) / 2.0, rtol=0.0, atol=1.0e-12)

    def test_noiseless_least_squares_recovers_the_signal_exactly(self):
        plan, _, errors = self.solved(tiny_config("paradox"), [("ols", 0.0, 0.0)])
        assert np.array_equal(errors[:, 0], np.zeros(plan.config.p))

    def test_least_squares_residual_is_orthogonal_to_the_columns(self):
        plan, draw, errors = self.solved(tiny_config("paradox"), [("ols", 3.0, 9.0)])
        y = self.response(plan, draw, 3.0)
        resid = y - draw.x @ (plan.beta_star + errors[:, 0])
        assert np.max(np.abs(draw.x.T @ resid)) <= 1.0e-10 * np.linalg.norm(y)

    def test_least_squares_error_is_linear_in_the_noise_amplitude(self):
        # the pure-variance curve behind the slope-two check
        _, _, errors = self.solved(tiny_config("paradox"), [("ols", 1.0, 1.0), ("ols", 1.0e3, 1.0e6)])
        np.testing.assert_allclose(errors[:, 1], 1.0e3 * errors[:, 0], rtol=1.0e-12, atol=0.0)

    def test_huge_penalty_pins_the_transfer_fit_at_its_centre(self):
        plan, _, errors = self.solved(tiny_config("paradox", lambda_tilde=1.0e12), [("transfer_ridge", 1.0, 1.0)])
        assert np.linalg.norm(plan.beta_star + errors[:, 0] - plan.beta0) <= 1.0e-6

    def test_vanishing_penalty_approaches_least_squares(self):
        _, _, errors = self.solved(tiny_config("paradox", lambda_fixed=1.0e-12),
                                   [("ols", 0.3, 0.09), ("fixed_ridge", 0.3, 0.09)])
        np.testing.assert_allclose(errors[:, 1], errors[:, 0], rtol=0.0, atol=1.0e-9)

    def test_single_column_ridge_is_the_shrinkage_formula(self):
        cfg = tiny_config("paradox", n=40, p=1, cov=CovarianceModel.identity(1), sparsity=1.0, lambda_fixed=0.8)
        plan, draw, errors = self.solved(cfg, [("fixed_ridge", 2.0, 4.0)])
        x, y = draw.x[:, 0], self.response(plan, draw, 2.0)
        expected = (x @ y / 40) / (x @ x / 40 + 0.8)
        assert plan.beta_star[0] + errors[0, 0] == pytest.approx(expected, rel=1.0e-12)


class TestGoldenRecords:
    """Byte-level pin of every experiment's records and summary.

    Each digest pair is the SHA-256 of the written CSV with its ``wall_ms``
    column cut (rows as written, i.e. sorted; the cut is the one
    ``heavybench/child.py::output_digest`` makes) and of the written
    ``summary.json``, for ``tiny_config(name)``.  Made with numpy 2.4.6,
    scipy 1.17.1 and scipy-openblas 0.3.31 on x86-64 (Haswell kernels).
    Another BLAS or library version may round differently; regenerate by
    printing ``_digests(run_experiment(tiny_config(name)), tmp_path)`` for
    each name, and only on a commit whose records are known good.
    """

    GOLDEN = {
        "paradox": ("c76cb2424c4bb8b9e57476a7198ece619c67db13c725a059da322ff6c0b24432",
                    "1644fc4a09b9747d603ccd69bd0a6c7cef2106241639641c5603618c7529fda1"),
        "floor": ("2295af6e52be6759df1e0ce823ff19abfdac99d6144ebd2177f98923cc17ebd4",
                  "e1c33705182bdc3b322b851349529630329945ea1a3e7ca5b85fc3d7725f240a"),
        "transient": ("c10cd5c969ad12d2dba3ba296cb29e59f02546263906d8432a91b47154a86daf",
                      "401ce1275c7de20a17338768d4bccc3fbf306238c6298523ab8b2db7046cb042"),
        "trichotomy": ("245745d083b4563986735916c47f7459cb67f26198e9fa463eb11db66ac06401",
                       "7b19ffcaa04101f921f71832c4494be7b3ebb0ef90623caa1f2e8e002deb42d5"),
        "universality": ("83183218faca69b3e32ab452939dd8cfbc99a46b7ec2de28e0ced34ace787fa1",
                         "d8dc71c82afbbc5a59d9caa7ec512f92474710741b6aeec57693c3d3e446feea"),
        "concentration": ("85d78afe9fd7c95ab5267f24b531be0ca410985edd0a7a822d23cb6c36810e46",
                          "b9eedb344eb3f60cc75a4dbe0850712a5420f89cca3414dafd42c536d4dfbc06"),
    }
    @staticmethod
    def _digests(result, out_dir):
        paths = write_outputs(result, out_dir)
        with open(paths["csv"], "rb") as fh:
            rows = b"\n".join(line.rsplit(b",", 1)[0] for line in fh.read().splitlines())
        with open(paths["summary"], "rb") as fh:
            summary = fh.read()
        return hashlib.sha256(rows).hexdigest(), hashlib.sha256(summary).hexdigest()

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_records_and_summary_match_the_golden_digests(self, name, tmp_path):
        assert self._digests(run_experiment(tiny_config(name)), tmp_path) == self.GOLDEN[name]

    @pytest.mark.parametrize("name", ("paradox", "floor", "trichotomy", "transient", "universality"))
    def test_two_workers_write_the_same_bytes(self, name, tmp_path):
        result = run_experiment(tiny_config(name, workers=2))
        assert self._digests(result, tmp_path) == self.GOLDEN[name]


class TestParadoxRunner:
    """Divergence of unadapted fits, plateau of the noise-adapted one."""

    def test_built_in_checks_pass(self):
        result = run_experiment(tiny_config("paradox"))
        assert result.passed, result.summary["checks"]

    def test_squared_loss_slopes_are_two(self):
        result = run_experiment(tiny_config("paradox"))
        checks = result.summary["checks"]
        # pure-variance curve: slope exactly two; the origin-centered ridge
        # carries a constant bias term, so its slope approaches two from below
        assert checks["ols_slope"]["value"] == pytest.approx(2.0, abs=1.0e-6)
        assert checks["fixed_ridge_slope"]["value"] == pytest.approx(2.0, abs=1.0e-3)

    def test_noiseless_row_has_zero_risk(self):
        result = run_experiment(tiny_config("paradox"))
        ols = result.summary["estimators"]["ols"]
        assert ols["sweep_values"][0] == 0.0
        assert ols["mean"][0] <= 1.0e-20

    def test_needs_more_rows_than_columns(self):
        for name in ("paradox", "trichotomy"):
            with pytest.raises(ConfigError):
                tiny_config(name, n=40, p=40)


class TestFloorRunner:
    """Shared terminal risk for the two transfer penalties."""

    def test_built_in_checks_pass(self):
        result = run_experiment(tiny_config("floor"))
        assert result.passed, result.summary["checks"]

    def test_terminal_risks_sit_on_the_misalignment_energy(self):
        result = run_experiment(tiny_config("floor"))
        q = result.summary["q_sigma"]
        for estimator in ("transfer_ridge", "transfer_lasso"):
            terminal = result.summary["estimators"][estimator]["mean"][-1]
            assert terminal == pytest.approx(q, rel=0.15)

    def test_noiseless_row_stays_below_the_floor(self):
        result = run_experiment(tiny_config("floor"))
        q = result.summary["q_sigma"]
        for estimator in ("transfer_ridge", "transfer_lasso"):
            assert result.summary["estimators"][estimator]["mean"][0] <= q


class TestTransientRunner:
    """Monte Carlo versus the deterministic risk curve."""

    def test_built_in_checks_pass(self):
        result = run_experiment(tiny_config("transient", replications=20))
        assert result.passed, result.summary["checks"]

    def test_theory_overlay_matches_the_grid(self):
        result = run_experiment(tiny_config("transient", replications=20))
        assert len(result.summary["theory_risk"]) == len(result.config.sigma_grid)
        assert result.summary["checks"]["median_relative_error"]["value"] <= 0.03

    @staticmethod
    def eigh_shapes(monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        return shapes

    @staticmethod
    def eigenbasis_risks(config):
        """Every record by the eigenbasis solve of the fitted ridge itself,
        ``beta0 + (G + lam I)^-1 (G (beta_star - beta0) + a X'w/n)``, with
        ``G d`` formed from the design."""
        from heavyreg.estimators import Resolvent, empirical_risk
        from heavyreg.experiments import _adapted_lambda, _build_plan, _draw_replication

        plan = _build_plan(config)
        risks = {}
        for rep in range(config.replications):
            draw = _draw_replication(plan, rep)
            design = Resolvent.of(draw.x)
            xtw = draw.x.T @ draw.w_wins_unit / config.n
            gd = draw.x.T @ (draw.x @ (plan.beta_star - plan.beta0)) / config.n
            for sigma2 in config.sigma_grid:
                rhs = gd + math.sqrt(sigma2 / plan.sigma2_unit) * xtw
                beta = plan.beta0 + design.solve(rhs, _adapted_lambda(config, sigma2))
                risks[(sigma2, rep)] = empirical_risk(beta, plan.beta_star, plan.spec.matrix)
        return risks

    def assert_certified_and_equal_to_the_eigenbasis(self, result):
        want = self.eigenbasis_risks(result.config)
        for r in result.records:
            assert r.converged and r.certificate <= 1.0e-10
            assert r.risk == pytest.approx(want[(r.sweep_value, r.replication)], rel=1.0e-10)
        block = result.summary["estimators"]["transfer_ridge"]
        assert len(block["certificate_max"]) == len(block["sweep_values"])
        assert max(block["certificate_max"]) <= 1.0e-10 and "newton_steps_max" not in block

    def test_sweep_is_certified_without_an_eigendecomposition(self, monkeypatch):
        shapes = self.eigh_shapes(monkeypatch)
        result = run_experiment(tiny_config("transient"))
        assert shapes == [(40, 40)]  # the covariance, decomposed once
        self.assert_certified_and_equal_to_the_eigenbasis(result)
        assert result.summary["resolvent_fallbacks"] == [0] * len(result.config.sigma_grid)

    def test_spent_budget_routes_every_column_through_one_resolvent(self, monkeypatch):
        from heavyreg import estimators

        monkeypatch.setattr(estimators, "_CG_BUDGET", 0)
        shapes = self.eigh_shapes(monkeypatch)
        result = run_experiment(tiny_config("transient"))
        assert shapes == [(40, 40)] * (1 + result.config.replications)  # one Resolvent per replication
        self.assert_certified_and_equal_to_the_eigenbasis(result)
        assert all(r.resolvent_fallback for r in result.records)
        assert result.summary["resolvent_fallbacks"] == [result.config.replications] * len(result.config.sigma_grid)

    def test_ill_conditioned_sweep_is_certified(self):
        """At n = p and lambda_tilde = 1e-6 the Gram matrix is nearly
        singular and the smallest penalties are about 1e-6."""
        self.assert_certified_and_equal_to_the_eigenbasis(
            run_experiment(tiny_config("transient", n=40, lambda_tilde=1.0e-6)))


class TestTrichotomyRunner:
    """Four risk curves with three behaviors."""

    def test_built_in_checks_pass(self):
        result = run_experiment(tiny_config("trichotomy"))
        assert result.passed, result.summary["checks"]

    def test_robust_fit_plateaus_while_squared_losses_diverge(self):
        result = run_experiment(tiny_config("trichotomy"))
        checks = result.summary["checks"]
        assert abs(checks["huber_slope"]["value"]) <= 0.1
        assert checks["ols_slope"]["value"] >= 1.8
        huber = result.summary["estimators"]["huber"]["mean"]
        assert all(math.isfinite(v) for v in huber)

    def test_robust_plateau_exceeds_the_transfer_floor(self):
        result = run_experiment(tiny_config("trichotomy"))
        assert result.summary["huber_plateau_over_q"] > 1.0


class TestUniversalityRunner:
    """Design-law insensitivity of the plateau."""

    def test_built_in_checks_pass(self):
        result = run_experiment(tiny_config("universality", scale_grid=(1.0, 10.0, 100.0)))
        assert result.passed, result.summary["checks"]

    def test_aligned_noiseless_case_gives_zero_risk_for_both_designs(self):
        config = tiny_config("universality", scale_grid=(0.0,), delta_norm=0.0)
        result = run_experiment(config)
        for estimator in ("transfer_ridge_gaussian", "transfer_ridge_rademacher"):
            assert result.summary["estimators"][estimator]["mean"][0] <= 1.0e-10


class TestConcentrationRunner:
    """Distribution of the normalized winsorized noise energy."""

    def test_ratio_centers_near_one(self):
        result = run_experiment(tiny_config("concentration"))
        ratios = [r.risk for r in result.records]
        assert 0.5 <= float(np.mean(ratios)) <= 1.5

    def test_summary_reports_in_band_fractions_per_sample_size(self):
        result = run_experiment(tiny_config("concentration"))
        fractions = result.summary["in_band_fractions"]
        assert set(fractions) == {"500", "2000"}
        assert all(0.0 <= v <= 1.0 for v in fractions.values())

    def test_summary_reports_moments_against_the_pareto_closed_form(self):
        result = run_experiment(tiny_config("concentration"))
        block = result.summary["energy_ratio"]
        assert block["n"] == [500, 2000]
        for key in ("mean", "se", "variance", "variance_se", "predicted_variance"):
            assert len(block[key]) == 2
        for n, predicted in zip(block["n"], block["predicted_variance"]):
            tau = n ** (1.0 / 1.5)
            sigma2 = 1.0 + 4.0 * (tau ** 0.5 - 1.0)
            m4 = 1.0 + 1.6 * (tau ** 2.5 - 1.0)
            assert predicted == pytest.approx((m4 / sigma2 ** 2 - 1.0) / n, rel=1.0e-3)
        ratios = [r.risk for r in result.records if r.sweep_value == 2000.0]
        assert block["mean"][1] == pytest.approx(np.mean(ratios), rel=1.0e-12)
        assert block["variance"][1] == pytest.approx(np.var(ratios, ddof=1), rel=1.0e-12)

    def test_scaled_law_is_clamped_at_the_scaled_threshold(self):
        unit = run_experiment(tiny_config("concentration"))
        scaled_law = TailLaw(NoiseFamily.SYMMETRIC_PARETO, 1.5, scale=2.0)
        scaled = run_experiment(tiny_config("concentration", noise=scaled_law))
        assert [r.risk for r in scaled.records] == pytest.approx([r.risk for r in unit.records], rel=1.0e-12)
        assert scaled.passed, scaled.summary["checks"]

    def test_runs_without_a_design_plan(self, monkeypatch):
        def no_decompose(model):
            raise AssertionError("concentration draws no design")

        monkeypatch.setattr(experiments, "decompose", no_decompose)
        result = run_experiment(tiny_config("concentration"))
        assert result.passed, result.summary["checks"]
        assert not {"n", "p", "gamma", "q_sigma", "sigma2_unit", "tau_unit"} & set(result.summary)

    def test_too_few_replications_for_the_moment_checks_are_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config("concentration", replications=2)


class TestSummarize:
    """Aggregation statistics."""

    @staticmethod
    def fake_records():
        records = []
        for estimator in ("a", "b"):
            for sweep in (1.0, 2.0):
                for rep, risk in enumerate((3.0, 1.0, 2.0)):
                    records.append(RiskRecord("paradox", estimator, sweep, rep,
                                              risk * (2.0 if estimator == "b" else 1.0),
                                              converged=rep != 1 or estimator != "b",
                                              wall_ms=1.0))
        return tuple(records)

    def test_moments_and_quantiles(self):
        stats = summarize(self.fake_records())
        block = stats["a"]
        assert block["sweep_values"] == [1.0, 2.0]
        assert block["mean"] == [pytest.approx(2.0)] * 2
        assert block["median"] == [pytest.approx(2.0)] * 2
        assert block["se"] == [pytest.approx(1.0 / math.sqrt(3.0))] * 2
        assert block["q05"] == [pytest.approx(np.quantile([1.0, 2.0, 3.0], 0.05))] * 2
        assert stats["b"]["nonconverged"] == [1, 1]

    def test_input_order_does_not_matter(self):
        records = list(self.fake_records())
        shuffled = tuple(records[::-1])
        assert summarize(tuple(records)) == summarize(shuffled)

    def test_summary_is_json_ready(self):
        json.dumps(summarize(self.fake_records()))

    def test_solver_telemetry_only_for_newton_fits(self):
        stats = summarize(self.fake_records())
        assert "newton_steps_max" not in stats["a"]
        records = [dataclasses.replace(r, newton_steps=r.replication + 1, certificate=10.0 ** -r.replication)
                   for r in self.fake_records() if r.estimator == "a"]
        block = summarize(tuple(records))["a"]
        assert block["newton_steps_max"] == [3, 3]
        assert block["newton_steps_p95"] == [pytest.approx(np.quantile([1, 2, 3], 0.95))] * 2
        assert block["certificate_max"] == [1.0, 1.0]

    def test_written_summary_reports_every_sweep_points_solver(self, tmp_path):
        result = run_experiment(tiny_config("floor"))
        lasso = result.summary["estimators"]["transfer_lasso"]
        for key in ("newton_steps_max", "newton_steps_p95", "certificate_max"):
            assert len(lasso[key]) == len(lasso["sweep_values"])
        assert max(lasso["certificate_max"]) <= 1.0e-8
        assert "newton_steps_max" not in result.summary["estimators"]["transfer_ridge"]
        with open(write_outputs(result, tmp_path)["csv"]) as fh:
            assert tuple(next(csv.reader(fh))) == CSV_HEADER


class TestSerialization:
    """CSV schema and artifact naming."""

    def test_csv_header_and_roundtrip(self, tmp_path):
        result = run_experiment(tiny_config("paradox", replications=2))
        path = tmp_path / "records.csv"
        write_records_csv(result.records, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 1 + len(result.records)
        for row, record in zip(rows[1:], result.records):
            assert row[0] == "paradox"
            assert float(row[2]) == record.sweep_value
            assert int(row[3]) == record.replication
            assert float(row[4]) == record.risk  # shortest-repr round trip is exact
            assert row[5] in ("true", "false")

    def test_rows_are_sorted_by_estimator_sweep_replication(self):
        result = run_experiment(tiny_config("paradox", replications=3))
        keys = [(r.estimator, r.sweep_value, r.replication) for r in result.records]
        assert keys == sorted(keys)

    def test_write_outputs_artifact_names(self, tmp_path):
        result = run_experiment(tiny_config("paradox", replications=2))
        paths = write_outputs(result, tmp_path)
        assert paths["csv"].endswith("paradox_seed20240817.csv")
        assert paths["summary"].endswith("paradox_seed20240817.summary.json")
        assert paths["config"].endswith("paradox_seed20240817.config.json")
        summary = json.loads(open(paths["summary"]).read())
        assert summary["experiment"] == "paradox"
        assert "checks" in summary and "passed" in summary
        echo = json.loads(open(paths["config"]).read())
        assert echo["master_seed"] == 20240817
        assert echo["scale_grid"] == [0.0, 1.0, 10.0, 100.0, 1000.0]

    def test_custom_tag_overrides_the_seed_tag(self, tmp_path):
        result = run_experiment(tiny_config("paradox", replications=2))
        paths = write_outputs(result, tmp_path, tag="pilot")
        assert paths["csv"].endswith("paradox_pilot.csv")
