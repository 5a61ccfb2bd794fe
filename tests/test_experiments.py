"""Tests for the Monte Carlo harness: protocol, runners, serialization."""

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from heavyreg import estimators, experiments, spectrum
from heavyreg.convex import Loss, LossKind, RegKind, Regularizer
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
from heavyreg.spectrum import CovarianceModel, _white_draw, _white_gram, decompose, sample_design
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
        base["grid"] = tuple(float(v) for v in np.geomspace(1.0, 1.0e4, 6))
    elif name == "concentration":
        base.update(noise=TailLaw(NoiseFamily.SYMMETRIC_PARETO, 1.5), grid=(500, 2000), replications=30)
    elif name == "trichotomy":
        base["grid"] = (0.0, 1.0, 10.0, 100.0, 1.0e3, 1.0e4, 1.0e5)
    else:
        base["grid"] = (0.0, 1.0, 10.0, 100.0, 1.0e3)
    base.update(overrides)
    return ExperimentConfig(**base)


def design_of(plan, rep, kind="gaussian"):
    """The design ``X = Z Sigma^1/2`` of replication ``rep``'s white draw ``Z`` of entry law ``kind``:
    ``sample_design`` on the same design stream."""
    cfg = plan.config
    return sample_design(plan.spec, cfg.n, substream(cfg.master_seed, "design", rep), kind=kind)


def blockwise_v(z, w):
    """``Z'w/n`` summed over the row blocks of the draw's Gram pass in the same order: the bits of ``draw.v``."""
    v = np.zeros(z.shape[1])
    for start in range(0, z.shape[0], spectrum._DRAW_BLOCK):
        v += z[start:start + spectrum._DRAW_BLOCK].T @ w[start:start + spectrum._DRAW_BLOCK]
    return v / z.shape[0]


def root_reads(monkeypatch):
    """A log filled with one entry per read of a spectrum's ``sqrt_matrix()``, which the harness takes only to
    form a design ``X = Z Sigma^1/2`` for a lasso Newton fit."""
    reads, sqrt_matrix = [], experiments.DiscreteSpectrum.sqrt_matrix
    monkeypatch.setattr(experiments.DiscreteSpectrum, "sqrt_matrix", lambda self: reads.append(1) or sqrt_matrix(self))
    return reads


class TestExperimentConfig:
    """Validation of the run description."""

    def test_unknown_experiment_name_is_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="warmup", grid=(1.0,))

    def test_grids_must_ascend_strictly(self):
        with pytest.raises(ConfigError):
            tiny_config("paradox", grid=(0.0, 10.0, 10.0))

    @pytest.mark.parametrize("name, grid", [
        ("paradox", (0.0, math.nan, 10.0)),
        ("trichotomy", (0.0, 10.0, math.inf)),
        ("floor", (-1.0, 0.0, 10.0)),
        ("transient", (0.0, 10.0)),
        ("transient", (-1.0, 10.0)),
        ("concentration", (500, 1000.5)),
        ("concentration", (0, 500)),
    ])
    def test_grid_values_outside_the_experiment_domain_are_rejected(self, name, grid):
        with pytest.raises(ConfigError, match="grid"):
            tiny_config(name, grid=grid)

    def test_grid_is_normalized_to_the_experiment_units(self):
        sizes = tiny_config("concentration", grid=(500.0, 2000.0)).grid
        assert sizes == (500, 2000) and all(type(n) is int for n in sizes)
        scales = tiny_config("paradox", grid=[0, 1, np.float64(10.0)]).grid
        assert scales == (0.0, 1.0, 10.0) and all(type(s) is float for s in scales)

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
        for name in ("paradox", "floor", "trichotomy"):  # their checks divide by q_Sigma, which delta_norm = 0 zeroes
            with pytest.raises(ConfigError, match="delta_norm = 0"):
                tiny_config(name, delta_norm=0.0)
        for name in ("transient", "universality"):
            assert tiny_config(name, delta_norm=0.0).delta_norm == 0.0

    def test_degenerate_noise_law_is_an_explicit_error(self):
        with pytest.raises(ConfigError):
            tiny_config("concentration", noise=TailLaw(NoiseFamily.SYMMETRIC_PARETO, 1.5, scale=0.0))

    def test_aspect_ratio_property(self):
        assert tiny_config("paradox").gamma == pytest.approx(40.0 / 120.0)

    @pytest.mark.parametrize("name", ("floor", "universality"))
    @pytest.mark.parametrize("n", (40, 30), ids=("n=p", "n<p"))
    def test_a_noiseless_row_needs_more_rows_than_columns(self, name, n):
        # at noise scale 0 both transfer fits are least squares on noiseless data, unique only when n > p
        with pytest.raises(ConfigError, match="noiseless row"):
            tiny_config(name, n=n, grid=(0.0, 1.0, 10.0))
        assert tiny_config(name, n=n, grid=(1.0, 10.0)).grid == (1.0, 10.0)

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
            "grid": [1000, 10000, 100000],
            "replications": 200,
            "master_seed": 12345,
            "paper_scale": False,
        }

    ECHO = """{
  "cov": {
    "kind": "%s",
    "p": 30,
    "rho": %s
  },
  "delta_norm": 1.0,
  "gamma": 0.3,
  "grid": [
    0.0,
    1.0
  ],
  "huber_k": 1.5,
  "lambda_fixed": 0.1,
  "lambda_tilde": 1.0,
  "master_seed": 12345,
  "n": 100,
  "name": "paradox",
  "noise": {
    "alpha": 1.5,
    "family": "student_t",
    "scale": 1.0
  },
  "p": 30,
  "paper_scale": false,
  "replications": 2,
  "sparsity": 0.1
}"""

    @pytest.mark.parametrize("cov, kind, rho", [
        (CovarianceModel.identity(30), "identity", "null"),
        (CovarianceModel.ar1(30, 0.0), "identity", "null"),
        (CovarianceModel.ar1(30, 0.4), "ar1", "0.4"),
        (CovarianceModel(30, 0.4), "ar1", "0.4"),
    ])
    def test_echo_keeps_its_bytes(self, cov, kind, rho):
        # the covariance reads identity exactly when rho = 0, as config.json always has
        cfg = ExperimentConfig(name="paradox", n=100, p=30, cov=cov, grid=(0.0, 1.0), replications=2)
        assert json.dumps(cfg.to_dict(), indent=2, sort_keys=True) == self.ECHO % (kind, rho)


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
        assert config.grid[0] == 0.0
        assert config.grid[-1] == pytest.approx(1.0e3)

    def test_transient_desk_grid_has_ten_variance_points(self):
        config = default_config("transient")
        assert len(config.grid) == 10
        assert config.replications == 200

    def test_trichotomy_grid_reaches_the_flat_regime(self):
        config = default_config("trichotomy")
        assert config.grid[-1] == pytest.approx(1.0e5)

    def test_concentration_uses_a_power_tail_and_large_samples(self):
        config = default_config("concentration")
        assert config.noise.family is NoiseFamily.SYMMETRIC_PARETO
        assert config.grid == (10**3, 10**4, 10**5)
        assert config.replications == 200

    def test_paper_scale_switches_dimensions(self):
        config = default_config("transient", paper_scale=True)
        assert (config.n, config.p, config.replications) == (2000, 1000, 500)
        assert len(config.grid) == 25


class TestRecordProtocol:
    """Completeness, uniqueness, and reproducibility of the record set."""

    def test_record_set_is_complete_and_unique(self):
        result = run_experiment(tiny_config("paradox"))
        config = result.config
        expected = 3 * len(config.grid) * config.replications
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

    @pytest.mark.parametrize("name, keeps", [("transient", False), ("paradox", False), ("universality", False),
                                             ("trichotomy", True), ("floor", True)])
    def test_a_draw_keeps_z_only_for_a_fit_that_reads_its_rows(self, name, keeps):
        """From 128 features on, a draw whose closed forms alone read it
        holds ``Z'Z/n``, ``Z'w/n`` and one block of rows, and never an
        ``n x p`` array; a draw with a Newton fit (Huber-ridge, the lasso)
        keeps ``Z``.  Either way its products are those of ``Z`` summed by
        row blocks."""
        import tracemalloc

        cfg = tiny_config(name, n=1000, p=128, cov=CovarianceModel.ar1(128, 0.5), grid=(1.0, 10.0))
        plan = experiments._build_plan(cfg)
        tracemalloc.start()
        try:
            draw = experiments._draw_replication(plan, 2, "gaussian")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        z = _white_draw(cfg.n, cfg.p, substream(cfg.master_seed, "design", 2), "gaussian")
        assert (draw.x is not None) is keeps and (peak > cfg.n * cfg.p * 8) is keeps
        if keeps:
            assert np.array_equal(draw.x, z)
        assert np.array_equal(draw.v, blockwise_v(z, draw.w_wins_unit))
        assert np.array_equal(draw.design.gram, estimators.Resolvent.of(z, plan.precision).gram)

    @pytest.mark.parametrize("kind", ("gaussian", "rademacher"))
    def test_white_and_correlated_draws_share_one_design_stream(self, kind):
        # a replication draws Z of its (seed, "design", rep), and a lasso Newton fit X = Z Sigma^1/2 of the same
        plan = experiments._build_plan(tiny_config("transient"))
        for rep in (0, 3):
            z = _white_draw(plan.config.n, plan.config.p, substream(plan.config.master_seed, "design", rep), kind)
            white = experiments._draw_replication(plan, rep, kind)
            newton = experiments._newton_draw(plan, white)
            assert np.array_equal(white.x, z) and white.design.precision is plan.precision
            assert np.array_equal(z @ plan.spec.sqrt_matrix(), design_of(plan, rep, kind))
            assert np.array_equal(newton.x, design_of(plan, rep, kind)) and newton.design.precision is None
            assert newton.w_unit is white.w_unit and newton.w_wins_unit is white.w_wins_unit

    @pytest.mark.parametrize("name", ("paradox", "trichotomy"))
    def test_every_closed_form_sweep_point_matches_a_dense_oracle(self, name):
        # the oracle solves each fit's centred normal equations densely in
        # the beta form on X; the harness solves the error form by Cholesky
        # on the white draw, f = Sigma^1/2 e
        from heavyreg.estimators import _right_hand_sides
        from heavyreg.experiments import _build_plan, _draw_replication, _error_block

        cfg = tiny_config(name)
        plan = _build_plan(cfg)
        draw = _draw_replication(plan, 0, "gaussian")
        x = design_of(plan, 0)
        estimators = ("ols", "fixed_ridge", "transfer_ridge")
        points = [(e, scale, scale ** 2 * plan.sigma2_unit) for scale in cfg.grid for e in estimators]
        seeds, coefficients, shifts = _error_block(plan, draw, points)
        errors = draw.design.solve(_right_hand_sides(seeds, coefficients), shifts)
        errors = experiments._root_product(plan.spec, errors, inverse=True)
        assert 0.0 in cfg.grid
        for k, (estimator, scale, sigma2) in enumerate(points):
            y = x @ plan.beta_star + scale * draw.w_wins_unit
            lam, center = {"ols": (0.0, np.zeros(cfg.p)),
                           "fixed_ridge": (cfg.lambda_fixed, np.zeros(cfg.p)),
                           "transfer_ridge": (cfg.lambda_tilde * sigma2, plan.beta0)}[estimator]
            system = x.T @ x / cfg.n + lam * np.eye(cfg.p)
            oracle = center + np.linalg.solve(system, x.T @ (y - x @ center) / cfg.n)
            np.testing.assert_allclose(plan.beta_star + errors[:, k], oracle, rtol=1.0e-10, atol=1.0e-12,
                                       err_msg=f"{estimator} at scale {scale}")

    @pytest.mark.parametrize("name, overrides", [("paradox", {}), ("floor", {}), ("trichotomy", {}),
                                                 ("universality", {}), ("floor", {"lambda_tilde": 1.0e-3})])
    def test_noiseless_transfer_rows_are_the_signal_itself(self, name, overrides, monkeypatch):
        """At sigma2 = 0 the transfer penalty ``lambda_tilde * sigma2`` is 0,
        so both transfer fits are least squares on noiseless data, which at
        n > p is ``beta_star`` itself: risk 0 (``ridge_risk_closed_form`` at
        sigma2 = 0), certificate 0 and converged, the lasso in 0 steps.  The
        rule solves no block column and runs no fit for them."""
        from heavyreg.theory import TheoryInputs, ridge_risk_closed_form

        cfg = tiny_config(name, **overrides)
        plan = experiments._build_plan(cfg)
        theory = ridge_risk_closed_form(TheoryInputs(plan.spec, cfg.gamma, 0.0, cfg.lambda_tilde)).risk
        assert cfg.grid[0] == 0.0 and theory == 0.0
        columns, solve_block = [], experiments._solve_block
        monkeypatch.setattr(experiments, "_solve_block", lambda plan, draw, block: columns.extend(block) or solve_block(
            plan, draw, block))
        fits, fit = [], experiments.fit_proximal
        monkeypatch.setattr(experiments, "fit_proximal", lambda config, *a, **k: fits.append(config) or fit(
            config, *a, **k))
        result = run_experiment(cfg)
        assert not [c for c in columns if c[0] in experiments._TRANSFER_FITS and c[3] == 0.0]
        assert all(config.lambda_value > 0.0 for config in fits)
        labels = [e for e in result.summary["estimators"] if e.startswith("transfer_")]
        rows = [r for r in result.records if r.sweep_value == 0.0 and r.estimator in labels]
        assert len(rows) == len(labels) * cfg.replications > 0
        for r in rows:
            assert (r.risk, r.certificate, r.converged, r.resolvent_fallback) == (theory, 0.0, True, False)
            assert r.newton_steps == (0 if r.estimator == "transfer_lasso" else None)


class TestErrorBlock:
    """The closed-form squared-loss fits: each estimator's penalty and
    centre, and the error systems one draw solves as a block."""

    @staticmethod
    def solved(config, points, draw=None):
        """``(plan, draw, x, errors)`` for ``points`` on ``draw`` (the
        plan's first white draw when omitted): ``x`` is the draw's design
        ``X = Z Sigma^1/2`` (``sample_design`` on the same stream), and each
        error ``e`` is mapped back from the solved ``f = Sigma^1/2 e``."""
        plan = experiments._build_plan(config)
        if draw is None:
            draw, x = experiments._draw_replication(plan, 0, "gaussian"), design_of(plan, 0)
        else:
            x = draw.x
        seeds, coefficients, shifts = experiments._error_block(plan, draw, points)
        f = draw.design.solve(estimators._right_hand_sides(seeds, coefficients), shifts)
        return plan, draw, x, experiments._root_product(plan.spec, f, inverse=True)

    @staticmethod
    def response(plan, draw, x, amplitude):
        return x @ plan.beta_star + amplitude * draw.w_wins_unit

    def test_each_estimator_has_its_penalty_and_centre(self):
        cfg = tiny_config("paradox", lambda_tilde=0.5, lambda_fixed=0.2)
        plan = experiments._build_plan(cfg)
        origin = np.zeros(cfg.p)
        for estimator, lam, centre in (("ols", 0.0, origin), ("fixed_ridge", 0.2, origin), ("huber", 0.2, origin),
                                       ("transfer_ridge", 1.5, plan.beta0), ("transfer_lasso", 1.5, plan.beta0)):
            got_lam, got_centre = experiments._penalty_and_centre(plan, estimator, 3.0)
            assert got_lam == lam, estimator
            assert np.array_equal(got_centre, centre), estimator

    def test_noiseless_transfer_penalty_is_zero(self):
        # lambda_tilde * sigma2 itself, with no floor: the noiseless transfer fits are least squares
        plan = experiments._build_plan(tiny_config("floor"))
        for estimator in ("transfer_ridge", "transfer_lasso"):
            assert experiments._penalty_and_centre(plan, estimator, 0.0)[0] == 0.0

    def test_unknown_estimator_is_rejected(self):
        plan = experiments._build_plan(tiny_config("paradox"))
        with pytest.raises(ConfigError):
            experiments._penalty_and_centre(plan, "elastic_net", 1.0)

    def test_block_has_one_column_and_one_shift_per_point(self):
        cfg = tiny_config("trichotomy")
        plan = experiments._build_plan(cfg)
        draw = experiments._draw_replication(plan, 0, "gaussian")
        points = [("ols", 1.0, 1.0), ("fixed_ridge", 2.0, 4.0), ("transfer_ridge", 3.0, 9.0)]
        seeds, coefficients, shifts = experiments._error_block(plan, draw, points)
        rhs = estimators._right_hand_sides(seeds, coefficients)
        assert rhs.shape == (cfg.p, 3)
        assert shifts.tolist() == [0.0, cfg.lambda_fixed, cfg.lambda_tilde * 9.0]
        # the seeds: v = Z'w/n and each estimator's white offset Sigma^-1/2 (beta_star - c), each column
        # a v - lam Sigma^-1/2 (beta_star - c)
        v = blockwise_v(draw.x, draw.w_wins_unit)
        offsets = [plan.white_seeds[e] for e, _, _ in points]
        assert seeds.shape == (cfg.p, 4) and np.array_equal(seeds[:, 0], v)
        for k, ((_, amplitude, _), offset, lam) in enumerate(zip(points, offsets, shifts)):
            assert np.array_equal(seeds[:, k + 1], offset)
            assert np.array_equal(rhs[:, k], amplitude * v - lam * offset)  # to the last bit
        np.testing.assert_allclose(rhs, seeds @ coefficients, rtol=1.0e-15, atol=1.0e-15)

    def test_whitened_block_has_two_seeds(self):
        cfg = tiny_config("transient")
        plan = experiments._build_plan(cfg)
        draw = experiments._draw_replication(plan, 0, "gaussian")
        points = [("transfer_ridge", 1.0, 1.0), ("transfer_ridge", 2.0, 4.0)]
        seeds, coefficients, shifts = experiments._error_block(plan, draw, points)
        white_delta = plan.white_seeds["transfer_ridge"]
        assert np.array_equal(seeds, np.stack([blockwise_v(draw.x, draw.w_wins_unit), white_delta], axis=1))
        assert np.array_equal(coefficients, np.stack([[1.0, 2.0], -shifts]))

    def test_white_seeds_are_one_offset_per_centre(self):
        # paradox and floor solve every closed form on the white draw: Sigma^-1/2 (beta_star - c) per centre;
        # the lasso and Huber-ridge, fitted without a closed form, read none
        paradox = experiments._build_plan(tiny_config("paradox"))
        floor = experiments._build_plan(tiny_config("floor"))
        root = paradox.spec.sqrt_matrix()
        delta = paradox.beta_star - paradox.beta0
        assert set(paradox.white_seeds) == {"ols", "fixed_ridge", "transfer_ridge"}
        assert paradox.white_seeds["ols"] is paradox.white_seeds["fixed_ridge"]
        assert set(floor.white_seeds) == {"transfer_ridge"}
        assert set(experiments._build_plan(tiny_config("trichotomy")).white_seeds) == set(paradox.white_seeds)
        for seed, want in ((paradox.white_seeds["ols"], paradox.beta_star),
                           (paradox.white_seeds["transfer_ridge"], delta)):
            np.testing.assert_allclose(root @ seed, want, rtol=0.0, atol=1.0e-13)
        np.testing.assert_allclose(floor.root_offsets["transfer_lasso"], root @ delta, rtol=0.0, atol=1.0e-13)
        trichotomy = experiments._build_plan(tiny_config("trichotomy"))  # the Huber fit's theta_star
        np.testing.assert_allclose(trichotomy.root_offsets["huber"], root @ trichotomy.beta_star, rtol=0.0,
                                   atol=1.0e-13)
        assert paradox.root_offsets == {} and set(floor.root_offsets) == {"transfer_lasso"}

    @pytest.mark.parametrize("name", ("paradox", "floor", "trichotomy"))
    def test_white_block_is_the_design_block_mapped_through_the_root(self, name):
        # f = Sigma^1/2 e for every closed-form column
        cfg = tiny_config(name)
        plan = experiments._build_plan(cfg)
        points = [(e, g, g ** 2 * plan.sigma2_unit) for g in cfg.grid
                  for e in experiments._EXPERIMENTS[name].estimators if e not in experiments._PROXIMAL_FITS]
        white = experiments._draw_replication(plan, 1, "gaussian")
        seeds, coefficients, shifts = experiments._error_block(plan, white, points)
        f = white.design.solve(estimators._right_hand_sides(seeds, coefficients), shifts)
        x = design_of(plan, 1)
        v = x.T @ white.w_wins_unit / cfg.n
        for k, (estimator, amplitude, sigma2) in enumerate(points):
            lam, centre = experiments._penalty_and_centre(plan, estimator, sigma2)
            rhs = amplitude * v - lam * (plan.beta_star - centre)
            e = np.linalg.solve(x.T @ x / cfg.n + lam * np.eye(cfg.p), rhs)
            np.testing.assert_allclose(f[:, k], plan.spec.sqrt_matrix() @ e, rtol=1.0e-10,
                                       atol=1.0e-12 * np.linalg.norm(e), err_msg=f"{estimator} at {amplitude}")

    def test_stacked_identity_design_averages_the_two_response_blocks(self):
        # X = [I; I] makes X'X/n = 2I/n, so least squares is the mean of the blocks
        cfg = tiny_config("trichotomy", n=8, p=4, cov=CovarianceModel.identity(4))
        noise, x = np.arange(1.0, 9.0), np.vstack([np.eye(4), np.eye(4)])
        draw = experiments._RepDraw(design=estimators.Resolvent.of(x), w_unit=noise, w_wins_unit=noise,
                                    v=blockwise_v(x, noise))
        plan, _, _, errors = self.solved(cfg, [("ols", 2.0, 4.0)], draw=draw)
        np.testing.assert_allclose(errors[:, 0], 2.0 * (noise[:4] + noise[4:]) / 2.0, rtol=0.0, atol=1.0e-12)

    def test_noiseless_least_squares_recovers_the_signal_exactly(self):
        plan, _, _, errors = self.solved(tiny_config("trichotomy"), [("ols", 0.0, 0.0)])
        assert np.array_equal(errors[:, 0], np.zeros(plan.config.p))

    def test_least_squares_residual_is_orthogonal_to_the_columns(self):
        plan, draw, x, errors = self.solved(tiny_config("trichotomy"), [("ols", 3.0, 9.0)])
        y = self.response(plan, draw, x, 3.0)
        resid = y - x @ (plan.beta_star + errors[:, 0])
        assert np.max(np.abs(x.T @ resid)) <= 1.0e-10 * np.linalg.norm(y)

    def test_least_squares_error_is_linear_in_the_noise_amplitude(self):
        # the pure-variance curve behind the slope-two check
        _, _, _, errors = self.solved(tiny_config("trichotomy"), [("ols", 1.0, 1.0), ("ols", 1.0e3, 1.0e6)])
        np.testing.assert_allclose(errors[:, 1], 1.0e3 * errors[:, 0], rtol=1.0e-12, atol=0.0)

    def test_huge_penalty_pins_the_transfer_fit_at_its_centre(self):
        plan, _, _, errors = self.solved(tiny_config("trichotomy", lambda_tilde=1.0e12), [("transfer_ridge", 1.0, 1.0)])
        assert np.linalg.norm(plan.beta_star + errors[:, 0] - plan.beta0) <= 1.0e-6

    def test_vanishing_penalty_approaches_least_squares(self):
        _, _, _, errors = self.solved(tiny_config("trichotomy", lambda_fixed=1.0e-12),
                                   [("ols", 0.3, 0.09), ("fixed_ridge", 0.3, 0.09)])
        np.testing.assert_allclose(errors[:, 1], errors[:, 0], rtol=0.0, atol=1.0e-9)

    def test_single_column_ridge_is_the_shrinkage_formula(self):
        cfg = tiny_config("trichotomy", n=40, p=1, cov=CovarianceModel.identity(1), sparsity=1.0, lambda_fixed=0.8)
        plan, draw, x, errors = self.solved(cfg, [("fixed_ridge", 2.0, 4.0)])
        x, y = x[:, 0], self.response(plan, draw, x, 2.0)
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
        "paradox": ("c8a46e2724bc2967b1c0aeb2cce0811e2526cfad7ada1fb1d22d8ae7002cb766",
                    "cf0845f0653f9916baf953fc5d6812655997697284550003a3165c28363b972d"),
        "floor": ("5f2c744c335a87ccea56bedac563836009a4d230f7af82d8ad24578f37970925",
                  "a1671ef22f608164f093e8bc619308275797f7c85b59650335d114818b6d8173"),
        "transient": ("14d325d91609b384f8eca56978c73deb810d4b2411e4513a38e4eecd03557573",
                      "00f5b1c78b5af5ae3b65d9144e8cf6ce7a211817334ccb4c54adbdf448e6ec37"),
        "trichotomy": ("aa935ea2ddcd3cbf1a94f9c26942a4f5dcf0b9aa8fa5e8ccbc0ac661b5d3dd38",
                       "3fae4a5afa45814462514be4dcf7e89a953f0d721ff16099dde0d6088701c6b1"),
        "universality": ("bb962efd8bc4fb18d016688a4a9cf0608d72829a285b539ba5e33d72e1cd0ebe",
                         "322dd14f6a1d28134dd7e95491f608f1b2170dfa75fafebc694bbfb2e3c82aff"),
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
        parallel = write_outputs(result, tmp_path / "parallel")["config"]
        serial = write_outputs(dataclasses.replace(result, config=tiny_config(name)), tmp_path / "serial")["config"]
        with open(parallel, "rb") as a, open(serial, "rb") as b:
            assert a.read() == b.read()


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

    @staticmethod
    def fit_calls(monkeypatch):
        """A log filled with one entry per ``fit_proximal`` call the harness makes."""
        calls, fit = [], experiments.fit_proximal
        monkeypatch.setattr(experiments, "fit_proximal", lambda *a, **k: calls.append(1) or fit(*a, **k))
        return calls

    @pytest.mark.parametrize("scale", ("tiny", "desk"))
    def test_screen_and_noiseless_rule_settle_every_lasso_point_without_the_design(self, scale, monkeypatch):
        # at lambda_tilde = 1 the screen settles every noisy point, and the noiseless one is beta_star itself
        cfg = tiny_config("floor") if scale == "tiny" else dataclasses.replace(default_config("floor"), replications=4)
        designs, fits = root_reads(monkeypatch), self.fit_calls(monkeypatch)
        result = run_experiment(cfg)
        assert designs == [] and fits == []
        assert result.passed, result.summary["checks"]
        for r in result.records:
            assert r.converged and r.newton_steps == (0 if r.estimator == "transfer_lasso" else None)

    def test_huber_rows_draw_no_design(self, monkeypatch):
        # trichotomy's Huber-ridge fits read the white draw Z, in theta = Sigma^1/2 beta
        designs, fits = root_reads(monkeypatch), self.fit_calls(monkeypatch)
        result = run_experiment(tiny_config("trichotomy"))
        assert designs == [] and len(fits) == sum(r.estimator == "huber" for r in result.records) > 0

    def test_lasso_points_the_screen_leaves_match_a_newton_run_on_the_design(self, monkeypatch):
        """At lambda_tilde = 1e-3 the screen fails at the smaller noise
        scales, and those points are fitted by Newton on ``X``, drawn at most
        once per replication from its white draw.  Every point fitted again on
        ``X`` from ``sample_design`` on the same stream gives the same records: each
        lasso risk, from a Newton fit on ``X`` warm-started along the sweep,
        within what the two fits' certificates allow,
        ``||b - b'|| <= (c + c') / lambda_min(X'X/n)`` plus the rounding of
        ``beta0 + d``, and each ridge risk, solved densely on ``X``, within
        its solves' certificates."""
        cfg = tiny_config("floor", lambda_tilde=1.0e-3)
        designs, fits = root_reads(monkeypatch), self.fit_calls(monkeypatch)
        result = run_experiment(cfg)
        assert designs == [1] * cfg.replications and 0 < len(fits) < len(result.records) // 2
        assert result.passed
        monkeypatch.undo()
        plan = experiments._build_plan(cfg)
        s_max, delta = float(plan.spec.eigenvalues[-1]), plan.beta_star - plan.beta0
        lasso = (Loss(LossKind.SQUARED), Regularizer(RegKind.LASSO))
        for rep in range(cfg.replications):
            x, noise = design_of(plan, rep), experiments._draw_replication(plan, rep, "gaussian").w_wins_unit
            design, gram = estimators.Resolvent.of(x), x.T @ x / cfg.n
            floor = float(np.linalg.eigvalsh(gram)[0])
            warm = None
            for new in sorted((r for r in result.records if r.replication == rep), key=lambda r: r.sweep_value):
                assert new.converged
                a = new.sweep_value
                lam, centre = experiments._penalty_and_centre(plan, new.estimator, a ** 2 * plan.sigma2_unit)
                if new.estimator == "transfer_ridge":
                    e = np.linalg.solve(gram + lam * np.eye(cfg.p), a * x.T @ noise / cfg.n - lam * delta)
                    assert new.risk == pytest.approx(float(experiments._energy(plan.spec, e)), rel=1.0e-9, abs=1.0e-24)
                    continue
                if a == 0.0:  # least squares on noiseless data: beta_star itself
                    assert new.risk == 0.0
                    warm = plan.beta_star
                    continue
                old = estimators.fit_proximal(estimators.EstimatorConfig(*lasso, lam, center=centre), design,
                                              x @ plan.beta_star + a * noise, x0=warm)
                warm = old.beta_hat
                assert old.converged
                old_risk = float(experiments._energy(plan.spec, old.beta_hat - plan.beta_star))
                gap = (new.certificate + old.gradient_map_norm) / floor + 4.0 * np.finfo(float).eps * np.linalg.norm(
                    plan.beta0)
                bound = 2.0 * math.sqrt(s_max * old_risk / cfg.p) * gap + s_max * gap ** 2 / cfg.p
                assert abs(new.risk - old_risk) <= bound

    def test_a_lasso_newton_fit_reads_the_one_white_draw(self, monkeypatch):
        """Each replication draws ``Z`` once, and its Newton fits read
        ``X = Z Sigma^1/2`` formed from that ``Z``: their records are bit for
        bit those of Newton fits on ``X`` drawn again by ``sample_design`` on
        the replication's design stream."""
        cfg = tiny_config("floor", lambda_tilde=1.0e-3)
        white_draws = []  # the harness's streamed draw, and the one sample_design takes
        monkeypatch.setattr(experiments, "_white_gram", lambda *a: white_draws.append(1) or _white_gram(*a))
        monkeypatch.setattr(spectrum, "_white_draw", lambda *a: white_draws.append(1) or _white_draw(*a))
        result = run_experiment(cfg)
        assert white_draws == [1] * cfg.replications
        monkeypatch.undo()
        reps, draw_replication = [], experiments._draw_replication
        monkeypatch.setattr(experiments, "_draw_replication", lambda plan, rep, kind: reps.append(
            rep) or draw_replication(plan, rep, kind))
        monkeypatch.setattr(experiments, "_newton_draw", lambda plan, draw: dataclasses.replace(
            draw, design=estimators.Resolvent.of(design_of(plan, reps[-1]))))
        drawn_again = run_experiment(cfg)

        def lasso(records):
            return [(r.sweep_value, r.replication, r.risk, r.converged, r.newton_steps, r.certificate)
                    for r in records if r.estimator == "transfer_lasso"]

        assert any(steps for *_, steps, _ in lasso(result.records))
        assert lasso(result.records) == lasso(drawn_again.records)

    def test_a_point_within_rounding_of_the_penalty_goes_on_to_its_newton_fit(self, monkeypatch):
        # the screen keeps a rounding allowance below the penalty: a point whose largest centre gradient equals
        # the penalty is not screened, so its Newton fit settles it; a penalty two allowances higher is screened
        cfg = tiny_config("floor", grid=(1.0,), replications=1)
        plan = experiments._build_plan(cfg)
        gradients, rounding = experiments._centre_gradients(plan, experiments._draw_replication(plan, 0, "gaussian"),
                                                            np.array([1.0]))
        top = float(np.max(np.abs(gradients)))
        assert 0.0 < rounding[0] < 1.0e-9 * top
        centre_risk = experiments._energy(plan.spec, plan.beta0 - plan.beta_star)
        for lam, screened in ((top, False), (top + 2.0 * rounding[0], True)):
            config = dataclasses.replace(cfg, lambda_tilde=lam / plan.sigma2_unit)
            assert config.lambda_tilde * plan.sigma2_unit == pytest.approx(lam, rel=1.0e-15)
            designs, fits = root_reads(monkeypatch), self.fit_calls(monkeypatch)
            record = next(r for r in run_experiment(config).records if r.estimator == "transfer_lasso")
            monkeypatch.undo()
            assert (designs, fits) == (([], []) if screened else ([1], [1]))
            assert record.converged and record.risk == pytest.approx(centre_risk, rel=1.0e-6)

class TestTransientRunner:
    """Monte Carlo versus the deterministic risk curve, and the solve rule:
    every draw is the white ``Z``, and its closed forms are solved whitened,
    the noise-adapted ridge by conjugate gradients.  A lasso point that
    its screen leaves is Newton-fitted on ``X = Z Sigma^1/2``, formed from
    the draw's own ``Z``."""

    # Per conjugate-gradient sweep: its design laws with their estimator
    # labels, and a grid value's noise amplitude and effective variance.
    SWEEPS = {
        "transient": ((("gaussian", "transfer_ridge"),), lambda g, unit: (math.sqrt(g / unit), g)),
        "universality": ((("gaussian", "transfer_ridge_gaussian"), ("rademacher", "transfer_ridge_rademacher")),
                         lambda g, unit: (g, g ** 2 * unit)),
    }

    def test_built_in_checks_pass(self):
        result = run_experiment(tiny_config("transient", replications=20))
        assert result.passed, result.summary["checks"]

    def test_theory_overlay_matches_the_grid(self):
        result = run_experiment(tiny_config("transient", replications=20))
        assert len(result.summary["theory_risk"]) == len(result.config.grid)
        assert result.summary["checks"]["median_relative_error"]["value"] <= 0.03

    @staticmethod
    def eigh_shapes(monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        return shapes

    @classmethod
    def eigenbasis_risks(cls, config):
        """Every record by the eigenbasis solve of the fitted ridge itself,
        ``beta0 + (G + lam I)^-1 (G (beta_star - beta0) + a X'w/n)``, with
        ``G d`` formed from the design and ``G`` eigendecomposed here, for
        each design law; at sigma2 = 0, ``lam = 0``, least squares."""
        from heavyreg.estimators import empirical_risk
        from heavyreg.experiments import _build_plan, _draw_replication

        laws, amplitude_and_sigma2 = cls.SWEEPS[config.name]
        plan = _build_plan(config)
        sigma = config.cov.materialize()
        risks = {}
        for rep in range(config.replications):
            for law, estimator in laws:
                x, w = design_of(plan, rep, law), _draw_replication(plan, rep, law).w_wins_unit
                evals, evecs = np.linalg.eigh(x.T @ x / config.n)
                xtw = x.T @ w / config.n
                gd = x.T @ (x @ (plan.beta_star - plan.beta0)) / config.n
                for g in config.grid:
                    amplitude, sigma2 = amplitude_and_sigma2(g, plan.sigma2_unit)
                    rhs = gd + amplitude * xtw
                    beta = plan.beta0 + evecs @ ((evecs.T @ rhs) / (evals + config.lambda_tilde * sigma2))
                    risks[(estimator, g, rep)] = empirical_risk(beta, plan.beta_star, sigma)
        return risks

    @staticmethod
    def assert_fallback_counts(result, count):
        """Each estimator's summary counts ``count`` solves that fell back at every noisy sweep point, and
        none at the noiseless one, which is settled without a solve."""
        for block in result.summary["estimators"].values():
            assert block["resolvent_fallbacks"] == [count if g > 0.0 else 0 for g in block["sweep_values"]]

    def assert_certified_and_equal_to_the_eigenbasis(self, result):
        want = self.eigenbasis_risks(result.config)
        assert len(want) == len(result.records)
        for r in result.records:
            assert r.converged and r.certificate <= 1.0e-10
            oracle = want[(r.estimator, r.sweep_value, r.replication)]
            if r.sweep_value == 0.0:  # beta_star itself, which the oracle's least squares meets to rounding
                assert r.risk == 0.0 and oracle <= 1.0e-24
            else:
                assert r.risk == pytest.approx(oracle, rel=1.0e-10)
        for block in result.summary["estimators"].values():
            assert len(block["certificate_max"]) == len(block["sweep_values"])
            assert max(block["certificate_max"]) <= 1.0e-10 and "newton_steps_max" not in block

    @pytest.mark.parametrize("name", ("transient", "universality"))
    def test_sweep_is_certified_without_an_eigendecomposition(self, name, monkeypatch):
        monkeypatch.setattr(estimators, "_KRYLOV_FEATURES", 40)  # conjugate gradients from 40 features on
        shapes, designs = self.eigh_shapes(monkeypatch), root_reads(monkeypatch)
        result = run_experiment(tiny_config(name))
        assert shapes == []  # the AR(1) covariance is decomposed through its tridiagonal inverse
        assert designs == []  # and X = Z Sigma^1/2 is never formed
        monkeypatch.undo()  # the oracle draws X
        self.assert_certified_and_equal_to_the_eigenbasis(result)
        assert not any(r.resolvent_fallback for r in result.records)
        self.assert_fallback_counts(result, 0)

    @pytest.mark.parametrize("name", ("transient", "universality"))
    def test_a_white_fallback_takes_no_eigh_and_no_root(self, name, monkeypatch):
        # from 128 features on, a spent budget sends every noisy column to Cholesky of Z'Z/n + lam Sigma^-1
        monkeypatch.setattr(estimators, "_CG_BUDGET", 0)
        shapes, reads = self.eigh_shapes(monkeypatch), root_reads(monkeypatch)
        result = run_experiment(tiny_config(name, n=300, p=128, cov=CovarianceModel.ar1(128, 0.5)))
        assert shapes == [] and reads == []
        assert all(r.resolvent_fallback is (r.sweep_value > 0.0) for r in result.records)
        self.assert_fallback_counts(result, result.config.replications)
        monkeypatch.undo()  # the oracle draws X
        self.assert_certified_and_equal_to_the_eigenbasis(result)

    @pytest.mark.parametrize("name", ("transient", "universality"))
    def test_few_features_take_one_eigh_per_draw_and_no_fallback(self, name, monkeypatch):
        # 40 features are below the conjugate-gradient threshold: each draw takes one eigh, of B^-T (Z'Z/n) B^-1
        # for the bidiagonal factor B'B = Sigma^-1, and reads no root of Sigma
        shapes, reads = self.eigh_shapes(monkeypatch), root_reads(monkeypatch)
        result = run_experiment(tiny_config(name))
        draws = result.config.replications * len(self.SWEEPS[name][0])
        assert shapes == [(40, 40)] * draws and reads == []
        self.assert_certified_and_equal_to_the_eigenbasis(result)
        assert not any(r.resolvent_fallback for r in result.records)
        self.assert_fallback_counts(result, 0)

    def test_ill_conditioned_sweep_is_certified(self):
        """At n = p and lambda_tilde = 1e-6 the Gram matrix is nearly
        singular and the smallest penalties are about 1e-6.  A solve in
        doubles errs by up to about eps * cond(X'X/n + lam I), the eigenbasis
        oracle as much as the harness: where that exceeds 1e-10 (3 of the 30
        rows) the oracle is the whitened system solved in 30 digits, and the
        record is held to eps * cond of it."""
        import mpmath

        cfg = tiny_config("transient", n=40, lambda_tilde=1.0e-6)
        result = run_experiment(cfg)
        want = self.eigenbasis_risks(cfg)
        bound = dict.fromkeys(want, 1.0e-10)
        plan = experiments._build_plan(cfg)
        diag, off = plan.precision
        t = mpmath.matrix((np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)).tolist())
        for rep in range(cfg.replications):
            white = experiments._draw_replication(plan, rep, "gaussian")
            x = design_of(plan, rep)
            evals = np.linalg.eigvalsh(x.T @ x / cfg.n)
            points = [("transfer_ridge", math.sqrt(g / plan.sigma2_unit), g) for g in cfg.grid]
            seeds, coefficients, shifts = experiments._error_block(plan, white, points)
            rhs = estimators._right_hand_sides(seeds, coefficients)
            for k, g in enumerate(cfg.grid):
                rounding = np.finfo(float).eps * (evals[-1] + shifts[k]) / (evals[0] + shifts[k])
                if rounding <= 1.0e-10:
                    continue
                with mpmath.workdps(30):
                    z = mpmath.matrix(white.x.tolist())
                    f = mpmath.lu_solve(z.T * z / cfg.n + mpmath.mpf(float(shifts[k])) * t,
                                        mpmath.matrix(rhs[:, k].tolist()))
                    want[("transfer_ridge", g, rep)] = float(sum(v * v for v in f) / cfg.p)
                bound[("transfer_ridge", g, rep)] = rounding
        assert sum(b > 1.0e-10 for b in bound.values()) == 3 and len(want) == len(result.records)
        for r in result.records:
            key = (r.estimator, r.sweep_value, r.replication)
            assert r.converged and r.certificate <= 1.0e-10
            assert r.risk == pytest.approx(want[key], rel=bound[key])
        for block in result.summary["estimators"].values():
            assert len(block["certificate_max"]) == len(block["sweep_values"])
            assert max(block["certificate_max"]) <= 1.0e-10 and "newton_steps_max" not in block

    @pytest.mark.parametrize("name", ("paradox", "floor", "transient", "trichotomy", "universality"))
    def test_no_plan_takes_the_root_up_front(self, name):
        # a plan reads the eigen-atoms; the root is formed only to form a design X = Z Sigma^1/2
        plan = experiments._build_plan(tiny_config(name))
        assert "_sqrt_matrix" not in vars(plan.spec)
        root = plan.spec.sqrt_matrix()
        for estimator, seed in plan.white_seeds.items():  # Sigma^-1/2 (beta_star - c)
            centre = experiments._penalty_and_centre(plan, estimator, 1.0)[1]
            np.testing.assert_allclose(root @ seed, plan.beta_star - centre, rtol=0.0, atol=1.0e-13)

    @pytest.mark.parametrize("name", ("paradox", "floor", "transient", "trichotomy", "universality"))
    def test_no_run_forms_the_dense_covariance(self, name, monkeypatch):
        # Sigma enters as its tridiagonal inverse for solves and as its eigen-atoms for every risk
        formed, materialize = [], CovarianceModel.materialize
        monkeypatch.setattr(CovarianceModel, "materialize", lambda self: formed.append(self.p) or materialize(self))
        run_experiment(tiny_config(name))
        assert formed == []

    def assert_one_gram_matrix_per_draw(self, name, krylov, monkeypatch):
        """Run ``tiny_config(name)``, with conjugate gradients from 40 features on when ``krylov``: each
        replication builds one Resolvent, and no fit reads a top eigenvalue.  Returns the ``eigh`` shapes and
        the run, whose records match the run without ``krylov`` within the solves' certificates."""
        import scipy.linalg

        cholesky = run_experiment(tiny_config(name)) if krylov else None
        if krylov:  # the noise-adapted transfer-ridge columns go through conjugate gradients
            monkeypatch.setattr(estimators, "_KRYLOV_FEATURES", 40)
        shapes = self.eigh_shapes(monkeypatch)
        grams, designs, of_gram, of = [], [], estimators.Resolvent._of_gram, estimators.Resolvent.of
        monkeypatch.setattr(estimators.Resolvent, "_of_gram", lambda gram, precision, z=None: grams.append(
            (z.shape, gram.shape, precision is not None)) or of_gram(gram, precision, z))
        monkeypatch.setattr(estimators.Resolvent, "of", lambda *a: designs.append(1) or of(*a))
        tops, eigh = [], scipy.linalg.eigh
        monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **k: tops.append(1) or eigh(*a, **k))
        result = run_experiment(tiny_config(name))
        assert grams == [((120, 40), (40, 40), True)] * result.config.replications and designs == []
        assert tops == []
        for r in result.records:
            assert r.converged and not r.resolvent_fallback
            assert r.certificate <= (1.0e-8 if r.estimator in experiments._PROXIMAL_FITS else 1.0e-10)
        if krylov:  # the same records as the Cholesky route, within the solves' certificates
            for new, old in zip(result.records, cholesky.records, strict=True):
                assert (new.estimator, new.sweep_value, new.replication) == (old.estimator, old.sweep_value,
                                                                             old.replication)
                assert new.newton_steps == old.newton_steps
                assert new.risk == pytest.approx(old.risk, rel=1.0e-10, abs=1.0e-30)
            for check, old in cholesky.summary["checks"].items():
                new = result.summary["checks"][check]
                assert new["passed"] == old["passed"] and new["value"] == pytest.approx(old["value"], rel=1.0e-10)
        return shapes, result

    @pytest.mark.parametrize("krylov", (False, True), ids=("eigenbasis", "krylov"))
    @pytest.mark.parametrize("name", ("paradox", "floor", "trichotomy"))
    def test_white_draws_take_one_gram_matrix_and_no_design(self, name, krylov, monkeypatch):
        # the closed forms, the lasso's screen and the Huber-ridge fits read Z'Z/n
        # and the eigen-atoms, never the spectrum of Z'Z/n: below 128 features each draw takes the one eigh of
        # its small white block (none with conjugate gradients), only Huber-ridge runs Newton steps, and
        # X = Z Sigma^1/2 is never formed
        designs = root_reads(monkeypatch)
        shapes, result = self.assert_one_gram_matrix_per_draw(name, krylov, monkeypatch)
        assert shapes == ([] if krylov else [(40, 40)] * result.config.replications)
        assert designs == [] and all(r.newton_steps in (None, 0) for r in result.records if r.estimator != "huber")

    @pytest.mark.parametrize("name", ("paradox", "trichotomy"))
    def test_least_squares_and_fixed_ridge_rows_match_a_dense_solve(self, name):
        # where a solve in doubles allows 1e-12 (eps * cond(G + lam I) <= 1e-12), every row is held to it
        cfg = tiny_config(name)
        plan = experiments._build_plan(cfg)
        rows = [r for r in run_experiment(cfg).records if r.estimator in ("ols", "fixed_ridge")]
        sigma = cfg.cov.materialize()
        checked = 0
        for rep in range(cfg.replications):
            x = design_of(plan, rep)  # the harness solves on Z, the oracle on X
            gram = x.T @ x / cfg.n
            v = x.T @ experiments._draw_replication(plan, rep, "gaussian").w_wins_unit / cfg.n
            for r in (r for r in rows if r.replication == rep):
                lam, centre = experiments._penalty_and_centre(plan, r.estimator, r.sweep_value ** 2 * plan.sigma2_unit)
                system = gram + lam * np.eye(cfg.p)
                error = np.linalg.solve(system, r.sweep_value * v - lam * (plan.beta_star - centre))
                assert r.converged and r.certificate <= 1.0e-10 and not r.resolvent_fallback
                if np.finfo(float).eps * np.linalg.cond(system) <= 1.0e-12:
                    assert r.risk == pytest.approx(error @ sigma @ error / cfg.p, rel=1.0e-12, abs=0.0)
                    checked += 1
        assert checked == len(rows) == 2 * cfg.replications * len(cfg.grid)


class TestTrichotomyRunner:
    """Four risk curves with three behaviors."""

    def test_the_noiseless_huber_fit_starts_from_the_fixed_ridge_fit(self, monkeypatch):
        """At noise amplitude 0 Huber-ridge has fixed ridge's response,
        penalty and centre, so its fit starts at ``theta_star + f`` for that
        point's closed-form error ``f``.  It lands where a cold start lands,
        to the bit, in fewer Newton steps."""
        cfg = tiny_config("trichotomy")
        blocks, solve_block = [], experiments._solve_block
        monkeypatch.setattr(experiments, "_solve_block", lambda plan, draw, block: blocks.append(
            (block, solve_block(plan, draw, block))) or blocks[-1][1])
        fits, fit = [], experiments.fit_proximal
        monkeypatch.setattr(experiments, "fit_proximal", lambda config, design, y, x0=None: fits.append(
            (config, design, y, x0)) or fit(config, design, y, x0=x0))
        result = run_experiment(cfg)
        monkeypatch.undo()
        plan = experiments._build_plan(cfg)
        noiseless = [r for r in result.records if r.estimator == "huber" and r.sweep_value == 0.0]
        assert cfg.grid[0] == 0.0 and len(fits) == len(cfg.grid) * cfg.replications == len(blocks) * len(cfg.grid)
        for rep, (block, (_, errors, *_)) in enumerate(blocks):
            config, design, y, x0 = fits[rep * len(cfg.grid)]  # the replication's first Huber fit, at scale 0
            assert np.array_equal(x0, plan.root_offsets["huber"] + errors[:, block.index(("fixed_ridge", 0.0, 0.0, 0.0))])
            warm, cold = fit(config, design, y, x0=x0), fit(config, design, y)
            assert np.array_equal(warm.beta_hat, cold.beta_hat) and warm.converged and cold.converged
            assert noiseless[rep].newton_steps == warm.iterations < cold.iterations
            error = cold.beta_hat - plan.root_offsets["huber"]
            assert noiseless[rep].risk == float(error @ error) / cfg.p

    def test_a_paper_scale_fit_whose_last_step_ties_converges(self):
        # master seed 12345, replication 377, scale 316.23: the Huber fit's last full step lowers the objective
        # (about 1005) by less than one rounding unit; stopping there left a certificate of 1.85e-7
        plan = experiments._build_plan(default_config("trichotomy", paper_scale=True))
        records = experiments._rep_sweep(plan, 377)
        huber = next(r for r in records if r.estimator == "huber" and round(r.sweep_value, 2) == 316.23)
        assert huber.converged and huber.certificate <= 1.0e-12
        assert all(r.converged for r in records)

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
        result = run_experiment(tiny_config("universality", grid=(1.0, 10.0, 100.0)))
        assert result.passed, result.summary["checks"]

    def test_aligned_noiseless_case_gives_zero_risk_for_both_designs(self):
        config = tiny_config("universality", grid=(0.0,), delta_norm=0.0)
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

    def test_closed_form_estimators_count_their_fallbacks(self):
        # a record with a certificate and no Newton steps is a closed-form solve
        records = [dataclasses.replace(r, certificate=1.0e-12,
                                       resolvent_fallback=r.replication == 0 or r.sweep_value == 2.0)
                   for r in self.fake_records() if r.estimator == "a"]
        records += [dataclasses.replace(r, newton_steps=3, certificate=1.0e-9) for r in self.fake_records()
                    if r.estimator == "b"]
        stats = summarize(tuple(records))
        assert stats["a"]["resolvent_fallbacks"] == [1, 3]
        assert "resolvent_fallbacks" not in stats["b"]
        assert "resolvent_fallbacks" not in summarize(self.fake_records())["a"]  # no certificate: not a solve
        for name in ("paradox", "floor", "trichotomy"):  # every closed-form estimator of every experiment
            summary = run_experiment(tiny_config(name, replications=2)).summary["estimators"]
            for estimator, block in summary.items():
                assert ("resolvent_fallbacks" in block) is (estimator not in experiments._PROXIMAL_FITS)
                if estimator not in experiments._PROXIMAL_FITS:
                    assert block["resolvent_fallbacks"] == [0] * len(block["sweep_values"])

    @pytest.mark.parametrize("name, overrides", [(name, {}) for name in EXPERIMENT_NAMES]
                             + [("floor", {"lambda_tilde": 1.0e-3})])
    def test_every_summary_list_has_one_entry_per_sweep_value(self, name, overrides):
        # noiseless, screened and Newton lasso points alike carry steps and a certificate
        stats = run_experiment(tiny_config(name, replications=3, **overrides)).summary["estimators"]
        for estimator, block in stats.items():
            for key, values in block.items():
                assert len(values) == len(block["sweep_values"]), (estimator, key)

    def test_written_summary_reports_every_sweep_points_solver(self, tmp_path):
        result = run_experiment(tiny_config("floor"))
        lasso = result.summary["estimators"]["transfer_lasso"]
        for key in ("newton_steps_max", "newton_steps_p95", "certificate_max"):
            assert len(lasso[key]) == len(lasso["sweep_values"])
        assert max(lasso["certificate_max"]) <= 1.0e-8
        assert "newton_steps_max" not in result.summary["estimators"]["transfer_ridge"]
        with open(write_outputs(result, tmp_path)["csv"]) as fh:
            assert tuple(next(csv.reader(fh))) == CSV_HEADER
        # the conjugate-gradient sweep reports each point's worst certificate
        universality = run_experiment(tiny_config("universality")).summary["estimators"]
        for estimator in ("transfer_ridge_gaussian", "transfer_ridge_rademacher"):
            block = universality[estimator]
            assert len(block["certificate_max"]) == len(block["sweep_values"])
            assert max(block["certificate_max"]) <= 1.0e-10 and "newton_steps_max" not in block


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
        assert echo["grid"] == [0.0, 1.0, 10.0, 100.0, 1000.0]
