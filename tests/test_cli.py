"""Tests for the command-line interface: flags, outputs, exit codes."""

import csv
import json
import pathlib

import pytest

from heavyreg import cli, experiments, tails
from heavyreg.cli import _INI_SECTIONS, _read_ini, main
from heavyreg.experiments import default_config

DOCS_INI = pathlib.Path(__file__).resolve().parents[1] / "docs" / "experiment-config.ini"

TINY_INI = """
[experiment]
n = 100
p = 30
replications = 3
grid = 0, 1, 10, 100

[covariance]
kind = ar1
rho = 0.4
"""


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_ini(tmp_path, text=TINY_INI, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestTailsCommand:
    """Effective-variance calculator."""

    def test_asymptotic_plan_values(self, capsys):
        code, payload = run_json(capsys, [
            "tails", "effective-variance", "--alpha", "1.5", "--c", "1", "--n", "1000", "--json",
        ])
        assert code == 0
        assert payload["tau"] == pytest.approx(100.0)
        assert payload["sigma2_asymptotic"] == pytest.approx(40.0)
        assert payload["fisher"] == pytest.approx(25.0)

    def test_exact_flag_adds_the_closed_form(self, capsys):
        code, payload = run_json(capsys, [
            "tails", "effective-variance", "--alpha", "1.5", "--c", "1", "--n", "1000",
            "--exact", "--json",
        ])
        assert code == 0
        assert payload["sigma2_exact"] == pytest.approx(37.0)

    def test_tail_index_outside_the_open_interval_exits_two(self, capsys):
        code = main(["tails", "effective-variance", "--alpha", "2.5", "--n", "1000"])
        assert code == 2
        assert "(1, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "0", "--n", "1000"], "tail index must lie in (1, 2), got 0.0"),
        (["--alpha", "1.5", "--n", "0"], "sample size must be >= 1, got 0"),
    ])
    def test_zero_tail_index_or_sample_size_exits_two(self, capsys, flags, message):
        assert main(["tails", "effective-variance", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_nonpositive_tail_constant_exits_two(self):
        assert main(["tails", "effective-variance", "--alpha", "1.5", "--c", "0", "--n", "10"]) == 2

    def test_text_output_lists_key_value_pairs(self, capsys):
        assert main(["tails", "effective-variance", "--alpha", "1.5", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "sigma2_asymptotic = " in out


class TestClassifyCommand:
    """Conjugate-domain classification."""

    def test_huber_is_bounded_with_its_knee_as_half_width(self, capsys):
        code, payload = run_json(capsys, ["classify", "huber", "--k", "1.5", "--alpha", "1.5", "--json"])
        assert code == 0
        assert payload["bounded"] is True
        assert payload["K"] == pytest.approx(1.5)
        assert payload["verdict"] == "bounded-risk"

    def test_squared_loss_needs_a_finite_second_moment(self, capsys):
        code, payload = run_json(capsys, ["classify", "squared", "--alpha", "1.5", "--json"])
        assert code == 0
        assert payload["bounded"] is False
        assert payload["q_growth"] == pytest.approx(2.0)
        assert payload["required_alpha"] == pytest.approx(2.0)
        assert payload["verdict"] == "diverges-without-transfer"

    def test_absolute_loss_is_safe_for_any_valid_tail_index(self, capsys):
        code, payload = run_json(capsys, ["classify", "absolute", "--alpha", "1.01", "--json"])
        assert code == 0
        assert payload["verdict"] == "bounded-risk"

    def test_unknown_loss_name_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "cauchy", "--alpha", "1.5"])
        assert excinfo.value.code == 2

    def test_bad_loss_parameter_exits_two(self):
        assert main(["classify", "huber", "--k", "-1", "--alpha", "1.5"]) == 2


class TestTheoryCommand:
    """Deterministic risk predictions."""

    def test_ridge_risk_reports_the_companion_root(self, capsys):
        code, payload = run_json(capsys, [
            "theory", "ridge-risk", "--gamma", "0.5", "--sigma2", "10", "--p", "80", "--json",
        ])
        assert code == 0
        assert 0.0 < payload["v"] <= 1.0
        assert payload["risk"] > 0.0
        assert payload["bias_term"] + payload["variance_term"] > 0.0

    def test_fixed_design_limit_reports_v_equal_one(self, capsys):
        code, payload = run_json(capsys, [
            "theory", "ridge-risk", "--gamma", "0", "--sigma2", "10", "--p", "80", "--json",
        ])
        assert code == 0
        assert payload["v"] == 1.0

    def test_identity_flag_is_zero_correlation(self, capsys):
        argv = ["theory", "ridge-risk", "--sigma2", "10", "--p", "80", "--json"]
        identity = run_json(capsys, argv + ["--cov", "identity"])
        assert identity == run_json(capsys, argv + ["--cov", "ar1", "--rho", "0"])
        assert identity != run_json(capsys, argv)

    @pytest.mark.parametrize("command", ["ridge-risk", "fixed-point"])
    @pytest.mark.parametrize("rho", ["0.9", "0.5", "0"])
    def test_identity_with_a_rho_exits_two(self, command, rho, capsys):
        """Any given --rho, the default's value and 0 included, would be
        dropped, so it is an error, as in the INI file."""
        assert main(["theory", command, "--cov", "identity", "--rho", rho, "--p", "40"]) == 2
        assert "identity covariance takes no --rho" in capsys.readouterr().err

    def test_ar1_without_a_rho_takes_one_half(self, capsys):
        argv = ["theory", "ridge-risk", "--sigma2", "10", "--p", "80", "--json"]
        assert run_json(capsys, argv) == run_json(capsys, argv + ["--cov", "ar1", "--rho", "0.5"])
        assert run_json(capsys, argv) != run_json(capsys, argv + ["--rho", "0.9"])

    def test_misalignment_is_the_experiments_frozen_draw(self, capsys):
        _, payload = run_json(capsys, ["theory", "ridge-risk", "--p", "80", "--seed", "7", "--json"])
        config = experiments.ExperimentConfig(name="paradox", n=200, p=80, grid=(0.0,), master_seed=7)
        assert payload["q_sigma"] == experiments.q_sigma(experiments._build_plan(config).spec)

    def test_huge_noise_fixed_point_lands_on_the_floor(self, capsys):
        code, payload = run_json(capsys, [
            "theory", "fixed-point", "--reg", "lasso", "--sigma2", "1e12", "--p", "80", "--json",
        ])
        assert code == 0
        q = payload["q_sigma"]
        assert payload["risk"] == pytest.approx(q, rel=1.0e-4)
        assert payload["tau"] ** 2 == pytest.approx(1.0 + 0.5 * q, rel=1.0e-4)

    def test_verify_cross_check_passes(self, capsys):
        code, payload = run_json(capsys, [
            "theory", "fixed-point", "--sigma-grid", "1,10,100", "--p", "80", "--verify", "--json",
        ])
        assert code == 0
        assert payload["max_relative_gap"] <= 1.0e-6
        assert payload["points"] == 3

    def test_verify_passes_at_unit_aspect_ratio_and_tiny_penalty(self, capsys):
        """At gamma = 1 and lambda_tilde = 1e-6 the plain iteration r <- R(r)
        ran out of its 500 steps; the secant lands on the ridge root."""
        code, payload = run_json(capsys, [
            "theory", "fixed-point", "--gamma", "1", "--lambda-tilde", "1e-6", "--p", "200", "--verify", "--json",
        ])
        assert code == 0
        assert payload["max_relative_gap"] <= 1.0e-6

    def test_lasso_fixed_point_converges_at_unit_aspect_ratio(self, capsys):
        code, payload = run_json(capsys, [
            "theory", "fixed-point", "--reg", "lasso", "--gamma", "1", "--lambda-tilde", "1e-4", "--p", "200", "--json",
        ])
        assert code == 0
        assert payload["residual"] <= 1.0e-12 * max(1.0, payload["risk"])

    def test_verify_rejects_non_ridge_penalties(self):
        assert main(["theory", "fixed-point", "--reg", "lasso", "--verify", "--p", "40"]) == 2

    def test_sigma_grid_emits_a_csv_curve(self, capsys):
        code = main(["theory", "ridge-risk", "--sigma-grid", "1,10", "--p", "80"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sigma2,risk,tau,v"
        assert len(lines) == 3
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 1.0

    def test_sigma_grid_decomposes_once_and_matches_single_points(self, capsys, monkeypatch):
        """Every grid point reuses one spectrum and misalignment draw; each point
        equals the same sigma2 run on its own."""
        singles = []
        for sigma2 in ("1", "10", "100"):
            code, payload = run_json(capsys, ["theory", "fixed-point", "--sigma2", sigma2, "--p", "80", "--json"])
            assert code == 0
            singles.append(payload)
        calls = []
        decompose = cli.decompose
        monkeypatch.setattr(cli, "decompose", lambda model: calls.append(model) or decompose(model))
        code, payload = run_json(capsys, ["theory", "fixed-point", "--sigma-grid", "1,10,100", "--p", "80", "--json"])
        assert code == 0
        assert len(calls) == 1
        assert payload == {"points": singles}

    def test_unparseable_sigma_grid_exits_two(self):
        assert main(["theory", "ridge-risk", "--sigma-grid", "1,abc", "--p", "40"]) == 2

    @pytest.mark.parametrize("command", ["ridge-risk", "fixed-point"])
    def test_noiseless_overparametrized_point_exits_two_naming_both_inputs(self, command, capsys):
        """sigma2 = 0 removes the adapted penalty; at gamma >= 1 the ridgeless
        limit keeps a null-space bias, so neither route may report 0."""
        assert main(["theory", command, "--sigma2", "0", "--gamma", "2", "--p", "40"]) == 2
        err = capsys.readouterr().err
        assert "sigma2 = 0" in err and "gamma" in err

    def test_zero_quadrature_nodes_exits_two_naming_the_argument(self, capsys):
        assert main(["theory", "fixed-point", "--nodes", "0", "--p", "40"]) == 2
        assert "gh_nodes" in capsys.readouterr().err


class TestExperimentCommand:
    """End-to-end runs, config plumbing, exit codes."""

    def test_tiny_run_passes_and_writes_artifacts(self, tmp_path, capsys):
        ini = write_ini(tmp_path)
        out = tmp_path / "results"
        code = main(["experiment", "paradox", "--config", ini, "--out", str(out), "--seed", "5"])
        assert code == 0
        assert (out / "paradox_seed5.csv").exists()
        assert (out / "paradox_seed5.summary.json").exists()
        assert (out / "paradox_seed5.config.json").exists()
        printed = capsys.readouterr().out
        assert "PASS" in printed

    def test_json_mode_reports_checks_and_paths(self, tmp_path, capsys):
        ini = write_ini(tmp_path)
        code, payload = run_json(capsys, [
            "experiment", "paradox", "--config", ini, "--out", str(tmp_path / "r"),
            "--seed", "5", "--json",
        ])
        assert code == 0
        assert payload["passed"] is True
        assert set(payload["paths"]) == {"csv", "summary", "config"}
        assert payload["checks"]["ols_slope"]["passed"] is True

    def test_unknown_config_key_exits_two_naming_it(self, tmp_path, capsys):
        ini = write_ini(tmp_path, "[experiment]\nreplicas = 4\n")
        code = main(["experiment", "paradox", "--config", ini])
        assert code == 2
        assert "replicas" in capsys.readouterr().err

    def test_design_kind_is_an_unknown_key(self, tmp_path, capsys):
        # each experiment's design laws are its registry row's, not a config field
        ini = write_ini(tmp_path, TINY_INI.replace("replications = 3", "replications = 3\ndesign_kind = gaussian"))
        assert main(["experiment", "paradox", "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert "unknown key 'design_kind' in section [experiment]" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name", ("paradox", "floor", "trichotomy"))
    def test_zero_misalignment_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys, name):
        # their checks divide by the misalignment floor q_Sigma, which delta_norm = 0 makes 0
        def no_decompose(model):
            raise AssertionError("a rejected config must not reach the covariance")

        monkeypatch.setattr(experiments, "decompose", no_decompose)
        ini = write_ini(tmp_path, TINY_INI.replace("replications = 3", "replications = 3\ndelta_norm = 0"))
        assert main(["experiment", name, "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert "delta_norm = 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name", ("transient", "universality"))
    def test_zero_misalignment_runs_where_no_check_divides_by_it(self, tmp_path, name):
        # the run reaches its verdict: exit 0 when every check passes and 1 when one fails, never a traceback
        ini = write_ini(tmp_path, TINY_INI.replace("replications = 3", "replications = 3\ndelta_norm = 0")
                        .replace("0, 1, 10, 100", "1, 10, 100"))
        code = main(["experiment", name, "--config", ini, "--out", str(tmp_path / "r")])
        summary = json.loads((tmp_path / "r" / f"{name}_seed12345.summary.json").read_text())
        assert summary["q_sigma"] == 0.0 and code == (0 if summary["passed"] else 1)

    def test_non_finite_penalty_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def no_decompose(model):
            raise AssertionError("a rejected config must not reach the covariance")

        monkeypatch.setattr(experiments, "decompose", no_decompose)
        ini = write_ini(tmp_path, TINY_INI.replace("replications = 3", "replications = 3\nlambda_tilde = inf"))
        assert main(["experiment", "paradox", "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert "lambda_tilde" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unknown_config_section_exits_two(self, tmp_path, capsys):
        ini = write_ini(tmp_path, "[experiments]\nn = 100\n")
        code = main(["experiment", "paradox", "--config", ini])
        assert code == 2
        assert "experiments" in capsys.readouterr().err

    def test_grid_section_is_an_unknown_section(self, tmp_path, capsys):
        ini = write_ini(tmp_path, TINY_INI + "\n[grid]\nsigma = 1, 10\n")
        assert main(["experiment", "paradox", "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert "unknown config section [grid]" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name, grid, message", [
        ("paradox", "0, nan, 10", "strictly ascending"),
        ("paradox", "-1, 0, 10", "noise-scale grid must be >= 0"),
        ("transient", "0, 10", "sigma2 grid must be > 0"),
        ("concentration", "1000, 1000.5", "integers >= 1"),
        ("paradox", "0, abc", "bad value for 'grid' in [experiment]"),
    ])
    def test_grid_outside_the_experiment_domain_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                                                         name, grid, message):
        def no_decompose(model):
            raise AssertionError("a rejected config must not reach the covariance")

        monkeypatch.setattr(experiments, "decompose", no_decompose)
        ini = write_ini(tmp_path, TINY_INI.replace("0, 1, 10, 100", grid))
        assert main(["experiment", name, "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_least_squares_config_with_n_not_above_p_exits_two_before_any_draw(self, tmp_path, monkeypatch):
        def no_decompose(model):
            raise AssertionError("a rejected config must not reach the covariance")

        monkeypatch.setattr(experiments, "decompose", no_decompose)
        ini = write_ini(tmp_path, TINY_INI.replace("n = 100", "n = 30"))
        assert main(["experiment", "trichotomy", "--config", ini, "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("n", (30, 20), ids=("n=p", "n<p"))
    def test_noiseless_row_with_n_not_above_p_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys, n):
        def no_decompose(model):
            raise AssertionError("a rejected config must not reach the covariance")

        monkeypatch.setattr(experiments, "decompose", no_decompose)
        ini = write_ini(tmp_path, TINY_INI.replace("n = 100", f"n = {n}"))
        assert main(["experiment", "floor", "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert "noiseless row" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_annotated_config_file_holds_the_desk_defaults(self):
        ini = _read_ini(str(DOCS_INI))
        desk = default_config("paradox")
        grid = ini["experiment"].pop("grid")
        assert ini["experiment"] == {key: getattr(desk, key) for key in _INI_SECTIONS["experiment"] if key != "grid"}
        assert ini["covariance"] == {"kind": "ar1", "rho": desk.cov.rho}
        assert ini["noise"] == {"family": desk.noise.family.value, "alpha": desk.noise.alpha,
                                "scale": desk.noise.scale}
        assert grid == pytest.approx(desk.grid, rel=5.0e-3)

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["experiment", "paradox", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_reruns_reproduce_everything_but_wall_times(self, tmp_path):
        ini = write_ini(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "paradox", "--config", ini, "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["experiment", "paradox", "--config", ini, "--out", str(out_b), "--seed", "7"]) == 0
        with open(out_a / "paradox_seed7.csv") as fh:
            rows_a = [row[:-1] for row in csv.reader(fh)]
        with open(out_b / "paradox_seed7.csv") as fh:
            rows_b = [row[:-1] for row in csv.reader(fh)]
        assert rows_a == rows_b
        assert (out_a / "paradox_seed7.summary.json").read_bytes() == \
            (out_b / "paradox_seed7.summary.json").read_bytes()
        assert (out_a / "paradox_seed7.config.json").read_bytes() == \
            (out_b / "paradox_seed7.config.json").read_bytes()

    def test_environment_variable_sets_the_default_output_directory(self, tmp_path, monkeypatch):
        ini = write_ini(tmp_path)
        target = tmp_path / "from_env"
        monkeypatch.setenv("HEAVYREG_OUT", str(target))
        assert main(["experiment", "paradox", "--config", ini, "--seed", "5"]) == 0
        assert (target / "paradox_seed5.csv").exists()

    def test_config_file_values_are_echoed(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "echo"
        assert main(["experiment", "paradox", "--config", ini, "--out", str(out), "--seed", "5"]) == 0
        echo = json.loads((out / "paradox_seed5.config.json").read_text())
        assert echo["n"] == 100
        assert echo["p"] == 30
        assert echo["cov"] == {"kind": "ar1", "p": 30, "rho": 0.4}
        assert echo["grid"] == [0.0, 1.0, 10.0, 100.0]

    def test_identity_config_is_echoed_without_a_correlation(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI.replace("kind = ar1\nrho = 0.4", "kind = identity"))
        out = tmp_path / "echo"
        assert main(["experiment", "paradox", "--config", ini, "--out", str(out), "--seed", "5"]) == 0
        echo = json.loads((out / "paradox_seed5.config.json").read_text())
        assert echo["cov"] == {"kind": "identity", "p": 30, "rho": None}

    def test_identity_config_with_a_correlation_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def no_decompose(model):
            raise AssertionError("a rejected config must not reach the covariance")

        monkeypatch.setattr(experiments, "decompose", no_decompose)
        ini = write_ini(tmp_path, TINY_INI.replace("kind = ar1", "kind = identity"))
        assert main(["experiment", "paradox", "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert "identity covariance takes no rho" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unknown_covariance_kind_exits_two(self, tmp_path, capsys):
        ini = write_ini(tmp_path, TINY_INI.replace("kind = ar1", "kind = explicit"))
        assert main(["experiment", "paradox", "--config", ini, "--out", str(tmp_path / "r")]) == 2
        assert "unknown covariance kind 'explicit'" in capsys.readouterr().err

    def test_seed_flag_outranks_the_config_file(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI.replace("replications = 3", "replications = 3\nmaster_seed = 1"))
        out = tmp_path / "seeded"
        assert main(["experiment", "paradox", "--config", ini, "--out", str(out), "--seed", "42"]) == 0
        echo = json.loads((out / "paradox_seed42.config.json").read_text())
        assert echo["master_seed"] == 42

    def test_failed_effective_variance_quadrature_exits_one(self, tmp_path, capsys, monkeypatch):
        gauss_panels = tails._gauss_panels

        def loose(f, edges):
            value, _ = gauss_panels(f, edges)
            return value, 1.0e-9 * abs(value)

        monkeypatch.setattr(tails, "_gauss_panels", loose)
        ini = write_ini(tmp_path, "[experiment]\nn = 100000\np = 2\nreplications = 1\ngrid = 1, 10\n\n"
                                  "[noise]\nfamily = alpha_stable\nalpha = 1.95\n")
        assert main(["experiment", "transient", "--config", ini, "--out", str(tmp_path / "r")]) == 1
        assert "quadrature did not converge" in capsys.readouterr().err

    def test_unknown_experiment_name_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "warmup"])
        assert excinfo.value.code == 2
