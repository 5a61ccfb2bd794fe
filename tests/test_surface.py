"""Pin of the package's public surface.

A change that adds, renames or removes a public name must edit ``PUBLIC``,
and one that adds, renames or removes a configuration field must edit
``CONFIG_FIELDS``, so the counts are read from this file rather than
counted by hand.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import heavyreg

PUBLIC = [
    "ConfigError",
    "ConjugateClass",
    "ConvergenceError",
    "CovarianceModel",
    "DiscreteSpectrum",
    "EstimatorConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "FitResult",
    "HeavyRegError",
    "Loss",
    "LossKind",
    "NoiseFamily",
    "RegKind",
    "Regularizer",
    "Resolvent",
    "RiskPrediction",
    "RiskRecord",
    "TailLaw",
    "TheoryInputs",
    "WinsorPlan",
    "classify",
    "decompose",
    "default_config",
    "effective_variance_asymptotic",
    "effective_variance_exact",
    "empirical_risk",
    "fisher_information",
    "fit_proximal",
    "mean_absolute",
    "moment_verdict",
    "project_delta",
    "prox_loss",
    "prox_loss_conjugate",
    "prox_reg",
    "q_sigma",
    "required_alpha",
    "ridge_risk_closed_form",
    "run_experiment",
    "sample_design",
    "sample_noise",
    "sample_signal",
    "sample_sphere",
    "solve_companion_v",
    "solve_general_fixed_point",
    "substream",
    "summarize",
    "truncated_fourth_moment",
    "winsor_plan",
    "winsorize",
    "write_outputs",
]


CONFIG_FIELDS = {
    "ExperimentConfig": ["name", "n", "p", "cov", "noise", "sparsity", "delta_norm", "lambda_tilde",
                         "lambda_fixed", "huber_k", "grid", "replications", "master_seed", "workers",
                         "paper_scale"],
    "EstimatorConfig": ["loss", "reg", "lambda_value", "center", "gradient_map_tol", "max_iterations"],
}


def exported() -> list[str]:
    return sorted(name for name, value in vars(heavyreg).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC) == 51
    assert exported() == PUBLIC


def test_configs_hold_exactly_the_pinned_fields():
    assert {name: len(fields) for name, fields in CONFIG_FIELDS.items()} == {"ExperimentConfig": 15,
                                                                             "EstimatorConfig": 6}
    for name, fields in CONFIG_FIELDS.items():
        assert [field.name for field in dataclasses.fields(getattr(heavyreg, name))] == fields


@pytest.mark.parametrize("name", [n for n in exported() if inspect.isclass(getattr(heavyreg, n))
                                  or inspect.isfunction(getattr(heavyreg, n))])
def test_reexported_name_is_in_its_module_all(name):
    obj = getattr(heavyreg, name)
    module = inspect.getmodule(obj)
    if hasattr(module, "__all__"):
        assert name in module.__all__, f"{module.__name__}.__all__ lacks {name}"


def test_errors_are_one_class_per_cause():
    from heavyreg import errors

    classes = sorted(name for name, value in vars(errors).items() if inspect.isclass(value))
    assert classes == ["ConfigError", "ConvergenceError", "HeavyRegError"]
    assert issubclass(heavyreg.ConfigError, ValueError)
    assert issubclass(heavyreg.ConfigError, heavyreg.HeavyRegError)
    assert issubclass(heavyreg.ConvergenceError, heavyreg.HeavyRegError)
    assert not issubclass(heavyreg.ConvergenceError, ValueError)


def test_package_runs_without_scipy_stats_integrate_or_optimize():
    """Importing the package, building each noise law with its survival and
    winsorization plan, every experiment's default configuration, both risk
    routes and one tiny experiment load none of ``scipy.stats``,
    ``scipy.integrate`` or ``scipy.optimize``, whose imports alone cost a
    large share of start-up."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import heavyreg\n"
        "from heavyreg.experiments import EXPERIMENT_NAMES\n"
        "for family in heavyreg.NoiseFamily:\n"
        "    law = heavyreg.TailLaw(family, 1.5)\n"
        "    law.survival([0.05, 1.0, 80.0])\n"
        "    heavyreg.winsor_plan(law, 800)\n"
        "for name in EXPERIMENT_NAMES:\n"
        "    heavyreg.default_config(name)\n"
        "spec = heavyreg.decompose(heavyreg.CovarianceModel.ar1(20, 0.5))\n"
        "spec = heavyreg.project_delta(spec, np.ones(20), np.zeros(20))\n"
        "heavyreg.ridge_risk_closed_form(heavyreg.TheoryInputs(spec, 0.5, 2.0, 1.0))\n"
        "heavyreg.solve_general_fixed_point(heavyreg.TheoryInputs(spec, 0.5, 2.0, 1.0, heavyreg.Regularizer(heavyreg.RegKind.LASSO)))\n"
        "heavyreg.run_experiment(heavyreg.ExperimentConfig(name='transient', n=60, p=20, cov=heavyreg.CovarianceModel.ar1(20, 0.5),\n"
        "                                                  replications=2, grid=(1.0, 100.0)))\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.integrate', 'scipy.optimize')))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(heavyreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
