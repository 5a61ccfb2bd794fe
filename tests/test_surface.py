"""Pin of the package's public surface.

A change that adds, renames or removes a public name must edit ``PUBLIC``,
so the name count is read from this file rather than counted by hand.
"""

import inspect
import types

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
    "fit_ols",
    "fit_proximal",
    "fit_ridge",
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


def exported() -> list[str]:
    return sorted(name for name, value in vars(heavyreg).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC) == 53
    assert exported() == PUBLIC


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
