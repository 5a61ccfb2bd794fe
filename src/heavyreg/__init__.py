"""High-dimensional M-estimation under infinite-variance noise.

The package covers the full pipeline: heavy-tailed noise models with
winsorization and effective-variance formulas (:mod:`heavyreg.tails`),
covariance spectra and design sampling (:mod:`heavyreg.spectrum`), loss and
regularizer calculus with conjugate-domain classification
(:mod:`heavyreg.convex`), proximal fitting (:mod:`heavyreg.estimators`), exact
asymptotic risk predictions (:mod:`heavyreg.theory`), and the reproducible
Monte Carlo experiment harness (:mod:`heavyreg.experiments`) with a command
line front end (:mod:`heavyreg.cli`).
"""

from .convex import (
    ConjugateClass,
    Loss,
    LossKind,
    RegKind,
    Regularizer,
    classify,
    moment_verdict,
    prox_loss,
    prox_loss_conjugate,
    prox_reg,
    required_alpha,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    HeavyRegError,
    IntegrationError,
    SpectrumError,
    TailModelError,
)
from .estimators import (
    EstimatorConfig,
    FitResult,
    Resolvent,
    empirical_risk,
    fit_ols,
    fit_proximal,
    fit_ridge,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    RiskRecord,
    default_config,
    run_experiment,
    summarize,
    write_outputs,
)
from .spectrum import (
    CovarianceModel,
    DiscreteSpectrum,
    decompose,
    project_delta,
    q_sigma,
    sample_design,
    sample_signal,
    sample_sphere,
)
from .streams import substream
from .tails import (
    NoiseFamily,
    TailLaw,
    WinsorPlan,
    effective_variance_asymptotic,
    effective_variance_exact,
    fisher_information,
    mean_absolute,
    sample_noise,
    truncated_fourth_moment,
    winsor_plan,
    winsorize,
)
from .theory import (
    RiskPrediction,
    TheoryInputs,
    floor_risk,
    predict_divergence_exponent,
    ridge_risk_closed_form,
    solve_companion_v,
    solve_general_fixed_point,
)

__version__ = "0.1.0"
