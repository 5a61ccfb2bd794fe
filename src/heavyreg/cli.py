"""Command-line surface: tail calculators, loss classification, risk theory,
and the named experiment harness.

Exit codes are a stable contract: 0 success, 1 acceptance failure or
``ConvergenceError``, 2 usage error or ``ConfigError``.  Every subcommand
accepts ``--json`` for machine-readable output.  The default output directory
for experiment artifacts is ``$HEAVYREG_OUT`` (falling back to ``./results``).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import typing

from .convex import Loss, LossKind, RegKind, Regularizer, classify, moment_verdict, required_alpha
from .errors import ConfigError, ConvergenceError, HeavyRegError
from .experiments import (EXPERIMENT_NAMES, ExperimentConfig, _frozen_signal, default_config, run_experiment,
                          write_outputs)
from .spectrum import CovarianceModel, decompose, q_sigma
from .tails import NoiseFamily, TailLaw, fisher_information, winsor_plan
from .theory import TheoryInputs, ridge_risk_closed_form, solve_general_fixed_point

__all__ = ["main", "build_parser"]

_OUT_ENV = "HEAVYREG_OUT"
_VERIFY_TOL = 1.0e-6


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")


# --------------------------------------------------------------------------
# tails
# --------------------------------------------------------------------------


def cmd_tails(args: argparse.Namespace) -> int:
    # checked before the scale is taken: a negative c has a complex root
    if args.c <= 0.0:
        print(f"error: tail constant must be > 0, got {args.c}", file=sys.stderr)
        return 2
    # a symmetric power-tail law with the requested tail constant; winsorized
    # thresholds ride with the law's scale, so tau is reported in unit-law
    # units.  The unit law checks alpha before the scale divides by it.
    law = TailLaw(NoiseFamily.SYMMETRIC_PARETO, args.alpha)
    law = dataclasses.replace(law, scale=args.c ** (1.0 / args.alpha))
    plan = winsor_plan(law, args.n)
    from .tails import effective_variance_asymptotic

    payload = {
        "alpha": args.alpha,
        "c": args.c,
        "n": args.n,
        "tau": plan.tau,
        "sigma2_asymptotic": effective_variance_asymptotic(law, args.n),
        "fisher": fisher_information(law, args.n),
    }
    if args.exact:
        payload["sigma2_exact"] = plan.sigma2
        payload["fisher_exact"] = args.n / plan.sigma2
    _emit(payload, args.json)
    return 0


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

_CLI_LOSSES = ("squared", "absolute", "huber", "quantile", "logcosh")


def _build_loss(name: str, k: float, q: float) -> Loss:
    kind = LossKind(name)
    if kind is LossKind.HUBER:
        return Loss(kind, k)
    if kind is LossKind.QUANTILE:
        return Loss(kind, q)
    return Loss(kind)


def cmd_classify(args: argparse.Namespace) -> int:
    loss = _build_loss(args.loss, args.k, args.q)
    cls = classify(loss)
    payload = {
        "loss": args.loss,
        "bounded": cls.bounded,
        "required_alpha": 1.0 if cls.bounded else required_alpha(cls.q_growth),
        "alpha": args.alpha,
        "verdict": moment_verdict(cls, args.alpha),
    }
    if cls.bounded:
        payload["K"] = cls.K
    else:
        payload["q_growth"] = cls.q_growth
    _emit(payload, args.json)
    return 0


# --------------------------------------------------------------------------
# theory
# --------------------------------------------------------------------------


def _parse_floats(raw: str) -> tuple[float, ...]:
    """A comma-separated list of floats, blank items skipped; raises ValueError."""
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _theory_grid(args: argparse.Namespace) -> tuple[float, ...]:
    if args.sigma_grid is None:
        return (args.sigma2,)
    try:
        grid = _parse_floats(args.sigma_grid)
    except ValueError as exc:
        raise ConfigError(f"could not parse --sigma-grid: {exc}") from None
    if not grid:
        raise ConfigError("--sigma-grid must contain at least one value")
    return grid


def _theory_inputs(args: argparse.Namespace, reg: Regularizer) -> list[TheoryInputs]:
    """One input per grid point; all share one spectrum and one frozen misalignment draw."""
    grid = _theory_grid(args)
    if args.cov == "identity" and args.rho is not None:
        raise ConfigError("an identity covariance takes no --rho; drop it or pass --cov ar1")
    rho = 0.0 if args.cov == "identity" else 0.5 if args.rho is None else args.rho
    spec = decompose(CovarianceModel(args.p, rho))
    spec = _frozen_signal(spec, args.seed, 0.1, args.delta_norm)[0]
    return [TheoryInputs(spec, args.gamma, sigma2, args.lambda_tilde, reg=reg) for sigma2 in grid]


def _predict(inputs: TheoryInputs, use_closed_form: bool, nodes: int):
    if use_closed_form:
        return ridge_risk_closed_form(inputs)
    return solve_general_fixed_point(inputs, gh_nodes=nodes)


def _theory_point(args: argparse.Namespace, inputs: TheoryInputs, closed: bool) -> dict:
    prediction = _predict(inputs, closed, args.nodes)
    point = {
        "sigma2": inputs.sigma2,
        "gamma": args.gamma,
        "lambda_tilde": args.lambda_tilde,
        "risk": prediction.risk,
        "tau": prediction.tau,
        "q_sigma": q_sigma(inputs.spectrum),
    }
    if prediction.v is not None:
        point["v"] = prediction.v
    if prediction.bias_term is not None:
        point["bias_term"] = prediction.bias_term
        point["variance_term"] = prediction.variance_term
    if not closed:
        point["iterations"] = prediction.iterations
        point["residual"] = prediction.residual
    return point


def _run_verify(args: argparse.Namespace) -> int:
    gaps = []
    for inputs in _theory_inputs(args, Regularizer(RegKind.RIDGE)):
        closed = ridge_risk_closed_form(inputs)
        fixed = solve_general_fixed_point(inputs, gh_nodes=args.nodes)
        gaps.append(abs(fixed.risk - closed.risk) / max(closed.risk, 1.0e-300))
    max_gap = max(gaps)
    payload = {"max_relative_gap": max_gap, "tolerance": _VERIFY_TOL, "points": len(gaps)}
    _emit(payload, args.json)
    return 0 if max_gap <= _VERIFY_TOL else 1


def _reg_from_flags(name: str, mix: float) -> Regularizer:
    kind = RegKind(name)
    if kind is RegKind.ELASTIC_NET:
        return Regularizer(kind, mix)
    return Regularizer(kind)


def cmd_theory(args: argparse.Namespace) -> int:
    closed = args.theory_cmd == "ridge-risk"
    if args.verify:
        if not closed and args.reg != "ridge":
            raise ConfigError("--verify cross-checks the two ridge forms; drop --reg or set it to ridge")
        return _run_verify(args)
    reg = Regularizer(RegKind.RIDGE) if closed else _reg_from_flags(args.reg, args.mix)
    points = [_theory_point(args, inputs, closed) for inputs in _theory_inputs(args, reg)]
    if len(points) == 1:
        _emit(points[0], args.json)
    elif args.json:
        print(json.dumps({"points": points}, indent=2, sort_keys=True))
    else:
        columns = ["sigma2", "risk", "tau"] + (["v"] if "v" in points[0] else [])
        print(",".join(columns))
        for point in points:
            print(",".join(repr(point[c]) for c in columns))
    return 0


# --------------------------------------------------------------------------
# experiment
# --------------------------------------------------------------------------

_INI_SECTIONS = {
    # every scalar field of ExperimentConfig except the name, which the command
    # line gives, plus the sweep grid as a comma-separated list
    "experiment": {key: kind for key, kind in typing.get_type_hints(ExperimentConfig).items()
                   if kind in (int, float, str) and key != "name"} | {"grid": _parse_floats},
    "covariance": {"kind": str, "rho": float},
    "noise": {"family": str, "alpha": float, "scale": float},
}


def _read_ini(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section in parser.sections():
        if section not in _INI_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]; expected one of {sorted(_INI_SECTIONS)}")
        schema = _INI_SECTIONS[section]
        block: dict = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]; expected one of {sorted(schema)}")
            try:
                block[key] = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {exc}") from None
        out[section] = block
    return out


def _resolve_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    seed = args.seed if args.seed is not None else 12345
    base = default_config(args.name, master_seed=seed, paper_scale=args.paper_scale,
                          workers=args.workers if args.workers is not None else 1)
    if args.config is None:
        return base
    ini = _read_ini(args.config)
    kw = {field.name: getattr(base, field.name) for field in dataclasses.fields(ExperimentConfig)}
    kw.update(ini.get("experiment", {}))

    cov_block = ini.get("covariance", {})
    kind = cov_block.get("kind", "ar1")
    if kind not in ("ar1", "identity"):
        raise ConfigError(f"unknown covariance kind {kind!r}; expected 'ar1' or 'identity'")
    if kind == "identity" and "rho" in cov_block:
        raise ConfigError("an identity covariance takes no rho; drop it or set kind = ar1")
    kw["cov"] = CovarianceModel(kw["p"], cov_block.get("rho", base.cov.rho) if kind == "ar1" else 0.0)

    noise_block = ini.get("noise", {})
    if noise_block:
        try:
            family = NoiseFamily(noise_block.get("family", base.noise.family.value))
        except ValueError:
            raise ConfigError(f"unknown noise family {noise_block.get('family')!r}") from None
        kw["noise"] = TailLaw(family, noise_block.get("alpha", base.noise.alpha),
                              noise_block.get("scale", base.noise.scale))

    # command-line flags outrank the config file
    if args.seed is not None:
        kw["master_seed"] = args.seed
    if args.workers is not None:
        kw["workers"] = args.workers
    kw["paper_scale"] = args.paper_scale
    return ExperimentConfig(**kw)


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _resolve_experiment_config(args)
    result = run_experiment(config)
    out_dir = args.out if args.out is not None else os.environ.get(_OUT_ENV, "results")
    paths = write_outputs(result, out_dir)
    if args.json:
        print(json.dumps({
            "experiment": config.name,
            "passed": result.passed,
            "paths": paths,
            "checks": result.summary["checks"],
        }, indent=2, sort_keys=True))
    else:
        for name, check in result.summary["checks"].items():
            bounds = f"[{check['low']}, {check['high']}]"
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{config.name}: {name} = {check['value']:.6g} within {bounds}: {status}")
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")
        print(f"{config.name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavyreg",
        description="Risk theory and experiments for high-dimensional regression under heavy-tailed noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tails = sub.add_parser("tails", help="winsorization and effective-variance calculators")
    tails_sub = tails.add_subparsers(dest="tails_cmd", required=True)
    ev = tails_sub.add_parser("effective-variance", help="variance of the winsorized noise at tau_n")
    ev.add_argument("--alpha", type=float, required=True, help="tail index in (1, 2)")
    ev.add_argument("--c", type=float, default=1.0, help="tail constant of the power law")
    ev.add_argument("--n", type=int, required=True, help="sample size setting tau_n = n**(1/alpha)")
    ev.add_argument("--exact", action="store_true", help="also report the exact closed-form value")
    ev.add_argument("--json", action="store_true")
    ev.set_defaults(func=cmd_tails)

    cl = sub.add_parser("classify", help="conjugate-domain classification of a loss")
    cl.add_argument("loss", choices=_CLI_LOSSES)
    cl.add_argument("--alpha", type=float, required=True, help="tail index in (1, 2)")
    cl.add_argument("--k", type=float, default=1.5, help="transition point for the huber loss")
    cl.add_argument("--q", type=float, default=0.5, help="level for the quantile loss")
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(func=cmd_classify)

    theory = sub.add_parser("theory", help="deterministic asymptotic risk predictions")
    theory_sub = theory.add_subparsers(dest="theory_cmd", required=True)
    for sub_name, description in (
        ("ridge-risk", "closed-form transfer-ridge risk"),
        ("fixed-point", "general penalized risk via the scalar fixed point"),
    ):
        tp = theory_sub.add_parser(sub_name, help=description)
        tp.add_argument("--gamma", type=float, default=0.5, help="aspect ratio p/n")
        tp.add_argument("--sigma2", type=float, default=1.0, help="effective noise variance")
        tp.add_argument("--sigma-grid", type=str, default=None, help="comma-separated variance grid")
        tp.add_argument("--lambda-tilde", type=float, default=1.0, help="noise-adapted penalty weight")
        tp.add_argument("--p", type=int, default=400, help="spectrum dimension")
        tp.add_argument("--cov", choices=("ar1", "identity"), default="ar1")
        tp.add_argument("--rho", type=float, default=None, help="ar1 correlation (default 0.5)")
        tp.add_argument("--delta-norm", type=float, default=1.0, help="misalignment radius")
        tp.add_argument("--seed", type=int, default=12345, help="seed for the frozen misalignment draw")
        tp.add_argument("--nodes", type=int, default=61, help="quadrature nodes for the fixed point")
        tp.add_argument("--verify", action="store_true",
                        help="cross-check closed form vs fixed point; exit 1 beyond 1e-6 relative")
        tp.add_argument("--json", action="store_true")
        if sub_name == "fixed-point":
            tp.add_argument("--reg", choices=("ridge", "lasso", "elastic_net"), default="ridge")
            tp.add_argument("--mix", type=float, default=0.5, help="elastic-net mix of the two penalties")
        else:
            tp.set_defaults(reg="ridge", mix=0.5)
        tp.set_defaults(func=cmd_theory)

    exp = sub.add_parser("experiment", help="run one named Monte Carlo experiment")
    exp.add_argument("name", choices=EXPERIMENT_NAMES)
    exp.add_argument("--config", type=str, default=None, help="INI file overriding desk-scale defaults")
    exp.add_argument("--out", type=str, default=None,
                     help=f"output directory (default ${_OUT_ENV} or ./results)")
    exp.add_argument("--seed", type=int, default=None, help="master seed (default 12345)")
    exp.add_argument("--workers", type=int, default=None, help="parallel replication workers")
    exp.add_argument("--paper-scale", action="store_true",
                     help="long-run protocol (n=2000, p=1000, 500 replications; 0.1 to 0.9 s per "
                          "replication on one BLAS thread, trichotomy the slowest)")
    exp.add_argument("--json", action="store_true")
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HeavyRegError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
