"""The four benchmark workloads.

Each workload has an untimed ``setup`` (the configuration objects a user
builds before a run) and a timed ``run`` that calls heavyreg only through its
public names, looked up on the ``heavyreg`` module at call time so that the
tracer's wrappers see them.  ``run`` returns the ops the reference check
scores: ``[key, value, ok]`` triples, where ``ok`` is False for a
nonconverged record, a failed ridge cross-check or a raised exception.

All workloads use AR(1) covariance with rho = 0.5 and Student-t noise with
alpha = 1.5 (the experiment defaults).  Replication counts are sized so that
one instance takes a few seconds on a 2-core box, which leaves room for
several fresh-process instances per benchmark run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (heavyreg, master_seed, tiny) -> state
    run: Callable  # (heavyreg, state, work_dir) -> {"ops": [...], "paths": {...}}
    n: int | None  # design rows, for the computed work figures
    p: int


# --------------------------------------------------------------------------
# Experiment workloads: run_experiment plus write_outputs.
# --------------------------------------------------------------------------


def _experiment_setup(experiment: str, paper_scale: bool, replications: int):
    def setup(hr, master_seed: int, tiny: bool):
        config = hr.default_config(experiment, master_seed=master_seed, paper_scale=paper_scale)
        if tiny:  # unit-test size: same code path, a fraction of a second
            return dataclasses.replace(config, n=60, p=30, cov=hr.CovarianceModel.ar1(30, 0.5), replications=2)
        return dataclasses.replace(config, replications=replications)

    return setup


def _run_experiment(hr, config, work_dir: str) -> dict:
    result = hr.run_experiment(config)
    paths = hr.write_outputs(result, work_dir)
    ops = [[["record", r.estimator, r.sweep_value, r.replication], r.risk, bool(r.converged)]
           for r in result.records]
    ops += [[["check", name], 1.0 if check["passed"] else 0.0, True]
            for name, check in sorted(result.summary["checks"].items())]
    return {"ops": ops, "paths": paths}


# --------------------------------------------------------------------------
# theory-grid: winsorization plans, then closed-form and fixed-point risk.
# --------------------------------------------------------------------------

THEORY_FAMILIES = ("student_t", "alpha_stable")
THEORY_ALPHAS = (1.2, 1.5, 1.8)
THEORY_NS = (800, 2000)
THEORY_P = 1000
THEORY_LAMBDAS = (0.1, 1.0)
RIDGE_GAP_TOL = 1.0e-6  # the CLI's ``theory fixed-point --verify`` rule


def _theory_setup(hr, master_seed: int, tiny: bool) -> dict:
    import numpy as np  # not at module level: child.py imports this module before timing set-up

    laws = [hr.TailLaw(hr.NoiseFamily(family), alpha)
            for family in THEORY_FAMILIES for alpha in THEORY_ALPHAS]
    p = 40 if tiny else THEORY_P
    return {
        "seed": master_seed,
        "laws": laws[:2] if tiny else laws,
        "ns": THEORY_NS,
        "cov": hr.CovarianceModel.ar1(p, 0.5),
        "regs": [hr.Regularizer(hr.RegKind.RIDGE), hr.Regularizer(hr.RegKind.LASSO),
                 hr.Regularizer(hr.RegKind.ELASTIC_NET, 0.5)],
        "lambdas": THEORY_LAMBDAS,
        "sigma_grid": [float(v) for v in np.geomspace(1.0, 1.0e4, 5 if tiny else 25)],
    }


def _run_theory(hr, state: dict, work_dir: str) -> dict:
    ops, errors = [], []

    def predict(key: list, compute: Callable[[], float]) -> float | None:
        try:
            value = float(compute())
        except Exception as exc:  # a raise is one failed op, not a crashed benchmark
            ops.append([key, None, False])
            errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        ops.append([key, value, True])
        return value

    for law in state["laws"]:
        for n in state["ns"]:
            predict(["winsor_plan", law.family.value, law.alpha, n],
                    lambda: hr.winsor_plan(law, n).sigma2)

    spec = hr.decompose(state["cov"])
    p = spec.p
    rng = hr.substream(state["seed"], "signal", 0)
    beta_star = hr.sample_signal(p, 0.1, rng)
    beta0 = beta_star + hr.sample_sphere(p, 1.0, rng)
    spec = hr.project_delta(spec, beta_star, beta0)

    gaps = []
    for n in state["ns"]:
        for lam in state["lambdas"]:
            for sigma2 in state["sigma_grid"]:
                for reg in state["regs"]:
                    inputs = hr.TheoryInputs(spec, p / n, sigma2, lam, reg=reg)
                    key = [reg.kind.value, n, lam, sigma2]
                    fixed_op = len(ops)
                    fixed = predict(["fixed_point"] + key,
                                    lambda: hr.solve_general_fixed_point(inputs).risk)
                    if reg.kind is not hr.RegKind.RIDGE:
                        continue
                    closed = predict(["closed_form"] + key, lambda: hr.ridge_risk_closed_form(inputs).risk)
                    if fixed is not None and closed is not None:
                        gap = abs(fixed - closed) / max(closed, 1.0e-300)
                        gaps.append(gap)
                        if not gap <= RIDGE_GAP_TOL:
                            ops[fixed_op][2] = False  # the fixed point fails the cross-check
    return {"ops": ops, "paths": {}, "errors": errors, "ridge_gap_max": max(gaps, default=math.nan)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trichotomy-huber",
            "Huber-ridge FISTA fits on raw heavy-tailed noise dominate; solver step, mat-vecs and iterations show here",
            _experiment_setup("trichotomy", paper_scale=False, replications=4),
            _run_experiment, n=800, p=400,
        ),
        Workload(
            "floor-lasso",
            "lasso prox, warm starts along the sweep, fits pinned at the centre; KKT screening shows here, not in trichotomy",
            _experiment_setup("floor", paper_scale=False, replications=12),
            _run_experiment, n=800, p=400,
        ),
        Workload(
            "transient-paper",
            "no solver: paper-scale design draw, Gram and eigh dominate; factorization changes show, solver changes must not",
            _experiment_setup("transient", paper_scale=True, replications=8),
            _run_experiment, n=2000, p=1000,
        ),
        Workload(
            "theory-grid",
            "tails quadrature and the theory fixed point, which are only set-up in the other workloads, do the work here",
            _theory_setup, _run_theory, n=None, p=THEORY_P,
        ),
    )
}


def computed_work(workload: Workload) -> dict:
    """Work figures computed from the shapes, not measured.

    Gram ``X'X`` costs ``n p (p + 1)`` flops (symmetric rank-k update);
    ``eigh`` of a ``p x p`` matrix is taken as ``9 p^3`` (symmetric QR with
    eigenvectors, Golub and Van Loan, table 8.3.1).  One FISTA mat-vec pair
    ``X b`` and ``X' r`` costs ``4 n p`` flops and streams X twice.
    """
    n, p = workload.n, workload.p
    out = {"label": "computed", "eigh_flops": 9 * p ** 3}
    if n is not None:
        out.update({
            "x_bytes": 8 * n * p,
            "gram_plus_eigh_flops": n * p * (p + 1) + 9 * p ** 3,
            "fista_matvec_pair_flops": 4 * n * p,
            "fista_matvec_pair_bytes": 16 * n * p,
        })
    return out
