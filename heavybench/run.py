"""heavyreg benchmark: time checked risk curves, end to end and per layer.

Run from the root of a checkout:

    python3 heavybench/run.py --workload trichotomy-huber --seed 1 --seconds 15 --trace 0
    python3 heavybench/run.py --workload all --seed 1            # every workload
    python3 heavybench/run.py --workload floor-lasso --trace 1   # per-layer metrics
    python3 heavybench/run.py --write-reference --workload all   # re-pin references

Each workload instance runs in a fresh Python process (``child.py``) with one
BLAS thread and ``workers=1``.  Instances repeat until ``--seconds`` have
passed, cycling over the run's master seeds (at least one instance each; with
``--trace 1`` one master seed and at least two untraced and two traced
instances, alternating).  Timings are medians over the instances.  Every
instance's outputs are scored against the committed reference for its
master seed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import refcheck
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One BLAS thread: the box this was tuned on has two cores shared with other
# tenants, where a second BLAS thread adds more noise than speed.
BLAS_THREADS = 1
MIN_TRACED_PAIRS = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s
MAX_UNATTRIBUTED_FRAC = 0.05

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    **{f"{name}.self_s": ("s", "lower") for name in spans.SELF_TIME_LAYERS},
    **{name: ("count", "lower") for name in spans.COUNT_METRICS},
    "experiments.write_outputs.bytes": ("B", "lower"),
    "estimators.fit_proximal.ms_p50": ("ms", "lower"),
    "estimators.fit_proximal.ms_p75": ("ms", "lower"),
    "estimators.fit_proximal.ms_per_iter": ("ms", "lower"),
    "estimators.fit_proximal.cert_max": ("1", "lower"),
    "theory.ridge_gap_max": ("1", "lower"),
    "trace.overhead_frac": ("1", "lower"),
    "trace.unattributed_frac": ("1", "lower"),
}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # heavyreg comes from this checkout's src/
    return env


def run_child(workload: str, master_seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", workload, "--master-seed", str(master_seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ops": [], "errors": [f"instance killed after {timeout:.0f} s"], "traced": trace}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ops": [], "errors": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"], "traced": trace}
    return json.loads(lines[-1])


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run instances for ``seconds`` and aggregate them into one result."""
    masters = refcheck.master_seeds(seed)
    if trace:  # traced and untraced instances must see the same inputs
        masters = masters[:1]
    references = {m: refcheck.load(workload, m) for m in masters}
    start = time.perf_counter()
    modes = itertools.cycle([False, True] if trace else [False])
    minimum = 2 * MIN_TRACED_PAIRS if trace else len(masters)
    cycle = 2 if trace else len(masters)  # stop only after a whole cycle, so each input weighs the same
    instances = []
    while len(instances) < minimum or len(instances) % cycle or time.perf_counter() - start < seconds:
        budget = TIME_LIMIT_S - (time.perf_counter() - start)
        if budget <= 0:
            break
        master = masters[len(instances) % len(masters)]
        instances.append({**run_child(workload, master, next(modes), budget), "master_seed": master})

    attempted = failed = 0
    problems = []
    for inst in instances:
        a, f, p = refcheck.score(inst["ops"], references[inst["master_seed"]])
        attempted, failed = attempted + a, failed + f
        problems += p + inst["errors"]
    for master in masters:
        digests = {inst.get("digest") for inst in instances if inst["master_seed"] == master}
        if len(digests) != 1 or None in digests:
            problems.append(f"master seed {master}: outputs differ between instances (traced or not)")

    timed = [i for i in instances if "run_s" in i]
    plain = [i for i in timed if not i["traced"]]
    traced = [i for i in timed if i["traced"]]
    if trace:
        metrics = _layer_metrics(plain, traced, problems)
    else:
        metrics = {name: _median([i[name] for i in plain]) for name in END_TO_END} if plain else {}
    if len(metrics) != len(PER_LAYER if trace else END_TO_END):
        problems.append("too few instances finished to report every metric")
    return {
        "workload": workload,
        "seed": seed,
        "master_seeds": masters,
        "trace": int(trace),
        "seconds": seconds,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "instances": [{k: i.get(k) for k in ("master_seed", "traced", *END_TO_END)} for i in instances],
        "facts": next((i["facts"] for i in timed), None),
        "computed_work": workloads.computed_work(workloads.WORKLOADS[workload]),
    }


def _layer_metrics(plain: list[dict], traced: list[dict], problems: list[str]) -> dict:
    if not (plain and traced):
        return {}
    layers = [i["layers"] for i in traced]
    if not all(i["restored"] for i in traced):
        problems.append("a tracer wrapper was not restored")
    for name in spans.COUNT_METRICS:
        if len({layer[name] for layer in layers}) != 1:
            problems.append(f"count {name} differs between traced instances: {[layer[name] for layer in layers]}")
    metrics = {}
    for name in PER_LAYER:
        if name in spans.COUNT_METRICS:
            metrics[name] = layers[0][name]
        elif name in layers[0]:
            metrics[name] = _median([layer[name] for layer in layers])
    gap = traced[0]["ridge_gap_max"]
    metrics["theory.ridge_gap_max"] = gap if gap is not None else 0.0
    traced_run = _median([i["run_s"] for i in traced])
    metrics["trace.overhead_frac"] = traced_run / _median([i["run_s"] for i in plain]) - 1.0
    unattributed = _median([i["layers"]["unattributed_s"] / i["run_s"] for i in traced])
    metrics["trace.unattributed_frac"] = unattributed
    if unattributed > MAX_UNATTRIBUTED_FRAC:
        problems.append(f"layer self times cover only {1 - unattributed:.1%} of the traced run")
    return metrics


def _report(result: dict) -> None:
    """Human-readable lines for one result (the JSON line follows at the end)."""
    units = PER_LAYER if result["trace"] else END_TO_END
    print(f"== {result['workload']}  seed {result['seed']} (master seeds {result['master_seeds']})  "
          f"trace {result['trace']}  instances {len(result['instances'])}")
    for name, value in result["metrics"].items():
        print(f"  {name:48s} {value:>14.6g} {units[name][0]}")
    print(f"  {'ops':48s} {result['attempted']:>14d} count")
    print(f"  {'ops_failed':48s} {result['failed']:>14d} count")
    print(f"  computed work: {json.dumps(result['computed_work'])}")
    print(f"  facts: {json.dumps(result['facts'])}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM {problem}", file=sys.stderr)


def write_reference(names: list[str]) -> None:
    for name in names:
        payloads = {}
        for master in range(refcheck.PINNED_SEEDS):
            inst = run_child(name, master, False, TIME_LIMIT_S)
            if inst["errors"]:
                raise SystemExit(f"{name} seed {master}: {inst['errors']}")
            payloads[master] = inst["ops"]
            print(f"{name} master seed {master}: {len(inst['ops'])} ops", file=sys.stderr)
        print(refcheck.save(name, payloads), file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results (facts, instances) to this JSON file")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"re-pin the references for master seeds 0..{refcheck.PINNED_SEEDS - 1}")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "heavyreg", "__init__.py")):
        print(f"no heavyreg source under {os.path.join(ROOT, 'src')}; run from a heavyreg checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        write_reference(names)
        return 0

    results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        _report(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": units[k][0]}
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
