"""One workload instance in a fresh process.

    python3 heavybench/child.py --root ROOT --workload NAME --master-seed S [--trace]

Imports heavyreg from ``ROOT/src`` (set-up), runs the workload's timed
section once, and prints one JSON line: timings, CPU time, peak memory, the
ops for the reference check, a digest of the outputs and, when traced, the
per-layer metrics.  ``run.py`` starts these; tests call ``run_instance``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import spans
import workloads


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def output_digest(ops: list, paths: dict) -> str:
    """SHA-256 of the ops and the written artifacts, without ``wall_ms``.

    ``wall_ms`` is the CSV's last column and the only physical-time field;
    everything else must be byte-identical for one seed, traced or not.
    """
    h = hashlib.sha256(json.dumps(ops).encode())
    for label in sorted(paths):
        with open(paths[label], "rb") as fh:
            data = fh.read()
        if label == "csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        h.update(label.encode() + b"\0" + data)
    return h.hexdigest()


def run_instance(root: str, workload_name: str, seed: int, trace: bool, tiny: bool = False) -> dict:
    """Set up and run one instance in this process; return its measurements."""
    workload = workloads.WORKLOADS[workload_name]
    t0 = time.perf_counter()
    import heavyreg as hr

    state = workload.setup(hr, seed, tiny)
    setup_s = time.perf_counter() - t0

    recorder = spans.Recorder() if trace else None
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    patches = spans.install(recorder) if trace else []
    try:
        cpu0 = _cpu_seconds()
        t1 = time.perf_counter()
        root_span = recorder.open(spans.ROOT) if trace else None
        try:
            out = workload.run(hr, state, work_dir)
        except Exception:  # the program raised: every op of the instance fails
            out = {"ops": [], "paths": {}, "errors": [traceback.format_exc()]}
        finally:
            if trace:
                recorder.close(root_span)
        run_s = time.perf_counter() - t1
        cpu_s = _cpu_seconds() - cpu0
        digest = output_digest(out["ops"], out["paths"]) if not out.get("errors") else None
    finally:
        try:
            spans.restore(patches)
            restored = True
        except RuntimeError:
            restored = False
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": out["ops"],
        "errors": out.get("errors", []),
        "digest": digest,
        "ridge_gap_max": out.get("ridge_gap_max"),
        "traced": trace,
    }
    if trace:
        result["layers"] = spans.layer_metrics(recorder)
        result["restored"] = restored
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    result = run_instance(args.root, args.workload, args.master_seed, args.trace)
    import heavyreg

    if not os.path.abspath(heavyreg.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"heavyreg was imported from {heavyreg.__file__}, not from {src}", file=sys.stderr)
        return 2
    import machine

    result["facts"] = machine.facts(args.root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
