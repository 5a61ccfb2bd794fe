"""Tests of the benchmark itself: span arithmetic, wrapper restore, exact
repeat of traced counts, and the reference check.

Run with ``python -m pytest heavybench``; workloads run at a tiny size.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
if importlib.util.find_spec("heavyreg") is None:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import heavyreg  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.child", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(s)) == s[0].duration


def test_recorder_nests_and_reports_root_self_time():
    rec = spans.Recorder()
    root = rec.open(spans.ROOT)
    inner = rec.open("experiments")
    assert rec.current() == "experiments"
    rec.close(inner, {"bytes": 3})
    rec.close(root)
    assert [s.parent for s in rec.spans] == [-1, 0]
    metrics = spans.layer_metrics(rec)
    assert metrics["experiments.self_s"] == pytest.approx(rec.spans[1].duration)
    assert metrics["unattributed_s"] == pytest.approx(rec.spans[0].duration - rec.spans[1].duration)


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    bindings = [b for b, _, _ in spans.SPANNED] + [b for b, _ in spans.COUNTED]
    originals = [getattr(*spans._resolve(b)) for b in bindings]
    patches = spans.install(spans.Recorder())
    try:
        assert [getattr(*spans._resolve(b)) is o for b, o in zip(bindings, originals)] == [False] * len(bindings)
    finally:
        spans.restore(patches)
    assert all(getattr(*spans._resolve(b)) is o for b, o in zip(bindings, originals))


@pytest.mark.parametrize("name", ["trichotomy-huber", "theory-grid"])
def test_traced_counts_repeat_exactly_and_outputs_match_untraced(name, tmp_path):
    first = child.run_instance(str(tmp_path), name, 3, trace=True, tiny=True)
    second = child.run_instance(str(tmp_path), name, 3, trace=True, tiny=True)
    plain = child.run_instance(str(tmp_path), name, 3, trace=False, tiny=True)
    assert first["restored"] and second["restored"]
    assert first["errors"] == [] and plain["errors"] == []
    counts = [{k: r["layers"][k] for k in spans.COUNT_METRICS} for r in (first, second)]
    assert counts[0] == counts[1]
    layer = "estimators.fit_proximal.calls" if name == "trichotomy-huber" else "theory.solve_general_fixed_point.calls"
    assert counts[0][layer] > 0
    assert first["digest"] == second["digest"] == plain["digest"]


def test_experiment_eigh_excludes_the_one_inside_decompose(tmp_path):
    result = child.run_instance(str(tmp_path), "transient-paper", 0, trace=True, tiny=True)
    reps = workloads.WORKLOADS["transient-paper"].setup(heavyreg, 0, True).replications
    assert result["layers"]["experiments.eigh.calls"] == reps
    assert result["layers"]["spectrum.decompose.self_s"] > 0.0


def test_reference_check_flags_a_perturbed_risk(tmp_path):
    ops = child.run_instance(str(tmp_path), "floor-lasso", 5, trace=False, tiny=True)["ops"]
    reference = [(tuple(key), value) for key, value, _ in ops]
    assert refcheck.score(ops, reference)[:2] == (len(ops), 0)

    risk_at = next(i for i, (key, value) in enumerate(reference) if key[0] == "record" and value > 1.0e-3)
    perturbed = list(reference)
    key, value = perturbed[risk_at]
    perturbed[risk_at] = (key, value * (1.0 + 1.0e-4))
    attempted, failed, problems = refcheck.score(ops, perturbed)
    assert (attempted, failed) == (len(ops), 1)
    assert "differs from reference" in problems[0]

    check_at = next(i for i, (key, _) in enumerate(reference) if key[0] == "check")
    flipped = list(reference)
    flipped[check_at] = (flipped[check_at][0], 1.0 - flipped[check_at][1])
    assert refcheck.score(ops, flipped)[1] == 1

    not_ok = [list(op) for op in ops]
    not_ok[risk_at][2] = False
    assert refcheck.score(not_ok, reference)[1] == 1
    assert refcheck.score(ops[1:], reference)[:2] == (len(ops), 1)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["paths"] == ["heavybench"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "heavybench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "heavybench/run.py", "--workload", "floor-lasso", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
