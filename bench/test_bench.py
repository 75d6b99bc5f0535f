"""Self-test of the benchmark at tiny scale.

    python3 -m pytest bench

Runs every workload shrunk to a few small instances, in both modes, and
asserts that each metric BENCHMARK.json names is emitted with its unit and
that every output check passes; then shows that the coverage check catches
a wrong answer and that the bench refuses to run without the package
source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run
import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "learn-deep": {"params": {"profs": 2}},
    "cv-shallow": {"params": {"profs": 3}},
    "profile-wide": {"params": {"relations": 8, "rows": 40, "target_domain": 5}},
    "lgg-shallow": {"params": {"profs": 3, "students_per_prof": 2, "papers_per_pair": 1}},
}


def tiny(name: str):
    return dataclasses.replace(
        WORKLOADS[name], instances=2, round_s=1.0, trace_instances=2, **TINY[name]
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_and_checks_pass(name, trace):
    result, details = run.run(tiny(name), seed=3, seconds=2, trace=trace)  # two rounds
    assert details["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_coverage_check_catches_a_wrong_answer(tmp_path):
    target = gen.planted(tmp_path, seed=5, profs=2)
    instance = checks.Instance(tmp_path, target)
    rule = "advisedBy(v0,v1) :- publication(v2,v0), publication(v2,v1)."
    pos = [list(p) for p in instance.positives]
    neg = [[s, p] for s, _ in instance.positives for _, p in instance.positives
           if (s, p) not in set(instance.positives)]
    sample = {"definition": rule, "positives": pos, "negatives": neg,
              "precision": 1.0, "recall": 1.0}
    assert checks.check_coverage(sample, instance) == []
    wrong = dict(sample, recall=0.5)
    assert checks.check_coverage(wrong, instance) != []
    narrower = dict(sample, definition=rule.replace("v2,v1", "v2,v0"))
    assert checks.check_coverage(narrower, instance) != []  # that clause covers the negatives too


def test_missing_function_is_recorded_as_absent():
    import types

    module = types.SimpleNamespace(present=lambda: 1)
    module.__name__ = "mod"
    t = tracer.Tracer()
    t.wrap(module, "gone", "mod.gone")
    t.wrap(module, "present", "mod.present")
    assert module.present() == 1
    assert t.absent == ["mod.gone"]
    assert tracer.layer_metrics(t)["lgg.self_s"] == 0.0


def test_refuses_to_run_without_package_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "learn-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
