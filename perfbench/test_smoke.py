"""Smoke test of the benchmark harness on tiny versions of every workload.

    python3 -m pytest perfbench/test_smoke.py -q

It checks the output contract against BENCHMARK.json, that two runs of
the same seed give identical digests and exact counters, and that the
traced run's self times plus its unattributed remainder add up to its wall
time.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "blobs-lm_mining": {"per_class": 25, "epochs": 2, "instances": 2},
    "cnn-mm_hardmin": {"classes": 2, "per_class": 30, "spacing": 0.5, "epochs": 1},
    "blobs3k-eval-verify": {"per_class": 30, "epochs": 1, "instances": 2},
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch, tmp_path):
    tiny = {name: dataclasses.replace(w, **TINY[name]) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "RESULTS", tmp_path)


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_follows_the_contract(name, trace, section, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = last_line(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_runs_repeat_their_digests(name):
    w = workloads.WORKLOADS[name]
    first = run.run_workload(w, 5, 0, trace=False)
    second = run.run_workload(w, 5, 0, trace=False)
    assert first["correct"] and second["correct"]
    assert first["digests"] == second["digests"]
    assert len(first["digests"]) == w.instances
    for digests in first["digests"].values():
        assert {"epoch_log", "eval_report.json", "verify_summary.json"} <= set(digests)


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_accounts_for_its_wall_time(name):
    w = workloads.WORKLOADS[name]
    first = run.run_workload(w, 5, 0, trace=True)
    second = run.run_workload(w, 5, 0, trace=True)
    m = {k: v for k, (v, _unit) in first["metrics"].items()}
    attributed = sum(v for k, v in m.items()
                     if k.endswith(".self_s") or k.endswith((".forward_s", ".backward_s")))
    assert attributed + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert first["info"]["counts"] == second["info"]["counts"]
    calls = {k: v for k, (v, _u) in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, (v, _u) in second["metrics"].items() if k.endswith(".calls")}


def test_empty_checkout_fails_without_a_result(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cnn-mm_hardmin",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
