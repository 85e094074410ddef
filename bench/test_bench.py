"""Tests of the benchmark itself; run with ``pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import compare, layers, runner
from bench.__main__ import main
from bench.spec import ROOT, load_benchmark, use_checkout_src


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _printed_units(table: str) -> "dict[str, str]":
    """Metric name -> unit from one workload's table in ``run`` output."""
    units = {}
    for line in table.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3 and parts[0] != "check":
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(tmp_path: Path,
                                                trace: int) -> None:
    began = time.perf_counter()
    proc = _bench("run", "--smoke", "--seconds", "1", "--trace", str(trace),
                  "--out", str(tmp_path))
    elapsed = time.perf_counter() - began
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    spec = load_benchmark()
    tables = proc.stdout.split("== ")[1:]
    assert len(tables) == len(spec["workloads"])
    for table in tables:
        units = _printed_units(table)
        for metric in spec["per_layer" if trace else "end_to_end"]:
            assert units.get(metric["name"]) == metric["unit"], \
                (table.splitlines()[0], metric["name"])
    if trace:
        for trace_file in sorted(tmp_path.glob("*.trace.jsonl")):
            assert layers.report(trace_file) == 0, trace_file
    else:
        assert elapsed < 30
        same = _bench("compare", str(tmp_path), "--", str(tmp_path))
        assert same.returncode == 0, same.stdout
        assert "worse" not in same.stdout


def test_flipped_detection_exits_nonzero(tmp_path: Path,
                                         monkeypatch: pytest.MonkeyPatch) -> None:
    use_checkout_src()
    from repro.engine.core import DetectorEngine

    ingest = DetectorEngine.ingest

    def flipped(self: DetectorEngine, batch: object) -> object:
        detections = ingest(self, batch)
        detections[0] = ~detections[0]
        return detections

    monkeypatch.setattr(DetectorEngine, "ingest", flipped)
    result = tmp_path / "result.json"
    code = main(["_child", "--workload", "engine-d3", "--seed", "0",
                 "--seconds", "1", "--trace", "0", "--result", str(result),
                 "--smoke"])
    assert code != 0
    assert not json.loads(result.read_text())["correct"]


def test_missing_metric_fails() -> None:
    wanted = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": 1.5, "unit": unit}
                          for name, unit in wanted.items()}}
    assert runner.summarize({"engine-d3": result}, wanted)[0] == 0
    del result["metrics"]["setup_s"]
    code, final = runner.summarize({"engine-d3": result}, wanted)
    assert code == 1
    assert "setup_s" not in final["metrics"]


def test_checkout_without_program_fails(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = load_benchmark()["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "engine-d3", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts() -> None:
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    verdict = compare.verdict
    assert verdict(base, [120, 121, 119, 120, 122], "higher", 0.1)[
        "verdict"] == "better"
    assert verdict(base, [80, 81, 79, 80, 82], "higher", 0.1)[
        "verdict"] == "worse"
    assert verdict(base, [100, 100.2, 99.8, 100.1, 99.9], "higher", 0.1)[
        "verdict"] == "unchanged"
    noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
    assert verdict(noisy, [95, 105, 90, 110, 100], "higher", 0.1)[
        "verdict"] == "unresolved"
    # A zero bound makes any increase a regression.
    assert verdict([0.0, 0.0, 0.0], [0.0, 0.1, 0.1], "lower", 0.0)[
        "verdict"] == "worse"


def test_ledger_self_times_add_up_to_wall() -> None:
    windows = [(0, 100)]
    spans = [("inner", 20, 50, 2, 1, 1, 0), ("inner", 60, 70, 3, 1, 1, 5),
             ("outer", 10, 90, 1, 0, 1, 0)]
    book = layers.ledger(windows, spans)
    assert book["sites"]["outer"]["self_ns"] == 40
    assert book["sites"]["inner"] == {"calls": 2, "self_ns": 40, "rows": 5}
    assert book["unattributed_ns"] == 20
    with pytest.raises(layers.LedgerError):
        layers.ledger(windows, [("outer", 10, 30, 1, 0, 1, 0),
                                ("inner", 5, 50, 2, 1, 1, 0)])


def test_recorder_restores_every_site() -> None:
    use_checkout_src()
    all_sites = layers.sites()
    before = [site.owner.__dict__[site.attr] for site in all_sites]
    with pytest.raises(RuntimeError):
        with layers.Recorder().installed(all_sites):
            assert all(site.owner.__dict__[site.attr] is not fn
                       for site, fn in zip(all_sites, before))
            raise RuntimeError("leave the traced window")
    assert [site.owner.__dict__[site.attr] for site in all_sites] == before
