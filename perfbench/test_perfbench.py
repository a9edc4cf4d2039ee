"""Checks of the benchmark itself; not part of the package's test suite.

Run with ``python3 -m pytest perfbench`` from the repository root (about half
a minute: the smoke mode runs every workload on tiny grids).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "5",
         "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_prints_every_metric_with_its_unit(smoke):
    report, result = smoke
    assert result["correct"] and result["failed"] == 0
    blocks = report.split("\n== ")[1:]
    assert len(blocks) == len(SPEC["workloads"])
    for block in blocks:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b"
            assert re.search(pattern, block, re.M), (block.split()[0], metric["name"])
        assert re.search(r"^\s+error_rate\s+0\s+fraction\b", block, re.M)


def test_smoke_result_line(smoke):
    _, result = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for workload in SPEC["workloads"]:
        for metric in SPEC["per_layer"]:
            entry = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def test_missing_target_is_reported_absent(monkeypatch):
    """A wrap target removed by a refactor is listed, and tracing still works."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import dispersmooth.cli  # noqa: F401  (loads every module the tracer wraps)
    import dispersmooth.highlow as highlow
    from dispersmooth.evolution import IntegratorConfig, System, integrate, random_system_state
    from dispersmooth.spectral import Grid
    from tracer import Tracer

    # The tracer rebinds module attributes; record them so the test undoes it.
    for name, module in list(sys.modules.items()):
        if name == "dispersmooth" or name.startswith("dispersmooth."):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    monkeypatch.delattr(highlow, "lawson_rk4_run")
    tracer = Tracer()
    tracer.install_package()
    assert tracer.absent == ["highlow.lawson_rk4_run"]

    import dispersmooth.evolution as evolution

    state = random_system_state(System.KGS, Grid(2, 16), 1.0, 1.0, seed=1)
    evolution.integrate(state, IntegratorConfig(dt=1e-3, t_end=2e-3))
    stepper = [rec[0] for rec in tracer.spans if rec[1] == "evolution.lawson_rk4_run"]
    assert len(stepper) == 1
    for kind in ("stepper.rhs", "stepper.half_step"):
        parents = [rec[4] for rec in tracer.spans if rec[1] == kind]
        assert parents and set(parents) == set(stepper), kind
    assert integrate is not evolution.integrate  # the module binding now points at the span


def test_refuses_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
