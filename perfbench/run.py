"""Benchmark of dispersmooth's CLI on four generated workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME|all --seed N [--seconds S] --trace 0|1 [--smoke]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json; it is kept as a
flag because the benchmark command contract passes it on every run.

The seed generates the workload's INI config (workloads.py); the program only
ever sees that file.  Each process (child.py) is fresh: it imports
``dispersmooth.cli``, loads the config and calls ``cli.main`` repeatedly for
``PROCESS_SECONDS``: a closed loop with one client, one process at a time,
until ``--seconds`` have passed.  Every call's outputs are checked by the
workload's oracle and its CSV must be byte-identical to the first call's.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the untraced calls, times in reference seconds (see ``REFERENCE_S``).
``--trace 1`` alternates traced and untraced processes of one call each (and,
for the pooled workload, traced single-thread ones) and reports the per-layer
metrics.  ``--smoke`` runs every metric once on tiny grids.

A human-readable report goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from layers import layer_metrics
from workloads import WORKLOADS, Workload, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

MIN_PLAIN_PROCESSES = 3
PROCESS_SECONDS = 3.0  # calls of cli.main per process after its set-up
# End-to-end times are reported in reference seconds: wall or CPU seconds times
# REFERENCE_S over the time the reference kernel (child.Reference) took around
# the same call, i.e. seconds on a CPU that runs that kernel in REFERENCE_S.
REFERENCE_S = 0.003
RUN_LIMIT_S = 165  # a workload's samples end by then, whatever --seconds says

# ROADMAP baselines (2-CPU sandbox, about +-20% run to run), each compared
# with the traced samples of one workload and mode.
BASELINES = (
    ("evolution.step_ms.kgs", "KGS 128^2 RK4 step", 12.8, "ms", "scan-ensemble", "single"),
    ("evolution.step_ms.zakharov", "Zakharov 128^2 RK4 step", 25.5, "ms", "simulate-zakharov", "traced"),
    ("dissipative.rhs_share", "_damped_rhs share of run", 0.74, "", "attractor-damped", "traced"),
    ("dissipative.half_step_share", "damped half_step share of run", 0.12, "", "attractor-damped", "traced"),
)


@dataclass
class Sample:
    mode: str  # "plain" (untraced), "traced" or "single" (traced, DISPERSMOOTH_THREADS=1)
    error: str | None = None
    timings: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)  # wrap targets not found
    fft_modules: list = field(default_factory=list)  # FFT modules that were called


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _child_env(mode: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DISPERSMOOTH_THREADS", None)  # the program's default pool
    if mode == "single":
        env["DISPERSMOOTH_THREADS"] = "1"
    return env


def _tail(text: bytes) -> str:
    lines = text.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_process(workload: Workload, work: Path, config: Path, mode: str, index: int,
                budget: float, timeout: float) -> list[tuple[Sample, str | None]]:
    """Run one child process; returns a sample and the digest of its CSV per call.

    The first call's sample also carries the process's set-up times and peak
    resident set.
    """
    out = work / f"process-{index}"
    result = work / f"result-{index}.json"
    spans = work / f"spans-{index}.json"
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--src", str(SRC), "--experiment", workload.experiment,
        "--config", str(config), "--out", str(out), "--result", str(result),
        "--budget", f"{budget:.3f}", "--threads", str(workload.threads),
    ]
    if mode != "plain":
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(mode), capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        shutil.rmtree(out, ignore_errors=True)
        return [(Sample(mode, error=f"timed out after {timeout:.0f} s"), None)]
    if proc.returncode != 0:
        shutil.rmtree(out, ignore_errors=True)
        return [(Sample(mode, error=f"exit code {proc.returncode}: {_tail(proc.stderr)}"), None)]
    try:
        process = json.loads(result.read_text())
    except Exception as exc:
        shutil.rmtree(out, ignore_errors=True)
        return [(Sample(mode, error=f"reading the result raised {type(exc).__name__}: {exc}"), None)]
    samples = []
    for number, call in enumerate(process["calls"]):
        sample, digest = Sample(mode), None
        call_out = Path(call.pop("out"))
        timings = dict(call)
        if call["ref_s"]:
            timings["scale"] = REFERENCE_S / call["ref_s"]
        if number == 0:
            timings["setup_s"] = process["t_ready"] - spawned
            for key in ("import_s", "load_s", "peak_rss_mb"):
                timings[key] = process[key]
            if process["ref_ready_s"]:
                timings["setup_scale"] = REFERENCE_S / process["ref_ready_s"]
        try:
            timings["bytes_written"] = sum(
                p.stat().st_size for p in call_out.rglob("*") if p.is_file()
            )
            sample.timings = timings
            sample.error = workload.check(call_out)
            digest = hashlib.sha256((call_out / workload.csv_name).read_bytes()).hexdigest()
            if mode != "plain":
                trace = json.loads(spans.read_text())
                sample.layers = layer_metrics(trace, timings["run_s"], timings["cpu_s"])
                sample.absent, sample.fft_modules = trace["absent"], trace["fft_modules"]
                spans.replace(work / "spans-last.json")
        except Exception as exc:  # a missing file or column fails this call, not the run
            sample.error = f"checking outputs raised {type(exc).__name__}: {exc}"
        samples.append((sample, digest))
    shutil.rmtree(out, ignore_errors=True)
    result.unlink(missing_ok=True)
    return samples


def collect(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[list[Sample], int]:
    """All samples of one workload; returns them and the nominal step count."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    text, nominal = make_config(workload, seed, smoke)
    config = work / "config.ini"
    config.write_text(text)

    plan = ["plain"]
    if trace:
        plan = ["traced", "plain"] + (["single"] if workload.pooled else [])
    # Traced passes make one call a process, so traced and untraced calls compare alike.
    budget = 0.0 if smoke or trace else PROCESS_SECONDS
    samples: list[Sample] = []
    first_digest: str | None = None
    processes = 0
    started = time.monotonic()
    while True:
        for mode in plan:
            timeout = max(1.0, started + RUN_LIMIT_S - time.monotonic())
            for sample, digest in run_process(workload, work, config, mode, processes, budget, timeout):
                if digest is not None:
                    first_digest = first_digest or digest
                    if sample.error is None and digest != first_digest:
                        sample.error = "CSV differs from the first call's (determinism)"
                samples.append(sample)
            processes += 1
        elapsed = time.monotonic() - started
        plain = sum(s.mode == "plain" and "setup_s" in s.timings for s in samples)
        # Start another round only if it would end less than half a round late.
        cycle = elapsed / (processes / len(plan))
        if smoke or elapsed + cycle >= RUN_LIMIT_S:
            break
        if elapsed + cycle / 2 >= seconds and (trace or plain >= MIN_PLAIN_PROCESSES):
            break
    (work / "samples.json").write_text(json.dumps([vars(s) for s in samples if s.timings]))
    return samples, nominal


def end_to_end(samples: list[Sample], nominal: int) -> dict[str, list[float]]:
    """Per-call values of each end-to-end metric, times in reference seconds."""
    plain = [s.timings for s in samples if s.mode == "plain" and s.timings]
    first = [t for t in plain if "setup_s" in t]
    steps = [t["steps"] if t["steps"] is not None else nominal for t in plain]
    run = [t["run_s"] * t["scale"] for t in plain]
    return {
        "setup_s": [t["setup_s"] * t["setup_scale"] for t in first],
        "run_s": run,
        "steps_per_s": [n / r for n, r in zip(steps, run)],
        "cpu_s": [t["cpu_s"] * t["scale"] for t in plain],
        "peak_rss_mb": [t["peak_rss_mb"] for t in first],
        "wall_setup_s": [t["setup_s"] for t in first],
        "wall_run_s": [t["run_s"] for t in plain],
    }


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in samples if s.mode == "traced" and s.layers]
    plain = [s.timings for s in samples if s.mode == "plain" and s.timings]
    single = [s.timings for s in samples if s.mode == "single" and s.timings]
    metrics = {name: _median([s.layers[name] for s in traced]) for name in traced[0].layers}
    metrics["reporting.bytes_written"] = _median([s.timings["bytes_written"] for s in traced])
    metrics["cli.import_s"] = _median([t["import_s"] for t in plain if "import_s" in t])
    metrics["config.load_s"] = _median([t["load_s"] for t in plain if "load_s" in t])
    plain_run = _median([t["run_s"] for t in plain])
    traced_run = _median([s.timings["run_s"] for s in traced])
    # Both sides of the pool speed-up are traced, so the tracing cost cancels.
    speedup = _median([t["run_s"] for t in single]) / traced_run if single else 0.0
    threads = metrics["smoothing.pool_threads"]
    metrics["smoothing.pool_speedup"] = speedup
    metrics["smoothing.pool_efficiency"] = speedup / threads if threads else 0.0
    metrics["trace.overhead_frac"] = traced_run / plain_run - 1.0
    return metrics


def machine_facts() -> dict[str, str]:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((x.split(":", 1)[1].strip() for x in lines if x.startswith("model name")), "unknown")
    facts = {"nproc": str(os.cpu_count()), "cpu": model, "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = "absent"
    return facts


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: Workload, seed: int, samples: list[Sample], nominal: int,
           e2e: dict[str, list[float]], layers: dict[str, float] | None, units: dict[str, str]) -> None:
    out = sys.stderr
    failed = [s for s in samples if s.error is not None]
    plain = [s.timings for s in samples if s.mode == "plain" and s.timings]
    print(f"\n== {workload.name} (experiment {workload.experiment}, seed {seed})", file=out)
    print(f"   samples attempted {len(samples)}, failed {len(failed)}, untraced timed {len(plain)}", file=out)
    for s in failed:
        print(f"   FAILED [{s.mode}]: {s.error}", file=out)
    counted = {t["steps"] for t in plain}
    if counted - {nominal}:
        print(f"   note: counted RK4 steps {sorted(counted, key=str)} differ from nominal {nominal}", file=out)
    print(f"   {'metric':<38}{'median':>14}  unit        n  [min .. max]", file=out)
    for name, values in e2e.items():
        unit = units.get(name, "s")
        extent = f"[{_fmt(min(values))} .. {_fmt(max(values))}]"
        print(f"   {name:<38}{_fmt(_median(values)):>14}  {unit:<10}{len(values):>3}  {extent}", file=out)
    print(f"   {'error_rate':<38}{_fmt(len(failed) / len(samples)):>14}  {'fraction':<10}{len(samples):>3}", file=out)
    print("   times are in reference seconds (see README); wall_* are the unscaled wall times", file=out)
    if layers is None:
        return
    traced = [s for s in samples if s.mode == "traced" and s.layers]
    print(f"   per-layer, median of {len(traced)} traced samples:", file=out)
    for name, value in layers.items():
        print(f"   {name:<38}{_fmt(value):>14}  {units.get(name, '')}", file=out)
    print(f"   transform module in use: {', '.join(traced[-1].fft_modules) or 'none'}", file=out)
    for target in traced[-1].absent:
        print(f"   wrap target absent: {target}", file=out)
    for name, label, baseline, unit, where, mode in BASELINES:
        value = _median([s.layers[name] for s in samples if s.mode == mode and s.layers])
        if workload.name == where and value:
            within = abs(value / baseline - 1.0) <= 0.2
            shown = f"{value:.4g} {unit}" if unit else f"{100 * value:.1f}%"
            base = f"{baseline:g} {unit}" if unit else f"{100 * baseline:.0f}%"
            print(f"   baseline check: {label}: measured {shown} ({mode} samples), ROADMAP {base}, "
                  f"{'within' if within else 'outside'} +-20%", file=out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one sample of each kind")
    args = parser.parse_args()

    if not (SRC / "dispersmooth" / "cli.py").is_file():
        print(f"no dispersmooth sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()), file=sys.stderr)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        samples, nominal = collect(workload, args.seed, seconds, bool(args.trace), args.smoke)
        attempted += len(samples)
        failed += sum(s.error is not None for s in samples)
        if not any(s.mode == "plain" and s.timings for s in samples) or (
            args.trace and not any(s.layers for s in samples)
        ):
            report(workload, args.seed, samples, nominal, {}, None, units)
            print(f"{name}: no sample completed; nothing to report", file=sys.stderr)
            return 1
        e2e = end_to_end(samples, nominal)
        layers = per_layer(samples) if args.trace else None
        report(workload, args.seed, samples, nominal, e2e, layers, units)
        values = layers if args.trace else {k: _median(v) for k, v in e2e.items()}
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in section:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
