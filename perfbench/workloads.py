"""The four benchmark workloads: generated configs and output oracles.

Each workload turns a bench seed into an INI config (only the data and
forcing seeds depend on it, so the work per run is fixed) and checks a
finished run's outputs against an oracle, never against golden bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    csv_name: str
    pooled: bool  # runs ensemble members on the program's thread pool
    make: Callable[[random.Random, bool], tuple[str, int]]  # -> (ini text, nominal steps)
    check: Callable[[Path], str | None]  # -> failure message, or None when correct

    @property
    def threads(self) -> int:
        """Threads the run keeps busy: the program's default pool is min(4, nproc)."""
        return min(4, os.cpu_count() or 1) if self.pooled else 1


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _rows(out: Path, name: str) -> list[dict[str, str]]:
    with open(out / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _results(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text()).get("results", {})


def _is_true(value) -> bool:
    # numpy booleans reach the manifest through ``default=str``.
    return value is True or value == "True"


# ---------------------------------------------------------------------------
# simulate-zakharov: 128^2 Zakharov, every step recorded
# ---------------------------------------------------------------------------

SIM_DRIFT_BOUND = 1e-8  # relative mass and Hamiltonian drift


def _simulate_make(rng: random.Random, smoke: bool) -> tuple[str, int]:
    n, steps, every = (32, 4, 1) if smoke else (128, 30, 1)
    dt = 1e-3
    text = _ini({
        "run": {"seed": rng.randrange(2**31)},
        "grid": {"dimension": 2, "n_per_dim": n},
        "system": {"kind": "zakharov", "s": 1.5, "r": 1.5, "amplitude": 1.0},
        "integrator": {"dt": dt, "t_end": steps * dt, "record_every": every},
        "output": {"checkpoint": "true"},
    })
    return text, steps


def _simulate_check(out: Path) -> str | None:
    rows = _rows(out, "timeseries.csv")
    if len(rows) < 2:
        return f"timeseries.csv has {len(rows)} rows"
    for column in ("mass", "hamiltonian"):
        values = [float(r[column]) for r in rows]
        drift = max(abs(v - values[0]) for v in values) / abs(values[0])
        if not drift <= SIM_DRIFT_BOUND:
            return f"relative {column} drift {drift:.3e} > {SIM_DRIFT_BOUND:g}"
    return None


# ---------------------------------------------------------------------------
# attractor-damped: 64^2 damped/forced system, sparse recording
# ---------------------------------------------------------------------------

ATTRACTOR_RATE_TOL = 1e-2  # of max |dH_closed|


def _attractor_make(rng: random.Random, smoke: bool) -> tuple[str, int]:
    # gamma = delta = 3, a = 1.5 give a damping scale of 1.5, so any horizon
    # above 8/3 clears the diagnostics' "span * scale >= 4" conclusiveness test.
    n, dt, every, t_end = (32, 1e-2, 10, 3.0) if smoke else (64, 1e-2, 10, 3.0)
    steps = round(t_end / dt)
    text = _ini({
        "run": {"seed": rng.randrange(2**31)},
        "grid": {"dimension": 2, "n_per_dim": n},
        "system": {"amplitude": 1.0},
        "integrator": {"dt": dt, "t_end": t_end, "record_every": every},
        "damping": {
            "gamma": 3.0,
            "delta": 3.0,
            "a": 1.5,
            "forcing_amplitude": 0.3,
            "forcing_seed": rng.randrange(2**31),
        },
    })
    return text, steps


def _attractor_check(out: Path) -> str | None:
    if _is_true(_results(out).get("inconclusive")):
        return "attractor diagnostics flagged the run inconclusive"
    rows = _rows(out, "attractor.csv")
    closed = [float(r["dH_closed"]) for r in rows]
    fd = [float(r["dH_fd"]) for r in rows]
    scale = max(abs(c) for c in closed)
    # The centred difference (H[i+1] - H[i-1]) / 2h is exactly the mean of dH/dt
    # over [t[i-1], t[i+1]]; Simpson's rule on the closed-form rates estimates
    # the same mean to O(h^4), so sparse recording still gives a tight check.
    for i in range(1, len(rows) - 1):
        simpson = (closed[i - 1] + 4.0 * closed[i] + closed[i + 1]) / 6.0
        err = abs(fd[i] - simpson) / scale
        if not err <= ATTRACTOR_RATE_TOL:
            return f"dH_fd vs closed form at t={rows[i]['t']}: {err:.3e} > {ATTRACTOR_RATE_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# highlow-split: 64^2 six-field windows plus the direct solver
# ---------------------------------------------------------------------------

HIGHLOW_DIFF_BOUND = 1e-12  # relative L2 difference to the direct solve


def _highlow_make(rng: random.Random, smoke: bool) -> tuple[str, int]:
    n, windows = (32, 2) if smoke else (64, 3)
    dt, delta = 2e-3, 0.0675  # 34 inner steps a window
    text = _ini({
        "run": {"seed": rng.randrange(2**31)},
        "grid": {"dimension": 2, "n_per_dim": n},
        "system": {"kind": "kgs", "s": 0.95, "r": 0.95, "amplitude": 0.5},
        "integrator": {"dt": dt},
        "highlow": {"cutoff": 8, "delta": delta, "windows": windows, "compare_direct": "true"},
    })
    # Each window integrates the split system and the direct system.
    return text, 2 * windows * math.ceil(delta / dt)


def _highlow_check(out: Path) -> str | None:
    rows = _rows(out, "highlow.csv")
    if not rows:
        return "highlow.csv has no windows"
    worst = max(float(r["diff_vs_direct"]) for r in rows)
    if not worst <= HIGHLOW_DIFF_BOUND:
        return f"max diff_vs_direct {worst:.3e} > {HIGHLOW_DIFF_BOUND:g}"
    return None


# ---------------------------------------------------------------------------
# scan-ensemble: 128^2 KGS smoothing scan on the default pool
# ---------------------------------------------------------------------------

SCAN_U_GAIN, SCAN_WAVE_GAIN = 0.35, 1.0  # acceptance criterion 3


def _scan_make(rng: random.Random, smoke: bool) -> tuple[str, int]:
    # Four members: twice the workers of a 2-core machine's default pool.
    n, steps, members = (64, 10, 4) if smoke else (128, 25, 4)
    dt = 2e-3
    text = _ini({
        "run": {"seed": rng.randrange(2**31)},
        "grid": {"dimension": 2, "n_per_dim": n},
        "system": {"kind": "kgs", "s": 0.0, "r": 0.0},
        "integrator": {"dt": dt, "t_end": steps * dt},
        "smoothing": {"alpha_probe": 0.4, "beta_probe": 1.2, "b": 0.55, "ensemble": members},
    })
    return text, steps * members


def _scan_check(out: Path) -> str | None:
    gains = _results(out).get("gain_mean", {})
    u_gain, w_gain = gains.get("u", math.nan), gains.get("wplus", math.nan)
    if not u_gain >= SCAN_U_GAIN:
        return f"u-residual slope gain {u_gain} < {SCAN_U_GAIN}"
    if not w_gain >= SCAN_WAVE_GAIN:
        return f"wave-residual slope gain {w_gain} < {SCAN_WAVE_GAIN}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-zakharov", "simulate", "timeseries.csv", False, _simulate_make, _simulate_check),
        Workload("attractor-damped", "attractor", "attractor.csv", False, _attractor_make, _attractor_check),
        Workload("highlow-split", "highlow", "highlow.csv", False, _highlow_make, _highlow_check),
        Workload("scan-ensemble", "smoothing-scan", "scan.csv", True, _scan_make, _scan_check),
    )
}


def make_config(workload: Workload, seed: int, smoke: bool) -> tuple[str, int]:
    """INI text and nominal RK4 step count for ``workload`` under ``seed``."""
    return workload.make(random.Random(f"{workload.name}:{seed}"), smoke)
