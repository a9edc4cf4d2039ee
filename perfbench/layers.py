"""Per-layer metrics from one traced sample's spans (see tracer.py).

Self time is a span's duration minus its children's durations; children run
on the parent's thread, one after another, so they never overlap.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import STEPPER, STEPPER_CALLABLES, TRANSFORMS

KINDS = ("kgs", "zakharov", "damped", "window")
DIAGNOSTICS = (
    "evolution.conserved_quantities",
    "spectral.sobolev_norm",
    "dissipative.attractor_diagnostics",
    "smoothing.duhamel_residual",
    "highlow.low_energy",
)


def _ms(total_s: float, count: int) -> float:
    return 1e3 * total_s / count if count else 0.0


def layer_metrics(trace: dict, run_s: float, cpu_s: float) -> dict[str, float]:
    """Span-derived metrics of one traced ``cli.main`` call of ``run_s`` s wall, ``cpu_s`` s CPU."""
    spans = {rec[0]: rec for rec in trace["spans"]}
    dur = {i: rec[3] - rec[2] for i, rec in spans.items()}
    by_name: dict[str, list[int]] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    for i, rec in spans.items():
        by_name[rec[1]].append(i)
        if rec[4] in spans:
            child_s[rec[4]] += dur[i]

    def ancestors(i):
        parent = spans[i][4]
        while parent in spans:
            yield parent
            parent = spans[parent][4]

    def total(ids) -> float:
        return sum(dur[i] for i in ids)

    def selftime(ids) -> float:
        return sum(dur[i] - child_s[i] for i in ids)

    def mean_ms(ids) -> float:
        return _ms(total(ids), len(ids))

    # The right-side kind of a stepper call comes from the nearest integrator
    # around it: the direct solver inside run_global is KGS, the rest window.
    def kind_of(i) -> str:
        for a in ancestors(i):
            name = spans[a][1]
            if name in ("evolution.integrate", "dissipative.integrate_damped"):
                return (spans[a][6] or {}).get("system") or "other"
            if name == "highlow.run_global":
                return "window"
        return "other"

    stepper_kind = {i: kind_of(i) for i in by_name[STEPPER]}
    calls: dict[str, dict[str, list[int]]] = {cb: defaultdict(list) for cb in STEPPER_CALLABLES}
    for cb, groups in calls.items():
        for i in by_name[f"stepper.{cb}"]:
            groups[stepper_kind.get(spans[i][4], "other")].append(i)

    fft_ids = [i for name, ids in by_name.items() if name.startswith("fft:") for i in ids]
    rhs_ids = {i for ids in calls["rhs"].values() for i in ids}
    fft_per_kind: dict[str, int] = defaultdict(int)
    for i in fft_ids:
        for a in ancestors(i):
            if a in rhs_ids:
                fft_per_kind[stepper_kind.get(spans[a][4], "other")] += 1
                break

    def is_transform(i) -> bool:
        return spans[i][1].startswith("fft:") or spans[i][1] in TRANSFORMS

    transform_ids = [i for i in spans if is_transform(i)]
    outer_transforms = [i for i in transform_ids if not (spans[i][4] in spans and is_transform(spans[i][4]))]
    fft_s = total(outer_transforms)

    steps_of: dict[str, int] = defaultdict(int)
    for i, kind in stepper_kind.items():
        steps_of[kind] += int((spans[i][6] or {}).get("n_steps") or 0)
    steps = sum(steps_of.values())

    integrators = by_name["evolution.integrate"] + by_name["dissipative.integrate_damped"]
    records = sum((spans[i][6] or {}).get("records", 0) for i in integrators)
    in_stepper = set(stepper_kind)
    diag_ids = [
        i
        for name in DIAGNOSTICS
        for i in by_name[name]
        if not any(spans[a][1] in DIAGNOSTICS or a in in_stepper for a in ancestors(i))
    ]

    all_rhs = [i for ids in calls["rhs"].values() for i in ids]
    all_half = [i for ids in calls["half_step"].values() for i in ids]
    all_obs = [i for ids in calls["observer"].values() for i in ids]

    m: dict[str, float] = {
        "spectral.fft_calls": len(fft_ids),
        "spectral.fft_s": fft_s,
        "spectral.fft_share": fft_s / cpu_s if cpu_s else 0.0,
        "spectral.fft_bytes_computed": sum((spans[i][6] or {}).get("bytes", 0) for i in fft_ids),
        "evolution.steps": steps,
        "evolution.step_ms": _ms(total(stepper_kind), steps),
        "evolution.rhs_calls": len(all_rhs),
        "evolution.rhs_ms": mean_ms(all_rhs),
        "evolution.half_step_calls": len(all_half),
        "evolution.half_step_calls_per_step": len(all_half) / steps if steps else 0.0,
        "evolution.half_step_ms": mean_ms(all_half),
        "evolution.observer_ms": mean_ms(all_obs),
        "evolution.stepper_self_s": selftime(stepper_kind),
        "evolution.records": records,
        "evolution.diagnostics_ms_per_record": _ms(total(diag_ids), records),
    }
    for kind in KINDS:
        n_rhs = len(calls["rhs"][kind])
        m[f"spectral.fft_calls_per_rhs.{kind}"] = fft_per_kind[kind] / n_rhs if n_rhs else 0.0
        kind_steppers = [i for i, k in stepper_kind.items() if k == kind]
        m[f"evolution.step_ms.{kind}"] = _ms(total(kind_steppers), steps_of[kind])

    damped_half = calls["half_step"]["damped"]
    m.update({
        "dissipative.rhs_ms": mean_ms(calls["rhs"]["damped"]),
        "dissipative.half_step_ms": mean_ms(damped_half),
        "dissipative.rhs_share": total(calls["rhs"]["damped"]) / run_s,
        "dissipative.half_step_share": total(damped_half) / run_s,
        "dissipative.diagnostics_s": total(by_name["dissipative.attractor_diagnostics"]),
    })

    windows = [i for i, k in stepper_kind.items() if k == "window"]
    run_global = by_name["highlow.run_global"]
    direct = [
        i for i in by_name["evolution.integrate"]
        if any(spans[a][1] == "highlow.run_global" for a in ancestors(i))
    ]
    m.update({
        "highlow.windows": len(windows),
        "highlow.window_rhs_ms": mean_ms(calls["rhs"]["window"]),
        "highlow.window_s": total(windows) / len(windows) if windows else 0.0,
        "highlow.reassembly_ms": _ms(selftime(run_global), len(windows)),
        "highlow.direct_share": total(direct) / total(run_global) if run_global else 0.0,
    })

    # Ensemble members are the integrations that start inside the scan,
    # on whichever pool thread ran them.
    scans = [spans[i] for i in by_name["smoothing.smoothing_scan"]]
    members = [
        i for i in by_name["evolution.integrate"]
        if any(s[2] <= spans[i][2] <= s[3] for s in scans)
    ]
    m.update({
        "smoothing.members": len(members),
        "smoothing.member_s": total(members) / len(members) if members else 0.0,
        "smoothing.residual_s": total(by_name["smoothing.duhamel_residual"]),
        "smoothing.pool_threads": len({spans[i][5] for i in members}),
        "reporting.write_s": total(by_name["reporting.write_outputs"]),
        "trace.absent_targets": len(trace["absent"]),
    })
    return m
