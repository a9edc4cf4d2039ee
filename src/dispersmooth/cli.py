"""Command-line entry point: one subcommand per experiment.

Usage::

    dispersmooth <experiment> --config PATH [--seed U64] [--out DIR] [--quiet]

Experiments: simulate, smoothing-scan, counterexample, highlow, attractor,
xsb-constant, resonance-geometry.  Exit codes: 0 success, 2 configuration
error, 3 numerical abort (blow-up), 4 I/O error.  The environment variable
DISPERSMOOTH_THREADS caps the worker count for ensemble experiments.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .config import EXPERIMENTS, RunConfig, load_config
from .dissipative import (
    DampedParams,
    DampedState,
    attractor_diagnostics,
    integrate_damped,
)
from .errors import (
    AdmissibilityError,
    BlowUpError,
    CheckpointFormatError,
    ConfigurationError,
    DispersmoothError,
    HypothesisError,
    ResolutionError,
    ResourceLimitError,
)
from .evolution import (
    System,
    conserved_quantities,
    integrate,
    random_system_state,
)
from .highlow import HighLowConfig, run_global
from .reporting import ExperimentResult, write_outputs
from .resonance import bilinear_constant_estimate, resonant_shell_sample
from .smoothing import (
    SmoothingParams,
    sharpness_counterexample,
    smoothing_scan,
)
from .spectral import (
    Grid,
    dealias,
    lowpass_projection,
    random_sobolev_field,
    sobolev_norm,
)


def _grid(config: RunConfig) -> Grid:
    g = config.grid
    return Grid(g.dimension, g.n_per_dim, g.box_length)


def _run_simulate(config: RunConfig, seed: int) -> ExperimentResult:
    grid = _grid(config)
    system = System(config.system.kind)
    state = random_system_state(
        system,
        grid,
        config.system.s,
        config.system.r,
        seed=seed,
        amplitude=config.system.amplitude,
        wave_amplitude=config.system.wave_amplitude,
    )
    trajectory = integrate(state, config.integrator)
    rows = []
    for step, rec in zip(trajectory.steps, trajectory):
        report = conserved_quantities(rec)
        rows.append(
            (
                step,
                rec.t,
                report.mass,
                report.hamiltonian,
                sobolev_norm(rec.u, config.system.s),
                sobolev_norm(rec.wplus, config.system.r),
                sobolev_norm(rec.wminus, config.system.r),
            )
        )
    checkpoints = []
    if config.output.checkpoint:
        checkpoints.append(("state.ckpt", trajectory[-1]))
    return ExperimentResult(
        experiment="simulate",
        csv_name="timeseries.csv",
        header=["step", "t", "mass", "hamiltonian", "Hs_u", "Hr_wplus", "Hr_wminus"],
        rows=rows,
        checkpoints=checkpoints,
        manifest_extra={"dt_effective": trajectory.dt, "n_steps": trajectory.n_steps},
    )


def _run_smoothing_scan(config: RunConfig, seed: int) -> ExperimentResult:
    params = SmoothingParams(
        System(config.system.kind),
        config.grid.dimension,
        config.system.s,
        config.system.r,
        alpha_probe=config.smoothing.alpha_probe,
        beta_probe=config.smoothing.beta_probe,
        b=config.smoothing.b,
    )
    report = smoothing_scan(
        params,
        ensemble_size=config.smoothing.ensemble,
        seed=seed,
        grid=_grid(config),
        t_end=config.integrator.t_end,
        dt=config.integrator.dt,
        amplitude=config.system.amplitude,
        wave_amplitude=config.system.wave_amplitude,
    )
    rows = [
        (row.seed, row.component, row.probe, row.residual_norm, row.slope_gain)
        for row in report.rows
    ]
    return ExperimentResult(
        experiment="smoothing-scan",
        csv_name="scan.csv",
        header=["seed", "component", "alpha_probe", "residual_norm", "slope_gain"],
        rows=rows,
        manifest_extra={
            "gain_mean": report.gain_mean,
            "gain_std": report.gain_std,
            "sup_normalized_residual": report.sup_normalized_residual,
        },
    )


def _run_counterexample(config: RunConfig, seed: int) -> ExperimentResult:
    ce = config.counterexample
    rows = []
    ratios = []
    for big_n in ce.n_values:
        result = sharpness_counterexample(
            big_n,
            config.system.s,
            config.system.r,
            ce.alpha,
            ce.b,
            d=config.grid.dimension,
            branch=ce.branch,
            resolution=ce.resolution,
        )
        ratios.append(result.ratio)
        rows.append(
            (big_n, ce.alpha, result.ratio, result.u_norm, result.v_norm, result.product_norm)
        )
    slope = None
    if len(ce.n_values) >= 2:
        slope = float(
            np.polyfit(np.log(np.array(ce.n_values, dtype=float)), np.log(ratios), 1)[0]
        )
    return ExperimentResult(
        experiment="counterexample",
        csv_name="counterexample.csv",
        header=["N", "alpha", "ratio", "u_norm", "v_norm", "product_norm"],
        rows=rows,
        manifest_extra={"loglog_slope": slope, "expected_slope": ce.alpha - 0.5},
    )


def _run_highlow(config: RunConfig, seed: int) -> ExperimentResult:
    grid = _grid(config)
    state = random_system_state(
        System.KGS,
        grid,
        config.system.s,
        config.system.r,
        seed=seed,
        amplitude=config.system.amplitude,
        wave_amplitude=config.system.wave_amplitude,
    )
    hl = config.highlow
    hl_config = HighLowConfig(
        cutoff=hl.cutoff,
        s=config.system.s,
        r=config.system.r,
        r0=hl.r0,
        window_constant=hl.window_constant,
        delta=hl.delta,
        dt=config.integrator.dt,
        t_end=config.integrator.t_end,
        gns_c1=hl.gns_c1,
        gns_c2=hl.gns_c2,
        blowup_threshold=config.integrator.blowup_threshold,
    )
    if hl.windows is not None:
        hl_config = dataclasses.replace(hl_config, t_end=hl.windows * hl_config.delta)
    report = run_global(state.u, state.wplus, hl_config, compare_direct=hl.compare_direct)
    rows = []
    for i, log in enumerate(report.windows):
        diff = report.diff_vs_direct[i] if report.diff_vs_direct is not None else None
        rows.append(
            (
                log.window_index,
                log.t_end,
                log.energy_low,
                log.mass_low,
                log.increment_u_h1,
                log.increment_wave_h1,
                diff,
            )
        )
    return ExperimentResult(
        experiment="highlow",
        csv_name="highlow.csv",
        header=["window", "t", "E_low", "mass_low", "w_H1", "z_H1", "diff_vs_direct"],
        rows=rows,
        manifest_extra={
            "mass_threshold_quotient_form": report.threshold.quotient_form,
            "mass_threshold_product_form": report.threshold.product_form,
            "threshold_note": (
                "the two printed threshold forms disagree; the quotient form is"
                " operative here and both are reported"
            ),
            "initial_mass": report.initial_mass,
            "below_threshold": report.below_threshold,
            "warnings": report.warnings,
            "delta": hl_config.delta,
        },
    )


def _run_attractor(config: RunConfig, seed: int) -> ExperimentResult:
    grid = _grid(config)
    damp = config.damping
    ss = np.random.SeedSequence((damp.forcing_seed, 17))
    kids = ss.spawn(2)
    f = g = None
    if damp.forcing_amplitude != 0:
        f = damp.forcing_amplitude * dealias(random_sobolev_field(grid, 2.0, seed=kids[0]))
        g = damp.forcing_amplitude * dealias(
            random_sobolev_field(grid, 2.0, seed=kids[1], real=True)
        )
    params = DampedParams(gamma=damp.gamma, delta=damp.delta, a=damp.a, f=f, g=g)
    ss_data = np.random.SeedSequence((seed, 3))
    u_seed, v_seed, w_seed = ss_data.spawn(3)
    amp = config.system.amplitude
    band = grid.dealias_cutoff / 2
    state = DampedState(
        lowpass_projection(amp * random_sobolev_field(grid, 1.5, seed=u_seed), band),
        lowpass_projection(amp * random_sobolev_field(grid, 1.5, seed=v_seed, real=True), band),
        lowpass_projection(amp * random_sobolev_field(grid, 0.5, seed=w_seed, real=True), band),
    )
    trajectory = integrate_damped(state, params, config.integrator)
    report = attractor_diagnostics(trajectory, params)
    rows = [
        (
            r.t,
            r.energy,
            r.rate_closed,
            r.rate_fd,
            r.mass,
            r.linear_u_h1,
            r.linear_v_h1,
            r.linear_w_l2,
            r.nonlinear_u,
            r.nonlinear_v,
            r.nonlinear_w,
        )
        for r in report.rows
    ]
    return ExperimentResult(
        experiment="attractor",
        csv_name="attractor.csv",
        header=[
            "t",
            "H",
            "dH_closed",
            "dH_fd",
            "mass",
            "lin_u_H1",
            "lin_v_H1",
            "lin_w_L2",
            "nl_u_H14",
            "nl_v_H28",
            "nl_w_H18",
        ],
        rows=rows,
        manifest_extra={
            "absorbing_radius": report.absorbing_radius,
            "entry_time": report.entry_time,
            "persistent": report.persistent,
            "linear_decay_rate": report.linear_decay_rate,
            "nonlinear_tail_bounded": report.nonlinear_tail_bounded,
            "inconclusive": report.inconclusive,
            "dt_effective": trajectory.dt,
            "n_steps": trajectory.n_steps,
        },
    )


def _run_xsb_constant(config: RunConfig, seed: int) -> ExperimentResult:
    res = config.resonance
    stats = bilinear_constant_estimate(
        config.system.s,
        config.system.r,
        res.alpha,
        config.smoothing.b,
        _grid(config),
        res.time_modes,
        ensemble=res.ensemble,
        adversarial=res.adversarial,
        branch=res.branch,
        seed=seed,
        tau_spacing=res.tau_spacing,
    )
    rows = [
        (x.family, x.label, stats.n_per_dim, stats.time_modes, x.ratio)
        for x in stats.samples
    ]
    return ExperimentResult(
        experiment="xsb-constant",
        csv_name="xsb_constant.csv",
        header=["family", "label", "n_per_dim", "time_modes", "ratio"],
        rows=rows,
        manifest_extra={"max_ratio": stats.max_ratio, "mean_ratio": stats.mean_ratio},
    )


def _run_resonance_geometry(config: RunConfig, seed: int) -> ExperimentResult:
    res = config.resonance
    sample = resonant_shell_sample(
        np.array(res.xi1, dtype=float),
        nu=res.nu,
        branch=res.branch,
        count=res.count,
        seed=seed,
    )
    d = len(res.xi1)
    header = [f"xi2_{i + 1}" for i in range(d)] + ["A"]
    rows = [tuple(point) + (a,) for point, a in zip(sample.points, sample.a_values)]
    return ExperimentResult(
        experiment="resonance-geometry",
        csv_name="resonance_geometry.csv",
        header=header,
        rows=rows,
        manifest_extra={"note": sample.note, "count": len(rows)},
    )


_RUNNERS = {
    "simulate": _run_simulate,
    "smoothing-scan": _run_smoothing_scan,
    "counterexample": _run_counterexample,
    "highlow": _run_highlow,
    "attractor": _run_attractor,
    "xsb-constant": _run_xsb_constant,
    "resonance-geometry": _run_resonance_geometry,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersmooth",
        description="Pseudo-spectral experiments for coupled Schrodinger-wave systems",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the INI configuration")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = load_config(args.config, experiment=args.experiment)
        seed = args.seed if args.seed is not None else config.run.seed
        out_dir = args.out or config.run.out_dir or f"runs/{args.experiment}"
        result = _RUNNERS[args.experiment](config, seed)
        write_outputs(
            result,
            config.echo(),
            out_dir,
            seed=seed,
            quiet=args.quiet,
            wall_time=time.perf_counter() - started,
        )
    except (ConfigurationError, AdmissibilityError, HypothesisError,
            ResolutionError, ResourceLimitError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except BlowUpError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    except (OSError, CheckpointFormatError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except DispersmoothError as err:  # residual package errors are config-like
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
