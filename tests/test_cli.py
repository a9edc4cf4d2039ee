"""End-to-end CLI tests: subcommands, exit codes, output determinism."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dispersmooth
from dispersmooth import cli, spectral
from dispersmooth.cli import main
from dispersmooth.config import EXPERIMENTS, MAX_ENSEMBLE, MAX_SHELL_POINTS, load_config
from dispersmooth.evolution import System, integrate, random_system_state
from dispersmooth.reporting import Checkpoint, format_value, save_checkpoint
from dispersmooth.smoothing import worker_count

from conftest import lowpass_attractor_state, simulate_row


class TestWorkerCount:
    def test_env_variable_caps_workers(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("DISPERSMOOTH_THREADS", "2")
        assert worker_count() == 2

    def test_env_variable_is_capped_at_the_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("DISPERSMOOTH_THREADS", "64")
        assert worker_count() == 2

    def test_garbage_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("DISPERSMOOTH_THREADS", "many")
        assert worker_count() >= 1


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SIMULATE_SMALL = """
[run]
seed = 11

[grid]
dimension = 2
n_per_dim = 16

[system]
kind = kgs
s = 1.5
r = 1.5
amplitude = 0.5

[integrator]
dt = 5e-3
t_end = 0.05
record_every = 2
"""

HIGHLOW_SMALL = """
[run]
seed = 4

[grid]
n_per_dim = 16

[system]
kind = kgs
s = 0.95
r = 0.95
amplitude = 0.4

[integrator]
dt = 5e-3

[highlow]
cutoff = 4
windows = 2
compare_direct = true
"""

SCAN_SMALL = """
[grid]
n_per_dim = 32

[system]
kind = kgs
s = 0.0
r = 0.0

[integrator]
dt = 5e-3
t_end = 0.1

[smoothing]
alpha_probe = 0.4
beta_probe = 1.2
ensemble = 2
"""

ATTRACTOR_SMALL = """
[grid]
n_per_dim = 16

[system]
amplitude = 0.3

[integrator]
dt = 1e-2
t_end = 2.0
record_every = 20

[damping]
gamma = 0.5
delta = 0.5
forcing_amplitude = 0.2
"""

XSB_SMALL = """
[grid]
n_per_dim = 32

[system]
kind = kgs
s = 0.0
r = 0.0

[resonance]
time_modes = 16
ensemble = 2
"""

COUNTEREXAMPLE_SMALL = """
[system]
kind = kgs
s = 0.0
r = 0.0

[counterexample]
alpha = 1.0
n_values = 8,16,32
resolution = 4
"""

RESONANCE_SMALL = """
[resonance]
nu = 0.05
xi1 = 16,0
branch = -1
count = 50
"""

SMALL_CONFIGS = {
    "simulate": SIMULATE_SMALL,
    "smoothing-scan": SCAN_SMALL,
    "counterexample": COUNTEREXAMPLE_SMALL,
    "highlow": HIGHLOW_SMALL,
    "attractor": ATTRACTOR_SMALL,
    "xsb-constant": XSB_SMALL,
    "resonance-geometry": RESONANCE_SMALL,
}


def run_quiet(tmp_path, experiment: str, text: str, *flags: str, code: int = 0) -> Path:
    """The out directory of a quiet ``experiment`` run on the config ``text``, which must exit ``code``."""
    out = tmp_path / "out"
    assert main([experiment, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet", *flags]) == code
    return out


def config_error(tmp_path, capsys, experiment: str, text: str, *flags: str) -> str:
    """The stderr of a quiet ``experiment`` run on the config ``text``, which must exit 2
    with a configuration error before it writes its out directory."""
    assert not run_quiet(tmp_path, experiment, text, *flags, code=2).exists()
    err = capsys.readouterr().err
    assert "configuration error" in err
    return err


def count_full_lattice(monkeypatch) -> list:
    """The names of the package's full-lattice functions called from here on, through
    every binding: the checkpoint's expansion and the plain-array transforms and norm."""
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("to_coefficients", "to_samples", "sobolev_norm"):
        fn, wrapped = getattr(spectral, name), counting(name, getattr(spectral, name))
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("dispersmooth") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(Checkpoint, "of", classmethod(counting("Checkpoint.of", Checkpoint.of.__func__)))
    return calls


def strict_manifest(out: Path) -> dict:
    """The manifest under ``out`` read as strict JSON: a NaN or Infinity fails the test."""
    text = (out / "manifest.json").read_text()
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in the manifest"))


class TestSimulate:
    def test_runs_and_writes_documented_schema(self, tmp_path, capsys):
        config = write_config(tmp_path, SIMULATE_SMALL)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "step,t,mass,hamiltonian,Hs_u,Hr_wplus,Hr_wminus"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "simulate"
        assert manifest["seed"] == 11
        assert (out / "state.ckpt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_SMALL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(out_a), "--quiet"]) == 0
        assert main(["simulate", "--config", config, "--out", str(out_b), "--quiet"]) == 0
        assert (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()
        assert (out_a / "state.ckpt").read_bytes() == (out_b / "state.ckpt").read_bytes()

    def test_dt_not_dividing_t_end_is_shortened(self, tmp_path):
        text = SIMULATE_SMALL.replace("dt = 5e-3", "dt = 0.3").replace("t_end = 0.05", "t_end = 1.0")
        out = run_quiet(tmp_path, "simulate", text)
        last = (out / "timeseries.csv").read_text().splitlines()[-1].split(",")
        assert int(last[0]) == 4
        assert float(last[1]) == 1.0
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["n_steps"] == 4
        assert results["dt_effective"] == 0.25

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_SMALL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(out_a), "--quiet", "--seed", "99"])
        main(["simulate", "--config", config, "--out", str(out_b), "--quiet"])
        assert (out_a / "timeseries.csv").read_bytes() != (out_b / "timeseries.csv").read_bytes()
        assert json.loads((out_a / "manifest.json").read_text())["seed"] == 99


    @pytest.mark.parametrize("kind", ["kgs", "zakharov"])
    def test_rows_and_checkpoint_match_the_full_records(self, tmp_path, kind):
        # The rows come from the carried box fields inside the run; the oracle
        # takes integrate's full records through the full-spectrum arithmetic.
        text = SIMULATE_SMALL.replace("n_per_dim = 16", "n_per_dim = 64").replace("kgs", kind)
        config, out = write_config(tmp_path, text), tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out), "--quiet"]) == 0
        state = random_system_state(System(kind), spectral.Grid(2, 64), 1.5, 1.5, seed=11, amplitude=0.5)
        trajectory = integrate(state, load_config(config, experiment="simulate").integrator)
        lines = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert len(lines) == len(trajectory) == 6
        for line, step, record in zip(lines, trajectory.steps, trajectory):
            got, want = line.split(","), simulate_row(record, 1.5, 1.5)
            assert got[:2] == [format_value(step), format_value(record.t)]
            for value, expected in zip(got[2:], want[1:]):
                assert float(value) == pytest.approx(expected, rel=1e-12, abs=0.0)
        save_checkpoint(Checkpoint.of(trajectory.final), tmp_path / "want.ckpt")
        assert (out / "state.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()

    def test_one_full_spectrum_expansion_per_run(self, tmp_path, monkeypatch):
        calls = count_full_lattice(monkeypatch)
        out = run_quiet(tmp_path, "simulate", SIMULATE_SMALL)
        assert len((out / "timeseries.csv").read_text().splitlines()) == 7  # header, 6 records
        assert calls == ["Checkpoint.of"]  # u and w+ of the final state; the data are drawn on the box

    @pytest.mark.parametrize("experiment", ["attractor", "highlow", "smoothing-scan"])
    def test_no_full_spectrum_in_attractor_highlow_or_scan(self, tmp_path, monkeypatch, experiment):
        # Their data are drawn on the box, and their runs, diagnostics, the
        # direct check of highlow's compare_direct and the scan's residuals
        # and fits all work on the carried box.
        calls = count_full_lattice(monkeypatch)
        assert "compare_direct = true" in HIGHLOW_SMALL
        run_quiet(tmp_path, experiment, SMALL_CONFIGS[experiment])
        assert calls == []

    @pytest.mark.parametrize("seed", ["3", "8"])
    def test_attractor_data_are_the_lowpass_oracle_bit_for_bit(self, tmp_path, monkeypatch, seed):
        states, run = [], cli.integrate_damped

        def capture(state, *args):
            states.append(state)
            return run(state, *args)

        monkeypatch.setattr(cli, "integrate_damped", capture)
        run_quiet(tmp_path, "attractor", ATTRACTOR_SMALL, "--seed", seed)
        want = lowpass_attractor_state(spectral.Grid(2, 16), int(seed), 0.3)
        assert [a.tobytes() for a in states[0].fields] == [a.tobytes() for a in want.fields]
        assert all(a.flags.c_contiguous for a in states[0].fields)

    @pytest.mark.parametrize("amplitude", ["0.5", "0.0"])
    def test_manifest_records_the_largest_relative_drifts(self, tmp_path, amplitude):
        text = SIMULATE_SMALL.replace("amplitude = 0.5", f"amplitude = {amplitude}")
        out = run_quiet(tmp_path, "simulate", text)
        results = json.loads((out / "manifest.json").read_text())["results"]
        lines = [line.split(",") for line in (out / "timeseries.csv").read_text().splitlines()[1:]]
        for key, column in (("max_relative_mass_drift", 2), ("max_relative_hamiltonian_drift", 3)):
            values = [float(line[column]) for line in lines]
            if values[0] == 0.0:  # no relative drift of a zero state
                assert amplitude == "0.0" and results[key] is None
            else:
                assert results[key] == max(abs(v - values[0]) for v in values) / abs(values[0])
                assert 0.0 < results[key] < 1e-6


class TestManifest:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_manifest_is_strict_json(self, tmp_path, experiment):
        out = run_quiet(tmp_path, experiment, SMALL_CONFIGS[experiment])
        results = strict_manifest(out)["results"]
        if experiment == "attractor":  # t_end = 2 is under 4 damping times 1/min(gamma, a, delta - a)
            assert results["inconclusive"] is True

    def test_zero_amplitude_scan_writes_null_gains(self, tmp_path):
        # No data and no residual: the slope gain is not defined (inf in
        # scan.csv), and the manifest writes its mean as null.
        text = SCAN_SMALL.replace("r = 0.0", "r = 0.0\namplitude = 0.0")
        out = run_quiet(tmp_path, "smoothing-scan", text)
        assert {line.split(",")[-1] for line in (out / "scan.csv").read_text().splitlines()[1:]} == {"inf"}
        assert strict_manifest(out)["results"]["gain_mean"] == {"u": None, "wplus": None}


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "[grid]\nn_per_dim = 13\n")
        assert main(["simulate", "--config", config, "--quiet"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_is_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_inadmissible_scan_is_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[system]\nkind = kgs\ns = -1.0\nr = 0.0\n",
        )
        assert main(["smoothing-scan", "--config", config, "--quiet"]) == 2
        assert "s > -1/4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, threshold",
        [("simulate", "1e-9"), ("highlow", "1e-9"), ("smoothing-scan", "1e-30")],
    )
    def test_blowup_is_3(self, tmp_path, capsys, experiment, threshold):
        small = {"simulate": SIMULATE_SMALL, "highlow": HIGHLOW_SMALL, "smoothing-scan": SCAN_SMALL}
        config = write_config(
            tmp_path,
            small[experiment].replace("[integrator]", f"[integrator]\nblowup_threshold = {threshold}"),
        )
        assert main([experiment, "--config", config, "--quiet"]) == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_data_above_the_threshold_aborts_at_t0(self, tmp_path, capsys):
        # The guard sees the data at step 0, so data already above the
        # threshold aborts before the first step, at the run's start time.
        text = SIMULATE_SMALL.replace("[integrator]", "[integrator]\nblowup_threshold = 1e-9")
        out = run_quiet(tmp_path, "simulate", text, code=3)
        message = capsys.readouterr().err.strip()
        assert re.fullmatch(
            r"numerical abort: blow-up detected at t=0: u_L2=\S+, v_L2=\S+, v_t_L2=\S+ \(threshold 1\.0e-09\)",
            message,
        ), message
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("t_end = 0.05", "t_end = nan"),
            ("t_end = 0.05", "t_end = inf"),
            ("t_end = 0.05", "t_end = -1"),
            ("dt = 5e-3", "dt = inf"),
            ("dt = 5e-3", "dt = 1e-320"),
            ("dt = 5e-3", "dt = 1e-300"),
        ],
    )
    def test_bad_time_grid_is_2(self, tmp_path, capsys, line, bad):
        config_error(tmp_path, capsys, "simulate", SIMULATE_SMALL.replace(line, bad))

    @pytest.mark.parametrize(
        "bad, key",
        [
            ("windows = 2\ndelta = -1", "delta"),
            ("windows = 2\ndelta = nan", "delta"),
            ("windows = 0", "windows"),
            ("windows = 2\ngns_c1 = 0", "gns_c1"),
            ("windows = 2\ngns_c2 = 0", "gns_c2"),
            ("windows = 2\ns0 = 123", "s0"),
        ],
    )
    def test_bad_highlow_window_is_2_and_named(self, tmp_path, capsys, bad, key):
        assert key in config_error(tmp_path, capsys, "highlow", HIGHLOW_SMALL.replace("windows = 2", bad))

    @pytest.mark.parametrize(
        "line, bad, key",
        [
            ("[integrator]", "[integrator]\nblowup_threshold = nan", "blowup_threshold"),
            ("[integrator]", "[integrator]\nblowup_threshold = 0", "blowup_threshold"),
            ("[integrator]", "[integrator]\nblowup_threshold = -1", "blowup_threshold"),
            ("amplitude = 0.5", "amplitude = nan", "amplitude"),
            ("amplitude = 0.5", "amplitude = inf", "amplitude"),
            ("amplitude = 0.5", "amplitude = 0.5\nwave_amplitude = -inf", "wave_amplitude"),
            ("s = 1.5", "s = nan", "[system] s must be finite"),
            ("s = 1.5", "s = inf", "[system] s must be finite"),
            ("r = 1.5", "r = nan", "[system] r must be finite"),
            ("r = 1.5", "r = -inf", "[system] r must be finite"),
        ],
    )
    def test_bad_guard_or_amplitude_is_2_and_named(self, tmp_path, capsys, line, bad, key):
        assert key in config_error(tmp_path, capsys, "simulate", SIMULATE_SMALL.replace(line, bad))

    @pytest.mark.parametrize(
        "line, bad, key",
        [
            ("gamma = 0.5", "gamma = inf", "gamma"),
            ("gamma = 0.5", "gamma = nan", "gamma"),
            ("delta = 0.5", "delta = inf", "delta"),
            ("delta = 0.5", "delta = 0.5\na = nan", "a"),
            ("forcing_amplitude = 0.2", "forcing_amplitude = nan", "forcing_amplitude"),
            ("forcing_amplitude = 0.2", "forcing_amplitude = inf", "forcing_amplitude"),
            ("forcing_amplitude = 0.2", "forcing_amplitude = -inf", "forcing_amplitude"),
        ],
    )
    def test_non_finite_damping_is_2_and_named(self, tmp_path, capsys, line, bad, key):
        err = config_error(tmp_path, capsys, "attractor", ATTRACTOR_SMALL.replace(line, bad))
        assert f" {key} must be finite" in err

    @pytest.mark.parametrize(
        "experiment, text, key",
        [
            ("smoothing-scan", "[system]\ns = 0.0\nr = 0.0\n[smoothing]\nensemble = 0\n", "ensemble"),
            ("smoothing-scan", "[system]\ns = 0.0\nr = 0.0\n[smoothing]\nensemble = -1\n", "ensemble"),
            ("xsb-constant", XSB_SMALL.replace("ensemble = 2", "ensemble = 0"), "ensemble"),
            ("xsb-constant", XSB_SMALL.replace("time_modes = 16", "time_modes = 0"), "time_modes"),
            ("resonance-geometry", "[resonance]\ncount = -5\n", "count"),
        ],
    )
    def test_count_below_one_is_2_and_named(self, tmp_path, capsys, experiment, text, key):
        assert f"{key} must be >= 1" in config_error(tmp_path, capsys, experiment, text)

    @pytest.mark.parametrize("experiment", ["xsb-constant", "resonance-geometry"])
    @pytest.mark.parametrize("branch", [7, 0])
    def test_bad_resonance_branch_is_2_and_named(self, tmp_path, capsys, experiment, branch):
        err = config_error(tmp_path, capsys, experiment, XSB_SMALL + f"branch = {branch}\n")
        assert f"branch must be 1 or -1, got {branch}" in err

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("simulate", SIMULATE_SMALL),
            ("smoothing-scan", "[system]\ns = 0.0\nr = 0.0\n"),
            ("attractor", ATTRACTOR_SMALL),
            ("highlow", HIGHLOW_SMALL),
        ],
    )
    def test_negative_seed_flag_is_2_and_named(self, tmp_path, capsys, experiment, text):
        assert "--seed must be >= 0, got -1" in config_error(tmp_path, capsys, experiment, text, "--seed", "-1")

    @pytest.mark.parametrize(
        "experiment, text, line, bad, key",
        [
            ("simulate", SIMULATE_SMALL, "seed = 11", "seed = -5", "[run] seed"),
            ("attractor", ATTRACTOR_SMALL, "gamma = 0.5", "gamma = 0.5\nforcing_seed = -3", "[damping] forcing_seed"),
        ],
    )
    def test_negative_seed_key_is_2_and_named(self, tmp_path, capsys, experiment, text, line, bad, key):
        err = config_error(tmp_path, capsys, experiment, text.replace(line, bad))
        assert f"{key} must be >= 0, got {bad[-2:]}" in err

    @pytest.mark.parametrize("bad", ["inf", "nan", "0"])
    def test_bad_box_length_is_2_and_named(self, tmp_path, capsys, bad):
        text = SIMULATE_SMALL.replace("n_per_dim = 16", f"n_per_dim = 16\nbox_length = {bad}")
        err = config_error(tmp_path, capsys, "simulate", text)
        assert f"box_length must be finite and positive, got {float(bad)}" in err

    @pytest.mark.parametrize("bad", ["1e-300", "1e300"])
    def test_box_length_outside_float_range_is_2_and_named(self, tmp_path, capsys, bad):
        # 1/dx^d divides by zero at 1e-300 and (2 pi L)^d overflows at 1e300.
        text = SIMULATE_SMALL.replace("n_per_dim = 16", f"n_per_dim = 16\nbox_length = {bad}")
        err = config_error(tmp_path, capsys, "simulate", text)
        assert f"box_length = {float(bad)} puts dx^d, the volume (2 pi L)^d or |xi|^2 outside the float range" in err

    @pytest.mark.parametrize("s", ["200", "-200"])
    def test_step_rule_out_of_range_is_2_and_named(self, tmp_path, capsys, s):
        # A large m overflows N^(-2(1-m)/r0 - 0.01); a very negative one underflows it to 0.
        text = HIGHLOW_SMALL.replace("s = 0.95\nr = 0.95", f"s = {s}\nr = {s}")
        err = config_error(tmp_path, capsys, "highlow", text)
        assert "configuration error: the [highlow] step rule gives delta = " in err
        assert "set [highlow] delta" in err

    @pytest.mark.parametrize("line, bad", [("s = 0.95", "s = nan"), ("r = 0.95", "r = inf")])
    def test_non_finite_regularity_is_2_for_highlow(self, tmp_path, capsys, line, bad):
        err = config_error(tmp_path, capsys, "highlow", HIGHLOW_SMALL.replace(line, bad))
        assert f"configuration error: [system] {bad[0]} must be finite" in err

    @pytest.mark.parametrize(
        "experiment, text",
        [("highlow", HIGHLOW_SMALL.replace("kind = kgs", "kind = zakharov")),
         ("attractor", ATTRACTOR_SMALL.replace("[system]", "[system]\nkind = zakharov"))],
    )
    def test_non_kgs_kind_is_2_for_highlow_and_attractor(self, tmp_path, capsys, experiment, text):
        # Both experiments run the KGS system (attractor: its damped form).
        err = config_error(tmp_path, capsys, experiment, text)
        assert f"configuration error: [system] kind must be 'kgs' for {experiment}, got 'zakharov'" in err

    def test_overflowing_damped_flow_is_2_and_named(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, "attractor", ATTRACTOR_SMALL.replace("delta = 0.5", "delta = 1e200"))
        assert "configuration error: the exact linear flow over t = 0.005 overflows at delta = 1e+200" in err

    @pytest.mark.parametrize("bad", ["-1", "nan", "0"])
    def test_bad_tau_spacing_is_2_and_named(self, tmp_path, capsys, bad):
        err = config_error(tmp_path, capsys, "xsb-constant", XSB_SMALL + f"tau_spacing = {bad}\n")
        assert f"section [resonance]: tau_spacing must be finite and positive, got {float(bad)}" in err

    def test_oversize_lattice_is_2_before_any_allocation(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = SIMULATE_SMALL.replace("dimension = 2\nn_per_dim = 16", "dimension = 4\nn_per_dim = 1048576")
        config = write_config(tmp_path, text)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", config, "--out", str(out), "--quiet"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "the limit is 16777216" in capsys.readouterr().err
        assert peak < 2**20  # a single 1048576-point axis would take 8 MiB
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "experiment, text, key",
        [
            ("counterexample", COUNTEREXAMPLE_SMALL + "b = {}\n", "[counterexample] b"),
            ("xsb-constant", XSB_SMALL + "\n[smoothing]\nb = {}\n", "[smoothing] b"),
        ],
    )
    def test_non_finite_b_is_2_and_named(self, tmp_path, capsys, experiment, text, key, bad):
        # b = -inf once reached a ZeroDivisionError in the counterexample's ratio.
        err = config_error(tmp_path, capsys, experiment, text.format(bad))
        assert f"{key} must be finite, got {float(bad)}" in err

    @pytest.mark.parametrize("excess", [1, 10**20])
    @pytest.mark.parametrize(
        "experiment, text, line, key, cap",
        [
            ("smoothing-scan", SCAN_SMALL, "ensemble = 2", "[smoothing] ensemble", MAX_ENSEMBLE),
            ("resonance-geometry", RESONANCE_SMALL, "count = 50", "[resonance] count", MAX_SHELL_POINTS),
        ],
    )
    def test_count_above_its_cap_is_2_before_any_allocation(
        self, tmp_path, capsys, experiment, text, line, key, cap, excess
    ):
        value = cap + excess
        name = line.split(" = ")[0]
        config = write_config(tmp_path, text.replace(line, f"{name} = {value}"))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main([experiment, "--config", config, "--out", str(out), "--quiet"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"configuration error: {key} = {value} is above the limit {cap}" in capsys.readouterr().err
        assert peak < 2**20
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-4"])
    def test_bad_highlow_cutoff_is_2_and_named(self, tmp_path, capsys, bad):
        err = config_error(tmp_path, capsys, "highlow", HIGHLOW_SMALL.replace("cutoff = 4", f"cutoff = {bad}"))
        assert f"cutoff must be finite and positive, got {float(bad)}" in err
        assert "delta" not in err

    def test_highlow_cutoff_below_one_without_delta_is_2_and_named(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, "highlow", HIGHLOW_SMALL.replace("cutoff = 4", "cutoff = 0.5"))
        assert "section [highlow]: cutoff must be >= 1 for the step rule (no delta is set), got 0.5" in err

    @pytest.mark.parametrize(
        "line, bad, key",
        [
            ("alpha_probe = 0.4", "alpha_probe = 0.6", "alpha_probe 0.6 must be below alpha_max"),
            ("beta_probe = 1.2", "beta_probe = 2.0", "beta_probe 2.0 must be below beta_max"),
        ],
    )
    def test_inadmissible_probe_is_2_and_named(self, tmp_path, capsys, line, bad, key):
        text = (CONFIGS / "smoothing_scan.ini").read_text()
        assert line in text
        assert key in config_error(tmp_path, capsys, "smoothing-scan", text.replace(line, bad))

    def test_io_error_is_4(self, tmp_path, capsys):
        config = write_config(tmp_path, SIMULATE_SMALL)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["simulate", "--config", config, "--out", str(blocker / "x"), "--quiet"])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(dispersmooth.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["no-such-experiment", "--config", "run.ini"],
            ["simulate"],
            ["simulate", "--config", "run.ini", "--seed", "1.5"],
        ],
        ids=["unknown-experiment", "missing-config", "non-integer-seed"],
    )
    def test_usage_error_exits_2_with_the_usage_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage: dispersmooth <experiment> --config PATH" in capsys.readouterr().err


class TestColdStart:
    def test_only_the_experiments_that_use_them_load_the_pool_and_resonance(self, tmp_path):
        def calls(names):
            return [
                [name, "--config", write_config(tmp_path, SMALL_CONFIGS[name], f"{name}.ini")]
                + ["--out", str(tmp_path / name), "--quiet"]
                for name in names
            ]

        script = (
            "import sys\n"
            "from dispersmooth import cli\n"
            f"for argv in {calls(['simulate', 'attractor', 'highlow'])!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "lazy = sorted({'concurrent.futures', 'dispersmooth.resonance'} & set(sys.modules))\n"
            "assert not lazy, lazy\n"
            f"for argv in {calls(['smoothing-scan', 'counterexample', 'xsb-constant', 'resonance-geometry'])!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
        )
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr

    def test_cli_runs_without_scipy(self, tmp_path):
        # highlow and xsb-constant are the experiments that once imported scipy.
        calls = [
            [name, "--config", write_config(tmp_path, text, f"{name}.ini")]
            + ["--out", str(tmp_path / name), "--quiet"]
            for name, text in (("highlow", HIGHLOW_SMALL), ("xsb-constant", XSB_SMALL))
        ]
        script = (
            "import sys\n"
            "from dispersmooth import cli\n"
            f"for argv in {calls!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not scipy, scipy\n"
        )
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr

    def test_lemma_check_runs_with_scipy_blocked(self):
        # scipy is a test extra only: the package must work where it is absent.
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "from dispersmooth.resonance import calc_lemma_check\n"
            "result = calc_lemma_check(1.5, 1.0, [0.0], [0.0, 5.0, 50.0])\n"
            "assert 0 < result.min_ratio <= result.max_ratio < 10, result\n"
        )
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr


class TestNoRetainedStates:
    @pytest.mark.parametrize("experiment", ["attractor", "smoothing-scan", "counterexample"])
    def test_no_run_reaches_lapack(self, tmp_path, monkeypatch, experiment):
        # Every line fit is `spectral.line_slope`, whose plain reductions map no
        # OpenBLAS workspace; these are the experiments that fit a line.
        def refuse(*args, **kwargs):
            raise AssertionError("a run reached LAPACK")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        run_quiet(tmp_path, experiment, SMALL_CONFIGS[experiment])

    def test_attractor_memory_does_not_grow_with_the_record_count(self, tmp_path):
        # 200 steps at 32^2, every step recorded or only the first and the last:
        # the rows are formed during the run, so no recorded state is kept.
        text = ATTRACTOR_SMALL.replace("n_per_dim = 16", "n_per_dim = 32")
        peaks = {}
        for every in (1, 200):
            config = write_config(tmp_path, text.replace("record_every = 20", f"record_every = {every}"))
            tracemalloc.start()
            try:
                assert main(["attractor", "--config", config, "--out", str(tmp_path / str(every)), "--quiet"]) == 0
                _, peaks[every] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        state = lowpass_attractor_state(spectral.Grid(2, 32), 1, 0.3)
        retained = 201 * sum(a.nbytes for a in state.fields)
        assert abs(peaks[1] - peaks[200]) < 0.1 * retained, (peaks, retained)

    def test_attractor_run_builds_one_kernel(self, tmp_path, monkeypatch):
        # The record takes |u|^2 from the right side's kernel, idle while the
        # observer runs, so the run builds no second kernel.
        built = []
        init = spectral.CouplingKernel.__init__

        def counting(kernel, grid):
            built.append(grid)
            init(kernel, grid)

        monkeypatch.setattr(spectral.CouplingKernel, "__init__", counting)
        run_quiet(tmp_path, "attractor", ATTRACTOR_SMALL)
        assert len(built) == 1


class TestOtherExperiments:
    def test_counterexample_writes_slope(self, tmp_path):
        out = run_quiet(tmp_path, "counterexample", COUNTEREXAMPLE_SMALL)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["loglog_slope"] == pytest.approx(0.5, abs=0.1)

    def test_resonance_geometry_point_cloud(self, tmp_path):
        out = run_quiet(tmp_path, "resonance-geometry", RESONANCE_SMALL)
        lines = (out / "resonance_geometry.csv").read_text().splitlines()
        assert lines[0] == "xi2_1,xi2_2,A"
        assert len(lines) == 51

    @pytest.mark.parametrize("dimension", [2, 4])
    def test_highlow_smoke(self, tmp_path, dimension):
        grid = f"[grid]\ndimension = {dimension}\nn_per_dim = {16 if dimension == 2 else 8}"
        out = run_quiet(tmp_path, "highlow", HIGHLOW_SMALL.replace("[grid]\nn_per_dim = 16", grid))
        lines = (out / "highlow.csv").read_text().splitlines()
        assert lines[0] == "window,t,E_low,mass_low,w_H1,z_H1,diff_vs_direct"
        assert len(lines) == 3
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert "mass_threshold_quotient_form" in results
        fields = ("mass_threshold_quotient_form", "mass_threshold_product_form",
                  "threshold_note", "below_threshold")
        if dimension == 4:  # the threshold's own dimension
            assert all(results[key] is not None for key in fields)
            assert results["below_threshold"] is True
        else:  # not applicable: null, with a warning
            assert all(results[key] is None for key in fields)
            assert any("does not apply in d = 2" in w for w in results["warnings"])

    def test_smoothing_scan_small(self, tmp_path):
        out = run_quiet(tmp_path, "smoothing-scan", SCAN_SMALL)
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "seed,component,alpha_probe,residual_norm,slope_gain"
        assert len(lines) == 5  # 2 members x 2 components

    def test_xsb_constant_small(self, tmp_path):
        out = run_quiet(tmp_path, "xsb-constant", XSB_SMALL)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["max_ratio"] > 0

    def test_attractor_smoke(self, tmp_path):
        out = run_quiet(tmp_path, "attractor", ATTRACTOR_SMALL)
        lines = (out / "attractor.csv").read_text().splitlines()
        assert lines[0].startswith("t,H,dH_closed,dH_fd,mass,lin_u_H1")

    def test_negative_forcing_amplitude_flips_the_forcing(self, tmp_path):
        csv = {}
        for amplitude in ("-0.3", "0", "0.3"):
            text = ATTRACTOR_SMALL.replace("forcing_amplitude = 0.2", f"forcing_amplitude = {amplitude}")
            out = tmp_path / amplitude
            assert main(["attractor", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 0
            csv[amplitude] = (out / "attractor.csv").read_bytes()
        assert csv["-0.3"] != csv["0"]
        assert csv["-0.3"] != csv["0.3"]
