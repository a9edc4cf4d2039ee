"""End-to-end CLI tests: subcommands, exit codes, output determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dispersmooth
from dispersmooth.cli import main
from dispersmooth.smoothing import worker_count


class TestWorkerCount:
    def test_env_variable_caps_workers(self, monkeypatch):
        monkeypatch.setenv("DISPERSMOOTH_THREADS", "2")
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
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 0
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

    @pytest.mark.parametrize("experiment", ["simulate", "highlow"])
    def test_blowup_is_3(self, tmp_path, capsys, experiment):
        small = {"simulate": SIMULATE_SMALL, "highlow": HIGHLOW_SMALL}[experiment]
        config = write_config(
            tmp_path, small.replace("[integrator]", "[integrator]\nblowup_threshold = 1e-9")
        )
        assert main([experiment, "--config", config, "--quiet"]) == 3
        assert "numerical abort" in capsys.readouterr().err

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
        config = write_config(tmp_path, SIMULATE_SMALL.replace(line, bad))
        assert main(["simulate", "--config", config, "--quiet"]) == 2
        assert "configuration error" in capsys.readouterr().err

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
        config = write_config(tmp_path, HIGHLOW_SMALL.replace("windows = 2", bad))
        assert main(["highlow", "--config", config, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert key in err

    @pytest.mark.parametrize(
        "line, bad, key",
        [
            ("[integrator]", "[integrator]\nblowup_threshold = nan", "blowup_threshold"),
            ("[integrator]", "[integrator]\nblowup_threshold = 0", "blowup_threshold"),
            ("[integrator]", "[integrator]\nblowup_threshold = -1", "blowup_threshold"),
            ("amplitude = 0.5", "amplitude = nan", "amplitude"),
            ("amplitude = 0.5", "amplitude = inf", "amplitude"),
            ("amplitude = 0.5", "amplitude = 0.5\nwave_amplitude = -inf", "wave_amplitude"),
        ],
    )
    def test_bad_guard_or_amplitude_is_2_and_named(self, tmp_path, capsys, line, bad, key):
        config = write_config(tmp_path, SIMULATE_SMALL.replace(line, bad))
        assert main(["simulate", "--config", config, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert key in err

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
        config = write_config(tmp_path, ATTRACTOR_SMALL.replace(line, bad))
        assert main(["attractor", "--config", config, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
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
        out = tmp_path / "out"
        config = write_config(tmp_path, text)
        assert main([experiment, "--config", config, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"{key} must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["xsb-constant", "resonance-geometry"])
    @pytest.mark.parametrize("branch", [7, 0])
    def test_bad_resonance_branch_is_2_and_named(self, tmp_path, capsys, experiment, branch):
        out = tmp_path / "out"
        config = write_config(tmp_path, XSB_SMALL + f"branch = {branch}\n")
        assert main([experiment, "--config", config, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"branch must be 1 or -1, got {branch}" in err
        assert not out.exists()

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
        out = tmp_path / "out"
        config = write_config(tmp_path, text)
        argv = [experiment, "--config", config, "--out", str(out), "--quiet", "--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "--seed must be >= 0, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, text, line, bad, key",
        [
            ("simulate", SIMULATE_SMALL, "seed = 11", "seed = -5", "[run] seed"),
            ("attractor", ATTRACTOR_SMALL, "gamma = 0.5", "gamma = 0.5\nforcing_seed = -3", "[damping] forcing_seed"),
        ],
    )
    def test_negative_seed_key_is_2_and_named(self, tmp_path, capsys, experiment, text, line, bad, key):
        out = tmp_path / "out"
        config = write_config(tmp_path, text.replace(line, bad))
        assert main([experiment, "--config", config, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"{key} must be >= 0, got {bad[-2:]}" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["inf", "nan", "0"])
    def test_bad_box_length_is_2_and_named(self, tmp_path, capsys, bad):
        out = tmp_path / "out"
        text = SIMULATE_SMALL.replace("n_per_dim = 16", f"n_per_dim = 16\nbox_length = {bad}")
        config = write_config(tmp_path, text)
        assert main(["simulate", "--config", config, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"box_length must be finite and positive, got {float(bad)}" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-4"])
    def test_bad_highlow_cutoff_is_2_and_named(self, tmp_path, capsys, bad):
        config = write_config(tmp_path, HIGHLOW_SMALL.replace("cutoff = 4", f"cutoff = {bad}"))
        assert main(["highlow", "--config", config, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"cutoff must be finite and positive, got {float(bad)}" in err
        assert "delta" not in err

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
        out = tmp_path / "out"
        config = write_config(tmp_path, text.replace(line, bad))
        assert main(["smoothing-scan", "--config", config, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert key in err
        assert not out.exists()

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


class TestColdStart:
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


class TestOtherExperiments:
    def test_counterexample_writes_slope(self, tmp_path):
        config = write_config(
            tmp_path,
            """
[system]
kind = kgs
s = 0.0
r = 0.0

[counterexample]
alpha = 1.0
n_values = 8,16,32
resolution = 4
""",
        )
        out = tmp_path / "out"
        assert main(["counterexample", "--config", config, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["loglog_slope"] == pytest.approx(0.5, abs=0.1)

    def test_resonance_geometry_point_cloud(self, tmp_path):
        config = write_config(
            tmp_path,
            """
[resonance]
nu = 0.05
xi1 = 16,0
branch = -1
count = 50
""",
        )
        out = tmp_path / "out"
        assert main(["resonance-geometry", "--config", config, "--out", str(out), "--quiet"]) == 0
        lines = (out / "resonance_geometry.csv").read_text().splitlines()
        assert lines[0] == "xi2_1,xi2_2,A"
        assert len(lines) == 51

    def test_highlow_smoke(self, tmp_path):
        config = write_config(tmp_path, HIGHLOW_SMALL)
        out = tmp_path / "out"
        assert main(["highlow", "--config", config, "--out", str(out), "--quiet"]) == 0
        lines = (out / "highlow.csv").read_text().splitlines()
        assert lines[0] == "window,t,E_low,mass_low,w_H1,z_H1,diff_vs_direct"
        assert len(lines) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "mass_threshold_quotient_form" in manifest["results"]

    def test_smoothing_scan_small(self, tmp_path):
        config = write_config(
            tmp_path,
            """
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
""",
        )
        out = tmp_path / "out"
        assert main(["smoothing-scan", "--config", config, "--out", str(out), "--quiet"]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "seed,component,alpha_probe,residual_norm,slope_gain"
        assert len(lines) == 5  # 2 members x 2 components

    def test_xsb_constant_small(self, tmp_path):
        config = write_config(tmp_path, XSB_SMALL)
        out = tmp_path / "out"
        assert main(["xsb-constant", "--config", config, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["max_ratio"] > 0

    def test_attractor_smoke(self, tmp_path):
        config = write_config(tmp_path, ATTRACTOR_SMALL)
        out = tmp_path / "out"
        assert main(["attractor", "--config", config, "--out", str(out), "--quiet"]) == 0
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
