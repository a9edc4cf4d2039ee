"""Tests for configuration loading, CSV determinism, and checkpoints."""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from dispersmooth.config import EXPERIMENTS, load_config, load_config_text
from dispersmooth.errors import CheckpointFormatError, ConfigurationError
from dispersmooth.evolution import System, random_system_state
from dispersmooth.reporting import (
    Checkpoint,
    ExperimentResult,
    format_value,
    load_checkpoint,
    save_checkpoint,
    write_csv,
    write_outputs,
)
from dispersmooth.spectral import Grid, conjugate

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

MINIMAL_SIMULATE = """
[run]
experiment = simulate
seed = 7
"""


class TestLoadConfig:
    def test_minimal_config_fills_documented_defaults(self):
        config = load_config_text(MINIMAL_SIMULATE)
        assert config.experiment == "simulate"
        assert config.integrator.dt == pytest.approx(1e-2)
        assert config.smoothing.b == pytest.approx(0.55)
        assert config.grid.box_length == pytest.approx(1.0)
        assert config.run.seed == 7

    def test_unknown_key_rejected_by_name(self):
        text = MINIMAL_SIMULATE + "\n[grid]\nwavelength = 3\n"
        with pytest.raises(ConfigurationError, match="wavelength"):
            load_config_text(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="mesh"):
            load_config_text(MINIMAL_SIMULATE + "\n[mesh]\nn = 4\n")

    def test_parse_error_carries_line_info(self):
        with pytest.raises(ConfigurationError, match="line"):
            load_config_text("[run\nexperiment = simulate\n")

    def test_inadmissible_smoothing_regularity_cites_inequality(self):
        text = """
[run]
experiment = smoothing-scan

[system]
kind = kgs
s = -1.0
r = 0.0
"""
        with pytest.raises(ConfigurationError, match="s > -1/4"):
            load_config_text(text)

    def test_experiment_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicts"):
            load_config_text(MINIMAL_SIMULATE, experiment="highlow")

    def test_cli_experiment_fills_missing(self):
        config = load_config_text("[grid]\nn_per_dim = 32\n", experiment="simulate")
        assert config.experiment == "simulate"
        assert config.grid.n_per_dim == 32

    def test_type_errors_name_section_and_key(self):
        with pytest.raises(ConfigurationError, match=r"\[integrator\] dt"):
            load_config_text(MINIMAL_SIMULATE + "\n[integrator]\ndt = fast\n")

    def test_bad_experiment_name(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            load_config_text("[run]\nexperiment = warp\n")

    def test_file_loading(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL_SIMULATE)
        config = load_config(path)
        assert config.experiment == "simulate"
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "missing.ini")

    def test_echo_round_trips_through_ini_text(self):
        text = """
[run]
experiment = simulate
seed = 9
out_dir = somewhere
[grid]
dimension = 3
n_per_dim = 16
box_length = 2.5
[system]
kind = zakharov
s = 1.25
r = 0.75
amplitude = 0.3
wave_amplitude = 0.2
[integrator]
dt = 0.004
t_end = 0.2
record_every = 5
blowup_threshold = 1e9
[smoothing]
alpha_probe = 0.3
beta_probe = 0.9
b = 0.6
ensemble = 3
[counterexample]
alpha = 0.75
b = 0.6
n_values = 8,32
resolution = 4
branch = -1
[highlow]
cutoff = 6
r0 = 0.6
window_constant = 0.2
delta = 0.05
windows = 3
gns_c1 = 0.3
gns_c2 = 0.7
compare_direct = true
[damping]
gamma = 0.25
delta = 0.75
a = 0.1
forcing_amplitude = 0.4
forcing_seed = 3
[resonance]
nu = 0.1
xi1 = 8,0,1
branch = 1
count = 50
time_modes = 8
tau_spacing = 0.5
ensemble = 2
adversarial = true
alpha = 0.2
[output]
checkpoint = false
"""
        full = load_config_text(text).echo()
        defaults = load_config_text("[run]\nexperiment = simulate\n").echo()
        assert all(full[name] != defaults[name] for name in full if name != "experiment")

        def ini(value) -> str:
            if value is None:
                return ""
            return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

        for echo in (full, defaults):  # the defaults hold the None values
            sections = (
                f"[{name}]\n" + "".join(f"{key} = {ini(value)}\n" for key, value in section.items())
                for name, section in echo.items()
                if name != "experiment"
            )
            assert load_config_text("\n".join(sections)).echo() == echo

    def test_every_experiment_has_a_shipped_config(self):
        named = {load_config(path).experiment for path in SHIPPED_CONFIGS}
        assert named == set(EXPERIMENTS)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_loads_as_its_own_experiment(self, path):
        experiment = load_config(path).run.experiment
        assert experiment in EXPERIMENTS
        assert load_config(path, experiment=experiment).experiment == experiment


class TestCsvWriting:
    def test_seventeen_digit_roundtrip(self):
        value = 0.1 + 0.2  # not representable exactly
        assert float(format_value(value)) == value
        assert format_value(1.0) == "1"
        assert format_value(None) == ""
        assert format_value(float("nan")) == "nan"

    def test_write_outputs_deterministic_bytes(self, tmp_path):
        grid = Grid(1, 16)
        state = random_system_state(System.KGS, grid, 1.0, 1.0, seed=3)
        rng = np.random.default_rng(5)
        rows = [(i, float(x)) for i, x in enumerate(rng.standard_normal(20))]
        result = ExperimentResult(
            experiment="simulate",
            csv_name="data.csv",
            header=["i", "x"],
            rows=rows,
            checkpoints=[("state.ckpt", Checkpoint.of(state))],
        )
        paths_a = write_outputs(result, {"k": 1}, tmp_path / "a", seed=5, quiet=True)
        paths_b = write_outputs(result, {"k": 1}, tmp_path / "b", seed=5, quiet=True)
        assert paths_a["csv"].read_bytes() == paths_b["csv"].read_bytes()
        assert paths_a["state.ckpt"].read_bytes() == paths_b["state.ckpt"].read_bytes()

    def test_manifest_writes_non_finite_floats_as_null(self, tmp_path):
        extra = {"gain": {"u": math.inf, "w": -math.inf}, "rates": [math.nan, 1.5], "ok": True}
        result = ExperimentResult("simulate", "data.csv", ["i"], [(1,)], manifest_extra=extra)
        path = write_outputs(result, {"dt": np.float64(math.inf)}, tmp_path, seed=1, quiet=True)["manifest"]
        manifest = json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))
        assert manifest["results"] == {"gain": {"u": None, "w": None}, "rates": [None, 1.5], "ok": True}
        assert manifest["config"] == {"dt": None}

    def test_row_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [(1,)])


class TestCheckpoint:
    def _state(self):
        grid = Grid(2, 16, box_length=1.5)
        return Checkpoint.of(random_system_state(System.ZAKHAROV, grid, 0.5, 0.5, seed=11))

    def test_roundtrip_bit_identical(self, tmp_path):
        state = self._state()
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.system is System.ZAKHAROV
        assert loaded.grid == state.grid
        assert loaded.t == state.t
        assert np.array_equal(loaded.u, state.u)
        assert np.array_equal(loaded.wplus, state.wplus)
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert path.read_bytes() == (tmp_path / "again.ckpt").read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_version_bump_rejected(self, tmp_path):
        state = self._state()
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_non_real_wave_rejected(self, tmp_path):
        # The third block must be conj(w+): a w- of its own is not a real wave.
        state = self._state()
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        block = state.grid.mode_count * 16
        skew = np.ascontiguousarray(1.001 * conjugate(state.wplus), dtype="<c16").tobytes()
        path.write_bytes(raw[: len(raw) - block] + skew)
        with pytest.raises(CheckpointFormatError, match="w-"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        state = self._state()
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CheckpointFormatError, match="bytes"):
            load_checkpoint(path)

    @staticmethod
    def _header(dim, n_per_dim, box_length=1.0, t=0.0):
        return b"ZKGS" + struct.pack("<IBBIdd", 1, 1, dim, n_per_dim, box_length, t)

    def test_huge_claimed_grid_rejected_before_allocation(self, tmp_path):
        # A header claiming a 4-d grid of 2^20 modes per axis must be
        # rejected from its payload length alone, without building the grid.
        import tracemalloc

        path = tmp_path / "huge.ckpt"
        path.write_bytes(self._header(4, 2**20) + b"\x00" * 16)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointFormatError, match="bytes"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    @pytest.mark.parametrize(
        "dim, n_per_dim, box_length, field",
        [(7, 16, 1.0, "dim"), (0, 16, 1.0, "dim"), (2, 12, 1.0, "n_per_dim"),
         (2, 4, 1.0, "n_per_dim"), (2, 16, -1.0, "box_length"), (2, 16, float("nan"), "box_length"),
         (2, 16, 1e300, "box_length"), (2, 16, 1e-300, "box_length"), (2, 16, 1.0, "t")],
    )
    def test_bad_grid_descriptor_is_a_format_error(self, tmp_path, dim, n_per_dim, box_length, field):
        # The payload has the length of a 16^2 grid, so only the header is at fault;
        # the "t" row claims t = nan.
        path = tmp_path / "bad.ckpt"
        t = float("nan") if field == "t" else 0.0
        path.write_bytes(self._header(dim, n_per_dim, box_length, t) + bytes(3 * 16 * 16**2))
        with pytest.raises(CheckpointFormatError, match=f": {field} = "):
            load_checkpoint(path)
