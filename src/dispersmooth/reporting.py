"""Deterministic report emission and binary checkpoints.

Outputs are a pure function of (config, seed, code version): CSV files are
written with 17 significant digits (lossless float round trip) and fixed
newlines, so reruns are byte-identical.  The manifest additionally records
wall time, which is informational and excluded from the determinism contract.
A checkpoint is the outgoing edge of a state: its ``u`` and ``w+`` expanded
from the dealias box to the whole lattice (`Checkpoint.of`), kept in the
three-block layout ``(u, w+, w-)`` with ``w-`` written as ``conj w+`` and
checked on load.  Save and load work on these full arrays, not on a state,
so a round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import CheckpointFormatError, ConfigurationError
from .evolution import System, SystemState, box_wplus
from .spectral import Grid, conjugate

_MAGIC = b"ZKGS"
_VERSION = 1
_SYSTEM_IDS = {System.KGS: 1, System.ZAKHAROV: 2}
_IDS_SYSTEM = {v: k for k, v in _SYSTEM_IDS.items()}


def format_value(value) -> str:
    """Render one CSV cell; floats get 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ConfigurationError(
                f"row width {len(row)} does not match header width {len(header)}"
            )
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


class Checkpoint(NamedTuple):
    """What a checkpoint holds: a system, its grid, a time and full ``(u, w+)`` coefficients."""

    system: System
    grid: Grid
    t: float
    u: np.ndarray
    wplus: np.ndarray

    @classmethod
    def of(cls, state: SystemState) -> "Checkpoint":
        """The checkpoint of ``state`` (``w = v_t``; see `SystemState`): its ``u`` and
        its `box_wplus` on the whole lattice, zero outside the box."""
        grid = state.grid
        u, wplus = (np.zeros(grid.shape, dtype=np.complex128) for _ in range(2))
        u[grid.box_index] = state.u
        wplus[grid.box_index] = box_wplus(state.v, state.w, grid)
        return cls(state.system, grid, state.t, u, wplus)


class ExperimentResult(NamedTuple):
    """What an experiment hands to `write_outputs`."""

    experiment: str
    csv_name: str
    header: list[str]
    rows: list[tuple]
    manifest_extra: dict | None = None
    checkpoints: tuple[tuple[str, Checkpoint], ...] = ()


def write_outputs(
    result: ExperimentResult,
    config_echo: dict,
    out_dir: str | Path,
    seed: int,
    quiet: bool = False,
    wall_time: float | None = None,
) -> dict[str, Path]:
    """Write manifest, CSV data, and optional checkpoints under ``out_dir``.

    The manifest is strict JSON: a non-finite float is written as null.
    Returns the written paths.  I/O failures surface as OSError with the
    path in the message.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    csv_path = out / result.csv_name
    write_csv(csv_path, result.header, result.rows)
    paths["csv"] = csv_path

    for name, checkpoint in result.checkpoints:
        ckpt_path = out / name
        save_checkpoint(checkpoint, ckpt_path)
        paths[name] = ckpt_path

    manifest = {
        "experiment": result.experiment,
        "code_version": __version__,
        "seed": seed,
        "config": config_echo,
        "outputs": {k: str(v.name) for k, v in paths.items()},
        "wall_time_seconds": wall_time,
        **({"results": result.manifest_extra} if result.manifest_extra else {}),
    }
    manifest_path = out / "manifest.json"
    # Strict JSON: a round trip turns NaN and +-Infinity into null.
    manifest = json.loads(json.dumps(manifest, default=str), parse_constant=lambda name: None)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    paths["manifest"] = manifest_path

    if not quiet:
        print(f"wrote {csv_path}")
    return paths


# ---------------------------------------------------------------------------
# Binary checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Serialize a checkpoint: magic, version, system id, grid descriptor, t, fields.

    Layout: ``ZKGS`` (4 bytes), format version (u32 LE), system id (u8),
    dimension (u8), n_per_dim (u32 LE), box_length (f64 LE), t (f64 LE),
    then each field's coefficients as interleaved (re, im) f64 LE pairs in
    row-major lattice order, fields in the order (u, w+, w-), where the
    stored ``w-`` is the derived ``conj w+``.
    """
    grid = checkpoint.grid
    header = _MAGIC + struct.pack(
        "<IBBIdd",
        _VERSION,
        _SYSTEM_IDS[checkpoint.system],
        grid.dim,
        grid.n_per_dim,
        grid.box_length,
        checkpoint.t,
    )
    wplus = checkpoint.wplus
    with open(path, "wb") as fh:  # streamed: no joined copy of the blocks
        fh.write(header)
        for block in (checkpoint.u, wplus, conjugate(wplus)):
            fh.write(np.ascontiguousarray(block, dtype="<c16").data)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Inverse of `save_checkpoint`.

    Rejects wrong magic/version, a grid descriptor outside `Grid`'s rules, a
    payload of the wrong length (both checked before any array is built), a
    non-finite ``t``, and a ``w-`` block that is not ``conj w+`` to 1e-12
    relative (a wave that is not real).
    """
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != _MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic (not a checkpoint)")
    head = struct.calcsize("<IBBIdd")
    if len(raw) < 4 + head:
        raise CheckpointFormatError(f"{path}: truncated header")
    version, system_id, dim, n_per_dim, box_length, t = struct.unpack(
        "<IBBIdd", raw[4 : 4 + head]
    )
    if version != _VERSION:
        raise CheckpointFormatError(
            f"{path}: format version {version} not supported (expected {_VERSION});"
            " no silent migration"
        )
    if system_id not in _IDS_SYSTEM:
        raise CheckpointFormatError(f"{path}: unknown system id {system_id}")
    # The header is untrusted: check it, and the payload length it implies,
    # before the grid and the arrays are built.
    if dim not in (1, 2, 3, 4):
        raise CheckpointFormatError(f"{path}: dim = {dim} is not in 1..4")
    if n_per_dim < 8 or n_per_dim & (n_per_dim - 1):
        raise CheckpointFormatError(f"{path}: n_per_dim = {n_per_dim} is not a power of two >= 8")
    if not (math.isfinite(box_length) and box_length > 0):
        raise CheckpointFormatError(f"{path}: box_length = {box_length} is not finite and positive")
    if not math.isfinite(t):
        raise CheckpointFormatError(f"{path}: t = {t} is not finite")
    count = n_per_dim**dim
    body = raw[4 + head :]
    expected = 3 * count * 16
    if len(body) != expected:
        raise CheckpointFormatError(
            f"{path}: payload has {len(body)} bytes, expected {expected}"
        )
    try:
        grid = Grid(dim, n_per_dim, box_length)
    except ConfigurationError as err:  # a box_length outside the float range
        raise CheckpointFormatError(f"{path}: {err}") from None
    u, wplus, wminus = (
        np.frombuffer(body[i * count * 16 : (i + 1) * count * 16], dtype="<c16")
        .reshape(grid.shape)
        .astype(np.complex128)
        for i in range(3)
    )
    skew = wminus - conjugate(wplus)
    defect, size = (math.sqrt(np.sum(np.abs(a) ** 2) / grid.volume) for a in (skew, wplus))
    if not defect <= 1e-12 * size:
        raise CheckpointFormatError(
            f"{path}: the w- block is not conj(w+) (L2 defect {defect:.3e});"
            " the wave must be real"
        )
    return Checkpoint(_IDS_SYSTEM[system_id], grid, t, u, wplus)
