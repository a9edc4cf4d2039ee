"""Run configuration: flat key = value text with one section per module.

The format is INI-style (stdlib `configparser`): diff-friendly, language
neutral.  Unknown sections or keys are rejected by name; every value is
type-checked, defaults are filled in and echoed into the run manifest.
Experiment-specific validation runs at load time, including the smoothing
theorem hypotheses (an inadmissible ``(s, r, d)`` for a smoothing scan is a
configuration error naming the violated inequality).

Example::

    [run]
    experiment = simulate
    seed = 42

    [grid]
    dimension = 2
    n_per_dim = 64

    [system]
    kind = kgs
    s = 1.0
    r = 1.0
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import AdmissibilityError, ConfigurationError, ResourceLimitError
from .evolution import IntegratorConfig, System
from .highlow import HighLowConfig
from .smoothing import smoothing_exponents

EXPERIMENTS = (
    "simulate",
    "smoothing-scan",
    "counterexample",
    "highlow",
    "attractor",
    "xsb-constant",
    "resonance-geometry",
)


#: Caps on two counts whose seeds or sample arrays are built whole (`_require_count`).
MAX_ENSEMBLE = 10_000
MAX_SHELL_POINTS = 1_000_000


def _require_count(section, key: str, cap: tuple[str, int] | None = None) -> None:
    """Reject a count below 1, naming its key, or above ``cap = (section name, limit)``."""
    value = getattr(section, key)
    if value < 1:
        raise ConfigurationError(f"{key} must be >= 1, got {value}")
    if cap and value > cap[1]:
        raise ResourceLimitError(f"[{cap[0]}] {key} = {value} is above the limit {cap[1]}")


def require_seed(value: int, name: str) -> None:
    """Reject a negative seed (`numpy.random.SeedSequence` takes none), naming it."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


class RunSection(NamedTuple):
    experiment: str | None = None
    seed: int = 0
    out_dir: str | None = None


class GridSection(NamedTuple):
    dimension: int = 2
    n_per_dim: int = 64
    box_length: float = 1.0


class SystemSection(NamedTuple):
    kind: str = "kgs"
    s: float = 1.0
    r: float = 1.0
    amplitude: float = 1.0
    wave_amplitude: float | None = None


@dataclass(frozen=True)
class SmoothingSection:
    alpha_probe: float = 0.4
    beta_probe: float = 1.2
    b: float = 0.55
    ensemble: int = 8

    def __post_init__(self) -> None:
        _require_count(self, "ensemble", ("smoothing", MAX_ENSEMBLE))


class CounterexampleSection(NamedTuple):
    alpha: float = 1.0
    b: float = 0.55
    n_values: tuple[int, ...] = (8, 16, 32, 64, 128)
    resolution: int = 8
    branch: int = 1


class DampingSection(NamedTuple):
    gamma: float = 0.5
    delta: float = 0.5
    a: float | None = None
    forcing_amplitude: float = 0.0
    forcing_seed: int = 0


@dataclass(frozen=True)
class ResonanceSection:
    nu: float = 0.05
    xi1: tuple[float, ...] = (16.0, 0.0)
    branch: int = -1
    count: int = 2000
    time_modes: int = 32
    tau_spacing: float | None = None
    ensemble: int = 8
    adversarial: bool = False
    alpha: float = 0.4

    def __post_init__(self) -> None:
        for key in ("time_modes", "ensemble"):
            _require_count(self, key)
        _require_count(self, "count", ("resonance", MAX_SHELL_POINTS))
        if self.branch not in (1, -1):
            raise ConfigurationError(f"branch must be 1 or -1, got {self.branch}")
        spacing = self.tau_spacing
        if spacing is not None and not (math.isfinite(spacing) and spacing > 0):
            raise ConfigurationError(f"tau_spacing must be finite and positive, got {spacing}")


class OutputSection(NamedTuple):
    checkpoint: bool = True


class RunConfig(NamedTuple):
    experiment: str
    run: RunSection = RunSection()
    grid: GridSection = GridSection()
    system: SystemSection = SystemSection()
    integrator: IntegratorConfig = IntegratorConfig()
    smoothing: SmoothingSection = SmoothingSection()
    counterexample: CounterexampleSection = CounterexampleSection()
    highlow: HighLowConfig = HighLowConfig()
    damping: DampingSection = DampingSection()
    resonance: ResonanceSection = ResonanceSection()
    output: OutputSection = OutputSection()

    def echo(self) -> dict:
        """Fully resolved configuration (defaults included) for the manifest."""
        data = self._asdict()
        for name, section in data.items():
            if name != "experiment":
                data[name] = {key: getattr(section, key) for key in type(section).__annotations__}
        return data


_SECTIONS = {
    "run": RunSection,
    "grid": GridSection,
    "system": SystemSection,
    "integrator": IntegratorConfig,
    "smoothing": SmoothingSection,
    "counterexample": CounterexampleSection,
    "highlow": HighLowConfig,
    "damping": DampingSection,
    "resonance": ResonanceSection,
    "output": OutputSection,
}


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigurationError(f"{where}: expected a boolean, got {raw!r}")


def _coerce(raw: str, annotation: str, where: str):
    raw = raw.strip()
    optional = annotation.endswith("| None")
    base = annotation.replace("| None", "").strip()
    if optional and raw == "":
        return None
    try:
        if base == "int":
            return int(raw)
        if base == "float":
            return float(raw)
        if base == "bool":
            return _parse_bool(raw, where)
        if base == "str":
            return raw
        if base.startswith("tuple[int"):
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if base.startswith("tuple[float"):
            return tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError as err:
        raise ConfigurationError(f"{where}: {err}") from None
    raise ConfigurationError(f"{where}: unsupported type {annotation}")


def _build_section(cls, parser: configparser.ConfigParser, name: str):
    # Annotation text by field: under postponed evaluation a dataclass section keeps
    # the text, a NamedTuple section a `typing.ForwardRef` of it.
    known = {key: getattr(kind, "__forward_arg__", kind) for key, kind in cls.__annotations__.items()}
    values = {}
    if parser.has_section(name):
        for key, raw in parser.items(name):
            if key not in known:
                raise ConfigurationError(
                    f"unknown key '{key}' in section [{name}]"
                )
            values[key] = _coerce(raw, known[key], where=f"[{name}] {key}")
    try:
        return cls(**values)
    except (TypeError, ConfigurationError) as err:
        raise ConfigurationError(f"section [{name}]: {err}") from None


def _validate(config: RunConfig) -> RunConfig:
    if config.experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {config.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    try:
        System(config.system.kind)
    except ValueError:
        raise ConfigurationError(
            f"[system] kind must be 'kgs' or 'zakharov', got {config.system.kind!r}"
        ) from None
    if config.experiment in ("highlow", "attractor") and config.system.kind != "kgs":
        raise ConfigurationError(
            f"[system] kind must be 'kgs' for {config.experiment}, got {config.system.kind!r}"
        )
    if config.grid.dimension not in (1, 2, 3, 4):
        raise ConfigurationError("[grid] dimension must be in 1..4")
    finite = (
        ("system", "s"),
        ("system", "r"),
        ("system", "amplitude"),
        ("system", "wave_amplitude"),
        ("damping", "forcing_amplitude"),
        ("smoothing", "b"),
        ("counterexample", "b"),
    )
    for section, key in finite:
        value = getattr(getattr(config, section), key)
        if not math.isfinite(value or 0.0):
            raise ConfigurationError(f"[{section}] {key} must be finite, got {value}")
    require_seed(config.run.seed, "[run] seed")
    require_seed(config.damping.forcing_seed, "[damping] forcing_seed")
    if config.experiment in ("smoothing-scan", "xsb-constant"):
        # Route the theorem hypotheses through the closed-form exponents; the
        # probes are checked against them by `SmoothingParams`.
        try:
            smoothing_exponents(
                System(config.system.kind),
                config.grid.dimension,
                config.system.s,
                config.system.r,
            )
        except AdmissibilityError as err:
            raise ConfigurationError(f"[system] s/r rejected: {err}") from None
    if config.experiment == "counterexample":
        for n in config.counterexample.n_values:
            if n < 4 or n & (n - 1):
                raise ConfigurationError(
                    f"[counterexample] n_values must be dyadic >= 4, got {n}"
                )
    return config


def load_config_text(text: str, experiment: str | None = None) -> RunConfig:
    """Parse an inline configuration document; see `load_config`."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"parse error: {err}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown section [{section}]")
    parts = {name: _build_section(cls, parser, name) for name, cls in _SECTIONS.items()}
    run: RunSection = parts["run"]
    chosen = experiment or run.experiment
    if chosen is None:
        raise ConfigurationError(
            "no experiment selected: pass a CLI subcommand or set [run] experiment"
        )
    if experiment and run.experiment and experiment != run.experiment:
        raise ConfigurationError(
            f"CLI experiment {experiment!r} conflicts with [run] experiment {run.experiment!r}"
        )
    config = RunConfig(experiment=chosen, **parts)
    return _validate(config)


def load_config(path: str | Path, experiment: str | None = None) -> RunConfig:
    """Load and validate a configuration file.

    ``experiment`` (usually the CLI subcommand) overrides or must match the
    optional ``[run] experiment`` key.  Raises `ConfigurationError` with the
    offending section/key named; parse errors carry line information from the
    underlying parser.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from None
    return load_config_text(text, experiment=experiment)
