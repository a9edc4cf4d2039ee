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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import AdmissibilityError, ConfigurationError
from .evolution import IntegratorConfig, System
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


def _require_positive(section, key: str) -> None:
    """Reject a count below 1, naming its key."""
    value = getattr(section, key)
    if value < 1:
        raise ConfigurationError(f"{key} must be >= 1, got {value}")


def require_seed(value: int, name: str) -> None:
    """Reject a negative seed (`numpy.random.SeedSequence` takes none), naming it."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class RunSection:
    experiment: str | None = None
    seed: int = 0
    out_dir: str | None = None


@dataclass(frozen=True)
class GridSection:
    dimension: int = 2
    n_per_dim: int = 64
    box_length: float = 1.0


@dataclass(frozen=True)
class SystemSection:
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
        _require_positive(self, "ensemble")


@dataclass(frozen=True)
class CounterexampleSection:
    alpha: float = 1.0
    b: float = 0.55
    n_values: tuple[int, ...] = (8, 16, 32, 64, 128)
    resolution: int = 8
    branch: int = 1


@dataclass(frozen=True)
class HighLowSection:
    cutoff: float = 8.0
    r0: float = 0.55
    window_constant: float = 0.1
    delta: float | None = None
    windows: int | None = None
    gns_c1: float | None = None
    gns_c2: float | None = None
    compare_direct: bool = False

    def __post_init__(self) -> None:
        if self.windows is not None:
            _require_positive(self, "windows")


@dataclass(frozen=True)
class DampingSection:
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
        for key in ("count", "time_modes", "ensemble"):
            _require_positive(self, key)
        if self.branch not in (1, -1):
            raise ConfigurationError(f"branch must be 1 or -1, got {self.branch}")


@dataclass(frozen=True)
class OutputSection:
    checkpoint: bool = True


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    run: RunSection = field(default_factory=RunSection)
    grid: GridSection = field(default_factory=GridSection)
    system: SystemSection = field(default_factory=SystemSection)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    smoothing: SmoothingSection = field(default_factory=SmoothingSection)
    counterexample: CounterexampleSection = field(default_factory=CounterexampleSection)
    highlow: HighLowSection = field(default_factory=HighLowSection)
    damping: DampingSection = field(default_factory=DampingSection)
    resonance: ResonanceSection = field(default_factory=ResonanceSection)
    output: OutputSection = field(default_factory=OutputSection)

    def echo(self) -> dict:
        """Fully resolved configuration (defaults included) for the manifest."""
        data = asdict(self)
        return data


_SECTIONS = {
    "run": RunSection,
    "grid": GridSection,
    "system": SystemSection,
    "integrator": IntegratorConfig,
    "smoothing": SmoothingSection,
    "counterexample": CounterexampleSection,
    "highlow": HighLowSection,
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
    known = {f.name: f for f in fields(cls)}
    values = {}
    if parser.has_section(name):
        for key, raw in parser.items(name):
            if key not in known:
                raise ConfigurationError(
                    f"unknown key '{key}' in section [{name}]"
                )
            annotation = str(known[key].type)
            values[key] = _coerce(raw, annotation, where=f"[{name}] {key}")
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
    if config.grid.dimension not in (1, 2, 3, 4):
        raise ConfigurationError("[grid] dimension must be in 1..4")
    finite = (("system", "amplitude"), ("system", "wave_amplitude"), ("damping", "forcing_amplitude"))
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
