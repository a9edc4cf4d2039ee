"""Nonlinear-smoothing diagnostics.

Tools to measure how much smoother the nonlinear part of the flow is than its
data: Duhamel residuals against the free flow, discrete space-time
(Bourgain-type) norms on windowed trajectories, the closed-form supremal
smoothing exponents with their admissibility hypotheses, ensemble smoothing
scans over random rough data, and the frequency-box counterexample that pins
the half-derivative ceiling for the Schrodinger component.

The time-restricted space-time norm (an infimum over extensions) is not
computable exactly; a fixed raised-cosine window provides one concrete
extension, and results are reported as window-dependent surrogates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdmissibilityError,
    ConfigurationError,
    ResolutionError,
    ResourceLimitError,
)
from .evolution import (
    Dispersion,
    IntegratorConfig,
    System,
    SystemState,
    band_limit_state,
    integrate,
    join_wave,
    linear_propagate,
)
from .resonance import lattice_xi_tau, xsb_weight
from .spectral import (
    Grid,
    SpectralField,
    fit_spectral_slope,
    random_sobolev_field,
    remove_mean,
    sobolev_norm,
)


def worker_count() -> int:
    """Worker cap for embarrassingly parallel ensembles.

    Controlled by the DISPERSMOOTH_THREADS environment variable; defaults to
    a modest pool.  Results never depend on the worker count (jobs are pure
    and merged in submission order).
    """
    raw = os.environ.get("DISPERSMOOTH_THREADS", "")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value >= 1:
        return value
    return min(4, os.cpu_count() or 1)


_COMPONENT_DISPERSION = {
    "u": Dispersion.SCHRODINGER,
    "wplus": Dispersion.KG_PLUS,
    "wminus": Dispersion.KG_MINUS,
}

# The wave branch of each dispersion in `xsb_weight`: ``w+`` rides ``tau = -|xi|``.
_BRANCH = {Dispersion.SCHRODINGER: None, Dispersion.KG_PLUS: -1, Dispersion.KG_MINUS: +1}


# ---------------------------------------------------------------------------
# Supremal smoothing exponents (closed forms with hypothesis checks)
# ---------------------------------------------------------------------------

def smoothing_exponents(system: System, d: int, s: float, r: float) -> tuple[float, float]:
    """Supremal gains ``(alpha_max, beta_max)`` for data in ``H^s x H^r``.

    The Schrodinger component of either system admits
    ``alpha < min(1/2, r - s + 1, r + 2 - d/2)``.  The wave component gains
    differ: ``beta < min(2s - r - 1/2, s - r)`` for Zakharov and
    ``beta < min(2s - r + 3/2, s - r + 2)`` for Klein-Gordon-Schrodinger in
    d = 2, 3, each with a d >= 4 variant.  Raises `AdmissibilityError` naming
    the violated hypothesis when ``(s, r, d)`` sits outside the admissible
    region.
    """
    system = System(system)
    if d < 2:
        raise AdmissibilityError(
            "smoothing exponents are stated for d >= 2 only (d=1 not covered)"
        )
    if d > 4:
        raise AdmissibilityError("this artifact restricts to d <= 4")

    def require(condition: bool, inequality: str) -> None:
        if not condition:
            raise AdmissibilityError(
                f"{system.value} d={d}: hypothesis violated: requires {inequality} "
                f"(s={s}, r={r})"
            )

    alpha_max = min(0.5, r - s + 1.0, r + 2.0 - d / 2.0)
    if system is System.ZAKHAROV:
        if d in (2, 3):
            require(r >= -0.5, "r >= -1/2")
            require(2 * s - r >= 0.5, "2s - r >= 1/2")
            require(r < s < r + 1, "r < s < r + 1")
            beta_max = min(2 * s - r - 0.5, s - r)
        else:
            require(r > (d - 4) / 4.0, "r > (d-4)/4")
            require(2 * s - r > (d - 2) / 2.0, "2s - r > (d-2)/2")
            require(r <= s <= r + 1, "r <= s <= r + 1")
            beta_max = min(2 * s - r - (d - 2) / 2.0, s - r)
    else:
        if d in (2, 3):
            require(s > -0.25, "s > -1/4")
            require(r > -0.5, "r > -1/2")
            require(2 * s - r >= -1.5, "2s - r >= -3/2")
            require(r - 2 < s < r + 1, "r - 2 < s < r + 1")
            beta_max = min(2 * s - r + 1.5, s - r + 2.0)
        else:
            require(r > (d - 4) / 4.0, "r > (d-4)/4")
            require(2 * s - r > (d - 6) / 2.0, "2s - r > (d-6)/2")
            require(r - 2 <= s <= r + 1, "r - 2 <= s <= r + 1")
            beta_max = min(2 * s - r - (d - 6) / 2.0, s - r + 2.0)
    return alpha_max, beta_max


@dataclass(frozen=True)
class SmoothingParams:
    """Scan parameters; probes must lie inside the admissible region."""

    system: System
    d: int
    s: float
    r: float
    alpha_probe: float
    beta_probe: float
    b: float = 0.55

    def __post_init__(self) -> None:
        alpha_max, beta_max = smoothing_exponents(self.system, self.d, self.s, self.r)
        if not self.alpha_probe < alpha_max:
            raise AdmissibilityError(
                f"alpha_probe {self.alpha_probe} must be below alpha_max {alpha_max}"
            )
        if not self.beta_probe < beta_max:
            raise AdmissibilityError(
                f"beta_probe {self.beta_probe} must be below beta_max {beta_max}"
            )


# ---------------------------------------------------------------------------
# Duhamel residuals
# ---------------------------------------------------------------------------

def duhamel_residual(
    trajectory: list[SystemState], component: str = "u"
) -> list[SpectralField]:
    """Nonlinear part ``component(t) - free_flow(t) component(0)`` along a run.

    The residual at the initial time is exactly zero.
    """
    if component not in _COMPONENT_DISPERSION:
        raise ConfigurationError(f"unknown component {component!r}")
    dispersion = _COMPONENT_DISPERSION[component]
    first = trajectory[0]
    data = getattr(first, component)
    out = []
    for state in trajectory:
        free = linear_propagate(data, dispersion, state.t - first.t)
        out.append(getattr(state, component) - free)
    return out


# ---------------------------------------------------------------------------
# Space-time fields and X^{s,b}-type norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeField:
    """A field sampled on a uniform time window, with its (xi, tau) transform.

    ``coeffs`` has shape ``grid.shape + (n_t,)``; the last axis is the
    discrete transform in time of the windowed samples (raised-cosine taper,
    recorded in ``window``).  Results computed from it are window-dependent.
    """

    grid: Grid
    times: np.ndarray = field(compare=False)
    coeffs: np.ndarray = field(compare=False)
    tau: np.ndarray = field(compare=False)
    window: np.ndarray = field(compare=False)
    taper: float

    @property
    def t_span(self) -> float:
        return float(len(self.times) * (self.times[1] - self.times[0]))


def _tukey(m: int, alpha: float) -> np.ndarray:
    """Periodic Tukey window: ``scipy.signal.windows.tukey(m, alpha, sym=False)``, to the bit."""
    if alpha == 1.0:  # scipy's Hann form
        return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)))[:m]
    width = math.floor(alpha * m / 2.0)
    head, tail = np.arange(width + 1.0), np.arange(m - width, m + 1.0)
    rise = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * head / alpha / m)))
    fall = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * tail / alpha / m)))
    return np.concatenate((rise, np.ones(m - 2 * width - 1), fall))[:m]


def space_time_field(
    trajectory: list[SystemState], component: str = "u", taper: float = 0.5
) -> SpaceTimeField:
    """Window a recorded trajectory in time and transform to (xi, tau).

    Requires uniform time samples.  The tau lattice spans ``2 pi / dt_samp``
    with spacing ``2 pi / T_w``; dispersion surfaces of retained modes must
    fit inside it for the modulation weights to be meaningful.
    """
    if not 0 < taper <= 1:
        raise ConfigurationError(f"taper must be in (0, 1], got {taper}")
    if len(trajectory) < 4:
        raise ConfigurationError("need at least 4 time samples for a tau transform")
    times = np.array([s.t for s in trajectory])
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-10, atol=1e-12):
        raise ConfigurationError("time samples must be uniform")
    grid = trajectory[0].grid
    stack = np.stack([getattr(s, component).coeffs for s in trajectory], axis=-1)
    n_t = stack.shape[-1]
    window = _tukey(n_t, taper)
    windowed = stack * window
    coeffs = np.fft.fft(windowed, axis=-1) * dt[0]
    tau = 2.0 * math.pi * np.fft.fftfreq(n_t, d=dt[0])
    return SpaceTimeField(grid, times, coeffs, tau, window, taper)


def xsb_norm(
    stf: SpaceTimeField, s: float, b: float, dispersion: Dispersion = Dispersion.SCHRODINGER
) -> float:
    """Weighted space-time norm ``|| <xi>^s <tau - h(xi)>^b u_hat(xi, tau) ||``.

    ``h`` is the dispersion surface: ``-|xi|^2`` for the Schrodinger weight and
    ``-/+ |xi|`` for the two wave branches (the wave weight uses ``|xi|``, not
    ``<xi>``; the two are comparable).  With ``s = b = 0`` this is exactly the
    space-time L2 norm of the windowed samples.
    """
    weight = xsb_weight(stf.grid.xi_squared[..., None], stf.tau, s, b, _BRANCH[dispersion])
    total = np.sum(np.abs(weight * stf.coeffs) ** 2)
    return math.sqrt(total / (stf.grid.volume * stf.t_span))


# ---------------------------------------------------------------------------
# Ensemble smoothing scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    seed: int
    component: str
    probe: float
    residual_norm: float
    normalized_residual: float
    slope_gain: float


@dataclass(frozen=True)
class SmoothingScanReport:
    params: SmoothingParams
    rows: list[ScanRow]
    gain_mean: dict[str, float]
    gain_std: dict[str, float]
    sup_normalized_residual: dict[str, float]


def _scan_member(
    params: SmoothingParams,
    grid: Grid,
    member_seed: int,
    t_end: float,
    dt: float,
    amplitude: float,
    wave_amplitude: float,
) -> list[ScanRow]:
    ss = np.random.SeedSequence(member_seed)
    kids = ss.spawn(3)
    u0 = random_sobolev_field(grid, params.s, seed=kids[0])
    v0 = random_sobolev_field(grid, params.r, seed=kids[1], real=True)
    v1 = random_sobolev_field(grid, max(params.r - 1.0, 0.0), seed=kids[2], real=True)
    # Mean-zero wave data: on the torus the wave zero mode is a constant
    # background potential that only phase-rotates u, leaving a residual
    # proportional to the data itself; the whole-space setting has no such
    # discrete mode, so the scan removes it (cf. the mean-zero convention
    # for the homogeneous wave norms).
    v0 = remove_mean(v0)
    v1 = remove_mean(v1)
    state = band_limit_state(SystemState(params.system, u0, join_wave(v0, v1)))
    # Unit-norm data: u in H^s, wave in H^r, then multiplied by the
    # requested amplitudes (zero amplitude = absent field).
    u_norm = sobolev_norm(state.u, params.s)
    w_norm = sobolev_norm(state.wplus, params.r)
    state = SystemState(
        params.system,
        (amplitude / u_norm) * state.u,
        (wave_amplitude / w_norm) * state.wplus,
    )
    traj = integrate(state, IntegratorConfig(dt=dt, t_end=t_end, record_every=10**9))
    data_size = amplitude + wave_amplitude  # ||u0||_{H^s} + ||w0||_{H^r}

    n = grid.n_per_dim
    fit_lo, fit_hi = n / 8, n / 3
    rows = []
    for component, probe, base in (
        ("u", params.alpha_probe, params.s),
        ("wplus", params.beta_probe, params.r),
    ):
        residual = duhamel_residual(traj, component)[-1]
        res_norm = sobolev_norm(residual, base + probe)
        data_slope = fit_spectral_slope(getattr(state, component), fit_lo, fit_hi)
        res_slope = fit_spectral_slope(residual, fit_lo, fit_hi)
        if data_slope is None or res_slope is None:
            gain = math.inf  # vanishing data or residual: gain not applicable
        else:
            gain = data_slope - res_slope
        if data_size > 0:
            normalized = res_norm / data_size**2
        else:
            normalized = 0.0 if res_norm == 0 else math.inf
        rows.append(
            ScanRow(
                seed=member_seed,
                component=component,
                probe=probe,
                residual_norm=res_norm,
                normalized_residual=normalized,
                slope_gain=gain,
            )
        )
    return rows


def smoothing_scan(
    params: SmoothingParams,
    ensemble_size: int,
    seed: int,
    grid: Grid | None = None,
    t_end: float = 0.5,
    dt: float = 2e-3,
    amplitude: float = 1.0,
    wave_amplitude: float | None = None,
) -> SmoothingScanReport:
    """Measure the smoothing gain on an ensemble of random unit-norm data.

    For each member: integrate to ``t_end``, form the Duhamel residuals of the
    Schrodinger and wave components, and report (a) the residual Sobolev norm
    at the probe regularity normalized by the squared data size, and (b) the
    slope gain: spectral decay exponent of the residual minus that of the
    data, fitted over annuli between n/8 and n/3 (below the dealias cutoff).
    Ensemble members are independent jobs; integration blow-up propagates.
    """
    if grid is None:
        grid = Grid(params.d, 128)
    if grid.dim != params.d:
        raise ConfigurationError("grid dimension does not match params.d")
    if wave_amplitude is None:
        wave_amplitude = amplitude
    member_seeds = [seed + i for i in range(ensemble_size)]

    jobs = [(params, grid, m, t_end, dt, amplitude, wave_amplitude) for m in member_seeds]
    workers = min(worker_count(), ensemble_size)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda a: _scan_member(*a), jobs))
    else:
        results = [_scan_member(*a) for a in jobs]
    rows = [row for member in results for row in member]

    gain_mean, gain_std, sup_norm = {}, {}, {}
    for component in ("u", "wplus"):
        gains = [r.slope_gain for r in rows if r.component == component]
        finite = [g for g in gains if math.isfinite(g)]
        gain_mean[component] = float(np.mean(finite)) if finite else math.inf
        gain_std[component] = float(np.std(finite)) if finite else 0.0
        sup_norm[component] = max(
            r.normalized_residual for r in rows if r.component == component
        )
    return SmoothingScanReport(params, rows, gain_mean, gain_std, sup_norm)


# ---------------------------------------------------------------------------
# Sharpness counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleResult:
    big_n: float
    ratio: float
    u_norm: float
    v_norm: float
    product_norm: float


def _axis_points(half_width: float, resolution: int) -> np.ndarray:
    """Midpoint lattice across ``[-w, w]`` with ``resolution`` cells per half."""
    m = 2 * resolution
    h = half_width / resolution
    return (np.arange(m) + 0.5) * h - half_width, h


def sharpness_counterexample(
    big_n: float,
    s: float,
    r: float,
    alpha: float,
    b: float = 0.55,
    d: int = 2,
    branch: int = +1,
    resolution: int = 8,
) -> CounterexampleResult:
    """Frequency-box ratio probing the half-derivative ceiling.

    Places indicator data on two boxes in (xi, tau) space: one of width
    ``2/N`` around ``xi_1 = N`` riding the Schrodinger surface
    (``tau ~ -N^2``), one of the same width at the origin, both of unit width
    in the remaining axes.  Evaluates::

        || uv ||_{X^{s+alpha, b-1}} / ( ||u||_{X^{s,b}} ||v||_{X^{r,b},wave} )

    by direct summation of the (per-axis factorized) discrete convolution on
    an anisotropic lattice that resolves the ``1/N`` width.  The ratio scales
    like ``N^(alpha - 1/2)``, so it stays bounded exactly when the smoothing
    gain does not exceed one half derivative.
    """
    if big_n < 4 or 2 ** round(math.log2(big_n)) != big_n:
        raise ConfigurationError(f"N must be a dyadic number >= 4, got {big_n}")
    if resolution < 2:
        raise ResolutionError(
            f"resolution {resolution} cannot resolve the 1/N box width"
        )
    if d not in (2, 3, 4):
        raise ConfigurationError("counterexample is defined for d in 2..4")
    if branch not in (+1, -1):
        raise ConfigurationError("branch must be +1 or -1")
    m = 2 * resolution
    if (2 * m - 1) ** (d + 1) > 4e6:
        raise ResourceLimitError("counterexample lattice too large; lower resolution")

    # Per-axis offset lattices and spacings.  Axis order: xi_1, xi_perp..., tau.
    narrow, h_narrow = _axis_points(1.0 / big_n, resolution)
    wide, h_wide = _axis_points(1.0, resolution)
    axes_u = [narrow + big_n] + [wide] * (d - 1) + [wide - big_n**2]
    axes_v = [narrow] + [wide] * (d - 1) + [wide]
    spacings = [h_narrow] + [h_wide] * (d - 1) + [h_wide]

    def box_norm_sq(axes: list[np.ndarray], space_weight: float, box_branch: int | None) -> float:
        w = xsb_weight(*lattice_xi_tau(*axes), 2 * space_weight, 2 * b, box_branch)
        return float(np.sum(w)) * math.prod(spacings)

    u_norm = math.sqrt(box_norm_sq(axes_u, s, None))
    v_norm = math.sqrt(box_norm_sq(axes_v, r, branch))

    # Indicator convolution factorizes per axis into exact discrete triangles.
    ones = np.ones(m)
    conv_axes = []
    conv_offsets = []
    for au, av, h in zip(axes_u, axes_v, spacings):
        conv_axes.append(np.convolve(ones, ones) * h)
        conv_offsets.append((au[0] + av[0]) + h * np.arange(2 * m - 1))
    conv = conv_axes[0]
    for c in conv_axes[1:]:
        conv = np.multiply.outer(conv, c)
    conv *= (2.0 * math.pi) ** (-(d + 1))

    w = xsb_weight(*lattice_xi_tau(*conv_offsets), 2 * (s + alpha), 2 * (b - 1.0))
    product_norm = math.sqrt(float(np.sum(w * conv**2)) * math.prod(spacings))
    return CounterexampleResult(
        big_n=big_n,
        ratio=product_norm / (u_norm * v_norm),
        u_norm=u_norm,
        v_norm=v_norm,
        product_norm=product_norm,
    )
