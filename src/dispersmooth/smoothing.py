"""Nonlinear-smoothing diagnostics.

Tools to measure how much smoother the nonlinear part of the flow is than its
data: Duhamel residuals against the free flow, the closed-form supremal
smoothing exponents with their admissibility hypotheses, ensemble smoothing
scans over random rough data, and the frequency-box counterexample that pins
the half-derivative ceiling for the Schrodinger component.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    AdmissibilityError,
    ConfigurationError,
    ResolutionError,
    ResourceLimitError,
)
from .evolution import (
    IntegratorConfig,
    System,
    SystemState,
    block_flow,
    box_wplus,
    integrate,
    random_system_state,
    wave_norm,
)
from .spectral import Grid, box_norm, fit_spectral_slope


def worker_count() -> int:
    """Worker cap for embarrassingly parallel ensembles.

    Controlled by the DISPERSMOOTH_THREADS environment variable; defaults to
    a modest pool.  Either way the count is at most ``os.cpu_count()``: a
    thread beyond the cores only adds hand-offs of the GIL.  Results never
    depend on the worker count (jobs are pure and merged in submission order).
    """
    cores = os.cpu_count() or 1
    raw = os.environ.get("DISPERSMOOTH_THREADS", "")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    return min(value if value >= 1 else 4, cores)


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

def duhamel_residual(trajectory: list[SystemState]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Nonlinear parts ``(u(t) - S(t) u(0), w+(t) - S(t) w+(0))`` along a run, ``S`` the free flow.

    Each pair holds box arrays (`Grid.box`): the record minus the free flow
    of the first record (`block_flow`, one per record, for both components),
    ``u`` and the `box_wplus` of the wave's difference.  The pair at the
    initial time is exactly zero.
    """
    first = trajectory[0]
    grid = first.grid
    out = []
    for state in trajectory:
        gap = state.t - first.t  # no flow to build over no time: it is the identity
        free = block_flow(grid, gap)(first.fields) if gap else first.fields
        u, v, w = (a - b for a, b in zip(state.fields, free))
        out.append((u, box_wplus(v, w, grid)))
    return out


# ---------------------------------------------------------------------------
# Ensemble smoothing scan
# ---------------------------------------------------------------------------

class ScanRow(NamedTuple):
    seed: int
    component: str
    probe: float
    residual_norm: float
    normalized_residual: float
    slope_gain: float


class SmoothingScanReport(NamedTuple):
    params: SmoothingParams
    rows: list[ScanRow]
    gain_mean: dict[str, float]
    gain_std: dict[str, float]
    sup_normalized_residual: dict[str, float]


def _scan_member(
    params: SmoothingParams,
    grid: Grid,
    member_seed: int,
    integrator: IntegratorConfig,
    amplitude: float,
    wave_amplitude: float,
) -> list[ScanRow]:
    state = random_system_state(params.system, grid, params.s, params.r, member_seed)
    # Mean-zero wave data: on the torus the wave zero mode is a constant
    # background potential that only phase-rotates u, leaving a residual
    # proportional to the data itself; the whole-space setting has no such
    # discrete mode, so the scan removes it (cf. the mean-zero convention
    # for the homogeneous wave norms).  It is the zero mode of w+: of v and v_t.
    v, v_t = state.v.copy(), state.w.copy()
    v[(0,) * grid.dim] = v_t[(0,) * grid.dim] = 0.0
    # Unit-norm data: u in H^s, wave in H^r, then multiplied by the
    # requested amplitudes (zero amplitude = absent field).
    u_scale = amplitude / box_norm(state.u, grid, params.s)
    w_scale = wave_amplitude / wave_norm(v, v_t, grid, params.r)
    state = SystemState(params.system, grid, u_scale * state.u, w_scale * v, w_scale * v_t)
    traj = integrate(state, replace(integrator, record_every=10**9))
    data = {"u": state.u, "wplus": box_wplus(state.v, state.w, grid)}
    data_size = amplitude + wave_amplitude  # ||u0||_{H^s} + ||w0||_{H^r}

    n = grid.n_per_dim
    fit_lo, fit_hi = n / 8, n / 3
    rows = []
    probes = (("u", params.alpha_probe, params.s), ("wplus", params.beta_probe, params.r))
    for (component, probe, base), residual in zip(probes, duhamel_residual(traj)[-1]):
        res_norm = box_norm(residual, grid, base + probe)
        data_slope = fit_spectral_slope(data[component], grid, fit_lo, fit_hi)
        res_slope = fit_spectral_slope(residual, grid, fit_lo, fit_hi)
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
    integrator: IntegratorConfig = IntegratorConfig(dt=2e-3, t_end=0.5),
    amplitude: float = 1.0,
    wave_amplitude: float | None = None,
) -> SmoothingScanReport:
    """Measure the smoothing gain on an ensemble of random unit-norm data.

    For each member: integrate over ``integrator.t_end`` on the steps and
    under the blow-up guard of ``integrator``, form the Duhamel residuals of the
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

    jobs = [(params, grid, m, integrator, amplitude, wave_amplitude) for m in member_seeds]
    workers = min(worker_count(), ensemble_size)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled scan pays its import

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

class CounterexampleResult(NamedTuple):
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
    from .resonance import lattice_xi_tau, xsb_weight

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
