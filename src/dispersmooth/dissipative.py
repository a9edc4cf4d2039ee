"""Damped, forced Schrodinger-wave system and its energy identities.

The unknowns are ``(u, v, w)`` with ``w = a v + v_t`` for a small auxiliary
constant ``a``::

    i u_t + Lap u + i gamma u = -u v + f
    v_t + a v = w
    w_t + (delta - a) w + (1 + a (a - delta) - Lap) v = |u|^2 + g

with damping coefficients ``gamma, delta > 0`` and time-independent forcing
``f, g``.  The linear subsystem is solved exactly per mode (scalar multiplier
for u, a 2x2 matrix exponential for the (v, w) block), which makes the
linear/nonlinear split of the flow available for the compactness diagnostics:
the linear part decays exponentially while the nonlinear part stays in
markedly smoother Sobolev spaces.

The energy functional tracked here is::

    H = 2 ||grad u||^2 + (1 + a(a - delta)) ||v||^2 + ||grad v||^2 + ||w||^2
        - 2 int |u|^2 v dx + 4 Re int f conj(u) dx

whose exact time derivative along the flow is implemented in
`energy_H_rate`; with zero forcing the u-mass obeys the closed law
``||u(t)|| = exp(-gamma t) ||u(0)||`` (the coupling term is phase-only for
real v).  Both identities hold exactly for the dealiased flow on band-limited
states, so finite-difference checks are limited only by the time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .evolution import (
    Dispersion,
    Fields,
    Flow,
    IntegratorConfig,
    Recorder,
    Trajectory,
    lawson_rk4_run,
    linear_flow,
    propagator_symbol,
    time_grid,
)
from .spectral import (
    Grid,
    SpectralField,
    coupling_products,
    cubic_pairing,
    inner_product,
    l2_norm,
    sobolev_norm,
    zero_field,
)


@dataclass(frozen=True)
class DampedParams:
    """Damping/forcing parameters; ``a`` defaults to ``min(gamma, delta)/4``."""

    gamma: float
    delta: float
    a: float | None = None
    f: SpectralField | None = None
    g: SpectralField | None = None

    def __post_init__(self) -> None:
        for key in ("gamma", "delta", "a"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{key} must be finite and positive, got {value}")
        if self.a is None:
            object.__setattr__(self, "a", min(self.gamma, self.delta) / 4.0)
        if not self.a < self.delta:
            raise ConfigurationError("auxiliary constant requires 0 < a < delta")

    @property
    def spring_constant(self) -> float:
        """Coefficient ``1 + a (a - delta)`` of the v-restoring term."""
        return 1.0 + self.a * (self.a - self.delta)

    def forcing(self, grid: Grid) -> tuple[SpectralField, SpectralField]:
        f = self.f if self.f is not None else zero_field(grid)
        g = self.g if self.g is not None else zero_field(grid)
        return f, g


@dataclass(frozen=True)
class DampedState:
    """Fields ``(u, v, w)`` at one time; v and w stay real for real data."""

    u: SpectralField
    v: SpectralField
    w: SpectralField
    t: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.u.grid


# ---------------------------------------------------------------------------
# Exact linear flow
# ---------------------------------------------------------------------------

def damped_flow(grid: Grid, params: DampedParams, t: float) -> Flow:
    """`linear_flow` of the homogeneous linear system by time ``t`` on ``(u, v, w)``.

    Per mode, ``u_hat -> exp(-gamma t) exp(-i t |xi|^2) u_hat`` and the
    (v, w) pair advances by the matrix exponential of the block
    ``M = [[-a, 1], [-(c + |xi|^2), -(delta - a)]]`` with
    ``c = 1 + a(a - delta)``; trace ``-delta`` and determinant ``1 + |xi|^2``
    give eigenvalues ``-delta/2 +- q`` with ``q = sqrt(delta^2/4 - 1 - |xi|^2)``
    (complex for the underdamped modes).
    """
    a, delta = params.a, params.delta
    cap = params.spring_constant + grid.xi_squared
    half_trace = -delta / 2.0
    q = np.sqrt(np.asarray(half_trace**2 - (1.0 + grid.xi_squared), dtype=complex))
    qt = q * t
    ch = np.cosh(qt)
    small = np.abs(qt) < 1e-8
    sh_over_q = np.where(
        small,
        t * (1.0 + qt**2 / 6.0),
        np.sinh(np.where(small, 1.0, qt)) / np.where(small, 1.0, q),
    )
    decay = math.exp(half_trace * t)
    # Entries of M - (trace/2) I feeding exp(tM) = e^{t tr/2}(cosh I + sinh/q (M - tr/2 I)).
    top_left = -a - half_trace
    bottom_right = -(delta - a) - half_trace
    m11 = decay * (ch + top_left * sh_over_q)
    m12 = decay * sh_over_q
    m21 = decay * (-cap) * sh_over_q
    m22 = decay * (ch + bottom_right * sh_over_q)
    for entry in (m11, m12, m21, m22):
        entry[grid.nyquist_mask] = 0.0
    u_sym = math.exp(-params.gamma * t) * propagator_symbol(grid, Dispersion.SCHRODINGER, t)
    return linear_flow([{0: u_sym}, {1: m11, 2: m12}, {1: m21, 2: m22}])


def damped_linear_propagate(
    state: DampedState, params: DampedParams, t: float
) -> DampedState:
    """Exact flow of the homogeneous linear system by time ``t`` (`damped_flow`).

    All Sobolev norms decay exponentially (rate at least
    ``min(gamma, a, delta - a)/2`` in the underdamped regime ``delta <= 2``).
    """
    grid = state.grid
    fields = damped_flow(grid, params, t)((state.u.coeffs, state.v.coeffs, state.w.coeffs))
    return DampedState(*(SpectralField(grid, a) for a in fields), state.t + t)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def integrate_damped(
    state: DampedState, params: DampedParams, config: IntegratorConfig
) -> Trajectory:
    """Integrate the damped system; exponential scheme with the exact linear flow.

    With ``f = 0`` and real data the u-mass follows ``exp(-2 gamma t)``
    exactly; in general ``d/dt ||u||^2 = -2 gamma ||u||^2 + 2 Im int f conj(u)``
    holds along trajectories up to the time-discretization error.
    """
    grid = state.grid
    f, g = params.forcing(grid)
    n_steps, dt = time_grid(config.t_end, config.dt)

    def rhs(fields: Fields) -> Fields:
        uv, abs2 = coupling_products(grid, fields[0], fields[1])
        return 1j * uv - 1j * f.coeffs, np.zeros_like(fields[1]), abs2 + g.coeffs

    recorder = Recorder(
        ("u", "v", "w"),
        grid,
        state.t,
        dt,
        n_steps,
        config.record_every,
        config.blowup_threshold,
    )
    lawson_rk4_run(
        (state.u.coeffs, state.v.coeffs, state.w.coeffs),
        rhs,
        damped_flow(grid, params, dt / 2),
        dt,
        n_steps,
        recorder,
    )
    return recorder.trajectory(
        state, lambda t, fields: DampedState(*(SpectralField(grid, a) for a in fields), t)
    )


# ---------------------------------------------------------------------------
# Energy functional and its exact dissipation rate
# ---------------------------------------------------------------------------

def energy_H(state: DampedState, params: DampedParams) -> float:
    """The Lyapunov-type energy of the damped flow (see module docstring).

    The forcing pairing is taken as ``4 Re int f conj(u) dx``, which keeps H
    real and matches the dissipation rate below term by term.
    """
    f, _ = params.forcing(state.grid)
    return (
        2.0 * sobolev_norm(state.u, 1.0, homogeneous=True) ** 2
        + params.spring_constant * l2_norm(state.v) ** 2
        + sobolev_norm(state.v, 1.0, homogeneous=True) ** 2
        + l2_norm(state.w) ** 2
        - 2.0 * cubic_pairing(state.u, state.v)
        + 4.0 * inner_product(f, state.u).real
    )


def energy_H_rate(state: DampedState, params: DampedParams) -> float:
    """Closed-form ``dH/dt`` along the flow; exact for band-limited states.

    Along numerical trajectories a second-order centered difference of
    `energy_H` reproduces this to O(dt^2).
    """
    gamma, a, delta = params.gamma, params.a, params.delta
    f, g = params.forcing(state.grid)
    return (
        -4.0 * gamma * sobolev_norm(state.u, 1.0, homogeneous=True) ** 2
        - 2.0 * a * params.spring_constant * l2_norm(state.v) ** 2
        - 2.0 * a * sobolev_norm(state.v, 1.0, homogeneous=True) ** 2
        - 2.0 * (delta - a) * l2_norm(state.w) ** 2
        + (4.0 * gamma + 2.0 * a) * cubic_pairing(state.u, state.v)
        - 4.0 * gamma * inner_product(f, state.u).real
        + 2.0 * inner_product(g, state.w).real
    )


def mass_rate(state: DampedState, params: DampedParams) -> float:
    """Closed form ``d/dt ||u||^2 = -2 gamma ||u||^2 + 2 Im int f conj(u)``."""
    f, _ = params.forcing(state.grid)
    return -2.0 * params.gamma * l2_norm(state.u) ** 2 + 2.0 * inner_product(
        f, state.u
    ).imag


# ---------------------------------------------------------------------------
# Attractor diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttractorRow:
    t: float
    energy: float
    rate_closed: float
    rate_fd: float
    mass: float
    linear_u_h1: float
    linear_v_h1: float
    linear_w_l2: float
    nonlinear_u: float
    nonlinear_v: float
    nonlinear_w: float


@dataclass(frozen=True)
class AttractorReport:
    rows: list[AttractorRow]
    probe_exponents: tuple[float, float, float]
    absorbing_radius: float
    entry_time: float | None
    persistent: bool
    linear_decay_rate: float | None
    nonlinear_tail_bounded: bool
    inconclusive: bool


def attractor_diagnostics(
    trajectory: list[DampedState],
    params: DampedParams,
    probe_exponents: tuple[float, float, float] = (1.4, 2.8, 1.8),
) -> AttractorReport:
    """Absorbing-ball entry and smoothness of the nonlinear part along a run.

    Splits each recorded state into the exact homogeneous linear flow of the
    initial data plus the remainder, and reports (a) entry into and
    persistence within a candidate absorbing ball whose radius is estimated
    from the tail of the run, and (b) the remainder's Sobolev norms at the
    probe exponents, which stay bounded while the linear part decays (the
    compactness proxy: the probes sit strictly below the 3/2-, 3-, 2-
    limits).  A run much shorter than the damping timescale is flagged
    inconclusive.
    """
    first = trajectory[0]
    rows: list[AttractorRow] = []
    energies = [energy_H(s, params) for s in trajectory]
    times = np.array([s.t for s in trajectory])
    e_rate = [energy_H_rate(s, params) for s in trajectory]

    ball_norms = []
    lin_norms = []
    for idx, state in enumerate(trajectory):
        linear = damped_linear_propagate(first, params, state.t - first.t)
        residual_u = state.u - linear.u
        residual_v = state.v - linear.v
        residual_w = state.w - linear.w
        if 0 < idx < len(trajectory) - 1:
            dt_pair = trajectory[idx + 1].t - trajectory[idx - 1].t
            rate_fd = (energies[idx + 1] - energies[idx - 1]) / dt_pair
        else:
            rate_fd = math.nan
        lin_total = (
            sobolev_norm(linear.u, 1.0)
            + sobolev_norm(linear.v, 1.0)
            + l2_norm(linear.w)
        )
        rows.append(
            AttractorRow(
                t=state.t,
                energy=energies[idx],
                rate_closed=e_rate[idx],
                rate_fd=rate_fd,
                mass=l2_norm(state.u),
                linear_u_h1=sobolev_norm(linear.u, 1.0),
                linear_v_h1=sobolev_norm(linear.v, 1.0),
                linear_w_l2=l2_norm(linear.w),
                nonlinear_u=sobolev_norm(residual_u, probe_exponents[0]),
                nonlinear_v=sobolev_norm(residual_v, probe_exponents[1]),
                nonlinear_w=sobolev_norm(residual_w, probe_exponents[2]),
            )
        )
        ball_norms.append(
            sobolev_norm(state.u, 1.0) + sobolev_norm(state.v, 1.0) + l2_norm(state.w)
        )
        lin_norms.append(lin_total)

    damping_scale = min(params.gamma, params.a, params.delta - params.a)
    span = times[-1] - times[0]
    inconclusive = span * damping_scale < 4.0

    tail_start = times[0] + span / 2
    tail = [b for t, b in zip(times, ball_norms) if t >= tail_start]
    radius = max(tail) if tail else math.inf
    entry_time: float | None = None
    persistent = False
    if tail:
        threshold = 1.05 * radius
        inside = [t for t, b in zip(times, ball_norms) if b <= threshold]
        for t_in in inside:
            if all(b <= threshold for t, b in zip(times, ball_norms) if t >= t_in):
                entry_time = float(t_in)
                persistent = True
                break

    # Fit the linear decay rate on the window where the norm is above floor.
    lin = np.array(lin_norms)
    usable = lin > max(lin[0] * 1e-12, 1e-14)
    rate: float | None = None
    if np.count_nonzero(usable) >= 3:
        coeffs = np.polyfit(times[usable], np.log(lin[usable]), 1)
        rate = float(-coeffs[0])

    tail_rows = [r for r in rows if r.t >= tail_start]
    bounded = True
    if len(tail_rows) >= 3:
        for attr in ("nonlinear_u", "nonlinear_v", "nonlinear_w"):
            series = [getattr(r, attr) for r in tail_rows]
            diffs = np.diff(series)
            if np.all(diffs > 0) and series[-1] > 1.5 * series[0]:
                bounded = False  # monotone growth over the whole tail
    return AttractorReport(
        rows=rows,
        probe_exponents=probe_exponents,
        absorbing_radius=radius,
        entry_time=entry_time,
        persistent=persistent,
        linear_decay_rate=rate,
        nonlinear_tail_bounded=bounded,
        inconclusive=inconclusive,
    )
