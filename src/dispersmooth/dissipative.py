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
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .evolution import (
    Fields,
    Flow,
    IntegratorConfig,
    Recorder,
    System,
    Trajectory,
    block_flow,
    lawson_rk4_run,
    nonlinear_rhs,
)
from .spectral import (
    Grid,
    SpectralField,
    band_limited,
    conjugate,
    cubic_pairing,
    from_box,
    half_spectrum,
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
        if self.g is not None:
            _require_real(self.g, "g")

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
    """Fields ``(u, v, w)`` at one time, as full spectra.

    ``v`` and ``w`` are real fields (``f(-k) = conj f(k)`` to 1e-12 relative
    in L2, see `_require_real`); `integrate_damped` and
    `damped_linear_propagate` reject a state whose ``v`` or ``w`` is not,
    since they carry both as half spectra on the box (`band_limited`).
    """

    u: SpectralField
    v: SpectralField
    w: SpectralField
    t: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.u.grid


def _require_real(f: SpectralField, name: str) -> None:
    """Reject a field that is not real: ``f - conj f`` above 1e-12 relative in L2."""
    defect = l2_norm(SpectralField(f.grid, f.coeffs - conjugate(f.coeffs)))
    if not defect <= 1e-12 * l2_norm(f):
        raise ConfigurationError(
            f"{name} must be a real field; its conjugate-symmetry defect is"
            f" {defect:.3e} in L2 against a norm of {l2_norm(f):.3e}"
        )


def _carried(state: DampedState) -> Fields:
    """``(u, v, w)`` as the damped flow carries them: box arrays, ``v`` and ``w`` half spectra."""
    for name in ("v", "w"):
        _require_real(getattr(state, name), name)
    u, v, w = (band_limited(getattr(state, name), name) for name in ("u", "v", "w"))
    return u, half_spectrum(v), half_spectrum(w)


# ---------------------------------------------------------------------------
# Exact linear flow and integration
# ---------------------------------------------------------------------------

def damped_linear_propagate(
    state: DampedState, params: DampedParams, t: float
) -> DampedState:
    """Exact flow of the homogeneous linear system by time ``t`` (`block_flow`).

    All Sobolev norms decay exponentially (rate at least
    ``min(gamma, a, delta - a)/2`` in the underdamped regime ``delta <= 2``).
    """
    grid = state.grid
    flow = block_flow(grid, t, params.gamma, params.a, params.delta)
    return DampedState(*_fields(grid, flow(_carried(state))), state.t + t)


def _fields(grid: Grid, arrays: Fields) -> tuple[SpectralField, ...]:
    return tuple(SpectralField(grid, from_box(a, grid)) for a in arrays)


def integrate_damped(
    state: DampedState, params: DampedParams, config: IntegratorConfig
) -> Trajectory:
    """Integrate the damped system; exponential scheme with the exact linear flow.

    The run carries ``u`` on the dealias box and the real ``v`` and ``w`` as
    box half spectra (`block_flow`), with the KGS right side plus the forcing
    (`nonlinear_rhs`); a state whose ``v`` or ``w`` is not real, or a state
    or forcing that is not band-limited, is rejected with
    `ConfigurationError`.  Recorded states are full spectra.

    With ``f = 0`` and real data the u-mass follows ``exp(-2 gamma t)``
    exactly; in general ``d/dt ||u||^2 = -2 gamma ||u||^2 + 2 Im int f conj(u)``
    holds along trajectories up to the time-discretization error.
    """
    grid = state.grid
    fields = _carried(state)
    f, g = params.forcing(grid)
    g_half = np.ascontiguousarray(half_spectrum(band_limited(g, "g")))  # a strided one is copied
    rhs = nonlinear_rhs(System.KGS, grid, forcing=(1j * band_limited(f, "f"), g_half))
    record = lambda t, fields: DampedState(*_fields(grid, fields), t)  # noqa: E731
    recorder = Recorder(("u", "v", "w"), grid, state.t, config, record)
    half_step = block_flow(grid, recorder.dt / 2, params.gamma, params.a, params.delta)
    lawson_rk4_run(fields, rhs, half_step, recorder.dt, recorder.n_steps, recorder)
    return recorder.trajectory(state)


# ---------------------------------------------------------------------------
# Energy functional and its exact dissipation rate
# ---------------------------------------------------------------------------

class _EnergyTerms(NamedTuple):
    """The norms and pairings of one state that `energy_H` and `energy_H_rate` share."""

    grad_u: float  # ||grad u||^2
    v: float  # ||v||^2
    grad_v: float  # ||grad v||^2
    w: float  # ||w||^2
    cubic: float  # int |u|^2 v dx
    f_u: float  # Re int f conj(u) dx
    g_w: float  # Re int g conj(w) dx

    @classmethod
    def of(cls, state: DampedState, params: DampedParams) -> "_EnergyTerms":
        f, g = params.forcing(state.grid)
        return cls(
            sobolev_norm(state.u, 1.0, homogeneous=True) ** 2,
            l2_norm(state.v) ** 2,
            sobolev_norm(state.v, 1.0, homogeneous=True) ** 2,
            l2_norm(state.w) ** 2,
            cubic_pairing(state.u.coeffs, state.v.coeffs, state.grid),
            inner_product(f, state.u).real,
            inner_product(g, state.w).real,
        )

    def energy(self, params: DampedParams) -> float:
        return (
            2.0 * self.grad_u
            + params.spring_constant * self.v
            + self.grad_v
            + self.w
            - 2.0 * self.cubic
            + 4.0 * self.f_u
        )

    def rate(self, params: DampedParams) -> float:
        gamma, a, delta = params.gamma, params.a, params.delta
        return (
            -4.0 * gamma * self.grad_u
            - 2.0 * a * params.spring_constant * self.v
            - 2.0 * a * self.grad_v
            - 2.0 * (delta - a) * self.w
            + (4.0 * gamma + 2.0 * a) * self.cubic
            - 4.0 * gamma * self.f_u
            + 2.0 * self.g_w
        )


def energy_H(state: DampedState, params: DampedParams) -> float:
    """The Lyapunov-type energy of the damped flow (see module docstring).

    The forcing pairing is taken as ``4 Re int f conj(u) dx``, which keeps H
    real and matches the dissipation rate below term by term.
    """
    return _EnergyTerms.of(state, params).energy(params)


def energy_H_rate(state: DampedState, params: DampedParams) -> float:
    """Closed-form ``dH/dt`` along the flow; exact for band-limited states.

    Along numerical trajectories a second-order centered difference of
    `energy_H` reproduces this to O(dt^2).
    """
    return _EnergyTerms.of(state, params).rate(params)


# ---------------------------------------------------------------------------
# Attractor diagnostics
# ---------------------------------------------------------------------------

#: Sobolev exponents of the nonlinear-part probes of ``(u, v, w)``, below the
#: 3/2-, 3- and 2-smoothing limits (the CSV columns ``nl_u_H14, nl_v_H28, nl_w_H18``).
PROBE_EXPONENTS = (1.4, 2.8, 1.8)


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
    absorbing_radius: float
    entry_time: float | None
    persistent: bool
    linear_decay_rate: float | None
    nonlinear_tail_bounded: bool
    inconclusive: bool


def attractor_diagnostics(trajectory: Trajectory, params: DampedParams) -> AttractorReport:
    """Absorbing-ball entry and smoothness of the nonlinear part along a run.

    Splits each recorded state into the exact homogeneous linear flow of the
    initial data plus the remainder, and reports (a) entry into and
    persistence within a candidate absorbing ball whose radius is estimated
    from the tail of the run, and (b) the remainder's Sobolev norms at the
    `PROBE_EXPONENTS`, which stay bounded while the linear part decays (the
    compactness proxy: the probes sit strictly below the 3/2-, 3-, 2-
    limits).  A run much shorter than the damping timescale is flagged
    inconclusive.  ``trajectory`` comes from `integrate_damped`: the linear
    part advances from record to record by the run's step indices and
    ``dt``, with one `block_flow` per distinct step gap.
    """
    grid = trajectory[0].grid
    rows: list[AttractorRow] = []
    terms = [_EnergyTerms.of(s, params) for s in trajectory]
    energies = [t.energy(params) for t in terms]
    e_rate = [t.rate(params) for t in terms]
    times = np.array([s.t for s in trajectory])

    flows: dict[int, Flow] = {}
    linear = _carried(trajectory[0])
    previous = trajectory.steps[0]
    ball_norms = []
    lin_norms = []
    for idx, (state, step) in enumerate(zip(trajectory, trajectory.steps)):
        gap, previous = step - previous, step
        if gap not in flows:
            flows[gap] = block_flow(grid, gap * trajectory.dt, params.gamma, params.a, params.delta)
        linear = flows[gap](linear)
        lin_u, lin_v, lin_w = _fields(grid, linear)
        if 0 < idx < len(trajectory) - 1:
            dt_pair = trajectory[idx + 1].t - trajectory[idx - 1].t
            rate_fd = (energies[idx + 1] - energies[idx - 1]) / dt_pair
        else:
            rate_fd = math.nan
        linear_u_h1 = sobolev_norm(lin_u, 1.0)
        linear_v_h1 = sobolev_norm(lin_v, 1.0)
        linear_w_l2 = l2_norm(lin_w)
        rows.append(
            AttractorRow(
                t=state.t,
                energy=energies[idx],
                rate_closed=e_rate[idx],
                rate_fd=rate_fd,
                mass=l2_norm(state.u),
                linear_u_h1=linear_u_h1,
                linear_v_h1=linear_v_h1,
                linear_w_l2=linear_w_l2,
                nonlinear_u=sobolev_norm(state.u - lin_u, PROBE_EXPONENTS[0]),
                nonlinear_v=sobolev_norm(state.v - lin_v, PROBE_EXPONENTS[1]),
                nonlinear_w=sobolev_norm(state.w - lin_w, PROBE_EXPONENTS[2]),
            )
        )
        ball_norms.append(
            sobolev_norm(state.u, 1.0) + sobolev_norm(state.v, 1.0) + l2_norm(state.w)
        )
        lin_norms.append(linear_u_h1 + linear_v_h1 + linear_w_l2)

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
        absorbing_radius=radius,
        entry_time=entry_time,
        persistent=persistent,
        linear_decay_rate=rate,
        nonlinear_tail_bounded=bounded,
        inconclusive=inconclusive,
    )
