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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .evolution import (
    Fields,
    Flow,
    IntegratorConfig,
    Recorder,
    System,
    SystemState,
    Trajectory,
    block_flow,
    lawson_rk4_run,
    nonlinear_rhs,
    state_records,
)
from .spectral import CouplingKernel, Grid, box_inner, box_norm, conjugate


@dataclass(frozen=True)
class DampedParams:
    """Damping/forcing parameters; ``a`` defaults to ``min(gamma, delta)/4``.

    The forcing is carried as a run carries it (`nonlinear_rhs`): ``f`` a box
    array (`Grid.box`), ``g`` the box half spectrum of a real field
    (`half_spectrum`), each zero when absent.  Like a state's fields they
    are not compared.  A non-finite entry, a ``g`` whose ``k_last = 0`` plane
    is not Hermitian to 1e-12 relative, or (on a run's grid, `forcing`) a
    wrong shape is a `ConfigurationError` that names the field.
    """

    gamma: float
    delta: float
    a: float | None = None
    f: np.ndarray | None = field(default=None, compare=False)
    g: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for key in ("gamma", "delta", "a"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{key} must be finite and positive, got {value}")
        if self.a is None:
            object.__setattr__(self, "a", min(self.gamma, self.delta) / 4.0)
        if not self.a < self.delta:
            raise ConfigurationError("auxiliary constant requires 0 < a < delta")
        for key in ("f", "g"):
            value = getattr(self, key)
            if value is not None:
                value = np.ascontiguousarray(value, dtype=np.complex128)
                if not np.all(np.isfinite(value)):
                    raise ConfigurationError(f"{key} has a non-finite entry")
                object.__setattr__(self, key, value)
        if self.g is not None:
            plane = self.g[..., 0]  # the k_last = 0 plane holds both k and -k
            defect, size = (np.sqrt(np.sum(np.abs(a) ** 2)) for a in (plane - conjugate(plane), plane))
            if not defect <= 1e-12 * size:
                raise ConfigurationError(
                    f"g must be the half spectrum of a real field: its k_last = 0 plane has a"
                    f" conjugate-symmetry defect of {defect:.3e} against {size:.3e}"
                )

    @property
    def spring_constant(self) -> float:
        """Coefficient ``1 + a (a - delta)`` of the v-restoring term."""
        return 1.0 + self.a * (self.a - self.delta)

    def forcing(self, grid: Grid) -> Fields:
        """``(f, g)`` on ``grid``, zeros where absent; a wrong shape is rejected by name."""
        box = grid.box_shape
        shapes = (box, box[:-1] + (box[-1] // 2 + 1,))
        f, g = (np.zeros(shape, complex) if a is None else a for a, shape in zip((self.f, self.g), shapes))
        for name, a, shape, layout in zip("fg", (f, g), shapes, ("box", "box half spectrum")):
            if a.shape != shape:
                raise ConfigurationError(
                    f"{name} has shape {a.shape}, not {shape}: the {layout} of a"
                    f" {grid.n_per_dim}^{grid.dim} grid"
                )
        return f, g


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def integrate_damped(
    state: SystemState, params: DampedParams, config: IntegratorConfig
) -> Trajectory:
    """Integrate the damped system; exponential scheme with the exact linear flow.

    The run carries the state's ``(u, v, w)``, ``w = a v + v_t`` (`block_flow`),
    with the KGS right side plus the forcing (`nonlinear_rhs`), and records
    states (`state_records`).

    With ``f = 0`` and real data the u-mass follows ``exp(-2 gamma t)``
    exactly; in general ``d/dt ||u||^2 = -2 gamma ||u||^2 + 2 Im int f conj(u)``
    holds along trajectories up to the time-discretization error.
    """
    grid = state.grid
    f, g = params.forcing(grid)
    rhs = nonlinear_rhs(System.KGS, grid, forcing=(1j * f, g))
    recorder = Recorder(("u", "v", "w"), grid, state.t, config, state_records(state.system, grid))
    half_step = block_flow(grid, recorder.dt / 2, params.gamma, params.a, params.delta)
    lawson_rk4_run(state.fields, rhs, half_step, recorder.dt, recorder.n_steps, recorder)
    return recorder.trajectory()


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
    def of(cls, state: SystemState, forcing: Fields, kernel: CouplingKernel) -> "_EnergyTerms":
        """The terms of ``state`` under the carried forcing ``(f, g)`` (`DampedParams.forcing`),
        pairwise box sums (`box_inner`): H and its rate nearly cancel them.  The
        cubic term pairs ``P |u|^2`` from ``kernel`` (`CouplingKernel.abs2`) with ``v``."""
        (f, g), grid = forcing, state.grid
        return cls(
            box_inner(state.u, state.u, grid, 1.0, homogeneous=True, pairwise=True),
            box_inner(state.v, state.v, grid, pairwise=True),
            box_inner(state.v, state.v, grid, 1.0, homogeneous=True, pairwise=True),
            box_inner(state.w, state.w, grid, pairwise=True),
            box_inner(kernel.abs2(state.u), state.v, grid, pairwise=True),
            box_inner(f, state.u, grid, pairwise=True),
            box_inner(g, state.w, grid, pairwise=True),
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


def energy_H(state: SystemState, params: DampedParams) -> float:
    """The Lyapunov-type energy of the damped flow (see module docstring).

    The forcing pairing is taken as ``4 Re int f conj(u) dx``, which keeps H
    real and matches the dissipation rate below term by term.
    """
    grid = state.grid
    return _EnergyTerms.of(state, params.forcing(grid), CouplingKernel(grid)).energy(params)


def energy_H_rate(state: SystemState, params: DampedParams) -> float:
    """Closed-form ``dH/dt`` along the flow; exact for band-limited states.

    Along numerical trajectories a second-order centered difference of
    `energy_H` reproduces this to O(dt^2).
    """
    grid = state.grid
    return _EnergyTerms.of(state, params.forcing(grid), CouplingKernel(grid)).rate(params)


# ---------------------------------------------------------------------------
# Attractor diagnostics
# ---------------------------------------------------------------------------

#: Sobolev exponents of the nonlinear-part probes of ``(u, v, w)``, below the
#: 3/2-, 3- and 2-smoothing limits (the CSV columns ``nl_u_H14, nl_v_H28, nl_w_H18``).
PROBE_EXPONENTS = (1.4, 2.8, 1.8)


class AttractorRow(NamedTuple):
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


class AttractorReport(NamedTuple):
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
    ``dt``, with one `block_flow` per distinct step gap.  Every norm is a
    box sum (`box_norm`).
    """
    grid = trajectory[0].grid
    rows: list[AttractorRow] = []
    forcing, kernel = params.forcing(grid), CouplingKernel(grid)
    terms = [_EnergyTerms.of(s, forcing, kernel) for s in trajectory]
    energies = [t.energy(params) for t in terms]
    e_rate = [t.rate(params) for t in terms]
    times = np.array([s.t for s in trajectory])

    flows: dict[int, Flow] = {}
    linear = trajectory[0].fields
    previous = trajectory.steps[0]
    ball_norms = []
    lin_norms = []
    for idx, (state, step) in enumerate(zip(trajectory, trajectory.steps)):
        gap, previous = step - previous, step
        if gap not in flows:
            flows[gap] = block_flow(grid, gap * trajectory.dt, params.gamma, params.a, params.delta)
        linear = flows[gap](linear)
        lin_u, lin_v, lin_w = linear
        if 0 < idx < len(trajectory) - 1:
            dt_pair = trajectory[idx + 1].t - trajectory[idx - 1].t
            rate_fd = (energies[idx + 1] - energies[idx - 1]) / dt_pair
        else:
            rate_fd = math.nan
        linear_u_h1 = box_norm(lin_u, grid, 1.0)
        linear_v_h1 = box_norm(lin_v, grid, 1.0)
        linear_w_l2 = box_norm(lin_w, grid)
        rows.append(
            AttractorRow(
                t=state.t,
                energy=energies[idx],
                rate_closed=e_rate[idx],
                rate_fd=rate_fd,
                mass=box_norm(state.u, grid),
                linear_u_h1=linear_u_h1,
                linear_v_h1=linear_v_h1,
                linear_w_l2=linear_w_l2,
                nonlinear_u=box_norm(state.u - lin_u, grid, PROBE_EXPONENTS[0]),
                nonlinear_v=box_norm(state.v - lin_v, grid, PROBE_EXPONENTS[1]),
                nonlinear_w=box_norm(state.w - lin_w, grid, PROBE_EXPONENTS[2]),
            )
        )
        ball_norms.append(
            box_norm(state.u, grid, 1.0) + box_norm(state.v, grid, 1.0) + box_norm(state.w, grid)
        )
        lin_norms.append(linear_u_h1 + linear_v_h1 + linear_w_l2)

    damping_scale = min(params.gamma, params.a, params.delta - params.a)
    span = times[-1] - times[0]
    inconclusive = bool(span * damping_scale < 4.0)  # a numpy bool is no JSON boolean

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
