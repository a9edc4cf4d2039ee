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

whose exact time derivative along the flow is `_EnergyTerms.rate` (the
pairing ``4 Re int f conj(u)`` keeps H real and matches it term by term);
with zero forcing the u-mass obeys the closed law ``||u(t)|| = exp(-gamma
t) ||u(0)||`` (the coupling term is phase-only for real v).  Both
identities hold exactly for the dealiased flow on band-limited states, so
finite-difference checks are limited only by the time step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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
    time_grid,
)
from .spectral import CouplingKernel, Grid, box_inner, box_norm, conjugate, line_slope


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
    state: SystemState,
    params: DampedParams,
    config: IntegratorConfig,
    record: Callable[[float, Fields, Fields], object] | None = None,
    kernel: CouplingKernel | None = None,
) -> Trajectory:
    """Integrate the damped system; exponential scheme with the exact linear flow.

    The run carries the state's ``(u, v, w)``, ``w = a v + v_t`` (`block_flow`),
    with the KGS right side plus the forcing (`nonlinear_rhs`), on ``kernel``
    (a new `CouplingKernel` when None), which the record may share.  As in
    `integrate`, `Recorder` keeps ``record(t, fields, rates)`` of the carried
    fields, the initial ones included: by default a copy of the state
    (`state_records`).  `Trajectory.final` is the last state either way.

    With ``f = 0`` and real data the u-mass follows ``exp(-2 gamma t)``
    exactly; in general ``d/dt ||u||^2 = -2 gamma ||u||^2 + 2 Im int f conj(u)``
    holds along trajectories up to the time-discretization error.
    """
    grid = state.grid
    f, g = params.forcing(grid)
    rhs = nonlinear_rhs(System.KGS, grid, forcing=(1j * f, g), kernel=kernel)
    recorder = Recorder(("u", "v", "w"), grid, state.t, config, record or state_records(state.system, grid))
    half_step = block_flow(grid, recorder.dt / 2, params.gamma, params.a, params.delta)
    last = lawson_rk4_run(state.fields, rhs, half_step, recorder.dt, recorder.n_steps, recorder)
    trajectory = recorder.trajectory()
    if record is not None:  # the run's workspace is its own from here on
        trajectory.final = SystemState(state.system, grid, *last, t=recorder.records[-1][1])
    return trajectory


# ---------------------------------------------------------------------------
# Energy functional and its exact dissipation rate
# ---------------------------------------------------------------------------

class _EnergyTerms(NamedTuple):
    """The norms and pairings of one state that H (`energy`) and its closed-form
    rate along the flow (`rate`) share."""

    grad_u: float  # ||grad u||^2
    v: float  # ||v||^2
    grad_v: float  # ||grad v||^2
    w: float  # ||w||^2
    cubic: float  # int |u|^2 v dx
    f_u: float  # Re int f conj(u) dx
    g_w: float  # Re int g conj(w) dx

    @classmethod
    def of(cls, fields: Fields, forcing: Fields, kernel: CouplingKernel) -> "_EnergyTerms":
        """The terms of carried ``(u, v, w)`` under the carried forcing ``(f, g)``
        (`DampedParams.forcing`), pairwise box sums (`box_inner`): H and its rate
        nearly cancel them.  The cubic term pairs ``P |u|^2`` from ``kernel``
        (`CouplingKernel.abs2`, on the fields' grid) with ``v``."""
        (u, v, w), (f, g), grid = fields, forcing, kernel.grid
        return cls(
            box_inner(u, u, grid, 1.0, homogeneous=True, pairwise=True),
            box_inner(v, v, grid, pairwise=True),
            box_inner(v, v, grid, 1.0, homogeneous=True, pairwise=True),
            box_inner(w, w, grid, pairwise=True),
            box_inner(kernel.abs2(u), v, grid, pairwise=True),
            box_inner(f, u, grid, pairwise=True),
            box_inner(g, w, grid, pairwise=True),
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


def attractor_records(
    state: SystemState, params: DampedParams, config: IntegratorConfig, kernel: CouplingKernel
) -> Callable[[float, Fields, Fields], tuple[AttractorRow, float]]:
    """The record of an `integrate_damped` run of ``state`` under ``config`` on
    ``kernel`` that `attractor_diagnostics` reads: ``(row, ball)`` of each
    recorded state.

    ``row`` is the state's `AttractorRow` but its ``rate_fd`` (NaN), and
    ``ball`` is ``||u||_{H^1} + ||v||_{H^1} + ||w||_{L^2}``, both formed from
    the live fields, so the run keeps no state.  The row splits the state
    into the exact homogeneous linear flow of ``state`` plus the remainder:
    the linear part advances from record to record in two buffers, by the
    step gap of `Recorder`'s schedule times the run's ``dt`` (`time_grid`),
    with one `block_flow` per distinct gap, and the remainder's norms at the
    `PROBE_EXPONENTS` are formed in the spare buffer.  H and ``dH/dt`` take
    ``|u|^2`` from ``kernel``, the run's right-side `CouplingKernel`, which is
    idle while the record runs.  Every norm is a box sum
    (`box_norm`).  A record belongs to one run.
    """
    grid = state.grid
    n_steps, dt = time_grid(config.t_end, config.dt)
    forcing = params.forcing(grid)
    linear = tuple(np.array(a, dtype=np.complex128) for a in state.fields)
    spare = tuple(np.empty_like(a) for a in linear)
    flows: dict[int, Flow] = {}
    schedule = (min(step, n_steps) for step in itertools.count(0, config.record_every))
    previous = 0

    def record(t: float, fields: Fields, rates: Fields) -> tuple[AttractorRow, float]:
        nonlocal linear, spare, previous
        step = next(schedule)
        gap, previous = step - previous, step
        if gap not in flows:
            flows[gap] = block_flow(grid, gap * dt, params.gamma, params.a, params.delta)
        linear, spare = flows[gap](linear, spare), linear
        terms = _EnergyTerms.of(fields, forcing, kernel)
        u, v, w = fields
        remainders = (np.subtract(a, b, out=c) for a, b, c in zip(fields, linear, spare))
        row = AttractorRow(
            t,
            terms.energy(params),
            terms.rate(params),
            math.nan,
            box_norm(u, grid),
            box_norm(linear[0], grid, 1.0),
            box_norm(linear[1], grid, 1.0),
            box_norm(linear[2], grid),
            *(box_norm(a, grid, p) for a, p in zip(remainders, PROBE_EXPONENTS)),
        )
        return row, box_norm(u, grid, 1.0) + box_norm(v, grid, 1.0) + box_norm(w, grid)

    return record


def attractor_diagnostics(
    records: Sequence[tuple[AttractorRow, float]], params: DampedParams
) -> AttractorReport:
    """Absorbing-ball entry and smoothness of the nonlinear part along a run.

    ``records`` are a run's `attractor_records`, the initial one first.  The
    report gives (a) entry into and persistence within a candidate absorbing
    ball whose radius is estimated from the tail of the run, and (b) the
    nonlinear remainder's Sobolev norms at the `PROBE_EXPONENTS`, which stay
    bounded while the linear part decays (the compactness proxy: the probes
    sit strictly below the 3/2-, 3-, 2- limits).  Each inner row's
    ``rate_fd`` is the centred difference of its neighbours' energies.  A
    run much shorter than the damping timescale is flagged inconclusive.
    """
    rows = [row for row, _ in records]
    ball_norms = [ball for _, ball in records]
    for idx in range(1, len(rows) - 1):
        before, after = rows[idx - 1], rows[idx + 1]
        rows[idx] = rows[idx]._replace(rate_fd=(after.energy - before.energy) / (after.t - before.t))
    times = np.array([row.t for row in rows])

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
    lin = np.array([r.linear_u_h1 + r.linear_v_h1 + r.linear_w_l2 for r in rows])
    usable = lin > max(lin[0] * 1e-12, 1e-14)
    rate: float | None = None
    if np.count_nonzero(usable) >= 3:
        rate = -line_slope(times[usable], np.log(lin[usable]))

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
