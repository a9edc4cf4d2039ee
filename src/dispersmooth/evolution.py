"""Time integration of the transformed coupled systems.

The unknowns are ``(u, w+)``, where ``w+ = v + i A^{-1} v_t`` comes from the
real wave ``v`` (Klein-Gordon-Schrodinger) or the analogous ``n+`` (Zakharov),
with ``A = (1 - Laplacian)^{1/2}``.  The wave is real, so the minus branch
``w- = v - i A^{-1} v_t`` is the conjugate ``conj w+``: it is derived where it
is read (`SystemState.wminus`), never integrated.  The linear flow is applied
exactly per mode -- ``exp(-i t |xi|^2)`` for the Schrodinger component and
``exp(-i t <xi>)`` for ``w+`` -- so the fourth-order scheme (classical
Runge-Kutta in the interaction picture) sees no dispersive stiffness.
Quadratic nonlinearities are evaluated pseudo-spectrally with 2/3-rule
dealiasing (`spectral.CouplingKernel`); conservation identities hold
exactly for the truncated flow when the data is band-limited below the
dealias cutoff, so the observed mass/Hamiltonian drift is pure
time-discretization error.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .spectral import (
    CouplingKernel,
    Grid,
    SpectralField,
    bessel_potential,
    conjugate,
    cubic_pairing,
    dealias,
    l2_norm,
    real_part,
    riesz_potential,
    scale,
    sobolev_norm,
    zero_mode_mean,
)


Fields = tuple[np.ndarray, ...]
Flow = Callable[[Fields], Fields]


class System(str, enum.Enum):
    KGS = "kgs"
    ZAKHAROV = "zakharov"


class Dispersion(str, enum.Enum):
    SCHRODINGER = "schrodinger"
    KG_PLUS = "kg_plus"
    KG_MINUS = "kg_minus"


@dataclass(frozen=True)
class SystemState:
    """Transformed-system unknowns ``(u, w+)`` at one time; ``w-`` is derived."""

    system: System
    u: SpectralField
    wplus: SpectralField
    t: float = field(default=0.0, kw_only=True)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @property
    def wminus(self) -> SpectralField:
        """The minus branch ``conj w+`` of the real wave."""
        return SpectralField(self.grid, conjugate(self.wplus.coeffs))


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping parameters; also the ``[integrator]`` configuration section.

    A run covers ``t_end`` on the step grid of `time_grid`.  The linear flow
    is exact, so ``dt`` only has to resolve the nonlinear time scales.
    ``blowup_threshold`` bounds every field's L2 norm (see `Recorder`).
    """

    dt: float = 1e-2
    t_end: float = 1.0
    record_every: int = 1
    blowup_threshold: float = 1e12

    def __post_init__(self) -> None:
        time_grid(self.t_end, self.dt)  # rejects a bad t_end or dt
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if not self.blowup_threshold > 0:
            raise ConfigurationError(f"blowup_threshold must be positive, got {self.blowup_threshold}")


@dataclass(frozen=True)
class ConservationReport:
    mass: float
    hamiltonian: float
    zero_mode_mass_of_wave: float | None


# ---------------------------------------------------------------------------
# Linear propagators
# ---------------------------------------------------------------------------

def propagator_symbol(grid: Grid, dispersion: Dispersion, t: float) -> np.ndarray:
    """Exact one-parameter linear flow multiplier; Nyquist plane zeroed."""
    if dispersion is Dispersion.SCHRODINGER:
        sym = np.exp(-1j * t * grid.xi_squared)
    elif dispersion is Dispersion.KG_PLUS:
        sym = np.exp(-1j * t * grid.bracket)
    elif dispersion is Dispersion.KG_MINUS:
        sym = np.exp(1j * t * grid.bracket)
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown dispersion {dispersion}")
    sym = sym.astype(np.complex128)
    sym[grid.nyquist_mask] = 0.0
    return sym


def linear_propagate(f: SpectralField, dispersion: Dispersion, t: float) -> SpectralField:
    """Free evolution by time ``t`` under the chosen dispersion relation."""
    return SpectralField(f.grid, f.coeffs * propagator_symbol(f.grid, dispersion, t))


def linear_flow(symbols: Sequence[Mapping[int, np.ndarray]]) -> Flow:
    """Exact linear flow on coefficient arrays, from its per-mode symbols.

    Field ``i`` becomes ``sum_j symbols[i][j] * fields[j]``: one term per
    field for a diagonal flow, two for a coupled 2x2 block, summed in place
    into the first term.  Every symbol carries a zero Nyquist plane.
    """

    def flow(fields: Fields) -> Fields:
        return tuple(
            functools.reduce(operator.iadd, [sym * fields[j] for j, sym in row.items()])
            for row in symbols
        )

    return flow


SYSTEM_DISPERSIONS = (Dispersion.SCHRODINGER, Dispersion.KG_PLUS)


def free_flow(grid: Grid, dispersions: tuple[Dispersion, ...], t: float) -> Flow:
    """`linear_flow` over time ``t`` of fields with one dispersion relation each."""
    return linear_flow(
        [{i: propagator_symbol(grid, dispersion, t)} for i, dispersion in enumerate(dispersions)]
    )


# ---------------------------------------------------------------------------
# Wave algebra
# ---------------------------------------------------------------------------

def join_wave(v: SpectralField, v_t: SpectralField) -> SpectralField:
    """``w+ = v + i A^{-1} v_t`` of a real wave ``(v, v_t)``."""
    return v + 1j * bessel_potential(v_t, -1.0)


def split_wave(wplus: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Recover ``v = Re w+`` and ``v_t = A Im w+``."""
    conj = conjugate(wplus.coeffs)
    v = SpectralField(wplus.grid, 0.5 * (wplus.coeffs + conj))
    v_t = bessel_potential(SpectralField(wplus.grid, -0.5j * (wplus.coeffs - conj)), 1.0)
    return v, v_t


def wave_field(state: SystemState) -> SpectralField:
    """The physical wave unknown ``Re w+``."""
    return SpectralField(state.grid, real_part(state.wplus.coeffs))


# ---------------------------------------------------------------------------
# Nonlinear right sides (the non-dispersive terms, as du/dt contributions)
# ---------------------------------------------------------------------------

def nonlinear_rhs(
    system: System, grid: Grid, fields: Fields, kernel: CouplingKernel | None = None
) -> Fields:
    """Nonlinear time-derivative contributions ``(du, dw+)`` of coefficient arrays.

    With ``w- = conj w+`` the wave sum is ``w+ + w- = 2 Re w+``, and for
    Zakharov ``Re n- = Re n+``.  Klein-Gordon-Schrodinger::

        du  = i u Re w+
        dw+ = i A^{-1} |u|^2

    Zakharov (the bounded correction term keeps the linear stage diagonal)::

        du  = -i u Re n+
        dn+ = i ( -|xi|^2 A^{-1} |u|^2 + A^{-1} Re n+ )

    Re is taken in coefficient space (`real_part`, no transform).  Both
    products come dealiased from ``kernel``, the run's `CouplingKernel` (a
    fresh one when None): two complex inverse transforms, one complex and one
    real forward transform.  The symbols are applied in place, so a call
    allocates the two returned arrays and ``Re w+`` only.
    """
    kernel = CouplingKernel(grid) if kernel is None else kernel
    u, wplus = fields
    re = real_part(wplus)
    du, dw = kernel(u, re)
    symbols = kernel.symbols
    if system is System.KGS:
        du *= 1j
        scale(dw, symbols.inverse_bracket)
    else:
        du *= -1j
        scale(dw, symbols.neg_lap_inverse_bracket)
        dw += scale(re, symbols.inverse_bracket)
    dw *= 1j
    return du, dw


# ---------------------------------------------------------------------------
# Integrators
# ---------------------------------------------------------------------------

def lawson_rk4_run(
    fields: Fields,
    rhs: Flow,
    half_step: Flow,
    dt: float,
    n_steps: int,
    observer: Callable[[int, Fields], None] | None = None,
) -> Fields:
    """Classical RK4 in the interaction picture with exact linear half-steps.

    One step, with P the exact linear flow over dt/2 and N the nonlinear
    right side, in the four-application form of Hult's RK4IP (J. Lightwave
    Technol. 25(12), 3770, 2007)::

        N1 = N(y),                 Py = P(y),  PN1 = P(N1)
        N2 = N(Py + dt/2 PN1)
        N3 = N(Py + dt/2 N2)
        N4 = N(P(Py + dt N3))
        y' = P(Py + dt/6 PN1 + dt/3 (N2 + N3)) + dt/6 N4

    P is linear, so these are the Lawson stages P(y + dt/2 N1), P(y) + dt/2 N2
    and P(P(y) + dt N3).  Fourth-order accurate; exact on the linear subflow.
    """
    h = 0.5 * dt
    y = fields
    for step in range(n_steps):
        n1 = rhs(y)
        py = half_step(y)
        pn1 = half_step(n1)
        n2 = rhs(tuple(a + h * b for a, b in zip(py, pn1)))
        n3 = rhs(tuple(a + h * b for a, b in zip(py, n2)))
        n4 = rhs(half_step(tuple(a + dt * b for a, b in zip(py, n3))))
        mid = tuple(
            a + (dt / 6.0) * b + (dt / 3.0) * (c + d) for a, b, c, d in zip(py, pn1, n2, n3)
        )
        y = tuple(a + (dt / 6.0) * b for a, b in zip(half_step(mid), n4))
        if observer is not None:
            observer(step + 1, y)
    return y


def time_grid(t_end: float, dt: float) -> tuple[int, float]:
    """Step count and effective step ``(n, dt_eff)`` of a run of length ``t_end``.

    ``n = ceil(t_end / dt)`` up to a relative tolerance of 1e-9, so 0.02/1e-3
    gives 20 steps, and ``dt_eff = t_end / n``: a ``dt`` that does not divide
    ``t_end`` is shortened, and every run ends at ``t_end``.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(f"t_end must be finite and positive, got {t_end}")
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be finite and positive, got {dt}")
    if not t_end / dt < 1e9:  # from 1e9 steps on, the 1e-9 tolerance exceeds one step
        raise ConfigurationError(f"t_end/dt must be below 1e9: t_end = {t_end}, dt = {dt}")
    n_steps = math.ceil(t_end / dt * (1.0 - 1e-9))
    return n_steps, t_end / n_steps


class Trajectory(list):
    """Recorded states, the initial one first, with their step indices and the
    run's effective step ``dt`` and step count ``n_steps``."""

    def __init__(self, states: list, steps: list[int], dt: float, n_steps: int):
        super().__init__(states)
        self.steps = steps
        self.dt = dt
        self.n_steps = n_steps


@dataclass
class Recorder:
    """Observer for `lawson_rk4_run`: the blow-up guard and the recorder.

    After each step it takes every field's L2 norm (Parseval) and raises
    `BlowUpError`, naming them all, once one is non-finite or above
    ``threshold``.  It keeps ``(step, t, fields)`` every ``record_every``
    steps and at the last step.
    """

    names: tuple[str, ...]
    grid: Grid
    t0: float
    dt: float
    n_steps: int
    record_every: int
    threshold: float
    records: list[tuple[int, float, Fields]] = field(default_factory=list)

    def __call__(self, step: int, fields: Fields) -> None:
        t = self.t0 + step * self.dt
        norms = {
            f"{name}_L2": float(np.sqrt(np.sum(np.abs(a) ** 2) / self.grid.volume))
            for name, a in zip(self.names, fields)
        }
        if any(not math.isfinite(v) or v > self.threshold for v in norms.values()):
            raise BlowUpError(t, norms, self.threshold)
        if step % self.record_every == 0 or step == self.n_steps:
            for a in fields:  # a read-only record becomes a field without a copy
                a.flags.writeable = False
            self.records.append((step, t, fields))

    def trajectory(self, initial, wrap: Callable[[float, Fields], object]) -> Trajectory:
        """The initial state followed by ``wrap(t, fields)`` of each record."""
        return Trajectory(
            [initial] + [wrap(t, fields) for _, t, fields in self.records],
            [0] + [step for step, _, _ in self.records],
            self.dt,
            self.n_steps,
        )


def integrate(state: SystemState, config: IntegratorConfig) -> Trajectory:
    """Integrate over ``config.t_end``; returns the recorded states (initial one included).

    The steps are those of `time_grid`; `Recorder` records and guards the run.
    """
    grid = state.grid
    n_steps, dt = time_grid(config.t_end, config.dt)

    kernel = CouplingKernel(grid)

    def rhs(fields: Fields) -> Fields:
        return nonlinear_rhs(state.system, grid, fields, kernel)

    recorder = Recorder(
        ("u", "wplus"),
        grid,
        state.t,
        dt,
        n_steps,
        config.record_every,
        config.blowup_threshold,
    )
    half_step = free_flow(grid, SYSTEM_DISPERSIONS, dt / 2)
    lawson_rk4_run((state.u.coeffs, state.wplus.coeffs), rhs, half_step, dt, n_steps, recorder)

    def wrap(t: float, fields: Fields) -> SystemState:
        u, wplus = (SpectralField(grid, f) for f in fields)
        return SystemState(state.system, u, wplus, t=t)

    return recorder.trajectory(state, wrap)


# ---------------------------------------------------------------------------
# Conserved quantities
# ---------------------------------------------------------------------------

def conserved_quantities(state: SystemState) -> ConservationReport:
    """Mass and Hamiltonian of a state.

    Klein-Gordon-Schrodinger::

        E = ||grad u||^2 + (||v||^2 + ||v_t||^2 + ||grad v||^2)/2 - int |u|^2 v

    Zakharov::

        E = ||grad u||^2 + (||n||^2 + ||(-Lap)^{-1/2} n_t||^2)/2 + int |u|^2 n

    The cubic term is `cubic_pairing` of ``u`` with the wave field.  For
    Zakharov the zero mode of ``n_t`` is excluded from the homogeneous norm
    (mean-zero convention) and reported separately; on the torus that mean is
    itself a constant of the motion.
    """
    mass = l2_norm(state.u)
    v, v_t = split_wave(state.wplus)
    grad_u_sq = sobolev_norm(state.u, 1.0, homogeneous=True) ** 2
    cubic = cubic_pairing(state.u, v)

    if state.system is System.KGS:
        hamiltonian = (
            grad_u_sq
            + 0.5
            * (
                l2_norm(v) ** 2
                + l2_norm(v_t) ** 2
                + sobolev_norm(v, 1.0, homogeneous=True) ** 2
            )
            - cubic
        )
        zero_mode: float | None = None
    else:
        wave_kinetic = l2_norm(riesz_potential(v_t, -1.0)) ** 2
        hamiltonian = grad_u_sq + 0.5 * (l2_norm(v) ** 2 + wave_kinetic) + cubic
        zero_mode = float(zero_mode_mean(v_t).real)
    return ConservationReport(mass, hamiltonian, zero_mode)


def random_system_state(
    system: System,
    grid: Grid,
    s: float,
    r: float,
    seed: int,
    amplitude: float = 1.0,
    wave_amplitude: float | None = None,
    zero_mean_wave_velocity: bool = True,
    band_limit: bool = True,
) -> SystemState:
    """Reproducible random state with a real wave.

    ``u`` is a random H^s field; ``w+`` comes from real random
    ``(v, v_t)`` in H^r x H^{max(r-1, 0)}.  The wave velocity is mean-zero by
    default (its mean is a separate conserved quantity on the torus) and the
    state is band-limited below the dealias cutoff so the truncated flow
    conserves mass and energy exactly.
    """
    from .spectral import random_sobolev_field, remove_mean

    if wave_amplitude is None:
        wave_amplitude = amplitude
    ss = np.random.SeedSequence(seed)
    kids = ss.spawn(3)
    u = amplitude * random_sobolev_field(grid, s, seed=kids[0])
    v = wave_amplitude * random_sobolev_field(grid, r, seed=kids[1], real=True)
    v_t = wave_amplitude * random_sobolev_field(
        grid, max(r - 1.0, 0.0), seed=kids[2], real=True
    )
    if zero_mean_wave_velocity:
        v_t = remove_mean(v_t)
    state = SystemState(system, u, join_wave(v, v_t))
    return band_limit_state(state) if band_limit else state


def band_limit_state(state: SystemState) -> SystemState:
    """Project every component onto the dealias band (see module docstring)."""
    return SystemState(state.system, dealias(state.u), dealias(state.wplus), t=state.t)
