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
import math
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
    full_spectrum,
    l2_norm,
    random_sobolev_field,
    remove_mean,
    riesz_potential,
    sobolev_norm,
    zero_mode_mean,
)


Fields = tuple[np.ndarray, ...]
Flow = Callable[..., Fields]  # flow(fields, out) -> out: fills every component of out


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

    ``flow(fields, out=None)`` writes ``sum_j symbols[i][j] * fields[j]``
    into ``out[i]`` (fresh arrays when None, never ``fields`` for a coupled
    flow): one term for a diagonal flow, two for a 2x2 block, whose second
    goes through the flow's one scratch row, so a flow belongs to one run.
    Every symbol carries a zero Nyquist plane.
    """
    coupled = [sym for row in symbols for sym in list(row.values())[1:]]
    scratch = np.empty_like(coupled[0]) if coupled else None

    def flow(fields: Fields, out: Fields | None = None) -> Fields:
        if out is None:
            out = tuple(np.empty_like(next(iter(row.values()))) for row in symbols)
        for target, row in zip(out, symbols):
            (j, sym), *rest = row.items()
            np.multiply(sym, fields[j], out=target)
            for j, sym in rest:
                target += np.multiply(sym, fields[j], out=scratch)
        return out

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


# ---------------------------------------------------------------------------
# Nonlinear right sides (the non-dispersive terms, as du/dt contributions)
# ---------------------------------------------------------------------------

def nonlinear_rhs(
    system: System, grid: Grid, fields: Fields, kernel: CouplingKernel | None = None,
    out: Fields | None = None,
) -> Fields:
    """Nonlinear time-derivative contributions ``(du, dw+)`` of coefficient arrays.

    With ``w- = conj w+`` the wave sum is ``w+ + w- = 2 Re w+``, and for
    Zakharov ``Re n- = Re n+``.  Klein-Gordon-Schrodinger::

        du  = i u Re w+
        dw+ = i A^{-1} |u|^2

    Zakharov (the bounded correction term keeps the linear stage diagonal)::

        du  = -i u Re n+
        dn+ = i ( -|xi|^2 A^{-1} |u|^2 + A^{-1} Re n+ )

    ``Re w+`` is real, so it is formed on the half spectrum alone, in
    coefficient space (`half_real_part`, no transform, in a kernel buffer),
    and the kernel takes it to samples by a real inverse transform.  ``dw+``
    is combined on the half spectrum and expanded to the full one once
    (`full_spectrum`).  Both products come dealiased from ``kernel``, the
    run's `CouplingKernel` (a fresh one when None).  The results go into
    ``out`` (fresh arrays when None) and the symbols are applied in place,
    so with ``out`` given a call allocates no array.
    """
    kernel = CouplingKernel(grid) if kernel is None else kernel
    u, wplus = fields
    du, dw = (np.empty_like(u), np.empty_like(wplus)) if out is None else out
    re = kernel.half_real_part(wplus)
    _, abs2 = kernel(u, re, out=du)
    symbols = kernel.symbols
    if system is System.KGS:
        du *= 1j
        abs2 *= symbols.half_inverse_bracket
    else:
        du *= -1j
        abs2 *= symbols.half_neg_lap_inverse_bracket
        re *= symbols.half_inverse_bracket
        abs2 += re
    full_spectrum(abs2, out=dw)
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

    The run's workspace is ``Y`` (a copy of ``fields``), ``PY, PN1, N1 .. N4``
    and a stage buffer per field.  ``rhs(fields, out)`` and ``half_step(fields,
    out)`` fill every component of ``out``, a workspace tuple apart from
    ``fields``, and each sum is formed in place in the operation order shown,
    so a step allocates no array and gives the bits of an allocating one.
    ``observer(step, Y)`` sees the workspace, which the next step overwrites.
    """
    h, sixth, third = 0.5 * dt, dt / 6.0, dt / 3.0
    y = tuple(np.array(a, dtype=np.complex128) for a in fields)
    py, pn1, n1, n2, n3, n4, stage = (tuple(np.empty_like(a) for a in y) for _ in range(7))
    for step in range(n_steps):
        rhs(y, n1)
        half_step(y, py)
        half_step(n1, pn1)
        rhs(_add_scaled(stage, py, h, pn1), n2)
        rhs(_add_scaled(stage, py, h, n2), n3)
        half_step(_add_scaled(stage, py, dt, n3), y)
        rhs(y, n4)
        _add_scaled(stage, py, sixth, pn1)
        for mid, b, c in zip(stage, n2, n3):
            mid += np.multiply(third, np.add(b, c, out=b), out=b)
        half_step(stage, y)
        for a, b in zip(y, n4):
            a += np.multiply(sixth, b, out=b)
        if observer is not None:
            observer(step + 1, y)
    return y


def _add_scaled(out: Fields, a: Fields, scale: float, b: Fields) -> Fields:
    """``out = a + scale * b`` per field, formed in ``out`` in that operation order."""
    for target, x, z in zip(out, a, b):
        np.add(x, np.multiply(scale, z, out=target), out=target)
    return out


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
    steps and at the last step.  A field with ``n//2 + 1`` entries on its
    last axis is a real field's half spectrum (`half_spectrum`): its norm
    counts the interior columns twice, and it is recorded expanded to the
    full spectrum.  Records are read-only copies.  A norm is an `numpy.einsum`
    over the float pairs: no temporaries, and no BLAS threads (``vdot``).
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
        norms = {f"{name}_L2": self._norm(a) for name, a in zip(self.names, fields)}
        if any(not math.isfinite(v) or v > self.threshold for v in norms.values()):
            raise BlowUpError(t, norms, self.threshold)
        if step % self.record_every == 0 or step == self.n_steps:
            fields = tuple(full_spectrum(a) if self._is_half(a) else a.copy() for a in fields)
            for a in fields:  # a read-only record becomes a field without a copy
                a.flags.writeable = False
            self.records.append((step, t, fields))

    def _is_half(self, a: np.ndarray) -> bool:
        return a.shape[-1] != self.grid.n_per_dim

    def _norm(self, a: np.ndarray) -> float:
        pairs, axes = a.view(np.float64), list(range(a.ndim))
        total = np.einsum(pairs, axes, pairs, axes, [])
        if self._is_half(a):
            interior = pairs[..., 2 : self.grid.n_per_dim]  # columns 1 .. n//2 - 1
            total += np.einsum(interior, axes, interior, axes, [])
        return float(np.sqrt(total / self.grid.volume))

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

    def rhs(fields: Fields, out: Fields) -> Fields:
        return nonlinear_rhs(state.system, grid, fields, kernel, out)

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
) -> SystemState:
    """Reproducible random state with a real wave.

    ``u`` is a random H^s field; ``w+`` comes from real random
    ``(v, v_t)`` in H^r x H^{max(r-1, 0)}.  The wave velocity is mean-zero
    (its mean is a separate conserved quantity on the torus) and the state is
    band-limited below the dealias cutoff so the truncated flow conserves
    mass and energy exactly.
    """
    if wave_amplitude is None:
        wave_amplitude = amplitude
    ss = np.random.SeedSequence(seed)
    kids = ss.spawn(3)
    u = amplitude * random_sobolev_field(grid, s, seed=kids[0])
    v = wave_amplitude * random_sobolev_field(grid, r, seed=kids[1], real=True)
    v_t = wave_amplitude * random_sobolev_field(
        grid, max(r - 1.0, 0.0), seed=kids[2], real=True
    )
    return band_limit_state(SystemState(system, u, join_wave(v, remove_mean(v_t))))


def band_limit_state(state: SystemState) -> SystemState:
    """Project every component onto the dealias band (see module docstring)."""
    return SystemState(state.system, dealias(state.u), dealias(state.wplus), t=state.t)
