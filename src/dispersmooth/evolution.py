"""Time integration of the coupled systems.

A state (`SystemState`) is ``(u, v, w)`` at one time, the layout every run
carries from its data to its last record: ``u`` on the dealias box
(`Grid.box`), the real wave ``v`` (Klein-Gordon-Schrodinger) or ``n``
(Zakharov) and ``w`` as box half spectra, with ``w = v_t`` (``n_t``); the
damped system (`dissipative`) carries ``w = a v + v_t``, and KGS is its case
without damping or forcing.  The linear flow is exact per mode
(`block_flow`) -- ``exp(-i t |xi|^2)`` for ``u`` and a 2x2 block for
``(v, w)``, which the change of variables ``(v, v_t) -> w+ = v + i A^{-1}
v_t``, ``A = (1 - Laplacian)^{1/2}``, maps to ``exp(-i t <xi>)`` -- so the
fourth-order scheme (classical Runge-Kutta in the interaction picture) sees
no dispersive stiffness.  Quadratic nonlinearities are evaluated
pseudo-spectrally with 2/3-rule dealiasing (`spectral.CouplingKernel`);
conservation identities hold exactly for the truncated flow when the data is
band-limited below the dealias cutoff, so the observed mass/Hamiltonian drift
is pure time-discretization error.  Random data is drawn on the box
(`random_sobolev_field`), and a checkpoint (`reporting.Checkpoint.of`)
expands a state's ``(u, w+)`` to the whole lattice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import BlowUpError, ConfigurationError, GridMismatchError
from .spectral import (
    CouplingKernel,
    Grid,
    box_inner,
    box_norm,
    box_weight,
    full_spectrum,
    half_spectrum,
    random_sobolev_field,
)


Fields = tuple[np.ndarray, ...]
Flow = Callable[..., Fields]  # flow(fields, out) -> out: fills every component of out


class System(str, enum.Enum):
    KGS = "kgs"
    ZAKHAROV = "zakharov"


@dataclass(frozen=True, eq=False)
class SystemState:
    """The carried unknowns ``(u, v, w)`` of ``system`` on ``grid`` at time ``t``.

    ``u`` is a box array (`Grid.box`); the real ``v`` and ``w`` are box half
    spectra (`half_spectrum`), with ``w = v_t``, or ``w = a v + v_t`` in a
    damped run, which the state does not record: outside `dissipative`, ``w``
    is read as ``v_t`` (`box_wplus`, `conserved_quantities`, `Checkpoint`).
    A field of another shape is a `GridMismatchError` naming it.  Runs never
    write into a state's arrays.  States compare by identity, as arrays give
    no single truth value.
    """

    system: System
    grid: Grid
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    t: float = field(default=0.0, kw_only=True)

    def __post_init__(self) -> None:
        grid, box = self.grid, self.grid.box_shape
        half = box[:-1] + (box[-1] // 2 + 1,)
        for name, shape, layout in zip("uvw", (box, half, half), ("box",) + ("box half spectrum",) * 2):
            if (got := np.shape(getattr(self, name))) != shape:
                raise GridMismatchError(
                    f"{name} has shape {got}, not {shape}: the {layout} of a"
                    f" {grid.n_per_dim}^{grid.dim} grid"
                )

    @property
    def fields(self) -> Fields:
        return self.u, self.v, self.w


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


class ConservationReport(NamedTuple):
    mass: float
    hamiltonian: float
    zero_mode_mass_of_wave: float | None


# ---------------------------------------------------------------------------
# The exact linear flow
# ---------------------------------------------------------------------------

def block_flow(
    grid: Grid, t: float, gamma: float = 0.0, a: float = 0.0, delta: float = 0.0
) -> Flow:
    """The exact linear flow over time ``t`` of carried ``(u, v, w)`` triples, one or more.

    ``flow(fields, out=None)`` writes into ``out`` (fresh arrays when None),
    which may be ``fields``: the new ``v`` goes through the flow's scratch
    arrays, so a flow belongs to one run.  ``u`` is a box array
    (`Grid.box`); the real ``v`` and ``w`` are box half spectra
    (`half_spectrum`), on which the block acts mode by mode.  Per mode,
    ``u_hat -> exp(-gamma t) exp(-i t |xi|^2) u_hat`` and the (v, w) pair
    advances by the matrix exponential of the block
    ``M = [[-a, 1], [-(c + |xi|^2), -(delta - a)]]`` with
    ``c = 1 + a(a - delta)``; trace ``-delta`` and determinant ``1 + |xi|^2``
    give eigenvalues ``-delta/2 +- q`` with ``q = sqrt(delta^2/4 - 1 - |xi|^2)``
    (complex for the underdamped modes).  The block entries are real, so it
    maps real fields to real fields.  Without damping it is the free
    Klein-Gordon flow of ``(v, v_t)``, ``M = [[0, 1], [-<xi>^2, 0]]``.  A flow
    that overflows (a very large ``delta`` for ``t``) is a `ConfigurationError`.
    """
    xi_squared = half_spectrum(grid.xi_squared)
    cap = 1.0 + a * (a - delta) + xi_squared
    half_trace = -delta / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.sqrt(np.asarray(np.float64(half_trace) ** 2 - (1.0 + xi_squared), dtype=complex))
        qt = q * t
        ch = np.cosh(qt)
        small = np.abs(qt) < 1e-8
        sh_over_q = np.where(
            small,
            t * (1.0 + qt**2 / 6.0),
            np.sinh(np.where(small, 1.0, qt)) / np.where(small, 1.0, q),
        )
        decay = math.exp(half_trace * t)
        # Rows of exp(tM) = e^{t tr/2}(cosh I + sinh/q (M - tr/2 I)).
        rows = (
            (decay * (ch + (-a - half_trace) * sh_over_q), decay * sh_over_q),
            (decay * (-cap) * sh_over_q, decay * (ch + (-(delta - a) - half_trace) * sh_over_q)),
        )
    if not all(np.all(np.isfinite(m)) for row in rows for m in row):
        raise ConfigurationError(
            f"the exact linear flow over t = {t:.3g} overflows at delta = {delta:g}"
            f" (a = {a:g}); lower delta or dt"
        )
    new_v, scratch = np.empty_like(rows[0][0]), np.empty_like(rows[0][0])
    u_sym = math.exp(-gamma * t) * np.exp(-1j * t * grid.xi_squared)
    (vv, vw), (wv, ww) = rows

    def flow(fields: Fields, out: Fields | None = None) -> Fields:
        out = tuple(np.empty_like(a) for a in fields) if out is None else out
        for i in range(0, len(fields), 3):
            (u, v, w), (out_u, out_v, out_w) = fields[i : i + 3], out[i : i + 3]
            np.multiply(u_sym, u, out=out_u)
            np.add(np.multiply(vv, v, out=new_v), np.multiply(vw, w, out=scratch), out=new_v)
            np.add(np.multiply(ww, w, out=scratch), np.multiply(wv, v, out=out_w), out=out_w)  # w read first
            np.copyto(out_v, new_v)
        return out

    return flow


# ---------------------------------------------------------------------------
# Wave algebra
# ---------------------------------------------------------------------------

def wave_norm(v: np.ndarray, v_t: np.ndarray, grid: Grid, s: float = 0.0) -> float:
    """``||w+||_{H^s}`` of ``w+ = v + i A^{-1} v_t`` from the box half spectra of the
    real ``(v, v_t)``: ``(||v||_{H^s}^2 + ||v_t||_{H^{s-1}}^2)^{1/2}``, also ``||w-||_{H^s}``."""
    return math.hypot(box_norm(v, grid, s), box_norm(v_t, grid, s - 1.0))


def box_wplus(v: np.ndarray, v_t: np.ndarray, grid: Grid) -> np.ndarray:
    """The box array (`Grid.box`) of ``w+ = v + i A^{-1} v_t`` from the box half
    spectra of the real ``(v, v_t)``.

    ``w+`` is formed on the half spectrum as ``v + i (v_t <xi>^{-1})``.
    The other columns of the box are those of ``w+(-k) = conj(v - i A^{-1}
    v_t)(k)``, which the expansion of the minus branch (`full_spectrum`)
    reflects into place.
    """
    kick = 1j * (v_t * half_spectrum(grid.bracket) ** -1.0)
    wplus = full_spectrum(v - kick, out=np.empty(grid.box_shape, dtype=complex))
    wplus[..., : kick.shape[-1]] = v + kick
    return wplus


# ---------------------------------------------------------------------------
# Nonlinear right sides (the non-dispersive terms, as du/dt contributions)
# ---------------------------------------------------------------------------

def nonlinear_rhs(
    system: System, grid: Grid, forcing: Fields | None = None, kernel: CouplingKernel | None = None
) -> Flow:
    """The nonlinear right side ``rhs(fields, out=None)`` of carried ``(u, v, w)`` (`block_flow`).

    Klein-Gordon-Schrodinger (``w = v_t``), and with ``forcing = (i f, g)``
    (a box array and a box half spectrum) the damped system::

        du = i u v  [- i f],    dv = 0,    dw = |u|^2  [+ g]

    Zakharov (``w = n_t``; the bounded term ``+ v`` keeps the Klein-Gordon
    linear stage of `block_flow`)::

        du = -i u v,    dv = 0,    dw = -|xi|^2 |u|^2 + v

    Both products come dealiased from ``kernel`` (a new `CouplingKernel`
    when None), ``u v`` straight into ``du``.  The results go into ``out``
    (fresh arrays when None), which may be ``fields``, and every term is
    applied in place, so with ``out`` given a call allocates no array.
    """
    kernel = kernel or CouplingKernel(grid)
    zakharov = system is System.ZAKHAROV
    # Complex with a zero imaginary part: the in-place product needs no cast.
    neg_lap = np.ascontiguousarray(-half_spectrum(grid.xi_squared), dtype=np.complex128)

    def rhs(fields: Fields, out: Fields | None = None) -> Fields:
        u, v = fields[:2]
        out = tuple(np.empty_like(a) for a in fields) if out is None else out
        du, dv, dw = out
        _, abs2 = kernel(u, v, out=du)
        if zakharov:
            du *= -1j
            np.multiply(abs2, neg_lap, out=dw)
            dw += v
        else:
            du *= 1j
            np.copyto(dw, abs2)
        dv.fill(0.0)  # after dw, which reads v
        if forcing is not None:
            du -= forcing[0]
            dw += forcing[1]
        return out

    return rhs


# ---------------------------------------------------------------------------
# Integrators
# ---------------------------------------------------------------------------

def lawson_rk4_run(
    fields: Fields,
    rhs: Flow,
    half_step: Flow,
    dt: float,
    n_steps: int,
    observer: Callable[[int, Fields, Fields], None] | None = None,
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
    First same as last: ``N1 = N(y)`` is formed before the first step and at
    the end of each, so a run makes ``4 n_steps + 1`` right-side calls.

    The workspace is four buffers per field: ``Y`` holds y (a copy of
    ``fields``), Py, then the running sum ``Py + dt/6 PN1 + dt/3 (N2 + N3)``;
    ``N1`` holds N1, PN1, then N4; ``N2`` holds N2, then ``N2 + N3``; the
    stage buffer holds each stage input, and N3 and ``P(Py + dt N3)`` are
    formed in place in it.  So ``rhs(fields, out)`` and ``half_step(fields,
    out)``, which fill every component of ``out``, must accept ``out is
    fields``.  Each sum is formed in place in the operation order shown, so
    a step allocates no array and gives the bits of an allocating one.
    ``observer(step, Y, N1)``, at step 0 and after every step, sees the
    workspace, ``N1 = N(Y)`` included, which the next step overwrites.
    """
    h, sixth, third = 0.5 * dt, dt / 6.0, dt / 3.0
    observe = observer or (lambda step, y, n: None)
    y = tuple(np.array(a, dtype=np.complex128) for a in fields)
    n1, n2, stage = (tuple(np.empty_like(a) for a in y) for _ in range(3))
    observe(0, y, rhs(y, n1))
    for step in range(1, n_steps + 1):
        half_step(y, y)  # Py
        half_step(n1, n1)  # PN1
        rhs(_add_scaled(stage, y, h, n1), n2)
        rhs(_add_scaled(stage, y, h, n2), stage)  # N3
        for b, c in zip(n2, stage):
            np.add(b, c, out=b)
        half_step(_add_scaled(stage, y, dt, stage), stage)  # P(Py + dt N3)
        for a, b, c in zip(y, n1, n2):
            np.add(a, np.multiply(sixth, b, out=b), out=a)
            a += np.multiply(third, c, out=c)
        rhs(stage, n1)  # N4
        half_step(y, y)
        for a, b in zip(y, n1):
            a += np.multiply(sixth, b, out=b)
        observe(step, y, rhs(y, n1))
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
    """Records, the initial one first, with their step indices, the run's
    effective step ``dt`` and step count ``n_steps``, and its ``final`` state
    (the last record, unless the records are not states; see `integrate`)."""

    def __init__(self, states: list, steps: list[int], dt: float, n_steps: int):
        super().__init__(states)
        self.steps = steps
        self.dt = dt
        self.n_steps = n_steps
        self.final = states[-1]


@dataclass
class Recorder:
    """Observer for `lawson_rk4_run`: the blow-up guard and the recorder of one run.

    The run covers ``config.t_end`` from ``t0`` in the ``n_steps`` steps of
    length ``dt`` of `time_grid`.  At step 0 and after each step the recorder
    takes every carried field's L2 norm (`box_norm`'s sum, with float views
    and weights resolved once per contiguous workspace) and raises
    `BlowUpError`, naming them all, once one is non-finite or above
    ``config.blowup_threshold``.  It keeps ``(step, t, record(t, fields,
    rates))``, ``rates`` the right side of ``fields``, at step 0, every
    ``config.record_every`` steps and at the last step.  Fields are box
    arrays or half spectra (`Grid.box`); a record that keeps them must copy
    them (`state_records`), since the next step overwrites them.
    """

    names: tuple[str, ...]
    grid: Grid
    t0: float
    config: IntegratorConfig
    record: Callable[[float, Fields, Fields], object]
    records: list[tuple[int, float, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.n_steps, self.dt = time_grid(self.config.t_end, self.config.dt)
        self._fields, self._squares = None, []

    def __call__(self, step: int, fields: Fields, rates: Fields) -> None:
        t, grid = self.t0 + step * self.dt, self.grid
        if fields is not self._fields:
            self._fields = fields
            self._squares = [(a.reshape(-1).view(np.float64), box_weight(a, grid)) for a in fields]
        sums = (np.einsum(p, [0], p, [0], w, [0], []) / grid.volume for p, w in self._squares)
        norms = {f"{name}_L2": math.sqrt(x) for name, x in zip(self.names, sums)}
        threshold = self.config.blowup_threshold
        if any(not math.isfinite(v) or v > threshold for v in norms.values()):
            raise BlowUpError(t, norms, threshold)
        if step % self.config.record_every == 0 or step == self.n_steps:
            self.records.append((step, t, self.record(t, fields, rates)))

    def trajectory(self) -> Trajectory:
        """The records, the step-0 one first."""
        return Trajectory(
            [record for _, _, record in self.records],
            [step for step, _, _ in self.records],
            self.dt,
            self.n_steps,
        )


def state_records(system: System, grid: Grid) -> Callable[[float, Fields, Fields], SystemState]:
    """The default record of a run: a `SystemState` of copies of the carried fields."""
    return lambda t, fields, rates: SystemState(system, grid, *(a.copy() for a in fields), t=t)


def integrate(
    state: SystemState,
    config: IntegratorConfig,
    record: Callable[[float, Fields, Fields], object] | None = None,
) -> Trajectory:
    """Integrate over ``config.t_end``; returns the records (initial one included).

    The run carries the state's ``(u, v, v_t)`` on the steps of `time_grid`;
    `Recorder` guards it from step 0 on and keeps ``record(t, fields,
    rates)`` of the carried fields and their right side (`nonlinear_rhs`),
    the initial ones included: by default a copy of the state
    (`state_records`).  `Trajectory.final` is the last state either way.
    """
    grid, copy = state.grid, state_records(state.system, state.grid)
    recorder = Recorder(("u", "v", "v_t"), grid, state.t, config, record or copy)
    rhs, half_step = nonlinear_rhs(state.system, grid), block_flow(grid, recorder.dt / 2)
    last = lawson_rk4_run(state.fields, rhs, half_step, recorder.dt, recorder.n_steps, recorder)
    trajectory = recorder.trajectory()
    if record is not None:  # the run's workspace is its own from here on
        trajectory.final = SystemState(state.system, grid, *last, t=recorder.records[-1][1])
    return trajectory


# ---------------------------------------------------------------------------
# Conserved quantities
# ---------------------------------------------------------------------------

def conserved_quantities(
    system: System, grid: Grid, fields: Fields, du: np.ndarray
) -> ConservationReport:
    """Mass and Hamiltonian of carried ``(u, v, v_t)`` (`SystemState.fields`) with ``du``,
    the ``u`` component of their unforced right side (`nonlinear_rhs`).

    Klein-Gordon-Schrodinger::

        E = ||grad u||^2 + (||v||^2 + ||v_t||^2 + ||grad v||^2)/2 - int |u|^2 v

    Zakharov::

        E = ||grad u||^2 + (||n||^2 + ||(-Lap)^{-1/2} n_t||^2)/2 + int |u|^2 n

    The norms are box sums (`box_norm`), and so is the cubic term, with no
    transform: ``du = i P(u v)`` (KGS) or ``-i P(u n)`` (Zakharov), and by
    Parseval ``int |u|^2 v dx = Re <P(u v), u>``.  For Zakharov the zero mode
    of ``n_t`` is excluded from the homogeneous norm (mean-zero convention)
    and reported separately; on the torus that mean is itself a constant of
    the motion.
    """
    u, v, v_t = fields
    grad_u_sq = box_norm(u, grid, 1.0, homogeneous=True) ** 2
    cubic = box_inner((-1j if system is System.KGS else 1j) * du, u, grid)
    zero_mode: float | None = None
    if system is System.KGS:
        wave = box_norm(v, grid, 1.0) ** 2 + box_norm(v_t, grid) ** 2  # ||v||_{H^1}^2 + ||v_t||^2
        hamiltonian = grad_u_sq + 0.5 * wave - cubic
    else:
        wave_kinetic = box_norm(v_t, grid, -1.0, homogeneous=True) ** 2
        hamiltonian = grad_u_sq + 0.5 * (box_norm(v, grid) ** 2 + wave_kinetic) + cubic
        zero_mode = float(v_t[(0,) * grid.dim].real) / grid.volume
    return ConservationReport(box_norm(u, grid), hamiltonian, zero_mode)


def random_system_state(
    system: System,
    grid: Grid,
    s: float,
    r: float,
    seed: int,
    amplitude: float = 1.0,
    wave_amplitude: float | None = None,
) -> SystemState:
    """Reproducible random state with a real wave, drawn on the dealias box.

    ``u`` is a random H^s field and ``(v, v_t)`` a real random wave in
    H^r x H^{max(r-1, 0)} (`random_sobolev_field`), each drawn on the box
    (`Grid.box`), the wave as contiguous half spectra.  The wave velocity is
    mean-zero (its mean is a separate conserved quantity on the torus), and
    the state is band-limited below the dealias cutoff so the truncated flow
    conserves mass and energy exactly.
    """
    if wave_amplitude is None:
        wave_amplitude = amplitude
    kids = np.random.SeedSequence(seed).spawn(3)
    u = amplitude * random_sobolev_field(grid, s, seed=kids[0])
    orders = ((kids[1], r), (kids[2], max(r - 1.0, 0.0)))
    waves = (wave_amplitude * random_sobolev_field(grid, order, kid, real=True) for kid, order in orders)
    v, v_t = (np.ascontiguousarray(half_spectrum(a)) for a in waves)
    v_t[(0,) * grid.dim] = 0.0
    return SystemState(system, grid, u, v, v_t)
