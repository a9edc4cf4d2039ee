"""High-low frequency globalization scheme for the coupled system.

Splits the data at a frequency cutoff N, evolves the low pair ``(phi, psi)``
and the high pair ``(mu, lambda)`` as a coupled system over a short window,
then restarts with the *nonlinear part* of the high evolution absorbed into
the low pair while the high data continues as a pure linear flow::

    phi_1 = phi(delta) + [mu(delta) - exp(i delta Lap) mu_0]
    psi_1 = psi(delta) + [lambda(delta) - exp(-i delta A) lambda_0]
    mu_1  = exp(i delta Lap) mu_0,     lambda_1 = exp(-i delta A) lambda_0

The wave unknowns ``psi+`` and ``lambda+`` are the plus branches of real
waves (the split is symmetric under ``xi -> -xi``, so both halves stay
real), and each pair is a KGS state of `evolution`, carried across windows:
the six arrays ``(phi, psi_v, psi_w, mu, lam_v, lam_w)``, with ``psi_w``
and ``lam_w`` the wave velocities, and ``exp(-i delta A)`` acting on
``lambda+`` as `block_flow` on ``(lam_v, lam_w)``.  The split right sides sum
exactly (bilinearity) to the direct-system right sides, so the reassembled
total ``(phi + mu, psi+ + lambda+)`` telescopes to the unsplit solution at
matched steps up to roundoff.

The window length follows the step rule ``delta = c N^(-2(1-m)/r0 - 0.01)``
with ``m = min(s, r)``.  The low pair's energy

    E = ||A psi+||^2 + 2 ||grad phi||^2 - 2 int |phi|^2 Re(psi+) dx

is coercive when the u-mass is below a threshold set by the optimal
four-dimensional Gagliardo-Nirenberg constants ``C1`` (L^4) and ``C2``
(L^{8/3}); those constants are configuration inputs, with the exact
Gaussian quotients as lower brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .evolution import (
    IntegratorConfig,
    Recorder,
    SystemState,
    System,
    block_flow,
    integrate,
    lawson_rk4_run,
    nonlinear_rhs,
    time_grid,
    wave_norm,
)
from .spectral import CouplingKernel, Grid, box_inner, box_norm, half_spectrum


@dataclass(frozen=True)
class HighLowConfig:
    """Scheme parameters; also the ``[highlow]`` configuration section.

    ``cutoff`` is the split frequency N.  The window length is ``delta``,
    else the step rule with its constant ``window_constant`` and auxiliary
    low regularity ``r0``, default 0.55 ("1/2 plus"); the window count is
    ``windows``, else as many as cover ``[integrator] t_end`` (see
    `run_global`).  ``gns_c1, gns_c2`` override the Gaussian brackets of
    the Gagliardo-Nirenberg constants, and ``compare_direct`` runs the
    unsplit system alongside.
    """

    cutoff: float = 8.0
    r0: float = 0.55
    window_constant: float = 0.1
    delta: float | None = None
    windows: int | None = None
    gns_c1: float | None = None
    gns_c2: float | None = None
    compare_direct: bool = False

    def __post_init__(self) -> None:
        for key in ("cutoff", "r0", "window_constant", "delta", "gns_c1", "gns_c2"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{key} must be finite and positive, got {value}")
        if self.delta is None and self.cutoff < 1:
            raise ConfigurationError(
                f"cutoff must be >= 1 for the step rule (no delta is set), got {self.cutoff}"
            )
        if self.windows is not None and self.windows < 1:
            raise ConfigurationError(f"windows must be >= 1, got {self.windows}")

    def constants(self) -> tuple[float, float]:
        """``(C1, C2)``: the configured values, else the Gaussian brackets."""
        c1, c2 = gaussian_gns_constants()
        return (
            c1 if self.gns_c1 is None else self.gns_c1,
            c2 if self.gns_c2 is None else self.gns_c2,
        )


class HighLowState(NamedTuple):
    """Low pair ``low = (phi, psi_v, psi_w)``, high pair ``high = (mu, lam_v, lam_w)``,
    each a KGS `SystemState` at the window boundary, and the window counter."""

    low: SystemState
    high: SystemState
    window_index: int = 0

    @property
    def grid(self) -> Grid:
        return self.low.grid

    @property
    def t(self) -> float:
        return self.low.t

    def total(self) -> SystemState:
        """The running solution ``(phi + mu, psi+ + lambda+)``."""
        fields = (a + b for a, b in zip(self.low.fields, self.high.fields))
        return SystemState(System.KGS, self.grid, *fields, t=self.t)


def step_rule(cutoff: float, m: float, r0: float, constant: float = 0.1) -> float:
    """Window length ``delta = c * N^(-2(1-m)/r0 - 0.01)``, rejected unless finite and positive."""
    if cutoff < 1:
        raise ConfigurationError("step rule requires N >= 1")
    try:
        delta = constant * cutoff ** (-2.0 * (1.0 - m) / r0 - 0.01)
    except OverflowError:
        delta = math.inf
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigurationError(
            f"the [highlow] step rule gives delta = {delta} at cutoff = {cutoff}, m = {m},"
            f" r0 = {r0}; set [highlow] delta"
        )
    return delta


def split_initial(state: SystemState, cutoff: float) -> HighLowState:
    """Frequency split of a KGS state: low pair keeps ``|xi| <= N``, high pair the rest.

    Reconstruction ``phi0 + mu0 = u0`` is exact, and the splitting bounds

        ||phi0||_{H^1} <= N^{1-s} ||u0||_{H^s},
        ||mu0||_{H^{s0}} <= N^{s0-s} ||u0||_{H^s}

    hold numerically for s0 <= s <= 1 (similarly for the wave slot).
    """
    grid = state.grid
    inside = grid.xi_norm <= cutoff
    masks = (inside, half_spectrum(inside), half_spectrum(inside))
    low = [np.where(mask, a, 0.0) for mask, a in zip(masks, state.fields)]
    high = [a - b for a, b in zip(state.fields, low)]
    return HighLowState(
        SystemState(System.KGS, grid, *low, t=state.t),
        SystemState(System.KGS, grid, *high, t=state.t),
    )


# ---------------------------------------------------------------------------
# Coupled window evolution
# ---------------------------------------------------------------------------

def _integrate_window(state: HighLowState, window: IntegratorConfig) -> tuple[np.ndarray, ...]:
    """Evolve the coupled system over ``window.t_end``; the six arrays
    ``(phi, psi_v, psi_w, mu, lam_v, lam_w)`` at its end, on the flow of `block_flow`."""
    grid = state.grid
    start = state.low.fields + state.high.fields
    kgs = nonlinear_rhs(System.KGS, grid)
    total = tuple(np.empty_like(a) for a in start[:2])  # the right side reads (u, v) alone

    def rhs(fields: tuple[np.ndarray, ...], out: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """The KGS right side of the low triple, and that of the ``(u, v)`` totals
        (formed in ``total``) minus it for the high one: ``d mu = i mu (psi_v + lam_v) + i phi lam_v``,
        ``d lam_w = |mu|^2 + 2 Re(mu conj(phi))``.  The two sum to the direct
        right side by construction."""
        low = fields[:3]
        for target, a, b in zip(total, low, fields[3:]):
            np.add(a, b, out=target)
        kgs(low, out[:3])
        kgs(total, out[3:])
        for high, part in zip(out[3:], out[:3]):
            high -= part
        return out

    names = ("phi", "psi_v", "psi_w", "mu", "lam_v", "lam_w")
    once = replace(window, record_every=10**9)
    guard = Recorder(names, grid, state.t, once, lambda t, fields, rates: None)
    half_step = block_flow(grid, guard.dt / 2)
    return lawson_rk4_run(start, rhs, half_step, guard.dt, guard.n_steps, guard)


class WindowLog(NamedTuple):
    window_index: int
    t_end: float
    energy_low: float
    coercivity_surrogate: float
    mass_low: float
    increment_u_h1: float
    increment_wave_h1: float


def _reassemble(
    state: HighLowState, delta: float, evolved: tuple[np.ndarray, ...]
) -> tuple[HighLowState, WindowLog]:
    grid, t = state.grid, state.t + delta
    free = block_flow(grid, delta)(state.high.fields)
    increment = [a - b for a, b in zip(evolved[3:], free)]
    low = SystemState(System.KGS, grid, *(a + b for a, b in zip(evolved[:3], increment)), t=t)
    new_state = HighLowState(
        low, SystemState(System.KGS, grid, *free, t=t), state.window_index + 1
    )
    energy = low_energy(low)
    log = WindowLog(
        window_index=new_state.window_index,
        t_end=t,
        energy_low=energy.energy,
        coercivity_surrogate=energy.coercivity_surrogate,
        mass_low=box_norm(low.u, grid),
        increment_u_h1=box_norm(increment[0], grid, 1.0),
        increment_wave_h1=wave_norm(increment[1], increment[2], grid, 1.0),
    )
    return new_state, log


def advance_window(state: HighLowState, window: IntegratorConfig) -> tuple[HighLowState, WindowLog]:
    """One window of length ``delta = window.t_end``: coupled evolution on the
    steps of ``window``, then reassembly, with the window's diagnostics.

    The identity ``phi_1 + mu_1 = phi(delta) + mu(delta)`` holds exactly
    (the free flow added to the low slot is subtracted from the high slot).
    """
    return _reassemble(state, window.t_end, _integrate_window(state, window))


# ---------------------------------------------------------------------------
# Energy, constants, thresholds
# ---------------------------------------------------------------------------

class LowEnergyReport(NamedTuple):
    energy: float
    coercivity_surrogate: float


def low_energy(low: SystemState) -> LowEnergyReport:
    """Low-pair energy ``||A psi+||^2 + 2 ||grad phi||^2 - 2 int |phi|^2 Re psi+``.

    ``low`` is the pair ``(phi, psi_v, psi_w)``: ``Re psi+ = psi_v``,
    ``||A psi+|| = ||psi+||_{H^1}`` (`wave_norm`), and the cubic term pairs
    ``P |phi|^2`` (`CouplingKernel.abs2`) with ``psi_v``.  Also returns the
    coercivity surrogate (the two quadratic terms alone), which the energy
    approximates from below once the u-mass is small.
    """
    grid = low.grid
    quad_part = (
        wave_norm(low.v, low.w, grid, 1.0) ** 2
        + 2.0 * box_norm(low.u, grid, 1.0, homogeneous=True) ** 2
    )
    cubic = 2.0 * box_inner(CouplingKernel(grid).abs2(low.u), low.v, grid, pairwise=True)
    return LowEnergyReport(energy=quad_part - cubic, coercivity_surrogate=quad_part)


def gaussian_gns_constants() -> tuple[float, float]:
    """Lower brackets for the optimal 4-d Gagliardo-Nirenberg constants.

    The exact Gaussian quotients ``||f||_4 / ||grad f||_2`` and
    ``||f||_{8/3} / (||f||_2 ||grad f||_2)^{1/2}``, scale-invariant in four
    dimensions; the optimal constants (Weinstein 1983) are suprema over all
    ``f``, so these bracket them from below.
    """
    return 1.0 / (2.0 * math.sqrt(math.pi)), (3.0 * math.pi / 4.0) ** 0.75 / (math.pi * 2.0**0.25)


class MassThreshold(NamedTuple):
    """Both printed forms of the smallness threshold for ||u0||_{L2}.

    The two appear with the constants inverted relative to each other; the
    operative value used by `run_global` is the quotient form, and both are
    reported so the discrepancy stays visible.
    """

    quotient_form: float  # sqrt(2) / (C1 C2^2)
    product_form: float  # sqrt(2) C1 C2^2

    @property
    def operative(self) -> float:
        return self.quotient_form


def mass_threshold(c1: float, c2: float) -> MassThreshold:
    if not (c1 > 0 and c2 > 0):
        raise ConfigurationError(
            f"Gagliardo-Nirenberg constants must be positive, got gns_c1 = {c1}, gns_c2 = {c2}"
        )
    return MassThreshold(
        quotient_form=math.sqrt(2.0) / (c1 * c2**2),
        product_form=math.sqrt(2.0) * c1 * c2**2,
    )


# ---------------------------------------------------------------------------
# Global run
# ---------------------------------------------------------------------------

class HighLowReport(NamedTuple):
    config: HighLowConfig
    delta: float
    threshold: MassThreshold | None  # None: not applicable (d != 4)
    initial_mass: float
    below_threshold: bool | None
    windows: list[WindowLog]
    final_state: HighLowState
    diff_vs_direct: list[float] | None
    warnings: list[str]


def run_global(
    state: SystemState, m: float, config: HighLowConfig, integrator: IntegratorConfig
) -> HighLowReport:
    """Iterate `advance_window` from a KGS state, logging per-window diagnostics.

    The window length is ``config.delta``, else `step_rule` at the data
    regularity ``m = min(s, r)``; the window count is ``config.windows``,
    else as many as cover ``integrator.t_end`` (windows keep their length,
    so the last one may end past it).  Every window runs on the steps of
    ``integrator`` over ``delta`` (`time_grid`) under its blow-up guard.
    With ``config.compare_direct`` the unsplit system is integrated alongside
    on the same steps, one `integrate` call per window, and the relative L2
    difference of the totals ``(u, w+)`` is logged per window (they agree to
    roundoff; the telescoping identity is exact).

    The mass threshold comes from the 4-d Gagliardo-Nirenberg constants.  In
    d = 4 it is advisory: a run above it proceeds with a warning.  In any
    other dimension it does not apply: the report gives None and a warning.
    """
    delta = config.delta
    if delta is None:
        delta = step_rule(config.cutoff, m, config.r0, config.window_constant)
    window = replace(integrator, t_end=delta, record_every=10**9)
    n_windows = config.windows or time_grid(integrator.t_end, delta)[0]
    grid = state.grid
    mass0, dim = box_norm(state.u, grid), grid.dim
    threshold = mass_threshold(*config.constants()) if dim == 4 else None
    warnings = []
    if threshold is None:
        warnings.append(
            f"the mass threshold is built from the 4-d Gagliardo-Nirenberg constants;"
            f" it does not apply in d = {dim} and is not reported"
        )
    elif m <= 0.9:
        warnings.append(f"d=4 global theory wants s, r > 9/10; got m = {m}")
    if threshold is not None and mass0 >= threshold.operative:
        warnings.append(
            f"initial mass {mass0:.6g} is not below the operative threshold "
            f"{threshold.operative:.6g} (quotient form); the product form is "
            f"{threshold.product_form:.6g} -- the two printed forms disagree "
            "and are both reported"
        )

    split, direct = split_initial(state, config.cutoff), state
    gap = [np.empty_like(a) for a in state.fields]  # the totals minus the direct state
    diffs: list[float] | None = [] if config.compare_direct else None
    logs: list[WindowLog] = []
    for _ in range(n_windows):
        split, log = advance_window(split, window)
        logs.append(log)
        if diffs is not None:
            direct = integrate(direct, window).final
            for g, low, high, d in zip(gap, split.low.fields, split.high.fields, direct.fields):
                np.subtract(np.add(low, high, out=g), d, out=g)
            num = box_norm(gap[0], grid) + wave_norm(gap[1], gap[2], grid)
            den = box_norm(direct.u, grid) + wave_norm(direct.v, direct.w, grid)
            diffs.append(num / den if den > 0 else 0.0)
    return HighLowReport(
        config=config,
        delta=delta,
        threshold=threshold,
        initial_mass=mass0,
        below_threshold=None if threshold is None else mass0 < threshold.operative,
        windows=logs,
        final_state=split,
        diff_vs_direct=diffs,
        warnings=warnings,
    )
