"""High-low frequency globalization scheme for the coupled system.

Splits the data at a frequency cutoff N, evolves the low pair ``(phi, psi)``
and the high pair ``(mu, lambda)`` as a coupled system over a short window,
then restarts with the *nonlinear part* of the high evolution absorbed into
the low pair while the high data continues as a pure linear flow::

    phi_1 = phi(delta) + [mu(delta) - exp(i delta Lap) mu_0]
    psi_1 = psi(delta) + [lambda(delta) - exp(-i delta A) lambda_0]
    mu_1  = exp(i delta Lap) mu_0,     lambda_1 = exp(-i delta A) lambda_0

The wave unknowns are the plus branches ``psi+`` and ``lambda+`` of real
waves (the split is symmetric under ``xi -> -xi``, so both halves stay real
and their minus branches are the conjugates), and the window carries the four
fields ``(phi, psi+, mu, lambda+)``.  The split right sides sum exactly
(bilinearity) to the direct-system right sides, so the reassembled total
``(phi + mu, psi+ + lambda+)`` telescopes to the unsplit solution at matched
steps up to roundoff.

The window length follows the step rule ``delta = c N^(-2(1-m)/r0 - 0.01)``
with ``m = min(s, r)``.  The low pair's energy

    E = ||A psi||^2 + 2 ||grad phi||^2 - 2 int |phi|^2 Re(psi) dx

is coercive when the u-mass is below a threshold set by the optimal
four-dimensional Gagliardo-Nirenberg constants ``C1`` (L^4) and ``C2``
(L^{8/3}); those constants are configuration inputs, with the exact
Gaussian quotients as lower brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .evolution import (
    SYSTEM_DISPERSIONS,
    IntegratorConfig,
    Recorder,
    SystemState,
    System,
    free_flow,
    integrate,
    lawson_rk4_run,
    nonlinear_rhs,
    time_grid,
)
from .spectral import (
    CouplingKernel,
    Grid,
    SpectralField,
    cubic_pairing,
    l2_norm,
    lowpass_projection,
    real_part,
    sobolev_norm,
)


@dataclass(frozen=True)
class HighLowConfig:
    """Scheme parameters.

    ``s, r`` are the data regularities (the d=4 global theory wants both
    above 9/10); ``r0`` is the auxiliary low regularity of the step rule,
    default 0.55 ("1/2 plus"); ``delta`` defaults to the step rule; ``dt`` is
    the inner integrator step, shortened to divide the window exactly.
    """

    cutoff: float
    s: float
    r: float
    r0: float = 0.55
    window_constant: float = 0.1
    delta: float | None = None
    dt: float = 1e-3
    t_end: float = 1.0
    gns_c1: float | None = None
    gns_c2: float | None = None
    blowup_threshold: float = 1e12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ConfigurationError(f"cutoff must be finite and positive, got {self.cutoff}")
        if self.delta is None:
            object.__setattr__(
                self,
                "delta",
                step_rule(self.cutoff, self.m, self.r0, self.window_constant),
            )
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ConfigurationError(f"delta must be finite and positive, got {self.delta}")
        if not self.blowup_threshold > 0:
            raise ConfigurationError(f"blowup_threshold must be positive, got {self.blowup_threshold}")

    @property
    def m(self) -> float:
        return min(self.s, self.r)

    def constants(self) -> tuple[float, float]:
        """``(C1, C2)``: the configured values, else the Gaussian brackets."""
        c1, c2 = gaussian_gns_constants()
        return (
            c1 if self.gns_c1 is None else self.gns_c1,
            c2 if self.gns_c2 is None else self.gns_c2,
        )


@dataclass(frozen=True)
class HighLowState:
    """Low pair (phi, psi+), high pair (mu, lambda+), window counter."""

    phi: SpectralField
    psi_plus: SpectralField
    mu: SpectralField
    lam_plus: SpectralField
    window_index: int = 0
    t: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    def total(self) -> tuple[SpectralField, SpectralField]:
        """The running solution ``(phi + mu, psi+ + lambda+)``."""
        return self.phi + self.mu, self.psi_plus + self.lam_plus


def step_rule(cutoff: float, m: float, r0: float, constant: float = 0.1) -> float:
    """Window length ``delta = c * N^(-2(1-m)/r0 - 0.01)``."""
    if cutoff < 1:
        raise ConfigurationError("step rule requires N >= 1")
    return constant * cutoff ** (-2.0 * (1.0 - m) / r0 - 0.01)


def split_initial(u0: SpectralField, wplus: SpectralField, cutoff: float) -> HighLowState:
    """Frequency split: low pair keeps ``|xi| <= N``, high pair the rest.

    Reconstruction ``phi0 + mu0 = u0`` is exact, and the splitting bounds

        ||phi0||_{H^1} <= N^{1-s} ||u0||_{H^s},
        ||mu0||_{H^{s0}} <= N^{s0-s} ||u0||_{H^s}

    hold numerically for s0 <= s <= 1 (similarly for the wave slot).
    """
    phi = lowpass_projection(u0, cutoff)
    psi = lowpass_projection(wplus, cutoff)
    return HighLowState(phi=phi, psi_plus=psi, mu=u0 - phi, lam_plus=wplus - psi)


# ---------------------------------------------------------------------------
# Coupled window evolution
# ---------------------------------------------------------------------------

def _integrate_window(
    state: HighLowState, config: HighLowConfig
) -> tuple[np.ndarray, ...]:
    """Evolve the coupled four-field system over one window of length delta."""
    grid = state.grid
    n_inner, dt = time_grid(config.delta, config.dt)
    kernel = CouplingKernel(grid)
    total = (np.empty_like(state.phi.coeffs), np.empty_like(state.psi_plus.coeffs))

    def rhs(fields: tuple[np.ndarray, ...], out: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Nonlinear right sides of the coupled low/high system, into ``out``.

        Low:  the KGS right side of (phi, psi+).
        High: the KGS right side of the totals (phi + mu, psi+ + lam+),
              formed in ``total``, minus the low side, that is

              d mu   = i mu Re(psi+ + lam+) + i phi Re lam+
              d lam+ = i A^{-1} (|mu|^2 + 2 Re(mu conj(phi)))

        so the two sides sum to the direct-system right side by construction.
        """
        low = fields[:2]
        for target, a, b in zip(total, low, fields[2:]):
            np.add(a, b, out=target)
        d_low = nonlinear_rhs(System.KGS, grid, low, kernel, out[:2])
        d_high = nonlinear_rhs(System.KGS, grid, total, kernel, out[2:])
        for high, part in zip(d_high, d_low):
            high -= part
        return out

    guard = Recorder(
        ("phi", "psi_plus", "mu", "lam_plus"),
        grid,
        state.t,
        dt,
        n_inner,
        n_inner,
        config.blowup_threshold,
    )
    start = (state.phi.coeffs, state.psi_plus.coeffs, state.mu.coeffs, state.lam_plus.coeffs)
    half_step = free_flow(grid, 2 * SYSTEM_DISPERSIONS, dt / 2)
    return lawson_rk4_run(start, rhs, half_step, dt, n_inner, guard)


@dataclass(frozen=True)
class WindowLog:
    window_index: int
    t_end: float
    energy_low: float
    coercivity_surrogate: float
    mass_low: float
    increment_u_h1: float
    increment_wave_h1: float


def _reassemble(
    state: HighLowState, config: HighLowConfig, evolved: tuple[np.ndarray, ...]
) -> tuple[HighLowState, WindowLog]:
    grid = state.grid
    delta = config.delta
    phi_d, psi_d, mu_d, lam_d = (SpectralField(grid, f) for f in evolved)
    high = (state.mu.coeffs, state.lam_plus.coeffs)
    mu_free, lam_free = (
        SpectralField(grid, f) for f in free_flow(grid, SYSTEM_DISPERSIONS, delta)(high)
    )
    incr_u = mu_d - mu_free
    incr_w = lam_d - lam_free
    new_state = HighLowState(
        phi=phi_d + incr_u,
        psi_plus=psi_d + incr_w,
        mu=mu_free,
        lam_plus=lam_free,
        window_index=state.window_index + 1,
        t=state.t + delta,
    )
    energy = low_energy(new_state.phi, new_state.psi_plus)
    log = WindowLog(
        window_index=new_state.window_index,
        t_end=new_state.t,
        energy_low=energy.energy,
        coercivity_surrogate=energy.coercivity_surrogate,
        mass_low=l2_norm(new_state.phi),
        increment_u_h1=sobolev_norm(incr_u, 1.0),
        increment_wave_h1=sobolev_norm(incr_w, 1.0),
    )
    return new_state, log


def advance_window(state: HighLowState, config: HighLowConfig) -> HighLowState:
    """One window: coupled evolution over delta, then reassembly.

    The identity ``phi_1 + mu_1 = phi(delta) + mu(delta)`` holds exactly
    (the free flow added to the low slot is subtracted from the high slot).
    """
    new_state, _ = _reassemble(state, config, _integrate_window(state, config))
    return new_state


# ---------------------------------------------------------------------------
# Energy, constants, thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowEnergyReport:
    energy: float
    coercivity_surrogate: float


def low_energy(phi: SpectralField, psi_plus: SpectralField) -> LowEnergyReport:
    """Low-pair energy ``||A psi||^2 + 2 ||grad phi||^2 - 2 int |phi|^2 Re psi``.

    ``psi`` is the plus branch of the real low wave.  Also returns the
    coercivity surrogate (the two quadratic terms alone), which the energy
    approximates from below once the u-mass is small.
    """
    wave_field = SpectralField(phi.grid, real_part(psi_plus.coeffs))
    quad_part = (
        sobolev_norm(psi_plus, 1.0) ** 2
        + 2.0 * sobolev_norm(phi, 1.0, homogeneous=True) ** 2
    )
    cubic = 2.0 * cubic_pairing(phi, wave_field)
    return LowEnergyReport(energy=quad_part - cubic, coercivity_surrogate=quad_part)


def gaussian_gns_constants() -> tuple[float, float]:
    """Lower brackets for the optimal 4-d Gagliardo-Nirenberg constants.

    The exact Gaussian quotients ``||f||_4 / ||grad f||_2`` and
    ``||f||_{8/3} / (||f||_2 ||grad f||_2)^{1/2}``, scale-invariant in four
    dimensions; the optimal constants (Weinstein 1983) are suprema over all
    ``f``, so these bracket them from below.
    """
    return 1.0 / (2.0 * math.sqrt(math.pi)), (3.0 * math.pi / 4.0) ** 0.75 / (math.pi * 2.0**0.25)


@dataclass(frozen=True)
class MassThreshold:
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

@dataclass(frozen=True)
class HighLowReport:
    config: HighLowConfig
    threshold: MassThreshold
    initial_mass: float
    below_threshold: bool
    windows: list[WindowLog]
    final_state: HighLowState
    diff_vs_direct: list[float] | None
    warnings: list[str]


def run_global(
    u0: SpectralField,
    wplus: SpectralField,
    config: HighLowConfig,
    compare_direct: bool = False,
) -> HighLowReport:
    """Iterate `advance_window` to the horizon, logging per-window diagnostics.

    The mass threshold is advisory: a run above it proceeds with a warning.
    With ``compare_direct`` the unsplit system is integrated alongside at the
    same inner steps and the relative L2 difference of the totals is logged
    per window (they agree to roundoff; the telescoping identity is exact).
    """
    state = split_initial(u0, wplus, config.cutoff)
    c1, c2 = config.constants()
    threshold = mass_threshold(c1, c2)
    mass0 = l2_norm(u0)
    warnings = []
    if u0.grid.dim == 4 and config.m <= 0.9:
        warnings.append(
            f"d=4 global theory wants s, r > 9/10; got m = {config.m}"
        )
    if mass0 >= threshold.operative:
        warnings.append(
            f"initial mass {mass0:.6g} is not below the operative threshold "
            f"{threshold.operative:.6g} (quotient form); the product form is "
            f"{threshold.product_form:.6g} -- the two printed forms disagree "
            "and are both reported"
        )

    # Windows keep their length delta; the last one may end past t_end.
    n_windows, _ = time_grid(config.t_end, config.delta)
    direct_state = SystemState(System.KGS, u0, wplus) if compare_direct else None
    diffs: list[float] | None = [] if compare_direct else None

    logs: list[WindowLog] = []
    for _ in range(n_windows):
        evolved = _integrate_window(state, config)
        state, log = _reassemble(state, config, evolved)
        logs.append(log)
        if compare_direct and direct_state is not None:
            direct_state = _direct_window(direct_state, config)
            direct = (direct_state.u, direct_state.wplus)
            num = sum(l2_norm(t - d) for t, d in zip(state.total(), direct))
            den = sum(l2_norm(d) for d in direct)
            diffs.append(num / den if den > 0 else 0.0)
    return HighLowReport(
        config=config,
        threshold=threshold,
        initial_mass=mass0,
        below_threshold=mass0 < threshold.operative,
        windows=logs,
        final_state=state,
        diff_vs_direct=diffs,
        warnings=warnings,
    )


def _direct_window(state: SystemState, config: HighLowConfig) -> SystemState:
    """Advance the unsplit system by one window on the window's own time grid."""
    window = IntegratorConfig(
        dt=config.dt,
        t_end=config.delta,
        record_every=10**9,
        blowup_threshold=config.blowup_threshold,
    )
    return integrate(state, window)[-1]
