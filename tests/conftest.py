"""Shared fixtures and data builders for the test suite."""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest

from dispersmooth.errors import ConfigurationError, GridMismatchError
from dispersmooth.evolution import (
    ConservationReport,
    System,
    SystemState,
    box_wplus,
    conserved_quantities,
    nonlinear_rhs,
)
from dispersmooth.spectral import (
    EPSILON0,
    CouplingKernel,
    Grid,
    box_inner,
    conjugate,
    full_spectrum,
    half_spectrum,
    sobolev_norm,
)


# The full lattice.  The package carries fields on the dealias box only;
# the oracles below work on full coefficient arrays of the whole lattice.

class Lattice(NamedTuple):
    """The wavenumber arrays of a `Grid` on the whole lattice, and its two masks."""

    xi_squared: np.ndarray
    xi_norm: np.ndarray
    bracket: np.ndarray
    dealias_mask: np.ndarray  # the dealias box, |k_i| <= n//3
    nyquist_mask: np.ndarray  # the Nyquist planes, some k_i = -n/2


@functools.lru_cache(maxsize=16)
def lattice(grid: Grid) -> Lattice:
    """The read-only `Lattice` of ``grid``."""
    xi_sq = sum(a**2 for a in np.meshgrid(*([grid.xi_axis] * grid.dim), indexing="ij", sparse=True))
    ks = np.meshgrid(*([grid.k_axis] * grid.dim), indexing="ij", sparse=True)
    n = grid.n_per_dim
    keep = functools.reduce(np.logical_and, [np.abs(k) <= n // 3 for k in ks])
    nyquist = functools.reduce(np.logical_or, [k == -n // 2 for k in ks])
    arrays = Lattice(xi_sq, np.sqrt(xi_sq), np.sqrt(1.0 + xi_sq), keep, nyquist)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class SpectralField:
    """One complex field stored as full Fourier coefficients on a `Grid`: a read-only copy."""

    grid: Grid
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise GridMismatchError(f"shape {arr.shape} does not match grid {self.grid.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def _other(self, other: "SpectralField") -> np.ndarray:
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")
        return other.coeffs

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs + self._other(other))

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs - self._other(other))

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def lattice_field(grid: Grid, s: float, seed, real: bool = False) -> SpectralField:
    """The oracle of `random_sobolev_field` on the whole lattice: the same Gaussians
    and envelope over every mode, the Nyquist planes zeroed, and a real field
    symmetrized with `conjugate` of the whole array.  Its box entries are the draw's."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) / math.sqrt(2.0)
    coeffs = lattice(grid).bracket ** (-(s + grid.dim / 2.0 + EPSILON0)) * g
    coeffs[lattice(grid).nyquist_mask] = 0.0
    if real:
        coeffs = (coeffs + conjugate(coeffs)) / math.sqrt(2.0)
    return SpectralField(grid, coeffs)


def norm(f: SpectralField, s: float = 0.0, homogeneous: bool = False) -> float:
    """`sobolev_norm` of a field; ``s = 0`` is its L2 norm."""
    return sobolev_norm(f.coeffs, f.grid, s, homogeneous)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode outside the dealias box."""
    return SpectralField(f.grid, np.where(lattice(f.grid).dealias_mask, f.coeffs, 0.0))


def from_box(box: np.ndarray, grid: Grid) -> np.ndarray:
    """Full coefficients (``+0`` outside the box) of a box array or a box half spectrum."""
    if box.shape != grid.box_shape:
        box = full_spectrum(box, out=np.empty(grid.box_shape, dtype=np.complex128))
    out = np.zeros(grid.shape, dtype=np.complex128)
    out[grid.box_index] = box
    return out


def from_full(
    system: System, u: SpectralField, v: SpectralField, w: SpectralField, t: float = 0.0
) -> SystemState:
    """The state of full fields ``(u, v, w)``; a ``v`` or ``w`` that is not real
    (``f - conj f`` above 1e-12 relative in L2), or a field with an L2 norm
    outside the box above 1e-12 of its own, is rejected by name."""
    for f, name in ((v, "v"), (w, "w")):
        defect = norm(SpectralField(f.grid, f.coeffs - conjugate(f.coeffs)))
        if not defect <= 1e-12 * norm(f):
            raise ConfigurationError(f"{name} must be a real field; conjugate-symmetry defect {defect:.3e}")
    boxes = [band_limited(f, name) for f, name in ((u, "u"), (v, "v"), (w, "w"))]
    halves = (np.ascontiguousarray(half_spectrum(a)) for a in boxes[1:])
    return SystemState(system, u.grid, boxes[0], *halves, t=t)


def band_limited(f: SpectralField, name: str) -> np.ndarray:
    """``f`` on the dealias box; a `ConfigurationError` naming ``name`` if its L2 norm
    outside the box is above 1e-12 of its own."""
    outside = norm(SpectralField(f.grid, np.where(lattice(f.grid).dealias_mask, 0.0, f.coeffs)))
    if not outside <= 1e-12 * norm(f):
        raise ConfigurationError(f"{name} is not band-limited: L2 norm {outside:.3e} outside the box")
    return f.grid.box(f.coeffs)


# Full-lattice oracles: multipliers, projections and the wave algebra of
# ``w+ = v + i A^{-1} v_t``, ``A = (1 - Laplacian)^{1/2}``.

def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def fourier_multiplier(f: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply coefficients pointwise by ``symbol(xi)``, a finite symbol on the whole
    lattice (singular ones take a zero-mode policy first), Nyquist planes zeroed."""
    out = f.coeffs * symbol
    out[lattice(f.grid).nyquist_mask] = 0.0
    return SpectralField(f.grid, out)


def bessel_potential(f: SpectralField, order: float) -> SpectralField:
    """Apply ``(1 - Laplacian)**(order/2)``, the multiplier ``<xi>**order``."""
    return fourier_multiplier(f, lattice(f.grid).bracket**order)


def inner_product(f: SpectralField, g: SpectralField) -> complex:
    """L2 pairing ``integral f * conj(g) dx`` via Parseval."""
    # An elementwise reduction, not np.vdot: BLAS would start worker threads.
    return complex(np.sum(f.coeffs * np.conj(f._other(g)))) / f.grid.volume


def lowpass_projection(f: SpectralField, cutoff: float) -> SpectralField:
    """Keep modes with ``|xi| <= cutoff``; idempotent."""
    return SpectralField(f.grid, np.where(lattice(f.grid).xi_norm <= cutoff, f.coeffs, 0.0))


def real_part(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of ``Re f`` from those of ``f``: ``(f(k) + conj f(-k)) / 2`` (`conjugate`)."""
    return 0.5 * (coeffs + conjugate(coeffs))


def join_wave(v: SpectralField, v_t: SpectralField) -> SpectralField:
    """``w+ = v + i A^{-1} v_t`` of a real wave ``(v, v_t)``."""
    return v + 1j * bessel_potential(v_t, -1.0)


def split_wave(wplus: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Recover ``v = Re w+`` and ``v_t = A Im w+``."""
    conj = conjugate(wplus.coeffs)
    v = SpectralField(wplus.grid, 0.5 * (wplus.coeffs + conj))
    v_t = bessel_potential(SpectralField(wplus.grid, -0.5j * (wplus.coeffs - conj)), 1.0)
    return v, v_t


def spectral_mode(grid: Grid, k: tuple[int, ...], amplitude: complex = 1.0) -> SpectralField:
    """A single exact Fourier mode: coefficient ``amplitude * (2 pi L)**d`` at k."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    idx = tuple(int(np.argmin(np.abs(grid.k_axis - ki))) for ki in k)
    coeffs[idx] = amplitude * grid.volume
    return SpectralField(grid, coeffs)


def random_state(
    system: System,
    grid: Grid,
    seed: int,
    s: float = 1.0,
    r: float = 1.0,
    amplitude: float = 1.0,
    zero_mean_wave_velocity: bool = False,
    kids: list[np.random.SeedSequence] | None = None,
) -> SystemState:
    """Random band-limited state with a real wave, for integration tests: ``u``, ``v``
    and ``v_t`` drawn from ``kids`` (by default ``SeedSequence((seed, i))``), the wave
    joined into ``w+``, dealiased and split again (`make_state`)."""
    kids = kids or [np.random.SeedSequence((seed, i)) for i in range(3)]
    u = amplitude * lattice_field(grid, s, seed=kids[0])
    v, v_t = (
        amplitude * lattice_field(grid, order, seed=kid, real=True)
        for kid, order in ((kids[1], r), (kids[2], max(r - 1.0, 0.0)))
    )
    if zero_mean_wave_velocity:
        coeffs = v_t.coeffs.copy()
        coeffs[(0,) * grid.dim] = 0.0
        v_t = SpectralField(grid, coeffs)
    return make_state(system, dealias(u), dealias(join_wave(v, v_t)))


def make_state(system: System, u: SpectralField, wplus: SpectralField, t: float = 0.0) -> SystemState:
    """The state of data ``(u, w+)``: `from_full` of ``u`` and `split_wave` of ``w+``,
    naming a ``w+`` out of the box."""
    band_limited(wplus, "wplus")
    return from_full(system, u, *split_wave(wplus), t=t)


def joined_system_state(
    system: System, grid: Grid, s: float, r: float, seed: int, amplitude: float = 1.0
) -> SystemState:
    """The oracle of `random_system_state`: its draws on the whole lattice through
    `random_state`, with a mean-zero velocity."""
    kids = np.random.SeedSequence(seed).spawn(3)
    return random_state(system, grid, seed, s, r, amplitude, zero_mean_wave_velocity=True, kids=kids)


def lowpass_attractor_state(grid: Grid, seed: int, amplitude: float) -> SystemState:
    """The oracle of the attractor's data: `from_full` of its draws times ``amplitude``
    on the whole lattice, projected to half the dealias cutoff."""
    kids = np.random.SeedSequence((seed, 3)).spawn(3)
    draws = zip(kids, (1.5, 1.5, 0.5), (False, True, True))
    fields = (amplitude * lattice_field(grid, s, seed=kid, real=real) for kid, s, real in draws)
    band = grid.dealias_cutoff / 2
    return from_full(System.KGS, *(lowpass_projection(f, band) for f in fields))


class Full(NamedTuple):
    """A state's full spectra: ``u``, ``v``, ``w`` (`from_box`) and ``w+`` (`box_wplus`)."""

    u: SpectralField
    v: SpectralField
    w: SpectralField
    wplus: SpectralField
    t: float

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @property
    def wminus(self) -> SpectralField:
        return SpectralField(self.grid, conjugate(self.wplus.coeffs))


def full(state: SystemState) -> Full:
    """The full spectra of a state; ``wplus`` reads ``w`` as ``v_t``."""
    grid = state.grid
    u, v, w, wplus = (
        SpectralField(grid, from_box(a, grid))
        for a in (*state.fields, box_wplus(state.v, state.w, grid))
    )
    return Full(u, v, w, wplus, state.t)


def scaled(state: SystemState, c: complex, wave: complex | None = None) -> SystemState:
    """``state`` with ``u`` times ``c`` and the wave times ``wave`` (default ``c``)."""
    wave = c if wave is None else wave
    return SystemState(state.system, state.grid, c * state.u, wave * state.v, wave * state.w, t=state.t)


def coupling_products(
    grid: Grid, u: np.ndarray, wave: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dealiased coefficients of ``u * wave`` and ``|u|^2`` from full coefficient arrays.

    The full-lattice oracle of `CouplingKernel`: numpy's n-d transforms of
    the whole lattice, the kernel's arithmetic on the samples, and the
    2/3-rule mask.  The kernel's wave is real; the product is bilinear, so
    a complex wave adds ``i u Im(wave)`` as a second product.  Each equals
    the exact truncated convolution when the inputs lie inside the dealias
    band.
    """
    axes = tuple(range(grid.dim))
    scale = np.asarray(lattice(grid).dealias_mask / grid.dx**grid.dim, dtype=complex)
    u_x = np.fft.ifftn(u)

    def product(half_wave):
        wave_x = np.fft.irfftn(half_wave, s=grid.shape, axes=axes)
        samples = np.empty_like(u_x)
        samples.real = u_x.real * wave_x
        samples.imag = u_x.imag * wave_x
        return np.fft.fftn(samples) * scale

    uw = product(half_spectrum(real_part(wave)))
    imag = half_spectrum(real_part(-1j * wave))
    if np.any(imag):
        uw += 1j * product(imag)
    abs2 = np.fft.rfftn(u_x.real * u_x.real + u_x.imag * u_x.imag) * half_spectrum(scale)
    return uw, full_spectrum(abs2, np.empty(grid.shape, complex))


def full_rhs(state: SystemState) -> tuple[np.ndarray, ...]:
    """``(du, dv, dw)`` of `nonlinear_rhs` on a state's carried ``(u, v, v_t)``, as full spectra."""
    grid = state.grid
    return tuple(from_box(a, grid) for a in nonlinear_rhs(state.system, grid)(state.fields))


#: Full-spectrum multipliers of the free flows of ``u``, ``w+`` and ``w- = conj w+``.
FREE_SYMBOLS = {
    "schrodinger": lambda grid, t: np.exp(-1j * t * lattice(grid).xi_squared),
    "kg_plus": lambda grid, t: np.exp(-1j * t * lattice(grid).bracket),
    "kg_minus": lambda grid, t: np.exp(1j * t * lattice(grid).bracket),
}


def free_flow(f: SpectralField, dispersion: str, t: float) -> SpectralField:
    """The oracle of `block_flow` without damping: ``f`` times its `FREE_SYMBOLS`
    multiplier over ``t`` on the whole lattice, Nyquist plane zeroed."""
    return fourier_multiplier(f, FREE_SYMBOLS[dispersion](f.grid, t))


@pytest.fixture
def grid_2d_small() -> Grid:
    return Grid(2, 16)


@pytest.fixture
def grid_2d() -> Grid:
    return Grid(2, 32)


def riesz_potential(f: SpectralField, order: float) -> SpectralField:
    """Apply ``|xi|**order`` with the zero mode set to 0: on the torus the homogeneous
    operator of negative order acts on mean-zero data."""
    r = lattice(f.grid).xi_norm
    return fourier_multiplier(f, np.where(r > 0, np.where(r > 0, r, 1.0) ** order, 0.0))


def conserved(state: SystemState) -> ConservationReport:
    """`conserved_quantities` of a state's carried ``(u, v, v_t)`` and their right side."""
    du = nonlinear_rhs(state.system, state.grid)(state.fields)[0]
    return conserved_quantities(state.system, state.grid, state.fields, du)


def cubic_term(u: np.ndarray, v: np.ndarray, grid: Grid) -> float:
    """``int P(|u|^2) v dx`` of a box array ``u`` and the box half spectrum ``v`` of a
    real field, as `dissipative` and `highlow` form the cubic energy term: the
    kernel's ``|u|^2`` (`CouplingKernel.abs2`) paired with ``v`` (`box_inner`)."""
    return box_inner(CouplingKernel(grid).abs2(u), v, grid, pairwise=True)


def spectral_cubic_pairing(u: SpectralField, v: SpectralField) -> float:
    """``Re int |u|^2 conj(v) dx`` with the dealiased ``|u|^2``, in coefficient space.

    The oracle of `cubic_term`: ``|u|^2`` from numpy's n-d transforms of
    the whole lattice with the arithmetic of `CouplingKernel`, the 2/3-rule
    mask, and the Parseval pairing; it takes any ``u`` and ``v``.
    """
    grid = u.grid
    samples = np.fft.ifftn(u.coeffs)
    scale = np.asarray(half_spectrum(lattice(grid).dealias_mask) / grid.dx**grid.dim, dtype=complex)
    abs2 = np.fft.rfftn(samples.real * samples.real + samples.imag * samples.imag) * scale
    return inner_product(SpectralField(grid, full_spectrum(abs2, np.empty(grid.shape, complex))), v).real


def state_conserved_quantities(state: SystemState) -> ConservationReport:
    """The oracle of `conserved_quantities`: the same quantities from a state's full
    spectra, with `split_wave` of its ``w+``, `norm` and `spectral_cubic_pairing`."""
    system, state = state.system, full(state)
    mass = norm(state.u)
    v, v_t = split_wave(state.wplus)
    grad_u_sq = norm(state.u, 1.0, homogeneous=True) ** 2
    cubic = spectral_cubic_pairing(state.u, v)
    if system is System.KGS:
        wave = norm(v) ** 2 + norm(v_t) ** 2 + norm(v, 1.0, homogeneous=True) ** 2
        return ConservationReport(mass, grad_u_sq + 0.5 * wave - cubic, None)
    wave_kinetic = norm(riesz_potential(v_t, -1.0)) ** 2
    hamiltonian = grad_u_sq + 0.5 * (norm(v) ** 2 + wave_kinetic) + cubic
    mean = v_t.coeffs[(0,) * v_t.grid.dim].real / v_t.grid.volume  # the zero mode's spatial mean
    return ConservationReport(mass, hamiltonian, float(mean))


def simulate_row(state: SystemState, s: float, r: float) -> tuple[float, ...]:
    """The oracle of a simulate CSV row after ``step``: ``t``, mass, Hamiltonian and the
    ``H^s``/``H^r`` norms of ``u``, ``w+`` and ``w-``, each from full spectra."""
    report, state = state_conserved_quantities(state), full(state)
    norms = (norm(f, e) for f, e in ((state.u, s), (state.wplus, r), (state.wminus, r)))
    return (state.t, report.mass, report.hamiltonian, *norms)
