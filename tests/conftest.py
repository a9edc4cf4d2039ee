"""Shared fixtures and data builders for the test suite."""

import numpy as np
import pytest

from dispersmooth.evolution import System, SystemState, band_limit_state, join_wave
from dispersmooth.spectral import (
    CouplingKernel,
    Grid,
    SpectralField,
    full_spectrum,
    half_real_part,
    random_sobolev_field,
    real_part,
)


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
) -> SystemState:
    """Random band-limited state with a real wave, for integration tests."""
    u = amplitude * random_sobolev_field(grid, s, seed=np.random.SeedSequence((seed, 0)))
    v = amplitude * random_sobolev_field(
        grid, r, seed=np.random.SeedSequence((seed, 1)), real=True
    )
    v_t = amplitude * random_sobolev_field(
        grid, max(r - 1.0, 0.0), seed=np.random.SeedSequence((seed, 2)), real=True
    )
    if zero_mean_wave_velocity:
        coeffs = v_t.coeffs.copy()
        coeffs[(0,) * grid.dim] = 0.0
        v_t = SpectralField(grid, coeffs)
    return band_limit_state(SystemState(system, u, join_wave(v, v_t)))


def wave_field(state: SystemState) -> SpectralField:
    """The physical wave unknown ``Re w+``."""
    return SpectralField(state.grid, real_part(state.wplus.coeffs))


def coupling_products(
    grid: Grid, u: np.ndarray, wave: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dealiased coefficients of ``u * wave`` and ``|u|^2`` from coefficient arrays.

    An oracle over `CouplingKernel`, whose wave is real: the product is
    bilinear, so a complex wave is ``u Re(wave) + i u Im(wave)``, one kernel
    call per part.  Each equals the exact truncated convolution when the
    inputs lie inside the dealias band.
    """
    kernel = CouplingKernel(grid)
    product, abs2 = kernel(u, half_real_part(wave))
    abs2 = full_spectrum(abs2)
    imag_product, _ = kernel(u, half_real_part(-1j * wave))
    product += 1j * imag_product
    return product, abs2


@pytest.fixture
def grid_2d_small() -> Grid:
    return Grid(2, 16)


@pytest.fixture
def grid_2d() -> Grid:
    return Grid(2, 32)
