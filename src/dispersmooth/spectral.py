"""Grids, transforms, Fourier multipliers, norms, projections, and rough data.

Everything downstream works with `SpectralField` values: complex Fourier
coefficients on a periodic box of period ``2*pi*L`` per axis.  The transform
convention is the quadrature analogue of ``u_hat(xi) = integral u(x) exp(-i xi.x) dx``,
so a constant field ``c`` has a single zero-mode coefficient ``c * (2 pi L)**d``
and Parseval reads::

    integral |u|^2 dx = (2 pi L)**(-d) * sum_xi |u_hat(xi)|^2

The wavenumber lattice is ``xi = k / L`` for integers ``k in [-n/2, n/2)`` per
axis (numpy FFT ordering).  The Nyquist plane ``k = -n/2`` has no symmetric
partner, so every Fourier multiplier annihilates it; this keeps conjugate
symmetry of real fields exact.  All functions are pure and fields are
immutable, so values are safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridMismatchError

_TWO_PI = 2.0 * math.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Periodic box descriptor with its integer wavenumber lattice.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 through 4.
    n_per_dim : int
        Modes per dimension; a power of two >= 8.
    box_length : float
        The period is ``2*pi*box_length`` per axis; wavenumbers are spaced
        ``1/box_length``.
    """

    dim: int
    n_per_dim: int
    box_length: float = 1.0

    # Derived lattice data; excluded from equality so grids compare by shape.
    k_axis: np.ndarray = field(init=False, repr=False, compare=False)
    xi_axis: np.ndarray = field(init=False, repr=False, compare=False)
    xi_squared: np.ndarray = field(init=False, repr=False, compare=False)
    xi_norm: np.ndarray = field(init=False, repr=False, compare=False)
    bracket: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    nyquist_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3, 4):
            raise ConfigurationError(f"dim must be in 1..4, got {self.dim}")
        if not _is_power_of_two(self.n_per_dim) or self.n_per_dim < 8:
            raise ConfigurationError(
                f"n_per_dim must be a power of two >= 8, got {self.n_per_dim}"
            )
        if not (self.box_length > 0):
            raise ConfigurationError(
                f"box_length must be positive, got {self.box_length}"
            )
        n = self.n_per_dim
        k = np.fft.fftfreq(n, d=1.0 / n)  # integers 0..n/2-1, -n/2..-1
        object.__setattr__(self, "k_axis", k)
        object.__setattr__(self, "xi_axis", k / self.box_length)

        axes = np.meshgrid(*([self.xi_axis] * self.dim), indexing="ij")
        xi_sq = sum(a**2 for a in axes)
        object.__setattr__(self, "xi_squared", xi_sq)
        object.__setattr__(self, "xi_norm", np.sqrt(xi_sq))
        object.__setattr__(self, "bracket", np.sqrt(1.0 + xi_sq))

        cutoff = n // 3  # 2/3 rule; n is a power of two so 3*cutoff < n
        keep = np.ones(self.shape, dtype=bool)
        nyq = np.zeros(self.shape, dtype=bool)
        for axis_k in np.meshgrid(*([k] * self.dim), indexing="ij"):
            keep &= np.abs(axis_k) <= cutoff
            nyq |= axis_k == -n // 2
        object.__setattr__(self, "dealias_mask", keep)
        object.__setattr__(self, "nyquist_mask", nyq)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_dim,) * self.dim

    @property
    def mode_count(self) -> int:
        return self.n_per_dim**self.dim

    @property
    def dx(self) -> float:
        """Physical grid spacing per axis."""
        return _TWO_PI * self.box_length / self.n_per_dim

    @property
    def volume(self) -> float:
        """Box volume ``(2 pi L)**d``."""
        return (_TWO_PI * self.box_length) ** self.dim

    @property
    def dealias_cutoff(self) -> float:
        """Largest retained wavenumber magnitude per axis after dealiasing."""
        return (self.n_per_dim // 3) / self.box_length


def make_grid(dim: int, n_per_dim: int, box_length: float = 1.0) -> Grid:
    """Build a periodic grid; see `Grid` for the validation rules."""
    return Grid(dim, n_per_dim, box_length)


@dataclass(frozen=True)
class SpectralField:
    """One complex field stored as Fourier coefficients on a `Grid`."""

    grid: Grid
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise GridMismatchError(
                f"coefficient shape {arr.shape} does not match grid {self.grid.shape}"
            )
        # Fields are immutable values: a writeable caller array is copied, not
        # frozen under its owner; a read-only one is shared.
        if arr is self.coeffs and arr.flags.writeable:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


def _check_same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def to_coefficients(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Forward transform of physical samples (row-major over the lattice)."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise GridMismatchError(
            f"sample shape {samples.shape} does not match grid {grid.shape}"
        )
    return SpectralField(grid, _coefficients(samples, grid))


def to_samples(f: SpectralField) -> np.ndarray:
    """Inverse transform; exact round-trip with `to_coefficients`."""
    return _samples(f.coeffs, f.grid)


def _coefficients(samples: np.ndarray, grid: Grid) -> np.ndarray:
    return np.fft.fftn(samples) * grid.dx**grid.dim


def _samples(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    return np.fft.ifftn(coeffs) / grid.dx**grid.dim


# ---------------------------------------------------------------------------
# Multipliers and norms
# ---------------------------------------------------------------------------

def fourier_multiplier(f: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply coefficients pointwise by ``symbol(xi)``.

    The symbol must be finite on the whole lattice (singular symbols need an
    explicit zero-mode policy first; see `riesz_symbol`).  The Nyquist plane
    is zeroed.
    """
    symbol = np.asarray(symbol)
    if symbol.shape != f.grid.shape:
        raise GridMismatchError("symbol shape does not match grid")
    if not np.all(np.isfinite(symbol)):
        raise ConfigurationError(
            "symbol is singular on the lattice; apply a zero-mode policy first"
        )
    out = f.coeffs * symbol
    out[f.grid.nyquist_mask] = 0.0
    return SpectralField(f.grid, out)


def bessel_symbol(grid: Grid, order: float) -> np.ndarray:
    """Symbol of ``(1 - Laplacian)**(order/2)``, i.e. ``<xi>**order``."""
    return grid.bracket**order


def riesz_symbol(grid: Grid, order: float) -> np.ndarray:
    """Symbol ``|xi|**order`` with the zero mode set to 0.

    On the torus the homogeneous operator with negative order is only defined
    on mean-zero data; callers report the zero-mode mass separately (see
    `zero_mode_mean`).
    """
    r = grid.xi_norm
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, safe**order, 0.0)


def bessel_potential(f: SpectralField, order: float) -> SpectralField:
    """Apply ``(1 - Laplacian)**(order/2)``."""
    return fourier_multiplier(f, bessel_symbol(f.grid, order))


def riesz_potential(f: SpectralField, order: float) -> SpectralField:
    """Apply ``|xi|**order`` (zero mode annihilated for negative order)."""
    return fourier_multiplier(f, riesz_symbol(f.grid, order))


def zero_mode_mean(f: SpectralField) -> complex:
    """Spatial mean of the field (the zero-mode coefficient over the volume)."""
    return complex(f.coeffs[(0,) * f.grid.dim]) / f.grid.volume


def remove_mean(f: SpectralField) -> SpectralField:
    """Zero the spatial mean (zero-mode coefficient)."""
    coeffs = f.coeffs.copy()
    coeffs[(0,) * f.grid.dim] = 0.0
    return SpectralField(f.grid, coeffs)


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm ``|| <xi>^s u_hat ||`` (or ``|| |xi|^s u_hat ||``).

    Uses the Parseval normalization, so ``s = 0`` returns the spatial L2 norm.
    The homogeneous version drops the zero mode (mean-zero convention on the
    torus).
    """
    g = f.grid
    if homogeneous:
        weight_sq = np.where(g.xi_norm > 0, g.xi_norm, 1.0) ** (2 * s)
        weight_sq = np.where(g.xi_norm > 0, weight_sq, 0.0)
    else:
        weight_sq = g.bracket ** (2 * s)
    total = np.sum(weight_sq * np.abs(f.coeffs) ** 2)
    return math.sqrt(total.real / g.volume)


def l2_norm(f: SpectralField) -> float:
    return sobolev_norm(f, 0.0)


def inner_product(f: SpectralField, g: SpectralField) -> complex:
    """L2 pairing ``integral f * conj(g) dx`` via Parseval."""
    _check_same_grid(f, g)
    # An elementwise reduction, not np.vdot: BLAS would start worker threads.
    return complex(np.sum(f.coeffs * np.conj(g.coeffs))) / f.grid.volume


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def lowpass_projection(f: SpectralField, cutoff: float) -> SpectralField:
    """Keep modes with ``|xi| <= cutoff``; idempotent."""
    if not (cutoff > 0):
        raise ConfigurationError(f"lowpass cutoff must be positive, got {cutoff}")
    out = np.where(f.grid.xi_norm <= cutoff, f.coeffs, 0.0)
    return SpectralField(f.grid, out)


@dataclass(frozen=True)
class DyadicShellSet:
    """Dyadic (Littlewood-Paley) partition of the wavenumber lattice.

    Shell 0 covers ``|xi| <= 1``; shell ``j >= 1`` covers
    ``2**(j-1) < |xi| <= 2**j``.  Shells are disjoint and cover every mode.
    """

    grid: Grid
    count: int

    def bounds(self, j: int) -> tuple[float, float]:
        if not 0 <= j < self.count:
            raise ConfigurationError(f"shell index {j} outside 0..{self.count - 1}")
        return (0.0, 1.0) if j == 0 else (2.0 ** (j - 1), 2.0**j)

    def mask(self, j: int) -> np.ndarray:
        lo, hi = self.bounds(j)
        r = self.grid.xi_norm
        return (r <= hi) if j == 0 else (r > lo) & (r <= hi)


def dyadic_shells(grid: Grid) -> DyadicShellSet:
    max_xi = float(np.max(grid.xi_norm))
    top = max(0, math.ceil(math.log2(max_xi))) if max_xi > 1 else 0
    return DyadicShellSet(grid, top + 1)


def shell_projection(f: SpectralField, j: int, shells: DyadicShellSet | None = None) -> SpectralField:
    """Restrict to the dyadic shell ``|xi| ~ 2**j``; the shells partition."""
    shells = shells if shells is not None else dyadic_shells(f.grid)
    return SpectralField(f.grid, np.where(shells.mask(j), f.coeffs, 0.0))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode above the 2/3-rule cutoff (per axis)."""
    return SpectralField(f.grid, np.where(f.grid.dealias_mask, f.coeffs, 0.0))


def coupling_products(
    grid: Grid, u: np.ndarray, wave: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dealiased coefficients of ``u * wave`` and ``|u|^2`` from coefficient arrays.

    These are the two quadratic terms of every coupled system, at two inverse
    and two forward transforms.  Each equals the exact truncated convolution
    when the inputs lie inside the dealias band.
    """
    if u.shape != grid.shape or wave.shape != grid.shape:
        raise GridMismatchError(
            f"coefficient shapes {u.shape}, {wave.shape} do not match grid {grid.shape}"
        )
    u_x = _samples(u, grid)
    return _dealiased(u_x * _samples(wave, grid), grid), _dealiased_abs2(u_x, grid)


def cubic_pairing(u: SpectralField, v: SpectralField) -> float:
    """``Re int |u|^2 conj(v) dx`` with the dealiased ``|u|^2``: the cubic energy term."""
    _check_same_grid(u, v)
    abs2 = SpectralField(u.grid, _dealiased_abs2(to_samples(u), u.grid))
    return inner_product(abs2, v).real


def real_part(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of ``Re f`` from those of ``f``: ``(f(k) + conj f(-k)) / 2``.

    No transform is needed: on the sampled lattice conjugation maps mode ``k``
    to mode ``-k``, and the unpaired Nyquist plane is zero.
    """
    return 0.5 * (coeffs + conjugate(coeffs))


def _dealiased(samples: np.ndarray, grid: Grid) -> np.ndarray:
    return np.where(grid.dealias_mask, _coefficients(samples, grid), 0.0)


def _dealiased_abs2(u_samples: np.ndarray, grid: Grid) -> np.ndarray:
    return _dealiased(u_samples.real**2 + u_samples.imag**2, grid)


# ---------------------------------------------------------------------------
# Random rough data and spectrum statistics
# ---------------------------------------------------------------------------

#: Fixed spectral-margin exponent for random data; guarantees H^s membership
#: with a measurable tail slope.
EPSILON0 = 0.05


def random_sobolev_field(
    grid: Grid,
    s: float,
    seed: int | np.random.SeedSequence,
    real: bool = False,
    epsilon0: float = EPSILON0,
) -> SpectralField:
    """Random field with coefficients ``<xi>**(-s - d/2 - eps0) * g_xi``.

    ``g_xi`` are independent standard complex Gaussians, so the field lies in
    H^s almost surely while its H^(s+1) norm diverges as the grid is refined.
    Deterministic for a given seed.  With ``real=True`` the coefficients are
    Hermitian-symmetrized so physical samples are real.
    """
    rng = np.random.default_rng(seed)
    shape = grid.shape
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    envelope = grid.bracket ** (-(s + grid.dim / 2.0 + epsilon0))
    coeffs = envelope * g
    coeffs[grid.nyquist_mask] = 0.0
    if real:
        coeffs = (coeffs + conjugate(coeffs)) / math.sqrt(2.0)
    return SpectralField(grid, coeffs)


def conjugate(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of ``conj f``: ``conj f(-k)``, with ``-k`` taken in FFT layout."""
    out = coeffs
    for axis in range(coeffs.ndim):
        n = coeffs.shape[axis]
        idx = (-np.arange(n)) % n
        out = np.take(out, idx, axis=axis)
    return np.conj(out)


def shell_average_spectrum(f: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Mean |coefficient| over unit-width annuli ``m <= |k| < m+1``.

    Radii are in integer-lattice units (``|xi| * L``).  Empty annuli are
    dropped.  Used for spectral slope fits.
    """
    r = (f.grid.xi_norm * f.grid.box_length).ravel()
    mags = np.abs(f.coeffs).ravel()
    m = np.floor(r).astype(int)
    counts = np.bincount(m)
    sums = np.bincount(m, weights=mags)
    nonzero = counts > 0
    radii = np.arange(len(counts))[nonzero] + 0.5
    return radii, sums[nonzero] / counts[nonzero]


def fit_spectral_slope(f: SpectralField, lo: float, hi: float) -> float | None:
    """Slope of log(shell-averaged |coeffs|) against log|k| over ``[lo, hi]``.

    Returns None when the field vanishes on the fit range (no slope defined).
    """
    radii, means = shell_average_spectrum(f)
    sel = (radii >= lo) & (radii <= hi) & (means > 0)
    if np.count_nonzero(sel) < 3:
        return None
    x = np.log(radii[sel])
    y = np.log(means[sel])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
