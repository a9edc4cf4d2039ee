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
immutable, so values are safe to share across workers.  The one exception is
`CouplingKernel`, whose transform buffers belong to a single run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridMismatchError, ResourceLimitError

_TWO_PI = 2.0 * math.pi

#: Largest lattice `Grid` accepts: 2**24 modes, a 256 MiB complex field.
MAX_MODES = 2**24


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
        Modes per dimension; a power of two >= 8, with at most `MAX_MODES`
        modes in all.
    box_length : float
        Finite and positive.  The period is ``2*pi*box_length`` per axis;
        wavenumbers are spaced ``1/box_length``.
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
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ConfigurationError(
                f"box_length must be finite and positive, got {self.box_length}"
            )
        if self.mode_count > MAX_MODES:
            raise ResourceLimitError(
                f"a {self.n_per_dim}^{self.dim} lattice has {self.mode_count} modes;"
                f" the limit is {MAX_MODES}"
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
    """Forward transform of physical samples (row-major over the lattice).

    No run calls this pair; it stays public because it is the module
    docstring's transform convention in code, and perfbench's transform-pair
    layer wraps it.
    """
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise GridMismatchError(
            f"sample shape {samples.shape} does not match grid {grid.shape}"
        )
    return SpectralField(grid, np.fft.fftn(samples) * grid.dx**grid.dim)


def to_samples(f: SpectralField) -> np.ndarray:
    """Inverse transform; exact round-trip with `to_coefficients` (public for the same reason)."""
    return np.fft.ifftn(f.coeffs) / f.grid.dx**f.grid.dim


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


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode above the 2/3-rule cutoff (per axis)."""
    return SpectralField(f.grid, np.where(f.grid.dealias_mask, f.coeffs, 0.0))


@dataclass(frozen=True)
class GridSymbols:
    """Read-only per-grid symbols of the coupling kernel and the coupled right sides.

    ``dealias_scale`` is the dealias mask times ``1/dx^d``: it takes the
    forward transform of a product of two inverse transforms to dealiased
    coefficients.  The ``half_`` arrays are half spectra (the first
    ``n//2 + 1`` entries of the last axis, the layout of `numpy.fft.rfftn`):
    the same scale, ``A^{-1} = <xi>^{-1}`` and ``-|xi|^2 A^{-1}``.  The
    symbols are real but stored as complex arrays with a zero imaginary
    part: an in-place ``coeffs *= symbol`` then runs over contiguous memory
    with no cast, and gives the same bits as scaling the real and imaginary
    parts on their own.
    """

    dealias_scale: np.ndarray
    half_dealias_scale: np.ndarray
    half_inverse_bracket: np.ndarray
    half_neg_lap_inverse_bracket: np.ndarray


@functools.lru_cache(maxsize=8)
def grid_symbols(grid: Grid) -> GridSymbols:
    """The `GridSymbols` of a grid, built once and shared by every run on it."""
    dealias_scale = grid.dealias_mask / grid.dx**grid.dim
    inverse_bracket = 1.0 / half_spectrum(grid.bracket)
    symbols = [
        dealias_scale,
        half_spectrum(dealias_scale),
        inverse_bracket,
        -half_spectrum(grid.xi_squared) * inverse_bracket,
    ]
    symbols = [np.ascontiguousarray(a, dtype=np.complex128) for a in symbols]
    for a in symbols:
        a.flags.writeable = False
    return GridSymbols(*symbols)


class CouplingKernel:
    """Dealiased ``u * wave`` and ``|u|^2`` of a real wave, for one run on one grid.

    The wave is real, so it comes as its half spectrum (`half_spectrum`),
    and ``|u|^2`` goes back as one.  A call takes ``u`` to samples (complex
    inverse transform), the wave to samples (real inverse), their product
    back (complex forward) and ``|u|^2`` back (real forward).  Each
    transform runs as its 1-D passes (`numpy.fft.fft`, `ifft`, `rfft`,
    `irfft`) in the axis order of numpy's n-d functions, so its result is
    bit-identical to theirs without their per-call wrapper cost.  Every
    pass writes into the kernel's own buffers or the caller's ``out``, so a
    call allocates nothing once ``out`` is given; the returned ``|u|^2`` is
    a kernel buffer, valid until the next call, and so is the wave factor
    that `half_real_part` forms.  The buffers make a kernel unsafe to share
    between threads: each run builds its own.  The symbols (`grid_symbols`)
    are shared.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.symbols = grid_symbols(grid)
        self._u = np.empty(grid.shape, dtype=np.complex128)
        self._wave = np.empty(grid.shape)
        self._half = np.empty(self.symbols.half_dealias_scale.shape, dtype=np.complex128)
        self._real_half = np.empty_like(self._half)

    def __call__(
        self, u: np.ndarray, wave: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of ``u * wave`` and the half spectrum of ``|u|^2``.

        ``u`` is a full coefficient array and ``wave`` the half spectrum of a
        real field.  The product goes into ``out``, a C-contiguous complex
        array of the grid's shape (a fresh one when None).
        """
        out = np.empty(self.grid.shape, dtype=np.complex128) if out is None else out
        shapes = (u.shape, wave.shape, out.shape)
        if shapes != (self.grid.shape, self._half.shape, self.grid.shape) or not out.flags.c_contiguous:
            raise GridMismatchError(
                f"shapes {shapes} of u, wave and a C-contiguous out do not match grid"
                f" {self.grid.shape} and its half spectrum {self._half.shape}"
            )
        u_x = self._inverse(u).reshape(-1).view(np.float64)
        wave_x = self._real_inverse(wave).reshape(-1)
        # 1-D strided views of the real and imaginary parts run as one plain loop.
        product = out.reshape(-1).view(np.float64)
        np.multiply(u_x[0::2], wave_x, out=product[0::2])
        np.multiply(u_x[1::2], wave_x, out=product[1::2])
        for axis in reversed(range(self.grid.dim)):
            np.fft.fft(out, axis=axis, out=out)
        out *= self.symbols.dealias_scale
        return out, self._abs2_of_u()  # last: it reuses the wave buffer

    def half_real_part(self, coeffs: np.ndarray) -> np.ndarray:
        """Half spectrum of ``Re f`` (`half_real_part`) in a kernel buffer, fit to be a wave."""
        return half_real_part(coeffs, out=self._real_half, scratch=self._half)

    def abs2(self, u: np.ndarray) -> np.ndarray:
        """Half spectrum of ``|u|^2`` alone (a kernel buffer)."""
        self._inverse(u)
        return self._abs2_of_u()

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        """Samples of ``u`` in the ``u`` buffer: `numpy.fft.ifftn`, last axis first."""
        for axis in reversed(range(self.grid.dim)):
            u = np.fft.ifft(u, axis=axis, out=self._u)
        return u

    def _real_inverse(self, wave: np.ndarray) -> np.ndarray:
        """Samples of a real field from its half spectrum: `numpy.fft.irfftn`."""
        last = self.grid.dim - 1
        for axis in range(last):
            wave = np.fft.ifft(wave, axis=axis, out=self._half)
        return np.fft.irfft(wave, n=self.grid.n_per_dim, axis=last, out=self._wave)

    def _abs2_of_u(self) -> np.ndarray:
        """``|u|^2`` from the samples in the ``u`` buffer, which it overwrites.

        The samples go into the wave buffer; the forward transform is
        `numpy.fft.rfftn`: the last axis first.
        """
        abs2, half = self._wave, self._half
        pairs = self._u.reshape(-1).view(np.float64)  # (re, im) interleaved
        pairs *= pairs
        np.add(pairs[0::2], pairs[1::2], out=abs2.reshape(-1))
        np.fft.rfft(abs2, axis=self.grid.dim - 1, out=half)
        for axis in reversed(range(self.grid.dim - 1)):
            np.fft.fft(half, axis=axis, out=half)
        half *= self.symbols.half_dealias_scale
        return half


def cubic_pairing(u: SpectralField, v: SpectralField) -> float:
    """``Re int |u|^2 conj(v) dx`` with the dealiased ``|u|^2``: the cubic energy term."""
    _check_same_grid(u, v)
    abs2 = SpectralField(u.grid, full_spectrum(CouplingKernel(u.grid).abs2(u.coeffs)))
    return inner_product(abs2, v).real


# ---------------------------------------------------------------------------
# Real fields and half spectra
# ---------------------------------------------------------------------------

def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """The half spectrum of a real field: a view of the first ``n//2 + 1`` entries
    of the last axis, the layout of `numpy.fft.rfftn`.

    A real field's coefficients satisfy ``f(-k) = conj f(k)``, so its half
    spectrum holds all of them (`full_spectrum`).  In Parseval sums the
    interior columns ``1 .. n//2 - 1`` of the last axis stand for two modes.
    """
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def full_spectrum(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Full coefficients of the real field with half spectrum ``half`` (into ``out``)."""
    n = 2 * (half.shape[-1] - 1)
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128) if out is None else out
    out[..., : half.shape[-1]] = half
    for target, source in _half_reflections(half.ndim, n, mirror=True):
        out[target] = half[source]
    # Conjugating the whole array (initialised, so no garbage is read) and
    # copying the half spectrum back costs no temporary; a ufunc on the
    # strided mirror columns would allocate iterator buffers.
    np.conjugate(out, out=out)
    out[..., : half.shape[-1]] = half
    return out


def half_real_part(
    coeffs: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Half spectrum of ``Re f`` from the full coefficients of ``f`` (see `real_part`).

    Into ``out``, with the reflected part in ``scratch`` (both fresh when None):
    copied to contiguous buffers first, since a ufunc buffers strided operands.
    """
    n = coeffs.shape[-1]
    out = np.empty(coeffs.shape[:-1] + (n // 2 + 1,), dtype=np.complex128) if out is None else out
    scratch = np.empty_like(out) if scratch is None else scratch
    for target, source in _half_reflections(coeffs.ndim, n, mirror=False):
        scratch[target] = coeffs[source]
    np.conjugate(scratch, out=scratch)
    np.copyto(out, half_spectrum(coeffs))
    np.add(scratch, out, out=out)
    out *= 0.5
    return out


@functools.lru_cache(maxsize=None)
def _half_reflections(
    ndim: int, n: int, mirror: bool
) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """``(target, source)`` slice pairs that reflect ``k`` to ``-k`` across a half spectrum.

    With ``mirror`` the pairs fill the columns ``n//2 + 1 ..`` of a full
    array from the half spectrum's interior columns; without it they fill a
    half spectrum from the full array's columns ``0`` and ``n-1 .. n//2``.
    The other axes reflect as in `conjugate`.
    """
    if mirror:
        last = ((slice(n // 2 + 1, None), slice(n // 2 - 1, 0, -1)),)
    else:
        last = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(n - 1, n // 2 - 1, -1)))
    return tuple(
        (target + (t,), source + (src,))
        for target, source in _reflections(ndim - 1)
        for t, src in last
    )


def real_part(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of ``Re f`` from those of ``f``: ``(f(k) + conj f(-k)) / 2``.

    No transform is needed: on the sampled lattice conjugation maps mode ``k``
    to mode ``-k``, and the unpaired Nyquist plane is zero.  ``Re f`` is
    real, so this is the expansion of `half_real_part`.
    """
    return full_spectrum(half_real_part(coeffs))


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
    out = np.empty_like(coeffs)
    for target, source in _reflections(coeffs.ndim):
        out[target] = coeffs[source]
    return np.conjugate(out, out=out)


@functools.lru_cache(maxsize=None)
def _reflections(ndim: int) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """``(target, source)`` slice pairs that take every mode ``k`` to ``-k``.

    Per axis of FFT layout, index 0 maps to itself and ``1 .. n-1`` to
    ``n-1 .. 1``; the ``2**ndim`` pairs cover the array without an index array.
    """
    axis = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    return tuple(
        (tuple(t for t, _ in pairs), tuple(src for _, src in pairs))
        for pairs in itertools.product(axis, repeat=ndim)
    )


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
