"""Grids, transforms, norms, the coupling kernel, and rough data.

Fields live on a periodic box of period ``2*pi*L`` per axis, as complex
Fourier coefficients on the entries of the dealias box (`Grid.box`), a real
field as its box half spectrum (`half_spectrum`); `box_norm` and
`box_inner` are their Parseval sums.  The transform convention is the
quadrature analogue of ``u_hat(xi) = integral u(x) exp(-i xi.x) dx``, so a
constant field ``c`` has a single zero-mode coefficient ``c * (2 pi L)**d``
and Parseval reads::

    integral |u|^2 dx = (2 pi L)**(-d) * sum_xi |u_hat(xi)|^2

The wavenumber lattice is ``xi = k / L`` for integers ``k in [-n/2, n/2)`` per
axis (numpy FFT ordering).  The Nyquist plane ``k = -n/2`` has no symmetric
partner; the dealias box excludes it, which keeps conjugate symmetry of real
fields exact.  Functions are pure and leave their inputs alone, so values
are safe to share across workers.  The one exception is `CouplingKernel`,
whose transform buffers belong to a single run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    # The wavenumber arrays hold the dealias box only (see `box`).
    k_axis: np.ndarray = field(init=False, repr=False, compare=False)
    xi_axis: np.ndarray = field(init=False, repr=False, compare=False)
    xi_squared: np.ndarray = field(init=False, repr=False, compare=False)
    xi_norm: np.ndarray = field(init=False, repr=False, compare=False)
    bracket: np.ndarray = field(init=False, repr=False, compare=False)
    box_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    box_shape: tuple[int, ...] = field(init=False, repr=False, compare=False)  # see `box`
    box_weights: dict = field(init=False, repr=False, compare=False)  # of `box_norm`

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
        lg = math.log10(self.box_length)  # keeps dx^d, (2 pi L)^d and |xi|^2 in float range
        if not (abs(self.dim * lg) < 290 and abs(math.log10(self.n_per_dim) - lg) < 150):
            raise ConfigurationError(
                f"box_length = {self.box_length} puts dx^d, the volume (2 pi L)^d or"
                f" |xi|^2 outside the float range"
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

        cutoff = n // 3  # 2/3 rule; n is a power of two so 3*cutoff < n
        box_axis = np.r_[0 : cutoff + 1, n - cutoff : n]
        object.__setattr__(self, "box_index", np.ix_(*([box_axis] * self.dim)))
        object.__setattr__(self, "box_shape", (2 * cutoff + 1,) * self.dim)
        object.__setattr__(self, "box_weights", {})
        xi_sq = _xi_squared(self.xi_axis[box_axis], self.dim)
        object.__setattr__(self, "xi_squared", xi_sq)
        object.__setattr__(self, "xi_norm", np.sqrt(xi_sq))
        object.__setattr__(self, "bracket", np.sqrt(1.0 + xi_sq))

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

    def box(self, coeffs: np.ndarray) -> np.ndarray:
        """The entries of a lattice array on the dealias box ``|k_i| <= c``, ``c = n//3``,
        in FFT order (per axis ``k = 0 .. c, -c .. -1``): the layout of every run."""
        return coeffs[self.box_index]


# ---------------------------------------------------------------------------
# Transforms and the lattice norm
# ---------------------------------------------------------------------------

def to_coefficients(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Full coefficients of physical samples (row-major over the lattice).

    No run calls these three full-lattice functions: they are the module
    docstring's conventions in code, and perfbench's transform-pair and
    norm layers wrap them.
    """
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise GridMismatchError(
            f"sample shape {samples.shape} does not match grid {grid.shape}"
        )
    return np.fft.fftn(samples) * grid.dx**grid.dim


def to_samples(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse transform of full coefficients; exact round-trip with `to_coefficients`."""
    return np.fft.ifftn(coeffs) / grid.dx**grid.dim


def sobolev_norm(coeffs: np.ndarray, grid: Grid, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm ``|| <xi>^s u_hat ||`` (or ``|| |xi|^s u_hat ||``) of full coefficients.

    Uses the Parseval normalization, so ``s = 0`` returns the spatial L2 norm.
    The homogeneous version drops the zero mode (mean-zero convention on the
    torus).  `box_norm` is the same norm of a box array.
    """
    xi_sq = _xi_squared(grid.xi_axis, grid.dim)
    if homogeneous:
        xi_norm = np.sqrt(xi_sq)
        weight_sq = np.where(xi_norm > 0, np.where(xi_norm > 0, xi_norm, 1.0) ** (2 * s), 0.0)
    else:
        weight_sq = np.sqrt(1.0 + xi_sq) ** (2 * s)
    total = np.sum(weight_sq * np.abs(coeffs) ** 2)
    return math.sqrt(total.real / grid.volume)


def _xi_squared(xi_axis: np.ndarray, dim: int) -> np.ndarray:
    """``|xi|^2`` over the product of ``dim`` copies of ``xi_axis``, summed from sparse axes."""
    return sum(a**2 for a in np.meshgrid(*([xi_axis] * dim), indexing="ij", sparse=True))

# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

class _Passes(NamedTuple):
    """The 1-D transform passes of `CouplingKernel`, each called as
    ``pass_(a, fct, axes=[(k,), (), (k,)], out=b)``: the signature of numpy's
    pocketfft gufuncs, a transform of ``a`` along axis ``k`` into ``b``, times
    ``fct``.  `numpy.fft.fft`, `ifft`, `rfft` and `irfft` call the same
    gufuncs with ``fct = 1`` forward and ``1/n`` inverse."""

    fft: Callable
    ifft: Callable
    rfft: Callable  # of an even length, as on every `Grid`
    irfft: Callable


def _public_pass(transform: Callable, norm: str, sized: bool = False) -> Callable:
    """A pass through numpy.fft's public 1-D ``transform``: ``norm`` makes numpy's own
    factor 1, and the output is multiplied by ``fct`` part by part afterwards, as
    pocketfft scales; ``sized`` passes the output length (`numpy.fft.irfft`)."""

    def run(a: np.ndarray, fct: float, axes: list, out: np.ndarray) -> np.ndarray:
        axis = axes[0][0]
        transform(a, n=out.shape[axis] if sized else None, axis=axis, norm=norm, out=out)
        if fct != 1:
            for part in (out.real, out.imag) if np.iscomplexobj(out) else (out,):
                np.multiply(part, fct, out=part)
        return out

    return run


#: The passes on numpy.fft's public functions: the reference for `_PASSES`.
_FALLBACK = _Passes(
    _public_pass(np.fft.fft, "backward"),
    _public_pass(np.fft.ifft, "forward"),
    _public_pass(np.fft.rfft, "backward"),
    _public_pass(np.fft.irfft, "forward", sized=True),
)


def _select_passes(module) -> _Passes:
    """The gufuncs ``fft``, ``ifft``, ``rfft_n_even`` and ``irfft`` of ``module``, numpy's
    private ``numpy.fft._pocketfft_umath``, if it has them all and a probe call of
    each gives `_FALLBACK`'s bits; `_FALLBACK` otherwise."""
    try:
        passes = _Passes(*(getattr(module, name) for name in ("fft", "ifft", "rfft_n_even", "irfft")))
        if _probe(passes) == _probe(_FALLBACK):
            return passes
    except (AttributeError, TypeError, ValueError):  # a missing name or a changed signature
        pass
    return _FALLBACK


def _probe(passes: _Passes) -> bytes:
    """The output bytes of each pass on a fixed 2 x 8 input, along axis 1 with ``fct = 0.5``."""
    x = np.arange(16.0).reshape(2, 8) ** 1.5
    z, axes = x + 1j * x[::-1], [(1,), (), (1,)]
    outs = [np.empty((2, 8), complex), np.empty((2, 8), complex), np.empty((2, 5), complex), np.empty((2, 8))]
    for pass_, a, out in zip(passes, (z, z, x, z[:, :5]), outs):
        pass_(a, 0.5, axes=axes, out=out)
    return b"".join(out.tobytes() for out in outs)


try:
    from numpy.fft import _pocketfft_umath
except ImportError:
    _pocketfft_umath = None

#: The passes every `CouplingKernel` takes when it is made, resolved once.
_PASSES = _select_passes(_pocketfft_umath)


class CouplingKernel:
    """Dealiased ``u * wave`` and ``|u|^2`` of a real wave on the dealias box, for one run.

    ``u`` and the product are box arrays (`Grid.box`); the real wave and
    ``|u|^2`` are box half spectra (`half_spectrum`).  A call takes ``u`` and
    the wave to samples (complex and real inverse transforms), and their
    product and ``|u|^2`` back (complex and real forward).  Each transform
    runs as one call per 1-D pass, in the axis order of numpy's n-d
    functions, on the lines that hold box modes only: an inverse pass reads
    a staging buffer that the box lines are scattered into (its other
    entries stay zero), and a forward pass's box entries are gathered
    before the next pass.  The passes are numpy's pocketfft gufuncs, called
    directly (`_PASSES`, or numpy.fft's public functions when those are
    absent), with numpy.fft's factors: 1 forward and ``1/n`` inverse,
    except that the last forward pass of each output takes the scale
    ``1/dx^d``.  Lines transform on their own, so the results are the box
    entries of numpy's n-d transforms times ``1/dx^d``, bit for bit.  Every
    pass writes into the kernel's buffers or the caller's ``out``, so a call
    allocates nothing once ``out`` is given; the returned ``|u|^2`` is a
    kernel buffer, valid until the next call.  The buffers make a kernel
    unsafe to share between threads.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        n, c, d = grid.n_per_dim, grid.n_per_dim // 3, grid.dim
        m, h, N, M = 2 * c + 1, c + 1, (grid.n_per_dim,), (2 * c + 1,)
        self._fft, self._ifft, self._rfft, self._irfft = _PASSES
        self._axes = [[(a,), (), (a,)] for a in range(d)]
        self._inverse_fct, self._scale = 1.0 / n, 1.0 / grid.dx**d
        # Per axis, (lattice, box) index pairs of the blocks k = 0..c and k = -c..-1.
        blocks = ((slice(0, h), slice(0, h)), (slice(n - c, n), slice(h, m)))
        self._scatter = [[((slice(None),) * a + (lat,), (slice(None),) * a + (box,))
                          for lat, box in blocks] for a in range(d)]
        self._gather = [[(box, lat) for lat, box in pairs] for pairs in self._scatter]
        Z = lambda *shape: np.zeros(shape, dtype=np.complex128)  # noqa: E731
        self._u, self._product, self._wave = Z(*grid.shape), Z(*grid.shape), np.empty(grid.shape)
        # Flat views: the real and imaginary parts of the u samples and of the
        # product as 1-D strided views, which run as one plain loop each.
        u_pairs, product_pairs = (a.reshape(-1).view(np.float64) for a in (self._u, self._product))
        self._u_pairs, self._wave_flat = u_pairs, self._wave.reshape(-1)
        self._u_parts, self._product_parts = (u_pairs[0::2], u_pairs[1::2]), (product_pairs[0::2], product_pairs[1::2])
        # Complex inverse: before the pass over axis a, the axes < a hold box entries.
        self._stages = [Z(*M * a, *N * (d - a)) for a in range(d)]
        self._passes = [self._u] + [Z(*s.shape) for s in self._stages[1:]]
        # Real inverse: complex passes over axes 0 .. d-2, then the real one.
        self._real_stages = [Z(*N * (a + 1), *M * (d - 2 - a), h) for a in range(d - 1)]
        self._real_passes = [Z(*s.shape) for s in self._real_stages]
        self._real_stages.append(Z(*N * (d - 1), n // 2 + 1))
        # Forward: the box entries gathered after each pass.
        self._gathers = [None] + [Z(*N * a, *M * (d - a)) for a in range(1, d)]
        self._rfft_out = Z(*N * (d - 1), n // 2 + 1)
        self._half_gathers = [Z(*N * a, *M * (d - 1 - a), h) for a in range(d)]

    def __call__(
        self, u: np.ndarray, wave: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Box coefficients of ``u * wave`` and the box half spectrum of ``|u|^2``.

        ``u`` is a box array and ``wave`` the box half spectrum of a real
        field.  The product goes into ``out``, a C-contiguous complex box
        array (a fresh one when None).
        """
        box = self.grid.box_shape
        out = np.empty(box, dtype=np.complex128) if out is None else out
        shapes = (u.shape, wave.shape, out.shape)
        half = self._half_gathers[0].shape
        if shapes != (box, half, box) or not out.flags.c_contiguous:
            raise GridMismatchError(
                f"shapes {shapes} of u, wave and a C-contiguous out do not match the"
                f" dealias box {box} and its half spectrum {half}"
            )
        self._inverse(u)
        self._real_inverse(wave)
        (u_re, u_im), (product_re, product_im) = self._u_parts, self._product_parts
        np.multiply(u_re, self._wave_flat, out=product_re)
        np.multiply(u_im, self._wave_flat, out=product_im)
        lines = self._product
        for axis in reversed(range(self.grid.dim)):
            self._fft(lines, self._scale if axis == 0 else 1, axes=self._axes[axis], out=lines)
            lines = _copy(self._gathers[axis] if axis else out, lines, self._gather[axis])
        return out, self._abs2_of_u()  # last: it reuses the wave buffer

    def abs2(self, u: np.ndarray) -> np.ndarray:
        """The box half spectrum of ``|u|^2`` alone, a kernel buffer: the passes of a
        call that ``|u|^2`` needs, so its bits are those of a call's ``|u|^2``."""
        if u.shape != self.grid.box_shape:
            raise GridMismatchError(
                f"u has shape {u.shape}, not that of the dealias box {self.grid.box_shape}"
            )
        self._inverse(u)
        return self._abs2_of_u()

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        """Samples of box ``u`` in the ``u`` buffer: the passes of `numpy.fft.ifftn`,
        last axis first."""
        for axis in reversed(range(self.grid.dim)):
            stage = _copy(self._stages[axis], u, self._scatter[axis])
            u = self._ifft(stage, self._inverse_fct, axes=self._axes[axis], out=self._passes[axis])
        return u

    def _real_inverse(self, wave: np.ndarray) -> np.ndarray:
        """Samples of a real field from its box half spectrum, in the wave buffer: the
        passes of `numpy.fft.irfftn`."""
        last, fct = self.grid.dim - 1, self._inverse_fct
        for axis in range(last):
            stage = _copy(self._real_stages[axis], wave, self._scatter[axis])
            wave = self._ifft(stage, fct, axes=self._axes[axis], out=self._real_passes[axis])
        stage = _copy(self._real_stages[last], wave, self._scatter[last][:1])  # k >= 0 only
        return self._irfft(stage, fct, axes=self._axes[last], out=self._wave)

    def _abs2_of_u(self) -> np.ndarray:
        """``|u|^2`` from the samples in the ``u`` buffer, which it overwrites.

        The samples go into the wave buffer; the forward transform runs the
        passes of `numpy.fft.rfftn`: the last axis first.
        """
        last = self.grid.dim - 1
        pairs = self._u_pairs  # (re, im) interleaved
        np.multiply(pairs, pairs, out=pairs)
        np.add(*self._u_parts, out=self._wave_flat)
        self._rfft(self._wave, self._scale if last == 0 else 1, axes=self._axes[last], out=self._rfft_out)
        half = _copy(self._half_gathers[last], self._rfft_out, self._gather[last][:1])
        for axis in reversed(range(last)):
            self._fft(half, self._scale if axis == 0 else 1, axes=self._axes[axis], out=half)
            half = _copy(self._half_gathers[axis], half, self._gather[axis])
        return half


def _copy(target: np.ndarray, source: np.ndarray, pairs) -> np.ndarray:
    """``target[t] = source[s]`` for each index pair ``(t, s)``; returns ``target``."""
    for t, s in pairs:
        target[t] = source[s]
    return target


def box_norm(a: np.ndarray, grid: Grid, s: float = 0.0, homogeneous: bool = False) -> float:
    """`sobolev_norm` of a box array or a box half spectrum (`Grid.box`, `half_spectrum`)."""
    return math.sqrt(box_inner(a, a, grid, s, homogeneous))


def box_inner(
    a: np.ndarray,
    b: np.ndarray,
    grid: Grid,
    s: float = 0.0,
    homogeneous: bool = False,
    pairwise: bool = False,
) -> float:
    """``Re int A^s a conj(A^s b) dx`` of two box arrays or two box half spectra.

    One `numpy.einsum` over the float pairs of ``a`` and ``b`` and a
    read-only weight per float, ``<xi>^{2s}`` (``|xi|^{2s}``, 0 at the zero
    mode, when homogeneous), with a half spectrum's columns ``1 .. c``
    counted twice: no temporaries, and no BLAS threads.  The weights are
    cached on the `Grid` object, so they live as long as the run that made it.
    With ``pairwise``, `numpy.add.reduce` of the products instead: two
    temporaries, and a rounding error that does not grow with the box.
    """
    a_pairs, b_pairs = a.reshape(-1).view(np.float64), b.reshape(-1).view(np.float64)
    weight = box_weight(a, grid, s, homogeneous)
    if pairwise:
        return np.add.reduce(np.multiply(a_pairs, b_pairs) * weight) / grid.volume
    return np.einsum(a_pairs, [0], b_pairs, [0], weight, [0], []) / grid.volume


def box_weight(a: np.ndarray, grid: Grid, s: float = 0.0, homogeneous: bool = False) -> np.ndarray:
    """`box_inner`'s read-only weight per float of ``a``, a box array or a box half
    spectrum, cached on the `Grid`."""
    key = (s, half := a.shape != grid.box_shape, homogeneous)
    if key not in grid.box_weights:
        base = grid.xi_squared + (0.0 if homogeneous else 1.0)
        weight = np.where(base > 0, np.where(base > 0, base, 1.0) ** s, 0.0)
        if half:
            weight = half_spectrum(weight) * np.where(np.arange(weight.shape[-1] // 2 + 1), 2.0, 1.0)
        weight = np.repeat(weight.reshape(-1), 2)  # one entry per float of (re, im)
        weight.flags.writeable = False
        grid.box_weights[key] = weight
    return grid.box_weights[key]


# ---------------------------------------------------------------------------
# Real fields and half spectra
# ---------------------------------------------------------------------------

def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """The half spectrum of a real field: a view of the first ``n//2 + 1`` entries
    of the last axis, the layout of `numpy.fft.rfftn`.

    A real field's coefficients satisfy ``f(-k) = conj f(k)``, so its half
    spectrum holds all of them (`full_spectrum`).  In Parseval sums the
    interior columns ``1 .. (n-1)//2`` of the last axis stand for two modes.
    An odd ``n`` is the dealias box (`Grid.box`), which has no Nyquist column.
    """
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def full_spectrum(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Full coefficients of the real field with half spectrum ``half``, into ``out``,
    whose last axis gives the full size (odd on the dealias box)."""
    n = out.shape[-1]
    out[..., : half.shape[-1]] = half
    for target, source in _half_reflections(half.ndim, n):
        out[target] = half[source]
    # Conjugating the whole array (initialised, so no garbage is read) and
    # copying the half spectrum back costs no temporary; a ufunc on the
    # strided mirror columns would allocate iterator buffers.
    np.conjugate(out, out=out)
    out[..., : half.shape[-1]] = half
    return out


@functools.lru_cache(maxsize=None)
def _half_reflections(ndim: int, n: int) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """``(target, source)`` slice pairs that fill the columns ``h = n//2 + 1 ..`` of a
    full array from the interior columns of its half spectrum, reflecting ``k`` to ``-k``.

    ``n`` is even on the lattice and odd on the dealias box.  The other axes
    reflect as in `conjugate`.
    """
    h = n // 2 + 1
    return tuple(
        (target + (slice(h, None),), source + (slice(n - h, 0, -1),))
        for target, source in _reflections(ndim - 1)
    )


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
) -> np.ndarray:
    """Random box array (`Grid.box`) with coefficients ``<xi>**(-s - d/2 - eps0) * g_xi``.

    ``g_xi`` are independent standard complex Gaussians, so the field lies in
    H^s almost surely while its H^(s+1) norm diverges as the grid is refined.
    Deterministic for a given seed: the real and the imaginary parts are
    each drawn over the whole lattice in row-major order, and their box
    entries kept.  With ``real=True`` the coefficients are
    Hermitian-symmetrized (`conjugate`; the box is closed under ``k -> -k``)
    so physical samples are real; a run carries its `half_spectrum`.
    """
    rng = np.random.default_rng(seed)
    parts = [grid.box(rng.standard_normal(grid.shape)) for _ in range(2)]
    g = (parts[0] + 1j * parts[1]) / math.sqrt(2.0)
    coeffs = grid.bracket ** (-(s + grid.dim / 2.0 + epsilon0)) * g
    if real:
        coeffs = (coeffs + conjugate(coeffs)) / math.sqrt(2.0)
    return coeffs


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


def shell_average_spectrum(box: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Mean |coefficient| of a box array (`Grid.box`) over unit-width annuli ``m <= |k| < m+1``.

    Radii are in integer-lattice units (``|xi| * L``).  Empty annuli are
    dropped.  An annulus with ``m <= n//3`` lies inside the box, so there
    the means are those of the full lattice.  Used for spectral slope fits.
    """
    r = (grid.xi_norm * grid.box_length).ravel()
    mags = np.abs(box).ravel()
    m = np.floor(r).astype(int)
    counts = np.bincount(m)
    sums = np.bincount(m, weights=mags)
    nonzero = counts > 0
    radii = np.arange(len(counts))[nonzero] + 0.5
    return radii, sums[nonzero] / counts[nonzero]


def fit_spectral_slope(box: np.ndarray, grid: Grid, lo: float, hi: float) -> float | None:
    """Slope of log(shell-averaged |coeffs|) of a box array against log|k| over ``[lo, hi]``.

    Returns None when the field vanishes on the fit range (no slope defined).
    """
    radii, means = shell_average_spectrum(box, grid)
    sel = (radii >= lo) & (radii <= hi) & (means > 0)
    if np.count_nonzero(sel) < 3:
        return None
    x = np.log(radii[sel])
    y = np.log(means[sel])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
