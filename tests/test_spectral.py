"""Tests for grids, transforms, multipliers, norms, projections, products, random data."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.fft import _pocketfft_umath

from dispersmooth import spectral
from dispersmooth.errors import ConfigurationError, GridMismatchError, ResourceLimitError
from dispersmooth.evolution import System, SystemState, random_system_state
from dispersmooth.highlow import split_initial
from dispersmooth.spectral import (
    MAX_MODES,
    CouplingKernel,
    Grid,
    box_inner,
    box_norm,
    box_weight,
    conjugate,
    fit_spectral_slope,
    half_spectrum,
    line_slope,
    random_sobolev_field,
    shell_average_spectrum,
    sobolev_norm,
    to_coefficients,
    to_samples,
)

from conftest import (
    cubic_term,
    dealias,
    from_box,
    inner_product,
    lattice,
    lattice_field,
    real_part,
    spectral_cubic_pairing,
)

TWO_PI = 2.0 * math.pi


def plane_wave(grid: Grid, k: tuple[int, ...], amplitude: complex = 1.0) -> np.ndarray:
    """Full coefficients of exp(i xi.x) for xi = k/L, built via its samples."""
    axes = [np.arange(grid.n_per_dim) * grid.dx for _ in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    phase = sum((ki / grid.box_length) * x for ki, x in zip(k, mesh))
    return to_coefficients(amplitude * np.exp(1j * phase), grid)


class TestGrid:
    def test_wavenumbers_d1_n8(self):
        grid = Grid(1, 8)
        assert sorted(grid.k_axis.astype(int)) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_mode_count_d2_n16(self):
        assert Grid(2, 16).mode_count == 256

    def test_wavenumber_spacing_scales_with_box(self):
        grid = Grid(2, 16, box_length=2.0)
        spacing = np.min(np.diff(np.sort(np.unique(grid.xi_axis))))
        assert spacing == pytest.approx(0.5)

    def test_lattice_reflection_symmetric_without_nyquist(self):
        grid = Grid(1, 8)
        ks = set(grid.k_axis.astype(int)) - {-4}
        assert ks == {-k for k in ks}

    @pytest.mark.parametrize("dim,n", [(0, 16), (5, 16), (2, 12), (2, 4)])
    def test_invalid_configuration_rejected(self, dim, n):
        with pytest.raises(ConfigurationError):
            Grid(dim, n)

    @pytest.mark.parametrize("box_length", [0.0, -1.0, math.inf, math.nan])
    def test_box_length_must_be_finite_and_positive(self, box_length):
        with pytest.raises(ConfigurationError, match="box_length must be finite and positive"):
            Grid(2, 16, box_length)

    @pytest.mark.parametrize("dim, n", [(1, 2**25), (4, 128), (4, 2**20)])
    def test_lattice_above_mode_limit_rejected(self, dim, n):
        assert 32**4 <= MAX_MODES < n**dim  # 32^4 stays accepted
        with pytest.raises(ResourceLimitError, match=f"the limit is {MAX_MODES}"):
            Grid(dim, n)

    @pytest.mark.parametrize("dim, n, box_length", [(1, 16, 1.0), (2, 16, 1.5), (3, 8, 0.7), (4, 8, 2.0)])
    def test_lattice_arrays_equal_dense_meshgrid_oracle(self, dim, n, box_length):
        # The wavenumber arrays are the dense lattice's on the dealias box, the
        # modes |k_i| <= n//3, bit for bit.
        grid = Grid(dim, n, box_length)
        axes = np.meshgrid(*([grid.xi_axis] * dim), indexing="ij")
        ks = np.meshgrid(*([grid.k_axis] * dim), indexing="ij")
        xi_sq = sum(a**2 for a in axes)
        assert np.array_equal(grid.xi_squared, grid.box(xi_sq))
        assert np.array_equal(grid.xi_norm, grid.box(np.sqrt(xi_sq)))
        assert np.array_equal(grid.bracket, grid.box(np.sqrt(1.0 + xi_sq)))
        inside = np.logical_and.reduce([np.abs(k) <= n // 3 for k in ks])
        assert grid.box(inside).all() and grid.xi_squared.size == np.count_nonzero(inside)

    def test_grid_builds_no_dense_meshgrid(self):
        # Broadcast axes on the box: the peak is the three float64 box arrays
        # (1.5 MiB each at 32^4) and a temporary or two, below one float64
        # lattice (8 MiB).
        import tracemalloc

        tracemalloc.start()
        try:
            Grid(4, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTransform:
    def test_single_mode_has_single_coefficient(self):
        grid = Grid(1, 16)
        coeffs = plane_wave(grid, (3,))
        k3 = np.argmin(np.abs(grid.k_axis - 3))
        assert coeffs[k3] == pytest.approx(TWO_PI, rel=1e-12)
        coeffs[k3] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_zero_samples_give_zero_coefficients(self):
        grid = Grid(2, 16)
        assert np.all(to_coefficients(np.zeros(grid.shape), grid) == 0)

    def test_constant_field_normalization(self):
        grid = Grid(2, 16, box_length=1.5)
        c = 2.0 - 1.0j
        f = to_coefficients(np.full(grid.shape, c), grid)
        assert f[0, 0] == pytest.approx(c * grid.volume, rel=1e-12)
        off_zero = f.copy()
        off_zero[0, 0] = 0
        assert np.max(np.abs(off_zero)) < 1e-9

    def test_roundtrip_matches_direct_dft_oracle(self):
        # Oracle: O(n^2) direct evaluation of the quadrature sum.
        grid = Grid(1, 16)
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x = np.arange(16) * grid.dx
        xi = grid.xi_axis
        direct = np.array(
            [grid.dx * np.sum(samples * np.exp(-1j * w * x)) for w in xi]
        )
        f = to_coefficients(samples, grid)
        assert np.max(np.abs(f - direct)) < 1e-12 * np.max(np.abs(direct))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_identity(self, seed):
        grid = Grid(2, 16)
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        back = to_samples(to_coefficients(samples, grid), grid)
        assert np.max(np.abs(back - samples)) < 1e-12

    def test_size_mismatch_rejected(self):
        grid = Grid(2, 16)
        with pytest.raises(GridMismatchError):
            to_coefficients(np.zeros((8, 8)), grid)


class TestMultipliers:
    # The package's Bessel multiplier: `box_weight`, <xi>^{2s} per float of a box array.
    def test_zeroth_order_is_identity(self):
        grid = Grid(2, 16)
        assert np.all(box_weight(random_sobolev_field(grid, 1.0, seed=0), grid, 0.0) == 1.0)

    def test_inverse_symbols_cancel(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 0.0, seed=1)
        assert np.max(np.abs(box_weight(f, grid, 1.7) * box_weight(f, grid, -1.7) - 1.0)) < 1e-12

    def test_bessel_squared_on_plane_wave(self):
        grid = Grid(1, 16)
        f = grid.box(plane_wave(grid, (3,)))
        assert box_weight(f, grid, 1.0).reshape(-1, 2)[3] == pytest.approx([10.0, 10.0], rel=1e-12)
        assert box_norm(f, grid, 1.0) == pytest.approx(math.sqrt(10.0) * box_norm(f, grid), rel=1e-12)

    def test_negative_riesz_zero_mode_policy(self):
        grid = Grid(1, 16)
        f = grid.box(to_coefficients(np.full(grid.shape, 3.0), grid))
        assert box_norm(f, grid, -1.0, homogeneous=True) == 0.0
        assert f[0] / grid.volume == pytest.approx(3.0)


class TestSobolevNorm:
    def test_single_mode_value(self):
        grid = Grid(1, 16)
        expected = math.sqrt(10.0) * math.sqrt(TWO_PI)  # <3>^1 * ||e^{i3x}||_{L2}
        assert sobolev_norm(plane_wave(grid, (3,)), grid, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self):
        grid = Grid(2, 16)
        assert sobolev_norm(np.zeros(grid.shape), grid, 2.5) == 0.0

    def test_l2_matches_spatial_quadrature_oracle(self):
        grid = Grid(2, 32)
        f = lattice_field(grid, 0.5, seed=3).coeffs
        quadrature = math.sqrt(np.sum(np.abs(to_samples(f, grid)) ** 2) * grid.dx**grid.dim)
        assert sobolev_norm(f, grid, 0.0) == pytest.approx(quadrature, rel=1e-10)

    @given(seed=st.integers(0, 2**31 - 1), s=st.floats(-1.5, 2.5))
    @settings(max_examples=15, deadline=None)
    def test_parseval_invariant(self, seed, s):
        grid = Grid(1, 32)
        f = lattice_field(grid, s, seed=seed).coeffs
        spatial = np.sum(np.abs(to_samples(f, grid)) ** 2) * grid.dx
        spectral = np.sum(np.abs(f) ** 2) / grid.volume
        assert spectral == pytest.approx(spatial, rel=1e-10)

    def test_homogeneous_drops_mean(self):
        grid = Grid(1, 16)
        f = to_coefficients(np.full(grid.shape, 5.0), grid)
        assert sobolev_norm(f, grid, 1.0, homogeneous=True) == 0.0


class TestProjections:
    # The package's frequency projection: the low part of `split_initial`, on the box.
    def test_lowpass_idempotent(self):
        once = split_initial(random_system_state(System.KGS, Grid(2, 32), 0.0, 0.0, seed=4), 5.0)
        twice = split_initial(once.low, 5.0)
        assert all(np.array_equal(a, b) for a, b in zip(once.low.fields, twice.low.fields))
        assert not any(np.any(a) for a in twice.high.fields)

    def test_lowpass_plus_complement_reproduces(self):
        state = random_system_state(System.KGS, Grid(2, 16), 0.0, 0.0, seed=6)
        split = split_initial(state, 4.0)
        for low, high, field in zip(split.low.fields, split.high.fields, state.fields):
            assert np.array_equal(low + high, field)

    def test_lowpass_on_plane_wave(self):
        grid = Grid(1, 16)
        u, zero = grid.box(plane_wave(grid, (3,))), np.zeros(grid.box_shape[0] // 2 + 1, complex)
        state = SystemState(System.KGS, grid, u, zero, zero)
        kept, killed = (split_initial(state, cutoff).low.u for cutoff in (4.0, 2.0))
        assert np.max(np.abs(kept - u)) < 1e-12 and np.max(np.abs(killed)) < 1e-12


def convolution_oracle(f: np.ndarray, g: np.ndarray, grid: Grid) -> np.ndarray:
    """Truncated convolution ``sum_{k1 + k2 = k} f(k1) g(k2) / volume`` on the dealias band.

    Direct sum over shifts, no transform; exact for inputs inside the band,
    whose shifted copies never wrap back into it.
    """
    cutoff = grid.n_per_dim // 3
    axes = tuple(range(grid.dim))
    out = np.zeros(grid.shape, dtype=complex)
    for k1 in itertools.product(range(-cutoff, cutoff + 1), repeat=grid.dim):
        out += f[k1] * np.roll(g, k1, axis=axes)
    return np.where(lattice(grid).dealias_mask, out, 0.0) / grid.volume


def conjugate_coefficients(f: np.ndarray) -> np.ndarray:
    """Coefficients of ``conj(f(x))``: ``conj f(-k)`` in FFT layout."""
    return np.conj(np.roll(np.flip(f), 1, axis=tuple(range(f.ndim))))


def kernel_products(grid: Grid, u: np.ndarray, wave: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`CouplingKernel` on the box ``u`` and the box half spectrum of the real ``wave``,
    both given as full coefficients; its ``u * wave`` and ``|u|^2`` as full arrays."""
    uw, abs2 = CouplingKernel(grid)(grid.box(u), np.ascontiguousarray(half_spectrum(grid.box(wave))))
    return from_box(uw, grid), from_box(abs2, grid)


class TestDealiasedProduct:
    def test_product_with_zero(self):
        grid = Grid(2, 16)
        f = lattice_field(grid, 0.0, seed=7).coeffs
        zero = np.zeros(grid.shape, complex)
        uw, _ = kernel_products(grid, f, zero)
        assert np.max(np.abs(uw)) == 0.0
        uw, abs2 = kernel_products(grid, zero, real_part(f))
        assert np.max(np.abs(uw)) == 0.0 and np.max(np.abs(abs2)) == 0.0

    def test_two_modes_within_band(self):
        # e^{2ix} cos 3x = (e^{5ix} + e^{-ix}) / 2, both modes inside the box |k| <= 5.
        grid = Grid(1, 16)
        cos3 = 0.5 * (plane_wave(grid, (3,)) + plane_wave(grid, (-3,)))
        uw, abs2 = kernel_products(grid, plane_wave(grid, (2,)), cos3)
        k5, k_1 = (np.argmin(np.abs(grid.k_axis - k)) for k in (5, -1))
        assert uw[k5] == pytest.approx(math.pi, rel=1e-12)
        assert uw[k_1] == pytest.approx(math.pi, rel=1e-12)
        rest = uw.copy()
        rest[[k5, k_1]] = 0
        assert np.max(np.abs(rest)) < 1e-11
        # |e^{2ix}|^2 = 1: only the zero mode, of coefficient 2 pi.
        assert abs2[0] == pytest.approx(TWO_PI, rel=1e-12)
        assert np.max(np.abs(abs2[1:])) < 1e-11

    def test_matches_direct_convolution_oracle(self):
        # Oracle: O(n^2) truncated convolution sum, for band-limited inputs.
        grid = Grid(1, 32)
        cutoff = grid.n_per_dim // 3
        f = dealias(lattice_field(grid, 0.0, seed=8))
        g = dealias(lattice_field(grid, 0.0, seed=9, real=True))
        n = grid.n_per_dim
        ks = grid.k_axis.astype(int)
        index = {k: i for i, k in enumerate(ks)}
        conv = np.zeros(n, dtype=complex)
        for k_out in range(-cutoff, cutoff + 1):
            acc = 0.0 + 0.0j
            for k1 in range(-cutoff, cutoff + 1):
                k2 = k_out - k1
                if -cutoff <= k2 <= cutoff:
                    acc += f.coeffs[index[k1]] * g.coeffs[index[k2]]
            conv[index[k_out]] = acc / grid.volume
        uw, _ = kernel_products(grid, f.coeffs, g.coeffs)
        assert np.max(np.abs(uw - conv)) < 1e-12 * max(1.0, np.max(np.abs(conv)))

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_both_outputs_match_oracle_in_every_dimension(self, dim, seed):
        grid = Grid(dim, {1: 32, 2: 16, 3: 8, 4: 8}[dim])
        kids = np.random.SeedSequence(seed).spawn(2)
        u = dealias(lattice_field(grid, 0.0, seed=kids[0])).coeffs
        wave = dealias(lattice_field(grid, 0.0, seed=kids[1], real=True)).coeffs
        uw, abs2 = kernel_products(grid, u, wave)
        for got, want in (
            (uw, convolution_oracle(u, wave, grid)),
            (abs2, convolution_oracle(u, conjugate_coefficients(u), grid)),
        ):
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_commutative_and_bilinear(self):
        # The kernel's wave is real, so it commutes on two real fields f, g;
        # it is linear in u (h complex) and in the wave.
        grid = Grid(2, 16)
        f, g = (real_part(lattice_field(grid, 0.0, seed=seed).coeffs) for seed in (10, 11))
        h = lattice_field(grid, 0.0, seed=12).coeffs
        fg, _ = kernel_products(grid, f, g)
        gf, _ = kernel_products(grid, g, f)
        assert np.max(np.abs(fg - gf)) < 1e-12
        for lhs, rhs in (
            (kernel_products(grid, f + 2.0 * h, g)[0], fg + 2.0 * kernel_products(grid, h, g)[0]),
            (kernel_products(grid, h, g + 2.0 * f)[0],
             kernel_products(grid, h, g)[0] + 2.0 * kernel_products(grid, h, f)[0]),
        ):
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_grid_mismatch_rejected(self):
        f = random_sobolev_field(Grid(1, 16), 0.0, seed=0)
        g = random_sobolev_field(Grid(1, 32), 0.0, seed=0)
        with pytest.raises(GridMismatchError):
            CouplingKernel(Grid(1, 16))(f, half_spectrum(g))

    def test_real_part_matches_physical_space(self):
        # Re f = (f + conj f) / 2, with the coefficients of conj f from `conjugate`.
        grid = Grid(2, 16)
        f = lattice_field(grid, 0.0, seed=19).coeffs
        re = to_coefficients(to_samples(f, grid).real.astype(complex), grid)
        assert np.max(np.abs(0.5 * (f + conjugate(f)) - re)) < 1e-12 * np.max(np.abs(re))

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8), (4, 8)])
    def test_conjugate_matches_reflection_oracle(self, dim, n):
        f = lattice_field(Grid(dim, n), 0.0, seed=dim).coeffs
        assert np.array_equal(conjugate(f), conjugate_coefficients(f))

    def test_cubic_pairing_matches_quadrature(self):
        grid = Grid(2, 16)
        u = dealias(lattice_field(grid, 0.0, seed=20))
        v = dealias(lattice_field(grid, 0.0, seed=21, real=True))
        u_x, v_x = to_samples(u.coeffs, grid), to_samples(v.coeffs, grid).real
        direct = np.sum(np.abs(u_x) ** 2 * v_x) * grid.dx**2
        box_u, box_v = grid.box(u.coeffs), half_spectrum(grid.box(v.coeffs))
        assert cubic_term(box_u, box_v, grid) == pytest.approx(direct, rel=1e-10)


class TestPassTable:
    """`CouplingKernel` calls numpy's pocketfft gufuncs directly (`spectral._PASSES`);
    numpy.fft's public functions (`spectral._FALLBACK`) are the reference."""

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 16), (2, 64), (3, 16), (4, 8)])
    def test_gufunc_table_gives_the_fallback_bits(self, dim, n, monkeypatch):
        grid = Grid(dim, n)
        u = random_sobolev_field(grid, 0.0, seed=80 + dim)
        wave = np.ascontiguousarray(half_spectrum(random_sobolev_field(grid, 0.0, seed=90 + dim, real=True)))

        def outputs():
            kernel, out = CouplingKernel(grid), np.empty(grid.box_shape, complex)
            uw, abs2 = kernel(u, wave, out=out)
            assert uw is out
            got = [uw.tobytes(), abs2.tobytes(), CouplingKernel(grid).abs2(u).tobytes()]
            return got + [part.tobytes() for part in kernel(u, wave)]

        assert spectral._PASSES is not spectral._FALLBACK
        got = outputs()
        monkeypatch.setattr(spectral, "_PASSES", spectral._FALLBACK)
        assert got == outputs()

    def test_selection_falls_back_without_a_gufunc(self):
        names = {"fft": 0, "ifft": 0, "rfft_n_even": 0, "irfft": 0}
        gufuncs = SimpleNamespace(**{name: getattr(_pocketfft_umath, name) for name in names})
        assert spectral._select_passes(gufuncs) == tuple(vars(gufuncs).values())
        assert spectral._PASSES == spectral._select_passes(_pocketfft_umath)
        for name in names:
            lacking = SimpleNamespace(**{k: v for k, v in vars(gufuncs).items() if k != name})
            assert spectral._select_passes(lacking) is spectral._FALLBACK
        assert spectral._select_passes(None) is spectral._FALLBACK
        # A call with the kernel's signature fails, or gives other bits.
        public = SimpleNamespace(**{**vars(gufuncs), "fft": np.fft.fft})
        swapped = SimpleNamespace(**{**vars(gufuncs), "ifft": _pocketfft_umath.fft})
        for module in (public, swapped):
            assert spectral._select_passes(module) is spectral._FALLBACK


class TestKernelBuffers:
    """`CouplingKernel` runs on three lattice buffers: the u samples, the wave samples
    and the product.  Every other stage is a view on one of them, so what a
    call leaves there is overwritten, or zeroed, before the next call reads it."""

    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 32), (3, 32), (4, 8)])
    def test_reused_kernel_gives_a_fresh_kernels_bits(self, dim, n):
        # Three different (u, wave) pairs through one kernel, with abs2 calls
        # in between: nothing a call leaves in the shared buffers reaches the
        # next one's results.  On these grids some lattice rows lie beyond
        # the box rows (n - c > 2c + 1), where only the zeroing clears them.
        grid = Grid(dim, n)
        kernel = CouplingKernel(grid)
        for seed in range(3):
            u, other = (random_sobolev_field(grid, s, seed=100 + 10 * dim + seed) for s in (0.0, 1.0))
            wave = random_sobolev_field(grid, 0.5, seed=200 + 10 * dim + seed, real=True)
            wave = np.ascontiguousarray(half_spectrum(wave))
            assert kernel.abs2(other).tobytes() == CouplingKernel(grid).abs2(other).tobytes()
            got, want = kernel(u, wave), CouplingKernel(grid)(u, wave)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 32), (4, 8)])
    def test_stale_buffers_never_reach_the_results(self, dim, n):
        # NaN in every buffer, so in every stage and gather view: each entry a
        # pass reads is written, or zeroed, by the call first.
        grid = Grid(dim, n)
        u = random_sobolev_field(grid, 0.0, seed=110 + dim)
        wave = np.ascontiguousarray(half_spectrum(random_sobolev_field(grid, 0.5, seed=210 + dim, real=True)))
        want = [a.tobytes() for a in CouplingKernel(grid)(u, wave)] + [CouplingKernel(grid).abs2(u).tobytes()]
        kernel, got = CouplingKernel(grid), []
        for call in (lambda: kernel(u, wave), lambda: (kernel.abs2(u),)):
            for buffer in (kernel._u, kernel._product, kernel._wave):
                buffer.fill(np.nan)
            got += [a.tobytes() for a in call()]
        assert got == want

    @pytest.mark.parametrize("dim, n", [(2, 64), (2, 128), (3, 32), (4, 16)])
    def test_buffers_fit_the_budget(self, dim, n):
        # The kernel's three buffers are 2.5 complex lattices (16 n^d bytes),
        # 640 KiB at 128^2; the rest is views and index tuples.  A stage or
        # gather of its own would take more than the 32 KiB allowed here.
        import tracemalloc

        grid = Grid(dim, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernel = CouplingKernel(grid)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2.5 * 16 * n**dim + 32 * 1024
        assert (dim, n) != (2, 128) or held <= 800 * 1024


class TestBoxDiagnostics:
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8), (4, 8)])
    @pytest.mark.parametrize("band_limited", [True, False])
    def test_cubic_pairing_matches_spectral_oracle(self, dim, n, band_limited):
        # u is carried on the box; the box half spectrum of v holds P v, so
        # the pairing takes a v that is not band-limited as its projection.
        grid = Grid(dim, n)
        u = dealias(lattice_field(grid, 0.0, seed=30 + dim))
        v = lattice_field(grid, 0.0, seed=40 + dim, real=True)
        v = dealias(v) if band_limited else v
        want = spectral_cubic_pairing(u, v)
        scale = np.sum(np.abs(to_samples(u.coeffs, grid)) ** 2 * np.abs(to_samples(dealias(v).coeffs, grid)))
        scale *= grid.dx**dim
        got = cubic_term(grid.box(u.coeffs), half_spectrum(grid.box(v.coeffs)), grid)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(want) > 1e-3 * scale  # the relative bound is not one on a cancelled sum

    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8), (4, 8)])
    def test_kernel_abs2_is_the_abs2_of_a_call(self, dim, n):
        # abs2 runs the passes of a call that |u|^2 needs, so it gives the
        # call's |u|^2 bit for bit, from a kernel that made a call or not.
        grid = Grid(dim, n)
        u = grid.box(dealias(lattice_field(grid, 0.0, seed=60 + dim)).coeffs)
        v = dealias(lattice_field(grid, 0.0, seed=70 + dim, real=True))
        kernel = CouplingKernel(grid)
        want = kernel(u, np.ascontiguousarray(half_spectrum(grid.box(v.coeffs))))[1].copy()
        assert kernel.abs2(u).tobytes() == want.tobytes()
        assert CouplingKernel(grid).abs2(u).tobytes() == want.tobytes()
        with pytest.raises(GridMismatchError):
            kernel.abs2(half_spectrum(u))

    @pytest.mark.parametrize("n", [64, 128])
    def test_cubic_term_is_within_3e15_of_the_exact_sum_of_sampled_products(self, n):
        # int P(|u|^2) v dx = dx^d sum_x |u(x)|^2 v(x) over the lattice
        # samples (discrete Parseval); the kernel's |u|^2 paired by a
        # pairwise sum stays within a few roundings of math.fsum of the
        # sampled products (a running sum over the samples read 3.3e-15 at
        # 64^2 and 7.3e-15 at 128^2 on these seeds).
        grid = Grid(2, n)
        for seed in range(10):
            u = dealias(lattice_field(grid, 0.0, seed=100 + seed))
            v = dealias(lattice_field(grid, 0.0, seed=200 + seed, real=True))
            u_x, v_x = to_samples(u.coeffs, grid), to_samples(v.coeffs, grid).real
            products = (u_x.real * u_x.real + u_x.imag * u_x.imag) * v_x
            exact = math.fsum(products.ravel().tolist()) * grid.dx**2
            got = cubic_term(grid.box(u.coeffs), half_spectrum(grid.box(v.coeffs)), grid)
            assert abs(got - exact) <= 3e-15 * abs(exact)

    @pytest.mark.parametrize("s, homogeneous", [(0.0, False), (1.5, False), (-1.0, True), (1.0, True)])
    def test_box_norm_matches_sobolev_norm(self, s, homogeneous):
        grid = Grid(2, 32)
        f = dealias(lattice_field(grid, 0.0, seed=50, real=True))
        want = sobolev_norm(f.coeffs, grid, s, homogeneous=homogeneous)
        for box in (grid.box(f.coeffs), half_spectrum(grid.box(f.coeffs))):
            assert box_norm(box, grid, s, homogeneous) == pytest.approx(want, rel=1e-13)

    def test_box_inner_matches_inner_product(self):
        grid = Grid(2, 32)
        f, g = (dealias(lattice_field(grid, 0.0, seed=seed)) for seed in (51, 52))
        assert box_inner(grid.box(f.coeffs), grid.box(g.coeffs), grid) == pytest.approx(
            inner_product(f, g).real, rel=1e-13
        )
        v, w = (dealias(lattice_field(grid, 0.0, seed=seed, real=True)) for seed in (53, 54))
        halves = (half_spectrum(grid.box(x.coeffs)) for x in (v, w))
        assert box_inner(*halves, grid) == pytest.approx(inner_product(v, w).real, rel=1e-13)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_pairwise_box_inner_is_within_a_few_ulps_of_the_exact_sum(self, s):
        # The weighted squares summed exactly (math.fsum): the pairwise path
        # rounds a few times, not once per mode as a running sum may.
        grid = Grid(2, 128)
        f = dealias(lattice_field(grid, 0.0, seed=55, real=True))
        for box in (grid.box(f.coeffs), half_spectrum(grid.box(f.coeffs))):
            pairs = box.reshape(-1).view(np.float64)
            box_inner(box, box, grid, s)  # caches the weight per float
            weight = grid.box_weights[(s, box.shape != grid.box_shape, False)]
            exact = math.fsum(float(p) * float(p) * float(w) for p, w in zip(pairs, weight))
            got = box_inner(box, box, grid, s, pairwise=True) * grid.volume
            assert got == pytest.approx(exact, rel=1e-15)
            assert box_inner(box, box, grid, s) * grid.volume == pytest.approx(exact, rel=1e-13)


class TestRandomField:
    def test_deterministic_given_seed(self):
        grid = Grid(2, 32)
        a, b = (random_sobolev_field(grid, 0.5, seed=42) for _ in range(2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim, n", [(2, 64), (2, 128), (3, 32)])
    def test_box_draw_is_the_box_of_the_lattice_oracle(self, dim, n):
        grid = Grid(dim, n)
        for s, seed, real in itertools.product((0.5, 1.0, 2.0), (3, 8, 7003), (False, True)):
            want = grid.box(lattice_field(grid, s, seed, real=real).coeffs)
            assert random_sobolev_field(grid, s, seed, real=real).tobytes() == want.tobytes()
        # The attractor's forcing (`cli`): its amplitude times the box draw.
        for kid, real in zip(np.random.SeedSequence((5, 17)).spawn(2), (False, True)):
            want = grid.box((0.3 * dealias(lattice_field(grid, 2.0, kid, real=real))).coeffs)
            assert (0.3 * random_sobolev_field(grid, 2.0, kid, real=real)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_spectral_slope_matches_envelope(self, s):
        grid = Grid(2, 128)
        f = random_sobolev_field(grid, s, seed=13)
        slope = fit_spectral_slope(f, grid, grid.n_per_dim / 8, grid.n_per_dim / 3)
        expected = -(s + grid.dim / 2 + 0.05)
        assert slope == pytest.approx(expected, abs=0.1)

    def test_smooth_field_h1_dominated_by_low_shells(self):
        grid = Grid(1, 64)
        f = random_sobolev_field(grid, 10.0, seed=14)
        low = np.where(grid.xi_norm <= 4.0, f, 0.0)
        assert box_norm(low, grid, 1.0) >= 0.99 * box_norm(f, grid, 1.0)

    def test_real_option_gives_real_samples(self):
        grid = Grid(2, 16)
        samples = to_samples(from_box(random_sobolev_field(grid, 1.0, seed=15, real=True), grid), grid)
        assert np.max(np.abs(samples.imag)) < 1e-12 * np.max(np.abs(samples.real))


class TestLineSlope:
    # `line_slope` is the closed-form degree-1 fit; `np.polyfit` is the oracle.
    @pytest.mark.parametrize("size", [2, 3, 11, 200])
    def test_matches_polyfit_on_random_data(self, size):
        rng = np.random.default_rng(size)
        for offset, spread, slope in ((0.0, 1.0, 3.0), (2.5, 0.4, -1.7), (20.0, 20.0, -0.25)):
            x = offset + spread * rng.standard_normal(size)
            y = slope * x + rng.standard_normal(size)
            assert line_slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim, n, s", [(2, 64, 0.0), (2, 128, 1.0), (3, 32, 0.5)])
    def test_matches_polyfit_on_the_spectral_fit(self, dim, n, s):
        grid = Grid(dim, n)
        f = random_sobolev_field(grid, s, seed=19)
        radii, means = shell_average_spectrum(f, grid)
        lo, hi = n / 8, n / 3
        sel = (radii >= lo) & (radii <= hi) & (means > 0)
        want = np.polyfit(np.log(radii[sel]), np.log(means[sel]), 1)[0]
        assert fit_spectral_slope(f, grid, lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestInnerProduct:
    # The package's pairing: `box_inner` of box arrays.
    def test_matches_quadrature(self):
        grid = Grid(2, 16)
        f, g = (random_sobolev_field(grid, 0.0, seed=seed) for seed in (16, 17))
        direct = np.sum(to_samples(from_box(f, grid), grid) * np.conj(to_samples(from_box(g, grid), grid)))
        assert box_inner(f, g, grid) == pytest.approx(direct.real * grid.dx**2, rel=1e-10)

    def test_l2_norm_consistency(self):
        grid = Grid(1, 16)
        f = random_sobolev_field(grid, 0.0, seed=18)
        assert math.sqrt(box_inner(f, f, grid, pairwise=True)) == pytest.approx(box_norm(f, grid), rel=1e-12)
