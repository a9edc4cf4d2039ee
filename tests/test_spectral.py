"""Tests for grids, transforms, multipliers, norms, projections, products."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersmooth.errors import ConfigurationError, GridMismatchError, ResourceLimitError
from dispersmooth.spectral import (
    MAX_MODES,
    Grid,
    SpectralField,
    bessel_potential,
    conjugate,
    cubic_pairing,
    dealias,
    fit_spectral_slope,
    fourier_multiplier,
    inner_product,
    l2_norm,
    lowpass_projection,
    random_sobolev_field,
    real_part,
    riesz_potential,
    sobolev_norm,
    to_coefficients,
    to_samples,
    zero_field,
    zero_mode_mean,
)

from conftest import coupling_products

TWO_PI = 2.0 * math.pi


def plane_wave(grid: Grid, k: tuple[int, ...], amplitude: complex = 1.0) -> SpectralField:
    """exp(i xi.x) for xi = k/L, built via its samples."""
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


class TestTransform:
    def test_single_mode_has_single_coefficient(self):
        grid = Grid(1, 16)
        f = plane_wave(grid, (3,))
        coeffs = f.coeffs.copy()
        k3 = np.argmin(np.abs(grid.k_axis - 3))
        assert coeffs[k3] == pytest.approx(TWO_PI, rel=1e-12)
        coeffs[k3] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_zero_samples_give_zero_coefficients(self):
        grid = Grid(2, 16)
        f = to_coefficients(np.zeros(grid.shape), grid)
        assert np.all(f.coeffs == 0)

    def test_constant_field_normalization(self):
        grid = Grid(2, 16, box_length=1.5)
        c = 2.0 - 1.0j
        f = to_coefficients(np.full(grid.shape, c), grid)
        assert f.coeffs[0, 0] == pytest.approx(c * grid.volume, rel=1e-12)
        off_zero = f.coeffs.copy()
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
        assert np.max(np.abs(f.coeffs - direct)) < 1e-12 * np.max(np.abs(direct))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_identity(self, seed):
        grid = Grid(2, 16)
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        back = to_samples(to_coefficients(samples, grid))
        assert np.max(np.abs(back - samples)) < 1e-12

    def test_size_mismatch_rejected(self):
        grid = Grid(2, 16)
        with pytest.raises(GridMismatchError):
            to_coefficients(np.zeros((8, 8)), grid)

    def test_field_copies_a_writeable_caller_array(self):
        a = np.zeros(8, dtype=complex)
        f = SpectralField(Grid(1, 8), a)
        assert a.flags.writeable
        a[1] = 1.0
        assert np.all(f.coeffs == 0)
        assert not f.coeffs.flags.writeable


class TestMultipliers:
    def test_zeroth_order_is_identity(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 1.0, seed=0)
        g = bessel_potential(f, 0.0)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-14

    def test_inverse_symbols_cancel(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 0.0, seed=1)  # Nyquist-free by construction
        g = bessel_potential(bessel_potential(f, 1.7), -1.7)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_bessel_squared_on_plane_wave(self):
        grid = Grid(1, 16)
        f = plane_wave(grid, (3,))
        g = bessel_potential(f, 2.0)
        k3 = np.argmin(np.abs(grid.k_axis - 3))
        assert g.coeffs[k3] == pytest.approx(10.0 * f.coeffs[k3], rel=1e-12)

    def test_singular_symbol_rejected(self):
        grid = Grid(1, 16)
        f = plane_wave(grid, (1,))
        bad = grid.xi_norm.copy()
        bad[0] = np.inf
        with pytest.raises(ConfigurationError):
            fourier_multiplier(f, bad)

    def test_negative_riesz_zero_mode_policy(self):
        grid = Grid(1, 16)
        f = to_coefficients(np.full(grid.shape, 3.0), grid)
        g = riesz_potential(f, -1.0)
        assert np.all(g.coeffs == 0)
        assert zero_mode_mean(f) == pytest.approx(3.0)


class TestSobolevNorm:
    def test_single_mode_value(self):
        grid = Grid(1, 16)
        f = plane_wave(grid, (3,))
        expected = math.sqrt(10.0) * math.sqrt(TWO_PI)  # <3>^1 * ||e^{i3x}||_{L2}
        assert sobolev_norm(f, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self):
        grid = Grid(2, 16)
        assert sobolev_norm(zero_field(grid), 2.5) == 0.0

    def test_l2_matches_spatial_quadrature_oracle(self):
        grid = Grid(2, 32)
        f = random_sobolev_field(grid, 0.5, seed=3)
        samples = to_samples(f)
        quadrature = math.sqrt(np.sum(np.abs(samples) ** 2) * grid.dx**grid.dim)
        assert sobolev_norm(f, 0.0) == pytest.approx(quadrature, rel=1e-10)

    @given(seed=st.integers(0, 2**31 - 1), s=st.floats(-1.5, 2.5))
    @settings(max_examples=15, deadline=None)
    def test_parseval_invariant(self, seed, s):
        grid = Grid(1, 32)
        f = random_sobolev_field(grid, s, seed=seed)
        samples = to_samples(f)
        spatial = np.sum(np.abs(samples) ** 2) * grid.dx
        spectral = np.sum(np.abs(f.coeffs) ** 2) / grid.volume
        assert spectral == pytest.approx(spatial, rel=1e-10)

    def test_homogeneous_drops_mean(self):
        grid = Grid(1, 16)
        f = to_coefficients(np.full(grid.shape, 5.0), grid)
        assert sobolev_norm(f, 1.0, homogeneous=True) == 0.0


class TestProjections:
    def test_lowpass_idempotent(self):
        grid = Grid(2, 32)
        f = random_sobolev_field(grid, 0.0, seed=4)
        once = lowpass_projection(f, 5.0)
        twice = lowpass_projection(once, 5.0)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_lowpass_plus_complement_reproduces(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 0.0, seed=6)
        g = lowpass_projection(f, 4.0) + (f - lowpass_projection(f, 4.0))
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_lowpass_on_plane_wave(self):
        grid = Grid(1, 16)
        f = plane_wave(grid, (3,))
        kept = lowpass_projection(f, 4.0)
        killed = lowpass_projection(f, 2.0)
        assert np.max(np.abs(kept.coeffs - f.coeffs)) < 1e-12
        assert np.max(np.abs(killed.coeffs)) < 1e-12


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
    return np.where(grid.dealias_mask, out, 0.0) / grid.volume


def conjugate_coefficients(f: np.ndarray) -> np.ndarray:
    """Coefficients of ``conj(f(x))``: ``conj f(-k)`` in FFT layout."""
    return np.conj(np.roll(np.flip(f), 1, axis=tuple(range(f.ndim))))


class TestDealiasedProduct:
    def test_product_with_zero(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 0.0, seed=7)
        uw, _ = coupling_products(grid, f.coeffs, zero_field(grid).coeffs)
        assert np.max(np.abs(uw)) < 1e-13
        uw, abs2 = coupling_products(grid, zero_field(grid).coeffs, f.coeffs)
        assert np.max(np.abs(uw)) == 0.0 and np.max(np.abs(abs2)) == 0.0

    def test_two_modes_within_band(self):
        grid = Grid(1, 16)
        uw, abs2 = coupling_products(
            grid, plane_wave(grid, (2,)).coeffs, plane_wave(grid, (3,)).coeffs
        )
        k5 = np.argmin(np.abs(grid.k_axis - 5))
        assert uw[k5] == pytest.approx(TWO_PI, rel=1e-12)
        rest = uw.copy()
        rest[k5] = 0
        assert np.max(np.abs(rest)) < 1e-11
        # |e^{2ix}|^2 = 1: only the zero mode, of coefficient 2 pi.
        assert abs2[0] == pytest.approx(TWO_PI, rel=1e-12)
        assert np.max(np.abs(abs2[1:])) < 1e-11

    def test_matches_direct_convolution_oracle(self):
        # Oracle: O(n^2) truncated convolution sum, for band-limited inputs.
        grid = Grid(1, 32)
        cutoff = grid.n_per_dim // 3
        f = dealias(random_sobolev_field(grid, 0.0, seed=8))
        g = dealias(random_sobolev_field(grid, 0.0, seed=9))
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
        uw, _ = coupling_products(grid, f.coeffs, g.coeffs)
        assert np.max(np.abs(uw - conv)) < 1e-12 * max(1.0, np.max(np.abs(conv)))

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_both_outputs_match_oracle_in_every_dimension(self, dim, seed):
        grid = Grid(dim, {1: 32, 2: 16, 3: 8, 4: 8}[dim])
        kids = np.random.SeedSequence(seed).spawn(2)
        u = dealias(random_sobolev_field(grid, 0.0, seed=kids[0])).coeffs
        wave = dealias(random_sobolev_field(grid, 0.0, seed=kids[1])).coeffs
        uw, abs2 = coupling_products(grid, u, wave)
        for got, want in (
            (uw, convolution_oracle(u, wave, grid)),
            (abs2, convolution_oracle(u, conjugate_coefficients(u), grid)),
        ):
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_commutative_and_bilinear(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 0.0, seed=10).coeffs
        g = random_sobolev_field(grid, 0.0, seed=11).coeffs
        h = random_sobolev_field(grid, 0.0, seed=12).coeffs
        fg, _ = coupling_products(grid, f, g)
        gf, _ = coupling_products(grid, g, f)
        assert np.max(np.abs(fg - gf)) < 1e-12
        lhs, _ = coupling_products(grid, f + 2.0 * h, g)
        rhs = fg + 2.0 * coupling_products(grid, h, g)[0]
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_grid_mismatch_rejected(self):
        f = random_sobolev_field(Grid(1, 16), 0.0, seed=0).coeffs
        g = random_sobolev_field(Grid(1, 32), 0.0, seed=0).coeffs
        with pytest.raises(GridMismatchError):
            coupling_products(Grid(1, 16), f, g)

    def test_real_part_matches_physical_space(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 0.0, seed=19)
        re = to_coefficients(to_samples(f).real.astype(complex), grid).coeffs
        assert np.max(np.abs(real_part(f.coeffs) - re)) < 1e-12 * np.max(np.abs(re))

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8), (4, 8)])
    def test_conjugate_matches_reflection_oracle(self, dim, n):
        f = random_sobolev_field(Grid(dim, n), 0.0, seed=dim).coeffs
        assert np.array_equal(conjugate(f), conjugate_coefficients(f))

    def test_cubic_pairing_matches_quadrature(self):
        grid = Grid(2, 16)
        u = dealias(random_sobolev_field(grid, 0.0, seed=20))
        v = dealias(random_sobolev_field(grid, 0.0, seed=21, real=True))
        direct = np.sum(np.abs(to_samples(u)) ** 2 * to_samples(v).real) * grid.dx**2
        assert cubic_pairing(u, v) == pytest.approx(direct, rel=1e-10)


class TestRandomField:
    def test_deterministic_given_seed(self):
        grid = Grid(2, 32)
        a = random_sobolev_field(grid, 0.5, seed=42)
        b = random_sobolev_field(grid, 0.5, seed=42)
        assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_spectral_slope_matches_envelope(self, s):
        grid = Grid(2, 128)
        f = random_sobolev_field(grid, s, seed=13)
        slope = fit_spectral_slope(f, grid.n_per_dim / 8, grid.n_per_dim / 3)
        expected = -(s + grid.dim / 2 + 0.05)
        assert slope == pytest.approx(expected, abs=0.1)

    def test_smooth_field_h1_dominated_by_low_shells(self):
        grid = Grid(1, 64)
        f = random_sobolev_field(grid, 10.0, seed=14)
        low = lowpass_projection(f, 4.0)
        assert sobolev_norm(low, 1.0) >= 0.99 * sobolev_norm(f, 1.0)

    def test_real_option_gives_real_samples(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 1.0, seed=15, real=True)
        samples = to_samples(f)
        assert np.max(np.abs(samples.imag)) < 1e-12 * np.max(np.abs(samples.real))


class TestInnerProduct:
    def test_matches_quadrature(self):
        grid = Grid(2, 16)
        f = random_sobolev_field(grid, 0.0, seed=16)
        g = random_sobolev_field(grid, 0.0, seed=17)
        direct = np.sum(to_samples(f) * np.conj(to_samples(g))) * grid.dx**2
        assert inner_product(f, g) == pytest.approx(direct, rel=1e-10)

    def test_l2_norm_consistency(self):
        grid = Grid(1, 16)
        f = random_sobolev_field(grid, 0.0, seed=18)
        assert math.sqrt(inner_product(f, f).real) == pytest.approx(l2_norm(f), rel=1e-12)
