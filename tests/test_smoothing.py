"""Tests for smoothing exponents, residuals, space-time norms, counterexample."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersmooth.errors import (
    AdmissibilityError,
    ConfigurationError,
    ResolutionError,
)
from dispersmooth.evolution import (
    Dispersion,
    IntegratorConfig,
    System,
    SystemState,
    integrate,
    nonlinear_rhs,
)
from dispersmooth.smoothing import (
    CounterexampleResult,
    SmoothingParams,
    duhamel_residual,
    sharpness_counterexample,
    smoothing_exponents,
    smoothing_scan,
    space_time_field,
    xsb_norm,
)
from dispersmooth.spectral import (
    Grid,
    SpectralField,
    l2_norm,
    sobolev_norm,
    to_samples,
    zero_field,
)

from conftest import random_state, spectral_mode


class TestSmoothingExponents:
    def test_zakharov_d2_half_l2(self):
        # Data in H^{1/2} x L^2 gains (1/2, 1/2): nonlinear part in H^{1-} x H^{1/2-}.
        assert smoothing_exponents(System.ZAKHAROV, 2, 0.5, 0.0) == (0.5, 0.5)

    def test_kgs_d2_l2_l2(self):
        # Data in L^2 x L^2: nonlinear part in H^{1/2-} x H^{3/2-}.
        assert smoothing_exponents(System.KGS, 2, 0.0, 0.0) == (0.5, 1.5)

    def test_kgs_d3_l2_l2(self):
        alpha, _ = smoothing_exponents(System.KGS, 3, 0.0, 0.0)
        assert alpha == min(0.5, 1.0, 0.5)

    def test_kgs_d4_variant(self):
        alpha, beta = smoothing_exponents(System.KGS, 4, 0.95, 0.95)
        assert alpha == pytest.approx(min(0.5, 1.0, 0.95))
        assert beta == pytest.approx(min(2 * 0.95 - 0.95 - (4 - 6) / 2, 2.0))

    @pytest.mark.parametrize(
        "system,d,s,r,fragment",
        [
            (System.KGS, 2, -1.0, 0.0, "s > -1/4"),
            (System.KGS, 2, 0.0, -0.6, "r > -1/2"),
            (System.ZAKHAROV, 2, 0.1, 0.0, "2s - r >= 1/2"),
            (System.ZAKHAROV, 2, 1.5, 0.0, "r < s < r + 1"),
            (System.ZAKHAROV, 4, 0.9, -0.1, "r > (d-4)/4"),
            (System.KGS, 1, 0.0, 0.0, "d >= 2"),
        ],
    )
    def test_violations_name_the_inequality(self, system, d, s, r, fragment):
        with pytest.raises(AdmissibilityError, match=__import__("re").escape(fragment)):
            smoothing_exponents(system, d, s, r)

    @given(
        r=st.floats(-0.4, 1.0),
        ds=st.floats(0.3, 0.69),
        bump=st.floats(0.01, 0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_alpha_monotone_in_r(self, r, ds, bump):
        # Raising r (data smoother in the wave slot) never shrinks alpha_max.
        s = r + ds
        if 2 * s - r < 0.5:
            return
        a1, _ = smoothing_exponents(System.ZAKHAROV, 2, s, r)
        if 2 * s - (r + bump) < 0.5 or not (r + bump < s):
            return
        a2, _ = smoothing_exponents(System.ZAKHAROV, 2, s, r + bump)
        assert a2 >= a1 - 1e-12

    def test_params_validate_probes(self):
        with pytest.raises(AdmissibilityError, match="alpha_probe"):
            SmoothingParams(System.KGS, 2, 0.0, 0.0, alpha_probe=0.6, beta_probe=1.0)
        with pytest.raises(AdmissibilityError, match="beta_probe"):
            SmoothingParams(System.KGS, 2, 0.0, 0.0, alpha_probe=0.4, beta_probe=1.5)


class TestDuhamelResidual:
    def test_zero_at_initial_time(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=20)
        traj = integrate(state, IntegratorConfig(dt=1e-2, t_end=0.05))
        res = duhamel_residual(traj, "u")
        assert l2_norm(res[0]) == 0.0

    def test_zero_u_gives_zero_u_residual(self, grid_2d_small):
        base = random_state(System.KGS, grid_2d_small, seed=21)
        state = SystemState(System.KGS, zero_field(grid_2d_small), base.wplus)
        traj = integrate(state, IntegratorConfig(dt=1e-2, t_end=0.1))
        res = duhamel_residual(traj, "u")
        assert all(l2_norm(r) < 1e-14 for r in res)

    def test_first_order_quadrature_oracle(self):
        # residual(t) = t * N(state0) + O(t^2): check both size and t^2 scaling.
        grid = Grid(1, 32)
        state = random_state(System.KGS, grid, seed=22, s=2.0, r=2.0, amplitude=0.5)
        fields = (state.u.coeffs, state.wplus.coeffs)
        du0 = SpectralField(grid, nonlinear_rhs(System.KGS, grid, fields)[0])
        errs = []
        for t in (1e-2, 5e-3):
            traj = integrate(state, IntegratorConfig(dt=t / 8, t_end=t, record_every=10**9))
            res = duhamel_residual(traj, "u")[-1]
            errs.append(l2_norm(res - t * du0))
        assert errs[0] < 0.05 * 1e-2 * l2_norm(du0)
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_unknown_component_rejected(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=23)
        with pytest.raises(ConfigurationError):
            duhamel_residual([state], "v")


class TestXsbNorm:
    def _single_mode_trajectory(self, k=(2,), n_t=64, t_end=2.0 * math.pi):
        # Exact linear Schrodinger flow of one mode, sampled uniformly.
        from dispersmooth.evolution import linear_propagate

        grid = Grid(1, 16)
        u0 = spectral_mode(grid, k)
        z = zero_field(grid)
        dt = t_end / n_t
        return [
            SystemState(
                System.KGS,
                linear_propagate(u0, Dispersion.SCHRODINGER, j * dt),
                z,
                t=j * dt,
            )
            for j in range(n_t)
        ]

    def test_zero_field_norm(self, grid_2d_small):
        z = zero_field(grid_2d_small)
        states = [SystemState(System.KGS, z, z, t=0.01 * j) for j in range(8)]
        stf = space_time_field(states, "u")
        assert xsb_norm(stf, 0.7, 0.55) == 0.0

    def test_s0_b0_is_windowed_spacetime_l2(self):
        traj = self._single_mode_trajectory()
        stf = space_time_field(traj, "u")
        direct = 0.0
        dt = traj[1].t - traj[0].t
        for j, state in enumerate(traj):
            direct += dt * (stf.window[j] * l2_norm(state.u)) ** 2
        assert xsb_norm(stf, 0.0, 0.0) == pytest.approx(math.sqrt(direct), rel=1e-10)

    def test_tau_spectrum_concentrates_on_dispersion_surface(self):
        traj = self._single_mode_trajectory(k=(2,))
        stf = space_time_field(traj, "u")
        grid = traj[0].grid
        k2 = np.argmin(np.abs(grid.k_axis - 2))
        tau_profile = np.abs(stf.coeffs[k2, :])
        peak_tau = stf.tau[np.argmax(tau_profile)]
        # e^{i t Delta} on mode k has time frequency -|k|^2 = -4.
        spacing = 2 * math.pi / stf.t_span
        assert abs(peak_tau + 4.0) <= spacing / 2
        norms = [xsb_norm(stf, 0.0, b) for b in (0.5, 0.55, 0.6)]
        assert max(norms) / min(norms) < 1.05

    def test_bessel_preprocessing_matches_s_weight(self):
        from dispersmooth.spectral import bessel_potential

        traj = self._single_mode_trajectory()
        stf = space_time_field(traj, "u")
        lifted = [
            SystemState(s.system, bessel_potential(s.u, 0.8), s.wplus, t=s.t)
            for s in traj
        ]
        stf_lifted = space_time_field(lifted, "u")
        a = xsb_norm(stf, 0.8, 0.55)
        b = xsb_norm(stf_lifted, 0.0, 0.55)
        assert a == pytest.approx(b, rel=1e-10)

    def test_nonuniform_times_rejected(self, grid_2d_small):
        z = zero_field(grid_2d_small)
        states = [
            SystemState(System.KGS, z, z, t=t) for t in (0.0, 0.1, 0.25, 0.3)
        ]
        with pytest.raises(ConfigurationError):
            space_time_field(states, "u")

    @pytest.mark.parametrize("taper", [0.25, 0.5, 0.75, 1.0])
    def test_window_is_scipy_periodic_tukey(self, grid_2d_small, taper):
        from scipy.signal.windows import tukey

        z = zero_field(grid_2d_small)
        for m in (4, 5, 8, 13, 31, 64):
            states = [SystemState(System.KGS, z, z, t=0.01 * j) for j in range(m)]
            window = space_time_field(states, "u", taper=taper).window
            assert np.array_equal(window, tukey(m, taper, sym=False))

    @pytest.mark.parametrize("taper", [0.0, -0.5, 1.5, float("nan")])
    def test_taper_outside_unit_interval_rejected(self, grid_2d_small, taper):
        z = zero_field(grid_2d_small)
        states = [SystemState(System.KGS, z, z, t=0.01 * j) for j in range(8)]
        with pytest.raises(ConfigurationError, match="taper"):
            space_time_field(states, "u", taper=taper)


class TestSmoothingScan:
    def test_residual_scales_quadratically_in_amplitude(self):
        params = SmoothingParams(System.KGS, 2, 0.0, 0.0, alpha_probe=0.4, beta_probe=1.2)
        grid = Grid(2, 32)
        reports = {
            amp: smoothing_scan(params, 1, seed=77, grid=grid, t_end=0.3, dt=2e-3, amplitude=amp)
            for amp in (1e-2, 1e-3)
        }
        for comp in ("u", "wplus"):
            big = [r for r in reports[1e-2].rows if r.component == comp][0].residual_norm
            small = [r for r in reports[1e-3].rows if r.component == comp][0].residual_norm
            assert big / small == pytest.approx(100.0, rel=0.1)

    def test_zero_u_reports_inf_gain(self):
        # u0 = 0 decouples: the u residual vanishes and its gain is not applicable.
        params = SmoothingParams(System.KGS, 2, 0.0, 0.0, alpha_probe=0.4, beta_probe=1.2)
        grid = Grid(2, 32)
        rep = smoothing_scan(
            params, 1, seed=78, grid=grid, t_end=0.1, dt=2e-3,
            amplitude=0.0, wave_amplitude=1.0,
        )
        u_rows = [r for r in rep.rows if r.component == "u"]
        assert all(math.isinf(r.slope_gain) for r in u_rows)
        assert all(r.residual_norm < 1e-14 for r in u_rows)


class TestSharpnessCounterexample:
    def test_u_norm_tracks_power_law(self):
        ns = [8, 16, 32, 64, 128]
        for s in (0.0, 0.3):
            vals = [
                sharpness_counterexample(N, s, 0.0, 0.5).u_norm / N ** (s - 0.5)
                for N in ns
            ]
            assert max(vals) / min(vals) < 1.1

    def test_alpha_zero_ratio_decays(self):
        ns = [8, 16, 32, 64, 128]
        ratios = [sharpness_counterexample(N, 0.0, 0.0, 0.0).ratio for N in ns]
        slope = np.polyfit(np.log(ns), np.log(ratios), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_supercritical_slope_matches_alpha_minus_half(self):
        ns = [8, 16, 32, 64, 128]
        for alpha in (0.75, 1.0):
            ratios = [sharpness_counterexample(N, 0.0, 0.0, alpha).ratio for N in ns]
            slope = np.polyfit(np.log(ns), np.log(ratios), 1)[0]
            assert slope == pytest.approx(alpha - 0.5, abs=0.1)

    def test_matches_brute_force_oracle(self):
        # Oracle: O(lattice^2) literal double sum over box points for the
        # product norm, at low resolution where it is affordable.
        N, s, r, alpha, b, res = 8, 0.1, 0.0, 0.7, 0.55, 3
        result = sharpness_counterexample(N, s, r, alpha, b, d=2, resolution=res)

        m = 2 * res
        h_n = (1.0 / N) / res
        h_w = 1.0 / res
        narrow = (np.arange(m) + 0.5) * h_n - 1.0 / N
        wide = (np.arange(m) + 0.5) * h_w - 1.0
        axes_u = [narrow + N, wide, wide - N**2]
        axes_v = [narrow, wide, wide]
        pts_u = np.array(np.meshgrid(*axes_u, indexing="ij")).reshape(3, -1).T
        pts_v = np.array(np.meshgrid(*axes_v, indexing="ij")).reshape(3, -1).T
        cell = h_n * h_w * h_w
        conv = {}
        for p in pts_u:
            for q in pts_v:
                key = tuple(np.round((p + q) / [h_n, h_w, h_w]).astype(int))
                conv[key] = conv.get(key, 0.0) + cell
        norm_sq = 0.0
        for key, val in conv.items():
            xi1, xi2, tau = key[0] * h_n, key[1] * h_w, key[2] * h_w
            xi_sq = xi1**2 + xi2**2
            w_bracket = (1 + xi_sq) ** (s + alpha)
            w_mod = (1 + (tau + xi_sq) ** 2) ** (b - 1.0)
            norm_sq += w_bracket * w_mod * ((2 * math.pi) ** -3 * val) ** 2 * cell
        assert result.product_norm == pytest.approx(math.sqrt(norm_sq), rel=1e-9)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            sharpness_counterexample(10, 0.0, 0.0, 0.5)  # not dyadic
        with pytest.raises(ResolutionError):
            sharpness_counterexample(8, 0.0, 0.0, 0.5, resolution=1)
