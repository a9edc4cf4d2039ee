"""Tests for the frequency-split globalization scheme."""

import math

import numpy as np
import pytest

from dispersmooth.errors import ConfigurationError
from dispersmooth.evolution import (
    IntegratorConfig,
    System,
    SystemState,
    integrate,
)
from dispersmooth.highlow import (
    HighLowConfig,
    HighLowState,
    advance_window,
    gaussian_gns_constants,
    low_energy,
    mass_threshold,
    run_global,
    split_initial,
    step_rule,
)
from dispersmooth.spectral import (
    Grid,
    dealias,
    l2_norm,
    lowpass_projection,
    random_sobolev_field,
    remove_mean,
    sobolev_norm,
    zero_field,
)

from conftest import random_state


def highlow_data(grid, seed, s=0.95, r=0.95, amplitude=0.5):
    state = random_state(System.KGS, grid, seed=seed, s=s, r=r, amplitude=amplitude)
    return state.u, state.wplus


class TestSplitInitial:
    def test_exact_reconstruction(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=30)
        state = split_initial(u0, wplus, 8.0)
        total_u, total_w = state.total()
        assert np.max(np.abs(total_u.coeffs - u0.coeffs)) < 1e-14
        assert np.max(np.abs(total_w.coeffs - wplus.coeffs)) < 1e-14

    def test_cutoff_above_lattice_gives_zero_high_part(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=31)
        state = split_initial(u0, wplus, 1e6)
        assert l2_norm(state.mu) == 0.0
        assert l2_norm(state.lam_plus) == 0.0

    def test_tiny_cutoff_keeps_only_zero_mode(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=32)
        state = split_initial(u0, wplus, 1e-9)
        nonzero = np.nonzero(state.phi.coeffs)
        assert all(len(set(axis.tolist())) <= 1 and (len(axis) == 0 or axis[0] == 0) for axis in nonzero)

    @pytest.mark.parametrize("cutoff", [4.0, 8.0, 16.0])
    def test_splitting_bounds_hold(self, grid_2d, cutoff):
        s = r = 0.95
        for seed in range(33, 43):
            u0, wplus = highlow_data(grid_2d, seed=seed, s=s, r=r)
            state = split_initial(u0, wplus, cutoff)
            u_hs = sobolev_norm(u0, s)
            w_hr = sobolev_norm(wplus, r)
            assert sobolev_norm(state.phi, 1.0) <= cutoff ** (1 - s) * u_hs * (1 + 1e-12)
            assert sobolev_norm(state.psi_plus, 1.0) <= cutoff ** (1 - r) * w_hr * (1 + 1e-12)
            assert sobolev_norm(state.mu, 0.55) <= cutoff ** (0.55 - s) * u_hs * (1 + 1e-12)
            assert sobolev_norm(state.lam_plus, 0.55) <= cutoff ** (0.55 - r) * w_hr * (1 + 1e-12)


class TestStepRule:
    def test_exponent_vanishes_at_m_one(self):
        assert step_rule(64.0, 1.0, 0.55, constant=0.1) == pytest.approx(
            0.1 * 64.0**-0.01, rel=1e-12
        )

    def test_quoted_arithmetic_case(self):
        expected = 0.1 * 16.0 ** (-2 * (1 - 0.95) / 0.55 - 0.01)
        assert step_rule(16.0, 0.95, 0.55) == pytest.approx(expected, rel=1e-12)

    def test_power_law_under_doubling(self):
        m, r0 = 0.92, 0.55
        ratio = step_rule(32.0, m, r0) / step_rule(16.0, m, r0)
        assert ratio == pytest.approx(2.0 ** (-2 * (1 - m) / r0 - 0.01), rel=1e-12)

    def test_requires_n_at_least_one(self):
        with pytest.raises(ConfigurationError):
            step_rule(0.5, 0.9, 0.55)


class TestAdvanceWindow:
    def test_zero_high_part_reduces_to_low_system(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=44)
        u0 = lowpass_projection(u0, 6.0)
        wplus = lowpass_projection(wplus, 6.0)
        config = HighLowConfig(cutoff=8.0, s=0.95, r=0.95, dt=1e-3)
        state = split_initial(u0, wplus, 8.0)
        assert l2_norm(state.mu) == 0.0
        out = advance_window(state, config)
        assert l2_norm(out.mu) == 0.0
        assert l2_norm(out.lam_plus) == 0.0
        # The low pair evolved alone must match the direct solve of the same data.
        direct = integrate(
            SystemState(System.KGS, u0, wplus),
            IntegratorConfig(
                dt=config.delta / math.ceil(config.delta / config.dt),
                t_end=config.delta,
                record_every=10**9,
            ),
        )[-1]
        assert l2_norm(out.phi - direct.u) < 1e-11
        assert l2_norm(out.psi_plus - direct.wplus) < 1e-11

    def test_telescoping_identity_exact(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=45)
        config = HighLowConfig(cutoff=8.0, s=0.95, r=0.95, dt=2e-3)
        state = split_initial(u0, wplus, 8.0)
        from dispersmooth.highlow import _integrate_window, _reassemble

        evolved = _integrate_window(state, config)
        new_state, _ = _reassemble(state, config, evolved)
        total_after = new_state.total()
        phi_d, psi_d, mu_d, lam_d = evolved
        scale = max(1.0, np.max(np.abs(phi_d)))
        assert np.max(np.abs(total_after[0].coeffs - (phi_d + mu_d))) < 1e-12 * scale
        assert np.max(np.abs(total_after[1].coeffs - (psi_d + lam_d))) < 1e-12 * scale

    def test_one_window_matches_direct_solver(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=46)
        config = HighLowConfig(cutoff=8.0, s=0.95, r=0.95, dt=2e-3)
        state = split_initial(u0, wplus, 8.0)
        out = advance_window(state, config)
        n_inner = math.ceil(config.delta / config.dt)
        direct = integrate(
            SystemState(System.KGS, u0, wplus),
            IntegratorConfig(
                dt=config.delta / n_inner, t_end=config.delta, record_every=10**9
            ),
        )[-1]
        total_u, total_p = out.total()
        assert l2_norm(total_u - direct.u) < 1e-10
        assert l2_norm(total_p - direct.wplus) < 1e-10


class TestLowEnergy:
    def test_zero_u_leaves_wave_energy(self, grid_2d_small):
        _, wplus = highlow_data(grid_2d_small, seed=47)
        report = low_energy(zero_field(grid_2d_small), wplus)
        assert report.energy == pytest.approx(sobolev_norm(wplus, 1.0) ** 2, rel=1e-12)

    def test_zero_wave_leaves_gradient_energy(self, grid_2d_small):
        u0, _ = highlow_data(grid_2d_small, seed=48)
        z = zero_field(grid_2d_small)
        report = low_energy(u0, z)
        assert report.energy == pytest.approx(
            2.0 * sobolev_norm(u0, 1.0, homogeneous=True) ** 2, rel=1e-12
        )

    def test_small_data_energy_close_to_surrogate(self, grid_2d_small):
        u0, wplus = highlow_data(grid_2d_small, seed=49, amplitude=0.05)
        report = low_energy(u0, wplus)
        c1, c2 = gaussian_gns_constants()
        c0 = l2_norm(u0) * c1 * c2**2 / math.sqrt(2.0)
        bound = (
            2.0
            * math.sqrt(2.0)
            * c0
            * sobolev_norm(u0, 1.0, homogeneous=True)
            * sobolev_norm(wplus, 1.0)
        )
        assert abs(report.energy - report.coercivity_surrogate) <= max(bound, 1e-12)


class TestMassThreshold:
    def test_unit_constants(self):
        th = mass_threshold(1.0, 1.0)
        assert th.quotient_form == pytest.approx(math.sqrt(2.0))
        assert th.product_form == pytest.approx(math.sqrt(2.0))

    def test_quartic_scaling_in_c2(self):
        th1 = mass_threshold(1.0, 1.0)
        th2 = mass_threshold(1.0, 2.0)
        assert th2.quotient_form == pytest.approx(th1.quotient_form / 4.0)

    def test_gaussian_brackets_match_closed_forms(self):
        # Oracle: both Gaussian quotients have closed forms in d=4.
        c1, c2 = gaussian_gns_constants()
        assert c1 == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-9)
        assert c2 == pytest.approx(
            (3.0 * math.pi / 4.0) ** 0.75 / (math.pi * 2.0**0.25), rel=1e-9
        )

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ConfigurationError):
            mass_threshold(0.0, 1.0)


class TestRunGlobal:
    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0])
    def test_bad_blowup_threshold_rejected(self, threshold):
        with pytest.raises(ConfigurationError, match="blowup_threshold"):
            HighLowConfig(cutoff=4, s=0.95, r=0.95, blowup_threshold=threshold)

    def test_horizon_shorter_than_window_is_single_window(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=50)
        config = HighLowConfig(cutoff=8.0, s=0.95, r=0.95, dt=2e-3, t_end=1e-4)
        report = run_global(u0, wplus, config)
        assert len(report.windows) == 1
        single = advance_window(split_initial(u0, wplus, 8.0), config)
        assert l2_norm(report.final_state.phi - single.phi) == 0.0

    def test_band_limited_data_keeps_high_part_empty(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=51)
        u0 = lowpass_projection(u0, 4.0)
        wplus = lowpass_projection(wplus, 4.0)
        config = HighLowConfig(cutoff=8.0, s=0.95, r=0.95, dt=2e-3, t_end=0.05)
        report = run_global(u0, wplus, config, compare_direct=True)
        assert l2_norm(report.final_state.mu) == 0.0
        assert all(d < 1e-10 for d in report.diff_vs_direct)

    def test_oracle_equivalence_over_windows(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=52)
        config = HighLowConfig(cutoff=8.0, s=0.95, r=0.95, dt=2e-3)
        config = HighLowConfig(
            cutoff=8.0, s=0.95, r=0.95, dt=2e-3, t_end=3 * config.delta
        )
        report = run_global(u0, wplus, config, compare_direct=True)
        assert len(report.windows) == 3
        assert all(d < 1e-6 for d in report.diff_vs_direct)

    def test_threshold_warning_emitted(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=53, amplitude=0.5)
        u0 = 1e3 * u0
        config = HighLowConfig(cutoff=8.0, s=0.95, r=0.95, dt=2e-3, t_end=1e-4)
        report = run_global(u0, wplus, config)
        assert not report.below_threshold
        assert report.warnings
