"""Tests for the frequency-split globalization scheme."""

import math

import numpy as np
import pytest

from dispersmooth.errors import ConfigurationError
from dispersmooth.evolution import IntegratorConfig, System, integrate
from dispersmooth.highlow import (
    HighLowConfig,
    advance_window,
    gaussian_gns_constants,
    low_energy,
    mass_threshold,
    run_global,
    split_initial,
    step_rule,
)
from dispersmooth.spectral import Grid

from conftest import full, lowpass_projection, make_state, norm, random_state, scaled, zero_field


def highlow_data(grid, seed, s=0.95, r=0.95, amplitude=0.5):
    """Random data ``(u, w+)`` as full spectra."""
    state = full(random_state(System.KGS, grid, seed=seed, s=s, r=r, amplitude=amplitude))
    return state.u, state.wplus


def highlow_state(grid, seed, **kwargs):
    """The KGS state of `highlow_data`."""
    return random_state(System.KGS, grid, seed=seed, **{"s": 0.95, "r": 0.95, "amplitude": 0.5, **kwargs})


def pairs(state):
    """Full spectra of the window state's ``(phi, psi+, mu, lam+)``."""
    low, high = full(state.low), full(state.high)
    return low.u, low.wplus, high.u, high.wplus


def window(cutoff, dt, m=0.95):
    """The `IntegratorConfig` of one step-rule window at data regularity ``m``."""
    return IntegratorConfig(dt=dt, t_end=step_rule(cutoff, m, 0.55))


class TestSplitInitial:
    def test_exact_reconstruction(self, grid_2d):
        data = highlow_state(grid_2d, seed=30)
        state = split_initial(data, 8.0)
        for total, field in zip(state.total().fields, data.fields):
            assert np.max(np.abs(total - field)) < 1e-14

    def test_cutoff_above_lattice_gives_zero_high_part(self, grid_2d):
        state = split_initial(highlow_state(grid_2d, seed=31), 1e6)
        assert not any(np.any(a) for a in state.high.fields)

    def test_tiny_cutoff_keeps_only_zero_mode(self, grid_2d):
        state = split_initial(highlow_state(grid_2d, seed=32), 1e-9)
        nonzero = np.nonzero(full(state.low).u.coeffs)
        assert all(len(set(axis.tolist())) <= 1 and (len(axis) == 0 or axis[0] == 0) for axis in nonzero)

    @pytest.mark.parametrize("cutoff", [4.0, 8.0, 16.0])
    def test_splitting_bounds_hold(self, grid_2d, cutoff):
        s = r = 0.95
        for seed in range(33, 43):
            data = highlow_state(grid_2d, seed=seed, s=s, r=r)
            u0, wplus = full(data).u, full(data).wplus
            phi, psi_plus, mu, lam_plus = pairs(split_initial(data, cutoff))
            u_hs = norm(u0, s)
            w_hr = norm(wplus, r)
            assert norm(phi, 1.0) <= cutoff ** (1 - s) * u_hs * (1 + 1e-12)
            assert norm(psi_plus, 1.0) <= cutoff ** (1 - r) * w_hr * (1 + 1e-12)
            assert norm(mu, 0.55) <= cutoff ** (0.55 - s) * u_hs * (1 + 1e-12)
            assert norm(lam_plus, 0.55) <= cutoff ** (0.55 - r) * w_hr * (1 + 1e-12)


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
        data = make_state(System.KGS, lowpass_projection(u0, 6.0), lowpass_projection(wplus, 6.0))
        config = window(8.0, dt=1e-3)
        state = split_initial(data, 8.0)
        assert not np.any(state.high.u)
        out, _ = advance_window(state, config)
        assert not any(np.any(a) for a in out.high.fields)
        # The low pair evolved alone must match the direct solve of the same data.
        direct = full(integrate(
            data,
            IntegratorConfig(
                dt=config.t_end / math.ceil(config.t_end / config.dt),
                t_end=config.t_end,
                record_every=10**9,
            ),
        ).final)
        phi, psi_plus = pairs(out)[:2]
        assert norm(phi - direct.u) < 1e-11
        assert norm(psi_plus - direct.wplus) < 1e-11

    def test_telescoping_identity_exact(self, grid_2d):
        config = window(8.0, dt=2e-3)
        state = split_initial(highlow_state(grid_2d, seed=45), 8.0)
        from dispersmooth.highlow import _integrate_window, _reassemble

        evolved = _integrate_window(state, config)
        new_state, _ = _reassemble(state, config.t_end, evolved)
        scale = max(1.0, np.max(np.abs(evolved[0])))
        for total, low, high in zip(new_state.total().fields, evolved[:3], evolved[3:]):
            assert np.max(np.abs(total - (low + high))) < 1e-12 * scale

    def test_one_window_matches_direct_solver(self, grid_2d):
        data = highlow_state(grid_2d, seed=46)
        config = window(8.0, dt=2e-3)
        out, _ = advance_window(split_initial(data, 8.0), config)
        n_inner = math.ceil(config.t_end / config.dt)
        direct = full(integrate(
            data,
            IntegratorConfig(
                dt=config.t_end / n_inner, t_end=config.t_end, record_every=10**9
            ),
        ).final)
        total = full(out.total())
        assert norm(total.u - direct.u) < 1e-10
        assert norm(total.wplus - direct.wplus) < 1e-10


class TestLowEnergy:
    def test_zero_u_leaves_wave_energy(self, grid_2d_small):
        _, wplus = highlow_data(grid_2d_small, seed=47)
        report = low_energy(make_state(System.KGS, zero_field(grid_2d_small), wplus))
        assert report.energy == pytest.approx(norm(wplus, 1.0) ** 2, rel=1e-12)

    def test_zero_wave_leaves_gradient_energy(self, grid_2d_small):
        u0, _ = highlow_data(grid_2d_small, seed=48)
        z = zero_field(grid_2d_small)
        report = low_energy(make_state(System.KGS, u0, z))
        assert report.energy == pytest.approx(
            2.0 * norm(u0, 1.0, homogeneous=True) ** 2, rel=1e-12
        )

    def test_small_data_energy_close_to_surrogate(self, grid_2d_small):
        u0, wplus = highlow_data(grid_2d_small, seed=49, amplitude=0.05)
        report = low_energy(make_state(System.KGS, u0, wplus))
        c1, c2 = gaussian_gns_constants()
        c0 = norm(u0) * c1 * c2**2 / math.sqrt(2.0)
        bound = (
            2.0
            * math.sqrt(2.0)
            * c0
            * norm(u0, 1.0, homogeneous=True)
            * norm(wplus, 1.0)
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


class TestHighLowConfig:
    def test_defaults_are_the_section_defaults(self):
        config = HighLowConfig()
        assert (config.cutoff, config.r0, config.window_constant) == (8.0, 0.55, 0.1)
        assert (config.delta, config.windows, config.gns_c1, config.gns_c2) == (None,) * 4
        assert config.compare_direct is False

    @pytest.mark.parametrize(
        "key, value",
        [("cutoff", 0.0), ("r0", 0.0), ("window_constant", float("nan")), ("delta", -1.0),
         ("gns_c1", 0.0), ("gns_c2", float("inf")), ("windows", 0)],
    )
    def test_bad_value_rejected_by_name(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            HighLowConfig(**{key: value})

    def test_cutoff_below_one_needs_a_delta(self):
        with pytest.raises(ConfigurationError, match="^cutoff must be >= 1 for the step rule"):
            HighLowConfig(cutoff=0.5)
        assert HighLowConfig(cutoff=0.5, delta=0.1).cutoff == 0.5


class TestRunGlobal:
    def test_horizon_shorter_than_window_is_single_window(self, grid_2d):
        data = highlow_state(grid_2d, seed=50)
        integrator = IntegratorConfig(dt=2e-3, t_end=1e-4)
        report = run_global(data, 0.95, HighLowConfig(cutoff=8.0), integrator)
        assert len(report.windows) == 1
        single, log = advance_window(split_initial(data, 8.0), window(8.0, dt=2e-3))
        assert np.array_equal(report.final_state.low.u, single.low.u)
        assert report.windows == [log]

    @pytest.mark.parametrize("t_end", [1e-4, 1.0, 50.0])
    def test_windows_key_sets_the_count_whatever_t_end(self, grid_2d_small, t_end):
        data = highlow_state(grid_2d_small, seed=54)
        config = HighLowConfig(cutoff=4.0, delta=0.01, windows=3)
        report = run_global(data, 0.95, config, IntegratorConfig(dt=5e-3, t_end=t_end))
        assert len(report.windows) == 3
        assert report.final_state.t == pytest.approx(0.03, rel=1e-12)

    def test_delta_defaults_to_the_step_rule_at_m(self, grid_2d_small):
        data = highlow_state(grid_2d_small, seed=55)
        config = HighLowConfig(cutoff=4.0, windows=1)
        report = run_global(data, 0.9, config, IntegratorConfig(dt=5e-3))
        assert report.delta == step_rule(4.0, 0.9, 0.55, 0.1)
        assert report.windows[0].t_end == report.delta

    def test_band_limited_data_keeps_high_part_empty(self, grid_2d):
        u0, wplus = highlow_data(grid_2d, seed=51)
        data = make_state(System.KGS, lowpass_projection(u0, 4.0), lowpass_projection(wplus, 4.0))
        config = HighLowConfig(cutoff=8.0, compare_direct=True)
        report = run_global(data, 0.95, config, IntegratorConfig(dt=2e-3, t_end=0.05))
        assert not np.any(report.final_state.high.u)
        assert all(d < 1e-10 for d in report.diff_vs_direct)

    def test_oracle_equivalence_over_windows(self, grid_2d):
        data = highlow_state(grid_2d, seed=52)
        config = HighLowConfig(cutoff=8.0, windows=3, compare_direct=True)
        report = run_global(data, 0.95, config, IntegratorConfig(dt=2e-3))
        assert len(report.windows) == 3
        assert all(d < 1e-6 for d in report.diff_vs_direct)

    def test_dt_not_dividing_delta_matches_direct_to_roundoff(self, grid_2d_small):
        # The window and the direct check share one shortened step grid.
        data = highlow_state(grid_2d_small, seed=56)
        config = HighLowConfig(cutoff=4.0, delta=0.05, windows=3, compare_direct=True)
        report = run_global(data, 0.95, config, IntegratorConfig(dt=0.003))
        assert 0.05 / 0.003 != math.ceil(0.05 / 0.003)
        assert max(report.diff_vs_direct) <= 1e-12

    def test_threshold_warning_emitted(self):
        data = scaled(highlow_state(Grid(4, 8), seed=53, amplitude=0.5), 1e3, 1.0)
        integrator = IntegratorConfig(dt=2e-3, t_end=1e-4)
        report = run_global(data, 0.95, HighLowConfig(cutoff=2.0), integrator)
        assert report.threshold is not None
        assert not report.below_threshold
        assert report.warnings
        assert "not below the operative threshold" in report.warnings[-1]

    def test_threshold_not_applicable_outside_d4(self, grid_2d):
        data = scaled(highlow_state(grid_2d, seed=53, amplitude=0.5), 1e3, 1.0)
        integrator = IntegratorConfig(dt=2e-3, t_end=1e-4)
        report = run_global(data, 0.95, HighLowConfig(cutoff=8.0), integrator)
        assert report.threshold is None
        assert report.below_threshold is None
        assert report.warnings == [
            "the mass threshold is built from the 4-d Gagliardo-Nirenberg constants;"
            " it does not apply in d = 2 and is not reported"
        ]
