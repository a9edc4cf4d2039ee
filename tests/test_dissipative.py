"""Tests for the damped/forced system: linear flow, mass law, energy identities."""

import math

import numpy as np
import pytest

from dispersmooth.dissipative import (
    DampedParams,
    DampedState,
    attractor_diagnostics,
    damped_linear_propagate,
    energy_H,
    energy_H_rate,
    integrate_damped,
)
from dispersmooth.errors import BlowUpError, ConfigurationError
from dispersmooth.evolution import (
    Dispersion,
    IntegratorConfig,
    Recorder,
    lawson_rk4_run,
    linear_flow,
    propagator_symbol,
    time_grid,
)
from dispersmooth.spectral import (
    Grid,
    SpectralField,
    dealias,
    half_spectrum,
    inner_product,
    l2_norm,
    lowpass_projection,
    random_sobolev_field,
    sobolev_norm,
    to_samples,
    zero_field,
)

from conftest import spectral_mode


def damped_state(grid, seed, amplitude=1.0, band=None):
    """Random (u, v, w) with real v, w, band-limited below the dealias cutoff."""
    ss = np.random.SeedSequence((seed, 99))
    kids = ss.spawn(3)
    u = amplitude * dealias(random_sobolev_field(grid, 1.5, seed=kids[0]))
    v = amplitude * dealias(random_sobolev_field(grid, 1.5, seed=kids[1], real=True))
    w = amplitude * dealias(random_sobolev_field(grid, 0.5, seed=kids[2], real=True))
    if band is not None:
        u, v, w = (lowpass_projection(x, band) for x in (u, v, w))
    return DampedState(u, v, w, 0.0)


def forcing_fields(grid, seed=5, amplitude=0.3):
    f = amplitude * dealias(random_sobolev_field(grid, 2.0, seed=np.random.SeedSequence((seed, 0))))
    g = amplitude * dealias(
        random_sobolev_field(grid, 2.0, seed=np.random.SeedSequence((seed, 1)), real=True)
    )
    return f, g


class TestParams:
    def test_default_auxiliary_constant(self):
        params = DampedParams(gamma=0.4, delta=0.8)
        assert params.a == pytest.approx(0.1)

    @pytest.mark.parametrize("gamma,delta,a", [(0.0, 1.0, None), (1.0, 1.0, 2.0)])
    def test_invalid_parameters(self, gamma, delta, a):
        with pytest.raises(ConfigurationError):
            DampedParams(gamma=gamma, delta=delta, a=a)


class TestLinearPropagate:
    def test_zero_time_identity(self):
        grid = Grid(2, 16)
        state = damped_state(grid, seed=1)
        params = DampedParams(gamma=0.5, delta=0.5)
        out = damped_linear_propagate(state, params, 0.0)
        assert np.max(np.abs(out.u.coeffs - state.u.coeffs)) < 1e-14
        assert np.max(np.abs(out.v.coeffs - state.v.coeffs)) < 1e-14

    def test_u_amplitude_decays_at_gamma(self):
        grid = Grid(1, 16)
        u = spectral_mode(grid, (3,))
        state = DampedState(u, zero_field(grid), zero_field(grid))
        params = DampedParams(gamma=0.7, delta=1.0)
        out = damped_linear_propagate(state, params, 2.0)
        assert l2_norm(out.u) == pytest.approx(math.exp(-1.4) * l2_norm(u), rel=1e-12)

    def test_vw_block_matches_fine_step_oracle(self):
        # Oracle: classical RK4 on the per-mode 2x2 ODE with a tiny step.
        grid = Grid(1, 8)
        params = DampedParams(gamma=0.3, delta=0.9, a=0.2)
        state = damped_state(grid, seed=2)
        t = 1.3
        out = damped_linear_propagate(state, params, t)

        cap = params.spring_constant + grid.xi_squared
        v = state.v.coeffs.copy().astype(complex)
        w = state.w.coeffs.copy().astype(complex)
        n_steps = 20000
        h = t / n_steps

        def deriv(v, w):
            return (w - params.a * v, -(params.delta - params.a) * w - cap * v)

        for _ in range(n_steps):
            k1 = deriv(v, w)
            k2 = deriv(v + h / 2 * k1[0], w + h / 2 * k1[1])
            k3 = deriv(v + h / 2 * k2[0], w + h / 2 * k2[1])
            k4 = deriv(v + h * k3[0], w + h * k3[1])
            v = v + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            w = w + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        v[grid.nyquist_mask] = 0.0
        w[grid.nyquist_mask] = 0.0
        scale = max(1.0, np.max(np.abs(v)))
        assert np.max(np.abs(out.v.coeffs - v)) < 1e-10 * scale
        assert np.max(np.abs(out.w.coeffs - w)) < 1e-10 * scale

    def test_group_law(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.4, delta=1.1)
        state = damped_state(grid, seed=3)
        one = damped_linear_propagate(damped_linear_propagate(state, params, 0.4), params, 0.8)
        two = damped_linear_propagate(state, params, 1.2)
        for a, b in ((one.u, two.u), (one.v, two.v), (one.w, two.w)):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-11 * max(1.0, np.max(np.abs(b.coeffs)))

    def test_exponential_decay_rate(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.5)
        state = damped_state(grid, seed=4)
        t = 20.0
        out = damped_linear_propagate(state, params, t)
        total0 = sobolev_norm(state.u, 1.0) + sobolev_norm(state.v, 1.0) + l2_norm(state.w)
        total1 = sobolev_norm(out.u, 1.0) + sobolev_norm(out.v, 1.0) + l2_norm(out.w)
        floor = min(params.gamma, params.a, params.delta - params.a) / 2.0
        assert total1 <= total0 * math.exp(-floor * t)


class TestIntegrateDamped:
    def test_zero_data_zero_forcing_stays_zero(self):
        grid = Grid(2, 16)
        z = zero_field(grid)
        params = DampedParams(gamma=0.5, delta=0.5)
        traj = integrate_damped(
            DampedState(z, z, z), params, IntegratorConfig(dt=1e-2, t_end=0.1)
        )
        assert all(l2_norm(s.u) == 0 and l2_norm(s.v) == 0 for s in traj)

    def test_unforced_mass_law_exact(self):
        grid = Grid(2, 32)
        params = DampedParams(gamma=0.6, delta=0.8)
        state = damped_state(grid, seed=6, band=grid.dealias_cutoff / 2)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=1e-3, t_end=1.0, record_every=200)
        )
        m0 = l2_norm(state.u)
        for s in traj:
            expected = math.exp(-params.gamma * s.t) * m0
            assert abs(l2_norm(s.u) - expected) < 1e-8 * m0

    def test_forced_mass_rate_matches_fd_oracle(self):
        grid = Grid(2, 32)
        f, g = forcing_fields(grid)
        params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
        state = damped_state(grid, seed=7, band=grid.dealias_cutoff / 2)
        dt = 1e-3
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=dt, t_end=0.02, record_every=1)
        )
        masses = [l2_norm(s.u) ** 2 for s in traj]
        mid = len(traj) // 2
        fd = (masses[mid + 1] - masses[mid - 1]) / (2 * dt)
        # Closed form: d/dt ||u||^2 = -2 gamma ||u||^2 + 2 Im int f conj(u).
        u = traj[mid].u
        closed = -2.0 * params.gamma * l2_norm(u) ** 2 + 2.0 * inner_product(f, u).imag
        assert fd == pytest.approx(closed, rel=1e-4)

    def test_v_stays_real(self):
        grid = Grid(2, 16)
        f, g = forcing_fields(grid)
        params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
        state = damped_state(grid, seed=8)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=5e-3, t_end=0.5, record_every=20)
        )
        for s in traj:
            samples = to_samples(s.v)
            assert np.max(np.abs(samples.imag)) < 1e-8 * max(1.0, np.max(np.abs(samples.real)))

    def test_rhs_writes_zero_dv_into_its_output(self, monkeypatch):
        # v_t has no nonlinear term: the right side writes zeros into the
        # stepper's dv buffer on every call, over whatever it held.
        from dispersmooth import dissipative

        seen = []
        stepper = dissipative.lawson_rk4_run

        def recording_stepper(fields, rhs, *args, **kwargs):
            def recorded_rhs(y, out):
                out[1].fill(np.nan)
                assert rhs(y, out) is out
                seen.append(out[1].copy())
                return out

            return stepper(fields, recorded_rhs, *args, **kwargs)

        monkeypatch.setattr(dissipative, "lawson_rk4_run", recording_stepper)
        grid = Grid(2, 16)
        f, g = forcing_fields(grid)
        integrate_damped(
            damped_state(grid, seed=9),
            DampedParams(gamma=0.5, delta=0.5, f=f, g=g),
            IntegratorConfig(dt=1e-2, t_end=0.03),
        )
        assert len(seen) == 12
        assert all(dv.shape == seen[0].shape and not np.any(dv) for dv in seen)


class TestEnergy:
    def test_zero_state_energy(self):
        grid = Grid(2, 16)
        z = zero_field(grid)
        params = DampedParams(gamma=0.5, delta=0.5)
        assert energy_H(DampedState(z, z, z), params) == 0.0
        assert energy_H_rate(DampedState(z, z, z), params) == 0.0

    def test_quadratic_form_without_u(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.8, a=0.1)
        state = damped_state(grid, seed=9)
        state = DampedState(zero_field(grid), state.v, state.w)
        expected = (
            params.spring_constant * l2_norm(state.v) ** 2
            + sobolev_norm(state.v, 1.0, homogeneous=True) ** 2
            + l2_norm(state.w) ** 2
        )
        assert energy_H(state, params) == pytest.approx(expected, rel=1e-12)

    def test_unforced_rate_without_u_is_negative(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.8, a=0.1)
        state = damped_state(grid, seed=10)
        state = DampedState(zero_field(grid), state.v, state.w)
        rate = energy_H_rate(state, params)
        expected = (
            -2 * params.a * params.spring_constant * l2_norm(state.v) ** 2
            - 2 * params.a * sobolev_norm(state.v, 1.0, homogeneous=True) ** 2
            - 2 * (params.delta - params.a) * l2_norm(state.w) ** 2
        )
        assert rate == pytest.approx(expected, rel=1e-12)
        assert rate < 0

    def test_energy_matches_physical_space_quadrature_oracle(self):
        # Oracle: every term evaluated by quadrature on physical samples;
        # exact for data band-limited to n/4 (cubic degree 3n/4 < n).
        grid = Grid(2, 32)
        f, _ = forcing_fields(grid)
        f = lowpass_projection(f, grid.n_per_dim / 4)
        params = DampedParams(gamma=0.5, delta=0.8, a=0.1, f=f)
        state = damped_state(grid, seed=11, band=grid.n_per_dim / 4)
        u, v, w = to_samples(state.u), to_samples(state.v), to_samples(state.w)
        f_phys = to_samples(f)
        cell = grid.dx**2

        def grad_sq(field):
            total = 0.0
            for axis in range(2):
                sym = 1j * grid.xi_axis
                shape = [1, 1]
                shape[axis] = grid.n_per_dim
                deriv = SpectralField(grid, field.coeffs * sym.reshape(shape))
                total += np.sum(np.abs(to_samples(deriv)) ** 2) * cell
            return total

        expected = (
            2.0 * grad_sq(state.u)
            + params.spring_constant * np.sum(np.abs(v) ** 2) * cell
            + grad_sq(state.v)
            + np.sum(np.abs(w) ** 2) * cell
            - 2.0 * np.sum(np.abs(u) ** 2 * v.real) * cell
            + 4.0 * np.sum((f_phys * np.conj(u)).real) * cell
        )
        assert energy_H(state, params) == pytest.approx(expected, rel=1e-10)

    def test_rate_matches_centered_differences_along_trajectory(self):
        grid = Grid(2, 32)
        f, g = forcing_fields(grid)
        params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
        state = damped_state(grid, seed=12, band=grid.dealias_cutoff / 2)
        dt = 1e-3
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=dt, t_end=0.02, record_every=1)
        )
        energies = [energy_H(s, params) for s in traj]
        mid = len(traj) // 2
        fd = (energies[mid + 1] - energies[mid - 1]) / (2 * dt)
        closed = energy_H_rate(traj[mid], params)
        assert fd == pytest.approx(closed, rel=1e-3)


class TestAttractorDiagnostics:
    def test_unforced_run_decays(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.5)
        state = damped_state(grid, seed=13, band=grid.dealias_cutoff / 2)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=5e-3, t_end=40.0, record_every=100)
        )
        report = attractor_diagnostics(traj, params)
        assert not report.inconclusive
        assert report.absorbing_radius < 1e-2
        assert report.linear_decay_rate is not None
        floor = min(params.gamma, params.a, params.delta - params.a) / 2
        assert report.linear_decay_rate >= floor

    def test_short_run_marked_inconclusive(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.5)
        state = damped_state(grid, seed=14)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=5e-3, t_end=0.2, record_every=10)
        )
        report = attractor_diagnostics(traj, params)
        assert report.inconclusive


def full_spectrum_damped_flow(grid, params, t):
    """The damped linear flow with the (v, w) block on every mode of the full spectrum."""
    a, delta = params.a, params.delta
    cap = params.spring_constant + grid.xi_squared
    half_trace = -delta / 2.0
    q = np.sqrt(np.asarray(half_trace**2 - (1.0 + grid.xi_squared), dtype=complex))
    qt = q * t
    ch = np.cosh(qt)
    small = np.abs(qt) < 1e-8
    sh_over_q = np.where(
        small,
        t * (1.0 + qt**2 / 6.0),
        np.sinh(np.where(small, 1.0, qt)) / np.where(small, 1.0, q),
    )
    decay = math.exp(half_trace * t)
    top_left = -a - half_trace
    bottom_right = -(delta - a) - half_trace
    m11 = decay * (ch + top_left * sh_over_q)
    m12 = decay * sh_over_q
    m21 = decay * (-cap) * sh_over_q
    m22 = decay * (ch + bottom_right * sh_over_q)
    for entry in (m11, m12, m21, m22):
        entry[grid.nyquist_mask] = 0.0
    u_sym = math.exp(-params.gamma * t) * propagator_symbol(grid, Dispersion.SCHRODINGER, t)
    return linear_flow([{0: u_sym}, {1: m11, 2: m12}, {1: m21, 2: m22}])


def full_spectrum_damped_run(state, params, config):
    """Oracle: the damped stepper on full spectra, with products from n-d complex transforms."""
    grid = state.grid
    f, g = params.forcing(grid)
    n_steps, dt = time_grid(config.t_end, config.dt)
    scale = grid.dealias_mask / grid.dx**grid.dim

    def rhs(fields, out):
        u_x = np.fft.ifftn(fields[0])
        uv = np.fft.fftn(u_x * np.fft.ifftn(fields[1])) * scale
        abs2 = np.fft.fftn(np.abs(u_x) ** 2) * scale
        for target, value in zip(out, (1j * uv - 1j * f.coeffs, 0.0, abs2 + g.coeffs)):
            target[...] = value
        return out

    start = (state.u.coeffs, state.v.coeffs, state.w.coeffs)
    flow = full_spectrum_damped_flow(grid, params, dt / 2)
    return lawson_rk4_run(start, rhs, flow, dt, n_steps)


class TestHalfSpectrumRun:
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8)])
    def test_matches_full_spectrum_oracle(self, dim, n):
        grid = Grid(dim, n)
        f, g = forcing_fields(grid, seed=20 + dim)
        params = DampedParams(gamma=0.5, delta=0.8, f=f, g=g)
        state = damped_state(grid, seed=20 + dim)
        config = IntegratorConfig(dt=1e-2, t_end=0.1)
        end = integrate_damped(state, params, config)[-1]
        want = full_spectrum_damped_run(state, params, config)
        for got, oracle in zip((end.u, end.v, end.w), want):
            assert np.max(np.abs(got.coeffs - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_guard_norms_equal_full_parseval_norms(self):
        # Half spectra count their interior columns twice: the guard reports
        # the norms of the full fields.
        grid = Grid(2, 16)
        state = damped_state(grid, seed=24)
        recorder = Recorder(("u", "v", "w"), grid, 0.0, 0.1, 1, 1, 1e-300)
        carried = (state.u.coeffs, half_spectrum(state.v.coeffs), half_spectrum(state.w.coeffs))
        with pytest.raises(BlowUpError) as info:
            recorder(1, carried)
        for name in ("u", "v", "w"):
            full = l2_norm(getattr(state, name))
            assert info.value.norms[f"{name}_L2"] == pytest.approx(full, rel=1e-14)

    def test_records_are_full_and_read_only(self):
        grid = Grid(2, 16)
        state = damped_state(grid, seed=25)
        recorder = Recorder(("u", "v", "w"), grid, 0.0, 0.1, 1, 1, 1e12)
        recorder(1, (state.u.coeffs, half_spectrum(state.v.coeffs), half_spectrum(state.w.coeffs)))
        (_, _, fields), = recorder.records
        for a, field in zip(fields, (state.u, state.v, state.w)):
            assert not a.flags.writeable
            assert np.array_equal(a, field.coeffs)


class TestRealFieldContract:
    @pytest.mark.parametrize("name", ["v", "w"])
    def test_non_real_wave_rejected_by_name(self, name):
        grid = Grid(2, 16)
        state = damped_state(grid, seed=26)
        skew = 1e-9 * random_sobolev_field(grid, 1.5, seed=27)  # not conjugate-symmetric
        fields = {"u": state.u, "v": state.v, "w": state.w}
        fields[name] = fields[name] + skew
        bad = DampedState(**fields)
        params = DampedParams(gamma=0.5, delta=0.5)
        with pytest.raises(ConfigurationError, match=f"^{name} must be a real field"):
            integrate_damped(bad, params, IntegratorConfig(dt=1e-2, t_end=0.02))
        with pytest.raises(ConfigurationError, match=f"^{name} must be a real field"):
            damped_linear_propagate(bad, params, 0.1)

    def test_roundoff_defect_accepted(self):
        grid = Grid(2, 16)
        state = damped_state(grid, seed=28)
        skew = 1e-15 * l2_norm(state.v) / l2_norm(state.u) * state.u  # defect below 1e-12
        state = DampedState(state.u, state.v + skew, state.w)
        params = DampedParams(gamma=0.5, delta=0.5)
        traj = integrate_damped(state, params, IntegratorConfig(dt=1e-2, t_end=0.02))
        assert traj.steps == [0, 1, 2]

    def test_non_real_g_rejected(self):
        grid = Grid(2, 16)
        f, g = forcing_fields(grid)
        with pytest.raises(ConfigurationError, match="^g must be a real field"):
            DampedParams(gamma=0.5, delta=0.5, f=f, g=g + 1e-9 * f)
        DampedParams(gamma=0.5, delta=0.5, f=f, g=g)  # a complex f is fine


class TestAttractorDiagnosticsOracle:
    def test_matches_per_record_formulas(self):
        # The parent formulas: the linear part propagated from t0 to each
        # record, H and dH/dt each evaluated on their own.  30 steps recorded
        # every 7 leave a last gap of 2 steps.
        grid = Grid(2, 16)
        f, g = forcing_fields(grid)
        params = DampedParams(gamma=0.5, delta=0.8, f=f, g=g)
        state = damped_state(grid, seed=29)
        traj = integrate_damped(state, params, IntegratorConfig(dt=1e-2, t_end=0.3, record_every=7))
        assert traj.steps == [0, 7, 14, 21, 28, 30]
        report = attractor_diagnostics(traj, params)
        first = traj[0]
        energies = [energy_H(s, params) for s in traj]
        for idx, (s, row) in enumerate(zip(traj, report.rows)):
            linear = damped_linear_propagate(first, params, s.t - first.t)
            if 0 < idx < len(traj) - 1:
                rate_fd = (energies[idx + 1] - energies[idx - 1]) / (traj[idx + 1].t - traj[idx - 1].t)
            else:
                rate_fd = math.nan
            want = {
                "energy": energies[idx],
                "rate_closed": energy_H_rate(s, params),
                "rate_fd": rate_fd,
                "mass": l2_norm(s.u),
                "linear_u_h1": sobolev_norm(linear.u, 1.0),
                "linear_v_h1": sobolev_norm(linear.v, 1.0),
                "linear_w_l2": l2_norm(linear.w),
                "nonlinear_u": sobolev_norm(s.u - linear.u, 1.4),
                "nonlinear_v": sobolev_norm(s.v - linear.v, 2.8),
                "nonlinear_w": sobolev_norm(s.w - linear.w, 1.8),
            }
            assert row.t == s.t
            for key, value in want.items():
                assert getattr(row, key) == pytest.approx(value, rel=1e-12, abs=1e-300, nan_ok=True), key
