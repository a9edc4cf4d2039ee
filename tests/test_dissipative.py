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
    mass_rate,
)
from dispersmooth.errors import ConfigurationError
from dispersmooth.evolution import IntegratorConfig
from dispersmooth.spectral import (
    SpectralField,
    dealias,
    l2_norm,
    lowpass_projection,
    make_grid,
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
        grid = make_grid(2, 16)
        state = damped_state(grid, seed=1)
        params = DampedParams(gamma=0.5, delta=0.5)
        out = damped_linear_propagate(state, params, 0.0)
        assert np.max(np.abs(out.u.coeffs - state.u.coeffs)) < 1e-14
        assert np.max(np.abs(out.v.coeffs - state.v.coeffs)) < 1e-14

    def test_u_amplitude_decays_at_gamma(self):
        grid = make_grid(1, 16)
        u = spectral_mode(grid, (3,))
        state = DampedState(u, zero_field(grid), zero_field(grid))
        params = DampedParams(gamma=0.7, delta=1.0)
        out = damped_linear_propagate(state, params, 2.0)
        assert l2_norm(out.u) == pytest.approx(math.exp(-1.4) * l2_norm(u), rel=1e-12)

    def test_vw_block_matches_fine_step_oracle(self):
        # Oracle: classical RK4 on the per-mode 2x2 ODE with a tiny step.
        grid = make_grid(1, 8)
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
        grid = make_grid(2, 16)
        params = DampedParams(gamma=0.4, delta=1.1)
        state = damped_state(grid, seed=3)
        one = damped_linear_propagate(damped_linear_propagate(state, params, 0.4), params, 0.8)
        two = damped_linear_propagate(state, params, 1.2)
        for a, b in ((one.u, two.u), (one.v, two.v), (one.w, two.w)):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-11 * max(1.0, np.max(np.abs(b.coeffs)))

    def test_exponential_decay_rate(self):
        grid = make_grid(2, 16)
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
        grid = make_grid(2, 16)
        z = zero_field(grid)
        params = DampedParams(gamma=0.5, delta=0.5)
        traj = integrate_damped(
            DampedState(z, z, z), params, IntegratorConfig(dt=1e-2, t_end=0.1)
        )
        assert all(l2_norm(s.u) == 0 and l2_norm(s.v) == 0 for s in traj)

    def test_unforced_mass_law_exact(self):
        grid = make_grid(2, 32)
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
        grid = make_grid(2, 32)
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
        closed = mass_rate(traj[mid], params)
        assert fd == pytest.approx(closed, rel=1e-4)

    def test_v_stays_real(self):
        grid = make_grid(2, 16)
        f, g = forcing_fields(grid)
        params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
        state = damped_state(grid, seed=8)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=5e-3, t_end=0.5, record_every=20)
        )
        for s in traj:
            samples = to_samples(s.v)
            assert np.max(np.abs(samples.imag)) < 1e-8 * max(1.0, np.max(np.abs(samples.real)))

    def test_rhs_returns_one_read_only_zero_dv_per_run(self, monkeypatch):
        # v_t has no nonlinear term: the right side hands back the same
        # read-only zero array on every call instead of allocating one.
        from dispersmooth import dissipative

        seen = []
        stepper = dissipative.lawson_rk4_run

        def recording_stepper(fields, rhs, *args, **kwargs):
            def recorded_rhs(y):
                out = rhs(y)
                seen.append(out[1])
                return out

            return stepper(fields, recorded_rhs, *args, **kwargs)

        monkeypatch.setattr(dissipative, "lawson_rk4_run", recording_stepper)
        grid = make_grid(2, 16)
        f, g = forcing_fields(grid)
        integrate_damped(
            damped_state(grid, seed=9),
            DampedParams(gamma=0.5, delta=0.5, f=f, g=g),
            IntegratorConfig(dt=1e-2, t_end=0.03),
        )
        assert len(seen) == 12
        assert all(dv is seen[0] for dv in seen)
        assert not seen[0].flags.writeable
        assert not np.any(seen[0])


class TestEnergy:
    def test_zero_state_energy(self):
        grid = make_grid(2, 16)
        z = zero_field(grid)
        params = DampedParams(gamma=0.5, delta=0.5)
        assert energy_H(DampedState(z, z, z), params) == 0.0
        assert energy_H_rate(DampedState(z, z, z), params) == 0.0

    def test_quadratic_form_without_u(self):
        grid = make_grid(2, 16)
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
        grid = make_grid(2, 16)
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
        grid = make_grid(2, 32)
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
        grid = make_grid(2, 32)
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
        grid = make_grid(2, 16)
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
        grid = make_grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.5)
        state = damped_state(grid, seed=14)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=5e-3, t_end=0.2, record_every=10)
        )
        report = attractor_diagnostics(traj, params)
        assert report.inconclusive
