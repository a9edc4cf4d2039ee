"""Tests for the damped/forced system: linear flow, mass law, energy identities."""

import math

import numpy as np
import pytest

from dispersmooth.dissipative import (
    DampedParams,
    attractor_diagnostics,
    energy_H,
    energy_H_rate,
    integrate_damped,
)
from dispersmooth.errors import BlowUpError, ConfigurationError
from dispersmooth.evolution import (
    IntegratorConfig,
    Recorder,
    System,
    SystemState,
    block_flow,
    lawson_rk4_run,
    state_records,
    time_grid,
)
from dispersmooth.spectral import Grid, conjugate, half_spectrum, random_sobolev_field, to_samples

from conftest import (
    FREE_SYMBOLS,
    SpectralField,
    dealias,
    from_box,
    from_full,
    full,
    inner_product,
    lattice,
    lattice_field,
    lowpass_projection,
    norm,
    spectral_mode,
    zero_field,
)


def damped_state(grid, seed, amplitude=1.0, band=None):
    """Random (u, v, w) with real v, w, band-limited below the dealias cutoff."""
    return from_full(System.KGS, *damped_data(grid, seed, amplitude, band))


def damped_data(grid, seed, amplitude=1.0, band=None):
    """The full fields ``(u, v, w)`` of `damped_state`."""
    ss = np.random.SeedSequence((seed, 99))
    kids = ss.spawn(3)
    u = amplitude * dealias(lattice_field(grid, 1.5, seed=kids[0]))
    v = amplitude * dealias(lattice_field(grid, 1.5, seed=kids[1], real=True))
    w = amplitude * dealias(lattice_field(grid, 0.5, seed=kids[2], real=True))
    if band is not None:
        u, v, w = (lowpass_projection(x, band) for x in (u, v, w))
    return u, v, w


def damped_linear_flow(state, params, t):
    """`block_flow` of the damped system over ``t``, as a state at ``state.t + t``."""
    flow = block_flow(state.grid, t, params.gamma, params.a, params.delta)
    return SystemState(state.system, state.grid, *flow(state.fields), t=state.t + t)


def with_u(state, u):
    """``state`` with its ``u`` replaced by the box array ``u``."""
    return SystemState(state.system, state.grid, u, state.v, state.w, t=state.t)


def forcing_fields(grid, seed=5, amplitude=0.3):
    """``(f, g)`` as `DampedParams` takes them: a box array and a box half spectrum."""
    f = amplitude * random_sobolev_field(grid, 2.0, seed=np.random.SeedSequence((seed, 0)))
    g = amplitude * random_sobolev_field(grid, 2.0, seed=np.random.SeedSequence((seed, 1)), real=True)
    return f, half_spectrum(g)


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
        out = damped_linear_flow(state, params, 0.0)
        assert np.max(np.abs(out.u - state.u)) < 1e-14
        assert np.max(np.abs(out.v - state.v)) < 1e-14

    def test_u_amplitude_decays_at_gamma(self):
        grid = Grid(1, 16)
        u = spectral_mode(grid, (3,))
        state = from_full(System.KGS, u, zero_field(grid), zero_field(grid))
        params = DampedParams(gamma=0.7, delta=1.0)
        out = damped_linear_flow(state, params, 2.0)
        assert norm(full(out).u) == pytest.approx(math.exp(-1.4) * norm(u), rel=1e-12)

    def test_vw_block_matches_fine_step_oracle(self):
        # Oracle: classical RK4 on the per-mode 2x2 ODE with a tiny step.
        grid = Grid(1, 8)
        params = DampedParams(gamma=0.3, delta=0.9, a=0.2)
        state = damped_state(grid, seed=2)
        t = 1.3
        out = full(damped_linear_flow(state, params, t))

        cap = params.spring_constant + lattice(grid).xi_squared
        v = full(state).v.coeffs.copy()
        w = full(state).w.coeffs.copy()
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
        v[lattice(grid).nyquist_mask] = 0.0
        w[lattice(grid).nyquist_mask] = 0.0
        scale = max(1.0, np.max(np.abs(v)))
        assert np.max(np.abs(out.v.coeffs - v)) < 1e-10 * scale
        assert np.max(np.abs(out.w.coeffs - w)) < 1e-10 * scale

    def test_group_law(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.4, delta=1.1)
        state = damped_state(grid, seed=3)
        one = damped_linear_flow(damped_linear_flow(state, params, 0.4), params, 0.8)
        two = damped_linear_flow(state, params, 1.2)
        for a, b in zip(one.fields, two.fields):
            assert np.max(np.abs(a - b)) < 1e-11 * max(1.0, np.max(np.abs(b)))

    def test_exponential_decay_rate(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.5)
        state = damped_state(grid, seed=4)
        t = 20.0
        start, end = full(state), full(damped_linear_flow(state, params, t))
        total0 = norm(start.u, 1.0) + norm(start.v, 1.0) + norm(start.w)
        total1 = norm(end.u, 1.0) + norm(end.v, 1.0) + norm(end.w)
        floor = min(params.gamma, params.a, params.delta - params.a) / 2.0
        assert total1 <= total0 * math.exp(-floor * t)

    def test_u_factor_is_the_damped_schrodinger_multiplier(self):
        # Oracle: exp(-gamma t) exp(-i t |xi|^2) on the whole lattice.
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.3, delta=0.9)
        state = damped_state(grid, seed=5)
        t = 0.7
        want = math.exp(-params.gamma * t) * FREE_SYMBOLS["schrodinger"](grid, t) * full(state).u.coeffs
        got = full(damped_linear_flow(state, params, t)).u.coeffs
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


class TestIntegrateDamped:
    def test_zero_data_zero_forcing_stays_zero(self):
        grid = Grid(2, 16)
        z = zero_field(grid)
        params = DampedParams(gamma=0.5, delta=0.5)
        traj = integrate_damped(
            from_full(System.KGS, z, z, z), params, IntegratorConfig(dt=1e-2, t_end=0.1)
        )
        assert all(not np.any(a) for s in traj for a in s.fields)

    def test_unforced_mass_law_exact(self):
        grid = Grid(2, 32)
        params = DampedParams(gamma=0.6, delta=0.8)
        state = damped_state(grid, seed=6, band=grid.dealias_cutoff / 2)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=1e-3, t_end=1.0, record_every=200)
        )
        m0 = norm(full(state).u)
        for s in map(full, traj):
            expected = math.exp(-params.gamma * s.t) * m0
            assert abs(norm(s.u) - expected) < 1e-8 * m0

    def test_forced_mass_rate_matches_fd_oracle(self):
        grid = Grid(2, 32)
        f, g = forcing_fields(grid)
        params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
        state = damped_state(grid, seed=7, band=grid.dealias_cutoff / 2)
        dt = 1e-3
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=dt, t_end=0.02, record_every=1)
        )
        masses = [norm(full(s).u) ** 2 for s in traj]
        mid = len(traj) // 2
        fd = (masses[mid + 1] - masses[mid - 1]) / (2 * dt)
        # Closed form: d/dt ||u||^2 = -2 gamma ||u||^2 + 2 Im int f conj(u).
        u = full(traj[mid]).u
        f_full = SpectralField(grid, from_box(f, grid))
        closed = -2.0 * params.gamma * norm(u) ** 2 + 2.0 * inner_product(f_full, u).imag
        assert fd == pytest.approx(closed, rel=1e-4)

    def test_v_stays_real(self):
        grid = Grid(2, 16)
        f, g = forcing_fields(grid)
        params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
        state = damped_state(grid, seed=8)
        traj = integrate_damped(
            state, params, IntegratorConfig(dt=5e-3, t_end=0.5, record_every=20)
        )
        for s in map(full, traj):
            samples = to_samples(s.v.coeffs, grid)
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
        assert len(seen) == 4 * 3 + 1
        assert all(dv.shape == seen[0].shape and not np.any(dv) for dv in seen)


class TestEnergy:
    def test_zero_state_energy(self):
        grid = Grid(2, 16)
        z = zero_field(grid)
        params = DampedParams(gamma=0.5, delta=0.5)
        zero = from_full(System.KGS, z, z, z)
        assert energy_H(zero, params) == 0.0
        assert energy_H_rate(zero, params) == 0.0

    def test_quadratic_form_without_u(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.8, a=0.1)
        state = damped_state(grid, seed=9)
        state = with_u(state, np.zeros_like(state.u))
        v, w = full(state)[1:3]
        expected = (
            params.spring_constant * norm(v) ** 2
            + norm(v, 1.0, homogeneous=True) ** 2
            + norm(w) ** 2
        )
        assert energy_H(state, params) == pytest.approx(expected, rel=1e-12)

    def test_unforced_rate_without_u_is_negative(self):
        grid = Grid(2, 16)
        params = DampedParams(gamma=0.5, delta=0.8, a=0.1)
        state = damped_state(grid, seed=10)
        state = with_u(state, np.zeros_like(state.u))
        rate = energy_H_rate(state, params)
        v, w = full(state)[1:3]
        expected = (
            -2 * params.a * params.spring_constant * norm(v) ** 2
            - 2 * params.a * norm(v, 1.0, homogeneous=True) ** 2
            - 2 * (params.delta - params.a) * norm(w) ** 2
        )
        assert rate == pytest.approx(expected, rel=1e-12)
        assert rate < 0

    def test_energy_matches_physical_space_quadrature_oracle(self):
        # Oracle: every term evaluated by quadrature on physical samples;
        # exact for data band-limited to n/4 (cubic degree 3n/4 < n).
        grid = Grid(2, 32)
        f = SpectralField(grid, from_box(forcing_fields(grid)[0], grid))
        f = lowpass_projection(f, grid.n_per_dim / 4)
        params = DampedParams(gamma=0.5, delta=0.8, a=0.1, f=grid.box(f.coeffs))
        data = damped_data(grid, seed=11, band=grid.n_per_dim / 4)
        state = from_full(System.KGS, *data)
        u, v, w, f_phys = (to_samples(x.coeffs, grid) for x in (*data, f))
        cell = grid.dx**2

        def grad_sq(field):
            total = 0.0
            for axis in range(2):
                sym = 1j * grid.xi_axis
                shape = [1, 1]
                shape[axis] = grid.n_per_dim
                total += np.sum(np.abs(to_samples(field.coeffs * sym.reshape(shape), grid)) ** 2) * cell
            return total

        expected = (
            2.0 * grad_sq(data[0])
            + params.spring_constant * np.sum(np.abs(v) ** 2) * cell
            + grad_sq(data[1])
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
    cap = params.spring_constant + lattice(grid).xi_squared
    half_trace = -delta / 2.0
    q = np.sqrt(np.asarray(half_trace**2 - (1.0 + lattice(grid).xi_squared), dtype=complex))
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
        entry[lattice(grid).nyquist_mask] = 0.0
    u_sym = math.exp(-params.gamma * t) * FREE_SYMBOLS["schrodinger"](grid, t)
    u_sym[lattice(grid).nyquist_mask] = 0.0

    def flow(fields, out):
        u, v, w = fields
        for target, value in zip(out, (u_sym * u, m11 * v + m12 * w, m21 * v + m22 * w)):
            target[...] = value
        return out

    return flow


def full_spectrum_damped_run(data, params, config):
    """Oracle: the damped stepper on full spectra ``data = (u, v, w)``, with products from
    n-d complex transforms; ``params`` has both forcing fields."""
    grid = data[0].grid
    f, g = (from_box(a, grid) for a in (params.f, params.g))
    n_steps, dt = time_grid(config.t_end, config.dt)
    scale = lattice(grid).dealias_mask / grid.dx**grid.dim

    def rhs(fields, out):
        u_x = np.fft.ifftn(fields[0])
        uv = np.fft.fftn(u_x * np.fft.ifftn(fields[1])) * scale
        abs2 = np.fft.fftn(np.abs(u_x) ** 2) * scale
        for target, value in zip(out, (1j * uv - 1j * f, 0.0, abs2 + g)):
            target[...] = value
        return out

    flow = full_spectrum_damped_flow(grid, params, dt / 2)
    return lawson_rk4_run([x.coeffs for x in data], rhs, flow, dt, n_steps)


class TestHalfSpectrumRun:
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8)])
    def test_matches_full_spectrum_oracle(self, dim, n):
        grid = Grid(dim, n)
        f, g = forcing_fields(grid, seed=20 + dim)
        params = DampedParams(gamma=0.5, delta=0.8, f=f, g=g)
        data = damped_data(grid, seed=20 + dim)
        config = IntegratorConfig(dt=1e-2, t_end=0.1)
        end = full(integrate_damped(from_full(System.KGS, *data), params, config).final)
        want = full_spectrum_damped_run(data, params, config)
        for got, oracle in zip(end[:3], want):
            assert np.max(np.abs(got.coeffs - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_guard_norms_equal_full_parseval_norms(self):
        # Box half spectra count their columns 1 .. c twice: the guard
        # reports the norms of the full fields.
        grid = Grid(2, 16)
        data = damped_data(grid, seed=24)
        config = IntegratorConfig(0.1, 0.1, blowup_threshold=1e-300)
        recorder = Recorder(("u", "v", "w"), grid, 0.0, config, lambda t, f, n: None)
        with pytest.raises(BlowUpError) as info:
            recorder(1, from_full(System.KGS, *data).fields, ())
        for name, field in zip(("u", "v", "w"), data):
            assert info.value.norms[f"{name}_L2"] == pytest.approx(norm(field), rel=1e-14)

    def test_records_are_box_copies(self):
        # The records of a damped run are states of their own: box copies
        # of the workspace, which the next step overwrites, and their
        # expansions give back the full fields.
        grid = Grid(2, 16)
        data = damped_data(grid, seed=25)
        workspace = [np.array(a) for a in from_full(System.KGS, *data).fields]
        recorder = Recorder(("u", "v", "w"), grid, 0.0, IntegratorConfig(0.1, 0.1), state_records(System.KGS, grid))
        recorder(1, workspace, ())
        (_, t, record), = recorder.records
        assert t == pytest.approx(0.1)
        for a, b in zip(record.fields, workspace):
            assert a is not b and np.array_equal(a, b)
        for got, field in zip(full(record)[:3], data):
            assert np.array_equal(got.coeffs, field.coeffs)


class TestRealFieldContract:
    @pytest.mark.parametrize("name", ["v", "w"])
    def test_non_real_wave_rejected_by_name(self, name):
        # A state's real v and w are half spectra, real by their layout; the
        # package checks realness where a real field enters from outside, the
        # forcing g.  The damped data's wave passes as g; skewed, it is rejected.
        grid = Grid(2, 16)
        skew = 1e-9 * dealias(lattice_field(grid, 1.5, seed=27))  # not conjugate-symmetric
        wave = dict(zip(("u", "v", "w"), damped_data(grid, seed=26)))[name]
        DampedParams(gamma=0.5, delta=0.5, g=half_spectrum(grid.box(wave.coeffs)))
        with pytest.raises(ConfigurationError, match="^g must be the half spectrum of a real field"):
            DampedParams(gamma=0.5, delta=0.5, g=half_spectrum(grid.box((wave + skew).coeffs)))

    def test_roundoff_defect_accepted(self):
        # A g whose k_last = 0 plane is Hermitian only to roundoff (a defect
        # near 1e-15 relative, below the bound of 1e-12) is accepted and run.
        grid = Grid(2, 16)
        f, g = forcing_fields(grid)
        g = g + 1e-15 * half_spectrum(f)
        plane = g[..., 0]
        assert np.any(plane != conjugate(plane))
        params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
        traj = integrate_damped(damped_state(grid, seed=28), params, IntegratorConfig(dt=1e-2, t_end=0.02))
        assert traj.steps == [0, 1, 2]

    def test_non_real_g_rejected(self):
        # A half spectrum is real by its shape except on its k_last = 0 plane,
        # which holds both k and -k; the box draw's g is exactly Hermitian there.
        grid = Grid(2, 16)
        f, g = forcing_fields(grid)
        with pytest.raises(ConfigurationError, match="^g must be the half spectrum of a real field"):
            DampedParams(gamma=0.5, delta=0.5, f=f, g=g + 1e-9 * half_spectrum(f))
        DampedParams(gamma=0.5, delta=0.5, f=f, g=g)  # a complex f is fine

    @pytest.mark.parametrize("name", ["f", "g"])
    def test_wrong_box_shape_rejected_by_name(self, name):
        grid = Grid(2, 16)
        wrong = dict(zip("fg", forcing_fields(Grid(2, 32))))  # the box of a 32^2 grid
        params = DampedParams(gamma=0.5, delta=0.5, **{name: wrong[name]})
        with pytest.raises(ConfigurationError, match=f"^{name} has shape"):
            integrate_damped(damped_state(grid, seed=1), params, IntegratorConfig(dt=1e-2, t_end=0.02))

    @pytest.mark.parametrize("name", ["f", "g"])
    def test_non_finite_entry_rejected_by_name(self, name):
        fields = {key: np.array(a) for key, a in zip("fg", forcing_fields(Grid(2, 16)))}
        fields[name][1, 1] = np.inf
        with pytest.raises(ConfigurationError, match=f"^{name} has a non-finite entry"):
            DampedParams(gamma=0.5, delta=0.5, **fields)


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
        for idx, (record, row) in enumerate(zip(traj, report.rows)):
            linear = full(damped_linear_flow(first, params, record.t - first.t))
            s = full(record)
            if 0 < idx < len(traj) - 1:
                rate_fd = (energies[idx + 1] - energies[idx - 1]) / (traj[idx + 1].t - traj[idx - 1].t)
            else:
                rate_fd = math.nan
            want = {
                "energy": energies[idx],
                "rate_closed": energy_H_rate(record, params),
                "rate_fd": rate_fd,
                "mass": norm(s.u),
                "linear_u_h1": norm(linear.u, 1.0),
                "linear_v_h1": norm(linear.v, 1.0),
                "linear_w_l2": norm(linear.w),
                "nonlinear_u": norm(s.u - linear.u, 1.4),
                "nonlinear_v": norm(s.v - linear.v, 2.8),
                "nonlinear_w": norm(s.w - linear.w, 1.8),
            }
            assert row.t == s.t
            for key, value in want.items():
                assert getattr(row, key) == pytest.approx(value, rel=1e-12, abs=1e-300, nan_ok=True), key
