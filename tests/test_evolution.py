"""Tests for linear propagators, nonlinear right sides, and time integration."""

import math

import numpy as np
import pytest

from dispersmooth import dissipative, evolution, highlow
from dispersmooth.dissipative import DampedParams, DampedState, integrate_damped
from dispersmooth.errors import BlowUpError
from dispersmooth.evolution import (
    Dispersion,
    IntegratorConfig,
    System,
    SystemState,
    conserved_quantities,
    free_flow,
    integrate,
    join_wave,
    linear_propagate,
    nonlinear_rhs,
    split_wave,
    time_grid,
)
from dispersmooth.highlow import HighLowConfig, advance_window, run_global, split_initial
from dispersmooth.spectral import (
    CouplingKernel,
    Grid,
    bessel_potential,
    conjugate,
    grid_symbols,
    half_real_part,
    l2_norm,
    random_sobolev_field,
    real_part,
    sobolev_norm,
    to_coefficients,
    to_samples,
    zero_field,
)

from conftest import coupling_products, random_state, spectral_mode, wave_field


class TestLinearPropagate:
    def test_zero_time_is_identity(self, grid_2d_small):
        f = random_sobolev_field(grid_2d_small, 0.5, seed=0)
        g = linear_propagate(f, Dispersion.SCHRODINGER, 0.0)
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_schrodinger_phase_on_single_mode(self):
        grid = Grid(1, 16)
        f = spectral_mode(grid, (3,))
        t = 0.37
        g = linear_propagate(f, Dispersion.SCHRODINGER, t)
        k3 = np.argmin(np.abs(grid.k_axis - 3))
        assert g.coeffs[k3] == pytest.approx(f.coeffs[k3] * np.exp(-9j * t), rel=1e-12)

    def test_kg_branches_use_exact_bessel_symbol(self):
        grid = Grid(1, 16)
        f = spectral_mode(grid, (2,))
        t = 0.5
        k2 = np.argmin(np.abs(grid.k_axis - 2))
        omega = math.sqrt(1.0 + 4.0)
        plus = linear_propagate(f, Dispersion.KG_PLUS, t)
        minus = linear_propagate(f, Dispersion.KG_MINUS, t)
        assert plus.coeffs[k2] == pytest.approx(f.coeffs[k2] * np.exp(-1j * omega * t), rel=1e-12)
        assert minus.coeffs[k2] == pytest.approx(f.coeffs[k2] * np.exp(1j * omega * t), rel=1e-12)

    @pytest.mark.parametrize("dispersion", list(Dispersion))
    def test_unitary_on_sobolev_norms(self, dispersion, grid_2d_small):
        f = random_sobolev_field(grid_2d_small, 0.0, seed=1)
        g = linear_propagate(f, dispersion, 0.83)
        for s in (0.0, 1.0, -0.5):
            assert sobolev_norm(g, s) == pytest.approx(sobolev_norm(f, s), rel=1e-12)

    @pytest.mark.parametrize("dispersion", list(Dispersion))
    def test_group_law(self, dispersion, grid_2d_small):
        f = random_sobolev_field(grid_2d_small, 0.0, seed=2)
        one = linear_propagate(linear_propagate(f, dispersion, 0.3), dispersion, 0.45)
        two = linear_propagate(f, dispersion, 0.75)
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


class TestWaveComponents:
    def test_zero_velocity_gives_equal_branches(self, grid_2d_small):
        v = random_sobolev_field(grid_2d_small, 1.0, seed=3, real=True)
        z = zero_field(grid_2d_small)
        state = SystemState(System.KGS, z, join_wave(v, z))
        assert np.max(np.abs(state.wplus.coeffs - v.coeffs)) < 1e-14
        assert np.max(np.abs(state.wminus.coeffs - v.coeffs)) < 1e-14

    def test_roundtrip_exact(self, grid_2d_small):
        v = random_sobolev_field(grid_2d_small, 1.0, seed=4, real=True)
        v_t = random_sobolev_field(grid_2d_small, 0.0, seed=5, real=True)
        v2, v_t2 = split_wave(join_wave(v, v_t))
        assert np.max(np.abs(v2.coeffs - v.coeffs)) < 1e-12 * np.max(np.abs(v.coeffs))
        assert np.max(np.abs(v_t2.coeffs - v_t.coeffs)) < 1e-12 * np.max(np.abs(v_t.coeffs))

    def test_derived_minus_branch_is_its_definition(self, grid_2d_small):
        # For real (v, v_t) the derived w- = conj w+ is w- = v - i A^{-1} v_t.
        v = random_sobolev_field(grid_2d_small, 1.0, seed=6, real=True)
        v_t = random_sobolev_field(grid_2d_small, 0.0, seed=7, real=True)
        state = SystemState(System.KGS, zero_field(grid_2d_small), join_wave(v, v_t))
        minus = v - 1j * bessel_potential(v_t, -1.0)
        scale = np.max(np.abs(minus.coeffs))
        assert np.max(np.abs(state.wminus.coeffs - minus.coeffs)) < 1e-12 * scale

    def test_time_is_keyword_only(self, grid_2d_small):
        # A leftover three-field call must not bind w- to t.
        z = zero_field(grid_2d_small)
        with pytest.raises(TypeError):
            SystemState(System.KGS, z, z, z)


def rhs_of(state: SystemState) -> tuple[np.ndarray, ...]:
    return nonlinear_rhs(state.system, state.grid, (state.u.coeffs, state.wplus.coeffs))


class TestNonlinearRhs:
    def test_zero_u_freezes_wave_rhs(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=8)
        state = SystemState(System.KGS, zero_field(grid_2d_small), state.wplus)
        du, dwp = rhs_of(state)
        assert np.max(np.abs(dwp)) < 1e-14
        assert np.max(np.abs(du)) < 1e-14

    def test_zero_wave_freezes_u_rhs(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=9)
        state = SystemState(System.KGS, state.u, zero_field(grid_2d_small))
        du, _ = rhs_of(state)
        assert np.max(np.abs(du)) < 1e-14

    def test_single_mode_hand_convolution_kgs(self):
        # u = e^{ix}, w+ = c e^{i2x}, w- = conj(c) e^{-i2x}:
        #   du  = (i/2) u (w+ + w-) = (i/2) (c e^{i3x} + conj(c) e^{-ix})
        #   dw+ = i <0>^{-1} * coefficient of |u|^2 = i at mode 0
        grid = Grid(1, 16)
        c = 0.3 - 0.2j
        state = SystemState(
            System.KGS, spectral_mode(grid, (1,)), spectral_mode(grid, (2,), amplitude=c)
        )
        du, dwp = rhs_of(state)
        k3, km1 = (np.argmin(np.abs(grid.k_axis - m)) for m in (3, -1))
        assert du[k3] == pytest.approx(0.5j * c * grid.volume, rel=1e-12)
        assert du[km1] == pytest.approx(0.5j * np.conj(c) * grid.volume, rel=1e-12)
        assert dwp[0] == pytest.approx(1j * grid.volume, rel=1e-12)

    def test_three_mode_hand_convolution_zakharov(self):
        # u = a e^{ix} + b e^{i2x}: |u|^2 = |a|^2+|b|^2 + a conj(b) e^{-ix} + conj(a) b e^{ix}.
        # n+ = c e^{i3x}, n- = conj(c) e^{-i3x}: Re n+ = (n+ + n-)/2.
        # du = -(i/2) u (n+ + n-); dn+ = i A^{-1}(Lap |u|^2 + Re n+); Lap kills the mean.
        grid = Grid(1, 16)
        a, b, c = 0.5 + 0.1j, -0.2 + 0.4j, 0.3 - 0.7j
        u = spectral_mode(grid, (1,), a) + spectral_mode(grid, (2,), b)
        nplus = spectral_mode(grid, (3,), c)
        state = SystemState(System.ZAKHAROV, u, nplus)
        du, dnp = rhs_of(state)
        k = {m: np.argmin(np.abs(grid.k_axis - m)) for m in (-3, -2, -1, 1, 3, 4, 5)}
        bracket1 = math.sqrt(2.0)
        bracket3 = math.sqrt(10.0)
        expected_k1 = 1j * (-1.0 / bracket1) * (np.conj(a) * b) * grid.volume
        expected_km1 = 1j * (-1.0 / bracket1) * (a * np.conj(b)) * grid.volume
        assert dnp[k[1]] == pytest.approx(expected_k1, rel=1e-12)
        assert dnp[k[-1]] == pytest.approx(expected_km1, rel=1e-12)
        assert dnp[0] == pytest.approx(0.0, abs=1e-13)
        re_k3 = 0.5 * c * grid.volume / bracket3
        assert dnp[k[3]] == pytest.approx(1j * re_k3, rel=1e-12)
        assert dnp[k[-3]] == pytest.approx(1j * np.conj(re_k3), rel=1e-12)
        assert du[k[4]] == pytest.approx(-0.5j * a * c * grid.volume, rel=1e-12)
        assert du[k[5]] == pytest.approx(-0.5j * b * c * grid.volume, rel=1e-12)
        assert du[k[-2]] == pytest.approx(-0.5j * a * np.conj(c) * grid.volume, rel=1e-12)
        assert du[k[-1]] == pytest.approx(-0.5j * b * np.conj(c) * grid.volume, rel=1e-12)


FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def run_kind(kind, grid, seed, steps, record_every=1):
    """Run one of the four right sides through its integrator over ``steps`` steps of 1e-2."""
    system = System.ZAKHAROV if kind == "zakharov" else System.KGS
    state = random_state(system, grid, seed=seed)
    config = IntegratorConfig(dt=1e-2, t_end=steps * 1e-2, record_every=record_every)
    if kind == "damped":
        damped = DampedState(state.u, wave_field(state), wave_field(state))
        integrate_damped(damped, DampedParams(gamma=0.5, delta=0.5), config)
    elif kind == "window":
        window = HighLowConfig(cutoff=4.0, s=0.95, r=0.95, dt=1e-2, delta=steps * 1e-2)
        advance_window(split_initial(state.u, state.wplus, 4.0), window)
    else:
        integrate(state, config)


KINDS = {"kgs": evolution, "zakharov": evolution, "damped": dissipative, "window": highlow}


class TestTransformCount:
    @pytest.mark.parametrize(
        "kind, expected", [("kgs", 4), ("zakharov", 4), ("damped", 4), ("window", 8)]
    )
    def test_fft_calls_per_rhs_call(self, kind, expected, monkeypatch, grid_2d_small):
        # Count numpy.fft/scipy.fft calls made inside the right sides handed
        # to the stepper, and the stepper's calls of the half-step flow; an
        # edit that adds transforms or half-steps fails here.
        import numpy.fft
        import scipy.fft

        counts = {"fft": 0, "rhs": 0, "fft_in_rhs": 0, "half_step": 0, "allocating_in_rhs": 0}
        by_name_in_rhs = dict.fromkeys(FFT_FUNCTIONS, 0)
        in_rhs = [False]

        def counted(fn, name):
            def call(*args, **kwargs):
                counts["fft"] += 1
                if in_rhs[0]:
                    by_name_in_rhs[name] += 1
                    counts["allocating_in_rhs"] += kwargs.get("out") is None
                return fn(*args, **kwargs)

            return call

        for module in (numpy.fft, scipy.fft):
            for name in FFT_FUNCTIONS:
                monkeypatch.setattr(module, name, counted(getattr(module, name), name))

        module = KINDS[kind]
        stepper = module.lawson_rk4_run

        def counting_stepper(fields, rhs, half_step, *args, **kwargs):
            def counted_rhs(y, out):
                before = counts["fft"]
                in_rhs[0] = True
                rhs(y, out)
                in_rhs[0] = False
                counts["rhs"] += 1
                counts["fft_in_rhs"] += counts["fft"] - before
                return out

            def counted_half_step(y, out):
                counts["half_step"] += 1
                return half_step(y, out)

            return stepper(fields, counted_rhs, counted_half_step, *args, **kwargs)

        monkeypatch.setattr(module, "lawson_rk4_run", counting_stepper)
        run_kind(kind, grid_2d_small, seed=15, steps=2)
        assert counts["rhs"] == 8
        assert counts["half_step"] == 8
        # ``expected`` transforms per call, each run as one 1-D pass per axis.
        d = grid_2d_small.dim
        assert counts["fft_in_rhs"] == expected * d * counts["rhs"]
        # Per coupling product: u to samples (d complex inverse passes), the
        # real wave to samples from its half spectrum (d - 1 complex inverse
        # passes, then one real inverse), their product back (d complex
        # forward passes) and |u|^2 back (one real forward pass, then d - 1
        # complex forward passes).
        products = expected // 4 * counts["rhs"]
        assert {k: v for k, v in by_name_in_rhs.items() if v} == {
            "ifft": (2 * d - 1) * products,
            "irfft": products,
            "fft": (2 * d - 1) * products,
            "rfft": products,
        }
        # Every one of them writes into a buffer (out=) instead of allocating.
        assert counts["allocating_in_rhs"] == 0

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8), (4, 8)])
    def test_kernel_passes_equal_numpy_nd_transforms(self, dim, n):
        # The kernel's 1-D passes run in the axis order of numpy's n-d
        # functions, so its outputs equal the same arithmetic on
        # ifftn/irfftn/fftn/rfftn bit for bit.
        grid = Grid(dim, n)
        u = random_sobolev_field(grid, 0.0, seed=40 + dim).coeffs
        wave = half_real_part(random_sobolev_field(grid, 0.0, seed=50 + dim).coeffs)
        axes = tuple(range(dim))
        u_x = np.fft.ifftn(u)
        wave_x = np.fft.irfftn(wave, s=grid.shape, axes=axes)
        product = np.empty_like(u_x)
        product.real = u_x.real * wave_x
        product.imag = u_x.imag * wave_x
        symbols = grid_symbols(grid)
        want_uw = np.fft.fftn(product) * symbols.dealias_scale
        abs2 = u_x.real * u_x.real + u_x.imag * u_x.imag
        want_abs2 = np.fft.rfftn(abs2) * symbols.half_dealias_scale
        uw, got_abs2 = CouplingKernel(grid)(u, wave)
        assert np.array_equal(uw, want_uw)
        assert np.array_equal(got_abs2, want_abs2)


SMALL_OBJECTS = 4096  # bytes of Python objects (tuples, floats) a call may make


def traced_peak(call):
    """Peak bytes allocated while ``call()`` runs, after two warm-up calls."""
    import tracemalloc

    call()
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestCouplingKernelRuns:
    def test_rhs_allocates_only_its_outputs_and_real_part(self):
        # After warm-up, one KGS right side allocates du and dw+ and no
        # other array: every transform writes into the run's kernel buffers,
        # and Re w+ and |u|^2 stay in them.  Given its outputs, it allocates
        # no array at all.
        grid = Grid(2, 128)
        state = random_state(System.KGS, grid, seed=21)
        fields = (state.u.coeffs, state.wplus.coeffs)
        kernel = CouplingKernel(grid)
        out = nonlinear_rhs(System.KGS, grid, fields, kernel)
        array_bytes = state.u.coeffs.nbytes
        assert all(a.nbytes == array_bytes for a in out)
        peak = traced_peak(lambda: nonlinear_rhs(System.KGS, grid, fields, kernel))
        assert 2 * array_bytes <= peak <= 2 * array_bytes + SMALL_OBJECTS
        assert traced_peak(lambda: nonlinear_rhs(System.KGS, grid, fields, kernel, out)) <= SMALL_OBJECTS

    def test_pooled_runs_equal_serial_runs(self):
        # Smoothing-scan members integrate at the same time on one grid; each
        # run owns its kernel buffers, so pooled runs are bit-identical to
        # serial ones.  More threads than cores and a short switch interval
        # interleave the runs as much as possible.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        grid = Grid(2, 64)
        states = [random_state(System.KGS, grid, seed=30 + i) for i in range(4)]
        config = IntegratorConfig(dt=1e-3, t_end=0.03, record_every=10**9)

        def final(state):
            end = integrate(state, config)[-1]
            return end.u.coeffs, end.wplus.coeffs

        serial = [final(state) for state in states]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                pooled = list(pool.map(final, states, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, pooled):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


def allocating(flow):
    """A stepper callback ``flow(y, out)`` called as ``flow(y)`` with fresh outputs."""
    return lambda y: flow(y, tuple(np.empty_like(a) for a in y))


def writing(values_of):
    """A stepper callback ``flow(y, out)`` from a function that returns fresh arrays."""

    def flow(y, out):
        for target, value in zip(out, values_of(y)):
            target[...] = value
        return out

    return flow


def seven_application_run(fields, rhs, half_step, dt, n_steps):
    """The Lawson RK4 step in its seven-application form, the oracle for `lawson_rk4_run`."""
    rhs, half_step = allocating(rhs), allocating(half_step)
    y = fields
    for _ in range(n_steps):
        n1 = rhs(y)
        y2 = half_step(tuple(a + (0.5 * dt) * b for a, b in zip(y, n1)))
        n2 = rhs(y2)
        py = half_step(y)
        y3 = tuple(a + (0.5 * dt) * b for a, b in zip(py, n2))
        n3 = rhs(y3)
        ppy = half_step(py)
        y4 = half_step(tuple(a + dt * b for a, b in zip(py, n3)))
        n4 = rhs(y4)
        pn1 = half_step(half_step(n1))
        pn23 = half_step(tuple(a + b for a, b in zip(n2, n3)))
        y = tuple(
            base + (dt / 6.0) * (k1 + 2.0 * k23 + k4)
            for base, k1, k23, k4 in zip(ppy, pn1, pn23, n4)
        )
    return y


def allocating_four_application_run(fields, rhs, half_step, dt, n_steps):
    """The four-application step with a fresh array for every result, as it was
    before the stepper got its workspace: the bit-identity oracle."""
    rhs, half_step = allocating(rhs), allocating(half_step)
    h = 0.5 * dt
    y = fields
    for _ in range(n_steps):
        n1 = rhs(y)
        py = half_step(y)
        pn1 = half_step(n1)
        n2 = rhs(tuple(a + h * b for a, b in zip(py, pn1)))
        n3 = rhs(tuple(a + h * b for a, b in zip(py, n2)))
        n4 = rhs(half_step(tuple(a + dt * b for a, b in zip(py, n3))))
        mid = tuple(
            a + (dt / 6.0) * b + (dt / 3.0) * (c + d) for a, b, c, d in zip(py, pn1, n2, n3)
        )
        y = tuple(a + (dt / 6.0) * b for a, b in zip(half_step(mid), n4))
    return y


STEPPER_KINDS = [("kgs", 32), ("zakharov", 32), ("damped", 32), ("window", 16)]


class TestStepperOracle:
    @pytest.mark.parametrize("kind, n", STEPPER_KINDS)
    def test_matches_seven_application_step(self, kind, n, monkeypatch):
        # P is linear, so the four-application step is the same scheme.
        module = KINDS[kind]
        stepper = module.lawson_rk4_run
        finals = []

        def both(fields, rhs, half_step, dt, n_steps, observer=None):
            new = stepper(fields, rhs, half_step, dt, n_steps, observer)
            finals.append((new, seven_application_run(fields, rhs, half_step, dt, n_steps)))
            return new

        monkeypatch.setattr(module, "lawson_rk4_run", both)
        run_kind(kind, Grid(2, n), seed=16, steps=10)
        ((new, old),) = finals
        for a, b in zip(new, old):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("kind, n", STEPPER_KINDS)
    def test_bit_identical_to_allocating_step(self, kind, n, monkeypatch):
        # The workspace forms every combination in place in the operation
        # order of the allocating step, so the bits agree.
        module = KINDS[kind]
        stepper = module.lawson_rk4_run
        finals = []

        def both(fields, rhs, half_step, dt, n_steps, observer=None):
            new = stepper(fields, rhs, half_step, dt, n_steps, observer)
            old = allocating_four_application_run(fields, rhs, half_step, dt, n_steps)
            finals.append((new, old))
            return new

        monkeypatch.setattr(module, "lawson_rk4_run", both)
        run_kind(kind, Grid(2, n), seed=19, steps=10)
        ((new, old),) = finals
        for a, b in zip(new, old):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()  # signed zeros too

    @pytest.mark.parametrize("kind, n", [("kgs", 128), ("damped", 64)])
    def test_step_allocates_nothing_after_warm_up(self, kind, n, monkeypatch):
        # Between two observer calls (a whole step: four right sides, four
        # half-steps, the stage sums and the guard) no array is allocated.
        import tracemalloc

        module = KINDS[kind]
        stepper = module.lawson_rk4_run
        traced = {}

        def measuring(fields, rhs, half_step, dt, n_steps, observer=None):
            def observe(step, y):
                observer(step, y)
                if step == 2:  # two warm-up steps
                    tracemalloc.start()
                    traced["before"] = tracemalloc.get_traced_memory()[0]
                elif step == 3:
                    traced["peak"] = tracemalloc.get_traced_memory()[1] - traced["before"]
                    tracemalloc.stop()

            return stepper(fields, rhs, half_step, dt, n_steps, observe)

        monkeypatch.setattr(module, "lawson_rk4_run", measuring)
        try:
            run_kind(kind, Grid(2, n), seed=20, steps=4, record_every=10**9)
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        assert traced["peak"] <= SMALL_OBJECTS


def three_field_rhs(system, grid, fields):
    """The right side on ``(u, w+, w-)`` with ``w-`` integrated as a field of its own."""
    u, wplus, wminus = fields
    uw, abs2 = coupling_products(grid, u, wplus + wminus)
    inverse_a = grid.bracket**-1.0
    if system is System.KGS:
        kick = 1j * inverse_a * abs2
        return 0.5j * uw, kick, -kick
    lap_abs2 = -grid.xi_squared * abs2
    return (
        -0.5j * uw,
        1j * inverse_a * (lap_abs2 + real_part(wplus)),
        -1j * inverse_a * (lap_abs2 + real_part(wminus)),
    )


def six_field_window_rhs(grid, fields):
    """The high-low window right side on ``(phi, psi+, psi-, mu, lam+, lam-)``."""
    low = fields[:3]
    d_low = three_field_rhs(System.KGS, grid, low)
    d_total = three_field_rhs(System.KGS, grid, tuple(a + b for a, b in zip(low, fields[3:])))
    return d_low + tuple(t - l for t, l in zip(d_total, d_low))


THREE_FIELD_DISPERSIONS = (Dispersion.SCHRODINGER, Dispersion.KG_PLUS, Dispersion.KG_MINUS)


class TestThreeFieldOracle:
    @pytest.mark.parametrize("kind, n", [("kgs", 32), ("zakharov", 32), ("window", 16)])
    def test_matches_step_with_integrated_minus_branch(self, kind, n, monkeypatch):
        # Carrying w+ alone and deriving w- = conj w+ is the same scheme as
        # integrating w- as a field of its own, which keeps it conj w+.
        module = KINDS[kind]
        stepper = module.lawson_rk4_run
        runs = []

        def record(fields, rhs, half_step, dt, n_steps, observer=None):
            new = stepper(fields, rhs, half_step, dt, n_steps, observer)
            runs.append((fields, new, dt, n_steps))
            return new

        monkeypatch.setattr(module, "lawson_rk4_run", record)
        grid = Grid(2, n)
        run_kind(kind, grid, seed=17, steps=10)
        ((start, new, dt, n_steps),) = runs
        plus = [0, 1, 3, 4] if kind == "window" else [0, 1]
        minus_of = {2: 1, 5: 4} if kind == "window" else {2: 1}
        old_start = [None] * (len(plus) + len(minus_of))
        for i, f in zip(plus, start):
            old_start[i] = f
        for m, p in minus_of.items():
            old_start[m] = conjugate(old_start[p])
        if kind == "window":
            rhs = writing(lambda y: six_field_window_rhs(grid, y))
            dispersions = 2 * THREE_FIELD_DISPERSIONS
        else:
            system = System.ZAKHAROV if kind == "zakharov" else System.KGS
            rhs = writing(lambda y: three_field_rhs(system, grid, y))
            dispersions = THREE_FIELD_DISPERSIONS
        old = stepper(tuple(old_start), rhs, free_flow(grid, dispersions, dt / 2), dt, n_steps)
        for i, a in zip(plus, new):
            assert np.max(np.abs(a - old[i])) <= 1e-13 * np.max(np.abs(old[i]))
        for m, p in minus_of.items():
            assert np.max(np.abs(old[m] - conjugate(old[p]))) <= 1e-13 * np.max(np.abs(old[p]))


class TestIntegrate:
    def test_zero_data_stays_zero(self, grid_2d_small):
        z = zero_field(grid_2d_small)
        state = SystemState(System.KGS, z, z)
        traj = integrate(state, IntegratorConfig(dt=1e-2, t_end=0.1))
        assert all(l2_norm(s.u) == 0 and l2_norm(s.wplus) == 0 for s in traj)

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_zero_u_decouples_wave(self, system, grid_2d_small):
        base = random_state(system, grid_2d_small, seed=10)
        state = SystemState(system, zero_field(grid_2d_small), base.wplus)
        traj = integrate(state, IntegratorConfig(dt=1e-2, t_end=0.2))
        final = traj[-1]
        # Zakharov keeps its bounded correction term even without u, so the
        # wave part is exactly linear only for the KGS system.
        if system is System.KGS:
            exact = linear_propagate(state.wplus, Dispersion.KG_PLUS, final.t)
            scale = max(1.0, np.max(np.abs(exact.coeffs)))
            assert np.max(np.abs(final.wplus.coeffs - exact.coeffs)) < 1e-12 * scale
            assert l2_norm(final.u) == 0.0
        else:
            assert l2_norm(final.u) == 0.0
            assert l2_norm(final.wplus) > 0.0

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_fourth_order_self_refinement(self, system):
        grid = Grid(1, 32)
        state = random_state(system, grid, seed=11, s=2.0, r=2.0, amplitude=0.5)
        t_end = 0.25
        ref = integrate(state, IntegratorConfig(dt=t_end / 1024, t_end=t_end, record_every=10**9))[-1]
        coarse = integrate(state, IntegratorConfig(dt=t_end / 16, t_end=t_end, record_every=10**9))[-1]
        fine = integrate(state, IntegratorConfig(dt=t_end / 32, t_end=t_end, record_every=10**9))[-1]
        err_coarse = l2_norm(coarse.u - ref.u) + l2_norm(coarse.wplus - ref.wplus)
        err_fine = l2_norm(fine.u - ref.u) + l2_norm(fine.wplus - ref.wplus)
        assert 12.0 <= err_coarse / err_fine <= 20.0

    def test_phase_gauge_invariance(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=12, amplitude=0.8)
        theta = 0.7
        rotated = SystemState(System.KGS, np.exp(1j * theta) * state.u, state.wplus)
        config = IntegratorConfig(dt=5e-3, t_end=0.2, record_every=10**9)
        a = integrate(state, config)[-1]
        b = integrate(rotated, config)[-1]
        scale = max(1.0, np.max(np.abs(a.u.coeffs)))
        assert np.max(np.abs(b.u.coeffs - np.exp(1j * theta) * a.u.coeffs)) < 1e-10 * scale
        assert np.max(np.abs(b.wplus.coeffs - a.wplus.coeffs)) < 1e-10 * scale

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_wminus_is_sample_space_conjugate_along_trajectory(self, system, grid_2d_small):
        state = random_state(system, grid_2d_small, seed=13, amplitude=0.7)
        traj = integrate(state, IntegratorConfig(dt=5e-3, t_end=0.3, record_every=20))
        for s in traj:
            by_samples = to_coefficients(np.conj(to_samples(s.wplus)), s.grid)
            assert l2_norm(s.wminus - by_samples) <= 1e-14 * l2_norm(s.wplus)

    @pytest.mark.parametrize("integrator", ["integrate", "integrate_damped", "run_global"])
    def test_blowup_guard_aborts_with_diagnostics(self, integrator, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=14)
        guard = IntegratorConfig(dt=1e-2, t_end=0.1, blowup_threshold=1e-9)
        if integrator == "integrate":
            fields = {"u": state.u, "wplus": state.wplus}
            run = lambda: integrate(state, guard)
        elif integrator == "integrate_damped":
            damped = DampedState(state.u, wave_field(state), wave_field(state))
            fields = {"u": damped.u, "v": damped.v, "w": damped.w}
            run = lambda: integrate_damped(damped, DampedParams(gamma=0.5, delta=0.5), guard)
        else:
            config = HighLowConfig(
                cutoff=4,
                s=0.95,
                r=0.95,
                delta=0.1,
                dt=1e-2,
                t_end=0.1,
                gns_c1=1.0,
                gns_c2=1.0,
                blowup_threshold=1e-9,
            )
            split = split_initial(state.u, state.wplus, config.cutoff)
            fields = {name: getattr(split, name) for name in ("phi", "psi_plus", "mu", "lam_plus")}
            run = lambda: run_global(state.u, state.wplus, config)
        with pytest.raises(BlowUpError) as err:
            run()
        assert err.value.t == pytest.approx(1e-2)
        assert set(err.value.norms) == {f"{name}_L2" for name in fields}
        # One short step barely moves the per-field L2 norms.
        for name, f in fields.items():
            assert err.value.norms[f"{name}_L2"] == pytest.approx(l2_norm(f), rel=0.2)

    def test_last_step_recorded_when_record_every_does_not_divide(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=15, amplitude=0.5)
        traj = integrate(state, IntegratorConfig(dt=1e-2, t_end=0.05, record_every=2))
        assert traj.steps == [0, 2, 4, 5]
        assert [s.t for s in traj] == pytest.approx([0.0, 0.02, 0.04, 0.05], abs=1e-15)

    @pytest.mark.parametrize(
        "t_end, dt, n_steps, dt_eff",
        [(0.02, 1e-3, 20, 1e-3), (1.0, 0.3, 4, 0.25), (0.05, 1.0, 1, 0.05), (1.0, 1e-8, 10**8, 1e-8)],
    )
    def test_time_grid_ends_at_t_end(self, t_end, dt, n_steps, dt_eff):
        assert time_grid(t_end, dt) == (n_steps, pytest.approx(dt_eff, rel=1e-12))


class TestConservedQuantities:
    def test_zero_state(self, grid_2d_small):
        z = zero_field(grid_2d_small)
        report = conserved_quantities(SystemState(System.KGS, z, z))
        assert report.mass == 0.0
        assert report.hamiltonian == 0.0

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_single_mode_energy_is_gradient_term(self, system):
        grid = Grid(2, 16)
        u = spectral_mode(grid, (3, 0))
        u = (1.0 / l2_norm(u)) * u  # unit mass
        state = SystemState(system, u, zero_field(grid))
        report = conserved_quantities(state)
        assert report.mass == pytest.approx(1.0, rel=1e-12)
        assert report.hamiltonian == pytest.approx(9.0, rel=1e-10)

    def test_zakharov_zero_mode_reported(self, grid_2d_small):
        v = random_sobolev_field(grid_2d_small, 1.0, seed=17, real=True)
        v_t_coeffs = np.zeros(grid_2d_small.shape, dtype=complex)
        v_t_coeffs[0, 0] = 2.5 * grid_2d_small.volume
        from dispersmooth.spectral import SpectralField

        v_t = SpectralField(grid_2d_small, v_t_coeffs)
        state = SystemState(System.ZAKHAROV, zero_field(grid_2d_small), join_wave(v, v_t))
        report = conserved_quantities(state)
        assert report.zero_mode_mass_of_wave == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_short_run_drift_is_small(self, system):
        grid = Grid(2, 16)
        state = random_state(
            system, grid, seed=18, s=2.0, r=2.0, amplitude=1.0, zero_mean_wave_velocity=True
        )
        traj = integrate(state, IntegratorConfig(dt=2e-3, t_end=0.2, record_every=50))
        e0 = conserved_quantities(traj[0])
        e1 = conserved_quantities(traj[-1])
        assert abs(e1.mass - e0.mass) / e0.mass < 1e-9
        assert abs(e1.hamiltonian - e0.hamiltonian) / abs(e0.hamiltonian) < 1e-7
