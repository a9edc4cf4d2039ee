"""Tests for the exact linear flow, nonlinear right sides, and time integration."""

import math

import numpy as np
import pytest

from dispersmooth import dissipative, evolution, highlow, spectral
from dispersmooth.dissipative import DampedParams, integrate_damped
from dispersmooth.errors import BlowUpError, ConfigurationError, GridMismatchError
from dispersmooth.evolution import (
    IntegratorConfig,
    Recorder,
    System,
    SystemState,
    block_flow,
    box_wplus,
    conserved_quantities,
    integrate,
    lawson_rk4_run,
    nonlinear_rhs,
    random_system_state,
    time_grid,
)
from dispersmooth.highlow import HighLowConfig, advance_window, run_global, split_initial
from dispersmooth.spectral import (
    CouplingKernel,
    Grid,
    box_norm,
    conjugate,
    half_spectrum,
    random_sobolev_field,
    to_coefficients,
    to_samples,
)

from conftest import (
    FREE_SYMBOLS,
    SpectralField,
    bessel_potential,
    conserved,
    coupling_products,
    cubic_term,
    dealias,
    free_flow,
    from_box,
    from_full,
    full,
    full_rhs,
    join_wave,
    joined_system_state,
    lattice,
    lattice_field,
    make_state,
    norm,
    random_state,
    real_part,
    scaled,
    spectral_cubic_pairing,
    spectral_mode,
    split_wave,
    state_conserved_quantities,
    zero_field,
)

DISPERSIONS = list(FREE_SYMBOLS)


def flowed(f: SpectralField, dispersion: str, t: float) -> SpectralField:
    """`block_flow` over ``t`` of a band-limited ``f`` carried as ``u`` ("schrodinger"),
    as the ``w+`` of a real wave ("kg_plus"), or as its ``w- = conj w+`` ("kg_minus")."""
    z = zero_field(f.grid)
    if dispersion == "schrodinger":
        state = make_state(System.KGS, f, z)
    else:
        wplus = f if dispersion == "kg_plus" else SpectralField(f.grid, conjugate(f.coeffs))
        state = make_state(System.KGS, z, wplus)
    moved = SystemState(System.KGS, f.grid, *block_flow(f.grid, t)(state.fields))
    out = full(moved)
    return {"schrodinger": out.u, "kg_plus": out.wplus, "kg_minus": out.wminus}[dispersion]


class TestLinearPropagate:
    def test_zero_time_is_identity(self, grid_2d_small):
        f = dealias(lattice_field(grid_2d_small, 0.5, seed=0))
        g = flowed(f, "schrodinger", 0.0)
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_schrodinger_phase_on_single_mode(self):
        grid = Grid(1, 16)
        f = spectral_mode(grid, (3,))
        t = 0.37
        g = flowed(f, "schrodinger", t)
        k3 = np.argmin(np.abs(grid.k_axis - 3))
        assert g.coeffs[k3] == pytest.approx(f.coeffs[k3] * np.exp(-9j * t), rel=1e-12)

    def test_kg_branches_use_exact_bessel_symbol(self):
        grid = Grid(1, 16)
        f = spectral_mode(grid, (2,))
        t = 0.5
        k2 = np.argmin(np.abs(grid.k_axis - 2))
        omega = math.sqrt(1.0 + 4.0)
        plus = flowed(f, "kg_plus", t)
        minus = flowed(f, "kg_minus", t)
        assert plus.coeffs[k2] == pytest.approx(f.coeffs[k2] * np.exp(-1j * omega * t), rel=1e-12)
        assert minus.coeffs[k2] == pytest.approx(f.coeffs[k2] * np.exp(1j * omega * t), rel=1e-12)

    @pytest.mark.parametrize("dispersion", DISPERSIONS)
    def test_unitary_on_sobolev_norms(self, dispersion, grid_2d_small):
        f = dealias(lattice_field(grid_2d_small, 0.0, seed=1))
        g = flowed(f, dispersion, 0.83)
        for s in (0.0, 1.0, -0.5):
            assert norm(g, s) == pytest.approx(norm(f, s), rel=1e-12)

    @pytest.mark.parametrize("dispersion", DISPERSIONS)
    def test_group_law(self, dispersion, grid_2d_small):
        f = dealias(lattice_field(grid_2d_small, 0.0, seed=2))
        one = flowed(flowed(f, dispersion, 0.3), dispersion, 0.45)
        two = flowed(f, dispersion, 0.75)
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    @pytest.mark.parametrize("dispersion", DISPERSIONS)
    def test_matches_full_spectrum_multiplier(self, dispersion, grid_2d_small):
        # The oracle multiplies the whole lattice by exp(-+ i t |xi|^2) or
        # exp(-+ i t <xi>); the block acts on (v, v_t) of the real wave.
        f = dealias(lattice_field(grid_2d_small, 0.0, seed=3))
        want = free_flow(f, dispersion, 0.61)
        got = flowed(f, dispersion, 0.61)
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13 * np.max(np.abs(f.coeffs))

    def test_minus_branch_is_conjugate_of_plus(self, grid_2d_small):
        # exp(i t <xi>) on w- = conj w+ is the conjugate of exp(-i t <xi>) on w+.
        f = dealias(lattice_field(grid_2d_small, 0.0, seed=4))
        plus = flowed(f, "kg_plus", 0.4)
        minus = flowed(SpectralField(grid_2d_small, conjugate(f.coeffs)), "kg_minus", 0.4)
        assert np.max(np.abs(minus.coeffs - conjugate(plus.coeffs))) < 1e-13 * np.max(np.abs(f.coeffs))


class TestWaveComponents:
    def test_zero_velocity_gives_equal_branches(self, grid_2d_small):
        v = dealias(lattice_field(grid_2d_small, 1.0, seed=3, real=True))
        z = zero_field(grid_2d_small)
        state = full(make_state(System.KGS, z, join_wave(v, z)))
        assert np.max(np.abs(state.wplus.coeffs - v.coeffs)) < 1e-14
        assert np.max(np.abs(state.wminus.coeffs - v.coeffs)) < 1e-14

    def test_roundtrip_exact(self, grid_2d_small):
        v = lattice_field(grid_2d_small, 1.0, seed=4, real=True)
        v_t = lattice_field(grid_2d_small, 0.0, seed=5, real=True)
        v2, v_t2 = split_wave(join_wave(v, v_t))
        assert np.max(np.abs(v2.coeffs - v.coeffs)) < 1e-12 * np.max(np.abs(v.coeffs))
        assert np.max(np.abs(v_t2.coeffs - v_t.coeffs)) < 1e-12 * np.max(np.abs(v_t.coeffs))

    def test_derived_minus_branch_is_its_definition(self, grid_2d_small):
        # For the carried real (v, v_t), conj of the expanded w+ (the w- of
        # the checkpoint) is w- = v - i A^{-1} v_t.
        v = dealias(lattice_field(grid_2d_small, 1.0, seed=6, real=True))
        v_t = dealias(lattice_field(grid_2d_small, 0.0, seed=7, real=True))
        state = from_full(System.KGS, zero_field(grid_2d_small), v, v_t)
        minus = v - 1j * bessel_potential(v_t, -1.0)
        scale = np.max(np.abs(minus.coeffs))
        assert np.max(np.abs(full(state).wminus.coeffs - minus.coeffs)) < 1e-12 * scale

    def test_time_is_keyword_only(self, grid_2d_small):
        # A positional time must not bind to a field.
        state = random_state(System.KGS, grid_2d_small, seed=5)
        with pytest.raises(TypeError):
            SystemState(System.KGS, grid_2d_small, *state.fields, 0.5)


def rhs_of(state: SystemState) -> tuple[np.ndarray, ...]:
    """``(du, dv, dw)`` of a state's carried ``(u, v, v_t)``, as full spectra."""
    return full_rhs(state)


class TestNonlinearRhs:
    def test_zero_u_freezes_wave_rhs(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=8)
        state = make_state(System.KGS, zero_field(grid_2d_small), full(state).wplus)
        du, dv, dw = rhs_of(state)
        assert np.max(np.abs(dw)) < 1e-14
        assert not np.any(dv)
        assert np.max(np.abs(du)) < 1e-14

    def test_zero_wave_freezes_u_rhs(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=9)
        state = make_state(System.KGS, full(state).u, zero_field(grid_2d_small))
        du, _, _ = rhs_of(state)
        assert np.max(np.abs(du)) < 1e-14

    def test_single_mode_hand_convolution_kgs(self):
        # u = e^{ix}, w+ = c e^{i2x}, so v = Re w+ = (c e^{i2x} + conj(c) e^{-i2x}) / 2:
        #   du = i u v = (i/2) (c e^{i3x} + conj(c) e^{-ix})
        #   dv = 0, dw = |u|^2 = 1 at mode 0
        grid = Grid(1, 16)
        c = 0.3 - 0.2j
        state = make_state(
            System.KGS, spectral_mode(grid, (1,)), spectral_mode(grid, (2,), amplitude=c)
        )
        du, dv, dw = rhs_of(state)
        k3, km1 = (np.argmin(np.abs(grid.k_axis - m)) for m in (3, -1))
        assert du[k3] == pytest.approx(0.5j * c * grid.volume, rel=1e-12)
        assert du[km1] == pytest.approx(0.5j * np.conj(c) * grid.volume, rel=1e-12)
        assert dw[0] == pytest.approx(grid.volume, rel=1e-12)
        assert not np.any(dv)

    def test_three_mode_hand_convolution_zakharov(self):
        # u = a e^{ix} + b e^{i2x}: |u|^2 = |a|^2+|b|^2 + a conj(b) e^{-ix} + conj(a) b e^{ix}.
        # n+ = c e^{i3x}, n- = conj(c) e^{-i3x}: n = Re n+ = (n+ + n-)/2.
        # du = -i u n; dn = 0; dn_t = Lap |u|^2 + n; Lap kills the mean.
        grid = Grid(1, 16)
        a, b, c = 0.5 + 0.1j, -0.2 + 0.4j, 0.3 - 0.7j
        u = spectral_mode(grid, (1,), a) + spectral_mode(grid, (2,), b)
        nplus = spectral_mode(grid, (3,), c)
        state = make_state(System.ZAKHAROV, u, nplus)
        du, dn, dnt = rhs_of(state)
        k = {m: np.argmin(np.abs(grid.k_axis - m)) for m in (-3, -2, -1, 1, 3, 4, 5)}
        expected_k1 = -(np.conj(a) * b) * grid.volume  # |xi|^2 = 1
        expected_km1 = -(a * np.conj(b)) * grid.volume
        assert dnt[k[1]] == pytest.approx(expected_k1, rel=1e-12)
        assert dnt[k[-1]] == pytest.approx(expected_km1, rel=1e-12)
        assert dnt[0] == pytest.approx(0.0, abs=1e-13)
        re_k3 = 0.5 * c * grid.volume
        assert dnt[k[3]] == pytest.approx(re_k3, rel=1e-12)
        assert dnt[k[-3]] == pytest.approx(np.conj(re_k3), rel=1e-12)
        assert not np.any(dn)
        assert du[k[4]] == pytest.approx(-0.5j * a * c * grid.volume, rel=1e-12)
        assert du[k[5]] == pytest.approx(-0.5j * b * c * grid.volume, rel=1e-12)
        assert du[k[-2]] == pytest.approx(-0.5j * a * np.conj(c) * grid.volume, rel=1e-12)
        assert du[k[-1]] == pytest.approx(-0.5j * b * np.conj(c) * grid.volume, rel=1e-12)


FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def run_kind(kind, grid, seed, steps, record_every=1):
    """Run one of the four right sides through its integrator over ``steps`` steps of 1e-2;
    the trajectory, or the window's new `HighLowState`."""
    system = System.ZAKHAROV if kind == "zakharov" else System.KGS
    state = random_state(system, grid, seed=seed)
    config = IntegratorConfig(dt=1e-2, t_end=steps * 1e-2, record_every=record_every)
    if kind == "damped":
        damped = SystemState(System.KGS, grid, state.u, state.v, state.v)
        return integrate_damped(damped, DampedParams(gamma=0.5, delta=0.5), config)
    if kind == "window":
        return advance_window(split_initial(state, 4.0), config)[0]
    return integrate(state, config)


KINDS = {"kgs": evolution, "zakharov": evolution, "damped": dissipative, "window": highlow}


class TestTransformCount:
    @pytest.mark.parametrize(
        "kind, expected", [("kgs", 4), ("zakharov", 4), ("damped", 4), ("window", 8)]
    )
    def test_fft_calls_per_rhs_call(self, kind, expected, monkeypatch, grid_2d_small):
        # Count the kernel's 1-D passes (the pass table `spectral._PASSES`)
        # and any other numpy.fft/scipy.fft call made inside the right sides
        # handed to the stepper, and the stepper's calls of the half-step
        # flow; an edit that adds transforms or half-steps fails here.
        import numpy.fft
        import scipy.fft

        counts = {"rhs": 0, "half_step": 0, "allocating_in_rhs": 0, "other_fft_in_rhs": 0}
        lines_in_rhs = dict.fromkeys(spectral._Passes._fields, 0)
        inside = {"rhs": False, "pass": False}

        def counted_pass(fn, name):
            def call(a, fct, axes, out=None):
                if inside["rhs"]:
                    lines_in_rhs[name] += a.size // a.shape[axes[0][0]]  # 1-D lines transformed
                    counts["allocating_in_rhs"] += out is None
                inside["pass"] = True  # a fallback pass calls numpy.fft itself
                try:
                    return fn(a, fct, axes=axes, out=out)
                finally:
                    inside["pass"] = False

            return call

        def counted_fft(fn):
            def call(*args, **kwargs):
                counts["other_fft_in_rhs"] += inside["rhs"] and not inside["pass"]
                return fn(*args, **kwargs)

            return call

        passes = spectral._Passes(*map(counted_pass, spectral._PASSES, spectral._Passes._fields))
        monkeypatch.setattr(spectral, "_PASSES", passes)
        for module in (numpy.fft, scipy.fft):
            for name in FFT_FUNCTIONS:
                monkeypatch.setattr(module, name, counted_fft(getattr(module, name)))

        module = KINDS[kind]
        stepper = module.lawson_rk4_run

        def counting_stepper(fields, rhs, half_step, *args, **kwargs):
            def counted_rhs(y, out):
                inside["rhs"] = True
                rhs(y, out)
                inside["rhs"] = False
                counts["rhs"] += 1
                return out

            def counted_half_step(y, out):
                counts["half_step"] += 1
                return half_step(y, out)

            return stepper(fields, counted_rhs, counted_half_step, *args, **kwargs)

        monkeypatch.setattr(module, "lawson_rk4_run", counting_stepper)
        run_kind(kind, grid_2d_small, seed=15, steps=2)
        assert counts["rhs"] == 4 * 2 + 1  # first same as last: the last N(y) is formed too
        assert counts["half_step"] == 8
        # No transform outside the kernel's passes.
        assert counts["other_fft_in_rhs"] == 0
        # ``expected`` transforms per call, four per coupling product, each
        # run as 1-D passes on the lines (``a.size // a.shape[axis]`` of a
        # pass's input) that hold box modes: n = 16 per axis, m = 11 box
        # rows and h = 6 half-spectrum columns.  u to samples: m lines over
        # axis 1, then n over axis 0; the real wave: h complex lines over
        # axis 0, then n real ones; their product back: n over axis 1, then
        # m over axis 0; |u|^2 back: n real lines, then h complex ones.  A
        # pass split into block calls transforms the same lines.
        assert grid_2d_small.shape == (16, 16)
        products = expected // 4 * counts["rhs"]
        assert lines_in_rhs == {
            "ifft": (11 + 16 + 6) * products,
            "irfft": 16 * products,
            "fft": (16 + 11 + 6) * products,
            "rfft": 16 * products,
        }
        # Every one of them writes into a buffer (out=) instead of allocating.
        assert counts["allocating_in_rhs"] == 0

    @pytest.mark.parametrize("dim, n", [(1, 16), (1, 32), (2, 8), (2, 32), (3, 8), (3, 16), (4, 8), (4, 16)])
    def test_kernel_passes_equal_numpy_nd_transforms(self, dim, n):
        # The kernel's pruned 1-D passes run in the axis order of numpy's
        # n-d functions and transform each line on its own, so in band its
        # outputs equal the full-lattice oracle's ifftn/irfftn/fftn/rfftn
        # bit for bit; outside the box the expanded outputs are exactly +0.
        grid = Grid(dim, n)
        u = dealias(lattice_field(grid, 0.0, seed=40 + dim)).coeffs
        wave = real_part(dealias(lattice_field(grid, 0.0, seed=50 + dim)).coeffs)
        want_uw, want_abs2 = coupling_products(grid, u, wave)
        uw, abs2 = CouplingKernel(grid)(grid.box(u), np.ascontiguousarray(half_spectrum(grid.box(wave))))
        band = lattice(grid).dealias_mask
        for got, want in ((from_box(uw, grid), want_uw), (from_box(abs2, grid), want_abs2)):
            assert got[band].tobytes() == want[band].tobytes()
            assert not got[~band].view(np.uint64).any()  # +0, both parts


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
    def test_rhs_allocates_only_its_outputs(self):
        # After warm-up, one KGS right side allocates du, dv and dw and no
        # other array: every transform writes into the run's kernel buffers,
        # and |u|^2 stays in them.  Given its outputs, it allocates no array
        # at all.
        grid = Grid(2, 128)
        fields = random_state(System.KGS, grid, seed=21).fields
        rhs = nonlinear_rhs(System.KGS, grid)
        out = rhs(fields)
        assert all(a.nbytes == f.nbytes for a, f in zip(out, fields))
        array_bytes = sum(a.nbytes for a in out)
        peak = traced_peak(lambda: rhs(fields))
        assert array_bytes <= peak <= array_bytes + SMALL_OBJECTS
        assert traced_peak(lambda: rhs(fields, out)) <= SMALL_OBJECTS

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
            return integrate(state, config).final.fields

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


    def test_run_holds_four_field_triples_one_kernel_and_one_flow(self):
        # A whole 128^2 run: beyond its right side (one kernel) and its flow,
        # it holds the stepper's four buffers per field (Y, N1, N2 and the
        # stage); a fifth triple would break the bound.
        import tracemalloc

        grid = Grid(2, 128)
        fields = random_state(System.KGS, grid, seed=22).fields
        triple = sum(a.nbytes for a in fields)
        tracemalloc.start()
        try:
            rhs, half_step = nonlinear_rhs(System.KGS, grid), block_flow(grid, 1e-3)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lawson_rk4_run(fields, rhs, half_step, 2e-3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 * triple <= peak - held <= 4 * triple + triple // 4


def check_in_place(callback, fields):
    """``callback(fields, out)`` into ``out is fields`` gives the bits it gives into
    fresh arrays, and returns ``out``."""
    fresh = callback(fields, tuple(np.empty_like(a) for a in fields))
    same = tuple(a.copy() for a in fields)
    assert callback(same, same) is same
    for a, b in zip(same, fresh):
        assert a.tobytes() == b.tobytes()


class TestCallbacksInPlace:
    """The stepper hands ``rhs`` and ``half_step`` their input as ``out`` (N3, Py,
    PN1 and the stage flows); either way the bits are the same."""

    @pytest.mark.parametrize("gamma, a, delta", [(0.0, 0.0, 0.0), (0.5, 0.125, 0.5), (0.1, 0.025, 5.0)])
    def test_block_flow(self, gamma, a, delta):
        grid = Grid(2, 32)
        fields = random_state(System.KGS, grid, seed=62).fields + random_state(System.KGS, grid, seed=63).fields
        check_in_place(block_flow(grid, 0.05, gamma, a, delta), fields)

    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 32), (3, 16), (4, 8)])
    @pytest.mark.parametrize("kind", ["kgs", "zakharov", "damped"])
    def test_nonlinear_rhs(self, kind, dim, n):
        grid = Grid(dim, n)
        system = System.ZAKHAROV if kind == "zakharov" else System.KGS
        forcing = None
        if kind == "damped":
            f = 0.3 * random_sobolev_field(grid, 2.0, seed=7)
            g = 0.3 * random_sobolev_field(grid, 2.0, seed=8, real=True)
            forcing = (1j * f, np.ascontiguousarray(half_spectrum(g)))
        check_in_place(nonlinear_rhs(system, grid, forcing), random_state(system, grid, seed=64).fields)

    def test_window_rhs(self, monkeypatch):
        captured = []

        def capture(fields, rhs, *args):
            captured.append((fields, rhs))
            return fields

        monkeypatch.setattr(highlow, "lawson_rk4_run", capture)
        run_kind("window", Grid(2, 32), seed=65, steps=1)
        ((fields, rhs),) = captured
        check_in_place(rhs, fields)


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
        # order of the allocating step, so the bits agree.  Both run on the
        # box layout the integrators hand to the stepper.
        module = KINDS[kind]
        stepper = module.lawson_rk4_run
        finals = []

        def both(fields, rhs, half_step, dt, n_steps, observer=None):
            assert fields[0].shape == Grid(2, n).box_shape
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
            def observe(step, y, n):
                observer(step, y, n)
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


class TestFirstSameAsLast:
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("kind", ["kgs", "zakharov", "damped", "window"])
    def test_run_makes_four_rhs_calls_per_step_and_one(self, kind, steps, monkeypatch, grid_2d_small):
        # N1 = N(y) is formed once before the first step and at the end of
        # every step, the last one included.
        module = KINDS[kind]
        stepper = module.lawson_rk4_run
        calls = []

        def counting(fields, rhs, half_step, dt, n_steps, observer=None):
            def counted(y, out):
                calls.append(n_steps)
                return rhs(y, out)

            return stepper(fields, counted, half_step, dt, n_steps, observer)

        monkeypatch.setattr(module, "lawson_rk4_run", counting)
        run_kind(kind, grid_2d_small, seed=23, steps=steps)
        assert calls == [steps] * (4 * steps + 1)

    @pytest.mark.parametrize("kind", ["kgs", "zakharov", "damped", "window"])
    def test_observer_sees_the_right_side_of_its_state(self, kind, monkeypatch, grid_2d_small):
        # At step 0 and after every step the observer's N is a fresh N(Y),
        # bit for bit.
        module = KINDS[kind]
        stepper = module.lawson_rk4_run
        seen = []

        def checking(fields, rhs, half_step, dt, n_steps, observer=None):
            def observe(step, y, n):
                want = rhs(y, tuple(np.empty_like(a) for a in y))
                seen.append((step, [a.tobytes() == b.tobytes() for a, b in zip(n, want)]))
                observer(step, y, n)

            return stepper(fields, rhs, half_step, dt, n_steps, observe)

        monkeypatch.setattr(module, "lawson_rk4_run", checking)
        run_kind(kind, grid_2d_small, seed=24, steps=3)
        width = 6 if kind == "window" else 3
        assert seen == [(step, [True] * width) for step in range(4)]

    def test_guard_norms_are_box_norms_of_the_current_workspace(self, grid_2d_small):
        # The guard resolves each field's float view and weight once, on the
        # first call with a workspace, and still reads the workspace as it
        # changes in place: its norms are `box_norm`'s, bit for bit.
        grid = grid_2d_small
        workspace = tuple(np.array(a) for a in random_state(System.KGS, grid, seed=25).fields)
        config = IntegratorConfig(0.1, 0.1, blowup_threshold=1e-300)
        recorder = Recorder(("u", "v", "v_t"), grid, 0.0, config, lambda t, f, n: None)
        for scale in (1.0, 3.0, 0.5):
            for a in workspace:
                a *= scale
            with pytest.raises(BlowUpError) as info:
                recorder(1, workspace, ())
            want = {f"{name}_L2": box_norm(a, grid) for name, a in zip(("u", "v", "v_t"), workspace)}
            assert info.value.norms == want


def three_field_rhs(system, grid, fields):
    """The right side on ``(u, w+, w-)`` with ``w-`` integrated as a field of its own.

    Box arrays in and out, from the full-lattice oracle.
    """
    u, wplus, wminus = (from_box(a, grid) for a in fields)
    uw, abs2 = coupling_products(grid, u, wplus + wminus)
    inverse_a = lattice(grid).bracket**-1.0
    if system is System.KGS:
        kick = 1j * inverse_a * abs2
        out = 0.5j * uw, kick, -kick
    else:
        lap_abs2 = -lattice(grid).xi_squared * abs2
        out = (
            -0.5j * uw,
            1j * inverse_a * (lap_abs2 + real_part(wplus)),
            -1j * inverse_a * (lap_abs2 + real_part(wminus)),
        )
    return tuple(map(grid.box, out))


def six_field_window_rhs(grid, fields):
    """The high-low window right side on ``(phi, psi+, psi-, mu, lam+, lam-)``."""
    low = fields[:3]
    d_low = three_field_rhs(System.KGS, grid, low)
    d_total = three_field_rhs(System.KGS, grid, tuple(a + b for a, b in zip(low, fields[3:])))
    return d_low + tuple(t - l for t, l in zip(d_total, d_low))


def diagonal_flow(grid, t, copies=1):
    """The diagonal exact flow over ``t`` of box ``(u, w+, w-)`` fields (`FREE_SYMBOLS`)."""
    symbols = [grid.box(symbol(grid, t)) for symbol in FREE_SYMBOLS.values()] * copies
    return writing(lambda y: [symbol * a for symbol, a in zip(symbols, y)])


def three_fields(grid, fields):
    """``(u, w+, w-)`` box arrays of each carried ``(u, v, v_t)`` triple, ``w+`` as recorded."""
    triples = zip(fields[0::3], fields[1::3], fields[2::3])
    pairs = ((u, box_wplus(v, v_t, grid)) for u, v, v_t in triples)
    return tuple(a for u, wplus in pairs for a in (u, wplus, conjugate(wplus)))


class TestThreeFieldOracle:
    @pytest.mark.parametrize("kind, n", [("kgs", 32), ("zakharov", 32), ("window", 16)])
    def test_matches_step_with_integrated_minus_branch(self, kind, n, monkeypatch):
        # Carrying the real wave as (v, v_t) is the same scheme as
        # integrating (w+, w-) as fields of their own under the diagonal
        # flow, which keeps w- = conj w+: the change of variables commutes
        # with the linear flow.
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
        if kind == "window":
            rhs = writing(lambda y: six_field_window_rhs(grid, y))
        else:
            system = System.ZAKHAROV if kind == "zakharov" else System.KGS
            rhs = writing(lambda y: three_field_rhs(system, grid, y))
        flow = diagonal_flow(grid, dt / 2, copies=len(start) // 3)
        old = stepper(three_fields(grid, start), rhs, flow, dt, n_steps)
        new = three_fields(grid, new)
        for i in plus:
            assert np.max(np.abs(new[i] - old[i])) <= 1e-13 * np.max(np.abs(old[i]))
        for m, p in minus_of.items():
            assert np.max(np.abs(old[m] - conjugate(old[p]))) <= 1e-13 * np.max(np.abs(old[p]))


class TestIntegrate:
    def test_zero_data_stays_zero(self, grid_2d_small):
        z = zero_field(grid_2d_small)
        state = make_state(System.KGS, z, z)
        traj = integrate(state, IntegratorConfig(dt=1e-2, t_end=0.1))
        assert all(not np.any(a) for s in traj for a in s.fields)

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_zero_u_decouples_wave(self, system, grid_2d_small):
        base = random_state(system, grid_2d_small, seed=10)
        state = make_state(system, zero_field(grid_2d_small), full(base).wplus)
        traj = integrate(state, IntegratorConfig(dt=1e-2, t_end=0.2))
        final = full(traj[-1])
        # Zakharov keeps its bounded correction term even without u, so the
        # wave part is exactly linear only for the KGS system.
        if system is System.KGS:
            exact = free_flow(full(state).wplus, "kg_plus", final.t)
            scale = max(1.0, np.max(np.abs(exact.coeffs)))
            assert np.max(np.abs(final.wplus.coeffs - exact.coeffs)) < 1e-12 * scale
            assert norm(final.u) == 0.0
        else:
            assert norm(final.u) == 0.0
            assert norm(final.wplus) > 0.0

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_fourth_order_self_refinement(self, system):
        grid = Grid(1, 32)
        state = random_state(system, grid, seed=11, s=2.0, r=2.0, amplitude=0.5)
        t_end = 0.25
        ref, coarse, fine = (
            full(integrate(state, IntegratorConfig(dt=t_end / n, t_end=t_end, record_every=10**9)).final)
            for n in (1024, 16, 32)
        )
        err_coarse = norm(coarse.u - ref.u) + norm(coarse.wplus - ref.wplus)
        err_fine = norm(fine.u - ref.u) + norm(fine.wplus - ref.wplus)
        assert 12.0 <= err_coarse / err_fine <= 20.0

    def test_phase_gauge_invariance(self, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=12, amplitude=0.8)
        theta = 0.7
        rotated = scaled(state, np.exp(1j * theta), 1.0)
        config = IntegratorConfig(dt=5e-3, t_end=0.2, record_every=10**9)
        a, b = (full(integrate(s, config).final) for s in (state, rotated))
        scale = max(1.0, np.max(np.abs(a.u.coeffs)))
        assert np.max(np.abs(b.u.coeffs - np.exp(1j * theta) * a.u.coeffs)) < 1e-10 * scale
        assert np.max(np.abs(b.wplus.coeffs - a.wplus.coeffs)) < 1e-10 * scale

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_wminus_is_sample_space_conjugate_along_trajectory(self, system, grid_2d_small):
        state = random_state(system, grid_2d_small, seed=13, amplitude=0.7)
        traj = integrate(state, IntegratorConfig(dt=5e-3, t_end=0.3, record_every=20))
        for s in map(full, traj):
            conj = np.conj(to_samples(s.wplus.coeffs, s.grid))
            by_samples = SpectralField(s.grid, to_coefficients(conj, s.grid))
            assert norm(s.wminus - by_samples) <= 1e-14 * norm(s.wplus)

    @pytest.mark.parametrize("integrator", ["integrate", "integrate_damped", "run_global"])
    def test_blowup_guard_aborts_with_diagnostics(self, integrator, grid_2d_small):
        state = random_state(System.KGS, grid_2d_small, seed=14)
        guard = IntegratorConfig(dt=1e-2, t_end=0.1, blowup_threshold=1e-9)
        if integrator == "integrate":
            fields = dict(zip(("u", "v", "v_t"), full(state)[:3]))
            run = lambda: integrate(state, guard)
        elif integrator == "integrate_damped":
            damped = SystemState(System.KGS, state.grid, state.u, state.v, state.v)
            fields = dict(zip(("u", "v", "w"), full(damped)[:3]))
            run = lambda: integrate_damped(damped, DampedParams(gamma=0.5, delta=0.5), guard)
        else:
            config = HighLowConfig(cutoff=4, delta=0.1, gns_c1=1.0, gns_c2=1.0)
            split = split_initial(state, config.cutoff)
            values = [f for pair in (split.low, split.high) for f in full(pair)[:3]]
            fields = dict(zip(("phi", "psi_v", "psi_w", "mu", "lam_v", "lam_w"), values))
            run = lambda: run_global(state, 0.95, config, guard)
        with pytest.raises(BlowUpError) as err:
            run()
        # The guard sees the data at step 0: the run aborts before its first step.
        assert err.value.t == 0.0
        assert set(err.value.norms) == {f"{name}_L2" for name in fields}
        for name, f in fields.items():
            assert err.value.norms[f"{name}_L2"] == pytest.approx(norm(f), rel=1e-13)

    def test_blowup_threshold_bounds_the_wave_velocity(self, grid_2d_small):
        # The guard bounds the carried v_t, not w+ = v + i A^{-1} v_t: with
        # v = 0, ||w+|| = ||v_t|| / <k> for a wave at one |k|, and a threshold
        # between the two aborts the run at step 0, on its data.
        grid = grid_2d_small
        v_t = spectral_mode(grid, (5, 5)) + spectral_mode(grid, (-5, -5))
        state = from_full(System.KGS, zero_field(grid), zero_field(grid), v_t)
        wplus = full(state).wplus
        threshold = math.sqrt(norm(v_t) * norm(wplus))
        assert norm(wplus) < threshold < norm(v_t)
        with pytest.raises(BlowUpError) as err:
            integrate(state, IntegratorConfig(dt=1e-3, t_end=1e-2, blowup_threshold=threshold))
        assert err.value.t == 0.0
        assert err.value.norms["v_t_L2"] > threshold
        assert err.value.norms["u_L2"] == 0.0 and err.value.norms["v_L2"] < threshold

    @pytest.mark.parametrize("kind", ["kgs", "zakharov", "damped", "window"])
    def test_records_are_exactly_plus_zero_outside_the_box(self, kind, grid_2d_small):
        # Runs record box copies of their own (the next step overwrites the
        # workspace); an expansion (`from_box`, `box_wplus`) fills every
        # other mode with +0 (both parts, no sign bit).
        result = run_kind(kind, grid_2d_small, seed=22, steps=3)
        states = [result.low, result.high] if kind == "window" else list(result)
        arrays = [a for s in (states if kind == "window" else states[1:]) for a in s.fields]
        assert len({id(a) for a in arrays}) == len(arrays)  # no record shares an array
        expanded = [f.coeffs for s in states for f in full(s)[:4]]
        outside = ~lattice(grid_2d_small).dealias_mask
        assert all(not a[outside].view(np.uint64).any() for a in expanded)

    def test_records_form_wplus_with_join_wave(self, grid_2d_small):
        # box_wplus forms w+ on the box from the carried (v, v_t) with the arithmetic
        # of the oracle join_wave, so it equals join_wave of their expansions.
        grid = grid_2d_small
        fields = random_state(System.KGS, grid, seed=26).fields
        wplus = box_wplus(*fields[1:], grid)
        v, v_t = (SpectralField(grid, from_box(a, grid)) for a in fields[1:])
        assert wplus.tobytes() == grid.box(join_wave(v, v_t).coeffs).tobytes()

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

    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0])
    def test_bad_blowup_threshold_rejected(self, threshold):
        with pytest.raises(ConfigurationError, match="blowup_threshold"):
            IntegratorConfig(blowup_threshold=threshold)


def out_of_box(grid: Grid, scale: float):
    """A real field of L2 norm ``scale`` on the mode pair ``k = (c + 1, 0), -k``, just outside the box."""
    k = grid.n_per_dim // 3 + 1
    pair = spectral_mode(grid, (k, 0)) + spectral_mode(grid, (-k, 0))
    return (scale / norm(pair)) * pair


#: The error of a run given one field on the whole lattice instead of the box, and its message.
LATTICE_LAYOUT_ERRORS = {
    "u": (GridMismatchError, r"^u has shape \(16, 16\), not \(11, 11\): the box of a 16\^2 grid$"),
    "v": (GridMismatchError, r"^v has shape \(16, 9\), not \(11, 6\): the box half spectrum of a 16\^2 grid$"),
    "w": (GridMismatchError, r"^w has shape \(16, 9\), not \(11, 6\): the box half spectrum of a 16\^2 grid$"),
    "f": (ConfigurationError, "^f has shape"),
    "g": (ConfigurationError, "^g has shape"),
}


class TestBandLimitedInput:
    @pytest.mark.parametrize(
        "kind, name",
        [("kgs", "u"), ("kgs", "wplus"), ("damped", "u"), ("damped", "v"), ("damped", "w"),
         ("damped", "f"), ("damped", "g")],
    )
    def test_out_of_box_input_rejected_by_name(self, kind, name, grid_2d_small):
        # A run carries the dealias box only, so modes outside it can reach
        # a run only in a field given on the whole lattice, which is rejected
        # by its layout before a step: `SystemState` names u, v (the real
        # part of w+) or w, the forcing's check f or g.
        grid = grid_2d_small
        state = random_state(System.KGS, grid, seed=23)
        fields = {"u": state.u, "v": state.v, "w": state.w, "f": None, "g": None}
        field = "v" if name == "wplus" else name
        fields[field] = from_box(state.u, grid) if field in "uf" else half_spectrum(from_box(state.v, grid))
        error, message = LATTICE_LAYOUT_ERRORS[field]
        config = IntegratorConfig(dt=1e-2, t_end=0.02)
        with pytest.raises(error, match=message):
            if kind == "kgs":
                integrate(SystemState(System.KGS, grid, fields["u"], fields["v"], fields["w"]), config)
            else:
                params = DampedParams(gamma=0.5, delta=0.5, f=fields.pop("f"), g=fields.pop("g"))
                integrate_damped(SystemState(System.KGS, grid, **fields), params, config)

    def test_roundoff_outside_the_box_accepted_and_dropped(self, grid_2d_small):
        # `Grid.box` takes full coefficients to a run's layout and drops every
        # mode outside the box, so a run from them does not see the bump.
        state = random_state(System.KGS, grid_2d_small, seed=24)
        u = from_box(state.u, grid_2d_small)
        bump = out_of_box(grid_2d_small, 1e-14 * np.linalg.norm(u)).coeffs
        boxes = [grid_2d_small.box(a) for a in (u, u + bump)]
        assert boxes[0].tobytes() == boxes[1].tobytes() == state.u.tobytes()
        config = IntegratorConfig(dt=1e-2, t_end=0.02)
        a, b = (integrate(SystemState(System.KGS, grid_2d_small, box, state.v, state.w), config).final
                for box in boxes)
        assert all(np.array_equal(x, y) for x, y in zip(a.fields, b.fields))


class TestRandomSystemState:
    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    @pytest.mark.parametrize("n", [64, 128])
    def test_box_draws_match_the_joined_oracle(self, system, n):
        # The draws are taken on the box; the oracle joins the wave into w+
        # on the whole lattice and splits it again, which rounds the wave.
        grid = Grid(2, n)
        for seed in (3, 8, 7003):
            state = random_system_state(system, grid, 1.0, 1.5, seed, amplitude=0.7)
            want = joined_system_state(system, grid, 1.0, 1.5, seed, amplitude=0.7)
            assert state.u.tobytes() == want.u.tobytes()
            for got, ref in zip(state.fields[1:], want.fields[1:]):
                assert box_norm(got - ref, grid) <= 1e-15 * box_norm(ref, grid)
            assert state.w[(0,) * grid.dim] == 0.0  # a mean-zero velocity
            assert all(a.flags.c_contiguous for a in state.fields)


class TestConservedQuantities:
    def test_zero_state(self, grid_2d_small):
        z = zero_field(grid_2d_small)
        report = conserved(make_state(System.KGS, z, z))
        assert report.mass == 0.0
        assert report.hamiltonian == 0.0

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_single_mode_energy_is_gradient_term(self, system):
        grid = Grid(2, 16)
        u = spectral_mode(grid, (3, 0))
        u = (1.0 / norm(u)) * u  # unit mass
        state = make_state(system, u, zero_field(grid))
        report = conserved(state)
        assert report.mass == pytest.approx(1.0, rel=1e-12)
        assert report.hamiltonian == pytest.approx(9.0, rel=1e-10)

    def test_zakharov_zero_mode_reported(self, grid_2d_small):
        v = dealias(lattice_field(grid_2d_small, 1.0, seed=17, real=True))
        v_t_coeffs = np.zeros(grid_2d_small.shape, dtype=complex)
        v_t_coeffs[0, 0] = 2.5 * grid_2d_small.volume
        v_t = SpectralField(grid_2d_small, v_t_coeffs)
        state = from_full(System.ZAKHAROV, zero_field(grid_2d_small), v, v_t)
        report = conserved(state)
        assert report.zero_mode_mass_of_wave == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_box_sums_match_full_spectrum_oracle(self, system):
        state = random_state(system, Grid(2, 32), seed=22, s=1.0, r=1.0)
        got, want = conserved(state), state_conserved_quantities(state)
        assert got.mass == pytest.approx(want.mass, rel=1e-13)
        assert got.hamiltonian == pytest.approx(want.hamiltonian, rel=1e-13)
        assert got.zero_mode_mass_of_wave == pytest.approx(want.zero_mode_mass_of_wave, rel=1e-13)

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_cubic_term_comes_from_the_right_side(self, system, dim, n):
        # The cubic term is Re <P(u v), u>, a box sum of du = +-i P(u v) with
        # u, linear in du.  Scaling du by a power of two scales the term
        # exactly and lifts it far above the quadratic part, so the
        # difference from du = 0 isolates it without cancellation.
        state = random_state(system, Grid(dim, n), seed=27)
        grid, fields, scale = state.grid, state.fields, 2.0**30
        du = nonlinear_rhs(system, grid)(fields)[0]
        with_term = conserved_quantities(system, grid, fields, scale * du).hamiltonian
        without = conserved_quantities(system, grid, fields, np.zeros_like(du)).hamiltonian
        cubic = (without - with_term if system is System.KGS else with_term - without) / scale
        whole = full(state)
        assert cubic == pytest.approx(spectral_cubic_pairing(whole.u, whole.v), rel=1e-14, abs=0.0)
        assert cubic == pytest.approx(cubic_term(state.u, state.v, grid), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("system", [System.KGS, System.ZAKHAROV])
    def test_short_run_drift_is_small(self, system):
        grid = Grid(2, 16)
        state = random_state(
            system, grid, seed=18, s=2.0, r=2.0, amplitude=1.0, zero_mean_wave_velocity=True
        )
        traj = integrate(state, IntegratorConfig(dt=2e-3, t_end=0.2, record_every=50))
        e0 = conserved(traj[0])
        e1 = conserved(traj[-1])
        assert abs(e1.mass - e0.mass) / e0.mass < 1e-9
        assert abs(e1.hamiltonian - e0.hamiltonian) / abs(e0.hamiltonian) < 1e-7
