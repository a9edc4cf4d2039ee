"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Criterion 4's dt-halving ratio window is asserted verbatim and is expected to
fail for the mass component: the default exponential integrator conserves
mass to fifth order (the Runge-Kutta error on the mass-unitary phase rotation
is tangential to the mass sphere), so halving dt reduces the mass drift by a
factor near 32, outside the stated [12, 20] window, while the drift magnitude
bounds pass with orders of margin.  See the project notes for the analysis;
the other sub-assertions of criterion 4 are also evaluated and reported.
"""

import math

import numpy as np
import pytest

from dispersmooth.cli import main as cli_main
from dispersmooth.dissipative import (
    PROBE_EXPONENTS,
    DampedParams,
    attractor_diagnostics,
    integrate_damped,
)
from dispersmooth.evolution import (
    IntegratorConfig,
    System,
    integrate,
    random_system_state,
)
from dispersmooth.highlow import (
    HighLowConfig,
    mass_threshold,
    run_global,
    split_initial,
    step_rule,
)
from dispersmooth.resonance import (
    FrequencyTriple,
    calc_lemma_check,
    modulation_lower_bound,
    resonance_A,
)
from dispersmooth.smoothing import (
    SmoothingParams,
    sharpness_counterexample,
    smoothing_exponents,
    smoothing_scan,
)
from dispersmooth.spectral import Grid, half_spectrum, random_sobolev_field

from conftest import (
    attractor_run,
    conserved,
    energy_H,
    energy_H_rate,
    from_full,
    full,
    lattice_field,
    lowpass_projection,
    norm,
    scaled,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


def test_criterion_1_counterexample_scaling():
    ns = [8, 16, 32, 64, 128]
    checks = []
    for alpha in (0.75, 1.0):
        ratios = [sharpness_counterexample(n, 0.0, 0.0, alpha, 0.55, 2).ratio for n in ns]
        slope = float(np.polyfit(np.log(ns), np.log(ratios), 1)[0])
        ok = abs(slope - (alpha - 0.5)) <= 0.1
        checks.append(ok)
        report(1, ok, f"alpha={alpha}: log-log slope {slope:+.4f} vs {alpha - 0.5:+.2f} +- 0.1")
    ratios = [sharpness_counterexample(n, 0.0, 0.0, 0.4, 0.55, 2).ratio for n in [16, 32, 64, 128]]
    ok = all(a >= b for a, b in zip(ratios, ratios[1:]))
    checks.append(ok)
    report(1, ok, "alpha=0.4: ratio non-increasing beyond N=16")
    assert all(checks)


def test_criterion_2_smoothing_exponent_formulas():
    zak = smoothing_exponents(System.ZAKHAROV, 2, 0.5, 0.0)
    kgs = smoothing_exponents(System.KGS, 2, 0.0, 0.0)
    ok = zak == (0.5, 0.5) and kgs == (0.5, 1.5)
    report(
        2,
        ok,
        f"Zakharov d=2 H^(1/2) x L2 -> gains {zak} (want (0.5, 0.5)); "
        f"KGS d=2 L2 x L2 -> gains {kgs} (want (0.5, 1.5))",
    )
    assert ok


def test_criterion_3_empirical_smoothing():
    params = SmoothingParams(System.KGS, 2, 0.0, 0.0, alpha_probe=0.4, beta_probe=1.2)
    grid = Grid(2, 128)
    integrator = IntegratorConfig(dt=2e-3, t_end=0.5)
    scan = smoothing_scan(params, ensemble_size=8, seed=2024, grid=grid, integrator=integrator)
    u_gain = scan.gain_mean["u"]
    w_gain = scan.gain_mean["wplus"]
    ok_u = u_gain >= 0.35
    ok_w = w_gain >= 1.0
    report(3, ok_u, f"u-residual slope gain {u_gain:.3f} >= 0.35 (8-seed ensemble mean)")
    report(3, ok_w, f"wave-residual slope gain {w_gain:.3f} >= 1.0")

    norms = {}
    for amplitude in (1e-2, 1e-3):
        rep = smoothing_scan(
            params, ensemble_size=1, seed=2024, grid=grid, integrator=integrator, amplitude=amplitude
        )
        norms[amplitude] = {
            row.component: row.residual_norm for row in rep.rows
        }
    ok_quad = True
    for component in ("u", "wplus"):
        ratio = norms[1e-2][component] / norms[1e-3][component]
        good = abs(ratio / 100.0 - 1.0) <= 0.1
        ok_quad &= good
        report(3, good, f"{component}-residual amplitude scaling {ratio:.2f} vs 100 (+-10%)")
    assert ok_u and ok_w and ok_quad


def test_criterion_4_conservation():
    grid = Grid(2, 64)
    checks = []
    for system in (System.KGS, System.ZAKHAROV):
        state = random_system_state(system, grid, 1.0, 1.0, seed=101, amplitude=25.0)
        c0 = conserved(state)
        drift = {}
        for dt in (1e-3, 5e-4):
            traj = integrate(state, IntegratorConfig(dt=dt, t_end=1.0, record_every=50))
            mass = max(abs(conserved(s).mass - c0.mass) / c0.mass for s in traj[1:])
            ham = max(
                abs(conserved(s).hamiltonian - c0.hamiltonian)
                / abs(c0.hamiltonian)
                for s in traj[1:]
            )
            drift[dt] = (mass, ham)
        mass_1, ham_1 = drift[1e-3]
        mass_ratio = mass_1 / drift[5e-4][0]
        ham_ratio = ham_1 / drift[5e-4][1]
        ok_mass = mass_1 < 1e-8
        ok_ham = ham_1 < 1e-6
        ok_mass_ratio = 12.0 <= mass_ratio <= 20.0
        ok_ham_ratio = 12.0 <= ham_ratio <= 20.0
        report(4, ok_mass, f"{system.value}: relative mass drift {mass_1:.2e} < 1e-8 at dt=1e-3")
        report(4, ok_ham, f"{system.value}: Hamiltonian drift {ham_1:.2e} < 1e-6 at dt=1e-3")
        report(
            4,
            ok_mass_ratio,
            f"{system.value}: mass-drift halving ratio {mass_ratio:.1f} in [12, 20] "
            "(scheme conserves mass to 5th order; see notes)",
        )
        report(4, ok_ham_ratio, f"{system.value}: Hamiltonian halving ratio {ham_ratio:.1f} in [12, 20]")
        checks.extend([ok_mass, ok_ham, ok_mass_ratio, ok_ham_ratio])
    assert all(checks)


def test_conservation_drift_order_fit():
    # Not a criterion: criterion 4 compares one dt halving with [12, 20];
    # this fits the slope of log drift against log dt over a three-step
    # ladder, on criterion 4's data, with records at the same times on
    # every rung.  A fourth-order scheme gives orders of 4 or more.
    grid = Grid(2, 64)
    dts = (4e-3, 2e-3, 1e-3)
    orders = {}
    for system in (System.KGS, System.ZAKHAROV):
        state = random_system_state(system, grid, 1.0, 1.0, seed=101, amplitude=25.0)
        c0 = conserved(state)
        drifts = {"mass": [], "Hamiltonian": []}
        for dt in dts:
            traj = integrate(state, IntegratorConfig(dt=dt, t_end=1.0, record_every=round(0.05 / dt)))
            later = [conserved(s) for s in traj[1:]]
            drifts["mass"].append(max(abs(c.mass - c0.mass) for c in later) / c0.mass)
            drifts["Hamiltonian"].append(
                max(abs(c.hamiltonian - c0.hamiltonian) for c in later) / abs(c0.hamiltonian)
            )
        for name, drift in drifts.items():
            orders[f"{system.value} {name}"] = np.polyfit(np.log(dts), np.log(drift), 1)[0]
    message = "fitted drift orders over dt = 4e-3, 2e-3, 1e-3: " + ", ".join(
        f"{key} {order:.2f}" for key, order in orders.items()
    )
    ok = all(order >= 3.8 for order in orders.values())
    report(4, ok, message)
    assert ok, message


# ---------------------------------------------------------------------------
# Criteria 5 and 6 share one forced long run.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def forced_setup():
    grid = Grid(2, 64)
    ssf = np.random.SeedSequence((77, 0))
    kf = ssf.spawn(2)
    f = 0.3 * random_sobolev_field(grid, 2.0, seed=kf[0])
    g = 0.3 * half_spectrum(random_sobolev_field(grid, 2.0, seed=kf[1], real=True))
    params = DampedParams(gamma=0.5, delta=0.5, f=f, g=g)
    band = grid.dealias_cutoff / 2
    ss = np.random.SeedSequence((78, 1))
    kids = ss.spawn(3)
    base = from_full(
        System.KGS,
        lowpass_projection(lattice_field(grid, 1.5, seed=kids[0]), band),
        lowpass_projection(lattice_field(grid, 1.5, seed=kids[1], real=True), band),
        lowpass_projection(lattice_field(grid, 0.5, seed=kids[2], real=True), band),
    )
    return grid, params, base


@pytest.fixture(scope="module")
def forced_runs(forced_setup):
    """Three forced runs from initial energies 1, 10, 100 (criteria 5c, 6): the
    recorded states and the `attractor_records` of each."""
    _, params, base = forced_setup

    def find_scale(target):
        hi = 1.0
        while energy_H(scaled(base, hi), params) < target:
            hi *= 2
        lo = 0.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if energy_H(scaled(base, mid), params) < target:
                lo = mid
            else:
                hi = mid
        return hi

    horizon = 40.0
    runs = {}
    for target in (1.0, 10.0, 100.0):
        state = scaled(base, find_scale(target))
        runs[target] = attractor_run(
            state, params, IntegratorConfig(dt=2e-3, t_end=horizon, record_every=500)
        )
    return params, horizon, runs


def test_criterion_5_dissipative_identities(forced_setup, forced_runs):
    grid, params, base = forced_setup
    checks = []

    # (a) unforced mass law, exact to 1e-8.
    unforced = DampedParams(gamma=params.gamma, delta=params.delta, a=params.a)
    traj = integrate_damped(
        base, unforced, IntegratorConfig(dt=1e-3, t_end=1.0, record_every=200)
    )
    m0 = norm(full(base).u)
    worst = max(
        abs(norm(full(s).u) - math.exp(-unforced.gamma * s.t) * m0) / m0 for s in traj[1:]
    )
    ok = worst < 1e-8
    checks.append(ok)
    report(5, ok, f"f=0 mass law |  ||u(t)|| - e^(-gamma t)||u0||  | / ||u0|| = {worst:.2e} < 1e-8")

    # (b) closed-form dH/dt vs centered differences at dt=1e-3.
    short = integrate_damped(
        base, params, IntegratorConfig(dt=1e-3, t_end=0.03, record_every=1)
    )
    energies = [energy_H(s, params) for s in short]
    closed = [energy_H_rate(s, params) for s in short]
    scale = max(abs(c) for c in closed)
    worst_rate = 0.0
    for i in range(1, len(short) - 1):
        fd = (energies[i + 1] - energies[i - 1]) / (short[i + 1].t - short[i - 1].t)
        worst_rate = max(worst_rate, abs(fd - closed[i]) / scale)
    ok = worst_rate < 1e-3
    checks.append(ok)
    report(5, ok, f"dH/dt closed form vs centered differences: relative error {worst_rate:.2e} < 1e-3")

    # (c) forced absorbing-ball trend: tail energy bounded independently of the data.
    _, horizon, runs = forced_runs
    bound = 0.05  # fixed constant, set by the forcing scale alone
    tail_maxes = {}
    for target, (traj, _) in runs.items():
        tail = [energy_H(s, params) for s in traj if s.t >= horizon / 2]
        tail_maxes[target] = max(tail)
    ok = all(v <= bound for v in tail_maxes.values())
    checks.append(ok)
    report(
        5,
        ok,
        "forced runs from H(0) = 1, 10, 100 have tail max energy "
        + ", ".join(f"{v:.3g}" for v in tail_maxes.values())
        + f" <= {bound} (constant independent of the data)",
    )
    assert all(checks)


def test_criterion_6_compactness_proxy(forced_runs):
    params, _, runs = forced_runs
    floor = min(params.gamma, params.a, params.delta - params.a) / 2.0
    checks = []
    for target, (_, records) in runs.items():
        diag = attractor_diagnostics(records, params)
        ok_rate = diag.linear_decay_rate is not None and diag.linear_decay_rate >= floor
        ok_bounded = diag.nonlinear_tail_bounded and not diag.inconclusive
        checks.append(ok_rate and ok_bounded)
        report(
            6,
            ok_rate and ok_bounded,
            f"H(0)={target:g}: linear-part decay rate "
            f"{diag.linear_decay_rate:.3f} >= {floor:.4f}; nonlinear probe norms "
            f"(H^{PROBE_EXPONENTS[0]}, H^{PROBE_EXPONENTS[1]}, H^{PROBE_EXPONENTS[2]})"
            f" bounded over the tail: {diag.nonlinear_tail_bounded}",
        )
    assert all(checks)


def test_criterion_7_highlow_oracle_equivalence():
    grid = Grid(2, 64)
    checks = []

    # Reassembled totals vs direct solve over 10 windows, N in {8, 16}.
    state = random_system_state(System.KGS, grid, 0.95, 0.95, seed=301, amplitude=0.5)
    integrator = IntegratorConfig(dt=2e-3)
    for cutoff in (8.0, 16.0):
        config = HighLowConfig(cutoff=cutoff, windows=10, compare_direct=True)
        rep = run_global(state, 0.95, config, integrator)
        worst = max(rep.diff_vs_direct)
        ok = len(rep.windows) == 10 and worst < 1e-6
        checks.append(ok)
        report(7, ok, f"N={cutoff:g}: reassembled vs direct relative L2 error {worst:.2e} < 1e-6 over 10 windows")

    # Telescoping identity at one window, exact to 1e-12.
    from dispersmooth.highlow import _integrate_window, _reassemble

    delta = step_rule(8.0, 0.95, 0.55)
    split = split_initial(state, 8.0)
    evolved = _integrate_window(split, IntegratorConfig(dt=2e-3, t_end=delta))
    reassembled, _ = _reassemble(split, delta, evolved)
    total = reassembled.total().fields
    scale = max(1.0, float(np.max(np.abs(evolved[0]))))
    tele = max(float(np.max(np.abs(total[i] - (evolved[i] + evolved[i + 3])))) for i in range(3))
    ok = tele <= 1e-12 * scale
    checks.append(ok)
    report(7, ok, f"telescoping identity defect {tele:.2e} (exact to 1e-12)")

    # Splitting bounds for 20 random draws.
    ok_bounds = True
    s = r = 0.95
    for seed in range(400, 420):
        draw = random_system_state(System.KGS, grid, s, r, seed=seed)
        sp = split_initial(draw, 8.0)
        data, low, high = full(draw), full(sp.low), full(sp.high)
        u_hs = norm(data.u, s)
        w_hr = norm(data.wplus, r)
        ok_bounds &= norm(low.u, 1.0) <= 8.0 ** (1 - s) * u_hs * (1 + 1e-12)
        ok_bounds &= norm(low.wplus, 1.0) <= 8.0 ** (1 - r) * w_hr * (1 + 1e-12)
        ok_bounds &= norm(high.u, 0.55) <= 8.0 ** (0.55 - s) * u_hs * (1 + 1e-12)
        ok_bounds &= norm(high.wplus, 0.55) <= 8.0 ** (0.55 - r) * w_hr * (1 + 1e-12)
    checks.append(ok_bounds)
    report(7, ok_bounds, "frequency-splitting norm bounds hold for 20 random draws at N=8")

    # Per-window nonlinear increments decrease monotonically in N.  At 128^2
    # the dealias box (|k_i| <= 42) holds modes above N = 32, so no rung has
    # an empty high pair, whose increments would be exactly 0.
    grid128 = Grid(2, 128)
    state128 = random_system_state(System.KGS, grid128, 0.95, 0.95, seed=301, amplitude=0.5)
    increments = {}
    for cutoff in (8.0, 16.0, 32.0):
        config = HighLowConfig(cutoff=cutoff, windows=1)
        log = run_global(state128, 0.95, config, integrator).windows[0]
        increments[cutoff] = (log.increment_u_h1, log.increment_wave_h1)
    ok_nonzero = all(min(pair) > 0 for pair in increments.values())
    checks.append(ok_nonzero)
    ok_mono = all(
        increments[8.0][i] > increments[16.0][i] > increments[32.0][i] for i in (0, 1)
    )
    checks.append(ok_mono)
    ladder = "; ".join(f"N={int(n)}: ({u:.2e}, {z:.2e})" for n, (u, z) in increments.items())
    report(7, ok_nonzero, f"every rung's H1 nonlinear increments are above 0 at 128^2: {ladder}")
    report(7, ok_mono, f"H1 nonlinear increments decrease in N: {ladder}")

    # d=4 smoke run below the mass threshold.
    grid4 = Grid(4, 16)
    state4 = random_system_state(System.KGS, grid4, 0.95, 0.95, seed=500, amplitude=0.3)
    config4 = HighLowConfig(cutoff=4.0, windows=2)
    rep4 = run_global(state4, 0.95, config4, IntegratorConfig(dt=5e-3))
    ok4 = rep4.below_threshold and len(rep4.windows) == 2 and all(
        math.isfinite(w.energy_low) for w in rep4.windows
    )
    checks.append(ok4)
    report(
        7,
        ok4,
        f"d=4 smoke run (n=16): mass {rep4.initial_mass:.3f} below threshold "
        f"{rep4.threshold.operative:.3f}, {len(rep4.windows)} windows completed without blow-up",
    )
    assert all(checks)


def test_criterion_8_resonance_identities():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10**4):
        xi1 = rng.uniform(-50, 50, size=2)
        xi2 = rng.uniform(-50, 50, size=2)
        if np.linalg.norm(xi1) < 1e-6 or np.linalg.norm(xi2) < 1e-6:
            continue
        branch = int(rng.choice([-1, 1]))
        triple = FrequencyTriple.from_pair(xi1, xi2, branch)
        lhs = modulation_lower_bound(triple)
        rhs = 2 * np.linalg.norm(xi1) * np.linalg.norm(xi2) * abs(
            resonance_A(xi1, xi2, branch)
        )
        scale = max(1.0, lhs)
        worst = max(worst, abs(lhs - rhs) / scale)
    ok_identity = worst < 1e-12
    report(8, ok_identity, f"modulation identity on 10^4 random triples: worst defect {worst:.2e} < 1e-12")

    result = calc_lemma_check(1.5, 1.0, [0.0], np.linspace(0.0, 100.0, 21))
    spread = result.max_ratio / result.min_ratio
    ok_lemma = spread < 3.0
    report(8, ok_lemma, f"convolution-lemma ratio spread {spread:.2f} < 3 over |a-b| in [0, 100]")

    grow = [
        calc_lemma_check(0.9, 1.0, [0.0], [dist], enforce_hypotheses=False).max_ratio
        for dist in (1.0, 10.0, 100.0)
    ]
    ok_neg = grow[0] < grow[1] < grow[2] and grow[2] > 3.0 * grow[0]
    report(
        8,
        ok_neg,
        f"negative control alpha=0.9: ratio grows {grow[0]:.2f} -> {grow[1]:.2f} -> {grow[2]:.2f}",
    )
    assert ok_identity and ok_lemma and ok_neg


def test_criterion_9_determinism(tmp_path):
    config_text = """
[run]
seed = 33

[grid]
dimension = 2
n_per_dim = 16

[system]
kind = zakharov
s = 1.5
r = 1.5
amplitude = 0.5

[integrator]
dt = 5e-3
t_end = 0.05
"""
    config = tmp_path / "run.ini"
    config.write_text(config_text)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = cli_main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        assert code == 0
    csv_equal = (outs[0] / "timeseries.csv").read_bytes() == (outs[1] / "timeseries.csv").read_bytes()
    ckpt_equal = (outs[0] / "state.ckpt").read_bytes() == (outs[1] / "state.ckpt").read_bytes()

    ce_config = tmp_path / "ce.ini"
    ce_config.write_text(
        "[system]\nkind = kgs\ns = 0.0\nr = 0.0\n\n[counterexample]\nn_values = 8,16\nresolution = 4\n"
    )
    ce_outs = [tmp_path / "c", tmp_path / "d"]
    for out in ce_outs:
        assert cli_main(["counterexample", "--config", str(ce_config), "--out", str(out), "--quiet"]) == 0
    ce_equal = (ce_outs[0] / "counterexample.csv").read_bytes() == (
        ce_outs[1] / "counterexample.csv"
    ).read_bytes()

    ok = csv_equal and ckpt_equal and ce_equal
    report(9, ok, "reruns with identical config+seed produce byte-identical CSV and checkpoint files")
    assert ok
