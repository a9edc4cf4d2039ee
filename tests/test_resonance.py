"""Tests for resonance geometry, bilinear-constant studies, and the lemma check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dispersmooth.errors import ConfigurationError, HypothesisError, ResourceLimitError
from dispersmooth.resonance import (
    FrequencyTriple,
    bilinear_constant_estimate,
    calc_lemma_check,
    modulation_lower_bound,
    resonance_A,
    resonant_shell_sample,
)
from dispersmooth.spectral import Grid


class TestResonanceQuantity:
    def test_antiparallel_example(self):
        assert resonance_A((4.0, 0.0), (-4.0, 0.0), branch=-1) == pytest.approx(-0.625)

    def test_perpendicular_unit_vector_is_resonant(self):
        assert resonance_A((7.0, 0.0), (0.0, 1.0), branch=-1) == pytest.approx(0.0)
        triple = FrequencyTriple.from_pair((7.0, 0.0), (0.0, 1.0), branch=-1)
        assert modulation_lower_bound(triple) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            resonance_A((0.0, 0.0), (1.0, 0.0))

    def test_zero_sum_constraint_enforced(self):
        with pytest.raises(ConfigurationError):
            FrequencyTriple((1.0, 0.0), (1.0, 0.0), (1.0, 0.0))

    @given(
        data=st.tuples(
            st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20)
        ),
        branch=st.sampled_from([+1, -1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_factorization_identity(self, data, branch):
        xi1 = np.array(data[:2])
        xi2 = np.array(data[2:])
        if np.linalg.norm(xi1) < 1e-3 or np.linalg.norm(xi2) < 1e-3:
            return
        triple = FrequencyTriple.from_pair(xi1, xi2, branch)
        lhs = modulation_lower_bound(triple)
        rhs = (
            2.0
            * np.linalg.norm(xi1)
            * np.linalg.norm(xi2)
            * abs(resonance_A(xi1, xi2, branch))
        )
        assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-12)

    def test_scaling_is_inhomogeneous(self):
        xi1, xi2 = np.array([3.0, 1.0]), np.array([1.0, -2.0])
        base = modulation_lower_bound(FrequencyTriple.from_pair(xi1, xi2, +1))
        scaled = modulation_lower_bound(FrequencyTriple.from_pair(2 * xi1, 2 * xi2, +1))
        # Quadratic part scales by 4, wave part only by 2: no exact homogeneity.
        assert scaled != pytest.approx(4.0 * base, rel=1e-6)


class TestResonantShellSample:
    def test_membership_predicate_exact(self):
        xi1 = np.array([16.0, 0.0])
        sample = resonant_shell_sample(xi1, nu=0.05, branch=-1, count=500, seed=3)
        assert not sample.empty
        for point, target in zip(sample.points, sample.a_values):
            value = resonance_A(xi1, point, branch=-1)
            assert 0.05 <= value <= 0.10 + 1e-12
            assert value == pytest.approx(target, abs=1e-9)

    def test_small_nu_approaches_resonant_surface(self):
        xi1 = np.array([16.0, 0.0])
        for nu in (0.05, 0.005):
            sample = resonant_shell_sample(xi1, nu=nu, branch=-1, count=300, seed=4)
            radii = np.linalg.norm(sample.points, axis=1)
            cos_angle = sample.points @ (xi1 / 16.0) / radii
            surface_radius = -2.0 * 16.0 * cos_angle + 1.0  # A = 0 root, branch -1
            deviation = np.max(np.abs(radii - surface_radius))
            assert deviation <= 2.0 * (2 * nu) * 16.0 + 1e-9

    def test_shell_thickness_statistic(self):
        xi1 = np.array([16.0, 0.0])
        nu = 0.05
        sample = resonant_shell_sample(xi1, nu=nu, branch=-1, count=20000, seed=5)
        radii = np.linalg.norm(sample.points, axis=1)
        angles = np.arctan2(sample.points[:, 1], sample.points[:, 0])
        spans = []
        for lo in np.linspace(2.0, 2.8, 5):  # angles with a well-populated shell
            mask = (angles >= lo) & (angles < lo + 0.05)
            if np.count_nonzero(mask) > 30:
                spans.append(radii[mask].max() - radii[mask].min())
        assert spans
        expected = 2.0 * nu * 16.0
        for span in spans:
            assert expected / 2 <= span <= expected * 2

    def test_empty_region_notice(self):
        # branch +1 with tiny |xi1|: radius = 2|xi1|(a - cos) - 1 < 0 everywhere.
        sample = resonant_shell_sample(np.array([0.2, 0.0]), nu=0.05, branch=+1, count=100, seed=6)
        assert sample.empty
        assert sample.note is not None


class TestBilinearConstant:
    def test_refinement_stability_in_admissible_regime(self):
        kwargs = dict(time_modes=32, ensemble=6, seed=1, tau_spacing=16.0)
        small = bilinear_constant_estimate(0.0, 0.0, 0.4, 0.55, Grid(2, 32), **kwargs)
        large = bilinear_constant_estimate(0.0, 0.0, 0.4, 0.55, Grid(2, 64), **kwargs)
        assert abs(large.max_ratio - small.max_ratio) <= 0.2 * small.max_ratio

    def test_bump_family_grows_past_ceiling(self):
        stats = bilinear_constant_estimate(
            0.0, 0.0, 0.8, 0.55, Grid(2, 32), 32, ensemble=1, adversarial=True, seed=2
        )
        bumps = [x for x in stats.samples if x.family == "bump_box"]
        ns = [float(x.label.split("=")[1]) for x in bumps]
        ratios = [x.ratio for x in bumps]
        slope = np.polyfit(np.log(ns), np.log(ratios), 1)[0]
        assert slope == pytest.approx(0.3, abs=0.1)
        assert any(x.family == "resonant_shell" for x in stats.samples)

    def test_zero_fields_skipped(self):
        # Degenerate draws cannot occur with indicator bumps, but the ratio
        # helper must skip empty data; exercised via an empty tau window.
        stats = bilinear_constant_estimate(
            0.0, 0.0, 0.4, 0.55, Grid(2, 32), 32, ensemble=3, seed=7, tau_spacing=16.0
        )
        assert all(math.isfinite(x.ratio) and x.ratio > 0 for x in stats.samples)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0])
    def test_bad_tau_spacing_is_named(self, bad):
        with pytest.raises(ConfigurationError, match="tau_spacing"):
            bilinear_constant_estimate(0.0, 0.0, 0.4, 0.55, Grid(2, 8), 8, ensemble=1, tau_spacing=bad)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            bilinear_constant_estimate(0.0, 0.0, 0.4, 0.55, Grid(3, 128), 64, ensemble=1)


def quad_lemma_ratios(alpha, beta, a_grid, b_grid, truncation=1e4):
    """The lemma ratios by adaptive `quad` over the same range, with the same tail bound."""
    p = alpha + beta
    span = max(np.max(np.abs(a_grid)), np.max(np.abs(b_grid)))
    tail = 2.0 * (truncation - span) ** (1.0 - p) / (p - 1.0)
    ratios = np.zeros((len(a_grid), len(b_grid)))
    for i, a in enumerate(a_grid):
        for j, c in enumerate(b_grid):
            integrand = lambda y: (1 + (y - a) ** 2) ** (-alpha / 2) * (1 + (y - c) ** 2) ** (-beta / 2)
            value, _ = quad(integrand, -truncation, truncation, points=sorted({a, c}), limit=400)
            ratios[i, j] = (value + tail) * (1 + (a - c) ** 2) ** (beta / 2)
    return ratios


class TestCalcLemmaCheck:
    @pytest.mark.parametrize(
        "alpha, beta",
        [(a, b) for a in (0.9, 1.1, 1.5, 2.0) for b in (0.0, 0.5, 1.0, 2.0) if a + b > 1],
    )
    def test_matches_adaptive_quadrature(self, alpha, beta):
        a_grid, b_grid = [0.0, -3.5, 7.25], [0.0, 0.3, 5.0, 50.0, -640.5, 999.0]
        got = calc_lemma_check(alpha, beta, a_grid, b_grid, enforce_hypotheses=False).ratios
        want = quad_lemma_ratios(alpha, beta, a_grid, b_grid)
        assert np.max(np.abs(got - want) / want) < 1e-7

    def test_beta_zero_is_translation_invariant(self):
        result = calc_lemma_check(1.5, 0.0, [0.0], [0.0, 5.0, 50.0])
        assert result.max_ratio == pytest.approx(result.min_ratio, rel=1e-6)

    def test_equal_centers_bounded_by_single_factor(self):
        result = calc_lemma_check(1.5, 1.0, [0.0], [0.0])
        single, _ = quad(lambda y: (1 + y**2) ** -0.75, -1e4, 1e4)
        assert result.max_ratio <= single + 1e-6

    def test_uniform_bound_within_factor_three(self):
        result = calc_lemma_check(1.5, 1.0, [0.0], np.linspace(0.0, 100.0, 21))
        assert result.max_ratio / result.min_ratio < 3.0

    def test_hypothesis_violations_raise(self):
        with pytest.raises(HypothesisError, match="alpha > 1"):
            calc_lemma_check(0.9, 0.5, [0.0], [1.0])
        with pytest.raises(HypothesisError, match="alpha >= beta"):
            calc_lemma_check(1.5, 1.7, [0.0], [1.0])

    def test_negative_control_grows(self):
        ratios = [
            calc_lemma_check(0.9, 1.0, [0.0], [D], enforce_hypotheses=False).max_ratio
            for D in (1.0, 10.0, 100.0)
        ]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 3.0 * ratios[0]
