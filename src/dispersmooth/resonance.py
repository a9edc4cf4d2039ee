"""Resonance geometry and empirical bilinear-constant studies.

For a zero-sum frequency triple ``xi0 + xi1 + xi2 = 0`` with the Schrodinger
surfaces attached to ``xi0, xi1`` and a wave branch attached to ``xi2``, the
maximum distance of the triple from its dispersion surfaces is bounded below
by ``| |xi0|^2 - |xi1|^2 + branch * |xi2| |``, which factorizes exactly as::

    2 |xi1| |xi2| * | cos(angle) + (|xi2| + branch) / (2 |xi1|) |

The scalar inside the absolute value is the resonance quantity; its vanishing
marks the frequency interactions with no modulation gain.  The branch label
``+1 / -1`` is the sign added to ``|xi2|`` in that quantity (the associated
wave weight is ``<tau - branch |xi|>``).

Also here: sampling of the near-resonant shells in ``xi2`` (a thickened,
slightly distorted sphere of radius ``|xi1|`` centered at ``-xi1``), direct
(xi, tau)-lattice measurements of the bilinear estimate's constant, and a
quadrature check of the one-dimensional convolution lemma those estimates
lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    HypothesisError,
    ResourceLimitError,
)
from .spectral import Grid


@dataclass(frozen=True)
class FrequencyTriple:
    """Zero-sum triple with a wave branch label on the third slot."""

    xi0: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    branch: int = +1

    def __post_init__(self) -> None:
        xi0 = np.asarray(self.xi0, dtype=float)
        xi1 = np.asarray(self.xi1, dtype=float)
        xi2 = np.asarray(self.xi2, dtype=float)
        object.__setattr__(self, "xi0", xi0)
        object.__setattr__(self, "xi1", xi1)
        object.__setattr__(self, "xi2", xi2)
        if self.branch not in (+1, -1):
            raise ConfigurationError("branch must be +1 or -1")
        if np.max(np.abs(xi0 + xi1 + xi2)) > 1e-9 * max(1.0, np.max(np.abs(xi1))):
            raise ConfigurationError("triple must satisfy xi0 + xi1 + xi2 = 0")

    @classmethod
    def from_pair(cls, xi1, xi2, branch: int = +1) -> "FrequencyTriple":
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        return cls(-(xi1 + xi2), xi1, xi2, branch)


def resonance_A(xi1, xi2, branch: int = +1) -> float:
    """``cos(angle) + (|xi2| + branch) / (2 |xi1|)``; zero marks resonance."""
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    n1 = float(np.linalg.norm(xi1))
    n2 = float(np.linalg.norm(xi2))
    if n1 == 0.0 or n2 == 0.0:
        raise ConfigurationError("resonance quantity requires nonzero frequencies")
    if branch not in (+1, -1):
        raise ConfigurationError("branch must be +1 or -1")
    cos_angle = float(np.dot(xi1, xi2)) / (n1 * n2)
    return cos_angle + (n2 + branch) / (2.0 * n1)


def modulation_lower_bound(triple: FrequencyTriple) -> float:
    """``| |xi0|^2 - |xi1|^2 + branch |xi2| |``, equal to ``2|xi1||xi2||A|``."""
    n0_sq = float(np.dot(triple.xi0, triple.xi0))
    n1_sq = float(np.dot(triple.xi1, triple.xi1))
    n2 = float(np.linalg.norm(triple.xi2))
    return abs(n0_sq - n1_sq + triple.branch * n2)


# ---------------------------------------------------------------------------
# Resonant shell sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellSample:
    points: np.ndarray  # (count, d) xi2 coordinates
    a_values: np.ndarray  # resonance quantity at each point
    note: str | None = None

    @property
    def empty(self) -> bool:
        return self.points.shape[0] == 0


def resonant_shell_sample(
    xi1,
    nu: float,
    branch: int = +1,
    count: int = 1000,
    seed: int = 0,
    max_batches: int = 200,
) -> ShellSample:
    """Sample ``xi2`` points with resonance quantity in ``[nu, 2 nu]``.

    Construction: draw a uniform direction, draw the target value
    ``a ~ U[nu, 2 nu]``, and solve ``|xi2| = 2 |xi1| (a - cos angle) - branch``
    for the radius; reject non-positive radii.  Every returned point satisfies
    the membership predicate exactly (up to float evaluation), and at a fixed
    angle the radii span an interval of length ``2 nu |xi1|``.  Returns an
    empty cloud with a notice when the region is empty for the requested nu.
    """
    xi1 = np.asarray(xi1, dtype=float)
    d = xi1.shape[0]
    n1 = float(np.linalg.norm(xi1))
    if n1 == 0.0:
        raise ConfigurationError("xi1 must be nonzero")
    if not (0.0 < nu < 0.5):
        raise ConfigurationError("need 0 < nu << 1")
    rng = np.random.default_rng(seed)
    collected: list[np.ndarray] = []
    a_vals: list[np.ndarray] = []
    total = 0
    for _ in range(max_batches):
        batch = max(count, 256)
        direction = rng.standard_normal((batch, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        cos_angle = direction @ (xi1 / n1)
        target = rng.uniform(nu, 2.0 * nu, size=batch)
        radius = 2.0 * n1 * (target - cos_angle) - branch
        keep = radius > 0
        if np.any(keep):
            pts = radius[keep, None] * direction[keep]
            collected.append(pts)
            a_vals.append(target[keep])
            total += int(np.count_nonzero(keep))
        if total >= count:
            break
    if total == 0:
        return ShellSample(
            points=np.zeros((0, d)),
            a_values=np.zeros(0),
            note=f"no xi2 with resonance quantity in [{nu}, {2*nu}] for this xi1",
        )
    points = np.concatenate(collected)[:count]
    values = np.concatenate(a_vals)[:count]
    return ShellSample(points=points, a_values=values)


# ---------------------------------------------------------------------------
# Bilinear-constant measurements on a (xi, tau) lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioSample:
    family: str
    label: str
    ratio: float


@dataclass(frozen=True)
class BilinearStats:
    s: float
    r: float
    alpha: float
    b: float
    n_per_dim: int
    time_modes: int
    samples: list[RatioSample]
    max_ratio: float
    mean_ratio: float


def xsb_weight(xi_sq, tau, s: float, b: float, branch: int | None = None) -> np.ndarray:
    """The X^{s,b} weight ``<xi>^s <tau - h(xi)>^b`` of broadcastable ``(|xi|^2, tau)``.

    ``branch = None`` is the Schrodinger surface, ``<tau + |xi|^2>``; a wave
    branch ``+1 / -1`` is ``<tau - branch |xi|>`` (so the linear flow
    ``exp(-i t <xi>)`` of ``w+`` is branch -1).
    """
    surface = tau + xi_sq if branch is None else tau - branch * np.sqrt(xi_sq)
    return np.sqrt(1.0 + xi_sq) ** s * np.sqrt(1.0 + surface**2) ** b


def lattice_xi_tau(*axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Broadcastable ``(|xi|^2, tau)`` on the product lattice of ``axes``, tau last."""
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return sum(a**2 for a in mesh[:-1]), mesh[-1]


def _ratio_from_fields(
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    xi_axes: list[np.ndarray],
    tau: np.ndarray,
    s: float,
    r: float,
    alpha: float,
    b: float,
    branch: int,
    dxi: float,
    dtau: float,
) -> float:
    d = len(xi_axes)
    cell = dxi**d * dtau
    xi_sq, tau_mesh = lattice_xi_tau(*xi_axes, tau)
    wu = xsb_weight(xi_sq, tau_mesh, s, b)
    wv = xsb_weight(xi_sq, tau_mesh, r, b, branch)
    u_norm = math.sqrt(float(np.sum((wu * np.abs(u_hat)) ** 2)) * cell)
    v_norm = math.sqrt(float(np.sum((wv * np.abs(v_hat)) ** 2)) * cell)
    if u_norm == 0.0 or v_norm == 0.0:
        return math.nan

    # Linear convolution via zero-padded FFT; output lattice axes double.
    full_shape = [2 * n - 1 for n in u_hat.shape]
    axes = tuple(range(u_hat.ndim))
    conv = np.fft.ifftn(
        np.fft.fftn(u_hat, s=full_shape, axes=axes)
        * np.fft.fftn(v_hat, s=full_shape, axes=axes),
        axes=axes,
    )
    conv *= cell * (2.0 * math.pi) ** (-(d + 1))
    # Output lattice: both inputs start at the same offsets, so conv index k
    # sits at 2 * start + spacing * k along each axis.
    out_axes = [2 * a[0] + (a[1] - a[0]) * np.arange(2 * len(a) - 1) for a in xi_axes]
    out_tau = 2 * tau[0] + (tau[1] - tau[0]) * np.arange(2 * len(tau) - 1)
    w_out = xsb_weight(*lattice_xi_tau(*out_axes, out_tau), s + alpha, b - 1.0)
    product_norm = math.sqrt(float(np.sum((w_out * np.abs(conv)) ** 2)) * cell)
    return product_norm / (u_norm * v_norm)


def bilinear_constant_estimate(
    s: float,
    r: float,
    alpha: float,
    b: float,
    grid: Grid,
    time_modes: int,
    ensemble: int,
    adversarial: bool = False,
    branch: int = +1,
    seed: int = 0,
    tau_spacing: float | None = None,
) -> BilinearStats:
    """Empirical constant of the bilinear product estimate on a finite lattice.

    Measures ``||uv|| / (||u|| ||v||)`` in the weighted space-time norms by
    direct discrete convolution in (xi, tau), over random rectangular bumps
    riding their dispersion surfaces, with centers drawn from a fixed
    frequency band (spread-out white data has volume-diluted quotients and
    probes nothing).  The family is lattice-independent once the lattice
    covers the band, so the max ratio is stable (non-growing) under doubling
    the lattice extent in the admissible regime; growth would be a lattice
    artifact.  With ``adversarial=True`` the ensemble is augmented with the
    fine-resolution frequency-box family on its own anisotropic lattice
    (ratios there grow like ``N^(alpha - 1/2)`` past the half-derivative
    ceiling) and with near-resonant shell pairs.  Only empirical constants
    are reported; no specific value is asserted.
    """
    if grid.mode_count * time_modes > 2**22:
        raise ResourceLimitError(
            "lattice too large for the direct convolution study"
        )
    n = grid.n_per_dim
    d = grid.dim
    xi_axes = [np.sort(grid.xi_axis) for _ in range(d)]
    dxi = float(xi_axes[0][1] - xi_axes[0][0])
    band = min(n // 4, 8)  # sampling band for bump centers, in lattice cells
    if tau_spacing is None:
        # Cover the Schrodinger surface over the band with slack.
        tau_spacing = max(1.0, 4.0 * d * (band * dxi) ** 2 / time_modes)
    tau = (np.arange(time_modes) - time_modes // 2) * tau_spacing
    tau_max = float(np.max(np.abs(tau)))
    rng = np.random.default_rng(seed)
    shape = tuple([n] * d + [time_modes])

    def surface_bump(center: np.ndarray, half_widths: np.ndarray, surface: str) -> np.ndarray:
        """Indicator of a box around (center, surface(center)) in (xi, tau)."""
        out = np.ones(shape, dtype=complex)
        for axis, (ax, c, w) in enumerate(zip(xi_axes, center, half_widths)):
            mask = np.abs(ax - c) <= w * dxi + 1e-12
            view = [1] * (d + 1)
            view[axis] = n
            out = out * mask.reshape(view)
        if surface == "schrodinger":
            tau_c = -float(center @ center)
        else:
            tau_c = branch * float(np.linalg.norm(center))
        tau_c = float(np.clip(tau_c, -tau_max, tau_max))
        mask = np.abs(tau - tau_c) <= half_widths[-1] * tau_spacing + 1e-12
        return out * mask.reshape((1,) * d + (-1,))

    samples: list[RatioSample] = []
    for j in range(ensemble):
        c1 = rng.integers(-band, band + 1, size=d) * dxi
        c2 = rng.integers(-band, band + 1, size=d) * dxi
        widths = rng.integers(1, 3, size=d + 1)
        u_hat = surface_bump(np.asarray(c1, dtype=float), widths, "schrodinger")
        v_hat = surface_bump(np.asarray(c2, dtype=float), widths, "wave")
        ratio = _ratio_from_fields(
            u_hat, v_hat, xi_axes, tau, s, r, alpha, b, branch, dxi, tau_spacing
        )
        if not math.isnan(ratio):
            samples.append(RatioSample("random_bump", f"seed={seed}:{j}", ratio))

    if adversarial:
        from .smoothing import sharpness_counterexample

        for big_n in (8, 16, 32):
            result = sharpness_counterexample(big_n, s, r, alpha, b, d=max(d, 2), branch=branch)
            samples.append(RatioSample("bump_box", f"N={big_n}", result.ratio))
        samples.extend(
            _resonant_pair_samples(
                s, r, alpha, b, xi_axes, tau, branch, dxi, tau_spacing, seed
            )
        )

    ratios = [x.ratio for x in samples]
    return BilinearStats(
        s=s,
        r=r,
        alpha=alpha,
        b=b,
        n_per_dim=n,
        time_modes=time_modes,
        samples=samples,
        max_ratio=max(ratios),
        mean_ratio=float(np.mean(ratios)),
    )


def _resonant_pair_samples(
    s, r, alpha, b, xi_axes, tau, branch, dxi, dtau, seed
) -> list[RatioSample]:
    """u concentrated at one high mode riding its surface, v on a near-resonant shell."""
    d = len(xi_axes)
    n = len(xi_axes[0])
    out = []
    xi_max = xi_axes[0][-1]
    xi1_vec = np.zeros(d)
    xi1_vec[0] = round(xi_max / 2)
    shell = resonant_shell_sample(xi1_vec, nu=0.05, branch=branch, count=64, seed=seed)
    if shell.empty:
        return out
    shape = tuple([n] * d + [len(tau)])
    u_hat = np.zeros(shape, dtype=complex)
    idx1 = tuple(int(np.argmin(np.abs(ax - x))) for ax, x in zip(xi_axes, xi1_vec))
    tau1 = -float(xi1_vec @ xi1_vec)
    u_hat[idx1 + (int(np.argmin(np.abs(tau - tau1))),)] = 1.0
    v_hat = np.zeros(shape, dtype=complex)
    placed = 0
    for point in shell.points:
        if np.max(np.abs(point)) > xi_max:
            continue
        idx2 = tuple(int(np.argmin(np.abs(ax - x))) for ax, x in zip(xi_axes, point))
        tau2 = branch * float(np.linalg.norm(point))
        v_hat[idx2 + (int(np.argmin(np.abs(tau - tau2))),)] = 1.0
        placed += 1
    if placed == 0:
        return out
    ratio = _ratio_from_fields(
        u_hat, v_hat, xi_axes, tau, s, r, alpha, b, branch, dxi, dtau
    )
    if not math.isnan(ratio):
        out.append(RatioSample("resonant_shell", f"|xi1|={xi1_vec[0]:g}", ratio))
    return out


# ---------------------------------------------------------------------------
# Calculus-lemma quadrature check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheckResult:
    max_ratio: float
    min_ratio: float
    ratios: np.ndarray  # shape (len(a_grid), len(b_grid))


def calc_lemma_check(
    alpha: float,
    beta: float,
    a_grid,
    b_grid,
    enforce_hypotheses: bool = True,
    truncation: float = 1e4,
) -> LemmaCheckResult:
    """Check ``int dy <y-a>^-alpha <y-b>^-beta <= C <a-b>^-beta`` uniformly.

    Quadrature over ``|y| <= truncation`` with an analytic power-law tail
    bound added; returns the grid of ``integral * <a-b>^beta`` ratios.  Under
    the hypotheses ``alpha > 1, alpha >= beta >= 0`` the ratio is uniformly
    bounded; with ``enforce_hypotheses=False`` the quantity can be evaluated
    outside that region (where it grows without bound) as a negative control.

    The quadrature is 40-point Gauss-Legendre on panels split at ``a`` and
    ``b`` and graded geometrically away from both (break points ``a +- 2^k``
    and ``b +- 2^k``): a panel is no longer than 1 or than its distance to
    the nearer peak, so the integrand is analytic well around it.
    """
    if enforce_hypotheses:
        if not alpha > 1:
            raise HypothesisError(f"lemma requires alpha > 1, got {alpha}")
        if not (alpha >= beta >= 0):
            raise HypothesisError(
                f"lemma requires alpha >= beta >= 0, got alpha={alpha}, beta={beta}"
            )
    if alpha + beta <= 1:
        raise HypothesisError("integral diverges: needs alpha + beta > 1")
    a_grid = np.atleast_1d(np.asarray(a_grid, dtype=float))
    b_grid = np.atleast_1d(np.asarray(b_grid, dtype=float))
    span = max(np.max(np.abs(a_grid)), np.max(np.abs(b_grid)))
    if span >= truncation / 10:
        raise ConfigurationError("grid points must sit well inside the truncation")

    nodes, weights = np.polynomial.legendre.leggauss(40)
    offsets = 2.0 ** np.arange(math.ceil(math.log2(2.0 * truncation)) + 1)
    offsets = np.concatenate(([0.0], offsets, -offsets))
    # Tail bound: for |y| > truncation both factors are dominated by
    # <y - nearest>^-(alpha+beta); integrate the power law exactly.
    p = alpha + beta
    tail = 2.0 * (truncation - span) ** (1.0 - p) / (p - 1.0)
    ratios = np.zeros((len(a_grid), len(b_grid)))
    for i, a in enumerate(a_grid):
        for j, c in enumerate(b_grid):
            breaks = np.concatenate((a + offsets, c + offsets, [-truncation, truncation]))
            breaks = np.unique(np.clip(breaks, -truncation, truncation))
            half = 0.5 * np.diff(breaks)[:, None]
            y = breaks[:-1, None] + half * (1.0 + nodes)
            integrand = (1.0 + (y - a) ** 2) ** (-alpha / 2.0) * (
                1.0 + (y - c) ** 2
            ) ** (-beta / 2.0)
            value = float(np.sum(half * weights * integrand)) + tail
            ratios[i, j] = value * (1.0 + (a - c) ** 2) ** (beta / 2.0)
    return LemmaCheckResult(
        max_ratio=float(np.max(ratios)),
        min_ratio=float(np.min(ratios)),
        ratios=ratios,
    )
