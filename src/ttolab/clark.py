"""Clark measures of finite Blaschke products.

The boundary phase of a finite Blaschke product is strictly increasing with
total increase 2*pi*N, so the level set B = alpha consists of exactly N
circle points.  Those points are phase nodes (``blaschke.phase_nodes``, the
inverse of the closed-form phase at equispaced levels); this module turns
them into the atomic Clark measures with weights 1/|B'|, one alpha or a whole
grid of alphas per phase inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import TWO_PI, FiniteBlaschke, PhaseFunction, RuleParam, _checked_param, phase_nodes
from .quadrature import IntegralResult, QuadratureConfig, integrate_circle, phase_doubling


def _check_measures(phase: PhaseFunction, alphas: np.ndarray, atom_angles: np.ndarray,
                    weights: np.ndarray) -> None:
    """Check Clark measures of the phase's product given by rows (alpha,
    atom angles, weights): every atom must solve B = alpha, and for B(0) = 0
    the weights must sum to 1.  One evaluation of B covers all rows; the
    error is that of the first measure, in row order, that fails a check,
    residual first."""
    res = np.abs(phase.product(atom_angles) - alphas[:, None])
    # an atom angle is representable only to ~ulp, so the achievable
    # residual at a phase spike is |B'| times the angle resolution
    floor = 16.0 * np.finfo(float).eps / weights
    off_level = np.any(res > 1e-9 + floor, axis=1)
    off_mass = phase.blaschke.vanishes_at_origin & (np.abs(weights.sum(axis=1) - 1.0) > 1e-8)
    failed = np.nonzero(off_level | off_mass)[0]
    if len(failed):
        row = failed[0]
        if off_level[row]:
            raise ValueError(f"level-set residual too large: {res[row].max():.3e}")
        raise ValueError(f"total mass {weights[row].sum()!r} differs from 1")


@dataclass(frozen=True, eq=False)
class ClarkMeasure:
    """Atomic spectral measure of the Clark unitary at parameter alpha.

    Exactly N atoms (zeta_k, w_k) with w_k = 1/|B'(zeta_k)|, sorted by angle.
    For B vanishing at 0 the weights sum to 1.  A measure built on its own
    checks its atoms and mass on construction; ``clark_measures`` checks a
    whole alpha grid at once.
    """

    blaschke: FiniteBlaschke
    alpha: complex
    atom_angles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        B = self.blaschke
        if len(self.atom_angles) != B.degree or len(self.weights) != B.degree:
            raise ValueError("atom count must equal the degree")
        _check_measures(PhaseFunction(B), np.array([self.alpha]), np.asarray(self.atom_angles)[None],
                        np.asarray(self.weights)[None])

    @classmethod
    def _checked(cls, B: FiniteBlaschke, alpha: complex, atom_angles: np.ndarray,
                 weights: np.ndarray) -> "ClarkMeasure":
        """A measure whose row ``_check_measures`` has passed."""
        mu = object.__new__(cls)
        mu.__dict__.update(blaschke=B, alpha=alpha, atom_angles=atom_angles, weights=weights)
        return mu

    @property
    def atoms(self) -> np.ndarray:
        return np.exp(1j * self.atom_angles)

    def total_mass(self) -> float:
        return float(self.weights.sum())


def _measures(B: FiniteBlaschke, alphas: list, offset: float = 0.0) -> list[ClarkMeasure]:
    """The Clark measures at alphas, alpha_j = e^{2 pi i (j + offset)/count}
    for count = len(alphas): rows of atoms in [0, 2 pi), increasing, and
    weights 1/Theta' = 1/|B'| from one solve (``phase_nodes``), checked at
    once through the same phase."""
    count = len(alphas)
    phase = PhaseFunction(B)
    nodes, slopes = phase_nodes(phase, count, offset)
    atoms = np.mod(nodes, TWO_PI).reshape(-1, count).T
    order = np.argsort(atoms, axis=1)
    atoms = np.take_along_axis(atoms, order, axis=1)
    weights = np.take_along_axis(1.0 / slopes.reshape(-1, count).T, order, axis=1)
    _check_measures(phase, np.array(alphas), atoms, weights)
    return [ClarkMeasure._checked(B, alpha, atoms[j], weights[j]) for j, alpha in enumerate(alphas)]


def clark_measure(B: FiniteBlaschke, alpha: complex) -> ClarkMeasure:
    """The Clark measure at alpha: one level per winding, offset to the
    argument of alpha, on the path of ``clark_measures``."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    return _measures(B, [alpha], (math.atan2(alpha.imag, alpha.real) % TWO_PI) / TWO_PI)[0]


def clark_support(B: FiniteBlaschke, alpha: complex) -> np.ndarray:
    """Angles of the N solutions of B = alpha on the circle, increasing."""
    return clark_measure(B, alpha).atom_angles


def clark_measures(B: FiniteBlaschke, count: int) -> list[ClarkMeasure]:
    """The Clark measures at the count-th roots of unity, alpha_j = e^{2 pi i j/count},
    from one phase inversion and one level-set and mass check of all their
    atoms, the weights 1/Theta' from that solve: no |B'| pass."""
    angles = TWO_PI * np.arange(count) / count
    return _measures(B, [complex(math.cos(a), math.sin(a)) for a in angles])


#: the largest alpha grid of ``disintegration_check``
MAX_ALPHA = 1 << 12

#: the [sweep] alpha_count, the size of an alpha grid (``disintegration_check`` starts at 16)
ALPHA_COUNT = RuleParam(32, lambda v: v >= 1 and not v & (v - 1), "a power of two")


@dataclass(frozen=True)
class DisintegrationResult:
    lhs: complex
    rhs: complex
    gap: float
    alpha_count: int
    converged: bool
    quadrature: IntegralResult


def disintegration_check(f, B: FiniteBlaschke, alpha_count: int = 16,
                         cfg: QuadratureConfig = QuadratureConfig()) -> DisintegrationResult:
    """Average the Clark integrals of f over alpha and compare with the
    plain circle integral of f.

    The alpha grid is the alpha_count-th roots of unity, doubled until the
    average stabilizes to the configured tolerance or would pass MAX_ALPHA.
    Its Clark atoms are the phase nodes of alpha_count levels per winding,
    each weighted 1/|B'|, so the average is the mean of f * N/|B'| over
    those nodes, |B'| = Theta' from the phase solve.
    """
    alpha_count = _checked_param("disintegrate", "alpha_count", alpha_count, ALPHA_COUNT)
    sample = f if callable(f) else f.evaluate  # a sampler or a symbol
    N = B.degree
    avg = phase_doubling(B, lambda nodes, slopes: np.sum(np.asarray(sample(nodes)) * (N / slopes)),
                         alpha_count, cfg, limit=MAX_ALPHA * N)
    lhs = complex(avg.value)
    quad = integrate_circle(lambda t: np.asarray(sample(t)), cfg)
    rhs = complex(quad.value)
    return DisintegrationResult(lhs, rhs, abs(lhs - rhs), avg.points_used // N, avg.converged, quad)
