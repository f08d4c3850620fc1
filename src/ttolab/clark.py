"""Clark measures of finite Blaschke products.

The boundary phase of a finite Blaschke product is strictly increasing with
total increase 2*pi*N, so the level set B = alpha consists of exactly N
circle points.  Those points are phase nodes (``blaschke.phase_nodes``, the
inverse of the closed-form phase at equispaced levels); this module turns
them into the atomic Clark measures with weights 1/|B'|, one alpha
(``clark_measure``) or the rows of a whole grid of alphas (``clark_rows``)
per phase inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import TWO_PI, FiniteBlaschke, PhaseFunction, RuleParam, _checked_param, circle_grid, phase_nodes
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

    Exactly N atoms (zeta_k, w_k) with w_k = 1/|B'(zeta_k)|, sorted by angle
    as ``clark_measure`` makes them.  For B vanishing at 0 the weights sum to
    1.  Construction checks the atoms and the mass; a whole alpha grid comes
    as rows of arrays (``clark_rows``), unsorted and checked at once, with no
    measure objects.
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

    @property
    def atoms(self) -> np.ndarray:
        return np.exp(1j * self.atom_angles)

    def total_mass(self) -> float:
        return float(self.weights.sum())


def clark_measure(B: FiniteBlaschke, alpha: complex) -> ClarkMeasure:
    """The Clark measure at alpha: one level per winding, offset to the
    argument of alpha, its atoms sorted by angle and checked on construction."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    nodes, slopes, _ = phase_nodes(PhaseFunction(B), 1, (math.atan2(alpha.imag, alpha.real) % TWO_PI) / TWO_PI)
    atoms = np.mod(nodes, TWO_PI)
    order = np.argsort(atoms)
    return ClarkMeasure(B, alpha, atoms[order], 1.0 / slopes[order])


def clark_support(B: FiniteBlaschke, alpha: complex) -> np.ndarray:
    """Angles of the N solutions of B = alpha on the circle, increasing."""
    return clark_measure(B, alpha).atom_angles


def clark_rows(B: FiniteBlaschke, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Clark measures at the count-th roots of unity, alpha_j = e^{2 pi i j/count},
    as (count x N) rows: atom angles in [0, 2 pi), B there (alpha_j e^{i residual})
    and the weights 1/Theta' = 1/|B'|, from one phase inversion
    (``phase_nodes``, whose nodes of alpha_j are row j in the order they are
    solved: no row is sorted) and one level-set and mass check of every row
    (``_check_measures``): no |B'| pass."""
    phase = PhaseFunction(B)
    nodes, slopes, residuals = (a.reshape(-1, count).T for a in phase_nodes(phase, count))
    atoms = np.mod(nodes, TWO_PI)
    alphas = np.exp(1j * circle_grid(count))
    weights = 1.0 / slopes
    _check_measures(phase, alphas, atoms, weights)
    return atoms, alphas[:, None] * np.exp(1j * residuals), weights


#: the largest alpha grid of ``disintegration_check`` from a start of at
#: most MAX_ALPHA/2; a larger start doubles once, so that two grids compare
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


def disintegration_check(f, B: FiniteBlaschke, alpha_count: int = ALPHA_COUNT.default,
                         cfg: QuadratureConfig = QuadratureConfig()) -> DisintegrationResult:
    """Average the Clark integrals of f over alpha and compare with the
    plain circle integral of f.

    The alpha grid is the alpha_count-th roots of unity, doubled until the
    average stabilizes to the configured tolerance or would pass
    max(MAX_ALPHA, 2 * alpha_count).
    Its Clark atoms are the phase nodes of alpha_count levels per winding,
    each weighted 1/|B'|, so the average is the mean of f * N/|B'| over
    those nodes, |B'| = Theta' from the phase solve.
    """
    alpha_count = _checked_param("disintegrate", "alpha_count", alpha_count, ALPHA_COUNT)
    sample = f if callable(f) else f.evaluate  # a sampler or a symbol
    N = B.degree
    avg = phase_doubling(B, lambda nodes, slopes: np.sum(np.asarray(sample(nodes)) * (N / slopes)),
                         cfg, alpha_count, limit=max(MAX_ALPHA, 2 * alpha_count) * N)
    lhs = complex(avg.value)
    quad = integrate_circle(lambda t: np.asarray(sample(t)), cfg)
    rhs = complex(quad.value)
    return DisintegrationResult(lhs, rhs, abs(lhs - rhs), avg.points_used // N, avg.converged, quad)
