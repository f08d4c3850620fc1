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

from .blaschke import (
    TWO_PI,
    FiniteBlaschke,
    PhaseFunction,
    eval_blaschke_folded,
    phase_nodes,
)
from .quadrature import IntegralResult, QuadratureConfig, doubling, integrate_circle


def _sorted_atoms(nodes: np.ndarray, slopes: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The phase nodes of ``phase_nodes(phase, count)`` as count rows of
    atoms in [0, 2 pi), increasing, row j that of alpha_j, and the Clark
    weights 1/Theta' = 1/|B'| from the solve, sorted with them."""
    atoms = np.mod(nodes, TWO_PI).reshape(-1, count).T
    weights = 1.0 / slopes.reshape(-1, count).T
    order = np.argsort(atoms, axis=1)
    return np.take_along_axis(atoms, order, axis=1), np.take_along_axis(weights, order, axis=1)


def _support(B: FiniteBlaschke, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of the Clark measure at alpha: the phase nodes of
    one level per winding, offset to the argument of alpha."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    a = math.atan2(alpha.imag, alpha.real) % TWO_PI
    atoms, weights = _sorted_atoms(*phase_nodes(PhaseFunction(B), 1, a / TWO_PI), 1)
    return atoms[0], weights[0]


def clark_support(B: FiniteBlaschke, alpha: complex) -> np.ndarray:
    """Angles of the N solutions of B = alpha on the circle, increasing."""
    return _support(B, alpha)[0]


def _check_measures(B: FiniteBlaschke, alphas: np.ndarray, atom_angles: np.ndarray,
                    weights: np.ndarray) -> None:
    """Check Clark measures given by rows (alpha, atom angles, weights):
    every atom must solve B = alpha, and for B(0) = 0 the weights must sum
    to 1.  One evaluation of B covers all rows; the error is that of the
    first measure, in row order, that fails a check, residual first."""
    res = np.abs(eval_blaschke_folded(B, atom_angles) - alphas[:, None])
    # an atom angle is representable only to ~ulp, so the achievable
    # residual at a phase spike is |B'| times the angle resolution
    floor = 16.0 * np.finfo(float).eps / weights
    off_level = np.any(res > 1e-9 + floor, axis=1)
    off_mass = B.vanishes_at_origin & (np.abs(weights.sum(axis=1) - 1.0) > 1e-8)
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
        _check_measures(B, np.array([self.alpha]), np.asarray(self.atom_angles)[None],
                        np.asarray(self.weights)[None])

    @classmethod
    def _checked(cls, B: FiniteBlaschke, alpha: complex, atom_angles: np.ndarray,
                 weights: np.ndarray) -> "ClarkMeasure":
        """A measure whose row ``_check_measures`` has passed."""
        mu = object.__new__(cls)
        for name, value in (("blaschke", B), ("alpha", alpha), ("atom_angles", atom_angles),
                            ("weights", weights)):
            object.__setattr__(mu, name, value)
        return mu

    @property
    def atoms(self) -> np.ndarray:
        return np.exp(1j * self.atom_angles)

    def total_mass(self) -> float:
        return float(self.weights.sum())


def clark_measure(B: FiniteBlaschke, alpha: complex) -> ClarkMeasure:
    """The Clark measure at alpha, its weights 1/Theta' from the phase solve
    of its atoms."""
    return ClarkMeasure(B, complex(alpha), *_support(B, alpha))


def clark_measures(B: FiniteBlaschke, count: int) -> list[ClarkMeasure]:
    """The Clark measures at the count-th roots of unity, alpha_j = e^{2 pi i j/count},
    from one phase inversion of all their atoms, with one level-set and mass
    check of the whole (alpha x atoms) array.  The weights are 1/Theta' from
    that solve (``phase_nodes``), sorted with their atoms: no |B'| pass over
    atoms x distinct zeros."""
    atoms, weights = _sorted_atoms(*phase_nodes(PhaseFunction(B), count), count)  # row j: alpha_j
    angles = TWO_PI * np.arange(count) / count
    alphas = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
    _check_measures(B, alphas, atoms, weights)
    return [ClarkMeasure._checked(B, alpha, atoms[j], weights[j]) for j, alpha in enumerate(alphas.tolist())]


#: the largest alpha grid of ``disintegration_check``
MAX_ALPHA = 1 << 12


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
    if alpha_count < 1 or (alpha_count & (alpha_count - 1)) != 0:
        raise ValueError("alpha_count must be a power of two")
    sample = f if callable(f) else f.evaluate  # a sampler or a symbol
    phase = PhaseFunction(B)
    N = B.degree
    solved = []  # each level's nodes bracket the next

    def level(count, offset):
        nodes, slopes = phase_nodes(phase, count // N, offset, solved)
        return np.sum(np.asarray(sample(nodes)) * (N / slopes))

    avg = doubling(level, alpha_count * N, cfg, limit=MAX_ALPHA * N)
    lhs = complex(avg.value)
    quad = integrate_circle(lambda t: np.asarray(sample(t)), cfg)
    rhs = complex(quad.value)
    return DisintegrationResult(lhs, rhs, abs(lhs - rhs), avg.points_used // N, avg.converged, quad)
