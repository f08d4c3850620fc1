"""Clark measures of finite Blaschke products.

The boundary phase of a finite Blaschke product is strictly increasing with
total increase 2*pi*N, so the level set B = alpha consists of exactly N
circle points.  This module evaluates that phase in closed form (per-factor
scaled arctangents with analytic branch counting, no sampled unwrapping),
solves the level-set equation by safeguarded Newton/bisection, and builds the
atomic Clark measures with weights 1/|B'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    TWO_PI,
    FiniteBlaschke,
    abs_derivative_grid,
    eval_blaschke_grid,
)
from .quadrature import IntegralResult, QuadratureConfig, integrate_circle


def _eval_symbol(f, angles: np.ndarray) -> np.ndarray:
    """Accept either a vectorized sampler or an object with .evaluate()."""
    if callable(f):
        return np.asarray(f(angles))
    return np.asarray(f.evaluate(angles))


class PhaseFunction:
    """Continuous unwrapped argument of B along the circle.

    Theta(0) lies in [0, 2*pi); Theta is strictly increasing with derivative
    |B'| >= 1 (the product has a zero at the origin contributing 1) and
    Theta(2*pi) - Theta(0) = 2*pi*degree exactly.
    """

    def __init__(self, B: FiniteBlaschke):
        self.blaschke = B
        self._r = B._radii
        self._psi = B._phases
        b1 = complex(np.prod(B._sigma * (1.0 - B.zeros) / (1.0 - np.conj(B.zeros))))
        self._anchor = math.atan2(b1.imag, b1.real) % TWO_PI
        # per-factor phase increment accumulated from angle 0
        self._offsets = self._w(-self._psi, self._r)

    @staticmethod
    def _w(x, r):
        """Continuous increasing lift of the factor phase: W' = Poisson kernel."""
        n = np.floor((x + np.pi) / TWO_PI)
        x0 = x - TWO_PI * n
        return 2.0 * np.arctan2((1.0 + r) * np.sin(0.5 * x0),
                                (1.0 - r) * np.cos(0.5 * x0)) + TWO_PI * n

    def __call__(self, angles) -> np.ndarray:
        th = np.atleast_1d(np.asarray(angles, dtype=float))
        # one row per zero, summed over the zeros onto the anchor
        terms = self._w(th - self._psi[:, None], self._r[:, None]) - self._offsets[:, None]
        return np.sum(terms, axis=0, initial=self._anchor)

    def derivative(self, angles) -> np.ndarray:
        return abs_derivative_grid(self.blaschke, np.atleast_1d(np.asarray(angles, dtype=float)))

    @property
    def winding(self) -> int:
        return self.blaschke.degree


def clark_support(B: FiniteBlaschke, alpha: complex, phase: PhaseFunction | None = None) -> np.ndarray:
    """Angles of the N solutions of B = alpha on the circle, increasing.

    Brackets come from a coarse grid of the monotone phase; each root is then
    polished by Newton steps (the phase derivative |B'| is exact and >= 1)
    safeguarded by bisection inside its bracket.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be unimodular")
    phase = phase or PhaseFunction(B)
    N = B.degree
    a = math.atan2(alpha.imag, alpha.real) % TWO_PI
    base = float(phase(0.0)[0])
    k0 = math.ceil((base - a) / TWO_PI)
    targets = a + TWO_PI * (k0 + np.arange(N))

    G = max(256, 4 * N)
    grid = np.linspace(0.0, TWO_PI, G + 1)
    vals = phase(grid)
    vals[0], vals[-1] = base, base + TWO_PI * N  # exact endpoints
    idx = np.clip(np.searchsorted(vals, targets), 1, G)
    lo, hi = grid[idx - 1].copy(), grid[idx].copy()

    theta = 0.5 * (lo + hi)
    tol = max(1e-13, 2e-15 * N)
    active = np.ones(N, dtype=bool)
    for _ in range(200):
        err = phase(theta[active]) - targets[active]
        sub = np.nonzero(active)[0]
        neg = err < 0.0
        lo[sub[neg]] = theta[sub[neg]]
        hi[sub[~neg]] = theta[sub[~neg]]
        done = np.abs(err) <= tol
        still = sub[~done]
        active[sub[done]] = False
        if not len(still):
            break
        newton = theta[still] - (err[~done]) / abs_derivative_grid(B, theta[still])
        mid = 0.5 * (lo[still] + hi[still])
        inside = (newton > lo[still]) & (newton < hi[still])
        theta[still] = np.where(inside, newton, mid)
        width_done = (hi[still] - lo[still]) <= 1e-15
        if np.any(width_done):
            active[still[width_done]] = False

    order = np.argsort(theta)
    return np.mod(theta[order], TWO_PI)


@dataclass(frozen=True, eq=False)
class ClarkMeasure:
    """Atomic spectral measure of the Clark unitary at parameter alpha.

    Exactly N atoms (zeta_k, w_k) with w_k = 1/|B'(zeta_k)|, sorted by angle.
    For B vanishing at 0 the weights sum to 1.
    """

    blaschke: FiniteBlaschke
    alpha: complex
    atom_angles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        B = self.blaschke
        if len(self.atom_angles) != B.degree or len(self.weights) != B.degree:
            raise ValueError("atom count must equal the degree")
        res = np.abs(eval_blaschke_grid(B, self.atom_angles) - self.alpha)
        # an atom angle is representable only to ~ulp, so the achievable
        # residual at a phase spike is |B'| times the angle resolution
        floor = 16.0 * np.finfo(float).eps / self.weights
        if np.any(res > 1e-9 + floor):
            raise ValueError(f"level-set residual too large: {res.max():.3e}")
        if B.vanishes_at_origin and abs(self.weights.sum() - 1.0) > 1e-8:
            raise ValueError(f"total mass {self.weights.sum()!r} differs from 1")

    @property
    def atoms(self) -> np.ndarray:
        return np.exp(1j * self.atom_angles)

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def integrate(self, f) -> complex:
        """Sum of f over the atoms with the Clark weights."""
        vals = _eval_symbol(f, self.atom_angles)
        return complex(np.sum(vals * self.weights))


def clark_measure(B: FiniteBlaschke, alpha: complex, phase: PhaseFunction | None = None) -> ClarkMeasure:
    angles = clark_support(B, alpha, phase)
    weights = 1.0 / abs_derivative_grid(B, angles)
    return ClarkMeasure(B, complex(alpha), angles, weights)


def clark_beta_norm(B: FiniteBlaschke, alpha: complex, phase: PhaseFunction | None = None) -> float:
    """Largest Clark weight: the operator norm of 1/|B'| applied to the
    Clark unitary at alpha (the function is supported on the level set)."""
    angles = clark_support(B, alpha, phase)
    return float((1.0 / abs_derivative_grid(B, angles)).max())


@dataclass(frozen=True)
class DisintegrationResult:
    lhs: complex
    rhs: complex
    gap: float
    alpha_count: int
    converged: bool
    quadrature: IntegralResult


def disintegration_check(f, B: FiniteBlaschke, alpha_count: int = 16,
                         cfg: QuadratureConfig = QuadratureConfig(),
                         max_alpha: int = 1 << 12) -> DisintegrationResult:
    """Average the Clark integrals of f over alpha and compare with the
    plain circle integral of f.

    The alpha grid is the alpha_count-th roots of unity, doubled (reusing
    earlier solves) until the average stabilizes to the configured tolerance.
    """
    if alpha_count < 1 or (alpha_count & (alpha_count - 1)) != 0:
        raise ValueError("alpha_count must be a power of two")
    phase = PhaseFunction(B)

    def batch(angles_of_alpha):
        acc = 0.0 + 0.0j
        for a in angles_of_alpha:
            mu = clark_measure(B, complex(math.cos(a), math.sin(a)), phase)
            acc += mu.integrate(f)
        return acc

    A = alpha_count
    total = batch(TWO_PI * np.arange(A) / A)
    lhs = total / A
    converged = False
    while A < max_alpha:
        total += batch(TWO_PI * (np.arange(A) + 0.5) / A)
        A *= 2
        new = total / A
        drift = abs(new - lhs)
        lhs = new
        if drift <= max(cfg.abs_tol, cfg.rel_tol * abs(lhs), 1e-12):
            converged = True
            break

    quad = integrate_circle(lambda t: _eval_symbol(f, t), cfg)
    rhs = complex(quad.value)
    return DisintegrationResult(lhs, rhs, abs(lhs - rhs), A, converged, quad)
