"""Adaptive equal-weight quadrature on the unit circle.

Every integral is a mean over equal-weight nodes whose count doubles (reusing
previous samples) until two successive levels agree to tolerance or the point
cap is reached; failure to converge is reported in the result, not raised.
Lebesgue integrals use equispaced angles (the periodic trapezoid rule).  The
boundary phase of B carries nu = |B'|/N dm onto uniform measure, so nu-integrals
average over phase nodes, the inverse phase of equispaced levels.  Weighted by
N/|B'| the same nodes give Lebesgue integrals; next to kernel peaks that a
uniform grid would have to resolve, the sampled-symbol build in ``operators``
sums over those of z^N B, whose weights 2N/(N + |B'|) stay below 2
(``lebesgue_doubling`` picks its nodes), and T(1/|B'|) over the Clark levels
of z W, W the Blaschke product of the critical points of B, where one level
is exact (``inverse_derivative_doubling``).

Samplers are callables taking a numpy array of angles and returning an array
of values (complex or real; an extra trailing axis is allowed for batched
integrands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .blaschke import (TWO_PI, FiniteBlaschke, PhaseFunction, RuleParam, _checked_fields, circle_grid,
                       critical_points, phase_nodes)

#: number of grid points evaluated per chunk (keeps peak memory flat)
CHUNK = 1 << 20

#: least phase levels per winding of a phase run's first level
#: (``phase_doubling``), unless half the node budget holds fewer: with every
#: zero but the origin on the circle, the Lebesgue part of nu gets one node
#: per level
MIN_LEVELS = 8

#: the least first level, in nodes, of a circle integral, a nu-integral and
#: a sampled build
FIRST_POINTS = 256

#: relative tolerance of every doubling run, beside the absolute ``abs_tol``
REL_TOL = 1e-9

#: cost of one phase node of z^N B (its share of the phase inversion) in
#: uniform grid points (a basis sample and its share of the half-triangle
#: Gram product of the sampled build): 0.3 to 12 on frostman_fast and
#: dense_nonblaschke at N = 8...128, over four doubling levels in nested
#: brackets (``phase_doubling``), the most at N = 8, where the Gram product
#: is cheap (0.5 to 7 with full products and the scan's brackets alone; 1 to
#: 15 with midpoint-started Newton).  Any value from 1 to 255 routes the
#: benchmark configs alike: their dense products take the uniform grid,
#: their frostman products the phase route (``phase_route``).  There a
#: sampled symbol takes the phase nodes of z^N B (``lebesgue_doubling``),
#: and the symbol 1/|B'| of B itself the Clark levels of z W, one of which
#: integrates it exactly (``inverse_derivative_doubling``).  For 1/|B'| the
#: grid stays below the rule's cutoff because it wins on every dense
#: product: the Clark levels took 4.2, 5.0, 6.4 and 11 ms against the
#: grid's 0.87, 1.2, 2.9 and 8.6 ms at N = 8, 16, 32 and 64.  Their own
#: crossover lies lower than the rule's: on constant_modulus at grids of
#: 16N and 32N points they took 7.9 and 7.5 ms against 6.8 and 12 ms at
#: N = 64, 18 against 25 ms at 16N at N = 128, but 4.9 against 3.2 ms at
#: 128N at N = 16 (best of 5, 2-vCPU host, one thread)
PHASE_NODE_COST = 8

#: the [quadrature] settings: each ``QuadratureConfig`` field's default and
#: condition, which it checks and the CLI parses its key by.  A budget of
#: 2 * FIRST_POINTS or more lets every uniform run double once
QUADRATURE_PARAMS = {
    "max_points": RuleParam(1 << 20, lambda v: v >= 2 * FIRST_POINTS and not v & (v - 1),
                            f"a power of two >= {2 * FIRST_POINTS}"),
    "abs_tol": RuleParam(1e-10, lambda v: 0.0 < v < math.inf, "positive and finite"),
}


def _next_pow2(n: int) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1, n))))


@dataclass(frozen=True)
class QuadratureConfig:
    max_points: int = QUADRATURE_PARAMS["max_points"].default
    abs_tol: float = QUADRATURE_PARAMS["abs_tol"].default

    def __post_init__(self):
        _checked_fields(self, "quadrature", QUADRATURE_PARAMS)


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    estimated_error: float
    points_used: int
    converged: bool


def blaschke_initial_points(B: FiniteBlaschke, cfg: QuadratureConfig) -> int:
    """Grid size that resolves the narrowest boundary kernel peak of B.

    A zero at radius r produces a Poisson peak of angular width ~p, the
    product's (1 - r^2)/(1 + r), so the equispaced grid must step well below
    the narrowest width present; eight points per narrowest peak resolves
    them all before the first doubling check.  At least FIRST_POINTS, and
    capped at max_points/2 so one doubling stays possible.
    """
    scale = 8.0 * float(((1.0 + np.abs(B._distinct[0])) / B._p).max())
    return max(FIRST_POINTS, _next_pow2(int(min(scale, cfg.max_points // 2))))


def doubling(level: Callable, count: int, cfg: QuadratureConfig,
             limit: int | None = None) -> IntegralResult:
    """Running sum of ``level(count, offset)`` over all nodes so far, divided by
    their count.  Offset 0.5 gives the ``count`` nodes halfway between those of
    offset 0; the count doubles until two estimates agree or doubling would
    pass ``limit`` nodes (``cfg.max_points`` by default)."""
    limit = cfg.max_points if limit is None else limit
    running = level(count, 0.0)
    value, err = running / count, float("inf")
    # a level runs with the running sum and the last estimate alone held
    while 2 * count <= limit:
        running = running + level(count, 0.5)
        count *= 2
        estimate = running / count
        err = float(np.max(np.abs(estimate - value)))
        value = estimate
        tol = max(cfg.abs_tol, REL_TOL * float(np.max(np.abs(value))))
        if err <= tol:
            return IntegralResult(_scalarize(value), err, count, True)
    return IntegralResult(_scalarize(value), err, count, False)


def _sample(sampler, angles):
    vals = np.asarray(sampler(angles))
    if vals.shape[: 1] != angles.shape:
        raise ValueError("sampler must return one value per angle")
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals.reshape(len(angles), -1)))[0][0]
        raise ValueError(f"non-finite sample at angle {angles[bad]!r}")
    return vals


def _chunked_sum(sampler, count: int, stride_offset: float):
    """Sum of samples at angles 2*pi*(m + stride_offset)/count, chunked."""
    total = None
    for start in range(0, count, CHUNK):
        stop = min(start + CHUNK, count)
        angles = TWO_PI * (np.arange(start, stop) + stride_offset) / count
        vals = _sample(sampler, angles)
        s = vals.sum(axis=0)
        total = s if total is None else total + s
    return total


def integrate_circle(sampler: Callable, cfg: QuadratureConfig = QuadratureConfig()) -> IntegralResult:
    """Integrate a sampler against normalized Lebesgue measure on the circle."""
    return doubling(partial(_chunked_sum, sampler), FIRST_POINTS, cfg)


def _scalarize(v):
    arr = np.asarray(v)
    return complex(arr) if arr.ndim == 0 else arr


def _first_levels(degree: int) -> int:
    """Levels per winding of a phase run's first level: MIN_LEVELS, and at
    least FIRST_POINTS nodes."""
    return max(MIN_LEVELS, -(-FIRST_POINTS // degree))


def phase_doubling(B: FiniteBlaschke, level_sum: Callable, cfg: QuadratureConfig,
                   levels: int | None = None, limit: int | None = None) -> IntegralResult:
    """``doubling`` from ``levels`` levels per winding, a level being
    ``level_sum(nodes, slopes)`` of the phase nodes of B and Theta' = |B'|
    there, each solve bracketed by the nodes before it (``phase_nodes``'s
    ``solved``); ``limit`` counts nodes, as in ``doubling``.  By default the
    first level takes MIN_LEVELS levels per winding and at least FIRST_POINTS
    nodes; it takes at most half the limit, so that the run can double once,
    and never less than one level per winding."""
    phase = PhaseFunction(B)
    N = B.degree
    limit = cfg.max_points if limit is None else limit
    levels = _first_levels(N) if levels is None else levels
    levels = max(1, min(levels, limit // (2 * N)))
    solved = []  # each level's nodes bracket the next

    def level(count, offset):
        return level_sum(*phase_nodes(phase, count // N, offset, solved)[:2])

    return doubling(level, N * levels, cfg, limit)


def nu_integral(f: Callable, B: FiniteBlaschke, cfg: QuadratureConfig = QuadratureConfig()) -> IntegralResult:
    """Integral of f against the mean-of-harmonic-measures density |B'|/N:
    the mean of f over phase nodes (``phase_doubling`` from its default first level)."""
    return phase_doubling(B, lambda nodes, _: _sample(f, nodes).sum(axis=0), cfg)


def phase_route(B: FiniteBlaschke, cfg: QuadratureConfig) -> bool:
    """Whether the sampled build leaves the uniform grid sized to the
    narrowest kernel peak of B (``blaschke_initial_points``): when that grid
    costs more than PHASE_NODE_COST times the first level of the phase nodes
    of z^N B."""
    N = B.degree
    return blaschke_initial_points(B, cfg) > PHASE_NODE_COST * 2 * N * _first_levels(2 * N)


def lebesgue_doubling(B: FiniteBlaschke, level_sum: Callable, cfg: QuadratureConfig) -> IntegralResult:
    """``doubling`` of a Lebesgue integral next to the kernel peaks of B, a
    level being ``level_sum(angles, weights)``: the nodes of the sampled
    build.

    They are a uniform grid sized to the narrowest peak
    (``blaschke_initial_points``), with weights 1, unless ``phase_route``
    takes the phase nodes of Z = z^N B.  The phase of Z carries
    (N + |B'|) dm onto uniform measure, so its nodes resolve the peaks and
    the flat part of the circle at once, each with the Lebesgue weight
    2N/|Z'| <= 2; their count stops at max_points/PHASE_NODE_COST.  Products
    whose zeros keep a wide margin from the circle, such as every dense
    product, take the grid; products with zeros at the 1 - 1e-6 cap, such
    as frostman's, take the phase nodes (or, for the symbol 1/|B'|,
    ``inverse_derivative_doubling``)."""
    N = B.degree
    if not phase_route(B, cfg):
        uniform = blaschke_initial_points(B, cfg)
        return doubling(lambda M, offset: level_sum(circle_grid(M, offset), np.ones(M)), uniform, cfg)
    Z = FiniteBlaschke(np.concatenate((B.zeros, np.zeros(N, dtype=complex))))
    return phase_doubling(Z, lambda nodes, slopes: level_sum(nodes, 2 * N / slopes),
                          cfg, limit=cfg.max_points // PHASE_NODE_COST)


def inverse_derivative_doubling(B: FiniteBlaschke, level_sum: Callable, cfg: QuadratureConfig) -> IntegralResult:
    """``phase_doubling`` of T(1/|B'|) over the phase nodes of Z = z W, W
    the Blaschke product of the critical points of B (``critical_points``),
    a level being ``level_sum(angles, weights)`` as in ``lebesgue_doubling``
    (the build samples 1/|B'| at the angles): the weights are the Clark
    masses 1/Theta_Z', scaled to sum to the level's windings, since each
    Clark measure has mass 1 and their sum is off by the rounding of the
    phase (3e-14 at constant_modulus(1 - 1e-6), N = 256).

    On the circle |B'| = |R|/|Q|^2, R the numerator of B' and
    Q(z) = prod_j (1 - conj(lam_j) z); R has the N - 1 critical points c_m
    in the disk and their reflections 1/conj(c_m) as zeros, so
    |R| = K |G|^2 with G(z) = prod_m (1 - conj(c_m) z) (Fejer-Riesz).  So
    e_j conj(e_i)/|B'| = F_j conj(F_i) with F_j = Q e_j/(sqrt(K) G), and
    Q e_j is a polynomial of degree below N: every F_j lies in the model
    space of Z.  One Clark measure of Z, sum over its N atoms with weights
    1/Theta_Z', integrates such a product exactly (Clark), and so does the
    next level: when the critical points settled, the run starts from one
    level per winding and stops at 2N nodes.  Its levels average to dm for
    any W (Aleksandrov), so inexact critical points cost levels, not
    accuracy: when they did not settle, the run starts from the default
    first level of ``phase_doubling``, as a sampled symbol's does, so that
    its first two levels are not both taken for exact.  The nodes stop at
    max_points/PHASE_NODE_COST."""
    points, settled = critical_points(B)
    Z = FiniteBlaschke(np.concatenate(([0j], points)))

    def level(nodes: np.ndarray, slopes: np.ndarray):
        mass = 1.0 / slopes
        return level_sum(nodes, mass * (len(nodes) / mass.sum()))

    return phase_doubling(Z, level, cfg, 1 if settled else None, cfg.max_points // PHASE_NODE_COST)
