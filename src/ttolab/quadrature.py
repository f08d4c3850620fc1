"""Adaptive equal-weight quadrature on the unit circle.

Every integral is a mean over equal-weight nodes whose count doubles (reusing
previous samples) until two successive levels agree to tolerance or the point
cap is reached; failure to converge is reported in the result, not raised.
Lebesgue integrals use equispaced angles (the periodic trapezoid rule).  The
boundary phase of B carries nu = |B'|/N dm onto uniform measure, so nu-integrals
average over phase nodes, the inverse phase of equispaced levels.  Weighted by
N/|B'| the same nodes give Lebesgue integrals; the sampled-symbol build in
``operators`` uses those of z^N B, whose weights 2N/(N + |B'|) stay below 2.

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

from .blaschke import FiniteBlaschke, TWO_PI, PhaseFunction, RuleParam, _checked_fields, phase_nodes

#: number of grid points evaluated per chunk (keeps peak memory flat)
CHUNK = 1 << 20

#: least phase levels per winding of a nu-integral and of a sampled build's
#: first level, unless half the node budget holds fewer: with every zero but
#: the origin on the circle, the Lebesgue part of nu gets one node per level
MIN_LEVELS = 8

#: the least first level, in nodes, of a circle integral, a nu-integral and
#: a sampled build
FIRST_POINTS = 256

#: relative tolerance of every doubling run, beside the absolute ``abs_tol``
REL_TOL = 1e-9

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


def phase_doubling(B: FiniteBlaschke, level_sum: Callable, levels: int, cfg: QuadratureConfig,
                   limit: int | None = None) -> IntegralResult:
    """``doubling`` from ``levels`` levels per winding, a level being
    ``level_sum(nodes, slopes)`` of the phase nodes of B and Theta' = |B'|
    there, each solve bracketed by the nodes before it (``phase_nodes``'s
    ``solved``); ``limit`` counts nodes, as in ``doubling``.  The first level
    takes at most half the limit, so that the run can double once, and never
    less than one level per winding."""
    phase = PhaseFunction(B)
    N = B.degree
    limit = cfg.max_points if limit is None else limit
    levels = max(1, min(levels, limit // (2 * N)))
    solved = []  # each level's nodes bracket the next

    def level(count, offset):
        return level_sum(*phase_nodes(phase, count // N, offset, solved)[:2])

    return doubling(level, N * levels, cfg, limit)


def nu_integral(f: Callable, B: FiniteBlaschke, cfg: QuadratureConfig = QuadratureConfig()) -> IntegralResult:
    """Integral of f against the mean-of-harmonic-measures density |B'|/N:
    the mean of f over phase nodes, from MIN_LEVELS levels per winding and
    at least FIRST_POINTS nodes, or half of max_points if that is fewer
    (``phase_doubling``)."""
    return phase_doubling(B, lambda nodes, _: _sample(f, nodes).sum(axis=0),
                          max(MIN_LEVELS, -(-FIRST_POINTS // B.degree)), cfg)
