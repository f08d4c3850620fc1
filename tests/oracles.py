"""Independent routes that only the tests use: pointwise evaluation of the
product and of its reproducing kernel, and the kernel average of a function
by circle quadrature.  The library takes these quantities in closed form or
from the phase nodes; these slower routes check them."""

import cmath

import numpy as np

from ttolab.blaschke import (
    FiniteBlaschke,
    _as_angle,
    abs_derivative_boundary,
    eval_blaschke_grid,
)
from ttolab.quadrature import QuadratureConfig, blaschke_initial_points, integrate_circle


def eval_blaschke(B: FiniteBlaschke, w: complex) -> complex:
    """Evaluate the product at a point of the closed disk."""
    w = complex(w)
    if abs(w) > 1.0 + 1e-12:
        raise ValueError(f"point outside the closed disk: |w| = {abs(w)}")
    vals = B._sigma * (w - B.zeros) / (1.0 - np.conj(B.zeros) * w)
    return complex(np.prod(vals))


def model_kernel(B: FiniteBlaschke, lam, w) -> complex:
    """Reproducing kernel of the model space at lam, evaluated at w.

    lam may lie inside the disk or on the circle; the diagonal boundary
    value (lam = w on the circle) is the angular derivative |B'(lam)|.
    """
    lam, w = complex(lam), complex(w)
    if abs(lam) > 1.0 + 1e-12:
        raise ValueError("kernel parameter outside the closed disk")
    if abs(lam - w) < 1e-14 and abs(abs(lam) - 1.0) < 1e-12:
        return complex(abs_derivative_boundary(B, lam))
    Bl = eval_blaschke(B, lam)
    Bw = eval_blaschke(B, w)
    return (1.0 - Bl.conjugate() * Bw) / (1.0 - lam.conjugate() * w)


def model_kernel_sq_grid(B: FiniteBlaschke, zeta, angles: np.ndarray,
                         b_values: np.ndarray | None = None) -> np.ndarray:
    """|normalized model kernel at zeta|^2 on a circle grid.

    ``b_values`` may carry precomputed B(e^{i angles}).  Grid points that
    collide with zeta get the removable-singularity value |B'(zeta)|.
    """
    th0 = _as_angle(zeta)
    z0 = cmath.exp(1j * th0)
    z = np.exp(1j * np.asarray(angles, dtype=float))
    Bz = eval_blaschke_grid(B, np.asarray(angles, dtype=float)) if b_values is None else b_values
    B0 = eval_blaschke_grid(B, np.array([th0]))[0]
    dprime = abs_derivative_boundary(B, th0)
    dist2 = np.abs(z - z0) ** 2
    num = np.abs(B0 - Bz) ** 2
    out = np.empty_like(dist2)
    tiny = dist2 < 1e-24
    np.divide(num, dist2 * dprime, out=out, where=~tiny)
    out[tiny] = dprime
    return out


def fejer_apply(B: FiniteBlaschke, f, zeta, cfg: QuadratureConfig = QuadratureConfig()):
    """Average of f against the squared normalized boundary kernel at zeta."""
    th0 = _as_angle(zeta)

    def sampler(angles):
        vals = np.asarray(f(angles)) if callable(f) else np.asarray(f.evaluate(angles))
        return vals * model_kernel_sq_grid(B, th0, angles)

    return integrate_circle(sampler, cfg, initial_points=blaschke_initial_points(B, cfg))
