"""Independent routes that only the tests use: pointwise evaluation of the
product, of |B'| and of the reproducing kernel, the product on the circle
from sines of the angle differences, the arctan2 lift of the boundary phase,
the kernel average of a function by circle quadrature, the Poisson integral,
the Clark unitary as a rank-one perturbation of the compressed shift, the
defect I - SS*, the basis samples from one pass per zero, the kernel
coefficients of the basis, the Clark measures of an alpha grid as objects,
the Hilbert-Schmidt lemma's lhs from Clark spectral sums, T(1/|B'|) from the Clark atoms and by 50-digit quadrature,
the critical points by 50-digit Newton steps,
the Hilbert-Schmidt and operator norms, the per-zero loops of two zero
rules, and the angular sums from the expanded zero list, folded by sorting.
The library takes these quantities in closed form, from tangents of half
angles, from the phase nodes of z^N B, from spectral sums or from the
distinct form of a zero rule; these routes check them."""

import cmath
import math
from functools import partial

import numpy as np

from ttolab import blaschke
from ttolab.blaschke import (
    PHASE_BLOCK,
    TWO_PI,
    FiniteBlaschke,
    abs_derivative_grid,
    exact_defects,
    generate_zeros,
    tmw_matrix,
)
from ttolab.clark import ClarkMeasure, clark_rows
from ttolab.operators import (
    OperatorMatrix,
    build_clark_spectral,
    build_truncated_toeplitz,
    compressed_shift,
    singular_values,
)
from ttolab.quadrature import (
    IntegralResult,
    QuadratureConfig,
    _chunked_sum,
    blaschke_initial_points,
    doubling,
    nu_integral,
)


def _as_angle(zeta) -> float:
    """Accept an angle in radians or a unimodular complex."""
    if isinstance(zeta, complex) or isinstance(zeta, np.complexfloating):
        z = complex(zeta)
        if abs(abs(z) - 1.0) > 1e-9:
            raise ValueError(f"not a circle point: |z| = {abs(z)!r}")
        return math.atan2(z.imag, z.real) % TWO_PI
    return float(zeta) % TWO_PI


def abs_derivative_boundary(B: FiniteBlaschke, zeta) -> float:
    """|B'(zeta)| for zeta on the circle (always finite for finite products)."""
    th = _as_angle(zeta)
    return float(abs_derivative_grid(B, np.array([th]))[0])


def poisson_integral(f, lam: complex, cfg: QuadratureConfig = QuadratureConfig()) -> IntegralResult:
    """Harmonic extension of f at lam: the nu-integral of the one-zero product,
    whose nu is the Poisson measure of lam."""
    return nu_integral(f, FiniteBlaschke(np.array([complex(lam)])), cfg)


def _clark_rank_one_vectors(B: FiniteBlaschke):
    """Coefficient vectors of the constant 1 and of conj(z)B in the basis."""
    N = B.degree
    u = np.zeros(N, dtype=complex)
    u[0] = 1.0
    v = np.empty(N, dtype=complex)
    p = 1.0
    for j in range(N - 1, -1, -1):
        v[j] = B._cnorm[j] * B._sigma[j] * p
        p *= -B._radii[j]
    return u, v


def build_clark_unitary(B: FiniteBlaschke, alpha: complex) -> OperatorMatrix:
    """Rank-one unitary perturbation of the compressed shift at parameter alpha."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise ValueError("alpha must be unimodular")
    if not B.vanishes_at_origin:
        raise ValueError("Clark construction here requires a zero at the origin")
    u, v = _clark_rank_one_vectors(B)
    U = compressed_shift(B) + alpha * np.outer(u, v.conj())
    return OperatorMatrix(U, B)


def rank_one_defect(B: FiniteBlaschke) -> OperatorMatrix:
    """I minus (compressed shift times its adjoint): the projector onto
    constants whenever the product vanishes at the origin."""
    if not B.vanishes_at_origin:
        raise ValueError("defect identity requires a zero at the origin")
    S = compressed_shift(B)
    return OperatorMatrix(np.eye(B.degree, dtype=complex) - S @ S.conj().T, B)


def tmw_per_zero(B: FiniteBlaschke, angles: np.ndarray) -> np.ndarray:
    """The basis samples of ``tmw_matrix`` from one pass per zero, repeats
    included: each pass forms the kernel c/(1 - conj(lam) z) and the factor
    sigma (z - lam)/(1 - conj(lam) z) anew, with the operations that
    ``tmw_matrix`` applies once per distinct zero, so the two agree bit for
    bit."""
    z = np.exp(1j * np.asarray(angles, dtype=float))
    rows = np.empty((B.degree, len(z)), dtype=complex)
    pref = np.ones_like(z)
    for i, lam in enumerate(B.zeros):
        inv = 1.0 / (1.0 - np.conj(lam) * z)
        np.multiply(pref, B._cnorm[i] * inv, out=rows[i])
        inv *= z - lam
        inv *= B._sigma[i]
        pref *= inv
    return rows.T


def tmw_kernel_coeffs(B: FiniteBlaschke, angles: np.ndarray) -> np.ndarray:
    """Coefficient vectors of the boundary kernels k_zeta in the basis.

    Row m holds conj(e_i(zeta_m)): the reproducing property makes these the
    expansion coefficients, no integration required.
    """
    return np.conj(tmw_matrix(B, angles))


def clark_measures(B: FiniteBlaschke, count: int) -> list[ClarkMeasure]:
    """The Clark measures at the count-th roots of unity as objects, one per
    row of ``clark_rows`` sorted by angle, each checked again on construction."""
    atoms, _, weights = clark_rows(B, count)
    order = np.argsort(atoms, axis=1)
    return [ClarkMeasure(B, complex(math.cos(a), math.sin(a)), row[o], w[o])
            for a, row, w, o in zip(TWO_PI * np.arange(count) / count, atoms, weights, order)]


def hs_lhs_reference(cfg) -> list[float]:
    """The lhs of ``hs_approx_gap`` from Clark spectral sums: per degree, the
    sum over the alpha grid of ||T(phi) - (Clark functional calculus of
    phi)||_HS^2, each calculus built as a dense matrix from its atoms, over
    alpha_count N."""
    out = []
    for N in cfg.n_values:
        B = FiniteBlaschke.from_sequence(cfg.sequence, N)
        T = build_truncated_toeplitz(B, cfg.symbol, cfg.quadrature)
        acc = 0.0
        for mu in clark_measures(B, cfg.alpha_count):
            M = build_clark_spectral(B, mu, cfg.symbol)
            acc += float(np.linalg.norm(T.matrix - M.matrix) ** 2)
        out.append(acc / (cfg.alpha_count * N))
    return out


def inverse_derivative_from_clark(B: FiniteBlaschke, rtol: float = 1e-13) -> np.ndarray:
    """T(1/|B'|) from the Clark measures, by Aleksandrov's disintegration: dm
    is the average over alpha of sigma_alpha, whose atoms zeta_k weigh
    w_k = 1/|B'(zeta_k)|, so <T(g) e_j, e_i> is the alpha-average of
    sum_k w_k g(zeta_k) e_j(zeta_k) conj(e_i(zeta_k)), and g = 1/|B'| turns the
    weights into w_k^2.  The alpha grid is the L-th roots of unity, doubled
    from L = 8 until two grids agree to rtol max|T|."""
    prev, L = None, 8
    while True:
        atoms, _, w = (a.ravel() for a in clark_rows(B, L))
        E = tmw_matrix(B, atoms)
        T = (E.conj().T * (w * w)) @ E / L
        if prev is not None and np.abs(T - prev).max() <= rtol * np.abs(T).max():
            return T
        if L > 1 << 12:
            raise RuntimeError(f"Clark-atom T(1/|B'|) did not settle by {L} levels")
        prev, L = T, 2 * L


def power_law_zeros(p: float, count: int) -> np.ndarray:
    """The origin, then count - 1 zeros with 1 - |lam_j| = (j + 1)^-p at
    golden-angle phases (j = 1, 2, ...)."""
    j = np.arange(1, count)
    return np.concatenate(([0j], (1.0 - (j + 1.0) ** -p) * np.exp(2j * np.pi * ((j * 0.6180339887498949) % 1.0))))


def critical_points_mp(B: FiniteBlaschke, points: np.ndarray, mp) -> np.ndarray:
    """Each point taken by Newton's method (``mp.findroot``, which raises
    unless it converges) to a root of
    B'/B = sum_j 1/(z - lam_j) - 1/(z - 1/conj(lam_j)) (1/z for a zero at
    the origin), one term per stored zero, at the working precision of mp,
    and rounded to double."""
    zs = [mp.mpc(z.real, z.imag) for z in B.zeros]

    def f(z):
        return mp.fsum(1 / z if lam == 0 else 1 / (z - lam) - 1 / (z - 1 / mp.conj(lam)) for lam in zs)

    def df(z):
        return mp.fsum(-1 / z ** 2 if lam == 0 else 1 / (z - 1 / mp.conj(lam)) ** 2 - 1 / (z - lam) ** 2
                       for lam in zs)

    return np.array([complex(mp.findroot(f, mp.mpc(p.real, p.imag), solver="newton", df=df)) for p in points],
                    dtype=complex)


def inverse_derivative_mp(B: FiniteBlaschke, split: float, mp) -> tuple[np.ndarray, float]:
    """T(1/|B'|) at the working precision of mp, rounded to double, and the
    largest error estimate of its quadratures: <T e_j, e_i> is the integral
    of e_j conj(e_i)/|B'| over the circle, by tanh-sinh quadrature over one
    turn that starts and ends at the angle ``split``.  Next to a zero within
    1e-6 of the circle the integrand peaks in a window of that width, which
    the nodes resolve only where they crowd, at the ends of the interval.  On
    the degree-4 product of the tests, a split at the angle of its zero
    1e-6 from the circle leaves error estimates below 1e-50; a split at 0
    leaves 1e-2."""
    zs = [mp.mpc(z.real, z.imag) for z in B.zeros]
    sigmas = [mp.conj(z) / abs(z) if z else mp.mpf(1) for z in zs]
    samples = {}  # every entry's quadrature visits the same nodes

    def sample(t):
        if t not in samples:
            zeta = mp.expj(t)
            basis, pref = [], mp.mpc(1)
            for z, sigma in zip(zs, sigmas):
                basis.append(pref * mp.sqrt(1 - abs(z) ** 2) / (1 - mp.conj(z) * zeta))
                pref *= sigma * (zeta - z) / (1 - mp.conj(z) * zeta)
            samples[t] = basis, 1 / mp.fsum((1 - abs(z) ** 2) / abs(zeta - z) ** 2 for z in zs)
        return samples[t]

    N, worst = B.degree, 0.0
    T = np.empty((N, N), dtype=complex)
    turn = [mp.mpf(split), mp.mpf(split) + 2 * mp.pi]
    for i in range(N):
        for j in range(i, N):
            def entry(t, i=i, j=j):
                basis, weight = sample(t)
                return weight * basis[j] * mp.conj(basis[i])

            value, err = mp.quad(entry, turn, error=True)
            T[i, j] = complex(value / (2 * mp.pi))
            T[j, i] = np.conj(T[i, j])
            worst = max(worst, float(err))
    return T, worst


def hs_norm(A: OperatorMatrix) -> float:
    return float(np.linalg.norm(A.matrix))


def op_norm(A: OperatorMatrix) -> float:
    return float(singular_values(A)[0])


def eval_blaschke_grid(B: FiniteBlaschke, angles) -> np.ndarray:
    """Values of B at e^{i angles}, for an angle array of any shape: the
    product of all N factors in zero order, equal to a loop over the zeros
    bit for bit.  The factor of r e^{i psi} is formed as e^{ix} conj(d)/d,
    x = angle - psi, d = (1-r) + 2r sin^2(x/2) - i r sin x.  The factors of a
    block of at most PHASE_BLOCK zero x angle cells are formed at once and
    multiplied along the zero axis in zero order.  The blocks are of equal
    size, so none holds a single angle unless the call does: numpy
    multiplies one-element arrays with another kernel, which can move the
    last bit."""
    r, psi = B._radii[:, None], np.angle(B.zeros)[:, None]
    th = np.asarray(angles, dtype=float)
    flat = th.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    count = -(-flat.size // max(1, PHASE_BLOCK // len(r)))
    edges = np.arange(count + 1) * flat.size // max(count, 1)
    for start, stop in zip(edges[:-1], edges[1:]):
        x = flat[None, start:stop] - psi
        half = np.sin(0.5 * x)
        d = (1.0 - r) + 2.0 * r * half * half - 1j * r * np.sin(x)
        out[start:stop] = np.prod(np.exp(1j * x) * np.conj(d) / d, axis=0)
    return out.reshape(th.shape)


#: 2 pi less its double TWO_PI, as sin(pi - d) = d for d = pi - math.pi
#: gives it: an oracle's own value of ``blaschke.TWO_PI_TAIL``
TWO_PI_TAIL = 2.0 * math.sin(math.pi)


def half_angle(theta, psi):
    """Branch count n of x = theta - psi and the sine and cosine of
    (x - 2 pi n)/2, with x - 2 pi n formed as ((theta - n TWO_PI) - psi) -
    n TWO_PI_TAIL: 2 pi in two doubles, and no rounding of 2 pi n where
    theta - psi lies next to it (one rounded 2 pi moves x by 2.4e-16, which
    a zero 1e-10 from the circle turns into 1e-5 of its phase)."""
    n = np.floor((np.subtract(theta, psi) + np.pi) / TWO_PI)
    h = 0.5 * (((theta - n * TWO_PI) - psi) - n * TWO_PI_TAIL)
    return n, np.sin(h), np.cos(h)


def phase_lift(theta, psi, r, p):
    """Continuous increasing lift of the phase of the factor of a zero of
    modulus r at angle psi, at the angles theta, from arctan2 and the branch
    count, with p = (1 - r^2)/(1 + r) the product's stand-in for 1 - r: its
    derivative is the Poisson kernel."""
    n, s, c = half_angle(theta, psi)
    return 2.0 * np.arctan2((1.0 + r) * s, p * c) + TWO_PI * n


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


def peak_integral(sampler, B: FiniteBlaschke, cfg: QuadratureConfig = QuadratureConfig()) -> IntegralResult:
    """``integrate_circle`` of the sampler from a first level that resolves
    the narrowest kernel peak of B (``blaschke_initial_points``)."""
    return doubling(partial(_chunked_sum, sampler), blaschke_initial_points(B, cfg), cfg)


def fejer_apply(B: FiniteBlaschke, f, zeta, cfg: QuadratureConfig = QuadratureConfig()):
    """Average of f against the squared normalized boundary kernel at zeta."""
    th0 = _as_angle(zeta)

    def sampler(angles):
        vals = np.asarray(f(angles)) if callable(f) else np.asarray(f.evaluate(angles))
        return vals * model_kernel_sq_grid(B, th0, angles)

    return peak_integral(sampler, B, cfg)


def shift_cumprod_reference(B: FiniteBlaschke) -> np.ndarray:
    """The compressed shift as one array: every column's running product
    down the whole matrix by one ``np.cumprod``, then the lower triangle
    and the diagonal of zeros."""
    N = B.degree
    c, sig, r = B._cnorm, B._sigma, B._radii
    i, j = np.indices((N, N))
    p = np.cumprod(np.where(i > j + 1, -r[i - 1], 1.0), axis=0)
    S = np.tril(c[:, None] * c * np.conj(sig) * p, -1)
    np.fill_diagonal(S, B.zeros)
    return S


def trig_poly_identity_reference(B: FiniteBlaschke, sym, poly_coeffs) -> np.ndarray:
    """p(T(phi)) of a trig-poly symbol with every constant term a multiple
    of a formed identity: T = sum_k c_k S^k (S^0 = I, adjoint powers for
    k < 0), averaged with its adjoint for a real symbol, then Horner's rule
    with c I added at each step."""
    N = B.degree
    S = compressed_shift(B)
    ident = np.eye(N, dtype=complex)
    dmax = max((abs(k) for k, _ in sym.coeffs), default=0)
    powers = [ident, S]
    while len(powers) <= dmax:
        powers.append(powers[-1] @ S)
    T = np.zeros((N, N), dtype=complex)
    for k, ck in sym.coeffs:
        T += ck * (powers[k] if k >= 0 else powers[-k].conj().T)
    if sym.is_real:
        T = 0.5 * (T + T.conj().T)
    lead, *lower = reversed(poly_coeffs)
    out = lead * ident
    for i, c in enumerate(lower):
        out = (lead * T if i == 0 else out @ T) + c * ident
    return out


def van_der_corput_loop(n: int) -> np.ndarray:
    """First n points of the base-2 van der Corput sequence, one point at a
    time, bit by bit."""
    out = np.zeros(n)
    for i in range(n):
        x, denom, k = 0.0, 2.0, i
        while k:
            x += (k & 1) / denom
            k >>= 1
            denom *= 2.0
        out[i] = x
    return out


def alternating_3k_loop(lam0: float, count: int) -> np.ndarray:
    """The alternating_3k zeros one index at a time: indices
    3^{k-1} < j <= 3^k carry +lam0 for odd k, -lam0 for even k, and j = 0, 1
    stay at the origin."""
    vals = np.zeros(count, dtype=complex)
    for j in range(2, count):
        k, hi = 1, 3
        while j > hi:
            k += 1
            hi *= 3
        vals[j] = lam0 if k % 2 == 1 else -lam0
    return vals


def fold_repeats_reference(lam: np.ndarray):
    """(distinct, counts), lam made of counts[k] copies of distinct[k] and
    distinct sorted as ``np.unique`` sorts complex values, when some zero
    repeats; None otherwise.  A zero is keyed by the ranks of its real and
    imaginary parts among their sorted distinct values."""
    ranks = []
    for part in (lam.real, lam.imag):
        values = np.unique(part)
        ranks.append((values, np.searchsorted(values, part)))
    (real, key), (imag, rank) = ranks
    keys, counts = np.unique(key * len(imag) + rank, return_counts=True)
    if len(keys) == len(lam):
        return None
    distinct = np.empty(len(keys), dtype=complex)
    distinct.real, distinct.imag = real[keys // len(imag)], imag[keys % len(imag)]
    return distinct, counts


def angular_sums_reference(seq, grid, J) -> np.ndarray:
    """``angular_partial_sums`` from the expanded zero list: all J zeros
    generated, folded by sorting their parts (``fold_repeats_reference``)
    where some repeat, and the terms (1 - |lam|^2)/|zeta - lam|^2, times the
    multiplicities, summed row by row over slices of POISSON_CELLS // angles
    zeros (at least one)."""
    angles = np.asarray(grid, dtype=float)
    x, y = np.cos(angles)[:, None], np.sin(angles)[:, None]
    lam = generate_zeros(seq, J)
    zeros, counts = fold_repeats_reference(lam) or (lam, np.ones(J))
    sums = np.zeros(len(angles))
    block = max(1, blaschke.POISSON_CELLS // len(angles))
    for start in range(0, len(zeros), block):
        part = zeros[start:start + block]
        terms = exact_defects(part) / ((x - part.real) ** 2 + (y - part.imag) ** 2)
        sums += (terms * counts[start:start + block]).sum(axis=1)
    return sums
