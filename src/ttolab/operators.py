"""Dense realizations of truncated Toeplitz operators on finite model spaces.

All matrices are written in the Takenaka-Malmquist-Walsh basis of the model
space of a finite Blaschke product.  The compressed shift has a closed-form
lower-triangular-plus-spike matrix in this basis; trigonometric-polynomial
symbols are therefore built exactly as p(S) + q(S)*, while general sampled
symbols fall back to shared-node circle quadrature: a uniform grid, or, next
to zeros whose kernel peaks such a grid would have to resolve, the phase
nodes of z^N B with their Lebesgue weights (``quadrature.lebesgue_doubling``
picks them).  Every dense product takes the grid; products with zeros at
the 1 - 1e-6 cap or nearer, such as frostman's, the phase nodes.  There the
weight 1/|B'| of the STZ trace is exact on one Clark level of z W, W the
Blaschke product of the critical points of B, since it turns each product
e_j conj(e_i) of basis functions into F_j conj(F_i) with F_j in the model
space of z W (``quadrature.inverse_derivative_doubling``).  Functions of
Hermitian matrices and Schatten norms use numpy.linalg (eigh, svd).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .blaschke import FiniteBlaschke, abs_derivative_grid, tmw_matrix
from .clark import ClarkMeasure
from .quadrature import (IntegralResult, QuadratureConfig, inverse_derivative_doubling, lebesgue_doubling, nu_integral,
                         phase_route)

_HERMITIAN_RTOL = 1e-8


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolRep:
    """A bounded function on the circle.

    Either a trigonometric polynomial (coeffs maps frequency k to c_k) or a
    vectorized sampler of angles.  ``is_real`` marks real-valued symbols,
    which unlocks continuous (non-polynomial) functional calculus downstream.
    ``inverse_derivative_of`` is the product B of the sampled symbol 1/|B'|
    (``inverse_derivative_symbol``): a build that leaves the uniform grid
    samples it at the Clark levels of z W, W the Blaschke product of the
    critical points of B, in place of the phase nodes of z^N B.
    """

    coeffs: tuple = ()
    sampler: Callable | None = None
    is_real: bool = False
    inverse_derivative_of: FiniteBlaschke | None = None

    @staticmethod
    def trig(coeffs: Mapping[int, complex]) -> "SymbolRep":
        items = tuple(sorted((int(k), complex(v)) for k, v in coeffs.items() if v != 0))
        d = dict(items)
        real = all(d.get(-k, 0j) == v.conjugate() for k, v in d.items())
        return SymbolRep(coeffs=items, is_real=real)

    @staticmethod
    def from_sampler(fn: Callable, real: bool = False) -> "SymbolRep":
        return SymbolRep(sampler=fn, is_real=real)

    @staticmethod
    def constant(c: complex) -> "SymbolRep":
        return SymbolRep.trig({0: c})

    @staticmethod
    def preset(name: str) -> "SymbolRep":
        if name == "cos":  # z + conj(z), the classical tridiagonal example
            return SymbolRep.trig({1: 1.0, -1: 1.0})
        if name == "re_z":
            return SymbolRep.trig({1: 0.5, -1: 0.5})
        if name == "z":
            return SymbolRep.trig({1: 1.0})
        if name == "abs_sin":
            return SymbolRep.from_sampler(lambda t: np.abs(np.sin(t)), real=True)
        raise ValueError(f"unknown symbol preset {name!r}")

    @property
    def is_trig(self) -> bool:
        return self.sampler is None

    @property
    def coeff_dict(self) -> dict:
        return dict(self.coeffs)

    def evaluate(self, angles) -> np.ndarray:
        th = np.asarray(angles, dtype=float)
        if self.sampler is not None:
            return np.asarray(self.sampler(th))
        return self.evaluate_at(np.exp(1j * th))

    def evaluate_at(self, w: np.ndarray) -> np.ndarray:
        """Trig-poly value at given unimodular points (skips the angle->point map)."""
        if not self.is_trig:
            raise ValueError("evaluate_at applies to trig-poly symbols only")
        out = np.zeros_like(np.asarray(w, dtype=complex))
        for k, c in self.coeffs:
            out = out + c * w ** k
        return out

    def __mul__(self, other: "SymbolRep") -> "SymbolRep":
        if not (self.is_trig and other.is_trig):
            raise ValueError("can only multiply trig-poly symbols")
        prod: dict = {}
        for k1, c1 in self.coeffs:
            for k2, c2 in other.coeffs:
                prod[k1 + k2] = prod.get(k1 + k2, 0j) + c1 * c2
        return SymbolRep.trig(prod)

    def __add__(self, other: "SymbolRep") -> "SymbolRep":
        if not (self.is_trig and other.is_trig):
            raise ValueError("can only add trig-poly symbols")
        s = self.coeff_dict
        for k, c in other.coeffs:
            s[k] = s.get(k, 0j) + c
        return SymbolRep.trig(s)


def inverse_derivative_symbol(B: FiniteBlaschke) -> SymbolRep:
    """The weight 1/|B'| as a (real, smooth) sampled symbol."""
    return SymbolRep(sampler=lambda t: 1.0 / abs_derivative_grid(B, t), is_real=True, inverse_derivative_of=B)


# ---------------------------------------------------------------------------
# scalar functions applied to operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunction:
    """Function applied to an operator: a polynomial (any matrix) or a
    pointwise map (Hermitian matrices only, via eigenvalues)."""

    poly_coeffs: tuple = ()
    pointwise: Callable | None = None

    @staticmethod
    def poly(coeffs: Sequence[complex]) -> "ScalarFunction":
        c = tuple(complex(v) for v in coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        return ScalarFunction(poly_coeffs=c)

    @staticmethod
    def from_pointwise(fn: Callable) -> "ScalarFunction":
        return ScalarFunction(pointwise=fn)

    @staticmethod
    def preset(name: str) -> "ScalarFunction":
        table = {
            "identity": [0, 1],
            "square": [0, 0, 1],
            "cube": [0, 0, 0, 1],
            "cube_minus_x": [0, -1, 0, 1],
        }
        if name in table:
            return ScalarFunction.poly(table[name])
        if name == "abs":
            return ScalarFunction.from_pointwise(np.abs)
        if name == "exp":
            return ScalarFunction.from_pointwise(np.exp)
        raise ValueError(f"unknown function preset {name!r}")

    @property
    def is_poly(self) -> bool:
        return self.pointwise is None

    def eval_scalar(self, x):
        if self.pointwise is not None:
            return self.pointwise(x)
        out = np.zeros_like(np.asarray(x, dtype=complex))
        for c in reversed(self.poly_coeffs):
            out = out * x + c
        return out

    def compose_symbol(self, sym: SymbolRep) -> SymbolRep:
        """Symbol of f(phi): exact for polynomial f and trig-poly phi."""
        if self.is_poly and sym.is_trig:
            acc = SymbolRep.constant(0.0)
            for c in reversed(self.poly_coeffs):
                acc = acc * sym + SymbolRep.constant(c)
            return acc
        if not sym.is_real:
            raise ValueError("pointwise functions require a real-valued symbol")

        def sampler(angles):
            vals = np.real(sym.evaluate(angles))
            return np.asarray(self.eval_scalar(vals))
        return SymbolRep.from_sampler(sampler, real=True)


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense matrix in the orthonormal basis attached to a Blaschke product."""

    matrix: np.ndarray
    basis: FiniteBlaschke
    converged: bool = True
    estimated_error: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[0] != self.basis.degree:
            raise ValueError("matrix dimension must match the Blaschke degree")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


#: matrix cells per row band of ``compressed_shift``: 2^12 cells keep its
#: transient near the size of S at N = 128 (260 KiB) and under 300 KiB at any
#: N.  On dense_nonblaschke (best of 30, 2-vCPU host) N = 128 took 0.25 ms in
#: bands of 2^12 cells, 0.48 and 0.31 ms in bands of 2^10 and 2^14; N = 1024
#: took 20 ms, 30 and 16 ms (43 ms and a 41 MiB transient as one band)
SHIFT_CELLS = 1 << 12


def _add_diagonal(A: np.ndarray, c: complex):
    """A + c I, in place."""
    A.flat[:: len(A) + 1] += c


def compressed_shift(B: FiniteBlaschke) -> np.ndarray:
    """Matrix of the compression of multiplication by z, in closed form.

    Lower triangular: diagonal carries the zeros; below the diagonal
    entry (i, j) is c_i c_j conj(sigma_j) prod_{j<l<i} (-|lambda_l|) with
    c = sqrt(1-|lambda|^2) from the product's defects and sigma the unimodular
    factor normalizers.  S is written into its output in bands of about
    SHIFT_CELLS cells, so its working memory is one band.
    """
    N = B.degree
    c, sig, r = B._cnorm, B._sigma, B._radii
    S = np.empty((N, N), dtype=complex)
    j = np.arange(N)
    step = max(1, SHIFT_CELLS // N)
    carry = None
    for i0 in range(0, N, step):
        i = np.arange(i0, min(i0 + step, N))[:, None]
        # running product down each column, never a ratio of prefix products:
        # repeated zeros at the origin make those prefixes vanish.  The band
        # continues the product of the row above it, factor by factor, as
        # one cumulative product down the whole column would
        p = np.where(i > j + 1, -r[i - 1], 1.0)
        if carry is not None:
            p[0] *= carry
        np.cumprod(p, axis=0, out=p)
        carry = p[-1]
        S[i0:i0 + len(i)] = np.tril(c[i] * c * np.conj(sig) * p, i0 - 1)
    np.fill_diagonal(S, B.zeros)
    return S


def _horner(M: np.ndarray, coeffs: Sequence[complex]) -> np.ndarray:
    """sum_k coeffs[k] M^k (constant first) by Horner's rule, each constant added on the diagonal."""
    lead, *lower = reversed(coeffs)
    out = lead * (M if lower else np.eye(len(M), dtype=complex))
    for i, c in enumerate(lower):
        if i:
            out = out @ M
        _add_diagonal(out, c)
    return out


def _toeplitz_trig(B: FiniteBlaschke, sym: SymbolRep) -> np.ndarray:
    """Exact compression T = p(S) + q(S)* + c_0 I of a trig-poly symbol, p =
    sum_{k>0} c_k z^k and q = sum_{k>0} conj(c_{-k}) z^k trimmed and taken by
    ``_horner``.  A real symbol has q = p, so T = P* + P is exactly Hermitian
    and holds S, P, T.  A one-sided symbol's absent side is the scalar 0 with
    no product and no matrix, added to every entry as the zero matrix would
    be, so T starts from the present side and the build holds no more than
    a real symbol's of its degree."""
    c = sym.coeff_dict
    ks = range(1, max(map(abs, c), default=0) + 1)
    p = ScalarFunction.poly([0, *(c.get(k, 0j) for k in ks)]).poly_coeffs
    q = ScalarFunction.poly([0, *(c.get(-k, 0j).conjugate() for k in ks)]).poly_coeffs
    S = compressed_shift(B)
    if len(p) > 1 and (sym.is_real or len(q) > 1):
        P = _horner(S, p)
        T = np.conjugate((P if sym.is_real else _horner(S, q)).T)
        T += P
    elif len(p) > 1:
        T = _horner(S, p)
        T += np.conjugate(0j)  # q(S)* = 0: a -0 real part becomes +0, as with the zero matrix
    elif len(q) > 1:
        T = np.conjugate(_horner(S, q).T)
        T += 0j  # p(S) = 0: a -0 part becomes +0, as with the zero matrix
    else:
        T = np.zeros_like(S)
    _add_diagonal(T, c.get(0, 0j))
    return T


#: nodes per block of a sampled build's Gram product.  A build holds one
#: block of N x GRAM_NODES basis samples and one band of their weighted
#: conjugate at a time: frostman T(1/|B'|) peaked at 3.7 MiB traced at
#: N = 128 and 9.0 MiB at N = 256 (6.0 and 13.7 MiB when the next block's
#: samples were formed while the last ones were held).  Blocks of 512 nodes
#: peaked at 7.5 MiB at N = 256 but took 141 ms there against 135 ms (best
#: of 7, 2-vCPU host, one thread)
GRAM_NODES = 1024


def _row_bands(N: int) -> list[tuple[int, int]]:
    """Row bands of a real symbol's Gram product: band (r0, r1) forms its
    rows' columns up to r1 only, so k bands form (k + 1)/(2k) of the product.
    Up to 4 bands of at least 32 rows: thinner products run below BLAS
    speed, and 8 bands built frostman T(1/|B'|) slower than 4 at N = 128
    and 256 (one thread)."""
    k = max(1, min(4, N // 32))
    edges = [N * b // k for b in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _mirror_lower(A: np.ndarray) -> np.ndarray:
    """Make A exactly Hermitian from its lower triangle: every entry above
    the diagonal becomes the conjugate of its mirror below, and the diagonal
    its real part."""
    np.copyto(A, A.conj().T, where=~np.tri(len(A), dtype=bool))
    np.fill_diagonal(A, A.diagonal().real)
    return A


def _toeplitz_quadrature(B: FiniteBlaschke, sym: SymbolRep, cfg: QuadratureConfig):
    """Shared-node quadrature: one basis-sample matrix per refinement level,
    all N^2 inner products formed as a Gram product.

    The nodes and their Lebesgue weights come level by level from
    ``lebesgue_doubling``, or, for the symbol 1/|B'| of B itself
    (``inverse_derivative_symbol``) on the phase route, from the Clark
    levels of z W and their masses (``inverse_derivative_doubling``).

    Each level streams its nodes in blocks of GRAM_NODES into one buffer of
    N x GRAM_NODES basis samples and one band of their weighted conjugate,
    both reused by every block, so memory grows with N and not with the
    node count (at frostman N = 256 the traced peak is 9.0 MiB; blocks of
    2^22/N nodes, three arrays each, had peaked at 105 MB).  T(h) of a real symbol is
    Hermitian, so each block forms only the block-lower triangle of its
    Gram product, in the row bands of ``_row_bands``, with the weighted
    conjugate of one band at a time, and the sum of the levels is mirrored
    into the upper half once (``_mirror_lower``): T comes out exactly
    Hermitian, bit for bit as if each level had been mirrored.  A complex symbol takes
    the full product."""
    N = B.degree
    bands = _row_bands(N) if sym.is_real else [(0, N)]

    def gram(angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The weighted Gram product of the symbol's samples at the angles."""
        acc = np.zeros((N, N), dtype=complex)
        # every block reuses one block of basis samples and one band of
        # their weighted conjugate, so two blocks are never held at once
        size = min(GRAM_NODES, len(angles))
        rows = np.empty(N * size, dtype=complex)
        band = np.empty(max(r1 - r0 for r0, r1 in bands) * size, dtype=complex)
        for start in range(0, len(angles), GRAM_NODES):
            th = angles[start:start + GRAM_NODES]
            n = len(th)
            # one contiguous row per basis function
            E = tmw_matrix(B, th, out=rows[:N * n].reshape(N, n)).T
            vals = np.asarray(sym.evaluate(th))
            if not np.all(np.isfinite(vals)):
                raise ValueError("non-finite symbol sample")
            if sym.is_real and np.iscomplexobj(vals) and np.abs(vals.imag).max() > 1e-12:
                raise ValueError("symbol flagged real but samples are complex")
            w = vals * weights[start:start + GRAM_NODES]
            for r0, r1 in bands:
                F = np.conjugate(E[r0:r1], out=band[:(r1 - r0) * n].reshape(r1 - r0, n))
                F *= w
                acc[r0:r1, :r1] += F @ E[:r1].T
        return acc

    if sym.inverse_derivative_of is B and phase_route(B, cfg):
        res = inverse_derivative_doubling(B, gram, cfg)
    else:
        res = lebesgue_doubling(B, gram, cfg)
    T = _mirror_lower(res.value) if sym.is_real else res.value
    return T, res.converged, res.estimated_error


def build_truncated_toeplitz(B: FiniteBlaschke, sym: SymbolRep,
                             cfg: QuadratureConfig = QuadratureConfig()) -> OperatorMatrix:
    """Compression of multiplication by the symbol to the model space.

    Trig-poly symbols are assembled exactly from the shift (the analytic and
    anti-analytic parts compress to p(S) and q(S)*); sampled symbols
    use adaptively refined shared-node quadrature.
    """
    if sym.is_trig:
        return OperatorMatrix(_toeplitz_trig(B, sym), B)
    T, converged, err = _toeplitz_quadrature(B, sym, cfg)
    return OperatorMatrix(T, B, converged=converged, estimated_error=err)


def trace_formula_rhs(B: FiniteBlaschke, sym: SymbolRep,
                      cfg: QuadratureConfig = QuadratureConfig()) -> IntegralResult:
    """Integral of symbol * |B'| over the circle (equals the operator trace):
    for a trig polynomial exactly sum_k c_k sum_j lambda_j^k (conj(lambda_j)^|k|
    for k < 0), the harmonic extension summed over the zeros; else N nu-integrals."""
    if sym.is_trig:
        lam = B.zeros
        value = sum(c * np.sum(lam ** k if k >= 0 else np.conj(lam) ** -k) for k, c in sym.coeffs)
        return IntegralResult(complex(value), 0.0, 0, True)
    res = nu_integral(sym.evaluate, B, cfg)
    return IntegralResult(B.degree * res.value, B.degree * res.estimated_error,
                          res.points_used, res.converged)


def semicommutator_trace(B: FiniteBlaschke, sym: SymbolRep, toeplitz: OperatorMatrix,
                         cfg: QuadratureConfig = QuadratureConfig()) -> IntegralResult:
    """Tr T(|phi|^2) - ||T(phi)||_HS^2, the trace of Sarason's semicommutator
    T(|phi|^2) - T(phi)* T(phi), given the built T(phi).

    Since <T(phi) k_zeta, k_zeta> = (E T(phi) E*)_{zeta zeta}, it equals N times
    the integral of conj(phi)(phi - E_N phi) against nu.  Tr T(|phi|^2) comes
    from ``trace_formula_rhs``: in closed form for a trig polynomial, from one
    nu-integral of |phi|^2 otherwise."""
    if sym.is_trig:
        abs_sq = SymbolRep.trig({-k: c.conjugate() for k, c in sym.coeffs}) * sym
    else:
        abs_sq = SymbolRep.from_sampler(lambda t: np.abs(sym.evaluate(t)) ** 2, real=True)
    tr = trace_formula_rhs(B, abs_sq, cfg)
    hs_sq = np.vdot(toeplitz.matrix, toeplitz.matrix).real
    return IntegralResult(complex(tr.value - hs_sq), tr.estimated_error, tr.points_used, tr.converged)


# ---------------------------------------------------------------------------
# Clark unitaries
# ---------------------------------------------------------------------------

def build_clark_spectral(B: FiniteBlaschke, clark: ClarkMeasure,
                         symbol: SymbolRep | None = None) -> OperatorMatrix:
    """Spectral-sum form: sum over atoms of value * weight * (kernel projector).

    With no symbol this reproduces the Clark unitary itself; with a symbol it
    is the functional calculus of the unitary applied to that symbol.
    """
    if not np.array_equal(clark.blaschke.zeros, B.zeros):
        raise ValueError("Clark measure was built for a different product")
    # column k = coefficients of k_{zeta_k}: conj(e_i(zeta_k)), by the
    # reproducing property
    Q = np.conj(tmw_matrix(B, clark.atom_angles)).T
    vals = clark.atoms if symbol is None else np.asarray(symbol.evaluate(clark.atom_angles))
    scale = vals * clark.weights
    M = (Q * scale) @ Q.conj().T
    return OperatorMatrix(M, B)


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def _hermitian(M: np.ndarray) -> np.ndarray:
    """M itself if it is exactly Hermitian, as every trig build and every
    mirrored sampled build is (the average below equals it bit for bit
    there, at a pass and two N x N temporaries), else the average
    0.5 (M + M*) of a matrix Hermitian to _HERMITIAN_RTOL; a ValueError
    for any other."""
    skew = M - M.conj().T
    if not skew.any():
        return M
    scale = float(np.linalg.norm(M))
    if float(np.linalg.norm(skew)) > _HERMITIAN_RTOL * scale:
        raise ValueError("pointwise functional calculus needs a Hermitian matrix")
    return 0.5 * (M + M.conj().T)


def apply_function(A: OperatorMatrix, f: ScalarFunction) -> OperatorMatrix:
    """f(A): Horner for polynomial f (``_horner``, as a trig build forms
    p(S)), eigenvalue map for pointwise f.  The result carries A's
    ``converged`` and ``estimated_error``."""
    M = A.matrix
    if f.is_poly:
        return replace(A, matrix=_horner(M, f.poly_coeffs or (0j,)))
    w, V = np.linalg.eigh(_hermitian(M))
    fw = np.asarray(f.eval_scalar(w), dtype=complex)
    return replace(A, matrix=(V * fw) @ V.conj().T)


# ---------------------------------------------------------------------------
# traces and Schatten norms
# ---------------------------------------------------------------------------

def trace(A: OperatorMatrix) -> complex:
    return complex(np.trace(A.matrix))


def singular_values(A: OperatorMatrix) -> np.ndarray:
    """Singular values, descending (taken from A itself, not from A*A, so
    small ones keep their absolute accuracy)."""
    return np.linalg.svd(A.matrix, compute_uv=False)


def trace_norm(A: OperatorMatrix) -> float:
    return float(singular_values(A).sum())


# ---------------------------------------------------------------------------
# averaging (Fejer-type) operator
# ---------------------------------------------------------------------------

def fejer_values(B: FiniteBlaschke, toeplitz: OperatorMatrix, angles: np.ndarray,
                 slopes: np.ndarray) -> np.ndarray:
    """Averaging operator of any compressed symbol at the angles, given |B'| there.

    The average of f against |normalized kernel at zeta|^2 equals the
    quadratic form of the compressed symbol at the normalized kernel, so one
    operator build gives the averaged function everywhere.  ``hs_approx_gap``
    takes E_N phi at the Clark atoms of a sampled symbol from it, |B'| = 1/w
    from their measure; trig-poly symbols take ``fejer_trig_values`` instead.
    """
    E = tmw_matrix(B, angles).T  # row i: e_i at the angles
    num = np.sum(E * (toeplitz.matrix @ np.conj(E)), axis=0)
    return num / slopes


def taylor_coefficients(B: FiniteBlaschke, D: int) -> np.ndarray:
    """The Taylor coefficients c_0...c_{D-m0-1} of B1 = B z^-m0, the m0 zeros at
    the origin taken out: all of B's series that the shift moments m_0...m_D
    read (``_shift_moments``), formed from the product's 1 - |lambda|^2 by one
    np.convolve per zero.  They depend on the product alone, so a caller that
    averages many blocks of nodes on one product forms them once; a prefix
    serves a smaller D bit for bit."""
    uniq, counts = B._distinct
    inner = uniq != 0
    c = np.zeros(max(0, D - int(counts[~inner].sum())), dtype=complex)
    if len(c):
        c[0] = 1.0
        for lam, mult, defect in zip(uniq[inner], counts[inner], B._defects[inner]):
            # sigma (z - lam)/(1 - conj(lam) z)
            #   = -|lam| + sum_{n>=1} sigma conj(lam)^{n-1} (1 - |lam|^2) z^n
            factor = np.empty(len(c), dtype=complex)
            factor[0] = -abs(lam)
            factor[1:] = np.exp(-1j * np.angle(lam)) * defect * np.conj(lam) ** np.arange(len(c) - 1)
            for _ in range(mult):
                c = np.convolve(c, factor)[:len(factor)]
    return c


def _shift_moments(B: FiniteBlaschke, b: np.ndarray, slopes: np.ndarray, powers: np.ndarray,
                   taylor: np.ndarray) -> np.ndarray:
    """The shift moments m_k = <S^k k_zeta, k_zeta>/|B'(zeta)|, k = 0...D, in closed
    form at the nodes zeta, given powers[k] = zeta^k, b = B(zeta), slopes = |B'(zeta)|
    and B1's ``taylor_coefficients`` to degree at least D.

    S^k = P_B z^k on the model space (Sarason) and P_B z^l = z^l - B P_+(conj(B) z^l)
    give m_k = zeta^k [1 - (k - B(zeta) sum_{n<k} (k-n) conj(b_n zeta^n))/|B'(zeta)|]
    with b_n the Taylor coefficients of B.  The m0 zeros at the origin are
    taken out as the exact power z^m0: B = z^m0 B1, so the n < m0 terms vanish,
    zeta^m0 conj(zeta)^m0 is 1, and only the Taylor coefficients c_l of B1 and
    B1(zeta) = b conj(zeta)^m0 enter; for B = z^N the moments are exactly
    zeta^k (1 - k/N).  The inner sum sum_{l<j} (j-l) a_l is a double running sum
    of a_l = conj(c_l zeta^l).  The c_l come from the product's 1 - |lambda|^2,
    correctly rounded: that keeps m_k within 1e-14 of a 50-digit reference
    next to zeros 1e-10 from the circle (1 - |lambda|^2 formed in double moved
    m_k by up to 1e-10 there)."""
    D = len(powers) - 1
    uniq, counts = B._distinct
    inner = uniq != 0
    m0 = int(counts[~inner].sum())
    X = np.zeros(powers.shape, dtype=complex)
    X += np.arange(D + 1)[:, None]
    if D > m0:
        L = D - m0
        a = np.conj(taylor[:L])[:, None] * np.conj(powers[:L])
        b1 = b * np.conj(powers[m0]) if inner.any() else 1.0
        X[m0 + 1:] -= b1 * np.cumsum(np.cumsum(a, axis=0), axis=0)
    return powers * (1.0 - X / slopes)


def trig_coefficients(symbols: Sequence[SymbolRep]) -> np.ndarray:
    """The (symbols x 2D+1) coefficient matrix of trig-poly symbols, c_k of
    row i in column D + k, D the largest |k|: the rows that
    ``fejer_trig_values`` averages."""
    D = max((abs(k) for sym in symbols for k, _ in sym.coeffs), default=0)
    coeffs = np.zeros((len(symbols), 2 * D + 1), dtype=complex)
    for row, sym in zip(coeffs, symbols):
        if not sym.is_trig:
            raise ValueError("trig_coefficients takes trig-poly symbols only")
        for k, c in sym.coeffs:
            row[D + k] = c
    return coeffs


def fejer_trig_values(B: FiniteBlaschke, coeffs: np.ndarray, angles: np.ndarray,
                      b: np.ndarray, slopes: np.ndarray, taylor: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Samples and averages E_N phi of trig-poly symbols at the angles, one
    row per row of their ``trig_coefficients``, given B (``b``) and |B'|
    (``slopes``) there, and B1's ``taylor_coefficients`` to degree D or more
    if the caller holds them.

    T(phi) = sum_k c_k S^k, with adjoint powers for k < 0, so
    E_N phi = sum_k c_k m_k with the shift moments
    m_k(zeta) = <S^k k_zeta, k_zeta>/|B'(zeta)|, k = 0...D, and
    m_{-k} = conj(m_k).  The moments are taken in closed form from B and |B'|
    at the nodes (``_shift_moments``), in O(nodes x (N + D)) work; every
    symbol then costs one row of a (symbols x 2D+1) product.
    """
    D = coeffs.shape[1] // 2
    if taylor is None:
        taylor = taylor_coefficients(B, D)
    th = np.asarray(angles, dtype=float)
    powers = np.exp(1j * th) ** np.arange(D + 1)[:, None]
    moments = _shift_moments(B, b, slopes, powers, taylor)
    values = coeffs @ np.concatenate((np.conj(powers[:0:-1]), powers))
    averages = coeffs @ np.concatenate((np.conj(moments[:0:-1]), moments))
    return values, averages
