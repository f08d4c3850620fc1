"""Convergence experiments: trace asymptotics, Clark-unitary approximation
quality, product defects and the averaging-operator lemma suite.

Every experiment sweeps an increasing list of degrees N and emits one record
per N.  Records are plain data (complex lhs/rhs, gap, float diagnostics) so
the CLI can serialize them to CSV/JSON verbatim; given an identical config
and seed the records are bit-identical between runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blaschke import (
    FiniteBlaschke,
    PhaseFunction,
    RuleParam,
    ZeroSequence,
    _checked_fields,
    angular_partial_sums,
    circle_grid,
    phase_nodes,
)
from .clark import ALPHA_COUNT, clark_rows
from .operators import (
    OperatorMatrix,
    ScalarFunction,
    SymbolRep,
    apply_function,
    build_truncated_toeplitz,
    fejer_trig_values,
    fejer_values,
    inverse_derivative_symbol,
    semicommutator_trace,
    taylor_coefficients,
    trace,
    trace_formula_rhs,
    trace_norm,
    trig_coefficients,
)
from .quadrature import IntegralResult, QuadratureConfig, integrate_circle


_COUNT = (lambda v: v >= 1, "an integer >= 1")

#: the [sweep] and [angular] settings: each ``ExperimentConfig`` field's
#: default and condition, which it checks and the CLI parses its key by
SWEEP_PARAMS = {
    "n_values": RuleParam((8, 16, 32, 64), lambda ns: ns and ns[0] >= 1 and all(a < b for a, b in zip(ns, ns[1:])),
                          "a strictly increasing list of positive integers"),
    "alpha_count": ALPHA_COUNT,
}
ANGULAR_PARAMS = {
    "j_terms": RuleParam(10 ** 5, *_COUNT),
    "grid_size": RuleParam(64, *_COUNT),
    # no two thresholds may share a summary key (``threshold_keys`` raises)
    "thresholds": RuleParam((1e2, 1e3), lambda ts: ts and all(0.0 < t < np.inf for t in ts)
                            and threshold_keys(ts), "a list of positive finite numbers"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    sequence: ZeroSequence
    symbol: SymbolRep
    function: ScalarFunction = ScalarFunction.preset("identity")
    n_values: tuple = SWEEP_PARAMS["n_values"].default
    alpha_count: int = SWEEP_PARAMS["alpha_count"].default
    quadrature: QuadratureConfig = QuadratureConfig()
    j_terms: int = ANGULAR_PARAMS["j_terms"].default
    grid_size: int = ANGULAR_PARAMS["grid_size"].default
    thresholds: tuple = ANGULAR_PARAMS["thresholds"].default

    def __post_init__(self):
        _checked_fields(self, "sweep", SWEEP_PARAMS)
        _checked_fields(self, "angular", ANGULAR_PARAMS)
        if not self.function.is_poly and not self.symbol.is_real:
            raise ValueError("pointwise functions require a real-valued symbol")


@dataclass(frozen=True)
class ConvergenceRecord:
    N: int
    lhs: complex
    rhs: complex
    gap: float = field(init=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "gap", abs(self.lhs - self.rhs))


# ---------------------------------------------------------------------------
# trace asymptotics
# ---------------------------------------------------------------------------

def szego_gap(cfg: ExperimentConfig) -> list[ConvergenceRecord]:
    """Normalized trace of f(T(phi)) against the integral of f(phi) with
    respect to the mean harmonic measure, per degree."""
    records = []
    composed = cfg.function.compose_symbol(cfg.symbol)
    for N in cfg.n_values:
        B = FiniteBlaschke.from_sequence(cfg.sequence, N)
        T = build_truncated_toeplitz(B, cfg.symbol, cfg.quadrature)
        fT = apply_function(T, cfg.function)
        lhs = trace(fT) / N
        rhs = trace_formula_rhs(B, composed, cfg.quadrature)
        diag = {
            "quad_points": float(rhs.points_used),
            "quad_error": float(rhs.estimated_error / N),
            "build_converged": float(T.converged),
            "rhs_converged": float(rhs.converged),
        }
        records.append(ConvergenceRecord(N, lhs, rhs.value / N, diagnostics=diag))
    return records


def stz_trace(cfg: ExperimentConfig) -> list[ConvergenceRecord]:
    """Weighted trace against the reciprocal-derivative symbol, compared with
    the plain Lebesgue integral of f(phi): the constant coefficient when
    f o phi is a trig polynomial (``rhs_points`` reads 0, and the rhs counts
    as converged), as ``trace_formula_rhs`` takes the szego rhs, else circle
    quadrature."""
    records = []
    composed = cfg.function.compose_symbol(cfg.symbol)
    if composed.is_trig:
        rhs = IntegralResult(complex(composed.coeff_dict.get(0, 0j)), 0.0, 0, True)
    else:
        rhs = integrate_circle(composed.evaluate, cfg.quadrature)
    for N in cfg.n_values:
        B = FiniteBlaschke.from_sequence(cfg.sequence, N)
        T_beta = build_truncated_toeplitz(B, inverse_derivative_symbol(B), cfg.quadrature)
        fT = apply_function(build_truncated_toeplitz(B, cfg.symbol, cfg.quadrature), cfg.function)
        lhs = complex(np.einsum("ij,ji->", T_beta.matrix, fT.matrix))  # Tr(T_beta f(T)) in O(N^2)
        diag = {
            "beta_build_error": float(T_beta.estimated_error),
            "beta_build_converged": float(T_beta.converged),
            "build_converged": float(fT.converged),
            "rhs_points": float(rhs.points_used),
            "rhs_converged": float(rhs.converged),
        }
        records.append(ConvergenceRecord(N, lhs, complex(rhs.value), diagnostics=diag))
    return records


# ---------------------------------------------------------------------------
# angular-derivative conditions
# ---------------------------------------------------------------------------

def angular_condition_a(cfg: ExperimentConfig) -> list[dict]:
    """Decay profile of the largest Clark weight over an alpha grid, per N."""
    out = []
    for N in cfg.n_values:
        B = FiniteBlaschke.from_sequence(cfg.sequence, N)
        vals = np.sort(clark_rows(B, cfg.alpha_count)[2].max(axis=1))
        # the median as np.median forms it, which would import numpy.ma
        mid = len(vals) // 2
        median = vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2
        out.append({
            "N": N,
            "max": float(vals[-1]),
            "median": float(median),
            "min": float(vals[0]),
        })
    return out


def threshold_keys(thresholds: Sequence[float]) -> list[str]:
    """The text of each threshold t in the summary keys ``below_<t>`` and
    ``above_<t>`` of ``angular_condition_b``, as ``{t:g}`` formats it; a
    ValueError if two thresholds share it."""
    keys = [f"{float(t):g}" for t in thresholds]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(f"thresholds {thresholds[keys.index(key)]!r} and {thresholds[i]!r} "
                             f"share the summary key {key}")
    return keys


def angular_condition_b(cfg: ExperimentConfig) -> dict:
    """J-term Poisson sums on a circle grid (``angular_partial_sums``): their
    range and, per threshold, the fraction of grid points whose sum stays
    below it (points of slow phase growth) and the fraction at or above it."""
    sums = angular_partial_sums(cfg.sequence, circle_grid(cfg.grid_size, offset=0.5), cfg.j_terms)
    summary = {"J": float(cfg.j_terms), "grid_size": float(cfg.grid_size),
               "min_sum": float(sums.min()), "max_sum": float(sums.max())}
    for t, key in zip(cfg.thresholds, threshold_keys(cfg.thresholds)):
        summary[f"below_{key}"] = float(np.mean(sums < t))
        summary[f"above_{key}"] = float(np.mean(sums >= t))
    return summary


# ---------------------------------------------------------------------------
# approximation lemmas
# ---------------------------------------------------------------------------

def hs_approx_gap(cfg: ExperimentConfig) -> list[ConvergenceRecord]:
    """Normalized alpha-average of the squared Hilbert-Schmidt distance from
    T(phi) to the Clark functional calculus of phi.

    The lhs comes from the averaging operator at the Clark atoms.  For each
    alpha, {sqrt(w_k) k_{zeta_k}} is an orthonormal basis (Clark) that
    diagonalizes the functional calculus M_alpha with entries phi(zeta_k),
    and the diagonal of T(phi) in it is E_N phi(zeta_k).  So the sum over the
    alphas of ||T - M_alpha||_HS^2 is, over all atoms,
    sum |phi - E_N phi|^2 + (alpha_count ||T||_HS^2 - sum |E_N phi|^2); this
    split keeps a constant symbol's lhs exactly 0.  E_N phi at the atoms comes
    from the shift moments for a trig symbol (``fejer_trig_values``) and, one
    alpha at a time so that temporaries stay N x N, from the built T(phi)
    for a sampled one (``fejer_values``); both take B and |B'| = 1/w at the
    atoms from the rows of the phase solve (``clark_rows``).

    The rhs is the same quantity through the averaging operator, the integral
    of conj(phi)(phi - E_N phi) against the mean harmonic measure, taken in
    closed form: the semicommutator trace Tr T(|phi|^2) - ||T(phi)||_HS^2
    over N (``semicommutator_trace``).  For a trig symbol it uses no
    quadrature and ``rhs_points`` reads 0.
    """
    records = []
    sym = cfg.symbol
    for N in cfg.n_values:
        B = FiniteBlaschke.from_sequence(cfg.sequence, N)
        T = build_truncated_toeplitz(B, sym, cfg.quadrature)
        atoms, b, weights = clark_rows(B, cfg.alpha_count)
        if sym.is_trig:
            (values,), (averages,) = fejer_trig_values(B, trig_coefficients([sym]), atoms.ravel(), b.ravel(),
                                                       1.0 / weights.ravel())
        else:
            values = np.asarray(sym.evaluate(atoms.ravel()))
            averages = np.concatenate([fejer_values(B, T, row, 1.0 / w) for row, w in zip(atoms, weights)])
        hs_sq = np.vdot(T.matrix, T.matrix).real
        total = (np.sum(np.abs(values - averages) ** 2)
                 + (cfg.alpha_count * hs_sq - np.sum(np.abs(averages) ** 2)))
        lhs = float(total) / (cfg.alpha_count * N)
        rhs = semicommutator_trace(B, sym, T, cfg.quadrature)
        diag = {
            "alpha_count": float(cfg.alpha_count),
            "rhs_points": float(rhs.points_used),
            "build_converged": float(T.converged),
            "rhs_converged": float(rhs.converged),
        }
        records.append(ConvergenceRecord(N, lhs, rhs.value / N, diagnostics=diag))
    return records


def product_defect_s1(cfg: ExperimentConfig, phi: SymbolRep, psi: SymbolRep) -> list[ConvergenceRecord]:
    """Trace norm of T(phi)T(psi) - T(phi psi) per degree (bounded in N)."""
    if not (phi.is_trig and psi.is_trig):
        raise ValueError("product defect needs trig-poly symbols")
    prod = phi * psi
    records = []
    for N in cfg.n_values:
        B = FiniteBlaschke.from_sequence(cfg.sequence, N)
        Tphi = build_truncated_toeplitz(B, phi)
        Tpsi = build_truncated_toeplitz(B, psi)
        Tprod = build_truncated_toeplitz(B, prod)
        defect = OperatorMatrix(Tphi.matrix @ Tpsi.matrix - Tprod.matrix, B)
        records.append(ConvergenceRecord(N, complex(trace_norm(defect)), 0j))
    return records


def stz_defect_s1(cfg: ExperimentConfig) -> list[ConvergenceRecord]:
    """Trace norm of T(1/|B'|) [f(T(phi)) - T(f o phi)] per degree."""
    if not cfg.function.is_poly or not cfg.symbol.is_trig:
        raise ValueError("defect sweep needs a polynomial function and trig-poly symbol")
    composed = cfg.function.compose_symbol(cfg.symbol)
    records = []
    for N in cfg.n_values:
        B = FiniteBlaschke.from_sequence(cfg.sequence, N)
        T_beta = build_truncated_toeplitz(B, inverse_derivative_symbol(B), cfg.quadrature)
        fT = apply_function(build_truncated_toeplitz(B, cfg.symbol), cfg.function)
        Tcomp = build_truncated_toeplitz(B, composed)
        defect = OperatorMatrix(T_beta.matrix @ (fT.matrix - Tcomp.matrix), B)
        records.append(ConvergenceRecord(N, complex(trace_norm(defect)), 0j,
                                         diagnostics={"beta_build_converged": float(T_beta.converged)}))
    return records


# ---------------------------------------------------------------------------
# averaging-operator suite
# ---------------------------------------------------------------------------

def _trial_symbols(seed: int, trials: int, degree: int = 6) -> list[SymbolRep]:
    """``fejer_suite``'s trial trig polynomials: coefficients c_-degree...c_degree,
    each with real and imaginary parts uniform on [-1, 1), from
    ``random.Random(seed).random()``, the one draw whose stream Python keeps
    across versions.  numpy.random would add about 8 ms and 2.5 MB resident
    to a process, and OpenSSL's libcrypto with it (through ``secrets``)."""
    draw = random.Random(seed).random
    ks = range(-degree, degree + 1)
    return [SymbolRep.trig({k: complex(2 * draw() - 1, 2 * draw() - 1) for k in ks}) for _ in range(trials)]


#: phase nodes per block of ``fejer_suite``'s sums, added one block after
#: another.  The shipped dense suite (4096 nodes per degree) took 46 to 51 ms
#: in blocks of 1024, 43 to 48 ms in blocks of 2048 and 47 to 49 ms as one
#: block (best of 12 in each of two runs, 2-vCPU host, one thread), 56 ms in
#: blocks of 512; its traced peak is 2.0 MiB in blocks of 1024, the phase
#: solve's, 2.25 MiB in blocks of 2048 and 4.4 MiB as one block
FEJER_NODES = 1024


def _fejer_sums(B: FiniteBlaschke, coeffs: np.ndarray, nodes: tuple, taylor: np.ndarray) -> tuple:
    """Sums over the nodes (arrays of angles, B and |B'|) of |E_N phi|^2 and
    |phi|^2 per trial symbol (all rows of ``coeffs`` but the last) and of
    |E_N phi - phi|^2 for the last, added block by block of FEJER_NODES nodes
    of ``fejer_trig_values``, which all take B1's ``taylor`` coefficients."""
    sq_avg, sq_val, gap = np.zeros(len(coeffs) - 1), np.zeros(len(coeffs) - 1), 0.0
    for start in range(0, len(nodes[0]), FEJER_NODES):
        fvals, evals = fejer_trig_values(B, coeffs, *(a[start:start + FEJER_NODES] for a in nodes), taylor)
        sq_avg += np.sum(np.abs(evals[:-1]) ** 2, axis=1)
        sq_val += np.sum(np.abs(fvals[:-1]) ** 2, axis=1)
        gap += np.sum(np.abs(evals[-1] - fvals[-1]) ** 2)
        del fvals, evals  # not held while the next block is formed
    return sq_avg, sq_val, gap


def _fejer_row(phase: PhaseFunction, count: int, coeffs: np.ndarray, probe_coeffs: np.ndarray,
               probe_angles: np.ndarray) -> dict:
    """One degree of ``fejer_suite`` on the phase nodes of count levels per
    winding: the rows of ``coeffs`` are the trials, then the Lipschitz
    symbol, whose own row ``probe_coeffs`` is averaged at the probe angles.
    B at node k is its level e^{2 pi i k/count} times e^{i residual} and
    |B'| the solve's Theta'; at the probe angles both come from the phase.
    B1's Taylor coefficients are formed once and one block of nodes is held
    at a time."""
    B = phase.blaschke
    taylor = taylor_coefficients(B, coeffs.shape[1] // 2)
    angles, slopes, residuals = phase_nodes(phase, count)
    n = len(angles)
    levels = np.tile(np.exp(1j * circle_grid(count)), B.degree)
    sq_avg, sq_val, gap = _fejer_sums(B, coeffs, (angles, levels * np.exp(1j * residuals), slopes), taylor)
    probe = np.empty((2, len(probe_angles)))
    phase(probe_angles, probe)
    probe_f, probe_e = fejer_trig_values(B, probe_coeffs, probe_angles, phase.product(probe_angles), probe[0],
                                         taylor)
    return {
        "N": B.degree,
        "contraction_max": float(np.max(np.sqrt((sq_avg / n) / (sq_val / n)))),
        "l2_gap_sq": float(gap / n),
        "pointwise_gap": np.abs(probe_e[0] - probe_f[0]).tolist(),
        "pointwise_derivative": probe[0].tolist(),
        "grid_points": float(n),
    }


def fejer_suite(cfg: ExperimentConfig, trials: int = 20, grid_points: int = 4096) -> dict:
    """Contraction, pointwise convergence and L^2 convergence checks for the
    kernel-averaging operator, per degree.

    nu-norms are plain means over at least grid_points phase nodes.  Every
    symbol here is a trig polynomial, so all of them take their samples and
    averages from one coefficient matrix, formed once, and the shift moments
    of each block of nodes, from Taylor coefficients formed once per degree
    (``fejer_trig_values``); no Toeplitz matrix is built.  The trials are
    drawn from the sequence's seed (``_trial_symbols``).
    """
    lipschitz = cfg.symbol if cfg.symbol.is_trig else SymbolRep.preset("re_z")
    coeffs = trig_coefficients(_trial_symbols(cfg.sequence.seed, trials) + [lipschitz])
    probe_coeffs = trig_coefficients([lipschitz])

    report: dict = {"per_n": [], "trials": trials}
    probe_angles = circle_grid(16, offset=0.37)
    for N in cfg.n_values:
        phase = PhaseFunction(FiniteBlaschke.from_sequence(cfg.sequence, N))
        report["per_n"].append(_fejer_row(phase, -(-grid_points // N), coeffs, probe_coeffs, probe_angles))

    gaps = [row["l2_gap_sq"] for row in report["per_n"]]
    report["l2_decay_ratios"] = [b / a if a > 0 else 0.0 for a, b in zip(gaps, gaps[1:])]
    return report
