"""Cross-route consistency checks that tie several modules together."""

import numpy as np
import pytest

from ttolab.blaschke import FiniteBlaschke, ZeroSequence, generate_zeros
from ttolab.clark import clark_measure
from ttolab.experiments import ExperimentConfig, hs_approx_gap, stz_trace, szego_gap
from ttolab.operators import (
    ScalarFunction,
    SymbolRep,
    apply_function,
    build_clark_spectral,
    build_truncated_toeplitz,
    trace,
)
from ttolab.quadrature import QuadratureConfig

from oracles import build_clark_unitary


def random_blaschke(n, seed, rmax=0.8):
    rng = np.random.default_rng(seed)
    pts = rmax * rng.random(n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    return FiniteBlaschke(np.concatenate(([0.0 + 0.0j], pts)))


class TestFunctionalCalculusRoutes:
    def test_clark_spectral_equals_polynomial_in_unitary(self):
        # for a trig poly the spectral sum must match sum c_k U^k built from
        # the perturbation form (negative powers via the adjoint)
        B = random_blaschke(7, seed=21)
        alpha = np.exp(1.3j)
        sym = SymbolRep.trig({2: 1 - 0.5j, 0: 0.3, -1: 2j})
        U = build_clark_unitary(B, alpha).matrix
        direct = build_clark_spectral(B, clark_measure(B, alpha), sym).matrix
        poly = np.zeros_like(U)
        for k, c in sym.coeffs:
            poly += c * (np.linalg.matrix_power(U, k) if k >= 0
                         else np.linalg.matrix_power(U.conj().T, -k))
        assert np.abs(direct - poly).max() < 1e-10

    def test_eigenvalue_route_for_hermitian_power(self):
        B = random_blaschke(9, seed=22)
        T = build_truncated_toeplitz(B, SymbolRep.preset("cos"))
        f = ScalarFunction.preset("square")
        via_eigs = float(np.sum(np.linalg.eigvalsh(T.matrix) ** 2))
        via_horner = trace(apply_function(T, f)).real
        assert via_eigs == pytest.approx(via_horner, abs=1e-9)


class TestExperimentPathEquivalence:
    def test_szego_sampler_vs_trig_symbol(self):
        # the whole pipeline agrees whether the symbol enters exactly or sampled
        seq = ZeroSequence.constant_modulus(0.6, "random", seed=5)
        f = ScalarFunction.preset("square")
        trig = SymbolRep.trig({1: 1, -1: 1})
        samp = SymbolRep.from_sampler(lambda t: 2 * np.cos(t), real=True)
        recs_t = szego_gap(ExperimentConfig(seq, trig, f, (6, 12)))
        recs_s = szego_gap(ExperimentConfig(seq, samp, f, (6, 12)))
        for a, b in zip(recs_t, recs_s):
            assert a.lhs == pytest.approx(b.lhs, abs=1e-8)
            assert a.rhs == pytest.approx(b.rhs, abs=1e-8)

    def test_hs_gap_for_sampled_symbol(self):
        # the alpha-average identity holds for non-polynomial symbols too
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(),
                               SymbolRep.preset("abs_sin"), n_values=(6, 10),
                               alpha_count=32)
        for rec in hs_approx_gap(cfg):
            assert rec.gap < 1e-5

    def test_stz_pointwise_function(self):
        # continuous (non-polynomial) calculus on a real symbol, power case:
        # the weighted trace tends to the mean of |2 cos| = 4/pi
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(), SymbolRep.preset("cos"),
                               ScalarFunction.preset("abs"), (8, 16, 32, 64))
        recs = stz_trace(cfg)
        assert recs[0].rhs.real == pytest.approx(4 / np.pi, abs=1e-9)
        gaps = [r.gap for r in recs]
        assert gaps[-1] < gaps[0] / 2


class TestTraceIdentityFuzz:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_products_and_symbols(self, seed):
        rng = np.random.default_rng(seed)
        B = random_blaschke(int(rng.integers(2, 12)), seed=seed)
        coeffs = {int(k): complex(rng.normal(), rng.normal())
                  for k in rng.integers(-4, 5, size=4)}
        sym = SymbolRep.trig(coeffs)
        lhs = trace(build_truncated_toeplitz(B, sym))
        # independent route: Poisson sums of the harmonic extensions
        rhs = 0j
        for k, c in sym.coeffs:
            for lam in B.zeros:
                rhs += c * (lam ** k if k >= 0 else np.conj(lam) ** (-k))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_hermitian_for_real_sampler_symbol(self):
        B = random_blaschke(5, seed=35)
        T = build_truncated_toeplitz(B, SymbolRep.preset("abs_sin"),
                                     QuadratureConfig(abs_tol=1e-9))
        M = T.matrix
        assert np.abs(M - M.conj().T).max() == 0.0
