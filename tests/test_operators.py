import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from ttolab import operators, quadrature
from ttolab.blaschke import (
    RADIUS_CAP,
    FiniteBlaschke,
    PhaseFunction,
    ZeroSequence,
    abs_derivative_grid,
    circle_grid,
    generate_zeros,
    phase_nodes,
    tmw_matrix,
)
from ttolab.clark import clark_measure
from ttolab.operators import (
    OperatorMatrix,
    ScalarFunction,
    SymbolRep,
    apply_function,
    build_clark_spectral,
    build_truncated_toeplitz,
    compressed_shift,
    fejer_trig_values,
    fejer_values,
    inverse_derivative_symbol,
    singular_values,
    trace,
    trace_formula_rhs,
    trace_norm,
    trig_coefficients,
)
from ttolab.quadrature import MIN_LEVELS, PHASE_NODE_COST, QuadratureConfig, blaschke_initial_points

from oracles import (
    build_clark_unitary,
    fejer_apply,
    hs_norm,
    inverse_derivative_from_clark,
    inverse_derivative_mp,
    op_norm,
    rank_one_defect,
    shift_cumprod_reference,
    trig_poly_identity_reference,
)


def random_blaschke(n, seed=0, rmax=0.85):
    rng = np.random.default_rng(seed)
    pts = rmax * rng.random(n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    return FiniteBlaschke(np.concatenate(([0.0 + 0.0j], pts)))


TWO_COS = SymbolRep.trig({1: 1, -1: 1})
REAL_DEGREE_2 = SymbolRep.trig({-2: 0.5 - 1j, -1: 0.25, 0: 2.0, 1: 0.25, 2: 0.5 + 1j})
REAL_DEGREE_3 = SymbolRep.trig({-3: 1.5j, -1: 1 + 0.5j, 0: -0.3, 1: 1 - 0.5j, 3: -1.5j})

#: real, one-sided and two-sided complex symbols of degree 1 to 3
SHIFT_SUM_SYMBOLS = {
    "cos": TWO_COS, "real-2": REAL_DEGREE_2, "real-3": REAL_DEGREE_3,
    "z": SymbolRep.trig({1: 1}), "z^2": SymbolRep.trig({2: 1}), "conj-z^3": SymbolRep.trig({-3: 1}),
    "complex-1": SymbolRep.trig({-1: 0.5j, 0: 0.3, 1: 1 - 0.5j}),
    "complex-2": SymbolRep.trig({-2: 0.7j, -1: 0.2, 1: 1, 2: -0.4 + 0.1j}),
    "complex-3": SymbolRep.trig({-3: 1.5, -1: 0.25, 0: 0.3, 1: 1 - 0.5j, 2: 2j}),
}


def shift_reference(B):
    """The closed form of the compressed shift, entry by entry."""
    N = B.degree
    c, sig, r = B._cnorm, B._sigma, B._radii
    S = np.zeros((N, N), dtype=complex)
    np.fill_diagonal(S, B.zeros)
    for j in range(N):
        p = 1.0
        for i in range(j + 1, N):
            S[i, j] = c[i] * c[j] * np.conj(sig[j]) * p
            p *= -r[i]
    return S


def haar_unitary(n, rng):
    Z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


class TestSymbolRep:
    def test_trig_evaluate(self):
        sym = SymbolRep.trig({2: 1 + 1j, -1: 0.5})
        th = np.array([0.3, 1.1])
        w = np.exp(1j * th)
        assert np.allclose(sym.evaluate(th), (1 + 1j) * w ** 2 + 0.5 * w ** -1)

    def test_real_flag(self):
        assert SymbolRep.trig({1: 1 + 2j, -1: 1 - 2j}).is_real
        assert not SymbolRep.trig({1: 1}).is_real
        assert SymbolRep.trig({0: 3.0}).is_real

    def test_product_is_convolution(self):
        a = SymbolRep.trig({1: 1, -1: 1})
        sq = a * a
        assert sq.coeff_dict == {2: 1, 0: 2, -2: 1}

    def test_presets(self):
        assert SymbolRep.preset("cos").coeff_dict == {1: 1.0, -1: 1.0}
        assert SymbolRep.preset("re_z").coeff_dict == {1: 0.5, -1: 0.5}
        th = np.array([0.4, 2.0])
        assert np.allclose(SymbolRep.preset("abs_sin").evaluate(th), np.abs(np.sin(th)))
        with pytest.raises(ValueError):
            SymbolRep.preset("nope")

    def test_compose_poly(self):
        f = ScalarFunction.preset("square")
        comp = f.compose_symbol(TWO_COS)
        assert comp.coeff_dict == {2: 1, 0: 2, -2: 1}

    def test_compose_pointwise_needs_real(self):
        f = ScalarFunction.preset("abs")
        with pytest.raises(ValueError):
            f.compose_symbol(SymbolRep.trig({1: 1}))
        comp = f.compose_symbol(TWO_COS)
        th = np.array([0.2, 2.9])
        assert np.allclose(comp.evaluate(th), np.abs(2 * np.cos(th)))

    def test_inverse_derivative_symbol(self):
        B = FiniteBlaschke(np.zeros(5, dtype=complex))
        sym = inverse_derivative_symbol(B)
        assert sym.is_real
        assert np.allclose(sym.evaluate(circle_grid(7)), 0.2)


class TestScalarFunction:
    def test_poly_eval(self):
        f = ScalarFunction.poly([1, 0, 2])  # 1 + 2 x^2
        assert f.eval_scalar(3.0) == pytest.approx(19.0)

    def test_presets(self):
        assert ScalarFunction.preset("identity").eval_scalar(2.5) == 2.5
        assert ScalarFunction.preset("cube_minus_x").eval_scalar(2.0) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            ScalarFunction.preset("nope")


class TestOperatorMatrix:
    def test_rejects_nonsquare(self):
        B = FiniteBlaschke(np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((2, 3), dtype=complex), B)

    def test_rejects_dimension_mismatch(self):
        B = FiniteBlaschke(np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((3, 3), dtype=complex), B)

    def test_rejects_nonfinite(self):
        B = FiniteBlaschke(np.zeros(2, dtype=complex))
        M = np.zeros((2, 2), dtype=complex)
        M[0, 1] = np.nan
        with pytest.raises(ValueError):
            OperatorMatrix(M, B)

    def test_dim(self):
        B = FiniteBlaschke(np.zeros(3, dtype=complex))
        assert OperatorMatrix(np.eye(3, dtype=complex), B).dim == 3


class TestCompressedShift:
    def test_power_case_is_subdiagonal(self):
        B = FiniteBlaschke(np.zeros(4, dtype=complex))
        S = compressed_shift(B)
        expected = np.diag(np.ones(3), -1)
        assert np.allclose(S, expected)

    def test_degree_two_hand_values(self):
        lam = 0.3 + 0.4j
        B = FiniteBlaschke(np.array([0, lam]))
        S = compressed_shift(B)
        c = np.sqrt(1 - abs(lam) ** 2)
        assert S[0, 0] == 0 and S[0, 1] == 0
        assert S[1, 0] == pytest.approx(c)
        assert S[1, 1] == pytest.approx(lam)

    def test_against_quadrature(self):
        # independent oracle: S[i, j] = <z e_j, e_i> by direct circle quadrature
        B = random_blaschke(5, seed=2)
        M = 1 << 13
        angles = circle_grid(M)
        E = tmw_matrix(B, angles)
        z = np.exp(1j * angles)
        S_quad = E.conj().T @ (z[:, None] * E) / M
        assert np.abs(compressed_shift(B) - S_quad).max() < 1e-12

    def test_trace_is_zero_sum(self):
        B = random_blaschke(7, seed=9)
        assert np.trace(compressed_shift(B)) == pytest.approx(B.zeros.sum())

    def test_matches_loop_reference(self, edge_blaschke):
        S = compressed_shift(edge_blaschke)
        assert np.abs(S - shift_reference(edge_blaschke)).max() <= 1e-15

    @pytest.mark.parametrize("seq, N", [
        (ZeroSequence.uniform_zero(), 70),
        (ZeroSequence.frostman_fast(4), 200),
        (ZeroSequence.dense_nonblaschke(), 300),
        (ZeroSequence.alternating_3k(0.5), 129),
    ], ids=["origin", "frostman", "dense", "alternating"])
    def test_row_bands_match_one_band(self, monkeypatch, seq, N):
        # bands of 1, 7 and 64 rows, the last one partial, against the whole
        # matrix as one cumulative product: the same bits
        B = FiniteBlaschke.from_sequence(seq, N)
        ref = shift_cumprod_reference(B)
        for cells in (1, 7 * N, 64 * N):
            monkeypatch.setattr(operators, "SHIFT_CELLS", cells)
            assert compressed_shift(B).tobytes() == ref.tobytes()

    def test_trig_build_and_polynomial_keep_output_sized_memory(self):
        # frostman N = 512: T(cos) holds S, P = p(S) and T, and its square
        # T, a Horner step and its product (twice the 4 MiB result besides
        # it; with identities and c I at each step it was four times), with
        # the same bits as the identity forms
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 512)
        sym, f = SymbolRep.preset("cos"), ScalarFunction.preset("square")
        tracemalloc.start()
        try:
            fT = apply_function(build_truncated_toeplitz(B, sym), f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - fT.matrix.nbytes <= 2.1 * fT.matrix.nbytes
        assert fT.matrix.tobytes() == trig_poly_identity_reference(B, sym, f.poly_coeffs).tobytes()

    def test_one_sided_build_holds_no_more_than_a_real_one(self):
        # frostman N = 512: T(z^2) and T(conj(z)^2) form one side and no
        # matrix for the absent one, so they peak no higher than T(cos^2);
        # an identity times 0 for it, and T = Q* + P formed beside P, had
        # peaked at 64.0 against 48.3 MiB at N = 1024
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 512)
        peaks = {}
        for name, coeffs in (("cos^2", {-2: 1, 0: 2, 2: 1}), ("z^2", {2: 1}), ("conj-z^2", {-2: 1})):
            tracemalloc.start()
            try:
                build_truncated_toeplitz(B, SymbolRep.trig(coeffs))
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["z^2"] <= peaks["cos^2"] and peaks["conj-z^2"] <= peaks["cos^2"]

    def test_one_sided_build_adds_the_absent_side_as_zero(self, edge_blaschke):
        # the bits, signed zeros included, of Q* + P with the zero matrix
        # for the absent side
        S = compressed_shift(edge_blaschke)
        P, zero = operators._horner(S, (0, 0, 1)), np.zeros_like(S)
        for coeffs, ref in (({2: 1}, zero.conj().T + P), ({-2: 1}, P.conj().T + zero),
                            ({0: 2j}, zero.conj().T + zero + 2j * np.eye(len(S)))):
            assert build_truncated_toeplitz(edge_blaschke, SymbolRep.trig(coeffs)).matrix.tobytes() == ref.tobytes()

    def test_defect_is_projector_onto_constants(self, edge_blaschke):
        S = compressed_shift(edge_blaschke)
        N = edge_blaschke.degree
        P = np.zeros((N, N), dtype=complex)
        P[0, 0] = 1.0  # the first basis function is the constant 1
        assert np.abs(np.eye(N) - S @ S.conj().T - P).max() < 1e-14


class TestBuildToeplitz:
    def test_classical_tridiagonal(self):
        B = FiniteBlaschke(np.zeros(3, dtype=complex))
        T = build_truncated_toeplitz(B, TWO_COS)
        assert np.allclose(T.matrix, np.diag([1, 1], 1) + np.diag([1, 1], -1))

    def test_classical_reduction_general_trig(self):
        # matrix of a trig poly in the power case is the Fourier-coefficient band matrix
        B = FiniteBlaschke(np.zeros(6, dtype=complex))
        sym = SymbolRep.trig({0: 0.3, 1: 1 - 0.5j, 2: 2j, -1: 0.25, -3: 1.5})
        T = build_truncated_toeplitz(B, sym).matrix
        coeffs = sym.coeff_dict
        for i in range(6):
            for j in range(6):
                assert T[i, j] == pytest.approx(coeffs.get(i - j, 0.0), abs=1e-10)

    def test_identity_symbol(self):
        B = random_blaschke(4, seed=1)
        T = build_truncated_toeplitz(B, SymbolRep.constant(1.0))
        assert np.abs(T.matrix - np.eye(4)).max() < 1e-12

    def test_sampler_identity_symbol(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        sym = SymbolRep.from_sampler(lambda t: np.ones_like(t), real=True)
        T = build_truncated_toeplitz(B, sym)
        assert T.converged
        assert np.abs(T.matrix - np.eye(3)).max() < 1e-8

    def test_exact_vs_quadrature_paths(self):
        B = random_blaschke(5, seed=4)
        trig = SymbolRep.trig({1: 1, -2: 0.7j, 0: 0.2})
        exact = build_truncated_toeplitz(B, trig).matrix
        sampler = SymbolRep.from_sampler(lambda t: trig.evaluate(t))
        quad = build_truncated_toeplitz(B, sampler).matrix
        assert np.abs(exact - quad).max() < 1e-9

    @pytest.mark.parametrize("sym", [TWO_COS, REAL_DEGREE_2, REAL_DEGREE_3], ids=["degree-1", "degree-2", "degree-3"])
    def test_self_adjoint_for_real_symbol(self, sym):
        # T = P* + P + c_0 I with a real c_0: Hermitian bit for bit
        B = random_blaschke(6, seed=5)
        T = build_truncated_toeplitz(B, sym).matrix
        assert np.array_equal(T, T.conj().T)

    @pytest.mark.parametrize("sym", list(SHIFT_SUM_SYMBOLS.values()), ids=list(SHIFT_SUM_SYMBOLS))
    def test_matches_the_shift_power_sum(self, edge_blaschke, sym):
        # p(S) + q(S)* by Horner against sum_k c_k S^k with adjoint powers
        # for k < 0, formed power by power
        T = build_truncated_toeplitz(edge_blaschke, sym).matrix
        ref = trig_poly_identity_reference(edge_blaschke, sym, [0, 1])
        assert np.abs(T - ref).max() <= 1e-14 * np.abs(T).max()

    def test_trace_of_shift_symbol(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        T = build_truncated_toeplitz(B, SymbolRep.trig({1: 1}))
        assert trace(T) == pytest.approx(0.5)

    def test_nonfinite_symbol(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        bad = SymbolRep.from_sampler(lambda t: np.where(t > 3, np.inf, 1.0))
        with pytest.raises(ValueError):
            build_truncated_toeplitz(B, bad)

    def test_false_real_flag_rejected(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        lying = SymbolRep.from_sampler(lambda t: np.exp(1j * t), real=True)
        with pytest.raises(ValueError, match="flagged real"):
            build_truncated_toeplitz(B, lying)


def uniform_gram_reference(B, sym, points=1 << 19, chunk=1 << 15):
    """T(sym) by the periodic trapezoid rule on one fixed uniform grid."""
    grid = circle_grid(points)
    acc = np.zeros((B.degree, B.degree), dtype=complex)
    for start in range(0, points, chunk):
        E = tmw_matrix(B, grid[start:start + chunk])
        acc += (E.conj().T * sym.evaluate(grid[start:start + chunk])) @ E
    return acc / points


def takes_phase_route(B, cfg=QuadratureConfig()):
    return blaschke_initial_points(B, cfg) > PHASE_NODE_COST * 2 * B.degree * MIN_LEVELS


class TestSampledBuild:
    """Sampled symbols on products whose zeros sit near the circle, where the
    build averages over phase nodes of z^N B instead of a peak-sized grid."""

    @pytest.mark.parametrize("N", [32, 128])
    def test_inverse_derivative_has_trace_one(self, N):
        # sum_i |e_i|^2 = |B'| on the circle, so Tr T(1/|B'|) = 1
        B = FiniteBlaschke(generate_zeros(ZeroSequence.frostman_fast(4), N))
        assert takes_phase_route(B)
        T = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
        assert T.converged
        assert abs(trace(T) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seq, N", [
        (ZeroSequence.frostman_fast(4), 32),
        (ZeroSequence.frostman_fast(4), 64),
        (ZeroSequence.dense_nonblaschke(), 64),
    ], ids=["frostman-32", "frostman-64", "dense-64"])
    def test_inverse_derivative_matches_clark_atoms(self, seq, N):
        # the build's nodes are phase nodes of z^N B weighted 2N/|Z'|; the
        # oracle averages the Clark atoms of B itself weighted 1/|B'|^2
        B = FiniteBlaschke(generate_zeros(seq, N))
        T = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
        assert T.converged
        ref = inverse_derivative_from_clark(B)
        assert np.abs(T.matrix - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_inverse_derivative_matches_50_digit_reference(self):
        # a degree-4 product with a zero 1e-6 from the circle; measured gap
        # 5.7e-17 (largest entry 0.39)
        mp = pytest.importorskip("mpmath").mp
        psi = 1.1
        B = FiniteBlaschke(np.array([0, 0.5j, -0.4 + 0.2j, RADIUS_CAP * np.exp(1j * psi)]))
        T = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
        assert T.converged
        with mp.workdps(50):
            ref, err = inverse_derivative_mp(B, psi, mp)
        assert err < 1e-40  # the reference converged
        assert np.abs(T.matrix - ref).max() <= 1e-10

    @pytest.mark.parametrize("seq, N, phase_route", [
        (ZeroSequence.frostman_fast(4), 32, True),
        (ZeroSequence.frostman_fast(4), 128, True),
        (ZeroSequence.dense_nonblaschke(), 64, False),
    ], ids=["frostman-32", "frostman-128", "dense-64"])
    def test_inverse_derivative_from_phase_solve(self, monkeypatch, seq, N, phase_route):
        # on the phase nodes of z^N B, 1/|B'| = 1/(|Z'| - N) comes from the
        # solve: no |B'| pass; a uniform grid samples the symbol
        B = FiniteBlaschke.from_sequence(seq, N)
        assert takes_phase_route(B) == phase_route
        calls = []

        def counted(B, angles, *args):
            calls.append(len(angles))
            return abs_derivative_grid(B, angles, *args)

        monkeypatch.setattr(operators, "abs_derivative_grid", counted)
        T = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
        assert T.converged
        assert (len(calls) == 0) == phase_route
        assert abs(trace(T) - 1.0) <= 1e-12

    def test_phase_route_matches_uniform_grid(self):
        rng = np.random.default_rng(7)
        pts = (1.0 - 1e-4) * np.exp(2j * np.pi * rng.random(15))
        B = FiniteBlaschke(np.concatenate(([0j], pts)))
        assert takes_phase_route(B)
        sym = inverse_derivative_symbol(B)
        T = build_truncated_toeplitz(B, sym)
        assert T.converged
        assert np.abs(T.matrix - uniform_gram_reference(B, sym)).max() <= 1e-10

    def test_phase_route_matches_exact_trig_build(self):
        B = FiniteBlaschke(generate_zeros(ZeroSequence.frostman_fast(4), 64))
        trig = SymbolRep.trig({1: 1, -2: 0.7j, 0: 0.2})
        T = build_truncated_toeplitz(B, SymbolRep.from_sampler(trig.evaluate))
        assert T.converged
        assert np.abs(T.matrix - build_truncated_toeplitz(B, trig).matrix).max() <= 1e-8

    def test_unresolvable_product_stops_at_node_budget(self):
        # zero pairs at 1 - 1e-10: no grid within max_points resolves them,
        # and the phase nodes stop at max_points/PHASE_NODE_COST
        k = np.arange(63) // 2
        pts = (1.0 - 1e-10) * np.exp(2j * np.pi * ((k * 0.6180339887498949) % 1.0))
        B = FiniteBlaschke(np.concatenate(([0j], pts)))
        cfg = QuadratureConfig()
        assert takes_phase_route(B, cfg)
        inv = inverse_derivative_symbol(B)
        sampled = []

        def counted(t):
            sampled.append(len(t))
            return inv.evaluate(t)

        t0 = time.perf_counter()
        T = build_truncated_toeplitz(B, SymbolRep.from_sampler(counted, real=True), cfg)
        elapsed = time.perf_counter() - t0
        assert not T.converged
        assert sum(sampled) <= cfg.max_points // PHASE_NODE_COST
        # the uniform grid of max_points points takes about 5 s on a 2-vCPU
        # host, the budgeted phase nodes about 2 s
        assert elapsed < 6.0

    def test_build_memory_does_not_grow_with_node_count(self):
        # one reused block of GRAM_NODES basis samples keeps the build's
        # traced peak at 9.0 MiB at N = 256; two blocks held at once peaked
        # at 13.7 MiB, blocks of 2^22/N nodes at 101 MiB
        B = FiniteBlaschke(generate_zeros(ZeroSequence.frostman_fast(4), 256))
        sym = inverse_derivative_symbol(B)
        tracemalloc.start()
        try:
            T = build_truncated_toeplitz(B, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.converged
        assert peak <= 10 * 2 ** 20

    @pytest.mark.parametrize("seq, N", [
        (ZeroSequence.frostman_fast(4), 64),
        (ZeroSequence.frostman_fast(4), 128),
        (ZeroSequence.dense_nonblaschke(), 64),
        (ZeroSequence.dense_nonblaschke(), 200),
    ], ids=["frostman-64", "frostman-128", "dense-64", "dense-200"])
    def test_block_size_changes_only_summation_order(self, monkeypatch, seq, N):
        # 1000 leaves a partial last block, 2^20 puts each level in one block
        B = FiniteBlaschke(generate_zeros(seq, N))
        trig = SymbolRep.trig({1: 1, -2: 0.7j, 0: 0.2})
        syms = (inverse_derivative_symbol(B), SymbolRep.from_sampler(trig.evaluate))
        refs = [build_truncated_toeplitz(B, sym) for sym in syms]
        for nodes in (1000, 1 << 20):
            monkeypatch.setattr(operators, "GRAM_NODES", nodes)
            for sym, ref in zip(syms, refs):
                T = build_truncated_toeplitz(B, sym)
                assert T.converged == ref.converged
                assert np.abs(T.matrix - ref.matrix).max() <= 1e-14 * np.abs(ref.matrix).max()


def full_product(sym):
    """The symbol flagged complex: its sampled build forms the full Gram
    product of every node block and mirrors nothing."""
    return dataclasses.replace(sym, is_real=False)


REAL_SAMPLER = SymbolRep.from_sampler(lambda t: np.cos(t) + 0.3 * np.sin(2 * t) + 1.5, real=True)


class TestHalfTriangleGram:
    """A real symbol's sampled build forms the block-lower triangle of each
    Gram product and mirrors their sum: T is exactly Hermitian and meets the
    full product to rounding."""

    @staticmethod
    def check_against_full_product(B, sym):
        T = build_truncated_toeplitz(B, sym)
        ref = build_truncated_toeplitz(B, full_product(sym))
        assert np.array_equal(T.matrix, T.matrix.conj().T)
        assert np.abs(T.matrix - ref.matrix).max() <= 1e-14 * np.abs(ref.matrix).max()
        assert T.converged == ref.converged

    @pytest.mark.parametrize("seq, N", [
        (ZeroSequence.frostman_fast(4), 32),
        (ZeroSequence.frostman_fast(4), 64),
        (ZeroSequence.frostman_fast(4), 128),
        (ZeroSequence.dense_nonblaschke(), 64),
        (ZeroSequence.dense_nonblaschke(), 200),
    ], ids=["frostman-32", "frostman-64", "frostman-128", "dense-64", "dense-200"])
    @pytest.mark.parametrize("which", ["inverse_derivative", "real_sampler"])
    def test_sampled_build_cases(self, seq, N, which):
        B = FiniteBlaschke.from_sequence(seq, N)
        sym = inverse_derivative_symbol(B) if which == "inverse_derivative" else REAL_SAMPLER
        self.check_against_full_product(B, sym)

    def test_edge_families(self, small_edge_blaschke):
        B = small_edge_blaschke
        self.check_against_full_product(B, inverse_derivative_symbol(B))

    def test_row_bands_cover_each_row_once(self):
        for N in (1, 2, 31, 32, 63, 64, 100, 128, 1000):
            bands = operators._row_bands(N)
            assert bands[0][0] == 0 and bands[-1][1] == N
            assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
            assert len(bands) == max(1, min(4, N // 32))

    @pytest.mark.parametrize("make", [
        lambda: FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 64),
        lambda: random_blaschke(12, seed=3),
    ], ids=["phase-route", "uniform-route"])
    def test_complex_sampler_takes_full_product(self, monkeypatch, make):
        # T(z) is the compressed shift, lower triangular: a mirrored build
        # would be Hermitian; a real symbol's build mirrors once, after its
        # last level
        B = make()
        mirrored = []

        def counted(A):
            mirrored.append(A.shape)
            return mirror(A)

        mirror = operators._mirror_lower
        monkeypatch.setattr(operators, "_mirror_lower", counted)
        T = build_truncated_toeplitz(B, SymbolRep.from_sampler(lambda t: np.exp(1j * t)))
        assert T.converged and not mirrored
        S = compressed_shift(B)
        assert np.abs(T.matrix - S).max() <= 1e-8 * np.abs(S).max()
        build_truncated_toeplitz(B, REAL_SAMPLER)
        assert mirrored == [(B.degree, B.degree)]

    def test_nested_brackets_cut_phase_rows(self, monkeypatch):
        # frostman N = 128: every doubling level of the phase route solved
        # inside the brackets of the levels before it takes at most 2.1 phase
        # rows per node, bracket scan included (2.04 measured; the scan alone
        # gave 2.34)
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 128)
        assert takes_phase_route(B)
        rows, nodes = [0], [0]

        class CountingPhase(PhaseFunction):
            def __call__(self, angles, derivs=None):
                rows[0] += np.size(angles)
                return super().__call__(angles, derivs)

        def counted_nodes(*args):
            out = phase_nodes(*args)
            nodes[0] += len(out[0])
            return out

        monkeypatch.setattr(quadrature, "PhaseFunction", CountingPhase)
        monkeypatch.setattr(quadrature, "phase_nodes", counted_nodes)
        T = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
        assert T.converged
        assert nodes[0] >= 4 * 2 * 128 * MIN_LEVELS
        assert rows[0] <= 2.1 * nodes[0]


class TestTraceFormula:
    def test_constant_symbol_gives_degree(self):
        B = random_blaschke(5, seed=6)
        res = trace_formula_rhs(B, SymbolRep.constant(1.0))
        assert res.value.real == pytest.approx(5.0, abs=1e-9)

    def test_classical_case(self):
        B = FiniteBlaschke(np.zeros(8, dtype=complex))
        sym = SymbolRep.trig({0: 0.7, 1: 1, -1: 1})
        res = trace_formula_rhs(B, sym)
        assert res.value == pytest.approx(8 * 0.7, abs=1e-10)

    def test_matches_matrix_trace(self):
        sym = SymbolRep.trig({1: 1})
        B = FiniteBlaschke(np.array([0, 0.5]))
        res = trace_formula_rhs(B, sym)
        assert res.value == pytest.approx(0.5, abs=1e-10)
        assert res.value == pytest.approx(trace(build_truncated_toeplitz(B, sym)), abs=1e-9)

    @pytest.mark.parametrize("seq", [
        ZeroSequence.uniform_zero(),
        ZeroSequence.constant_modulus(0.5),
        ZeroSequence.alternating_3k(0.5),
        ZeroSequence.dense_nonblaschke(),
    ])
    def test_identity_across_generators(self, seq):
        sym = SymbolRep.trig({0: 0.5, 1: 1, 2: 1 + 0.5j, -1: 0.3})
        for N in (8, 24):
            B = FiniteBlaschke(generate_zeros(seq, N))
            lhs = trace(build_truncated_toeplitz(B, sym))
            rhs = trace_formula_rhs(B, sym).value
            assert abs(lhs - rhs) < 1e-7


class TestClarkUnitary:
    def test_power_case_is_alpha_circulant(self):
        alpha = np.exp(0.3j)
        B = FiniteBlaschke(np.zeros(4, dtype=complex))
        U = build_clark_unitary(B, alpha).matrix
        expected = np.diag(np.ones(3), -1).astype(complex)
        expected[0, 3] = alpha
        assert np.allclose(U, expected)

    def test_unitarity(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        U = build_clark_unitary(B, np.exp(0.7j)).matrix
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-8

    def test_spectral_form_agreement(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        alpha = np.exp(0.7j)
        U = build_clark_unitary(B, alpha).matrix
        V = build_clark_spectral(B, clark_measure(B, alpha)).matrix
        assert np.linalg.norm(U - V) < 1e-7

    def test_validation(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        with pytest.raises(ValueError):
            build_clark_unitary(B, 0.5)
        off_origin = FiniteBlaschke(np.array([0.3 + 0j]))
        with pytest.raises(ValueError):
            build_clark_unitary(off_origin, 1.0)


class TestClarkSpectral:
    def test_z2_eigenvalues(self):
        B = FiniteBlaschke(np.zeros(2, dtype=complex))
        U = build_clark_spectral(B, clark_measure(B, 1.0)).matrix
        eig = sorted(np.linalg.eigvals(U).real)
        assert eig == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_resolution_of_identity(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        M = build_clark_spectral(B, clark_measure(B, 1.0), SymbolRep.constant(1.0)).matrix
        assert np.abs(M - np.eye(3)).max() < 1e-8

    def test_hs_norm_equals_spectral_sum(self):
        # Schatten-2 identity: the squared norm is the integral of |phi|^2 |B'|
        # against the Clark measure, i.e. the plain sum of |phi|^2 over atoms
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j, -0.4]))
        mu = clark_measure(B, np.exp(1.1j))
        sym = TWO_COS
        M = build_clark_spectral(B, mu, sym)
        vals = np.abs(sym.evaluate(mu.atom_angles)) ** 2
        deriv = 1.0 / mu.weights
        assert hs_norm(M) ** 2 == pytest.approx(np.sum(vals * deriv * mu.weights), abs=1e-8)
        assert hs_norm(M) ** 2 == pytest.approx(np.sum(vals), abs=1e-8)

    def test_mismatched_product_rejected(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        other = FiniteBlaschke(np.array([0, 0.4]))
        with pytest.raises(ValueError):
            build_clark_spectral(other, clark_measure(B, 1.0))


class TestApplyFunction:
    def test_identity(self):
        B = random_blaschke(4, seed=3)
        T = build_truncated_toeplitz(B, TWO_COS)
        out = apply_function(T, ScalarFunction.preset("identity"))
        assert np.allclose(out.matrix, T.matrix)

    def test_square_trace_classical(self):
        N = 16
        B = FiniteBlaschke(np.zeros(N, dtype=complex))
        T = build_truncated_toeplitz(B, TWO_COS)
        sq = apply_function(T, ScalarFunction.preset("square"))
        assert trace(sq).real == pytest.approx(2 * (N - 1), abs=1e-10)

    def test_poly_pointwise_agree(self):
        B = random_blaschke(6, seed=7)
        T = build_truncated_toeplitz(B, TWO_COS)
        f_poly = ScalarFunction.poly([0, -2, 0, 1])
        f_pw = ScalarFunction.from_pointwise(lambda x: x ** 3 - 2 * x)
        a = apply_function(T, f_poly).matrix
        b = apply_function(T, f_pw).matrix
        assert np.abs(a - b).max() < 1e-8

    def test_pointwise_rejects_nonhermitian(self):
        B = random_blaschke(4, seed=8)
        T = build_truncated_toeplitz(B, SymbolRep.trig({1: 1}))
        with pytest.raises(ValueError):
            apply_function(T, ScalarFunction.preset("abs"))

    @pytest.mark.parametrize("seq, N", [(ZeroSequence.dense_nonblaschke(), 64),
                                        (ZeroSequence.frostman_fast(4), 128)], ids=["dense", "frostman"])
    def test_pointwise_takes_an_exactly_hermitian_matrix_as_it_is(self, monkeypatch, seq, N):
        # a real trig build (P* + P) and a sampled real build (mirrored) are
        # exactly Hermitian: eigh gets the matrix itself, and f(T) has the
        # bits of eigh of the average 0.5 (M + M*)
        handed, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: handed.append(M) or eigh(M))
        B = FiniteBlaschke.from_sequence(seq, N)
        for sym in (REAL_DEGREE_2, inverse_derivative_symbol(B)):
            T = build_truncated_toeplitz(B, sym)
            M = T.matrix
            assert np.array_equal(M, M.conj().T)
            w, V = eigh(0.5 * (M + M.conj().T))
            ref = (V * np.exp(w).astype(complex)) @ V.conj().T
            assert apply_function(T, ScalarFunction.preset("exp")).matrix.tobytes() == ref.tobytes()
            assert handed[-1] is M

    def test_pointwise_averages_a_nearly_hermitian_matrix(self, monkeypatch):
        handed, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: handed.append(M) or eigh(M))
        B = random_blaschke(6, seed=7)
        M = build_truncated_toeplitz(B, TWO_COS).matrix
        M = M + 1e-12 * np.triu(np.ones_like(M), 1)  # skew, 1e-12 relative
        fT = apply_function(OperatorMatrix(M, B), ScalarFunction.preset("exp"))
        w, V = eigh(0.5 * (M + M.conj().T))
        assert handed[-1].tobytes() == (0.5 * (M + M.conj().T)).tobytes()
        assert fT.matrix.tobytes() == ((V * np.exp(w).astype(complex)) @ V.conj().T).tobytes()

    @pytest.mark.parametrize("f", ["square", "abs"])
    def test_carries_the_convergence_of_its_input(self, f):
        # a starved sampled build of T(abs_sin) next to a zero at 1 - 1e-6:
        # f(T) keeps its flag and error estimate, on both branches
        B = FiniteBlaschke(np.array([0, 0.999999]))
        T = build_truncated_toeplitz(B, SymbolRep.preset("abs_sin"), QuadratureConfig(max_points=512))
        assert not T.converged and T.estimated_error > 0
        fT = apply_function(T, ScalarFunction.preset(f))
        assert (fT.converged, fT.estimated_error) == (T.converged, T.estimated_error)


class TestNorms:
    def test_identity_norms(self):
        B = FiniteBlaschke(np.zeros(5, dtype=complex))
        ident = OperatorMatrix(np.eye(5, dtype=complex), B)
        assert trace(ident) == 5
        assert hs_norm(ident) == pytest.approx(np.sqrt(5))
        assert trace_norm(ident) == pytest.approx(5.0, abs=1e-10)
        assert op_norm(ident) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_projector(self):
        B = FiniteBlaschke(np.zeros(4, dtype=complex))
        u = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        P = OperatorMatrix(np.outer(u, u.conj()), B)
        assert trace_norm(P) == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm_dominates_trace(self):
        rng = np.random.default_rng(1)
        B = FiniteBlaschke(np.zeros(6, dtype=complex))
        for _ in range(5):
            M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            A = OperatorMatrix(M, B)
            assert trace_norm(A) >= abs(trace(A)) - 1e-10

    def test_trace_norm_of_low_rank_matrix(self):
        # squaring (eigenvalues of A*A) loses the 1e-3 singular value to ~1e-7
        rng = np.random.default_rng(4)
        N = 64
        U, V = haar_unitary(N, rng), haar_unitary(N, rng)
        s = np.zeros(N)
        s[:2] = (1.0, 1e-3)
        A = OperatorMatrix((U * s) @ V.conj().T, FiniteBlaschke(np.zeros(N, dtype=complex)))
        assert abs(trace_norm(A) - 1.001) < 1e-12

    def test_singular_values_against_numpy(self):
        rng = np.random.default_rng(2)
        B = FiniteBlaschke(np.zeros(7, dtype=complex))
        M = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        sv = singular_values(OperatorMatrix(M, B))
        sv_np = np.linalg.svd(M, compute_uv=False)
        assert np.abs(sv - sv_np).max() < 1e-9 * sv_np.max()


class TestRankOneDefect:
    def test_power_case(self):
        B = FiniteBlaschke(np.zeros(4, dtype=complex))
        D = rank_one_defect(B).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(D, expected)

    def test_trace_one(self):
        B = FiniteBlaschke(np.array([0, 0.5, -0.4]))
        assert trace(rank_one_defect(B)).real == pytest.approx(1.0, abs=1e-12)

    def test_numerical_rank_one(self):
        B = random_blaschke(9, seed=13)
        sv = singular_values(rank_one_defect(B))
        assert sv[0] == pytest.approx(1.0, abs=1e-10)
        assert sv[1] < 1e-8

    def test_requires_zero_at_origin(self):
        with pytest.raises(ValueError):
            rank_one_defect(FiniteBlaschke(np.array([0.5 + 0j])))


class TestFejerApply:
    def test_constant(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        res = fejer_apply(B, lambda t: np.ones_like(t), 0.7)
        assert res.value.real == pytest.approx(1.0, abs=1e-9)

    def test_classical_mean(self):
        N = 8
        B = FiniteBlaschke(np.zeros(N, dtype=complex))
        res = fejer_apply(B, TWO_COS.evaluate, 0.0)
        assert res.value.real == pytest.approx(2 * (N - 1) / N, abs=1e-9)

    def test_matrix_route_matches_quadrature(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j, -0.2]))
        sym = SymbolRep.trig({1: 1, -1: 1, 2: 0.5, -2: 0.5})
        T = build_truncated_toeplitz(B, sym)
        for th in (0.0, 1.3, 4.0):
            direct = fejer_apply(B, sym.evaluate, th).value
            fast = fejer_values(B, T, np.array([th]), abs_derivative_grid(B, np.array([th])))[0]
            assert direct == pytest.approx(fast, abs=1e-8)


def fejer_trig_reference(B, symbols, angles):
    """Averages with one Toeplitz build and one fejer_values call per
    symbol, over a |B'| pass: the route the closed-form shift moments replaced."""
    slopes = abs_derivative_grid(B, angles)
    return np.array([fejer_values(B, build_truncated_toeplitz(B, sym), angles, slopes) for sym in symbols])


def mp_shift_moments(B, angles, D, mp):
    """m_0...m_D at the working precision of mp, for the stored zeros, from
    the closed form m_k = zeta^k [1 - (k - B sum_{n<k} (k-n) conj(b_n zeta^n))/|B'|]
    with the Taylor coefficients b_n of B itself (the origin factors not
    taken out).  The Toeplitz route checks the closed form on the products
    it resolves; this checks the double-precision evaluation."""
    uniq, counts = np.unique(B.zeros, return_counts=True)
    zs = [mp.mpc(z.real, z.imag) for z in uniq]
    sigmas = [mp.conj(z) / abs(z) if z else mp.mpf(1) for z in zs]
    b = [mp.mpc(1)] + [mp.mpc(0)] * (D - 1)
    for z, sigma, mult in zip(zs, sigmas, counts):
        factor = [-sigma * z] + [sigma * mp.conj(z) ** (n - 1) * (1 - abs(z) ** 2) for n in range(1, D)]
        for _ in range(mult):
            b = [mp.fsum(b[l] * factor[n - l] for l in range(n + 1)) for n in range(D)]
    out = np.empty((D + 1, len(angles)), dtype=complex)
    for col, t in enumerate(angles):
        zeta = mp.expj(mp.mpf(t))
        powers = [zeta ** k for k in range(D + 1)]
        Bz = mp.fprod((sigma * (zeta - z) / (1 - mp.conj(z) * zeta)) ** m
                      for z, sigma, m in zip(zs, sigmas, counts))
        d = mp.fsum(m * (1 - abs(z) ** 2) / abs(zeta - z) ** 2 for z, m in zip(zs, counts))
        for k in range(D + 1):
            inner = mp.fsum((k - n) * mp.conj(b[n] * powers[n]) for n in range(k))
            out[k, col] = complex(powers[k] * (1 - (k - Bz * inner) / d))
    return out


class TestFejerTrigValues:
    def test_matches_per_symbol_oracle(self, small_edge_blaschke):
        B = small_edge_blaschke
        rng = np.random.default_rng(11)
        symbols = [SymbolRep.trig({k: complex(rng.normal(), rng.normal()) for k in range(-6, 7)})
                   for _ in range(3)]
        symbols.append(SymbolRep.trig({1: 0.5, -1: 0.5, 3: 0.25j, -3: -0.25j}))  # real, Lipschitz
        # a uniform grid plus phase nodes, which crowd next to near-circle
        # zeros: B and |B'| at the grid from the phase, at the nodes their
        # levels times e^{i residual} and the solve's Theta'
        phase = PhaseFunction(B)
        grid = circle_grid(2049, offset=0.37)
        grid_derivs = np.empty((2, len(grid)))
        phase(grid, grid_derivs)
        nodes, node_slopes, residuals = phase_nodes(phase, 4)
        angles = np.concatenate((grid, nodes))
        levels = np.tile(np.exp(1j * circle_grid(4)), B.degree) * np.exp(1j * residuals)
        values, averages = fejer_trig_values(B, trig_coefficients(symbols), angles,
                                             np.concatenate((phase.product(grid), levels)),
                                             np.concatenate((grid_derivs[0], node_slopes)))
        assert values.shape == averages.shape == (len(symbols), len(angles))
        ref_values = np.array([sym.evaluate(angles) for sym in symbols])
        if 1 - B._radii.max() < 1e-5:
            # next to zeros this close to the circle the Toeplitz route is
            # 1e-10 to 6e-6 off per moment: check against a 50-digit
            # reference at the phase nodes and at every 8th grid point
            mp = pytest.importorskip("mpmath").mp
            keep = np.concatenate((np.arange(0, 2049, 8), np.arange(2049, len(angles))))
            with mp.workdps(50):
                moments = mp_shift_moments(B, angles[keep], 6, mp)
            coeffs = np.array([[sym.coeff_dict.get(k, 0) for k in range(-6, 7)] for sym in symbols])
            ref_averages = coeffs @ np.concatenate((np.conj(moments[:0:-1]), moments))
            averages = averages[:, keep]
        else:
            ref_averages = fejer_trig_reference(B, symbols, angles)
        for got, ref in ((values, ref_values), (averages, ref_averages)):
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_taylor_prefix_serves_a_smaller_degree(self, small_edge_blaschke):
        # the suite forms B1's Taylor coefficients once, to its trials'
        # degree 6, and averages its probe symbol with them, whatever that
        # symbol's degree
        B = small_edge_blaschke
        angles = circle_grid(64, offset=0.37)
        derivs = np.empty((2, len(angles)))
        phase = PhaseFunction(B)
        phase(angles, derivs)
        coeffs, b = trig_coefficients([REAL_DEGREE_3]), phase.product(angles)
        own = fejer_trig_values(B, coeffs, angles, b, derivs[0])
        held = fejer_trig_values(B, coeffs, angles, b, derivs[0], operators.taylor_coefficients(B, 6))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(own, held))

    def test_rejects_sampled_symbol(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        with pytest.raises(ValueError):
            trig_coefficients([SymbolRep.preset("abs_sin")])
