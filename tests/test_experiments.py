import math
import tracemalloc

import numpy as np
import pytest

from ttolab import blaschke, clark, experiments, operators, quadrature
from ttolab.blaschke import (
    RADIUS_CAP,
    RULE_PARAMS,
    FiniteBlaschke,
    PhaseFunction,
    ZeroSequence,
    abs_derivative_grid,
    circle_grid,
    generate_zeros,
    phase_nodes,
)
from ttolab.clark import ClarkMeasure, clark_measure
from ttolab.experiments import (
    ConvergenceRecord,
    ExperimentConfig,
    angular_condition_a,
    angular_condition_b,
    fejer_suite,
    hs_approx_gap,
    product_defect_s1,
    stz_defect_s1,
    stz_trace,
    szego_gap,
    threshold_keys,
)
from ttolab.operators import (
    ScalarFunction,
    SymbolRep,
    build_truncated_toeplitz,
    fejer_values,
    inverse_derivative_symbol,
    semicommutator_trace,
    trace_formula_rhs,
    trig_coefficients,
)
from ttolab.quadrature import QuadratureConfig, integrate_circle, nu_integral

from oracles import hs_lhs_reference, inverse_derivative_from_clark

TWO_COS = SymbolRep.trig({1: 1, -1: 1})
SQUARE = ScalarFunction.preset("square")
IDENTITY = ScalarFunction.preset("identity")


#: the five zero rules with their default parameters
FIVE_RULES = [kind for kind in RULE_PARAMS if kind != "explicit"]


def classical_cfg(f=SQUARE, ns=(8, 16, 32, 64)):
    return ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, f, ns)


class TestConfigValidation:
    def test_n_values_strictly_increasing(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE, (8, 8))

    def test_alpha_count_power_of_two(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE, (8,), alpha_count=12)

    @pytest.mark.parametrize("name, value", [
        ("n_values", (8.5, 16)), ("alpha_count", 32.0), ("j_terms", 2.5), ("grid_size", 0),
        ("thresholds", (math.nan,)), ("thresholds", (-1,)),
    ])
    def test_refuses_a_bad_setting_by_name(self, name, value):
        # n_values = (8.5, 16) once became (8, 16) without a word
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE, **{name: value})

    def test_settings_take_the_declared_types(self):
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE, [np.int64(4), 8],
                               thresholds=[100, 1e3])
        assert cfg.n_values == (4, 8) and all(type(n) is int for n in cfg.n_values)
        assert cfg.thresholds == (100.0, 1e3) and all(type(t) is float for t in cfg.thresholds)

    def test_pointwise_function_needs_real_symbol(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ZeroSequence.uniform_zero(), SymbolRep.trig({1: 1}),
                             ScalarFunction.preset("abs"), (8,))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_is_checked(self, seed):
        # random.Random would take -1 as 1 when the suite draws its trials
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(ZeroSequence.uniform_zero(seed=seed), TWO_COS, SQUARE, (8,))

    def test_seed_is_an_int(self):
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(seed=np.int64(4)), TWO_COS, SQUARE, (8,))
        assert type(cfg.sequence.seed) is int and cfg.sequence.seed == 4
        assert classical_cfg().sequence.seed == 0

    def test_gap_is_derived(self):
        rec = ConvergenceRecord(4, 1.0 + 1j, 1.0)
        assert rec.gap == pytest.approx(1.0)


class TestSzegoGap:
    def test_classical_frozen_values(self):
        for rec in szego_gap(classical_cfg()):
            assert rec.lhs.real == pytest.approx(2 * (rec.N - 1) / rec.N, abs=1e-9)
            assert rec.gap == pytest.approx(2 / rec.N, abs=1e-9)

    def test_identity_function_is_trace_formula(self):
        # with f = identity the two sides coincide up to quadrature error
        for seq in (ZeroSequence.constant_modulus(0.5), ZeroSequence.dense_nonblaschke()):
            cfg = ExperimentConfig(seq, TWO_COS, IDENTITY, (8, 16))
            for rec in szego_gap(cfg):
                assert rec.gap < 1e-7

    def test_pointwise_path_matches_poly(self):
        cfg_poly = classical_cfg(ns=(8, 16))
        cfg_pw = ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS,
                                  ScalarFunction.from_pointwise(lambda x: x ** 2), (8, 16))
        for a, b in zip(szego_gap(cfg_poly), szego_gap(cfg_pw)):
            assert a.lhs == pytest.approx(b.lhs, abs=1e-8)

    def test_remark_sequence_moments(self):
        # the alternating-block rule with lambda_1 = 0 gives first moments
        # lam/3, -lam/3, 13 lam/27 at N = 3, 9, 27
        lam = 0.5
        cfg = ExperimentConfig(ZeroSequence.alternating_3k(lam), SymbolRep.trig({1: 1}),
                               IDENTITY, (3, 9, 27))
        recs = szego_gap(cfg)
        expected = [lam / 3, -lam / 3, 13 * lam / 27]
        for rec, want in zip(recs, expected):
            assert rec.rhs == pytest.approx(want, abs=1e-9)
            assert rec.lhs == pytest.approx(want, abs=1e-9)

    def test_remark_exact_mean_of_zeros(self):
        lam = generate_zeros(ZeroSequence.alternating_3k(0.5), 27)
        assert lam.mean() == pytest.approx(13 * 0.5 / 27)


class TestStzTrace:
    def test_classical_reduction(self):
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE, (8, 64))
        recs = stz_trace(cfg)
        assert recs[0].lhs.real == pytest.approx(2 * 7 / 8, abs=1e-8)
        assert recs[1].lhs.real == pytest.approx(2 * 63 / 64, abs=1e-8)
        for rec in recs:
            assert rec.rhs.real == pytest.approx(2.0, abs=1e-9)

    def test_identity_function_dual_route(self):
        # trace of T(1/|B'|) T(phi) equals the circle integral of the averaged symbol
        seq = ZeroSequence.dense_nonblaschke()
        B = FiniteBlaschke(generate_zeros(seq, 12))
        T_beta = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
        T_phi = build_truncated_toeplitz(B, TWO_COS)
        lhs = np.trace(T_beta.matrix @ T_phi.matrix)
        avg = integrate_circle(lambda t: fejer_values(B, T_phi, t, abs_derivative_grid(B, t)))
        assert lhs == pytest.approx(avg.value, abs=1e-6)

    def test_beta_trace_is_one(self):
        # trace formula applied to the reciprocal derivative: integral of 1
        B = FiniteBlaschke(generate_zeros(ZeroSequence.dense_nonblaschke(), 10))
        T_beta = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
        assert np.trace(T_beta.matrix) == pytest.approx(1.0, abs=1e-8)

    def test_dense_gap_decays(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, SQUARE, (8, 16, 32, 64))
        recs = stz_trace(cfg)
        assert recs[-1].gap < recs[0].gap / 2

    @pytest.mark.parametrize("seq, ns", [
        (ZeroSequence.frostman_fast(4), (32, 64)),
        (ZeroSequence.dense_nonblaschke(), (64,)),
    ], ids=["frostman", "dense"])
    def test_lhs_matches_clark_atom_build(self, seq, ns):
        # Tr(T(1/|B'|) f(T(phi))) with T(1/|B'|) from the Clark atoms
        recs = stz_trace(ExperimentConfig(seq, TWO_COS, SQUARE, ns))
        for rec in recs:
            B = FiniteBlaschke(generate_zeros(seq, rec.N))
            T = build_truncated_toeplitz(B, TWO_COS)
            want = np.trace(inverse_derivative_from_clark(B) @ (T.matrix @ T.matrix))
            assert abs(rec.lhs - want) <= 1e-10 * abs(want)

    def test_rhs_is_the_constant_coefficient(self):
        # (z + 1/z)^2 has constant coefficient 2: no quadrature
        recs = stz_trace(ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, SQUARE, (8, 16)))
        for rec in recs:
            assert rec.rhs == 2.0
            assert rec.diagnostics["rhs_points"] == 0.0

    def test_pointwise_rhs_takes_quadrature(self):
        # |2 cos t| has mean 4/pi; the composition is sampled, so its rhs
        # comes from circle quadrature
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS,
                               ScalarFunction.preset("abs"), (8,))
        rec, = stz_trace(cfg)
        assert rec.diagnostics["rhs_points"] > 0
        assert rec.rhs == pytest.approx(4 / np.pi, abs=1e-6)


#: the dense sequence under a 1024-point cap: the sampled T(abs_sin) build
#: and the rhs quadratures of abs o abs_sin stop short at N = 8 and 16
STARVED_DENSE = ExperimentConfig(ZeroSequence.dense_nonblaschke(), SymbolRep.preset("abs_sin"),
                                 ScalarFunction.preset("abs"), (8, 16), quadrature=QuadratureConfig(max_points=1024))


class TestStageFlags:
    def test_szego_records_its_build_and_rhs(self):
        cfg = STARVED_DENSE
        composed = cfg.function.compose_symbol(cfg.symbol)
        for rec in szego_gap(cfg):
            B = FiniteBlaschke.from_sequence(cfg.sequence, rec.N)
            build = build_truncated_toeplitz(B, cfg.symbol, cfg.quadrature)
            rhs = trace_formula_rhs(B, composed, cfg.quadrature)
            assert not build.converged and not rhs.converged
            assert rec.diagnostics["build_converged"] == 0.0 and rec.diagnostics["rhs_converged"] == 0.0

    def test_stz_records_its_builds_and_rhs(self):
        cfg = STARVED_DENSE
        rhs = integrate_circle(cfg.function.compose_symbol(cfg.symbol).evaluate, cfg.quadrature)
        assert not rhs.converged
        for rec in stz_trace(cfg):
            B = FiniteBlaschke.from_sequence(cfg.sequence, rec.N)
            assert not build_truncated_toeplitz(B, cfg.symbol, cfg.quadrature).converged
            assert build_truncated_toeplitz(B, inverse_derivative_symbol(B), cfg.quadrature).converged
            assert rec.rhs == rhs.value and rec.diagnostics["rhs_points"] == rhs.points_used
            assert {k: v for k, v in rec.diagnostics.items() if "converged" in k} == {
                "beta_build_converged": 1.0, "build_converged": 0.0, "rhs_converged": 0.0}

    def test_closed_forms_count_as_converged(self):
        for records in (szego_gap(classical_cfg(ns=(8,))), stz_trace(classical_cfg(ns=(8,)))):
            assert all(v == 1.0 for rec in records for k, v in rec.diagnostics.items() if "converged" in k)
            assert records[0].diagnostics["rhs_converged"] == 1.0


class TestAngularConditions:
    def test_uniform_beta_norm_exact(self):
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, IDENTITY, (8, 16),
                               alpha_count=8)
        rows = angular_condition_a(cfg)
        assert rows[0]["max"] == pytest.approx(1 / 8, abs=1e-12)
        assert rows[1]["max"] == pytest.approx(1 / 16, abs=1e-12)

    def test_dense_decay(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, IDENTITY,
                               (8, 64), alpha_count=16)
        rows = angular_condition_a(cfg)
        assert rows[1]["max"] < rows[0]["max"] / 2

    def test_condition_b_summary(self):
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, IDENTITY, (8,), j_terms=500, grid_size=16,
                               thresholds=(100.0, 1e3))
        summary = angular_condition_b(cfg)
        # the sums are J = 500 everywhere, to the rounding of |zeta|^2 = 1
        assert summary == {"J": 500.0, "grid_size": 16.0, "min_sum": pytest.approx(500.0, rel=1e-15),
                           "max_sum": pytest.approx(500.0, rel=1e-15),
                           "below_100": 0.0, "above_100": 1.0, "below_1000": 1.0, "above_1000": 0.0}

    def test_threshold_keys(self):
        # {t:g}: six significant digits, no trailing zeros, exponent from 1e6 on
        assert threshold_keys((100, 1e3, 2.5, 1e6, 0.125, 1234567.0)) == \
            ["100", "1000", "2.5", "1e+06", "0.125", "1.23457e+06"]

    @pytest.mark.parametrize("thresholds", [(100.0000001, 100.0000002), (1e3, 5.0, 1000.0)])
    def test_thresholds_sharing_a_key_are_refused(self, thresholds):
        with pytest.raises(ValueError, match="share the summary key"):
            threshold_keys(thresholds)
        with pytest.raises(ValueError, match="share the summary key"):
            ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, IDENTITY, (8,), j_terms=10, grid_size=4,
                             thresholds=thresholds)


class TestHsApproxGap:
    def test_constant_symbol_zero_gap(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), SymbolRep.constant(2.0),
                               IDENTITY, (4, 8), alpha_count=8)
        for rec in hs_approx_gap(cfg):
            assert abs(rec.lhs) < 1e-20

    def test_dual_route_identity(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), SymbolRep.preset("re_z"),
                               IDENTITY, (8, 16), alpha_count=32)
        for rec in hs_approx_gap(cfg):
            assert rec.gap < 1e-6

    def test_uniform_decay(self):
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(), SymbolRep.trig({1: 1}),
                               IDENTITY, (8, 16, 32, 64), alpha_count=8)
        vals = [rec.lhs.real for rec in hs_approx_gap(cfg)]
        assert vals[-1] < vals[0] / 2


def hs_rhs_kernel_average(B, sym, T, cfg=QuadratureConfig()):
    """The rhs of ``hs_approx_gap`` as a nu-integral of conj(phi)(phi - E_N phi),
    with E_N phi from the quadratic form of T = T(phi) at the normalized
    kernels: the route that the closed-form semicommutator trace replaced."""

    def integrand(angles):
        pv = np.asarray(sym.evaluate(angles))
        return np.conj(pv) * (pv - fejer_values(B, T, angles, abs_derivative_grid(B, angles)))

    return nu_integral(integrand, B, cfg)


HS_TRIG = SymbolRep.trig({-1: 1.0, 2: 0.5j, 3: 0.25})


class TestHsClosedForm:
    @pytest.mark.parametrize("sym", [HS_TRIG, SymbolRep.preset("abs_sin")], ids=["trig", "abs_sin"])
    def test_rhs_matches_kernel_average(self, small_edge_blaschke, sym):
        B = small_edge_blaschke
        T = build_truncated_toeplitz(B, sym)
        res = semicommutator_trace(B, sym, T)
        assert res.converged
        assert (res.points_used == 0) == sym.is_trig  # closed form for trig symbols
        rhs = res.value / B.degree
        if np.abs(B.zeros).max() <= RADIUS_CAP:
            old = hs_rhs_kernel_average(B, sym, T)
            assert old.converged
            assert abs(rhs - old.value) <= 1e-9
        elif sym.is_trig:
            # past RADIUS_CAP the kernel-average route does not converge: its
            # phase nodes are known to an ulp, which |B'| ~ 1e10 turns into a
            # 5e-8 error.  The Clark lhs holds there, and for a trig symbol
            # of degree 3 the average over 8 alphas equals the rhs
            cfg = ExperimentConfig(ZeroSequence.from_points(B.zeros), sym, n_values=(B.degree,),
                                   alpha_count=8)
            (rec,) = hs_approx_gap(cfg)
            assert rec.rhs == rhs
            assert rec.gap <= 1e-10
        else:
            # |abs_sin|^2 = (1 - cos 2t)/2: Tr T(|phi|^2) in closed form
            sin_sq = SymbolRep.trig({0: 0.5, 2: -0.25, -2: -0.25})
            closed = (trace_formula_rhs(B, sin_sq).value - np.linalg.norm(T.matrix) ** 2) / B.degree
            assert abs(rhs - closed) <= 1e-10

    @pytest.mark.parametrize("sym", [SymbolRep.preset("cos"), HS_TRIG], ids=["cos", "complex"])
    def test_frostman_trig_rhs_equals_lhs(self, sym):
        # alpha_count = 32 exceeds twice the symbol degree, so the alpha
        # average is exact and lhs = rhs up to rounding
        cfg = ExperimentConfig(ZeroSequence.frostman_fast(4), sym, n_values=(32, 64, 128),
                               alpha_count=32)
        for rec in hs_approx_gap(cfg):
            assert rec.gap <= 1e-12

    @pytest.mark.parametrize("kind", FIVE_RULES)
    def test_two_cos_rhs_is_two_over_n(self, kind):
        # with B(0) = 0, Tr T(|z + conj z|^2) - ||T(z + conj z)||_HS^2 = 2,
        # since tr S*S = N - 1; the rhs forms ||T||_HS^2 as the lhs does.  On
        # uniform_zero the entries of T are 0 and 1, so the sum of their
        # squares, 2(N - 1), and with it the rhs are exact
        for N in (8, 16, 32, 64, 128):
            B = FiniteBlaschke.from_sequence(ZeroSequence(kind), N)
            rhs = semicommutator_trace(B, TWO_COS, build_truncated_toeplitz(B, TWO_COS)).value / N
            assert abs(rhs - 2 / N) <= 3e-12 * (2 / N), (N, rhs)
            assert kind != "uniform_zero" or rhs == 2 / N, (N, rhs)

    @pytest.mark.parametrize("seq, sym, ns", [
        (ZeroSequence.dense_nonblaschke(), TWO_COS, (8, 16, 32, 64)),
        (ZeroSequence.dense_nonblaschke(), SymbolRep.preset("re_z"), (200,)),
        (ZeroSequence.dense_nonblaschke(), SymbolRep.preset("abs_sin"), (8, 16)),
        (ZeroSequence.frostman_fast(4), SymbolRep.preset("cos"), (32, 64, 128)),
    ], ids=["dense-sweep", "dense-200", "abs_sin", "frostman"])
    def test_lhs_matches_spectral_sums(self, seq, sym, ns):
        # the lhs from the averaging operator at the Clark atoms against the
        # dense Clark spectral sums of the oracle
        cfg = ExperimentConfig(seq, sym, n_values=ns, alpha_count=32)
        lhs = [rec.lhs for rec in hs_approx_gap(cfg)]
        assert np.allclose(lhs, hs_lhs_reference(cfg), rtol=0, atol=1e-13)


class TestDefects:
    def test_rank_one_pair_is_exactly_one(self):
        for seq in (ZeroSequence.uniform_zero(), ZeroSequence.dense_nonblaschke(),
                    ZeroSequence.from_points([0, 0.5, -0.4, 0.3j, 0, 0.2 - 0.7j])):
            cfg = ExperimentConfig(seq, TWO_COS, SQUARE, (6,))
            rec = product_defect_s1(cfg, SymbolRep.trig({1: 1}), SymbolRep.trig({-1: 1}))[0]
            assert rec.lhs.real == pytest.approx(1.0, abs=1e-7)

    def test_analytic_pair_zero_defect(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, SQUARE, (9,))
        rec = product_defect_s1(cfg, SymbolRep.trig({1: 1, 2: 0.5}), SymbolRep.trig({3: 1}))[0]
        assert rec.lhs.real < 1e-8

    def test_bounded_across_sweep(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, SQUARE,
                               (8, 16, 32, 64, 128))
        vals = [r.lhs.real for r in product_defect_s1(cfg, SymbolRep.trig({2: 1}),
                                                      SymbolRep.trig({-1: 1}))]
        mid = np.mean(vals)
        assert max(vals) < 1.1 * mid and min(vals) > 0.9 * mid

    def test_stz_defect_identity_function(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, IDENTITY, (6, 12))
        for rec in stz_defect_s1(cfg):
            assert rec.lhs.real < 1e-10

    def test_stz_defect_classical_value(self):
        # uniform zeros: T(1/|B'|) = I/N and the square defect has trace norm 2,
        # so the weighted defect is exactly 2/N
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE, (8, 16, 32))
        for rec in stz_defect_s1(cfg):
            assert rec.lhs.real == pytest.approx(2 / rec.N, abs=1e-8)

    def test_requires_trig_and_poly(self):
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(),
                               SymbolRep.preset("abs_sin"), SQUARE, (4,))
        with pytest.raises(ValueError):
            stz_defect_s1(cfg)
        with pytest.raises(ValueError):
            product_defect_s1(cfg, cfg.symbol, TWO_COS)


class TestFejerSuite:
    def test_constant_function_fixed_point(self):
        # averaging reproduces constants exactly: every trial ratio equals 1
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(seed=1), SymbolRep.constant(1.0),
                               IDENTITY, (6,))
        report = fejer_suite(cfg, trials=1, grid_points=512)
        assert report["per_n"][0]["l2_gap_sq"] < 1e-25

    def test_classical_l2_rate(self):
        # power case with the cosine pair: averaged f differs by f/N exactly
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(seed=2), TWO_COS, IDENTITY,
                               (8, 16, 32))
        report = fejer_suite(cfg, trials=3, grid_points=1024)
        for row in report["per_n"]:
            assert row["l2_gap_sq"] == pytest.approx(2 / row["N"] ** 2, abs=1e-10)
        for ratio in report["l2_decay_ratios"]:
            assert ratio <= 0.6

    def test_contraction(self):
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(seed=3), SymbolRep.preset("re_z"),
                               IDENTITY, (8, 16))
        report = fejer_suite(cfg, trials=10, grid_points=2048)
        for row in report["per_n"]:
            assert row["contraction_max"] <= 1 + 1e-6

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(ZeroSequence.constant_modulus(0.5, "random", seed=9),
                               SymbolRep.preset("re_z"), IDENTITY, (8,))
        a = fejer_suite(cfg, trials=4, grid_points=512)
        b = fejer_suite(cfg, trials=4, grid_points=512)
        assert a == b

    def test_memory_is_the_phase_solve_and_one_block(self):
        # the suite holds one block of samples and averages beside the phase
        # solve of its nodes: 0.5 to 0.8 MiB more than the solve's own peak,
        # where holding all 21 symbols x nodes took 3.2 and 27 MiB more
        cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, IDENTITY, (16, 32))
        B = FiniteBlaschke.from_sequence(cfg.sequence, 32)
        for grid_points in (4096, 32768):
            peaks = []
            for run in (lambda: fejer_suite(cfg, trials=20, grid_points=grid_points),
                        lambda: phase_nodes(PhaseFunction(B), grid_points // 32)):
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[0] - peaks[1] <= 1.5 * 2 ** 20

    @pytest.mark.parametrize("seq", [ZeroSequence.uniform_zero(), ZeroSequence.dense_nonblaschke()],
                             ids=["origin", "dense"])
    def test_blocks_give_the_sums_of_one_block(self, monkeypatch, seq):
        # the node blocks are added one after another, so the sums over
        # blocks of 1024 nodes and over one block of 4104 nodes (N = 24)
        # agree to rounding, not bit for bit
        cfg = ExperimentConfig(seq, TWO_COS, IDENTITY, (8, 24))
        ref = fejer_suite(cfg, trials=3)
        monkeypatch.setattr(experiments, "FEJER_NODES", 1 << 20)
        one = fejer_suite(cfg, trials=3)
        for a, b in zip(ref["per_n"], one["per_n"]):
            assert a["l2_gap_sq"] == pytest.approx(b["l2_gap_sq"], rel=1e-14, abs=0)
            assert a["contraction_max"] == pytest.approx(b["contraction_max"], rel=1e-15, abs=0)

    def test_taylor_coefficients_once_per_degree(self, monkeypatch):
        # every block of nodes and the probe of a degree share one set of
        # B1's Taylor coefficients, to the trials' degree 6
        calls, taylor = [], experiments.taylor_coefficients
        monkeypatch.setattr(experiments, "taylor_coefficients", lambda B, D: calls.append((B.degree, D)) or taylor(B, D))
        fejer_suite(ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, IDENTITY, (8, 16)))
        assert calls == [(8, 6), (16, 6)]

    def test_trial_symbols_are_seeded(self):
        a, b = experiments._trial_symbols(5, 20), experiments._trial_symbols(5, 20)
        assert a == b and a != experiments._trial_symbols(6, 20)
        assert all(sym.is_trig and len(sym.coeffs) == 13 for sym in a)
        assert max(abs(c.real) for sym in a for _, c in sym.coeffs) < 1

    @pytest.mark.parametrize("block", [8, 1024, 1 << 20])
    def test_power_case_gives_exact_values(self, monkeypatch, block):
        # B = z^N averages z^k to (1 - |k|/N) z^k for |k| < N: the gap of
        # z + conj(z) is 2/N^2 and the contraction of a trial symbol is
        # sqrt(sum |c_k|^2 (1 - |k|/N)^2 / sum |c_k|^2), in any block size
        monkeypatch.setattr(experiments, "FEJER_NODES", block)
        cfg = ExperimentConfig(ZeroSequence.uniform_zero(seed=5), TWO_COS, IDENTITY, (8, 24, 64))
        report = fejer_suite(cfg)
        trials = experiments._trial_symbols(cfg.sequence.seed, report["trials"])
        for row in report["per_n"]:
            N = row["N"]
            ratios = [math.sqrt(sum(abs(c) ** 2 * (1 - abs(k) / N) ** 2 for k, c in sym.coeffs)
                                / sum(abs(c) ** 2 for _, c in sym.coeffs)) for sym in trials]
            assert row["l2_gap_sq"] == pytest.approx(2 / N ** 2, rel=1e-14, abs=0)
            assert row["contraction_max"] == pytest.approx(max(ratios), rel=1e-14, abs=0)


class TestAveragingTakesItsNodes:
    """The averaging operator evaluates neither B nor |B'|: each caller
    passes them from the solve that placed its nodes."""

    @pytest.mark.parametrize("seq, ns", [(ZeroSequence.dense_nonblaschke(), (8, 16)),
                                         (ZeroSequence.frostman_fast(4), (32, 64))],
                             ids=["dense", "frostman"])
    def test_no_product_or_abs_derivative_pass(self, monkeypatch, seq, ns):
        # fejer_suite evaluates B once per degree, at its 16 probe angles;
        # trig hs_approx_gap once per degree, in the level-set check of its
        # Clark atoms; neither runs a Cartesian |B'| pass
        calls = {"product": 0, "abs_derivative_grid": 0}
        product, abs_derivative = PhaseFunction.product, blaschke.abs_derivative_grid

        def counted_product(self, angles):
            calls["product"] += 1
            return product(self, angles)

        def counted_abs_derivative(B, angles):
            calls["abs_derivative_grid"] += 1
            return abs_derivative(B, angles)

        monkeypatch.setattr(PhaseFunction, "product", counted_product)
        for module in (blaschke, clark, operators, quadrature, experiments):
            if hasattr(module, "abs_derivative_grid"):
                monkeypatch.setattr(module, "abs_derivative_grid", counted_abs_derivative)
        cfg = ExperimentConfig(seq, TWO_COS, IDENTITY, ns)
        fejer_suite(cfg, trials=3)
        assert calls == {"product": len(ns), "abs_derivative_grid": 0}
        hs_approx_gap(cfg)
        assert calls == {"product": 2 * len(ns), "abs_derivative_grid": 0}

    @pytest.mark.parametrize("seq, ns", [(ZeroSequence.dense_nonblaschke(), (8, 16)),
                                         (ZeroSequence.frostman_fast(4), (32, 64))],
                             ids=["dense", "frostman"])
    def test_sweeps_build_no_clark_measure(self, monkeypatch, seq, ns):
        # angular_condition_a and hs_approx_gap, for a trig and a sampled
        # symbol, read the Clark atoms as rows of one checked solve
        # (clark_rows): no ClarkMeasure is made, by a call of the class or
        # by any route through its attributes
        uses = []

        class Counted:
            """Stands in for ClarkMeasure: records each call and each
            attribute looked up on it, then hands them on to the class."""

            def __call__(self, *args, **kwargs):
                uses.append("__call__")
                return ClarkMeasure(*args, **kwargs)

            def __getattr__(self, name):
                uses.append(name)
                return getattr(ClarkMeasure, name)

        monkeypatch.setattr(clark, "ClarkMeasure", Counted())
        cfg = ExperimentConfig(seq, TWO_COS, IDENTITY, ns)
        angular_condition_a(cfg)
        hs_approx_gap(cfg)
        hs_approx_gap(ExperimentConfig(seq, SymbolRep.preset("abs_sin"), IDENTITY, ns))
        assert uses == []
        clark_measure(FiniteBlaschke.from_sequence(seq, ns[0]), 1j)  # the stand-in sees a measure
        assert uses == ["__call__"]

    @pytest.mark.parametrize("N, count, bound", [(2, 4, 1e-14), (128, 32, 1e-12)], ids=["N2", "N128"])
    def test_b_at_solved_nodes_meets_the_product(self, monkeypatch, N, count, bound):
        # B at a node of a phase solve is its level times e^{i residual} of
        # the evaluation that accepted it: on frostman (measured 1.1e-15 at
        # N = 2, 1.9e-13 at N = 128) the bare level was 9.2e-14 and 5.0e-8
        # off the product at the same nodes
        seen = []
        trig_values = experiments.fejer_trig_values

        def recorded(B, coeffs, angles, b, slopes, taylor=None):
            seen.append(np.abs(PhaseFunction(B).product(angles) - b).max())
            return trig_values(B, coeffs, angles, b, slopes, taylor)

        monkeypatch.setattr(experiments, "fejer_trig_values", recorded)
        seq = ZeroSequence.frostman_fast(4)
        hs_approx_gap(ExperimentConfig(seq, TWO_COS, IDENTITY, (N,), alpha_count=count))
        phase = PhaseFunction(FiniteBlaschke.from_sequence(seq, N))
        coeffs = trig_coefficients([TWO_COS])
        experiments._fejer_row(phase, count, np.vstack((coeffs, coeffs)), coeffs, circle_grid(16, offset=0.37))
        assert len(seen) >= 3 and max(seen) <= bound


@pytest.mark.parametrize("seq", [ZeroSequence(kind) for kind in FIVE_RULES]
                         + [ZeroSequence.from_points([0, RADIUS_CAP])], ids=FIVE_RULES + ["explicit_at_cap"])
def test_every_sweep_at_degrees_one_and_two(seq):
    # every rule puts its first zero at the origin, so B_1 = z: K_B is the
    # constants, T(phi) = 0 for phi = z + conj z, and Clark measures are
    # one atom of mass 1
    cfg = ExperimentConfig(seq, TWO_COS, SQUARE, (1, 2))
    for rec in szego_gap(cfg):
        assert rec.gap == pytest.approx(2 / rec.N, abs=1e-12)
    for rec in stz_trace(cfg):
        assert rec.rhs == 2
        if rec.N == 1 or seq.kind == "uniform_zero":
            assert rec.gap == pytest.approx(2 / rec.N, abs=1e-12)
    first = angular_condition_a(cfg)[0]
    assert first["max"] == first["median"] == first["min"] == 1.0
    for rec in product_defect_s1(cfg, SymbolRep.trig({1: 1}), SymbolRep.trig({-1: 1})):
        assert rec.lhs.real == pytest.approx(1.0, abs=1e-12)
    assert all(rec.gap <= 1e-12 for rec in hs_approx_gap(cfg))
    assert stz_defect_s1(cfg)[0].lhs.real == pytest.approx(2.0, abs=1e-12)
    assert all(row["contraction_max"] <= 1.0 for row in fejer_suite(cfg)["per_n"])


class TestSweepInvariants:
    @pytest.mark.parametrize("seq", [ZeroSequence.constant_modulus(0.5),
                                     ZeroSequence.dense_nonblaschke()])
    def test_gaps_halve_over_sweep(self, seq):
        ns = (8, 16, 32, 64)
        szego = szego_gap(ExperimentConfig(seq, TWO_COS, SQUARE, ns))
        assert szego[-1].gap < szego[0].gap / 2
        stz = stz_trace(ExperimentConfig(seq, TWO_COS, SQUARE, ns))
        assert stz[-1].gap < stz[0].gap / 2

    def test_fejer_pointwise_floor_recorded(self):
        # zeros piling onto few directions obstruct pointwise convergence of
        # the averaging operator; the suite records the gap and the local
        # derivative growth for inspection (no fixed constant asserted)
        cfg = ExperimentConfig(ZeroSequence.frostman_fast(4, seed=0), SymbolRep.preset("re_z"),
                               IDENTITY, (8, 16))
        report = fejer_suite(cfg, trials=2, grid_points=1024)
        for row in report["per_n"]:
            gaps = np.asarray(row["pointwise_gap"])
            assert gaps.shape == (16,)
            assert np.all(gaps >= 0)
            assert np.all(np.isfinite(row["pointwise_derivative"]))


class TestDeterminism:
    def test_szego_records_bit_identical(self):
        cfg = ExperimentConfig(ZeroSequence.constant_modulus(0.5, "random", seed=4),
                               TWO_COS, SQUARE, (8, 16))
        r1 = szego_gap(cfg)
        r2 = szego_gap(cfg)
        for a, b in zip(r1, r2):
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.diagnostics == b.diagnostics
