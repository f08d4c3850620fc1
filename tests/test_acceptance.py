"""Acceptance suite.

Each test enforces one acceptance criterion at a fixed tolerance and prints a
single PASS/FAIL line (run with -s to see them inline).  Criterion 6 is
expected to fail; the note on that test explains the structural zero its
decay assertion runs into.
"""

import json
import time

import numpy as np
import pytest

from ttolab.blaschke import (
    FiniteBlaschke,
    ZeroSequence,
    abs_derivative_grid,
    circle_grid,
    generate_zeros,
)
from ttolab.clark import clark_measure, clark_support, disintegration_check
from ttolab.cli import main as cli_main
from ttolab.experiments import (
    ExperimentConfig,
    angular_condition_a,
    angular_condition_b,
    fejer_suite,
    hs_approx_gap,
    product_defect_s1,
    stz_defect_s1,
    stz_trace,
    szego_gap,
)
from ttolab.operators import (
    ScalarFunction,
    SymbolRep,
    build_clark_spectral,
    build_truncated_toeplitz,
    singular_values,
    trace,
    trace_formula_rhs,
)
from ttolab.quadrature import QuadratureConfig, nu_integral

from oracles import build_clark_unitary, eval_blaschke_grid, peak_integral, rank_one_defect, tmw_kernel_coeffs

TWO_COS = SymbolRep.trig({1: 1, -1: 1})
SQUARE = ScalarFunction.preset("square")

FIVE_FAMILIES = {
    "uniform_zero": ZeroSequence.uniform_zero(),
    "constant_modulus": ZeroSequence.constant_modulus(0.5),
    "alternating_3k": ZeroSequence.alternating_3k(0.5),
    "frostman_fast": ZeroSequence.frostman_fast(4),
    "dense_nonblaschke": ZeroSequence.dense_nonblaschke(),
}


def _report(tag: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_degree16():
    rng = np.random.default_rng(11)
    pts = 0.92 * rng.random(15) * np.exp(2j * np.pi * rng.random(15))
    return FiniteBlaschke(np.concatenate(([0.0 + 0.0j], pts)))


def test_c01_classical_oracle():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE, (8, 16, 32, 64))
    records = szego_gap(cfg)
    worst_lhs = max(abs(r.lhs.real - 2 * (r.N - 1) / r.N) for r in records)
    worst_gap = max(abs(r.gap - 2 / r.N) for r in records)
    elapsed = time.perf_counter() - t0
    ok = worst_lhs < 1e-9 and worst_gap < 1e-9 and elapsed < 5.0
    _report("C1 classical-oracle", ok,
            f"lhs err {worst_lhs:.2e}, gap err {worst_gap:.2e}, {elapsed:.2f}s")
    assert worst_lhs < 1e-9
    assert worst_gap < 1e-9
    assert elapsed < 5.0


def test_c02_trace_formula_regression():
    t0 = time.perf_counter()
    qcfg = QuadratureConfig(max_points=1 << 26, abs_tol=5e-6)
    symbols = [
        TWO_COS,
        SymbolRep.trig({1: 1}),
        SymbolRep.trig({0: 1, 2: 1 + 0.5j, -1: 0.3}),
    ]
    worst = 0.0
    for name, seq in FIVE_FAMILIES.items():
        for N in (8, 32, 64):
            B = FiniteBlaschke(generate_zeros(seq, N))
            traces = [trace(build_truncated_toeplitz(B, s)) for s in symbols]

            def batched(angles, B=B):
                cos_t, sin_t = np.cos(angles), np.sin(angles)
                deriv = abs_derivative_grid(B, angles)
                w = cos_t + 1j * sin_t
                return np.stack([s.evaluate_at(w) * deriv for s in symbols], axis=-1)

            res = peak_integral(batched, B, qcfg)
            assert res.converged, (name, N)
            for k in range(len(symbols)):
                worst = max(worst, abs(traces[k] - res.value[k]))
    # the per-symbol operation agrees with the batched route
    B = FiniteBlaschke(generate_zeros(FIVE_FAMILIES["dense_nonblaschke"], 8))
    solo = trace_formula_rhs(B, TWO_COS, qcfg)
    worst = max(worst, abs(solo.value - trace(build_truncated_toeplitz(B, TWO_COS))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 60.0
    _report("C2 trace-formula", ok, f"worst |Tr - integral| {worst:.2e} over "
            f"5 families x 3 symbols x 3 sizes, {elapsed:.1f}s")
    assert worst < 1e-7
    assert elapsed < 60.0


def test_c03_rank_one_identity():
    products = [
        FiniteBlaschke(np.zeros(8, dtype=complex)),
        FiniteBlaschke(np.array([0, 0.5, -0.4])),
        FiniteBlaschke(generate_zeros(ZeroSequence.dense_nonblaschke(), 33)),
        FiniteBlaschke(generate_zeros(ZeroSequence.constant_modulus(0.5), 17)),
        FiniteBlaschke(generate_zeros(ZeroSequence.frostman_fast(4), 12)),
    ]
    worst_trace, worst_sv2 = 0.0, 0.0
    for B in products:
        D = rank_one_defect(B)
        worst_trace = max(worst_trace, abs(trace(D) - 1.0))
        worst_sv2 = max(worst_sv2, singular_values(D)[1])
    cfg = ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, SQUARE,
                           (8, 16, 32, 64, 128))
    defect = product_defect_s1(cfg, SymbolRep.trig({1: 1}), SymbolRep.trig({-1: 1}))
    worst_pair = max(abs(r.lhs.real - 1.0) for r in defect)
    ok = worst_trace < 1e-7 and worst_sv2 < 1e-7 and worst_pair < 1e-7
    _report("C3 rank-one-identity", ok,
            f"trace err {worst_trace:.2e}, sigma_2 {worst_sv2:.2e}, "
            f"|defect-1| {worst_pair:.2e} up to N=128")
    assert worst_trace < 1e-7 and worst_sv2 < 1e-7 and worst_pair < 1e-7


def test_c04_clark_structure():
    products = [
        FiniteBlaschke(np.array([0, 0.5, 0.3j])),
        FiniteBlaschke(np.zeros(8, dtype=complex)),
        random_degree16(),
    ]
    alphas = [1.0 + 0j, np.exp(0.7j), np.exp(2.1j)]
    worst = dict(residual=0.0, mass=0.0, unitary=0.0, agree=0.0, eig=0.0)
    for B in products:
        for alpha in alphas:
            mu = clark_measure(B, alpha)
            assert len(mu.atom_angles) == B.degree
            res = np.abs(eval_blaschke_grid(B, mu.atom_angles) - alpha).max()
            worst["residual"] = max(worst["residual"], res)
            worst["mass"] = max(worst["mass"], abs(mu.total_mass() - 1.0))
            U = build_clark_unitary(B, alpha).matrix
            worst["unitary"] = max(worst["unitary"],
                                   float(np.linalg.norm(U.conj().T @ U - np.eye(B.degree))))
            V = build_clark_spectral(B, mu).matrix
            worst["agree"] = max(worst["agree"], float(np.linalg.norm(U - V)))
            Q = tmw_kernel_coeffs(B, mu.atom_angles)
            for k in range(B.degree):
                q = Q[k] / np.linalg.norm(Q[k])
                zeta = np.exp(1j * mu.atom_angles[k])
                worst["eig"] = max(worst["eig"], float(np.linalg.norm(U @ q - zeta * q)))
    ok = (worst["residual"] < 1e-10 and worst["mass"] < 1e-8 and worst["unitary"] < 1e-8
          and worst["agree"] < 1e-7 and worst["eig"] < 1e-7)
    _report("C4 clark-structure", ok,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert worst["residual"] < 1e-10
    assert worst["mass"] < 1e-8
    assert worst["unitary"] < 1e-8
    assert worst["agree"] < 1e-7
    assert worst["eig"] < 1e-7


def test_c05_disintegration():
    t0 = time.perf_counter()
    sym = SymbolRep.preset("re_z")
    worst_scalar, worst_op = 0.0, 0.0
    for B in (FiniteBlaschke(np.array([0, 0.5, 0.3j])), random_degree16()):
        res = disintegration_check(sym, B, alpha_count=8)
        worst_scalar = max(worst_scalar, res.gap)
        T = build_truncated_toeplitz(B, sym).matrix
        A = 8
        total = np.zeros_like(T)
        for a in circle_grid(A):
            mu = clark_measure(B, np.exp(1j * a))
            total += build_clark_spectral(B, mu, sym).matrix
        avg = total / A
        while A < 256:
            for a in circle_grid(A, offset=0.5):
                mu = clark_measure(B, np.exp(1j * a))
                total += build_clark_spectral(B, mu, sym).matrix
            A *= 2
            new = total / A
            drift = float(np.linalg.norm(new - avg))
            avg = new
            if drift < 1e-7:
                break
        worst_op = max(worst_op, float(np.linalg.norm(avg - T)))
    elapsed = time.perf_counter() - t0
    ok = worst_scalar < 1e-5 and worst_op < 1e-4 and elapsed < 120.0
    _report("C5 disintegration", ok,
            f"scalar gap {worst_scalar:.2e}, operator gap {worst_op:.2e}, {elapsed:.1f}s")
    assert worst_scalar < 1e-5
    assert worst_op < 1e-4
    assert elapsed < 120.0


@pytest.mark.xfail(strict=False, reason=(
    "structural zero: for the symbol z + conj(z) and any product with a zero "
    "at the origin, the cubic trace gap vanishes identically (cyclic trace "
    "words reduce through I - S S* = 1 (x) 1 with (S^k)_{00} = 0), so both "
    "gaps are rounding noise and the stated halving of the gap cannot hold"))
def test_c06_trace_gap_trend_cubic():
    f = ScalarFunction.preset("cube_minus_x")
    details = []
    ok = True
    for name, seq in (("constant_modulus(0.5,seeded)",
                       ZeroSequence.constant_modulus(0.5, "random", seed=7)),
                      ("dense_nonblaschke", ZeroSequence.dense_nonblaschke())):
        records = szego_gap(ExperimentConfig(seq, TWO_COS, f, (8, 16, 32, 64)))
        first, last = records[0].gap, records[-1].gap
        ok = ok and (last < first / 2)
        details.append(f"{name}: gap(8)={first:.2e}, gap(64)={last:.2e}")
    _report("C6 trace-gap-trend (f=x^3-x)", ok, "; ".join(details))
    assert ok


def test_c06_cubic_gap_is_a_structural_zero():
    # what the xfail above runs into, pinned: with phi = z + conj(z) and a
    # zero at the origin the cubic gap is rounding noise at every degree
    f = ScalarFunction.preset("cube_minus_x")
    worst = {}
    for name, seq in (("constant_modulus(0.5,seeded)",
                       ZeroSequence.constant_modulus(0.5, "random", seed=7)),
                      ("dense_nonblaschke", ZeroSequence.dense_nonblaschke()),
                      ("frostman_fast", ZeroSequence.frostman_fast(4))):
        records = szego_gap(ExperimentConfig(seq, TWO_COS, f, (8, 16, 32, 64, 128)))
        worst[name] = max(rec.gap for rec in records)
    ok = max(worst.values()) <= 1e-14
    _report("C6-supplement cubic structural zero", ok,
            ", ".join(f"{name}: max gap {gap:.1e}" for name, gap in worst.items()))
    assert ok


def test_c06_supplement_quartic_trend():
    # the even-power companion shows the intended trend with the same sweep
    f = ScalarFunction.poly([0, 0, 0, 0, 1])
    ok = True
    details = []
    for name, seq in (("constant_modulus(0.5,seeded)",
                       ZeroSequence.constant_modulus(0.5, "random", seed=7)),
                      ("dense_nonblaschke", ZeroSequence.dense_nonblaschke())):
        records = szego_gap(ExperimentConfig(seq, TWO_COS, f, (8, 16, 32, 64)))
        first, last = records[0].gap, records[-1].gap
        ok = ok and (last < first / 2)
        details.append(f"{name}: gap(8)={first:.3e}, gap(64)={last:.3e}")
    _report("C6-supplement quartic-trend", ok, "; ".join(details))
    assert ok


def test_c07_stz_trend_and_counterexample():
    # (i) weighted-trace convergence for the non-Blaschke sequence
    recs = stz_trace(ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS,
                                      SQUARE, (8, 16, 32, 64)))
    stz_ok = recs[-1].gap < recs[0].gap / 2
    # (ii) largest-Clark-weight medians at N = 81 over 32 alphas
    cfg81 = dict(n_values=(81,), alpha_count=32)
    frost = angular_condition_a(ExperimentConfig(ZeroSequence.frostman_fast(4), TWO_COS,
                                                 SQUARE, **cfg81))[0]
    dense = angular_condition_a(ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS,
                                                 SQUARE, **cfg81))[0]
    ratio = frost["median"] / dense["median"]
    median_ok = ratio > 10.0
    # (iii) partial angular sums at J = 1e5 on a 64-point grid
    cfg_b = dict(j_terms=10 ** 5, grid_size=64, thresholds=(1e2,))
    sfrost = angular_condition_b(ExperimentConfig(ZeroSequence.frostman_fast(4), TWO_COS, SQUARE, (8,), **cfg_b))
    sdense = angular_condition_b(ExperimentConfig(ZeroSequence.dense_nonblaschke(), TWO_COS, SQUARE, (8,),
                                                  **cfg_b))
    frac_ok = sfrost["below_100"] >= 0.25 and sdense["below_100"] == 0.0
    ok = stz_ok and median_ok and frac_ok
    _report("C7 stz-trend+counterexample", ok,
            f"stz gaps {recs[0].gap:.3f}->{recs[-1].gap:.3f}, median ratio {ratio:.1f}, "
            f"slow-growth fractions frostman {sfrost['below_100']:.2f} vs dense "
            f"{sdense['below_100']:.2f}")
    assert stz_ok and median_ok and frac_ok


def test_c08_lemma_suites():
    # averaging-operator contraction on 20 random trig polys per (B, N)
    contraction_ok = True
    worst_ratio = 0.0
    for seq in (ZeroSequence.dense_nonblaschke(), ZeroSequence.uniform_zero()):
        report = fejer_suite(ExperimentConfig(seq, SymbolRep.preset("re_z"),
                                              n_values=(8, 16, 32, 64)),
                             trials=20)
        for row in report["per_n"]:
            worst_ratio = max(worst_ratio, row["contraction_max"])
            contraction_ok = contraction_ok and row["contraction_max"] <= 1 + 1e-6
    # Hilbert-Schmidt approximation gap halves over the sweep
    hs = hs_approx_gap(ExperimentConfig(ZeroSequence.dense_nonblaschke(),
                                        SymbolRep.preset("re_z"), n_values=(8, 16, 32, 64),
                                        alpha_count=32))
    hs_vals = [r.lhs.real for r in hs]
    hs_ok = hs_vals[-1] < hs_vals[0] / 2
    # weighted functional-calculus defect decays for the power case
    sd = stz_defect_s1(ExperimentConfig(ZeroSequence.uniform_zero(), TWO_COS, SQUARE,
                                        (8, 16, 32, 64)))
    sd_vals = [r.lhs.real for r in sd]
    sd_ok = sd_vals[-1] <= sd_vals[0] / 2
    ok = contraction_ok and hs_ok and sd_ok
    _report("C8 lemma-suites", ok,
            f"contraction max {worst_ratio:.9f}, hs {hs_vals[0]:.4f}->{hs_vals[-1]:.4f}, "
            f"defect {sd_vals[0]:.4f}->{sd_vals[-1]:.4f}")
    assert contraction_ok and hs_ok and sd_ok


def test_c09_remark_reproduction():
    lam = 0.5
    expected = [lam / 3, -lam / 3, 13 * lam / 27]
    seq = ZeroSequence.alternating_3k(lam)
    worst = 0.0
    values = []
    for N, want in zip((3, 9, 27), expected):
        B = FiniteBlaschke(generate_zeros(seq, N))
        got = nu_integral(lambda t: np.exp(1j * t), B).value
        values.append(got.real)
        worst = max(worst, abs(got - want))
    signs_ok = values[0] > 0 > values[1] and values[2] > 0
    ok = worst < 1e-9 and signs_ok
    _report("C9 remark-reproduction", ok,
            f"moments {values[0]:.6f}, {values[1]:.6f}, {values[2]:.6f}, err {worst:.2e}")
    assert worst < 1e-9
    assert signs_ok


def test_c10_determinism(tmp_path):
    cfg_text = """
[sequence]
kind = constant_modulus
r = 0.5
phase_rule = random
seed = 13

[symbol]
kind = trig
coeffs = c1=1,c-1=1

[function]
kind = preset
preset = square

[sweep]
n_values = 4,8,16
alpha_count = 8
"""
    path = tmp_path / "c.cfg"
    path.write_text(cfg_text)
    pairs = []
    for sub in ("szego", "stz", "lemmas", "angular"):
        d1, d2 = tmp_path / f"{sub}1", tmp_path / f"{sub}2"
        assert cli_main([sub, "--config", str(path), "--out", str(d1)]) == 0
        assert cli_main([sub, "--config", str(path), "--out", str(d2)]) == 0
        manifest = json.loads((d1 / "manifest.json").read_text())
        for name in manifest["outputs"]:
            pairs.append((sub, name, (d1 / name).read_bytes() == (d2 / name).read_bytes()))
    ok = all(same for _, _, same in pairs)
    bad = [f"{sub}/{name}" for sub, name, same in pairs if not same]
    _report("C10 determinism", ok,
            f"{len(pairs)} result files byte-compared" + (f"; mismatches: {bad}" if bad else ""))
    assert ok
