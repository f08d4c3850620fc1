import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ttolab import blaschke
from ttolab.blaschke import (
    PHASE_BLOCK,
    RADIUS_CAP,
    FiniteBlaschke,
    ZeroSequence,
    abs_derivative_grid,
    angular_partial_sums,
    circle_grid,
    distinct_zeros,
    exact_defects,
    generate_zeros,
    phase_nodes,
    tmw_matrix,
)
from ttolab.clark import PhaseFunction, clark_measure
from ttolab.quadrature import QuadratureConfig, integrate_circle, nu_integral

from oracles import (
    abs_derivative_boundary,
    alternating_3k_loop,
    angular_sums_reference,
    clark_measures,
    eval_blaschke,
    eval_blaschke_grid,
    half_angle,
    model_kernel,
    model_kernel_sq_grid,
    tmw_per_zero,
    van_der_corput_loop,
)

ALL_GENERATORS = [
    ZeroSequence.uniform_zero(),
    ZeroSequence.constant_modulus(0.5),
    ZeroSequence.constant_modulus(0.7, "random", seed=3),
    ZeroSequence.alternating_3k(0.5),
    ZeroSequence.frostman_fast(4),
    ZeroSequence.dense_nonblaschke(),
]


class TestGenerators:
    def test_uniform_zero(self):
        assert np.array_equal(generate_zeros(ZeroSequence.uniform_zero(), 4), np.zeros(4))

    def test_alternating_blocks(self):
        lam = generate_zeros(ZeroSequence.alternating_3k(0.5), 28)
        # j = 0, 1 pinned at the origin; first block {2,3} positive,
        # second block {4..9} negative, third block {10..27} positive
        assert lam[0] == 0 and lam[1] == 0
        assert np.all(lam[2:4] == 0.5)
        assert np.all(lam[4:10] == -0.5)
        assert np.all(lam[10:28] == 0.5)

    def test_alternating_truncation(self):
        assert list(generate_zeros(ZeroSequence.alternating_3k(0.5), 3)) == [0, 0, 0.5]

    def test_dense_formula(self):
        g = 0.6180339887
        lam = generate_zeros(ZeroSequence.dense_nonblaschke(g), 2)
        assert lam[0] == 0
        assert lam[1] == pytest.approx(0.5 * np.exp(2j * np.pi * g), abs=1e-15)

    def test_frostman_radii(self):
        lam = generate_zeros(ZeroSequence.frostman_fast(4), 100)
        r = np.abs(lam)
        assert r[0] == 0
        assert r[5] == pytest.approx(1 - 6.0 ** -4)
        assert r.max() <= 1 - 1e-6  # capped

    def test_prefix_stability_and_determinism(self):
        for seq in ALL_GENERATORS:
            a = generate_zeros(seq, 8)
            b = generate_zeros(seq, 16)
            assert np.array_equal(a, b[:8])
            assert np.array_equal(generate_zeros(seq, 16), b)

    def test_invariants(self):
        for seq in ALL_GENERATORS:
            lam = generate_zeros(seq, 64)
            assert lam[0] == 0
            assert np.abs(lam).max() < 1

    def test_errors(self):
        with pytest.raises(ValueError):
            generate_zeros(ZeroSequence.uniform_zero(), 0)
        with pytest.raises(ValueError):
            generate_zeros(ZeroSequence.constant_modulus(1.0), 4)
        with pytest.raises(ValueError, match="unknown generator"):
            ZeroSequence("no_such_rule")

    @pytest.mark.parametrize("kind, params, seed, name", [
        ("dense_nonblaschke", {"gama": 0.3}, 0, "'gama'"),
        ("frostman_fast", {"directions": 2.5}, 0, "directions"),
        ("frostman_fast", {"directions": 0}, 0, "directions"),
        ("dense_nonblaschke", {"gamma": math.nan}, 0, "gamma"),
        ("alternating_3k", {"lam": math.nan}, 0, "lam"),
        ("constant_modulus", {"phase_rule": 3}, 0, "phase_rule"),
        ("uniform_zero", {}, -1, "seed"),
        ("constant_modulus", {"phase_rule": "random"}, 1.5, "seed"),
    ], ids=["unread-gama", "fractional-directions", "no-directions", "nan-gamma", "nan-lam",
            "phase-rule-type", "negative-seed", "fractional-seed"])
    def test_construction_rejects_a_bad_parameter_by_name(self, kind, params, seed, name):
        with pytest.raises(ValueError, match=name):
            ZeroSequence(kind, params, seed=seed)

    def test_construction_fills_in_the_declared_defaults(self):
        for kind, declared in blaschke.RULE_PARAMS.items():
            seq = ZeroSequence(kind)
            assert seq.params == {name: param.default for name, param in declared.items()}
            assert seq.seed == blaschke.SEED.default
        seq = ZeroSequence.constant_modulus(Fraction(1, 4), seed=np.int64(3))
        assert seq.params == {"r": 0.25, "phase_rule": "equispaced"} and type(seq.params["r"]) is float
        assert type(seq.seed) is int
        assert ZeroSequence.frostman_fast(np.int64(2)).params["directions"] == 2
        with pytest.raises(TypeError):
            ZeroSequence.alternating_3k(0.5, 0.7)

    def test_explicit(self):
        seq = ZeroSequence.from_points([0, 0.5, 0.3j])
        assert generate_zeros(seq, 2)[1] == 0.5
        with pytest.raises(ValueError):
            generate_zeros(seq, 5)
        assert seq.seed == blaschke.SEED.default
        assert ZeroSequence.from_points([0, 0.5], seed=5).seed == 5
        with pytest.raises(ValueError, match="seed"):
            ZeroSequence.from_points([0, 0.5], seed=-1)

    def test_explicit_list_starts_at_the_origin(self):
        # refused when the sequence is built, not when its zeros are first
        # read; a signed zero is the origin
        with pytest.raises(ValueError, match="must start at the origin"):
            ZeroSequence.from_points([0.5, 0, 0.3j])
        with pytest.raises(ValueError, match="strictly inside the unit disk"):
            ZeroSequence.from_points([0, 0.5, 1.0])
        assert ZeroSequence.from_points([complex(-0.0, -0.0), 0.5]).explicit_zeros[1] == 0.5


class TestEvaluation:
    def test_power(self):
        B = FiniteBlaschke(np.zeros(3, dtype=complex))
        assert eval_blaschke(B, 0.5) == pytest.approx(0.125)

    def test_zeros_are_roots(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        for lam in B.zeros:
            assert abs(eval_blaschke(B, lam)) < 1e-14

    def test_unimodular_on_circle(self):
        for seq in ALL_GENERATORS:
            B = FiniteBlaschke(generate_zeros(seq, 12))
            vals = eval_blaschke_grid(B, circle_grid(257, offset=0.13))
            assert np.abs(np.abs(vals) - 1).max() < 1e-10

    def test_near_circle_zero_keeps_accuracy(self):
        # 1e-9 to 1e-5 from a zero at 1 - 1e-10, where the closed-form phase
        # is accurate and the product (z - lam)/(1 - conj(lam) z) is not
        B = FiniteBlaschke(np.array([0, 1 - 1e-10, 1 - 1e-10]))
        th = np.concatenate((np.logspace(-9, -5, 41), -np.logspace(-9, -5, 41)))
        exact = np.exp(1j * PhaseFunction(B)(th))
        assert np.abs(eval_blaschke_grid(B, th) - exact).max() < 1e-12

    def test_subnormal_zero_keeps_basis_finite(self):
        # 1/|lambda| overflows for a subnormal modulus
        B = FiniteBlaschke(np.array([0, 1e-310j, 0.5]))
        E = tmw_matrix(B, circle_grid(64))
        assert np.abs(E.conj().T @ E / 64 - np.eye(3)).max() < 1e-14

    def test_defects_are_correctly_rounded(self):
        # each distinct zero's 1 - |lambda|^2 against the exact rational value
        # of its stored parts, which float() rounds correctly; 1 - (x^2 + y^2)
        # in double is off by up to 1e-6 relative next to the 1 - 1e-10 zeros.
        # The zeros 1e-15 from the circle and 1 - 2^-53 take the math.fsum
        # route of exact_defects, the others its error-free vector sums
        rng = np.random.default_rng(5)
        pts = np.concatenate(((1 - 1e-10) * np.exp(2j * np.pi * rng.random(200)),
                              (1 - 1e-15) * np.exp(2j * np.pi * rng.random(200)),
                              RADIUS_CAP * np.exp(2j * np.pi * rng.random(200)),
                              rng.random(200) * np.exp(2j * np.pi * rng.random(200)),
                              [1e-310j, -0.5, 1 - 2.0 ** -53, 2.0 ** -27 - 1e-160j]))
        B = FiniteBlaschke(np.concatenate(([0j], pts, pts[::7])))
        uniq = B._distinct[0]
        exact = [float(1 - Fraction(z.real) ** 2 - Fraction(z.imag) ** 2) for z in uniq]
        assert np.array_equal(B._defects, exact)
        assert np.array_equal(uniq[B._which], B.zeros)

    def test_boundary_value_modulus(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        assert abs(abs(eval_blaschke(B, 1.0)) - 1) < 1e-12

    def test_outside_disk_rejected(self):
        B = FiniteBlaschke(np.array([0j]))
        with pytest.raises(ValueError):
            eval_blaschke(B, 1.5)

    @pytest.mark.parametrize("bad", [1.5, np.nan, complex(np.nan, 0.2), np.inf])
    def test_zero_outside_disk_or_not_finite_rejected(self, bad):
        # abs(nan) >= 1 is false: a NaN zero must fail the disk test anyway
        with pytest.raises(ValueError, match="finite"):
            FiniteBlaschke(np.array([0, bad]))

    def test_degree_and_origin(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        assert B.degree == 2
        assert eval_blaschke(B, 0) == 0


def blaschke_reference(B, angles, reduced=False):
    """The per-zero loop that eval_blaschke_grid replaced, kept as its oracle.
    ``reduced`` takes x = th - psi less its nearest multiple of 2 pi, formed
    in two parts (``oracles.half_angle``), through the sine s and cosine c of
    its half: sin(x/2) = s, sin x = 2sc and e^{ix} = (c + is)^2."""
    th = np.asarray(angles, dtype=float)
    out = np.ones(th.shape, dtype=complex)
    for r, psi in zip(B._radii, np.angle(B.zeros)):
        if reduced:
            _, half, c = half_angle(th, psi)
            sin_x, turn = 2.0 * half * c, (c + 1j * half) ** 2
        else:
            x = th - psi
            half, sin_x, turn = np.sin(0.5 * x), np.sin(x), np.exp(1j * x)
        d = (1.0 - r) + 2.0 * r * half * half - 1j * r * sin_x
        out *= turn * np.conj(d) / d
    return out


class TestEvalBlaschkeGrid:
    """The broadcast product multiplies the factors in the loop's order, so
    it must equal the loop bit for bit."""

    def test_matches_loop_reference(self, edge_blaschke):
        B = edge_blaschke
        psi = np.mod(np.angle(B.zeros), 2 * np.pi)
        th = np.concatenate((circle_grid(257, offset=0.13), psi, psi + 1e-9, psi - 1e-9))
        assert np.array_equal(eval_blaschke_grid(B, th), blaschke_reference(B, th))

    def test_atom_array_matches_loop_reference(self, edge_blaschke):
        B = edge_blaschke
        count = 4
        atoms = np.mod(phase_nodes(PhaseFunction(B), count)[0], 2 * np.pi).reshape(B.degree, count).T
        vals = eval_blaschke_grid(B, atoms)  # row j: the level set B = e^{2 pi i j/count}
        assert vals.shape == (count, B.degree)
        assert np.array_equal(vals, blaschke_reference(B, atoms))

    def test_blocks_match_loop_reference(self):
        # at N = 256 a block holds at most PHASE_BLOCK/256 angles: one angle
        # more than two full blocks makes three equal blocks (a trailing
        # one-angle block would go through numpy's one-element kernel and
        # differ from the loop in the last bit)
        B = FiniteBlaschke.from_sequence(ZeroSequence.dense_nonblaschke(), 256)
        th = circle_grid(2 * (PHASE_BLOCK // 256) + 1, offset=0.25)
        assert np.array_equal(eval_blaschke_grid(B, th), blaschke_reference(B, th))
        for t in th[-1:], th[:1]:  # a one-angle call against a one-angle loop
            assert np.array_equal(eval_blaschke_grid(B, t), blaschke_reference(B, t))


def tangent_reference(B, angles):
    """The product's tangent factor (p + iq)^2/(p^2 + q^2), formed once per
    zero, repeats included, and multiplied in a loop; the tangent of half of
    th - psi reduced by 2 pi in two parts (``oracles.half_angle``)."""
    th = np.asarray(angles, dtype=float)
    out = np.ones(th.shape, dtype=complex)
    for r, psi, p in zip(B._radii, np.angle(B.zeros), B._p[B._which]):
        _, s, c = half_angle(th, psi)
        q = (1.0 + r) * (s / c)
        out *= (p + 1j * q) ** 2 / (p * p + q * q)
    return out


class TestPhaseProduct:
    def test_matches_loop_reference(self, edge_blaschke, request):
        # one factor per distinct zero raised to its multiplicity: the powers
        # (up to 256 here, for uniform_zero) move the values by rounding only.
        # The product's accuracy against the stored zeros is held to 50 digits
        # in TestBoundaryValuesHighPrecision
        B = edge_blaschke
        psi = np.mod(np.angle(B.zeros), 2 * np.pi)
        atoms = np.mod(phase_nodes(PhaseFunction(B), 4)[0], 2 * np.pi)
        th = np.concatenate((circle_grid(257, offset=0.13), psi, psi + 1e-9, psi - 1e-9, atoms))
        got = PhaseFunction(B).product(th)
        assert np.abs(got - tangent_reference(B, th)).max() <= 1e-12
        if request.node.callspec.params["edge_blaschke"][0] != "explicit_near_circle_pairs":
            # the d-form loop takes nothing from the product's constants; next
            # to the pairs' zeros 1e-10 from the circle its 1 - r parts from
            # the correctly rounded product by up to 3.3e-6
            assert np.abs(got - blaschke_reference(B, th, reduced=True)).max() <= 1e-12


class CountingPhase(PhaseFunction):
    """PhaseFunction that counts the phase rows (angles) it evaluates."""

    rows = 0

    def __call__(self, angles, derivs=None):
        self.rows += np.size(angles)
        return super().__call__(angles, derivs)


class RecordingPhase(PhaseFunction):
    """PhaseFunction that keeps the angles, Theta' and Theta of every call
    that asks for derivatives."""

    def __init__(self, B):
        super().__init__(B)
        self.calls = []

    def __call__(self, angles, derivs=None):
        out = super().__call__(angles, derivs)
        if derivs is not None:
            self.calls.append((np.array(angles, dtype=float), derivs[0].copy(), out.copy()))
        return out


def phase_levels(phase, count):
    """The targets that ``phase_nodes(phase, count)`` inverts, in node order."""
    levels = 2 * np.pi * np.arange(count * phase.blaschke.degree) / count
    return np.where(levels < phase._anchor, levels + 2 * np.pi * phase.blaschke.degree, levels)


def nearest_zero_distance(B, angles):
    return np.abs(np.exp(1j * angles)[:, None] - B.zeros[None, :]).min(axis=1)


class TestInvertPhase:
    def test_edge_nodes_meet_tolerance_or_exit_at_ulp(self, edge_blaschke):
        # every node meets the phase tolerance, or it stopped on a step or a
        # bracket below 1e-15, where the residual is at most about |B'| * 1e-15
        B = edge_blaschke
        phase = PhaseFunction(B)
        count = 8
        nodes, _, _ = phase_nodes(phase, count)
        targets = phase_levels(phase, count)
        derivs = np.empty((2, len(nodes)))
        err = np.abs(phase(nodes, derivs) - targets)
        tol = max(1e-13, 2e-15 * B.degree)
        assert np.all(err <= np.maximum(tol, 2e-15 * derivs[0]))
        order = np.argsort(targets)
        assert np.all(np.diff(nodes[order]) > 0)

    def test_slope_matches_abs_derivative_grid(self, edge_blaschke):
        # both sums carry each zero's position to an ulp, which the Poisson
        # kernel amplifies by 1/|zeta - lambda| next to a near-circle zero:
        # 1e-12 relative wherever the nearest zero is 0.004 away or more
        B = edge_blaschke
        phase = PhaseFunction(B)
        th = np.concatenate((circle_grid(1024, offset=0.37), phase_nodes(phase, 4)[0]))
        derivs = np.empty((2, len(th)))
        phase(th, derivs)
        ref = abs_derivative_grid(B, th)
        bound = 1e-12 + 16 * np.finfo(float).eps / nearest_zero_distance(B, th)
        assert np.all(np.abs(derivs[0] - ref) <= bound * ref)

    def test_curvature_matches_slope_differences(self):
        B = FiniteBlaschke(generate_zeros(ZeroSequence.constant_modulus(0.6, "random", seed=1), 9))
        phase = PhaseFunction(B)
        th, h = circle_grid(64, offset=0.1), 1e-5
        derivs, plus, minus = (np.empty((2, len(th))) for _ in range(3))
        phase(th, derivs)
        phase(th + h, plus)
        phase(th - h, minus)
        fd = (plus[0] - minus[0]) / (2 * h)
        assert np.abs(derivs[1] - fd).max() <= 1e-6 * np.abs(derivs[1]).max()

    def test_reused_phase_matches_fresh(self, edge_blaschke):
        # the bracket scan is formed once per phase and kept: later inversions,
        # of any count and offset and after the one-level inversions of Clark
        # supports, give what a fresh phase gives, bit for bit
        B = edge_blaschke
        phase = PhaseFunction(B)
        phase_nodes(phase, 1, 0.3 / (2 * np.pi))
        scan = phase.bracket_scan()
        for count in (1, 2, 8):
            for offset in (0.0, 0.5):
                reused = phase_nodes(phase, count, offset)
                fresh = phase_nodes(PhaseFunction(B), count, offset)
                assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))
            phase_nodes(phase, 1, count % (2 * np.pi) / (2 * np.pi))
        assert phase.bracket_scan() is scan

    def test_bracket_scan_grid(self, edge_blaschke):
        # sorted with no repeats, and holding the equispaced grid: the set
        # np.union1d of the grid and the spike steps gives
        phase = PhaseFunction(edge_blaschke)
        grid, vals, slopes = phase.bracket_scan()
        G = max(256, 4 * edge_blaschke.degree)
        assert np.all(np.diff(grid) > 0)
        assert np.all(np.isin(np.linspace(0.0, 2 * np.pi, G + 1), grid))
        assert vals[0] == phase._anchor and vals[-1] == phase._anchor + 2 * np.pi * edge_blaschke.degree
        derivs = np.empty((2, len(grid)))
        assert np.array_equal(phase(grid, derivs)[1:-1], vals[1:-1])
        assert np.array_equal(derivs[0], slopes)

    @pytest.mark.parametrize("make", [
        lambda: FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 128),
        lambda: near_circle_pairs(64),
        lambda: near_circle_pairs(64, 1e-14),
    ], ids=["frostman_fast-128", "near_circle_pairs-64", "pairs_1e-14-64"])
    def test_slope_is_that_of_the_accepting_evaluation(self, make):
        # Theta' and the residual Theta - level at each node are those the
        # solve evaluated at exactly that angle: a target stops at the
        # evaluation that accepts it, on every exit (the 1e-15 bracket exit
        # too, 1 node of 512 at 1 - 1e-14 for pairs, N = 64), and its angle
        # does not move after it.  A fresh
        # evaluation of all nodes agrees to the rounding of the D-term row
        # sum, which BLAS orders by the row's place in the call
        B = make()
        phase = RecordingPhase(B)
        nodes, slopes, residuals = phase_nodes(phase, 8)
        last = {}
        for angles, slope, value in phase.calls:
            last.update(zip(angles.tolist(), zip(slope.tolist(), value.tolist())))
        accepted = np.array([last[x] for x in nodes.tolist()])
        assert np.array_equal(slopes, accepted[:, 0])
        assert np.array_equal(residuals, accepted[:, 1] - phase_levels(phase, 8))
        fresh = np.empty((2, len(nodes)))
        phase(nodes, fresh)
        assert np.all(np.abs(slopes - fresh[0]) <= len(phase._r) * np.finfo(float).eps * fresh[0])

    def test_blocked_solve_makes_no_empty_phase_call(self):
        # frostman N = 1024 at 32 levels is 8 blocks of PHASE_TARGETS; each
        # block's last targets stop at the evaluation that accepts them, so
        # no pass evaluates the phase on zero angles
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 1024)
        phase = RecordingPhase(B)
        phase_nodes(phase, 32)
        sizes = [len(angles) for angles, *_ in phase.calls]
        assert 32 * 1024 // blaschke.PHASE_TARGETS == 8
        assert len(sizes) > 8 and min(sizes) > 0

    def test_values_do_not_depend_on_derivs(self, edge_blaschke):
        phase = PhaseFunction(edge_blaschke)
        th = circle_grid(300, offset=0.4)
        assert np.array_equal(phase(th, np.empty((2, len(th)))), phase(th))

    @pytest.mark.parametrize("seq", [ZeroSequence.dense_nonblaschke(), ZeroSequence.frostman_fast(4)],
                             ids=["dense_nonblaschke", "frostman_fast"])
    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_phase_rows_per_target(self, seq, N):
        # the bracket scan plus the Hermite start and Halley passes evaluate
        # at most 3 phase rows per target (2.3 to 2.8 measured; bracket-midpoint
        # Newton took 4.2 to 5.1); z^N B as the sampled-symbol build uses it
        B = FiniteBlaschke.from_sequence(seq, N)
        Z = FiniteBlaschke(np.concatenate((B.zeros, np.zeros(N, dtype=complex))))
        for product, count in ((B, 32), (Z, 16)):
            phase = CountingPhase(product)
            phase_nodes(phase, count)
            assert phase.rows <= 3 * count * product.degree


    def test_nested_brackets_match_fresh_nodes(self, edge_blaschke):
        # levels of a doubling run, each solved inside the brackets of the
        # nodes before it (phase_nodes' solved), give the nodes a fresh
        # inversion gives, to the phase tolerance (or the 1e-15 exits) over
        # Theta'; Theta' is that of the returned node, and the phase's kept
        # scan stays as it was
        B = edge_blaschke
        phase = PhaseFunction(B)
        scan = phase.bracket_scan()
        grid = scan[0].copy()
        tol = max(1e-13, 2e-15 * B.degree)
        solved = []
        for count, offset in ((4, 0.0), (4, 0.5), (8, 0.5), (16, 0.5)):
            nodes, slopes, _ = phase_nodes(phase, count, offset, solved)
            fresh, fresh_slopes, _ = phase_nodes(PhaseFunction(B), count, offset)
            assert np.all(np.abs(nodes - fresh) <= 2 * tol / fresh_slopes + 4e-15)
            derivs = np.empty((2, len(nodes)))
            phase(nodes, derivs)
            assert np.all(np.abs(slopes - derivs[0]) <= len(phase._r) * np.finfo(float).eps * derivs[0])
            assert np.array_equal(solved[-1][0], nodes) and np.array_equal(solved[-1][2], slopes)
        assert len(solved) == 4
        assert phase.bracket_scan() is scan and np.array_equal(scan[0], grid)

    def test_solve_holds_one_block_of_targets(self, monkeypatch):
        # 65536 nodes of dense N = 32 are solved PHASE_TARGETS at a time into
        # the returned arrays: the traced peak stays under 6 MiB (3.9 MiB;
        # one block of all the targets peaked at 14.5 MiB), and the nodes are
        # those of one block, to the bound of the nested-bracket test
        B = FiniteBlaschke.from_sequence(ZeroSequence.dense_nonblaschke(), 32)
        phase = PhaseFunction(B)
        phase.bracket_scan()
        tracemalloc.start()
        try:
            nodes, slopes, _ = phase_nodes(phase, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(nodes) == 65536 and peak < 6 * 2 ** 20
        monkeypatch.setattr(blaschke, "PHASE_TARGETS", 1 << 30)
        whole, whole_slopes, _ = phase_nodes(phase, 2048)
        tol = max(1e-13, 2e-15 * B.degree)
        assert np.all(np.abs(nodes - whole) <= 2 * tol / whole_slopes + 4e-15)


def mp_phase(B, mp):
    """Theta and |B'| of the stored zeros at the working precision of mp: the
    closed form of ``PhaseFunction`` with one term per zero."""
    zs = [mp.mpc(z.real, z.imag) for z in B.zeros]
    polar = [(abs(z), mp.atan2(z.imag, z.real)) for z in zs]
    two_pi = 2 * mp.pi

    def w(x, r):
        n = mp.floor((x + mp.pi) / two_pi)
        h = (x - two_pi * n) / 2
        return 2 * mp.atan2((1 + r) * mp.sin(h), (1 - r) * mp.cos(h)) + two_pi * n

    b1 = mp.fprod([(1 - z) / (1 - mp.conj(z)) * (mp.conj(z) / abs(z) if z else 1) for z in zs])
    anchor = mp.atan2(b1.imag, b1.real) % two_pi
    offsets = [w(-psi, r) for r, psi in polar]

    def theta(t):
        return anchor + mp.fsum(w(t - psi, r) - o for (r, psi), o in zip(polar, offsets))

    def slope(t):
        e = mp.expj(t)
        return mp.fsum((1 - abs(z) ** 2) / abs(e - z) ** 2 for z in zs)

    return theta, slope


def near_circle_pairs(N, defect=1e-10):
    """The origin, then zeros at radius 1 - defect on golden-angle directions,
    each one repeated once (as ``explicit_near_circle_pairs`` in conftest)."""
    k = np.arange(N - 1) // 2
    return FiniteBlaschke(np.concatenate(([0j], (1 - defect) * np.exp(2j * np.pi * ((k * 0.6180339887498949) % 1)))))


MP_NEAR_CIRCLE = {
    "frostman_fast-16": lambda: FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 16),
    "near_circle_pairs-2": lambda: near_circle_pairs(2),
    "near_circle_pairs-16": lambda: near_circle_pairs(16),
    "radius_cap_repeated-8": lambda: FiniteBlaschke(np.array(
        [0j] + [RADIUS_CAP * np.exp(2j * np.pi * k / 3) for k in (0, 0, 1, 1, 1, 2, 2)])),
}


class TestPhaseNodesHighPrecision:
    @pytest.mark.parametrize("name", list(MP_NEAR_CIRCLE))
    def test_nodes_against_50_digit_reference(self, name):
        # Newton at 50 digits from each double node gives the exact inverse of
        # the stored product's phase; a node is off by at most the phase
        # tolerance over |B'| plus the 1e-15 step and bracket exits
        mp = pytest.importorskip("mpmath").mp
        B = MP_NEAR_CIRCLE[name]()
        phase = PhaseFunction(B)
        count = 4
        nodes, _, _ = phase_nodes(phase, count)
        tol = max(1e-13, 2e-15 * B.degree)
        with mp.workdps(50):
            theta, slope = mp_phase(B, mp)
            for node, target in zip(nodes, phase_levels(phase, count)):
                exact = mp.mpf(node)
                for _ in range(4):
                    exact -= (theta(exact) - target) / slope(exact)
                assert abs(theta(exact) - target) < 1e-30  # the reference converged
                assert float(abs(exact - node)) <= tol / float(slope(exact)) + 4e-15


class TestPhaseSeam:
    """Theta and Theta' where th - psi lies next to a multiple of 2 pi other
    than 0: a zero 1e-10 from the circle turns a rounding of 2 pi (2.4e-16)
    into 1e-5 of Theta and 2.4e-6 of Theta' relative."""

    def test_tail_of_two_pi(self):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(50):
            assert blaschke.TWO_PI_TAIL == float(2 * mp.pi - blaschke.TWO_PI)

    def test_slope_across_seam_against_50_digit_value(self):
        # 1.4e-5 below 2 pi from a zero at angle 1e-8; the rounded 2 pi gave
        # 1.99929314317912
        mp = pytest.importorskip("mpmath").mp
        B = FiniteBlaschke(np.array([0, (1 - 1e-10) * np.exp(1e-8j)]))
        node = 6.28317117004603
        derivs = np.empty((2, 1))
        value = PhaseFunction(B)(np.array([node]), derivs)[0]
        assert abs(derivs[0, 0] / 1.99929314313593 - 1) <= 1e-13
        with mp.workdps(50):
            theta, slope = mp_phase(B, mp)
            assert abs(derivs[0, 0] / float(slope(mp.mpf(node))) - 1) <= 1e-13
            assert abs(value - float(theta(mp.mpf(node)))) <= 1e-13

    @pytest.mark.parametrize("N", [16, 64])
    def test_nodes_across_angle_zero_against_50_digit_values(self, N):
        # the pair at angle 0 of the near-circle pairs (1 - 1e-10) puts
        # phase nodes on both sides of angle 0; at those below 2 pi, Theta
        # meets the 50-digit phase of the stored zeros to the phase tolerance
        # and Theta' to 1e-13 relative (measured 6e-14 and 2.2e-16; the
        # rounded 2 pi gave 9.8e-6 and 2.4e-6)
        mp = pytest.importorskip("mpmath").mp
        B = near_circle_pairs(N)
        phase = PhaseFunction(B)
        nodes, _, _ = phase_nodes(phase, 8)
        near = nodes[(nodes < 1e-3) | (nodes > 2 * np.pi - 1e-3)]
        assert np.sum(near > np.pi) >= 4 and np.sum(near < np.pi) >= 4
        derivs = np.empty((2, len(near)))
        values = phase(near, derivs)
        with mp.workdps(50):
            theta, slope = mp_phase(B, mp)
            exact = np.array([float(theta(mp.mpf(t))) for t in near])
            exact_slope = np.array([float(slope(mp.mpf(t))) for t in near])
        assert np.all(np.abs(values - exact) <= max(1e-13, 2e-15 * N))
        assert np.all(np.abs(derivs[0] / exact_slope - 1) <= 1e-13)

    @pytest.mark.parametrize("psi", [1e-8, np.pi - 1e-9, -0.5 * np.pi], ids=["zero", "pi", "minus_half_pi"])
    def test_pairs_across_chart_edges_against_50_digit_values(self, psi):
        # zeros 1e-10 from the circle at psi and -psi: their spikes straddle
        # angle 0 (and 2 pi), angle pi, or sit at -pi/2, the directions where
        # the zeros change chart; nodes of 64 levels per winding, and the
        # small nodes negated (measured at most 1.1e-14 and 4.1e-15; the
        # rounded 2 pi gave up to 1.3e-5 and 6.9e-6)
        mp = pytest.importorskip("mpmath").mp
        B = FiniteBlaschke(np.array([0, (1 - 1e-10) * np.exp(1j * psi), (1 - 1e-10) * np.exp(-1j * psi)]))
        phase = PhaseFunction(B)
        nodes, _, _ = phase_nodes(phase, 64)
        th = np.concatenate((nodes, -nodes[nodes < 1e-3]))
        derivs = np.empty((2, len(th)))
        values = phase(th, derivs)
        with mp.workdps(40):
            theta, slope = mp_phase(B, mp)
            exact = np.array([float(theta(mp.mpf(t))) for t in th])
            exact_slope = np.array([float(slope(mp.mpf(t))) for t in th])
        assert np.all(np.abs(values - exact) <= 1e-13)
        assert np.all(np.abs(derivs[0] / exact_slope - 1) <= 1e-13)

    def test_product_at_clark_atoms_against_50_digit_values(self):
        # a zero 1e-10 from the circle just below angle 0: the 16 atoms of
        # eight Clark measures, most of them just below 2 pi, where B meets
        # the 50-digit values of the stored zeros through the zero's chart
        # (measured 8.0e-15; th - psi unreduced gave 1.2e-6)
        mp = pytest.importorskip("mpmath").mp
        B = FiniteBlaschke(np.array([0, 0.9999999999 - 0.000000009999999999j]))
        atoms = np.concatenate([mu.atom_angles for mu in clark_measures(B, 8)])
        assert np.sum(atoms > 2 * np.pi - 1e-3) >= 8
        with mp.workdps(50):
            ref, _ = mp_boundary_values(B, atoms, mp)
        assert np.abs(PhaseFunction(B).product(atoms) - ref).max() <= 1e-13

    def test_negative_and_far_angles(self):
        # a negative angle meets the zeros near angle pi as th + 2 pi in two
        # parts; one outside [-pi, 2 pi] is reduced on its own first
        B = FiniteBlaschke(np.array([0, 0.5, (1 - 1e-6) * np.exp(-3.0j), -0.3j]))
        phase = PhaseFunction(B)
        th = circle_grid(64, offset=0.3)
        derivs, shifted = np.empty((2, len(th))), np.empty((2, len(th)))
        values = phase(th, derivs)
        N = B.degree
        for turns in (-1, 1, 2):
            moved = phase(th + turns * 2 * np.pi, shifted)
            assert np.allclose(moved - 2 * np.pi * N * turns, values, rtol=0, atol=1e-9)
            assert np.allclose(shifted[0], derivs[0], rtol=1e-9, atol=0)


def mp_boundary_values(B, angles, mp):
    """B and |B'| of the stored zeros at e^{i angles}, at the working precision
    of mp, rounded to double."""
    zs = [mp.mpc(z.real, z.imag) for z in B.zeros]
    sigmas = [mp.conj(z) / abs(z) if z else mp.mpf(1) for z in zs]
    values, slopes = np.empty(len(angles), dtype=complex), np.empty(len(angles))
    for i, t in enumerate(angles):
        zeta = mp.expj(mp.mpf(t))
        values[i] = complex(mp.fprod(s * (zeta - z) / (1 - mp.conj(z) * zeta) for z, s in zip(zs, sigmas)))
        slopes[i] = float(mp.fsum((1 - abs(z) ** 2) / abs(zeta - z) ** 2 for z in zs))
    return values, slopes


class TestBoundaryValuesHighPrecision:
    """The product and the Clark weights against the 50-digit values of the
    stored zeros.  Both kernels take 1 - |lambda|^2 correctly rounded from the
    product, and see a zero through other rounded data: the product through
    |lambda| and its angle, |B'| through the rounded cosine and sine of the
    circle point.  A rounded angle moves the product by eps |B'|, a rounded
    radius by eps/|zeta - lambda|, and a rounded circle point moves the term
    of lambda in |B'| by eps/|zeta - lambda|^2: next to zeros 1e-10 from the
    circle the last two exceed any multiple of eps |B'| that holds elsewhere."""

    @pytest.mark.parametrize("name", list(MP_NEAR_CIRCLE))
    def test_product_against_50_digit_reference(self, name):
        # measured: at most 1.7 eps (|B'| + sum_j 1/|zeta - lambda_j|)
        mp = pytest.importorskip("mpmath").mp
        B = MP_NEAR_CIRCLE[name]()
        psi = np.mod(np.angle(B.zeros), 2 * np.pi)
        atoms = np.mod(phase_nodes(PhaseFunction(B), 4)[0], 2 * np.pi)
        th = np.concatenate((circle_grid(257, offset=0.13), psi, psi + 1e-9, psi - 1e-9, atoms))
        with mp.workdps(50):
            ref, slope = mp_boundary_values(B, th, mp)
        reach = (1 / np.abs(np.exp(1j * th)[:, None] - B.zeros)).sum(axis=1)
        bound = 1e-15 + 4 * np.finfo(float).eps * (slope + reach)
        assert np.all(np.abs(PhaseFunction(B).product(th) - ref) <= bound)

    @pytest.mark.parametrize("name", list(MP_NEAR_CIRCLE))
    def test_clark_weights_against_50_digit_reference(self, name):
        # relative error of 1/|B'| at the atoms of four Clark measures;
        # measured: at most 1.5 eps sum_j |zeta - lambda_j|^-2 / |B'|
        mp = pytest.importorskip("mpmath").mp
        B = MP_NEAR_CIRCLE[name]()
        measures = clark_measures(B, 4)
        atoms = np.concatenate([mu.atom_angles for mu in measures])
        weights = np.concatenate([mu.weights for mu in measures])
        with mp.workdps(50):
            _, slope = mp_boundary_values(B, atoms, mp)
        spread = (np.abs(np.exp(1j * atoms)[:, None] - B.zeros) ** -2.0).sum(axis=1)
        bound = 1e-14 + 4 * np.finfo(float).eps * spread / slope
        assert np.all(np.abs(weights * slope - 1) <= bound)


class TestAngularDerivative:
    def test_power_case(self):
        B = FiniteBlaschke(np.zeros(7, dtype=complex))
        assert abs_derivative_boundary(B, 0.3) == pytest.approx(7.0)

    def test_hand_values(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        assert abs_derivative_boundary(B, 0.0) == pytest.approx(4.0)
        assert abs_derivative_boundary(B, np.pi) == pytest.approx(4.0 / 3.0)

    def test_matches_phase_derivative(self):
        # centered difference of the unwrapped phase at step 1e-5
        B = FiniteBlaschke(generate_zeros(ZeroSequence.constant_modulus(0.6, "random", seed=1), 9))
        phase = PhaseFunction(B)
        h = 1e-5
        for th in (0.2, 1.7, 4.4):
            fd = (phase(th + h) - phase(th - h))[0] / (2 * h)
            assert fd == pytest.approx(abs_derivative_boundary(B, th), abs=1e-6)

    def test_circle_point_argument(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        assert abs_derivative_boundary(B, 1.0 + 0j) == pytest.approx(4.0)


class TestDensities:
    def test_nu_constant_for_power(self):
        B = FiniteBlaschke(np.zeros(5, dtype=complex))
        assert abs_derivative_grid(B, np.array([1.2]))[0] / B.degree == pytest.approx(1.0)

    def test_nu_total_mass(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        res = nu_integral(lambda t: np.ones_like(t), B)
        assert res.converged
        assert res.value.real == pytest.approx(1.0, abs=1e-10)

    def test_nu_first_moment(self):
        # integral of zeta against the density equals the mean of the zeros
        B = FiniteBlaschke(np.array([0, 0.5]))
        res = nu_integral(lambda t: np.exp(1j * t), B)
        assert res.value == pytest.approx(0.25, abs=1e-10)

    def test_beta_values(self):
        # 1/|B'| at the level set B = 1 is the Clark measure at alpha = 1
        B = FiniteBlaschke(np.zeros(4, dtype=complex))
        assert clark_measure(B, 1.0).weights == pytest.approx([0.25] * 4)
        B2 = FiniteBlaschke(np.array([0, 0.5]))  # level set {1, -1}
        assert np.sort(clark_measure(B2, 1.0).weights) == pytest.approx([0.25, 0.75])

    def test_beta_bounded_by_one(self):
        grid = circle_grid(1024)
        for seq in ALL_GENERATORS:
            B = FiniteBlaschke(generate_zeros(seq, 24))
            # 1/|B'| lies in (0, 1] because the zero at the origin adds 1
            vals = abs_derivative_grid(B, grid)
            assert np.all(np.isfinite(vals))
            assert np.all(vals >= 1.0 - 1e-12)

    def test_nu_mass_all_generators(self):
        cfg = QuadratureConfig(abs_tol=1e-9, max_points=1 << 22)
        for seq in ALL_GENERATORS:
            B = FiniteBlaschke(generate_zeros(seq, 16))
            res = nu_integral(lambda t: np.ones_like(t), B, cfg)
            assert res.value.real == pytest.approx(1.0, abs=1e-8), seq.kind

    def test_nu_mass_degree_128(self):
        # phase nodes give mass 1 by construction, so check the moments
        # against the closed form: the integral of zeta^k against |B'|/N
        # is the mean of lambda^k over the zeros (conjugated for k < 0)
        cfg = QuadratureConfig(abs_tol=5e-6, max_points=1 << 26)
        for seq in ALL_GENERATORS:
            B = FiniteBlaschke(generate_zeros(seq, 128))
            for k in (1, -2, 5):
                res = nu_integral(lambda t: np.exp(1j * k * t), B, cfg)
                want = np.mean(B.zeros ** k if k > 0 else np.conj(B.zeros) ** -k)
                assert res.converged, (seq.kind, k)
                assert abs(res.value - want) < 1e-7, (seq.kind, k)


class TestKernels:
    def test_szego_value(self):
        # B(lam) = 0 turns the model kernel at lam into the Szego kernel
        B = FiniteBlaschke(np.array([0.5 + 0j]))
        assert model_kernel(B, 0.5, 0.5) == pytest.approx(4.0 / 3.0)

    def test_szego_normalized_value(self):
        # the second basis function of (0, 0.5) is z times the unit-norm
        # Szego kernel at 0.5, here taken at z = 1
        B = FiniteBlaschke(np.array([0, 0.5]))
        expected = np.sqrt(0.75) / (1.0 - 0.5)
        assert tmw_matrix(B, np.array([0.0]))[0, 1] == pytest.approx(expected)

    def test_szego_normalization(self):
        lam = 0.7j

        def sq(t):
            vals = np.sqrt(1 - abs(lam) ** 2) / (1 - np.conj(lam) * np.exp(1j * t))
            return np.abs(vals) ** 2

        res = integrate_circle(sq)
        assert res.value.real == pytest.approx(1.0, abs=1e-9)

    def test_model_kernel_constant(self):
        B = FiniteBlaschke(np.zeros(4, dtype=complex))
        assert model_kernel(B, 0.0, 0.3 + 0.2j) == pytest.approx(1.0)

    def test_model_kernel_boundary_diagonal(self):
        B = FiniteBlaschke(np.zeros(2, dtype=complex))
        assert model_kernel(B, 1.0 + 0j, 1.0 + 0j) == pytest.approx(2.0)

    def test_model_kernel_normalized_mass(self):
        # the normalized boundary kernel has unit L2 norm
        B = FiniteBlaschke(np.array([0, 0.5]))
        res = integrate_circle(lambda t: model_kernel_sq_grid(B, 0.0, t),
                               QuadratureConfig(abs_tol=1e-10))
        assert res.value.real == pytest.approx(1.0, abs=1e-9)

    def test_model_kernel_outside(self):
        B = FiniteBlaschke(np.array([0j]))
        with pytest.raises(ValueError):
            model_kernel(B, 1.5, 0.0)

    def test_kernel_symmetry_identity(self):
        # |khat_zeta(eta)|^2 |B'(zeta)| is symmetric in (zeta, eta)
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j, -0.2 + 0.4j]))
        rng = np.random.default_rng(5)
        for _ in range(12):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            lhs = model_kernel_sq_grid(B, a, np.array([b]))[0] * abs_derivative_boundary(B, a)
            rhs = model_kernel_sq_grid(B, b, np.array([a]))[0] * abs_derivative_boundary(B, b)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def tmw_angles(B):
    """A grid, every zero's direction and 1e-9 beside it, and a block of
    phase nodes of z^N B as the sampled build uses them."""
    psi = np.mod(np.angle(B.zeros), 2 * np.pi)
    Z = FiniteBlaschke(np.concatenate((B.zeros, np.zeros(B.degree, dtype=complex))))
    nodes, _, _ = phase_nodes(PhaseFunction(Z), max(1, 512 // B.degree))
    return np.concatenate((circle_grid(257, offset=0.13), psi, psi + 1e-9, nodes[:1024]))


class TestTMWBasis:
    """``tmw_matrix`` forms each distinct zero's kernel and factor once; the
    one-pass-per-zero oracle forms them at every repeat with the same
    operations, so the two must agree bit for bit."""

    def test_matches_per_zero_loop(self, edge_blaschke):
        B = edge_blaschke
        th = tmw_angles(B)
        E = tmw_matrix(B, th)
        assert E.shape == (len(th), B.degree)
        assert E.T.flags.c_contiguous  # one contiguous row per basis function
        assert np.array_equal(E, tmw_per_zero(B, th))

    def test_frostman_128_matches_per_zero_loop(self):
        # 35 distinct zeros among 128, the benchmark's largest product
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 128)
        th = tmw_angles(B)
        assert np.array_equal(tmw_matrix(B, th), tmw_per_zero(B, th))

    def test_monomials_for_power(self):
        B = FiniteBlaschke(np.zeros(4, dtype=complex))
        th = 0.9
        E = tmw_matrix(B, np.array([th]))
        assert E[0] == pytest.approx(np.exp(1j * np.arange(4) * th))

    def test_first_function_constant(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        grid = circle_grid(64, offset=0.3)
        assert np.abs(tmw_matrix(B, grid)[:, 0] - 1.0).max() < 1e-15

    def test_gram_identity(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        M = 1 << 12
        E = tmw_matrix(B, circle_grid(M))
        G = E.conj().T @ E / M
        assert np.abs(G - np.eye(3)).max() < 1e-8


def poisson_terms_reference(seq, grid, J, dtype):
    """(1 - |lam|^2)/|zeta - lam|^2 from the double-precision points
    zeta = (cos, sin)(grid) and zeros, with the arithmetic done in dtype and
    rounded to double.  In double the numerator is the correctly rounded
    ``exact_defects`` (held to exact rationals in TestEvaluation), so that
    only the summation differs from angular_partial_sums."""
    lam = generate_zeros(seq, J)
    x, y = np.cos(grid).astype(dtype)[:, None], np.sin(grid).astype(dtype)[:, None]
    lr, li = lam.real.astype(dtype), lam.imag.astype(dtype)
    defects = exact_defects(lam) if dtype is float else 1 - (lr * lr + li * li)
    return (defects / ((x - lr) ** 2 + (y - li) ** 2)).astype(float)


def fsum_worst(sums, terms):
    """Largest relative distance of the sums from math.fsum of the same
    terms, over all points."""
    return max(abs(got - math.fsum(row)) / math.fsum(row) for got, row in zip(sums, terms.tolist()))


def cap_pairs_sequence(count=10 ** 5):
    """0, then zeros drawn at random from conjugate pairs at the 1 - 1e-6 cap
    and at radius 0.5, and the reflection -conj of one of them: every zero
    repeats, and zeros share a real or an imaginary part, so that neither
    part alone tells zeros apart."""
    upper = np.array([RADIUS_CAP * np.exp(1j * a) for a in (0.4, 1.3, 2.9)] + [0.5 * np.exp(0.7j)])
    points = np.concatenate((upper, np.conj(upper), [-np.conj(upper[-1])]))
    draws = np.random.default_rng(7).integers(len(points), size=count - 1)
    return ZeroSequence.from_points(np.concatenate(([0j], points[draws])))


#: sequences besides frostman_fast whose zeros repeat: angular_partial_sums weights
#: each distinct zero by its multiplicity.  Every dense zero twice gives more
#: distinct zeros than one block holds
REPEATED = [ZeroSequence.uniform_zero(), ZeroSequence.alternating_3k(0.5), cap_pairs_sequence(),
            ZeroSequence.from_points(np.repeat(generate_zeros(ZeroSequence.dense_nonblaschke(), 5 * 10 ** 4), 2))]


#: every family of TestAngularPartialSums
ANGULAR_FAMILIES = [ZeroSequence.frostman_fast(4), ZeroSequence.dense_nonblaschke(),
                    ZeroSequence.constant_modulus(0.9)] + REPEATED
ANGULAR_IDS = ["frostman", "dense", "constant-modulus", "uniform", "alternating", "cap-pairs", "dense-twice"]


class TestAngularPartialSums:
    @pytest.mark.parametrize("seq", [ZeroSequence.dense_nonblaschke(), ZeroSequence.frostman_fast(4)] + REPEATED,
                             ids=["dense", "frostman"] + ANGULAR_IDS[3:])
    def test_totals_match_fsum(self, seq):
        # the shipped grid and term count.  Against fsum of the same double
        # terms only the summation errs: 1.1e-15 on dense, and on the
        # weighted distinct zeros 2.8e-16 (frostman), 0 (uniform), 2.0e-16
        # (alternating), 3.8e-16 (cap pairs) and 8.5e-16 (dense twice).
        # Against terms formed in long double: 1.8e-15 (dense) and 2.0e-15
        # (frostman) with the correctly rounded 1 - |lam|^2; the double form
        # 1 - (x^2 + y^2), off by eps/(1 - |lam|^2), gave 2.4e-12 and 9.8e-12
        # summed zero by zero, with most frostman zeros at the 1 - 1e-6 cap
        grid, J = circle_grid(64, offset=0.5), 10 ** 5
        sums = angular_partial_sums(seq, grid, J)
        assert fsum_worst(sums, poisson_terms_reference(seq, grid, J, float)) <= 1e-14
        assert fsum_worst(sums, poisson_terms_reference(seq, grid, J, np.longdouble)) <= 1e-14

    @pytest.mark.parametrize("seq", ANGULAR_FAMILIES, ids=ANGULAR_IDS)
    @pytest.mark.parametrize("grid, J", [
        (circle_grid(24, offset=0.5), 10 ** 4 + 7),
        (circle_grid(64, offset=0.5), 10 ** 5),
    ], ids=["partial-block", "shipped"])
    def test_matches_expand_and_fold_reference(self, seq, grid, J):
        # the distinct form of the rule against all J zeros generated and
        # folded by sorting: the same terms in the same order, so the same bytes
        sums = angular_partial_sums(seq, grid, J)
        assert sums.tobytes() == angular_sums_reference(seq, grid, J).tobytes()

    def test_uniform_equals_term_count(self):
        sums = angular_partial_sums(ZeroSequence.uniform_zero(), circle_grid(8), 50)
        assert np.allclose(sums, 50.0, rtol=1e-14, atol=0.0)

    def test_against_direct_sum(self):
        seq = ZeroSequence.frostman_fast(4)
        grid = circle_grid(6, offset=0.5)
        J = 5000
        lam = generate_zeros(seq, J)
        z = np.exp(1j * grid)
        direct = (exact_defects(lam)[None, :] / np.abs(z[:, None] - lam[None, :]) ** 2).sum(axis=1)
        assert np.allclose(angular_partial_sums(seq, grid, J), direct, rtol=1e-12)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            angular_partial_sums(ZeroSequence.uniform_zero(), np.array([]), 10)

    @pytest.mark.parametrize("seq", [ZeroSequence.uniform_zero(), ZeroSequence.dense_nonblaschke()],
                             ids=["distinct-form", "bare"])
    def test_no_terms(self, seq):
        with pytest.raises(ValueError, match="J must be >= 1"):
            angular_partial_sums(seq, circle_grid(4), 0)

    @pytest.mark.parametrize("seq", [ZeroSequence.frostman_fast(4), cap_pairs_sequence()], ids=["frostman", "cap-pairs"])
    def test_distinct_zeros_in_many_blocks(self, monkeypatch, seq):
        # blocks of 8 split frostman's 35 distinct zeros into five and the
        # cap pairs' 10 into two, the last block shorter: still the oracle's
        # bytes under the same block size
        grid, J = circle_grid(24, offset=0.5), 10 ** 4
        monkeypatch.setattr(blaschke, "POISSON_CELLS", 8 * len(grid))
        assert angular_partial_sums(seq, grid, J).tobytes() == angular_sums_reference(seq, grid, J).tobytes()

    def test_frostman_tail_bound_off_directions(self):
        # far from the accumulation directions the tail increase obeys the
        # elementary bound sum of 2(1-|lam_j|)/dist^2
        J0, J = 2 ** 14, 10 ** 5
        seq = ZeroSequence.frostman_fast(4)
        head, total = (angular_partial_sums(seq, np.array([np.pi / 4]), n)[0] for n in (J0, J))
        lam = generate_zeros(seq, J)[J0:]
        dist2 = np.abs(np.exp(1j * np.pi / 4) - lam) ** 2
        bound = float(np.sum(2 * (1 - np.abs(lam)) / dist2))
        assert total - head <= bound
        assert total < 1e2

    def test_dense_growth_on_full_grid(self):
        sums = angular_partial_sums(ZeroSequence.dense_nonblaschke(), circle_grid(64, offset=0.5), 10 ** 5)
        assert sums.min() > 1e3

    def test_dense_memory_does_not_grow_with_term_count(self):
        # the zeros come from the rule four blocks at a time: the traced peak
        # is about 1.9 MiB at both term counts, where forming all J zeros
        # first peaked at 6.3 and 46 MiB
        grid, peaks = circle_grid(64, offset=0.5), []
        for J in (10 ** 5, 10 ** 6):
            tracemalloc.start()
            try:
                angular_partial_sums(ZeroSequence.dense_nonblaschke(), grid, J)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    @pytest.mark.parametrize("block", [1000, 1 << 17], ids=["partial-blocks", "one-block"])
    def test_block_size_moves_sums_by_rounding_only(self, monkeypatch, block):
        # the row sums of a block are pairwise, so another block size only
        # regroups the additions: 1.6e-15 relative to blocks of 1024 with the
        # 100 blocks of 1000 zeros, 8.9e-16 with one block of all
        grid, J = circle_grid(64, offset=0.5), 10 ** 5
        ref = angular_partial_sums(ZeroSequence.dense_nonblaschke(), grid, J)
        monkeypatch.setattr(blaschke, "POISSON_CELLS", block * len(grid))
        sums = angular_partial_sums(ZeroSequence.dense_nonblaschke(), grid, J)
        assert np.abs(sums / ref - 1).max() <= 4e-15


#: rules whose product and J-term sums take one distinct form: the same
#: zeros, defects and multiplicities in the same order
INDEXED_SEQUENCES = {"uniform": ZeroSequence.uniform_zero(), "alternating": ZeroSequence.alternating_3k(0.5),
                     "frostman": ZeroSequence.frostman_fast(4)}

#: rules whose product sorts its distinct zeros while the sums take them in
#: the rule's order (the bare rules), and an explicit list
REORDERED_SEQUENCES = {
    "dense": ZeroSequence.dense_nonblaschke(),
    "equispaced": ZeroSequence.constant_modulus(0.9),
    "golden": ZeroSequence.constant_modulus(0.9, "golden"),
    "random": ZeroSequence.constant_modulus(0.7, "random", seed=3),
    "explicit": ZeroSequence.from_points(np.concatenate(([0.0], 0.99 * np.sqrt(np.random.default_rng(5).random(999))
                                                         * np.exp(2j * np.pi * np.random.default_rng(6).random(999))))),
}

#: a small cell budget, so that every edge of the kernel's blocks is met on
#: a few angles: k = 8 and 3 split it evenly
SMALL_CELLS = 96


class TestOnePoissonKernel:
    @pytest.mark.parametrize("N", [1, 35, 36, 1000])
    @pytest.mark.parametrize("seq", INDEXED_SEQUENCES.values(), ids=INDEXED_SEQUENCES.keys())
    @pytest.mark.parametrize("grid", [circle_grid(64, offset=0.5), circle_grid(1000, offset=0.5)],
                             ids=["shipped-grid", "1000-angles"])
    def test_product_equals_partial_sums_bit_for_bit(self, seq, N, grid):
        # |B'| of the N-th product is the N-term sum: one kernel on one
        # distinct form.  Two kernels had differed by up to 6.7e-16 relative
        B = FiniteBlaschke.from_sequence(seq, N)
        assert abs_derivative_grid(B, grid).tobytes() == angular_partial_sums(seq, grid, N).tobytes()

    @pytest.mark.parametrize("N", [1, 35, 36, 1000])
    @pytest.mark.parametrize("seq", REORDERED_SEQUENCES.values(), ids=REORDERED_SEQUENCES.keys())
    def test_product_equals_partial_sums_to_rounding(self, seq, N):
        grid = circle_grid(64, offset=0.5)
        B = FiniteBlaschke.from_sequence(seq, N)
        sums = angular_partial_sums(seq, grid, N)
        assert np.abs(abs_derivative_grid(B, grid) / sums - 1).max() <= 4e-15

    @pytest.mark.parametrize("angles", [1, SMALL_CELLS // 8 - 1, SMALL_CELLS // 8, SMALL_CELLS // 8 + 1,
                                        SMALL_CELLS // 3 - 1, SMALL_CELLS // 3, SMALL_CELLS // 3 + 1,
                                        SMALL_CELLS + 1, 3 * SMALL_CELLS + 5])
    def test_block_edges(self, monkeypatch, angles):
        # zero counts one either side of a block of SMALL_CELLS // angles
        # zeros (one zero when the angles exceed the budget), and two
        # blocks and one zero more: the sums meet the oracle's slices bit for
        # bit, and |B'| one angle at a time
        monkeypatch.setattr(blaschke, "POISSON_CELLS", SMALL_CELLS)
        block = max(1, SMALL_CELLS // angles)
        seq, grid = ZeroSequence.dense_nonblaschke(), circle_grid(angles, offset=0.5)
        for J in sorted({block - 1, block, block + 1, 2 * block + 1} - {0}):
            assert angular_partial_sums(seq, grid, J).tobytes() == angular_sums_reference(seq, grid, J).tobytes()
            B = FiniteBlaschke.from_sequence(seq, J)
            one_by_one = np.array([abs_derivative_boundary(B, t) for t in grid])
            assert np.abs(abs_derivative_grid(B, grid) / one_by_one - 1).max() <= 4e-15

    def test_keeps_the_shape_of_the_angles(self):
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 40)
        grid = circle_grid(12).reshape(3, 4)
        assert abs_derivative_grid(B, grid).tobytes() == abs_derivative_grid(B, grid.ravel()).reshape(3, 4).tobytes()
        assert abs_derivative_grid(B, np.float64(1.2)).shape == ()
        assert abs_derivative_grid(B, np.empty(0)).shape == (0,)

    def test_holds_one_block_of_cells(self):
        # 4096 angles and 10^4 zeros are 4 x 10^7 cells, two planes of them
        # 655 MB; the kernel holds two planes of POISSON_CELLS (1 MiB) beside
        # the parts of the zeros and a few arrays of the angles: 1.4 MiB traced
        zeros = generate_zeros(ZeroSequence.dense_nonblaschke(), 10 ** 4)
        grid, defects = circle_grid(4096, offset=0.5), exact_defects(zeros)
        tracemalloc.start()
        try:
            blaschke._poisson_sum(grid, zeros, defects)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * blaschke.POISSON_CELLS


#: the rules whose zeros are streamed from the rule itself
BARE_SEQUENCES = {
    "dense": ZeroSequence.dense_nonblaschke(),
    "equispaced": ZeroSequence.constant_modulus(0.9),
    "golden": ZeroSequence.constant_modulus(0.9, "golden"),
    "random": ZeroSequence.constant_modulus(0.7, "random", seed=3),
}


class TestStreamedZeros:
    @pytest.mark.parametrize("seq", BARE_SEQUENCES.values(), ids=BARE_SEQUENCES.keys())
    @pytest.mark.parametrize("J, block", [(3001, 1), (10 ** 4 + 7, 1000), (10 ** 4 + 7, 4096),
                                          (4096, 4096), (10 ** 4 + 7, 10 ** 5)])
    def test_blocks_match_generate_zeros(self, seq, J, block):
        # the random rule draws block by block from one generator: the same
        # stream as one draw of all J phases
        blocks = list(blaschke._bare_blocks(seq, J, block))
        assert [len(b) for b in blocks] == [min(block, J - s) for s in range(0, J, block)]
        assert np.concatenate(blocks).tobytes() == generate_zeros(seq, J).tobytes()

    def test_van_der_corput_per_block(self):
        full = van_der_corput_loop(5000)
        for start, stop in [(0, 1), (1, 2), (3, 4), (1000, 3000), (4095, 4097), (4999, 5000)]:
            got = blaschke._van_der_corput(np.arange(start, stop))
            assert got.tobytes() == full[start:stop].tobytes()

    @pytest.mark.parametrize("args, message", [
        ((1.0,), "r in"),
        ((0.5, "spiral"), "phase_rule"),
    ], ids=["radius", "phase-rule"])
    def test_parameters_are_checked_at_construction(self, args, message):
        # no sequence with a bad parameter exists to stream from
        with pytest.raises(ValueError, match=message):
            ZeroSequence.constant_modulus(*args)


#: every zero rule: the three phase rules, frostman_fast on 1, 4 and 7
#: directions (zeros 0...30 lie below the radius cap, the cycle over the
#: directions starts at zero 31) and an explicit list with repeats
DISTINCT_RULES = {
    "uniform_zero": ZeroSequence.uniform_zero(),
    "constant_modulus": ZeroSequence.constant_modulus(0.5),
    "constant_modulus_golden": ZeroSequence.constant_modulus(0.9, "golden"),
    "constant_modulus_random": ZeroSequence.constant_modulus(0.7, "random", seed=3),
    "alternating_3k": ZeroSequence.alternating_3k(0.5),
    "frostman_fast": ZeroSequence.frostman_fast(4),
    "frostman_fast_1": ZeroSequence.frostman_fast(1),
    "frostman_fast_7": ZeroSequence.frostman_fast(7),
    "dense_nonblaschke": ZeroSequence.dense_nonblaschke(),
    "explicit_cap_pairs": cap_pairs_sequence(),
}
DISTINCT_COUNTS = (1, 2, 3, 4, 27, 28, 31, 32, 33, 10 ** 5)


class TestDistinctForm:
    @pytest.mark.parametrize("count", DISTINCT_COUNTS)
    @pytest.mark.parametrize("name", DISTINCT_RULES)
    def test_expands_to_generate_zeros(self, name, count):
        seq = DISTINCT_RULES[name]
        lam = generate_zeros(seq, count)
        runs = distinct_zeros(seq, count)
        assert runs.zeros.tobytes() == lam.tobytes()
        assert runs.distinct[runs.which].tobytes() == lam.tobytes()
        # np.unique's sorted distinct zeros, multiplicities and zero index
        distinct, which, counts = np.unique(lam, return_inverse=True, return_counts=True)
        for got, want in ((runs.distinct, distinct), (runs.which, which), (runs.counts, counts)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", DISTINCT_COUNTS)
    @pytest.mark.parametrize("name", DISTINCT_RULES)
    def test_product_from_sequence_matches_folded_zeros(self, name, count):
        seq = DISTINCT_RULES[name]
        B, ref = FiniteBlaschke.from_sequence(seq, count), FiniteBlaschke(generate_zeros(seq, count))
        assert B.zeros.tobytes() == ref.zeros.tobytes()
        for got, want in zip(B._distinct + (B._which, B._defects, B._p, B._cnorm),
                             ref._distinct + (ref._which, ref._defects, ref._p, ref._cnorm)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", DISTINCT_RULES)
    def test_generate_zeros_never_folds(self, monkeypatch, name):
        # the checks read the rule's values and the first zero: no rule sorts
        # its zeros to hand back the array
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        for count in DISTINCT_COUNTS:
            generate_zeros(DISTINCT_RULES[name], count)
        assert len(calls) == 0

    @pytest.mark.parametrize("count", DISTINCT_COUNTS + (34, 35, 36, 37, 38, 39))
    @pytest.mark.parametrize("name", ["uniform_zero", "alternating_3k", "frostman_fast", "frostman_fast_1",
                                      "frostman_fast_7"])
    def test_indexed_values_are_distinct(self, name, count):
        # below, at and past frostman's radius cap (zero 31 is the first at
        # it): each value once, so no fold hides a repeat
        runs = distinct_zeros(DISTINCT_RULES[name], count)
        assert runs.index is not None
        assert len(set(runs.values.tolist())) == len(runs.values)

    @pytest.mark.parametrize("directions", [1, 4, 7])
    def test_frostman_matches_the_per_zero_formula(self, directions):
        # radius min(1 - (j + 1)^-4, RADIUS_CAP) in direction j % directions,
        # formed for every j at once, bit for bit
        j = np.arange(300)
        ref = np.minimum(1.0 - (j + 1.0) ** -4, RADIUS_CAP) * np.exp(1j * (blaschke.TWO_PI * (j % directions) / directions))
        assert generate_zeros(ZeroSequence.frostman_fast(directions), 300).tobytes() == ref.tobytes()

    def test_fold_sorts_when_a_part_is_first_read(self):
        # generate_zeros reads only the array, so a bare rule's zeros are not sorted
        zeros = np.array([0.5, 0, 0.5j, 0.5], dtype=complex)
        folded = blaschke.DistinctZeros(zeros)
        assert folded.zeros is zeros
        distinct, which, counts = np.unique(zeros, return_inverse=True, return_counts=True)
        for got, want in ((folded.counts, counts), (folded.distinct, distinct), (folded.which, which)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(AttributeError):
            folded.size

    def test_explicit_keeps_signed_zeros(self):
        # generate_zeros hands back the explicit list as given; the product
        # folds -0 parts with +0 ones
        pts = [0j, complex(-0.0, 0.5), complex(0.0, 0.5), complex(0.3, -0.0)]
        seq = ZeroSequence.from_points(pts)
        assert generate_zeros(seq, 4).tobytes() == np.array(pts).tobytes()
        assert len(distinct_zeros(seq, 4).distinct) == 3
        assert len(FiniteBlaschke.from_sequence(seq, 4)._distinct[0]) == 3
        assert not np.signbit(FiniteBlaschke.from_sequence(seq, 4)._distinct[0].view(float)).any()

    def test_closed_forms_match_loops(self):
        # alternating_3k and the equispaced constant_modulus angles against
        # the per-zero loops they replaced, bit for bit
        n = 10 ** 5
        lam = generate_zeros(ZeroSequence.alternating_3k(0.5), n)
        assert lam.tobytes() == alternating_3k_loop(0.5, n).tobytes()
        assert blaschke._van_der_corput(np.arange(n)).tobytes() == van_der_corput_loop(n).tobytes()
        j = np.arange(n)
        ref = np.where(j == 0, 0.0, 0.9 * np.exp(1j * (blaschke.TWO_PI * van_der_corput_loop(n))))
        assert generate_zeros(ZeroSequence.constant_modulus(0.9), n).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seq", [ZeroSequence.alternating_3k(0.5), ZeroSequence.constant_modulus(0.9)],
                             ids=["alternating_3k", "constant_modulus"])
    def test_closed_forms_are_fast(self, seq):
        # under 5 ms at 10^5 zeros on a 2-vCPU host (best of 5); the loops
        # took 50 and 172 ms
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            generate_zeros(seq, 10 ** 5)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.025
