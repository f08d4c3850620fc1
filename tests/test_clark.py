import math

import numpy as np
import pytest

from ttolab import blaschke, clark, operators, quadrature
from ttolab.blaschke import (
    PHASE_BLOCK,
    FiniteBlaschke,
    ZeroSequence,
    abs_derivative_grid,
    circle_grid,
    generate_zeros,
    phase_nodes,
)
from ttolab.clark import (
    ClarkMeasure,
    PhaseFunction,
    clark_measure,
    clark_rows,
    clark_support,
    disintegration_check,
)
from ttolab.operators import (
    SymbolRep,
    build_clark_spectral,
    build_truncated_toeplitz,
    trace,
    trace_formula_rhs,
)
from ttolab.quadrature import nu_integral

from oracles import build_clark_unitary, clark_measures, eval_blaschke_grid, op_norm, phase_lift, tmw_kernel_coeffs


def random_blaschke(n, seed=0, rmax=0.9):
    rng = np.random.default_rng(seed)
    pts = rmax * rng.random(n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    return FiniteBlaschke(np.concatenate(([0.0 + 0.0j], pts)))


def phase_reference(phase, angles):
    """Theta as the anchor plus one lifted factor phase per zero (repeated
    zeros once per repetition), each counted from angle 0 and taking the
    product's defect of its zero, summed in a loop."""
    B = phase.blaschke
    total = np.full(angles.shape, phase._anchor)
    for r, psi, p in zip(B._radii, np.angle(B.zeros), B._p[B._which]):
        total += phase_lift(angles, psi, r, p) - phase_lift(0.0, psi, r, p)
    return total


class TestPhaseFunction:
    def test_matches_loop_reference(self, edge_blaschke):
        B = edge_blaschke
        phase = PhaseFunction(B)
        # a uniform grid plus points on and just past each zero's direction,
        # where near-circle zeros make the phase jump by almost 2*pi
        psi = np.mod(np.angle(B.zeros), 2 * np.pi)
        th = np.concatenate((circle_grid(1024, offset=0.25), psi, psi + 1e-9, psi - 1e-9))
        tol = 1e-13 * 2 * np.pi * B.degree
        assert np.abs(phase(th) - phase_reference(phase, th)).max() <= tol

    def test_blocks_match_loop_reference(self):
        # at N = 256 one block holds PHASE_BLOCK/256 angles; cross two
        # boundaries and end on a one-angle block
        B = FiniteBlaschke(generate_zeros(ZeroSequence.frostman_fast(4), 256))
        phase = PhaseFunction(B)
        th = circle_grid(2 * (PHASE_BLOCK // 256) + 1, offset=0.25)
        tol = 1e-13 * 2 * np.pi * B.degree
        assert np.abs(phase(th) - phase_reference(phase, th)).max() <= tol

    def test_distinct_zero_blocks_match_loop_reference(self):
        # repeated zeros fold into one term, so frostman N = 256 (35 distinct
        # zeros) fits one block; 256 distinct zeros cross two boundaries
        B = FiniteBlaschke(generate_zeros(ZeroSequence.dense_nonblaschke(), 256))
        phase = PhaseFunction(B)
        th = circle_grid(2 * (PHASE_BLOCK // 256) + 1, offset=0.25)
        tol = 1e-13 * 2 * np.pi * B.degree
        assert np.abs(phase(th) - phase_reference(phase, th)).max() <= tol

    def test_winding(self):
        for B in (FiniteBlaschke(np.zeros(3, dtype=complex)), random_blaschke(7, seed=1)):
            phase = PhaseFunction(B)
            total = phase(2 * np.pi)[0] - phase(0.0)[0]
            assert total == pytest.approx(2 * np.pi * B.degree, abs=1e-10)

    def test_anchor_range(self):
        B = random_blaschke(5, seed=2)
        val = PhaseFunction(B)(0.0)[0]
        assert 0 <= val < 2 * np.pi

    def test_strictly_increasing(self):
        B = random_blaschke(6, seed=3)
        vals = PhaseFunction(B)(np.linspace(0, 2 * np.pi, 4001))
        assert np.all(np.diff(vals) > 0)

    def test_consistent_with_product(self):
        B = random_blaschke(6, seed=4)
        phase = PhaseFunction(B)
        th = np.linspace(0.1, 6.1, 17)
        assert np.abs(np.exp(1j * phase(th)) - eval_blaschke_grid(B, th)).max() < 1e-12


class TestClarkSupport:
    def test_roots_of_unity(self):
        B = FiniteBlaschke(np.zeros(5, dtype=complex))
        angles = clark_support(B, 1.0)
        assert np.allclose(np.sort(angles), 2 * np.pi * np.arange(5) / 5, atol=1e-12)

    def test_z2_at_minus_one(self):
        B = FiniteBlaschke(np.zeros(2, dtype=complex))
        angles = clark_support(B, -1.0)
        assert np.allclose(angles, [np.pi / 2, 3 * np.pi / 2], atol=1e-12)

    def test_residuals(self):
        B = random_blaschke(9, seed=6)
        for a in (1.0, np.exp(0.7j), np.exp(4.0j)):
            angles = clark_support(B, a)
            assert len(angles) == 9
            assert np.abs(eval_blaschke_grid(B, angles) - a).max() < 1e-10

    def test_brute_force_bracket_scan(self):
        # sign-change scan over 1e5 samples finds the same solution cells
        B = FiniteBlaschke(np.array([0, 0.5]))
        angles = clark_support(B, 1.0)
        assert len(angles) == 2
        M = 100000
        # half-cell offset keeps the roots strictly inside scan cells
        grid = 2 * np.pi * (np.arange(M + 1) + 0.5) / M
        u = eval_blaschke_grid(B, grid)
        cross = np.nonzero((np.imag(u)[:-1] < 0) & (np.imag(u)[1:] >= 0) & (np.real(u)[:-1] > 0))[0]
        assert len(cross) == 2
        for th in angles:
            cell = np.floor((th % (2 * np.pi)) / (2 * np.pi) * M - 0.5).astype(int) % M
            assert np.min(np.abs(cross - cell)) <= 1

    def test_near_boundary_zeros(self):
        # spiky phase from zeros at radius 1 - 1e-6 still yields full support;
        # the residual at a spike is limited by |B'| times the angle ulp
        B = FiniteBlaschke(generate_zeros(ZeroSequence.frostman_fast(4), 40))
        angles = clark_support(B, np.exp(0.3j))
        assert len(angles) == 40
        res = np.abs(eval_blaschke_grid(B, angles) - np.exp(0.3j))
        deriv = abs_derivative_grid(B, angles)
        floor = 16 * np.finfo(float).eps * deriv
        assert np.all(res < 1e-9 + floor)
        calm = deriv < 1e3  # atoms away from the phase spikes
        assert calm.any()
        assert res[calm].max() < 1e-11

    def test_alpha_validation(self):
        B = FiniteBlaschke(np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            clark_support(B, 0.3)


class TestClarkMeasure:
    def test_power_case_weights(self):
        mu = clark_measure(FiniteBlaschke(np.zeros(6, dtype=complex)), 1.0)
        assert np.allclose(mu.weights, 1 / 6)

    def test_mass_one(self):
        mu = clark_measure(FiniteBlaschke(np.array([0, 0.5])), 1.0)
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_weights_bounded(self):
        mu = clark_measure(random_blaschke(8, seed=7), np.exp(2.0j))
        assert np.all(mu.weights <= 1.0 + 1e-12)

    def test_atoms_sorted(self):
        mu = clark_measure(random_blaschke(8, seed=8), np.exp(1.0j))
        assert np.all(np.diff(mu.atom_angles) > 0)

    def test_validation_atom_count(self):
        B = FiniteBlaschke(np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            ClarkMeasure(B, 1.0, np.array([0.0]), np.array([1.0]))

    def test_interlacing(self):
        B = random_blaschke(7, seed=9)
        a1 = clark_measure(B, 1.0).atom_angles
        a2 = clark_measure(B, np.exp(1.9j)).atom_angles
        # exactly one atom of the second measure between consecutive atoms of
        # the first (wrap atoms below the first bin edge around by a turn)
        a2_wrapped = np.where(a2 < a1[0], a2 + 2 * np.pi, a2)
        counts = np.histogram(a2_wrapped, bins=np.concatenate([a1, [a1[0] + 2 * np.pi]]))[0]
        assert np.all(counts == 1)

    def test_eigenvector_relation(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        alpha = np.exp(0.7j)
        mu = clark_measure(B, alpha)
        U = build_clark_unitary(B, alpha).matrix
        Q = tmw_kernel_coeffs(B, mu.atom_angles)
        for k in range(B.degree):
            q = Q[k] / np.linalg.norm(Q[k])
            zeta = np.exp(1j * mu.atom_angles[k])
            assert np.linalg.norm(U @ q - zeta * q) < 1e-7


def per_measure_error(B, atoms, weights):
    """The error of the first measure of the grid, in alpha order, that fails
    the level-set or the mass check, each measure checked on its own as the
    per-measure construction did; None if all pass."""
    count = len(atoms)
    for j, a in enumerate(2 * np.pi * np.arange(count) / count):
        alpha = complex(math.cos(a), math.sin(a))
        res = np.abs(PhaseFunction(B).product(atoms[j]) - alpha)
        if np.any(res > 1e-9 + 16.0 * np.finfo(float).eps / weights[j]):
            return f"level-set residual too large: {res.max():.3e}"
        if B.vanishes_at_origin and abs(weights[j].sum() - 1.0) > 1e-8:
            return f"total mass {weights[j].sum()!r} differs from 1"
    return None


class TestClarkWeightsFromSolve:
    """Clark weights are 1/Theta' from the phase solve of their atoms: no
    |B'| pass over atoms x distinct zeros."""

    @staticmethod
    def count_abs_derivative_calls(monkeypatch):
        calls = []
        original = blaschke.abs_derivative_grid

        def counted(B, angles, *args):
            calls.append(np.size(angles))
            return original(B, angles, *args)

        for module in (blaschke, clark, operators, quadrature):
            if hasattr(module, "abs_derivative_grid"):
                monkeypatch.setattr(module, "abs_derivative_grid", counted)
        return calls

    @pytest.mark.parametrize("make", [
        lambda: FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 64),
        lambda: random_blaschke(9, seed=2),
        lambda: FiniteBlaschke(np.array([0, (1 - 1e-10) * np.exp(1e-8j)])),
    ], ids=["frostman-64", "random-9", "seam-pair"])
    def test_no_abs_derivative_pass(self, monkeypatch, make):
        B = make()
        calls = self.count_abs_derivative_calls(monkeypatch)
        measures = clark_measures(B, 8)
        mu = clark_measure(B, np.exp(0.7j))
        assert not calls
        # the weights sorted with their atoms: those of a fresh |B'| pass, to
        # the ulp of each zero's position that both sums carry, amplified by
        # 1/|zeta - lambda| (as in TestInvertPhase)
        for nu in measures + [mu]:
            assert np.all(np.diff(nu.atom_angles) > 0)
            ref = 1.0 / abs_derivative_grid(B, nu.atom_angles)
            near = np.abs(np.exp(1j * nu.atom_angles)[:, None] - B.zeros).min(axis=1)
            assert np.all(np.abs(nu.weights - ref) <= (1e-12 + 16 * np.finfo(float).eps / near) * ref)

    def test_single_measure_weights_against_50_digit_values(self):
        # clark_measure on the near-circle pairs (1 - 1e-10), alpha off the
        # grid of clark_measures: 1/Theta' meets the 50-digit 1/|B'| of the
        # stored zeros as the grid's weights do
        mp = pytest.importorskip("mpmath").mp
        k = np.arange(15) // 2
        B = FiniteBlaschke(np.concatenate(([0j], (1 - 1e-10) * np.exp(2j * np.pi * ((k * 0.6180339887498949) % 1)))))
        mu = clark_measure(B, np.exp(2.1j))
        with mp.workdps(50):
            zs = [mp.mpc(z.real, z.imag) for z in B.zeros]
            slope = np.array([float(mp.fsum((1 - abs(z) ** 2) / abs(mp.expj(mp.mpf(t)) - z) ** 2 for z in zs))
                              for t in mu.atom_angles])
        spread = (np.abs(np.exp(1j * mu.atom_angles)[:, None] - B.zeros) ** -2.0).sum(axis=1)
        bound = 1e-14 + 4 * np.finfo(float).eps * spread / slope
        assert np.all(np.abs(mu.weights * slope - 1) <= bound)


class TestClarkMeasuresGridCheck:
    """``clark_rows`` checks all 32 rows of its grid at once; one bad atom or
    weight of one alpha raises the error that checking each measure on its
    own raised."""

    COUNT = 32

    def corrupted_grid(self, monkeypatch, B, atom_rows=(), weight_rows=()):
        """Feed clark_rows nodes with one atom of each of atom_rows moved
        by 1e-3, and Theta' = |B'| doubled at the sixth atom (by angle) of
        each of weight_rows; return the atoms and weights it then forms,
        each row in the order of the solve."""
        nodes, slopes, residuals = phase_nodes(PhaseFunction(B), self.COUNT)
        nodes, slopes = nodes.copy(), slopes.copy()
        for row in atom_rows:
            nodes[3 * self.COUNT + row] += 1e-3  # column row: alpha_row
        columns = np.mod(nodes, 2 * np.pi).reshape(B.degree, self.COUNT)
        order = np.argsort(columns, axis=0)
        for row in weight_rows:
            slopes[order[5, row] * self.COUNT + row] *= 2.0
        monkeypatch.setattr(clark, "phase_nodes", lambda phase, count, offset=0.0: (nodes, slopes, residuals))
        atoms = columns.T.copy()
        weights = 1.0 / slopes.reshape(B.degree, self.COUNT).T
        return atoms, weights

    @pytest.mark.parametrize("atom_rows, weight_rows", [
        ((17,), ()), ((), (17,)), ((0,), ()), ((), (31,)),
        ((20,), (5,)), ((5,), (20,)), ((9,), (9,)),
    ], ids=["atom", "weight", "first-atom", "last-weight", "weight-first", "atom-first", "same-row"])
    def test_corrupt_measure_raises_per_measure_error(self, monkeypatch, atom_rows, weight_rows):
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 40)
        atoms, weights = self.corrupted_grid(monkeypatch, B, atom_rows, weight_rows)
        expected = per_measure_error(B, atoms, weights)
        assert expected is not None
        kind = "level-set" if min(atom_rows, default=99) <= min(weight_rows, default=99) else "total mass"
        assert expected.startswith(kind)
        with pytest.raises(ValueError) as err:
            clark_rows(B, self.COUNT)
        assert str(err.value) == expected

    def test_clean_grid_passes_both_checks(self):
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 40)
        atoms, _, weights = clark_rows(B, self.COUNT)
        assert per_measure_error(B, atoms, weights) is None

    def test_measure_on_its_own_is_checked(self):
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 40)
        mu = clark_measure(B, 1j)
        atoms = mu.atom_angles.copy()
        atoms[7] += 1e-3
        with pytest.raises(ValueError, match="level-set residual too large"):
            ClarkMeasure(B, 1j, atoms, mu.weights)
        weights = mu.weights.copy()
        weights[7] *= 0.5
        with pytest.raises(ValueError, match="total mass"):
            ClarkMeasure(B, 1j, mu.atom_angles, weights)


class TestBetaNorm:
    # the largest Clark weight is the operator norm of 1/|B'| applied to the
    # Clark unitary (the function is supported on the level set)
    def test_power_case(self):
        B = FiniteBlaschke(np.zeros(10, dtype=complex))
        assert clark_measure(B, 1.0).weights.max() == pytest.approx(0.1)

    def test_matches_operator_norm(self):
        from ttolab.operators import inverse_derivative_symbol
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j, -0.4]))
        alpha = np.exp(0.9j)
        mu = clark_measure(B, alpha)
        M = build_clark_spectral(B, mu, inverse_derivative_symbol(B))
        assert mu.weights.max() == pytest.approx(op_norm(M), abs=1e-8)


def circular_gap(a, b):
    """Largest distance from an angle of a to the nearest angle of b, on the circle."""
    d = np.abs(np.angle(np.exp(1j * (a[:, None] - b[None, :]))))
    return d.min(axis=1).max()


class TestPhaseNodes:
    """The one phase inversion behind Clark atoms and nu-integrals, on products
    with N from 1 to 256, repeated zeros and zeros within 1e-10 of the circle."""

    def test_clark_measures_match_clark_support(self, edge_blaschke):
        B = edge_blaschke
        measures = clark_measures(B, 4)  # each one validated on construction
        assert [mu.alpha for mu in measures] == pytest.approx([1, 1j, -1, -1j])
        for mu in measures:
            assert np.all(np.diff(mu.atom_angles) >= 0)
            assert circular_gap(mu.atom_angles, clark_support(B, mu.alpha)) < 1e-12

    def test_clark_rows_match_clark_measure(self, edge_blaschke):
        # row j holds the atoms of the measure at alpha_j = i^j, solved there
        # on their own, and their weights (measured: the same atoms, weights
        # within 1.3e-15 relative); B there is the product's to the rounding
        # of Theta (3.4e-13 at N = 256), far closer than the level alpha_j
        # next to a spike
        B = edge_blaschke
        atoms, b, weights = clark_rows(B, 4)
        assert atoms.shape == b.shape == weights.shape == (4, B.degree)
        for j, alpha in enumerate([1, 1j, -1, -1j]):
            mu = clark_measure(B, alpha)
            assert circular_gap(atoms[j], mu.atom_angles) < 1e-12
            nearest = np.abs(np.angle(np.exp(1j * (atoms[j][:, None] - mu.atom_angles)))).argmin(axis=1)
            assert weights[j] == pytest.approx(mu.weights[nearest], rel=1e-14, abs=0)
        bound = 4 * np.finfo(float).eps * 2 * np.pi * B.degree
        assert np.abs(b - PhaseFunction(B).product(atoms)).max() <= bound

    def test_nu_integral_matches_closed_form(self, edge_blaschke):
        B = edge_blaschke
        first = nu_integral(lambda t: np.exp(1j * t), B)
        second = nu_integral(lambda t: np.exp(-2j * t), B)
        assert first.converged and second.converged
        assert abs(first.value - np.mean(B.zeros)) < 1e-9
        assert abs(second.value - np.mean(np.conj(B.zeros) ** 2)) < 1e-9

    def test_trace_formula_matches_matrix_trace(self, edge_blaschke):
        B = edge_blaschke
        sym = SymbolRep.trig({0: 0.5, 1: 1, 2: 1 + 0.5j, -1: 0.3, -3: 0.2j})
        rhs = trace_formula_rhs(B, sym).value
        assert abs(rhs - trace(build_truncated_toeplitz(B, sym))) < 1e-12 * B.degree


class TestDisintegration:
    def test_constant_function_exact(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        res = disintegration_check(lambda t: np.ones_like(t), B, alpha_count=4)
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs == pytest.approx(1.0, abs=1e-12)

    def test_character_function_power_case(self):
        N = 4
        B = FiniteBlaschke(np.zeros(N, dtype=complex))
        res = disintegration_check(lambda t: np.exp(1j * N * t), B, alpha_count=8)
        assert abs(res.lhs) < 1e-10
        assert abs(res.rhs) < 1e-10

    def test_real_part_symbol(self):
        B = FiniteBlaschke(np.array([0, 0.5, 0.3j]))
        res = disintegration_check(SymbolRep.preset("re_z"), B, alpha_count=8)
        assert res.converged
        assert res.gap < 1e-6

    @pytest.mark.parametrize("alpha_count", [clark.MAX_ALPHA, 2 * clark.MAX_ALPHA])
    def test_start_at_or_past_the_largest_grid_compares_two(self, alpha_count):
        # a start at or past MAX_ALPHA doubles once, so that two grids compare
        # and the exact average of re_z converges
        B = FiniteBlaschke(np.array([0, 0.5]))
        res = disintegration_check(SymbolRep.preset("re_z"), B, alpha_count=alpha_count)
        assert res.converged
        assert res.alpha_count == 2 * alpha_count
        assert res.gap < 1e-12

    def test_alpha_count_validation(self):
        B = FiniteBlaschke(np.array([0j]))
        with pytest.raises(ValueError):
            disintegration_check(lambda t: np.ones_like(t), B, alpha_count=3)

    @pytest.mark.parametrize("alpha_count", [4.0, 0, 12])
    def test_alpha_count_is_refused_by_name(self, alpha_count):
        # alpha_count = 4.0 once raised a TypeError from its bit test
        with pytest.raises(ValueError, match="alpha_count"):
            disintegration_check(lambda t: np.ones_like(t), FiniteBlaschke(np.array([0j])), alpha_count=alpha_count)
