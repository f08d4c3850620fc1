import math
from functools import partial

import numpy as np
import pytest

from ttolab.blaschke import FiniteBlaschke, ZeroSequence, generate_zeros
from ttolab.quadrature import (
    FIRST_POINTS,
    QuadratureConfig,
    _chunked_sum,
    blaschke_initial_points,
    doubling,
    integrate_circle,
    nu_integral,
)

from oracles import poisson_integral


def nu_l2_norm(f, B):
    """Norm of f in L^2 of the mean harmonic measure of B."""
    return np.sqrt(nu_integral(lambda t: np.abs(f(t)) ** 2, B).value.real)


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert (cfg.max_points, cfg.abs_tol) == (1 << 20, 1e-10)

    @pytest.mark.parametrize("kwargs", [
        {"max_points": 100},
        {"abs_tol": 0.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("abs_tol", math.nan), ("abs_tol", math.inf), ("max_points", 256), ("max_points", 512.0),
    ])
    def test_refuses_a_bad_field_by_name(self, name, value):
        # abs_tol = inf once let integrate_circle report converged at its first doubling
        with pytest.raises(ValueError, match=name):
            QuadratureConfig(**{name: value})


class TestIntegrateCircle:
    def test_constant(self):
        res = integrate_circle(lambda t: np.ones_like(t))
        assert res.value == pytest.approx(1.0)
        assert res.converged

    def test_character_orthogonality(self):
        res = integrate_circle(lambda t: np.exp(5j * t))
        assert abs(res.value) < 1e-14

    def test_exact_once_degree_resolved(self):
        # value is already exact at M = 16 > degree; doubling must not move it
        f = lambda t: 2.0 + np.exp(3j * t) + np.exp(-2j * t)
        res = doubling(partial(_chunked_sum, f), 16, QuadratureConfig())
        assert res.value == pytest.approx(2.0, abs=1e-14)
        assert res.points_used <= 64

    def test_least_budget_fits_one_doubling(self):
        # at max_points = 2 * FIRST_POINTS a peak-sized first level still
        # leaves room to double
        cfg = QuadratureConfig(max_points=2 * FIRST_POINTS)
        for B in (FiniteBlaschke(np.array([0, 0.5])), FiniteBlaschke(np.array([0, 1 - 1e-6]))):
            assert blaschke_initial_points(B, cfg) == FIRST_POINTS

    def test_linearity(self):
        f = lambda t: np.exp(1j * t) + 0.3 * np.cos(4 * t)
        g = lambda t: 1.0 / (2.0 + np.sin(t))
        a, b = 2.0 - 1.0j, 0.7
        lhs = integrate_circle(lambda t: a * f(t) + b * g(t)).value
        rhs = a * integrate_circle(f).value + b * integrate_circle(g).value
        assert abs(lhs - rhs) < 1e-12

    def test_peaked_kernel_normalization_and_growth(self):
        def mass(lam):
            def sq(t):
                return np.abs(np.sqrt(1 - lam ** 2) / (1 - lam * np.exp(1j * t))) ** 2
            return integrate_circle(sq, QuadratureConfig(abs_tol=1e-10))
        easy = mass(0.5)
        hard = mass(0.99)
        assert hard.value.real == pytest.approx(1.0, abs=1e-9)
        assert hard.points_used > easy.points_used

    def test_nonconvergence_reported(self):
        lam = 1 - 1e-6

        def sq(t):
            return np.abs(np.sqrt(1 - lam ** 2) / (1 - lam * np.exp(1j * t))) ** 2

        res = integrate_circle(sq, QuadratureConfig(max_points=4096, abs_tol=1e-12))
        assert not res.converged
        assert res.points_used == 4096

    def test_nonfinite_sample_names_angle(self):
        def bad(t):
            out = np.ones_like(t)
            out[t > 3.0] = np.inf
            return out
        with pytest.raises(ValueError, match="non-finite sample at angle"):
            integrate_circle(bad)

    def test_batched_sampler(self):
        def batch(t):
            return np.stack([np.ones_like(t), np.exp(2j * t)], axis=-1)
        res = integrate_circle(batch)
        assert res.value[0] == pytest.approx(1.0)
        assert abs(res.value[1]) < 1e-13

    def test_deterministic(self):
        f = lambda t: 1.0 / (1.2 + np.cos(3 * t))
        r1 = integrate_circle(f)
        r2 = integrate_circle(f)
        assert r1.value == r2.value and r1.points_used == r2.points_used


class TestPoisson:
    def test_constant(self):
        res = poisson_integral(lambda t: np.ones_like(t), 0.4 + 0.1j)
        assert res.value.real == pytest.approx(1.0, abs=1e-10)

    def test_mean_value(self):
        lam = 0.3 + 0.4j
        res = poisson_integral(lambda t: np.exp(1j * t), lam)
        assert res.value == pytest.approx(lam, abs=1e-10)

    def test_conjugate(self):
        lam = 0.3 + 0.4j
        res = poisson_integral(lambda t: np.exp(-1j * t), lam)
        assert res.value == pytest.approx(np.conj(lam), abs=1e-10)

    def test_requires_interior_point(self):
        with pytest.raises(ValueError):
            poisson_integral(lambda t: np.ones_like(t), 1.0 + 0j)


class TestNuIntegrals:
    def test_two_routes_agree(self):
        # density quadrature vs averaged Poisson integrals, trig integrand
        seq = ZeroSequence.dense_nonblaschke()
        B = FiniteBlaschke(generate_zeros(seq, 24))
        f = lambda t: np.exp(1j * t) + 0.4 * np.exp(-2j * t)
        direct = nu_integral(f, B).value
        via_poisson = sum(poisson_integral(f, lam).value for lam in B.zeros) / B.degree
        assert direct == pytest.approx(via_poisson, abs=1e-8)

    def test_weighted_norm_constant(self):
        B = FiniteBlaschke(np.array([0, 0.5, -0.2j]))
        assert nu_l2_norm(lambda t: np.full(t.shape, 3.0 + 0j), B) == pytest.approx(3.0, abs=1e-9)

    def test_weighted_norm_power_case_is_plain_l2(self):
        B = FiniteBlaschke(np.zeros(6, dtype=complex))
        val = nu_l2_norm(lambda t: 2 * np.cos(t), B)
        assert val == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_weighted_norm_unimodular_function(self):
        B = FiniteBlaschke(np.array([0, 0.5]))
        assert nu_l2_norm(lambda t: np.exp(1j * t), B) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("N", [32, 64, 256, 512])
    def test_first_level_leaves_room_to_double(self, N):
        # 512 nodes at most: the first level takes MIN_LEVELS levels per
        # winding or half the budget, and never less than one level per
        # winding, so only N = 512 cannot double
        B = FiniteBlaschke.from_sequence(ZeroSequence.dense_nonblaschke(), N)
        res = nu_integral(lambda t: np.exp(np.exp(1j * t)), B, QuadratureConfig(max_points=512))
        assert res.points_used == 512
        assert math.isfinite(res.estimated_error) == (N < 512)
        assert res.converged == (N <= 64)

    def test_starved_frostman_reports_its_estimate(self):
        # next to zeros at the radius cap 512 nodes do not settle at N = 64:
        # one doubling gives a finite estimate, and the run is unconverged
        B = FiniteBlaschke.from_sequence(ZeroSequence.frostman_fast(4), 64)
        res = nu_integral(lambda t: np.exp(np.exp(1j * t)), B, QuadratureConfig(max_points=512))
        assert not res.converged and 1e-6 < res.estimated_error < 1.0

    def test_initial_points_scale_with_zeros(self):
        near = FiniteBlaschke(np.array([0, 0.999]))
        far = FiniteBlaschke(np.array([0, 0.5]))
        cfg = QuadratureConfig()
        assert blaschke_initial_points(near, cfg) > blaschke_initial_points(far, cfg)
