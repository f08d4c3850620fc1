import numpy as np
import pytest

from ttolab.blaschke import FiniteBlaschke, ZeroSequence


def _near_boundary_pairs(count: int) -> ZeroSequence:
    """The origin, then zeros at radius 1 - 1e-10, each one repeated once."""
    k = np.arange(count - 1) // 2
    pts = (1.0 - 1e-10) * np.exp(2j * np.pi * ((k * 0.6180339887498949) % 1.0))
    return ZeroSequence.from_points(np.concatenate(([0j], pts)))


# every generator family, with repeated zeros (uniform_zero, the explicit
# pairs) and zeros at RADIUS_CAP (frostman_fast from N = 32 on)
EDGE_SEQUENCES = {
    "uniform_zero": ZeroSequence.uniform_zero(),
    "constant_modulus": ZeroSequence.constant_modulus(0.5),
    "constant_modulus_random": ZeroSequence.constant_modulus(0.7, "random", seed=3),
    "alternating_3k": ZeroSequence.alternating_3k(0.5),
    "frostman_fast": ZeroSequence.frostman_fast(4),
    "dense_nonblaschke": ZeroSequence.dense_nonblaschke(),
    "explicit_near_circle_pairs": _near_boundary_pairs(256),
}
EDGE_DEGREES = (1, 2, 64, 256)
_EDGE_CASES = [(name, N) for name in EDGE_SEQUENCES for N in EDGE_DEGREES]


@pytest.fixture(params=_EDGE_CASES, ids=[f"{name}-{N}" for name, N in _EDGE_CASES])
def edge_blaschke(request) -> FiniteBlaschke:
    """Products at the extremes: N = 1, large N, repeated and near-circle zeros."""
    name, N = request.param
    return FiniteBlaschke.from_sequence(EDGE_SEQUENCES[name], N)


_SMALL_EDGE_CASES = [(name, N) for name, N in _EDGE_CASES if N <= 64]


@pytest.fixture(params=_SMALL_EDGE_CASES, ids=[f"{name}-{N}" for name, N in _SMALL_EDGE_CASES])
def small_edge_blaschke(request) -> FiniteBlaschke:
    """``edge_blaschke`` at N = 1, 2 and 64, for oracles that build a matrix per call."""
    name, N = request.param
    return FiniteBlaschke.from_sequence(EDGE_SEQUENCES[name], N)
