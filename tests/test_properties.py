"""Property tests on random zero sets: repeated zeros, zeros at RADIUS_CAP,
degrees from 1 to 24."""

import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ttolab.blaschke import RADIUS_CAP, FiniteBlaschke  # noqa: E402
from ttolab.operators import build_truncated_toeplitz, inverse_derivative_symbol  # noqa: E402


@st.composite
def products(draw):
    """The origin, then N - 1 zeros drawn with repetition from a small pool
    whose radii are either exactly RADIUS_CAP or anywhere in [0, RADIUS_CAP]."""
    N = draw(st.integers(1, 24))
    radius = st.one_of(st.just(RADIUS_CAP), st.floats(0.0, RADIUS_CAP))
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    pool = draw(st.lists(st.tuples(radius, angle), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=N - 1, max_size=N - 1))
    return FiniteBlaschke(np.array([0j] + [r * cmath.exp(1j * a) for r, a in (pool[i] for i in picks)]))


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(products())
def test_inverse_derivative_compression(B):
    # 0 < 1/|B'| <= 1 (the zero at the origin adds 1 to |B'|), so T(1/|B'|)
    # is Hermitian with spectrum in (0, 1]; sum_i |e_i|^2 = |B'| makes its
    # trace the integral of 1 over the circle
    T = build_truncated_toeplitz(B, inverse_derivative_symbol(B))
    assert T.converged
    M = T.matrix
    assert np.array_equal(M, M.conj().T)
    eig = np.linalg.eigvalsh(M)
    assert eig.min() > 0.0
    assert eig.max() <= 1.0 + 1e-12
    assert abs(np.trace(M) - 1.0) <= 1e-12
