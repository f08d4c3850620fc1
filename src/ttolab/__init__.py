"""Numerical laboratory for truncated Toeplitz operators on finite model
spaces: Blaschke data, Clark measures, trace identities and convergence
experiments."""

from .blaschke import (
    FiniteBlaschke,
    ZeroSequence,
    angular_partial_sums,
    generate_zeros,
)
from .clark import (
    ClarkMeasure,
    PhaseFunction,
    clark_measure,
    clark_rows,
    clark_support,
    disintegration_check,
)
from .operators import (
    OperatorMatrix,
    ScalarFunction,
    SymbolRep,
    apply_function,
    build_clark_spectral,
    build_truncated_toeplitz,
    compressed_shift,
    inverse_derivative_symbol,
    semicommutator_trace,
    trace,
    trace_formula_rhs,
    trace_norm,
)
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    integrate_circle,
    nu_integral,
)

__version__ = "0.1.0"
