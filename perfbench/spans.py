"""Span recorder for the traced benchmark run.

The wrappers live here, outside the package: ``install`` replaces each layer
function listed in ``LAYERS`` by a wrapper that records one span per call
(name, start, end, parent) and adds the call's work counts.  ttolab modules
bind imported names at import time (``experiments`` holds its own
``build_truncated_toeplitz``, ``operators`` its own ``tmw_matrix``), so the
wrapper replaces the name in every ttolab module that holds the original,
not only in the module that defines it.

Only the layers below are wrapped.  Helpers beneath them (``jacobi_eigh``,
``singular_values``, the quadrature samplers) count in their caller's self
time, so a layer metric keeps its meaning when a later change replaces a
helper.
"""

from __future__ import annotations

import importlib
import time

import numpy as np


def _build_variant(B, sym, *args, **kwargs):
    return "trig" if sym.is_trig else "sampled"


def _apply_variant(A, f, *args, **kwargs):
    return "poly" if f.is_poly else "pointwise"


def _quad_counts(res, *args, **kwargs):
    return {"points": int(res.points_used), "unconverged": int(not res.converged)}


def _build_counts(res, *args, **kwargs):
    return {"unconverged": int(not res.converged)}


def _tmw_counts(res, B, angles, *args, **kwargs):
    return {"cells": int(res.shape[0]) * B.degree}


def _abs_derivative_counts(res, B, angles, *args, **kwargs):
    return {"points": int(np.size(res)) * len(B._distinct[0])}


def _phase_counts(res, phase, angles, *args, **kwargs):
    return {"factor_evals": int(np.size(res)) * len(phase._r)}


def _support_counts(res, *args, **kwargs):
    return {"roots": int(np.size(res))}


def _trace_norm_counts(res, A, *args, **kwargs):
    return {"dim3": A.dim ** 3}


def _fejer_counts(res, *args, **kwargs):
    return {"points": int(np.size(res))}


def _manifest_counts(res, manifest, name, data, *args, **kwargs):
    return {"bytes": len(data.encode("utf-8"))}


# (module, function or Class.method, variant namer, work counter); the span is
# named <module>.<function>[.<variant>], with __call__ written as call.
LAYERS = [
    ("cli", "main", None, None),
    ("cli", "parse_config", None, None),
    ("cli", "Manifest.write", None, _manifest_counts),
    ("cli", "cmd_szego", None, None),
    ("cli", "cmd_stz", None, None),
    ("cli", "cmd_angular", None, None),
    ("cli", "cmd_lemmas", None, None),
    ("experiments", "szego_gap", None, None),
    ("experiments", "stz_trace", None, None),
    ("experiments", "angular_condition_a", None, None),
    ("experiments", "angular_condition_b", None, None),
    ("experiments", "hs_approx_gap", None, None),
    ("experiments", "product_defect_s1", None, None),
    ("experiments", "stz_defect_s1", None, None),
    ("experiments", "fejer_suite", None, None),
    ("operators", "build_truncated_toeplitz", _build_variant, _build_counts),
    ("operators", "compressed_shift", None, None),
    ("operators", "apply_function", _apply_variant, None),
    ("operators", "trace_norm", None, _trace_norm_counts),
    ("operators", "fejer_values", None, _fejer_counts),
    ("operators", "build_clark_spectral", None, None),
    ("clark", "PhaseFunction.__call__", None, _phase_counts),
    ("clark", "clark_support", None, _support_counts),
    ("clark", "clark_measure", None, None),
    ("quadrature", "nu_integral", None, _quad_counts),
    ("quadrature", "integrate_circle", None, _quad_counts),
    ("blaschke", "tmw_matrix", None, _tmw_counts),
    ("blaschke", "abs_derivative_grid", None, _abs_derivative_counts),
    ("blaschke", "generate_zeros", None, None),
    ("blaschke", "angular_partial_sums", None, None),
]

MODULES = ("ttolab", "ttolab.blaschke", "ttolab.quadrature", "ttolab.clark",
           "ttolab.operators", "ttolab.experiments", "ttolab.cli")


class Tracer:
    """In-memory span list plus work counters, filled by the wrappers."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, variant=None, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if variant is None else f"{name}.{variant(*args, **kwargs)}"
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for quantity, value in count(result, *args, **kwargs).items():
                    key = f"{label}.{quantity}"
                    counters[key] = counters.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer in ``LAYERS``, in every ttolab module that binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for mod_name, attr, variant, count in LAYERS:
            name = f"{mod_name}.{attr}".replace(".__call__", ".call")
            owner = importlib.import_module(f"ttolab.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), variant, count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, variant, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
