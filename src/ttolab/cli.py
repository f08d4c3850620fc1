"""Configuration-driven command line front end.

Subcommands map onto the experiment modules; every run writes a manifest
naming its outputs, and result CSV/JSON files are byte-identical across runs
with the same config and seed.  The config format is a flat sectioned
key-value document; see the README for the schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .blaschke import PHASE_RULES, FiniteBlaschke, ZeroSequence
from .clark import clark_measure, disintegration_check
from .experiments import (
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
)
from .operators import ScalarFunction, SymbolRep, build_truncated_toeplitz
from .quadrature import QuadratureConfig


class ConfigError(ValueError):
    """Raised for malformed configs; the CLI maps it to exit code 2."""


# ---------------------------------------------------------------------------
# value parsers
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> complex:
    t = text.strip().replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def parse_zeros(text: str) -> list[complex]:
    pts = [parse_complex(tok) for tok in text.split(",") if tok.strip()]
    if not pts:
        raise ConfigError("empty zero list")
    return pts


def parse_symbol(text: str) -> SymbolRep:
    text = text.strip()
    if "=" not in text:
        try:
            return SymbolRep.preset(text)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    coeffs = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        key, _, val = tok.partition("=")
        if not key.startswith("c"):
            raise ConfigError(f"symbol coefficient {tok!r} must look like c<k>=<value>")
        try:
            k = int(key[1:])
        except ValueError as exc:
            raise ConfigError(f"bad frequency in {tok!r}") from exc
        coeffs[k] = parse_complex(val)
    return SymbolRep.trig(coeffs, name=text)


def parse_function(text: str) -> ScalarFunction:
    text = text.strip()
    if text.startswith("poly:"):
        coeffs = [parse_complex(tok) for tok in text[len("poly:"):].split(",") if tok.strip()]
        return ScalarFunction.poly(coeffs, name=text)
    try:
        return ScalarFunction.preset(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

_SCHEMA = {
    "sequence": {"kind", "r", "phase_rule", "seed", "lam", "gamma", "directions", "zeros"},
    "symbol": {"kind", "coeffs", "preset"},
    "function": {"kind", "coeffs", "preset"},
    "sweep": {"n_values", "alpha_count"},
    "quadrature": {"initial_points", "max_points", "abs_tol", "rel_tol"},
    "angular": {"j_terms", "grid_size", "thresholds"},
    "output": {"dir"},
}


def _read_sections(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    sections: dict = {}
    seen: dict = {}  # section name or (section, key) -> line of first appearance
    current = None
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"unknown section [{current}] at line {ln}")
            if current in seen:
                raise ConfigError(f"duplicate section [{current}] at lines {seen[current]} and {ln}")
            seen[current] = ln
            sections[current] = {}
            continue
        if current is None or "=" not in line:
            raise ConfigError(f"expected 'key = value' inside a section at line {ln}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {current}.{key}")
        if (current, key) in seen:
            raise ConfigError(f"duplicate key {current}.{key} at lines {seen[current, key]} and {ln}")
        seen[current, key] = ln
        sections[current][key] = val
    return sections


def _parse_key(sections: dict, section: str, key: str, default, parse=int):
    """Parse one value, naming its key path if it is malformed."""
    text = sections.get(section, {}).get(key)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"must lie in (0,1), got {value}")
    return value


def _phase_rule(text: str) -> str:
    if text not in PHASE_RULES:
        raise ValueError(f"must be one of {', '.join(PHASE_RULES)}, got {text!r}")
    return text


def _sequence_from_section(sections: dict, seed: int) -> ZeroSequence:
    sec = sections.get("sequence", {})
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("sequence.kind is required")

    def value(key, default, parse):
        return _parse_key(sections, "sequence", key, default, parse)

    if kind == "uniform_zero":
        return ZeroSequence.uniform_zero()
    if kind == "constant_modulus":
        return ZeroSequence.constant_modulus(value("r", 0.5, _unit_interval),
                                             value("phase_rule", "equispaced", _phase_rule),
                                             seed=seed)
    if kind == "alternating_3k":
        return ZeroSequence.alternating_3k(value("lam", 0.5, _unit_interval))
    if kind == "frostman_fast":
        return ZeroSequence.frostman_fast(value("directions", 4, _positive_int))
    if kind == "dense_nonblaschke":
        return ZeroSequence.dense_nonblaschke(value("gamma", 0.6180339887, float))
    if kind == "explicit":
        if "zeros" not in sec:
            raise ConfigError("sequence.zeros is required for explicit sequences")
        return ZeroSequence.from_points(value("zeros", None, parse_zeros))
    raise ConfigError(
        f"unknown generator tag {kind!r}; valid tags: uniform_zero, constant_modulus, "
        "alternating_3k, frostman_fast, dense_nonblaschke, explicit")


def _symbol_from_section(sec: dict) -> SymbolRep:
    kind = sec.get("kind", "preset" if "preset" in sec else "trig")
    if kind == "trig":
        if "coeffs" not in sec:
            raise ConfigError("symbol.coeffs is required for trig symbols")
        return parse_symbol(sec["coeffs"])
    if kind == "preset":
        try:
            return SymbolRep.preset(sec.get("preset", "cos"))
        except ValueError as exc:
            raise ConfigError(f"symbol.preset: {exc}") from exc
    raise ConfigError(f"unknown symbol.kind {kind!r}")


def _function_from_section(sec: dict) -> ScalarFunction:
    if not sec:
        return ScalarFunction.preset("identity")
    kind = sec.get("kind", "preset" if "preset" in sec else "poly")
    if kind == "poly":
        if "coeffs" not in sec:
            raise ConfigError("function.coeffs is required for poly functions")
        return ScalarFunction.poly([parse_complex(t) for t in sec["coeffs"].split(",") if t.strip()])
    if kind == "preset":
        try:
            return ScalarFunction.preset(sec.get("preset", "identity"))
        except ValueError as exc:
            raise ConfigError(f"function.preset: {exc}") from exc
    raise ConfigError(f"unknown function.kind {kind!r}")


@dataclass(frozen=True)
class ParsedConfig:
    experiment: ExperimentConfig
    out_dir: str | None
    angular_options: dict
    canonical: str
    digest: str


def canonical_text(sections: dict) -> str:
    parts = []
    for name in sorted(sections):
        parts.append(f"[{name}]")
        for key in sorted(sections[name]):
            parts.append(f"{key} = {sections[name][key]}")
    return "\n".join(parts) + "\n"


def parse_config(path: str, overrides: dict | None = None) -> ParsedConfig:
    """Load, validate and canonicalize an experiment config file."""
    sections = _read_sections(path)
    for section, values in (overrides or {}).items():
        sections.setdefault(section, {}).update(values)

    quad = dict(initial_points=_parse_key(sections, "quadrature", "initial_points", 256),
                max_points=_parse_key(sections, "quadrature", "max_points", 1 << 20),
                abs_tol=_parse_key(sections, "quadrature", "abs_tol", 1e-10, float),
                rel_tol=_parse_key(sections, "quadrature", "rel_tol", 1e-9, float))
    try:
        qcfg = QuadratureConfig(**quad)
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from exc

    seed = _parse_key(sections, "sequence", "seed", 0)
    try:
        experiment = ExperimentConfig(
            sequence=_sequence_from_section(sections, seed),
            symbol=_symbol_from_section(sections.get("symbol", {})),
            function=_function_from_section(sections.get("function", {})),
            n_values=parse_int_list(sections.get("sweep", {}).get("n_values", "8,16,32,64")),
            alpha_count=_parse_key(sections, "sweep", "alpha_count", 32),
            quadrature=qcfg,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    angular_options = {
        "J": _parse_key(sections, "angular", "j_terms", 10 ** 5, _positive_int),
        "grid_size": _parse_key(sections, "angular", "grid_size", 64, _positive_int),
        "thresholds": _parse_key(sections, "angular", "thresholds", (1e2, 1e3),
                                 lambda text: tuple(float(t) for t in text.split(","))),
    }
    text = canonical_text(sections)
    return ParsedConfig(
        experiment=experiment,
        out_dir=sections.get("output", {}).get("dir"),
        angular_options=angular_options,
        canonical=text,
        digest=hashlib.sha256(text.encode()).hexdigest(),
    )


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def records_to_csv(records: list[ConvergenceRecord]) -> str:
    diag_keys = sorted({k for r in records for k in r.diagnostics})
    header = ["N", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "gap"] + diag_keys
    lines = [",".join(header)]
    for r in records:
        row = [str(r.N), _fmt(r.lhs.real), _fmt(r.lhs.imag), _fmt(r.rhs.real),
               _fmt(r.rhs.imag), _fmt(r.gap)]
        row += [_fmt(r.diagnostics.get(k, "")) for k in diag_keys]
        lines.append(",".join(_csv_field(c) for c in row))
    return "\r\n".join(lines) + "\r\n"


def records_to_json(records: list[ConvergenceRecord]) -> str:
    payload = [
        {
            "N": r.N,
            "lhs": {"re": r.lhs.real, "im": r.lhs.imag},
            "rhs": {"re": r.rhs.real, "im": r.rhs.imag},
            "gap": r.gap,
            "diagnostics": dict(sorted(r.diagnostics.items())),
        }
        for r in records
    ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def matrix_to_json(M: np.ndarray) -> str:
    body = [[[float(v.real), float(v.imag)] for v in row] for row in M]
    return json.dumps({"dim": M.shape[0], "entries_row_major": body}, sort_keys=True, indent=2) + "\n"


def matrix_to_csv(M: np.ndarray) -> str:
    lines = ["i,j,re,im"]
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            lines.append(f"{i},{j},{_fmt(float(M[i, j].real))},{_fmt(float(M[i, j].imag))}")
    return "\r\n".join(lines) + "\r\n"


class Manifest:
    """Run manifest: written once before work starts, finalized afterwards."""

    def __init__(self, out_dir: str, digest: str, seed: int):
        self.out_dir = out_dir
        self.data = {
            "config_hash": digest,
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": seed,
            "status": "running",
            "outputs": [],
        }
        os.makedirs(out_dir, exist_ok=True)
        self._flush()

    def _flush(self):
        _atomic_write(os.path.join(self.out_dir, "manifest.json"),
                      json.dumps(self.data, sort_keys=True, indent=2) + "\n")

    def write(self, name: str, data: str):
        _atomic_write(os.path.join(self.out_dir, name), data)
        self.data["outputs"].append(name)

    def finalize(self, status: str = "complete"):
        self.data["status"] = status
        self.data["outputs"] = sorted(set(self.data["outputs"]))
        self._flush()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _experiment_from_args(args) -> ParsedConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides.setdefault("sequence", {})["seed"] = str(args.seed)
    if args.tol is not None:
        overrides.setdefault("quadrature", {})["abs_tol"] = str(args.tol)
    if args.max_grid is not None:
        overrides.setdefault("quadrature", {})["max_points"] = str(args.max_grid)
    if args.alpha_count is not None:
        overrides.setdefault("sweep", {})["alpha_count"] = str(args.alpha_count)
    if args.n is not None:
        overrides.setdefault("sweep", {})["n_values"] = args.n
    if args.symbol is not None:
        overrides.setdefault("symbol", {}).update({"kind": "trig", "coeffs": args.symbol}
                                                  if "=" in args.symbol
                                                  else {"kind": "preset", "preset": args.symbol})
    if args.function is not None:
        fn = args.function
        overrides.setdefault("function", {}).update({"kind": "poly", "coeffs": fn[len("poly:"):]}
                                                    if fn.startswith("poly:")
                                                    else {"kind": "preset", "preset": fn})
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    return parse_config(args.config, overrides)


def _out_dir(args, parsed: ParsedConfig | None = None) -> str:
    if args.out:
        return args.out
    if parsed and parsed.out_dir:
        return parsed.out_dir
    return "results"


def _warn_unconverged(command: str, N: int, diagnostics: dict):
    """Print a WARN line to stderr for each *converged* diagnostic that reads 0."""
    for key, value in sorted(diagnostics.items()):
        if "converged" in key and value == 0:
            print(f"WARN: {command} N={N} {key} = 0", file=sys.stderr)


def cmd_operator(args) -> int:
    if not args.zeros:
        raise ConfigError("--zeros is required for the operator subcommand")
    B = FiniteBlaschke(np.asarray(parse_zeros(args.zeros), dtype=complex))
    sym = parse_symbol(args.symbol or "c1=1,c-1=1")
    cfg = QuadratureConfig(abs_tol=args.tol or 1e-10,
                           max_points=args.max_grid or (1 << 20))
    T = build_truncated_toeplitz(B, sym, cfg)
    _warn_unconverged("operator", B.degree, {"converged": float(T.converged)})
    if args.out:
        manifest = Manifest(args.out, hashlib.sha256(
            f"operator|{args.zeros}|{args.symbol}".encode()).hexdigest(), args.seed or 0)
        manifest.write("operator.json", matrix_to_json(T.matrix))
        manifest.write("operator.csv", matrix_to_csv(T.matrix))
        manifest.finalize()
    else:
        sys.stdout.write(matrix_to_json(T.matrix))
    return 0


def cmd_clark(args) -> int:
    if not args.zeros:
        raise ConfigError("--zeros is required for the clark subcommand")
    B = FiniteBlaschke(np.asarray(parse_zeros(args.zeros), dtype=complex))
    a = float(args.alpha_angle or 0.0)
    mu = clark_measure(B, complex(math.cos(a), math.sin(a)))
    lines = ["alpha_angle,zeta_angle,weight"]
    for th, w in zip(mu.atom_angles, mu.weights):
        lines.append(f"{_fmt(a)},{_fmt(float(th))},{_fmt(float(w))}")
    csv_text = "\r\n".join(lines) + "\r\n"
    payload = {
        "alpha_angle": a,
        "atoms": [{"angle": float(th), "weight": float(w)}
                  for th, w in zip(mu.atom_angles, mu.weights)],
        "total_mass": mu.total_mass(),
    }
    json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        manifest = Manifest(args.out, hashlib.sha256(
            f"clark|{args.zeros}|{a}".encode()).hexdigest(), args.seed or 0)
        manifest.write("clark.csv", csv_text)
        manifest.write("clark.json", json_text)
        manifest.finalize()
    else:
        sys.stdout.write(csv_text)
    return 0


def _run_sweep(args, runner, stem: str) -> int:
    parsed = _experiment_from_args(args)
    out = _out_dir(args, parsed)
    manifest = Manifest(out, parsed.digest, parsed.experiment.seed)
    records = runner(parsed.experiment)
    manifest.write(f"{stem}.csv", records_to_csv(records))
    manifest.write(f"{stem}.json", records_to_json(records))
    manifest.finalize()
    for rec in records:
        _warn_unconverged(args.command, rec.N, rec.diagnostics)
    return 0


def cmd_szego(args) -> int:
    return _run_sweep(args, szego_gap, "szego")


def cmd_stz(args) -> int:
    return _run_sweep(args, stz_trace, "stz")


def cmd_angular(args) -> int:
    parsed = _experiment_from_args(args)
    out = _out_dir(args, parsed)
    manifest = Manifest(out, parsed.digest, parsed.experiment.seed)
    rows = angular_condition_a(parsed.experiment)
    lines = ["N,max,median,min"]
    for row in rows:
        lines.append(f"{row['N']},{_fmt(row['max'])},{_fmt(row['median'])},{_fmt(row['min'])}")
    manifest.write("angular_a.csv", "\r\n".join(lines) + "\r\n")
    opts = parsed.angular_options
    _, summary = angular_condition_b(parsed.experiment, J=opts["J"],
                                     grid_size=opts["grid_size"], thresholds=opts["thresholds"])
    manifest.write("angular_b.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    manifest.write("angular_a.json", json.dumps(rows, sort_keys=True, indent=2) + "\n")
    manifest.finalize()
    return 0


def cmd_lemmas(args) -> int:
    parsed = _experiment_from_args(args)
    cfg = parsed.experiment
    out = _out_dir(args, parsed)
    manifest = Manifest(out, parsed.digest, cfg.seed)
    failures = []

    hs = hs_approx_gap(cfg)
    manifest.write("hs_approx.csv", records_to_csv(hs))
    manifest.write("hs_approx.json", records_to_json(hs))
    for rec in hs:
        _warn_unconverged("lemmas", rec.N, rec.diagnostics)

    defect = product_defect_s1(cfg, SymbolRep.trig({2: 1}), SymbolRep.trig({-1: 1}))
    manifest.write("product_defect.csv", records_to_csv(defect))

    rank_one = product_defect_s1(cfg, SymbolRep.trig({1: 1}), SymbolRep.trig({-1: 1}))
    for rec in rank_one:
        if abs(rec.lhs.real - 1.0) > 1e-7:
            failures.append(f"rank-one trace norm at N={rec.N}: {rec.lhs.real!r}")

    if cfg.function.is_poly and cfg.symbol.is_trig:
        sdef = stz_defect_s1(cfg)
        manifest.write("stz_defect.csv", records_to_csv(sdef))
        for rec in sdef:
            _warn_unconverged("lemmas", rec.N, rec.diagnostics)

    report = fejer_suite(cfg)
    manifest.write("fejer.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    for row in report["per_n"]:
        if row["contraction_max"] > 1.0 + 1e-6:
            failures.append(f"averaging operator not contractive at N={row['N']}: "
                            f"{row['contraction_max']!r}")

    if failures:
        manifest.finalize("failed")
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    manifest.finalize()
    return 0


def cmd_disintegrate(args) -> int:
    if not args.zeros:
        raise ConfigError("--zeros is required for the disintegrate subcommand")
    B = FiniteBlaschke(np.asarray(parse_zeros(args.zeros), dtype=complex))
    sym = parse_symbol(args.symbol or "re_z")
    res = disintegration_check(sym, B, alpha_count=args.alpha_count or 16)
    payload = {
        "lhs": {"re": res.lhs.real, "im": res.lhs.imag},
        "rhs": {"re": res.rhs.real, "im": res.rhs.imag},
        "gap": res.gap,
        "alpha_count": res.alpha_count,
        "converged": res.converged,
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ttolab",
                                 description="truncated Toeplitz operator laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    handlers = {
        "operator": cmd_operator,
        "clark": cmd_clark,
        "szego": cmd_szego,
        "stz": cmd_stz,
        "angular": cmd_angular,
        "lemmas": cmd_lemmas,
        "disintegrate": cmd_disintegrate,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-grid", dest="max_grid", type=int)
        p.add_argument("--alpha-count", dest="alpha_count", type=int)
        p.add_argument("--zeros")
        p.add_argument("--symbol")
        p.add_argument("--function")
        p.add_argument("--n")
        p.add_argument("--alpha-angle", dest="alpha_angle", type=float)
        p.set_defaults(handler=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
