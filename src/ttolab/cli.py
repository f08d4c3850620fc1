"""Configuration-driven command line front end.

Subcommands map onto the experiment modules; every run writes a manifest
naming its outputs, and result CSV/JSON files are byte-identical across runs
with the same config and seed.  The config format is a flat sectioned
key-value document; see the README for the schema.  One parser per run takes
only the flags its subcommand reads, each read by the parser of its config key.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial

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
        value = complex(t)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise ConfigError(f"{text!r} is not finite")
    return value


def parse_zeros(text: str) -> list[complex]:
    pts = [parse_complex(tok) for tok in text.split(",") if tok.strip()]
    if not pts or max(map(abs, pts)) >= 1.0:
        raise ConfigError(f"need zeros in the open unit disk, got {text!r}")
    return pts


def _text_kind(section: str, text: str) -> str:
    """Kind of --symbol or --function text: c<k>=<value> pairs are a trig
    symbol, poly:<coefficients> a polynomial, other text a preset name."""
    coeffs = "=" in text if section == "symbol" else text.startswith("poly:")
    return _COEFF_KINDS[section] if coeffs else "preset"


def _preset(factory, name: str):
    try:
        return factory(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_symbol(text: str, kind: str | None = None) -> SymbolRep:
    """A preset name, or the c<k>=<value> pairs of a trig polynomial with no
    frequency twice; ``kind`` ('preset' or 'trig') insists on one form."""
    text = text.strip()
    if (kind or _text_kind("symbol", text)) == "preset":
        return _preset(SymbolRep.preset, text)
    coeffs = {}
    for tok in filter(None, map(str.strip, text.split(","))):
        key, _, val = tok.partition("=")
        if not key.startswith("c"):
            raise ConfigError(f"symbol coefficient {tok!r} must look like c<k>=<value>")
        try:
            k = int(key[1:])
        except ValueError as exc:
            raise ConfigError(f"bad frequency in {tok!r}") from exc
        if k in coeffs:
            raise ConfigError(f"frequency {k} given twice in {text!r}")
        coeffs[k] = parse_complex(val)
    return SymbolRep.trig(coeffs, name=text)


def parse_function(text: str, kind: str | None = None) -> ScalarFunction:
    """A preset name, or poly:<c0>,<c1>,... with the constant term first;
    ``kind`` ('preset' or 'poly', whose text may omit the poly: mark) insists
    on one form."""
    text = text.strip()
    if (kind or _text_kind("function", text)) == "preset":
        return _preset(ScalarFunction.preset, text)
    coeffs = [parse_complex(tok) for tok in text.removeprefix("poly:").split(",") if tok.strip()]
    if not coeffs:
        raise ConfigError(f"no polynomial coefficients in {text!r}")
    return ScalarFunction.poly(coeffs, name=text)


def _checked(convert, holds, what: str):
    """A parser that converts the text, then insists that ``holds(value)``."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_power_of_two = _checked(int, lambda v: v >= 1 and not v & (v - 1), "a power of two")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_finite_float = _checked(float, math.isfinite, "finite")
_unit_interval = _checked(float, lambda v: 0.0 < v < 1.0, "in (0,1)")
_phase_rule = _checked(str, PHASE_RULES.__contains__, f"one of {', '.join(PHASE_RULES)}")
_n_values = _checked(lambda text: tuple(int(tok) for tok in text.split(",") if tok.strip()),
                     lambda ns: ns and ns[0] >= 1 and all(a < b for a, b in zip(ns, ns[1:])),
                     "a strictly increasing list of positive integers")


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

#: the parser of every config key; a flag's value goes through the parser of
#: the key it overrides (``FLAG_KEYS``)
_PARSERS = {
    "sequence": {"kind": str, "seed": int, "r": _unit_interval, "phase_rule": _phase_rule,
                 "lam": _unit_interval, "gamma": _finite_float, "directions": _positive_int,
                 "zeros": parse_zeros},
    "symbol": {"kind": str, "coeffs": partial(parse_symbol, kind="trig"),
               "preset": partial(parse_symbol, kind="preset")},
    "function": {"kind": str, "coeffs": partial(parse_function, kind="poly"),
                 "preset": partial(parse_function, kind="preset")},
    "sweep": {"n_values": _n_values, "alpha_count": _power_of_two},
    "quadrature": {"initial_points": _power_of_two, "max_points": _power_of_two,
                   "abs_tol": _positive_float, "rel_tol": _positive_float},
    "angular": {"j_terms": _positive_int, "grid_size": _positive_int,
                "thresholds": lambda text: tuple(float(t) for t in text.split(","))},
    "output": {"dir": str},
}

#: the kind of a [symbol] or [function] section whose text is its coeffs key
#: (the other kind, preset, holds its text in the preset key)
_COEFF_KINDS = {"symbol": "trig", "function": "poly"}


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
            if current not in _PARSERS:
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
        if key not in _PARSERS[current]:
            raise ConfigError(f"unknown key {current}.{key}")
        if (current, key) in seen:
            raise ConfigError(f"duplicate key {current}.{key} at lines {seen[current, key]} and {ln}")
        seen[current, key] = ln
        sections[current][key] = val
    return sections


def _parse_key(sections: dict, section: str, key: str, default=None):
    """Parse one value with its key's parser, naming its key path if it is malformed."""
    text = sections.get(section, {}).get(key)
    if text is None:
        return default
    try:
        return _PARSERS[section][key](text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


#: the parameters of each generator tag but explicit, with their defaults
_GENERATOR_PARAMS = {
    "uniform_zero": {}, "constant_modulus": {"r": 0.5, "phase_rule": "equispaced"},
    "alternating_3k": {"lam": 0.5}, "frostman_fast": {"directions": 4},
    "dense_nonblaschke": {"gamma": 0.6180339887},
}


def _sequence_from_section(sections: dict, seed: int) -> ZeroSequence:
    kind = _parse_key(sections, "sequence", "kind")
    if kind is None:
        raise ConfigError("sequence.kind is required")
    if kind == "explicit":
        zeros = _parse_key(sections, "sequence", "zeros")
        if zeros is None:
            raise ConfigError("sequence.zeros is required for explicit sequences")
        return ZeroSequence.from_points(zeros)
    params = {key: _parse_key(sections, "sequence", key, default)
              for key, default in _GENERATOR_PARAMS.get(kind, {}).items()}
    return ZeroSequence(kind, params, seed=seed)  # an unknown tag fails here, listing the tags


def _text_from_section(sections: dict, section: str, default_kind: str, preset: str):
    """The symbol or function of a [symbol] or [function] section.  Its kind
    (``default_kind`` if unset, 'preset' if only a preset is given) names the
    key that holds its text, and that key's parser reads it."""
    sec = sections.get(section, {})
    kind = sec.get("kind", "preset" if "preset" in sec else default_kind)
    if kind not in ("preset", _COEFF_KINDS[section]):
        raise ConfigError(f"unknown {section}.kind {kind!r}")
    key = "preset" if kind == "preset" else "coeffs"
    if key == "coeffs" and key not in sec:
        raise ConfigError(f"{section}.coeffs is required for {kind} {section}s")
    return _parse_key(sections, section, key, _PARSERS[section]["preset"](preset))


def _quadrature_from_section(sections: dict) -> QuadratureConfig:
    """The [quadrature] keys given, over the QuadratureConfig defaults."""
    values = {key: _parse_key(sections, "quadrature", key) for key in sections.get("quadrature", {})}
    try:
        return QuadratureConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from exc


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

    seed = _parse_key(sections, "sequence", "seed", 0)
    try:
        experiment = ExperimentConfig(
            sequence=_sequence_from_section(sections, seed),
            symbol=_text_from_section(sections, "symbol", "trig", "cos"),
            function=_text_from_section(sections, "function",
                                        "poly" if sections.get("function") else "preset", "identity"),
            n_values=_parse_key(sections, "sweep", "n_values", (8, 16, 32, 64)),
            alpha_count=_parse_key(sections, "sweep", "alpha_count", 32),
            quadrature=_quadrature_from_section(sections),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    angular_options = {
        "J": _parse_key(sections, "angular", "j_terms", 10 ** 5),
        "grid_size": _parse_key(sections, "angular", "grid_size", 64),
        "thresholds": _parse_key(sections, "angular", "thresholds", (1e2, 1e3)),
    }
    text = canonical_text(sections)
    return ParsedConfig(
        experiment=experiment,
        out_dir=_parse_key(sections, "output", "dir"),
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

#: the config key whose parser reads each flag's value: --symbol and
#: --function set the keys of their section that their text's kind names,
#: --config, --out and --alpha-angle have no key
FLAG_KEYS = {
    "seed": ("sequence", "seed"), "zeros": ("sequence", "zeros"),
    "tol": ("quadrature", "abs_tol"), "max_grid": ("quadrature", "max_points"),
    "alpha_count": ("sweep", "alpha_count"), "n": ("sweep", "n_values"),
    "symbol": ("symbol", None), "function": ("function", None),
}


def _flag_value(dest: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"--{dest.replace('_', '-')}: {exc}") from exc


def _flag_sections(args, defaults: dict | None = None) -> dict:
    """Config entries of the flags given, over ``defaults`` (flag text by
    flag).  Each value is read here by its key's parser too, so that a
    malformed one names its flag."""
    sections: dict = {}
    for dest, (section, key) in FLAG_KEYS.items():
        text = getattr(args, dest, None)
        if text is None:
            text = (defaults or {}).get(dest)
        if text is None:
            continue
        entries = {key: text}
        if key is None:  # the kind names the key; [function] coeffs drop the poly: mark
            kind = _text_kind(section, text)
            entries = {"kind": kind, "preset" if kind == "preset" else "coeffs": text.removeprefix("poly:")}
        for name, value in entries.items():
            _flag_value(dest, _PARSERS[section][name], value)
        sections.setdefault(section, {}).update(entries)
    return sections


def _sweep(args) -> tuple[ParsedConfig, Manifest]:
    """A sweep's config under its flags' overrides, and its run manifest."""
    overrides = _flag_sections(args)
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    parsed = parse_config(args.config, overrides)
    out = args.out or parsed.out_dir or "results"
    return parsed, Manifest(out, parsed.digest, parsed.experiment.seed)


def _warn_unconverged(command: str, N: int, diagnostics: dict):
    """Print a WARN line to stderr for each *converged* diagnostic that reads 0."""
    for key, value in sorted(diagnostics.items()):
        if "converged" in key and value == 0:
            print(f"WARN: {command} N={N} {key} = 0", file=sys.stderr)


def _write_or_print(args, sections: dict, identity: str, files: dict, shown: str) -> int:
    """Write the files under --out with a manifest hashed from ``identity``,
    or print ``shown`` without one."""
    if not args.out:
        sys.stdout.write(shown)
        return 0
    manifest = Manifest(args.out, hashlib.sha256(identity.encode()).hexdigest(),
                        _parse_key(sections, "sequence", "seed", 0))
    for name, data in files.items():
        manifest.write(name, data)
    manifest.finalize()
    return 0


def cmd_operator(args) -> int:
    sections = _flag_sections(args, {"symbol": "c1=1,c-1=1"})
    B = FiniteBlaschke(np.asarray(_parse_key(sections, "sequence", "zeros"), dtype=complex))
    sym = _text_from_section(sections, "symbol", "trig", "cos")
    T = build_truncated_toeplitz(B, sym, _quadrature_from_section(sections))
    _warn_unconverged("operator", B.degree, {"converged": float(T.converged)})
    json_text = matrix_to_json(T.matrix)
    return _write_or_print(args, sections, "operator|" + json.dumps(sections, sort_keys=True),
                           {"operator.json": json_text, "operator.csv": matrix_to_csv(T.matrix)},
                           json_text)


def cmd_clark(args) -> int:
    sections = _flag_sections(args)
    B = FiniteBlaschke(np.asarray(_parse_key(sections, "sequence", "zeros"), dtype=complex))
    a = 0.0 if args.alpha_angle is None else _flag_value("alpha_angle", _finite_float, args.alpha_angle)
    mu = clark_measure(B, complex(math.cos(a), math.sin(a)))
    rows = [f"{_fmt(a)},{_fmt(float(th))},{_fmt(float(w))}" for th, w in zip(mu.atom_angles, mu.weights)]
    csv_text = "\r\n".join(["alpha_angle,zeta_angle,weight"] + rows) + "\r\n"
    payload = {
        "alpha_angle": a,
        "atoms": [{"angle": float(th), "weight": float(w)}
                  for th, w in zip(mu.atom_angles, mu.weights)],
        "total_mass": mu.total_mass(),
    }
    json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _write_or_print(args, sections, f"clark|{args.zeros}|{a}",
                           {"clark.csv": csv_text, "clark.json": json_text}, csv_text)


def _run_sweep(args, runner, stem: str) -> int:
    parsed, manifest = _sweep(args)
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
    parsed, manifest = _sweep(args)
    rows = angular_condition_a(parsed.experiment)
    lines = [f"{row['N']},{_fmt(row['max'])},{_fmt(row['median'])},{_fmt(row['min'])}" for row in rows]
    manifest.write("angular_a.csv", "\r\n".join(["N,max,median,min"] + lines) + "\r\n")
    opts = parsed.angular_options
    _, summary = angular_condition_b(parsed.experiment, J=opts["J"],
                                     grid_size=opts["grid_size"], thresholds=opts["thresholds"])
    manifest.write("angular_b.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    manifest.write("angular_a.json", json.dumps(rows, sort_keys=True, indent=2) + "\n")
    manifest.finalize()
    return 0


def cmd_lemmas(args) -> int:
    parsed, manifest = _sweep(args)
    cfg = parsed.experiment
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
    sections = _flag_sections(args, {"symbol": "re_z", "alpha_count": "16"})
    B = FiniteBlaschke(np.asarray(_parse_key(sections, "sequence", "zeros"), dtype=complex))
    sym = _text_from_section(sections, "symbol", "trig", "cos")
    res = disintegration_check(sym, B, alpha_count=_parse_key(sections, "sweep", "alpha_count"))
    payload = {"lhs": {"re": res.lhs.real, "im": res.lhs.imag},
               "rhs": {"re": res.rhs.real, "im": res.rhs.imag},
               "gap": res.gap, "alpha_count": res.alpha_count, "converged": res.converged}
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the flags each subcommand reads, as text for the parsers above; --zeros is required
_SWEEP = ("--config", "--out", "--seed", "--tol", "--max-grid", "--alpha-count", "--symbol", "--function", "--n")
COMMANDS = {
    "operator": ("--zeros", "--symbol", "--tol", "--max-grid", "--out", "--seed"),
    "clark": ("--zeros", "--alpha-angle", "--out", "--seed"),
    "szego": _SWEEP, "stz": _SWEEP, "angular": _SWEEP, "lemmas": _SWEEP,
    "disintegrate": ("--zeros", "--symbol", "--alpha-count"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The subcommand, then the flags ``command`` reads; the epilog lists every subcommand's."""
    epilog = "".join(f"  {name:<13} {' '.join(flags)}\n" for name, flags in COMMANDS.items())
    # no abbreviations: with fewer flags, more prefixes would be unique
    ap = argparse.ArgumentParser(prog="ttolab", usage="%(prog)s <subcommand> [--flag value ...]",
                                 description="truncated Toeplitz operator laboratory", allow_abbrev=False,
                                 epilog="the flags each subcommand reads:\n" + epilog,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=COMMANDS)
    for flag in COMMANDS.get(command, ()):
        ap.add_argument(flag, required=flag == "--zeros")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # cmd_<subcommand>, looked up here so that a wrapper set in its place runs
        return globals()["cmd_" + args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
