"""Configuration-driven command line front end.

Subcommands map onto the experiment modules and hand their outputs back
through one ``Run``: a run with a result directory writes a manifest naming
its outputs, and result CSV/JSON files are byte-identical across runs with
the same config and seed.  The config format is a flat sectioned
key-value document; see the README for the schema.  One parser per run takes
only the flags its subcommand reads, each read by the parser of its config key.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .blaschke import RULE_PARAMS, SEED, FiniteBlaschke, RuleParam, ZeroSequence
from .clark import clark_measure, disintegration_check
from .experiments import (
    ANGULAR_PARAMS,
    SWEEP_PARAMS,
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
from .quadrature import QUADRATURE_PARAMS, QuadratureConfig


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


def _key_parser(param: RuleParam):
    """The parser of a declared setting: its text as the type of its default
    (a tuple default takes a comma list), then its condition."""
    def parse(text: str):
        if isinstance(param.default, tuple):
            value = tuple(type(param.default[0])(tok) for tok in text.split(",") if tok.strip())
        else:
            value = type(param.default)(text)
        if not param.holds(value):
            raise ValueError(f"must be {param.words}, got {value!r}")
        return value
    return parse


_finite_float = _key_parser(RuleParam(0.0, math.isfinite, "finite"))


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

#: the parser of every config key; a flag's value goes through the parser of
#: the key it overrides (``FLAG_KEYS``)
_PARSERS = {
    "sequence": {"kind": str, "zeros": parse_zeros, **{name: _key_parser(p) for params in
                 ({"seed": SEED}, *RULE_PARAMS.values()) for name, p in params.items()}},
    "symbol": {"kind": str, "coeffs": partial(parse_symbol, kind="trig"),
               "preset": partial(parse_symbol, kind="preset")},
    "function": {"kind": str, "coeffs": partial(parse_function, kind="poly"),
                 "preset": partial(parse_function, kind="preset")},
    "sweep": {name: _key_parser(p) for name, p in SWEEP_PARAMS.items()},
    "quadrature": {name: _key_parser(p) for name, p in QUADRATURE_PARAMS.items()},
    "angular": {name: _key_parser(p) for name, p in ANGULAR_PARAMS.items()},
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


def _given(sections: dict, section: str, keys=None) -> dict:
    """The keys of the section that the config gives (of ``keys``, if set), parsed."""
    return {key: _parse_key(sections, section, key) for key in sections.get(section, {})
            if keys is None or key in keys}


def _refuse_unread(sections: dict, section: str, kind: str, read) -> None:
    """Refuse a key of the section that its kind does not read."""
    for key in sections.get(section, {}):
        if key not in read:
            raise ConfigError(f"{section}.{key} is not read by {kind} {section}s")


def _sequence_from_section(sections: dict) -> ZeroSequence:
    seed = _given(sections, "sequence", ("seed",))
    kind = _parse_key(sections, "sequence", "kind")
    if kind is None:
        raise ConfigError("sequence.kind is required")
    read = ("zeros",) if kind == "explicit" else RULE_PARAMS.get(kind)
    if read is not None:  # every kind reads the seed
        _refuse_unread(sections, "sequence", kind, ("kind", "seed", *read))
    if kind == "explicit":
        zeros = _parse_key(sections, "sequence", "zeros")
        if zeros is None:
            raise ConfigError("sequence.zeros is required for explicit sequences")
        return ZeroSequence.from_points(zeros, **seed)
    return ZeroSequence(kind, _given(sections, "sequence", read or ()), **seed)  # an unknown tag fails here


def _text_from_section(sections: dict, section: str, default_kind: str):
    """The symbol or function of a [symbol] or [function] section (None if
    no text is given).  Its kind (``default_kind`` if unset, 'preset' if a
    preset is given) names the one text key that it may hold, read by that key's parser."""
    sec = sections.get(section, {})
    kind = sec.get("kind", "preset" if "preset" in sec else default_kind)
    if kind not in ("preset", _COEFF_KINDS[section]):
        raise ConfigError(f"unknown {section}.kind {kind!r}")
    key = "preset" if kind == "preset" else "coeffs"
    if key == "coeffs" and key not in sec:
        raise ConfigError(f"{section}.coeffs is required for {kind} {section}s")
    _refuse_unread(sections, section, kind, ("kind", key))
    return _parse_key(sections, section, key)


def _quadrature_from_section(sections: dict) -> QuadratureConfig:
    """The [quadrature] keys given, over the QuadratureConfig defaults."""
    values = _given(sections, "quadrature")
    try:
        return QuadratureConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from exc


@dataclass(frozen=True)
class ParsedConfig:
    experiment: ExperimentConfig
    out_dir: str | None
    canonical: str


def canonical_text(sections: dict) -> str:
    parts = []
    for name in sorted(sections):
        parts.append(f"[{name}]")
        for key in sorted(sections[name]):
            parts.append(f"{key} = {sections[name][key]}")
    return "\n".join(parts) + "\n"


def parse_config(path: str, overrides: dict | None = None, command: str | None = None) -> ParsedConfig:
    """Load, validate and canonicalize an experiment config file for the
    subcommand ``command``: angular sums angular.j_terms zeros, given or not."""
    sections = _read_sections(path)
    for section, values in (overrides or {}).items():
        if "kind" in values:  # a --symbol or --function text replaces its whole section
            sections[section] = {}
        sections.setdefault(section, {}).update(values)

    # only the keys given: the library holds the defaults
    try:
        sequence = _sequence_from_section(sections)
        symbol = _text_from_section(sections, "symbol", "trig") or parse_symbol("cos")
        function = _text_from_section(sections, "function", "poly" if sections.get("function") else "preset")
        experiment = ExperimentConfig(sequence, symbol, **({} if function is None else {"function": function}),
                                      **_given(sections, "sweep"), **_given(sections, "angular"),
                                      quadrature=_quadrature_from_section(sections))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    zeros = sequence.explicit_zeros
    j_terms = experiment.j_terms if command == "angular" or "j_terms" in sections.get("angular", {}) else 0
    for key, count in (("sweep.n_values", experiment.n_values[-1]), ("angular.j_terms", j_terms)):
        if zeros and count > len(zeros):
            raise ConfigError(f"{key}: explicit sequence has {len(zeros)} zeros, {count} requested")
    return ParsedConfig(experiment=experiment, out_dir=_parse_key(sections, "output", "dir"),
                        canonical=canonical_text(sections))


# ---------------------------------------------------------------------------
# runs and their outputs
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _file_text(name: str, data) -> str:
    """The text of a file: CSV rows for a .csv name (RFC 4180, each float
    field its repr), else ``data`` as JSON."""
    if not name.endswith(".csv"):
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(data)
    return buf.getvalue()


def _record_data(name: str, records: list[ConvergenceRecord]):
    """Sweep records as the rows of a .csv file, else as a JSON payload."""
    if not name.endswith(".csv"):
        return [{"N": r.N, "lhs": {"re": r.lhs.real, "im": r.lhs.imag}, "rhs": {"re": r.rhs.real, "im": r.rhs.imag},
                 "gap": r.gap, "diagnostics": r.diagnostics} for r in records]
    keys = sorted({k for r in records for k in r.diagnostics})
    return [["N", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "gap", *keys]] + [
        [r.N, r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag, r.gap, *(r.diagnostics.get(k, "") for k in keys)]
        for r in records]


class Manifest:
    """Run manifest: flushed with status 'running' before the work starts, then with its end status."""

    def __init__(self, out_dir: str, identity: str, seed: int):
        self.out_dir = out_dir
        self.data = {"config_hash": hashlib.sha256(identity.encode()).hexdigest(), "version": __version__,
                     "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "seed": seed, "outputs": []}

    def write(self, name: str, data: str):
        _atomic_write(os.path.join(self.out_dir, name), data)
        self.data["outputs"].append(name)

    def flush(self, status: str):
        self.data["status"] = status
        self.data["outputs"] = sorted(set(self.data["outputs"]))
        os.makedirs(self.out_dir, exist_ok=True)
        _atomic_write(os.path.join(self.out_dir, "manifest.json"), _file_text("manifest.json", self.data))


class Run:
    """The one route from a subcommand's work to its outputs: its files, its
    WARN lines (a ``*converged*`` diagnostic that reads 0) and its failed
    checks (``failures``), under the result directory ``out`` or to stdout."""

    def __init__(self, command: str, out: str | None = None, identity: str = "", seed: int = SEED.default):
        self.command, self.shown, self.warnings, self.failures = command, None, [], []
        self.manifest = Manifest(out, identity, seed) if out else None

    def file(self, name: str, data):
        """Take a file as it is formed: CSV rows or a JSON payload."""
        text = _file_text(name, data)
        if self.manifest is not None:
            self.manifest.write(name, text)
        self.shown = self.shown or text

    def records(self, records: list[ConvergenceRecord], *names: str):
        """Take sweep records as each of the files ``names``, and their WARN lines."""
        for name in names:
            self.file(name, _record_data(name, records))
        for rec in records:
            self.warn(rec.N, rec.diagnostics)

    def warn(self, N: int, diagnostics: dict):
        self.warnings += [f"WARN: {self.command} N={N} {key} = 0" for key, value in sorted(diagnostics.items())
                          if "converged" in key and value == 0]

    def __call__(self, work) -> int:
        """Run ``work()`` and return the exit code: 1 if a check failed, else
        0.  The manifest ends 'failed' if the work raised or a check failed,
        else 'complete'; without one the first file goes to stdout.  The WARN
        lines, then the FAIL lines, go to stderr, also when the work raised."""
        if self.manifest is not None:
            self.manifest.flush("running")
        status = "failed"
        try:
            work()
            status = "failed" if self.failures else "complete"
        finally:
            for line in self.warnings + [f"FAIL: {message}" for message in self.failures]:
                print(line, file=sys.stderr)
            if self.manifest is not None:
                self.manifest.flush(status)
        if self.manifest is None:
            sys.stdout.write(self.shown)
        return 1 if self.failures else 0


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


def _blaschke(sections: dict) -> FiniteBlaschke:
    return FiniteBlaschke(np.asarray(_parse_key(sections, "sequence", "zeros"), dtype=complex))


def _sweep(args) -> tuple[ExperimentConfig, Run]:
    """A sweep's config under its flags' overrides, and its run."""
    overrides = _flag_sections(args)
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    parsed = parse_config(args.config, overrides, args.command)
    out = args.out or parsed.out_dir or "results"
    return parsed.experiment, Run(args.command, out, parsed.canonical, parsed.experiment.sequence.seed)


def cmd_operator(args) -> int:
    sections = _flag_sections(args, {"symbol": "c1=1,c-1=1"})
    B, sym = _blaschke(sections), _text_from_section(sections, "symbol", "trig")
    quad = _quadrature_from_section(sections)
    run = Run(args.command, args.out, "operator|" + json.dumps(sections, sort_keys=True))

    def work():
        T = build_truncated_toeplitz(B, sym, quad)
        run.warn(B.degree, {"converged": float(T.converged)})
        entries = np.stack([T.matrix.real, T.matrix.imag], axis=-1).tolist()
        run.file("operator.json", {"dim": len(entries), "entries_row_major": entries})
        run.file("operator.csv", [["i", "j", "re", "im"]] + [[i, j, *v] for i, row in enumerate(entries)
                                                             for j, v in enumerate(row)])
    return run(work)


def cmd_clark(args) -> int:
    B = _blaschke(_flag_sections(args))
    a = 0.0 if args.alpha_angle is None else _flag_value("alpha_angle", _finite_float, args.alpha_angle)
    run = Run(args.command, args.out, f"clark|{args.zeros}|{a}")

    def work():
        mu = clark_measure(B, complex(math.cos(a), math.sin(a)))
        atoms = list(zip(mu.atom_angles.tolist(), mu.weights.tolist()))
        run.file("clark.csv", [["alpha_angle", "zeta_angle", "weight"]] + [[a, th, w] for th, w in atoms])
        run.file("clark.json", {"alpha_angle": a, "atoms": [{"angle": th, "weight": w} for th, w in atoms],
                                "total_mass": mu.total_mass()})
    return run(work)


def cmd_szego(args) -> int:
    cfg, run = _sweep(args)
    return run(lambda: run.records(szego_gap(cfg), "szego.csv", "szego.json"))


def cmd_stz(args) -> int:
    cfg, run = _sweep(args)
    return run(lambda: run.records(stz_trace(cfg), "stz.csv", "stz.json"))


def cmd_angular(args) -> int:
    cfg, run = _sweep(args)

    def work():
        rows = angular_condition_a(cfg)
        run.file("angular_a.csv", [["N", "max", "median", "min"]] +
                 [[row["N"], row["max"], row["median"], row["min"]] for row in rows])
        run.file("angular_b.json", angular_condition_b(cfg))
        run.file("angular_a.json", rows)
    return run(work)


def cmd_lemmas(args) -> int:
    cfg, run = _sweep(args)

    def work():
        run.records(hs_approx_gap(cfg), "hs_approx.csv", "hs_approx.json")
        run.records(product_defect_s1(cfg, SymbolRep.trig({2: 1}), SymbolRep.trig({-1: 1})), "product_defect.csv")
        rank_one = product_defect_s1(cfg, SymbolRep.trig({1: 1}), SymbolRep.trig({-1: 1}))
        run.failures += [f"rank-one trace norm at N={rec.N}: {rec.lhs.real!r}"
                         for rec in rank_one if abs(rec.lhs.real - 1.0) > 1e-7]
        if cfg.function.is_poly and cfg.symbol.is_trig:
            run.records(stz_defect_s1(cfg), "stz_defect.csv")
        report = fejer_suite(cfg)
        run.file("fejer.json", report)
        run.failures += [f"averaging operator not contractive at N={row['N']}: {row['contraction_max']!r}"
                         for row in report["per_n"] if row["contraction_max"] > 1.0 + 1e-6]
    return run(work)


def cmd_disintegrate(args) -> int:
    sections = _flag_sections(args, {"symbol": "re_z"})
    B, sym, sweep = _blaschke(sections), _text_from_section(sections, "symbol", "trig"), _given(sections, "sweep")
    run = Run(args.command)

    def work():
        res = disintegration_check(sym, B, **sweep)
        run.warn(B.degree, {"converged": float(res.converged)})
        run.file("disintegrate.json", {"lhs": {"re": res.lhs.real, "im": res.lhs.imag},
                                       "rhs": {"re": res.rhs.real, "im": res.rhs.imag},
                                       "gap": res.gap, "alpha_count": res.alpha_count, "converged": res.converged})
    return run(work)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the flags each subcommand reads, as text for the parsers above; --zeros is required
_SWEEP = ("--config", "--out", "--seed", "--tol", "--max-grid", "--alpha-count", "--symbol", "--function", "--n")
COMMANDS = {
    "operator": ("--zeros", "--symbol", "--tol", "--max-grid", "--out"),
    "clark": ("--zeros", "--alpha-angle", "--out"),
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
