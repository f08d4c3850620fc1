"""Correctness checks on the result files of one benchmark sample.

A record is one (subcommand, N) pair.  It fails when the subcommand exited
non-zero, when a convergence flag in one of its rows is not 1, when a
closed-form oracle disagrees, when its rows are missing, or when its result
files differ from those of the first sample of the run.

Oracles, for a product with B(0) = 0, symbol z + conj(z) and f(x) = x^2,
with s = Re sum_j lambda_j^2 over the N zeros:

* szego: lhs = Tr T^2 / N = (2 s + 2 (N - 1)) / N, rhs = 2 + 2 s / N, so the
  gap is 2 / N;
* stz: rhs = integral of (2 cos t)^2 dm = 2; when every zero sits at the
  origin 1/|B'| = 1/N, and the gap is 2 / N as well;
* angular: every Clark weight lies in (0, 1], so 0 < min <= median <= max <= 1;
* lemmas: the Hilbert-Schmidt gap equals its averaging-operator form
  (lhs = rhs) and the averaging operator is a contraction.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

# Matches the default quadrature rel_tol (1e-9) of the workload configs.
TOL = 1e-9
CONTRACTION_SLACK = 1e-6

LEMMA_TABLES = ("hs_approx.csv", "product_defect.csv", "stz_defect.csv")


def closed_forms(zeros: np.ndarray) -> dict:
    """Exact szego/stz values for symbol z + conj(z) and f = x^2."""
    if zeros[0] != 0:
        raise ValueError("the closed forms need a product with B(0) = 0")
    N = len(zeros)
    s = float(np.sum(zeros * zeros).real)
    forms = {"szego_lhs": (2.0 * s + 2.0 * (N - 1)) / N, "szego_rhs": 2.0 + 2.0 * s / N,
             "szego_gap": 2.0 / N, "stz_rhs": 2.0}
    if not np.any(zeros):
        forms["stz_gap"] = 2.0 / N
    return forms


def _flags(row: dict) -> list[str]:
    return [f"{k} = {v}" for k, v in row.items() if "converged" in k and float(v) != 1.0]


def _near(row: dict, key: str, want: float) -> list[str]:
    got = float(row[key])
    return [] if abs(got - want) <= TOL else [f"{key} = {got!r}, closed form {want!r}"]


def check_szego(row: dict, forms: dict) -> list[str]:
    return (_flags(row) + _near(row, "lhs_re", forms["szego_lhs"])
            + _near(row, "rhs_re", forms["szego_rhs"]) + _near(row, "gap", forms["szego_gap"])
            + _near(row, "lhs_im", 0.0) + _near(row, "rhs_im", 0.0))


def check_stz(row: dict, forms: dict) -> list[str]:
    problems = _flags(row) + _near(row, "rhs_re", forms["stz_rhs"]) + _near(row, "rhs_im", 0.0)
    if "stz_gap" in forms:
        problems += _near(row, "gap", forms["stz_gap"])
    return problems


def check_angular(row: dict) -> list[str]:
    lo, mid, hi = float(row["min"]), float(row["median"]), float(row["max"])
    return [] if 0.0 < lo <= mid <= hi <= 1.0 else [f"weights min/median/max {lo}/{mid}/{hi}"]


def check_lemmas(rows: dict) -> list[str]:
    hs = rows["hs_approx.csv"]
    problems = _near(hs, "lhs_re", float(hs["rhs_re"]))
    for name in LEMMA_TABLES:
        problems += _flags(rows[name])
    if rows["fejer"]["contraction_max"] > 1.0 + CONTRACTION_SLACK:
        problems.append(f"contraction_max = {rows['fejer']['contraction_max']!r}")
    return problems


def _rows_by_n(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {int(row["N"]): row for row in csv.DictReader(fh)}


def _command_rows(out_dir: str, cmd: str) -> dict:
    """Rows of the subcommand's result files, keyed by N."""
    if cmd == "szego":
        return _rows_by_n(os.path.join(out_dir, "szego.csv"))
    if cmd == "stz":
        return _rows_by_n(os.path.join(out_dir, "stz.csv"))
    if cmd == "angular":
        return _rows_by_n(os.path.join(out_dir, "angular_a.csv"))
    tables = {name: _rows_by_n(os.path.join(out_dir, name)) for name in LEMMA_TABLES}
    with open(os.path.join(out_dir, "fejer.json"), encoding="utf-8") as fh:
        tables["fejer"] = {int(row["N"]): row for row in json.load(fh)["per_n"]}
    ns = set.intersection(*(set(t) for t in tables.values()))
    return {n: {name: t[n] for name, t in tables.items()} for n in ns}


def check_record(cmd: str, row: dict, zeros: np.ndarray) -> list[str]:
    if cmd == "szego":
        return check_szego(row, closed_forms(zeros))
    if cmd == "stz":
        return check_stz(row, closed_forms(zeros))
    if cmd == "angular":
        return check_angular(row)
    return check_lemmas(row)


def record_problems(out_root: str, commands, exit_codes: dict, zeros_by_n: dict) -> dict:
    """Problems per (subcommand, N) record of one sample; an empty list passes."""
    problems = {}
    for cmd in commands:
        try:
            rows = _command_rows(os.path.join(out_root, cmd), cmd)
        except (OSError, KeyError, ValueError) as exc:
            rows, missing = {}, f"unreadable results: {exc}"
        else:
            missing = "no row for this N"
        for n, zeros in zeros_by_n.items():
            found = []
            if exit_codes.get(cmd) != 0:
                found.append(f"exit code {exit_codes.get(cmd)}")
            if n in rows:
                found += check_record(cmd, rows[n], zeros)
            else:
                found.append(missing)
            problems[(cmd, n)] = found
    return problems


def output_hashes(out_root: str, commands) -> dict:
    """Per subcommand, SHA-256 of each result file; the manifest holds a
    timestamp and is left out."""
    hashes = {}
    for cmd in commands:
        cmd_dir = os.path.join(out_root, cmd)
        hashes[cmd] = {}
        for name in sorted(os.listdir(cmd_dir)) if os.path.isdir(cmd_dir) else []:
            if name != "manifest.json":
                with open(os.path.join(cmd_dir, name), "rb") as fh:
                    hashes[cmd][name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def oracle_rejects_corruption(zeros: np.ndarray) -> bool:
    """Self-test: an exact szego record passes and the same record with its
    rhs moved by 1e-6 fails."""
    forms = closed_forms(zeros)
    exact = {"lhs_re": repr(forms["szego_lhs"]), "lhs_im": "0.0",
             "rhs_re": repr(forms["szego_rhs"]), "rhs_im": "0.0",
             "gap": repr(forms["szego_gap"]), "build_converged": "1.0"}
    corrupted = dict(exact, rhs_re=repr(forms["szego_rhs"] + 1e-6))
    return not check_szego(exact, forms) and bool(check_szego(corrupted, forms))
