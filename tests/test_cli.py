import argparse
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ttolab.cli as cli
from ttolab.cli import (
    COMMANDS,
    ConfigError,
    build_parser,
    main,
    parse_complex,
    parse_config,
    parse_function,
    parse_symbol,
    parse_zeros,
)
from ttolab.blaschke import ZeroSequence
from ttolab.experiments import ANGULAR_PARAMS, SWEEP_PARAMS, ExperimentConfig
from ttolab.quadrature import QUADRATURE_PARAMS, QuadratureConfig

MINIMAL = """
[sequence]
kind = uniform_zero

[symbol]
kind = preset
preset = cos

[function]
kind = preset
preset = square

[sweep]
n_values = 8,16,32,64
"""


#: an explicit list of three zeros
EXPLICIT_THREE = "[sequence]\nkind = explicit\nzeros = 0,0.5,0.3i\n[symbol]\npreset = cos\n"

#: max_points = 512 starves the sampled 1/|B'| build next to frostman zeros
#: at the 1 - 1e-6 cap: stz and the lemma suite's stz_defect rows warn at N = 8 and 32
STARVED_FROSTMAN = ("[sequence]\nkind = frostman_fast\n[symbol]\npreset = cos\n"
                    "[sweep]\nn_values = 8,32\n[quadrature]\nmax_points = 512\n")

#: zeros one ulp inside the circle, as few zeros and terms as the list holds
EXPLICIT_NEAR_CIRCLE = ("[sequence]\nkind = explicit\nzeros = 0,0.9999999999999999,0.9999999999999999i\n"
                        "[symbol]\npreset = cos\n[sweep]\nn_values = 3\n[angular]\nj_terms = 3\n")


@pytest.fixture
def minimal_cfg(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(MINIMAL)
    return str(path)


class TestValueParsers:
    def test_complex_with_i_suffix(self):
        assert parse_complex("0.3i") == 0.3j
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("-0.5") == -0.5

    def test_zeros(self):
        assert parse_zeros("0,0.5,0.3i") == [0, 0.5, 0.3j]
        with pytest.raises(ConfigError):
            parse_zeros("")

    def test_symbol_coeffs(self):
        sym = parse_symbol("c1=1,c-1=1")
        assert sym.coeff_dict == {1: 1, -1: 1}
        assert parse_symbol("cos").coeff_dict == {1: 1.0, -1: 1.0}
        with pytest.raises(ConfigError):
            parse_symbol("q1=1")
        with pytest.raises(ConfigError):
            parse_symbol("unknown_preset")

    def test_function(self):
        f = parse_function("poly:0,-1,0,1")
        assert f.poly_coeffs == (0, -1, 0, 1)
        assert parse_function("square").eval_scalar(3.0) == 9.0
        with pytest.raises(ConfigError):
            parse_function("nope")


#: sample values of each declared [sweep], [quadrature] and [angular] setting,
#: accepted and refused ones; the config text of a tuple is its comma list
SETTING_SAMPLES = {
    "n_values": [(8, 16), (8,), (1, 2, 3), (8, 8), (16, 8), (0, 8), (8.5, 16), ()],
    "alpha_count": [32, 1, 4096, 12, 0, -4, 32.0],
    "initial_points": [256, 2, 4096, 1, 0, 300, 256.0],
    "max_points": [1 << 20, 1024, 1000, 1, 1024.0],
    "abs_tol": [1e-10, 5.0, 0.0, -1e-9, math.nan, math.inf],
    "rel_tol": [1e-9, 1e-300, 0.0, -1.0, math.nan, math.inf],
    "j_terms": [10 ** 5, 1, 0, -3, 2.5],
    "grid_size": [64, 1, 0, 6.5],
    "thresholds": [(1e2, 1e3), (5,), (2.5, 100), (math.nan,), (-1,), (1e2, math.inf), (0,),
                   (100.0000001, 100.0000002), (1e3, 5.0, 1000.0), ()],
}

#: the library object that checks each section's settings
SETTING_OWNERS = {"sweep": partial(ExperimentConfig, ZeroSequence.uniform_zero(), parse_symbol("cos")),
                  "angular": partial(ExperimentConfig, ZeroSequence.uniform_zero(), parse_symbol("cos")),
                  "quadrature": QuadratureConfig}


@pytest.mark.parametrize("section, key", [(section, key) for section, params in
                                          (("sweep", SWEEP_PARAMS), ("quadrature", QUADRATURE_PARAMS),
                                           ("angular", ANGULAR_PARAMS)) for key in params])
def test_key_parser_and_library_agree_on_every_setting(section, key):
    # one declaration per setting: the CLI parses the text of each sample
    # value to what the library holds, and both refuse the same samples
    outcomes = []
    for value in SETTING_SAMPLES[key]:
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        try:
            parsed = cli._PARSERS[section][key](text)
        except ValueError:
            parsed = None
        try:
            checked = getattr(SETTING_OWNERS[section](**{key: value}), key)
        except ValueError as exc:
            assert key in str(exc)
            checked = None
        assert parsed == checked and type(parsed) is type(checked), (value, parsed, checked)
        outcomes.append(checked is None)
    assert set(outcomes) == {False, True}


class TestParseConfig:
    def test_minimal_roundtrip(self, minimal_cfg, tmp_path):
        parsed = parse_config(minimal_cfg)
        assert parsed.experiment.n_values == (8, 16, 32, 64)
        assert parsed.experiment.symbol.coeff_dict == {1: 1.0, -1: 1.0}
        # canonical form re-parses to the same canonical form
        again = tmp_path / "canon.cfg"
        again.write_text(parsed.canonical)
        assert parse_config(str(again)).canonical == parsed.canonical

    def test_modulus_bound_rejected_with_key_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sequence]\nkind = constant_modulus\nr = 1.0\n")
        with pytest.raises(ConfigError, match="sequence.r"):
            parse_config(str(path))

    def test_unknown_generator_lists_tags(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sequence]\nkind = parabolic\n")
        with pytest.raises(ConfigError, match="uniform_zero"):
            parse_config(str(path))

    def test_unknown_key_has_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sequence]\nkind = uniform_zero\nradius = 2\n")
        with pytest.raises(ConfigError, match="sequence.radius"):
            parse_config(str(path))

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(str(path))

    @pytest.mark.parametrize("section, key, value", [
        ("angular", "j_terms", "lots"),
        ("angular", "thresholds", "1e2,abc"),
        ("angular", "thresholds", "nan"),
        ("angular", "thresholds", "1e2,inf"),
        ("angular", "thresholds", "-5"),
        ("angular", "thresholds", "100.0000001,100.0000002"),  # both keyed below_100
        ("angular", "thresholds", "1e3,5,1000"),
        ("angular", "grid_size", "6.5"),
        ("angular", "j_terms", "0"),
        ("angular", "grid_size", "0"),
        ("sweep", "alpha_count", "x"),
        ("quadrature", "max_points", "big"),
        ("quadrature", "max_points", "1"),
        ("quadrature", "initial_points", "1"),
        ("sequence", "seed", "seven"),
        ("sequence", "seed", "-1"),
    ])
    def test_malformed_number_names_key(self, tmp_path, capsys, section, key, value):
        # parse_config reads [angular] for every subcommand, so szego fails too
        path = tmp_path / "bad.cfg"
        header = "" if section == "sequence" else f"[{section}]\n"
        path.write_text(f"[symbol]\npreset = cos\n[sequence]\nkind = uniform_zero\n"
                        f"{header}{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(str(path))
        assert main(["szego", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key, value", [
        ("constant_modulus", "r", "abc"),
        ("alternating_3k", "lam", "abc"),
        ("dense_nonblaschke", "gamma", "abc"),
        ("dense_nonblaschke", "gamma", "nan"),
        ("frostman_fast", "directions", "four"),
        ("frostman_fast", "directions", "0"),
        ("constant_modulus", "phase_rule", "spiral"),
    ])
    def test_malformed_sequence_parameter_names_key(self, tmp_path, capsys, kind, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[symbol]\npreset = cos\n[sequence]\nkind = {kind}\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"sequence.{key}"):
            parse_config(str(path))
        assert main(["szego", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"sequence.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("[sequence]\nkind = dense_nonblaschke\nlam = 0.7\n", "sequence.lam"),
        ("[sequence]\nkind = dense_nonblaschke\nr = 0.5\n", "sequence.r"),
        ("[sequence]\nkind = dense_nonblaschke\nzeros = 0,0.5\n", "sequence.zeros"),
        ("[sequence]\nkind = explicit\nzeros = 0,0.5\ngamma = 0.3\n", "sequence.gamma"),
        ("[sequence]\nkind = uniform_zero\n[symbol]\nkind = trig\ncoeffs = c1=1\npreset = cos\n",
         "symbol.preset"),
        ("[sequence]\nkind = uniform_zero\n[symbol]\npreset = cos\n[function]\nkind = preset\n"
         "preset = square\ncoeffs = 0,1\n", "function.coeffs"),
    ], ids=["dense-lam", "dense-r", "dense-zeros", "explicit-gamma", "trig-preset", "preset-coeffs"])
    def test_key_the_kind_does_not_read_names_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "unread.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{key} is not read by"):
            parse_config(str(path))
        out = tmp_path / "x"
        assert main(["szego", "--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["uniform_zero", "dense_nonblaschke", "frostman_fast"])
    def test_every_sequence_kind_reads_the_seed(self, tmp_path, kind):
        path = tmp_path / "seeded.cfg"
        path.write_text(f"[symbol]\npreset = cos\n[sequence]\nkind = {kind}\nseed = 7\n")
        assert parse_config(str(path)).experiment.sequence.seed == 7

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("[sequence]\nkind = uniform_zero\n[sweep]\nn_values = 4,8\nn_values = 16\n")
        with pytest.raises(ConfigError, match="duplicate key sweep.n_values at lines 4 and 5"):
            parse_config(str(path))

    def test_duplicate_section_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("[sweep]\nn_values = 4,8\n[sequence]\nkind = uniform_zero\n[sweep]\n")
        with pytest.raises(ConfigError, match=r"duplicate section \[sweep\] at lines 1 and 5"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/does/not/exist.cfg")


class TestSubcommands:
    def test_szego_minimal(self, minimal_cfg, tmp_path):
        out = tmp_path / "results"
        assert main(["szego", "--config", minimal_cfg, "--out", str(out)]) == 0
        raw = (out / "szego.csv").read_bytes().decode()
        assert "\r\n" in raw  # RFC-4180 line endings
        rows = raw.strip().split("\r\n")
        assert len(rows) == 5  # header + 4 records
        header = rows[0].split(",")
        gap_idx = header.index("gap")
        n_idx = header.index("N")
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[gap_idx]) == pytest.approx(2 / int(cells[n_idx]), abs=1e-9)

    def test_clark_subcommand(self, tmp_path, capsys):
        assert main(["clark", "--zeros", "0,0.5", "--alpha-angle", "0"]) == 0
        lines = capsys.readouterr().out.strip().split("\r\n")
        assert lines[0] == "alpha_angle,zeta_angle,weight"
        weights = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(weights) == 2
        assert sum(weights) == pytest.approx(1.0, abs=1e-8)

    def test_operator_subcommand(self, capsys):
        assert main(["operator", "--zeros", "0,0,0", "--symbol", "c1=1,c-1=1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 3
        entries = np.array(data["entries_row_major"])
        M = entries[..., 0] + 1j * entries[..., 1]
        assert np.allclose(M, np.diag([1, 1], 1) + np.diag([1, 1], -1))

    def test_angular_subcommand(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("""
[sequence]
kind = dense_nonblaschke

[symbol]
kind = preset
preset = cos

[sweep]
n_values = 4,8
alpha_count = 8

[angular]
j_terms = 2000
grid_size = 16
""")
        out = tmp_path / "res"
        assert main(["angular", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "angular_a.csv").exists()
        summary = json.loads((out / "angular_b.json").read_text())
        assert summary["grid_size"] == 16.0

    def test_lemmas_subcommand(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("""
[sequence]
kind = dense_nonblaschke

[symbol]
kind = trig
coeffs = c1=1,c-1=1

[function]
kind = preset
preset = square

[sweep]
n_values = 4,8
alpha_count = 8
""")
        out = tmp_path / "res"
        assert main(["lemmas", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "fejer.json").read_text())
        assert all(row["contraction_max"] <= 1 + 1e-6 for row in report["per_n"])

    def test_unconverged_build_warns(self, minimal_cfg, tmp_path, capsys):
        # max_points = 512 starves the sampled 1/|B'| build next to zeros at
        # the 1 - 1e-6 cap; the run still completes and exits 0
        path = tmp_path / "starved.cfg"
        path.write_text(STARVED_FROSTMAN)
        out = tmp_path / "starved"
        assert main(["stz", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "WARN: stz N=8 beta_build_converged = 0",
            "WARN: stz N=32 beta_build_converged = 0",
        ]
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"
        assert main(["stz", "--config", minimal_cfg, "--out", str(tmp_path / "ok")]) == 0
        assert capsys.readouterr().err == ""

    def test_unconverged_lemma_build_warns(self, minimal_cfg, tmp_path, capsys):
        # the same starved 1/|B'| build inside the lemma suite's stz_defect rows
        path = tmp_path / "starved.cfg"
        path.write_text(STARVED_FROSTMAN)
        out = tmp_path / "starved"
        assert main(["lemmas", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "WARN: lemmas N=8 beta_build_converged = 0",
            "WARN: lemmas N=32 beta_build_converged = 0",
        ]
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"
        assert "stz_defect.csv" in os.listdir(out)
        ok = tmp_path / "ok"
        assert main(["lemmas", "--config", minimal_cfg, "--n", "4,8", "--out", str(ok)]) == 0
        assert capsys.readouterr().err == ""

    def test_unconverged_hs_build_warns(self, tmp_path, capsys):
        # the starved sampled build of T(abs_sin) next to zeros at the cap:
        # the hs_approx rows carry build_converged = 0 and lemmas says so
        path = tmp_path / "starved.cfg"
        path.write_text("[sequence]\nkind = frostman_fast\n[symbol]\npreset = abs_sin\n"
                        "[sweep]\nn_values = 8,32\nalpha_count = 8\n"
                        "[quadrature]\nmax_points = 512\n")
        out = tmp_path / "starved"
        assert main(["lemmas", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "WARN: lemmas N=8 build_converged = 0",
            "WARN: lemmas N=32 build_converged = 0",
        ]
        rows = (out / "hs_approx.json").read_text()
        assert [rec["diagnostics"]["rhs_converged"] for rec in json.loads(rows)] == [1.0, 1.0]

    def test_unconverged_operator_build_warns(self, capsys):
        # a zero at 1 - 1e-6 with 512 points at most: the sampled build stops short
        args = ["operator", "--zeros", "0,0.999999", "--symbol", "abs_sin", "--max-grid", "512"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == "WARN: operator N=2 converged = 0\n"
        assert json.loads(captured.out)["dim"] == 2
        assert main(["operator", "--zeros", "0,0.5", "--symbol", "abs_sin"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["dim"] == 2

    def test_unconverged_disintegration_warns(self, capsys):
        # 4096 alphas per winding already exceed the doubling limit
        assert main(["disintegrate", "--zeros", "0,0.5", "--alpha-count", "4096"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "WARN: disintegrate N=2 converged = 0\n"
        assert json.loads(captured.out)["converged"] is False
        assert main(["disintegrate", "--zeros", "0,0.5"]) == 0
        assert capsys.readouterr().err == ""

    def test_run_that_raises_leaves_a_failed_manifest(self, tmp_path, capsys):
        # zeros one ulp inside the circle: the Clark measures lose mass and
        # angular stops after writing its running manifest
        path = tmp_path / "near.cfg"
        path.write_text(EXPLICIT_NEAR_CIRCLE)
        out = tmp_path / "near"
        assert main(["angular", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("invariant failure: total mass")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert set(manifest["outputs"]) == {f for f in os.listdir(out) if f != "manifest.json"}

    def test_failed_lemma_check_exits_1_after_its_warn_lines(self, tmp_path, capsys, monkeypatch):
        # an averaging operator that is not a contraction fails the lemma run
        monkeypatch.setattr(cli, "fejer_suite", lambda cfg: {"per_n": [
            {"N": N, "contraction_max": 2.0} for N in cfg.n_values]})
        path = tmp_path / "starved.cfg"
        path.write_text(STARVED_FROSTMAN)
        out = tmp_path / "starved"
        assert main(["lemmas", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "WARN: lemmas N=8 beta_build_converged = 0",
            "WARN: lemmas N=32 beta_build_converged = 0",
            "FAIL: averaging operator not contractive at N=8: 2.0",
            "FAIL: averaging operator not contractive at N=32: 2.0",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == sorted(f for f in os.listdir(out) if f != "manifest.json")
        assert "fejer.json" in manifest["outputs"]

    def test_lemma_run_that_raises_prints_its_warn_lines_first(self, tmp_path, capsys, monkeypatch):
        def raise_(cfg):
            raise ValueError("no averaging operator")

        monkeypatch.setattr(cli, "fejer_suite", raise_)
        path = tmp_path / "starved.cfg"
        path.write_text(STARVED_FROSTMAN)
        out = tmp_path / "starved"
        assert main(["lemmas", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "WARN: lemmas N=8 beta_build_converged = 0",
            "WARN: lemmas N=32 beta_build_converged = 0",
            "invariant failure: no averaging operator",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == sorted(f for f in os.listdir(out) if f != "manifest.json")
        assert "fejer.json" not in manifest["outputs"]

    @pytest.mark.parametrize("argv, first, files", [
        (["operator", "--zeros", "0,0.999999", "--symbol", "abs_sin", "--max-grid", "512"],
         "operator.json", ["operator.csv", "operator.json"]),
        (["clark", "--zeros", "0,0.9999999999+0.000000009999999999i", "--alpha-angle", "0"],
         "clark.csv", ["clark.csv", "clark.json"]),
    ], ids=["operator", "clark"])
    def test_out_writes_the_first_file_that_stdout_shows(self, tmp_path, capsys, argv, first, files):
        # the starved abs_sin build warns, the zero 1e-10 from the circle sits by the 2 pi seam
        assert main(argv) == 0
        shown = capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == shown.err
        assert (out / first).read_bytes().decode() == shown.out
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["outputs"], manifest["seed"]) == ("complete", files, 0)
        assert sorted(os.listdir(out)) == sorted(files + ["manifest.json"])

    def test_disintegrate_runs_the_declared_alpha_count_by_default(self, capsys):
        # --alpha-count sets sweep.alpha_count, whose declared default (32) is
        # disintegration_check's own
        assert main(["disintegrate", "--zeros", "0,0.5"]) == 0
        default = capsys.readouterr().out
        assert main(["disintegrate", "--zeros", "0,0.5", "--alpha-count", "32"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("command, extra, key, count", [
        ("szego", "[sweep]\nn_values = 2,4\n", "sweep.n_values", 4),
        ("szego", "", "sweep.n_values", 64),  # the default n_values
        ("angular", "[sweep]\nn_values = 2,3\n[angular]\nj_terms = 4\n", "angular.j_terms", 4),
        ("szego", "[sweep]\nn_values = 2,3\n[angular]\nj_terms = 4\n", "angular.j_terms", 4),
        ("angular", "[sweep]\nn_values = 2,3\n", "angular.j_terms", 10 ** 5),  # the default j_terms
    ], ids=["szego-n-values", "szego-default-n-values", "angular-j-terms", "szego-j-terms",
            "angular-default-j-terms"])
    def test_explicit_sequence_shorter_than_asked_names_key(self, tmp_path, capsys, command, extra, key,
                                                            count):
        path = tmp_path / "short.cfg"
        path.write_text(EXPLICIT_THREE + extra)
        out = tmp_path / "x"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"config error: {key}: explicit sequence has 3 zeros, {count} requested\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["szego", "stz", "lemmas"])
    def test_explicit_sequence_runs_under_the_default_j_terms(self, tmp_path, command):
        path = tmp_path / "three.cfg"
        path.write_text(EXPLICIT_THREE + "[sweep]\nn_values = 2,3\n")
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0

    def test_thresholds_sharing_a_summary_key_name_key_and_write_nothing(self, tmp_path, capsys):
        # both would be below_100 and above_100 in angular_b.json
        path = tmp_path / "collide.cfg"
        path.write_text(EXPLICIT_THREE + "[sweep]\nn_values = 2,3\n[angular]\nj_terms = 3\n"
                        "thresholds = 100.0000001,100.0000002\n")
        out = tmp_path / "x"
        assert main(["angular", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: angular.thresholds: thresholds 100.0000001 "
                                           "and 100.0000002 share the summary key 100\n")
        assert not out.exists()

    def test_negative_seed_names_key_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "seed.cfg"
        path.write_text("[sequence]\nkind = dense_nonblaschke\nseed = -1\n[symbol]\npreset = cos\n")
        out = tmp_path / "x"
        assert main(["lemmas", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: sequence.seed: must be an integer >= 0, got -1\n"
        assert not out.exists()
        path.write_text("[sequence]\nkind = dense_nonblaschke\n[symbol]\npreset = cos\n")
        assert main(["lemmas", "--config", str(path), "--out", str(out), "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "config error: --seed: must be an integer >= 0, got -3\n"
        assert not out.exists()

    def test_exit_code_on_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[sequence]\nkind = constant_modulus\nr = 1.5\n")
        assert main(["szego", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "sequence.r" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert main(["szego"]) == 2


#: the flags each subcommand reads: 9 per sweep, 5 + 3 + 3 for the zero-list
#: commands, 47 in all
SWEEP_FLAGS = {"--config", "--out", "--seed", "--tol", "--max-grid", "--alpha-count",
               "--symbol", "--function", "--n"}
COMMAND_FLAGS = {
    "szego": SWEEP_FLAGS,
    "stz": SWEEP_FLAGS,
    "angular": SWEEP_FLAGS,
    "lemmas": SWEEP_FLAGS,
    "operator": {"--zeros", "--symbol", "--tol", "--max-grid", "--out"},
    "clark": {"--zeros", "--alpha-angle", "--out"},
    "disintegrate": {"--zeros", "--symbol", "--alpha-count"},
}
ALL_FLAGS = sorted(SWEEP_FLAGS | {"--zeros", "--alpha-angle"})
UNREAD = [(cmd, flag) for cmd, flags in COMMAND_FLAGS.items()
          for flag in ALL_FLAGS if flag not in flags]


class TestFlags:
    def test_each_subcommand_takes_the_flags_it_reads(self):
        taken = {cmd: set(flags) for cmd, flags in COMMANDS.items()}
        assert taken == COMMAND_FLAGS
        assert sum(map(len, taken.values())) == 47
        assert len(UNREAD) == 30
        # and the parser built for each subcommand takes exactly those
        for cmd, flags in taken.items():
            parser = build_parser(cmd)
            assert {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"} == flags

    def test_one_parser_per_call(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["clark", "--zeros", "0,0.5"]) == 0
        assert len(built) == 1

    def test_handler_is_looked_up_when_called(self, monkeypatch):
        # a wrapper set in place of cmd_<subcommand>, as perfbench's span
        # recorder sets one, is what runs
        calls = []
        monkeypatch.setattr(cli, "cmd_clark", lambda args: calls.append(args.zeros) or 0)
        assert main(["clark", "--zeros", "0,0.5"]) == 0
        assert calls == ["0,0.5"]

    def test_help_lists_the_flags_of_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        epilog = capsys.readouterr().out.split("the flags each subcommand reads:\n")[1]
        listed = {line.split()[0]: set(line.split()[1:]) for line in epilog.splitlines()}
        assert listed == COMMAND_FLAGS

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_exits_2_and_writes_nothing(self, minimal_cfg, tmp_path, capsys,
                                                    command, flag):
        out = tmp_path / "out"
        values = {"--config": minimal_cfg, "--out": str(out), "--zeros": "0,0.5",
                  "--alpha-angle": "0", "--n": "4,8", "--function": "square", "--symbol": "cos",
                  "--tol": "1e-9", "--max-grid": "1024", "--alpha-count": "8", "--seed": "1"}
        argv = [command] + [arg for f in sorted(COMMAND_FLAGS[command] & {"--config", "--zeros", "--out"})
                            for arg in (f, values[f])]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, values[flag]])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["operator", "clark", "disintegrate"])
    def test_missing_zeros_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "--zeros" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["clark", "--zeros", "0,0.5", "--alpha", "0.3"],
        ["szego", "--conf", "c.cfg"],
        ["operator", "--zero", "0,0.5"],
    ], ids=["clark-alpha", "szego-conf", "operator-zero"])
    def test_abbreviated_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["operator", "--zeros", "0,0.5", "--tol", "0"], "--tol"),
        (["operator", "--zeros", "0,0.5", "--max-grid", "0"], "--max-grid"),
        (["operator", "--zeros", "0,0.5", "--max-grid", "1"], "--max-grid"),
        (["disintegrate", "--zeros", "0,0.5", "--alpha-count", "0"], "--alpha-count"),
        (["operator", "--zeros", "0,0.5", "--symbol", "c1=1,c1=5"], "--symbol"),
        (["operator", "--zeros", "0,nan"], "--zeros"),
        (["operator", "--zeros", "0,1.5"], "--zeros"),
        (["clark", "--zeros", "0,1.5"], "--zeros"),
        (["clark", "--zeros", "0,0.5", "--alpha-angle", "inf"], "--alpha-angle"),
        (["clark", "--zeros", "0,0.5", "--alpha-angle", "nan"], "--alpha-angle"),
        (["disintegrate", "--zeros", "0,0.5", "--symbol", "poly:1"], "--symbol"),
    ], ids=["operator-tol-0", "operator-max-grid-0", "operator-max-grid-1", "disintegrate-alpha-count-0",
            "operator-repeated-frequency", "operator-nan-zero", "operator-zero-outside",
            "clark-zero-outside", "clark-alpha-angle-inf", "clark-alpha-angle-nan",
            "disintegrate-unknown-symbol"])
    def test_malformed_flag_exits_2_and_names_it(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {flag}: ")

    @pytest.mark.parametrize("flag, value", [
        ("--n", "8,4"), ("--seed", "x"), ("--function", "poly:"), ("--symbol", "c1=1,c+1=5"),
        ("--alpha-count", "3"), ("--tol", "nan"), ("--seed", "-1"),
    ])
    def test_malformed_sweep_flag_names_it(self, minimal_cfg, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["szego", "--config", minimal_cfg, "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
        assert not out.exists()

    def test_repeated_frequency_in_config_names_key(self, tmp_path, capsys):
        path = tmp_path / "dup.cfg"
        path.write_text("[sequence]\nkind = uniform_zero\n[symbol]\nkind = trig\ncoeffs = c1=1,c1=5\n")
        assert main(["szego", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "symbol.coeffs: frequency 1 given twice" in capsys.readouterr().err

    def test_preset_and_coefficient_symbols_agree(self, minimal_cfg, tmp_path):
        # both forms go through parse_symbol and give the same operator
        outs = [tmp_path / "preset", tmp_path / "coeffs"]
        for symbol, out in zip(("cos", "c1=1,c-1=1"), outs):
            assert main(["szego", "--config", minimal_cfg, "--symbol", symbol, "--n", "4,8",
                         "--out", str(out)]) == 0
        for name in ("szego.csv", "szego.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestDeterminismAndManifest:
    def test_byte_identical_runs(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("""
[sequence]
kind = constant_modulus
r = 0.5
phase_rule = random
seed = 7

[symbol]
kind = trig
coeffs = c1=1,c-1=1

[function]
kind = preset
preset = square

[sweep]
n_values = 4,8,16
""")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["szego", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["szego", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("szego.csv", "szego.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_covers_outputs(self, minimal_cfg, tmp_path):
        out = tmp_path / "results"
        main(["szego", "--config", minimal_cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        files = {f for f in os.listdir(out) if f != "manifest.json"}
        assert files == set(manifest["outputs"])
        assert manifest["config_hash"]
        assert manifest["seed"] == 0

    def test_operator_hash_covers_every_flag(self, tmp_path):
        # runs that differ only in --max-grid can write different operator.json
        def digest(name, *extra):
            out = tmp_path / name
            assert main(["operator", "--zeros", "0,0.5", "--symbol", "abs_sin",
                         "--out", str(out), *extra]) == 0
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        assert digest("a") == digest("b")
        assert digest("c", "--max-grid", "4096") != digest("a")
        assert digest("d", "--tol", "1e-8") != digest("a")

    def test_seed_override_changes_hash(self, minimal_cfg):
        # the manifest's config_hash is the hash of the canonical text
        a = parse_config(minimal_cfg)
        b = parse_config(minimal_cfg, {"sequence": {"seed": "3"}})
        assert a.canonical != b.canonical


REPO = Path(__file__).resolve().parent.parent

#: runs the sweeps of each config given, then prints whether numpy.ma was imported
_NO_MA_SCRIPT = """
import sys
from ttolab.cli import main
out, configs = sys.argv[1], sys.argv[2:]
for i, cfg in enumerate(configs):
    for command in ("szego", "stz", "angular", "lemmas"):
        assert main([command, "--config", cfg, "--out", f"{out}/{i}-{command}"]) == 0, (cfg, command)
print("numpy.ma" in sys.modules)
"""


def test_sweeps_do_not_import_numpy_ma(tmp_path):
    # np.union1d, np.unique of a real array and np.median import numpy.ma
    # (13 ms and 1.3 MB) on first use; no sweep path may call them
    configs = [str(REPO / "perfbench" / "configs" / name)
               for name in ("shipped-dense.cfg", "frostman-boundary.cfg")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _NO_MA_SCRIPT, str(tmp_path), *configs],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
