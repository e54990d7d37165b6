import argparse
import configparser
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcalc
from qcalc import suites
from qcalc.cli import _SETTINGS, build_arg_parser, main
from qcalc.operators import CommutingOperator, operator_to_text
from qcalc.slicefun import parse
from qcalc.suites import OperatorSpec, generate_operator


# a value off the defaults for each setting but "operator", as text
SETTING_SAMPLES = {
    "dim": "3", "seed": "9", "annulus": "0.6, 1.8", "omega": "0.7",
    "diagonal": "yes", "tol": "1e-8", "theta": "1.3", "angles": "0.9, 1.1",
    "n_max": "2", "pairs": "3",
}


def strip_ms(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    for check in out["checks"]:
        check["ms"] = 0.0
    return out


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["generate", "--dim", "8", "--seed", "42",
                     "--out", str(a)]) == 0
        assert main(["generate", "--dim", "8", "--seed", "42",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_and_annulus(self, capsys):
        assert main(["generate", "--dim", "2", "--seed", "1",
                     "--annulus", "1,1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "2"

    def test_infeasible_spec(self, capsys):
        assert main(["generate", "--dim", "2", "--omega", "3.5"]) == 2
        for annulus in ("0,1", "0.5,nan", "0.5,inf"):
            assert main(["generate", "--dim", "2", "--annulus", annulus]) == 2
            assert "error: annulus" in capsys.readouterr().err
        for flag, value in (("--dim", "-1"), ("--dim", "0"), ("--seed", "-3")):
            assert main(["generate", flag, value]) == 2
            assert f"error: {flag[2:]} must be" in capsys.readouterr().err


class TestRun:
    def test_identities_suite_passes(self, tmp_path, capsys):
        code = main(["run", "identities", "--dim", "3", "--seed", "5",
                     "--pairs", "10", "--report", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "identities_report.json").read_text())
        assert data["version"] == "3"
        assert data["suite"] == "identities"
        assert data["operator"]["dim"] == 3
        assert {"tag", "residual", "tol", "pass", "ms"} <= set(data["checks"][0])
        assert all(c["pass"] for c in data["checks"])
        csv_text = (tmp_path / "identities_report.csv").read_text()
        assert csv_text.splitlines()[0] == "suite,tag,residual,tol,pass"
        assert len(csv_text.splitlines()) == len(data["checks"]) + 1

    def test_report_deterministic_modulo_timing(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert main(["run", "kernels", "--dim", "3", "--seed", "5",
                         "--report", str(d)]) == 0
        a = strip_ms(json.loads((d1 / "kernels_report.json").read_text()))
        b = strip_ms(json.loads((d2 / "kernels_report.json").read_text()))
        assert a == b

    def test_powers_to_eight_pass(self, capsys):
        # hinf(pow(n)) up to n = 8 runs on (reg(n + 1) * pow(n)), whose stem
        # overflows past |s| ~ 1e34 at n = 8: the S-contour's radius from
        # the kernel's own order at infinity stays far below that
        assert main(["run", "powers", "--n-max", "8", "--dim", "4",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "hinf_power_F_n8" in out

    def test_operator_file_roundtrip(self, tmp_path):
        op_file = tmp_path / "op.txt"
        assert main(["generate", "--dim", "3", "--seed", "5",
                     "--out", str(op_file)]) == 0
        assert main(["run", "kernels", "--dim", "3", "--seed", "5",
                     "--operator", str(op_file)]) == 0

    def test_loaded_operator_checks_the_seed(self, tmp_path, capsys):
        # a loaded operator's spec is checked as a generated one's: the seed
        # is named, not left to numpy's random generator
        op_file = tmp_path / "op.txt"
        assert main(["generate", "--dim", "2", "--out", str(op_file)]) == 0
        assert main(["run", "kernels", "--operator", str(op_file),
                     "--seed", "-3"]) == 2
        assert ("error: seed must be non-negative, got -3"
                in capsys.readouterr().err)

    def test_malformed_operator_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an operator")
        assert main(["run", "kernels", "--operator", str(bad)]) == 2

    @pytest.mark.parametrize("text,message", [
        ("0\n", "dimension"), ("2\n" + "nan " * 16, "finite"),
        ("-1\n1 2 3 4", "dimension must be at least 1, got -1")],
        ids=["dim0", "nan", "negative dim"])
    def test_degenerate_operator_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["run", "oracle", "--operator", str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_loaded_nonnormal_operator_passes_oracles(self, tmp_path):
        # T = S^-1 D S with S far from orthogonal: the eigensphere oracle
        # must conjugate by S, not by an orthogonal basis.  T has no
        # orthogonal eigenbasis, so every suite runs on the dense path
        diag = generate_operator(OperatorSpec(dim=4, seed=7, diagonal=True))
        s = np.eye(4) + 0.8 * np.random.default_rng(99).normal(size=(4, 4))
        assert np.linalg.cond(s) > 5.0
        comps = np.linalg.inv(s) @ diag.operator.components @ s
        op_file = tmp_path / "nonnormal.txt"
        op_file.write_text(operator_to_text(CommutingOperator(comps)))
        assert CommutingOperator(comps).eigenbasis is None
        assert main(["run", "all", "--operator", str(op_file)]) == 0

    def test_loaded_operator_keeps_its_dimension(self, tmp_path,
                                                 monkeypatch):
        # --dim (default 4) must not override the file's dimension: the
        # report and the injectivity guard's zero operator follow the file
        op_file, out = tmp_path / "op.txt", tmp_path / "out"
        assert main(["generate", "--dim", "2", "--seed", "5",
                     "--out", str(op_file)]) == 0
        sizes, real_hinf = [], suites.hinf

        def recording_hinf(kind, t, *args, **kwargs):
            sizes.append(t.n)
            return real_hinf(kind, t, *args, **kwargs)

        monkeypatch.setattr(suites, "hinf", recording_hinf)
        assert main(["run", "hinf", "--seed", "5", "--operator", str(op_file),
                     "--report", str(out)]) == 0
        data = json.loads((out / "hinf_report.json").read_text())
        assert data["operator"]["dim"] == 2
        assert sizes == [2]

    @pytest.mark.parametrize("t0", [[[0.0, -1.0], [1.0, 0.0]],   # rotation
                                    [[1.0, 1.0], [0.0, 1.0]]])   # Jordan block
    def test_loaded_operator_without_real_eigenbasis(self, tmp_path, capsys,
                                                     t0):
        comps = np.zeros((4, 2, 2))
        comps[0] = t0
        op_file = tmp_path / "op.txt"
        op_file.write_text(operator_to_text(CommutingOperator(comps)))
        assert main(["run", "oracle", "--operator", str(op_file)]) == 2
        assert "eigen" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1e-9", "0"])
    def test_nonpositive_tol(self, capsys, tol):
        assert main(["run", "oracle", "--dim", "2", f"--tol={tol}"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_infinite_tol(self, capsys):
        assert main(["run", "oracle", "--dim", "2", "--tol", "inf"]) == 2
        assert "finite tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol=-1", "--tol=nan", "--theta=4",
                                      "--angles=0.1,0.2"])
    @pytest.mark.parametrize("suite", suites.SUITE_NAMES)
    def test_bad_quadrature_setting_in_every_suite(self, capsys, suite, flag):
        # checked when the suite context is built, not first in a suite
        # that integrates
        assert main(["run", suite, "--dim", "2", "--pairs", "2", flag]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("suite,flag", [("identities", "--pairs=-3"),
                                            ("powers", "--n-max=0")])
    def test_empty_suite_rejected(self, capsys, suite, flag):
        assert main(["run", suite, "--dim", "2", flag]) == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--units", "e1"], ["--parallel"]],
                             ids=["--units", "--parallel"])
    def test_dropped_flag_is_refused(self, flag):
        # the slice unit cannot change a value (see qcalc.contour), and
        # check groups run one after another, so neither has a setting
        with pytest.raises(SystemExit) as exc:
            main(["run", "identities"] + flag)
        assert exc.value.code == 2

    def test_runs_without_scipy_or_mpmath(self):
        # numpy is the only runtime dependency: a suite runs in a fresh
        # interpreter where importing scipy or mpmath fails
        code = ('import sys; sys.modules["scipy"] = sys.modules["mpmath"] = None; '
                'from qcalc.cli import main; sys.exit(main(["run", "identities", '
                '"--dim", "2", "--pairs", "2"]))')
        src = str(Path(qcalc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestConfig:
    def test_config_sections_and_override(self, tmp_path):
        cfg = tmp_path / "qcalc.ini"
        cfg.write_text("""[operator]
dim = 3
seed = 9
annulus = 0.6, 1.8
omega = 0.7853981633974483

[quadrature]
tol = 1e-8

[suites]
pairs = 6
""")
        report_dir = tmp_path / "rep"
        assert main(["run", "identities", "--config", str(cfg),
                     "--report", str(report_dir)]) == 0
        data = json.loads((report_dir / "identities_report.json").read_text())
        assert data["operator"]["dim"] == 3
        assert data["operator"]["seed"] == 9
        assert data["env"]["pairs"] == 6
        assert data["env"]["tol"] == 1e-8
        # flag overrides file
        assert main(["run", "identities", "--config", str(cfg), "--dim", "2",
                     "--report", str(report_dir)]) == 0
        data = json.loads((report_dir / "identities_report.json").read_text())
        assert data["operator"]["dim"] == 2

    def test_missing_config(self):
        assert main(["run", "identities", "--config", "/nonexistent.ini"]) == 2

    @pytest.mark.parametrize("text,name", [
        ("[quadrature]\ntols = 1e-3\n", "'tols'"),
        ("[suite]\npairs = 1\n", "[suite]"),
        ("[quadrature]\nunits = e1\n", "'units'")],
        ids=["key", "section", "units"])
    def test_unknown_key_or_section(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        assert main(["run", "identities", "--config", str(cfg)]) == 2
        assert name in capsys.readouterr().err

    def test_bad_value_same_error_from_file_and_flag(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[operator]\ndim = x\n")
        assert main(["run", "identities", "--config", str(cfg)]) == 2
        from_file = capsys.readouterr().err
        assert main(["run", "identities", "--dim", "x"]) == 2
        assert capsys.readouterr().err == from_file
        assert from_file.startswith("error: bad dim 'x'")

    @pytest.mark.parametrize("name", sorted(_SETTINGS))
    def test_file_and_flag_give_same_report(self, tmp_path, name):
        # every setting reaches the report alike from its INI key and its
        # flag, and moves it off the defaults
        op_file = tmp_path / "op.txt"
        assert main(["generate", "--dim", "2", "--out", str(op_file)]) == 0
        text = str(op_file) if name == "operator" else SETTING_SAMPLES[name]
        section, key, _ = _SETTINGS[name]
        cfg = tmp_path / "one.ini"
        cfg.write_text(f"[{section}]\n{key} = {text}\n")
        flag = (["--diag"] if name == "diagonal"
                else ["--" + name.replace("_", "-"), text])
        blocks = []
        for extra in ([], ["--config", str(cfg)], flag):
            out = tmp_path / str(len(blocks))
            assert main(["run", "identities", "--report", str(out)]
                        + extra) == 0
            data = json.loads((out / "identities_report.json").read_text())
            blocks.append((data["operator"], data["env"]))
        default, from_file, from_flag = blocks
        assert from_file == from_flag != default

    def test_generate_reads_operator_keys(self, tmp_path):
        cfg = tmp_path / "gen.ini"
        cfg.write_text("[operator]\ndim = 3\nseed = 9\nannulus = 0.6, 1.8\n"
                       "omega = 0.7\ndiag = yes\n")
        files = [tmp_path / f"{i}.txt" for i in range(3)]
        assert main(["generate", "--config", str(cfg), "--out",
                     str(files[0])]) == 0
        assert main(["generate", "--dim", "3", "--seed", "9", "--annulus",
                     "0.6,1.8", "--omega", "0.7", "--diag", "--out",
                     str(files[1])]) == 0
        assert main(["generate", "--dim", "3", "--seed", "9", "--out",
                     str(files[2])]) == 0
        a, b, c = (f.read_bytes() for f in files)
        assert a == b != c


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeInSync:
    def test_ini_example_lists_every_setting(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S)
        example = configparser.ConfigParser()
        example.read_string(block.group(1))
        listed = {(sec, key) for sec in example.sections()
                  for key in example[sec]}
        assert listed == {(sec, key) for sec, key, _ in _SETTINGS.values()}

    def test_run_usage_lists_every_flag(self):
        usage = re.search(r"^qcalc run <suite>(.*?)^qcalc generate",
                          README.read_text(), re.S | re.M)
        listed = set(re.findall(r"--[a-z][a-z-]*", usage.group(1)))
        sub = next(a for a in build_arg_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices["run"]._actions
                 for opt in action.option_strings if opt.startswith("--")}
        assert listed == flags - {"--help"}

    def test_grammar_example_groups_as_stated(self):
        text, grouped = re.search(r"so `([^`]*)` is\s+`([^`]*)`",
                                  README.read_text()).groups()
        assert (text, grouped) == ("reg(2) + pow(1)*reg(3)",
                                   "(reg(2) + pow(1)) * reg(3)")
        assert repr(parse(text)) == repr(parse(grouped))

    def test_library_sketch_runs(self):
        block = re.search(r"## Library sketch\n\n```python\n(.*?)```",
                          README.read_text(), re.S)
        exec(compile(block.group(1), str(README), "exec"), {})

    def test_schema_version_matches(self):
        listed = re.findall(r'schema version `"(\d+)"`', README.read_text())
        assert listed == [suites.REPORT_VERSION]
