"""End-to-end tests driving the command line through ``main(argv)``.

Everything runs in process: stdout/stderr are captured with capsys and
files go to tmp_path, so the tests see exactly what a shell user would.
"""

import argparse
import ast
import csv
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowcalc
from flowcalc import cli, engine
from flowcalc.cli import main
from flowcalc.config import CONFIG_DIR_ENV
from flowcalc.dsl import parse
from flowcalc.engine import MODEL1_SPEC, EvaluationError, evaluate
from flowcalc.marginal import CovariateDistribution, marginalize
from flowcalc.measures import EffectQuery, Measure, effect
from flowcalc.orderings import enumerate_orderings

from helpers import close

M1_CONFIG = {
    "model": MODEL1_SPEC,
    "aliases": {
        "f1.intercept": "alpha0",
        "f1.age": "alpha1",
        "f2.trt1": "beta",
        "f3.trt2": "gamma",
    },
    "params": {
        "alpha0": 0.0,
        "alpha1": 0.0,
        "beta": math.log(1.2),
        "gamma": math.log(0.8),
    },
    "covariates": {"age": 40, "trt1": 1, "trt2": 1},
    "distributions": {
        "trt2": [
            {"context": {"trt1": 0}, "value": 1, "probability": 0.4},
            {"context": {"trt1": 0}, "value": 0, "probability": 0.6},
            {"context": {"trt1": 1}, "value": 1, "probability": 0.6},
            {"context": {"trt1": 1}, "value": 0, "probability": 0.4},
        ]
    },
}

#: The config of README.md's command-line section.
README_CONFIG = {
    "model": MODEL1_SPEC,
    "aliases": {"f1.intercept": "alpha0", "f1.age": "alpha1", "f2.trt1": "beta", "f3.trt2": "gamma"},
    "params": {"alpha0": 0.0, "alpha1": 0.0, "beta": 0.1823, "gamma": -0.2231},
    "covariates": {"age": 40, "trt1": 1, "trt2": 1},
    "distributions": M1_CONFIG["distributions"],
}

#: ``flowcalc eval --config`` on README_CONFIG, byte for byte: stage keys
#: in field order, then ``kind`` by its text.
README_EVAL_STDOUT = """{
  "probability": 0.6799757156757599,
  "valid": true,
  "stages": [
    {
      "position": 1,
      "kind": "ScOdds",
      "eta": 1.0,
      "probability": 0.5,
      "valid": true
    },
    {
      "position": 2,
      "kind": "ScRisk1",
      "eta": 1.1999741321260697,
      "probability": 0.5999870660630349,
      "valid": true
    },
    {
      "position": 3,
      "kind": "ScRisk0",
      "eta": 0.8000348418100656,
      "probability": 0.6799757156757599,
      "valid": true
    }
  ]
}
"""

#: ``flowcalc check-recovery`` stdout, byte for byte, for README.md's
#: explicit-flags command and for README_CONFIG: the five inputs, then
#: RecoveryReport's fields in declaration order.
README_CHECK_RECOVERY_FLAGS_STDOUT = """{
  "eta1": 1.0,
  "beta": 0.1823,
  "gamma": 0.0,
  "pi0": 0.3,
  "pi1": 0.7,
  "marginal_rr": 1.1999741321260697,
  "target": 1.1999741321260697,
  "condition_value": -0.0,
  "condition_holds": true,
  "rr_matches": true,
  "marginal_low": 0.5,
  "marginal_high": 0.5999870660630349
}
"""
README_CHECK_RECOVERY_CONFIG_STDOUT = """{
  "eta1": 1.0,
  "beta": 0.1823,
  "gamma": -0.2231,
  "pi0": 0.4,
  "pi1": 0.6,
  "marginal_rr": 1.1999789217003787,
  "target": 1.1999741321260697,
  "condition_value": 5.172673502493467e-06,
  "condition_holds": false,
  "rr_matches": false,
  "marginal_low": 0.5399930316379868,
  "marginal_high": 0.6479802558306699
}
"""

M1_PARAMS = {
    "f1.intercept": 0.0,
    "f1.age": 0.0,
    "f2.trt1": math.log(1.2),
    "f3.trt2": math.log(0.8),
}


@pytest.fixture
def m1_config(tmp_path):
    path = tmp_path / "m1.json"
    path.write_text(json.dumps(M1_CONFIG), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_witness_configuration(self, m1_config, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--config", m1_config)
        assert rc == 0
        payload = json.loads(out)
        assert close(payload["probability"], 0.68)
        assert payload["valid"] is True
        assert [s["position"] for s in payload["stages"]] == [1, 2, 3]
        assert [s["kind"] for s in payload["stages"]] == ["ScOdds", "ScRisk1", "ScRisk0"]
        assert all(s["valid"] for s in payload["stages"])

    def test_base_only_model_needs_no_config(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--model", "y = Ber(3/8)")
        assert rc == 0
        assert json.loads(out)["probability"] == 0.375

    def test_bind_overrides_config_values(self, m1_config, capsys):
        rc, out, _ = run_cli(
            capsys, "eval", "--config", m1_config, "--bind", "beta=0", "--bind", "trt2=0"
        )
        assert rc == 0
        payload = json.loads(out)
        expected = evaluate(
            parse(MODEL1_SPEC),
            dict(M1_PARAMS, **{"f2.trt1": 0.0}),
            {"age": 40.0, "trt1": 1.0, "trt2": 0.0},
        )
        assert payload["probability"] == expected.probability

    def test_canonical_names_work_in_bind_too(self, m1_config, capsys):
        rc_alias, out_alias, _ = run_cli(capsys, "eval", "--config", m1_config, "--bind", "beta=0.25")
        rc_canon, out_canon, _ = run_cli(capsys, "eval", "--config", m1_config, "--bind", "f2.trt1=0.25")
        assert rc_alias == rc_canon == 0
        assert json.loads(out_alias) == json.loads(out_canon)

    def test_parse_error_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "eval", "--model", "y = Ber(1/2) | ScFoo(1+age)")
        assert rc == 2
        assert out == ""
        assert "model parse error" in err

    def test_number_past_the_digit_limit_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "eval", "--model", "y = Ber(1/" + "1" * 5000 + ")")
        assert rc == 2
        assert out == ""
        assert "too long to convert (at offset 10)" in err

    def test_unknown_bind_name_exits_3(self, m1_config, capsys):
        rc, _, err = run_cli(capsys, "eval", "--config", m1_config, "--bind", "zeta=1")
        assert rc == 3
        assert "neither a parameter nor a covariate" in err

    def test_missing_model_exits_3(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--bind", "x=1")
        assert rc == 3
        assert "no model given" in err

    def test_invalid_stage_exits_4_with_trace(self, capsys):
        rc, out, err = run_cli(
            capsys,
            "eval",
            "--model",
            "y = Ber(1/2) | ScRisk1(0+trt1)",
            "--bind",
            f"f1.trt1={math.log(3.0)}",
            "--bind",
            "trt1=1",
        )
        assert rc == 4
        payload = json.loads(out)
        assert payload["valid"] is False
        assert close(payload["probability"], 1.5)
        assert "stage(s) [1]" in err

    def test_config_dir_env_resolves_relative_paths(self, m1_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
        rc, out, _ = run_cli(capsys, "eval", "--config", "m1.json")
        assert rc == 0
        assert close(json.loads(out)["probability"], 0.68)

    def test_config_number_too_large_for_a_float_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        config = dict(M1_CONFIG, covariates={"age": 10**400, "trt1": 1, "trt2": 1})
        path.write_text(json.dumps(config), encoding="utf-8")
        rc, out, err = run_cli(capsys, "eval", "--config", str(path))
        assert rc == 3
        assert out == ""
        assert "covariates['age'] is too large for a float" in err

    def test_missing_config_file_exits_3(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--config", "no-such-config.json")
        assert rc == 3
        assert "not found" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (
                json.dumps(M1_CONFIG).replace('"alpha0": 0.0', '"alpha0": ' + "1" * 5000).encode("ascii"),
                "Exceeds the limit (4300 digits) for integer string conversion",
            ),
            (json.dumps(M1_CONFIG).encode("ascii").replace(b"alpha0", b"alpha\xdf"), "'utf-8' codec can't decode byte 0xdf"),
            (b'{"params": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "maximum recursion depth exceeded"),
        ],
        ids=["integer past the digit limit", "not UTF-8", "nested too deep"],
    )
    def test_undecodable_config_exits_3(self, content, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        rc, out, err = run_cli(capsys, "eval", "--config", str(path))
        assert (rc, out) == (3, "")
        assert err.startswith(f"error: cannot read config {path}: {message}")

    def test_readme_config_prints_these_bytes(self, tmp_path, capsys):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(README_CONFIG), encoding="utf-8")
        rc, out, err = run_cli(capsys, "eval", "--config", str(path))
        assert (rc, err) == (0, "")
        assert out == README_EVAL_STDOUT

    @pytest.mark.parametrize(
        "config, message",
        [
            ("{", "cannot read config {path}: Expecting property name"),
            ([1], "config root must be an object, got list"),
            (dict(M1_CONFIG, extra=1, zzz=2), "unknown config keys: extra, zzz"),
            ({"model": 3}, "model must be a string, got int"),
            ({"aliases": {"f1.intercept": 3}}, "aliases must map canonical parameter names to display strings"),
            ({"distributions": {"trt2": 3}}, "distributions must map covariate names to row lists"),
            ({"params": [1]}, "params must be an object, got list"),
            ({"params": {"beta": "x"}}, "params['beta'] must be a number, got 'x'"),
            (dict(M1_CONFIG, aliases={"f9.x": "z"}), "aliases for unknown parameters: f9.x"),
            (dict(M1_CONFIG, aliases={"f1.intercept": "a", "f1.age": "a"}), "alias display names must be distinct"),
            (dict(M1_CONFIG, aliases={"f1.intercept": "f1.age"}), "aliases shadow canonical names: f1.age"),
            (dict(M1_CONFIG, params=dict(M1_CONFIG["params"], nosuch=1)), "unknown parameter name 'nosuch'"),
            (
                dict(M1_CONFIG, params=dict(M1_CONFIG["params"], **{"f1.intercept": 0.0})),
                "parameter 'f1.intercept' bound more than once",
            ),
        ],
        ids=[
            "invalid JSON",
            "root not an object",
            "unknown keys",
            "model not a string",
            "alias not a string",
            "distribution not a row list",
            "params not an object",
            "param not a number",
            "alias of an unknown parameter",
            "duplicate display names",
            "alias shadows a canonical name",
            "unknown parameter",
            "bound by alias and canonically",
        ],
    )
    def test_malformed_config_exits_3(self, config, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        rc, out, err = run_cli(capsys, "eval", "--config", str(path))
        assert (rc, out) == (3, "")
        assert err.startswith(f"error: {message.format(path=path)}")
        assert err.endswith("\n") and err.count("\n") == 1

    def test_non_finite_probability_exits_4(self, capsys):
        model = "y = Ber(1/2) | ScRisk1(1) | ScRisk1(1)"
        argv = ["eval", "--model", model, "--bind", "f1.intercept=700", "--bind", "f2.intercept=700"]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (4, "")
        assert err == "evaluation error: flow 2: non-finite probability inf\n"


class TestSweep:
    def test_rows_in_odometer_order(self, m1_config, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        rc, out, err = run_cli(
            capsys,
            "sweep",
            "--config",
            m1_config,
            "--vary",
            "beta=0:0.2:0.1",
            "--vary",
            "gamma=0:0.1:0.1",
            "--out",
            str(out_csv),
        )
        assert rc == 0
        assert out == ""
        assert "wrote 6 rows" in err
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["beta", "gamma", "probability", "valid"]
        betas = [float(r[0]) for r in rows[1:]]
        gammas = [float(r[1]) for r in rows[1:]]
        # The last --vary axis cycles fastest.
        assert betas == [0.0, 0.0, 0.1, 0.1, 0.2, 0.2]
        assert gammas == [0.0, 0.1, 0.0, 0.1, 0.0, 0.1]
        assert all(r[3] in {"true", "false"} for r in rows[1:])

    def test_reruns_are_byte_identical(self, m1_config, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            rc, _, _ = run_cli(
                capsys,
                "sweep",
                "--config",
                m1_config,
                "--vary",
                "beta=-1:1:0.25",
                "--vary",
                "age=20:60:20",
                "--out",
                str(path),
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rows_reproduce_under_eval(self, m1_config, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        run_cli(
            capsys,
            "sweep",
            "--config",
            m1_config,
            "--vary",
            "beta=-0.5:0.5:0.5",
            "--out",
            str(out_csv),
        )
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        for row in rows:
            rc, out, _ = run_cli(
                capsys, "eval", "--config", m1_config, "--bind", f"beta={row['beta']}"
            )
            assert rc == 0
            payload = json.loads(out)
            assert payload["probability"] == float(row["probability"])
            assert str(payload["valid"]).lower() == row["valid"]

    def test_no_vary_gives_single_fixed_row(self, m1_config, tmp_path, capsys):
        out_csv = tmp_path / "one.csv"
        rc, _, err = run_cli(capsys, "sweep", "--config", m1_config, "--out", str(out_csv))
        assert rc == 0
        assert "wrote 1 rows" in err
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["probability", "valid"]
        assert close(float(rows[1][0]), 0.68)

    def test_exponentials_are_taken_once_per_predictor_value(self, m1_config, tmp_path, capsys, monkeypatch):
        # The grid goes to the batch as sparse axes, so each flow's scalers
        # are taken on its own predictor: 1 + 201 + 201 values, not 3 x 40,401.
        sizes = []

        def counting(lp):
            sizes.append(np.size(lp))
            return exp_each(lp)

        exp_each = engine._exp_each
        monkeypatch.setattr(engine, "_exp_each", counting)
        varies = ["--vary", "beta=-1:1:0.01", "--vary", "gamma=-1:1:0.01"]
        rc, _, err = run_cli(capsys, "sweep", "--config", m1_config, *varies, "--out", str(tmp_path / "g.csv"))
        assert rc == 0 and "wrote 40401 rows" in err
        assert sizes == [1, 201, 201]

    def test_out_is_required(self, m1_config, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--config", m1_config, "--vary", "beta=0:1:0.5")
        assert rc == 3
        assert "requires --out" in err

    @pytest.mark.parametrize(
        "vary",
        [
            "beta",
            "beta=0:1",
            "beta=0:1:0",
            "beta=1:0:0.1",
            "beta=a:b:c",
            "f1.intercept=-1e308:1e308:1e308",
        ],
    )
    def test_malformed_vary_exits_3(self, m1_config, tmp_path, vary, capsys):
        rc, _, err = run_cli(
            capsys, "sweep", "--config", m1_config, "--vary", vary, "--out", str(tmp_path / "x.csv")
        )
        assert rc == 3
        assert "bad --vary" in err

    def test_overflow_mid_grid_exits_4_and_writes_nothing(self, m1_config, tmp_path, capsys):
        out_csv = tmp_path / "x.csv"
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            m1_config,
            "--vary",
            "f1.intercept=0:800:400",
            "--out",
            str(out_csv),
        )
        assert rc == 4
        with pytest.raises(EvaluationError) as scalar:
            evaluate(parse(MODEL1_SPEC), dict(M1_PARAMS, **{"f1.intercept": 800.0}), M1_CONFIG["covariates"])
        assert err == f"evaluation error: {scalar.value}\n"
        assert not out_csv.exists()

    def test_unknown_vary_name_exits_3(self, m1_config, tmp_path, capsys):
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            m1_config,
            "--vary",
            "zeta=0:1:0.5",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert rc == 3
        assert "neither a parameter nor a covariate" in err

    def test_duplicate_vary_target_exits_3(self, m1_config, tmp_path, capsys):
        # "beta" is the alias of f2.trt1, so both options vary one parameter.
        out_csv = tmp_path / "x.csv"
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            m1_config,
            "--vary",
            "beta=0:1:0.5",
            "--vary",
            "f2.trt1=-1:0:1",
            "--out",
            str(out_csv),
        )
        assert rc == 3
        assert "duplicate --vary" in err
        assert not out_csv.exists()

    def test_header_is_csv_quoted(self, tmp_path, capsys):
        aliases = {"f1.intercept": "a,0", "f1.age": 'a"1', "f2.trt1": "beta", "f3.trt2": "gamma"}
        params = {"a,0": 0.0, 'a"1': 0.0, "beta": 0.0, "gamma": 0.0}
        config = tmp_path / "quoted.json"
        config.write_text(json.dumps(dict(M1_CONFIG, aliases=aliases, params=params)), encoding="utf-8")
        out_csv = tmp_path / "grid.csv"
        rc, _, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(config),
            "--vary",
            "a,0=0:1:1",
            "--vary",
            'a"1=0:0:1',
            "--out",
            str(out_csv),
        )
        assert rc == 0
        text = out_csv.read_text(encoding="utf-8")
        assert text.startswith('"a,0","a""1",probability,valid\n')
        assert next(csv.reader(text.splitlines())) == ["a,0", 'a"1', "probability", "valid"]

    def test_grid_past_row_cap_exits_3_quickly(self, m1_config, tmp_path, capsys):
        # 1,000,001 rows, one past the cap; no axis may be built before the refusal.
        out_csv = tmp_path / "x.csv"
        t0 = time.perf_counter()
        rc, _, err = run_cli(
            capsys, "sweep", "--config", m1_config, "--vary", "beta=0:1:1e-6", "--out", str(out_csv)
        )
        elapsed = time.perf_counter() - t0
        assert rc == 3
        assert "past 1000000 rows" in err
        assert not out_csv.exists()
        assert elapsed < 1.0


class TestEffect:
    def test_measure_choices_are_the_measures(self):
        """The parser spells the choices, so that building it loads no ``measures``."""
        commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        measure = next(a for a in commands.choices["effect"]._actions if a.dest == "measure")
        assert measure.choices == [m.value for m in Measure]

    def test_matches_library_effect(self, m1_config, capsys):
        rc, out, _ = run_cli(capsys, "effect", "--config", m1_config, "--target", "trt1")
        assert rc == 0
        payload = json.loads(out)
        report = effect(
            parse(MODEL1_SPEC),
            M1_PARAMS,
            EffectQuery(target="trt1", context={"age": 40.0, "trt2": 1.0}),
        )
        assert payload["value"] == report.value
        assert close(payload["value"], 0.68 / 0.6)
        assert payload["endpoint_probs"] == list(report.endpoint_probs)

    @pytest.mark.parametrize("measure", ["RR", "SR", "OR"])
    def test_each_measure_is_selectable(self, m1_config, measure, capsys):
        rc, out, _ = run_cli(
            capsys, "effect", "--config", m1_config, "--target", "trt2", "--measure", measure
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["measure"] == measure
        report = effect(
            parse(MODEL1_SPEC),
            M1_PARAMS,
            EffectQuery(
                target="trt2", context={"age": 40.0, "trt1": 1.0}, measure=Measure(measure)
            ),
        )
        assert payload["value"] == report.value

    def test_zero_denominator_exits_5(self, capsys):
        rc, out, err = run_cli(
            capsys,
            "effect",
            "--model",
            "y = Ber(0) | ScRisk1(0+trt1)",
            "--bind",
            "f1.trt1=0.5",
            "--target",
            "trt1",
        )
        assert rc == 5
        payload = json.loads(out)
        assert math.isnan(payload["value"])
        assert payload["valid"] is False
        assert "not valid" in err

    def test_equal_levels_exit_5(self, m1_config, capsys):
        rc, _, err = run_cli(
            capsys,
            "effect",
            "--config",
            m1_config,
            "--target",
            "trt1",
            "--low",
            "1",
            "--high",
            "1",
        )
        assert rc == 5
        assert "bad effect query" in err

    @pytest.mark.parametrize(
        "binds", [["trt1=0.3"], ["trt1=1e300"], ["beta=0.5", "trt1=0", "age=30", "trt1=nan"]]
    )
    def test_refuses_binds_of_the_target(self, binds, m1_config, capsys):
        # effect sets the target to --low and --high, so these binds would be ignored.
        flags = itertools.chain(*(["--bind", b] for b in binds))
        argv = ["effect", "--config", m1_config, "--target", "trt1", *flags]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 5
        assert out == ""
        named = ", ".join(f"--bind {b}" for b in binds if b.startswith("trt1"))
        assert f"effect --target trt1 sets trt1 itself and takes no {named}" in err

    def test_parameter_alias_spelled_like_the_target_applies(self, tmp_path, capsys):
        # The bind resolves to the aliased parameter, not to the covariate trt1.
        path = tmp_path / "alias.json"
        path.write_text(json.dumps(dict(M1_CONFIG, aliases={"f2.trt1": "trt1"}, params=M1_PARAMS)))
        rc, out, _ = run_cli(
            capsys, "effect", "--config", str(path), "--target", "trt1", "--bind", "trt1=0.5"
        )
        assert rc == 0
        query = EffectQuery(target="trt1", context={"age": 40.0, "trt2": 1.0})
        expected = effect(parse(MODEL1_SPEC), dict(M1_PARAMS, **{"f2.trt1": 0.5}), query)
        assert json.loads(out)["value"] == expected.value

    @pytest.mark.parametrize("target", ["trt9", "Trt1", "beta"])
    def test_refuses_a_target_the_model_never_references(self, target, m1_config, capsys):
        # evaluate ignores extra covariates, so such a target would read as "no effect".
        rc, out, err = run_cli(capsys, "effect", "--config", m1_config, "--target", target)
        assert rc == 5
        assert out == ""
        assert f"effect --target {target} is not a covariate of the model" in err
        assert "(covariates: age, trt1, trt2)" in err

    def test_names_no_covariates_for_a_model_without_any(self, capsys):
        rc, _, err = run_cli(capsys, "effect", "--model", "y = Ber(1/2) | ScOdds(1)", "--target", "trt1")
        assert rc == 5
        assert "is not a covariate of the model (covariates: none)" in err


class TestMarginalize:
    def test_matches_library_marginalize(self, m1_config, capsys):
        rc, out, _ = run_cli(capsys, "marginalize", "--config", m1_config, "--over", "trt2")
        assert rc == 0
        payload = json.loads(out)
        over = CovariateDistribution.from_table("trt2", M1_CONFIG["distributions"]["trt2"])
        expected = marginalize(
            parse(MODEL1_SPEC), M1_PARAMS, over, {"age": 40.0, "trt1": 1.0}
        )
        assert payload == {"covariate": "trt2", "probability": expected}
        assert close(expected, 0.648)

    def test_missing_distribution_exits_6(self, m1_config, capsys):
        rc, _, err = run_cli(capsys, "marginalize", "--config", m1_config, "--over", "age")
        assert rc == 6
        assert "no distribution" in err

    @pytest.mark.parametrize("over", ["Trt2", "trt9"])
    def test_refuses_a_covariate_the_model_never_references(self, over, tmp_path, capsys):
        # evaluate ignores extra covariates, so with the Trt2 table the plain
        # probability would read as a marginal; trt9, with no table, is
        # refused for the same reason, not for the missing table.
        path = tmp_path / "Trt2.json"
        path.write_text(json.dumps(dict(M1_CONFIG, distributions={"Trt2": M1_CONFIG["distributions"]["trt2"]})))
        rc, out, err = run_cli(capsys, "marginalize", "--config", str(path), "--over", over)
        assert (rc, out) == (6, "")
        assert err == f"error: marginalize --over {over} is not a covariate of the model (covariates: age, trt1, trt2)\n"

    @pytest.mark.parametrize("binds", [["trt2=0.3"], ["trt2=nan"], ["gamma=0.1", "trt2=1", "trt1=0"]])
    def test_refuses_binds_of_the_marginalized_covariate(self, binds, m1_config, capsys):
        # marginalize sets trt2 to each support value, so these binds would be ignored.
        flags = itertools.chain(*(["--bind", b] for b in binds))
        argv = ["marginalize", "--config", m1_config, "--over", "trt2", *flags]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 6
        assert out == ""
        named = ", ".join(f"--bind {b}" for b in binds if b.startswith("trt2"))
        assert f"marginalize --over trt2 sets trt2 itself and takes no {named}" in err

    def test_parameter_alias_spelled_like_the_covariate_applies(self, tmp_path, capsys):
        # The bind resolves to the aliased parameter, not to the covariate trt2.
        path = tmp_path / "alias.json"
        path.write_text(json.dumps(dict(M1_CONFIG, aliases={"f3.trt2": "trt2"}, params=M1_PARAMS)))
        rc, out, _ = run_cli(
            capsys, "marginalize", "--config", str(path), "--over", "trt2", "--bind", "trt2=-0.5"
        )
        assert rc == 0
        over = CovariateDistribution.from_table("trt2", M1_CONFIG["distributions"]["trt2"])
        params = dict(M1_PARAMS, **{"f3.trt2": -0.5})
        expected = marginalize(parse(MODEL1_SPEC), params, over, {"age": 40.0, "trt1": 1.0})
        assert json.loads(out) == {"covariate": "trt2", "probability": expected}


class TestCheckRecovery:
    def test_explicit_flags_null_gamma_always_recovers(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "check-recovery",
            "--eta1",
            "1.0",
            "--beta",
            str(math.log(1.2)),
            "--gamma",
            "0",
            "--pi0",
            "0.3",
            "--pi1",
            "0.7",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["condition_value"] == 0.0
        assert payload["condition_holds"] is True
        assert payload["rr_matches"] is True
        assert close(payload["marginal_rr"], 1.2)

    def test_readme_commands_print_these_bytes(self, tmp_path, capsys):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(README_CONFIG), encoding="utf-8")
        flags = ["--eta1", "1", "--beta", "0.1823", "--gamma", "0", "--pi0", "0.3", "--pi1", "0.7"]
        assert run_cli(capsys, "check-recovery", *flags) == (0, README_CHECK_RECOVERY_FLAGS_STDOUT, "")
        assert run_cli(capsys, "check-recovery", "--config", str(path)) == (0, README_CHECK_RECOVERY_CONFIG_STDOUT, "")

    def test_inputs_derived_from_config(self, m1_config, capsys):
        rc, out, _ = run_cli(capsys, "check-recovery", "--config", m1_config)
        assert rc == 0
        payload = json.loads(out)
        assert payload["eta1"] == 1.0
        assert payload["pi0"] == 0.4
        assert payload["pi1"] == 0.6
        # The fixture's distribution satisfies the balance condition, so the
        # marginal risk ratio lands exactly on exp(beta).
        assert payload["condition_holds"] is True
        assert payload["rr_matches"] is True
        assert close(payload["marginal_rr"], 1.2)

    def test_flag_overrides_beat_config_values(self, m1_config, capsys):
        rc, out, _ = run_cli(
            capsys, "check-recovery", "--config", m1_config, "--pi1", "0.4"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["pi1"] == 0.4
        assert payload["condition_holds"] is False
        assert payload["rr_matches"] is False

    def test_suite_mode(self, capsys):
        rc, out, _ = run_cli(
            capsys, "check-recovery", "--trials", "200", "--constructed", "50", "--seed", "11"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["n_random"] == 200
        assert payload["n_constructed"] == 50
        assert payload["n_agree"] == 250
        assert payload["n_disagree"] == 0
        assert payload["all_agree"] is True

    @pytest.mark.parametrize(
        "counts",
        [
            ["--trials", "-3"],
            ["--trials", "5", "--constructed", "-1"],
            ["--trials", "0", "--constructed", "0"],
        ],
    )
    def test_negative_suite_counts_exit_7(self, counts, capsys):
        rc, out, err = run_cli(capsys, "check-recovery", *counts)
        assert rc == 7
        assert out == ""
        assert "must be non-negative" in err

    def test_negative_seed_exits_7(self, capsys):
        rc, out, err = run_cli(capsys, "check-recovery", "--trials", "5", "--constructed", "1", "--seed", "-3")
        assert (rc, out) == (7, "")
        assert err == "error: seed must be non-negative, got -3\n"

    def test_zero_marginal_at_trt1_0_exits_7(self, capsys):
        argv = ["--eta1", "1", "--beta", "0", "--gamma", str(math.log(2.0)), "--pi0", "1", "--pi1", "0.5"]
        rc, out, err = run_cli(capsys, "check-recovery", *argv)
        assert (rc, out) == (7, "")
        assert err == "error: marginal probability at trt1=0 is zero; risk ratio undefined\n"

    def test_no_inputs_exits_7(self, capsys):
        rc, _, err = run_cli(capsys, "check-recovery", "--eta1", "1.0")
        assert rc == 7
        assert "check-recovery needs" in err

    def test_trt2_table_is_validated_as_for_marginalize(self, tmp_path, capsys):
        # trt1=0 rows sum to 1.3 and the trt1=1 group has no value-0 row.
        rows = [
            {"context": {"trt1": 0}, "value": 1, "probability": 0.4},
            {"context": {"trt1": 0}, "value": 0, "probability": 0.9},
            {"context": {"trt1": 1}, "value": 1, "probability": 0.6},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(M1_CONFIG, distributions={"trt2": rows})), encoding="utf-8")
        rc, out, err = run_cli(capsys, "check-recovery", "--config", str(path))
        assert rc == 7
        assert out == ""
        assert "sums to 1.3" in err
        rc, _, _ = run_cli(capsys, "marginalize", "--config", str(path), "--over", "trt2")
        assert rc == 6

    @pytest.mark.parametrize(
        "rows, pi",
        [
            ([{"value": 1, "probability": 0.3}, {"value": 0, "probability": 0.7}], 0.3),
            ([{"value": 0, "probability": 1.0}], 0.0),
        ],
    )
    def test_context_free_trt2_table_gives_equal_prevalences(self, rows, pi, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(dict(M1_CONFIG, distributions={"trt2": rows})), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "check-recovery", "--config", str(path))
        assert rc == 0
        payload = json.loads(out)
        assert payload["pi0"] == payload["pi1"] == pi

    @pytest.mark.parametrize(
        "rows, code, report, err",
        [
            (
                README_CONFIG["distributions"]["trt2"],
                0,
                {"pi0": 0.4, "pi1": 0.6, "marginal_rr": 1.1999789217003787, "target": 1.1999741321260697,
                 "condition_value": 5.172673502493467e-06, "condition_holds": False, "rr_matches": False,
                 "marginal_low": 0.5399930316379868, "marginal_high": 0.6479802558306699},
                "",
            ),
            (
                [{"value": 1, "probability": 1}],
                0,
                {"pi0": 1.0, "pi1": 1.0, "marginal_rr": 1.1333257653938167, "target": 1.1999741321260697,
                 "condition_value": -0.07997571792896876, "condition_holds": False, "rr_matches": False,
                 "marginal_low": 0.5999825790949672, "marginal_high": 0.6799757156757599},
                "",
            ),
            (
                [{"value": 0, "probability": 1}],
                0,
                {"pi0": 0.0, "pi1": 0.0, "marginal_rr": 1.1999741321260697, "target": 1.1999741321260697,
                 "condition_value": -0.0, "condition_holds": True, "rr_matches": True,
                 "marginal_low": 0.5, "marginal_high": 0.5999870660630349},
                "",
            ),
            (
                [{"context": {"sex": s}, "value": v, "probability": p}
                 for s, pi in ((0, 0.3), (1, 0.5)) for v, p in ((1, pi), (0, 1.0 - pi))],
                7,
                None,
                "error: no distribution rows match context {'trt1': 0.0}\n",
            ),
            (
                # The config binds age = 40, so these rows match as README's table does.
                [dict(row, context={**row["context"], "age": 40}) for row in README_CONFIG["distributions"]["trt2"]],
                0,
                {"pi0": 0.4, "pi1": 0.6, "marginal_rr": 1.1999789217003787, "target": 1.1999741321260697,
                 "condition_value": 5.172673502493467e-06, "condition_holds": False, "rr_matches": False,
                 "marginal_low": 0.5399930316379868, "marginal_high": 0.6479802558306699},
                "",
            ),
            (
                [{"context": ctx, "value": v, "probability": 0.5} for ctx in ({"trt1": 0}, {"trt1": 0, "age": 40})
                 for v in (0, 1)],
                7,
                None,
                "error: ambiguous distribution: 2 row groups match context {'age': 40.0, 'trt1': 0.0}\n",
            ),
        ],
        ids=["conditional", "trt2 always 1", "trt2 always 0", "conditional on sex only",
             "conditional on trt1 and age", "trt1 = 0 with and without age"],
    )
    def test_prevalences_read_off_the_trt2_table(self, rows, code, report, err, tmp_path, capsys):
        # pi0 and pi1 are the table's probabilities of trt2 = 1 at trt1 = 0 and 1, or 0.0 when
        # 1 is not in its support; the report's bytes are pinned, key order and float text.
        path = tmp_path / "table.json"
        path.write_text(json.dumps(dict(README_CONFIG, distributions={"trt2": rows})), encoding="utf-8")
        inputs = {"eta1": 1.0, "beta": 0.1823, "gamma": -0.2231}
        out = "" if report is None else json.dumps({**inputs, **report}, indent=2) + "\n"
        assert run_cli(capsys, "check-recovery", "--config", str(path)) == (code, out, err)

    def test_non_binary_trt2_support_exits_7(self, tmp_path, capsys):
        rows = [{"value": 2, "probability": 0.3}, {"value": 0, "probability": 0.7}]
        path = tmp_path / "ternary.json"
        path.write_text(json.dumps(dict(M1_CONFIG, distributions={"trt2": rows})), encoding="utf-8")
        rc, out, err = run_cli(capsys, "check-recovery", "--config", str(path))
        assert rc == 7
        assert out == ""
        assert "trt2 must be binary" in err

    @pytest.mark.parametrize("beta, gamma", [(0.1, 1000.0), (1000.0, 0.1)])
    def test_overflowing_exponential_exits_7(self, beta, gamma, capsys):
        rc, out, err = run_cli(
            capsys,
            "check-recovery",
            "--eta1",
            "1",
            "--beta",
            str(beta),
            "--gamma",
            str(gamma),
            "--pi0",
            "0.5",
            "--pi1",
            "0.5",
        )
        assert rc == 7
        assert out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("beta, gamma", [(0.1, -1000.0), (-1000.0, 0.1)])
    def test_underflowing_exponential_exits_7(self, beta, gamma, capsys):
        rc, out, err = run_cli(
            capsys,
            "check-recovery",
            "--eta1",
            "1",
            "--beta",
            str(beta),
            "--gamma",
            str(gamma),
            "--pi0",
            "0.5",
            "--pi1",
            "0.5",
        )
        assert rc == 7
        assert out == ""
        assert "underflows to 0" in err

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--bind", "beta=9"], "--bind"),
            (["--eta1", "1", "--pi1", "0.3"], "--eta1, --pi1"),
            (["--beta", "0.1"], "--beta"),
            (["--gamma", "0.1", "--pi0", "0.2"], "--gamma, --pi0"),
            (["--model", MODEL1_SPEC], "--model"),
            (["--config", "m1.json"], "--config"),
        ],
    )
    def test_trials_refuses_single_check_inputs(self, extra, named, capsys):
        rc, out, err = run_cli(capsys, "check-recovery", "--trials", "5", *extra)
        assert rc == 7
        assert out == ""
        assert f"takes no {named}" in err

    def test_suite_defaults(self, capsys):
        rc, out, _ = run_cli(capsys, "check-recovery", "--trials", "20")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["n_constructed"], payload["seed"]) == (1000, 0)

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--seed", "5"], "--seed"),
            (["--constructed", "-4"], "--constructed"),
            (["--seed", "0", "--constructed", "1000"], "--constructed, --seed"),
        ],
    )
    def test_single_check_refuses_suite_inputs(self, extra, named, m1_config, capsys):
        five = ["--eta1", "1", "--beta", "0.1823", "--gamma", "0", "--pi0", "0.3", "--pi1", "0.7"]
        for inputs in (five, ["--config", m1_config]):
            rc, out, err = run_cli(capsys, "check-recovery", *inputs, *extra)
            assert rc == 7
            assert out == ""
            assert f"without --trials takes no {named}" in err

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--config", "/nonexistent.json"], "--config"),
            (["--model", "garbage(("], "--model"),
            (["--bind", "nosuch=abc"], "--bind"),
            (["--model", MODEL1_SPEC, "--bind", "beta=1"], "--model, --bind"),
        ],
    )
    def test_five_inputs_refuse_config_model_and_bind(self, extra, named, capsys):
        five = ["--eta1", "1", "--beta", "0.1823", "--gamma", "0", "--pi0", "0.3", "--pi1", "0.7"]
        rc, out, err = run_cli(capsys, "check-recovery", *five, *extra)
        assert rc == 7
        assert out == ""
        assert f"--pi1 takes no {named}" in err

    @pytest.mark.parametrize(
        "model",
        [
            "y = Ber(1/3) | ScRisk0(1+age) | ScRisk1(0+trt1) | ScOdds(0+trt2)",
            "y = Ber(1/3) | ScOdds(1+age) | ScRisk1(0+trt1) | ScRisk0(0+trt2)",
        ],
    )
    def test_config_model_must_be_model1(self, model, tmp_path, capsys):
        # Both models take the README's params, yet neither is Model 1.
        path = tmp_path / "other.json"
        path.write_text(json.dumps(dict(M1_CONFIG, model=model)), encoding="utf-8")
        rc, out, err = run_cli(capsys, "check-recovery", "--config", str(path))
        assert rc == 7
        assert out == ""
        assert "cannot derive" in err

    def test_config_outcome_name_is_free(self, m1_config, tmp_path, capsys):
        path = tmp_path / "event.json"
        model = MODEL1_SPEC.replace("y", "event", 1)
        path.write_text(json.dumps(dict(M1_CONFIG, model=model)), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "check-recovery", "--config", str(path))
        assert rc == 0
        assert out == run_cli(capsys, "check-recovery", "--config", m1_config)[1]

    def test_overflowing_derived_eta1_exits_7(self, tmp_path, capsys):
        params = dict(M1_PARAMS, **{"f1.intercept": 1000.0})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(M1_CONFIG, aliases={}, params=params)), encoding="utf-8")
        rc, out, err = run_cli(capsys, "check-recovery", "--config", str(path))
        assert rc == 7
        assert out == ""
        assert "cannot derive eta1" in err

    @pytest.mark.parametrize(
        "binds",
        [["trt1=0"], ["trt2=0.5"], ["trt1=1e300"], ["age=30", "trt2=1", "trt1=0"]],
    )
    def test_config_refuses_treatment_binds(self, binds, m1_config, capsys):
        # The check sets trt1 and trt2 itself, so these binds would be ignored.
        argv = ["check-recovery", "--config", m1_config, *itertools.chain(*(["--bind", b] for b in binds))]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 7
        assert out == ""
        named = ", ".join(f"--bind {b}" for b in binds if b.startswith("trt"))
        assert f"sets trt1 and trt2 itself and takes no {named}" in err

    def test_config_takes_parameter_and_age_binds(self, m1_config, capsys):
        binds = ["--bind", "beta=0.5", "--bind", "alpha1=0.01", "--bind", "age=30"]
        rc, out, _ = run_cli(capsys, "check-recovery", "--config", m1_config, *binds)
        assert rc == 0
        payload = json.loads(out)
        assert payload["beta"] == 0.5
        assert payload["eta1"] == math.exp(0.01 * 30.0)

    @pytest.mark.parametrize(
        "change, flags, message",
        [
            (
                {"aliases": {}, "params": {k: v for k, v in M1_PARAMS.items() if k != "f3.trt2"}},
                [],
                "config params missing f3.trt2; cannot derive inputs",
            ),
            ({"covariates": {"trt1": 1, "trt2": 1}}, [], "config covariates must bind age to derive eta1"),
            ({"distributions": {}}, [], "config has no trt2 distribution; pass --pi0/--pi1"),
            ({"distributions": {}}, ["--pi0", "0.4"], "config has no trt2 distribution; pass --pi0/--pi1"),
        ],
        ids=["no f3.trt2", "no age", "no trt2 table", "no trt2 table, --pi0 only"],
    )
    def test_config_without_an_input_exits_7(self, change, flags, message, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(dict(M1_CONFIG, **change)), encoding="utf-8")
        rc, out, err = run_cli(capsys, "check-recovery", "--config", str(path), *flags)
        assert (rc, out, err) == (7, "", f"error: {message}\n")

    def test_eta1_flag_needs_no_age_in_the_config(self, tmp_path, capsys):
        path = tmp_path / "ageless.json"
        path.write_text(json.dumps(dict(M1_CONFIG, covariates={"trt1": 1, "trt2": 1})), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "check-recovery", "--config", str(path), "--eta1", "2.5")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["eta1"], payload["pi0"], payload["pi1"]) == (2.5, 0.4, 0.6)

    @pytest.mark.parametrize(
        "rows",
        [
            [1, 2],
            [None],
            ["a"],
            [{"value": 1, "probability": 10**400}],
            [{"context": {"trt1": 10**400}, "value": 1, "probability": 1.0}],
            # Rows no query could use; JSON NaN and Infinity load as floats.
            [{"value": math.nan, "probability": 1.0}],
            [{"value": 0, "probability": 0.5}, {"value": math.inf, "probability": 0.5}],
            [{"context": {"trt1": math.nan}, "value": 1, "probability": 1.0}],
            [{"context": {"trt2": 0}, "value": 1, "probability": 1.0}],
        ],
        ids=[
            "ints", "null", "string", "huge probability", "huge context",
            "nan value", "infinite value", "nan context", "own covariate in context",
        ],
    )
    def test_malformed_trt2_row_exits_7_and_6_for_marginalize(self, rows, tmp_path, capsys):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(dict(M1_CONFIG, distributions={"trt2": rows})), encoding="utf-8")
        for command, code in ((["check-recovery"], 7), (["marginalize", "--over", "trt2"], 6)):
            rc, out, err = run_cli(capsys, *command, "--config", str(path))
            assert (rc, out) == (code, "")
            assert err.startswith("error: malformed distribution row ")

    def test_underspecified_config_exits_7(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"model": "y = Ber(1/2)"}), encoding="utf-8")
        rc, _, err = run_cli(capsys, "check-recovery", "--config", str(path))
        assert rc == 7
        assert "cannot derive" in err


class TestOrderings:
    def test_report_on_stdout(self, m1_config, capsys):
        rc, out, _ = run_cli(
            capsys, "orderings", "--config", m1_config, "--grid-size", "3"
        )
        assert rc == 0
        payload = json.loads(out)
        assert sum(len(group) for group in payload["classes"]) == 6
        assert payload["grid_size"] == 3
        orders = [p["order"] for p in payload["permutations"]]
        assert [1, 2, 3] in orders and [1, 3, 2] in orders

    def test_report_to_file(self, m1_config, tmp_path, capsys):
        out_path = tmp_path / "orderings.json"
        rc, out, _ = run_cli(
            capsys,
            "orderings",
            "--config",
            m1_config,
            "--grid-size",
            "3",
            "--out",
            str(out_path),
        )
        assert rc == 0
        assert out == ""
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["model"] == MODEL1_SPEC

    def test_stdout_and_out_file_are_the_indented_dump(self, m1_config, tmp_path, capsys):
        out_path = tmp_path / "orderings.json"
        args = ("orderings", "--config", m1_config, "--grid-size", "3")
        rc, out, err = run_cli(capsys, *args)
        assert (rc, err) == (0, "")
        rc, to_file, err = run_cli(capsys, *args, "--out", str(out_path))
        assert (rc, to_file, err) == (0, "", "")
        written = out_path.read_bytes().decode("utf-8")
        report = enumerate_orderings(parse(MODEL1_SPEC), grid_size=3)
        assert report.witnesses
        assert out == written == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_too_many_flows_exits_8(self, capsys):
        flows = " | ".join(f"ScRisk1(0+c{k})" for k in range(9))
        rc, _, err = run_cli(
            capsys, "orderings", "--model", f"y = Ber(1/2) | {flows}", "--grid-size", "2"
        )
        assert rc == 8
        assert "orderings" in err

    def test_too_many_witnesses_exits_8(self, capsys):
        # Alternating kinds leave 2,286 classes, so C(2286, 2) witness pairs.
        kinds = ["ScOdds", "ScRisk1", "ScRisk0", "ScOdds", "ScRisk1", "ScRisk0", "ScOdds"]
        model = "y = Ber(1/2) | " + " | ".join(f"{kind}(1)" for kind in kinds)
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "orderings", "--model", model, "--grid-size", "2")
        elapsed = time.perf_counter() - t0
        assert rc == 8
        assert out == ""
        assert "2286 classes would need 2611755 witnesses" in err
        assert elapsed < 1.0

    def test_representative_value_cap_exits_8_quickly(self, capsys):
        # 6 alternating flows at grid 10: 426 classes on 10**6 points, which
        # would hold about 3.8 GB of representative arrays.
        model = "y = Ber(1/2) | " + " | ".join(["ScOdds(1)", "ScRisk1(1)", "ScRisk0(1)"] * 2)
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "orderings", "--model", model, "--grid-size", "10")
        elapsed = time.perf_counter() - t0
        assert rc == 8
        assert out == ""
        assert "426 classes on 1000000 points would hold 426000000 representative values" in err
        assert elapsed < 1.0

    def test_bad_range_exits_8(self, m1_config, capsys):
        rc, _, err = run_cli(
            capsys, "orderings", "--config", m1_config, "--range", "age=20"
        )
        assert rc == 8
        assert "bad --range" in err
        rc, out, err = run_cli(capsys, "orderings", "--config", m1_config, "--range", "agee=20:60")
        assert rc == 8
        assert out == ""
        assert "'agee', which is not a covariate" in err

    def test_overflowing_range_span_exits_8(self, capsys):
        # Both ends are finite, but hi - lo is inf, so the grid would be NaN.
        rc, out, err = run_cli(
            capsys, "orderings", "--model", MODEL1_SPEC, "--grid-size", "2", "--range", "age=-1e308:1e308"
        )
        assert (rc, out) == (8, "")
        assert err == "error: range for 'age' must have a finite span hi - lo, got (-1e+308, 1e+308)\n"

    def test_bind_is_refused(self, m1_config, capsys):
        rc, out, err = run_cli(
            capsys, "orderings", "--config", m1_config, "--grid-size", "2", "--bind", "age=99"
        )
        assert rc == 8
        assert out == ""
        assert "orderings takes no --bind" in err

    def test_duplicate_range_exits_8(self, m1_config, capsys):
        rc, out, err = run_cli(
            capsys, "orderings", "--config", m1_config, "--range", "age=0:1", "--range", "age=5:9"
        )
        assert rc == 8
        assert out == ""
        assert "duplicate --range for 'age'" in err


class TestExitCodes:
    """Each command's exit code is set once, in the parser wiring: a
    ValueError from the analysis a command runs exits with that code, as its
    own refusals do, and ``eval`` and ``sweep``, which have none, let it
    propagate."""

    @pytest.mark.parametrize(
        "name, argv, code",
        [
            ("effect", ["effect", "--config", "{config}", "--target", "trt1"], 5),
            ("marginalize", ["marginalize", "--config", "{config}", "--over", "trt2"], 6),
            ("recovery_condition", ["check-recovery", "--config", "{config}"], 7),
            ("enumerate_orderings", ["orderings", "--config", "{config}", "--grid-size", "2"], 8),
        ],
        ids=["effect", "marginalize", "check-recovery", "orderings"],
    )
    def test_an_analysis_value_error_exits_with_the_commands_code(self, name, argv, code, m1_config, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise ValueError(f"{name} refuses")

        monkeypatch.setattr(cli, name, refuse)
        rc, out, err = run_cli(capsys, *(arg.format(config=m1_config) for arg in argv))
        assert (rc, out, err) == (code, "", f"error: {name} refuses\n")

    @pytest.mark.parametrize("argv", [["eval"], ["sweep", "--out", "{out}"]], ids=["eval", "sweep"])
    def test_a_value_error_without_a_code_propagates(self, argv, m1_config, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("no code")

        monkeypatch.setattr(cli, "evaluate", refuse)
        monkeypatch.setattr(cli, "evaluate_batch", refuse)
        with pytest.raises(ValueError, match="no code"):
            main([*(arg.format(out=tmp_path / "s.csv") for arg in argv), "--config", m1_config])

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--vary", "beta=0:1:0.5"], ["orderings", "--grid-size", "2"]],
        ids=["sweep", "orderings"],
    )
    def test_a_failed_write_exits_3(self, argv, m1_config, tmp_path, capsys):
        out = tmp_path / "missing" / "report.out"
        rc, stdout, err = run_cli(capsys, *argv, "--config", m1_config, "--out", str(out))
        assert (rc, stdout) == (3, "")
        assert err.startswith(f"error: cannot write {out}: [Errno 2] No such file or directory")
        assert err.count("\n") == 1 and not out.parent.exists()

    def test_no_raise_carries_an_exit_code(self):
        """No ``raise`` in ``cli`` passes an integer literal: the codes are
        set in the parser wiring alone."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        found = [
            f"cli.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and any(
                isinstance(const, ast.Constant) and type(const.value) is int
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                for const in (*call.args, *(keyword.value for keyword in call.keywords))
            )
        ]
        assert found == []


def _flag_texts(names, n_parts, numbers=st.floats()):
    """Any text, or a name, "=", and parts joined by ":".  A part is one of
    ``numbers``, a non-finite spelling, or text without digits, so every
    finite value in a part is drawn from ``numbers``."""
    junk = st.text(st.characters(exclude_categories=["Nd"]), max_size=6)
    part = st.one_of(numbers.map(repr), st.sampled_from(["inf", "-nan", "1e999"]), junk)
    joined = st.lists(part, min_size=n_parts - 1, max_size=n_parts + 1).map(":".join)
    return st.one_of(st.text(), st.builds("{}={}".format, st.sampled_from(names), joined))


_FIXTURES_PER_TEST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestPackageSurface:
    MODULES = ("dsl", "engine", "marginal", "measures", "orderings")

    def test_package_exports_each_modules_public_names(self):
        modules = [getattr(flowcalc, name) for name in self.MODULES]
        names = [name for module in modules for name in module.__all__]
        assert len(names) == len(set(names))
        assert set(flowcalc.__all__) == {*names, "__version__"}
        for module in modules:
            for name in module.__all__:
                assert getattr(flowcalc, name) is getattr(module, name)
        namespace: dict = {}
        exec("from flowcalc import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(flowcalc.__all__)

    def test_batch_steps_stay_private_to_the_package(self):
        assert not {"batch_scalers", "fold_batch"} & set(flowcalc.__all__)

    def test_a_name_loads_its_module_on_first_use(self):
        code = (
            "import flowcalc\nf = flowcalc.evaluate\n"
            "print([f is flowcalc.engine.evaluate, 'evaluate' in vars(flowcalc), _flowcalc_modules()])"
        )
        assert _run_fresh(code) == [True, True, ["flowcalc.dsl", "flowcalc.engine"]]

    def test_star_import_yields_all_in_a_fresh_interpreter(self):
        code = "import flowcalc\nns = {}\nexec('from flowcalc import *', ns)\nprint(sorted(set(ns) - {'__builtins__'}))"
        assert _run_fresh(code) == sorted(flowcalc.__all__)

    def test_dir_lists_every_exported_name(self):
        assert _run_fresh("import flowcalc\nprint(sorted(set(flowcalc.__all__) - set(dir(flowcalc))))") == []

    @pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__"])
    def test_an_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(flowcalc, name)


    def test_a_missing_dependency_of_a_module_is_not_an_attribute_error(self):
        # The import of flowcalc.config fails on a module it imports, which is
        # not the module looked up, so the lookup re-raises that error rather
        # than search the five modules' names for "config".
        code = (
            "import importlib.abc, importlib.util\n"
            "class Broken(importlib.abc.MetaPathFinder, importlib.abc.Loader):\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        return importlib.util.spec_from_loader(name, self) if name == 'flowcalc.config' else None\n"
            "    def exec_module(self, module):\n"
            "        import flowcalc_missing_dependency\n"
            "sys.meta_path.insert(0, Broken())\n"
            "import flowcalc\n"
            "try:\n"
            "    flowcalc.config\n"
            "except Exception as exc:\n"
            "    print([type(exc).__name__, exc.name])\n"
        )
        assert _run_fresh(code) == ["ModuleNotFoundError", "flowcalc_missing_dependency"]


class TestDocumentedInvocations:
    """The command lines README.md shows, the console script pyproject.toml
    declares, and the spelling README gives for negative numbers in exponent
    notation."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_readme_command_examples_exit_0(self, tmp_path, monkeypatch, capsys):
        text = (self.ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        (config,) = re.findall(r"```json\n(.*?)```", section, re.S)
        (commands,) = re.findall(r"```sh\n(.*?)```", section, re.S)
        (tmp_path / "m1.json").write_text(config, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        lines = [shlex.split(line) for line in commands.splitlines() if line.startswith("flowcalc ")]
        assert len(lines) == 8
        for argv in lines:
            rc, _, err = run_cli(capsys, *argv[1:])
            assert rc == 0, (argv, err)

    def test_the_console_script_prints_the_usage(self):
        # As the console-script wrapper does: import the entry point's target
        # and exit with what it returns.
        pyproject = tomllib.loads((self.ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, function = pyproject["project"]["scripts"]["flowcalc"].split(":")
        code = f"import sys\nfrom {module} import {function}\nsys.exit({function}())"
        src = str(Path(flowcalc.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: flowcalc")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check-recovery", "--eta1", "1", "--gamma", "0.1", "--pi0", "0.5", "--pi1", "0.5"], "--beta"),
            (["effect", "--model", MODEL1_SPEC, "--target", "trt1", "--bind", "f1.intercept=0",
              "--bind", "f1.age=0", "--bind", "f2.trt1=0.2", "--bind", "f3.trt2=-0.2",
              "--bind", "age=1", "--bind", "trt2=1"], "--low"),
        ],
        ids=["check-recovery --beta", "effect --low"],
    )
    def test_a_negative_exponent_is_written_attached(self, argv, flag, capsys):
        # argparse takes a separate -1e-3 for an option name; attached, it
        # reads as the plain decimal does.
        decimal = run_cli(capsys, *argv, flag, "-0.001")
        assert decimal[0] == 0
        assert run_cli(capsys, *argv, f"{flag}=-1e-3") == decimal
        with pytest.raises(SystemExit) as exited:
            main([*argv, flag, "-1e-3"])
        assert exited.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err


def _run_fresh(code: str):
    """Run ``code`` in a fresh interpreter on this tree's ``flowcalc`` and read
    the last line it prints as a Python literal.  ``code`` may call
    ``_flowcalc_modules()``, the sorted ``flowcalc.*`` modules loaded so far."""
    src = str(Path(flowcalc.__file__).resolve().parents[1])
    prelude = "import sys\ndef _flowcalc_modules():\n    return sorted(m for m in sys.modules if m.startswith('flowcalc.'))\n"
    result = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


class TestNumpyLoading:
    """numpy is imported only where a batch runs, so the one-query commands
    start without it.  Each case runs in a fresh interpreter."""

    @staticmethod
    def numpy_loaded_after(code: str, module: str = "numpy") -> bool:
        src = str(Path(flowcalc.__file__).resolve().parents[1])
        script = f"import sys\n{code}\nprint({module!r} in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1] == "True"

    def test_importing_the_package_leaves_numpy_out(self):
        assert not self.numpy_loaded_after("import flowcalc")
        assert not self.numpy_loaded_after("import flowcalc.cli")

    def test_recovery_suite_leaves_numpy_random_out(self):
        """The suite reads its uniforms from random.Random; loading
        numpy.random to draw them instead adds about 2.3 MB to the peak RSS
        of the suite's command."""
        code = "from flowcalc.marginal import recovery_equivalence_suite\nrecovery_equivalence_suite(600, 600, 0)"
        assert not self.numpy_loaded_after(code, "numpy.random")

    def test_eval_effect_and_marginalize_leave_numpy_out(self, m1_config):
        runs = [
            ["eval", "--config", m1_config],
            ["effect", "--config", m1_config, "--target", "trt1"],
            ["marginalize", "--config", m1_config, "--over", "trt2"],
        ]
        code = f"from flowcalc import cli\nfor argv in {runs!r}:\n    assert cli.main(argv) == 0, argv"
        assert not self.numpy_loaded_after(code)

    def test_one_draw_check_recovery_leaves_numpy_out(self, m1_config):
        runs = [
            ["check-recovery", "--eta1", "1", "--beta", "0.18", "--gamma", "-0.1", "--pi0", "0.4", "--pi1", "0.6"],
            ["check-recovery", "--config", m1_config],
        ]
        code = f"from flowcalc import cli\nfor argv in {runs!r}:\n    assert cli.main(argv) == 0, argv"
        assert not self.numpy_loaded_after(code)

    def test_check_recovery_trials_loads_numpy(self):
        argv = ["check-recovery", "--trials", "10", "--constructed", "1"]
        assert self.numpy_loaded_after(f"from flowcalc import cli\nassert cli.main({argv!r}) == 0")

    def test_sweep_loads_numpy(self, m1_config, tmp_path):
        argv = ["sweep", "--config", m1_config, "--vary", "beta=0:1:0.5", "--out", str(tmp_path / "s.csv")]
        assert self.numpy_loaded_after(f"from flowcalc import cli\nassert cli.main({argv!r}) == 0")


class TestModuleLoading:
    """Each command imports only the analysis module it runs: ``cli`` loads
    ``config``, ``dsl`` and ``engine``, and ``marginal``, ``measures`` and
    ``orderings`` each load inside the commands that call them.  Each case
    runs in a fresh interpreter."""

    CLI = ["flowcalc.cli", "flowcalc.config", "flowcalc.dsl", "flowcalc.engine"]

    def test_importing_the_package_loads_no_module(self):
        assert _run_fresh("import flowcalc\nprint(_flowcalc_modules())") == []

    @pytest.mark.parametrize(
        "argv, added",
        [
            (["--help"], []),
            (["eval", "--config", "{config}"], []),
            (["effect", "--config", "{config}", "--target", "trt1"], ["flowcalc.measures"]),
            (["marginalize", "--config", "{config}", "--over", "trt2"], ["flowcalc.marginal"]),
            (["check-recovery", "--config", "{config}"], ["flowcalc.marginal"]),
            (["check-recovery", "--trials", "10", "--constructed", "1"], ["flowcalc.marginal"]),
            (["orderings", "--config", "{config}", "--grid-size", "2"], ["flowcalc.orderings"]),
            (["sweep", "--config", "{config}", "--vary", "beta=0:1:0.5", "--out", "{out}"], []),
        ],
        ids=["help", "eval", "effect", "marginalize", "check-recovery", "check-recovery-trials", "orderings", "sweep"],
    )
    def test_a_command_loads_only_what_it_runs(self, argv, added, m1_config, tmp_path):
        argv = [arg.format(config=m1_config, out=tmp_path / "s.csv") for arg in argv]
        code = (
            f"from flowcalc import cli\ntry:\n    rc = cli.main({argv!r})\nexcept SystemExit as exc:\n    rc = exc.code\n"
            "print([rc, _flowcalc_modules()])"
        )
        assert _run_fresh(code) == [0, sorted(self.CLI + added)]

    def test_the_analyses_compile_no_fold_at_import(self):
        """Model 1 and Model 3 compile their scalar folds on their second scalar
        fold, so ``check-recovery --trials``, which folds in batches, compiles none."""
        code = (
            "from flowcalc import engine\ncompiled = []\ncompile_fold = engine._compile_fold\n"
            "engine._compile_fold = lambda spec: compiled.append(spec) or compile_fold(spec)\n"
            "from flowcalc import cli, marginal, measures\n"
            "rc = cli.main(['check-recovery', '--trials', '10', '--constructed', '1'])\n"
            "print([rc, len(compiled), marginal._MODEL1.compiled_fold is None, measures._MODEL3.compiled_fold is None])"
        )
        assert _run_fresh(code) == [0, 0, True, True]

    @pytest.mark.parametrize(
        "argv, folds",
        [
            (["sweep", "--config", "{config}", "--vary", "beta=0:1:0.5", "--out", "{out}"], 0),
            (["orderings", "--config", "{config}", "--grid-size", "2"], 0),
            (["eval", "--config", "{config}"], 0),
            (["effect", "--config", "{config}", "--target", "trt1"], 1),
        ],
        ids=["sweep", "orderings", "eval", "effect"],
    )
    def test_a_command_compiles_the_folds_it_runs_twice(self, argv, folds, m1_config, tmp_path):
        """A spec compiles its scalar fold on its second scalar fold:
        ``sweep`` and ``orderings`` fold only through ``fold_batch``, ``eval``
        folds its model once, and ``effect`` twice, at the low and high level."""
        argv = [arg.format(config=m1_config, out=tmp_path / "s.csv") for arg in argv]
        code = (
            "from flowcalc import engine\ncompiled = []\ncompile_fold = engine._compile_fold\n"
            "engine._compile_fold = lambda spec: compiled.append(spec) or compile_fold(spec)\n"
            f"from flowcalc import cli\nrc = cli.main({argv!r})\nprint([rc, len(compiled)])"
        )
        assert _run_fresh(code) == [0, folds]

    def test_check_recovery_compiles_one_fold(self, m1_config):
        """``check-recovery --config`` reads its model only through ``eta``,
        so the one scalar fold it compiles is Model 1's, in ``recovery_condition``."""
        code = (
            "from flowcalc import engine\ncompiled = []\ncompile_fold = engine._compile_fold\n"
            "engine._compile_fold = lambda spec: compiled.append(spec) or compile_fold(spec)\n"
            "from flowcalc import cli, marginal\n"
            f"rc = cli.main(['check-recovery', '--config', {m1_config!r}])\n"
            "print([rc, len(compiled), compiled[0] is marginal._MODEL1])"
        )
        assert _run_fresh(code) == [0, 1, True]


class TestFlagParsers:
    """Any flag text exits 0 or with the flag's documented code, never a traceback."""

    @_FIXTURES_PER_TEST
    @given(text=_flag_texts(["beta", "gamma", "age", "trt1", "zeta", ""], 3, st.floats(-50.0, 50.0)))
    def test_vary_text_exits_0_or_3(self, text, m1_config, tmp_path, monkeypatch, capsys):
        # Finite values stay within +-50, so every scaler is finite and no row
        # raises (exit 4): the exit code is the parser's alone.
        monkeypatch.setattr(cli, "_MAX_SWEEP_ROWS", 50)
        out_csv = tmp_path / "grid.csv"
        out_csv.unlink(missing_ok=True)
        rc, _, _ = run_cli(capsys, "sweep", "--config", m1_config, f"--vary={text}", "--out", str(out_csv))
        assert rc in (0, 3)
        assert out_csv.exists() == (rc == 0)

    @_FIXTURES_PER_TEST
    @given(text=_flag_texts(["beta", "gamma", "age", "trt1", "zeta", ""], 2))
    def test_bind_text_exits_3_unless_it_evaluates(self, text, m1_config, capsys):
        rc, _, _ = run_cli(capsys, "eval", "--config", m1_config, f"--bind={text}")
        try:
            float(text.partition("=")[2])
        except ValueError:
            assert rc == 3
        else:
            # A number binds, or names nothing (3); a bound one evaluates (0 or 4).
            assert rc in (0, 3, 4)

    @_FIXTURES_PER_TEST
    @given(text=_flag_texts(["age", "trt1", "agee", ""], 2))
    def test_range_text_exits_0_or_8(self, text, m1_config, capsys):
        rc, _, _ = run_cli(capsys, "orderings", "--config", m1_config, "--grid-size", "2", f"--range={text}")
        assert rc in (0, 8)

    @_FIXTURES_PER_TEST
    @given(
        axes=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0), st.integers(1, 12)), min_size=1, max_size=2
        )
    )
    def test_grid_at_the_row_cap_is_written_and_one_past_is_refused(
        self, axes, m1_config, tmp_path, monkeypatch, capsys
    ):
        varies = []
        values = []
        for name, (start, step, n) in zip(["beta", "gamma"], axes):
            stop = start + (n - 1) * step
            varies.append(f"--vary={name}={start!r}:{stop!r}:{step!r}")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            values.append([start + i * step for i in range(count)])
        n_rows = math.prod(len(axis) for axis in values)
        out_csv = tmp_path / "grid.csv"
        out_csv.unlink(missing_ok=True)
        argv = ["sweep", "--config", m1_config, *varies, "--out", str(out_csv)]

        monkeypatch.setattr(cli, "_MAX_SWEEP_ROWS", n_rows)
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 0
        assert err.startswith(f"wrote {n_rows} rows")
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [tuple(map(float, row[: len(values)])) for row in rows] == list(itertools.product(*values))
        out_csv.unlink()

        monkeypatch.setattr(cli, "_MAX_SWEEP_ROWS", n_rows - 1)
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 3
        assert f"past {n_rows - 1} rows" in err
        assert not out_csv.exists()
