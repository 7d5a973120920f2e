import json
import math
import subprocess
import sys

import pytest

from inforcer import evaluate_named, make_distribution
from inforcer.cli import format_number, run

DOCUMENTED = [
    (
        ["compute", "--measure", "shannon", "--p", "0.5,0.5"],
        "1.0\n",
    ),
    (
        ["compute", "--measure", "tsallis", "--gamma", "2", "--p", "0.5,0.5", "--format", "json"],
        '{"measure": "tsallis", "value": 0.5, "params": {"gamma": 2.0}, '
        '"engine": {"tau": -1.0, "lambda": -1.0, "c": -1.0, "e": -1.0}, '
        '"n": 2, "unit": "bits"}\n',
    ),
    (
        ["verify", "--measure", "renyi", "--alpha", "2", "--p", "0.5,0.5", "--q", "0.5,0.5"],
        "check: composability\nmeasure: renyi\nlhs: 2.0\nrhs: 2.0\n"
        "abs_err: 0.0\nrel_err: 0.0\ntolerance: 1e-09\nstatus: PASS\n",
    ),
]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatNumber:
    def test_integral_keeps_point_zero(self):
        assert format_number(1.0) == "1.0"
        assert format_number(-3.0) == "-3.0"
        assert format_number(2) == "2.0"

    def test_twelve_significant_digits(self):
        assert format_number(0.8284271247461903) == "0.828427124746"
        assert format_number(math.log(2.0)) == "0.69314718056"

    def test_scientific_passthrough(self):
        assert format_number(1e-09) == "1e-09"
        assert format_number(1.5e20) == "1.5e+20"


class TestDocumentedInvocations:
    @pytest.mark.parametrize("argv,expected", DOCUMENTED, ids=["plain", "json", "verify"])
    def test_byte_exact(self, capsys, argv, expected):
        code, out, err = invoke(capsys, argv)
        assert code == 0
        assert out == expected
        assert err == ""


class TestCompute:
    def test_json_fields(self, capsys):
        code, out, _ = invoke(
            capsys, ["compute", "--measure", "renyi", "--alpha", "2", "--p", "0.2,0.3,0.5", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["measure"] == "renyi"
        assert payload["value"] == pytest.approx(-math.log2(0.38), rel=1e-15)
        assert payload["engine"] == {"tau": -1.0, "lambda": -1.0, "c": 1.0, "e": 0.0}
        assert payload["n"] == 3
        assert payload["unit"] == "bits"

    def test_csv_format(self, capsys):
        code, out, _ = invoke(
            capsys, ["compute", "--measure", "shannon", "--p", "0.5,0.5", "--format", "csv"]
        )
        assert code == 0
        assert out == "measure,value\nshannon,1.0\n"

    def test_nats_conversion(self, capsys):
        code, out, _ = invoke(capsys, ["compute", "--measure", "shannon", "--p", "0.5,0.5", "--nats"])
        assert code == 0
        assert out == "0.69314718056\n"

    def test_named_weights_and_utilities(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["compute", "--measure", "khan_autar", "--alpha", "2", "--beta", "1",
             "--p", "0.5,0.5", "--v", "1,3"],
        )
        assert code == 0
        want = evaluate_named(
            "khan_autar", make_distribution([0.5, 0.5]), utilities=[1.0, 3.0], alpha=2.0, beta=1.0
        )
        assert float(out) == pytest.approx(want, rel=1e-12)

    def test_raw_mode(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["compute", "--raw", "--family", "certainty", "--tau", "-1",
             "--lambda", "-1", "--p", "0.5,0.5"],
        )
        assert code == 0
        assert out == "0.5\n"

    def test_raw_mode_requires_family_and_tau(self, capsys):
        code, _, err = invoke(capsys, ["compute", "--raw", "--tau", "-1", "--p", "0.5,0.5"])
        assert code == 1 and "family" in err
        code, _, err = invoke(capsys, ["compute", "--raw", "--family", "information", "--p", "0.5,0.5"])
        assert code == 1 and "tau" in err

    def test_raw_and_measure_are_exclusive(self, capsys):
        code, _, err = invoke(
            capsys,
            ["compute", "--raw", "--measure", "shannon", "--family", "information",
             "--tau", "-1", "--p", "0.5,0.5"],
        )
        assert code == 1

    def test_renormalize(self, capsys):
        code, out, _ = invoke(
            capsys, ["compute", "--measure", "shannon", "--p", "0.5,0.6", "--renormalize"]
        )
        assert code == 0
        want = evaluate_named("shannon", make_distribution([0.5 / 1.1, 0.6 / 1.1]))
        assert float(out) == pytest.approx(want, rel=1e-12)

    def test_unnormalized_rejected_without_flag(self, capsys):
        code, _, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", "0.5,0.6"])
        assert code == 2
        assert "NotNormalized" in err


class TestFileInputs:
    def test_csv_with_header(self, capsys, tmp_path):
        f = tmp_path / "dist.csv"
        f.write_text("p\n0.5\n0.5\n")
        code, out, _ = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert code == 0 and out == "1.0\n"

    def test_csv_without_header(self, capsys, tmp_path):
        f = tmp_path / "dist.csv"
        f.write_text("0.25\n0.25\n0.25\n0.25\n")
        code, out, _ = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert code == 0 and out == "2.0\n"

    def test_json_array(self, capsys, tmp_path):
        f = tmp_path / "dist.json"
        f.write_text("[0.5, 0.5]")
        code, out, _ = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert code == 0 and out == "1.0\n"

    def test_invalid_json_is_domain_error(self, capsys, tmp_path):
        f = tmp_path / "dist.json"
        f.write_text("{not json")
        code, _, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert code == 2 and "ParseError" in err

    def test_json_must_be_numeric_array(self, capsys, tmp_path):
        f = tmp_path / "dist.json"
        f.write_text('{"p": [0.5, 0.5]}')
        code, _, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert code == 2 and "ParseError" in err

    def test_bad_number_in_csv(self, capsys, tmp_path):
        f = tmp_path / "dist.csv"
        f.write_text("p\n0.5\nhalf\n")
        code, _, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert code == 2 and "ParseError" in err


class TestList:
    def test_plain_row_count(self, capsys):
        code, out, _ = invoke(capsys, ["list"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 38
        assert lines[0].startswith("shannon")

    def test_json_records(self, capsys):
        code, out, _ = invoke(capsys, ["list", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert len(records) == 38
        assert all({"name", "family", "params", "weights", "constraints"} <= set(r) for r in records)

    def test_csv_header(self, capsys):
        code, out, _ = invoke(capsys, ["list", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,family,params,weights,constraints"
        assert len(lines) == 39

    def test_deterministic(self, capsys):
        _, first, _ = invoke(capsys, ["list"])
        _, second, _ = invoke(capsys, ["list"])
        assert first == second


class TestVerify:
    def test_pass_and_fail_tolerance(self, capsys):
        argv = ["verify", "--measure", "renyi", "--alpha", "2.3",
                "--p", "0.23,0.77", "--q", "0.31,0.42,0.27"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0 and "status: PASS" in out
        # same identity, absurd tolerance: honest rounding noise must fail
        code, out, _ = invoke(capsys, argv + ["--tolerance", "1e-300"])
        assert code == 3 and "status: FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify", "--measure", "onicescu", "--p", "0.23,0.77",
             "--q", "0.31,0.42,0.27", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "composability"
        assert payload["passed"] is True
        assert payload["lhs"] == pytest.approx(payload["rhs"], rel=1e-12)

    def test_second_side_weights(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify", "--measure", "kerridge", "--p", "0.5,0.5", "--q", "0.25,0.25,0.5",
             "--u", "0.3,0.7", "--u2", "0.2,0.3,0.5"],
        )
        assert code == 0 and "status: PASS" in out

    def test_utility_row_per_side(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify", "--measure", "singh", "--alpha", "2", "--beta", "1.2",
             "--p", "0.5,0.5", "--q", "0.2,0.8", "--v", "1,3", "--v2", "2,5"],
        )
        assert code == 0 and "status: PASS" in out

    def test_escort_row(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify", "--measure", "bhatia_b", "--beta", "1.4", "--tau", "0.8",
             "--lambda", "0.6", "--p", "0.23,0.77", "--q", "0.31,0.69"],
        )
        assert code == 0 and "status: PASS" in out

    def test_bad_tolerance_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            ["verify", "--measure", "renyi", "--alpha", "2", "--p", "0.5,0.5",
             "--q", "0.5,0.5", "--tolerance", "-1"],
        )
        assert code == 1


class TestDual:
    def test_onicescu_plain(self, capsys):
        code, out, _ = invoke(capsys, ["dual", "--measure", "onicescu", "--p", "0.2,0.8"])
        assert code == 0
        assert out == (
            "check: duality\nmeasure: onicescu\ncounterpart: renyi\n"
            "lhs: 0.556393348524\nrhs: 0.556393348524\nabs_err: 0.0\n"
            "rel_err: 0.0\ntolerance: 1e-09\nstatus: PASS\n"
        )

    def test_parametrized_pair(self, capsys):
        code, out, _ = invoke(
            capsys, ["dual", "--measure", "teodorescu", "--gamma", "1.9", "--p", "0.23,0.77"]
        )
        assert code == 0 and "counterpart: havrda_charvat" in out

    def test_information_row_rejected(self, capsys):
        code, _, err = invoke(capsys, ["dual", "--measure", "shannon", "--p", "0.5,0.5"])
        assert code == 2 and "ConstraintViolation" in err


class TestSweep:
    def test_gamma_grid(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["sweep", "--measure", "tsallis", "--param", "gamma",
             "--grid", "0.5,0.999,1.001,2.0", "--p", "0.5,0.5"],
        )
        assert code == 0
        assert out == (
            "gamma,value\n"
            "0.5,0.828427124746\n"
            "0.999,0.693387462581\n"
            "1.001,0.692907009547\n"
            "2.0,0.5\n"
        )

    def test_error_column_appears_on_failure(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["sweep", "--measure", "tsallis", "--param", "gamma",
             "--grid", "0.5,1.0,2.0", "--p", "0.5,0.5"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma,value,error"
        assert lines[2].startswith("1.0,,ConstraintViolation")

    def test_lambda_alias(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["sweep", "--measure", "van_der_lubbe_b", "--param", "lambda",
             "--grid=-1.0,-0.5,0.5,1.0", "--tau", "-1", "--p", "0.2,0.8"],
        )
        assert code == 0
        assert out.splitlines()[0] == "lambda,value"

    def test_unknown_param_names_the_flag(self, capsys):
        argv = ["sweep", "--grid", "1", "--p", "0.5,0.5"]
        assert invoke(capsys, argv + ["--measure", "renyi", "--param", "lambda"]) == (
            1, "", "usage error: renyi has no parameter 'lambda'; choose from: alpha\n")
        assert invoke(capsys, argv + ["--measure", "van_der_lubbe_b", "--param", "zeta"]) == (
            1, "", "usage error: van_der_lubbe_b has no parameter 'zeta'; choose from: tau, lambda\n")

    def test_nats(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["sweep", "--measure", "tsallis", "--param", "gamma",
             "--grid", "2.0", "--p", "0.5,0.5", "--nats"],
        )
        assert code == 0
        assert out == "gamma,value\n2.0,0.34657359028\n"

    def test_row_without_params_rejected(self, capsys):
        code, _, _ = invoke(
            capsys,
            ["sweep", "--measure", "shannon", "--param", "gamma", "--grid", "1",
             "--p", "0.5,0.5"],
        )
        assert code == 1

    def test_non_monotone_grid_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            ["sweep", "--measure", "tsallis", "--param", "gamma",
             "--grid", "0.5,2.0,1.5", "--p", "0.5,0.5"],
        )
        assert code == 1 and "monotone" in err

    def test_empty_grid_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            ["sweep", "--measure", "tsallis", "--param", "gamma",
             "--grid", ",", "--p", "0.5,0.5"],
        )
        assert code == 1

    def test_unknown_param_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            ["sweep", "--measure", "tsallis", "--param", "alpha",
             "--grid", "0.5,2.0", "--p", "0.5,0.5"],
        )
        assert code == 1 and "no parameter" in err


class TestExitCodes:
    def test_usage_missing_required(self, capsys):
        code, _, err = invoke(capsys, ["compute", "--measure", "shannon"])
        assert code == 1

    def test_usage_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, ["frobnicate"])
        assert code == 1

    def test_usage_no_measure_no_raw(self, capsys):
        code, _, _ = invoke(capsys, ["compute", "--p", "0.5,0.5"])
        assert code == 1

    def test_domain_unknown_measure(self, capsys):
        code, _, err = invoke(capsys, ["compute", "--measure", "nope", "--p", "0.5,0.5"])
        assert code == 2 and "UnknownMeasure" in err

    def test_domain_constraint_violation(self, capsys):
        code, _, err = invoke(
            capsys, ["compute", "--measure", "tsallis", "--gamma", "1", "--p", "0.5,0.5"]
        )
        assert code == 2 and "ConstraintViolation" in err

    def test_domain_weight_on_zero_probability(self, capsys):
        code, _, err = invoke(
            capsys, ["compute", "--measure", "kerridge", "--p", "0,1", "--u", "1,0"]
        )
        assert code == 2 and "DomainError" in err

    def test_domain_missing_weights(self, capsys):
        code, _, err = invoke(capsys, ["compute", "--measure", "kerridge", "--p", "0.5,0.5"])
        assert code == 2 and "ConstraintViolation" in err


class TestLongInline:
    def test_hundred_inline_entries(self, capsys):
        code, out, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", ",".join(["0.01"] * 100)])
        assert code == 0, err
        assert float(out) == pytest.approx(math.log2(100.0), rel=1e-11)

    def test_long_non_numeric_argument_is_a_parse_error(self, capsys):
        code, _, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", "x" * 300])
        assert code == 2
        assert "ParseError" in err
        assert "Traceback" not in err


def test_compute_checks_parameters_once(capsys, monkeypatch):
    from inforcer.registry import MeasureSpec

    calls = []
    original = MeasureSpec.check_params

    def counted(self, given):
        calls.append(self.name)
        return original(self, given)

    monkeypatch.setattr(MeasureSpec, "check_params", counted)
    code, out, _ = invoke(
        capsys, ["compute", "--measure", "renyi", "--alpha", "2", "--p", "0.5,0.5", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["engine"]["lambda"] == -1.0
    assert calls == ["renyi"]


class TestNegativeValues:
    def test_scientific_tau(self, capsys):
        code, out, err = invoke(capsys, ["compute", "--raw", "--family", "information", "--tau", "-1e0",
                                         "--p", "0.5,0.5"])
        assert (code, out, err) == (0, "1.0\n", "")

    def test_scientific_lambda(self, capsys):
        code, out, err = invoke(capsys, ["compute", "--measure", "van_der_lubbe_b", "--tau", "-1",
                                         "--lambda", "-1e-3", "--p", "0.2,0.8"])
        assert code == 0, err
        want = evaluate_named("van_der_lubbe_b", make_distribution([0.2, 0.8]), tau=-1.0, lam=-1e-3)
        assert out == format_number(want) + "\n"

    def test_grid_led_by_a_negative_value(self, capsys):
        argv = ["sweep", "--measure", "van_der_lubbe_b", "--param", "lambda", "--tau", "-1", "--p", "0.2,0.8"]
        code, out, err = invoke(capsys, argv + ["--grid", "-0.5,0.5"])
        assert code == 0, err
        assert invoke(capsys, argv + ["--grid=-0.5,0.5"]) == (0, out, "")
        assert out.splitlines()[0] == "lambda,value" and len(out.splitlines()) == 3


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from inforcer.cli import _parser

    assert _parser() is _parser()
    code, out, _ = invoke(capsys, ["compute", "--measure", "renyi", "--alpha", "2", "--p", "0.5,0.5",
                                   "--format", "json", "--nats"])
    assert code == 0 and json.loads(out)["unit"] == "nats"
    # neither --alpha, --format nor --nats carries over to the next call
    code, _, err = invoke(capsys, ["compute", "--measure", "renyi", "--p", "0.5,0.5"])
    assert code == 2 and "missing parameter(s) alpha" in err
    assert invoke(capsys, ["compute", "--measure", "shannon", "--p", "0.5,0.5"]) == (0, "1.0\n", "")
    code, out, _ = invoke(capsys, ["sweep", "--measure", "tsallis", "--param", "gamma", "--grid", "2",
                                   "--p", "0.5,0.5"])
    assert (code, out) == (0, "gamma,value\n2.0,0.5\n")
    assert vars(_parser().parse_args(["list"])) == {"command": "list", "format": "plain"}
    code, _, err = invoke(capsys, ["compute", "--p", "0.5,0.5"])
    assert code == 1 and "give --measure NAME or --raw" in err


def test_engine_parameter_overflow_is_a_domain_error(capsys):
    code, out, err = invoke(capsys, ["compute", "--measure", "nath_b", "--alpha", "10", "--mu", "400",
                                     "--p", "0.5,0.5"])
    assert (code, out) == (2, "")
    assert err == "error[Overflow]: nath_b: engine parameters exceed double range\n"


@pytest.mark.parametrize("argv,shown", [
    (["compute", "--raw", "--family", "information", "--tau", "-1", "--lambda", "inf"], "inf"),
    (["compute", "--measure", "arimoto", "--gamma", "1e-320"], "-inf"),  # lambda = (gamma - 1) / gamma
])
def test_non_finite_lambda_never_reaches_a_kernel(argv, shown):
    # in a fresh process, so a numpy warning would reach stderr
    proc = subprocess.run([sys.executable, "-m", "inforcer.cli", *argv, "--p", "0.3,0.7"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error[ConstraintViolation]: lambda must be finite, got {shown}\n"
