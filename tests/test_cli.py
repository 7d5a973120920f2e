import json
import math
import os
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


class TestZeroHasNoSign:
    # tau * 0 with tau < 0 is -0.0 in the library; the CLI prints 0.0
    @pytest.mark.parametrize("argv, expected", [
        (["compute", "--measure", "shannon", "--p", "1,0"], "0.0\n"),
        (["compute", "--measure", "renyi", "--alpha", "2", "--p", "1,0"], "0.0\n"),
        (["compute", "--measure", "shannon", "--p", "1,0", "--format", "csv"], "measure,value\nshannon,0.0\n"),
        (["sweep", "--measure", "renyi", "--param", "alpha", "--grid", "2,3", "--p", "1,0"],
         "alpha,value\n2.0,0.0\n3.0,0.0\n"),
    ], ids=["shannon", "renyi", "csv", "sweep"])
    def test_plain_and_csv(self, capsys, argv, expected):
        assert invoke(capsys, argv) == (0, expected, "")

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, ["compute", "--measure", "shannon", "--p", "1,0", "--format", "json"])
        assert code == 0 and '"value": 0.0,' in out
        code, out, _ = invoke(capsys, ["verify", "--measure", "renyi", "--alpha", "2",
                                       "--p", "1,0", "--q", "1,0", "--format", "json"])
        assert code == 0 and '"lhs": 0.0, "rhs": 0.0,' in out

    def test_library_values_keep_their_sign(self):
        assert math.copysign(1.0, evaluate_named("shannon", [1.0, 0.0])) == -1.0


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

    def test_raw_rejects_catalog_flags(self, capsys):
        code, out, err = invoke(
            capsys,
            ["compute", "--raw", "--family", "information", "--tau", "-1",
             "--alpha", "7", "--v", "1,2", "--p", "0.5,0.5"],
        )
        assert (code, out) == (1, "")
        assert "--alpha" in err and "--v" in err

    def test_raw_keeps_external_weights(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["compute", "--raw", "--family", "inaccuracy", "--tau", "-1",
             "--u", "0.5,0.5", "--p", "0.5,0.5"],
        )
        assert (code, out) == (0, "1.0\n")

    def test_renormalize(self, capsys):
        code, out, _ = invoke(
            capsys, ["compute", "--measure", "shannon", "--p", "0.5,0.6", "--renormalize"]
        )
        assert code == 0
        want = evaluate_named("shannon", make_distribution([0.5 / 1.1, 0.6 / 1.1]))
        assert float(out) == pytest.approx(want, rel=1e-12)

    def test_renormalize_overflow_is_only_the_error(self, capsys):
        # the pytest settings turn numpy's overflow warning into an error
        code, out, err = invoke(capsys, ["compute", "--measure", "shannon", "--renormalize", "--p", "1e308,1e308"])
        assert (code, out, err) == (2, "", "error[NotNormalized]: p: cannot renormalize, sum is inf\n")

    @pytest.mark.parametrize("argv, what", [
        ("--measure kapur --alpha 2 --beta 1e308 --p 0.25,0.25,0.25,0.25", "escort"),
        ("--measure khan_autar --alpha 2 --beta 1e308 --v 1,1,1,1 --p 0.25,0.25,0.25,0.25", "utility"),
    ])
    def test_exponent_overflow_is_only_the_error(self, capsys, argv, what):
        # every beta*log2(p) of the what weights leaves the double range
        code, out, err = invoke(capsys, ["compute", *argv.split()])
        assert (code, out, err) == (
            2, "", "error[Overflow]: beta = 1e+308 is too large: beta*log2(p) leaves the double range\n"
        )

    @pytest.mark.parametrize("argv", [
        "--measure van_der_lubbe_b --tau -1e308 --lambda 1 --p 0.25,0.75",
        "--raw --family information --tau -1e308 --lambda 1 --p 0.25,0.75",
    ])
    def test_tau_lambda_overflow_names_its_cause(self, capsys, argv):
        # tau*lambda*log2(0.25) = 2e308 leaves the double range; numpy's
        # overflow warnings are errors under the test configuration
        code, out, err = invoke(capsys, ["compute", *argv.split()])
        assert (code, out, err) == (
            2, "", "error[Overflow]: tau*lambda = -1e+308 is too large: tau*lambda*log2(p) leaves the double range\n"
        )

    def test_betas_json(self, capsys):
        code, out, err = invoke(capsys, ["compute", "--measure", "rathie", "--alpha", "2", "--betas", "0.5,1.5",
                                         "--p", "0.3,0.7", "--format", "json"])
        assert (code, err) == (0, "")
        assert out == (
            '{"measure": "rathie", "value": 0.9808107975218219, "params": {"alpha": 2.0, "betas": [0.5, 1.5]}, '
            '"engine": {"tau": -1.0, "lambda": -1.0, "c": 1.0, "e": 0.0}, "n": 2, "unit": "bits"}\n'
        )

    def test_escort_weight_that_underflows_keeps_its_term(self, capsys):
        # p_1^2 = 1e-600 underflows, but its term p_1^-1 = 1e300 is the
        # whole of log2(sum p^-1 / sum p^2) / 3 = 332.19280948873626
        code, out, err = invoke(capsys, ["compute", "--measure", "aczel_daroczy_b", "--alpha", "-1", "--beta", "2",
                                         "--p", "1e-300,1", "--renormalize"])
        assert (code, out, err) == (0, "332.192809489\n", "")

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

    def test_json_booleans_are_not_numbers(self, capsys, tmp_path):
        f = tmp_path / "dist.json"
        f.write_text("[true, false]")
        code, out, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert (code, out) == (2, "")
        assert err == f"error[ParseError]: p: {f} must hold a JSON array of numbers\n"

    def test_bad_number_in_csv(self, capsys, tmp_path):
        f = tmp_path / "dist.csv"
        f.write_text("p\n0.5\nhalf\n")
        code, _, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert code == 2 and "ParseError" in err

    @pytest.mark.parametrize("flag", ["--p", "--q", "--u", "--u2", "--v", "--v2"])
    def test_json_integer_beyond_the_double_range(self, capsys, tmp_path, flag):
        f = tmp_path / "big.json"
        f.write_text("[1" + "0" * 400 + ", 0]")
        vectors = {"--p": "0.5,0.5", "--q": "0.5,0.5", flag: str(f)}
        argv = ["verify", "--measure", "shannon"] + [x for pair in vectors.items() for x in pair]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error[ParseError]: {flag[2:]}: {f} holds an integer beyond the double range\n"

    @pytest.mark.parametrize("text", ["[" + "1" * 5000 + "]", "[" * 100_000], ids=["digits", "depth"])
    def test_json_the_parser_refuses_is_a_parse_error(self, capsys, tmp_path, text):
        f = tmp_path / "dist.json"
        f.write_text(text)
        code, out, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(f)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error[ParseError]: p: {f} is not valid JSON: ") and err.count("\n") == 1

    def test_directory_is_named_as_one(self, capsys, tmp_path):
        code, out, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == f"error[ParseError]: p: cannot read {str(tmp_path)[:80]!r}: is a directory\n"

    def test_empty_vector_is_not_the_working_directory(self, capsys):
        code, out, err = invoke(capsys, ["compute", "--measure", "shannon", "--p", ""])
        assert (code, out, err) == (2, "", "error[ParseError]: p: empty vector\n")


# Per row, in catalog order: the weights column of `list` and whether the
# row needs external weights (--u) and utilities (--v).
LIST_WEIGHTS = {
    "shannon": ("self", False, False),
    "renyi": ("self", False, False),
    "varma_a": ("self", False, False),
    "varma_b": ("self", False, False),
    "nath_a": ("self", False, False),
    "nath_b": ("self", False, False),
    "aczel_daroczy_a": ("escort(beta)", False, False),
    "aczel_daroczy_b": ("escort(beta)", False, False),
    "kapur": ("escort(beta)", False, False),
    "rathie": ("escort(betas), componentwise", False, False),
    "khan_autar": ("utility(beta, V)", False, True),
    "singh": ("utility(beta, V)", False, True),
    "havrda_charvat": ("self", False, False),
    "sharma_mittal_a": ("self", False, False),
    "sharma_mittal_b": ("self", False, False),
    "tsallis": ("self", False, False),
    "frank_daffertshofer_a": ("self", False, False),
    "frank_daffertshofer_b": ("self", False, False),
    "arimoto": ("self", False, False),
    "boekee_van_der_lubbe": ("self", False, False),
    "van_der_lubbe_a": ("self", False, False),
    "van_der_lubbe_b": ("self", False, False),
    "van_der_lubbe_c": ("self", False, False),
    "van_der_lubbe_d": ("self", False, False),
    "kerridge": ("external U", True, False),
    "nath_inaccuracy_a": ("external U", True, False),
    "nath_inaccuracy_b": ("external U", True, False),
    "gupta_sharma_a": ("external U", True, False),
    "gupta_sharma_b": ("external U", True, False),
    "onicescu": ("self", False, False),
    "teodorescu": ("self", False, False),
    "pardo_taneja": ("self", False, False),
    "pardo": ("external U tilted by p", True, False),
    "tuteja": ("external U tilted by p", True, False),
    "van_der_lubbe_certainty_a": ("self", False, False),
    "van_der_lubbe_certainty_b": ("self", False, False),
    "bhatia_a": ("escort(beta)", False, False),
    "bhatia_b": ("escort(beta)", False, False),
}


# The printed constraints, which check_params enforces from the same
# rule triples (tests/test_registry.py breaks each rule in turn).
LIST_CONSTRAINTS = {
    "shannon": "none",
    "renyi": "alpha > 0, alpha != 1",
    "varma_a": "mu >= 1, alpha < mu, alpha > mu-1",
    "varma_b": "mu >= 1, alpha < mu, alpha > mu-1",
    "nath_a": "alpha > 0, alpha != 1, mu > 0",
    "nath_b": "alpha > 0, alpha != 1, mu > 0",
    "aczel_daroczy_a": "none",
    "aczel_daroczy_b": "alpha != beta",
    "kapur": "alpha > 0, alpha != 1, beta > 0",
    "rathie": "alpha > 0, alpha != 1",
    "khan_autar": "alpha > 0, alpha != 1, beta > 0",
    "singh": "alpha > 0, alpha != 1, beta > 0",
    "havrda_charvat": "gamma > 0, gamma != 1",
    "sharma_mittal_a": "gamma > 0, gamma != 1",
    "sharma_mittal_b": "alpha > 0, alpha != 1, gamma > 0, gamma != 1",
    "tsallis": "gamma > 0, gamma != 1",
    "frank_daffertshofer_a": "gamma > 0, gamma != 1",
    "frank_daffertshofer_b": "alpha > 0, alpha != 1, gamma > 0, gamma != 1",
    "arimoto": "gamma > 0, gamma != 1",
    "boekee_van_der_lubbe": "gamma > 0, gamma != 1",
    "van_der_lubbe_a": "tau < 0",
    "van_der_lubbe_b": "tau < 0, lam != 0",
    "van_der_lubbe_c": "tau < 0, c*e > 0",
    "van_der_lubbe_d": "tau < 0, lam != 0, c*e > 0",
    "kerridge": "none",
    "nath_inaccuracy_a": "gamma > 0, gamma != 1",
    "nath_inaccuracy_b": "alpha > 0, alpha != 1",
    "gupta_sharma_a": "gamma > 0, gamma != 1",
    "gupta_sharma_b": "alpha > 0, alpha != 1, gamma > 0, gamma != 1",
    "onicescu": "none",
    "teodorescu": "gamma > 1",
    "pardo_taneja": "gamma > 1",
    "pardo": "gamma > 1",
    "tuteja": "beta > 1, gamma > 1",
    "van_der_lubbe_certainty_a": "tau > 0",
    "van_der_lubbe_certainty_b": "tau > 0, lam != 0",
    "bhatia_a": "tau > 0",
    "bhatia_b": "tau > 0, lam != 0",
}


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

    def test_json_weight_columns(self, capsys):
        _, out, _ = invoke(capsys, ["list", "--format", "json"])
        got = [(r["name"], (r["weights"], r["needs_weights"], r["needs_utilities"])) for r in json.loads(out)]
        assert got == list(LIST_WEIGHTS.items())

    def test_json_constraints_column(self, capsys):
        _, out, _ = invoke(capsys, ["list", "--format", "json"])
        assert {r["name"]: r["constraints"] for r in json.loads(out)} == LIST_CONSTRAINTS

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

    @staticmethod
    def _column(path, weights):
        total = sum(weights)
        path.write_text("".join(f"{w / total!r}\n" for w in weights))
        return str(path)

    def test_product_of_several_blocks_byte_exact(self, capsys, tmp_path):
        # two 2^9-line files: a 2^18-entry product, eight engine blocks
        p = self._column(tmp_path / "p.csv", [i + 1 for i in range(512)])
        q = self._column(tmp_path / "q.csv", [i % 7 + 1 for i in range(512)])
        u = self._column(tmp_path / "u.csv", [1] * 512)
        u2 = self._column(tmp_path / "u2.csv", [512 - i for i in range(512)])
        got = invoke(capsys, ["verify", "--measure", "tsallis", "--gamma", "1.7", "--p", p, "--q", q,
                              "--format", "json"])
        assert got == (0, '{"check": "composability", "measure": "tsallis", "lhs": 1.4282526592226543, '
                          '"rhs": 1.428252659222654, "abs_err": 2.220446049250313e-16, '
                          '"rel_err": 1.5546591388520998e-16, "tolerance": 1e-09, "passed": true}\n', "")
        got = invoke(capsys, ["verify", "--measure", "kerridge", "--p", p, "--q", q, "--u", u, "--u2", u2])
        assert got == (0, "check: composability\nmeasure: kerridge\nlhs: 18.6818531484\nrhs: 18.6818531484\n"
                          "abs_err: 0.0\nrel_err: 0.0\ntolerance: 1e-09\nstatus: PASS\n", "")

    def test_csv_report(self, capsys):
        code, out, err = invoke(capsys, ["verify", "--measure", "renyi", "--alpha", "2", "--p", "0.2,0.8",
                                         "--q", "0.5,0.5", "--format", "csv"])
        assert (code, err) == (0, "")
        assert out == (
            "check,measure,lhs,rhs,abs_err,rel_err,tolerance,status\n"
            "composability,renyi,1.55639334852,1.55639334852,2.22044604925e-16,1.42666123018e-16,1e-09,PASS\n"
        )


class TestDual:
    def test_onicescu_plain(self, capsys):
        code, out, _ = invoke(capsys, ["dual", "--measure", "onicescu", "--p", "0.2,0.8"])
        assert code == 0
        assert out == (
            "check: duality\nmeasure: onicescu\ncounterpart: renyi\n"
            "lhs: 0.556393348524\nrhs: 0.556393348524\nabs_err: 0.0\n"
            "rel_err: 0.0\ntolerance: 1e-09\nstatus: PASS\n"
        )

    def test_csv_report(self, capsys):
        code, out, err = invoke(capsys, ["dual", "--measure", "onicescu", "--p", "0.2,0.8", "--format", "csv"])
        assert (code, err) == (0, "")
        assert out == (
            "check,measure,counterpart,lhs,rhs,abs_err,rel_err,tolerance,status\n"
            "duality,onicescu,renyi,0.556393348524,0.556393348524,0.0,0.0,1e-09,PASS\n"
        )

    def test_zero_tolerance_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, ["dual", "--measure", "onicescu", "--p", "0.2,0.8", "--tolerance", "0"])
        assert (code, out, err) == (1, "", "usage error: --tolerance must be positive\n")

    def test_parametrized_pair(self, capsys):
        code, out, _ = invoke(
            capsys, ["dual", "--measure", "teodorescu", "--gamma", "1.9", "--p", "0.23,0.77"]
        )
        assert code == 0 and "counterpart: havrda_charvat" in out

    def test_information_row_rejected(self, capsys):
        code, _, err = invoke(capsys, ["dual", "--measure", "shannon", "--p", "0.5,0.5"])
        assert code == 2 and "ConstraintViolation" in err

    @pytest.mark.parametrize("argv", [
        ["--measure", "kerridge"],
        ["--measure", "kerridge", "--u", "0.5,0.5"],
        ["--measure", "renyi"],
        ["--measure", "renyi", "--alpha", "2"],
    ])
    def test_row_without_counterpart_rejected_before_its_inputs(self, capsys, argv):
        # a missing weight vector or parameter is not the mistake to report
        code, out, err = invoke(capsys, ["dual", *argv, "--p", "0.5,0.5"])
        assert (code, out) == (2, "")
        assert err == f"error[ConstraintViolation]: {argv[1]}: no information counterpart registered\n"

    def test_utilities_rejected(self, capsys):
        # the row's own input check, as for an unread --u
        code, out, err = invoke(capsys, ["dual", "--measure", "onicescu", "--p", "0.5,0.5", "--v", "1,2"])
        assert (code, out, err) == (2, "", "error[ConstraintViolation]: onicescu: takes no utility vector\n")


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

    def test_non_finite_grid_rejected(self, capsys):
        code, out, err = invoke(capsys, ["sweep", "--measure", "tsallis", "--param", "gamma",
                                         "--grid", "nan,2", "--p", "0.5,0.5"])
        assert (code, out, err) == (1, "", "usage error: sweep grid must be finite\n")

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


class TestUnreadInputs:
    """A --u or --v that the row's weight rule does not read is a
    constraint violation, as an unexpected parameter is."""

    @pytest.mark.parametrize("argv, unread", [
        ("compute --measure shannon --u 0.9,0.1 --p 0.5,0.5", "external weight vector"),
        ("compute --measure shannon --v 1,2,3 --p 0.5,0.5", "utility vector"),
        ("verify --measure renyi --alpha 2 --v 1,2 --p 0.5,0.5 --q 0.5,0.5", "utility vector"),
        ("dual --measure onicescu --u 0.5,0.5 --p 0.5,0.5", "external weight vector"),
        ("compute --measure kerridge --u 0.3,0.7 --v 1,2 --p 0.5,0.5", "utility vector"),
    ])
    def test_rejected(self, capsys, argv, unread):
        code, out, err = invoke(capsys, argv.split())
        name = argv.split()[2]
        assert (code, out) == (2, "")
        assert err == f"error[ConstraintViolation]: {name}: takes no {unread}\n"

    def test_sweep_reports_each_point(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["sweep", "--measure", "renyi", "--param", "alpha", "--grid", "0.5,2",
             "--u", "0.5,0.5", "--p", "0.1,0.9"],
        )
        assert code == 0
        assert out == (
            "alpha,value,error\n"
            "0.5,,ConstraintViolation: renyi: takes no external weight vector\n"
            "2.0,,ConstraintViolation: renyi: takes no external weight vector\n"
        )


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


def test_stale_backend_env_var_is_ignored():
    # a shell may still export the variable that picked the removed numba backend
    env = dict(os.environ, INFORCER_BACKEND="numba")
    proc = subprocess.run([sys.executable, "-m", "inforcer.cli", "compute", "--measure", "shannon", "--p", "0.5,0.5"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "1.0\n")
    assert "Traceback" not in proc.stderr
