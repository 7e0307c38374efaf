import hashlib
import json
import re
import shlex
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import puiseux.cli
import puiseux.core
import puiseux.duality
import puiseux.inversion
from puiseux import PuiseuxSeries
from puiseux.cli import build_parser, main
from puiseux.core import fmt_vec
from puiseux.corpus import PSI_MULTI, PSI_SIGMA


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_plane(capsys):
    code, out, _ = run(capsys, "analyze", "x^(5/2)+x^(8/3)")
    assert code == 0
    assert "characteristic exponents: (5/2, 8/3)" in out
    assert "essential exponents: (5/2, 8/3) [complete]" in out


def test_analyze_json_roundtrips(capsys):
    code, out, _ = run(capsys, "analyze", "x^(5/2)+x^(8/3)", "--json")
    assert code == 0
    blob = json.loads(out)
    again = PuiseuxSeries.from_json(blob["series"])
    assert again.terms and again.ramification == (6,)
    assert blob["characteristic"]["entries"] == ["5/2", "8/3"]


def test_analyze_long_chain(capsys):
    # x^(2000) is 2000 copies of x, deeper than the default recursion limit
    code, out, err = run(capsys, "analyze", "x + x^(2000)")
    assert code == 0, err
    assert "irreducible exponents: 1\n" in out


def refusal(walk: str) -> str:
    """The one refusal of a walk whose charge passes the limit, as a pattern."""
    return rf"{walk} charges \d+ units of work, past the limit of {puiseux.core.MAX_WORK}"


def test_analyze_refuses_a_huge_exponent_grid(capsys, monkeypatch):
    # (9999, 9999) is no sum of (2, 0) and (0, 2), and the irreducible walk
    # settles the 5000^2 odd points below it to find that out; the charge
    # refuses it (at a lowered limit here, at the real one in test_exponents)
    monkeypatch.setattr(puiseux.core, "MAX_WORK", 10**5)
    code, out, err = run(capsys, "analyze", "x1^(2) + x2^(2) + x1^(9999)*x2^(9999)")
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error: {refusal('the irreducible walk')}\n", err)


def test_invert_refuses_a_huge_precision_at_once(capsys):
    # N = 599996: the dual's rows alone pass the limit before its first degree
    start = time.perf_counter()
    code, _, err = run(capsys, "invert", "x^(3/2)+2*x^(7/4)", "--precision", "100000")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert re.fullmatch(rf"error: {refusal('the dual')}\n", err)


def test_invert_example(capsys):
    code, out, _ = run(capsys, "invert", "x^(3/2)+2*x^(7/4)", "--precision", "4")
    assert code == 0
    assert "m1 = 6, n1 = 4" in out
    assert "y^(2/3) - 4/3*y^(5/6)" in out
    assert "PASS" in out


def test_invert_refusal_parenthesizes_a_negative_or_fractional_root(capsys):
    for root, power in (("-2", "(-2)^6 = 64"), ("3/2", "(3/2)^6 = 729/64"), ("2", "2^6 = 64")):
        code, out, err = run(capsys, "invert", "4*x^(3/2)+x^(7/4)", "--root-coeff", root,
                             "--precision", "3")
        assert (code, out) == (1, "")
        assert err == f"error: root_coeff {root} fails: {power} != 4\n"


def test_invert_json_roundtrips(capsys):
    from fractions import Fraction as F

    from puiseux import INF, invert_series, parse
    from puiseux.exponents import EssentialSequence

    code, out, _ = run(capsys, "invert", "x^(3/2)+2*x^(7/4)", "--precision", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    direct = invert_series(parse("x^(3/2)+2*x^(7/4)", precision=INF), F(2))
    assert PuiseuxSeries.from_json(blob["xi"]) == direct.xi
    assert PuiseuxSeries.from_json(blob["eta"]) == direct.eta
    assert EssentialSequence.from_json(blob["ess_xi"]) == direct.ess_xi
    assert blob["checks"]["all_passed"] is True


def test_invert_with_param(capsys):
    code, out, _ = run(
        capsys, "invert", "x^(3/2) + c*x^(7/4)", "--param", "c=-3", "--precision", "1"
    )
    assert code == 0
    assert "y^(2/3) + 2*y^(5/6)" in out  # -(2/3)(-3) = 2


def test_invert_huge_dominating_coefficient(capsys):
    # the square root of 10^400 lies beyond float range
    text = f"{10**400}*x^(2)+x^(3)"
    code, out, _ = run(capsys, "invert", text, "--precision", "2")
    assert code == 0
    assert f"root = {10**200}" in out and "PASS" in out
    code, _, err = run(capsys, "invert", text)  # must not raise
    assert code in (0, 1) and "Traceback" not in err


def test_invert_prints_coefficients_past_the_digit_limit(capsys):
    # xi's coefficients at the default target pass Python's 4300-digit
    # limit on int-str conversion
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    text = f"{10**400}*x^(2)+x^(3)"
    code, out, err = run(capsys, "invert", text)
    assert code == 0 and err == ""
    assert max(len(w) for w in out.split()) > 4300
    code, out, _ = run(capsys, "invert", text, "--json")
    assert code == 0
    data = json.loads(out)
    assert max(len(t["coef"]) for t in data["xi"]["terms"]) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_dual_verb(capsys):
    code, out, _ = run(capsys, "dual", "1 + t", "--precision", "6")
    assert code == 0
    assert "1 - u + 2*u^(2) - 5*u^(3)" in out


def test_dual_refuses_a_huge_precision_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "dual", "1+t", "--precision", "1e9")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert re.fullmatch(rf"error: {refusal('the dual')}\n", err)


def _count_runs(monkeypatch, module):
    """Record the arguments of every _dual_from_power call made through module."""
    runs = []
    real = puiseux.duality._dual_from_power

    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(module, "_dual_from_power", counted)
    return runs


def test_dual_verb_computes_the_dual_once(capsys, monkeypatch):
    # the identity report checks the dual the verb prints, not a second one
    runs = _count_runs(monkeypatch, puiseux.duality)
    code, out, _ = run(capsys, "dual", "1 + t + 3*t^(2) - t^(5)", "--precision", "20")
    assert code == 0
    assert "dual identity: PASS" in out
    assert len(runs) == 1


def test_verify_verb_duals_the_sparse_power(capsys, monkeypatch):
    # the unit's dual identity reads the dual off the two terms of
    # unit^m1 = 1 + 2t, not off the dense unit
    runs = _count_runs(monkeypatch, puiseux.cli)
    code, out, _ = run(capsys, "verify", "x^(3/2)+2*x^(7/4)", "--precision", "4")
    assert code == 0
    assert "dual identity: PASS" in out
    ((power, m, c0, a),) = runs
    assert (m, c0, a) == (6, 1, 1)
    assert power.terms == {(F(0),): 1, (F(1),): 2}


def test_verify_verb_reuses_the_unit_power(capsys, monkeypatch):
    # unit^m1 comes with the branch data; the one pow_int left is the power
    # identity's own, of the unit part
    calls = []
    real = PuiseuxSeries.pow_int

    def counted(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(PuiseuxSeries, "pow_int", counted)
    code, out, _ = run(capsys, "verify", "x^(3/2)+2*x^(7/4)", "--precision", "4")
    assert code == 0
    assert calls == [6]


def test_verify_verb_runs_the_lagrange_oracle_in_several_variables(capsys):
    code, out, err = run(
        capsys, "verify", "x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)", "--precision", "3"
    )
    assert code == 0, err
    assert "Lagrange oracle equivalence: PASS" in out
    assert "  coefficient of xi at (2/3, 0, 0): ok" in out
    assert "  coefficient of xi at (5/6, 1/2, 0): ok" in out


def test_verify_verb_reports_a_refused_oracle(capsys, monkeypatch):
    # an oracle whose charge passes the limit skips that report; the
    # identities that did run still print and decide the exit code.  On
    # x^(1/2) + x^(2/2) + ... + x^(41/2) at N = 60 the oracle's table of 40
    # terms of C charges far more than the dual and the powers
    monkeypatch.setattr(puiseux.core, "MAX_WORK", 5 * 10**5)
    text = " + ".join(f"x^({k}/2)" for k in range(1, 42))
    code, out, err = run(capsys, "verify", text, "--precision", "62")
    assert code == 0, err
    assert "Halphen-Stolz inversion: PASS" in out
    assert "dual identity: PASS" in out
    skipped = re.search(r"Lagrange oracle equivalence: SKIPPED \((.*)\)\n", out)
    assert re.fullmatch(refusal("the Lagrange oracle"), skipped[1])
    code, out, _ = run(capsys, "verify", text, "--precision", "62", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["all_passed"]
    assert blob["reports"][-1]["skipped"] == skipped[1]


def test_verify_verb_reports_a_refused_recomputation(capsys):
    # below the head's window the Halphen-Stolz recomputation is refused;
    # the other three reports still run and decide the exit code
    text = "x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)"
    reason = ("the result's window w_eta = 4 is below m1 = 6 in the unit frame; "
              "invert at a higher target precision")
    code, out, err = run(capsys, "verify", text, "--precision", "1")
    assert code == 0, err
    assert out.startswith(f"Halphen-Stolz inversion: SKIPPED ({reason})\n")
    for name in ("dual identity", "power identity (N=6)", "Lagrange oracle equivalence"):
        assert f"{name}: PASS" in out
    code, out, _ = run(capsys, "verify", text, "--precision", "1", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["all_passed"]
    assert blob["reports"][0]["skipped"] == reason
    assert all("skipped" not in r for r in blob["reports"][1:])


def test_verify_verb_raises_every_other_error(capsys, monkeypatch):
    def refuse(result):
        raise puiseux.PuiseuxError("not a window refusal")

    monkeypatch.setattr(puiseux.cli, "verify_halphen_stolz", refuse)
    code, out, err = run(capsys, "verify", "x^(3/2)+2*x^(7/4)", "--precision", "2")
    assert (code, out, err) == (1, "", "error: not a window refusal\n")


def test_negative_precision_is_refused(capsys):
    for verb in ("analyze", "dual", "invert", "lagrange", "verify"):
        series = "1 + t" if verb == "dual" else "x^(3/2)+2*x^(7/4)"
        code, out, err = run(capsys, verb, series, "--precision", "-1")
        assert (code, out) == (1, ""), verb
        assert err == "error: --precision must be non-negative, got -1\n", verb
    for verb, series in (("dual", "1 + t"), ("invert", "x^(3/2)+2*x^(7/4)")):
        code, _, err = run(capsys, verb, series, "--precision", "0")
        assert code == 0, err


def test_zero_denominator_is_named(capsys):
    # 1/0 is no rational, so it names its option like any other such value
    for argv, message in (
        (("invert", "x^(3/2)+2*x^(7/4)", "--precision", "1/0"),
         "--precision must be a non-negative rational"),
        (("invert", "x^(3/2)+c*x^(7/4)", "--param", "c=1/0"), "--param c must be a rational p/q"),
        (("invert", "4*x^(2)+x^(3)", "--root-coeff", "1/0"), "--root-coeff must be a rational p/q"),
        (("analyze", "x1^(1/2)+x2", "--order", "weights:1/0,1"),
         "--order weight must be a rational p/q"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}, got '1/0'\n"), argv


def test_precision_that_is_no_rational_is_named(capsys):
    for verb in ("analyze", "dual", "invert", "lagrange", "verify"):
        series = "1 + t" if verb == "dual" else "x^(3/2)+2*x^(7/4)"
        for value in ("inf", "abc"):
            code, out, err = run(capsys, verb, series, "--precision", value)
            assert (code, out) == (1, ""), (verb, value)
            assert err == (
                f"error: --precision must be a non-negative rational, got '{value}'\n"
            ), (verb, value)


def test_root_coeff_that_is_no_rational_is_named(capsys):
    for verb in ("invert", "lagrange", "verify"):
        code, out, err = run(capsys, verb, "4*x^(2)+x^(3)", "--root-coeff", "abc")
        assert (code, out) == (1, ""), verb
        assert err == "error: --root-coeff must be a rational p/q, got 'abc'\n", verb


def test_param_that_is_no_rational_is_named(capsys):
    code, out, err = run(capsys, "invert", "x^(3/2)+c*x^(7/4)", "--param", "c=abc")
    assert (code, out) == (1, "")
    assert err == "error: --param c must be a rational p/q, got 'abc'\n"


def test_order_and_matrix_errors_name_their_option(tmp_path, capsys):
    letters = tmp_path / "letters.json"
    letters.write_text(json.dumps([["a", "1"], ["0", "1"]]))
    prose = tmp_path / "prose.txt"
    prose.write_text("not json")
    series = "x1^(1/2)+x2"
    bad = f"file {str(letters)!r} holds no JSON matrix of rationals: " \
        "Invalid literal for Fraction: 'a'"
    no_json = f"file {str(prose)!r} holds no JSON matrix of rationals: " \
        "Expecting value: line 1 column 1 (char 0)"
    for argv, message in (
        (("analyze", series, "--order", "weights:a,1"),
         "--order weight must be a rational p/q, got 'a'"),
        (("analyze", series, "--order", f"matrix:{letters}"), f"--order matrix {bad}"),
        (("analyze", series, "--lattice", f"matrix:{letters}"), f"--lattice matrix {bad}"),
        (("toric", series, "--matrix", str(letters)), f"--matrix {bad}"),
        (("toric", series, "--matrix", str(prose)), f"--matrix {no_json}"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv


def test_verify_verb_is_quick_at_precision_40(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "x^(3/2)+2*x^(7/4)", "--precision", "40")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.count("coefficient of xi at ") == 237
    assert elapsed < 3, elapsed


def test_qo_verb(capsys):
    code, out, _ = run(capsys, "qo", "x1^(3/2) + x2^(5/2)")
    assert code == 0
    assert "quasi-ordinary: no" in out
    assert "witness" in out
    code, out, _ = run(capsys, "qo", PSI_SIGMA)
    assert code == 0
    assert out == "quasi-ordinary: yes [certified]\n" \
        "characteristic exponents: ((0, 1/4), (3/2, 3/2))\n"


def test_toric_verb(tmp_path, capsys):
    matrix = tmp_path / "q.json"
    matrix.write_text(json.dumps([["1", "1"], ["0", "1"]]))
    code, out, _ = run(
        capsys,
        "toric",
        "x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)",
        "--matrix",
        str(matrix),
    )
    assert code == 0
    assert "v2^(1/4) + v1^(3/2)*v2^(3/2) + v1^(7/2)*v2^(6)" in out
    assert "PASS" in out


def test_verify_verb(capsys):
    # at 1/2 the result's eta is truncated to its head x^(3/2)
    for precision in ("2", "1/2"):
        code, out, err = run(capsys, "verify", "x^(3/2)+2*x^(7/4)", "--precision", precision)
        assert code == 0, err
        assert "Halphen-Stolz inversion: PASS" in out
        assert "Lagrange oracle equivalence: PASS" in out


def test_lagrange_verb(capsys):
    code, out, _ = run(capsys, "lagrange", "x^(3/2)+2*x^(7/4)", "--precision", "1")
    assert code == 0
    assert "[xi]_2/3 = 1" in out
    assert "[xi]_5/6 = -4/3" in out


def _xi_lines(series, precision):
    """The lagrange verb's lines for invert's xi of series at precision."""
    eta = puiseux.parse(series, precision=puiseux.INF)
    xi = puiseux.invert_series(eta, F(precision)).xi
    return [f"[xi]_{fmt_vec(e)} = {c}" for e, c in xi.sorted_terms()]


def test_lagrange_verb_reads_the_branch_not_the_pipeline(capsys, monkeypatch):
    anchor = "x^(3/2)+2*x^(7/4)"
    at_40 = _xi_lines(anchor, 40)

    def refuse(*args, **kwargs):
        raise AssertionError("the lagrange verb ran the inversion pipeline")

    monkeypatch.setattr(puiseux.inversion, "_dual_from_power", refuse)
    monkeypatch.setattr(puiseux.inversion, "invert_branch", refuse)
    first = ["[xi]_2/3 = 1", "[xi]_5/6 = -4/3", "[xi]_1 = 8/3"]
    at_2 = first + [
        "[xi]_7/6 = -494/81", "[xi]_4/3 = 3640/243", "[xi]_3/2 = -77/2",
        "[xi]_5/3 = 670208/6561", "[xi]_11/6 = -21850253/78732", "[xi]_2 = 768",
    ]
    for precision, lines in (("1", first), ("2", at_2), ("40", at_40)):
        code, out, err = run(capsys, "lagrange", anchor, "--precision", precision)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines, precision
    # the 237 lines the verb printed before it stopped reading the pipeline
    assert len(at_40) == 237
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "df84f5b2e0d16a965ef80f0944fa8fde4922048a6166baebebaefbd32054b05a"
    )
    code, out, _ = run(capsys, "lagrange", anchor, "--precision", "1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "m": 6,
        "n": 4,
        "coefficients": [
            {"exponent": "2/3", "coef": "1"},
            {"exponent": "5/6", "coef": "-4/3"},
            {"exponent": "1", "coef": "8/3"},
        ],
    }


def test_lagrange_verb_prints_invert_xi_in_several_variables(capsys):
    for precision in ("1", "2", "3"):
        code, out, err = run(capsys, "lagrange", PSI_MULTI, "--precision", precision)
        assert (code, err) == (0, "")
        assert out.splitlines() == _xi_lines(PSI_MULTI, precision), precision
    code, out, _ = run(capsys, "lagrange", PSI_MULTI, "--precision", "1", "--json")
    assert json.loads(out) == {
        "m": 6, "n": 4, "coefficients": [{"exponent": ["2/3", "0", "0"], "coef": "1"}]
    }


def test_lagrange_verb_refuses_a_short_input(capsys):
    code, out, err = run(capsys, "lagrange", "x^(3/2)+2*x^(7/4) + O(total=2)", "--precision", "10")
    assert (code, out) == (1, "")
    assert err == "error: the input is too short: target 10 needs unit precision N = 56, " \
        "it supports only 2\n"


def test_corpus_verb(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "corpus cases passed" in out
    assert "FAIL" not in out


def test_deterministic_output(capsys):
    first = run(capsys, "invert", "x^(3/2)+2*x^(7/4)", "--precision", "3")
    second = run(capsys, "invert", "x^(3/2)+2*x^(7/4)", "--precision", "3")
    assert first == second


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "x^(")
    assert code == 1
    assert "error" in err


def test_precondition_error_exit_code(capsys):
    code, _, err = run(capsys, "invert", "x1^(3/2) + x2^(5/2)")
    assert code == 1
    assert "dominating" in err


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x", "--bogus"])
    assert exc.value.code == 1


def test_unknown_verb_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_order_and_lattice_flags(tmp_path, capsys):
    matrix = tmp_path / "order.json"
    matrix.write_text(json.dumps([["1", "1"], ["0", "1"]]))
    code, out, _ = run(
        capsys,
        "analyze",
        "x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)",
        "--order",
        f"matrix:{matrix}",
    )
    assert code == 0
    code2, out2, _ = run(
        capsys,
        "analyze",
        "x1^(3/2) + x2^(1/4)",
        "--order",
        "weights:1,2",
        "--lattice",
        "zh",
    )
    assert code2 == 0


def test_failed_verification_exits_two(capsys):
    # a hand-corrupted report exercises the exit-code mapping
    from puiseux.cli import _report_exit

    assert _report_exit(False) == 2
    assert _report_exit(True) == 0


# one value for every option of the CLI, and the options each verb reads
OPTION_VALUES = {
    "--param": "c=1",
    "--laurent": None,
    "--precision": "2",
    "--order": "lex",
    "--lattice": "zh",
    "--root-coeff": "1",
    "--matrix": "q.json",
}
VERB_OPTIONS = {
    "analyze": {"--param", "--precision", "--order", "--lattice"},
    "dual": {"--param", "--precision"},
    "invert": {"--param", "--precision", "--root-coeff"},
    "lagrange": {"--param", "--precision", "--root-coeff"},
    "verify": {"--param", "--precision", "--root-coeff"},
    "qo": {"--param", "--laurent"},
    "toric": {"--param", "--order", "--matrix"},
    "corpus": set(),
}


@pytest.mark.parametrize("verb", VERB_OPTIONS)
def test_each_verb_takes_only_the_options_it_reads(verb, capsys):
    series = [] if verb == "corpus" else ["x"]
    assert build_parser().parse_args([verb, *series, "--json"]).json
    for option, value in OPTION_VALUES.items():
        argv = [verb, *series, option] + ([] if value is None else [value])
        if option in VERB_OPTIONS[verb]:
            args = build_parser().parse_args(argv)
            assert getattr(args, option[2:].replace("-", "_"))
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, option
        err = capsys.readouterr().err
        assert "unrecognized arguments: " + option in err and "Traceback" not in err


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_lines() -> list[list[str]]:
    """The arguments of every line of the README's CLI block."""
    block = README.read_text().split("## CLI\n", 1)[1].split("```\n")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line]


# the h > 1 cases and the answers named for them: each argv with a line its
# output holds, or None where the walk's charge refuses it
CHARGED = [
    (["dual", "1+t1+t2", "--precision", "60"], "dual identity: PASS"),
    (["dual", "1+t1+t2+t1*t2^(2)", "--precision", "60"], "dual identity: PASS"),
    (["dual", "1+t1+t2", "--precision", "500"], None),
    (["verify", "x1^(3/2)+x1^(7/4)*x2^(1/2)", "--precision", "40"], "Lagrange oracle equivalence: PASS"),
    (["verify", "x1^(3/2)+x1^(7/4)*x2^(1/2)", "--precision", "60"], "Lagrange oracle equivalence: PASS"),
    (["invert", "x^(3/2)+2*x^(7/4)", "--precision", "100"], "Halphen-Stolz inversion: PASS"),
    (["analyze", "x^(1/997) + x^(1/991) + x^(5)"], "irreducible exponents: 1/997, 1/991\n"),
]


def _at_a_huge_precision(argv):
    """argv at --precision 1e9, or None for a verb without the option."""
    if "--precision" not in VERB_OPTIONS[argv[0]]:
        return None
    if "--precision" in argv:
        i = argv.index("--precision") + 1
        return argv[:i] + ["1e9"] + argv[i + 1:]
    return argv + ["--precision", "1e9"]


# every README line answers; at --precision 1e9 a case may answer or be
# refused (holds is then "")
CLI_CASES = [(argv, "") for argv in _readme_cli_lines()] + CHARGED
HUGE = dict.fromkeys(tuple(huge) for argv, _ in CLI_CASES if (huge := _at_a_huge_precision(argv)))
CLI_CASES += [(list(argv), "") for argv in HUGE]


@pytest.mark.parametrize("argv, holds", CLI_CASES, ids=[" ".join(a) for a, _ in CLI_CASES])
def test_every_verb_answers_or_refuses(argv, holds, capsys, monkeypatch, tmp_path):
    # each run exits 0 with every report passing, or exits 1 with the one
    # refusal of a charged walk; at --precision 1e9 a refusal comes at once,
    # from a count the walk knows before its first degree
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text('[["1","1"],["0","1"]]')
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    huge = "1e9" in argv
    if code == 0:
        assert holds is not None and holds in out, (out, err)
        assert "FAIL" not in out and "SKIPPED" not in out
    else:
        assert (code, out) == (1, "") and (holds is None or huge), err
        assert re.fullmatch(rf"error: {refusal(r'the [a-zA-Z ]+')}\n", err)
    assert elapsed < (1 if huge else 5), elapsed
