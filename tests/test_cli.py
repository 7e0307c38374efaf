import json
import sys
import time
from fractions import Fraction as F

import pytest

import puiseux.cli
import puiseux.duality
from puiseux import PuiseuxSeries
from puiseux.cli import build_parser, main


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


def test_analyze_refuses_a_huge_exponent_grid(capsys):
    code, _, err = run(capsys, "analyze", "x^(1/997) + x^(1/991) + x^(5)")
    assert code == 1
    assert "4940136 points" in err and "Traceback" not in err


def test_invert_refuses_a_huge_precision_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "invert", "x^(3/2)+2*x^(7/4)", "--precision", "100000")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert "N = 599996 exceeds the limit of" in err and "Traceback" not in err


def test_invert_example(capsys):
    code, out, _ = run(capsys, "invert", "x^(3/2)+2*x^(7/4)", "--precision", "4")
    assert code == 0
    assert "m1 = 6, n1 = 4" in out
    assert "y^(2/3) - 4/3*y^(5/6)" in out
    assert "PASS" in out


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
    assert "steps exceeds the limit of" in err and "Traceback" not in err


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


def test_qo_verb(capsys):
    code, out, _ = run(capsys, "qo", "x1^(3/2) + x2^(5/2)")
    assert code == 0
    assert "quasi-ordinary: no" in out
    assert "witness" in out


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
