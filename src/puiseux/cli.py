"""Command-line front end.

Verbs: analyze, dual, invert, lagrange, verify, qo, toric, corpus.
lagrange prints xi by the Lagrange formula alone, in any number of variables,
from the branch that invert reads, never its pipeline; verify compares the
two at every exponent that either holds.
Typed series are taken as exact polynomials unless they carry an explicit
O(total=R) marker.  Each verb takes only the options it reads; --precision
is the working precision, a non-negative rational (default 10).  Exit
codes: 0 success, 1 parse or precondition error, 2 failed verification.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .core import AdditiveOrder, Lattice, PuiseuxError, fmt_vec, mat_from, rat, total
from .duality import _dual_from_power, _dual_identity, dual, verify_power_identity
from .exponents import (
    characteristic_exponents,
    essential_of_series,
    exponent_to_json,
    irreducible_exponents,
)
from .inversion import _branch_at, invert_series, lagrange_series, verify_halphen_stolz
from .quasi_ordinary import qo_test, toric_pullback, verify_qsigma_relation
from .reports import CheckReport
from .series import (
    DEFAULT_PRECISION, INF, PrecisionError, PuiseuxSeries, default_names, format_series, parse
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _apply_params(text: str, params: list[str]) -> str:
    for spec in params or []:
        if "=" not in spec:
            raise PuiseuxError(f"--param needs NAME=p/q, got {spec!r}")
        name, value = spec.split("=", 1)
        name = name.strip()
        if not re.fullmatch(r"[A-Za-z]+", name):
            raise PuiseuxError(f"parameter name {name!r} must be alphabetic")
        _option_rat(f"--param {name}", value, "a rational p/q")  # validate early
        text = re.sub(rf"\b{name}\b", value, text)
    return text


def _option_rat(option: str, value: str, what: str) -> Fraction:
    """value as a rational; text that is no rational names option and value."""
    try:
        return rat(value)
    except ValueError:
        raise PuiseuxError(f"{option} must be {what}, got {value!r}") from None


def _precision(args, default=DEFAULT_PRECISION):
    """--precision as a rational, or default when it is absent."""
    if args.precision is None:
        return default
    value = _option_rat("--precision", args.precision, "a non-negative rational")
    if value < 0:
        raise PuiseuxError(f"--precision must be non-negative, got {args.precision}")
    return value


def _parse_series(args) -> PuiseuxSeries:
    text = _apply_params(args.series, args.param)
    return parse(text, precision=INF, laurent=getattr(args, "laurent", False))


def _load_matrix(option: str, path: str):
    """The JSON matrix of rationals in the file path; a file that holds none
    names option and path."""
    with open(path) as fh:
        try:
            return mat_from(json.load(fh))
        except (TypeError, ValueError) as exc:
            message = f"{option} file {path!r} holds no JSON matrix of rationals: {exc}"
            raise PuiseuxError(message) from None


def _order_from_spec(spec: str, dim: int) -> AdditiveOrder:
    if spec == "lex":
        return AdditiveOrder.lex(dim)
    if spec.startswith("weights:"):
        texts = spec[len("weights:"):].split(",")
        weights = [_option_rat("--order weight", w, "a rational p/q") for w in texts]
        return AdditiveOrder.weighted(weights)
    if spec.startswith("matrix:"):
        return AdditiveOrder.from_matrix(_load_matrix("--order matrix", spec[len("matrix:"):]))
    raise PuiseuxError(f"unknown order spec {spec!r}")


def _lattice_from_spec(spec: str, dim: int) -> Lattice:
    if spec == "zh":
        return Lattice.standard(dim)
    if spec.startswith("matrix:"):
        return Lattice(dim, _load_matrix("--lattice matrix", spec[len("matrix:"):]))
    raise PuiseuxError(f"unknown lattice spec {spec!r}")


def _emit(args, human_lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(human_lines))


def _fmt_set(vectors) -> str:
    return ", ".join(fmt_vec(v) for v in sorted(vectors, key=lambda v: (total(v), v)))


def _fmt_entries(entries) -> str:
    return "(" + ", ".join(fmt_vec(e) for e in entries) + ")"


# ---------------------------------------------------------------------------
# verbs


def _cmd_analyze(args) -> int:
    psi = _parse_series(args).truncate(_precision(args, INF))
    order = _order_from_spec(args.order, psi.num_vars)
    lattice = _lattice_from_spec(args.lattice, psi.num_vars)
    ess = essential_of_series(psi, lattice=lattice, order=order)
    irr = irreducible_exponents(psi.support())
    lines = [
        f"series: {format_series(psi)}",
        f"ramification: ({', '.join(str(n) for n in psi.ramification)})",
        f"support: {_fmt_set(psi.support())}",
        f"irreducible exponents: {_fmt_set(irr)}",
        f"essential exponents: {_fmt_entries(ess.entries)}"
        + (" [complete]" if ess.complete else " [provisional]"),
    ]
    payload = {
        "series": psi.to_json(),
        "irreducible": [
            exponent_to_json(v) for v in sorted(irr, key=lambda v: (total(v), v))
        ],
        "essential": ess.to_json(),
    }
    if psi.num_vars == 1 and not psi.is_zero() and psi.constant_term() == 0:
        char = characteristic_exponents(psi)
        lines.append(
            "characteristic exponents: ("
            + ", ".join(str(e) for e in char.entries)
            + ")"
        )
        payload["characteristic"] = char.to_json()
    _emit(args, lines, payload)
    return 0


def _report_exit(report_ok: bool) -> int:
    return 0 if report_ok else 2


def _cmd_dual(args) -> int:
    phi = _parse_series(args).truncate(_precision(args))
    checked = dual(phi)
    report_dual = _dual_identity(phi, checked)
    lines = [
        f"dual: {format_series(checked, default_names(checked.num_vars, 'u'))}",
        report_dual.describe(),
    ]
    payload = {"dual": checked.to_json(), "report": report_dual.to_json()}
    _emit(args, lines, payload)
    return _report_exit(report_dual.all_passed)


def _xi_names(h: int) -> list[str]:
    if h == 1:
        return ["y"]
    return ["y1"] + [f"x{i}" for i in range(2, h + 1)]


def _branch_options(args):
    """(series, --precision, --root-coeff) for invert, lagrange and verify."""
    eta, root = _parse_series(args), None
    if args.root_coeff is not None:
        root = _option_rat("--root-coeff", args.root_coeff, "a rational p/q")
    return eta, _precision(args), root


def _cmd_invert(args) -> int:
    result = invert_series(*_branch_options(args))
    h = result.eta.num_vars
    lines = [
        f"m1 = {result.m1}, n1 = {result.n1}, root = {result.root_coeff}",
        f"xi: {format_series(result.xi, _xi_names(h))}",
        "essential exponents of eta: " + _fmt_entries(result.ess_eta.entries)
        + (" [complete]" if result.ess_eta.complete else " [provisional]"),
        "essential exponents of xi:  " + _fmt_entries(result.ess_xi.entries)
        + (" [complete]" if result.ess_xi.complete else " [provisional]"),
        result.checks.describe(),
    ]
    _emit(args, lines, result.to_json())
    return _report_exit(result.checks.all_passed)


def _cmd_lagrange(args) -> int:
    eta, target, root = _branch_options(args)
    # the branch that invert reads, which the oracle expands without the dual
    data, _ = _branch_at(eta, target, root)
    terms = lagrange_series(data).truncate(target).sorted_terms()
    lines = [f"[xi]_{fmt_vec(e)} = {c}" for e, c in terms]
    rows = [{"exponent": exponent_to_json(e), "coef": str(c)} for e, c in terms]
    _emit(args, lines, {"m": data.exponent_m, "n": data.ramification[0], "coefficients": rows})
    return 0


def _oracle_report(result) -> CheckReport:
    """xi again, by the Lagrange formula alone, at xi's own precision: one
    check at every exponent that xi or the oracle holds."""
    xi, oracle = result.xi, lagrange_series(result.branch)
    report = CheckReport("Lagrange oracle equivalence")
    for e in sorted(xi.support() | oracle.support(), key=lambda v: (total(v), v)):
        report.record("coefficient of xi", xi.coefficient(e), oracle.coefficient(e), e)
    return report


def _unless_refused(name: str, build, refusal) -> CheckReport:
    """build()'s report, or a report name marked skipped with the reason
    when build raises refusal, so that the other reports still print."""
    try:
        return build()
    except refusal as exc:
        return CheckReport(name, skipped=str(exc))


def _cmd_verify(args) -> int:
    result = invert_series(*_branch_options(args))
    data = result.branch
    reports = [
        # the recomputation refuses a result whose window misses eta's head
        _unless_refused(
            "Halphen-Stolz inversion", lambda: verify_halphen_stolz(result), PrecisionError
        ),
        # the unit's dual read off the sparse unit^m1 rather than the dense unit
        _dual_identity(
            data.series,
            _dual_from_power(data.power, result.m1, data.root_coeff, 1),
        ),
        verify_power_identity(data.series, result.m1),
        # the oracle is refused once its charge passes the work limit
        _unless_refused(
            "Lagrange oracle equivalence", lambda: _oracle_report(result), PuiseuxError
        ),
    ]
    ok = all(r.all_passed for r in reports)
    lines = [r.describe() for r in reports]
    _emit(args, lines, {"reports": [r.to_json() for r in reports], "all_passed": ok})
    return _report_exit(ok)


def _cmd_qo(args) -> int:
    psi = _parse_series(args)
    verdict = qo_test(psi)
    label = {True: "yes", False: "no", None: "unknown beyond precision"}[verdict.is_qo]
    lines = [f"quasi-ordinary: {label}" + (" [certified]" if verdict.certified else "")]
    if verdict.char_exponents is not None:
        lines.append("characteristic exponents: " + _fmt_entries(verdict.char_exponents))
    if verdict.witness is not None:
        lines.append("witness: " + verdict.witness.describe())
    _emit(args, lines, verdict.to_json())
    return 0


def _cmd_toric(args) -> int:
    psi = _parse_series(args)
    if args.matrix is None:
        raise PuiseuxError("the toric verb needs --matrix FILE")
    q = _load_matrix("--matrix", args.matrix)
    pulled = toric_pullback(psi, q)
    order = _order_from_spec(args.order, psi.num_vars)
    report = verify_qsigma_relation(psi, q, order)
    names = default_names(psi.num_vars, "v")
    lines = [f"pullback: {format_series(pulled, names)}", report.describe()]
    _emit(args, lines, {"pullback": pulled.to_json(), "report": report.to_json()})
    return _report_exit(report.all_passed)


def _cmd_corpus(args) -> int:
    from .corpus import run_corpus

    cases = run_corpus()
    ok = all(passed for _, passed, _ in cases)
    width = max(len(name) for name, _, _ in cases)
    lines = [
        f"{'PASS' if passed else 'FAIL'}  {name.ljust(width)}  {detail}"
        for name, passed, detail in cases
    ]
    lines.append(f"{sum(p for _, p, _ in cases)}/{len(cases)} corpus cases passed")
    payload = {
        "cases": [
            {"name": n, "passed": p, "detail": d} for n, p, d in cases
        ],
        "all_passed": ok,
    }
    _emit(args, lines, payload)
    return _report_exit(ok)


# ---------------------------------------------------------------------------


# every option any verb reads; each verb below names the ones it takes
_OPTIONS = {
    "--param": dict(action="append", metavar="NAME=p/q",
                    help="substitute a coefficient symbol before parsing"),
    "--laurent": dict(action="store_true",
                      help="allow negative exponents (one variable)"),
    "--precision": dict(metavar="R", help="working precision (total degree)"),
    "--order": dict(default="lex", metavar="SPEC",
                    help="lex | weights:w1,...,wh | matrix:FILE"),
    "--lattice": dict(default="zh", metavar="SPEC", help="zh | matrix:FILE"),
    "--root-coeff": dict(dest="root_coeff", metavar="p/q",
                         help="m-th root of the dominating coefficient"),
    "--matrix": dict(metavar="FILE", help="toric chart matrix (JSON rows)"),
}

_VERBS = {
    "analyze": (_cmd_analyze, ("--param", "--precision", "--order", "--lattice")),
    "dual": (_cmd_dual, ("--param", "--precision")),
    "invert": (_cmd_invert, ("--param", "--precision", "--root-coeff")),
    "lagrange": (_cmd_lagrange, ("--param", "--precision", "--root-coeff")),
    "verify": (_cmd_verify, ("--param", "--precision", "--root-coeff")),
    "qo": (_cmd_qo, ("--param", "--laurent")),
    "toric": (_cmd_toric, ("--param", "--order", "--matrix")),
    "corpus": (_cmd_corpus, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="puiseux", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, options) in _VERBS.items():
        p = sub.add_parser(verb)
        if verb != "corpus":
            p.add_argument("series", help="series text, e.g. 'x^(3/2) + 2*x^(7/4)'")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact coefficients may pass the interpreter's limit on the digits of an
    # int-str conversion (Python 3.11+), so it is lifted for the call
    digit_limit = getattr(sys, "get_int_max_str_digits", None)
    saved = digit_limit() if digit_limit else None
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # PuiseuxError is a ValueError; malformed rationals and unreadable
        # matrix files land here as well
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
