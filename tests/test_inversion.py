import random
from fractions import Fraction as F

import pytest

from builders import random_branch_data, random_unit_series
from puiseux import (
    AdditiveOrder,
    BranchData,
    DominationError,
    INF,
    Lattice,
    PrecisionError,
    PuiseuxError,
    PuiseuxSeries,
    RootError,
    dual,
    essential_exponents,
    essential_exponents_p,
    extract_branch,
    invert_branch,
    invert_series,
    lagrange_coefficient,
    lagrange_pair_check,
    parse,
    rational_binomial,
    verify_halphen_stolz,
    verify_power_identity,
)
from puiseux.corpus import PSI_MULTI
from puiseux.inversion import _halphen_stolz_report


def test_primitive_representation():
    # x^(5/2) + x^(8/3) has lowest common denominator 6: t^15 + t^16
    psi = parse("x^(5/2) + x^(8/3)", precision=INF)
    assert psi.ramification == (6,)
    eta_t = psi.monomial_substitute([[F(6)]])
    assert eta_t.terms == {(F(15),): F(1), (F(16),): F(1)}


def test_extract_plane_example():
    eta = parse("x^(3/2) + 2*x^(7/4)")
    data = extract_branch(eta, unit_precision=F(8))
    assert data.exponent_m == 6
    assert data.root_coeff == 1
    assert data.ramification == (4,)
    for k in range(6):
        assert data.series.coefficient((F(k),)) == rational_binomial(F(1, 6), k) * 2**k


def test_extract_identity_branch():
    data = extract_branch(parse("x", precision=INF))
    assert data.exponent_m == 1
    assert data.series.terms == {(F(0),): F(1)}


def test_extract_multivariate_example():
    psi = parse("x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)")
    data = extract_branch(psi, unit_precision=F(8))
    assert data.exponent_m == 6
    assert data.ramification == (4, 2, 3)
    assert data.series.coefficient((F(1), F(1), F(0))) == rational_binomial(F(1, 6), 1)


def test_extract_rejects_non_dominating():
    with pytest.raises(DominationError) as err:
        extract_branch(parse("x1^(3/2) + x2^(5/2)"))
    assert "(0, 5/2)" in str(err.value)
    with pytest.raises(DominationError):
        extract_branch(parse("x2^(1/3) + x1*x2^(2/3)"))


def test_extract_root_handling():
    # m = 2 with dominating coefficient 2: no rational square root
    with pytest.raises(RootError):
        extract_branch(parse("2*x^(2) + x^(3)", precision=6))
    # perfect square extracts automatically, preferring the positive root
    data = extract_branch(parse("4*x^(2) + x^(3)", precision=6))
    assert data.exponent_m == 2 and data.root_coeff == 2
    # a claimed root is validated exactly
    with pytest.raises(RootError) as err:
        extract_branch(parse("4*x^(2) + x^(3)", precision=6), root_coeff=F(3))
    assert "9" in str(err.value)


def test_invert_plane_example():
    for c in (1, 2, -3):
        sign = "+" if c > 0 else "-"
        eta = parse(f"x^(3/2) {sign} {abs(c)}*x^(7/4)", precision=INF)
        res = invert_series(eta, F(2))
        assert res.m1 == 6 and res.n1 == 4
        assert res.xi.coefficient((F(2, 3),)) == 1
        assert res.xi.coefficient((F(5, 6),)) == -F(2, 3) * c
        assert res.checks.all_passed and not res.checks.provisional
        assert res.ess_eta.scalars == (F(3, 2), F(7, 4))
        assert res.ess_xi.scalars == (F(2, 3), F(5, 6))


def test_invert_result_carries_its_branch():
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
    res = invert_series(eta, F(2))
    # the unit precision target * m1 - n1 = 2 * 6 - 4
    assert res.branch == extract_branch(eta, unit_precision=F(8))
    assert "branch" not in res.to_json()


def test_invert_identity():
    res = invert_series(parse("x", precision=INF), F(4))
    assert res.xi.terms == {(F(1),): F(1)}


def test_exinv_all_coefficients():
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
    res = invert_series(eta, F(3))
    for p in range(4, 19):
        want = F(4, p) * rational_binomial(F(-p, 6), p - 4) * 2 ** (p - 4)
        assert res.xi.coefficient((F(p, 6),)) == want


def test_verify_halphen_stolz_standalone():
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
    # below target 1 the result's eta is x^(3/2) alone, whose own
    # ramification (2,) is not the branch's (4,)
    for target in (F(1, 100), F(1, 2), F(2, 3), F(1), F(2)):
        res = invert_series(eta, target)
        assert res.checks.all_passed
        assert verify_halphen_stolz(res).all_passed, target
    # the worked identity: 6(1 + 5/6) = 4(1 + 7/4) = 11
    assert 6 * (1 + F(5, 6)) == 4 * (1 + F(7, 4)) == 11


def test_verify_symmetric_degenerate_case():
    # root 1 with m = n: e'_k = e_k and the coefficients cancel pairwise
    unit = PuiseuxSeries(1, {(F(0),): F(1), (F(1),): F(2)}, F(8))
    res = invert_branch(BranchData(unit, 3, F(1), (3,)))
    assert res.ess_eta.scalars == res.ess_xi.scalars
    for e in res.ess_eta.scalars[1:]:
        assert res.xi.coefficient((e,)) + res.eta.coefficient((e,)) == 0
    assert res.checks.all_passed


def test_verify_nontrivial_root_case():
    # root 2 with m = 2, n = 3: formulas hold exactly
    unit = PuiseuxSeries(1, {(F(0),): F(2), (F(1),): F(3), (F(4),): F(-1)}, F(10))
    res = invert_branch(BranchData(unit, 2, F(2), (3,)))
    assert res.root_coeff == 2
    assert res.checks.all_passed
    assert verify_halphen_stolz(res).all_passed


def test_standalone_verify_uses_symmetric_windows():
    # reconstructing the unit frames from the fractional frames shrinks the
    # two windows differently; the verifier must re-align them or d' = d
    # fails spuriously on perfectly good data
    psi = parse("x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)", precision=INF)
    for target in (F(2), F(5, 2), F(3), F(4)):
        res = invert_series(psi, target)
        assert res.checks.all_passed
        assert verify_halphen_stolz(res).all_passed, target


@pytest.mark.parametrize(
    "target, w_eta",
    [(F(1, 100), 3), (F(1, 2), 3), (F(2, 3), 3), (F(1), 4), (F(4, 3), F(14, 3)),
     (F(5, 3), F(16, 3)), (F(2), None)],
)
def test_verify_names_a_window_below_the_head(target, w_eta):
    # below target 2 the re-framed window w_eta is under m1 = 6, so the head
    # t1^6 of eta_t is unknown there; the result's own report still passes
    res = invert_series(parse(PSI_MULTI, precision=INF), target)
    assert res.checks.all_passed
    if w_eta is None:
        assert verify_halphen_stolz(res).all_passed
    else:
        with pytest.raises(PrecisionError, match=rf"w_eta = {w_eta} is below m1 = 6"):
            verify_halphen_stolz(res)


def test_provisional_report_when_certificate_is_missing():
    # gcd(n, m) = 6 never drops to 1 within the truncated support, so the
    # completeness certificate cannot fire; checks still run and pass
    unit = PuiseuxSeries(1, {(F(0),): F(1), (F(6),): F(1)}, F(12))
    res = invert_branch(BranchData(unit, 6, F(1), (6,)))
    assert not res.ess_eta.complete and not res.ess_xi.complete
    assert res.checks.provisional
    assert res.checks.all_passed


def test_invert_multivariate_example():
    psi = parse("x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)")
    res = invert_series(psi, F(2))
    assert res.m1 == 6
    assert res.xi.coefficient((F(2, 3), F(0), F(0))) == 1
    assert res.checks.all_passed and not res.checks.provisional
    # coronegen: m1 [xi]_eps' + n1 [eta]_eps = 0 at each certified entry
    for e_eta, e_xi in zip(res.ess_eta.entries[1:], res.ess_xi.entries[1:]):
        assert 6 * res.xi.coefficient(e_xi) + 4 * res.eta.coefficient(e_eta) == 0


def test_multivariate_functional_equation():
    # the whole point of xi: substituting u1 = t1*unit into the u-frame xi
    # must collapse to t1^n1, using only multiplication and powers
    psi = parse("x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)", precision=INF)
    data = extract_branch(psi, unit_precision=F(6))
    n1 = data.ramification[0]
    h = psi.num_vars
    unit = data.series
    e1 = (F(1),) + (F(0),) * (h - 1)
    xi_u = dual(unit).pow_int(n1).shift(tuple(n1 * c for c in e1))
    acc = PuiseuxSeries.zero(h, unit.precision)
    for e, c in xi_u.terms.items():
        k1 = int(e[0])
        rest = (F(0),) + e[1:]
        term = unit.pow_int(k1).shift((F(k1),) + (F(0),) * (h - 1))
        acc = acc + term.shift(rest).scale(c)
    target = PuiseuxSeries.monomial(h, tuple(n1 * c for c in e1), 1, acc.precision)
    assert acc.agrees_with(target)


def test_multivariate_roundtrip():
    psi = parse("x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)", precision=INF)
    res = invert_series(psi, F(4))
    back = invert_series(res.xi, F(5, 2))
    assert back.xi.agrees_with(psi)


def test_roundtrip_random_plane():
    rng = random.Random(53)
    for _ in range(10):
        data = random_branch_data(rng, precision=F(10))
        res = invert_branch(data)
        back = invert_series(res.xi, F(1))
        eta = res.eta
        assert back.xi.agrees_with(eta)
        assert back.m1 == res.n1 and back.n1 == res.m1


def test_precision_validation():
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=3)
    with pytest.raises(PrecisionError) as err:
        invert_series(eta, F(10))
    assert "too short" in str(err.value)


def _refusal(call):
    with pytest.raises(PuiseuxError) as err:
        call()
    return type(err.value), str(err.value)


def _outcome(call):
    """The JSON and branch data of call's result, or the class and message
    of its refusal."""
    try:
        result = call()
    except PuiseuxError as exc:
        return type(exc), str(exc)
    return result.to_json(), result.branch


def test_both_entry_points_refuse_alike():
    # invert_series is extract_branch at N followed by invert_branch, so the
    # two refuse the same inputs with one class and one message, and give
    # the same result on the others
    h3 = "x1^(3/2) + 2*x1^(7/4)*x2^(1/2) - 3*x1^(2)*x2^(1/3)*x3^(1/2)"
    cases = [
        ("x^(3/2) + 2*x^(7/4) + O(total=3)", F(10), None, 56, False),
        ("x + x^(2)", INF, None, INF, False),  # exact, m1 = 1
        ("x^(3/2) + 2*x^(7/4)", INF, None, INF, False),  # exact, m1 = 6
        ("x^(3/2) + 2*x^(7/4)", F(100000), None, 599996, False),
        ("16*x1^(4/3) + x1^(5/3)*x2^(1/2) - x1^(2) + O(total=2)", F(3), -2, 9, False),
        ("x^(3/2) + 2*x^(7/4)", F(5), None, 26, True),
        ("x^(3/2) + 2*x^(7/4) + O(total=10)", F(2), None, 8, True),
        ("4*x^(2) + x^(3)", F(4), -2, 7, True),
        ("x1^(3/2) + x1^(2)*x2^(1/2)", F(3), None, 7, True),
        ("16*x1^(4/3) + x1^(5/3)*x2^(1/2) - x1^(2) + O(total=5)", F(2), -2, 5, True),
        (h3, F(3), None, 14, True),
    ]
    for text, target, root, n, succeeds in cases:
        eta = parse(text, precision=INF)
        direct = _outcome(lambda: invert_series(eta, target, root_coeff=root))
        via_branch = _outcome(
            lambda: invert_branch(extract_branch(eta, root, unit_precision=n), target)
        )
        assert direct == via_branch, text
        assert isinstance(direct[0], dict) == succeeds, (text, direct)
    # an exact eta at target INF is refused in extract_branch for m1 = 6 and
    # in invert_branch's gate for m1 = 1, in one wording
    exact = {_refusal(lambda: invert_series(parse(text, precision=INF), INF))
             for text in ("x + x^(2)", "x^(3/2) + 2*x^(7/4)")}
    assert exact == {(
        PrecisionError,
        "exact unit part: pass target_precision, or unit_precision to extract_branch",
    )}
    short = _refusal(lambda: invert_series(parse("x^(3/2) + 2*x^(7/4) + O(total=3)"), F(10)))
    assert short == (
        PrecisionError,
        "the input is too short: target 10 needs unit precision N = 56, it supports only 6",
    )


def test_divpower_lemma():
    # ess(unit, gcd(n,m)) = (0, eps_1 - m, ..., eps_d - m) from ess(eta, n)
    rng = random.Random(59)
    import math

    for _ in range(12):
        data = random_branch_data(rng, precision=F(10))
        m, n = data.exponent_m, data.ramification[0]
        eta_t = data.series.pow_int(m).shift((F(m),))
        lhs = essential_exponents_p(
            data.series.support(), math.gcd(n, m)
        ).scalars
        ess_eta = essential_exponents_p(eta_t.support(), n).scalars
        assert ess_eta[0] == m
        rhs = (F(0),) + tuple(e - m for e in ess_eta[1:])
        assert lhs == rhs


# --- the Lagrange oracle ---------------------------------------------------------


def test_lagrange_parametric_multivariate():
    # apply the closed-form oracle with the later variables carried as
    # coefficient-ring parameters: the slice of xi at first coordinate q is
    # (n1/q) a~^(-q) times the slice of (1+C)^(-q/m1) at first coord q - n1
    rng = random.Random(79)
    for _ in range(6):
        h = rng.choice([2, 3])
        m1, n1 = rng.randrange(1, 4), rng.randrange(1, 4)
        terms = {tuple(F(0) for _ in range(h)): F(1)}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(F(rng.randrange(0, 3)) for _ in range(h))
            if any(e):
                terms[e] = F(rng.choice([-2, -1, 1, 2]))
        unit = PuiseuxSeries(h, terms, F(7))
        data = BranchData(unit, m1, F(1), (n1,) + (1,) * (h - 1))
        res = invert_branch(data)
        xi_u = res.xi.monomial_substitute(
            [[F(m1 if i == 0 else 1) if i == j else F(0) for j in range(h)] for i in range(h)]
        )
        c_series = unit.pow_int(m1) - 1
        for exp, coef in xi_u.terms.items():
            q = exp[0]
            assert q.denominator == 1
            q = int(q)
            bracket = PuiseuxSeries.one(h, c_series.precision)
            power = PuiseuxSeries.one(h, c_series.precision)
            i = 1
            while not c_series.is_zero() and i * c_series.order_total() <= sum(exp):
                power = power * c_series
                bracket = bracket + power.scale(rational_binomial(F(-q, m1), i))
                i += 1
            shifted = tuple((exp[0] - n1,) + exp[1:])
            assert coef == F(n1, q) * bracket.coefficient(shifted), (exp, unit)


def test_lagrange_at_the_order():
    rng = random.Random(61)
    for _ in range(8):
        data = random_branch_data(rng)
        n = data.ramification[0]
        assert lagrange_coefficient(data, n) == data.root_coeff ** -n


def test_lagrange_matches_pipeline():
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
    data = extract_branch(eta, unit_precision=F(8))
    res = invert_series(eta, F(2))
    assert lagrange_coefficient(data, 6) == res.xi.coefficient((F(1),))


def test_lagrange_rejects_small_q():
    data = extract_branch(parse("x^(3/2) + 2*x^(7/4)"), unit_precision=F(4))
    with pytest.raises(Exception):
        lagrange_coefficient(data, 3)


def test_lagrange_pair_identity_pair():
    X = parse("u", precision=8)
    Y = parse("t", precision=8)
    report = lagrange_pair_check(X, Y, [(p, p) for p in (1, 2, 3)])
    assert report.all_passed
    assert [check.lhs for check in report.checks] == ["1", "2", "3"]


def test_lagrange_pair_worked_example():
    # Y = t + t^2, X its reciprocal; p=3, q=2: both sides equal -6
    phi = parse("1 + t", precision=8)
    Y = phi.shift((F(1),))
    X = dual(phi).shift((F(1),))
    report = lagrange_pair_check(X, Y, [(3, 2)])
    assert report.all_passed
    assert report.checks[0].lhs == "-6"


def test_lagrange_pair_leading_reciprocity():
    rng = random.Random(67)
    for _ in range(6):
        phi = random_unit_series(rng, 1, F(9), max_terms=4, denoms=(1,))
        X = dual(phi).shift((F(1),))
        Y = phi.shift((F(1),))
        report = lagrange_pair_check(X, Y, [(1, 1)])
        assert report.all_passed


def test_lagrange_pair_rejects_non_reciprocal():
    X = parse("u + u^(2)", precision=8)
    Y = parse("t + t^(2)", precision=8)
    with pytest.raises(Exception):
        lagrange_pair_check(X, Y, [(2, 2)])


def test_branch_data_json():
    data = random_branch_data(random.Random(71))
    blob = data.to_json()
    assert blob["m"] == data.exponent_m
    assert blob["unit"]["vars"] == 1


def test_identity_report_reads_the_unit_frame_only():
    # the report reads coefficients by key, so it refuses a fractional grid
    res = invert_series(parse("x^(3/2) + 2*x^(7/4)", precision=INF), F(2))
    with pytest.raises(PuiseuxError, match="unit frame needs integral exponents"):
        _halphen_stolz_report(res.eta, res.xi, res.ess_eta, res.ess_xi, 6, 4, F(1))


_ANCHOR = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
_UNIT = parse("1 + t", precision=8)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: invert_series(_ANCHOR, "x"), PuiseuxError, "Invalid literal for Fraction: 'x'"),
        (lambda: invert_series(_ANCHOR, 0.1), PuiseuxError, "refusing inexact float 0.1"),
        # INF said as a float is still INF, refused only as an exact unit part
        (lambda: invert_series(_ANCHOR, float("inf")), PrecisionError, "exact unit part"),
        (lambda: extract_branch(_ANCHOR, root_coeff="abc"), PuiseuxError,
         "Invalid literal for Fraction: 'abc'"),
        (lambda: extract_branch(_ANCHOR, unit_precision="x"), PuiseuxError,
         "Invalid literal for Fraction: 'x'"),
        (lambda: verify_power_identity(_UNIT, 2.5), PuiseuxError,
         "N must be a positive integer, got 2.5"),
        (lambda: _UNIT.pow_int(0.5), PuiseuxError, "n must be an integer, got 0.5"),
        (lambda: lagrange_coefficient(extract_branch(_ANCHOR, unit_precision=10), "7"),
         PuiseuxError, "q must be an integer, got '7'"),
    ],
)
def test_malformed_scalar_arguments_are_named(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value).startswith(message)


def _essential_with_ramification(n):
    return essential_exponents([(F(1, 2),)], Lattice.standard(1), AdditiveOrder.lex(1), (n,))


_BRANCH = extract_branch(_ANCHOR, unit_precision=10)
_UNIT_PART = parse("1 + t", precision=6)
# (entry point taking the integer, its refusal for a value x); an int is
# accepted and a bool, a string or a Fraction is refused, whatever its value
INTEGER_ARGUMENTS = [
    (lambda x: essential_exponents_p([3, 5], x), "p must be a positive integer, got {!r}"),
    (lambda x: essential_exponents_p([3, 5], 1, ramification=x),
     "ramification must be a positive integer, got {!r}"),
    (_essential_with_ramification, "ramification must be a positive integer, got {!r}"),
    (lambda x: _UNIT.pow_int(x), "n must be an integer, got {!r}"),
    (lambda x: verify_power_identity(_UNIT, x), "N must be a positive integer, got {!r}"),
    (lambda x: lagrange_coefficient(_BRANCH, x + 2 if type(x) is int else x),
     "q must be an integer, got {!r}"),
    (lambda x: BranchData(_UNIT_PART, x, 1, (1,)), "exponent_m must be a positive integer, got {!r}"),
    (lambda x: BranchData(_UNIT_PART, 2, 1, (x,)), "ramification must be a positive integer, got {!r}"),
]


@pytest.mark.parametrize("call, words", INTEGER_ARGUMENTS, ids=range(len(INTEGER_ARGUMENTS)))
@pytest.mark.parametrize("value", [True, "7", F(7), 7.0], ids=["bool", "str", "Fraction", "float"])
def test_one_rule_for_integer_arguments(call, words, value):
    call(7)
    with pytest.raises(PuiseuxError) as caught:
        call(value)
    assert str(caught.value) == words.format(value)
