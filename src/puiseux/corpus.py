"""Golden corpus: worked examples whose answers are known in closed form.

Each case returns (name, passed, detail); `run_corpus` evaluates all of them
in a fixed order.  The CLI `corpus` verb prints the table and exits 2 when
anything fails.
"""

from __future__ import annotations

from fractions import Fraction as F

from .core import AdditiveOrder, Lattice, fmt_entries, rational_binomial
from .duality import verify_dual_identity, verify_power_identity
from .exponents import (
    characteristic_exponents,
    essential_exponents,
    essential_exponents_p,
    essential_of_series,
    irreducible_exponents,
    semigroup_member_oracle,
)
from .inversion import extract_branch, invert_series, lagrange_coefficient
from .quasi_ordinary import qo_test, toric_pullback, verify_qsigma_relation
from .series import parse

Q_SIGMA = [[1, 1], [0, 1]]
PSI_TOR = "x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)"
PSI_SIGMA = "v1^(3/2)*v2^(3/2) + v2^(1/4) + v1^(7/2)*v2^(6)"
PSI_MULTI = "x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)"


def _case_irreducible():
    got = irreducible_exponents({F(6), F(15), F(16), F(21), F(23)})
    want = {F(6), F(15), F(16), F(23)}
    return got == want, f"Irr = {{{', '.join(str(x) for x in sorted(got))}}}"


def _case_semigroup():
    ok = semigroup_member_oracle({F(6), F(15)}, F(21), max_terms=2)
    ok = ok and not semigroup_member_oracle({F(6), F(15), F(16), F(23)}, F(7), max_terms=4)
    return ok, "21 = 6 + 15 is reducible, 7 is not reachable"


_ESS_TABLE = {
    1: (6,), 5: (6,), 7: (6,), 11: (6,),
    2: (6, 15), 4: (6, 15), 8: (6, 15), 10: (6, 15),
    3: (6, 16), 9: (6, 16),
    6: (6, 15, 16), 12: (6, 15, 16),
}


def _case_essential_integer():
    E = {F(6), F(15), F(16), F(21), F(23)}
    for p, want in sorted(_ESS_TABLE.items()):
        got = essential_exponents_p(E, p).scalars
        if got != tuple(F(w) for w in want):
            return False, f"ess(E,{p}) = {got}, wanted {want}"
    return True, "twelve sequences for p in 1..12"


def _case_essential_rational():
    E = {F(1), F(5, 2), F(8, 3), F(7, 2), F(23, 6)}
    got = essential_exponents_p(E, 1).scalars
    detail = "ess(E,1) = (" + ", ".join(str(x) for x in got) + ")"
    return got == (F(1), F(5, 2), F(8, 3)), detail


def _case_characteristic():
    a = characteristic_exponents(parse("x^(5/2) + x^(8/3)"))
    b = characteristic_exponents(
        parse("2*x - x^(5/2) + x^(8/3) - 3*x^(7/2) + x^(23/6)")
    )
    want = (F(5, 2), F(8, 3))
    detail = "both series give (" + ", ".join(str(x) for x in a.entries) + ")"
    return (a.entries == want and b.entries == want), detail


def _case_power_identity():
    phi = parse("1 + t", precision=8)
    report = verify_power_identity(phi, 5)
    fifth = phi.pow_int(5).coefficient((F(1),))
    return report.all_passed and fifth == 5, "[phi^5]_1 = 5 at irreducible 1"


def _case_dual_identity():
    report = verify_dual_identity(parse("1 + t", precision=8))
    return report.all_passed, "coefficients at irreducible exponents match"


def _case_extract_plane():
    eta = parse("x^(3/2) + 2*x^(7/4)")
    data = extract_branch(eta, unit_precision=F(6))
    ok = data.exponent_m == 6 and data.root_coeff == 1 and data.ramification == (4,)
    for k in range(4):
        ok = ok and data.series.coefficient((F(k),)) == rational_binomial(F(1, 6), k) * 2**k
    return ok, "m = 6, root 1, unit = (1 + 2t)^(1/6)"


def _case_invert_plane():
    for c in (1, 2, -3):
        eta = parse(f"x^(3/2) + {c}*x^(7/4)" if c > 0 else f"x^(3/2) - {-c}*x^(7/4)")
        result = invert_series(eta, F(5))
        for p in range(4, 31):
            want = F(4, p) * rational_binomial(F(-p, 6), p - 4) * c ** (p - 4)
            if result.xi.coefficient((F(p, 6),)) != want:
                return False, f"c={c}: coefficient of y^({p}/6)"
        if not result.checks.all_passed:
            return False, f"c={c}: inversion identities"
    return True, "xi = y^(2/3) - (2/3)c y^(5/6) + ... for c in {1, 2, -3}"


def _case_lagrange_plane():
    eta = parse("x^(3/2) + 2*x^(7/4)")
    data = extract_branch(eta, unit_precision=F(26))
    for p in range(4, 31):
        want = F(4, p) * rational_binomial(F(-p, 6), p - 4) * 2 ** (p - 4)
        if lagrange_coefficient(data, p) != want:
            return False, f"p = {p}"
    return True, "(4/p) binom(-p/6, p-4) c^(p-4) for p in 4..30"


def _case_extract_multivariate():
    psi = parse(PSI_MULTI)
    data = extract_branch(psi, unit_precision=F(9))
    ok = data.exponent_m == 6 and data.root_coeff == 1
    ok = ok and data.ramification == (4, 2, 3)
    w = parse("t1*t2 - 2*t1^(2)*t3", precision=9)
    expect = w.scale(0) + 1
    for k in range(1, 5):  # k*ord(w) reaches the precision bound at k = 4
        expect = expect + w.pow_int(k).scale(rational_binomial(F(1, 6), k))
    ok = ok and data.series.agrees_with(expect)
    return ok, "m1 = 6, unit = (1 + t1 t2 - 2 t1^2 t3)^(1/6)"


def _case_invert_multivariate():
    psi = parse(PSI_MULTI)
    result = invert_series(psi, F(2))
    ok = result.m1 == 6 and result.n1 == 4
    ok = ok and result.xi.coefficient((F(2, 3), F(0), F(0))) == 1
    ok = ok and result.checks.all_passed
    return ok, "m1 = 6, [xi]_(2/3,0,0) = 1, symmetric identities hold"


def _case_toric_pullback():
    got = toric_pullback(parse(PSI_TOR), Q_SIGMA)
    return got.agrees_with(parse(PSI_SIGMA)), "x1 = v1 v2, x2 = v2 chart"


def _case_ess_sigma():
    seq = essential_of_series(parse(PSI_SIGMA))
    want = ((F(0), F(1, 4)), (F(3, 2), F(3, 2)))
    return seq.entries == want and seq.complete, f"ess = {fmt_entries(seq.entries)}"


def _case_ess_composed():
    order = AdditiveOrder.lex(2).compose(Q_SIGMA)
    seq = essential_exponents(
        parse(PSI_TOR).support(), Lattice.standard(2), order, (2, 4)
    )
    want = ((F(0), F(1, 4)), (F(3, 2), F(0)))
    return seq.entries == want, f"ess under the chart order = {fmt_entries(seq.entries)}"


def _case_qo_yes():
    verdict = qo_test(parse(PSI_SIGMA))
    want = ((F(0), F(1, 4)), (F(3, 2), F(3, 2)))
    ok = verdict.is_qo is True and verdict.char_exponents == want and verdict.certified
    return ok, "quasi-ordinary with characteristic ((0,1/4), (3/2,3/2))"


def _case_qo_no():
    verdict = qo_test(parse("x1^(3/2) + x2^(5/2)"))
    ok = verdict.is_qo is False and verdict.witness is not None
    ok = ok and verdict.witness.condition == "comparability"
    return ok, "incomparable candidates witness the failure"


def _case_chart_relation():
    report = verify_qsigma_relation(parse(PSI_TOR), Q_SIGMA)
    return report.all_passed, "chart image of the essential sequence matches"


CASES = [
    ("irreducible elements", _case_irreducible),
    ("semigroup membership", _case_semigroup),
    ("essential sequences, integer set", _case_essential_integer),
    ("essential sequence, rational set", _case_essential_rational),
    ("characteristic exponents", _case_characteristic),
    ("power coefficient identity", _case_power_identity),
    ("dual coefficient identity", _case_dual_identity),
    ("plane branch extraction", _case_extract_plane),
    ("plane branch inversion", _case_invert_plane),
    ("Lagrange coefficient formula", _case_lagrange_plane),
    ("multivariate extraction", _case_extract_multivariate),
    ("multivariate inversion", _case_invert_multivariate),
    ("toric pullback", _case_toric_pullback),
    ("essential exponents of the pullback", _case_ess_sigma),
    ("essential exponents under the chart order", _case_ess_composed),
    ("quasi-ordinary verdict", _case_qo_yes),
    ("non-quasi-ordinary witness", _case_qo_no),
    ("chart relation", _case_chart_relation),
]


def run_corpus() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CASES:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
