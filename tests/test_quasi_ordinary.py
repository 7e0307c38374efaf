import random
import warnings
from fractions import Fraction as F

import pytest

from builders import random_exponent, random_unimodular, random_unit_series
from oracles import qo_test_lattices, recheck_witness
from puiseux import (
    LipmanWitness,
    PuiseuxError,
    PuiseuxSeries,
    parse,
    qo_test,
    toric_pullback,
    verify_qsigma_relation,
)

PSI = "x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)"
PSI_SIGMA = "v1^(3/2)*v2^(3/2) + v2^(1/4) + v1^(7/2)*v2^(6)"
Q_SIGMA = [[1, 1], [0, 1]]


def test_pullback_blowup_chart():
    got = toric_pullback(parse(PSI), Q_SIGMA)
    assert got.agrees_with(parse(PSI_SIGMA))


def test_pullback_identity():
    psi = parse(PSI)
    assert toric_pullback(psi, [[1, 0], [0, 1]]).agrees_with(psi)


def test_pullback_warns_on_irregular_cone():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        toric_pullback(parse("x1 + x2"), [[2, 0], [0, 1]])
    assert any("regular" in str(w.message) for w in caught)


def test_pullback_rejects_bad_matrices():
    with pytest.raises(Exception):
        toric_pullback(parse(PSI), [[1, 1], [1, 1]])  # singular
    with pytest.raises(Exception):
        toric_pullback(parse(PSI), [[1, -1], [0, 1]])  # negative entry


def test_qo_yes_with_certificate():
    verdict = qo_test(parse(PSI_SIGMA))
    assert verdict.is_qo is True
    assert verdict.certified
    assert verdict.char_exponents == ((F(0), F(1, 4)), (F(3, 2), F(3, 2)))


def test_qo_no_with_comparability_witness():
    verdict = qo_test(parse("x1^(3/2) + x2^(5/2)"))
    assert verdict.is_qo is False
    assert verdict.witness.condition == "comparability"
    assert set(verdict.witness.elements) == {(F(0), F(5, 2)), (F(3, 2), F(0))}
    # re-checking the failed condition reproduces the failure
    assert not recheck_witness(verdict.witness, verdict.essential.entries)


def test_qo_membership_witness():
    # candidates are comparable but a support element escapes the graded group:
    # (1/2, 0) sits below (1/2, 1/2) only via the full lattice, not the graded one
    psi = PuiseuxSeries(
        2,
        {(F(1, 2), F(1, 2)): F(1), (F(3, 2), F(0)): F(1), (F(2), F(1, 2)): F(1)},
        F(10),
    )
    verdict = qo_test(psi)
    if verdict.is_qo is False:
        assert not recheck_witness(verdict.witness, verdict.essential.entries)
    # the one candidate (2, 5/6) is not below the support element (3, 1/3),
    # so that element must lie in Z^2 alone, and it does not
    verdict = qo_test(parse("x1^(2)*x2^(5/6) + x1^(3)*x2^(1/3)"))
    assert (verdict.is_qo, verdict.certified) == (False, True)
    assert verdict.witness == LipmanWitness("membership", ((F(3), F(1, 3)),))
    assert verdict.witness.describe() == \
        "support element (3, 1/3) escapes the group of the candidates below it"
    assert recheck_witness(verdict.witness, verdict.essential.entries) is False


def test_qo_integral_support():
    verdict = qo_test(parse("x1^(2) + x1*x2"))
    assert verdict.is_qo is True
    assert verdict.char_exponents == ()


def test_qo_one_variable_is_quasi_ordinary():
    verdict = qo_test(parse("x^(3/2) + x^(7/4)"))
    assert verdict.is_qo is True
    assert verdict.char_exponents == ((F(3, 2),), (F(7, 4),))


def test_qo_unknown_when_uncertified():
    # ramification (4, 2) but the joined lattice misses (1/4, 0)
    psi = PuiseuxSeries(2, {(F(1, 4), F(1, 2)): F(1)}, F(10))
    verdict = qo_test(psi)
    assert verdict.is_qo is None
    assert not verdict.certified


def test_qsigma_relation_paper_chart():
    report = verify_qsigma_relation(parse(PSI), Q_SIGMA)
    assert report.all_passed


def test_qsigma_relation_identity():
    report = verify_qsigma_relation(parse(PSI), [[1, 0], [0, 1]])
    assert report.all_passed


def test_qsigma_relation_random_unimodular():
    from puiseux import INF

    rng = random.Random(73)
    for _ in range(12):
        q = random_unimodular(rng, 2)
        psi = random_unit_series(rng, 2, INF, max_terms=4, denoms=(1, 2, 4))
        report = verify_qsigma_relation(psi, q)
        assert report.all_passed, (q, psi)


def test_qsigma_relation_guards_precision():
    psi = PuiseuxSeries(2, {(F(0), F(0)): F(3), (F(4), F(3, 2)): F(3, 2)}, F(6))
    with pytest.raises(Exception) as err:
        verify_qsigma_relation(psi, [[1, 2], [0, 1]])
    assert "precision" in str(err.value)


def test_qsigma_rejects_non_unimodular():
    with pytest.raises(Exception):
        verify_qsigma_relation(parse(PSI), [[2, 0], [0, 1]])


NOT_UNIMODULAR = "the chart relation needs a unimodular integer matrix"
# (chart on the h = 2 series PSI, toric_pullback's refusal or None, then
# verify_qsigma_relation's refusal)
BAD_CHARTS = [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "chart matrix dimension does not match the series",
     "chart matrix dimension does not match the series"),
    ([[1, 0, 0], [0, 1, 0]], "chart matrix dimension does not match the series",
     "chart matrix dimension does not match the series"),
    ([[F(1, 2), 0], [0, 2]], "chart matrix must have non-negative integer entries",
     "chart matrix must have non-negative integer entries"),
    ([[1, -1], [0, 1]], "chart matrix must have non-negative integer entries",
     "chart matrix must have non-negative integer entries"),
    ([[1, 1], [1, 1]], "chart matrix must be invertible", NOT_UNIMODULAR),
    ([[2, 0], [0, 1]], None, NOT_UNIMODULAR),
]


@pytest.mark.parametrize("q, pullback, relation", BAD_CHARTS, ids=range(len(BAD_CHARTS)))
def test_chart_refusals_are_named(q, pullback, relation):
    psi = parse(PSI)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if pullback is None:
            toric_pullback(psi, q)
        else:
            with pytest.raises(PuiseuxError) as err:
                toric_pullback(psi, q)
            assert str(err.value) == pullback
    if pullback is None:
        # |det| != 1 is only a warning for the pullback
        assert [str(w.message) for w in caught] == [
            "chart matrix determinant 2 is not +-1; the cone is not regular"
        ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PuiseuxError) as err:
            verify_qsigma_relation(psi, q)
    assert str(err.value) == relation


def test_qo_candidates_are_order_independent():
    # a certified QO verdict names the same characteristic exponents no
    # matter which accepted dominating order produced the essential sequence
    from puiseux import AdditiveOrder
    from puiseux.exponents import drop_integral_head, essential_of_series

    psi = parse(PSI_SIGMA)
    verdict = qo_test(psi)
    assert verdict.is_qo is True and verdict.certified
    for order in (
        AdditiveOrder.lex(2),
        AdditiveOrder.weighted((F(1), F(1))),
        AdditiveOrder.weighted((F(3), F(1, 2))),
    ):
        seq = essential_of_series(psi, order=order)
        assert drop_integral_head(seq) == verdict.char_exponents


def test_qo_verdict_json():
    verdict = qo_test(parse("x1^(3/2) + x2^(5/2)"))
    blob = verdict.to_json()
    assert blob["is_qo"] == "no"
    assert blob["witness"]["condition"] == "comparability"
    yes = qo_test(parse(PSI_SIGMA)).to_json()
    assert yes["is_qo"] == "yes" and yes["certified"]


@pytest.mark.parametrize("h", [2, 3])
def test_qo_test_agrees_with_the_lattice_chain(h):
    # the Lipman test walks the keys against integer echelon rows; the
    # earlier chain of Lattice joins must give the same verdict, witness
    # and candidates
    rng = random.Random(211 + h)
    seen = set()
    for _ in range(150):
        terms = {random_exponent(rng, h, (1, 2, 3, 4), max_num=7): F(rng.choice((-2, 1, 3)))
                 for _ in range(rng.randrange(1, 6))}
        if rng.random() < 0.3:  # an integral exponent, the head when lex-least
            terms[tuple(F(int(i == 0)) for i in range(h))] = F(1)
        psi = PuiseuxSeries(h, terms, F(rng.randrange(3, 12)))
        if psi.is_zero():
            continue
        got = qo_test(psi)
        assert got == qo_test_lattices(psi), psi
        if got.is_qo is False:
            seen.add(got.witness.condition)
        else:
            seen.add("yes" if got.is_qo else "unknown")
        head = got.essential.entries[0]
        if all(c.denominator == 1 for c in head) and len(got.essential.entries) > 1:
            seen.add("integral head")
    assert seen == {"yes", "comparability", "membership", "unknown", "integral head"}
