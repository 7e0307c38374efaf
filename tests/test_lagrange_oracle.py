"""The sparse Lagrange oracle, which reads C = unit^m1/a~^m1 - 1 off eta's
terms and expands (1 + C)^(-q/m1) from one table of powers of C, against
the earlier product loop kept in oracles.py (one variable) and against the
pipeline's xi (every h).

Every comparison is exact.
"""

import random
from fractions import Fraction as F

import pytest

import puiseux.core
import puiseux.duality
import puiseux.inversion
import puiseux.series
from builders import random_dominating
from oracles import lagrange_coefficient_products
from puiseux import (
    INF,
    BranchData,
    PrecisionError,
    PuiseuxError,
    PuiseuxSeries,
    extract_branch,
    invert_branch,
    invert_series,
    lagrange_coefficient,
    lagrange_series,
    parse,
)


def unit_built(data):
    """The same branch given by its unit part rather than by unit^m1."""
    return BranchData(data.series, data.exponent_m, data.root_coeff, data.ramification)


# (eta, root_coeff, target): two, three and four terms, n1 = 1 and n1 > 1,
# the root -2 of an even power and the non-integral roots 1/2 and 3/2
PLANE_CASES = [
    ("x^(3/2) + 2*x^(7/4)", None, 6),
    ("x^(3/2) + 2*x^(7/4) - 3*x^(2)", None, 6),
    ("x^(5/3) + x^(2) + x^(7/3) - 2*x^(8/3)", None, 5),
    ("x^(2) - x^(3)", None, 12),
    ("4*x^(2) + x^(3)", -2, 12),
    ("4*x^(2) + x^(3) - 1/2*x^(5)", 2, 10),
    ("1/16*x^(4/3) + x^(5/3) - 3*x^(2)", F(1, 2), 6),
    ("9/4*x^(2/5) + 1/3*x^(3/5) + x^(4/5) - x^(6/5)", F(3, 2), 12),
]


@pytest.mark.parametrize("text, root, target", PLANE_CASES)
def test_sparse_oracle_agrees_with_the_product_loop(text, root, target):
    eta = parse(text, precision=INF)
    result = invert_series(eta, target, root_coeff=root)
    data = result.branch
    n1, N = data.ramification[0], data.power.precision
    from_unit = unit_built(data)
    for q in range(n1, n1 + int(N) + 1):
        want = lagrange_coefficient_products(data, q)
        assert lagrange_coefficient(data, q) == want, q
        assert lagrange_coefficient(from_unit, q) == want, q
        assert result.xi.coefficient((F(q, data.exponent_m),)) == want, q
    assert lagrange_series(data) == result.xi
    assert lagrange_series(from_unit) == result.xi


def test_plane_cases_cover_the_required_shapes():
    roots, terms, n1s = set(), set(), set()
    for text, root, target in PLANE_CASES:
        eta = parse(text, precision=INF)
        data = extract_branch(eta, root, unit_precision=4)
        roots.add(data.root_coeff)
        terms.add(len(eta.terms))
        n1s.add(data.ramification[0])
    assert {2, 3, 4} <= terms
    assert n1s - {1} and 1 in n1s
    assert F(-2) in roots and {F(1, 2), F(3, 2)} <= roots


@pytest.mark.parametrize("h, seed", [(2, 501), (3, 502)])
def test_sparse_oracle_gives_every_coefficient_in_several_variables(h, seed):
    rng = random.Random(seed)
    seen_m, seen_n1 = set(), set()
    for _ in range(12):
        m1 = rng.randrange(1, 6)
        eta, root = random_dominating(rng, h, m1, (1, 2, 3))
        target = F(max(1, 8 // m1))
        result = invert_series(eta, target, root_coeff=root)
        assert lagrange_series(result.branch) == result.xi
        assert lagrange_series(unit_built(result.branch)) == result.xi
        seen_m.add(result.m1)
        seen_n1.add(result.n1)
    assert len(seen_m) >= 3 and seen_n1 - {1}


def test_the_oracle_matches_invert_branch_at_every_target():
    # m1 = 6, n1 = 4: a target T needs the unit precision max(0, 6 T - 4)
    eta = parse("x^(3/2) + 2*x^(7/4) - x^(2)", precision=INF)
    data = extract_branch(eta, unit_precision=40)
    for target in (F(1, 2), F(1), F(3), F(22, 3)):
        cut = extract_branch(eta, unit_precision=max(F(0), 6 * target - 4))
        xi = invert_branch(data, target).xi
        assert lagrange_series(cut) == xi == invert_branch(cut).xi
        assert lagrange_series(unit_built(cut)) == xi


def test_the_oracle_does_not_use_the_power_kernel(monkeypatch):
    cases = [invert_series(parse(text, precision=INF), target, root_coeff=root)
             for text, root, target in PLANE_CASES[:5]]
    rng = random.Random(503)
    for h in (2, 3):
        eta, root = random_dominating(rng, h, 3, (1, 2))
        cases.append(invert_series(eta, 2, root_coeff=root))
    branches = [(result, unit_built(result.branch)) for result in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the Lagrange oracle reached the power kernel")

    # the kernel under both names it is called by
    for owner, name in ((puiseux.series, "_key_walk"), (puiseux.duality, "_key_walk"),
                        (PuiseuxSeries, "pow_int"), (PuiseuxSeries, "unit_root"),
                        (PuiseuxSeries, "__mul__")):
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(puiseux.inversion, "_dual_from_power", refuse)
    for result, from_unit in branches:
        assert lagrange_series(result.branch) == result.xi
        assert lagrange_series(from_unit) == result.xi
        if result.xi.num_vars == 1:
            q = result.n1 + 3
            want = result.xi.coefficient((F(q, result.m1),))
            assert lagrange_coefficient(from_unit, q) == want


def test_the_oracle_table_is_bounded(monkeypatch):
    data = extract_branch(parse("x^(3/2) + 2*x^(7/4) - x^(2)", precision=INF), unit_precision=40)
    # 41 table rows charged before the first, then each row its keys times
    # the two terms of C: the table passes 2000 units, one coefficient does not
    want = lagrange_coefficient_products(data, 10)
    monkeypatch.setattr(puiseux.core, "MAX_WORK", 2000)
    message = r"^the Lagrange oracle charges \d+ units of work, past the limit of 2000$"
    with pytest.raises(PuiseuxError, match=message):
        lagrange_series(data)
    assert lagrange_coefficient(data, 10) == want


def test_the_oracle_checks_its_input():
    data = extract_branch(parse("x^(3/2) + 2*x^(7/4)", precision=INF), unit_precision=8)
    with pytest.raises(PuiseuxError, match="must be at least n = 4"):
        lagrange_coefficient(data, 3)
    with pytest.raises(PrecisionError, match="N = 9, it supports only 8"):
        lagrange_coefficient(data, 13)
    # a unit part whose m1-th power does not start with root_coeff^m1
    unit = PuiseuxSeries(1, {(F(0),): F(2), (F(1),): F(1)}, F(6))
    with pytest.raises(PuiseuxError, match="constant term 4, not root_coeff\\^m1 = 9"):
        lagrange_coefficient(BranchData(unit, 2, F(3), (1,)), 3)
    with pytest.raises(PuiseuxError, match="nonzero root_coeff"):
        lagrange_coefficient(BranchData(unit, 2, F(0), (1,)), 3)
    fractional = PuiseuxSeries(1, {(F(0),): F(1), (F(1, 2),): F(1)}, F(6))
    with pytest.raises(PuiseuxError, match="integral exponents"):
        lagrange_coefficient(BranchData(fractional, 2, F(1), (1,)), 3)
    h2 = extract_branch(parse("x1^(3/2) + x1^(2)*x2", precision=INF), unit_precision=4)
    with pytest.raises(PuiseuxError, match="one-variable"):
        lagrange_coefficient(h2, 4)


def test_lagrange_coefficient_shares_the_precision_gate():
    # lagrange_coefficient(data, q) works at N = q - n1, the N of
    # invert_branch(data, q/m1): the same "too short", and no limit on N
    # beyond the work each walk charges
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
    deep = extract_branch(eta, unit_precision=600)
    assert lagrange_coefficient(deep, 600) == invert_branch(deep, 100).xi.coefficient((F(100),))
    data = extract_branch(eta, unit_precision=8)
    for branch in (data, unit_built(data)):
        with pytest.raises(PrecisionError) as coefficient:
            lagrange_coefficient(branch, 13)
        with pytest.raises(PrecisionError) as inversion:
            invert_branch(branch, F(13, 6))
        assert type(coefficient.value) is type(inversion.value)
        assert str(coefficient.value) == str(inversion.value)
    assert lagrange_coefficient(data, 12) == invert_branch(data, 2).xi.coefficient((F(2),))
