"""The recurrence-based unit_power, pow_int and dual against the earlier
product-based algorithms kept in oracles.py.

Every comparison is exact: the same terms, precision, Laurent flag and
ramification.
"""

import random
from fractions import Fraction as F

import pytest

from builders import NONZERO, perfect_power_unit, random_exponent, random_unit_series
from oracles import dual_tower_heap, pow_int_products, unit_power_binomial
from puiseux import INF, PrecisionError, PuiseuxError, PuiseuxSeries, dual, parse

EXPONENTS = [F(-3), F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2), F(5, 2), F(3)]


def same(got, want):
    assert got == want
    assert got.ramification == want.ramification


def check_all(s, powers=range(-3, 5), rs=EXPONENTS, with_dual=True):
    for r in rs:
        same(s.unit_power(r, constant_power=F(7, 3)),
             unit_power_binomial(s, r, constant_power=F(7, 3)))
    for n in powers:
        same(s.pow_int(n), pow_int_products(s, n))
    if with_dual:
        same(dual(s), dual_tower_heap(s))


def test_one_variable_integer_grid():
    rng = random.Random(101)
    for _ in range(12):
        s = random_unit_series(rng, 1, F(rng.randrange(3, 9)), max_terms=6)
        check_all(s)


def test_fractional_first_variable():
    rng = random.Random(102)
    seen = set()
    for _ in range(12):
        s = perfect_power_unit(rng, 1, F(rng.randrange(2, 6)), denoms=(1, 2, 3))
        seen.add(s.ramification[0])
        check_all(s, powers=range(-2, 4))
    assert seen - {1}


@pytest.mark.parametrize("h", [2, 3])
def test_several_variables(h):
    rng = random.Random(103 + h)
    for _ in range(6):
        s = perfect_power_unit(rng, h, F(rng.randrange(2, 5)), denoms=(1, 2))
        check_all(s, powers=range(-2, 4), rs=[F(-2), F(-1, 2), F(1, 2), F(3)])


def test_exact_polynomials_to_non_negative_powers():
    rng = random.Random(104)
    for _ in range(10):
        h = rng.choice([1, 2, 3])
        s = random_unit_series(rng, h, INF, max_terms=4, denoms=(1, 2))
        for n in range(0, 5):
            same(s.unit_power(n), unit_power_binomial(s, n))
            same(s.pow_int(n), pow_int_products(s, n))
        with pytest.raises(PrecisionError):
            s.unit_power(F(1, 2), constant_power=1)
    poly = parse("1 + t", precision=INF)
    assert poly.pow_int(3).precision is INF
    assert max(e[0] for e in poly.pow_int(3).terms) == 3


def test_negative_powers_and_laurent_path():
    rng = random.Random(105)
    for _ in range(12):
        # zero constant term: the dominating monomial is factored out
        terms = {(F(rng.randrange(1, 4), rng.choice((1, 2))),): rng.choice(NONZERO)}
        for _ in range(rng.randrange(0, 4)):
            terms[random_exponent(rng, 1, (1, 2), max_num=8)] = rng.choice(NONZERO)
        s = PuiseuxSeries(1, terms, F(rng.randrange(4, 9)))
        for n in range(-4, 4):
            same(s.pow_int(n), pow_int_products(s, n))
    meromorphic = parse("t + t^(2)", precision=8).pow_int(-2)
    assert meromorphic.laurent
    for n in range(0, 4):
        same(meromorphic.pow_int(n), pow_int_products(meromorphic, n))
    # a Laurent-flagged unit keeps its flag exactly where the products did
    flagged = PuiseuxSeries(1, {(F(0),): F(2), (F(1),): F(1)}, F(5), laurent=True)
    check_all(flagged, powers=range(-2, 3), with_dual=False)


def test_laurent_series_below_its_constant_term():
    # the binomial expansion never ended on these inputs: its constant term
    # is not the lowest term
    s = parse("t^(-1) + 1 + t", laurent=True, precision=4)
    with pytest.raises(PuiseuxError):
        s.unit_power(F(1, 2), constant_power=1)
    same(s.pow_int(3), pow_int_products(s, 3))
    # negative powers factor out the dominating monomial instead
    one = PuiseuxSeries.one(1)
    for n in (1, 2, 3):
        assert (s.pow_int(-n) * s.pow_int(n)).agrees_with(one)
    # (t + t^2)^-2, known to total 5, inverts to (t + t^2)^2, known to total 9
    inverse = parse("t + t^(2)", precision=8).pow_int(-2).pow_int(-1)
    want = parse("t^(2) + 2*t^(3) + t^(4)", precision=9)
    assert (inverse.terms, inverse.precision) == (want.terms, want.precision)


def test_constant_series():
    for h in (1, 2, 3):
        for precision in (INF, F(0), F(3)):
            s = PuiseuxSeries.constant(h, F(-8, 27), precision)
            check_all(s, rs=[F(-1), F(0), F(1, 3), F(2)])
            assert dual(s).terms == {(F(0),) * h: F(-27, 8)}
