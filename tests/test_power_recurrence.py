"""The recurrence-based unit_power, pow_int and dual against the earlier
product-based algorithms kept in oracles.py, and the one kernel of the
recurrence, _key_walk, in one variable and in several, against the
earlier capped heap walk, also kept there.

Every comparison is exact: the same terms, precision, Laurent flag and
ramification.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

import puiseux.core
from builders import NONZERO, perfect_power_unit, random_exponent, random_unit_series
from oracles import (
    capped_heap_run,
    dual_from_power_reference,
    dual_tower_heap,
    pow_int_products,
    unit_power_binomial,
)
from puiseux import (
    INF,
    PrecisionError,
    PuiseuxError,
    PuiseuxSeries,
    RootError,
    dual,
    extract_branch,
    invert_series,
    parse,
)
from puiseux.core import MAX_WORK, STEP, rational_root
from puiseux.duality import _dual_from_power
from puiseux.inversion import BranchData, invert_branch
from puiseux.series import _key_walk

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


def run(s, p, q):
    """The coefficients of (s/s_0)**(p/q) by grid key, without zeros, from
    the kernel's one run of step 0."""
    return {g: F(num, common) for g, num, common in _key_walk(s, p, q, 0) if num}


def step_unit(s):
    """u, the gcd of the step degrees of a one-variable series."""
    return math.gcd(*(g[0] for g in s._keys)) or 1


def step_den(s):
    """den, the lcm of the denominators of the ratios s_j/s_0."""
    c0 = s.constant_term()
    return math.lcm(*((c / c0).denominator for c in s._keys.values()))


def embedded(s):
    """s in two variables with a zero second exponent: the same degrees,
    walked over keys."""
    return PuiseuxSeries(2, {e + (F(0),): c for e, c in s.terms.items()}, s.precision)


def same_runs(s, r, cap=None):
    """The run of s, the run of s embedded in two variables and the heap run
    of s embedded agree exactly; with cap, the capped heap run keeps the
    run's keys at first coordinate cap."""
    dense = run(s, r.numerator, r.denominator)
    walk = run(embedded(s), r.numerator, r.denominator)
    assert dense == {g[:1]: c for g, c in walk.items()}
    assert all(g[1] == 0 for g in walk)
    heap = capped_heap_run(embedded(s), r, cap)
    assert all(g[1] == 0 for g in heap)
    if cap is None:
        assert heap == walk
        return dense
    capped = {g[:1]: c for g, c in heap.items()}
    assert capped == {g: c for g, c in dense.items() if g[0] == cap}
    return capped


DENSE_RS = [F(-3), F(-1), F(-5, 3), F(-1, 2), F(0), F(1, 2), F(2, 3), F(1), F(2), F(3)]


def random_one_variable(rng, precision):
    """A unit with steps on a random grid 1/n1 and a random step unit u, its
    constant term an n1-th power so that its dual stays rational."""
    n1, u = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    terms = {(F(0),): rng.choice(NONZERO) ** n1}
    for _ in range(rng.randrange(1, 5)):
        terms[(F(u * rng.randrange(1, 6), n1),)] = rng.choice(NONZERO)
    return PuiseuxSeries(1, terms, precision)


def test_one_variable_runs_match_the_capped_heap_runs():
    rng = random.Random(106)
    grids, units, dens = set(), set(), set()
    for _ in range(24):
        s = random_one_variable(rng, F(rng.randrange(3, 8)))
        grids.add(s.ramification[0])
        units.add(step_unit(s))
        dens.add(step_den(s))
        # the last degree the precision allows, at or past every run's limit
        top = int(s.precision * s.ramification[0])
        for r in DENSE_RS:
            full = same_runs(s, r)
            # the kernels may pass p/q unreduced
            p, q = r.numerator, r.denominator
            assert list(_key_walk(s, 3 * p, 3 * q, 0)) == list(_key_walk(s, p, q, 0))
            # every cap up to two past the precision, each keeping only its own key
            for cap in range(top + 3):
                assert same_runs(s, r, cap) == {g: c for g, c in full.items() if g[0] == cap}
        same(s.unit_power(F(-1, 2), constant_power=F(7, 3)),
             unit_power_binomial(s, F(-1, 2), constant_power=F(7, 3)))
        same(s.pow_int(-2), pow_int_products(s, -2))
        same(dual(s), dual_tower_heap(s))
    assert grids - {1} and units - {1} and dens - {1}


def test_one_variable_dual_loop_matches_the_per_k_reference():
    # psi^a read off phi^m by the one integer loop, against the earlier
    # per-k runs and, for a = 1, the triangular solve
    rng = random.Random(108)
    seen = {"n1": set(), "unit": set(), "den": set(), "r0": set()}
    for _ in range(24):
        n1, u = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        terms = {(F(0),): rng.choice((F(1), F(-2), F(3, 2))) ** n1}
        for _ in range(rng.randrange(1, 4)):
            terms[(F(u * rng.randrange(1, 5), n1),)] = rng.choice(NONZERO)
        phi = PuiseuxSeries(1, terms, F(rng.randrange(3, 7)))
        c0, n1 = phi.constant_term(), phi.ramification[0]
        seen["n1"].add(n1)
        seen["r0"].add(c0 if n1 == 1 else rational_root(c0, n1))
        psi = dual_tower_heap(phi)
        for m in (1, 2, 3, 4):
            power = phi.pow_int(m)
            seen["unit"].add(step_unit(power))
            seen["den"].add(step_den(power))
            for a in (1, 2, 3):
                got = _dual_from_power(power, m, c0, a)
                same(got, dual_from_power_reference(power, m, c0, a))
                if a == 1:
                    same(got, psi)
    assert seen["n1"] - {1} and seen["unit"] - {1} and seen["den"] - {1}
    assert {F(1), F(-2), F(3, 2)} <= seen["r0"]


def test_batched_dual_matches_the_per_k_runs_to_high_precision():
    # every run of the batch against its own capped run, with runs reaching
    # about 40 degrees, steps that skip degrees (the first step rows are
    # still empty at small i), step units u > 1 and r0 in {1, -2, 3/2}
    rng = random.Random(1401)
    seen = {"unit": set(), "first step": set(), "r0": set(), "runs": set()}
    for _ in range(10):
        n1, u = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        r0 = rng.choice((F(1), F(-2), F(3, 2)))
        terms = {(F(0),): r0**n1}
        for s in rng.sample((2, 3, 4, 5, 7), rng.randrange(2, 4)):
            terms[(F(u * s, n1),)] = rng.choice(NONZERO)
        phi = PuiseuxSeries(1, terms, F(rng.randrange(20, 41), n1))
        c0, n1 = phi.constant_term(), phi.ramification[0]
        seen["r0"].add(c0 if n1 == 1 else rational_root(c0, n1))
        for m in (1, 2, 3, 4):
            power = phi.pow_int(m)
            unit = step_unit(power)
            seen["unit"].add(unit)
            seen["first step"].add(min(g[0] for g in power._keys if any(g)) // unit)
            seen["runs"].add(int(power.precision * n1) // unit + 1)
            for a in (1, 2, 3):
                same(_dual_from_power(power, m, c0, a), dual_from_power_reference(power, m, c0, a))
    assert seen["unit"] - {1} and seen["first step"] - {1}
    assert {F(1), F(-2), F(3, 2)} <= seen["r0"]
    assert max(seen["runs"]) >= 35


@pytest.mark.parametrize("text, precision", [("3", 5), ("3", INF), ("3 + t^(2)", 0)])
def test_batched_dual_of_a_single_run(text, precision):
    # a constant-only series and precision 0 give the one run k = 0
    phi = parse(text, precision=precision).truncate(precision)
    for m, a in ((1, 1), (2, 3)):
        power = phi.pow_int(m)
        got = _dual_from_power(power, m, phi.constant_term(), a)
        same(got, dual_from_power_reference(power, m, phi.constant_term(), a))
    assert dual(phi).terms == {(F(0),): F(1, 3)}


def test_batched_dual_refuses_an_irrational_root():
    power = parse("2 + t^(1/2)", precision=4)
    for call in (_dual_from_power, dual_from_power_reference):
        with pytest.raises(RootError, match="2"):
            call(power, 1, F(2), 1)


def random_several_variables(rng, h, precision, r0=F(1)):
    """A unit in h variables whose first coordinates are multiples of u/n1,
    some keys at first coordinate 0, and whose constant term is r0^n1, so
    that its dual stays rational."""
    n1, u = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    dens = rng.choice(((1,), (1, 2)))
    terms = {(F(0),) * h: r0**n1}
    for _ in range(rng.randrange(2, 5)):
        first = F(u * rng.randrange(0, 3), n1)
        rest = tuple(F(rng.randrange(0, 3), rng.choice(dens)) for _ in range(h - 1))
        if first or any(rest):
            terms[(first, *rest)] = rng.choice(NONZERO)
    return PuiseuxSeries(h, terms, precision)


# sparse polynomials whose step degrees (5 and 7; 4, 6 and 9; 6 and 9) leave
# most multiples of their step unit unreached by their powers
SPARSE = {
    2: ["1 + t1^(3)*t2^(2) - 2*t2^(7)", "2 + 3*t1^(4) + t1^(2)*t2^(4) - t1^(6)*t2^(3)"],
    3: ["1 + t1^(3)*t3^(2) - 2*t2^(7)", "2 + t1^(2)*t2^(2)*t3^(2) - 3*t1^(3)*t3^(6)"],
}


@pytest.mark.parametrize("h, top", [(2, 12), (3, 7)])
def test_key_walk_dual_matches_the_capped_heap_runs(h, top):
    # psi^a read off phi^m by the one key walk, against one capped heap run
    # per first coordinate k
    rng = random.Random(1600 + h)
    seen = {"step": set(), "first 0": False, "r0": set(), "precision": set()}
    for i, precision in enumerate([top] + [rng.randrange(1, top) for _ in range(8)]):
        phi = random_several_variables(rng, h, F(precision), (F(1), F(-2), F(3, 2))[i % 3])
        c0, n1 = phi.constant_term(), phi.ramification[0]
        seen["r0"].add(c0 if n1 == 1 else rational_root(c0, n1))
        seen["precision"].add(phi.precision)
        for m in (1, 2, 3, 4):
            power = phi.pow_int(m)
            seen["step"].add(math.gcd(*(g[0] for g in power._keys)))
            seen["first 0"] |= any(g[0] == 0 and any(g) for g in power._keys)
            for a in (1, 2, 3):
                same(_dual_from_power(power, m, c0, a), dual_from_power_reference(power, m, c0, a))
    for text in SPARSE[h]:
        phi = parse(text, num_vars=h, precision=top)
        for m, a in ((1, 1), (2, 1), (3, 2)):
            # the power by products, so that it does not share the walk's faults
            power = pow_int_products(phi, m)
            same(_dual_from_power(power, m, phi.constant_term(), a),
                 dual_from_power_reference(power, m, phi.constant_term(), a))
    assert max(seen["step"]) > 1 and seen["first 0"] and top in seen["precision"]
    assert {F(1), F(-2), F(3, 2)} <= seen["r0"]


@pytest.mark.parametrize("h", [2, 3])
def test_key_walk_powers_match_the_product_references(h):
    rng = random.Random(1610 + h)
    for _ in range(6):
        s = random_several_variables(rng, h, F(rng.randrange(1, 6)), rng.choice(NONZERO))
        for r in (F(-2), F(-1, 2), F(1, 3), F(2)):
            same(s.unit_power(r, constant_power=F(7, 3)),
                 unit_power_binomial(s, r, constant_power=F(7, 3)))
        for n in range(-3, 4):
            same(s.pow_int(n), pow_int_products(s, n))
    for text in SPARSE[h]:
        s = parse(text, num_vars=h, precision=INF)
        for n in range(5):
            same(s.pow_int(n), pow_int_products(s, n))
            same(s.unit_power(n), unit_power_binomial(s, n))
            assert run(s, n, 1) == capped_heap_run(s, F(n))
    # (1 + t1...th)^2 to the 1/2 is 1 + t1...th: its rows end at degree h,
    # well inside the precision, and the walk ends once the longest step, 2h,
    # is past them
    monomial = "*".join(f"t{i + 1}" for i in range(h))
    square = "*".join(f"t{i + 1}^(2)" for i in range(h))
    for precision in (6, 12):
        s = parse(f"1 + 2*{monomial} + {square}", num_vars=h, precision=precision)
        root = s.unit_power(F(1, 2), constant_power=1)
        same(root, unit_power_binomial(s, F(1, 2), constant_power=1))
        assert root.terms == {(F(0),) * h: 1, (F(1),) * h: 1}


def random_power_base(rng, h, precision, least, laurent=False):
    """Two to four terms in h variables on the grid 1/2, where the least
    exponent, coordinate by coordinate, is a term exactly when least; a
    Laurent series reaches below zero."""
    while True:
        low = F(-rng.randrange(1, 4), rng.choice((1, 2))) if laurent else F(0)
        # a third of them start from the term x1^low
        terms = {(low,) + (F(0),) * (h - 1): F(3, 2)} if rng.randrange(3) == 0 else {}
        for _ in range(rng.randrange(2, 5)):
            exp = random_exponent(rng, h, (1, 2), max_num=3)
            terms[(exp[0] + low, *exp[1:])] = rng.choice(NONZERO)
        s = PuiseuxSeries(h, terms, precision, laurent)
        support = s.support()
        least_exp = tuple(map(min, zip(*support)))
        if support and (least_exp in support) == least and (least_exp[0] < 0) == laurent:
            return s


@pytest.mark.parametrize("h", [1, 2, 3])
def test_every_integer_power_matches_the_products(h):
    # one rule in every dimension: a series whose least exponent is a term
    # runs the kernel on its unit part, any other has positive powers only,
    # n - 1 products; the result, its grid and its precision are those of
    # the products wherever the power is defined
    rng = random.Random(1630 + h)
    names, seen = ["x1", "x2", "x3"], set()
    for i in range(24):
        precision = INF if i % 4 == 0 else F(rng.randrange(2, 7), rng.choice((1, 2)))
        least = h == 1 or i % 3 != 0
        laurent = h == 1 and i % 3 == 0
        s = random_power_base(rng, h, precision, least, laurent)
        for n in range(-3, 7):
            try:
                want = pow_int_products(s, n)
            except PuiseuxError as err:
                # an exact non-monomial to a negative power, or h > 1
                # without a constant term
                with pytest.raises(type(err)):
                    s.pow_int(n)
                continue
            same(s.pow_int(n), want)
            seen.add((least, precision is INF, n < 0, s.constant_term() != 0))
    # (least term, exact, n < 0, constant term)
    assert {(True, False, True, True), (True, False, False, False)} <= seen
    assert any(least and exact for least, exact, _, _ in seen)
    if h == 1:
        assert (True, False, True, False) in seen
    else:
        assert {(False, False, False, False), (False, True, False, False)} <= seen
        # with or without a least term
        refusal = "^negative power needs a nonzero constant term when h > 1$"
        for text in (" + ".join(names[:h]), f"{names[0]} + {'*'.join(names[:h])}"):
            with pytest.raises(PuiseuxError, match=refusal):
                parse(text, precision=3).pow_int(-1)
    with pytest.raises(PuiseuxError, match="^negative power of the zero series$"):
        PuiseuxSeries.zero(h, F(3, 2)).pow_int(-2)


@pytest.mark.parametrize("h", [2, 3])
def test_powers_without_a_constant_term_match_the_products(h):
    # positive powers of a series without a constant term in h > 1
    # variables, through the unit part when the least exponent is a term and
    # n - 1 products otherwise: results and precisions are those of the
    # products, truncated or exact, zero or not
    rng = random.Random(1620 + h)
    for i in range(8):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exp = random_exponent(rng, h, (1, 2), max_num=3)
            if any(exp):
                terms[exp] = rng.choice(NONZERO)
        precision = INF if i % 4 == 0 else F(rng.randrange(1, 9), rng.choice((1, 2)))
        s = PuiseuxSeries(h, terms, precision)
        for n in range(1, 10 if precision is not INF else 5):
            same(s.pow_int(n), pow_int_products(s, n))
        with pytest.raises(PuiseuxError, match="^negative power"):
            s.pow_int(-1)
    zero = PuiseuxSeries.zero(h, F(3, 2))
    for n in (1, 2, 5):
        same(zero.pow_int(n), pow_int_products(zero, n))


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("text, precision", [("3", 5), ("3", INF), ("3 + t1*t2", 0)])
def test_key_walk_dual_of_a_single_run(h, text, precision):
    # a constant-only power and precision 0 give the one run k = 0
    phi = parse(text, num_vars=h, precision=precision).truncate(precision)
    for m, a in ((1, 1), (2, 3)):
        power = phi.pow_int(m)
        got = _dual_from_power(power, m, phi.constant_term(), a)
        same(got, dual_from_power_reference(power, m, phi.constant_term(), a))
    assert dual(phi).terms == {(F(0),) * h: F(1, 3)}


@pytest.mark.parametrize(
    "phi, error",
    [
        # first denominator 2 and constant term 2: no rational square root
        (PuiseuxSeries(2, {(F(0), F(0)): F(2), (F(1, 2), F(1)): F(1)}, F(4)), RootError),
        (parse("t^(-1) + 1 + t", laurent=True, precision=4), PuiseuxError),
        (parse("1 + t1*t2", num_vars=2, precision=INF), PrecisionError),
    ],
)
def test_key_walk_dual_refuses_as_the_reference_does(phi, error):
    c0 = phi.constant_term()
    for call in (_dual_from_power, dual_from_power_reference):
        with pytest.raises(error) as refusal:
            call(phi, 1, c0, 1)
        assert type(refusal.value) is error


def test_h3_inversion_at_n_500_is_quick():
    # a multi-variable dual is one walk over the keys, not one capped walk
    # per first coordinate: 9-12 s before, under a second here
    eta = parse("x1^(3/2) + 2*x1^(7/4)*x2^(1/2) - 3*x1^(2)*x2^(1/3)*x3^(1/2)", precision=INF)
    start = time.perf_counter()
    result = invert_series(eta, 84)
    assert time.perf_counter() - start < 5
    assert result.checks.all_passed


def test_dual_of_the_dense_anchor_unit_keeps_its_integers_reduced():
    # the unit part of x^(3/2) + 2*x^(7/4) at N = 116 has 117 terms; runs
    # over a fixed scaling such as i!*(q*den)^i instead of one reduced
    # denominator take minutes here
    unit = extract_branch(parse("x^(3/2) + 2*x^(7/4)", precision=INF), unit_precision=116).series
    assert len(unit.terms) == 117
    start = time.perf_counter()
    psi = dual(unit)
    assert time.perf_counter() - start < 2
    assert len(psi.terms) == 117


def test_dense_run_of_exact_polynomials_ends_at_r_max_t():
    rng = random.Random(107)
    for _ in range(12):
        s = random_one_variable(rng, INF)
        max_t = max(g[0] for g in s._keys)
        for n in range(5):
            power = same_runs(s, F(n))
            assert max(power) == (n * max_t,)
            same(s.unit_power(n), unit_power_binomial(s, n))


def test_dense_run_with_a_step_unit_and_vanishing_coefficients():
    # the step degrees of 1 + t^2 + t^6 are multiples of u = 2
    s = parse("1 + t^(2) + t^(6)", precision=20)
    assert step_unit(s) == 2
    for r in DENSE_RS:
        same_runs(s, r)
        same_runs(s, r, cap=7)
        same(s.unit_power(r, constant_power=1), unit_power_binomial(s, r, constant_power=1))
    # 1/(1 + t + t^2) = (1 - t)/(1 - t^3) vanishes at every degree 2 mod 3
    inverse = same_runs(parse("1 + t + t^(2)", precision=12), F(-1))
    assert inverse == {(k,): F((-1) ** (k % 3)) for k in range(13) if k % 3 != 2}
    assert same_runs(parse("1 + t + t^(2)", precision=12), F(-1), cap=8) == {}
    # (1 + t)^2 to the 1/2 ends at degree 1, well inside the precision
    assert same_runs(parse("1 + 2*t + t^(2)", precision=9), F(1, 2)) == {(0,): 1, (1,): 1}


def test_long_one_variable_run_keeps_its_integers_reduced():
    # (1 + t)^-1 = sum (-1)^k t^k; numerators over a fixed denominator would
    # grow by log(k) bits a degree
    start = time.perf_counter()
    inverse = parse("1+t", precision=20000).pow_int(-1)
    assert time.perf_counter() - start < 1
    assert inverse.terms == {(F(k),): F((-1) ** k) for k in range(20001)}


def test_powers_of_a_series_without_a_constant_term_factor_out_its_lowest_term():
    # (x + x^2)^n is x^n (1 + x)^n: a run of ten degrees for any n, not
    # n - 1 products
    s = parse("x + x^(2)", precision=10)
    same(s.pow_int(50), pow_int_products(s, 50))
    start = time.perf_counter()
    power = s.pow_int(10**5)
    assert time.perf_counter() - start < 1
    assert power.precision == 10 + (10**5 - 1)
    assert power.terms == {(F(10**5 + k),): F(math.comb(10**5, k)) for k in range(10)}


HUGE = 10**9


@pytest.mark.parametrize("text", ["1+t", "1+t1+t2"])
@pytest.mark.parametrize(
    "name, call, terms",
    [
        ("dual", dual, None),
        ("pow_int(-1)", lambda s: s.pow_int(-1), None),
        ("unit_power(1/2)", lambda s: s.unit_power(F(1, 2)), None),
        ("unit_power(-3)", lambda s: s.unit_power(-3), None),
        # a non-negative integer power ends at its own degree
        ("pow_int(3)", lambda s: s.pow_int(3), {"1+t": 4, "1+t1+t2": 10}),
        ("unit_power(2)", lambda s: s.unit_power(2), {"1+t": 3, "1+t1+t2": 6}),
    ],
)
def test_power_answers_or_refuses_at_once_on_a_huge_precision(text, name, call, terms):
    s = parse(text, precision=HUGE)
    start = time.perf_counter()
    if terms is None:
        # the run's degrees, or the dual's rows, are charged before the first
        message = rf"the (dual|power recurrence) charges \d+ units of work, past the limit of {MAX_WORK}"
        with pytest.raises(PuiseuxError, match=message):
            call(s)
    else:
        assert len(call(s).terms) == terms[text]
    assert time.perf_counter() - start < 1, name


def test_the_dual_charges_its_rows_before_its_first_degree(monkeypatch):
    # the dual's rows on the first axis hold runs + (runs - 1) + ... + 1
    # entries, every row in one variable and in two those that the pure
    # first-axis steps reach: past the limit, the dual is refused before its
    # first degree, and below it, each (key, step) pair is charged as the
    # walk goes
    line = {(F(e),): F(1) for e in range(41)}
    plane = {(F(e), F(0)): F(1) for e in range(41)} | {(F(0), F(1)): F(1)}
    # 861 row entries, and STEP for each of the 40 degrees the loop visits
    before = 41 * 42 // 2 + 40 * STEP
    message = rf"^the dual charges {before} units of work, past the limit of {before - 1}$"
    # at degree 1 each step reads the one row of degree 0, one word an
    # entry: its 40 runs still going for the first-axis step, 41 for (0, 1)
    for terms, degree_one, work in [
        (line, [(1,)], 4 * STEP + 40),
        (plane, [(1, 0), (0, 1)], 8 * STEP + 40 + 41),
    ]:
        dense = PuiseuxSeries(len(degree_one[0]), terms, F(40))
        monkeypatch.setattr(puiseux.core, "MAX_WORK", before - 1)
        runs = _key_walk(dense, -1, 1, 1)
        with pytest.raises(PuiseuxError, match=message):
            next(runs)
        monkeypatch.setattr(puiseux.core, "MAX_WORK", before + work)
        runs = _key_walk(dense, -1, 1, 1)
        assert next(runs) == ((0,) * dense.num_vars, 1, 1)
        assert [next(runs)[0] for _ in degree_one] == degree_one
        with pytest.raises(PuiseuxError, match="the dual charges"):
            next(runs)


def test_a_sparse_power_skips_the_zero_levels(monkeypatch):
    # 1/(1 + t + ... + t^40) = (1 - t)/(1 - t^41) is zero at 39 of every 41
    # degrees, which no step reads again
    s = PuiseuxSeries(1, {(F(e),): F(1) for e in range(41)}, F(2000))
    want = {(F(k),): F(1 if k % 41 == 0 else -1) for k in range(2001) if k % 41 < 2}
    monkeypatch.setattr(puiseux.core, "MAX_WORK", 10**6 - 1)
    inverse = s.pow_int(-1)
    assert inverse.terms == want and inverse.precision == 2000
    assert inverse._keys == capped_heap_run(s, F(-1))


def test_inversion_of_a_41_term_eta_at_the_precision_limit():
    # m1 = 1: eta = x^(1/2) + x^(2/2) + ... + x^(41/2), so unit^m1 has 40
    # nonconstant terms, inverted at N = 500, the old limit of N, which the
    # charge of its dual admits
    unit = PuiseuxSeries(1, {(F(e),): F(1) for e in range(41)}, F(500))
    result = invert_branch(BranchData(unit, 1, F(1), (2,)))
    assert len(result.eta.terms) == 41
    assert len(result.xi.terms) == 501
    assert result.checks.all_passed
