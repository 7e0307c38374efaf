import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puiseux.core
from builders import NONZERO, random_exponent
from oracles import (
    add_fractions,
    fraction_series,
    fraction_view,
    mul_fractions,
    monomial_substitute_fractions,
    shift_fractions,
    substitute_constructor,
    truncate_fractions,
)
from puiseux import (
    INF,
    AdditiveOrder,
    ParseError,
    PrecisionError,
    PuiseuxError,
    PuiseuxSeries,
    parse,
)
from puiseux.core import mat_det
from puiseux.series import format_series

# --- parsing ---------------------------------------------------------------


def test_parse_plane_example():
    s = parse("x^(3/2) + 2*x^(7/4)")
    assert s.num_vars == 1
    assert s.ramification == (4,)
    assert s.terms == {(F(3, 2),): F(1), (F(7, 4),): F(2)}
    assert s.precision == 10  # default for unmarked input


def test_parse_constant():
    s = parse("1")
    assert s.terms == {(F(0),): F(1)} and s.ramification == (1,)


def test_parse_multivariate_example():
    s = parse("x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)")
    assert s.num_vars == 2
    assert s.ramification == (2, 4)
    assert len(s.terms) == 3
    assert s.terms[(F(7, 2), F(5, 2))] == 1


def test_parse_signs_and_marker():
    s = parse("-x + 3/2*x^(2) - x^(3) + O(total=5/2)")
    assert s.precision == F(5, 2)
    assert s.terms == {(F(1),): F(-1), (F(2),): F(3, 2)}  # x^3 beyond precision


def test_parse_repeated_factors_multiply():
    s = parse("x^(1/2)*x^(1/3)", precision=INF)
    assert s.terms == {(F(5, 6),): F(1)}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x^(3/2) + @")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("x^(3/2")
    with pytest.raises(ParseError):
        parse("x^(-1)")  # negative exponent without laurent
    with pytest.raises(ParseError):
        parse("c*x")  # unknown bare symbol
    with pytest.raises(ParseError):
        parse("x + x1")  # mixed naming


UNKNOWN_C = ("unknown symbol 'c'; variables are x/y/t/u/v/w or indexed names, "
             "parameters need --param")

# (text, keyword arguments, message, position): one row per raise site of parse
PARSE_ERRORS = [
    ("x^(3/2) + @", {}, "unexpected character '@'", 10),
    ("x^(3/2", {}, "expected ')', found 'end of input'", 6),
    ("x^3", {}, "expected '(', found '3'", 2),
    ("x^()", {}, "expected 'int', found ')'", 3),
    ("2 + -", {}, "expected 'int', found 'end of input'", 5),
    ("O(total=2", {}, "expected ')', found 'end of input'", 9),
    ("x^(3/0)", {}, "zero denominator", 3),
    ("x^(-3/0)", {}, "zero denominator", 4),
    ("x + O(total=1/0)", {}, "zero denominator", 12),
    ("x + O(prec=3)", {}, "precision marker must be O(total=R)", 6),
    ("x + *", {}, "expected a term, found '*'", 4),
    ("x +", {}, "expected a term, found 'end of input'", 3),
    ("", {}, "expected a term, found 'end of input'", 0),
    ("x x", {}, "expected '+' or '-', found 'x'", 2),
    ("O(total=3) x", {}, "trailing input 'x'", 11),
    ("x + x1", {}, "cannot mix bare and indexed variable names", 0),
    ("c*x", {}, UNKNOWN_C, 0),
    ("x + y", {}, "several bare variables ['x', 'y']; index them instead", 0),
    ("x", {"num_vars": 2}, "bare variable name in a multivariate series", 0),
    ("x0", {}, "variable index in 'x0' must start at 1", 0),
    ("x3", {"num_vars": 2}, "variable index 3 exceeds declared 2", 0),
    ("1 + x^(-1)", {}, "negative exponent in a non-Laurent series", 4),
    ("1 + 0*x^(-1)", {}, "negative exponent in a non-Laurent series", 4),
]


@pytest.mark.parametrize("text, kwargs, message, position", PARSE_ERRORS)
def test_parse_error_table(text, kwargs, message, position):
    with pytest.raises(ParseError) as err:
        parse(text, **kwargs)
    assert type(err.value) is ParseError
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parse_and_json_refusals_outside_the_grammar():
    with pytest.raises(PuiseuxError) as err:
        parse("x1 + x2", laurent=True)
    assert type(err.value) is PuiseuxError
    assert str(err.value) == "Laurent support is restricted to one variable"
    for bad, message in [
        ("3/x", "Invalid literal for Fraction: '3/x'"),
        ("1/0", "zero denominator in '1/0'"),
        (1.5, "refusing inexact float 1.5; pass 'p/q' or Fraction"),
    ]:
        for blob in (
            {"vars": 1, "terms": [{"exp": [bad], "coef": "1"}], "precision": None},
            {"vars": 1, "terms": [{"exp": ["1"], "coef": bad}], "precision": None},
            {"vars": 1, "terms": [], "precision": bad},
        ):
            with pytest.raises(PuiseuxError) as err:
                PuiseuxSeries.from_json(blob)
            assert type(err.value) is PuiseuxError
            assert str(err.value) == message


def test_parse_laurent():
    s = parse("t^(-2) + 1", laurent=True, precision=INF)
    assert s.terms[(F(-2),)] == 1 and s.laurent


# --- arithmetic -------------------------------------------------------------


def test_mul_exact_polynomials():
    one_plus = parse("1 + t", precision=INF)
    one_minus = parse("1 - t", precision=INF)
    assert (one_plus * one_minus).terms == {(F(0),): F(1), (F(2),): F(-1)}


def test_mul_adds_fractional_exponents():
    a = PuiseuxSeries.monomial(1, (F(3, 2),))
    b = PuiseuxSeries.monomial(1, (F(8, 3),))
    assert (a * b).terms == {(F(25, 6),): F(1)}


def test_scalar_product_and_text():
    s = parse("1 + x") * 3
    assert s == parse("3 + 3*x")
    assert str(s) == "3 + 3*x + O(total=10)"


def test_operators_take_series_ints_and_fractions_on_either_side():
    s = parse("1+x")
    assert 2 - s == parse("1 - x")
    assert F(1, 2) - parse("x") == parse("1/2 - x")
    assert 2 + s == s + 2 == parse("3 + x")
    # any other operand gets the operator protocol's TypeError
    for call in (lambda: s + 1.5, lambda: s * "x", lambda: s - "x", lambda: 1.5 - s):
        with pytest.raises(TypeError):
            call()


def test_division_by_an_int_or_a_fraction_scales():
    s = parse("1+x")
    assert s / 2 == parse("1/2 + 1/2*x")
    assert s / F(2, 3) == parse("3/2 + 3/2*x")
    with pytest.raises(PuiseuxError, match="^division of a series by zero$"):
        s / 0
    # any other divisor gets the operator protocol's TypeError
    for call in (lambda: s / parse("x"), lambda: s / 1.5, lambda: 2 / s):
        with pytest.raises(TypeError):
            call()


def test_the_product_charges_the_pairs_it_reads(monkeypatch):
    # 4 STEP a pair of terms, row by row: a cutoff that ends a row early is
    # not charged for the pairs past it
    square = " + ".join(f"x1^({i})*x2^({j})" for i in range(40) for j in range(40))
    s = parse(square, precision=INF)
    monkeypatch.setattr(puiseux.core, "MAX_WORK", 10**5)
    refusal = r"^the product charges \d+ units of work, past the limit of 100000$"
    with pytest.raises(PuiseuxError, match=refusal):
        s * s
    small = parse("1 + x1 + x2", precision=INF)
    assert small * small == parse("1 + 2*x1 + 2*x2 + x1^(2) + 2*x1*x2 + x2^(2)", precision=INF)
    # 1 + x1 + x2 cut at total degree 1 times the 1600 terms reads five
    # pairs, three in the row of 1 and one in each of x1 and x2: 4 * 16 * 5
    # units, however many terms the rows would hold without the cutoff
    monkeypatch.setattr(puiseux.core, "MAX_WORK", 4 * 16 * 5)
    cut = parse("1 + x1 + x2", precision=1)
    assert cut * s == parse("1 + 2*x1 + 2*x2", precision=1)


def test_min_exponent_under_a_weighted_order():
    # weights (2, 1) rank x2 below x1
    assert parse("x1 + x2").min_exponent(AdditiveOrder.weighted([2, 1])) == (0, 1)


def test_pow_square():
    s = parse("1 + t", precision=INF)
    assert s.pow_int(2).terms == {(F(0),): F(1), (F(1),): F(2), (F(2),): F(1)}


def test_pow_fifth_coefficient():
    # [phi^5]_1 = 5 [phi]_0^4 [phi]_1 at the irreducible exponent 1
    s = parse("1 + t", precision=INF)
    assert s.pow_int(5).coefficient((F(1),)) == 5


def test_negative_power_is_meromorphic():
    s = parse("t + t^(2)", precision=8)
    inv2 = s.pow_int(-2)
    assert inv2.laurent
    # (t(1+t))^-2 = t^-2 (1 - 2t + 3t^2 - 4t^3 + ...)
    assert inv2.coefficient((F(-2),)) == 1
    assert inv2.coefficient((F(-1),)) == -2
    assert inv2.coefficient((F(0),)) == 3
    assert inv2.coefficient((F(1),)) == -4
    # window bookkeeping: 8, minus order 1 factored out, minus 2 for the shift
    assert inv2.precision == 5


def test_every_power_of_a_laurent_flagged_unit_keeps_one_flag():
    # pow_int of a unit is unit_power, and every power keeps its base's
    # flag, a Laurent-flagged constant's as a unit's with more terms, as
    # the products do
    constant = PuiseuxSeries(1, {(F(0),): F(2)}, laurent=True)
    powers = constant.pow_int(3), constant.pow_int(-3), constant.unit_power(3)
    assert [p.laurent for p in powers] == [True, True, True]
    assert [p.coefficient((F(0),)) for p in powers] == [8, F(1, 8), 8]
    assert constant.pow_int(1) == constant == constant * PuiseuxSeries.one(1)
    unit = parse("2 + x", laurent=True, precision=4)
    assert [p.laurent for p in (unit.pow_int(3), unit.pow_int(-3), unit.unit_power(3))] == [True] * 3


def test_unit_power_reads_its_constant_power_as_every_rational_argument():
    s = parse("1 + x", precision=3)
    assert s.unit_power(2, "4") == s.unit_power(2, 4) == s.unit_power(2, F(4)) == s.pow_int(2).scale(4)


def test_unit_root_trivial():
    one = PuiseuxSeries.one(1)
    assert one.unit_root(4, 1).terms == {(F(0),): F(1)}


def test_unit_root_binomial_series():
    from puiseux import rational_binomial

    s = parse("1 + 2*t", precision=6)
    root = s.unit_root(6, 1)
    for k in range(6):
        assert root.coefficient((F(k),)) == rational_binomial(F(1, 6), k) * 2**k


def test_unit_root_multivariate():
    from puiseux import rational_binomial

    s = parse("1 + t1*t2 - 2*t1^(2)*t3", precision=6)
    root = s.unit_root(6, 1)
    w = parse("t1*t2 - 2*t1^(2)*t3", precision=6)
    expect = PuiseuxSeries.one(3, F(6))
    for k in range(1, 4):
        expect = expect + w.pow_int(k).scale(rational_binomial(F(1, 6), k))
    assert root.agrees_with(expect)


def test_unit_root_rejects_wrong_root():
    s = parse("4 + t", precision=5)
    with pytest.raises(Exception) as err:
        s.unit_root(2, 3)
    assert "3" in str(err.value) and "4" in str(err.value)


def test_unit_root_refusal_parenthesizes_a_negative_or_fractional_root():
    s = parse("4 + t", precision=5)
    for root, words in ((-3, "claimed root -3 fails: (-3)^2 = 9 != 4"),
                        (F(3, 2), "claimed root 3/2 fails: (3/2)^2 = 9/4 != 4"),
                        (3, "claimed root 3 fails: 3^2 = 9 != 4")):
        with pytest.raises(PuiseuxError) as err:
            s.unit_root(2, root)
        assert str(err.value) == words


@pytest.mark.parametrize("m", [F(1, 2), True, 2.0, 0, -2])
def test_unit_root_refuses_an_index_that_is_no_positive_integer(m):
    with pytest.raises(PuiseuxError) as err:
        parse("1+t", precision=5).unit_root(m, 1)
    assert type(err.value) is PuiseuxError
    assert str(err.value) == f"root index m must be a positive integer, got {m!r}"


def test_monomial_substitute_identity():
    s = parse("x1^(3/2) + x2^(1/4)")
    q = [[F(1), F(0)], [F(0), F(1)]]
    assert s.monomial_substitute(q).agrees_with(s)


def test_monomial_substitute_chart():
    # column action: exponent -> q . exponent, with q = [[1,0],[1,1]]
    psi = parse("x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)", precision=INF)
    q = [[F(1), F(0)], [F(1), F(1)]]
    image = psi.monomial_substitute(q)
    assert image.terms == {
        (F(3, 2), F(3, 2)): F(1),
        (F(0), F(1, 4)): F(1),
        (F(7, 2), F(6)): F(1),
    }


def test_monomial_substitute_roundtrip_permutation():
    psi = parse("x1^(3/2) + x1^(2)*x2^(1/4)", precision=8)
    swap = [[F(0), F(1)], [F(1), F(0)]]
    assert psi.monomial_substitute(swap).monomial_substitute(swap).agrees_with(psi)


def test_monomial_substitute_precision_rule():
    psi = parse("x1 + x2", precision=6)
    q = [[F(2), F(0)], [F(0), F(3)]]
    assert psi.monomial_substitute(q).precision == 12  # min column sum 2


# --- precision discipline ----------------------------------------------------


def test_monomial_substitute_agrees_with_constructor_path():
    rng = random.Random(73)
    seen = set()
    for _ in range(80):
        h = rng.choice([1, 2, 3])
        terms = {random_exponent(rng, h, (1, 2, 3), max_num=6): rng.choice(NONZERO)
                 for _ in range(rng.randrange(1, 8))}
        prec = rng.choice([INF, F(rng.randrange(1, 7)), F(rng.randrange(3, 13), 2)])
        s = PuiseuxSeries(h, terms, prec)
        kind = rng.choice(["diagonal", "full", "singular"])
        if kind == "diagonal":
            q = [[F(rng.randrange(1, 4), rng.choice((1, 2, 3))) if i == j else F(0)
                  for j in range(h)] for i in range(h)]
        elif kind == "full":
            q = [[F(rng.randrange(0, 3), rng.choice((1, 2))) for _ in range(h)] for _ in range(h)]
            for i in range(h):
                q[i][i] += 1
        else:
            # every row the same: singular for h > 1
            row = [F(rng.randrange(1, 3)) for _ in range(h)]
            q = [list(row) for _ in range(h)]
        seen.add(kind)
        if mat_det(q) == 0:
            with pytest.raises(PuiseuxError, match="invertible"):
                s.monomial_substitute(q)
            seen.add("refused")
            continue
        got = s.monomial_substitute(q)
        want = substitute_constructor(s, q)
        assert got == want, (s, q)
        assert got.ramification == want.ramification
        images = [tuple(sum(a * b for a, b in zip(r, e)) for r in q) for e in s.terms]
        if prec is not INF:
            bound = min(sum(r[j] for r in q) for j in range(h)) * prec
            if any(sum(img) > bound for img in images):
                seen.add("dropped")
    assert seen == {"diagonal", "full", "singular", "refused", "dropped"}


@pytest.mark.parametrize("h", [1, 2, 3])
def test_monomial_substitute_agrees_with_the_fraction_key_map(h):
    # the key map from the integer matrix, one gcd per entry, against the
    # earlier map from Fraction ratios, refusals included
    rng = random.Random(503 + h)
    seen = set()
    for _ in range(120):
        s = _grid_series(rng, h, laurent=h == 1 and rng.random() < 0.3)
        kind = rng.choice(["diagonal", "integer", "rational"])
        denoms = {"diagonal": None, "integer": (1,), "rational": (1, 2, 3)}[kind]
        q = [[F(rng.randrange(0, 4), rng.choice(denoms)) if denoms and i != j else F(0)
              for j in range(h)] for i in range(h)]
        for i in range(h):
            q[i][i] += rng.choice((1, F(1, 2), 3))
        outcomes = []
        for substitute in (s.monomial_substitute, lambda m: monomial_substitute_fractions(s, m)):
            try:
                outcomes.append(substitute(q))
            except PuiseuxError as exc:
                outcomes.append((type(exc), str(exc)))
        got, want = outcomes
        assert got == want, (s, q)
        if isinstance(got, PuiseuxSeries):
            assert (got.ramification, got.precision, got.laurent) == (
                want.ramification, want.precision, want.laurent)
            seen.add(kind)
        else:
            seen.add("refused")
    assert seen == {"diagonal", "integer", "rational", "refused"}


def _grid_series(rng, h, laurent=False):
    denoms = (1, 2, 3, 4, 6)
    terms = {random_exponent(rng, h, denoms): rng.choice(NONZERO)
             for _ in range(rng.randrange(0, 6))}
    if laurent:
        terms[(F(-rng.randrange(1, 4), rng.choice(denoms)),)] = rng.choice(NONZERO)
    prec = rng.choice([INF, F(rng.randrange(1, 7)), F(rng.randrange(5, 25), rng.choice(denoms))])
    return PuiseuxSeries(h, terms, prec, laurent)


def test_grid_arithmetic_agrees_with_fraction_reference():
    # +, *, shift and truncate on integer grid keys against the earlier
    # Fraction-keyed versions: terms, precision, laurent and ramification
    rng = random.Random(2024)
    seen = set()
    for _ in range(150):
        h = rng.choice([1, 2, 3])
        laurent = h == 1 and rng.random() < 0.3
        a, b = _grid_series(rng, h, laurent), _grid_series(rng, h)
        if rng.random() < 0.4 and not a.is_zero():
            # cancel part of a, which can lower the ramification of a + b
            for e, c in list(a.terms.items())[: rng.randrange(1, len(a.terms) + 1)]:
                b = b + PuiseuxSeries.monomial(h, e, -c, b.precision, laurent)
        assert fraction_view(a) == fraction_series(h, a.terms, a.precision, a.laurent)
        total_sum = a + b
        assert fraction_view(total_sum) == add_fractions(a, b), (a, b)
        assert fraction_view(a * b) == mul_fractions(a, b), (a, b)
        pairs = zip(total_sum.ramification, a.ramification, b.ramification)
        if any(n < max(x, y) for n, x, y in pairs):
            seen.add("lowered")
        delta = tuple(F(rng.randrange(-3 if h == 1 else 0, 4), rng.choice((1, 2, 3, 4, 6)))
                      for _ in range(h))
        if h == 1 or all(x >= 0 for x in delta):
            assert fraction_view(a.shift(delta)) == shift_fractions(a, delta), (a, delta)
            seen.add("laurent" if a.shift(delta).laurent else "shift")
        cut = F(rng.randrange(0, 13), rng.choice((1, 2, 3, 4, 6)))
        assert fraction_view(a.truncate(cut)) == truncate_fractions(a, cut), (a, cut)
        seen.add(h)
    assert seen == {1, 2, 3, "lowered", "laurent", "shift"}


def test_cancellation_lowers_the_ramification():
    half = PuiseuxSeries.monomial(1, (F(1, 2),))
    x = PuiseuxSeries.monomial(1, (F(1),))
    square = half * half
    assert square.ramification == (1,) and square == x
    assert fraction_view(square) == mul_fractions(half, half)
    difference = (half + x) - half
    assert difference.ramification == (1,) and difference == x
    assert fraction_view(difference) == add_fractions(half + x, -half)


def test_coefficient_beyond_precision_raises():
    s = parse("x + O(total=3)")
    with pytest.raises(PrecisionError):
        s.coefficient((F(7, 2),))


def test_mul_precision_rule():
    a = parse("t^(2) + O(total=5)")
    b = parse("t^(3) + O(total=7)")
    # min(5 + 3, 7 + 2) = 8
    assert (a * b).precision == 8


def test_zero_series_order_sentinel():
    z = PuiseuxSeries.zero(2)
    assert z.order_total() == INF
    with pytest.raises(Exception):
        z.min_exponent()


# --- algebraic properties ----------------------------------------------------

coef = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
exps = st.fractions(min_value=0, max_value=5, max_denominator=3)


@st.composite
def small_series(draw, h=1):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        e = tuple(draw(exps) for _ in range(h))
        terms[e] = draw(coef)
    return PuiseuxSeries(h, terms, F(6))


@settings(max_examples=40, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_axioms(a, b, c):
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)
    assert (a + b).agrees_with(b + a)


@settings(max_examples=25, deadline=None)
@given(small_series(h=2), small_series(h=2))
def test_substitution_is_multiplicative(a, b):
    q = [[F(1), F(1)], [F(0), F(2)]]
    left = (a * b).monomial_substitute(q)
    right = a.monomial_substitute(q) * b.monomial_substitute(q)
    assert left.agrees_with(right)


def test_pow_int_additivity():
    rng = random.Random(3)
    for _ in range(12):
        terms = {(F(0),): F(rng.choice([1, 2, -1, 3]))}
        for _ in range(rng.randrange(0, 3)):
            terms[(F(rng.randrange(1, 4)),)] = F(rng.choice([-2, -1, 1, 2]))
        s = PuiseuxSeries(1, terms, F(8))
        m, n = rng.randrange(-3, 6), rng.randrange(-3, 6)
        assert s.pow_int(m + n).agrees_with(s.pow_int(m) * s.pow_int(n))


def test_unit_root_inverts_power():
    rng = random.Random(5)
    for _ in range(10):
        m = rng.randrange(1, 7)
        terms = {(F(0),): F(1)}
        for _ in range(rng.randrange(1, 4)):
            terms[(F(rng.randrange(1, 5)),)] = F(rng.choice([-2, -1, 1, 2]))
        s = PuiseuxSeries(1, terms, F(8))
        assert s.unit_root(m, 1).pow_int(m).agrees_with(s)


# --- serialization -----------------------------------------------------------


def test_json_roundtrip():
    s = parse("x^(3/2) - 2/3*x^(7/4) + O(total=9/2)")
    assert PuiseuxSeries.from_json(s.to_json()) == s


def test_json_roundtrip_keeps_the_laurent_flag():
    # a Laurent series without negative exponents keeps its flag, and only a
    # Laurent series writes it
    for s in (parse("1 + x", laurent=True, precision=5), parse("x^(-1) + 2", laurent=True)):
        blob = s.to_json()
        assert blob["laurent"] is True
        assert PuiseuxSeries.from_json(blob) == s
    assert "laurent" not in parse("1 + x", precision=5).to_json()
    # a null flag, like a null precision, reads as absent
    blob = dict(parse("1 + x", precision=5).to_json(), laurent=None)
    assert PuiseuxSeries.from_json(blob) == parse("1 + x", precision=5)


def test_format_parse_roundtrip():
    s = parse("x^(3/2) - 2/3*x^(7/4) + O(total=9/2)")
    assert parse(format_series(s)) == s
    exact = parse("1 - t + 2*t^(2)", precision=INF)
    assert parse(format_series(exact), precision=INF) == exact


def test_format_multivariate():
    s = parse("x1^(3/2)*x2 - x2^(1/4)", precision=INF)
    assert format_series(s) == "-x2^(1/4) + x1^(3/2)*x2"


@settings(max_examples=50, deadline=None)
@given(small_series(), small_series(h=3))
def test_format_parse_roundtrip_property(a, b):
    assert parse(format_series(a)) == a
    # the variable count must be passed: a constant's text names no variables
    assert parse(format_series(b), num_vars=3) == b


def test_format_parse_roundtrip_laurent():
    s = PuiseuxSeries(
        1, {(F(-2),): F(3), (F(0),): F(-1), (F(5, 2),): F(1, 3)}, F(7), laurent=True
    )
    assert parse(format_series(s), laurent=True) == s


def test_truncate_returns_an_uncut_series_itself():
    s = parse("1 + x + x^(3)", precision=F(5, 2))
    assert s.truncate(3) is s and s.truncate(F(5, 2)) is s
    cut = s.truncate(2)
    assert cut is not s and cut.precision == 2 and s.precision == F(5, 2)
    exact = parse("1 + x", precision=INF)
    assert exact.truncate(INF) is exact and exact.truncate(4).precision == 4


def test_substitution_refuses_a_negative_image_of_a_laurent_key():
    s = PuiseuxSeries(1, {(-1,): 1, (0,): 1}, laurent=True)
    with pytest.raises(PuiseuxError, match="^substitution sends -1 to negative exponent -2$"):
        s.monomial_substitute([[2]])


def test_reframe_matches_the_substitution_chain():
    # one construction gives the keys, grid and precision of
    # monomial_substitute by a diagonal, then shift; truncate cuts both at cap
    rng = random.Random(409)
    for _ in range(60):
        h = rng.randrange(1, 4)
        s = PuiseuxSeries(
            h,
            {tuple(F(rng.randrange(0, 7), rng.choice((1, 2, 3, 4))) for _ in range(h)):
             rng.choice((1, -2, F(1, 3))) for _ in range(rng.randrange(1, 6))},
            rng.choice((INF, F(rng.randrange(2, 12), rng.choice((1, 2, 3))))),
        )
        diagonal = [rng.choice((F(1), F(2), F(3), F(6), F(1, 2), F(1, 3), F(2, 3)))
                    for _ in range(h)]
        image = s.monomial_substitute([[diagonal[i] if i == j else F(0) for j in range(h)]
                                       for i in range(h)])
        low = min((e[0] for e in image.support()), default=F(0))
        shift = rng.choice((0, 2, -int(low))) if low.denominator == 1 else 0
        cap = rng.choice((INF, F(rng.randrange(0, 15))))
        want = image.shift((F(shift),) + (F(0),) * (h - 1)).truncate(cap)
        got = s._reframe(diagonal, shift).truncate(cap)
        assert got == want and got.ramification == want.ramification, (s, diagonal, shift, cap)
