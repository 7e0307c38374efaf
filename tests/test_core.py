import contextlib
import copy
import functools
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    lattice_member_bruteforce,
    mat_det_fractions,
    mat_inv,
    mat_mul_fractions,
    vec_mat,
)
from puiseux import (
    AdditiveOrder,
    DimensionError,
    DominationError,
    EssentialSequence,
    Lattice,
    OrderError,
    PuiseuxError,
    PuiseuxSeries,
    RootError,
    characteristic_exponents,
    dual,
    essential_exponents,
    essential_of_series,
    extract_branch,
    format_series,
    irreducible_exponents,
    lagrange_pair_check,
    parse,
    qo_test,
    rational_binomial,
    rational_root,
    verify_dual_identity,
    verify_power_identity,
)
from puiseux.core import mat_det, mat_identity, mat_mul, mat_vec, rat

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=24
)


def vec2(draw_from=rationals):
    return st.tuples(draw_from, draw_from)


# --- rational binomial ------------------------------------------------------


def test_binomial_examples():
    assert rational_binomial(F(-4, 6), 0) == 1
    assert rational_binomial(F(1, 6), 2) == F(-5, 72)
    assert rational_binomial(F(-5, 6), 1) == F(-5, 6)


@given(rationals, st.integers(min_value=1, max_value=10))
def test_binomial_pascal(r, k):
    assert rational_binomial(r, k) == rational_binomial(r - 1, k) + rational_binomial(
        r - 1, k - 1
    )


def test_rational_root():
    assert rational_root(F(8, 27), 3) == F(2, 3)
    assert rational_root(F(-8), 3) == -2
    assert rational_root(F(-4), 2) is None
    assert rational_root(F(2), 2) is None
    assert rational_root(F(9, 4), 2) == F(3, 2)
    assert rational_root(0, 3) == 0


# a well-formed essential sequence document, for the rows that spoil one field
ESSENTIAL_JSON = essential_exponents([F(3, 2)], Lattice.standard(1), AdditiveOrder.lex(1)).to_json()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rational_root(F(4), 0), "m must be a positive integer, got 0"),
        (lambda: rational_binomial(1, -1), "k must be a non-negative integer, got -1"),
        (lambda: rational_root("four", 2), "Invalid literal for Fraction: 'four'"),
        (lambda: rational_binomial(1, 2.5), "k must be a non-negative integer, got 2.5"),
        (lambda: PuiseuxSeries.from_json({}), "series JSON has no 'vars' key"),
        (lambda: PuiseuxSeries.from_json({"vars": 1}), "series JSON has no 'terms' key"),
        (lambda: PuiseuxSeries.from_json({"vars": 1, "terms": [{"exp": ["1"]}]}),
         "series JSON has no 'coef' key"),
        (lambda: PuiseuxSeries.from_json([]), "series JSON must be an object, got list"),
        (lambda: PuiseuxSeries.from_json({"vars": "1", "terms": []}),
         "the number of variables must be an integer, got '1'"),
        (lambda: PuiseuxSeries.from_json({"vars": 2.0, "terms": []}),
         "the number of variables must be an integer, got 2.0"),
        (lambda: PuiseuxSeries.from_json({"vars": 1, "terms": 5}),
         "series JSON terms must be a list, got int"),
        (lambda: PuiseuxSeries.from_json({"vars": 1, "terms": [5]}),
         "series JSON term must be an object, got int"),
        (lambda: PuiseuxSeries.from_json({"vars": 1, "terms": [{"exp": 5, "coef": "1"}]}),
         "series JSON exp must be a list, got int"),
        (lambda: PuiseuxSeries(1.0, {}), "the number of variables must be an integer, got 1.0"),
        (lambda: PuiseuxSeries("1", {}), "the number of variables must be an integer, got '1'"),
        (lambda: PuiseuxSeries(True, {}), "the number of variables must be an integer, got True"),
        (lambda: PuiseuxSeries.monomial("1", 1),
         "the number of variables must be an integer, got '1'"),
        (lambda: parse(None), "text must be a string, got None"),
        # a tuple that starts with a Fraction is read coordinate by coordinate
        (lambda: PuiseuxSeries(2, {(F(1), "x"): 1}), "Invalid literal for Fraction: 'x'"),
        (lambda: PuiseuxSeries(2, {(F(1), 1.5): 1}),
         "refusing inexact float 1.5; pass 'p/q' or Fraction"),
        (lambda: Lattice(2, [(F(1), "a")]), "Invalid literal for Fraction: 'a'"),
        (lambda: parse("x1+x2").coefficient((F(1), "q")), "Invalid literal for Fraction: 'q'"),
        (lambda: irreducible_exponents({(F(1), "z")}), "Invalid literal for Fraction: 'z'"),
        # every from_json reads its fields through one shape check
        (lambda: EssentialSequence.from_json({}),
         "essential sequence JSON has no 'entries' key"),
        (lambda: EssentialSequence.from_json({**ESSENTIAL_JSON, "entries": ["x"]}),
         "Invalid literal for Fraction: 'x'"),
        (lambda: EssentialSequence.from_json({**ESSENTIAL_JSON, "complete": "yes"}),
         "essential sequence JSON complete must be a boolean, got str"),
        (lambda: EssentialSequence.from_json({**ESSENTIAL_JSON, "order": LEX2.to_json()}),
         "essential sequence JSON order has dimension 2, its lattice 1"),
        (lambda: Lattice.from_json([]), "lattice JSON must be an object, got list"),
        (lambda: Lattice.from_json({"dim": 1, "basis": [None]}),
         "expected a rational or a vector of rationals, got None"),
        (lambda: Lattice.from_json({"dim": "2", "basis": []}),
         "lattice dim must be a positive integer, got '2'"),
        (lambda: Lattice(2.0, [(1, 2)]), "lattice dim must be a positive integer, got 2.0"),
        (lambda: PuiseuxSeries.from_json({"vars": 1, "terms": [], "laurent": "no"}),
         "series JSON laurent must be a boolean, got str"),
        (lambda: AdditiveOrder.from_json({}), "order JSON has no 'matrix' key"),
        (lambda: AdditiveOrder.from_json({"matrix": 5, "kind": "lex"}),
         "order JSON matrix must be a list, got int"),
        # a label the package never writes, from JSON or the constructor
        (lambda: AdditiveOrder.from_json({"matrix": [["1"]], "kind": "bogus"}),
         "order kind must be one of lex, positive-weight-lex, matrix, composed, got 'bogus'"),
        (lambda: AdditiveOrder([[1]], "bogus"),
         "order kind must be one of lex, positive-weight-lex, matrix, composed, got 'bogus'"),
    ],
)
def test_exported_names_refuse_with_a_puiseux_error(call, message):
    with pytest.raises(PuiseuxError) as err:
        call()
    assert type(err.value) is PuiseuxError
    assert str(err.value) == message


_DROP = object()
_MALFORMED = [None, 5, 2.5, "x", "1/0", [], {}, [None], ["x"], [[]], True, -1]


def _paths(value, path=()):
    """The path of every value inside the JSON value value, its own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def _spoiled(doc):
    """Copies of the JSON document doc with each of its values in turn
    replaced by a malformed one, or dropped from its object."""
    for path in _paths(doc):
        for bad in _MALFORMED + ([_DROP] if path and isinstance(path[-1], str) else []):
            if not path:
                yield bad
                continue
            out = copy.deepcopy(doc)
            *head, last = path
            parent = functools.reduce(operator.getitem, head, out)
            if bad is _DROP:
                del parent[last]
            else:
                parent[last] = bad
            yield out


@pytest.mark.parametrize(
    "cls, doc",
    [
        (PuiseuxSeries, parse("x1^(3/2) - 2/3*x2 + x1*x2^(1/4)").to_json()),
        (Lattice, Lattice(2, [(F(1, 2), F(1)), (0, 3)]).to_json()),
        (AdditiveOrder, AdditiveOrder.weighted([2, 1]).to_json()),
        (EssentialSequence, essential_of_series(parse("x1^(3/2) + x2^(5/2)")).to_json()),
    ],
    ids=["PuiseuxSeries", "Lattice", "AdditiveOrder", "EssentialSequence"],
)
def test_every_from_json_refuses_a_spoiled_document_with_a_puiseux_error(cls, doc):
    for spoiled in _spoiled(doc):
        # an answer or a PuiseuxError; any other exception fails the test
        with contextlib.suppress(PuiseuxError):
            cls.from_json(spoiled)


LEX1, LEX2, STD1, STD2 = AdditiveOrder.lex(1), AdditiveOrder.lex(2), Lattice.standard(1), Lattice.standard(2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PuiseuxSeries(1, {(F(-1),): 1}), PuiseuxError,
         "negative exponent -1 in a non-Laurent series"),
        (lambda: parse("1+x") * parse("1+x1+x2"), DimensionError,
         "series have different numbers of variables"),
        (lambda: parse("x1+x2").shift((F(-1), F(0))), PuiseuxError,
         "a shift below zero requires a one-variable Laurent series"),
        (lambda: parse("x").unit_power(2), PuiseuxError,
         "unit_power requires a nonzero constant term"),
        (lambda: parse("x").unit_root(2, 0), PuiseuxError,
         "unit_root requires a nonzero constant term"),
        (lambda: parse("2+x").unit_power(F(1, 2)), RootError, "2 has no rational square root"),
        (lambda: parse("2+x").unit_power(F(1, 11)), RootError, "2 has no rational 11th root"),
        (lambda: parse("2+x").unit_power(F(1, 21)), RootError, "2 has no rational 21st root"),
        (lambda: parse("2+x").unit_power(F(1, 22)), RootError, "2 has no rational 22nd root"),
        (lambda: parse("2+x").unit_power(F(1, 23)), RootError, "2 has no rational 23rd root"),
        (lambda: extract_branch(parse("2*x^(3) + x^(4)", precision=6)), RootError,
         "dominating coefficient 2 has no rational cube root; pass root_coeff explicitly"),
        (lambda: dual(parse("2 + t^(1/4)", precision=2)), RootError,
         "dual with first-variable denominator 4 needs a rational 4th root of the constant term 2"),
        (lambda: parse("4+x").unit_power(F(1, 2), 2.0), PuiseuxError,
         "refusing inexact float 2.0; pass 'p/q' or Fraction"),
        (lambda: parse("x1+x2").monomial_substitute([[1, 0]]), DimensionError,
         "substitution matrix has wrong shape"),
        (lambda: parse("x1+x2").monomial_substitute([[1, 0], [-1, 1]]), PuiseuxError,
         "substitution matrix must be non-negative"),
        (lambda: format_series(parse("x"), ["a", "b"]), DimensionError,
         "one name per variable required"),
        (lambda: essential_exponents([(F(1),)], STD2, LEX1), PuiseuxError,
         "lattice dimension does not match the exponents"),
        (lambda: essential_exponents([(F(1),)], STD1, LEX2), PuiseuxError,
         "order dimension does not match the exponents"),
        (lambda: essential_exponents([(F(1),)], STD1, LEX1, [1, 2]), PuiseuxError,
         "ramification must give one denominator per variable"),
        (lambda: essential_exponents([(F(1), F(0))], STD2, LEX2).scalars, PuiseuxError,
         "scalars only available for one-variable sequences"),
        (lambda: characteristic_exponents(parse("x1+x2")), PuiseuxError,
         "characteristic exponents are defined for one variable"),
        (lambda: qo_test(PuiseuxSeries.zero(2)), PuiseuxError,
         "quasi-ordinary test of the zero series"),
        (lambda: verify_power_identity(parse("x"), 2), PuiseuxError,
         "power identity needs an invertible series"),
        (lambda: verify_dual_identity(parse("x")), PuiseuxError,
         "dual identity needs an invertible series"),
        (lambda: lagrange_pair_check(parse("x1+x2"), parse("x1"), [(1, 1)]), PuiseuxError,
         "Lagrange pairs are one-variable"),
        (lambda: lagrange_pair_check(parse("x^(2)"), parse("x"), [(1, 1)]), PuiseuxError,
         "X must be an order-1 series with integer exponents"),
        (lambda: extract_branch(parse("x", laurent=True)), DominationError,
         "dominating extraction needs non-negative exponents"),
        (lambda: irreducible_exponents({(F(1),), (F(1), F(2))}), PuiseuxError,
         "mixed dimensions in exponent set"),
        (lambda: Lattice.scaled_axes(2, [1]), DimensionError, "one scale per axis required"),
        (lambda: STD2.contains_lattice(STD1), DimensionError, "lattice dimensions differ"),
        (lambda: AdditiveOrder([[1, 0]], "x"), DimensionError, "order matrix must be square"),
        (lambda: LEX1.min([]), PuiseuxError, "minimum of an empty collection"),
        (lambda: AdditiveOrder.from_matrix([[1, 0], [1]]), DimensionError,
         "matrix rows must be non-empty and rectangular"),
        (lambda: AdditiveOrder.from_json({"matrix": [5], "kind": "lex"}), DimensionError,
         "matrix rows must be sequences of rationals"),
        (lambda: LEX2.compose([[1]]), DimensionError,
         "substitution matrix is 1x1, the order's dimension is 2"),
        (lambda: LEX2.compose([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), DimensionError,
         "substitution matrix is 3x3, the order's dimension is 2"),
        (lambda: LEX2.compose([[1, 0, 0], [0, 1, 0]]), DimensionError,
         "substitution matrix is 2x3, the order's dimension is 2"),
    ],
)
def test_public_refusals_name_their_type_and_cause(call, error, message):
    with pytest.raises(PuiseuxError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_rational_root_reads_its_radicand_as_every_rational_argument():
    assert rational_root("4", 2) == 2
    assert rational_root("-8/27", 3) == F(-2, 3)


def test_rat_names_a_zero_denominator():
    assert rat("3/4") == F(3, 4)
    with pytest.raises(PuiseuxError, match="zero denominator in '1/0'"):
        rat("1/0")


def test_rational_root_large_values():
    # beyond float precision, where only integer arithmetic can decide
    base = F(10**30 + 7, 10**15 + 3)
    for m in (2, 3, 5):
        assert rational_root(base**m, m) == base
        assert rational_root(base**m + 1, m) is None


def test_rational_root_beyond_float_range():
    # radicands above 2^1024 cannot be converted to a float at all
    assert rational_root(F(10**400), 2) == 10**200
    assert rational_root(F(10**401), 2) is None
    assert rational_root(F(1, 10**600), 3) == F(1, 10**200)
    assert rational_root(F(-(3**700)), 7) == -(3**100)


# --- lattices ---------------------------------------------------------------


def test_lattice_integer_membership():
    z2 = Lattice.standard(2)
    assert z2.contains((F(3), F(-7)))
    six = Lattice(1, [(F(6),)])
    assert not six.contains((F(15),))
    assert six.contains((F(12),))


def test_lattice_fractional_membership():
    gens = [(F(1), F(0)), (F(0), F(1)), (F(3, 2), F(3, 2))]
    lat = Lattice(2, gens)
    v = (F(1, 2), F(1, 2))
    assert lattice_member_bruteforce(gens, v, bound=4)  # oracle first
    assert lat.contains(v)
    assert not lat.contains((F(1, 2), F(0)))


def test_lattice_join_examples():
    six = Lattice(1, [(F(6),)])
    joined = six.join([(F(15),)])
    assert joined.contains((F(3),)) and not joined.contains((F(1),))
    assert Lattice(1, [(F(3),)]).join([(F(16),)]).contains((F(1),))
    z2 = Lattice.standard(2)
    assert z2.join([]) == z2


def test_lattice_canonical_form_is_scale_free():
    a = Lattice(2, [(F(1, 2), F(0)), (F(0), F(1, 3))])
    b = Lattice(2, [(F(0), F(1, 3)), (F(1, 2), F(0)), (F(1, 2), F(1, 3))])
    assert a == b and hash(a) == hash(b)


def test_lattice_equality_under_regeneration():
    # generating sets mangled by integer row operations describe the same
    # subgroup and must canonicalize identically
    rng = random.Random(131)
    for _ in range(30):
        h = rng.choice([2, 3])
        gens = [
            tuple(F(rng.randrange(-5, 6), rng.choice((1, 2, 3))) for _ in range(h))
            for _ in range(rng.randrange(1, h + 2))
        ]
        mangled = [list(g) for g in gens]
        for _ in range(6):
            i, j = rng.randrange(len(mangled)), rng.randrange(len(mangled))
            if i != j:
                k = rng.randrange(-2, 3)
                mangled[i] = [a + k * b for a, b in zip(mangled[i], mangled[j])]
        rng.shuffle(mangled)
        ks = [rng.randrange(-2, 3) for _ in gens]
        combo = tuple(sum(k * g[i] for k, g in zip(ks, gens)) for i in range(h))
        assert Lattice(h, gens) == Lattice(h, [tuple(m) for m in mangled] + [combo])


@settings(max_examples=60)
@given(st.lists(vec2(), min_size=1, max_size=4), vec2())
def test_lattice_join_then_contains(gens, v):
    lat = Lattice(2, gens)
    assert lat.join([v]).contains(v)


@settings(max_examples=60)
@given(st.lists(vec2(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_lattice_join_idempotent_and_order_free(gens, rng):
    lat = Lattice(2, gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert Lattice(2, shuffled) == lat
    assert lat.join(gens) == lat


def test_lattice_rank_and_dimension_errors():
    lat = Lattice(2, [(F(1), F(1))])
    assert lat.rank == 1
    with pytest.raises(Exception):
        lat.contains((F(1),))


# --- additive orders --------------------------------------------------------


def test_order_compare_examples():
    lex = AdditiveOrder.lex(2)
    assert lex.compare((F(0), F(1, 4)), (F(3, 2), F(3, 2))) == -1
    assert lex.compare((F(1), F(2)), (F(1), F(2))) == 0
    weighted = AdditiveOrder.from_matrix([[1, 1], [1, 0]])
    assert weighted.key((F(1), F(2))) == (F(3), F(1))
    assert weighted.key((F(2), F(1))) == (F(3), F(2))
    assert weighted.compare((F(1), F(2)), (F(2), F(1))) == -1


def test_order_compose_examples():
    lex = AdditiveOrder.lex(2)
    assert lex.compose(mat_identity(2)).key((F(1), F(2))) == (F(1), F(2))
    q_sigma = ((F(1), F(1)), (F(0), F(1)))
    composed = lex.compose(q_sigma)
    # images under the chart: (3/2,0) -> (3/2,3/2), (0,1/4) -> (0,1/4)
    assert vec_mat((F(3, 2), F(0)), q_sigma) == (F(3, 2), F(3, 2))
    assert vec_mat((F(0), F(1, 4)), q_sigma) == (F(0), F(1, 4))
    assert composed.compare((F(3, 2), F(0)), (F(0), F(1, 4))) == 1


def test_order_compose_singular_rejected():
    with pytest.raises(OrderError):
        AdditiveOrder.lex(2).compose([[1, 1], [1, 1]])


@settings(max_examples=40)
@given(vec2(), vec2())
def test_order_compose_roundtrip(a, b):
    lex = AdditiveOrder.lex(2)
    q = [[F(1), F(1)], [F(0), F(1)]]
    q_inv = mat_inv(tuple(tuple(r) for r in q))
    twice = lex.compose(q).compose(q_inv)
    assert twice.compare(a, b) == lex.compare(a, b)


@settings(max_examples=80)
@given(vec2(), vec2(), vec2())
def test_order_total_and_additive(a, b, c):
    for order in (AdditiveOrder.lex(2), AdditiveOrder.weighted((F(1), F(2)))):
        cmp = order.compare(a, b)
        assert cmp in (-1, 0, 1)
        assert cmp == -order.compare(b, a)
        if cmp == 0:
            assert a == b  # injective keys: equality only for equal vectors
        shifted = order.compare(
            tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
        )
        assert shifted == cmp


def test_finite_sets_have_unique_minimum():
    rng = random.Random(11)
    for _ in range(50):
        pts = {
            (F(rng.randrange(0, 12), rng.choice((1, 2, 3, 4))),
             F(rng.randrange(0, 12), rng.choice((1, 2, 3, 4))))
            for _ in range(rng.randrange(1, 9))
        }
        for order in (AdditiveOrder.lex(2), AdditiveOrder.weighted((F(2), F(1)))):
            m = order.min(pts)
            assert sum(order.compare(m, p) <= 0 for p in pts) == len(pts)
            assert sum(order.compare(p, m) == 0 for p in pts) == 1


def test_weighted_requires_positive_weights():
    with pytest.raises(OrderError):
        AdditiveOrder.weighted((F(1), F(0)))


def test_matrix_helpers():
    q = ((F(1), F(1)), (F(0), F(1)))
    assert mat_mul(q, mat_inv(q)) == mat_identity(2)


def test_order_json_roundtrip():
    order = AdditiveOrder.weighted((F(1), F(3, 2)))
    again = AdditiveOrder.from_json(order.to_json())
    assert again == order and again.dominating


def test_order_json_reads_dominating_off_the_matrix():
    # the JSON flag is not trusted: under [[1, -1], [0, 1]] the vector (0, 1)
    # ranks below the origin, so the order does not dominate Q^2_+, and the
    # essential walk refuses it rather than pick (0, 1/4) second
    data = {"kind": "lex", "matrix": [["1", "-1"], ["0", "1"]], "dominating": True}
    order = AdditiveOrder.from_json(data)
    assert not order.dominating
    psi = parse("x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)")
    with pytest.raises(PuiseuxError, match="dominating Q\\^h_\\+"):
        essential_of_series(psi, order=order)
    # every factory order, composed or not, round-trips with its flag
    weighted = AdditiveOrder.weighted((F(1), F(3, 2)))
    orders = {
        AdditiveOrder.lex(1): True,
        AdditiveOrder.lex(3): True,
        weighted: True,
        AdditiveOrder.from_matrix([[1, 1], [1, 0]]): True,
        AdditiveOrder.from_matrix([[1, 0], [1, 1]]): True,
        AdditiveOrder.from_matrix([[-1, 0], [0, 1]]): False,
        AdditiveOrder.from_matrix([[1, -1], [0, 1]]): False,
        AdditiveOrder.lex(2).compose([[0, 1], [1, 0]]): True,
        weighted.compose([[1, 1], [0, 1]]): True,
        # v -> v.q sends (1, 0) to (1, -1) and (0, 1) to (0, 1), both
        # positive under lex, though q has a negative entry
        AdditiveOrder.lex(2).compose([[1, -1], [0, 1]]): True,
        AdditiveOrder.lex(2).compose([[-1, 0], [1, 1]]): False,
    }
    for order, dominating in orders.items():
        again = AdditiveOrder.from_json(order.to_json())
        assert (again, again.kind, again.dominating) == (order, order.kind, dominating)
        assert order.dominating == dominating


def test_lattice_and_order_reprs():
    assert repr(Lattice(2, [(F(1, 2), 0), (0, 1)])) == "Lattice(2, ['(1/2, 0)', '(0, 1)'])"
    assert repr(AdditiveOrder.weighted([2, 1])) == \
        "AdditiveOrder(positive-weight-lex, [['2', '1'], ['1', '0']])"


def test_lattice_json_roundtrip():
    lat = Lattice(2, [(F(1, 2), F(0)), (F(1, 3), F(1))])
    assert Lattice.from_json(lat.to_json()) == lat


def test_lattice_membership_against_inverse_oracle():
    # full-rank case: v lies in the lattice iff v expressed in the basis has
    # integer coordinates, an independent check via exact matrix inversion
    rng = random.Random(97)
    for _ in range(40):
        h = rng.choice([2, 3])
        while True:
            gens = [
                tuple(F(rng.randrange(-4, 5), rng.choice((1, 2, 3))) for _ in range(h))
                for _ in range(h)
            ]
            if mat_det(tuple(gens)) != 0:
                break
        lat = Lattice(h, gens)
        assert lat.rank == h
        inv = mat_inv(tuple(gens))
        for _ in range(8):
            if rng.random() < 0.5:
                coeffs = [rng.randrange(-3, 4) for _ in range(h)]
                v = tuple(
                    sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(h)
                )
            else:
                v = tuple(
                    F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4))) for _ in range(h)
                )
            coords = vec_mat(v, inv)
            expected = all(c.denominator == 1 for c in coords)
            assert lat.contains(v) == expected, (gens, v)


def _random_matrix(rng, h, kind):
    """An h x h matrix of ints or rationals; a singular one has a multiple
    of another row or a zero column, and a swap one has a zero at (0, 0)."""
    if kind.startswith("int"):
        a = [[rng.randrange(-9, 10) for _ in range(h)] for _ in range(h)]
    else:
        a = [[F(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(h)]
             for _ in range(h)]
    if kind.endswith("singular"):
        if h > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(h), 2)
            c = rng.choice((-2, 1, 3))
            a[i] = [c * x for x in a[j]]
        else:
            col = rng.randrange(h)
            for row in a:
                row[col] = 0
    elif kind.endswith("swap"):
        a[0][0] = 0
    return tuple(tuple(row) for row in a)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_integer_matrix_algebra_agrees_with_fraction_arithmetic(h):
    # mat_det by fraction-free elimination, mat_mul and mat_vec on integer
    # rows against the earlier Fraction elimination and products
    rng = random.Random(401 + h)
    seen = set()
    for _ in range(120):
        kind = rng.choice(["int", "int-singular", "int-swap", "rat", "rat-singular", "rat-swap"])
        a = _random_matrix(rng, h, kind)
        got, want = mat_det(a), mat_det_fractions(a)
        assert type(got) is F and got == want, a
        if kind.endswith("singular"):
            assert got == 0
        seen.add((kind.split("-")[-1], got == 0))
        b = _random_matrix(rng, h, rng.choice(["int", "rat"]))
        v = tuple(F(rng.randrange(-7, 8), rng.choice((1, 2, 5))) for _ in range(h))
        assert mat_mul(a, b) == mat_mul_fractions(a, b)
        assert mat_vec(a, v) == tuple(r[0] for r in mat_mul_fractions(a, [[c] for c in v]))
    assert {k for k, _ in seen} == {"int", "rat", "singular", "swap"}
    # nonsingular matrices needing a row swap come up in every dimension above 1
    assert ("swap", False) in seen or h == 1
