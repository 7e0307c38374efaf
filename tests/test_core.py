import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lattice_member_bruteforce, mat_det_fractions, mat_inv, mat_mul_fractions
from puiseux import (
    AdditiveOrder,
    Lattice,
    OrderError,
    PuiseuxError,
    essential_of_series,
    parse,
    rational_binomial,
    rational_root,
)
from puiseux.core import mat_det, mat_identity, mat_mul, mat_vec, rat, vec_mat

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


def test_lattice_json_roundtrip():
    lat = Lattice(2, [(F(1, 2), F(0)), (F(1, 3), F(1))])
    assert Lattice.from_json(lat.to_json()) == lat


def test_lattice_membership_against_inverse_oracle():
    # full-rank case: v lies in the lattice iff v expressed in the basis has
    # integer coordinates, an independent check via exact matrix inversion
    rng = random.Random(97)
    from puiseux.core import mat_det, vec_mat

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
    # mat_det by fraction-free elimination, mat_mul, mat_vec and vec_mat on
    # integer rows against the earlier Fraction elimination and products
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
        assert vec_mat(v, a) == mat_mul_fractions([v], a)[0]
        assert mat_vec(a, v) == tuple(r[0] for r in mat_mul_fractions(a, [[c] for c in v]))
    assert {k for k, _ in seen} == {"int", "rat", "singular", "swap"}
    # nonsingular matrices needing a row swap come up in every dimension above 1
    assert ("swap", False) in seen or h == 1
