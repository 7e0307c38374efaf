import random
import re
import time
from fractions import Fraction as F

import pytest

from builders import NONZERO, random_exponent, random_lattice, random_scalar_set
from oracles import (
    characteristic_denominator_rule,
    essential_fraction_walk,
    essential_repeated_min,
    irr_bruteforce,
    irr_dfs,
    irreducible_table_reference,
    lattice_reference,
    semigroup_member_table_reference,
    sum_search,
    sums_with_counts,
)
from puiseux import (
    INF,
    AdditiveOrder,
    Lattice,
    PuiseuxError,
    PuiseuxSeries,
    characteristic_exponents,
    essential_exponents,
    essential_exponents_p,
    essential_of_series,
    irreducible_exponents,
    parse,
    semigroup_member_oracle,
)
from puiseux.core import MAX_WORK, OrderError
from puiseux.exponents import _irreducible_points

E_PAPER = {F(6), F(15), F(16), F(21), F(23)}


def test_irreducible_paper_set():
    assert irreducible_exponents(E_PAPER) == {F(6), F(15), F(16), F(23)}


def test_minimum_is_irreducible():
    assert irreducible_exponents({F(5)}) == {F(5)}


def test_irreducible_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(25):
        S = random_scalar_set(rng, size=8, bound=40)
        assert irreducible_exponents(S) == irr_bruteforce(S)


def test_irreducible_vectors_match_bruteforce():
    rng = random.Random(19)
    for _ in range(15):
        S = {
            (F(rng.randrange(0, 7)), F(rng.randrange(0, 7)))
            for _ in range(6)
        } - {(F(0), F(0))}
        if not S:
            continue
        assert irreducible_exponents(S) == irr_bruteforce(S)


def test_irreducible_respects_truncation():
    # polynomial supports where the untruncated set is known exactly
    full = {F(k) for k in (4, 5, 8, 9, 10, 12, 13, 14, 16, 17, 18)}
    irr_full = irreducible_exponents(full)
    for bound in (9, 13, 17):
        trunc = {x for x in full if x <= bound}
        assert irreducible_exponents(trunc) == {x for x in irr_full if x <= bound}


def test_semigroup_oracle_examples():
    assert semigroup_member_oracle({F(6), F(15)}, F(21), max_terms=2)
    assert semigroup_member_oracle({F(6)}, F(6), max_terms=1)
    assert not semigroup_member_oracle({F(6), F(15), F(16), F(23)}, F(7), max_terms=2)


def test_semigroup_oracle_counts_terms():
    # 60 = 20 * 3 needs twenty generators, and no fewer
    assert semigroup_member_oracle({F(1), F(2), F(3)}, F(60), max_terms=20)
    assert not semigroup_member_oracle({F(1), F(2), F(3)}, F(60), max_terms=19)


def _outcome(call, *args):
    """call(*args), or the class and message of the PuiseuxError it raises."""
    try:
        return call(*args)
    except PuiseuxError as exc:
        return type(exc), str(exc)


def test_semigroup_oracle_edge_cases():
    assert not semigroup_member_oracle({F(2), F(3)}, F(0), max_terms=5)
    assert not semigroup_member_oracle({F(2), F(3)}, F(-2), max_terms=5)
    assert not semigroup_member_oracle({F(0)}, F(1), max_terms=5)
    with pytest.raises(PuiseuxError, match="non-negative"):
        semigroup_member_oracle({F(-1), F(2)}, F(1), max_terms=5)
    with pytest.raises(PuiseuxError, match="non-negative"):
        irreducible_exponents({F(-1), F(2)})
    # the descent answers and refuses as the exponent table did
    cases = [
        (set(), F(3), 5),  # empty S
        ([], (F(1), F(2)), 3),
        ({F(0)}, F(1), 5),  # zero generator alone
        ({F(0), F(2)}, F(4), 2),
        ({(F(0), F(0)), (F(1), F(1, 2))}, (F(2), F(1)), 2),
        ({F(1)}, F(1), 0),  # max_terms 0
        ({F(1)}, F(0), 3),  # v zero
        ({F(2), F(3)}, F(-2), 5),  # v negative
        ({F(2), F(4)}, F(5, 2), 9),  # v off the grid of S
        ({(F(1), F(0)), (F(0), F(1))}, (F(3), F(-1)), 9),
        ({F(1), F(2), F(3)}, F(60), 19),
        ({F(1), F(2), F(3)}, F(60), 20),
    ]
    for S, v, max_terms in cases:
        want = semigroup_member_table_reference(S, v, max_terms)
        assert semigroup_member_oracle(S, v, max_terms) == want, (S, v, max_terms)
    refusals = [
        (
            ({F(-1), F(2)}, F(1), 5),
            "semigroup generators must have non-negative exponents",
        ),
        (
            ({(F(1), F(-1, 2)), (F(1), F(1))}, (F(2), F(0)), 5),
            "semigroup generators must have non-negative exponents",
        ),
    ]
    for args, message in refusals:
        want = (PuiseuxError, message)
        assert _outcome(semigroup_member_oracle, *args) == want, args
        assert _outcome(semigroup_member_table_reference, *args) == want, args
    # the table refused a box of 100000 points times 40 generators; the
    # descent charges its three layers, 1 + 40 + 820 points times 40 steps
    start = time.perf_counter()
    assert not semigroup_member_oracle({F(k) for k in range(1, 41)}, F(99999), 3)
    assert time.perf_counter() - start < 0.1


def _random_vector_set(rng, h):
    """A few random exponents plus the sum of two of them, so that every set
    has a reducible element."""
    denoms = (1, 2, 3) if h < 3 else (1, 2)
    S = {random_exponent(rng, h, denoms, max_num=5) for _ in range(rng.randrange(2, 8))}
    S = S - {tuple(F(0) for _ in range(h))} or {tuple(F(1) for _ in range(h))}
    a, b = rng.choices(sorted(S), k=2)
    return S | {tuple(x + y for x, y in zip(a, b))}


@pytest.mark.parametrize("h", [1, 2, 3])
def test_irreducible_agrees_with_dfs_and_bruteforce(h):
    rng = random.Random(41 + h)
    for _ in range(30):
        S = _random_vector_set(rng, h)
        if h == 1 and rng.random() < 0.5:
            S = {v[0] for v in S}  # scalar input keeps its shape
        irr = irreducible_exponents(S)
        assert irr == irr_dfs(S) == irr_bruteforce(S), S


@pytest.mark.parametrize("h", [1, 2, 3])
def test_semigroup_oracle_agrees_with_sums(h):
    rng = random.Random(53 + h)
    for _ in range(12):
        S = _random_vector_set(rng, h)
        v = tuple(sum(c) for c in zip(*rng.choices(sorted(S), k=rng.randrange(1, 5))))
        if rng.random() < 0.3:
            v = tuple(c + F(1, 2) for c in v)
        table = sums_with_counts(S, sum(v), 8)
        for max_terms in range(0, 7):
            want = any(v in table.get(k, ()) for k in range(1, max_terms + 1))
            got = semigroup_member_oracle(S, v, max_terms=max_terms)
            assert got == want == sum_search(v, S, 1, max_terms), (S, v, max_terms)


def _membership_case(rng, h):
    """A seeded (S, v, max_terms): S with mixed denominators, now and then
    empty or holding the zero generator, and v a sum of a few elements of
    S, now and then moved off S's grid, made negative or zero."""
    denoms, top = {1: ((1, 2, 3, 4), 5), 2: ((1, 2, 3), 4), 3: ((1, 2), 3)}[h]
    zero = tuple(F(0) for _ in range(h))
    S = [random_exponent(rng, h, denoms, max_num=top) for _ in range(rng.randrange(0, 6))]
    if rng.random() < 0.2:
        S.append(zero)
    picks = rng.choices(S, k=rng.randrange(1, 5)) if S else []
    v = tuple(sum((p[i] for p in picks), F(0)) for i in range(h))
    kind = rng.choice(("sum", "sum", "sum", "off", "negative", "zero"))
    if kind == "off":
        v = (v[0] + F(1, 5),) + v[1:]
    elif kind == "negative":
        v = (v[0] - 3,) + v[1:]
    elif kind == "zero":
        v = zero
    return S, v, rng.randrange(0, 8), kind


@pytest.mark.parametrize("h", [1, 2, 3])
def test_semigroup_descent_agrees_with_the_table(h):
    rng = random.Random(1900 + h)
    kinds = set()
    for _ in range(60):
        S, v, max_terms, kind = _membership_case(rng, h)
        if h == 1 and rng.random() < 0.5:
            S, v = [e[0] for e in S], v[0]  # scalar input
        got = _outcome(semigroup_member_oracle, S, v, max_terms)
        assert got == _outcome(semigroup_member_table_reference, S, v, max_terms), (S, v)
        kinds.add((kind, got))
    assert {k for k, _ in kinds} == {"sum", "off", "negative", "zero"}
    assert {True, False} <= {g for _, g in kinds}


def test_irreducible_long_chain_is_iterative():
    # 2000 = 2000 * 1 is deeper than the default recursion limit
    assert irreducible_exponents({F(1), F(2000)}) == {F(1)}


def test_irreducible_adversarial_family_is_fast():
    S = {F(k, 10) for k in range(11, 20)} | {F(281, 7)}
    start = time.perf_counter()
    assert irreducible_exponents(S) == S
    assert time.perf_counter() - start < 0.5


def test_irreducible_refuses_a_huge_grid_quickly():
    # a grid box of 4940136 points times 3 generators, once refused by a box
    # rule; the walk settles only the points it reaches, within the same time
    start = time.perf_counter()
    assert irreducible_exponents({F(1, 997), F(1, 991), F(5)}) == {F(1, 997), F(1, 991)}
    assert time.perf_counter() - start < 0.1


def test_irreducible_refuses_many_generators_quickly():
    # 40 generators under a full 10^5-point box, once refused by a box rule;
    # the walk settles 99999 as a sum of 1s, one point per degree below it
    S = {F(k) for k in range(1, 40)} | {F(99999)}
    start = time.perf_counter()
    assert irreducible_exponents(S) == {F(1)}
    assert time.perf_counter() - start < 1


def test_irreducible_adversarial_walk_is_refused_by_the_charge():
    # (9999, 9999) is no sum of (2, 0) and (0, 2): the walk would settle the
    # 5000^2 points with odd coordinates below it, and its charge stops it
    start = time.perf_counter()
    message = rf"^the irreducible walk charges \d+ units of work, past the limit of {MAX_WORK}$"
    with pytest.raises(PuiseuxError, match=message):
        _irreducible_points({(2, 0), (0, 2), (9999, 9999)})
    assert time.perf_counter() - start < 10


def _irreducible_sample(rng, h):
    """A seeded list of exponents with mixed denominators, one reducible
    element, now and then the zero element, and repeated elements."""
    denoms = (1, 2, 3, 4) if h == 1 else (1, 2, 3) if h == 2 else (1, 2)
    S = [random_exponent(rng, h, denoms, max_num=5) for _ in range(rng.randrange(1, 7))]
    S = [v for v in S if any(v)] or [tuple(F(1, 2) for _ in range(h))]
    a, b = rng.choices(S, k=2)
    S.append(tuple(x + y for x, y in zip(a, b)))
    if rng.random() < 0.3:
        S.append(tuple(F(0) for _ in range(h)))
    S += rng.choices(S, k=rng.randrange(0, 3))
    rng.shuffle(S)
    return S


@pytest.mark.parametrize("h", [1, 2, 3])
def test_irreducible_walk_agrees_with_the_table_and_bruteforce(h):
    rng = random.Random(71 + h)
    for _ in range(40):
        S = _irreducible_sample(rng, h)
        if h == 1 and rng.random() < 0.5:
            S = [v[0] for v in S]  # scalar input keeps its shape
        irr = irreducible_exponents(S)
        assert irr == irreducible_table_reference(S) == irr_bruteforce(S), S


@pytest.mark.parametrize("top", [F(36, 7), F(43, 7), F(50, 7), F(281, 7)])
def test_irreducible_adversarial_family_agrees_with_the_table(top):
    S = {F(k, 10) for k in range(11, 20)} | {top}
    assert irreducible_exponents(S) == irreducible_table_reference(S) == irr_bruteforce(S)
    vectors = {(v, F(0)) for v in S}
    assert irreducible_exponents(vectors) == irreducible_table_reference(vectors)


def test_irreducible_walk_shares_its_memo_in_two_variables():
    # a sum of points with i + j even has i + j even, so an odd point is a sum
    # of an odd point and even ones or of nothing, and settling it visits the
    # points below it that the even ones reach; one memo for the whole walk
    # visits each of them once, not once for every odd point
    rng = random.Random(3)
    evens = [(i, j) for i in range(3, 30) for j in range(3, 30) if (i + j) % 2 == 0]
    odds = [(i, j) for i in range(80, 100) for j in range(80, 100) if (i + j) % 2]
    S = {(F(i), F(j)) for i, j in rng.sample(evens, 50) + rng.sample(odds, 50)}
    start = time.perf_counter()
    irr = irreducible_exponents(S)
    assert time.perf_counter() - start < 0.5
    assert irr == irreducible_table_reference(S)


def test_irreducible_walk_shares_its_memo_in_one_variable():
    # every point of 9900..9968 is a sum of 77 or 78 points of 100..129
    S = {F(k) for k in range(100, 130)} | {F(k) for k in range(9900, 9969)}
    start = time.perf_counter()
    irr = irreducible_exponents(S)
    assert time.perf_counter() - start < 0.5
    assert irr == irreducible_table_reference(S) == {F(k) for k in range(100, 130)}


# --- essential sequences ------------------------------------------------------


def _random_dominating_order(rng, h, kind):
    if kind == "lex":
        return AdditiveOrder.lex(h)
    if kind == "weighted":
        return AdditiveOrder.weighted([F(rng.randrange(1, 5), rng.choice((1, 2))) for _ in range(h)])
    while True:
        rows = [[rng.randrange(1, 4) for _ in range(h)]]
        rows += [[rng.randrange(-2, 3) for _ in range(h)] for _ in range(h - 1)]
        try:
            return AdditiveOrder.from_matrix(rows)
        except OrderError:  # singular
            continue


@pytest.mark.parametrize("h", [1, 2, 3])
def test_essential_single_walk_agrees_with_repeated_min(h):
    rng = random.Random(61 + h)
    seen = set()
    for _ in range(40):
        vecs = [random_exponent(rng, h, (1, 2, 3, 4, 6), max_num=8)
                for _ in range(rng.randrange(1, 12))]
        vecs += rng.choices(vecs, k=rng.randrange(0, 3))  # duplicates
        lattice = rng.choice([
            Lattice(h, []),
            Lattice.scaled_axes(h, [rng.randrange(1, 4)] * h),
            random_lattice(rng, h),
        ])
        kind = rng.choice(["lex", "weighted", "from_matrix"])
        order = _random_dominating_order(rng, h, kind)
        ram = rng.choice([None, tuple(rng.choice((1, 2, 5)) for _ in range(h))])
        got = essential_exponents(vecs, lattice, order, ram)
        want = essential_repeated_min(vecs, lattice, order, ram)
        assert got == want, (vecs, lattice, order, ram)
        assert got.joined_lattice() == want.joined_lattice()
        seen.add((kind, got.complete))
    assert {k for k, _ in seen} == {"lex", "weighted", "from_matrix"}
    assert {c for _, c in seen} == {True, False}


WALK_LATTICES = ("standard", "scaled_axes", "full", "deficient", "finer")


def _walk_lattice(rng, h, kind):
    if kind == "standard":
        return Lattice.standard(h)
    if kind == "scaled_axes":
        return Lattice.scaled_axes(h, [rng.randrange(1, 13) for _ in range(h)])
    if kind == "finer":  # denominators that no support element has
        return Lattice(h, [random_exponent(rng, h, (7, 8, 12), max_num=9) for _ in range(h)])
    rank = h if kind == "full" else rng.randrange(0, h)
    while True:
        gens = [random_exponent(rng, h, (1, 2, 3), max_num=5) for _ in range(rank)]
        lattice = Lattice(h, gens)
        if lattice.rank == rank:
            return lattice


def _walk_order(rng, h, kind):
    if kind == "lex":
        return AdditiveOrder.lex(h)
    weights = [F(rng.randrange(1, 5), rng.choice((1, 2))) for _ in range(h)]
    order = AdditiveOrder.weighted(weights)
    if kind == "weighted":
        return order
    while True:
        q = [[rng.randrange(0, 3) for _ in range(h)] for _ in range(h)]
        try:
            return rng.choice([AdditiveOrder.lex(h), order]).compose(q)
        except OrderError:  # singular
            continue


@pytest.mark.parametrize("h", [1, 2, 3])
def test_essential_integer_walk_agrees_with_fraction_walk(h):
    rng = random.Random(83 + h)
    zero = (F(0),) * h
    seen = set()
    for _ in range(150):
        vecs = [random_exponent(rng, h, (1, 2, 3, 4, 5, 6), max_num=9)
                for _ in range(rng.randrange(1, 10))]
        vecs += [zero] * rng.randrange(0, 2)
        rng.shuffle(vecs)
        lattice_kind = rng.choice(WALK_LATTICES)
        lattice = _walk_lattice(rng, h, lattice_kind)
        order_kind = rng.choice(["lex", "weighted", "composed"])
        order = _walk_order(rng, h, order_kind)
        ram = rng.choice([None, tuple(rng.randrange(1, 7) for _ in range(h))])
        got = essential_exponents(vecs, lattice, order, ram)
        want = essential_fraction_walk(vecs, lattice, order, ram)
        case = (vecs, lattice, order, ram)
        assert got.entries == want.entries, case
        assert got.relative_to == want.relative_to, case
        assert got.order == want.order, case
        assert got.complete == want.complete, case
        assert all(e in vecs for e in got.entries)
        seen.add((lattice_kind, order_kind, ram is None, got.complete))
    kinds = [set(WALK_LATTICES), {"lex", "weighted", "composed"}, {True, False}, {True, False}]
    for i, values in enumerate(kinds):
        assert {k[i] for k in seen} == values


@pytest.mark.parametrize("h", [1, 2, 3])
def test_essential_walk_on_series_keys_agrees_with_the_support_walk(h):
    # essential_of_series walks the keys; essential_exponents the support
    rng = random.Random(89 + h)
    seen = set()
    for _ in range(60):
        terms = {random_exponent(rng, h, (1, 2, 3, 4), max_num=9): F(1)
                 for _ in range(rng.randrange(1, 9))}
        s = PuiseuxSeries(h, terms, F(rng.randrange(2, 12)))
        if s.is_zero():
            continue
        lattice_kind = rng.choice(WALK_LATTICES)
        lattice = _walk_lattice(rng, h, lattice_kind)
        order_kind = rng.choice(["lex", "weighted"])
        order = _walk_order(rng, h, order_kind)
        got = essential_of_series(s, lattice, order)
        want = essential_exponents(s.support(), lattice, order, s.ramification)
        assert got == want, (s, lattice, order)
        seen.add((order_kind, got.complete))
    assert seen == {(k, c) for k in ("lex", "weighted") for c in (True, False)}
    with pytest.raises(PuiseuxError, match="empty set"):
        essential_of_series(PuiseuxSeries.zero(h, 5))


@pytest.mark.parametrize("h", [1, 2, 3])
def test_essential_entry_points_agree_with_the_fraction_walk(h):
    # each entry point maps exponents to integer points once and ranks them
    # by the order's integer rows; the Fraction walk ranks by order.key
    rng = random.Random(307 + h)
    seen = set()
    for _ in range(100):
        terms = {random_exponent(rng, h, (1, 2, 3, 4, 6), max_num=9): F(1)
                 for _ in range(rng.randrange(1, 9))}
        s = PuiseuxSeries(h, terms, F(rng.randrange(2, 12)))
        if s.is_zero():
            continue
        lattice = _walk_lattice(rng, h, rng.choice(WALK_LATTICES))
        order_kind = rng.choice(["lex", "weighted", "composed"])
        order = _walk_order(rng, h, order_kind)
        want = essential_fraction_walk(s.support(), lattice, order, s.ramification)
        assert essential_of_series(s, lattice, order) == want, (s, lattice, order)
        assert essential_exponents(list(s.support()), lattice, order, s.ramification) == want
        seen.add((order_kind, want.complete))
        if h == 1:
            p, ram = rng.randrange(1, 13), rng.choice([None, rng.randrange(1, 7)])
            values = [e for (e,) in s.support()]
            shaped = rng.choice([values, [(v,) for v in values], [str(v) for v in values]])
            want = essential_fraction_walk(
                values, Lattice.scaled_axes(1, [p]), AdditiveOrder.lex(1), ram and (ram,)
            )
            assert essential_exponents_p(shaped, p, ramification=ram) == want, (values, p, ram)
    assert {k for k, _ in seen} == {"lex", "weighted", "composed"}
    assert {c for _, c in seen} == {True, False}


def _signed_vector(rng, h, denoms):
    return tuple(F(rng.randrange(-9, 10), rng.choice(denoms)) for _ in range(h))


@pytest.mark.parametrize("h", [1, 2, 3])
def test_lattice_canonical_form_agrees_with_reference(h):
    rng = random.Random(97 + h)
    denoms = (1, 2, 3, 4, 6, 12)
    for _ in range(60):
        gens = [_signed_vector(rng, h, denoms) for _ in range(rng.randrange(0, h + 3))]
        lattice = Lattice(h, gens)
        scale, rows = lattice_reference(h, gens)
        assert (lattice.scale, lattice.rows) == (scale, rows), gens
        assert hash(lattice) == hash((h, scale, rows))
        assert lattice == Lattice(h, lattice.basis())
        extra = [_signed_vector(rng, h, denoms) for _ in range(rng.randrange(0, 3))]
        joined = lattice.join(extra)
        assert (joined.scale, joined.rows) == lattice_reference(h, gens + extra)
        assert joined == Lattice(h, gens + extra)
        scales = [F(rng.randrange(-4, 13), rng.choice(denoms)) for _ in range(h)]
        axes = [tuple(c * int(i == j) for j in range(h)) for i, c in enumerate(scales)]
        scaled = Lattice.scaled_axes(h, scales)
        assert (scaled.scale, scaled.rows) == lattice_reference(h, axes)
    identity = [tuple(F(int(i == j)) for j in range(h)) for i in range(h)]
    assert Lattice.standard(h) == Lattice(h, identity)


def _half_with_ramification(ram):
    return essential_exponents([(F(1, 2),)], Lattice.standard(1), AdditiveOrder.lex(1), ram)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: _half_with_ramification((0,)), "0"),
        (lambda: _half_with_ramification((F(1, 2),)), "Fraction(1, 2)"),
        (lambda: _half_with_ramification((-2,)), "-2"),
        (lambda: _half_with_ramification(("two",)), "'two'"),
        (lambda: essential_exponents_p(E_PAPER, 2.5), "2.5"),
        (lambda: essential_exponents_p(E_PAPER, F(3, 2)), "Fraction(3, 2)"),
        (lambda: essential_exponents_p(E_PAPER, 0), "0"),
        (lambda: essential_exponents_p(E_PAPER, 1, ramification=-3), "-3"),
    ],
)
def test_essential_refuses_bad_parameters(call, bad):
    with pytest.raises(PuiseuxError, match=f"must be a positive integer, got {re.escape(bad)}$"):
        call()


def test_essential_p_paper_table():
    table = {
        1: (6,), 5: (6,), 7: (6,), 11: (6,),
        2: (6, 15), 4: (6, 15), 8: (6, 15), 10: (6, 15),
        3: (6, 16), 9: (6, 16),
        6: (6, 15, 16), 12: (6, 15, 16),
    }
    for p, want in table.items():
        seq = essential_exponents_p(E_PAPER, p)
        assert seq.scalars == tuple(F(w) for w in want), p
        assert seq.complete


def test_essential_p_rational_set():
    S = {F(1), F(5, 2), F(8, 3), F(7, 2), F(23, 6)}
    seq = essential_exponents_p(S, 1)
    assert seq.scalars == (F(1), F(5, 2), F(8, 3))
    assert seq.complete


def test_essential_multivariate_pullback():
    psi = parse("v1^(3/2)*v2^(3/2) + v2^(1/4) + v1^(7/2)*v2^(6)")
    seq = essential_of_series(psi)
    assert seq.entries == ((F(0), F(1, 4)), (F(3, 2), F(3, 2)))
    assert seq.complete


def test_essential_under_chart_order():
    psi = parse("x1^(3/2) + x2^(1/4) + x1^(7/2)*x2^(5/2)")
    order = AdditiveOrder.lex(2).compose([[1, 1], [0, 1]])
    seq = essential_exponents(psi.support(), Lattice.standard(2), order, (2, 4))
    assert seq.entries == ((F(0), F(1, 4)), (F(3, 2), F(0)))


def test_essential_integral_support_stops_at_head():
    S = {(F(2), F(1)), (F(3), F(5))}
    seq = essential_exponents(S, Lattice.standard(2), AdditiveOrder.lex(2))
    assert seq.entries == ((F(2), F(1)),)
    assert seq.complete


def test_drop_integral_head_of_an_empty_sequence():
    from puiseux.exponents import EssentialSequence, drop_integral_head

    empty = EssentialSequence((), Lattice.standard(2), AdditiveOrder.lex(2), True)
    assert drop_integral_head(empty) == ()


def test_essential_requires_dominating_order():
    order = AdditiveOrder.from_matrix([[-1, 0], [0, 1]])
    with pytest.raises(Exception):
        essential_exponents({(F(1), F(1))}, Lattice.standard(2), order)


def test_essential_empty_set_rejected():
    with pytest.raises(Exception):
        essential_exponents_p(set(), 1)


def test_essential_sequence_json_roundtrip():
    from puiseux.exponents import EssentialSequence

    one_var = essential_exponents_p(E_PAPER, 6)
    assert EssentialSequence.from_json(one_var.to_json()) == one_var
    assert one_var.to_json()["entries"] == ["6", "15", "16"]  # flat for h = 1
    two_var = essential_of_series(
        parse("v1^(3/2)*v2^(3/2) + v2^(1/4) + v1^(7/2)*v2^(6)")
    )
    assert EssentialSequence.from_json(two_var.to_json()) == two_var


# --- characteristic exponents --------------------------------------------------


def test_characteristic_examples():
    assert characteristic_exponents(parse("x^(5/2) + x^(8/3)")).entries == (
        F(5, 2),
        F(8, 3),
    )
    big = parse("2*x - x^(5/2) + x^(8/3) - 3*x^(7/2) + x^(23/6)")
    assert characteristic_exponents(big).entries == (F(5, 2), F(8, 3))
    assert characteristic_exponents(parse("x^(2)")).entries == ()


def test_characteristic_exponents_match_the_denominator_rule():
    # the essential walk relative to Z with an integral head dropped, against
    # the earlier rule: each exponent whose denominator does not divide the
    # lcm denominator of the support below it
    rng = random.Random(41)
    seen = set()
    for i in range(80):
        # every fourth support a Laurent one, reaching below zero
        laurent, terms = i % 4 == 0, {}
        for _ in range(rng.randrange(1, 8)):
            e = F(rng.randrange(-12 if laurent else 1, 40), rng.choice((1, 2, 3, 4, 5, 6, 10, 12)))
            if e:
                terms[(e,)] = rng.choice(NONZERO)
        psi = PuiseuxSeries(1, terms, F(rng.randrange(4, 40)) if i % 3 else INF, laurent)
        if psi.is_zero():
            continue
        want = characteristic_denominator_rule(psi)
        assert characteristic_exponents(psi).entries == want, psi
        seen.add(len(want))
    assert {0, 1, 2, 3} <= seen


def test_characteristic_preconditions():
    from puiseux import PuiseuxSeries

    with pytest.raises(Exception):
        characteristic_exponents(parse("1 + x"))
    with pytest.raises(Exception):
        characteristic_exponents(PuiseuxSeries.zero(1))


# --- lemma-level properties (small versions; the acceptance suite scales them up)


def test_ess_equals_ess_of_irreducibles():
    rng = random.Random(23)
    for _ in range(20):
        S = random_scalar_set(rng, size=7, bound=30)
        p = rng.randrange(1, 13)
        assert (
            essential_exponents_p(S, p).scalars
            == essential_exponents_p(irreducible_exponents(S), p).scalars
        )


def test_ess_scaling_lemma():
    rng = random.Random(29)
    for _ in range(20):
        S = random_scalar_set(rng, size=6, bound=24)
        p = rng.randrange(1, 9)
        q = F(rng.randrange(1, 7), rng.randrange(1, 7))
        lhs = tuple(q * e for e in essential_exponents_p(S, p).scalars)
        # q ess(E, p) = ess(qE, qp): realise qp as the lattice q*p*Z
        rhs = essential_exponents(
            [(q * s,) for s in S], Lattice(1, [(q * p,)]), AdditiveOrder.lex(1)
        ).entries
        assert lhs == tuple(e[0] for e in rhs)


def test_essential_elements_are_irreducible():
    rng = random.Random(31)
    for _ in range(20):
        S = random_scalar_set(rng, size=7, bound=30)
        p = rng.randrange(1, 13)
        irr = irreducible_exponents(S)
        assert set(essential_exponents_p(S, p).scalars) <= irr


def test_characteristic_agrees_with_essential_transform():
    # the library asserts this internally; exercise it on random series
    rng = random.Random(37)
    from puiseux import PuiseuxSeries

    for _ in range(20):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            e = F(rng.randrange(1, 25), rng.choice((1, 2, 3, 4, 6, 12)))
            terms[(e,)] = F(rng.choice([1, 2, -1]))
        psi = PuiseuxSeries(1, terms, F(30))
        char = characteristic_exponents(psi)
        assert all(e in {x[0] for x in psi.support()} for e in char.entries)
        # characteristic_exponents walks the series' keys: the same entries
        # and certificate as the Fraction walk of the support relative to 1
        ess = essential_of_series(psi)
        ref = essential_exponents_p(psi.support(), 1, ramification=psi.ramification[0])
        assert (ess.entries, ess.complete) == (ref.entries, ref.complete), psi
