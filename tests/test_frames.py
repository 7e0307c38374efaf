"""The frame bookkeeping of every inversion, done in integers, against the
Fraction versions kept in oracles.py: the diagonal re-frame and its
precision, the unit-frame lattices built straight in canonical form, the
rescaled essential sequences, the dominating profile read off the keys and
the unit precision N.  Every comparison is exact."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from builders import random_exponent
from oracles import (
    _required_unit_precision as required_unit_precision_reference,
    _rescale_sequence as rescale_sequence_reference,
    _unit_frame_lattice as unit_frame_lattice_reference,
    dominating_profile_reference,
    reframe_reference,
)
from puiseux import INF, Lattice, PuiseuxError, PuiseuxSeries
from puiseux.exponents import essential_of_series
from puiseux.inversion import _dominating_profile, _required_unit_precision, _rescale_sequence
from puiseux.series import _reframe_prec

DIAGONAL_ENTRIES = (1, 2, 3, 6, F(1), F(2), F(1, 2), F(1, 3), F(2, 3), F(3, 2))


def _random_series(rng, h, exact):
    terms = {random_exponent(rng, h, (1, 2, 3, 4), max_num=8): rng.choice((1, -2, F(1, 3)))
             for _ in range(rng.randrange(1, 7))}
    precision = INF if exact else F(rng.randrange(1, 14), rng.choice((1, 2, 3)))
    return PuiseuxSeries(h, terms, precision)


def _same(got, want):
    assert got == want and got.ramification == want.ramification
    assert type(got.precision) is type(want.precision)
    assert (got.precision is INF) == (want.precision is INF)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_reframe_matches_the_fraction_reference(h):
    rng = random.Random(1700 + h)
    seen = set()
    for _ in range(300):
        s = _random_series(rng, h, exact=rng.random() < 0.25)
        diagonal = [rng.choice(DIAGONAL_ENTRIES) for _ in range(h)]
        if rng.random() < 0.3:
            diagonal = [diagonal[0]] * h
        shift = rng.choice((0, 0, 2, -1, 3))
        moved = reframe_reference(s, diagonal, shift).precision
        caps = [INF, math.inf, float("inf"), 0, F(0), rng.randrange(0, 12)]
        if moved is not INF:
            caps += [moved, moved - F(1, 2), moved + 1]
        cap = rng.choice(caps)
        _same(s._reframe(diagonal, shift).truncate(cap), reframe_reference(s, diagonal, shift, cap))
        assert _reframe_prec(s.precision, diagonal, shift) == moved
        kind = "exact" if s.precision is INF else (
            "below" if cap != INF and cap < moved else "at" if cap == moved else "above")
        seen.add((kind, type(diagonal[0]), s.ramification != (1,) * h))
    assert {k for k, _, _ in seen} == {"exact", "below", "at", "above"}
    assert {t for _, t, _ in seen} == {int, F}
    assert {r for _, _, r in seen} == {True, False}


def test_truncate_refuses_a_float_cap_as_the_reference_does():
    s = PuiseuxSeries(1, {(F(1, 2),): 1}, F(5))
    with pytest.raises(PuiseuxError, match="inexact float"):
        s._reframe([2]).truncate(2.5)
    with pytest.raises(PuiseuxError, match="inexact float"):
        reframe_reference(s, [2], 0, 2.5)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_scaled_axes_is_the_canonical_form_of_its_diagonal(h):
    rng = random.Random(1710 + h)
    values = [0, 1, 2, 5, -3, F(1, 2), F(-2, 3), F(7, 4), F(5, 6), F(1, 12), F(9, 10)]
    kinds = set()
    for _ in range(400):
        scales = [rng.choice(values) for _ in range(h)]
        got = Lattice.scaled_axes(h, scales)
        want = Lattice(h, [[s if i == j else 0 for j in range(h)] for i, s in enumerate(scales)])
        assert (got.scale, got.rows, got._by_pivot) == (want.scale, want.rows, want._by_pivot)
        assert got.rank == sum(1 for s in scales if s)
        kinds.add(min(scales) > 0)
    assert kinds == {True, False}


@pytest.mark.parametrize("h", [1, 2, 3])
def test_unit_frame_sequences_rescale_as_the_fraction_reference(h):
    rng = random.Random(1720 + h)
    for _ in range(80):
        terms = {tuple(F(rng.randrange(0, 9)) for _ in range(h)): 1
                 for _ in range(rng.randrange(1, 8))}
        s = PuiseuxSeries(h, terms, rng.choice((INF, F(rng.randrange(4, 12)))))
        if s.is_zero():
            continue
        first = rng.randrange(1, 7)
        lattice = Lattice.scaled_axes(h, [first] + [1] * (h - 1))
        assert lattice == unit_frame_lattice_reference(h, first)
        seq = essential_of_series(s, lattice)
        divisors = [rng.randrange(1, 7) for _ in range(h)]
        got = _rescale_sequence(seq, first, divisors)
        want = rescale_sequence_reference(seq, divisors)
        assert got == want and got.to_json() == want.to_json()
        assert got.relative_to._by_pivot == want.relative_to._by_pivot


@pytest.mark.parametrize("h", [1, 2, 3])
def test_dominating_profile_reads_the_keys(h):
    rng = random.Random(1730 + h)
    outcomes = set()
    for _ in range(200):
        s = _random_series(rng, h, exact=rng.random() < 0.5)
        if rng.random() < 0.5 and not s.is_zero():
            low = min(e[0] for e in s.support())
            head = (low if low > 0 else F(1, 2),) + (F(0),) * (h - 1)
            s = s + PuiseuxSeries(h, {head: 3}, s.precision)
        try:
            want = dominating_profile_reference(s)
        except PuiseuxError as exc:
            with pytest.raises(type(exc)) as got:
                _dominating_profile(s)
            assert str(got.value) == str(exc)
            outcomes.add("refused")
        else:
            assert _dominating_profile(s) == want
            outcomes.add("dominating")
    assert outcomes == {"refused", "dominating"}
    for s in (PuiseuxSeries.zero(h), PuiseuxSeries.one(h)):
        with pytest.raises(PuiseuxError) as want:
            dominating_profile_reference(s)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            _dominating_profile(s)


def test_required_unit_precision_matches_the_fraction_rule():
    rng = random.Random(1740)
    targets = [INF, math.inf, 0, 1, 7, F(1, 100), F(5, 3), "5/2", F(2, 7)]
    for _ in range(200):
        target = rng.choice(targets)
        m1 = rng.randrange(1, 9)
        n = tuple(rng.randrange(1, 9) for _ in range(rng.randrange(1, 4)))
        got = _required_unit_precision(target, m1, n)
        want = required_unit_precision_reference(target, m1, n)
        assert got == want and type(got) is type(want), (target, m1, n)
        assert (got is INF) == (want is INF)
