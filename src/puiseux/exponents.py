"""Combinatorics of supports: irreducible elements, semigroup membership,
essential sequences and characteristic exponents.

All functions accept sets whose elements are either Fractions (one variable)
or tuples of Fractions; results keep the shape of the input.

Irreducibility and semigroup membership are read off one table.  The
exponents are scaled to the integer grid of their per-coordinate lcm
denominators; the points reachable downward from the targets by subtracting
nonzero generators are collected, and fewest[x], the least number of
generators summing to x, is filled in increasing total degree.  Every point
reached tries every nonzero generator, so the work is bounded by the grid box
below the targets, prod_i (max_i * scale_i + 1) points, times the number of
distinct nonzero generators; a bound above GRID_LIMIT raises PuiseuxError
before any work starts.

An essential sequence is one walk on one integer grid (1/D)Z^h, D the lcm of
the lattice's scale and the denominators N_i that S and the declared
ramification give.  S, the lattice's Hermite rows and the ramification
points (D/N_i) e_i are mapped to integer vectors once, and S is sorted once
by the order.  The joined lattice is kept as integer echelon rows, never
rebuilt: a point the rows contain is skipped, and any other point becomes
the next entry (the element of S itself is returned) and is inserted by one
elimination pass, core._echelon_reduce, which also does the membership test.
The sequence is complete, and the walk stops, once every ramification point
is a member of the rows: then they hold every element of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .core import (
    AdditiveOrder,
    Lattice,
    PuiseuxError,
    Vec,
    _echelon_reduce,
    as_vec,
    fmt_vec,
    rat,
)

# Largest work bound, grid-box points times nonzero generators, that the
# exponent table may take on: about 1.5-2 us per unit.  A full 10^5-point box
# with 10 generators (10^6) takes 1.5-1.9 s, and with 40 it took 4-5 s before
# this bound refused it (Python 3.11, 2-vCPU host), at under 45 MB peak RSS.
GRID_LIMIT = 10**6


def _normalize_set(S) -> tuple[list[Vec], bool]:
    """Returns (vectors, scalar_input)."""
    items = list(S)
    if not items:
        return [], False
    scalar = not isinstance(items[0], tuple)
    vecs = [as_vec(v) for v in items]
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise PuiseuxError("mixed dimensions in exponent set")
    return vecs, scalar


def _fewest_terms(gens: list[Vec], targets: list[Vec]):
    """The exponent table.  Returns (fewest, to_grid): to_grid maps an
    exponent to its integer grid point, and fewest maps every grid point that
    is reachable downward from a target and is a sum of nonzero generators to
    the least number of them (the origin to 0).  Iterative throughout."""
    if any(c < 0 for g in gens for c in g):
        raise PuiseuxError("semigroup generators must have non-negative exponents")
    dim = len(targets[0])
    scale = [
        math.lcm(*(v[i].denominator for v in gens + targets)) for i in range(dim)
    ]

    def to_grid(v: Vec) -> tuple[int, ...]:
        return tuple(int(c * s) for c, s in zip(v, scale))

    tops = [to_grid(t) for t in targets]
    box = math.prod(max([0] + [t[i] for t in tops]) + 1 for i in range(dim))
    steps = {g for g in map(to_grid, gens) if any(g)}
    if box * len(steps) > GRID_LIMIT:
        raise PuiseuxError(
            f"exponent grid box of {box} points times {len(steps)} nonzero "
            f"generators exceeds the limit of {GRID_LIMIT}"
        )
    down = set(tops)
    stack = list(down)
    while stack:
        x = stack.pop()
        for g in steps:
            y = tuple(map(sub, x, g))
            if y not in down and min(y) >= 0:
                down.add(y)
                stack.append(y)
    fewest = {(0,) * dim: 0}
    for x in sorted(down, key=sum):
        below = (tuple(map(sub, x, g)) for g in steps)
        counts = [fewest[y] for y in below if y in fewest]
        if counts:
            fewest[x] = min(counts) + 1
    return fewest, to_grid


def irreducible_exponents(S):
    """The elements of S that are not sums of two or more nonzero elements
    of S.  A nonzero r is reducible exactly when r - g has an entry in the
    exponent table for some nonzero g != r in S.  Exact on truncated
    supports: any summand of r has total sum at most that of r, so
    truncation below a bound cannot hide decompositions.  Raises PuiseuxError
    on negative exponents or a work bound above GRID_LIMIT.
    """
    vecs, scalar = _normalize_set(S)
    nonzero = list({v for v in vecs if any(v)})
    result = set(vecs) - set(nonzero)
    if nonzero:
        fewest, to_grid = _fewest_terms(nonzero, nonzero)
        grid = [to_grid(v) for v in nonzero]
        for r, x in zip(nonzero, grid):
            if not any(g != x and tuple(map(sub, x, g)) in fewest for g in grid):
                result.add(r)
    if scalar:
        return {v[0] for v in result}
    return result


def semigroup_member_oracle(S, v, max_terms: int) -> bool:
    """True iff v is a sum of between 1 and max_terms nonzero elements of S,
    that is 1 <= fewest[v] <= max_terms in the exponent table.  Raises
    PuiseuxError on negative generators or a work bound above GRID_LIMIT."""
    vecs, _ = _normalize_set(S)
    v = as_vec(v, len(vecs[0]) if vecs else None)
    fewest, to_grid = _fewest_terms(vecs, [v])
    return 1 <= fewest.get(to_grid(v), 0) <= max_terms


@dataclass(frozen=True)
class EssentialSequence:
    entries: tuple[Vec, ...]
    relative_to: Lattice
    order: AdditiveOrder
    complete: bool

    @property
    def scalars(self) -> tuple[Fraction, ...]:
        if any(len(e) != 1 for e in self.entries):
            raise PuiseuxError("scalars only available for one-variable sequences")
        return tuple(e[0] for e in self.entries)

    def joined_lattice(self) -> Lattice:
        return self.relative_to.join(self.entries)

    def to_json(self) -> dict:
        return {
            "entries": [exponent_to_json(e) for e in self.entries],
            "lattice": self.relative_to.to_json(),
            "order": self.order.to_json(),
            "complete": self.complete,
        }

    @classmethod
    def from_json(cls, data: dict) -> "EssentialSequence":
        return cls(
            tuple(exponent_from_json(e) for e in data["entries"]),
            Lattice.from_json(data["lattice"]),
            AdditiveOrder.from_json(data["order"]),
            bool(data["complete"]),
        )


def exponent_to_json(e: Vec):
    """One variable: a bare rational string; several: an array of them."""
    if len(e) == 1:
        return str(e[0])
    return [str(c) for c in e]


def exponent_from_json(data) -> Vec:
    if isinstance(data, str):
        return (Fraction(data),)
    return tuple(Fraction(c) for c in data)


def _positive_integer(x, what: str) -> int:
    """x as a positive int; a PuiseuxError naming x otherwise."""
    if isinstance(x, int) and x > 0:
        return x
    try:
        n = rat(x)
    except (TypeError, ValueError):
        n = None
    if n is None or n.denominator != 1 or n <= 0:
        raise PuiseuxError(f"{what} must be a positive integer, got {x!r}")
    return n.numerator


def essential_exponents(
    S, lattice: Lattice, order: AdditiveOrder, ramification=None
) -> EssentialSequence:
    """The greedy sequence of order-minimal elements of S, each lying outside
    the lattice joined with its predecessors.

    The sequence is flagged complete when the terminal joined lattice
    contains the ramification lattice prod (1/N_i)Z, where N_i combines the
    caller-declared ramification with the denominators seen in S; then no
    element of any support with those denominators can extend the sequence.
    Raises PuiseuxError unless every declared N_i is a positive integer.
    """
    vecs, _ = _normalize_set(S)
    if not vecs:
        raise PuiseuxError("essential sequence of an empty set")
    dim = len(vecs[0])
    if lattice.dim != dim:
        raise PuiseuxError("lattice dimension does not match the exponents")
    if order.dim != dim:
        raise PuiseuxError("order dimension does not match the exponents")
    if not order.dominating:
        raise PuiseuxError("essential sequences need an order dominating Q^h_+")

    denoms = [math.lcm(*(v[i].denominator for v in vecs)) for i in range(dim)]
    if ramification is not None:
        if len(ramification) != dim:
            raise PuiseuxError("ramification must give one denominator per variable")
        denoms = [
            math.lcm(d, _positive_integer(n, "ramification"))
            for d, n in zip(denoms, ramification)
        ]
    # One grid (1/D)Z^h holds S, the lattice and the ramification lattice
    # prod (1/N_i)Z, whose generators are the points (D/N_i) e_i.
    grid = math.lcm(lattice.scale, *denoms)
    points = [[c.numerator * (grid // c.denominator) for c in v] for v in vecs]
    pending = [[grid // n if j == i else 0 for j in range(dim)] for i, n in enumerate(denoms)]
    rows = lattice._grid_rows(grid)
    walk = sorted(range(len(vecs)), key=lambda i: order.key(vecs[i]))

    # The joined lattice only grows, so one walk in increasing order finds
    # the greedy sequence: an element is the next entry exactly when the
    # current rows miss it, and inserting it is the same elimination.  Once
    # the rows hold every ramification point they hold every element of S,
    # and the walk stops.
    entries = []
    for i in walk:
        if _echelon_reduce(rows, points[i], True) and entries:
            continue
        entries.append(vecs[i])
        pending = [p for p in pending if not _echelon_reduce(rows, p[:], False)]
        if not pending:
            break
    return EssentialSequence(tuple(entries), lattice, order, not pending)


def essential_exponents_p(S, p: int, ramification=None) -> EssentialSequence:
    """One-variable essential sequence relative to the integer p (lattice pZ).
    Raises PuiseuxError unless p and the ramification are positive integers."""
    p = _positive_integer(p, "p")
    vecs = [as_vec(v, 1) for v in S]
    ram = None if ramification is None else (ramification,)
    return essential_exponents(
        vecs, Lattice(1, [(Fraction(p),)]), AdditiveOrder.lex(1), ram
    )


def essential_of_series(series, lattice=None, order=None) -> EssentialSequence:
    """Essential sequence of a series' support, default lattice Z^h, order lex."""
    h = series.num_vars
    lattice = lattice if lattice is not None else Lattice.standard(h)
    order = order if order is not None else AdditiveOrder.lex(h)
    return essential_exponents(
        series.support(), lattice, order, ramification=series.ramification
    )


@dataclass(frozen=True)
class CharacteristicSequence:
    entries: tuple[Fraction, ...]
    complete: bool

    def to_json(self) -> dict:
        return {"entries": [str(e) for e in self.entries], "complete": self.complete}


def drop_integral_head(seq: EssentialSequence) -> tuple[Vec, ...]:
    """Characteristic candidates from an essential sequence relative to Z^h:
    keep the head exactly when it is not integral."""
    if not seq.entries:
        return ()
    head = seq.entries[0]
    if all(c.denominator == 1 for c in head):
        return seq.entries[1:]
    return seq.entries


def characteristic_exponents(psi) -> CharacteristicSequence:
    """Characteristic exponents of a one-variable series: support elements
    whose denominator exceeds the lcm denominator of all earlier support.

    Cross-checked against the essential sequence relative to 1 with its
    integral head dropped; the two constructions provably agree.
    """
    if psi.num_vars != 1:
        raise PuiseuxError("characteristic exponents are defined for one variable")
    if psi.is_zero():
        raise PuiseuxError("characteristic exponents of the zero series")
    if psi.constant_term() != 0:
        raise PuiseuxError("characteristic exponents need a zero constant term")
    support = sorted(e[0] for e in psi.support())
    entries = []
    n = 1
    for l in support:
        if (n * l).denominator != 1:
            entries.append(l)
        n = math.lcm(n, l.denominator)
    ess = essential_exponents_p(psi.support(), 1, ramification=psi.ramification[0])
    transformed = tuple(e[0] for e in drop_integral_head(ess))
    if tuple(entries) != transformed:
        raise PuiseuxError(
            f"characteristic exponents {fmt_vec(tuple(entries))} disagree with "
            f"the essential sequence relative to 1, {fmt_vec(transformed)}"
        )
    return CharacteristicSequence(tuple(entries), ess.complete)
