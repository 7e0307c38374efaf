"""Combinatorics of supports: irreducible elements, semigroup membership,
essential sequences and characteristic exponents.

All functions accept sets whose elements are either Fractions (one variable)
or tuples of Fractions; results keep the shape of the input.

Irreducible elements come from one walk over S's distinct nonzero points on
the integer grid of its per-coordinate lcm denominators, where a series'
keys already lie, in increasing degree, the sum of the coordinates.  Every
summand of a point has a smaller degree, so a point is reducible exactly
when it lies in the monoid of the irreducible points before it.  One
membership memo serves the whole walk: it is asked only about points of
smaller degree than the current one, which no later irreducible point can
reach, so no answer changes and every grid point is expanded at most once.
semigroup_member_oracle descends from its target, one generator per layer.
Both map exponents to the grid by one integer rule and refuse negative
generators before any work.  The walk charges core.charge STEP for each
point its memo settles and STEP for each generator its search tries, and
the descent STEP times each layer times its steps, so either is
refused past the one limit core.MAX_WORK, at 0.03-0.07 us a unit on a
2-vCPU host (CHANGES.md).

An essential sequence is one walk on one integer grid (1/D)Z^h, D the lcm of
the lattice's scale and the denominators N_i of S and the ramification.
Each exponent becomes an integer point once, and the points are sorted
once, a non-lex order ranking them by integer dot products with its
integer rows.  The joined lattice is kept as integer echelon rows (in one
variable, the gcd of its generators): a point they contain is skipped, and
any other is the next entry, inserted by the elimination that tested it,
core._echelon_reduce.  The walk stops, complete, once the rows hold every
ramification point (D/N_i) e_i, and with them all of S.  The only Fraction
vectors are the entries returned: elements of S, or, in essential_of_series,
which walks a series' keys, one per kept key.  characteristic_exponents
reads the keys too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .core import (
    STEP,
    AdditiveOrder,
    Lattice,
    PuiseuxError,
    Vec,
    _echelon_reduce,
    as_vec,
    charge,
    fmt_vec,
    json_fields,
    json_shape,
    positive_int,
)

_IRREDUCIBLE = "the irreducible walk"


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


def _admit(steps) -> None:
    """Refuse nonzero generator points steps with a negative coordinate."""
    if any(c < 0 for g in steps for c in g):
        raise PuiseuxError("semigroup generators must have non-negative exponents")


def _grid_points(vecs: list[Vec]) -> list[tuple[int, ...]]:
    """The exponents vecs as integer points, in order, on the grid of their
    per-coordinate lcm denominators: numerator * (scale // denominator)."""
    scale = [math.lcm(*(c.denominator for c in col)) for col in zip(*vecs)]
    return [tuple([c.numerator * (s // c.denominator) for c, s in zip(v, scale)]) for v in vecs]


def _irreducible_points(points) -> set:
    """The irreducible elements of distinct integer points: the origin when
    it is there, and every nonzero point that is no sum of two or more
    nonzero points.  A series' keys lie on the grid of its support's lcm
    denominators, so they pass as they are.  Raises PuiseuxError on a
    negative coordinate or once the walk's charge passes MAX_WORK."""
    nonzero = [x for x in points if any(x)]
    if not nonzero:
        return set(points)
    _admit(nonzero)
    nonzero.sort(key=sum)
    found, spent = [], 0
    member = {(0,) * len(nonzero[0]): True}
    for x in nonzero:
        reducible, spent = _in_monoid(x, found, member, spent)
        if not reducible:
            found.append(x)
        member[x] = True
    return set(found).union(x for x in points if not any(x))


def _in_monoid(x, gens, member, spent) -> tuple[bool, int]:
    """(is x a sum of gens, the origin being the empty sum?, the walk's
    units after it): a depth-first search over x minus a generator,
    iterative, that records every point it settles in member.  Each point
    it pushes, x too, is settled once and charged STEP, and each generator
    it tries STEP, checked against the limit at each push and at the end."""
    stack, spent = [(x, iter(gens))], charge(spent + STEP, _IRREDUCIBLE)
    while stack:
        y, untried = stack[-1]
        for g in untried:
            spent += STEP
            z = tuple(map(sub, y, g))
            if min(z) < 0:
                continue
            known = member.get(z)
            if known is None:
                spent = charge(spent + STEP, _IRREDUCIBLE)
                stack.append((z, iter(gens)))
                break
            if known:
                # every point on the stack is z plus generators
                for w, _ in stack:
                    member[w] = True
                return True, charge(spent, _IRREDUCIBLE)
        else:
            member[y] = False
            stack.pop()
    return False, charge(spent, _IRREDUCIBLE)


def irreducible_exponents(S):
    """The elements of S that are not sums of two or more nonzero elements
    of S, found by one walk over S's grid points in increasing degree, each
    point tested against the monoid of the irreducible points before it.
    Exact on truncated supports: any summand of r has total sum at most that
    of r, so truncation below a bound cannot hide decompositions.  Raises
    PuiseuxError on negative exponents or once the walk's charge passes
    MAX_WORK.
    """
    vecs, scalar = _normalize_set(S)
    distinct = list(set(vecs))
    points = dict(zip(_grid_points(distinct), distinct))
    result = {points[x] for x in _irreducible_points(points)}
    if scalar:
        return {v[0] for v in result}
    return result


def semigroup_member_oracle(S, v, max_terms: int) -> bool:
    """True iff v is a sum of between 1 and max_terms nonzero elements of S,
    found by a layered descent from v on the grid of S and v: layer k holds
    the points v minus k generators, each grid point is visited once, and
    the descent stops at the origin or after max_terms layers.  Raises
    PuiseuxError on negative generators or once the descent's charge passes
    MAX_WORK."""
    vecs, _ = _normalize_set(S)
    v = as_vec(v, len(vecs[0]) if vecs else None)
    top, *points = _grid_points([v, *vecs])
    steps = {g for g in points if any(g)}
    _admit(steps)
    seen, layer, origin, spent = {top}, {top}, (0,) * len(top), 0
    for _ in range(max_terms):
        spent = charge(spent + STEP * len(layer) * len(steps), "the semigroup descent")
        # a point first met in layer k is a sum of no fewer than k generators
        layer = {y for x in layer for g in steps if min(y := tuple(map(sub, x, g))) >= 0} - seen
        if origin in layer or not layer:
            return origin in layer
        seen |= layer
    return False


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
        what = "essential sequence JSON"
        keys = ("entries", "lattice", "order", "complete")
        entries, lattice, order, complete = json_fields(data, keys, what)
        lattice, order = Lattice.from_json(lattice), AdditiveOrder.from_json(order)
        if order.dim != lattice.dim:
            raise PuiseuxError(f"{what} order has dimension {order.dim}, its lattice {lattice.dim}")
        entries = tuple(as_vec(e, lattice.dim) for e in json_shape(entries, list, f"{what} entries"))
        complete = json_shape(complete, bool, f"{what} complete")
        return cls(entries, lattice, order, complete)


def exponent_to_json(e: Vec):
    """One variable: a bare rational string; several: an array of them."""
    if len(e) == 1:
        return str(e[0])
    return [str(c) for c in e]


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
    return _essential(_normalize_set(S)[0], lattice, order, ramification)


def _essential(vecs, lattice, order, ramification) -> EssentialSequence:
    """essential_exponents of exponent vectors, each made a point once."""
    if not vecs:
        raise PuiseuxError("essential sequence of an empty set")
    denoms = [math.lcm(*[c.denominator for c in col]) for col in zip(*vecs)]
    grid, denoms = _walk_grid(denoms, lattice, order, ramification)
    points = [[c.numerator * (grid // c.denominator) for c in v] for v in vecs]
    rows = order._rows
    ranks = points if rows is None else [[sum(map(mul, r, x)) for r in rows] for x in points]
    walk = [(i, points[i]) for i in sorted(range(len(points)), key=ranks.__getitem__)]
    kept, complete = _essential_walk(walk, grid, denoms, lattice)
    return EssentialSequence(tuple([vecs[i] for i in kept]), lattice, order, complete)


def _walk_grid(denoms, lattice, order, ramification):
    """Check the walk's parameters against S's per-coordinate denominators
    denoms; returns the grid D and the N_i."""
    dim = len(denoms)
    if lattice.dim != dim:
        raise PuiseuxError("lattice dimension does not match the exponents")
    if order.dim != dim:
        raise PuiseuxError("order dimension does not match the exponents")
    if not order.dominating:
        raise PuiseuxError("essential sequences need an order dominating Q^h_+")
    if ramification is not None:
        if len(ramification) != dim:
            raise PuiseuxError("ramification must give one denominator per variable")
        for n in ramification:
            positive_int(n, "ramification")
        denoms = list(map(math.lcm, denoms, ramification))
    # One grid (1/D)Z^h holds S, the lattice and the ramification lattice
    # prod (1/N_i)Z, whose generators are the points (D/N_i) e_i.
    return math.lcm(lattice.scale, *denoms), denoms


def _essential_walk(walk, grid, denoms, lattice):
    """The walk over S as (position, integer point on (1/grid)Z^h) pairs in
    increasing order, whose points it consumes.  Returns the positions of
    the entries, in order, and whether the sequence is complete."""
    dim, rows, kept = len(denoms), lattice._grid_rows(grid), []
    if dim == 1:
        # the rows are gZ (g = 0 for the zero lattice), which holds x when
        # g divides it, and the ramification point top once g divides top
        (g,), top = rows[0] or [0], grid // denoms[0]
        for i, (x,) in walk:
            if not kept or (x % g if g else x):
                kept.append(i)
                g = math.gcd(g, x)
                if g and top % g == 0:
                    return kept, True
        return kept, False
    pending = [[grid // n if j == i else 0 for j in range(dim)] for i, n in enumerate(denoms)]
    # The joined lattice only grows, so one walk in increasing order finds
    # the greedy sequence: an element is the next entry exactly when the
    # current rows miss it, and inserting it is the same elimination.  Once
    # the rows hold every ramification point they hold every element of S,
    # and the walk stops.
    for i, point in walk:
        if _echelon_reduce(rows, point, True) and kept:
            continue
        kept.append(i)
        pending = [p for p in pending if not _echelon_reduce(rows, p[:], False)]
        if not pending:
            break
    return kept, not pending


def essential_exponents_p(S, p: int, ramification=None) -> EssentialSequence:
    """One-variable essential sequence relative to the integer p (lattice pZ).
    Raises PuiseuxError unless p and the ramification are positive integers."""
    positive_int(p, "p")
    vecs = [as_vec(v, 1) for v in S]
    ram = None if ramification is None else (ramification,)
    return _essential(vecs, Lattice._diagonal(1, 1, ((p,),)), AdditiveOrder.lex(1), ram)


def essential_of_series(series, lattice=None, order=None) -> EssentialSequence:
    """Essential sequence of a series' support, default lattice Z^h, order
    lex, relative to the series' ramification.  The walk takes the series'
    integer keys, and only its entries become Fraction vectors."""
    if series.is_zero():
        raise PuiseuxError("essential sequence of an empty set")
    h = series.num_vars
    lattice = lattice if lattice is not None else Lattice.standard(h)
    order = order if order is not None else AdditiveOrder.lex(h)
    n = series.ramification
    grid, denoms = _walk_grid(n, lattice, order, None)
    factors = [grid // d for d in n]
    # a key g ranks as the point g*factors; it becomes that point only when
    # the walk, which often stops early, reaches it
    rows = order._rows and [list(map(mul, r, factors)) for r in order._rows]
    keys = sorted(series._keys, key=rows and (lambda g: [sum(map(mul, r, g)) for r in rows]))
    walk = ((i, list(map(mul, g, factors))) for i, g in enumerate(keys))
    kept, complete = _essential_walk(walk, grid, denoms, lattice)
    entries = tuple([series._vec(keys[i]) for i in kept])
    return EssentialSequence(entries, lattice, order, complete)


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
    # the key g is the exponent g/n of denominator d = n/gcd(g, n)
    (n,), entries, m = psi.ramification, [], 1
    for (g,) in sorted(psi._keys):
        d = n // math.gcd(g, n)
        if m % d:
            entries.append(Fraction(g, n))
        m = math.lcm(m, d)
    ess = essential_of_series(psi)
    transformed = tuple(e[0] for e in drop_integral_head(ess))
    if tuple(entries) != transformed:
        raise PuiseuxError(
            f"characteristic exponents {fmt_vec(tuple(entries))} disagree with "
            f"the essential sequence relative to 1, {fmt_vec(transformed)}"
        )
    return CharacteristicSequence(tuple(entries), ess.complete)
