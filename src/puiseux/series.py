"""Truncated Newton-Puiseux series with exact rational coefficients.

A series in h variables is a finite map from exponent vectors to nonzero
rational coefficients, together with a precision bound T: terms whose total
exponent sum exceeds T are unknown.  T = math.inf marks an exactly known
(polynomial) series.

The i-th coordinate of every exponent lies in (1/n_i)Z where (n_1,...,n_h)
is the ramification vector, the least such grid.  Terms are stored on that
grid alone: the exponent e is the integer key g with g_i = e_i*n_i, graded by
the integer total degree T(g) = sum g_i*(L/n_i) = L*total(e), L = lcm(n_i).
Every construction divides the grid by the per-coordinate gcd of the keys,
so the ramification stays primitive.  Fraction tuples appear only in terms,
support, sorted_terms, coefficient and error messages.  Text and JSON read
and write keys: parse and from_json carry each exponent p/q as an int pair,
take the grid as the lcm of the q and build one Fraction per coefficient,
and format_series and to_json write each exponent from its key, reduced by
one gcd.

Powers and duals run in the one kernel, _key_walk, in any number of
variables; it charges core.charge the work it does, as its
docstring states, under the one limit core.MAX_WORK: 0.03-0.11 us a unit on
a 2-vCPU host (CHANGES.md).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from fractions import Fraction

from .core import (
    STEP,
    DimensionError,
    PuiseuxError,
    Vec,
    _cleared,
    as_vec,
    charge,
    fmt_power,
    fmt_vec,
    is_int,
    json_fields,
    json_shape,
    mat_det,
    mat_from,
    positive_int,
    rat,
    rational_power,
    total,
)

INF = math.inf
# precision of parse without a marker or argument, and of the CLI without one
DEFAULT_PRECISION = Fraction(10)
_ZERO = Fraction(0)  # the coefficient of an exponent outside the support
_POWER, _DUAL = "the power recurrence", "the dual"
_MUL, _PRODUCT = "the product", "the power by products"


class ParseError(PuiseuxError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PrecisionError(PuiseuxError):
    pass


def _norm_prec(p):
    """Map any way of saying 'infinite' to the one INF object; fractions
    otherwise, so identity checks against INF stay valid internally."""
    if type(p) is Fraction:
        return p
    if p == INF:
        return INF
    return rat(p)


def _add_prec(a, b):
    if a is INF or b is INF:
        return INF
    return a + b


def _reframe_prec(precision, diagonal, shift=0):
    """The precision of PuiseuxSeries._reframe: that of
    monomial_substitute by diag(d), min(d)*T (for any matrix, d its column
    sums: the largest bound up to which the image is fully determined), then
    of a shift of total degree shift; min(d)*T + shift is one Fraction built
    from integers."""
    if precision is not INF:
        d, t, s = min(diagonal), precision, shift
        den = d.denominator * t.denominator
        num = d.numerator * t.numerator * s.denominator + s.numerator * den
        precision = Fraction(num, den * s.denominator)
    return precision


def _grading(grid):
    """L = lcm(grid) and the weights L/n_i of the integer total degree."""
    lcm_all = math.lcm(*grid)
    return lcm_all, tuple(lcm_all // n for n in grid)


def _degree(key, weights) -> int:
    return sum(map(operator.mul, key, weights))


def _cut(keys, grid, precision) -> dict:
    """keys without zero coefficients and keys of degree above
    precision*L on grid: what a construction that can make either drops
    before _store."""
    if precision is INF:
        return {g: c for g, c in keys.items() if c}
    lcm_all, weights = _grading(grid)
    cutoff = precision.numerator * lcm_all // precision.denominator
    return {g: c for g, c in keys.items() if c and _degree(g, weights) <= cutoff}


def _frame(num_vars, precision, laurent):
    """The precision of a new series in num_vars variables, normalised,
    after the checks every construction from terms makes."""
    if not is_int(num_vars):
        raise PuiseuxError(f"the number of variables must be an integer, got {num_vars!r}")
    if num_vars < 1:
        raise DimensionError("a series needs at least one variable")
    precision = _norm_prec(precision)
    if laurent and num_vars != 1:
        raise PuiseuxError("Laurent support is restricted to one variable")
    return precision


def _pair_keys(terms, num_vars, precision):
    """(keys, grid) of terms (exponent, (a, b)), each exponent num_vars int
    pairs (p, q) with q > 0 and each coefficient a/b != 0.  The grid is the
    lcm G of every q in every coordinate, which _store reduces, and p/q has
    the key p*(G//q).  One Fraction is built per term, those of one key are
    summed, and keys whose sum is zero or whose degree passes precision are
    dropped."""
    grid = math.lcm(*(q for exp, _ in terms for _, q in exp))
    keys = {}
    for exp, (a, b) in terms:
        key = tuple([p * (grid // q) for p, q in exp])
        old = keys.get(key)
        keys[key] = Fraction(a, b) if old is None else old + Fraction(a, b)
    grid = (grid,) * num_vars
    return _cut(keys, grid, precision), grid


class PuiseuxSeries:
    __slots__ = ("num_vars", "_keys", "precision", "laurent", "ramification")

    def __init__(self, num_vars: int, terms, precision=INF, laurent: bool = False):
        precision = _frame(num_vars, precision, laurent)
        pairs = []
        for exp, coef in terms.items() if isinstance(terms, dict) else terms:
            exp = as_vec(exp, num_vars)
            coef = rat(coef)
            if coef == 0:
                continue
            if not laurent and any(c < 0 for c in exp):
                raise PuiseuxError(f"negative exponent {fmt_vec(exp)} in a non-Laurent series")
            pairs.append(([(x.numerator, x.denominator) for x in exp], (coef.numerator, coef.denominator)))
        self._store(*_pair_keys(pairs, num_vars, precision), precision, laurent)

    def _store(self, keys, grid, precision, laurent) -> None:
        """Set every field from integer keys on grid, which may be finer
        than the keys need, dividing the grid by the per-coordinate gcd of
        the keys.  The coefficients must be nonzero and the keys within
        precision: a construction that can break either cuts first."""
        divisors = [math.gcd(n, *(g[i] for g in keys)) if n > 1 else 1 for i, n in enumerate(grid)]
        if any(d > 1 for d in divisors):
            grid = tuple(n // d for n, d in zip(grid, divisors))
            keys = {tuple(map(operator.floordiv, g, divisors)): c for g, c in keys.items()}
        self.num_vars = len(grid)
        self._keys = keys
        self.precision = precision
        self.laurent = laurent
        self.ramification = grid

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_keys(cls, keys, grid, precision, laurent) -> "PuiseuxSeries":
        obj = object.__new__(cls)
        obj._store(keys, grid, precision, laurent)
        return obj

    @classmethod
    def zero(cls, num_vars: int, precision=INF) -> "PuiseuxSeries":
        return cls(num_vars, {}, precision)

    @classmethod
    def constant(cls, num_vars: int, value, precision=INF) -> "PuiseuxSeries":
        value = rat(value)
        precision = _frame(num_vars, precision, False)
        grid = (1,) * num_vars
        return cls._from_keys(_cut({(0,) * num_vars: value}, grid, precision), grid, precision, False)

    @classmethod
    def one(cls, num_vars: int, precision=INF) -> "PuiseuxSeries":
        return cls.constant(num_vars, 1, precision)

    @classmethod
    def monomial(cls, num_vars: int, exponent, coef=1, precision=INF, laurent=False) -> "PuiseuxSeries":
        return cls(num_vars, [(exponent, coef)], precision, laurent)

    # -- inspection ---------------------------------------------------------

    def _vec(self, key) -> Vec:
        return tuple(map(Fraction, key, self.ramification))

    def _keys_on(self, grid) -> dict:
        """The keys on grid, a multiple of the ramification."""
        if grid == self.ramification:
            return self._keys
        factors = [m // n for m, n in zip(grid, self.ramification)]
        return {tuple(map(operator.mul, g, factors)): c for g, c in self._keys.items()}

    @property
    def terms(self) -> dict[Vec, Fraction]:
        """A fresh dict from exponent vectors to coefficients."""
        return {self._vec(g): c for g, c in self._keys.items()}

    def is_zero(self) -> bool:
        return not self._keys

    def support(self) -> set[Vec]:
        return {self._vec(g) for g in self._keys}

    def _sorted_keys(self) -> list:
        """The keys by total degree, then lexicographically."""
        _, weights = _grading(self.ramification)
        return sorted(self._keys, key=lambda g: (_degree(g, weights), g))

    def sorted_terms(self) -> list[tuple[Vec, Fraction]]:
        return [(self._vec(g), self._keys[g]) for g in self._sorted_keys()]

    def coefficient(self, exponent) -> Fraction:
        exp = as_vec(exponent, self.num_vars)
        if self.precision is not INF and total(exp) > self.precision:
            raise PrecisionError(
                f"coefficient at {exp} requested beyond precision {self.precision}"
            )
        # an integral Fraction hashes and compares like its int, and an
        # exponent off the grid gives a non-integral key that matches none
        return self._keys.get(tuple(x * n for x, n in zip(exp, self.ramification)), _ZERO)

    def constant_term(self) -> Fraction:
        return self._keys.get((0,) * self.num_vars, _ZERO)

    def order_total(self):
        """Least total exponent sum in the support; +inf for the zero series."""
        if not self._keys:
            return INF
        lcm_all, weights = _grading(self.ramification)
        return Fraction(min(_degree(g, weights) for g in self._keys), lcm_all)

    def _order_bound(self):
        # sound lower bound for the order, finite for truncated zero series
        return min(self.order_total(), self.precision)

    def min_exponent(self, order=None) -> Vec:
        """Least exponent, by total sum then lexicographically, or under a
        caller-supplied additive order."""
        if not self._keys:
            raise PuiseuxError("zero series has no minimal exponent")
        if order is not None:
            return order.min(self.support())
        return self.sorted_terms()[0][0]

    def dominating(self) -> tuple[Vec, Fraction]:
        e = self.min_exponent()
        return e, self.coefficient(e)

    # -- ring operations ----------------------------------------------------

    def _check_compat(self, other: "PuiseuxSeries") -> tuple[int, ...]:
        """The common grid of two series in the same number of variables."""
        if self.num_vars != other.num_vars:
            raise DimensionError("series have different numbers of variables")
        return tuple(map(math.lcm, self.ramification, other.ramification))

    def _operand(self, other):
        """The one rule for an operand of +, - and *: a series as it is, an int or a
        Fraction as the exact constant, anything else None (NotImplemented)."""
        if isinstance(other, (int, Fraction)):
            return PuiseuxSeries.constant(self.num_vars, other)
        return other if isinstance(other, PuiseuxSeries) else None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        grid = self._check_compat(other)
        prec = min(self.precision, other.precision)
        keys = dict(self._keys_on(grid))
        for g, c in other._keys_on(grid).items():
            v = keys.get(g)
            keys[g] = c if v is None else v + c
        keys = _cut(keys, grid, prec)
        return PuiseuxSeries._from_keys(keys, grid, prec, self.laurent or other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c) -> "PuiseuxSeries":
        c = rat(c)
        keys = {g: c * v for g, v in self._keys.items()} if c else {}
        return PuiseuxSeries._from_keys(keys, self.ramification, self.precision, self.laurent)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._operand(other)
        if other is None:
            return NotImplemented
        grid = self._check_compat(other)
        prec = min(
            _add_prec(self.precision, other._order_bound()),
            _add_prec(other.precision, self._order_bound()),
        )
        # convolve on the common integer grid (integer keys hash and add far
        # faster than Fraction tuples); each row of self reads the terms of
        # other up to the cutoff, charged 4 STEP a pair before it is read
        lcm_all, weights = _grading(grid)
        b_items = [(_degree(g, weights), g, c) for g, c in other._keys_on(grid).items()]
        b_items.sort(key=operator.itemgetter(0))
        b_degrees = [t for t, _, _ in b_items]
        cutoff = None if prec is INF else prec.numerator * lcm_all // prec.denominator
        raw: dict[tuple, Fraction] = {}
        spent = 0
        for e1, c1 in self._keys_on(grid).items():
            pairs = len(b_items)
            if cutoff is not None:
                pairs = bisect.bisect_right(b_degrees, cutoff - _degree(e1, weights))
            spent = charge(spent + 4 * STEP * pairs, _MUL)
            for _, e2, c2 in itertools.islice(b_items, pairs):
                e = tuple(map(operator.add, e1, e2))
                v = raw.get(e)
                raw[e] = c1 * c2 if v is None else v + c1 * c2
        # the scan stops at the cutoff, but sums can cancel
        raw = {e: c for e, c in raw.items() if c}
        return PuiseuxSeries._from_keys(raw, grid, prec, self.laurent or other.laurent)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self/c for an int or Fraction c, as scale(1/c)."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise PuiseuxError("division of a series by zero")
        return self.scale(Fraction(1, other))

    def shift(self, delta) -> "PuiseuxSeries":
        """Multiply by the monomial with exponent vector delta."""
        delta = as_vec(delta, self.num_vars)
        prec = _add_prec(self.precision, total(delta))
        grid = tuple(math.lcm(n, x.denominator) for n, x in zip(self.ramification, delta))
        step = tuple(x.numerator * (n // x.denominator) for x, n in zip(delta, grid))
        keys = {tuple(map(operator.add, g, step)): c for g, c in self._keys_on(grid).items()}
        laurent = self.laurent or any(x < 0 for g in keys for x in g)
        if laurent and self.num_vars != 1:
            raise PuiseuxError("a shift below zero requires a one-variable Laurent series")
        return PuiseuxSeries._from_keys(keys, grid, prec, laurent)

    def truncate(self, precision) -> "PuiseuxSeries":
        prec = min(self.precision, _norm_prec(precision))
        if prec is self.precision:
            # min keeps self.precision unless the cap is below it; series are
            # immutable, so an uncut one is its own truncation
            return self
        keys = _cut(self._keys, self.ramification, prec)
        return PuiseuxSeries._from_keys(keys, self.ramification, prec, self.laurent)

    # -- powers and roots ---------------------------------------------------

    def unit_power(self, r, constant_power=None) -> "PuiseuxSeries":
        """self**r for an invertible series (nonzero constant term) and any
        rational r, by J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2,
        §4.7): P = (self/self_0)**r has P_0 = 1 and

            D P_D = sum_{j=1..D} ((r+1) j - D) a_j P_(D-j),   a = self/self_0,

        graded by total degree, so each coefficient costs one pass over the
        terms of self.  The result keeps self's precision and Laurent flag.

        constant_power overrides self_0**r, which is needed when r is
        fractional and the constant term has no rational r-th power.
        """
        r = rat(r)
        c0 = self.constant_term()
        if c0 == 0:
            raise PuiseuxError("unit_power requires a nonzero constant term")
        constant_power = rational_power(c0, r) if constant_power is None else rat(constant_power)
        keys = {}
        if constant_power:
            s_num, s_den = constant_power.numerator, constant_power.denominator
            runs = _key_walk(self, r.numerator, r.denominator, 0)
            keys = {g: Fraction(num * s_num, common * s_den) for g, num, common in runs if num}
        return PuiseuxSeries._from_keys(keys, self.ramification, self.precision, self.laurent)

    def unit_root(self, m: int, root_of_constant) -> "PuiseuxSeries":
        """The unique m-th root whose constant term is root_of_constant."""
        positive_int(m, "root index m")
        root = rat(root_of_constant)
        c0 = self.constant_term()
        if c0 == 0:
            raise PuiseuxError("unit_root requires a nonzero constant term")
        if root**m != c0:
            raise PuiseuxError(
                f"claimed root {root} fails: {fmt_power(root, m)} = {root ** m} != {c0}"
            )
        return self.unit_power(Fraction(1, m), constant_power=root)

    def pow_int(self, n: int) -> "PuiseuxSeries":
        """self**n for an integer n, by one rule in any number of variables.

        When the least exponent lam, coordinate by coordinate, is a term of
        self (every unit, where lam = 0, every one-variable series and every
        dominating branch), the power is x^(n lam) times unit_power(n) of the
        unit self/x^lam, from Miller's recurrence: a Laurent series for
        negative n in one variable, exact for an exact series.  Otherwise
        only positive powers are defined, as n - 1 products, which together
        charge core.charge 4 STEP for each pair of terms they may multiply,
        beside each product's own charge.  For n > 0 both ways give the
        result and the precision of the n - 1 products.
        """
        if not is_int(n):
            raise PuiseuxError(f"n must be an integer, got {n!r}")
        if n == 0:
            return PuiseuxSeries.one(self.num_vars)
        if n < 0 and self.is_zero():
            raise PuiseuxError("negative power of the zero series")
        if n < 0 and self.num_vars > 1 and not self.constant_term():
            raise PuiseuxError("negative power needs a nonzero constant term when h > 1")
        lam = tuple(map(min, zip(*self._keys)))
        if lam in self._keys:
            if not any(lam):
                return self.unit_power(n)
            lam = self._vec(lam)
            return self.shift([-x for x in lam]).unit_power(n).shift([n * x for x in lam])
        power, spent = self, 0
        for _ in range(n - 1):
            spent = charge(spent + 4 * STEP * len(power._keys) * len(self._keys), _PRODUCT)
            power = power * self
        return power

    # -- substitution -------------------------------------------------------

    def monomial_substitute(self, matrix) -> "PuiseuxSeries":
        """Replace each exponent e by matrix·e (column action).

        The matrix must be invertible with non-negative rational entries and
        every image exponent must be non-negative.  Precision becomes c*T
        where c is the least column sum of the matrix, the largest bound up
        to which the image is fully determined.  Every matrix is one key map.
        """
        q = mat_from(matrix)
        if len(q) != self.num_vars or len(q[0]) != self.num_vars:
            raise DimensionError("substitution matrix has wrong shape")
        if any(c < 0 for row in q for c in row):
            raise PuiseuxError("substitution matrix must be non-negative")
        if mat_det(q) == 0:
            raise PuiseuxError("substitution matrix must be invertible")
        return self._substitute(q)

    def _substitute(self, q) -> "PuiseuxSeries":
        """monomial_substitute by a checked q, in integers: q = Q/t, one key
        map and _reframe_prec's rule at the least column sum for every q."""
        t, ints = _cleared(q)
        prec = _reframe_prec(self.precision, [Fraction(min(map(sum, zip(*ints))), t)])
        # the image key is a·g with a_ij = grid_i*q_ij/n_j, grid_i the least
        # denominator that makes row i integral: q_ij/n_j = Q_ij/(t*n_j) has
        # the denominator t*n_j/gcd(Q_ij, t*n_j)
        den = [t * n for n in self.ramification]
        grid = tuple(math.lcm(*[d // math.gcd(x, d) for x, d in zip(row, den)]) for row in ints)
        a = [[(j, x * m // d) for j, (x, d) in enumerate(zip(row, den)) if x] for row, m in zip(ints, grid)]
        keys = {
            tuple([sum([g[j] * x for j, x in row]) for row in a]): c
            for g, c in self._keys.items()
        }
        # a non-Laurent series has non-negative keys, and so do their images;
        # an invertible map keeps the keys distinct and in their order
        if self.laurent:
            for g, img in zip(self._keys, keys):
                if any(x < 0 for x in img):
                    raise PuiseuxError(
                        f"substitution sends {fmt_vec(self._vec(g))} to negative exponent "
                        f"{fmt_vec(tuple(map(Fraction, img, grid)))}"
                    )
        return PuiseuxSeries._from_keys(_cut(keys, grid, prec), grid, prec, False)

    def _reframe(self, diagonal, shift=0) -> "PuiseuxSeries":
        """self with every exponent e sent to (d1 e1 + shift, d2 e2, ...,
        dh eh): monomial_substitute by diag(d), then shift by shift*v1, as
        one construction, with the precision _reframe_prec gives.

        A diagonal map only relabels keys: with d_i/n_i = a_i/G_i in lowest
        terms (an int pair reduced by one gcd), n the grid of self, the key
        g becomes (a1 g1 + shift G1, a2 g2, ...) on the grid G, and (a1 g1
        + shift G1,) in one variable.  shift*G1 must be an integer and no
        image negative."""
        factors, grid = [], ()
        for d, n in zip(diagonal, self.ramification):
            a, b = d.numerator, d.denominator * n
            g = math.gcd(a, b)
            factors.append(a // g)
            grid += (b // g,)
        first, *rest = factors
        step, items = shift * grid[0], self._keys.items()
        if rest:
            keys = {(g[0] * first + step, *map(operator.mul, g[1:], rest)): c for g, c in items}
        else:
            keys = {(g * first + step,): c for (g,), c in items}
        prec = _reframe_prec(self.precision, diagonal, shift)
        # an image can pass the precision only when the d_i differ and one
        # coordinate grows faster than the least
        if prec is not INF and any(d != diagonal[0] for d in diagonal[1:]):
            keys = _cut(keys, grid, prec)
        return PuiseuxSeries._from_keys(keys, grid, prec, False)

    # -- comparisons and formatting -----------------------------------------

    def agrees_with(self, other: "PuiseuxSeries") -> bool:
        """Exact equality of all coefficients up to the common precision."""
        return (self - other).is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, PuiseuxSeries)
            and self.num_vars == other.num_vars
            and self.ramification == other.ramification
            and self._keys == other._keys
            and self.precision == other.precision
            and self.laurent == other.laurent
        )

    __hash__ = None

    def __repr__(self):
        return f"PuiseuxSeries({format_series(self)!r}, vars={self.num_vars})"

    def __str__(self):
        return format_series(self)

    def to_json(self) -> dict:
        grid, keys = self.ramification, self._keys
        return {
            "vars": self.num_vars,
            "ramification": list(grid),
            "terms": [
                {"exp": list(map(_exponent_text, g, grid)), "coef": str(keys[g])}
                for g in self._sorted_keys()
            ],
            "precision": None if self.precision is INF else str(self.precision),
        } | ({"laurent": True} if self.laurent else {})

    @classmethod
    def from_json(cls, data: dict) -> "PuiseuxSeries":
        num_vars, terms = json_fields(data, ("vars", "terms"), "series JSON")
        prec = INF if data.get("precision") is None else rat(data["precision"])
        pairs = []
        for t in json_shape(terms, list, "series JSON terms"):
            exp, coef = json_fields(t, ("exp", "coef"), "series JSON term", "series JSON")
            exp = json_shape(exp, list, "series JSON exp")
            pairs.append(([_rational_pair(c) for c in exp], _rational_pair(coef)))
        # a null laurent, like a null precision, reads as absent
        laurent = data.get("laurent")
        laurent = False if laurent is None else json_shape(laurent, bool, "series JSON laurent")
        laurent = laurent or any(p < 0 for e, _ in pairs for p, _ in e)
        prec = _frame(num_vars, prec, laurent)
        for exp, _ in pairs:
            if len(exp) != num_vars:
                raise DimensionError(f"expected dimension {num_vars}, got {len(exp)}")
        pairs = [t for t in pairs if t[1][0]]
        return cls._from_keys(*_pair_keys(pairs, num_vars, prec), prec, laurent)


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def _rational_pair(x) -> tuple[int, int]:
    """x as an int pair (p, q), q > 0: a 'p/q' string with q != 0 read
    directly, anything else through rat, which reads it or refuses it."""
    m = _RATIONAL_RE.fullmatch(x) if type(x) is str else None
    if m is None or m[2] is not None and not int(m[2]):
        x = rat(x)
        return x.numerator, x.denominator
    return int(m[1]), int(m[2] or 1)


def _exponent_text(g: int, n: int) -> str:
    """The key g on a grid of n as text: g/n reduced by one gcd, which
    str(Fraction(g, n)) writes the same."""
    d = math.gcd(g, n)
    return str(g // d) if d == n else f"{g // d}/{n // d}"


def _key_walk(f: PuiseuxSeries, p: int, q: int, step: int):
    """The runs of P = (f/f_0)**r_j for r_j = (p - j*step)/q, q > 0, on
    f's integer grid, by J.C.P. Miller's recurrence: run j stopped at first
    coordinate j*step, advanced together over the keys in increasing total
    degree.  Yields (g, N, L) for every key g reached, P_g = N/L of run
    g_1/step, the run that keeps g.  With step 0 the one run is the plain
    power for r = p/q.

    The Euler operator E = L*sum x_i d/dx_i multiplies the monomial at grid
    key k by its total degree T(k).  Since f_0 is a constant, P satisfies
    f*E(P) = r*P*E(f), which coefficientwise reads

        D P_k = sum_{j != 0} ((r+1) T(j) - D) a_j P_(k-j),   a_j = f_j/f_0,

    at every key k of total degree D, in one variable or h, on an integer or
    a fractional grid (Knuth, TAOCP Vol. 2, §4.7).

    The degrees reached are the multiples of u, the gcd of the step
    degrees.  For r = p/q and a_j = A_j/den with integers A_j, the pull form
    of the recurrence at a key k of degree D reads

        q den D P_k = sum_j A_j ((p+q) T(j) - q D) P_(k-j).

    The P_k of a degree are kept as integers N_k over one running lcm L of
    the denominators finished so far: the sum S of the right-hand side over
    L gives P_k = S/(L m) with m = q den D, so, g being the gcd of m and
    every S of the degree, N_k = S/g over L*m/g.  L stays the lcm of the
    true denominators, so the integers grow with the coefficients, not with
    the degree.  A run stops at total degree floor(precision*L); an exact
    series raised to a non-negative integer r stops at r*max T, where the
    power ends, and to any other r is refused.

    No step lowers g_1 or T(g) - g_1 w0, so run j needs the keys with
    g_1 <= j*step and T(g) - g_1 w0 <= limit - j*step*w0: an interval of
    j that starts at g_1/step and lies inside the interval of every key
    g reads from.  A level's rows hold N_g of those runs over one
    denominator L_d, reduced by one gcd a degree, and a step's weight
    A_s((p_j + q) T(s) - q T(g)) is an arithmetic progression in j, so a
    step adds to all of a row's runs in one map.  A row read at a later
    degree is brought to the current L by the integer L/L_d folded into
    its progression, so no row is rescaled.  p/q need not be reduced: a
    common factor multiplies both sides of the recurrence and cancels in
    each gcd, so the integers are the same.  The walk goes over the
    multiples d of u, keeps only the levels with a nonzero entry that the
    longest step can still read, skips a degree no kept level reaches
    and ends once none is kept.  The caller folds its own factors into
    the one Fraction it builds from each (N, L).

    Before the first degree a dual charges the entries of its rows on
    the first axis, which only its pure first-axis steps reach: every
    row in one variable, a lower bound on the walk in several.  Both
    kinds of run then charge STEP for each multiple of u up to the
    limit, which the loop visits, then each (key, step) pair 4 STEP, and
    the read row's runs from the key's first run on (the entries it
    multiplies in one variable, a bound on them in several) times the
    words of the row's entries times those of L/L_d, the two integers
    multiplied."""
    add, mul, floordiv = operator.add, operator.mul, operator.floordiv
    count, repeat, gcd = itertools.count, itertools.repeat, math.gcd
    lcm_all, weights = _grading(f.ramification)
    c0 = f.constant_term()
    items = [(_degree(g, weights), g, c) for g, c in f._keys.items()]
    items = sorted(((t, g, c) for t, g, c in items if t), key=operator.itemgetter(0))
    if any(t < 0 for t, _, _ in items):
        raise PuiseuxError("a power by recurrence needs non-negative exponents")
    prec = f.precision
    cutoff = INF if prec is INF else prec.numerator * lcm_all // prec.denominator
    w0 = lcm_all // f.ramification[0]
    max_t = max((t for t, _, _ in items), default=0)
    # a_j = f_j/f_0 = A_j/den_j, an int pair reduced by one gcd, den_j > 0
    n0, d0 = abs(c0.numerator), c0.denominator if c0 > 0 else -c0.denominator
    ratios = [(c.numerator * d0, c.denominator * n0) for _, _, c in items]
    ratios = [(a // k, b // k) for a, b in ratios for k in [gcd(a, b)]]
    den = math.lcm(*(b for _, b in ratios))
    # u, the gcd of the step degrees (1 without steps)
    unit = gcd(*(t for t, _, _ in items)) or 1
    # the last total degree a run computes
    if not items:
        limit = 0
    elif p >= 0 and p % q == 0:
        # a polynomial in the a_j: the power ends at degree r*max T
        limit = min(p // q * max_t, cutoff)
    elif cutoff is INF:
        raise PrecisionError(
            "power of an exact non-constant series has infinite support; truncate first"
        )
    else:
        limit = cutoff
    qden = q * den
    # span is the rest degree one run adds; with step 0 every key has the
    # one run 0, and limit + 1 gives every key up to the limit that interval
    span = step * w0 or limit + 1
    what = _DUAL if step else _POWER
    runs = limit // span + 1
    # a dual's rows on the first axis: its pure first-axis steps reach the
    # keys at the multiples c of axis*step, each holding the runs from
    # c/step on
    axis = gcd(*(g[0] // step for _, g, _ in items if not any(g[1:]))) if step else 0
    k = limit // (axis * span) if axis else 0
    spent = charge((k + 1) * runs - axis * k * (k + 1) // 2 + STEP * (limit // unit), what)
    pair = 4 * STEP
    # each step: (T(s), s, s_1/step, A_s (p + q) T(s), A_s step T(s), A_s q)
    steps = []
    for (t, g, _), (a, b) in zip(items, ratios):
        a *= den // b
        steps.append((t, g, g[0] // step if step else 0, a * (p + q) * t, a * step * t, a * q))
    zero = (0,) * f.num_vars
    # levels[d] = (L_d, [(g, first run, row)], load, words) for the keys
    # g of degree d that hold a nonzero entry, d within the longest step
    # below; load is the entries of the rows times their words, and a
    # step that moves the first run by ds reads ds * words fewer
    levels = {0: (1, [(zero, 0, [1] * runs)], runs, 1)}
    common, reach = 1, max_t + unit
    yield zero, 1, 1
    for d in range(unit, limit + 1, unit):
        levels.pop(d - reach, None)
        if not levels:
            break
        sums = {}
        for t, gs, ds, c1, c2, c3 in steps:
            if t > d:
                break
            level = levels.get(d - t)
            if level is None:
                continue
            at, rows, load, words = level
            lift = common // at
            spent += pair * len(rows) + (load - ds * words) * ((lift.bit_length() >> 6) + 1)
            base, diff = (c1 - c3 * d) * lift, -c2 * lift
            for g, lo, prev in rows:
                key = tuple(map(add, g, gs))
                lo += ds
                old = sums.get(key)
                if old is None:
                    n = (limit - d + key[0] * w0) // span - lo + 1
                    sums[key] = (lo, list(map(mul, count(base + diff * lo, diff), prev[ds:ds + n])))
                else:
                    acc = old[1]
                    acc[:] = map(add, acc, map(mul, count(base + diff * lo, diff), prev[ds:ds + len(acc)]))
        charge(spent, what)
        if not sums:
            continue
        m = g = qden * d
        for _, acc in sums.values():
            g = gcd(g, *acc)
        if g != m:
            common *= m // g
        kept, load, words = [], 0, 0
        for key, (lo, acc) in sums.items():
            if g != 1:
                acc = list(map(floordiv, acc, repeat(g)))
            if any(acc):
                w = (max(acc[0].bit_length(), acc[-1].bit_length()) >> 6) + 1
                kept.append((key, lo, acc))
                load += len(acc) * w
                words += w
            yield key, acc[0], common
        if kept:
            levels[d] = (common, kept, load, words)


def default_names(num_vars: int, first: str = "x") -> list[str]:
    if num_vars == 1:
        return [first]
    return [f"{first}{i + 1}" for i in range(num_vars)]


def format_series(s: PuiseuxSeries, names: list[str] | None = None) -> str:
    names = names or default_names(s.num_vars)
    if len(names) != s.num_vars:
        raise DimensionError("one name per variable required")
    grid, keys = s.ramification, s._keys
    parts = []
    for g in s._sorted_keys():
        coef = str(keys[g])
        negative = coef[0] == "-"
        mag = coef[1:] if negative else coef
        body = [
            name if k == n else f"{name}^({_exponent_text(k, n)})"
            for name, k, n in zip(names, g, grid)
            if k
        ]
        if mag != "1" or not body:
            body.insert(0, mag)
        parts.append((" - " if negative else " + ") + "*".join(body))
    # the first term drops its " + ", and its " - " becomes "-"
    text = "".join(parts)
    text = ("-" if text[1:2] == "-" else "") + text[3:] if text else "0"
    if s.precision is not INF:
        text += f" + O(total={s.precision})"
    return text


# ---------------------------------------------------------------------------
# parsing


# The scan finds every token at once; whitespace is skipped.  A text holding
# a character that no token takes, outside whitespace, is refused before it.
_TOKEN_RE = re.compile(r"\d+|[A-Za-z]+\d*|[-+*/^()=]")
_BAD_RE = re.compile(r"[^\s\dA-Za-z+\-*/^()=]")

_SIGNS = {"+": 1, "-": -1}
# the kinds of token _expect asks for, beside a single operator
_KINDS = {"int": str.isdecimal, "name": lambda tok: tok[:1].isalpha()}

_BARE_VARS = {"x", "y", "t", "u", "v", "w"}


def _fail(text: str, message: str, i: int):
    """Raise ParseError at token i of text, or at its end past the last
    token: the scan keeps no positions, so an error finds its own."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), i, None), None)
    raise ParseError(message, len(text) if m is None else m.start())


def _expect(text: str, tokens: list, i: int, want: str) -> int:
    """The index after token i, which must be the operator want, or a token
    of the kind want names in _KINDS."""
    tok = tokens[i]
    if not (_KINDS[want](tok) if want in _KINDS else tok == want):
        _fail(text, f"expected {want!r}, found {tok or 'end of input'!r}", i)
    return i + 1


def _rational(text: str, tokens: list, i: int) -> tuple[int, int, int]:
    """The rational [+-]int[/int] at token i: (p, q, the index after it),
    q > 0 and p/q not reduced."""
    sign = _SIGNS.get(tokens[i])
    start = i if sign is None else i + 1
    i = _expect(text, tokens, start, "int")
    p = -int(tokens[start]) if sign == -1 else int(tokens[start])
    if tokens[i] != "/":
        return p, 1, i
    i = _expect(text, tokens, i + 1, "int")
    q = int(tokens[i - 1])
    if q == 0:
        _fail(text, "zero denominator", start)
    return p, q, i


def parse(
    text: str,
    num_vars: int | None = None,
    precision=None,
    laurent: bool = False,
) -> PuiseuxSeries:
    """Parse the series grammar.

    Terms are separated by '+'/'-'; a term is an optional rational
    coefficient and '*'-joined factors var or var^(p/q).  Bare variable
    names (x, y, t, u, v, w) denote the single variable of a one-variable
    series; indexed names like x1, v2 select the variable by suffix.  A
    trailing '+ O(total=R)' fixes the precision; otherwise the `precision`
    argument or, failing that, DEFAULT_PRECISION applies.
    """
    if not isinstance(text, str):
        raise PuiseuxError(f"text must be a string, got {text!r}")
    bad = _BAD_RE.search(text)
    if bad is not None:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of input
    # each term: its factors (name, p, q), its coefficient (a, b) and the
    # index of its first token
    raw_terms = []
    marker = None
    sign = _SIGNS.get(tokens[0], 1)
    i = int(tokens[0] in _SIGNS)
    while True:
        if tokens[i] == "O":
            i = _expect(text, tokens, _expect(text, tokens, i + 1, "("), "name")
            if tokens[i - 1] != "total":
                _fail(text, "precision marker must be O(total=R)", i - 1)
            p, q, i = _rational(text, tokens, _expect(text, tokens, i, "="))
            i = _expect(text, tokens, i, ")")
            marker = Fraction(p, q)
            break
        start = i
        a, b = sign, 1
        factors = []
        while True:
            tok = tokens[i]
            if tok.isdecimal() or tok in _SIGNS:
                p, q, i = _rational(text, tokens, i)
                a, b = a * p, b * q
            elif tok[:1].isalpha():
                if tokens[i + 1] == "^":
                    p, q, i = _rational(text, tokens, _expect(text, tokens, i + 2, "("))
                    i = _expect(text, tokens, i, ")")
                else:
                    p, q, i = 1, 1, i + 1
                factors.append((tok, p, q))
            else:
                _fail(text, f"expected a term, found {tok or 'end of input'!r}", i)
            if tokens[i] != "*":
                break
            i += 1
        raw_terms.append((factors, (a, b), start))
        if not tokens[i]:
            break
        sign = _SIGNS.get(tokens[i])
        if sign is None:
            _fail(text, f"expected '+' or '-', found {tokens[i]!r}", i)
        i += 1
    if tokens[i]:
        _fail(text, f"trailing input {tokens[i]!r}", i)

    # resolve variable names to coordinates
    names = {name for factors, _, _ in raw_terms for name, _, _ in factors}
    bare = {n for n in names if n.isalpha()}
    indexed = {n for n in names if not n.isalpha()}
    if bare and indexed:
        raise ParseError("cannot mix bare and indexed variable names", 0)
    if bare - _BARE_VARS:
        raise ParseError(
            f"unknown symbol {min(bare - _BARE_VARS)!r}; variables are x/y/t/u/v/w or "
            "indexed names, parameters need --param",
            0,
        )
    if len(bare) > 1:
        raise ParseError(f"several bare variables {sorted(bare)}; index them instead", 0)
    if bare and num_vars is not None and num_vars != 1:
        raise ParseError("bare variable name in a multivariate series", 0)
    # a bare name is the first variable, an indexed one that of its suffix
    var_index = dict.fromkeys(bare, 0)
    for n in indexed:
        suffix = int(re.search(r"\d+$", n).group())
        if suffix < 1:
            raise ParseError(f"variable index in {n!r} must start at 1", 0)
        var_index[n] = suffix - 1
    h = max(var_index.values(), default=0) + 1
    if num_vars is not None:
        if h > num_vars:
            raise ParseError(f"variable index {h} exceeds declared {num_vars}", 0)
        h = num_vars

    # each exponent coordinate an int pair, repeated factors added as pairs
    terms = []
    for factors, coef, start in raw_terms:
        exp = [(0, 1)] * h
        for name, p, q in factors:
            k = var_index[name]
            p0, q0 = exp[k]
            exp[k] = (p0 * q + p * q0, q0 * q)
        if not laurent and any(p < 0 for p, _ in exp):
            _fail(text, "negative exponent in a non-Laurent series", start)
        if coef[0]:
            terms.append((exp, coef))

    if marker is None:
        marker = DEFAULT_PRECISION if precision is None else precision
    prec = _frame(h, marker, laurent)
    return PuiseuxSeries._from_keys(*_pair_keys(terms, h, prec), prec, laurent)
