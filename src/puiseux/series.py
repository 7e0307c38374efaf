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
so the ramification stays primitive.  Fraction tuples appear only at the
API: terms, support, sorted_terms, coefficient, JSON, formatting and error
messages.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import re
from fractions import Fraction

from .core import (
    DimensionError,
    PuiseuxError,
    Vec,
    as_vec,
    mat_det,
    mat_from,
    rat,
    rational_power,
    total,
)

INF = math.inf
# precision of parse without a marker or argument, and of the CLI without one
DEFAULT_PRECISION = Fraction(10)
# Work estimates for powers and duals, in recurrence steps: _GridPower
# charges each total degree a run reaches DEGREE_COST steps (its Fraction, heap
# and lcm work) and each step it walks there one.  check_work refuses an
# estimate above MAX_POWER_WORK before the first run starts.  The dual of a
# one-variable unit^m1 with all 500 nonconstant terms at N = 500 is 2.2*10^7,
# so every one-variable inversion that MAX_UNIT_PRECISION admits fits.  On
# Python 3.11, 2-vCPU host, a degree took about 8 us and a step 0.5-1 us with
# small coefficients; that dense dual took 54 s (2.4 us a step, the
# coefficients grow), and (1 + t)^-1, which fits up to precision 2.2*10^6,
# 8.6 us a degree.
DEGREE_COST = 10
MAX_POWER_WORK = 25 * 10**6


class ParseError(PuiseuxError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PrecisionError(PuiseuxError):
    pass


def _norm_prec(p):
    """Map any way of saying 'infinite' to the one INF object; fractions
    otherwise, so identity checks against INF stay valid internally."""
    if p == INF:
        return INF
    return rat(p)


def _min_prec(a, b):
    return a if a <= b else b


def _add_prec(a, b):
    if a is INF or b is INF:
        return INF
    return a + b


def _grading(grid):
    """L = lcm(grid) and the weights L/n_i of the integer total degree."""
    lcm_all = math.lcm(*grid)
    return lcm_all, tuple(lcm_all // n for n in grid)


def _degree(key, weights) -> int:
    return sum(map(operator.mul, key, weights))


class PuiseuxSeries:
    __slots__ = ("num_vars", "_keys", "precision", "laurent", "ramification")

    def __init__(self, num_vars: int, terms, precision=INF, laurent: bool = False):
        if num_vars < 1:
            raise DimensionError("a series needs at least one variable")
        precision = _norm_prec(precision)
        if laurent and num_vars != 1:
            raise PuiseuxError("Laurent support is restricted to one variable")
        clean: dict[Vec, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coef in items:
            exp = as_vec(exp, num_vars)
            coef = rat(coef)
            if coef == 0:
                continue
            if any(c < 0 for c in exp):
                if not laurent:
                    raise PuiseuxError(f"negative exponent {exp} in a non-Laurent series")
            clean[exp] = clean.get(exp, Fraction(0)) + coef
        # one grid lcm(all denominators) in every coordinate; _store reduces it
        lcm_all = math.lcm(1, *(x.denominator for exp in clean for x in exp))
        keys = {
            tuple(x.numerator * (lcm_all // x.denominator) for x in exp): c
            for exp, c in clean.items()
        }
        self._store(keys, (lcm_all,) * num_vars, precision, laurent)

    def _store(self, keys, grid, precision, laurent) -> None:
        """Set every field from integer keys on grid, which may be finer
        than the keys need: drop zero coefficients and keys of degree above
        precision*L, then divide the grid by the per-coordinate gcd of the
        keys."""
        lcm_all, weights = _grading(grid)
        cutoff = INF if precision is INF else math.floor(precision * lcm_all)
        keys = {g: c for g, c in keys.items() if c and _degree(g, weights) <= cutoff}
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
        zero = tuple(Fraction(0) for _ in range(num_vars))
        return cls(num_vars, {zero: rat(value)}, precision)

    @classmethod
    def one(cls, num_vars: int, precision=INF) -> "PuiseuxSeries":
        return cls.constant(num_vars, 1, precision)

    @classmethod
    def monomial(cls, num_vars: int, exponent, coef=1, precision=INF, laurent=False) -> "PuiseuxSeries":
        return cls(num_vars, {as_vec(exponent, num_vars): rat(coef)}, precision, laurent)

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

    def sorted_terms(self) -> list[tuple[Vec, Fraction]]:
        _, weights = _grading(self.ramification)
        keys = sorted(self._keys, key=lambda g: (_degree(g, weights), g))
        return [(self._vec(g), self._keys[g]) for g in keys]

    def coefficient(self, exponent) -> Fraction:
        exp = as_vec(exponent, self.num_vars)
        if self.precision is not INF and total(exp) > self.precision:
            raise PrecisionError(
                f"coefficient at {exp} requested beyond precision {self.precision}"
            )
        # an integral Fraction hashes and compares like its int, and an
        # exponent off the grid gives a non-integral key that matches none
        return self._keys.get(tuple(x * n for x, n in zip(exp, self.ramification)), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._keys.get((0,) * self.num_vars, Fraction(0))

    def order_total(self):
        """Least total exponent sum in the support; +inf for the zero series."""
        if not self._keys:
            return INF
        lcm_all, weights = _grading(self.ramification)
        return Fraction(min(_degree(g, weights) for g in self._keys), lcm_all)

    def _order_bound(self):
        # sound lower bound for the order, finite for truncated zero series
        return _min_prec(self.order_total(), self.precision)

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(self.num_vars, other)
        grid = self._check_compat(other)
        prec = _min_prec(self.precision, other.precision)
        keys = dict(self._keys_on(grid))
        for g, c in other._keys_on(grid).items():
            v = keys.get(g)
            keys[g] = c if v is None else v + c
        return PuiseuxSeries._from_keys(keys, grid, prec, self.laurent or other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(self.num_vars, other)
        return self + (-other)

    def scale(self, c) -> "PuiseuxSeries":
        c = rat(c)
        keys = {g: c * v for g, v in self._keys.items()}
        return PuiseuxSeries._from_keys(keys, self.ramification, self.precision, self.laurent)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        grid = self._check_compat(other)
        prec = _min_prec(
            _add_prec(self.precision, other._order_bound()),
            _add_prec(other.precision, self._order_bound()),
        )
        # convolve on the common integer grid: integer keys hash and add far
        # faster than Fraction tuples
        lcm_all, weights = _grading(grid)
        a_items = [(_degree(g, weights), g, c) for g, c in self._keys_on(grid).items()]
        b_items = [(_degree(g, weights), g, c) for g, c in other._keys_on(grid).items()]
        b_items.sort(key=operator.itemgetter(0))
        cutoff = None if prec is INF else math.floor(prec * lcm_all)
        raw: dict[tuple, Fraction] = {}
        for t1, e1, c1 in a_items:
            for t2, e2, c2 in b_items:
                if cutoff is not None and t1 + t2 > cutoff:
                    break
                e = tuple(map(operator.add, e1, e2))
                v = raw.get(e)
                raw[e] = c1 * c2 if v is None else v + c1 * c2
        return PuiseuxSeries._from_keys(raw, grid, prec, self.laurent or other.laurent)

    __rmul__ = __mul__

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
        prec = _min_prec(self.precision, _norm_prec(precision))
        return PuiseuxSeries._from_keys(self._keys, self.ramification, prec, self.laurent)

    # -- powers and roots ---------------------------------------------------

    def unit_power(self, r, constant_power=None) -> "PuiseuxSeries":
        """self**r for an invertible series (nonzero constant term) and any
        rational r, by J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2,
        §4.7): P = (self/self_0)**r has P_0 = 1 and

            D P_D = sum_{j=1..D} ((r+1) j - D) a_j P_(D-j),   a = self/self_0,

        graded by total degree, so each coefficient costs one pass over the
        terms of self.  The result keeps self's precision.

        constant_power overrides self_0**r, which is needed when r is
        fractional and the constant term has no rational r-th power.
        """
        r = rat(r)
        c0 = self.constant_term()
        if c0 == 0:
            raise PuiseuxError("unit_power requires a nonzero constant term")
        if constant_power is None:
            constant_power = rational_power(c0, r)
        laurent = self.laurent and r != 0 and len(self._keys) > 1
        return self._scaled_power(r, constant_power, laurent)

    def _scaled_power(self, r, constant_power, laurent) -> "PuiseuxSeries":
        """constant_power * (self/self_0)**r at self's precision."""
        recurrence = _GridPower(self)
        recurrence.check_work(r)
        keys = {g: c * constant_power for g, c in recurrence(r).items()}
        return PuiseuxSeries._from_keys(keys, self.ramification, self.precision, laurent)

    def unit_root(self, m: int, root_of_constant) -> "PuiseuxSeries":
        """The unique m-th root whose constant term is root_of_constant."""
        if m <= 0:
            raise PuiseuxError("root index must be positive")
        root = rat(root_of_constant)
        c0 = self.constant_term()
        if c0 == 0:
            raise PuiseuxError("unit_root requires a nonzero constant term")
        if root**m != c0:
            raise PuiseuxError(
                f"claimed root {root} fails: {root}^{m} = {root ** m} != {c0}"
            )
        return self.unit_power(Fraction(1, m), constant_power=root)

    def pow_int(self, n: int) -> "PuiseuxSeries":
        """self**n for an integer n.

        When the constant term is the lowest term (nonzero, no negative
        exponents) every power comes from Miller's recurrence, as in
        unit_power; the power of an exact series is exact.  Otherwise
        positive powers multiply repeatedly, and negative powers of a
        one-variable series factor out the dominating monomial and give a
        Laurent series.
        """
        if n == 0:
            return PuiseuxSeries.one(self.num_vars)
        if n > 0:
            if self.order_total() == 0:
                c0 = self.constant_term()
                return self._scaled_power(Fraction(n), c0**n, self.laurent)
            acc = self
            for _ in range(n - 1):
                acc = acc * self
            return acc
        if self.order_total() == 0:
            return self.unit_power(n)
        if self.is_zero():
            raise PuiseuxError("negative power of the zero series")
        if self.num_vars != 1:
            raise PuiseuxError(
                "negative power needs a nonzero constant term when h > 1"
            )
        lam, a = self.dominating()
        unit = self.shift((-lam[0],)).scale(1 / a)
        body = unit.unit_power(n).scale(a**n)
        return body.shift((n * lam[0],))

    # -- substitution -------------------------------------------------------

    def monomial_substitute(self, matrix) -> "PuiseuxSeries":
        """Replace each exponent e by matrix·e (column action).

        The matrix must be invertible with non-negative rational entries and
        every image exponent must be non-negative.  Precision becomes c*T
        where c is the least column sum of the matrix, the largest bound up
        to which the image is fully determined.
        """
        q = mat_from(matrix)
        if len(q) != self.num_vars or len(q[0]) != self.num_vars:
            raise DimensionError("substitution matrix has wrong shape")
        if any(c < 0 for row in q for c in row):
            raise PuiseuxError("substitution matrix must be non-negative")
        if mat_det(q) == 0:
            raise PuiseuxError("substitution matrix must be invertible")
        if self.precision is INF:
            prec = INF
        else:
            col_sums = [sum(q[i][j] for i in range(len(q))) for j in range(len(q))]
            prec = min(col_sums) * self.precision
        # the image key is a·g with a_ij = grid_i*q_ij/n_j, grid_i the least
        # denominator that makes row i of a integral
        ratios = [[x / n for x, n in zip(row, self.ramification)] for row in q]
        grid = tuple(math.lcm(*(x.denominator for x in row)) for row in ratios)
        a = [[int(x * m) for x in row] for row, m in zip(ratios, grid)]
        keys = {}
        for g, c in self._keys.items():
            img = tuple(_degree(g, row) for row in a)
            if any(x < 0 for x in img):
                raise PuiseuxError(
                    f"substitution sends {self._vec(g)} to negative exponent "
                    f"{tuple(map(Fraction, img, grid))}"
                )
            keys[img] = c
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
        return {
            "vars": self.num_vars,
            "ramification": list(self.ramification),
            "terms": [
                {"exp": [str(c) for c in e], "coef": str(v)}
                for e, v in self.sorted_terms()
            ],
            "precision": None if self.precision is INF else str(self.precision),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PuiseuxSeries":
        prec = INF if data.get("precision") is None else rat(data["precision"])
        terms = [(tuple(rat(c) for c in t["exp"]), rat(t["coef"])) for t in data["terms"]]
        laurent = any(c < 0 for e, _ in terms for c in e)
        return cls(data["vars"], terms, prec, laurent)


class _GridPower:
    """P = (f/f_0)**r on f's integer grid, by J.C.P. Miller's recurrence.

    The Euler operator E = L*sum x_i d/dx_i multiplies the monomial at grid
    key k by its total degree T(k).  Since f_0 is a constant, P satisfies
    f*E(P) = r*P*E(f), which coefficientwise reads

        D P_k = sum_{j != 0} ((r+1) T(j) - D) a_j P_(k-j),   a_j = f_j/f_0,

    at every key k of total degree D, in one variable or h, on an integer or
    a fractional grid (Knuth, TAOCP Vol. 2, §4.7).  Each finished P_k is
    pushed to the keys k + j with weight a_j (r T(j) - T(k)), so keys finish
    in increasing total degree.

    The constructor does the part that depends on f alone: the degrees of
    f's keys, a_j = A_j/den with integers A_j, and the steps in scan order.
    Calling the object runs the recurrence for one r, so many powers of one
    series (as in dual) share that setup.
    """

    def __init__(self, f: PuiseuxSeries):
        lcm_all, weights = _grading(f.ramification)
        c0 = f.constant_term()
        items = [(_degree(g, weights), g, c) for g, c in f._keys.items()]
        items = [(t, g, c) for t, g, c in items if t]
        if any(t < 0 for t, _, _ in items):
            raise PuiseuxError("a power by recurrence needs non-negative exponents")
        self.num_vars = f.num_vars
        self.precision = f.precision
        self.lcm_all = lcm_all
        self.w0 = lcm_all // f.ramification[0]
        self.max_t = max((t for t, _, _ in items), default=0)
        self.den = math.lcm(*((c / c0).denominator for _, _, c in items))
        self.items = [(t, g, int(c / c0 * self.den)) for t, g, c in items]

    @functools.cached_property
    def by_degree(self):
        """Steps (t, 0, t, g, A) sorted by total degree."""
        return sorted(((t, 0, t, g, a) for t, g, a in self.items), key=lambda s: s[0])

    @functools.cached_property
    def by_first(self):
        """Steps (g_1, t - g_1*w0, t, g, A) sorted by first coordinate."""
        return sorted(
            ((g[0], t - g[0] * self.w0, t, g, a) for t, g, a in self.items),
            key=lambda s: s[0],
        )

    def _limit(self, r: Fraction) -> int:
        """The last total degree a run for r computes."""
        if r.denominator == 1 and r >= 0:
            # a polynomial in the a_j: the power ends at degree r*max T
            ends = r.numerator * self.max_t
            if self.precision is INF:
                return ends
            return min(ends, math.floor(self.precision * self.lcm_all))
        if self.precision is not INF:
            return math.floor(self.precision * self.lcm_all)
        if not self.items:
            return 0
        raise PrecisionError(
            "power of an exact non-constant series has infinite support; truncate first"
        )

    def check_work(self, r: Fraction, runs: int = 0) -> None:
        """Refuse the recurrence for r, before it starts, when its estimated
        work exceeds MAX_POWER_WORK: one run (runs=0), or the runs of dual
        capped at the first coordinates 0, s, ..., (runs-1)*s, s the gcd of
        the steps' first coordinates.

        Degrees and step sizes are counted in units of their gcd.  A run
        that reaches n degrees walks a step of size s at n - s of them.  When
        every step lies in the first variable alone (in one variable, say),
        the run capped at i*s reaches i + 1 degrees, so over all runs that
        is T(runs) degrees and T(runs - s) walks of the step, T(n) =
        n(n+1)/2.  Otherwise each capped run is charged a full run.  A degree
        of several variables may hold many keys; it counts as one.
        """
        first_only = runs and not any(s[1] for s in self.by_first)
        sizes = [s[0] for s in (self.by_first if first_only else self.by_degree)]
        unit = math.gcd(*sizes) or 1
        if first_only:
            n, times, total = runs, 1, _triangle
        else:
            n = self._limit(r) // unit + 1 if sizes else 1
            times, total = max(runs, 1), _line
        work = times * (
            DEGREE_COST * total(n) + sum(total(n - size // unit) for size in sizes)
        )
        if work > MAX_POWER_WORK:
            raise PuiseuxError(
                f"estimated power work of {work} steps exceeds the limit of "
                f"{MAX_POWER_WORK}; lower the precision"
            )

    def __call__(self, r: Fraction, cap=None) -> dict[tuple, Fraction]:
        """The coefficients of P = (f/f_0)**r by grid key, without zeros.

        The result stops at total degree floor(precision*L); an exact series
        raised to a non-negative integer r stops at r*max T, where the power
        ends.  With cap, only keys whose first coordinate is at most cap are
        computed, and of those only the ones from which a key with first
        coordinate cap is still reachable within the degree bound.
        """
        limit = self._limit(r)
        # the push weight is a_j (r T(j) - T(k)) = A_j (p T(j) - q T(k)) / (q den)
        # for r = p/q
        p, q = r.numerator, r.denominator
        den = self.den
        # each step is checked against two additive budgets: the first is sorted
        # and ends the scan, the second is only skipped
        if cap is None:
            first, second = limit, 0
            steps = self.by_degree
        else:
            w0 = self.w0
            first, second = cap, limit - cap * w0
            steps = self.by_first
        # Sums are kept in integers: a key finished at degree d pushes its
        # numerator over lcm_den[d], the lcm of every denominator finished so
        # far, and a pending sum (s, e) stands for s / lcm_den[e].  Degrees
        # finish in increasing order, so lcm_den[e] divides every later one and
        # a sum moves to a later denominator by an exact integer factor.
        lcm_den = {}
        common = 1
        pending = {0: {(0,) * self.num_vars: None}}
        degrees = [0]
        out = {}
        while degrees:
            d = heapq.heappop(degrees)
            finished = []
            for g, acc in pending.pop(d).items():
                v = Fraction(acc[0], lcm_den[acc[1]] * q * den * d) if d else Fraction(1)
                if v:
                    finished.append((g, v))
                    common = math.lcm(common, v.denominator)
            lcm_den[d] = common
            qd = q * d
            for g, v in finished:
                out[g] = v
                n = v.numerator * (common // v.denominator)
                if cap is None:
                    first_g, second_g = d, 0
                else:
                    first_g, second_g = g[0], d - g[0] * w0
                for first_j, second_j, t, gj, a in steps:
                    if first_g + first_j > first:
                        break
                    if second_g + second_j > second:
                        continue
                    m = p * t - qd
                    if not m:
                        continue
                    key = tuple(map(operator.add, g, gj))
                    c = n * a * m
                    level = pending.get(d + t)
                    if level is None:
                        pending[d + t] = {key: (c, d)}
                        heapq.heappush(degrees, d + t)
                        continue
                    old = level.get(key)
                    if old is None:
                        level[key] = (c, d)
                    else:
                        s, e = old
                        if e != d:
                            s *= common // lcm_den[e]
                        level[key] = (s + c, d)
        return out


def _line(n: int) -> int:
    return max(n, 0)


def _triangle(n: int) -> int:
    return n * (n + 1) // 2 if n > 0 else 0


def default_names(num_vars: int, first: str = "x") -> list[str]:
    if num_vars == 1:
        return [first]
    return [f"{first}{i + 1}" for i in range(num_vars)]


def format_series(s: PuiseuxSeries, names: list[str] | None = None) -> str:
    names = names or default_names(s.num_vars)
    if len(names) != s.num_vars:
        raise DimensionError("one name per variable required")
    parts: list[str] = []
    for exp, coef in s.sorted_terms():
        factors = []
        for name, e in zip(names, exp):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^({e})")
        mag = abs(coef)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        sign = "-" if coef < 0 else "+"
        parts.append((sign, body))
    if not parts:
        text = "0"
    else:
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
    if s.precision is not INF:
        text += f" + O(total={s.precision})"
    return text


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*/^()=])")

_BARE_VARS = {"x", "y", "t", "u", "v", "w"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            pos = m.end()
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_rational(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        tok = self.expect("int")
        num = int(tok[1])
        if self.peek()[:2] == ("op", "/"):
            self.next()
            den = int(self.expect("int")[1])
            if den == 0:
                raise ParseError("zero denominator", tok[2])
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def parse_factor(self) -> tuple[str, Fraction]:
        tok = self.expect("name")
        name = tok[1]
        exponent = Fraction(1)
        if self.peek()[:2] == ("op", "^"):
            self.next()
            self.expect("op", "(")
            exponent = self.parse_rational()
            self.expect("op", ")")
        return name, exponent


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
    p = _Parser(text)
    raw_terms: list[tuple[list[tuple[str, Fraction]], Fraction, int]] = []
    explicit_precision = None

    sign = Fraction(1)
    tok = p.peek()
    if tok[0] == "op" and tok[1] in "+-":
        p.next()
        sign = Fraction(-1) if tok[1] == "-" else Fraction(1)
    while True:
        tok = p.peek()
        if tok[0] == "name" and tok[1] == "O":
            p.next()
            p.expect("op", "(")
            key = p.expect("name")
            if key[1] != "total":
                raise ParseError("precision marker must be O(total=R)", key[2])
            p.expect("op", "=")
            explicit_precision = p.parse_rational()
            p.expect("op", ")")
            break
        start = tok[2]
        coef = sign
        factors: list[tuple[str, Fraction]] = []
        while True:
            tok = p.peek()
            if tok[0] == "int" or (tok[0] == "op" and tok[1] in "+-"):
                coef *= p.parse_rational()
            elif tok[0] == "name":
                factors.append(p.parse_factor())
            else:
                raise ParseError(f"expected a term, found {tok[1] or 'end of input'!r}", tok[2])
            if p.peek()[:2] == ("op", "*"):
                p.next()
                continue
            break
        raw_terms.append((factors, coef, start))
        tok = p.peek()
        if tok[0] == "eof":
            break
        if tok[0] == "op" and tok[1] in "+-":
            p.next()
            sign = Fraction(-1) if tok[1] == "-" else Fraction(1)
            continue
        raise ParseError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])

    # resolve variable names to coordinates
    names = {name for factors, _, _ in raw_terms for name, _ in factors}
    bare = {n for n in names if n.isalpha()}
    indexed = {n for n in names if not n.isalpha()}
    if bare and indexed:
        raise ParseError("cannot mix bare and indexed variable names", 0)
    if bare:
        unknown = bare - _BARE_VARS
        if unknown:
            raise ParseError(
                f"unknown symbol {sorted(unknown)[0]!r}; variables are x/y/t/u/v/w or "
                "indexed names, parameters need --param",
                0,
            )
        if len(bare) > 1:
            raise ParseError(f"several bare variables {sorted(bare)}; index them instead", 0)
        if num_vars is not None and num_vars != 1:
            raise ParseError("bare variable name in a multivariate series", 0)
        var_index = {next(iter(bare)): 0}
        h = 1
    else:
        var_index = {}
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
    h = max(h, 1)

    terms: list[tuple[Vec, Fraction]] = []
    for factors, coef, start in raw_terms:
        exp = [Fraction(0)] * h
        for name, e in factors:
            exp[var_index[name]] += e
        if any(c < 0 for c in exp) and not laurent:
            raise ParseError("negative exponent in a non-Laurent series", start)
        terms.append((tuple(exp), coef))

    if explicit_precision is not None:
        prec = explicit_precision
    elif precision is not None:
        prec = _norm_prec(precision)
    else:
        prec = _norm_prec(DEFAULT_PRECISION)
    return PuiseuxSeries(h, terms, prec, laurent)
