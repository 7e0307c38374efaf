"""Exact arithmetic substrate: rational vectors, lattices and additive orders.

Everything in this module is immutable after construction and safe to share
between threads; ``AdditiveOrder.lex`` returns one shared instance per
dimension.  Exponent vectors are plain tuples of ``Fraction``: the form in
which the public API takes and returns exponents.  The series layer stores
them as integer keys on each series' own grid instead.

A lattice is an integer echelon form on its own grid; one routine,
``_echelon_reduce``, both inserts a vector into such rows and tests
membership, for the Hermite form, ``Lattice.contains`` and the essential
walk alike.  Matrix products and ``mat_det`` (fraction-free Bareiss
elimination) clear denominators once and work on integers, and an
``AdditiveOrder`` keeps integer rows that rank integer points.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Matrix = tuple[Vec, ...]


class PuiseuxError(ValueError):
    """Base class for every error raised by this package."""


class DimensionError(PuiseuxError):
    pass


class OrderError(PuiseuxError):
    pass


class RootError(PuiseuxError):
    pass


# The one work limit.  Every walk charges the units it performs as it goes
# and is refused through charge once its total passes MAX_WORK.  A unit is
# one product of an integer of one machine word inside a C-level loop, and a
# Python-level step of a walk (the dict, tuple and list operations of one
# point, pair or row) is STEP units; what each walk charges is stated where
# it walks.  A unit took 0.03-0.11 us on the cases in CHANGES.md (Python
# 3.11, 2-vCPU host), so a refused walk stops within about 3 s, 6 s on a
# loaded host.
MAX_WORK = 4 * 10**7
STEP = 16


def charge(work: int, what: str) -> int:
    """work, the units a walk has charged so far; past MAX_WORK, the one
    refusal of every walk, naming it."""
    if work > MAX_WORK:
        raise PuiseuxError(
            f"{what} charges {work} units of work, past the limit of {MAX_WORK}"
        )
    return work


# ---------------------------------------------------------------------------
# rationals and vectors


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise PuiseuxError(f"refusing inexact float {x!r}; pass 'p/q' or Fraction")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise PuiseuxError(f"zero denominator in {x!r}") from None
    except (TypeError, ValueError) as exc:
        raise PuiseuxError(str(exc)) from None


def is_int(x) -> bool:
    """The one rule for integer arguments: an int, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def positive_int(x, name: str) -> int:
    """x, an integer argument called name, refused with the one phrasing of
    the rule unless it is positive."""
    if not (is_int(x) and x > 0):
        raise PuiseuxError(f"{name} must be a positive integer, got {x!r}")
    return x


def as_vec(x, dim: int | None = None) -> Vec:
    """Normalise a scalar or an iterable of rationals to an exponent vector."""
    if type(x) is tuple and x and all(type(c) is Fraction for c in x):
        v = x
    elif isinstance(x, (int, Fraction, str, float)):
        v = (rat(x),)
    elif hasattr(x, "__iter__"):
        v = tuple(rat(c) for c in x)
    else:
        raise PuiseuxError(f"expected a rational or a vector of rationals, got {x!r}")
    if dim is not None and len(v) != dim:
        raise DimensionError(f"expected dimension {dim}, got {len(v)}")
    return v


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


def json_shape(value, kind: type, what: str):
    """value, refused by name unless it is of the JSON kind kind (dict,
    list, str or bool): 'what must be a list, got int'."""
    if not isinstance(value, kind):
        raise PuiseuxError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def json_fields(data, keys: tuple, what: str, document: str | None = None):
    """The values at two or more keys of data, a JSON object what, part of
    the document named document (what itself by default): 'document has no 'k' key'."""
    json_shape(data, dict, what)
    try:
        return itemgetter(*keys)(data)
    except KeyError as exc:
        raise PuiseuxError(f"{document or what} has no {exc.args[0]!r} key") from None


def total(a: Vec) -> Fraction:
    """Total exponent sum, the grading used for truncation."""
    return sum(a, Fraction(0))


def fmt_vec(a: Vec) -> str:
    if len(a) == 1:
        return str(a[0])
    return "(" + ", ".join(map(str, a)) + ")"


def fmt_entries(entries) -> str:
    return "(" + ", ".join(map(fmt_vec, entries)) + ")"


def fmt_power(base: Fraction, m: int) -> str:
    """base^m as text, the base in parentheses unless it is a non-negative
    integer, so that -2^6 does not read as -(2^6)."""
    text = str(base)
    if base < 0 or base.denominator != 1:
        text = f"({text})"
    return f"{text}^{m}"


def unit_vec(dim: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


# ---------------------------------------------------------------------------
# exact roots and powers


def _iroot(n: int, m: int) -> int | None:
    """Exact m-th root of a non-negative integer, or None.

    Integer Newton iteration from above, so radicands of any size work."""
    if n in (0, 1) or m == 1:
        return n
    if m == 2:
        r = math.isqrt(n)
    else:
        r = 1 << -(-n.bit_length() // m)  # 2^ceil(bits/m) > n^(1/m)
        while True:
            nxt = ((m - 1) * r + n // r ** (m - 1)) // m
            if nxt >= r:
                break
            r = nxt
    return r if r**m == n else None


def rational_root(q: Fraction, m: int) -> Fraction | None:
    """The real m-th root of q when it is rational, preferring the positive one."""
    q = rat(q)
    positive_int(m, "m")
    if q == 0:
        return Fraction(0)
    if q < 0:
        if m % 2 == 0:
            return None
        r = rational_root(-q, m)
        return None if r is None else -r
    num = _iroot(q.numerator, m)
    den = _iroot(q.denominator, m)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _root_name(m: int) -> str:
    """'square root', 'cube root', then '4th', '21st', '22nd', '23rd', '11th root'."""
    if m in (2, 3):
        return ("square", "cube")[m - 2] + " root"
    suffix = "th" if m % 100 in (11, 12, 13) else {1: "st", 2: "nd", 3: "rd"}.get(m % 10, "th")
    return f"{m}{suffix} root"


def rational_power(base: Fraction, e: Fraction) -> Fraction:
    """Exact base**e for rational e, base != 0 when e < 0: a power of
    rational_root(base, q), q the denominator of e; RootError when irrational."""
    e = rat(e)
    root = rational_root(base, e.denominator)
    if root is None:
        raise RootError(f"{base} has no rational {_root_name(e.denominator)}")
    return root**e.numerator


def rational_binomial(r, k: int) -> Fraction:
    """Generalized binomial coefficient r(r-1)...(r-k+1)/k! for rational r."""
    if not (is_int(k) and k >= 0):
        raise PuiseuxError(f"k must be a non-negative integer, got {k!r}")
    r = rat(r)
    num = Fraction(1)
    for i in range(k):
        num *= r - i
    return num / math.factorial(k)


# ---------------------------------------------------------------------------
# rational matrices (row tuples)


def mat_from(rows) -> Matrix:
    try:
        out = tuple(tuple(rat(c) for c in row) for row in rows)
    except TypeError:
        raise DimensionError("matrix rows must be sequences of rationals") from None
    if not out or any(len(r) != len(out[0]) for r in out):
        raise DimensionError("matrix rows must be non-empty and rectangular")
    return out


@functools.cache
def mat_identity(h: int) -> Matrix:
    return tuple(unit_vec(h, i) for i in range(h))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _cleared(a) -> tuple[int, list[list[int]]]:
    """(s, s*a as integer rows), s the lcm of the denominators of a."""
    s = math.lcm(*[c.denominator for row in a for c in row])
    return s, [[c.numerator * (s // c.denominator) for c in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a·b, as the integer product of s*a and t*b over s*t."""
    (s, x), (t, y) = _cleared(a), _cleared(b)
    cols = list(zip(*y))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), s * t) for col in cols) for row in x)


def mat_vec(a: Matrix, v: Vec) -> Vec:
    """Column action a·v, v of the width of a."""
    return tuple(r[0] for r in mat_mul(a, [[c] for c in v]))


def mat_det(a: Matrix) -> Fraction:
    """The determinant of the square matrix a, det(s*a)/s^n, s the lcm of
    the denominators of a, by fraction-free (Bareiss) elimination on s*a,
    where every division is exact.  Every caller checks the shape first."""
    n = len(a)
    (s, m), sign, prev = _cleared(a), 1, 1
    for j in range(n - 1):
        if not m[j][j]:
            piv = next((i for i in range(j + 1, n) if m[i][j]), None)
            if piv is None:
                return Fraction(0)
            m[j], m[piv], sign = m[piv], m[j], -sign
        for row in m[j + 1 :]:
            for k in range(j + 1, n):
                row[k] = (row[k] * m[j][j] - row[j] * m[j][k]) // prev
        prev = m[j][j]
    return Fraction(sign * m[-1][-1], s**n) if n else Fraction(1)


def _mat_json(a: Matrix) -> list[list[str]]:
    return [[str(c) for c in row] for row in a]


# ---------------------------------------------------------------------------
# lattices


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def _echelon_reduce(by_pivot: list, vec: list[int], insert: bool) -> bool:
    """Reduce the integer vector vec, consumed, against echelon rows.

    by_pivot[j] is the row whose first nonzero entry is at column j, or None.
    Returns True when vec lies in the group the rows generate, which then
    stay as they are.  Otherwise, with insert, the rows change to generate
    vec too: one xgcd step per shared pivot, or a new row at a free pivot."""
    member = True
    for j, b in enumerate(vec):
        if b == 0:
            continue
        row = by_pivot[j]
        if row is None:
            if insert:
                by_pivot[j] = vec
            return False
        a = row[j]
        if b % a == 0:
            q = b // a
            for k in range(j, len(vec)):
                vec[k] -= q * row[k]
        elif not insert:
            return False
        else:
            member = False
            x, y, g = _xgcd(a, b)
            ag, bg = a // g, b // g
            for k in range(j, len(vec)):
                ra, rb = row[k], vec[k]
                row[k] = x * ra + y * rb
                vec[k] = -bg * ra + ag * rb
    return member


def _hermite_rows(rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Row-style Hermite form: echelon with positive pivots, entries above a
    pivot reduced into [0, pivot)."""
    by_pivot: list = [None] * ncols
    for r in rows:
        _echelon_reduce(by_pivot, list(r), True)
    pivots, basis = [], []
    for j, row in enumerate(by_pivot):
        if row is not None:
            pivots.append(j)
            basis.append(row if row[j] > 0 else [-c for c in row])
    # reduce entries above each pivot, in ascending pivot order so a step
    # only alters columns to the right of every previously reduced pivot
    for i, j in enumerate(pivots):
        p = basis[i][j]
        for k in range(i):
            q = basis[k][j] // p
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return [tuple(r) for r in basis]


class Lattice:
    """A finitely generated subgroup of Q^h with decidable membership.

    Internally the generators are cleared of denominators by a single scale s
    and brought to an integral Hermite form; the pair (s, rows) is canonical,
    so equality of lattices is equality of the stored data.
    """

    __slots__ = ("dim", "scale", "rows", "_by_pivot")

    def __init__(self, dim: int, generators: Iterable = ()):
        self._set(positive_int(dim, "lattice dim"), *_cleared([as_vec(g, dim) for g in generators]))

    def _set(self, dim: int, scale: int, int_rows) -> None:
        """Store the lattice (1/scale)·span(int_rows) in canonical form.
        scale must be the least that clears the generators: then each prime
        p of scale leaves an entry of some generator prime to p, so the
        Hermite rows, which span the same group, have gcd(scale, rows) = 1."""
        self.dim = dim
        self.scale = scale
        self.rows = tuple(_hermite_rows(int_rows, dim))
        by_pivot = [None] * dim
        for r in self.rows:
            by_pivot[next(j for j, c in enumerate(r) if c)] = r
        self._by_pivot = tuple(by_pivot)

    @classmethod
    def _from_ints(cls, dim: int, scale: int, int_rows) -> "Lattice":
        lat = cls.__new__(cls)
        lat._set(dim, scale, int_rows)
        return lat

    @classmethod
    @functools.cache
    def standard(cls, dim: int) -> "Lattice":
        return cls.scaled_axes(dim, [1] * dim)

    @classmethod
    def scaled_axes(cls, dim: int, scales: Sequence) -> "Lattice":
        """The lattice s_1 Z v_1 + ... + s_h Z v_h.  For positive s_i the
        diagonal of the s_i*scale, scale the lcm of their denominators, is
        its own Hermite form, and gcd(scale, s_1*scale, ...) = 1: each prime
        p of scale has its full power in the denominator of some s_i, whose
        numerator is prime to p, so p does not divide s_i*scale.  Zero or
        negative s_i go through the general reduction."""
        if len(scales) != dim:
            raise DimensionError("one scale per axis required")
        scales = [s if type(s) is int else rat(s) for s in scales]
        scale = math.lcm(1, *[s.denominator for s in scales])
        diag = [s.numerator * (scale // s.denominator) for s in scales]
        rows = tuple([(0,) * i + (d,) + (0,) * (dim - 1 - i) for i, d in enumerate(diag)])
        if min(diag, default=1) <= 0:
            return cls._from_ints(dim, scale, rows)
        return cls._diagonal(dim, scale, rows)

    @classmethod
    def _diagonal(cls, dim: int, scale: int, rows: tuple) -> "Lattice":
        """(1/scale)·span(rows), rows a positive diagonal in canonical form."""
        lat = cls.__new__(cls)
        lat.dim, lat.scale, lat.rows, lat._by_pivot = dim, scale, rows, rows
        return lat

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(c, self.scale) for c in r) for r in self.rows)

    def _grid_rows(self, grid: int) -> list:
        """The echelon rows on the grid (1/grid)Z^h, as _echelon_reduce takes
        them (fresh lists, so they may grow); grid must be a multiple of scale."""
        k = grid // self.scale
        return [None if r is None else [c * k for c in r] for r in self._by_pivot]

    def contains(self, v) -> bool:
        v = as_vec(v, self.dim)
        w = [c * self.scale for c in v]
        if any(c.denominator != 1 for c in w):
            return False
        return _echelon_reduce(self._by_pivot, [int(c) for c in w], False)

    def join(self, extra: Iterable) -> "Lattice":
        extra = [as_vec(v, self.dim) for v in extra]
        scale = math.lcm(self.scale, *(c.denominator for v in extra for c in v))
        k = scale // self.scale
        int_rows = [[c * k for c in r] for r in self.rows]
        int_rows += [[c.numerator * (scale // c.denominator) for c in v] for v in extra]
        return Lattice._from_ints(self.dim, scale, int_rows)

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.dim != self.dim:
            raise DimensionError("lattice dimensions differ")
        return all(self.contains(b) for b in other.basis())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.dim == other.dim
            and self.scale == other.scale
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.dim, self.scale, self.rows))

    def __repr__(self):
        return f"Lattice({self.dim}, {[fmt_vec(b) for b in self.basis()]})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "basis": [[str(c) for c in b] for b in self.basis()]}

    @classmethod
    def from_json(cls, data: dict) -> "Lattice":
        dim, basis = json_fields(data, ("dim", "basis"), "lattice JSON")
        return cls(dim, json_shape(basis, list, "lattice JSON basis"))


# ---------------------------------------------------------------------------
# additive orders


class AdditiveOrder:
    """A total additive order on Q^h: compare a, b by the lexicographic order
    of matrix·a versus matrix·b.

    The order dominates Q^h_+ (every bounded-denominator subset has a
    minimum) exactly when every coordinate vector is positive, that is when
    the first nonzero entry of every column of the matrix is positive; the
    ``dominating`` flag is that rule, read off the matrix.

    _rows holds the matrix cleared of denominators by a positive factor,
    which changes no comparison, so integer points rank by integer dot
    products; it is None for the identity matrix.
    """

    __slots__ = ("matrix", "kind", "dominating", "_rows")

    def __init__(self, matrix: Matrix, kind: str):
        matrix = mat_from(matrix)
        if len(matrix) != len(matrix[0]):
            raise DimensionError("order matrix must be square")
        if mat_det(matrix) == 0:
            raise OrderError("order matrix must be invertible")
        self._set(matrix, kind)

    def _set(self, matrix: Matrix, kind: str) -> "AdditiveOrder":
        self.matrix, self.kind = matrix, kind
        # an invertible matrix has a nonzero entry in every column
        self.dominating = all(next(c for c in col if c) > 0 for col in zip(*matrix))
        identity = matrix == mat_identity(len(matrix))
        self._rows = None if identity else tuple(map(tuple, _cleared(matrix)[1]))
        return self

    @classmethod
    @functools.cache
    def lex(cls, dim: int) -> "AdditiveOrder":
        """The lexicographic order; one shared instance per dim."""
        return cls(mat_identity(dim), "lex")

    @classmethod
    def weighted(cls, weights) -> "AdditiveOrder":
        w = as_vec(weights)
        if any(c <= 0 for c in w):
            raise OrderError("weight-lex requires strictly positive weights")
        h = len(w)
        rows = [w] + [unit_vec(h, i) for i in range(h - 1)]
        return cls(tuple(rows), "positive-weight-lex")

    @classmethod
    def from_matrix(cls, rows) -> "AdditiveOrder":
        m = mat_from(rows)
        if m == mat_identity(len(m)):
            return cls.lex(len(m))
        return cls(m, "positive-weight-lex" if all(c > 0 for c in m[0]) else "matrix")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def key(self, v) -> Vec:
        v = as_vec(v, self.dim)
        return v if self._rows is None else mat_vec(self.matrix, v)

    def compare(self, a, b) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def min(self, vectors):
        items = list(vectors)
        if not items:
            raise PuiseuxError("minimum of an empty collection")
        return min(items, key=self.key)

    def compose(self, q) -> "AdditiveOrder":
        """The order comparing a, b by comparing q(a), q(b) under self, where
        q acts on exponent vectors by the row convention v -> v·q."""
        q = mat_from(q)
        if len(q) != self.dim or len(q[0]) != self.dim:
            raise DimensionError(
                f"substitution matrix is {len(q)}x{len(q[0])}, the order's dimension is {self.dim}"
            )
        if mat_det(q) == 0:
            raise OrderError("singular substitution matrix")
        return self._compose(q)

    def _compose(self, q: Matrix) -> "AdditiveOrder":
        """compose for an invertible q of the order's dimension, unchecked."""
        matrix = mat_mul(self.matrix, mat_transpose(q))
        return object.__new__(AdditiveOrder)._set(matrix, "composed")

    def __eq__(self, other):
        return isinstance(other, AdditiveOrder) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AdditiveOrder({self.kind}, {_mat_json(self.matrix)})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "matrix": _mat_json(self.matrix), "dominating": self.dominating}

    @classmethod
    def from_json(cls, data: dict) -> "AdditiveOrder":
        # dominating is read off the matrix, whatever data says
        matrix, kind = json_fields(data, ("matrix", "kind"), "order JSON")
        return cls(json_shape(matrix, list, "order JSON matrix"), json_shape(kind, str, "order JSON kind"))
