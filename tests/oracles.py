"""Independent brute-force oracles and reference algorithms.

The brute-force oracles are written against plain dicts and integers,
deliberately avoiding the library's own algorithms, so the tests compare two
genuinely different computation paths.  The reference algorithms at the end
are the library's earlier power and dual computations, built from series
multiplication alone, its earlier essential sequences, Hermite form and
monomial substitution, and the earlier inversion pipeline, which duals the dense unit
part itself; the current versions must agree with them coefficient for
coefficient.
"""

import heapq
import math
from fractions import Fraction
from itertools import product

from puiseux import INF, PrecisionError, PuiseuxError, PuiseuxSeries, RootError, dual
from puiseux.core import (
    AdditiveOrder,
    DimensionError,
    Lattice,
    OrderError,
    as_vec,
    mat_from,
    mat_vec,
    rational_binomial,
    rational_power,
    rational_root,
    unit_vec,
)
from puiseux.exponents import EssentialSequence
from puiseux.inversion import (
    InversionResult,
    _diag,
    _halphen_stolz_report,
    _required_unit_precision,
    _rescale_sequence,
    _unit_frame_lattice,
)

# dense univariate polynomials: dict {int exponent: Fraction}, truncated


def p_trim(p, bound):
    return {e: c for e, c in p.items() if c != 0 and e <= bound}


def p_add(p, q, bound):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return p_trim(out, bound)


def p_mul(p, q, bound):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            if e1 + e2 <= bound:
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return p_trim(out, bound)


def p_compose(p, q, bound):
    """p(q(u)) for q with zero constant term."""
    assert q.get(0, Fraction(0)) == 0
    out = {}
    power = {0: Fraction(1)}
    for e in range(0, bound + 1):
        c = p.get(e, Fraction(0))
        if c:
            for k, v in power.items():
                out[k] = out.get(k, Fraction(0)) + c * v
        power = p_mul(power, q, bound)
        if not power:
            break
    return p_trim(out, bound)


def reversion_oracle(phi, nterms):
    """Coefficients 0..nterms-1 of the series psi with u*psi(u) inverse to
    t*phi(t), found by the fixed-point substitution
    t <- (u - (Y(t) - phi0*t)) / phi0 with Y(t) = t*phi(t)."""
    bound = nterms + 1
    phi0 = phi[0]
    y_tail = {e + 1: c for e, c in phi.items() if e != 0 and e + 1 <= bound}
    t = {1: 1 / phi0}
    for _ in range(bound):
        correction = p_compose(y_tail, t, bound)
        t = p_trim(
            {1: Fraction(1, 1) / phi0},
            bound,
        )
        for e, c in correction.items():
            t[e] = t.get(e, Fraction(0)) - c / phi0
        t = p_trim(t, bound)
    # psi = t(u)/u
    return [t.get(k + 1, Fraction(0)) for k in range(nterms)]


# semigroup combinatorics, one variable and vectors


def sums_with_counts(elements, max_total, max_count):
    """All values expressible as sums of k elements (with repetition),
    indexed by k, as a dict {k: set of sums}.  Vector or scalar elements."""
    scalar = not isinstance(next(iter(elements)), tuple)
    elems = [((e,) if scalar else tuple(e)) for e in elements]
    elems = [e for e in elems if any(c != 0 for c in e)]
    by_count = {0: {tuple([Fraction(0)] * len(elems[0]))} if elems else set()}
    for k in range(1, max_count + 1):
        new = set()
        for base in by_count[k - 1]:
            for e in elems:
                s = tuple(a + b for a, b in zip(base, e))
                if sum(s) <= max_total:
                    new.add(s)
        by_count[k] = new
        if not new:
            break
    if scalar:
        return {k: {v[0] for v in vs} for k, vs in by_count.items()}
    return by_count


def irr_bruteforce(S):
    """Irreducible elements by exhaustive sum enumeration."""
    S = set(S)
    scalar = not isinstance(next(iter(S)), tuple)
    totals = [s if scalar else sum(s) for s in S]
    max_total = max(totals)
    smallest = min(t for t in totals if t > 0)
    max_count = int(max_total / smallest) + 1
    reducible = set()
    table = sums_with_counts(S, max_total, max_count)
    for k, sums in table.items():
        if k >= 2:
            reducible |= sums
    return {s for s in S if s not in reducible}


def sum_search(v, gens, min_terms, max_terms=None):
    """The library's earlier exhaustive search, without memo: is the vector v
    a sum of k nonzero generators with min_terms <= k (<= max_terms)?"""
    gens = sorted({g for g in gens if any(g)}, key=lambda g: (sum(g), g))

    def rec(target, start, used):
        if not any(target):
            return used >= min_terms
        if max_terms is not None and used >= max_terms:
            return False
        for i in range(start, len(gens)):
            g = gens[i]
            if all(a <= b for a, b in zip(g, target)) and rec(
                tuple(b - a for a, b in zip(g, target)), i, used + 1
            ):
                return True
        return False

    return rec(tuple(v), 0, 0)


def irr_dfs(S):
    """Irreducible elements by the earlier search: r is kept unless it is a
    sum of two or more other nonzero elements below it."""
    scalar = not isinstance(next(iter(S)), tuple)
    vecs = {(s,) if scalar else tuple(s) for s in S}
    result = set()
    for r in vecs:
        cands = [s for s in vecs if s != r and all(a <= b for a, b in zip(s, r))]
        if not any(r) or not sum_search(r, cands, min_terms=2):
            result.add(r)
    return {v[0] for v in result} if scalar else result


def lattice_member_bruteforce(generators, v, bound=6):
    """Is v an integer combination of the generators with coefficients in
    [-bound, bound]?  Sound for small examples only."""
    gens = [tuple(Fraction(c) for c in g) for g in generators]
    v = tuple(Fraction(c) for c in v)
    dim = len(v)
    for combo in product(range(-bound, bound + 1), repeat=len(gens)):
        s = tuple(
            sum(k * g[i] for k, g in zip(combo, gens)) for i in range(dim)
        )
        if s == v:
            return True
    return False


def mat_inv(a):
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionError("inverse of a non-square matrix")
    m = [list(row) + list(unit_vec(n, i)) for i, row in enumerate(a)]
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j] != 0), None)
        if piv is None:
            raise OrderError("singular matrix")
        m[j], m[piv] = m[piv], m[j]
        inv = 1 / m[j][j]
        m[j] = [c * inv for c in m[j]]
        for i in range(n):
            if i != j and m[i][j] != 0:
                f = m[i][j]
                m[i] = [c - f * d for c, d in zip(m[i], m[j])]
    return tuple(tuple(row[n:]) for row in m)


# reference powers and duals by series multiplication


def unit_power_binomial(s, r, constant_power=None):
    """s**r for an invertible series by the generalized binomial expansion
    of (1 + u)^r, u = s/s_0 - 1: k full series products for k terms."""
    r = Fraction(r)
    c0 = s.constant_term()
    if c0 == 0:
        raise PuiseuxError("unit_power requires a nonzero constant term")
    if constant_power is None:
        constant_power = rational_power(c0, r)
    u = s.scale(1 / c0) - 1
    prec = s.precision
    kmax = r.numerator if r.denominator == 1 and r >= 0 else None
    if prec is INF and kmax is None and not u.is_zero():
        raise PrecisionError("power of an exact non-constant series has infinite support")
    acc = PuiseuxSeries.one(s.num_vars, prec)
    power = PuiseuxSeries.one(s.num_vars, prec)
    k = 1
    while not u.is_zero():
        if kmax is not None and k > kmax:
            break
        if prec is not INF and k * u.order_total() > prec:
            break
        power = power * u
        acc = acc + power.scale(rational_binomial(r, k))
        k += 1
    return acc.scale(constant_power)


def pow_int_products(s, n):
    """s**n by repeated multiplication; negative n through the binomial
    expansion, factoring out the dominating monomial when s_0 = 0."""
    if n == 0:
        return PuiseuxSeries.one(s.num_vars)
    if n > 0:
        acc = s
        for _ in range(n - 1):
            acc = acc * s
        return acc
    if s.constant_term() != 0:
        return unit_power_binomial(s, n)
    if s.is_zero():
        raise PuiseuxError("negative power of the zero series")
    if s.num_vars != 1:
        raise PuiseuxError("negative power needs a nonzero constant term when h > 1")
    lam, a = s.dominating()
    unit = s.shift((-lam[0],)).scale(1 / a)
    body = unit_power_binomial(unit, n).scale(a**n)
    return body.shift((n * lam[0],))


def dual_tower_heap(phi):
    """The dual by a triangular solve: psi(t1*phi, t2, ..., th) = 1/phi.

    The term psi_q t^q phi^(q1) has leading coefficient psi_q phi_0^(q1) at
    q, so the minimal remaining exponent of the residual fixes one new
    coefficient per step; phi^(q1) comes from a tower of powers of
    phi^(1/n1)."""
    c0 = phi.constant_term()
    if c0 == 0:
        raise PuiseuxError("dual requires a nonzero constant term")
    if phi.laurent:
        raise PuiseuxError("dual of a Laurent series is not defined")
    prec = phi.precision
    if prec is INF and len(phi.terms) > 1:
        raise PrecisionError("dual of an exact non-constant series has infinite support")
    h = phi.num_vars
    n1 = phi.ramification[0]
    if n1 == 1:
        base = phi
    else:
        r0 = rational_root(c0, n1)
        if r0 is None:
            raise RootError(f"no rational {n1}-th root of {c0}")
        base = unit_power_binomial(phi, Fraction(1, n1), constant_power=r0)
    grid = phi.ramification
    lcm_all = math.lcm(*grid)
    weights = [lcm_all // n for n in grid]
    cutoff = None if prec is INF else math.floor(prec * lcm_all)

    def to_grid(e):
        return tuple(c.numerator * (n // c.denominator) for c, n in zip(e, grid))

    def grid_total(e):
        return sum(c * w for c, w in zip(e, weights))

    powers = [PuiseuxSeries.one(h, prec)]
    cache = {}

    def phi_power(steps):
        while len(powers) <= steps:
            powers.append(powers[-1] * base)
        if steps not in cache:
            const, items = None, []
            for e, c in powers[steps].terms.items():
                g = to_grid(e)
                if grid_total(g) == 0:
                    const = c
                else:
                    items.append((g, c, grid_total(g)))
            cache[steps] = const, items
        return cache[steps]

    residual = {to_grid(e): c for e, c in unit_power_binomial(phi, -1).terms.items()}
    heap = [(grid_total(e), e) for e in residual]
    heapq.heapify(heap)
    found = {}
    while heap:
        tq, q = heapq.heappop(heap)
        if q not in residual:
            continue
        const, items = phi_power(q[0])
        coef = residual.pop(q) / const
        found[q] = coef
        for e, c, te in items:
            if cutoff is not None and tq + te > cutoff:
                continue
            key = tuple(a + b for a, b in zip(q, e))
            old = residual.get(key)
            new = -coef * c if old is None else old - coef * c
            if new == 0:
                residual.pop(key, None)
            else:
                if old is None:
                    heapq.heappush(heap, (tq + te, key))
                residual[key] = new
    terms = {tuple(Fraction(x, n) for x, n in zip(e, grid)): c for e, c in found.items()}
    return PuiseuxSeries(h, terms, prec)


# reference essential sequences and monomial substitution


def essential_repeated_min(S, lattice, order, ramification=None):
    """The library's earlier essential sequence: after every new entry, the
    order-minimal element outside the joined lattice is searched for again
    over the whole set."""
    vecs = [as_vec(v) for v in S]
    dim = len(vecs[0])
    entries = [order.min(vecs)]
    current = lattice.join([entries[0]])
    while True:
        outside = [v for v in vecs if not current.contains(v)]
        if not outside:
            break
        nxt = order.min(outside)
        entries.append(nxt)
        current = current.join([nxt])
    denoms = [1] * dim
    for v in vecs:
        for i, c in enumerate(v):
            denoms[i] = math.lcm(denoms[i], c.denominator)
    if ramification is not None:
        denoms = [math.lcm(d, int(n)) for d, n in zip(denoms, ramification)]
    ram_lattice = Lattice.scaled_axes(dim, [Fraction(1, d) for d in denoms])
    complete = current.contains_lattice(ram_lattice)
    return EssentialSequence(tuple(entries), lattice, order, complete)


def essential_fraction_walk(S, lattice, order, ramification=None):
    """The library's earlier single walk: the joined lattice is rebuilt as
    a Lattice after every entry, and completeness is containment of the
    ramification lattice."""
    vecs = [as_vec(v) for v in S]
    dim = len(vecs[0])
    denoms = [1] * dim
    for v in vecs:
        for i, c in enumerate(v):
            denoms[i] = math.lcm(denoms[i], c.denominator)
    if ramification is not None:
        denoms = [math.lcm(d, int(n)) for d, n in zip(denoms, ramification)]
    ram_lattice = Lattice.scaled_axes(dim, [Fraction(1, d) for d in denoms])
    entries = []
    current = lattice
    complete = False
    for v in sorted(vecs, key=order.key):
        if entries and current.contains(v):
            continue
        entries.append(v)
        current = current.join([v])
        complete = current.contains_lattice(ram_lattice)
        if complete:
            break
    return EssentialSequence(tuple(entries), lattice, order, complete)


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def hermite_rows_reference(rows, ncols):
    """The library's earlier Hermite form, with its own nested insert."""
    basis, pivots = [], []

    def insert(vec):
        for j in range(ncols):
            if vec[j] == 0:
                continue
            if j not in pivots:
                where = 0
                while where < len(pivots) and pivots[where] < j:
                    where += 1
                basis.insert(where, vec)
                pivots.insert(where, j)
                return
            row = basis[pivots.index(j)]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, ncols):
                    vec[k] -= q * row[k]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, ncols):
                    ra, rb = row[k], vec[k]
                    row[k] = x * ra + y * rb
                    vec[k] = -bg * ra + ag * rb

    for r in rows:
        insert(list(r))
    for i, j in enumerate(pivots):
        if basis[i][j] < 0:
            basis[i] = [-c for c in basis[i]]
    for i in range(len(basis)):
        p = basis[i][pivots[i]]
        for k in range(i):
            q = basis[k][pivots[i]] // p
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return [tuple(r) for r in basis]


def lattice_reference(dim, generators):
    """(scale, rows) as the library's earlier Lattice constructor stored
    them for these generators."""
    gens = [as_vec(g, dim) for g in generators]
    scale = 1
    for g in gens:
        for c in g:
            scale = math.lcm(scale, c.denominator)
    rows = hermite_rows_reference([[int(c * scale) for c in g] for g in gens], dim)
    g = scale
    for r in rows:
        for c in r:
            g = math.gcd(g, c)
    if g > 1:
        scale //= g
        rows = [tuple(c // g for c in r) for r in rows]
    return scale, tuple(rows)


def substitute_constructor(s, matrix):
    """The library's earlier monomial_substitute: the images go through the
    public constructor, which validates, filters and sums them again."""
    q = mat_from(matrix)
    if any(c < 0 for row in q for c in row):
        raise PuiseuxError("substitution matrix must be non-negative")
    terms = []
    for e, c in s.terms.items():
        img = mat_vec(q, e)
        if any(x < 0 for x in img):
            raise PuiseuxError(f"substitution sends {e} to negative exponent {img}")
        terms.append((img, c))
    if s.precision is INF:
        prec = INF
    else:
        prec = min(sum(row[j] for row in q) for j in range(len(q))) * s.precision
    return PuiseuxSeries(s.num_vars, terms, prec)


def invert_xi_reference(data, target):
    """invert_branch with the dual taken of the unit part itself:
    xi_u = (u1 * dual(unit))^n1, one Lagrange run over the unit's N terms
    per coefficient, then the same frame change, essential sequences and
    identity report, the last two by the reference algorithms above."""
    unit, m1, n = data.series, data.exponent_m, data.ramification
    n1, h = n[0], unit.num_vars
    unit = unit.truncate(_required_unit_precision(target, m1, n))
    e1 = unit_vec(h, 0)
    eta_t = unit.pow_int(m1).shift(tuple(m1 * c for c in e1))
    xi_u = dual(unit).pow_int(n1).shift(tuple(n1 * c for c in e1))
    lex = AdditiveOrder.lex(h)
    ones = (1,) * h
    ess_t = essential_repeated_min(eta_t.support(), _unit_frame_lattice(h, n1), lex, ones)
    ess_u = essential_repeated_min(xi_u.support(), _unit_frame_lattice(h, m1), lex, ones)
    xi_divisors = [m1] + list(n[1:])
    return InversionResult(
        eta=substitute_constructor(eta_t, _diag([Fraction(1, d) for d in n])),
        xi=substitute_constructor(xi_u, _diag([Fraction(1, d) for d in xi_divisors])),
        m1=m1,
        n1=n1,
        root_coeff=data.root_coeff,
        ess_eta=_rescale_sequence(ess_t, n),
        ess_xi=_rescale_sequence(ess_u, xi_divisors),
        checks=_halphen_stolz_report(eta_t, xi_u, ess_t, ess_u, m1, n1, data.root_coeff),
        branch=data,
    )


# reference series arithmetic on Fraction-tuple keys


def fraction_series(num_vars, terms, precision, laurent):
    """(terms, precision, laurent, ramification) as the library's earlier
    Fraction-keyed series stored them: zero coefficients dropped, and the
    ramification the per-variable lcm of the stored denominators."""
    terms = {e: c for e, c in terms.items() if c != 0}
    ram = tuple(math.lcm(1, *(e[i].denominator for e in terms)) for i in range(num_vars))
    return terms, precision, laurent, ram


def fraction_view(s):
    """The same four fields read off a library series."""
    return s.terms, s.precision, s.laurent, s.ramification


def _order_bound(s):
    return min(min((sum(e) for e in s.terms), default=INF), s.precision)


def add_fractions(a, b):
    """The earlier a + b: sum the Fraction keys, dropping those beyond the
    lesser precision."""
    prec = min(a.precision, b.precision)
    terms = {}
    for src in (a.terms, b.terms):
        for e, c in src.items():
            if sum(e) <= prec:
                terms[e] = terms.get(e, Fraction(0)) + c
    return fraction_series(a.num_vars, terms, prec, a.laurent or b.laurent)


def mul_fractions(a, b):
    """The earlier a * b: the full convolution of the Fraction keys, cut at
    min(prec_a + ord_b, prec_b + ord_a)."""
    prec = min(a.precision + _order_bound(b), b.precision + _order_bound(a))
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= prec:
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return fraction_series(a.num_vars, terms, prec, a.laurent or b.laurent)


def shift_fractions(a, delta):
    """The earlier shift: add delta to every Fraction key."""
    delta = as_vec(delta, a.num_vars)
    terms = {tuple(x + d for x, d in zip(e, delta)): c for e, c in a.terms.items()}
    laurent = a.laurent or any(x < 0 for e in terms for x in e)
    return fraction_series(a.num_vars, terms, a.precision + sum(delta), laurent)


def truncate_fractions(a, precision):
    """The earlier truncate: keep the Fraction keys up to the lesser precision."""
    prec = min(a.precision, precision)
    terms = {e: c for e, c in a.terms.items() if sum(e) <= prec}
    return fraction_series(a.num_vars, terms, prec, a.laurent)
