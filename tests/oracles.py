"""Independent brute-force oracles and reference algorithms.

The brute-force oracles are written against plain dicts and integers,
deliberately avoiding the library's own algorithms, so the tests compare two
genuinely different computation paths.  The reference algorithms at the end
are the library's earlier versions, and the current ones must agree with
them coefficient for coefficient:

- power and dual computations built from series multiplication alone;
- the per-k dual read off a power, one capped heap walk of the recurrence
  per first coordinate k, each scaled by Fraction products, where the
  library now advances all runs together in one integer loop (one
  variable) or one walk over the keys (several);
- the exponent table, the least number of generators summing to each
  point below the targets.  Irreducible exponents are read off it, every
  element of S tried as a generator at every point below it, where the
  library now walks the points once in increasing degree; so is semigroup
  membership, where the library now descends from the target in layers;
  and the identity report is built on the table's irreducible exponents
  from the Fraction supports and coefficient();
- essential sequences by repeated minima and by a walk over Fraction
  vectors with rebuilt lattices, Hermite form and monomial substitution,
  and characteristic exponents by the denominator rule, where the library
  now reads them off the essential walk relative to Z;
- the inversion pipeline that duals the dense unit part itself, with its
  own unit-frame lattices, rescaling and unit precision, all in Fraction
  arithmetic through the general Lattice constructor;
- the diagonal frame change on Fraction ratios and a Fraction precision,
  and the dominating profile read off the Fraction support;
- the one-variable Lagrange oracle by repeated series products, where the
  library now reads one table of powers of C off eta's terms;
- the text parser and JSON reader that build a Fraction per token and a
  Fraction tuple per term, and the writers that format sorted_terms'
  Fraction vectors, where the library now reads and writes integer keys;
- the determinant by Fraction elimination, where the library now runs
  fraction-free integer elimination; the key map of a monomial
  substitution built by dividing Fractions, where the library reduces int
  pairs; and the Lipman test's chain of Lattice joins, each support
  element tested by Lattice.contains, where the library walks the keys
  against integer echelon rows; and a Lipman witness rechecked by the
  same Lattice joins.
"""

import heapq
import math
import operator
import re
from fractions import Fraction
from itertools import product

from puiseux import (
    INF,
    ParseError,
    PrecisionError,
    PuiseuxError,
    PuiseuxSeries,
    RootError,
    dual,
)
from puiseux.core import (
    AdditiveOrder,
    DimensionError,
    Lattice,
    OrderError,
    as_vec,
    fmt_vec,
    mat_from,
    mat_vec,
    rat,
    rational_binomial,
    rational_power,
    rational_root,
    unit_vec,
)
from puiseux.exponents import (
    EssentialSequence,
    drop_integral_head,
    essential_of_series,
)
from puiseux.inversion import DominationError, InversionResult, _halphen_stolz_report
from puiseux.quasi_ordinary import LipmanWitness, QOVerdict
from puiseux.reports import CheckReport
from puiseux.series import DEFAULT_PRECISION, _cut, _reframe_prec, default_names

# dense univariate polynomials: dict {int exponent: Fraction}, truncated


def p_trim(p, bound):
    return {e: c for e, c in p.items() if c != 0 and e <= bound}


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
    expansion, factoring out the dominating monomial when it is not the
    constant term (s_0 = 0, or a Laurent series below its constant term)."""
    if n == 0:
        return PuiseuxSeries.one(s.num_vars)
    if n > 0:
        acc = s
        for _ in range(n - 1):
            acc = acc * s
        return acc
    if s.is_zero():
        raise PuiseuxError("negative power of the zero series")
    if s.order_total() == 0:
        return unit_power_binomial(s, n)
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


def capped_heap_run(f, r, cap=None):
    """The library's earlier run of Miller's recurrence for P = (f/f_0)**r,
    by grid key without zeros: keys finish in increasing total degree from
    a heap of degrees, each finished P_g pushed to g + j with weight
    a_j (r T(j) - T(g)).  With cap only the keys at first coordinate cap are
    returned, and only keys from which one of them is still reachable within
    the degree bound are computed.

    The result stops at total degree floor(precision*L); an exact series
    raised to a non-negative integer r stops at r*max T."""
    grid = f.ramification
    lcm_all = math.lcm(*grid)
    weights = [lcm_all // n for n in grid]
    w0 = weights[0]
    c0 = f.constant_term()
    items = [(sum(map(operator.mul, g, weights)), g, c / c0) for g, c in f._keys.items()]
    items = [(t, g, c) for t, g, c in items if t]
    den = math.lcm(*(c.denominator for _, _, c in items))
    cutoff = INF if f.precision is INF else math.floor(f.precision * lcm_all)
    if not items:
        limit = 0
    elif r.denominator == 1 and r >= 0:
        limit = min(r.numerator * max(t for t, _, _ in items), cutoff)
    elif cutoff is INF:
        raise PrecisionError("power of an exact non-constant series has infinite support")
    else:
        limit = cutoff
    # the push weight is a_j (r T(j) - T(k)) = A_j (p T(j) - q T(k)) / (q den)
    # for r = p/q; each step is checked against two additive budgets: the
    # first is sorted and ends the scan, the second is only skipped
    p, q = r.numerator, r.denominator
    if cap is None:
        first, second = limit, 0
        steps = sorted((t, 0, t, g, int(c * den)) for t, g, c in items)
    else:
        first, second = cap, limit - cap * w0
        steps = sorted((g[0], t - g[0] * w0, t, g, int(c * den)) for t, g, c in items)
    # a key finished at degree d pushes its numerator over lcm_den[d], the lcm
    # of every denominator finished so far, and a pending sum (s, e) stands
    # for s / lcm_den[e]
    lcm_den = {}
    common = 1
    pending = {0: {(0,) * len(grid): None}}
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
        for g, v in finished:
            out[g] = v
            n = v.numerator * (common // v.denominator)
            first_g, second_g = (d, 0) if cap is None else (g[0], d - g[0] * w0)
            for first_j, second_j, t, gj, a in steps:
                if first_g + first_j > first:
                    break
                if second_g + second_j > second:
                    continue
                mult = p * t - q * d
                if not mult:
                    continue
                key = tuple(map(operator.add, g, gj))
                c = n * a * mult
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
    if cap is not None:
        out = {g: v for g, v in out.items() if g[0] == cap}
    return out


def dual_from_power_reference(power, m, c0, a):
    """The library's earlier psi^a read off power = phi^m: every k is one
    capped heap run at first coordinate k, scaled by the Fraction product
    r0^-(k + a*n1) * a*n1/(k + a*n1)."""
    if c0 == 0:
        raise PuiseuxError("dual requires a nonzero constant term")
    if power.laurent:
        raise PuiseuxError("dual of a Laurent series is not defined")
    prec = power.precision
    if prec is INF and len(power.terms) > 1:
        raise PrecisionError("dual of an exact non-constant series has infinite support")
    n1 = power.ramification[0]
    r0 = c0 if n1 == 1 else rational_root(c0, n1)
    if r0 is None:
        raise RootError(f"no rational {n1}-th root of {c0}")
    step = math.gcd(*(g[0] for g in power._keys))
    ks = range(0, math.floor(prec * n1) + 1, step) if step else [0]
    found = {}
    factor, stride = r0 ** -(a * n1), r0 ** -step
    for k in ks:
        coeffs = capped_heap_run(power, Fraction(-(k + a * n1), n1 * m), cap=k)
        scale = factor * Fraction(a * n1, k + a * n1)
        found.update((g, c * scale) for g, c in coeffs.items())
        factor *= stride
    return PuiseuxSeries._from_keys(found, power.ramification, prec, False)


# the exponent table, and reference irreducible exponents, membership and
# identity report


def _exponent_set(S):
    """(vectors, scalar input) of an exponent set: scalars or tuples."""
    items = list(S)
    scalar = bool(items) and not isinstance(items[0], tuple)
    return [as_vec(v) for v in items], scalar


# the exponent table's own bound, box points times generators: the
# references below refuse past it rather than fill a table that large
GRID_LIMIT = 10**6


def _fewest_terms(gens, targets):
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

    def to_grid(v):
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
            y = tuple(map(operator.sub, x, g))
            if y not in down and min(y) >= 0:
                down.add(y)
                stack.append(y)
    fewest = {(0,) * dim: 0}
    for x in sorted(down, key=sum):
        below = (tuple(map(operator.sub, x, g)) for g in steps)
        counts = [fewest[y] for y in below if y in fewest]
        if counts:
            fewest[x] = min(counts) + 1
    return fewest, to_grid


def semigroup_member_table_reference(S, v, max_terms):
    """The library's earlier semigroup_member_oracle: 1 <= fewest[v] <=
    max_terms in the exponent table of S below v."""
    vecs, _ = _exponent_set(S)
    v = as_vec(v, len(vecs[0]) if vecs else None)
    fewest, to_grid = _fewest_terms(vecs, [v])
    return 1 <= fewest.get(to_grid(v), 0) <= max_terms


def irreducible_table_reference(S):
    """The library's earlier irreducible exponents: a nonzero r is reducible
    exactly when r - g has an entry in the exponent table of S for some
    nonzero g != r in S."""
    vecs, scalar = _exponent_set(S)
    nonzero = list({v for v in vecs if any(v)})
    result = set(vecs) - set(nonzero)
    if nonzero:
        fewest, to_grid = _fewest_terms(nonzero, nonzero)
        grid = [to_grid(v) for v in nonzero]
        for r, x in zip(nonzero, grid):
            if not any(g != x and tuple(map(operator.sub, x, g)) in fewest for g in grid):
                result.add(r)
    if scalar:
        return {v[0] for v in result}
    return result


def irreducible_identity_reference(title, phi, image, name, constant, label, factor):
    """The library's earlier identity report, on the Fraction supports, the
    reference irreducible exponents and coefficient()."""
    report = CheckReport(title)
    irr_phi = irreducible_table_reference(phi.support())
    irr_image = irreducible_table_reference(image.support())
    for e in sorted(irr_phi ^ irr_image, key=lambda v: (sum(v), v)):
        in_phi = e in irr_phi
        report.record(
            "irreducible sets equal", "phi" if in_phi else name, name if in_phi else "phi", e
        )
    zero = tuple(Fraction(0) for _ in range(phi.num_vars))
    report.record("constant term", image.coefficient(zero), constant, zero)
    for r in sorted(irr_phi & irr_image, key=lambda v: (sum(v), v)):
        if r != zero:
            report.record(label, image.coefficient(r), factor(r) * phi.coefficient(r), r)
    return report


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


def characteristic_denominator_rule(psi):
    """The library's earlier characteristic exponents of a one-variable
    series: the support elements, in increasing order, whose denominator
    does not divide the lcm denominator of all earlier support."""
    entries, m = [], 1
    for (e,) in sorted(psi.support()):
        if m % e.denominator:
            entries.append(e)
        m = math.lcm(m, e.denominator)
    return tuple(entries)


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


def monomial_substitute_fractions(s, matrix):
    """The library's earlier monomial_substitute: the key map built from
    the Fraction ratios q_ij/n_j, each row scaled by the lcm of its
    denominators, and the column sums added as Fractions."""
    q = mat_from(matrix)
    if len(q) != s.num_vars or len(q[0]) != s.num_vars:
        raise DimensionError("substitution matrix has wrong shape")
    if any(c < 0 for row in q for c in row):
        raise PuiseuxError("substitution matrix must be non-negative")
    if mat_det_fractions(q) == 0:
        raise PuiseuxError("substitution matrix must be invertible")
    col_sums = [sum(q[i][j] for i in range(len(q))) for j in range(len(q))]
    if not s.laurent and col_sums == [row[j] for j, row in enumerate(q)]:
        return s._reframe(col_sums)
    prec = _reframe_prec(s.precision, col_sums)
    ratios = [[x / n for x, n in zip(row, s.ramification)] for row in q]
    grid = tuple(math.lcm(*(x.denominator for x in row)) for row in ratios)
    a = [[(j, int(x * m)) for j, x in enumerate(row) if x] for row, m in zip(ratios, grid)]
    keys = {
        tuple([sum([g[j] * x for j, x in row]) for row in a]): c
        for g, c in s._keys.items()
    }
    if s.laurent:
        for g, img in zip(s._keys, keys):
            if any(x < 0 for x in img):
                raise PuiseuxError(
                    f"substitution sends {fmt_vec(s._vec(g))} to negative exponent "
                    f"{fmt_vec(tuple(map(Fraction, img, grid)))}"
                )
    return PuiseuxSeries._from_keys(_cut(keys, grid, prec), grid, prec, False)


def mat_det_fractions(a):
    """The library's earlier determinant: Fraction elimination, the first
    nonzero entry of each column as the pivot."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionError("determinant of a non-square matrix")
    m = [[Fraction(c) for c in row] for row in a]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det *= m[j][j]
        inv = 1 / m[j][j]
        for i in range(j + 1, n):
            if m[i][j] != 0:
                f = m[i][j] * inv
                for k in range(j, n):
                    m[i][k] -= f * m[j][k]
    return det


def mat_mul_fractions(a, b):
    """The library's earlier a·b, summing Fraction products."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def vec_mat(v, a):
    """The row action v·a, the convention of toric charts: row i of a is
    the exponent vector of the monomial substituted for the i-th variable."""
    return mat_mul_fractions([v], a)[0]


def qo_test_lattices(psi):
    """The library's earlier qo_test: the candidates' prefixes joined onto
    Z^h as a chain of Lattice objects, and the Fraction support, sorted by
    total degree and then lexicographically, tested with Lattice.contains."""
    ess = essential_of_series(psi)
    candidates = drop_integral_head(ess)
    certified = ess.complete
    leq = lambda a, b: all(x <= y for x, y in zip(a, b))  # noqa: E731
    witness = None
    for a, b in zip(candidates, candidates[1:]):
        if not leq(a, b):
            witness = LipmanWitness("comparability", (a, b))
            break
    if witness is None:
        lattices = [Lattice.standard(psi.num_vars)]
        for c in candidates:
            lattices.append(lattices[-1].join([c]))
        for lam in sorted(psi.support(), key=lambda e: (sum(e), e)):
            below = 0
            while below < len(candidates) and leq(candidates[below], lam):
                below += 1
            if not lattices[below].contains(lam):
                witness = LipmanWitness("membership", (lam,))
                break
    if witness is not None:
        return QOVerdict(False, None, witness, certified, ess)
    if not certified:
        return QOVerdict(None, tuple(candidates), None, False, ess)
    return QOVerdict(True, tuple(candidates), None, True, ess)


def recheck_witness(witness, candidates) -> bool:
    """Re-evaluate the condition a LipmanWitness names as violated, by
    Lattice joins on Fraction vectors; False confirms the failure."""
    leq = lambda a, b: all(x <= y for x, y in zip(a, b))  # noqa: E731
    if witness.condition == "comparability":
        return leq(*witness.elements)
    (lam,) = witness.elements
    below = [c for c in candidates if leq(c, lam)]
    return Lattice.standard(len(lam)).join(below).contains(lam)


def _diag(entries):
    h = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(h)] for i in range(h)]


def extract_branch_eager(eta, root_coeff, unit_precision):
    """The library's earlier extraction: unit^m1 = eta_t/t1^m1 through
    monomial_substitute, shift and truncate, three series, and the dense
    m1-th root built at once; returns (unit, unit^m1)."""
    n = eta.ramification
    m1 = int(min(e[0] for e in eta.support()) * n[0])
    h = eta.num_vars
    a = eta.coefficient((Fraction(m1, n[0]),) + (Fraction(0),) * (h - 1))
    atilde = rational_root(a, m1) if root_coeff is None else Fraction(root_coeff)
    eta_t = eta.monomial_substitute(_diag(list(n)))
    unit_m = eta_t.shift(tuple(-m1 * c for c in unit_vec(h, 0)))
    unit_m = unit_m.truncate(unit_precision)
    return unit_m.unit_root(m1, atilde), unit_m


def _unit_frame_lattice(h, first):
    """first*Z v1 + Z v2 + ... + Z vh, through the general constructor."""
    return Lattice(h, [[first if i == j == 0 else int(i == j) for j in range(h)]
                       for i in range(h)])


def _rescale_sequence(seq, divisors):
    """The library's earlier rescaling: Fraction division of the entries and
    of the lattice basis, and the lattice rebuilt by its constructor."""
    entries = tuple(tuple(c / d for c, d in zip(e, divisors)) for e in seq.entries)
    lattice = Lattice(
        seq.relative_to.dim,
        [tuple(c / d for c, d in zip(b, divisors)) for b in seq.relative_to.basis()],
    )
    return EssentialSequence(entries, lattice, seq.order, seq.complete)


def _required_unit_precision(target, m1, n):
    """N = target*max(m1, n2, ..., nh) - n1, at least 0, in Fraction arithmetic."""
    if target == INF:
        return INF
    return max(Fraction(0), Fraction(target) * max([m1] + list(n[1:])) - n[0])


def reframe_reference(s, diagonal, shift=0, cap=INF):
    """The library's earlier PuiseuxSeries._reframe: the ratios d_i/n_i as
    Fractions, the precision min(d)*T + shift in Fraction arithmetic, then
    min with cap, and the keys past it cut by their Fraction total degree."""
    ratios = [Fraction(d) / n for d, n in zip(diagonal, s.ramification)]
    grid = tuple(x.denominator for x in ratios)
    first, *rest = (x.numerator for x in ratios)
    step = shift * grid[0]
    keys = {
        (g[0] * first + step, *map(operator.mul, g[1:], rest)): c
        for g, c in s._keys.items()
    }
    moved = INF if s.precision is INF else min(diagonal) * s.precision + shift
    cap = INF if cap == INF else rat(cap)
    prec = moved if moved <= cap else cap
    if prec is not INF and (prec < moved or min(diagonal) != max(diagonal)):
        keys = {g: c for g, c in keys.items() if sum(map(Fraction, g, grid)) <= prec}
    return PuiseuxSeries._from_keys(keys, grid, prec, False)


def dominating_profile_reference(eta):
    """(a, m1) of the dominating pure-x1 term, read off the Fraction support
    as the library did before; DominationError names the witness."""
    if eta.is_zero():
        raise DominationError("the zero series has no dominating term")
    if eta.laurent:
        raise DominationError("dominating extraction needs non-negative exponents")
    support = eta.support()
    lam1 = min(e[0] for e in support)
    candidate = (lam1,) + (Fraction(0),) * (eta.num_vars - 1)
    if lam1 <= 0 or candidate not in support:
        witness = min((e for e in support if e[0] == lam1), key=lambda e: (sum(e), e))
        raise DominationError(
            f"series is not x1-dominating: offending exponent {fmt_vec(witness)}"
        )
    return eta.coefficient(candidate), int(lam1 * eta.ramification[0])


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


def lagrange_coefficient_products(data, q):
    """The library's earlier one-variable Lagrange oracle: unit^m1 by the
    power kernel, then the bracket [(1 + C)^(-q/m1)]_(q-n1) by about q
    repeated series products of C = unit^m1/a~^m1 - 1."""
    if data.series.num_vars != 1:
        raise PuiseuxError("the Lagrange formula is one-variable")
    n1 = data.ramification[0]
    m1 = data.exponent_m
    atilde = data.root_coeff
    if q < n1:
        raise PuiseuxError(f"q = {q} must be at least n = {n1}")
    target = q - n1
    unit = data.series.scale(1 / atilde).pow_int(m1)
    if unit.precision < target:
        raise PrecisionError(
            f"unit part precision {unit.precision} cannot reach exponent {target}"
        )
    c_series = (unit - 1).truncate(target)
    bracket = Fraction(1) if target == 0 else Fraction(0)
    power = PuiseuxSeries.one(1, target)
    i = 1
    while not c_series.is_zero() and i * c_series.order_total() <= target:
        power = power * c_series
        bracket += rational_binomial(Fraction(-q, m1), i) * power.coefficient(
            (Fraction(target),)
        )
        i += 1
    return Fraction(n1, q) * atilde**-q * bracket


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


# reference text and JSON front door on Fraction tuples


_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*/^()=])"
)

_REFERENCE_BARE_VARS = {"x", "y", "t", "u", "v", "w"}


class _ReferenceParser:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _REFERENCE_TOKEN_RE.match(text, pos)
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

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_rational(self):
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

    def parse_factor(self):
        tok = self.expect("name")
        name = tok[1]
        exponent = Fraction(1)
        if self.peek()[:2] == ("op", "^"):
            self.next()
            self.expect("op", "(")
            exponent = self.parse_rational()
            self.expect("op", ")")
        return name, exponent


def parse_reference(text, num_vars=None, precision=None, laurent=False):
    """The earlier parse: a peek/next parser over regex tokens that builds a
    Fraction per token and a Fraction tuple per term, then the public
    constructor."""
    p = _ReferenceParser(text)
    raw_terms = []
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
        factors = []
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

    names = {name for factors, _, _ in raw_terms for name, _ in factors}
    bare = {n for n in names if n.isalpha()}
    indexed = {n for n in names if not n.isalpha()}
    if bare and indexed:
        raise ParseError("cannot mix bare and indexed variable names", 0)
    if bare:
        unknown = bare - _REFERENCE_BARE_VARS
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

    terms = []
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
        prec = INF if precision == INF else rat(precision)
    else:
        prec = DEFAULT_PRECISION
    return PuiseuxSeries(h, terms, prec, laurent)


def from_json_reference(data):
    """The earlier PuiseuxSeries.from_json: Fraction(str) on every exponent
    and coefficient, then the public constructor."""
    prec = INF if data.get("precision") is None else rat(data["precision"])
    terms = [(tuple(rat(c) for c in t["exp"]), rat(t["coef"])) for t in data["terms"]]
    laurent = data.get("laurent", False) or any(c < 0 for e, _ in terms for c in e)
    return PuiseuxSeries(data["vars"], terms, prec, laurent)


def format_series_reference(s, names=None):
    """The earlier format_series, written from sorted_terms' Fraction vectors."""
    names = names or default_names(s.num_vars)
    parts = []
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
        parts.append(("-" if coef < 0 else "+", body))
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


def to_json_reference(s):
    """The earlier to_json, written from sorted_terms' Fraction vectors."""
    return {
        "vars": s.num_vars,
        "ramification": list(s.ramification),
        "terms": [{"exp": [str(c) for c in e], "coef": str(v)} for e, v in s.sorted_terms()],
        "precision": None if s.precision is INF else str(s.precision),
    } | ({"laurent": True} if s.laurent else {})
