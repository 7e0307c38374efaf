"""Seeded random generators shared by the property and acceptance tests."""

from fractions import Fraction

from puiseux import AdditiveOrder, BranchData, Lattice, PuiseuxSeries

NONZERO = [Fraction(n) for n in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
]


def random_exponent(rng, h, denoms, max_num=6):
    return tuple(
        Fraction(rng.randrange(0, max_num + 1), rng.choice(denoms)) for _ in range(h)
    )


def random_unit_series(rng, h, precision, max_terms=5, denoms=(1,), constant=None):
    """Random invertible series; when the first variable gets fractional
    exponents the constant term is 1 so duals stay rational."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = random_exponent(rng, h, denoms)
        if all(c == 0 for c in exp):
            continue
        terms[exp] = rng.choice(NONZERO)
    fractional_first = any(e[0].denominator > 1 for e in terms)
    if constant is None:
        constant = Fraction(1) if fractional_first else rng.choice(NONZERO)
    terms[tuple(Fraction(0) for _ in range(h))] = constant
    return PuiseuxSeries(h, terms, precision)


def perfect_power_unit(rng, h, precision, denoms):
    """A random unit whose constant term has a rational n1-th root."""
    s = random_unit_series(rng, h, precision, max_terms=5, denoms=denoms)
    n1 = s.ramification[0]
    terms = dict(s.terms)
    terms[tuple(Fraction(0) for _ in range(h))] = rng.choice(NONZERO) ** n1
    return PuiseuxSeries(h, terms, precision)


def random_branch_data(rng, precision=Fraction(12)):
    """One-variable branch data with small n, m and a unit support that
    keeps both presentations primitive."""
    n = rng.randrange(1, 7)
    m = rng.randrange(1, 7)
    atilde = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
    terms = {(Fraction(0),): atilde, (Fraction(1),): rng.choice(NONZERO) * atilde}
    for _ in range(rng.randrange(0, 4)):
        e = rng.randrange(2, 9)
        terms[(Fraction(e),)] = rng.choice(NONZERO) * atilde
    unit = PuiseuxSeries(1, terms, precision)
    return BranchData(unit, m, atilde, (n,))


def random_dominating(rng, h, m1, denoms):
    """a x1^(m1/n1) + a few terms above it, n_i drawn from denoms; the
    returned root is a rational m1-th root of a."""
    n = [rng.choice(denoms) for _ in range(h)]
    root = rng.choice(NONZERO)
    lead = (Fraction(m1, n[0]),) + (Fraction(0),) * (h - 1)
    terms = {lead: root**m1}
    # the first step 1/n1 keeps n1 the first denominator, so m1 stays m1
    for step in [1] + [rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))]:
        e = tuple(Fraction(rng.randrange(0, 5), d) for d in n)
        terms[(lead[0] + Fraction(step, n[0]),) + e[1:]] = rng.choice(NONZERO)
    return PuiseuxSeries(h, terms), root


def random_unimodular(rng, h, steps=4):
    """Non-negative unimodular matrix: a product of elementary row additions
    applied to the identity."""
    rows = [[Fraction(int(i == j)) for j in range(h)] for i in range(h)]
    for _ in range(rng.randrange(0, steps + 1)):
        i, j = rng.randrange(h), rng.randrange(h)
        if i == j:
            continue
        rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows]


def random_lattice(rng, h, denoms=(1, 2, 3)):
    gens = [random_exponent(rng, h, denoms, max_num=4) for _ in range(h)]
    lat = Lattice(h, gens + [tuple(Fraction(int(i == j)) * 2 for j in range(h)) for i in range(h)])
    return lat


def random_scalar_set(rng, size=8, bound=40):
    return {Fraction(rng.randrange(1, bound + 1)) for _ in range(size)}


def random_order(rng, h):
    if rng.random() < 0.5:
        return AdditiveOrder.lex(h)
    weights = [Fraction(rng.randrange(1, 5), rng.choice((1, 2))) for _ in range(h)]
    return AdditiveOrder.weighted(weights)
