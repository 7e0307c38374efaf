"""Acceptance suite: every worked example of the golden corpus, then one
test per randomised criterion; exact rational equality throughout, one
printed verdict line each."""

import math
import random
from fractions import Fraction as F

import pytest

from builders import (
    random_branch_data,
    random_lattice,
    random_order,
    random_scalar_set,
    random_unimodular,
    random_unit_series,
)
from puiseux import (
    INF,
    AdditiveOrder,
    Lattice,
    dual,
    essential_exponents,
    essential_exponents_p,
    invert_branch,
    invert_series,
    irreducible_exponents,
    lagrange_coefficient,
    lagrange_pair_check,
    parse,
    verify_dual_identity,
    verify_power_identity,
    verify_qsigma_relation,
)
from puiseux.corpus import CASES, PSI_MULTI


def _ok(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


@pytest.mark.parametrize("name, case", CASES, ids=[name for name, _ in CASES])
def test_corpus_case(name, case):
    passed, detail = case()
    assert passed, detail
    print(f"corpus: PASS  {name}: {detail}")


def _halphen_stolz_cases(count=50, seed=101):
    rng = random.Random(seed)
    return [random_branch_data(rng, precision=F(12)) for _ in range(count)]


def test_criterion_05_halphen_stolz_random():
    for data in _halphen_stolz_cases():
        res = invert_branch(data)
        m, n, a = res.m1, res.n1, res.root_coeff
        eta_seq = res.ess_eta.scalars
        xi_seq = res.ess_xi.scalars
        assert eta_seq[0] == F(m, n) and xi_seq[0] == F(n, m)
        assert len(eta_seq) == len(xi_seq)  # d' = d
        assert res.xi.coefficient((F(n, m),)) == a**-n
        for e, e_prime in zip(eta_seq[1:], xi_seq[1:]):
            assert m * (1 + e_prime) == n * (1 + e)
            lhs = res.xi.coefficient((e_prime,))
            rhs = -F(n, m) * a ** (-(1 + e) * n) * res.eta.coefficient((e,))
            assert (1 + e) * n == int((1 + e) * n)
            assert lhs == rhs
        assert res.checks.all_passed
    _ok(5, "exponent and coefficient identities hold on 50 random branches")


def test_criterion_06_lagrange_oracle_equivalence():
    for data in _halphen_stolz_cases():
        res = invert_branch(data)
        m, n = res.m1, res.n1
        q = n
        while F(q, m) <= res.xi.precision:
            assert res.xi.coefficient((F(q, m),)) == lagrange_coefficient(data, q)
            q += 1
    rng = random.Random(103)
    for _ in range(20):
        phi = random_unit_series(rng, 1, F(11), max_terms=5, denoms=(1,))
        Y = phi.shift((F(1),))
        X = dual(phi).shift((F(1),))
        pairs = [(p, q) for p in range(-4, 5) for q in range(-4, 5) if p and q]
        report = lagrange_pair_check(X, Y, pairs)
        assert len(report.checks) == 64
        assert report.all_passed, report.describe()
    _ok(6, "pipeline = Lagrange oracle on 50 branches; 20 reciprocal pairs check")


def test_criterion_07_duality_properties():
    rng = random.Random(107)
    for i in range(100):
        h = rng.choice([1, 2, 3])
        denoms = (1, 2, 4) if h == 1 else ((1, 2) if h == 2 else (1,))
        phi = random_unit_series(rng, h, F(8), max_terms=6, denoms=denoms)
        assert dual(dual(phi)).agrees_with(phi), i
        assert verify_dual_identity(phi).all_passed, i
        assert verify_power_identity(phi, rng.randrange(2, 6)).all_passed, i
    _ok(7, "involution and power/dual coefficient identities on 100 series")


def test_criterion_08_multivariate_inversion():
    psi = parse(PSI_MULTI, precision=INF)
    res = invert_series(psi, F(4))
    assert res.ess_eta.complete and res.ess_xi.complete
    assert res.checks.all_passed
    back = invert_series(res.xi, F(5, 2))
    assert back.xi.agrees_with(psi)
    _ok(8, "complete sequences at target 4, round trip returns psi")


def test_criterion_09_toric_and_quasi_ordinary():
    rng = random.Random(109)
    for _ in range(20):
        q = random_unimodular(rng, 2)
        sample = random_unit_series(rng, 2, INF, max_terms=4, denoms=(1, 2, 4))
        assert verify_qsigma_relation(sample, q).all_passed, q
    _ok(9, "the chart relation on 20 random matrices")


def test_criterion_10_lemma_suite():
    rng = random.Random(113)

    # eqess1: ess(E, p) = ess(Irr(E), p)
    for _ in range(50):
        S = random_scalar_set(rng, size=rng.randrange(3, 9), bound=36)
        p = rng.randrange(1, 13)
        assert (
            essential_exponents_p(S, p).scalars
            == essential_exponents_p(irreducible_exponents(S), p).scalars
        )

    # ess-P: q ess(E, p) = ess(qE, qp)
    for _ in range(50):
        S = random_scalar_set(rng, size=rng.randrange(3, 8), bound=30)
        p = rng.randrange(1, 9)
        q = F(rng.randrange(1, 7), rng.randrange(1, 7))
        lhs = tuple((q * e,) for e in essential_exponents_p(S, p).scalars)
        rhs = essential_exponents(
            [(q * s,) for s in S], Lattice(1, [(q * p,)]), AdditiveOrder.lex(1)
        ).entries
        assert lhs == rhs

    # essind: essential elements are irreducible
    for _ in range(50):
        S = random_scalar_set(rng, size=rng.randrange(3, 9), bound=36)
        p = rng.randrange(1, 13)
        assert set(essential_exponents_p(S, p).scalars) <= irreducible_exponents(S)

    # ess-Pgen: q(ess(E, M, order o q)) = ess(q(E), q(M), order)
    from oracles import vec_mat
    from puiseux.core import mat_det

    for _ in range(50):
        h = 2
        while True:
            q = tuple(
                tuple(F(rng.randrange(0, 4), rng.choice((1, 2))) for _ in range(h))
                for _ in range(h)
            )
            if mat_det(q) != 0:
                break
        E = {
            (F(rng.randrange(0, 9), rng.choice((1, 2, 3))),
             F(rng.randrange(0, 9), rng.choice((1, 2, 3))))
            for _ in range(rng.randrange(2, 7))
        }
        M = random_lattice(rng, h)
        order = random_order(rng, h)
        left = essential_exponents(E, M, order.compose(q)).entries
        right = essential_exponents(
            {vec_mat(e, q) for e in E},
            Lattice(h, [vec_mat(b, q) for b in M.basis()]),
            order,
        ).entries
        assert tuple(vec_mat(e, q) for e in left) == right

    # divpower (h = 1) and divpowergen (h = 2)
    for _ in range(50):
        data = random_branch_data(rng, precision=F(10))
        m, n = data.exponent_m, data.ramification[0]
        eta_t = data.series.pow_int(m).shift((F(m),))
        lhs = essential_exponents_p(data.series.support(), math.gcd(n, m)).scalars
        ess_eta = essential_exponents_p(eta_t.support(), n).scalars
        assert lhs == (F(0),) + tuple(e - m for e in ess_eta[1:])

    lex2 = AdditiveOrder.lex(2)
    for _ in range(50):
        m1, n1 = rng.randrange(1, 5), rng.randrange(1, 5)
        unit = random_unit_series(rng, 2, F(7), max_terms=4, denoms=(1,))
        eta_t = unit.pow_int(m1).shift((F(m1), F(0)))
        gcd_lat = Lattice.scaled_axes(2, [math.gcd(n1, m1), 1])
        n_lat = Lattice.scaled_axes(2, [n1, 1])
        lhs = essential_exponents(unit.support(), gcd_lat, lex2).entries
        ess_eta = essential_exponents(eta_t.support(), n_lat, lex2).entries
        assert ess_eta[0] == (F(m1), F(0))
        shifted = ((F(0), F(0)),) + tuple(
            (e[0] - m1, e[1]) for e in ess_eta[1:]
        )
        assert lhs == shifted

    # coress (h = 1) and coressgen (h in {2, 3})
    for _ in range(50):
        phi = random_unit_series(rng, 1, F(8), max_terms=5, denoms=(1,))
        p = rng.randrange(1, 9)
        N = rng.randrange(2, 5)
        seqs = [
            essential_exponents_p(s.support(), p).scalars
            for s in (phi, phi.pow_int(N), dual(phi))
        ]
        assert seqs[0] == seqs[1] == seqs[2]
    for _ in range(50):
        h = rng.choice([2, 3])
        phi = random_unit_series(rng, h, F(6), max_terms=4, denoms=(1,))
        order = random_order(rng, h)
        M = Lattice.scaled_axes(h, [rng.randrange(1, 4) for _ in range(h)])
        seqs = [
            essential_exponents(s.support(), M, order).entries
            for s in (phi, phi.pow_int(rng.randrange(2, 4)), dual(phi))
        ]
        assert seqs[0] == seqs[1] == seqs[2]

    _ok(10, "eqess1, ess-P, ess-Pgen, essind, divpower(+gen), coress(+gen) x50")
