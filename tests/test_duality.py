import random
from fractions import Fraction as F

import pytest

from builders import perfect_power_unit, random_unit_series
from oracles import irreducible_identity_reference, reversion_oracle
from puiseux import (
    INF,
    Lattice,
    PrecisionError,
    PuiseuxError,
    PuiseuxSeries,
    dual,
    essential_exponents_p,
    essential_of_series,
    parse,
    verify_dual_identity,
    verify_power_identity,
)
from builders import random_order
from puiseux.core import rational_power
from puiseux.duality import _dual_identity, _irreducible_identity


def test_dual_of_one():
    assert dual(PuiseuxSeries.one(1)).terms == {(F(0),): F(1)}


def test_dual_of_constant():
    assert dual(PuiseuxSeries.constant(2, F(3))).terms == {(F(0), F(0)): F(1, 3)}


def test_dual_matches_reversion_oracle():
    # oracle: solve u = t + t^2 by repeated substitution t <- u - t^2
    want = reversion_oracle({0: F(1), 1: F(1)}, 6)
    assert want == [F(1), F(-1), F(2), F(-5), F(14), F(-42)]  # frozen
    got = dual(parse("1 + t", precision=6))
    for k in range(6):
        assert got.coefficient((F(k),)) == want[k]


def test_dual_matches_oracle_random():
    rng = random.Random(41)
    for _ in range(15):
        coeffs = {0: F(rng.choice([1, 2, -1, 3]))}
        for e in range(1, rng.randrange(2, 6)):
            coeffs[e] = F(rng.randrange(-3, 4))
        phi = PuiseuxSeries(1, {(F(e),): c for e, c in coeffs.items()}, F(7))
        want = reversion_oracle(coeffs, 7)
        got = dual(phi)
        for k in range(7):
            assert got.coefficient((F(k),)) == want[k]


def test_dual_is_involution():
    phi = parse("1 + t", precision=8)
    assert dual(dual(phi)).agrees_with(phi)


def test_dual_reciprocity():
    # substituting u1 = t1*phi into u1*dual(phi) returns t1 exactly:
    # equivalently sum_k psi_k t^k phi^(k1+1) = 1 within precision
    rng = random.Random(43)
    for _ in range(8):
        h = rng.choice([1, 2])
        phi = random_unit_series(rng, h, F(6), max_terms=4, denoms=(1,))
        psi = dual(phi)
        acc = PuiseuxSeries.zero(h, phi.precision)
        for e, c in psi.terms.items():
            k1 = int(e[0])
            term = phi.pow_int(k1 + 1).shift(e).scale(c)
            acc = acc + term
        assert acc.agrees_with(PuiseuxSeries.one(h, phi.precision))


def test_dual_requires_unit():
    with pytest.raises(Exception):
        dual(parse("t", precision=5))


def test_dual_exact_nonconstant_rejected():
    with pytest.raises(PrecisionError):
        dual(parse("1 + t", precision=INF))


def test_dual_fractional_exponents_involution():
    phi = PuiseuxSeries(1, {(F(0),): F(1), (F(1, 2),): F(1)}, F(4))
    assert dual(dual(phi)).agrees_with(phi)
    two_var = PuiseuxSeries(
        2, {(F(0), F(0)): F(1), (F(1, 2), F(1, 3)): F(2)}, F(3)
    )
    assert dual(dual(two_var)).agrees_with(two_var)


def test_dual_fractional_needs_rational_root():
    from puiseux import RootError

    phi = PuiseuxSeries(1, {(F(0),): F(2), (F(1, 2),): F(1)}, F(4))
    with pytest.raises(RootError):
        dual(phi)


def test_dual_fractional_with_perfect_power_constant():
    # constant 9/4 has the square root 3/2 needed for half-integer exponents
    phi = PuiseuxSeries(1, {(F(0),): F(9, 4), (F(1, 2),): F(1), (F(2),): F(-1)}, F(4))
    assert dual(dual(phi)).agrees_with(phi)
    # odd root of a negative constant exists over the rationals
    neg = PuiseuxSeries(1, {(F(0),): F(-8), (F(1, 3),): F(2)}, F(3))
    assert dual(dual(neg)).agrees_with(neg)


def test_dual_reciprocity_fractional_first_variable():
    # the root convention stays consistent through the substitution:
    # sum_k psi_k t^k phi^(k1+1) = 1 also for half-integer k1
    phi = PuiseuxSeries(1, {(F(0),): F(1), (F(1, 2),): F(2), (F(3, 2),): F(-1)}, F(4))
    psi = dual(phi)
    acc = PuiseuxSeries.zero(1, phi.precision)
    for e, c in psi.terms.items():
        power = phi.unit_power(e[0] + 1)
        acc = acc + power.shift(e).scale(c)
    assert acc.agrees_with(PuiseuxSeries.one(1, phi.precision))


# --- the coefficient identities ------------------------------------------------


def test_power_identity_plane():
    report = verify_power_identity(parse("1 + t", precision=8), 5)
    assert report.all_passed
    labels = {c.label for c in report.checks}
    assert "power coefficient" in labels


def test_power_identity_constant():
    report = verify_power_identity(PuiseuxSeries.constant(1, F(2)), 3)
    assert report.all_passed
    assert report.checks[0].lhs == "8"  # [phi^3]_0 = 2^3


def test_power_identity_trivariate():
    phi = parse("1 + t1*t2 - 2*t1^(2)*t3", precision=7)
    report = verify_power_identity(phi, 6)
    assert report.all_passed
    checked = {c.exponent for c in report.checks if c.exponent is not None}
    assert (F(1), F(1), F(0)) in checked
    assert (F(2), F(0), F(1)) in checked


def test_dual_identity_plane():
    phi = parse("1 + t", precision=8)
    report = verify_dual_identity(phi)
    assert report.all_passed
    assert dual(phi).coefficient((F(1),)) == -1  # -[phi]_0^(-3) [phi]_1


def test_dual_identity_two_vars():
    phi = parse("1 + 2*t1 + t2", precision=5)
    report = verify_dual_identity(phi)
    assert report.all_passed
    # r = (0,1) has first coordinate 0: [dual]_(0,1) = -[phi]_0^(-2) * 1
    assert dual(phi).coefficient((F(0), F(1))) == -1


def test_identity_failures_are_data():
    # corrupt a dual by hand and check the report flags it without raising
    phi = parse("1 + t", precision=6)
    good = verify_dual_identity(phi)
    assert good.all_passed and good.to_json()["failures"] == []
    bad = _dual_identity(phi, dual(phi) + parse("2*t", precision=6))
    assert bad.to_json() == {
        "checked_exponents": ["0", "1"],
        "all_passed": False,
        "failures": [{"exponent": "1", "lhs": "1", "rhs": "-1"}],
    }


def _power_reference(phi, N):
    c0 = phi.constant_term()
    return irreducible_identity_reference(
        f"power identity (N={N})", phi, phi.pow_int(N), "phi^N",
        c0**N, "power coefficient", lambda r: N * c0 ** (N - 1),
    )


def _dual_reference(phi, psi):
    c0 = phi.constant_term()
    return irreducible_identity_reference(
        "dual identity", phi, psi, "dual",
        1 / c0, "dual coefficient", lambda r: -rational_power(c0, -r[0] - 2),
    )


def _rows(report):
    return report.name, report.checks


@pytest.mark.parametrize("h", [1, 2, 3])
def test_identity_reports_match_the_reference_report(h):
    rng = random.Random(83 + h)
    for _ in range(8):
        phi = perfect_power_unit(rng, h, F(5), denoms=(1, 2, 3) if h < 3 else (1, 2))
        N = rng.randrange(2, 5)
        assert _rows(verify_power_identity(phi, N)) == _rows(_power_reference(phi, N))
        assert _rows(verify_dual_identity(phi)) == _rows(_dual_reference(phi, dual(phi)))


def test_identity_report_on_another_grid_matches_the_reference_report():
    # phi lies on the grid 1/2 and the image on 1/6; 3/2 is reducible in both
    phi = parse("1 + t^(1/2) + t^(3/2)", precision=3)
    image = parse("1 + 3*t^(1/2) + t^(1/3) + 5*t^(3/2)", precision=3)
    args = ("power identity (N=2)", phi, image, "phi^N", F(1), "power coefficient", lambda r: 2)
    report = _irreducible_identity(*args)
    assert _rows(report) == _rows(irreducible_identity_reference(*args))
    assert [c.describe() for c in report.failures] == [
        "irreducible sets equal at 1/3: FAIL (phi^N != phi)",
        "power coefficient at 1/2: FAIL (3 != 2)",
    ]


def test_identity_report_on_a_failing_image_matches_the_reference_report():
    # a dual without its constant term and its term at (1, 0), and with a
    # wrong coefficient at (0, 1/2): (1, 1/2), (2, 0) and (3, 0) turn
    # irreducible, and the set rows come in the order (total, vector)
    phi = parse("1 + t1 + 2*t2^(1/2)", precision=4)
    terms = dual(phi).terms
    del terms[(F(0), F(0))], terms[(F(1), F(0))]
    terms[(F(0), F(1, 2))] += 1
    image = PuiseuxSeries(2, terms, phi.precision)
    # phi_0 = 1, so every factor -phi_0^(-r1-2) is -1
    args = ("dual identity", phi, image, "dual", F(1), "dual coefficient", lambda r: -1)
    report = _irreducible_identity(*args)
    assert _rows(report) == _rows(irreducible_identity_reference(*args))
    assert [c.describe() for c in report.failures] == [
        "irreducible sets equal at (0, 0): FAIL (phi != dual)",
        "irreducible sets equal at (1, 0): FAIL (phi != dual)",
        "irreducible sets equal at (1, 1/2): FAIL (dual != phi)",
        "irreducible sets equal at (2, 0): FAIL (dual != phi)",
        "irreducible sets equal at (3, 0): FAIL (dual != phi)",
        "constant term at (0, 0): FAIL (0 != 1)",
        "dual coefficient at (0, 1/2): FAIL (-1 != -2)",
    ]


def test_power_identity_refuses_a_laurent_series():
    phi = parse("1 + x^(-1) + x", laurent=True, precision=4)
    with pytest.raises(PuiseuxError) as err:
        verify_power_identity(phi, 2)
    assert str(err.value) == "semigroup generators must have non-negative exponents"


def test_essential_sequences_coincide_for_powers_and_dual():
    rng = random.Random(47)
    for _ in range(10):
        phi = random_unit_series(rng, 1, F(8), max_terms=5, denoms=(1,))
        p = rng.randrange(1, 9)
        n = rng.randrange(2, 5)
        seqs = [
            essential_exponents_p(s.support(), p).scalars
            for s in (phi, phi.pow_int(n), dual(phi))
        ]
        assert seqs[0] == seqs[1] == seqs[2]
    for _ in range(6):
        h = rng.choice([2, 3])
        phi = random_unit_series(rng, h, F(6), max_terms=4, denoms=(1,))
        order = random_order(rng, h)
        lattice = Lattice.scaled_axes(h, [rng.randrange(1, 4) for _ in range(h)])
        seqs = [
            essential_of_series(s, lattice=lattice, order=order).entries
            for s in (phi, phi.pow_int(rng.randrange(2, 4)), dual(phi))
        ]
        assert seqs[0] == seqs[1] == seqs[2]
