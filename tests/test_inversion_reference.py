"""invert_branch, which reads psi^n1 off unit^m1, against the earlier
pipeline kept in oracles.py, which duals the dense unit part itself and
raises that dual to n1.

Every comparison is exact: xi, eta, both essential sequences and the
identity report rows.
"""

import random
import time
from fractions import Fraction as F

import pytest

import puiseux.inversion
from builders import perfect_power_unit, random_branch_data, random_dominating
from oracles import extract_branch_eager, invert_xi_reference
from puiseux import (
    INF,
    BranchData,
    PrecisionError,
    PuiseuxError,
    PuiseuxSeries,
    dual,
    extract_branch,
    invert_branch,
    invert_series,
    lagrange_coefficient,
    parse,
)
from puiseux.core import MAX_WORK
from puiseux.duality import _dual_from_power


def same_inversion(got, want):
    assert got.xi == want.xi and got.xi.ramification == want.xi.ramification
    assert got.eta == want.eta
    assert got.ess_eta == want.ess_eta and got.ess_xi == want.ess_xi
    assert got.checks == want.checks
    assert got.to_json() == want.to_json()


def check_against_reference(result, target):
    same_inversion(result, invert_xi_reference(result.branch, target))
    assert result.checks.all_passed


def check_lagrange_everywhere(result):
    """Every stored coefficient of a one-variable xi, and the gaps between
    them, against the Lagrange formula read off the unit part."""
    m1, n1 = result.m1, result.n1
    last = max(e[0] for e in result.xi.terms) * m1
    for q in range(n1, int(last) + 1):
        assert result.xi.coefficient((F(q, m1),)) == lagrange_coefficient(result.branch, q)


def run_suite(rng, h, cases, denoms, target_for):
    seen_m, seen_n = set(), set()
    for _ in range(cases):
        m1 = rng.randrange(1, 8)
        eta, root = random_dominating(rng, h, m1, denoms)
        # a user-given negative root of an even power
        given = -abs(root) if m1 % 2 == 0 and rng.random() < 0.5 else root
        target = target_for(m1)
        result = invert_series(eta, target, root_coeff=given)
        check_against_reference(result, target)
        seen_m.add(result.m1)
        seen_n.update(result.branch.ramification)
        if h == 1:
            check_lagrange_everywhere(result)
    return seen_m, seen_n


def test_one_variable_dominating_series():
    # the target keeps the unit precision N = target*m1 - n1 near 20
    seen_m, seen_n = run_suite(
        random.Random(401), 1, 40, (1, 2, 3, 5), lambda m1: F(max(2, 20 // m1))
    )
    assert set(range(1, 8)) <= seen_m
    assert seen_n - {1}


def test_several_variables():
    for h in (2, 3):
        seen_m, seen_n = run_suite(
            random.Random(402 + h), h, 14, (1, 2, 3), lambda m1: F(max(1, 8 // m1))
        )
        assert seen_n - {1}
        assert len(seen_m) >= 4


def test_dense_unit_branches():
    # unit parts with few terms, so unit^m1 is the dense side
    rng = random.Random(405)
    for _ in range(25):
        data = random_branch_data(rng)
        m1, n1 = data.exponent_m, data.ramification[0]
        target = F(12 + n1, max(m1, 1))
        result = invert_branch(data, target)
        check_against_reference(result, target)
        check_lagrange_everywhere(result)


def test_negative_root_of_even_power():
    eta = parse("4*x^(2)+x^(3)", precision=INF)
    for root in (-2, 2):
        result = invert_series(eta, 10, root_coeff=root)
        assert result.root_coeff == root
        check_against_reference(result, 10)
        check_lagrange_everywhere(result)
    h2 = parse("16*x1^(4/3) + x1^(5/3)*x2^(1/2) - x1^(2)", precision=INF)
    result = invert_series(h2, 5, root_coeff=-2)
    check_against_reference(result, 5)


def test_constant_unit():
    for h, n, m1 in ((1, (3,), 2), (1, (1,), 5), (2, (2, 3), 4), (3, (1, 2, 2), 3)):
        unit = PuiseuxSeries.constant(h, F(-3, 2), precision=20)
        data = BranchData(unit, m1, F(-3, 2), n)
        result = invert_branch(data, 3)
        check_against_reference(result, 3)
        assert len(result.xi.terms) == 1
        if h == 1:
            check_lagrange_everywhere(result)


def test_long_plane_branch_is_quadratic_not_cubic():
    # N = 236: the unit part has 237 terms, its square the input's two
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
    start = time.perf_counter()
    result = invert_series(eta, 40)
    elapsed = time.perf_counter() - start
    assert result.branch.series.precision == 236
    assert result.checks.all_passed
    assert elapsed < 2.0, elapsed


def test_dual_powers_read_off_a_power():
    # psi^a by Lagrange-Burmann equals the a-th power of the dual
    rng = random.Random(406)
    seen_n1 = set()
    for h in (1, 2, 3):
        for _ in range(5):
            phi = perfect_power_unit(rng, h, F(rng.randrange(2, 6)), denoms=(1, 2, 3))
            seen_n1.add(phi.ramification[0])
            psi = dual(phi)
            for m in (1, 2, 3):
                power = phi.pow_int(m)
                for a in (1, 2, 3):
                    got = _dual_from_power(power, m, phi.constant_term(), a)
                    want = psi.pow_int(a)
                    assert got == want, (phi, m, a)
                    assert got.ramification == want.ramification
    assert seen_n1 - {1}


def entry_points_agree(eta, target, root=None):
    """invert_series, which hands its unit^m1 over, against invert_branch on
    the branch data extracted at the same unit precision N."""
    result = invert_series(eta, target, root_coeff=root)
    N = result.branch.series.precision
    data = extract_branch(eta, root, unit_precision=N)
    assert data == result.branch
    assert result.to_json() == invert_branch(data, target).to_json()
    return result


def test_series_and_branch_entry_points_agree():
    assert entry_points_agree(parse("4*x^(2)+x^(3)", precision=INF), 10, -2).root_coeff == -2
    entry_points_agree(parse("x^(3/2)+2*x^(7/4)", precision=INF), 10)
    # eta known only to its default precision 10, which allows N up to 34
    entry_points_agree(parse("x^(3/2)+2*x^(7/4)"), 5)
    h2 = parse("16*x1^(4/3) + x1^(5/3)*x2^(1/2) - x1^(2)", precision=INF)
    entry_points_agree(h2, 5, -2)
    h3 = parse("x1^(3/2) + x1^(2)*x2^(1/3) - 2*x1^(5/2)*x3^(1/2)", precision=INF)
    assert entry_points_agree(h3, 3).m1 == 3
    rng = random.Random(407)
    for h in (1, 2, 3):
        for _ in range(6):
            m1 = rng.randrange(1, 5)
            eta, root = random_dominating(rng, h, m1, (1, 2, 3))
            entry_points_agree(eta, F(max(1, 8 // m1)), root)


def test_unit_precision_guard():
    # N = 599996: the dual's rows alone pass the limit, so the charge refuses
    # the inversion before the dual's first degree; a unit part too short
    # for N is refused by the gate before that
    eta = parse("x^(3/2)+2*x^(7/4)", precision=INF)
    start = time.perf_counter()
    refused = rf"^the dual charges \d+ units of work, past the limit of {MAX_WORK}$"
    with pytest.raises(PuiseuxError, match=refused):
        invert_series(eta, 100000)
    data = extract_branch(eta, unit_precision=20)
    with pytest.raises(PrecisionError, match="target 100000 needs unit precision N = 599996"):
        invert_branch(data, 100000)
    assert time.perf_counter() - start < 0.1
    # without a target, N is the unit part's own precision; no N is refused
    # as such, only the work it needs
    def constant_branch(N):
        return BranchData(PuiseuxSeries.constant(1, 2, precision=N), 2, F(2), (1,))

    for N in (500, 501, 5000):
        assert invert_branch(constant_branch(N)).checks.all_passed


def test_each_entry_point_runs_the_gate_once(monkeypatch):
    # invert_series gates the branch it extracts, and invert_branch the data
    # it is given, each once; the lagrange verb's refusal of a short input
    # is the gate's, in test_cli
    calls = []
    real = puiseux.inversion._working_precision

    def counted(data, target):
        calls.append(target)
        return real(data, target)

    monkeypatch.setattr(puiseux.inversion, "_working_precision", counted)
    eta = parse("x^(3/2)+2*x^(7/4)", precision=INF)
    assert invert_series(eta, 4).checks.all_passed
    assert calls == [4]
    calls.clear()
    assert invert_branch(extract_branch(eta, unit_precision=20), 2).checks.all_passed
    assert calls == [2]


def test_a_long_unit_part_is_cut_before_its_power(monkeypatch):
    # thousands of dense terms inverted at a small target: only the N = 8
    # terms the target reads are raised to m1
    unit = PuiseuxSeries(1, {(F(k),): F((-1) ** k, k + 1) for k in range(4000)}, 4000)
    powered = []
    real = PuiseuxSeries.pow_int

    def recorded(self, n):
        powered.append((self.precision, n))
        if self.precision > 8:
            raise AssertionError(f"unit part raised at precision {self.precision}")
        return real(self, n)

    monkeypatch.setattr(PuiseuxSeries, "pow_int", recorded)
    long_unit = BranchData(unit, 3, F(1), (1,))
    result = invert_branch(long_unit, 3)
    assert powered == [(8, 3)]
    short = BranchData(unit.truncate(8), 3, F(1), (1,))
    assert result.to_json() == invert_branch(short, 3).to_json()
    assert result.checks.all_passed and result.xi.precision == 3


# --- branch data holds unit^m1 ---------------------------------------------------


def test_extraction_holds_unit_power_and_roots_it_on_demand():
    # unit^m1 by key relabelling equals the substitute-shift-truncate chain,
    # and the unit part read later equals the root the chain took at once
    rng = random.Random(408)
    seen_h = set()
    for h, denoms in ((1, (1, 2, 3, 5)), (2, (1, 2, 3)), (3, (1, 2, 3))):
        for _ in range(10):
            m1 = rng.randrange(1, 7)
            eta, root = random_dominating(rng, h, m1, denoms)
            N = F(rng.randrange(0, 13))
            data = extract_branch(eta, root, unit_precision=N)
            unit, unit_m = extract_branch_eager(eta, root, N)
            assert data.power == unit_m and data.power.precision == N
            assert data.series == unit and data.series.precision == N
            seen_h.add(h)
    assert seen_h == {1, 2, 3}


def test_invert_series_never_takes_the_unit_root(monkeypatch):
    calls = []
    real = PuiseuxSeries.unit_root

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(PuiseuxSeries, "unit_root", counted)
    results = [
        invert_series(parse(text, precision=INF), target)
        for text, target in (("x^(3/2)+2*x^(7/4)", 10), ("4*x^(2)+x^(3)", 6),
                             ("x1^(3/2) + x1^(7/4)*x2^(1/2) - 2*x1^(2)*x3^(1/3)", 2))
    ]
    assert calls == []
    # read once, then kept
    unit = results[0].branch.series
    assert results[0].branch.series is unit
    assert calls == [(6, F(1))]


def test_branch_data_from_a_unit_compares_and_serialises_as_before():
    eta = parse("x^(3/2) + 2*x^(7/4)", precision=INF)
    held = extract_branch(eta, unit_precision=F(8))
    given = BranchData(held.series, 6, F(1), (4,))
    assert given == held and held == given
    assert given.power == held.power == held.series.pow_int(6)
    assert given != BranchData(held.series, 6, F(1), (2,))
    assert given.__eq__("unit") is NotImplemented
    blob = {"unit": held.series.to_json(), "m": 6, "root_coeff": "1", "ramification": [4]}
    assert given.to_json() == held.to_json() == blob
    assert repr(held) == repr(given) == (
        f"BranchData(series={held.series!r}, exponent_m=6, "
        "root_coeff=Fraction(1, 1), ramification=(4,))"
    )
    with pytest.raises(TypeError):
        hash(held)
    with pytest.raises(AttributeError, match="immutable"):
        held.exponent_m = 2
    # positional construction still runs the whole pipeline
    assert invert_branch(given, 1).to_json() == invert_branch(held, 1).to_json()


# (unit part, m1, root_coeff, ramification, the refusal's words)
BAD_BRANCH_DATA = [
    ("2 + t", 2, 3, (1,), r"unit\^m1 has constant term 4, not root_coeff\^m1 = 9"),
    ("t", 2, 1, (1,), "constant term 0, not root_coeff"),
    ("1 + t", 2, 1, (1, 2), r"ramification must give one denominator per variable \(1\), got \(1, 2\)"),
    ("1 + t1*t2", 2, 1, (3,), r"ramification must give one denominator per variable \(2\), got \(3,\)"),
    ("1 + t", 2, 1, (0,), "ramification must be a positive integer, got 0"),
    ("1 + t", 2, 1, (F(2),), r"ramification must be a positive integer, got Fraction\(2, 1\)"),
    ("1 + t^(1/2)", 2, 1, (1,), "integral exponents"),
    ("1 + t", 0, 1, (1,), "exponent_m must be a positive integer, got 0"),
    ("1 + t", F(2), 1, (1,), r"exponent_m must be a positive integer, got Fraction\(2, 1\)"),
    ("1 + t", 2, 0, (1,), "nonzero root_coeff"),
]


@pytest.mark.parametrize("text", ["1 + t^(-1)", "1 + t"])
def test_a_laurent_unit_part_is_refused_before_any_work(monkeypatch, text):
    def refuse(*args, **kwargs):
        raise AssertionError("the refusal came after the work started")

    monkeypatch.setattr(PuiseuxSeries, "pow_int", refuse)
    monkeypatch.setattr(puiseux.inversion, "_dual_from_power", refuse)
    monkeypatch.setattr(puiseux.inversion, "_lagrange_keys", refuse)
    unit = parse(text, laurent=True, precision=5)
    with pytest.raises(PuiseuxError, match="not a Laurent series"):
        BranchData(unit, 2, 1, (1,))


def test_branch_data_keeps_its_ramification_as_a_tuple():
    unit = parse("1 + t", precision=5)
    listed, given = BranchData(unit, 2, 1, [1]), BranchData(unit, 2, 1, (1,))
    assert listed.ramification == (1,)
    assert listed == given
    assert repr(listed) == repr(given)
    assert listed.to_json() == given.to_json()


@pytest.mark.parametrize(
    "unit, m1, root, ramification, message", BAD_BRANCH_DATA, ids=range(len(BAD_BRANCH_DATA))
)
def test_branch_data_is_checked_before_any_work(
    monkeypatch, unit, m1, root, ramification, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("the refusal came after the work started")

    monkeypatch.setattr(PuiseuxSeries, "pow_int", refuse)
    monkeypatch.setattr(puiseux.inversion, "_dual_from_power", refuse)
    series = parse(unit, precision=6)
    with pytest.raises(PuiseuxError, match=message):
        invert_branch(BranchData(series, m1, root, ramification), 2)
