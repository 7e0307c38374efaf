"""Branch inversion.

An x1-dominating series eta factors as eta = (t1 * unit)^m1 after the
substitution x_i = t_i^(n_i), where the unit part has constant term a~ with
a~^m1 equal to the dominating coefficient.  The inverted presentation of the
same branch is xi = (u1 * dual(unit))^n1, re-expressed in y1^(1/m1),
x2^(1/n2), ....  The exponent and coefficient identities tying the two
essential sequences together are verified on every run; the independent
Lagrange-inversion oracle recomputes xi's coefficients without ever building
the dual.

The work grows with the unit precision N = target*max(m1, n2, ..., nh) - n1;
invert_series and invert_branch refuse an N above MAX_UNIT_PRECISION before
any work starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .core import (
    AdditiveOrder,
    Lattice,
    PuiseuxError,
    RootError,
    fmt_vec,
    rational_binomial,
    rational_root,
    total,
    unit_vec,
)
from .duality import _dual_from_power, dual
from .exponents import EssentialSequence, essential_of_series
from .reports import CheckReport
from .series import INF, PrecisionError, PuiseuxSeries

# Largest unit precision N the inversion entry points accept.  The work grows
# faster than N^2, since the coefficients grow with N too: the two-term anchor
# x^(3/2) + 2*x^(7/4) inverts in about 0.05 s at N = 236, 0.25 s at N = 476
# and 1.3 s at N = 998 (Python 3.11, 2-vCPU host), and more terms cost more.
MAX_UNIT_PRECISION = 500

__all__ = [
    "BranchData",
    "DominationError",
    "InversionResult",
    "extract_branch",
    "invert_branch",
    "invert_series",
    "verify_halphen_stolz",
    "lagrange_coefficient",
    "lagrange_pair_check",
]


class DominationError(PuiseuxError):
    pass


@dataclass(frozen=True)
class BranchData:
    """Unit-part presentation of a dominating branch.

    series: the unit part in the t-variables (integral exponents, constant
    term root_coeff); exponent_m: the power m1; ramification: the source
    series' per-variable denominators (n1, ..., nh).
    """

    series: PuiseuxSeries
    exponent_m: int
    root_coeff: Fraction
    ramification: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "unit": self.series.to_json(),
            "m": self.exponent_m,
            "root_coeff": str(self.root_coeff),
            "ramification": list(self.ramification),
        }


@dataclass
class InversionResult:
    eta: PuiseuxSeries
    xi: PuiseuxSeries
    m1: int
    n1: int
    root_coeff: Fraction
    ess_eta: EssentialSequence
    ess_xi: EssentialSequence
    checks: CheckReport
    branch: BranchData

    def to_json(self) -> dict:
        return {
            "eta": self.eta.to_json(),
            "xi": self.xi.to_json(),
            "m1": self.m1,
            "n1": self.n1,
            "root_coeff": str(self.root_coeff),
            "ess_eta": self.ess_eta.to_json(),
            "ess_xi": self.ess_xi.to_json(),
            "checks": self.checks.to_json(),
        }


def _dominating_profile(eta: PuiseuxSeries):
    """Locate the dominating pure-x1 term; returns (lambda1, a, m1)."""
    if eta.is_zero():
        raise DominationError("the zero series has no dominating term")
    if eta.laurent:
        raise DominationError("dominating extraction needs non-negative exponents")
    support = eta.support()
    lam1 = min(e[0] for e in support)
    h = eta.num_vars
    candidate = tuple(lam1 if i == 0 else Fraction(0) for i in range(h))
    if lam1 <= 0 or candidate not in support:
        witness = min(
            (e for e in support if e[0] == lam1), key=lambda e: (total(e), e)
        )
        raise DominationError(
            f"series is not x1-dominating: offending exponent {fmt_vec(witness)}"
        )
    m1 = lam1 * eta.ramification[0]
    if m1.denominator != 1 or m1 <= 0:
        raise PuiseuxError(
            f"dominating exponent {lam1} times the first denominator "
            f"{eta.ramification[0]} is {m1}, not a positive integer"
        )
    return lam1, eta.coefficient(candidate), int(m1)


def extract_branch(
    eta: PuiseuxSeries, root_coeff=None, unit_precision=None
) -> BranchData:
    """Decompose a dominating series as (t1 * unit)^m1 with unit(0) = a~.

    When root_coeff is absent the m1-th root of the dominating coefficient is
    extracted exactly over the rationals; callers must supply it otherwise.
    unit_precision bounds the total degree of the materialised unit part and
    defaults to everything eta's own precision supports.
    """
    return _extract_branch(eta, root_coeff, unit_precision, _dominating_profile(eta))[0]


def _extract_branch(eta, root_coeff, unit_precision, profile):
    """extract_branch, given eta's _dominating_profile, also returning
    unit^m1 = eta_t/t1^m1 at the unit's precision, the series the unit part
    is the m1-th root of."""
    _, a, m1 = profile
    h = eta.num_vars
    n = eta.ramification
    if root_coeff is None:
        atilde = rational_root(a, m1)
        if atilde is None:
            raise RootError(
                f"dominating coefficient {a} has no rational {m1}-th root; "
                "pass root_coeff explicitly"
            )
    else:
        atilde = Fraction(root_coeff)
        if atilde**m1 != a:
            raise RootError(
                f"root_coeff {atilde} fails: {atilde}^{m1} = {atilde ** m1} != {a}"
            )
    eta_t = eta.monomial_substitute(_diag(list(n)))
    unit_m = eta_t.shift(tuple(-m1 * c for c in unit_vec(h, 0)))
    if unit_precision is not None and unit_precision != INF:
        unit_m = unit_m.truncate(max(Fraction(0), Fraction(unit_precision)))
    if unit_m.precision is INF and m1 > 1 and len(unit_m._keys) > 1:
        raise PrecisionError(
            "exact input: pass unit_precision (or use invert_series with a target)"
        )
    unit = unit_m.unit_root(m1, atilde)
    return BranchData(unit, m1, atilde, n), unit_m


def _diag(entries) -> list[list[Fraction]]:
    h = len(entries)
    return [
        [Fraction(entries[i]) if i == j else Fraction(0) for j in range(h)]
        for i in range(h)
    ]


def _unit_frame_lattice(h: int, first: int) -> Lattice:
    """first*Z v1 + Z v2 + ... + Z vh."""
    return Lattice.scaled_axes(h, [first] + [1] * (h - 1))


def _unit_frame_sequences(eta_t, xi_u, m1: int, n1: int):
    """ess(eta_t, n1 Z v1 + Z v2 + ..., lex) and ess(xi_u, m1 Z v1 + Z v2 +
    ..., lex), walked on the series' keys."""
    h = eta_t.num_vars
    lex = AdditiveOrder.lex(h)
    return (
        essential_of_series(eta_t, _unit_frame_lattice(h, n1), lex),
        essential_of_series(xi_u, _unit_frame_lattice(h, m1), lex),
    )


def _rescale_sequence(seq: EssentialSequence, divisors) -> EssentialSequence:
    entries = tuple(
        tuple(c / d for c, d in zip(e, divisors)) for e in seq.entries
    )
    lattice = Lattice(
        seq.relative_to.dim,
        [tuple(c / d for c, d in zip(b, divisors)) for b in seq.relative_to.basis()],
    )
    return EssentialSequence(entries, lattice, seq.order, seq.complete)


def _required_unit_precision(target, m1: int, n: tuple[int, ...]):
    if target == INF:
        return INF
    max_div = max([m1] + list(n[1:]))
    need = max(Fraction(0), Fraction(target) * max_div - n[0])
    _check_unit_precision(need)
    return need


def _check_unit_precision(N) -> None:
    if N is not INF and N > MAX_UNIT_PRECISION:
        raise PuiseuxError(
            f"unit precision N = {N} exceeds the limit of {MAX_UNIT_PRECISION}; "
            "lower the target precision"
        )


def _halphen_stolz_report(
    eta_t: PuiseuxSeries,
    xi_u: PuiseuxSeries,
    ess_t: EssentialSequence,
    ess_u: EssentialSequence,
    m1: int,
    n1: int,
    atilde: Fraction,
) -> CheckReport:
    """The inversion identities, stated on the unit-frame sequences
    ess(eta_t, n1 Z v1 + Z v2 + ..., lex) = (m1 v1, eps_1, ..., eps_d) and
    ess(xi_u, m1 Z v1 + Z v2 + ..., lex) = (n1 v1, eps'_1, ..., eps'_d):
    d' = d, eps'_k + m1 v1 = eps_k + n1 v1, the dominating coefficient of
    xi is atilde^(-n1), and
    [xi]_{eps'_k} = -(n1/m1) atilde^(-n1-eps_{k,1}) [eta]_{eps_k}."""
    h = eta_t.num_vars
    e1 = unit_vec(h, 0)
    report = CheckReport("Halphen-Stolz inversion")
    report.provisional = not (ess_t.complete and ess_u.complete)
    head_t, head_u = ess_t.entries[0], ess_u.entries[0]
    report.record("eta head is m1*v1", head_t, tuple(m1 * c for c in e1))
    report.record("xi head is n1*v1", head_u, tuple(n1 * c for c in e1))
    eps = ess_t.entries[1:]
    eps_p = ess_u.entries[1:]
    report.record("d' = d", len(eps_p), len(eps))
    report.record(
        "[xi] at n1*v1 is root^(-n1)",
        xi_u.coefficient(tuple(n1 * c for c in e1)),
        atilde**-n1,
        tuple(n1 * c for c in e1),
    )
    for k, (ek, epk) in enumerate(zip(eps, eps_p), start=1):
        report.record(
            f"exponent relation k={k}",
            tuple(c + m1 * d for c, d in zip(epk, e1)),
            tuple(c + n1 * d for c, d in zip(ek, e1)),
            epk,
        )
        ek1 = ek[0]
        if ek1.denominator != 1:
            raise PuiseuxError(
                f"essential exponent {fmt_vec(ek)} of eta has a non-integral "
                "first coordinate in the unit frame"
            )
        expected = -Fraction(n1, m1) * atilde ** (-n1 - int(ek1)) * eta_t.coefficient(ek)
        report.record(
            f"coefficient relation k={k}",
            xi_u.coefficient(epk),
            expected,
            epk,
        )
        if atilde == 1:
            report.record(
                f"symmetric form k={k}",
                m1 * xi_u.coefficient(epk) + n1 * eta_t.coefficient(ek),
                Fraction(0),
                epk,
            )
    if atilde == 1:
        report.record(
            "unit dominating coefficients",
            eta_t.coefficient(tuple(m1 * c for c in e1)),
            xi_u.coefficient(tuple(n1 * c for c in e1)),
        )
    return report


def invert_branch(data: BranchData, target_precision=None) -> InversionResult:
    """Run the full pipeline: read psi^n1, psi the dual of the unit part, off
    unit^m1, re-express xi = u1^n1 psi^n1 in y1^(1/m1), x2^(1/n2), ...,
    compute both essential sequences and check every inversion identity.

    psi^n1 comes straight from unit^m1 by Lagrange-Burmann; the unit part
    has integral exponents, so for every first coordinate k

        [psi^n1]_k = n1/(k+n1) a~^(-(k+n1)) [t1^k] (unit^m1/a~^m1)^(-(k+n1)/m1).

    unit^m1 is eta_t/t1^m1, which has only eta's few terms while the unit,
    an m1-th root, has about N, and neither the dense dual nor its n1-th
    power is ever built.  The same power gives eta_t.

    target_precision bounds the total degree of the output in its fractional
    frame; the unit part must carry enough precision, or an error states how
    much is required.  A unit precision N above MAX_UNIT_PRECISION is refused
    before any work.
    """
    unit = data.series
    m1 = data.exponent_m
    if target_precision == INF:
        target_precision = None
    if target_precision is not None:
        need = _required_unit_precision(target_precision, m1, data.ramification)
        if unit.precision < need:
            raise PrecisionError(
                f"unit part precision {unit.precision} is too short: target "
                f"{target_precision} needs {need}"
            )
        unit = unit.truncate(need)
    elif unit.precision is INF and len(unit._keys) > 1:
        raise PrecisionError("exact unit part: pass target_precision")
    else:
        _check_unit_precision(unit.precision)
    return _invert(data, unit.pow_int(m1))


def _invert(data: BranchData, unit_m: PuiseuxSeries) -> InversionResult:
    """The pipeline of invert_branch on unit_m = unit^m1, already at the
    working precision N."""
    m1 = data.exponent_m
    n = data.ramification
    n1 = n[0]
    h = unit_m.num_vars
    atilde = data.root_coeff
    e1 = unit_vec(h, 0)
    eta_t = unit_m.shift(tuple(m1 * c for c in e1))
    xi_u = _dual_from_power(unit_m, m1, atilde, n1).shift(tuple(n1 * c for c in e1))

    ess_t, ess_u = _unit_frame_sequences(eta_t, xi_u, m1, n1)

    eta_x = eta_t.monomial_substitute(_diag([Fraction(1, d) for d in n]))
    xi_divisors = [m1] + list(n[1:])
    xi_x = xi_u.monomial_substitute(_diag([Fraction(1, d) for d in xi_divisors]))

    checks = _halphen_stolz_report(eta_t, xi_u, ess_t, ess_u, m1, n1, atilde)
    return InversionResult(
        eta=eta_x,
        xi=xi_x,
        m1=m1,
        n1=n1,
        root_coeff=atilde,
        ess_eta=_rescale_sequence(ess_t, n),
        ess_xi=_rescale_sequence(ess_u, xi_divisors),
        checks=checks,
        branch=data,
    )


def invert_series(
    eta: PuiseuxSeries, target_precision, root_coeff=None
) -> InversionResult:
    """Extract branch data from eta and invert it, sizing the intermediate
    precision so the output is complete up to target_precision.  The unit^m1
    that the extraction builds on the way to the unit part is handed to the
    pipeline as it is."""
    profile = _dominating_profile(eta)
    m1 = profile[2]
    need = _required_unit_precision(target_precision, m1, eta.ramification)
    available = eta.precision
    if available is not INF:
        available = available * min(eta.ramification) - m1
        if available < need:
            raise PrecisionError(
                f"eta is too short: target {target_precision} needs unit "
                f"precision {need}, input supports only {available}"
            )
    data, unit_m = _extract_branch(eta, root_coeff, need, profile)
    if need is INF and len(unit_m._keys) > 1:
        raise PrecisionError("exact unit part: pass target_precision")
    return _invert(data, unit_m)


def verify_halphen_stolz(result: InversionResult) -> CheckReport:
    """Recompute the inversion identities of a result from scratch."""
    n = result.branch.ramification
    m1, n1 = result.m1, result.n1
    eta_t = result.eta.monomial_substitute(_diag(list(n)))
    xi_u = result.xi.monomial_substitute(_diag([m1] + list(n[1:])))
    # corresponding support elements differ by (n1 - m1)*v1, so the two
    # windows must be offset by exactly m1 - n1 or d' = d is not comparable
    w_eta = min(eta_t.precision, xi_u.precision + m1 - n1)
    if w_eta < m1:
        # the head m1*v1 of eta_t lies beyond the window
        raise PrecisionError(
            f"the result's window w_eta = {w_eta} is below m1 = {m1} in the "
            "unit frame; invert at a higher target precision"
        )
    eta_t = eta_t.truncate(w_eta)
    xi_u = xi_u.truncate(w_eta - m1 + n1)
    ess_t, ess_u = _unit_frame_sequences(eta_t, xi_u, m1, n1)
    return _halphen_stolz_report(eta_t, xi_u, ess_t, ess_u, m1, n1, result.root_coeff)


def lagrange_coefficient(data: BranchData, q: int) -> Fraction:
    """The coefficient of y^(q/m) in xi, straight from the unit part of eta:

        [xi]_(q/m) = (n/q) a~^(-q) [ (1 + C)^(-q/m) ]_(q-n),

    C = (eta/(a~^m t^m)) - 1, read off in the t-frame.  Independent of the
    dual-based pipeline."""
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


def lagrange_pair_check(X: PuiseuxSeries, Y: PuiseuxSeries, pairs) -> CheckReport:
    """Check p [X^q]_p = q [Y^(-p)]_(-q) for reciprocal order-one series,
    one check per (p, q) in pairs.  Reciprocity is checked once, and each
    power of X and Y is computed once."""
    for s, name in ((X, "X"), (Y, "Y")):
        if s.num_vars != 1:
            raise PuiseuxError("Lagrange pairs are one-variable")
        if s.is_zero() or s.min_exponent() != (Fraction(1),) or s.ramification[0] != 1:
            raise PuiseuxError(f"{name} must be an order-1 series with integer exponents")
    phi = Y.shift((-1,))
    psi = X.shift((-1,))
    if not dual(phi).agrees_with(psi):
        raise PuiseuxError("X and Y are not reciprocal within precision")
    report = CheckReport("Lagrange inversion")
    x_power, y_power = cache(X.pow_int), cache(Y.pow_int)
    for p, q in pairs:
        lhs = p * x_power(q).coefficient((Fraction(p),))
        rhs = q * y_power(-p).coefficient((Fraction(-q),))
        report.record(f"p [X^q]_p = q [Y^-p]_-q at p={p}, q={q}", lhs, rhs)
    return report
