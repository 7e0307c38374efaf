"""Branch inversion.

An x1-dominating series eta factors as eta = (t1 * unit)^m1 after the
substitution x_i = t_i^(n_i), where the unit part has constant term a~ with
a~^m1 equal to the dominating coefficient.  The inverted presentation of the
same branch is xi = (u1 * dual(unit))^n1, re-expressed in y1^(1/m1),
x2^(1/n2), ....  The exponent and coefficient identities tying the two
essential sequences together are verified on every run.

Everything is read off unit^m1 = eta_t/t1^m1, which holds eta's own few
terms, while the unit part, its m1-th root, has about N: extract_branch
keeps unit^m1 and builds the unit part only when it is read, the pipeline
takes psi^n1 straight from unit^m1 by Lagrange-Burmann, and the independent
Lagrange oracle expands (unit^m1/a~^m1)^(-q/m1) with plain dict products,
never touching the dual or the power kernel.  Every frame change on the way
(x to t, t to x, u to y) is diagonal, so on the integer grid it relabels
the keys of one series into another.

The work grows with the unit precision N = target*max(m1, n2, ..., nh) - n1.
There is one path from eta to xi: invert_series(eta, target) is the
inversion of _branch_at(eta, target, root), the extract_branch at that N,
gated there once.  Input is checked in two places, before any work:
BranchData's construction checks a hand-built unit part, and the gate
_working_precision, run once by each of invert_series, invert_branch,
lagrange_series and lagrange_coefficient, refuses an exact unit part
without a target and one too short for N.  No N is refused as such: the
dual and the Lagrange oracle charge their work under the one limit
core.MAX_WORK (0.03-0.11 us a unit on a 2-vCPU host), and a dual whose
rows alone pass it, as at N = 599996, is refused at once.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    STEP,
    AdditiveOrder,
    Lattice,
    PuiseuxError,
    RootError,
    _root_name,
    charge,
    fmt_power,
    fmt_vec,
    is_int,
    positive_int,
    rat,
    rational_root,
    total,
)
from .duality import _dual_from_power, dual
from .exponents import EssentialSequence, essential_of_series
from .reports import CheckReport
from .series import (
    INF,
    PrecisionError,
    PuiseuxSeries,
    _norm_prec,
    _reframe_prec,
)

_ORACLE = "the Lagrange oracle"
# The one refusal of an exact unit part, by extract_branch (m1 > 1) and the gate
_EXACT_UNIT_PART = "exact unit part: pass target_precision, or unit_precision to extract_branch"

__all__ = [
    "BranchData",
    "DominationError",
    "InversionResult",
    "extract_branch",
    "invert_branch",
    "invert_series",
    "verify_halphen_stolz",
    "lagrange_coefficient",
    "lagrange_series",
    "lagrange_pair_check",
]


class DominationError(PuiseuxError):
    pass


class BranchData:
    """Unit-part presentation of a dominating branch.

    series: the unit part in the t-variables (integral exponents, constant
    term root_coeff); power: unit^m1, the series the unit part is the m1-th
    root of; exponent_m: the power m1; ramification: the source series'
    per-variable denominators (n1, ..., nh).

    BranchData(series, m1, root_coeff, ramification) holds the given unit
    part and the ramification as a tuple, and power is unit.pow_int(m1),
    computed when first read.  Before any work it raises PuiseuxError
    unless the ramification is one positive integer per variable, the unit
    part has integral exponents and is not a Laurent series, m1 is a
    positive integer, root_coeff is nonzero and unit(0)^m1 = root_coeff^m1.
    extract_branch holds power, eta_t/t1^m1 with eta's own terms and a root
    it checked, and the unit part, a dense m1-th root, is computed when
    series is first read; the inversion pipeline and the Lagrange oracle
    never read it.  Equality, repr and to_json are those of the four fields
    series, exponent_m, root_coeff and ramification.  Instances are immutable.
    """

    def __init__(self, series, exponent_m, root_coeff, ramification):
        h, grid = series.num_vars, series.ramification
        ramification = tuple(ramification)
        if len(ramification) != h:
            raise PuiseuxError(
                f"ramification must give one denominator per variable ({h}), got {ramification}"
            )
        for n in ramification:
            positive_int(n, "ramification")
        if grid != (1,) * h:
            raise PuiseuxError(f"the unit part needs integral exponents, not grid {grid}")
        if series.laurent:
            raise PuiseuxError("the unit part must be a power series, not a Laurent series")
        positive_int(exponent_m, "exponent_m")
        if not root_coeff:
            raise PuiseuxError("branch data needs a nonzero root_coeff")
        c, a = series._keys.get((0,) * h, 0) ** exponent_m, root_coeff**exponent_m
        if c != a:
            raise PuiseuxError(f"unit^m1 has constant term {c}, not root_coeff^m1 = {a}")
        self._set(exponent_m, root_coeff, ramification, series=series)

    @classmethod
    def _from_power(cls, power, exponent_m, root_coeff, ramification) -> "BranchData":
        obj = object.__new__(cls)
        obj._set(exponent_m, root_coeff, ramification, power=power)
        return obj

    def _set(self, exponent_m, root_coeff, ramification, **held) -> None:
        # series and power are cached properties: the one given is stored
        # under its name, the other is computed and stored on first read
        self.__dict__.update(
            held,
            exponent_m=exponent_m,
            root_coeff=root_coeff,
            ramification=ramification,
            _from_unit="series" in held,
        )

    @functools.cached_property
    def series(self) -> PuiseuxSeries:
        return self.power.unit_root(self.exponent_m, self.root_coeff)

    @functools.cached_property
    def power(self) -> PuiseuxSeries:
        return self.series.pow_int(self.exponent_m)

    @property
    def _held(self) -> PuiseuxSeries:
        """The series given at construction, the unit part or unit^m1; both
        have the same precision."""
        return self.series if self._from_unit else self.power

    def __setattr__(self, name, value):
        raise AttributeError(f"BranchData is immutable: cannot set {name!r}")

    def _fields(self) -> tuple:
        return (self.series, self.exponent_m, self.root_coeff, self.ramification)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return (
            f"BranchData(series={self.series!r}, exponent_m={self.exponent_m!r}, "
            f"root_coeff={self.root_coeff!r}, ramification={self.ramification!r})"
        )

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
    """Locate the dominating pure-x1 term a*x1^(m1/n1), eta's least key; returns (a, m1)."""
    if eta.is_zero():
        raise DominationError("the zero series has no dominating term")
    if eta.laurent:
        raise DominationError("dominating extraction needs non-negative exponents")
    low = min(eta._keys)
    if low[0] <= 0 or any(low[1:]):
        witness = min(
            (eta._vec(g) for g in eta._keys if g[0] == low[0]), key=lambda e: (total(e), e)
        )
        raise DominationError(
            f"series is not x1-dominating: offending exponent {fmt_vec(witness)}"
        )
    return eta._keys[low], low[0]


def extract_branch(
    eta: PuiseuxSeries, root_coeff=None, unit_precision=None
) -> BranchData:
    """Decompose a dominating series as (t1 * unit)^m1 with unit(0) = a~.

    When root_coeff is absent the m1-th root of the dominating coefficient is
    extracted exactly over the rationals; callers must supply it otherwise.
    unit_precision bounds the total degree of unit^m1, and so of the unit
    part, and defaults to everything eta's own precision supports.  The
    result holds unit^m1; its unit part is computed when first read.
    """
    a, m1 = _dominating_profile(eta)
    n = eta.ramification
    if root_coeff is None:
        atilde = rational_root(a, m1)
        if atilde is None:
            raise RootError(
                f"dominating coefficient {a} has no rational {_root_name(m1)}; "
                "pass root_coeff explicitly"
            )
    else:
        atilde = rat(root_coeff)
        if atilde**m1 != a:
            raise RootError(
                f"root_coeff {atilde} fails: {fmt_power(atilde, m1)} = {atilde ** m1} != {a}"
            )
    cap = INF if unit_precision is None else max(Fraction(0), _norm_prec(unit_precision))
    # eta -> eta_t is diag(n), then t1^-m1 divides out the dominating term
    unit_m = eta._reframe(n, -m1, cap)
    if unit_m.precision is INF and m1 > 1 and len(unit_m._keys) > 1:
        raise PrecisionError(_EXACT_UNIT_PART)
    return BranchData._from_power(unit_m, m1, atilde, n)


def _unit_frame_sequences(eta_t, xi_u, m1: int, n1: int):
    """ess(eta_t, n1 Z v1 + Z v2 + ..., lex) and ess(xi_u, m1 Z v1 + Z v2 +
    ..., lex), walked on the series' keys."""
    h = eta_t.num_vars
    lex, ones = AdditiveOrder.lex(h), [1] * (h - 1)
    return (
        essential_of_series(eta_t, Lattice.scaled_axes(h, [n1, *ones]), lex),
        essential_of_series(xi_u, Lattice.scaled_axes(h, [m1, *ones]), lex),
    )


def _rescale_sequence(seq: EssentialSequence, first: int, divisors) -> EssentialSequence:
    """seq, relative to first*Z v1 + Z v2 + ..., with coordinate i divided by divisors[i]."""
    entries = tuple(
        tuple([Fraction(c.numerator, c.denominator * d) for c, d in zip(e, divisors)])
        for e in seq.entries
    )
    scales = [Fraction(first, divisors[0])] + [Fraction(1, d) for d in divisors[1:]]
    lattice = Lattice.scaled_axes(len(divisors), scales)
    return EssentialSequence(entries, lattice, seq.order, seq.complete)


def _required_unit_precision(target, m1: int, n: tuple[int, ...]):
    """N = target*max(m1, n2, ..., nh) - n1, at least 0, one Fraction built from ints."""
    target = _norm_prec(target)
    if target is INF:
        return INF
    num = target.numerator * max((m1, *n[1:])) - n[0] * target.denominator
    return Fraction(max(num, 0), target.denominator)


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
    [xi]_{eps'_k} = -(n1/m1) atilde^(-n1-eps_{k,1}) [eta]_{eps_k}.

    Both series lie on the unit grid (1, ..., 1), where an exponent is its
    own key, so coefficients are read straight off the keys; every exponent
    read is in the support or at a head within the window."""
    h = eta_t.num_vars
    if eta_t.ramification != (1,) * h or xi_u.ramification != (1,) * h:
        raise PuiseuxError(
            f"the unit frame needs integral exponents: eta_t has grid "
            f"{eta_t.ramification}, xi_u {xi_u.ramification}"
        )
    zero = Fraction(0)

    def eta_at(e):
        return eta_t._keys.get(e, zero)

    def xi_at(e):
        return xi_u._keys.get(e, zero)

    report = CheckReport("Halphen-Stolz inversion")
    report.provisional = not (ess_t.complete and ess_u.complete)
    head_t, head_u = ess_t.entries[0], ess_u.entries[0]
    m1_v1 = (m1,) + (0,) * (h - 1)
    n1_v1 = (n1,) + (0,) * (h - 1)
    report.record("eta head is m1*v1", head_t, m1_v1)
    report.record("xi head is n1*v1", head_u, n1_v1)
    eps = ess_t.entries[1:]
    eps_p = ess_u.entries[1:]
    report.record("d' = d", len(eps_p), len(eps))
    report.record("[xi] at n1*v1 is root^(-n1)", xi_at(n1_v1), atilde**-n1, n1_v1)
    for k, (ek, epk) in enumerate(zip(eps, eps_p), start=1):
        report.record(
            f"exponent relation k={k}",
            (epk[0] + m1,) + epk[1:],
            (ek[0] + n1,) + ek[1:],
            epk,
        )
        expected = -Fraction(n1, m1) * atilde ** (-n1 - int(ek[0])) * eta_at(ek)
        report.record(f"coefficient relation k={k}", xi_at(epk), expected, epk)
        if atilde == 1:
            report.record(
                f"symmetric form k={k}",
                m1 * xi_at(epk) + n1 * eta_at(ek),
                zero,
                epk,
            )
    if atilde == 1:
        report.record("unit dominating coefficients", eta_at(m1_v1), xi_at(n1_v1))
    return report


def _working_precision(data: BranchData, target_precision):
    """The unit precision N that invert_branch(data, target_precision)
    works at, lagrange_series(data) at target None and lagrange_coefficient
    at target q/m1: their one gate.  Refuses an exact unit part without a
    target and a unit part too short for N; the work N needs is charged by
    the walks themselves."""
    held = data._held
    need = held.precision if target_precision is None else _required_unit_precision(
        target_precision, data.exponent_m, data.ramification)
    if need is INF and held.precision is INF and len(held._keys) > 1:
        raise PrecisionError(_EXACT_UNIT_PART)
    if held.precision < need:
        raise PrecisionError(
            f"the input is too short: target {target_precision} needs unit "
            f"precision N = {need}, it supports only {held.precision}"
        )
    return need


def invert_branch(data: BranchData, target_precision=None) -> InversionResult:
    """Run the full pipeline on data.power = unit^m1: read psi^n1, psi the
    dual of the unit part, off unit^m1, re-express xi = u1^n1 psi^n1 in
    y1^(1/m1), x2^(1/n2), ..., compute both essential sequences and check
    every inversion identity.

    psi^n1 comes straight from unit^m1 by Lagrange-Burmann; the unit part
    has integral exponents, so for every first coordinate k

        [psi^n1]_k = n1/(k+n1) a~^(-(k+n1)) [t1^k] (unit^m1/a~^m1)^(-(k+n1)/m1).

    unit^m1 is eta_t/t1^m1, which has only eta's few terms while the unit,
    an m1-th root, has about N, so neither the unit part, nor the dense
    dual, nor its n1-th power is ever built.  The same power gives eta_t.
    For data built from a unit part, unit^m1 is computed once and kept;
    a target below the unit part's precision raises only the unit part
    cut at N, so a long unit part costs no more than N needs.

    target_precision bounds the total degree of the output in its fractional
    frame; the unit part must carry enough precision, or an error states how
    much is required.  The dual charges the work N needs and is refused
    once it passes core.MAX_WORK, before its first degree when a count it
    knows beforehand already does.
    """
    return _invert(data, _working_precision(data, target_precision))


def _invert(data: BranchData, need) -> InversionResult:
    """invert_branch(data) at the unit precision need, already gated."""
    if data._from_unit and need < data.series.precision:
        unit_m = data.series.truncate(need).pow_int(data.exponent_m)
    else:
        unit_m = data.power.truncate(need)
    m1 = data.exponent_m
    n = data.ramification
    n1 = n[0]
    ones = (1,) * unit_m.num_vars
    atilde = data.root_coeff
    eta_t = unit_m._reframe(ones, m1)
    xi_u = _dual_from_power(unit_m, m1, atilde, n1)._reframe(ones, n1)

    ess_t, ess_u = _unit_frame_sequences(eta_t, xi_u, m1, n1)

    xi_divisors = [m1] + list(n[1:])
    checks = _halphen_stolz_report(eta_t, xi_u, ess_t, ess_u, m1, n1, atilde)
    return InversionResult(
        eta=eta_t._reframe([Fraction(1, d) for d in n]),
        xi=xi_u._reframe([Fraction(1, d) for d in xi_divisors]),
        m1=m1,
        n1=n1,
        root_coeff=atilde,
        ess_eta=_rescale_sequence(ess_t, n1, n),
        ess_xi=_rescale_sequence(ess_u, m1, xi_divisors),
        checks=checks,
        branch=data,
    )


def _branch_at(eta: PuiseuxSeries, target_precision, root_coeff=None):
    """(extract_branch(eta, root_coeff, N), N) at the unit precision N that
    target_precision needs, refused as invert_branch(_, target_precision)
    refuses it: the gate runs here, once."""
    m1 = _dominating_profile(eta)[1]
    N = _required_unit_precision(target_precision, m1, eta.ramification)
    data = extract_branch(eta, root_coeff, N)
    return data, _working_precision(data, target_precision)


def invert_series(
    eta: PuiseuxSeries, target_precision, root_coeff=None
) -> InversionResult:
    """invert_branch(data, target_precision) on the branch data of
    _branch_at(eta, target_precision, root_coeff), gated there once: the one
    path from eta to xi, complete up to target_precision."""
    return _invert(*_branch_at(eta, target_precision, root_coeff))


def verify_halphen_stolz(result: InversionResult) -> CheckReport:
    """Recompute the inversion identities of a result from scratch: eta and
    xi are taken back to the unit frame and walked again."""
    n = result.branch.ramification
    m1, n1 = result.m1, result.n1
    eta_frame = list(n)
    xi_frame = [m1] + list(n[1:])
    # corresponding support elements differ by (n1 - m1)*v1, so the two
    # windows must be offset by exactly m1 - n1 or d' = d is not comparable
    w_eta = min(
        _reframe_prec(result.eta.precision, eta_frame),
        _reframe_prec(result.xi.precision, xi_frame, m1 - n1),
    )
    if w_eta < m1:
        # the head m1*v1 of eta_t lies beyond the window
        raise PrecisionError(
            f"the result's window w_eta = {w_eta} is below m1 = {m1} in the "
            "unit frame; invert at a higher target precision"
        )
    eta_t = result.eta._reframe(eta_frame, cap=w_eta)
    xi_u = result.xi._reframe(xi_frame, cap=w_eta - m1 + n1)
    ess_t, ess_u = _unit_frame_sequences(eta_t, xi_u, m1, n1)
    return _halphen_stolz_report(eta_t, xi_u, ess_t, ess_u, m1, n1, result.root_coeff)


# -- the Lagrange oracle ------------------------------------------------------


def _keys_product(a: dict, b: dict, window) -> dict:
    """a*b on integer keys of the unit grid, cut at total degree window: a
    plain dict convolution, independent of PuiseuxSeries.__mul__ and the power
    kernel."""
    b_items = sorted(((sum(g), g, c) for g, c in b.items()), key=operator.itemgetter(0))
    out = {}
    for g1, c1 in a.items():
        room = window - sum(g1)
        for d2, g2, c2 in b_items:
            if d2 > room:
                break
            g = tuple(map(operator.add, g1, g2))
            v = out.get(g)
            out[g] = c1 * c2 if v is None else v + c1 * c2
    return {g: c for g, c in out.items() if c}


def _oracle_power(data: BranchData, window) -> tuple[dict, int]:
    """unit^m1 by unit-grid key up to total degree window, as integers over
    one denominator, without the power kernel: the keys data holds, or the
    unit part raised to m1 by dict products."""
    keys = {g: c for g, c in data._held._keys.items() if sum(g) <= window}
    den = math.lcm(*(c.denominator for c in keys.values()))
    keys = {g: c.numerator * (den // c.denominator) for g, c in keys.items()}
    if not data._from_unit:
        return keys, den
    power, spent = keys, 0
    for _ in range(data.exponent_m - 1):
        spent = charge(spent + STEP * len(power) * len(keys), _ORACLE)
        power = _keys_product(power, keys, window)
    return power, den**data.exponent_m


def _lagrange_keys(data: BranchData, window) -> dict:
    """[xi_u] at every unit-frame key (q, b) with q - n1 + |b| <= window,
    by Lagrange-Burmann in t1 with t2, ..., th as parameters:

        [xi_u]_(q,b) = (n1/q) a~^(-q) sum_i binom(-q/m1, i) [t1^(q-n1) t'^b] C^i,

    C = unit^m1/a~^m1 - 1, read off unit^m1 by a scale.  The table
    T_i = C^i, cut at the window, is built once for every q, in integers
    over den^i, den the common denominator of C; a key of degree D reads
    the rows i <= D/ord(C) and costs one Fraction.  The oracle charges STEP
    for each of its rows, one per multiple of ord(C) in the window, before
    the first, then for each key of a row times each term of C, and for
    each Horner step of a key."""
    m1, atilde = data.exponent_m, data.root_coeff
    n1 = data.ramification[0]
    power, power_den = _oracle_power(data, window)
    zero = (0,) * len(data.ramification)
    a = atilde**m1
    # C = power/(power_den a) - 1, in integers over den > 0 in lowest terms
    sign = 1 if a > 0 else -1
    c = {g: sign * v * a.denominator for g, v in power.items() if g != zero}
    den = power_den * abs(a.numerator)
    common = math.gcd(den, *c.values())
    den //= common
    c = {g: v // common for g, v in c.items()}
    order = min(map(sum, c), default=1)
    table = [{zero: 1}]
    spent = charge(STEP * (window // order + 1 if c else 1), _ORACLE)
    while c:
        prev = table[-1]
        spent = charge(spent + STEP * len(prev) * len(c), _ORACLE)
        row = _keys_product(prev, c, window)
        if not row:
            break
        table.append(row)
    out = {}
    for g in {g for row in table for g in row}:
        q = g[0] + n1
        # Horner's rule from the last row that can hold g: the bracket is
        # x_0 + c_1 (x_1 + c_2 (x_2 + ...)) with x_i = T_i[g]/den^i and
        # c_i = (-q - (i-1) m1)/(m1 i), the ratio of consecutive binomials.
        # The partial sum is kept as acc/(den^i f), f = prod_{j>i} m1 den j,
        # so each step multiplies by small integers only.
        last = min(len(table) - 1, sum(g) // order)
        acc, f = table[last].get(g, 0), 1
        for i in range(last, 0, -1):
            f *= m1 * den * i
            acc = acc * (-q - (i - 1) * m1) + table[i - 1].get(g, 0) * f
        spent = charge(spent + STEP * last, _ORACLE)
        if acc:
            out[(q,) + g[1:]] = Fraction(
                n1 * acc * atilde.denominator**q, q * f * atilde.numerator**q
            )
    return out


def lagrange_series(data: BranchData) -> PuiseuxSeries:
    """xi from the Lagrange formula alone, every coefficient at once, in the
    frame and at the precision of invert_branch(data).xi, so that the two
    compare with ==.  See _lagrange_keys for the formula; it never builds
    the dual or calls the power kernel."""
    N = _working_precision(data, None)
    n = data.ramification
    n1 = n[0]
    window = N if N is INF else math.floor(N)
    ones = (1,) * len(n)
    xi_u = PuiseuxSeries._from_keys(
        _lagrange_keys(data, window), ones, _reframe_prec(N, ones, n1), False
    )
    return xi_u._reframe([Fraction(1, d) for d in [data.exponent_m, *n[1:]]])


def lagrange_coefficient(data: BranchData, q: int) -> Fraction:
    """The coefficient of y^(q/m) in xi, straight from eta's terms:

        [xi]_(q/m) = (n/q) a~^(-q) [ (1 + C)^(-q/m) ]_(q-n),

    C = unit^m/a~^m - 1, read off in the t-frame.  Independent of the
    dual-based pipeline and of the power kernel: the key (q,) of the walk
    of lagrange_series, cut at N = q - n, the N of invert_branch(data, q/m)
    and refused as that call refuses it."""
    if len(data.ramification) != 1:
        raise PuiseuxError("the Lagrange formula is one-variable")
    if not is_int(q):
        raise PuiseuxError(f"q must be an integer, got {q!r}")
    n1 = data.ramification[0]
    if q < n1:
        raise PuiseuxError(f"q = {q} must be at least n = {n1}")
    N = _working_precision(data, Fraction(q, data.exponent_m))
    return _lagrange_keys(data, int(N)).get((q,), Fraction(0))


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
    x_power, y_power = functools.cache(X.pow_int), functools.cache(Y.pow_int)
    for p, q in pairs:
        lhs = p * x_power(q).coefficient((Fraction(p),))
        rhs = q * y_power(-p).coefficient((Fraction(-q),))
        report.record(f"p [X^q]_p = q [Y^-p]_-q at p={p}, q={q}", lhs, rhs)
    return report
