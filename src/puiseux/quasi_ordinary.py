"""Lipman's combinatorial quasi-ordinary test and toric chart pullbacks.

A multivariate series is quasi-ordinary exactly when its support admits a
coordinatewise-increasing chain of exponents lambda_1 <= ... <= lambda_r such
that every support element lies in Z^h plus the group generated by the
lambda_j below it, each lambda_i lying outside the group of its predecessors.
The candidates are produced from the essential sequence relative to Z^h
(dropping an integral head), so only the two order-sensitive conditions need
explicit checking, the second on the series' integer keys.  A chart is
checked once, as integer rows, and pulled back by an integer key map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import le

from .core import (
    AdditiveOrder,
    PuiseuxError,
    Vec,
    _cleared,
    _echelon_reduce,
    fmt_vec,
    mat_det,
    mat_from,
    mat_mul,
    mat_transpose,
)
from .exponents import (
    EssentialSequence,
    drop_integral_head,
    essential_of_series,
    exponent_to_json,
)
from .reports import CheckReport
from .series import PuiseuxSeries

__all__ = ["QOVerdict", "LipmanWitness", "qo_test", "toric_pullback", "verify_qsigma_relation"]


@dataclass(frozen=True)
class LipmanWitness:
    condition: str  # "comparability" | "membership"
    elements: tuple[Vec, ...]

    def describe(self) -> str:
        elems = " and ".join(fmt_vec(e) for e in self.elements)
        if self.condition == "comparability":
            return f"candidates {elems} are not coordinatewise comparable"
        return f"support element {elems} escapes the group of the candidates below it"

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "elements": [exponent_to_json(e) for e in self.elements],
        }


def _leq(a: Vec, b: Vec) -> bool:
    """a <= b in every coordinate."""
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class QOVerdict:
    is_qo: bool | None  # None: unknown beyond precision
    char_exponents: tuple[Vec, ...] | None
    witness: LipmanWitness | None
    certified: bool
    essential: EssentialSequence

    def to_json(self) -> dict:
        return {
            "is_qo": {True: "yes", False: "no", None: "unknown"}[self.is_qo],
            "char_exponents": None
            if self.char_exponents is None
            else [exponent_to_json(e) for e in self.char_exponents],
            "witness": None if self.witness is None else self.witness.to_json(),
            "certified": self.certified,
        }


def qo_test(psi: PuiseuxSeries) -> QOVerdict:
    """Decide quasi-ordinariness of the stored support.

    Candidates come from ess(S(psi), Z^h, lex) with an integral head dropped;
    the verdict is certified only when that sequence carries a completeness
    certificate, otherwise a clean run is reported as unknown beyond
    precision (a violation found within precision is still reported).
    """
    if psi.is_zero():
        raise PuiseuxError("quasi-ordinary test of the zero series")
    ess = essential_of_series(psi)
    candidates = drop_integral_head(ess)
    certified = ess.complete

    witness = None
    for a, b in zip(candidates, candidates[1:]):
        if not _leq(a, b):
            witness = LipmanWitness("comparability", (a, b))
            break
    if witness is None:
        # on the keys Z^h is spanned by the points n_i e_i; the candidates
        # form a chain, so those below a key are a prefix of it, and each
        # prefix is one set of integer echelon rows grown from the one before
        n = psi.ramification
        chain = [[c.numerator * (m // c.denominator) for c, m in zip(e, n)] for e in candidates]
        prefixes = [[[0] * i + [m] + [0] * (len(n) - 1 - i) for i, m in enumerate(n)]]
        for point in chain:
            prefixes.append([r and r[:] for r in prefixes[-1]])
            _echelon_reduce(prefixes[-1], point[:], True)
        for g in psi._sorted_keys():
            below = sum(all(map(le, c, g)) for c in chain)
            if not _echelon_reduce(prefixes[below], list(g), False):
                witness = LipmanWitness("membership", (psi._vec(g),))
                break

    if witness is not None:
        return QOVerdict(False, None, witness, certified, ess)
    return QOVerdict(True if certified else None, tuple(candidates), None, certified, ess)


def toric_pullback(psi: PuiseuxSeries, q_sigma) -> PuiseuxSeries:
    """Monomial pullback x^lambda -> v^(lambda . q): row i of q_sigma is the
    exponent vector of the monomial substituted for the i-th variable."""
    q, det = _chart(psi, q_sigma)
    if det == 0:
        raise PuiseuxError("chart matrix must be invertible")
    if abs(det) != 1:
        warnings.warn(
            f"chart matrix determinant {det} is not +-1; the cone is not regular",
            stacklevel=2,
        )
    return psi._substitute(mat_transpose(q))


def _chart(psi: PuiseuxSeries, q_sigma):
    """q_sigma as integer rows and its determinant, after every chart's checks."""
    scale, q = _cleared(mat_from(q_sigma))
    if len(q) != psi.num_vars or len(q[0]) != psi.num_vars:
        raise PuiseuxError("chart matrix dimension does not match the series")
    if scale != 1 or any(c < 0 for row in q for c in row):
        raise PuiseuxError("chart matrix must have non-negative integer entries")
    return q, mat_det(q)


def verify_qsigma_relation(
    psi: PuiseuxSeries, q_sigma, order: AdditiveOrder | None = None
) -> CheckReport:
    """Check q(ess(psi, Z^h, order o q)) = ess(pullback(psi), Z^h, order)
    entrywise, for a unimodular non-negative chart matrix q, checked once."""
    q, det = _chart(psi, q_sigma)
    if abs(det) != 1:
        raise PuiseuxError("the chart relation needs a unimodular integer matrix")
    order = order if order is not None else AdditiveOrder.lex(psi.num_vars)
    left = essential_of_series(psi, order=order._compose(q))
    pulled = psi._substitute(mat_transpose(q))
    if len(pulled._keys) != len(psi._keys):
        # the chart pushed stored terms beyond the pullback's precision, so
        # the two sides would be compared over different windows
        raise PuiseuxError(
            "insufficient precision: the pullback loses stored terms"
        )
    right = essential_of_series(pulled, order=order)
    report = CheckReport("toric chart relation")
    report.record("sequence lengths", len(left.entries), len(right.entries))
    # the images a·q of the left entries, as one product
    for k, (a, b) in enumerate(zip(mat_mul(left.entries, q), right.entries)):
        report.record(f"entry {k}", a, b, b)
    return report
