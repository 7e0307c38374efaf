"""Seeded instance generators for the three benchmark workloads.

Every generator takes the workload seed and returns a list of plain
instance records (series text plus parameters).  Nothing here imports
`puiseux`: the program under test only ever sees the generated text.

The seed changes coefficients and secondary exponents, never the shape of
the work: a workload has the same unit precisions N, the same mix of
instance kinds and the same support structure for every seed, so
throughput figures from different seeds are comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("plane_inversion", "multivar_inversion", "support_analysis")
DEFAULT_SEED = 0

# The README example; N = 10*6 - 4 = 56 at the CLI default target.
ANCHOR = "x^(3/2) + 2*x^(7/4)"
PLANE_TARGET = Fraction(10)

# (m1, n1, copies): leading exponent m1/n1 with ramification n1, so that
# N = 10*m1 - n1.  With the anchor these are 29 instances from N = 18 to
# 56, weighted towards small N so that one pass stays short.
PLANE_SLOTS = (
    [(3, n1, 2) for n1 in range(2, 13)]
    + [(4, n1, 1) for n1 in (3, 5, 7, 9, 11)]
    + [(5, 2, 1)]
)

# Quasi-ordinary dominating branches, described in the unit frame
# x1 = t1^n1, xi = ti^ni: eta = x1^(m1/n1) * (1 + c1*g1 + c2*g2) with
# unit monomials g1 = t1*t2 and g2 = t1^n1 (h = 2) or t1^2*t2*t3 (h = 3).
# Each row: (h, m1, n1, allowed (n2, ..., nh), [(target, copies)]).  Every
# allowed denominator is at most m1, so N = target*m1 - n1 does not depend
# on it, and each choice keeps the Lipman test certified.  28 instances,
# N = 20 to 35.
MULTIVAR_SLOTS = [
    (2, 4, 3, [(2,), (4,)], [("6", 4), ("13/2", 2), ("8", 1)]),
    (2, 6, 4, [(3,), (5,)], [("4", 4), ("9/2", 2), ("6", 1)]),
    (3, 6, 4, [(2, 3), (3, 2), (3, 5), (5, 3), (2, 5)], [("4", 4), ("9/2", 2), ("13/2", 1)]),
    (3, 4, 3, [(2, 4), (4, 2)], [("6", 4), ("13/2", 2), ("9", 1)]),
]

# The exponential-DFS family {11/10, ..., 19/10} + {top}; every top here
# finishes well inside the default search budget.
ADVERSARIAL_TOPS = ["36/7", "43/7", "50/7"]
SUPPORT_MIX = {"one": 34, "two": 20, "adversarial": 6}
SUPPORT_PRECISION = 8
POWER_EXPONENT = 3
CHARTS = ([[1, 1], [0, 1]], [[1, 0], [1, 1]])


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _coef(rng: random.Random) -> int:
    return rng.choice((1, 2, 3)) * rng.choice((1, -1))


def _term(coef, factors: list[tuple[str, Fraction]]) -> str:
    body = "*".join(
        name if e == 1 else f"{name}^({e})" for name, e in factors if e != 0
    )
    if not body:
        return str(coef)
    if coef in (1, -1):
        return body if coef == 1 else f"-{body}"
    return f"{coef}*{body}"


def _join(terms: list[str]) -> str:
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text


def plane_inversion(seed: int) -> list[dict]:
    """x^(m1/n1) + c1*x^((m1+1)/n1) + c2*x^((m1+k)/n1) for each slot.

    The (m1+1)/n1 term makes the ramification exactly n1 and the unit part
    dense, so the cost depends on N and the coefficient sizes only."""
    rng = _rng("plane_inversion", seed)
    out = [{"id": "anchor", "text": ANCHOR, "target": str(PLANE_TARGET)}]
    for m1, n1, copies in PLANE_SLOTS:
        for j in range(copies):
            k = rng.randint(2, n1 + 1)
            terms = [
                _term(1, [("x", Fraction(m1, n1))]),
                _term(_coef(rng), [("x", Fraction(m1 + 1, n1))]),
                _term(_coef(rng), [("x", Fraction(m1 + k, n1))]),
            ]
            out.append({
                "id": f"m{m1}n{n1}v{j}",
                "text": _join(terms),
                "target": str(PLANE_TARGET),
            })
    return out


def _multivar_text(rng: random.Random, h: int, m1: int, n1: int, dens) -> str:
    lead = [("x1", Fraction(m1, n1))]
    g1 = [("x1", Fraction(m1 + 1, n1)), ("x2", Fraction(1, dens[0]))]
    if h == 2:
        g2 = [("x1", Fraction(m1 + n1, n1))]
    else:
        g2 = [
            ("x1", Fraction(m1 + 2, n1)),
            ("x2", Fraction(1, dens[0])),
            ("x3", Fraction(1, dens[1])),
        ]
    return _join([_term(1, lead), _term(_coef(rng), g1), _term(_coef(rng), g2)])


def multivar_inversion(seed: int) -> list[dict]:
    rng = _rng("multivar_inversion", seed)
    out = []
    for h, m1, n1, denominators, targets in MULTIVAR_SLOTS:
        for target, copies in targets:
            for j in range(copies):
                out.append({
                    "id": f"h{h}m{m1}n{n1}t{target.replace('/', '_')}v{j}",
                    "text": _multivar_text(rng, h, m1, n1, rng.choice(denominators)),
                    "target": target,
                })
    return out


def _one_var_item(rng: random.Random) -> str:
    size = rng.randint(3, 5)
    exps: set[Fraction] = set()
    while len(exps) < size:
        den = rng.randint(1, 6)
        exps.add(Fraction(rng.randint(1, 4 * den), den))
    terms = [_term(_coef(rng), [("x", e)]) for e in sorted(exps)]
    return _join(terms) + f" + O(total={SUPPORT_PRECISION})"


def _two_var_item(rng: random.Random, qo: bool) -> str:
    """qo=True: a coordinatewise chain lam1 <= lam2 plus a term in the
    group they generate with Z^2.  qo=False: two incomparable exponents."""
    if qo:
        a = Fraction(rng.randint(1, 3), 2)
        lam1 = (a, Fraction(0))
        lam2 = (a + Fraction(1, 4), Fraction(1, rng.choice((3, 5))))
        extra = (lam2[0] + 1, lam2[1])
        exps = [lam1, lam2, extra]
    else:
        exps = [
            (Fraction(rng.choice((1, 3, 5)), 2), Fraction(0)),
            (Fraction(0), Fraction(rng.randint(1, 2), rng.choice((3, 5)))),
        ]
    terms = [_term(_coef(rng), [("x1", e[0]), ("x2", e[1])]) for e in exps]
    return _join(terms) + f" + O(total={SUPPORT_PRECISION})"


def _adversarial_item(top: str) -> str:
    exps = [Fraction(k, 10) for k in range(11, 20)] + [Fraction(top)]
    return _join([_term(1, [("x", e)]) for e in exps]) + f" + O(total={SUPPORT_PRECISION})"


def support_analysis(seed: int) -> list[dict]:
    """A batch of small one- and two-variable series in a fixed mix."""
    rng = _rng("support_analysis", seed)
    out = []
    for i in range(SUPPORT_MIX["one"]):
        out.append({"id": f"one{i:02d}", "kind": "one", "text": _one_var_item(rng)})
    for i in range(SUPPORT_MIX["two"]):
        qo = i % 2 == 0
        out.append({
            "id": f"two{i:02d}",
            "kind": "two",
            "text": _two_var_item(rng, qo),
            "expect_qo": qo,
        })
    tops = [ADVERSARIAL_TOPS[i % len(ADVERSARIAL_TOPS)] for i in range(SUPPORT_MIX["adversarial"])]
    rng.shuffle(tops)
    for i, top in enumerate(tops):
        out.append({"id": f"adv{i:02d}", "kind": "adversarial", "text": _adversarial_item(top)})
    return out


GENERATORS = {
    "plane_inversion": plane_inversion,
    "multivar_inversion": multivar_inversion,
    "support_analysis": support_analysis,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
