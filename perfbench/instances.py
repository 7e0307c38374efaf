"""The work of one instance, its independent checks and its traced replay.

Only public `puiseux` entry points are called.  Each workload class has

- prepare(spec): parse the generated text (set-up, not timed);
- run(parsed): the timed user-facing call(s);
- check(parsed, out, rng): independent verification, not timed; returns
  (problems, work-size counts, canonical digest);
- replay(parsed, ref, tracer, rng): the same computation taken stage by
  stage through public calls, with a span around each call into a layer;
  returns the problems found against the untraced result ref.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import puiseux as P

from tracing import NullTracer
from workloads import CHARTS, POWER_EXPONENT


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _vec(e) -> list[str]:
    return [str(c) for c in e]


def _series(s) -> dict:
    prec = None if s.precision == P.INF else str(s.precision)
    return {"terms": [[_vec(e), str(c)] for e, c in s.sorted_terms()], "precision": prec}


def _rows(report) -> list:
    return [[None if c.exponent is None else _vec(c.exponent), c.lhs, c.rhs] for c in report.checks]


def coef_bits(series) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.terms.values()),
        default=0,
    )


def unit_precision(eta, target: Fraction) -> tuple[Fraction, int]:
    """N = target*max(m1, n2..nh) - n1 and m1, from the public support."""
    n = eta.ramification
    lam1 = min(e[0] for e in eta.support())
    m1 = lam1 * n[0]
    if m1.denominator != 1:
        raise ValueError(f"leading exponent {lam1} is off the ramification grid")
    m1 = int(m1)
    return max(Fraction(0), target * max([m1, *n[1:]]) - n[0]), m1


def _diag(entries) -> list[list[Fraction]]:
    h = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(h)] for i in range(h)]


@dataclasses.dataclass
class Inversion:
    eta: P.PuiseuxSeries
    target: Fraction


class InversionWorkload:
    """invert_series at a target, followed by verify_halphen_stolz."""

    def prepare(self, spec: dict) -> Inversion:
        return Inversion(P.parse(spec["text"], precision=P.INF), Fraction(spec["target"]))

    def run(self, inst: Inversion):
        result = P.invert_series(inst.eta, inst.target)
        return result, P.verify_halphen_stolz(result)

    def quick_digest(self, out) -> str:
        result, report = out
        return digest({
            "eta": _series(result.eta),
            "xi": _series(result.xi),
            "m1": result.m1,
            "n1": result.n1,
            "root": str(result.root_coeff),
            "ess_eta": [_vec(e) for e in result.ess_eta.entries],
            "ess_xi": [_vec(e) for e in result.ess_xi.entries],
            "complete": [result.ess_eta.complete, result.ess_xi.complete],
            "checks": _rows(result.checks),
            "verify": _rows(report),
        })

    def reports(self, out):
        return [out[0].checks, out[1]]

    def lagrange_sample(self, result, rng) -> list[int]:
        """q = n1, one seeded q and the last stored coefficient of xi."""
        n1, m1 = result.n1, result.m1
        last = math.floor(m1 * result.xi.precision)
        return sorted({n1, rng.randint(n1, last), last})

    def _lagrange_problems(self, data, xi, qs) -> list[str]:
        problems = []
        for q in qs:
            exp = (Fraction(q, data.exponent_m),)
            if xi.coefficient(exp) != P.lagrange_coefficient(data, q):
                problems.append(f"Lagrange oracle disagrees at y^{exp[0]}")
        return problems

    def check(self, inst: Inversion, out, rng):
        result, report = out
        problems = []
        if not result.checks.all_passed:
            problems.append("pipeline identity report failed")
        if not report.all_passed:
            problems.append("verify_halphen_stolz recomputation failed")
        n, m1 = unit_precision(inst.eta, inst.target)
        data = P.extract_branch(inst.eta, unit_precision=n)
        if inst.eta.num_vars == 1:
            qs = self.lagrange_sample(result, rng)
            problems += self._lagrange_problems(data, result.xi, qs)
        else:
            verdict = P.qo_test(inst.eta)
            if verdict.is_qo is not True or not verdict.certified:
                problems.append("generated branch is not certified quasi-ordinary")
        if m1 != result.m1:
            problems.append(f"m1 = {result.m1}, expected {m1}")
        work = {
            "N": str(n),
            "unit_terms": len(data.series.terms),
            "xi_terms": len(result.xi.terms),
            "coef_bits": coef_bits(result.xi),
            "checks": len(result.checks.checks) + len(report.checks),
        }
        return problems, work, self.quick_digest(out)

    def replay(self, inst: Inversion, ref, tr, rng) -> list[str]:
        """extract_branch -> dual -> pow_int (both sides) -> essential
        exponents -> monomial_substitute -> verify_halphen_stolz, then the
        Lagrange oracle outside the instance span."""
        ref_result = ref[0]
        eta = inst.eta
        h = eta.num_vars
        ram = eta.ramification
        n1 = ram[0]
        n, m1 = unit_precision(eta, inst.target)
        with tr.span("instance"):
            with tr.span("inversion.extract_branch"):
                data = P.extract_branch(eta, unit_precision=n)
            with tr.span("duality.dual"):
                unit_dual = P.dual(data.series)
            e1 = tuple(Fraction(int(i == 0)) for i in range(h))
            with tr.span("series.pow_int"):
                eta_t = data.series.pow_int(m1).shift(tuple(m1 * c for c in e1))
            with tr.span("series.pow_int"):
                xi_u = unit_dual.pow_int(n1).shift(tuple(n1 * c for c in e1))
            lex, ones = P.AdditiveOrder.lex(h), (1,) * h
            with tr.span("exponents.essential"):
                ess_t = P.essential_exponents(
                    eta_t.support(), P.Lattice.scaled_axes(h, [n1] + [1] * (h - 1)), lex, ones
                )
                ess_u = P.essential_exponents(
                    xi_u.support(), P.Lattice.scaled_axes(h, [m1] + [1] * (h - 1)), lex, ones
                )
            xi_div = [m1, *ram[1:]]
            with tr.span("series.monomial_substitute"):
                eta_x = eta_t.monomial_substitute(_diag([Fraction(1, d) for d in ram]))
                xi_x = xi_u.monomial_substitute(_diag([Fraction(1, d) for d in xi_div]))
            result = dataclasses.replace(
                ref_result, eta=eta_x, xi=xi_x, m1=m1, n1=n1, root_coeff=data.root_coeff
            )
            with tr.span("inversion.verify_halphen_stolz"):
                report = P.verify_halphen_stolz(result)
        problems = []
        if h == 1:
            qs = self.lagrange_sample(ref_result, rng)
            with tr.span("inversion.lagrange_coefficient"):
                problems += self._lagrange_problems(data, xi_x, qs)
        if xi_x != ref_result.xi or eta_x != ref_result.eta:
            problems.append("replayed xi differs from invert_series")
        rescaled = [
            tuple(tuple(c / d for c, d in zip(e, div)) for e in seq.entries)
            for seq, div in ((ess_t, ram), (ess_u, xi_div))
        ]
        if rescaled != [ref_result.ess_eta.entries, ref_result.ess_xi.entries]:
            problems.append("replayed essential sequences differ")
        if not report.all_passed:
            problems.append("replayed verify_halphen_stolz failed")
        tr.count("duality.dual.calls")
        tr.count("duality.dual.terms_out", len(unit_dual.terms))
        tr.count("inversion.unit_N", n)
        tr.count("inversion.xi_terms", len(xi_x.terms))
        tr.peak("inversion.coef_bits_max", coef_bits(xi_x))
        tr.count("reports.checks", len(report.checks))
        tr.count("reports.failures", len(report.failures))
        return problems


# -- support analysis --------------------------------------------------------


@dataclasses.dataclass
class Support:
    text: str
    expect_qo: bool


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def essential_p_oracle(values, p: int) -> tuple[Fraction, ...]:
    """Greedy essential sequence relative to pZ in one variable, with the
    joined lattice kept as its positive generator."""
    entries = [min(values)]
    g = _frac_gcd(Fraction(p), entries[0])
    while True:
        outside = [v for v in values if (v / g).denominator != 1]
        if not outside:
            return tuple(entries)
        entries.append(min(outside))
        g = _frac_gcd(g, entries[-1])


def irreducible_oracle(vectors) -> set:
    """Elements of a finite set of non-negative vectors that are not a sum of
    two or more nonzero elements, by reachability over the integer grid."""
    vecs = [tuple(v) for v in vectors]
    dim = len(vecs[0])
    scale = [math.lcm(*(v[i].denominator for v in vecs)) for i in range(dim)]
    pts = {v: tuple(int(c * s) for c, s in zip(v, scale)) for v in vecs}
    gens = [g for g in pts.values() if any(g)]
    top = tuple(max(g[i] for g in pts.values()) for i in range(dim))
    # member[x]: x is a sum of one or more generators
    member: set[tuple[int, ...]] = set()
    for x in sorted(_box(top), key=sum):
        if any(x == g or (_leq(g, x) and _sub(x, g) in member) for g in gens):
            member.add(x)
    out = set()
    for v, x in pts.items():
        if not any(x) or not any(g != x and _leq(g, x) and _sub(x, g) in member for g in gens):
            out.add(v)
    return out


def _box(top):
    grid = [()]
    for t in top:
        grid = [g + (i,) for g in grid for i in range(t + 1)]
    return grid


def _leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


class SupportWorkload:
    """parse/format round trip, characteristic and essential exponents,
    irreducible exponents, the Lipman test with two chart relations, and
    the power identity at low precision."""

    def prepare(self, spec: dict) -> Support:
        return Support(spec["text"], spec.get("expect_qo", True))

    def _compute(self, inst: Support, tr):
        with tr.span("instance"):
            with tr.span("series.parse"):
                psi = P.parse(inst.text)
            with tr.span("series.format"):
                text = P.format_series(psi)
                js = psi.to_json()
            with tr.span("series.parse"):
                back = P.parse(text)
                back_json = P.PuiseuxSeries.from_json(js)
            support = psi.support()
            h = psi.num_vars
            char = None
            if h == 1:
                with tr.span("exponents.characteristic"):
                    char = P.characteristic_exponents(psi)
                with tr.span("exponents.essential"):
                    ess = [
                        P.essential_exponents_p(support, p, ramification=psi.ramification[0])
                        for p in range(1, 13)
                    ]
            else:
                lex = P.AdditiveOrder.lex(h)
                with tr.span("exponents.essential"):
                    ess = [
                        P.essential_exponents(
                            support, P.Lattice.scaled_axes(h, [p] * h), lex, psi.ramification
                        )
                        for p in range(1, 13)
                    ]
            tr.count("exponents.irreducible.calls")
            with tr.span("exponents.irreducible"):
                irr = P.irreducible_exponents(support)
            with tr.span("quasi_ordinary.qo_test"):
                verdict = P.qo_test(psi)
            charts = []
            if h == 2:
                with tr.span("quasi_ordinary.verify_qsigma_relation"):
                    charts = [P.verify_qsigma_relation(psi, q) for q in CHARTS]
            with tr.span("duality.verify_power_identity"):
                # low precision: phi keeps the constant and at most three terms
                totals = sorted(sum(e) for e in support)
                phi = (psi + 1).truncate(totals[min(2, len(totals) - 1)])
                power = P.verify_power_identity(phi, POWER_EXPONENT)
        reports = [*charts, power]
        tr.count("reports.checks", sum(len(r.checks) for r in reports))
        tr.count("reports.failures", sum(len(r.failures) for r in reports))
        return {
            "psi": psi, "text": text, "back": back, "back_json": back_json, "char": char,
            "ess": ess, "irr": irr, "verdict": verdict, "charts": charts, "power": power,
        }

    def run(self, inst: Support):
        return self._compute(inst, NullTracer())

    def quick_digest(self, out) -> str:
        v = out["verdict"]
        return digest({
            "text": out["text"],
            "char": None if out["char"] is None else [str(e) for e in out["char"].entries],
            "ess": [[_vec(e) for e in s.entries] + [s.complete] for s in out["ess"]],
            "irr": sorted(_vec(e) for e in out["irr"]),
            "qo": [v.is_qo, v.certified, v.witness.condition if v.witness else None,
                   None if v.char_exponents is None else [_vec(e) for e in v.char_exponents]],
            "charts": [_rows(r) for r in out["charts"]],
            "power": _rows(out["power"]),
        })

    def reports(self, out):
        return [*out["charts"], out["power"]]

    def check(self, inst: Support, out, rng):
        psi = out["psi"]
        problems = []
        if out["back"] != psi or out["back_json"] != psi:
            problems.append("parse/format round trip changed the series")
        support = psi.support()
        if psi.num_vars == 1:
            values = [e[0] for e in support]
            for p, seq in enumerate(out["ess"], start=1):
                if seq.scalars != essential_p_oracle(values, p):
                    problems.append(f"essential sequence for p={p} disagrees with the oracle")
            ess1 = essential_p_oracle(values, 1)
            want_char = ess1[1:] if ess1[0].denominator == 1 else ess1
            if out["char"].entries != want_char:
                problems.append("characteristic exponents disagree with the oracle")
        else:
            first = min(support)
            for p, seq in enumerate(out["ess"], start=1):
                e = seq.entries
                if e[0] != first or any(a >= b for a, b in zip(e, e[1:])) or not set(e) <= support:
                    problems.append(f"essential sequence for p={p} is not greedy in S")
        if out["irr"] != irreducible_oracle(support):
            problems.append("irreducible exponents disagree with the oracle")
        if out["verdict"].is_qo is not inst.expect_qo:
            problems.append(f"qo verdict {out['verdict'].is_qo}, expected {inst.expect_qo}")
        for r in self.reports(out):
            if not r.all_passed:
                problems.append(f"{r.name} failed")
        work = {
            "support": len(support),
            "irreducible": len(out["irr"]),
            "checks": sum(len(r.checks) for r in self.reports(out)),
        }
        return problems, work, self.quick_digest(out)

    def replay(self, inst: Support, ref, tr, rng) -> list[str]:
        out = self._compute(inst, tr)
        if self.quick_digest(out) != self.quick_digest(ref):
            return ["replayed support analysis differs from the untraced run"]
        return []


WORKLOAD_CLASSES = {
    "plane_inversion": InversionWorkload,
    "multivar_inversion": InversionWorkload,
    "support_analysis": SupportWorkload,
}
