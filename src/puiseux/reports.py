"""Verification reports: failures are data, not exceptions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .core import Vec, fmt_vec


class Check(NamedTuple):
    """One row of a report, both sides as text; a named tuple is immutable
    and cheap to build, at one row per checked coefficient."""

    label: str
    exponent: Vec | None
    lhs: str
    rhs: str

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def describe(self) -> str:
        where = f" at {fmt_vec(self.exponent)}" if self.exponent is not None else ""
        verdict = "ok" if self.passed else f"FAIL ({self.lhs} != {self.rhs})"
        return f"{self.label}{where}: {verdict}"


@dataclass
class CheckReport:
    name: str
    checks: list[Check] = field(default_factory=list)
    provisional: bool = False
    # why the checks could not be run at all, when they could not
    skipped: str | None = None

    def record(self, label: str, lhs, rhs, exponent=None) -> None:
        # each side written once, a vector by fmt_vec and anything else by
        # str; tuple.__new__ builds the row without Check's Python-level __new__
        lhs = fmt_vec(lhs) if isinstance(lhs, tuple) else str(lhs)
        rhs = fmt_vec(rhs) if isinstance(rhs, tuple) else str(rhs)
        self.checks.append(tuple.__new__(Check, (label, exponent, lhs, rhs)))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def checked_exponents(self) -> list[Vec]:
        # a dict keeps the first occurrence of each, in order
        return list(dict.fromkeys(c.exponent for c in self.checks if c.exponent is not None))

    def to_json(self) -> dict:
        from .exponents import exponent_to_json

        out = {
            "checked_exponents": [
                exponent_to_json(e) for e in self.checked_exponents()
            ],
            "all_passed": self.all_passed,
            "failures": [
                {
                    "exponent": None
                    if c.exponent is None
                    else exponent_to_json(c.exponent),
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                }
                for c in self.failures
            ],
        }
        if self.provisional:
            out["provisional"] = True
        if self.skipped is not None:
            out["skipped"] = self.skipped
        return out

    def describe(self) -> str:
        if self.skipped is not None:
            return f"{self.name}: SKIPPED ({self.skipped})"
        lines = [f"{self.name}: {'PASS' if self.all_passed else 'FAIL'}"
                 + (" (provisional: incomplete certificates)" if self.provisional else "")]
        lines += ["  " + c.describe() for c in self.checks]
        return "\n".join(lines)
