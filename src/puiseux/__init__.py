"""Exact invariants of Newton-Puiseux series: irreducible, essential and
characteristic exponents, compositional duals, and the inversion identities
relating the two presentations of a dominating branch."""

from .core import (
    AdditiveOrder,
    DimensionError,
    Lattice,
    OrderError,
    PuiseuxError,
    RootError,
    rational_binomial,
    rational_root,
)
from .duality import dual, verify_dual_identity, verify_power_identity
from .exponents import (
    CharacteristicSequence,
    EssentialSequence,
    characteristic_exponents,
    essential_exponents,
    essential_exponents_p,
    essential_of_series,
    irreducible_exponents,
    semigroup_member_oracle,
)
from .inversion import (
    BranchData,
    DominationError,
    InversionResult,
    extract_branch,
    invert_branch,
    invert_series,
    lagrange_coefficient,
    lagrange_pair_check,
    lagrange_series,
    verify_halphen_stolz,
)
from .quasi_ordinary import (
    LipmanWitness,
    QOVerdict,
    qo_test,
    toric_pullback,
    verify_qsigma_relation,
)
from .reports import Check, CheckReport
from .series import INF, ParseError, PrecisionError, PuiseuxSeries, format_series, parse

__version__ = "0.1.0"

__all__ = [
    "AdditiveOrder",
    "BranchData",
    "Check",
    "CheckReport",
    "CharacteristicSequence",
    "DimensionError",
    "DominationError",
    "EssentialSequence",
    "INF",
    "InversionResult",
    "Lattice",
    "LipmanWitness",
    "OrderError",
    "ParseError",
    "PrecisionError",
    "PuiseuxError",
    "PuiseuxSeries",
    "QOVerdict",
    "RootError",
    "characteristic_exponents",
    "dual",
    "essential_exponents",
    "essential_exponents_p",
    "essential_of_series",
    "extract_branch",
    "format_series",
    "invert_branch",
    "invert_series",
    "irreducible_exponents",
    "lagrange_coefficient",
    "lagrange_pair_check",
    "lagrange_series",
    "parse",
    "qo_test",
    "rational_binomial",
    "rational_root",
    "semigroup_member_oracle",
    "toric_pullback",
    "verify_dual_identity",
    "verify_halphen_stolz",
    "verify_power_identity",
    "verify_qsigma_relation",
]
