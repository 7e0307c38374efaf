"""Compositional duals.

For an invertible series phi (nonzero constant term), the dual is the unique
series psi such that u1*psi(u1, t2, ..., th) is the compositional inverse of
t1*phi(t1, t2, ..., th) in the first slot, t2, ..., th riding along as
coefficients.  Lagrange inversion reads each coefficient of psi off one
power of phi.  With n1 the first-variable denominator and k/n1 a first
coordinate,

    [psi]_(k/n1, .) = n1/(k+n1) * [t1^(k/n1)] phi^(-(k+n1)/n1),

which for n1 = 1 is the classical psi_(e, .) = [t1^e] phi^(-(e+1)) / (e+1)
(see also Brent & Kung, "Fast algorithms for manipulating formal power
series", JACM 1978).  Each power comes from Miller's recurrence, stopped at
first coordinate k, and only its coefficients at first coordinate k are
kept.  The constant factor phi_0^(-(k+n1)/n1) is r0^(-(k+n1)), r0 being
the rational n1-th root of phi_0 that rational_root picks (the positive one
when there are two); when n1 > 1 and phi_0 has no rational n1-th root, dual
raises RootError.

All runs advance together over one running denominator that they share,
and the weight of one step of the recurrence is an arithmetic progression
in k, so a step is one C-level map over the runs still going.  They are
the power kernel, _key_walk, called with the step of k: it goes
one key at a time in increasing total degree, in any number of variables,
and the runs still going at a key are an interval of k that starts at the
key's first coordinate.  It hands back integer pairs N/L, and the factors
n1/(k+n1) and r0^(-(k+n1)) fold into the one Fraction built for each
coefficient, r0^(-(k+n1)) as the ints r0's denominator and numerator
raised to k+n1 at each key.

The powers can be taken of any B = phi^m instead of phi itself:

    phi^(-(k+n1)/n1) = r0^(-(k+n1)) * (B/B_0)^(-(k+n1)/(n1*m)),

and each recurrence step walks the terms of B.  Branch inversion uses
this: its unit part is an m1-th root with about N terms, while its m1-th
power is the dominating series' own few terms, so every run costs O(N*s)
for s terms of B, not O(N^2).  The setup of the recurrence depends on B
alone and is done once for all k.

The same loop gives any positive integer power psi^a of the dual, by
Lagrange-Burmann:

    [psi^a]_(k/n1, .) = a*n1/(k+a*n1) * r0^(-(k+a*n1))
                        * [t1^(k/n1)] (B/B_0)^(-(k+a*n1)/(n1*m)).

dual takes a = 1; branch inversion takes a = n1, which gives
xi = (u1*psi)^n1 without a further power of the dense dual.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import PuiseuxError, RootError, _root_name, positive_int, rational_power, rational_root
from .exponents import _irreducible_points
from .reports import CheckReport
from .series import INF, PuiseuxSeries, PrecisionError, _degree, _grading, _key_walk

__all__ = ["dual", "verify_power_identity", "verify_dual_identity"]


def dual(phi: PuiseuxSeries) -> PuiseuxSeries:
    return _dual_from_power(phi, 1, phi.constant_term(), 1)


def _dual_from_power(
    power: PuiseuxSeries, m: int, c0: Fraction, a: int
) -> PuiseuxSeries:
    """psi^a for psi the dual of phi, read off power = phi^m; c0 = phi_0
    picks the m-th root of power's constant term that phi starts with."""
    if c0 == 0:
        raise PuiseuxError("dual requires a nonzero constant term")
    if power.laurent:
        raise PuiseuxError("dual of a Laurent series is not defined")
    prec = power.precision
    if prec is INF and len(power._keys) > 1:
        raise PrecisionError(
            "dual of an exact non-constant series has infinite support; truncate first"
        )
    # phi and its power generate the same exponent group, so they share the
    # first denominator and the gcd below
    n1 = power.ramification[0]
    r0 = rational_root(c0, n1)
    if r0 is None:
        raise RootError(
            f"dual with first-variable denominator {n1} needs a rational "
            f"{_root_name(n1)} of the constant term {c0}"
        )
    # first coordinates of psi^a are sums of phi's, so multiples of their gcd
    step = math.gcd(*(g[0] for g in power._keys))
    c = a * n1
    # one run for each k = 0, step, 2 step, ... up to the precision, the run
    # for k at exponent -(k + c)/(n1*m), kept at the keys of first coordinate k
    runs = _key_walk(power, -c, n1 * m, step)
    # c/e * r0^-e with e = k + c, r0^-e = r_den^e / r_num^e
    r_num, r_den = r0.numerator, r0.denominator
    found = {}
    for g, num, common in runs:
        if num:
            e = g[0] + c
            found[g] = Fraction(num * c * r_den**e, common * e * r_num**e)
    return PuiseuxSeries._from_keys(found, power.ramification, prec, False)


def verify_power_identity(phi: PuiseuxSeries, N: int) -> CheckReport:
    """Check Irr(phi^N) = Irr(phi) and the coefficient formulas
    [phi^N]_0 = phi_0^N and [phi^N]_r = N phi_0^(N-1) [phi]_r at every
    nonzero irreducible exponent r, within precision."""
    c0 = phi.constant_term()
    if c0 == 0:
        raise PuiseuxError("power identity needs an invertible series")
    positive_int(N, "N")
    return _irreducible_identity(
        f"power identity (N={N})", phi, phi.pow_int(N), "phi^N",
        c0**N, "power coefficient", lambda r: N * c0 ** (N - 1),
    )


def verify_dual_identity(phi: PuiseuxSeries) -> CheckReport:
    """Check Irr(dual(phi)) = Irr(phi), [dual]_0 = phi_0^(-1) and
    [dual]_r = -phi_0^(-r1-2) [phi]_r at every nonzero irreducible r,
    r1 being the first coordinate."""
    if phi.constant_term() == 0:
        raise PuiseuxError("dual identity needs an invertible series")
    return _dual_identity(phi, dual(phi))


def _dual_identity(phi: PuiseuxSeries, psi: PuiseuxSeries) -> CheckReport:
    """verify_dual_identity on psi, the dual of phi already computed."""
    c0 = phi.constant_term()
    return _irreducible_identity(
        "dual identity", phi, psi, "dual",
        1 / c0, "dual coefficient", lambda r: -rational_power(c0, -r[0] - 2),
    )


def _irreducible_identity(
    title, phi, image, name, constant, label, factor
) -> CheckReport:
    """Check Irr(image) = Irr(phi), [image]_0 = constant and
    [image]_r = factor(r) [phi]_r at every nonzero irreducible r; name is
    the image's name in the set check, label the coefficient checks'.  The
    irreducible keys of each series are compared on the lcm of the two
    grids, and coefficients are read by key."""
    report = CheckReport(title)
    grid = tuple(map(math.lcm, phi.ramification, image.ramification))
    # scaling a coordinate keeps irreducibility, so both walks run on grid
    on_phi, on_image = phi._keys_on(grid), image._keys_on(grid)
    irr_phi, irr_image = _irreducible_points(on_phi), _irreducible_points(on_image)
    _, weights = _grading(grid)

    def order(x):
        # (degree, point) on one grid sorts as (total, vector) does
        return _degree(x, weights), x

    for x in sorted(irr_phi ^ irr_image, key=order):
        in_phi = x in irr_phi
        report.record(
            "irreducible sets equal",
            "phi" if in_phi else name,
            name if in_phi else "phi",
            tuple(map(Fraction, x, grid)),
        )
    zero = tuple(Fraction(0) for _ in range(phi.num_vars))
    report.record("constant term", image.coefficient(zero), constant, zero)
    for x in sorted(irr_phi & irr_image, key=order):
        if any(x):
            r = tuple(map(Fraction, x, grid))
            report.record(label, on_image[x], factor(r) * on_phi[x], r)
    return report

