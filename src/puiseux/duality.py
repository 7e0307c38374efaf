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
in k, so a step is one C-level map over the runs still going.
_GridPower.dual_loop goes one degree at a time in one variable, where the
runs still going are those of the larger k; _GridPower.key_walk goes one
key at a time in h variables, where they are an interval of k that starts
at the key's first coordinate.  Each hands back integer pairs N/L, and the
factors n1/(k+n1) and r0^(-(k+n1)) fold into the one Fraction built for
each coefficient, the powers of r0's numerator and denominator carried
from one k to the next as ints.

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
from operator import mul

from .core import PuiseuxError, RootError, positive_int, rational_power, rational_root
from .exponents import _irreducible_points
from .reports import CheckReport
from .series import INF, PuiseuxSeries, PrecisionError, _degree, _GridPower, _grading

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
    r0 = c0 if n1 == 1 else rational_root(c0, n1)
    if r0 is None:
        raise RootError(
            f"dual with first-variable denominator {n1} needs a rational "
            f"{n1}-th root of the constant term {c0}"
        )
    # first coordinates of psi^a are sums of phi's, so multiples of their gcd
    step = math.gcd(*(g[0] for g in power._keys))
    recurrence = _GridPower(power)
    # one run for each k = 0, step, 2 step, ... up to the precision
    count = math.floor(prec * n1) // step + 1 if step else 1
    c = a * n1
    # the run for k is at exponent -(k + c)/(n1*m); in one variable step is
    # the unit of the recurrence and the run ends at the one key (k,)
    if power.num_vars == 1:
        runs = recurrence.dual_loop(-c, n1 * m, count)
    else:
        runs = recurrence.key_walk(-c, n1 * m, step)
    # r0^-(k + c) = r_den^e / r_num^e with e = k + c, carried as two ints
    # from one run to the next, as far as the runs reach
    powers = [(r0.numerator ** c, r0.denominator ** c)]
    s_num, s_den = r0.numerator ** step, r0.denominator ** step
    found = {}
    for g, num, common in runs:
        if num:
            j = g[0] // step if step else 0
            while len(powers) <= j:
                r_num, r_den = powers[-1]
                powers.append((r_num * s_num, r_den * s_den))
            r_num, r_den = powers[j]
            found[g] = Fraction(num * c * r_den, common * (g[0] + c) * r_num)
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
    irr_phi = _irreducible_points(phi._keys)
    irr_image = _irreducible_points(image._keys)
    grid = tuple(map(math.lcm, phi.ramification, image.ramification))
    on_phi = _on_grid(irr_phi, phi.ramification, grid)
    on_image = _on_grid(irr_image, image.ramification, grid)
    _, weights = _grading(grid)

    def order(x):
        # (degree, point) on one grid sorts as (total, vector) does
        return _degree(x, weights), x

    for x in sorted(on_phi.keys() ^ on_image.keys(), key=order):
        in_phi = x in on_phi
        report.record(
            "irreducible sets equal",
            "phi" if in_phi else name,
            name if in_phi else "phi",
            tuple(map(Fraction, x, grid)),
        )
    zero = tuple(Fraction(0) for _ in range(phi.num_vars))
    report.record("constant term", image.coefficient(zero), constant, zero)
    for x in sorted(on_phi.keys() & on_image.keys(), key=order):
        if any(x):
            r = tuple(map(Fraction, x, grid))
            report.record(
                label, image._keys[on_image[x]], factor(r) * phi._keys[on_phi[x]], r
            )
    return report


def _on_grid(keys, own, grid) -> dict:
    """keys on the grid own mapped to grid, a multiple of it: {point: key}."""
    factors = [m // n for m, n in zip(grid, own)]
    return {tuple(map(mul, g, factors)): g for g in keys}
