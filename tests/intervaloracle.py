"""The sign-aware interval arithmetic and the float-seeded floor that
`mms.intervals` and `mms.witness` used before their enclosures were built
from ends alone, kept as oracles for the tests.

`ln_oracle` reduces any rational x > 0 (a reciprocal below 1, halvings to
[1, 2)) and sums the pieces with `add` and `scale`; `f_bound_oracle` builds
k (4 e ln k)^k with `mul`, `power` and `scale`, taking the minimum and
maximum over the four corner products. `floor_over_ln_oracle` seeds its
search with `math.log`, then walks down and up, deciding each step by
`decide_less` on the scaled ln k enclosure. Each endpoint is an exact
Fraction, so the tests require equal ends, not close ones.
"""
from __future__ import annotations

import math
from fractions import Fraction

from mms.intervals import RatInterval, decide_less, e_interval


def point(x) -> RatInterval:
    f = Fraction(x)
    return RatInterval(f, f)


def add(a: RatInterval, b: RatInterval) -> RatInterval:
    return RatInterval(a.lo + b.lo, a.hi + b.hi)


def mul(a: RatInterval, b: RatInterval) -> RatInterval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RatInterval(min(products), max(products))


def scale(a: RatInterval, c) -> RatInterval:
    c = Fraction(c)
    if c >= 0:
        return RatInterval(a.lo * c, a.hi * c)
    return RatInterval(a.hi * c, a.lo * c)


def power(a: RatInterval, m: int) -> RatInterval:
    if m == 0:
        return point(1)
    if a.lo < 0:
        raise ValueError("power only supported on non-negative intervals")
    return RatInterval(a.lo**m, a.hi**m)


def atanh_oracle(z: Fraction, terms: int) -> RatInterval:
    if z == 0:
        return point(0)
    s = Fraction(0)
    zpow = z
    z2 = z * z
    for i in range(terms + 1):
        s += zpow / (2 * i + 1)
        zpow *= z2
    tail = zpow / ((2 * terms + 3) * (1 - z2))
    return RatInterval(s, s + tail)


def ln_oracle(x, terms: int) -> RatInterval:
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"ln requires x > 0, got {x}")
    if x < 1:
        inner = ln_oracle(1 / x, terms)
        return RatInterval(-inner.hi, -inner.lo)
    halvings = 0
    r = x
    while r >= 2:
        r /= 2
        halvings += 1
    ln2 = scale(atanh_oracle(Fraction(1, 3), terms), 2)
    ln_r = scale(atanh_oracle((r - 1) / (r + 1), terms), 2)
    return add(scale(ln2, halvings), ln_r)


def f_bound_oracle(k: int, terms: int) -> RatInterval:
    return scale(power(mul(scale(e_interval(terms), 4), ln_oracle(k, terms)), k), k)


def floor_over_ln_oracle(x: Fraction, k: int) -> int:
    j = max(0, int(x / math.log(k)))

    def below(c: int) -> bool:
        # is c ln k < x ?
        return decide_less(lambda terms: scale(ln_oracle(k, terms), c), x)

    while j > 0 and not below(j):
        j -= 1
    while below(j + 1):
        j += 1
    return j

