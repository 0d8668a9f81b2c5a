"""Rational interval enclosures for e and ln, with rigorous comparisons.

Every endpoint is an exact Fraction; a comparison is decided only when the
intervals separate, otherwise the caller refines. Bare floating point is
never used for a decision. The enclosures of e and ln are kept per
(argument, terms) in bounded caches; a `RatInterval` is frozen, so one kept
enclosure can serve every caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


#: Longest series `decide_less` tries before it gives up.
MAX_TERMS = 4096
#: Enclosures kept per function: a run asks for few (argument, terms)
#: pairs, each again and again (one per threshold or parameter decision).
ENCLOSURE_CACHE_SIZE = 256


class UndecidedComparison(RuntimeError):
    """Intervals overlap at the highest precision tried."""


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> RatInterval:
        f = Fraction(x)
        return cls(f, f)

    def __add__(self, other: RatInterval) -> RatInterval:
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: RatInterval) -> RatInterval:
        products = (
            self.lo * other.lo, self.lo * other.hi,
            self.hi * other.lo, self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    def scale(self, c) -> RatInterval:
        c = Fraction(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def power(self, m: int) -> RatInterval:
        """Integer power; requires a non-negative interval for m >= 1."""
        if m == 0:
            return RatInterval.point(1)
        if self.lo < 0:
            raise ValueError("power only supported on non-negative intervals")
        return RatInterval(self.lo**m, self.hi**m)

    def midpoint_float(self) -> float | None:
        """The midpoint as a float, or None beyond the float range."""
        try:
            return float((self.lo + self.hi) / 2)
        except OverflowError:
            return None

    def strictly_less_than(self, other) -> bool | None:
        """True/False when decided, None when the intervals overlap."""
        o = other if isinstance(other, RatInterval) else RatInterval.point(other)
        if self.hi < o.lo:
            return True
        if self.lo > o.hi:
            return False
        return None


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def e_interval(terms: int) -> RatInterval:
    """Enclosure of e from the factorial series; tail < 1/(terms! * terms)."""
    lo = sum((Fraction(1, math.factorial(i)) for i in range(terms + 1)), Fraction(0))
    return RatInterval(lo, lo + Fraction(1, math.factorial(terms) * terms))


def _atanh_interval(z: Fraction, terms: int) -> RatInterval:
    """Enclosure of atanh(z) for 0 <= z < 1 via the odd power series."""
    if z == 0:
        return RatInterval.point(0)
    s = Fraction(0)
    zpow = z
    z2 = z * z
    for i in range(terms + 1):
        s += zpow / (2 * i + 1)
        zpow *= z2
    # remaining terms are positive and dominated by a geometric series
    tail = zpow / ((2 * terms + 3) * (1 - z2))
    return RatInterval(s, s + tail)


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def ln_interval(x, terms: int) -> RatInterval:
    """Enclosure of ln(x) for rational x > 0.

    The argument is reduced to [1, 2) by powers of two, then
    ln r = 2 atanh((r-1)/(r+1)) converges geometrically (ratio <= 1/9).
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"ln requires x > 0, got {x}")
    if x < 1:
        inner = ln_interval(1 / x, terms)
        return RatInterval(-inner.hi, -inner.lo)
    halvings = 0
    r = x
    while r >= 2:
        r /= 2
        halvings += 1
    ln2 = _atanh_interval(Fraction(1, 3), terms).scale(2)
    ln_r = _atanh_interval((r - 1) / (r + 1), terms).scale(2)
    return ln2.scale(halvings) + ln_r


def decide_less(make_lhs, rhs, start_terms: int = 16) -> bool:
    """Adaptive strict comparison of an enclosure with a rational: is the
    value enclosed by `make_lhs` below `rhs`?

    `make_lhs` maps a precision (series length) to a RatInterval; precision
    doubles until the enclosure lies on one side of `rhs`, up to `MAX_TERMS`.
    """
    terms = start_terms
    while terms <= MAX_TERMS:
        verdict = make_lhs(terms).strictly_less_than(rhs)
        if verdict is not None:
            return verdict
        terms *= 2
    raise UndecidedComparison(
        f"comparison undecided at precision {MAX_TERMS}; "
        "the two sides may be equal")
