"""Rational enclosures of e and ln k, with rigorous comparisons.

Every endpoint is an exact Fraction. The quantities enclosed here (e, ln k,
and the threshold k (4e ln k)^k) are positive and increasing in each
positive input, so an enclosure of an expression is built from the lower
ends of its inputs and from their upper ends, with no general interval
arithmetic. A comparison with a rational is decided only when the enclosure
lies on one side of it, otherwise the caller refines. Floating point is
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

    def midpoint_float(self) -> float | None:
        """The midpoint as a float, or None beyond the float range."""
        try:
            return float((self.lo + self.hi) / 2)
        except OverflowError:
            return None

    def strictly_less_than(self, x) -> bool | None:
        """Is the enclosed value below the rational x? None when x lies
        in the interval."""
        if self.hi < x:
            return True
        if self.lo > x:
            return False
        return None


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def e_interval(terms: int) -> RatInterval:
    """Enclosure of e from the factorial series; tail < 1/(terms! * terms)."""
    lo = sum((Fraction(1, math.factorial(i)) for i in range(terms + 1)), Fraction(0))
    return RatInterval(lo, lo + Fraction(1, math.factorial(terms) * terms))


def _atanh_interval(z: Fraction, terms: int) -> RatInterval:
    """Enclosure of atanh(z) for 0 <= z < 1 via the odd power series."""
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
def ln_interval(x: int, terms: int) -> RatInterval:
    """Enclosure of ln(x) for an integer x >= 1.

    With x = 2^h r, 1 <= r < 2: ln x = 2 (h atanh(1/3) + atanh((r-1)/(r+1))),
    and both series converge geometrically (ratio <= 1/9).
    """
    if x <= 0:
        raise ValueError(f"ln requires x > 0, got {x}")
    h = x.bit_length() - 1
    r = Fraction(x, 2**h)
    a = _atanh_interval(Fraction(1, 3), terms)
    b = _atanh_interval((r - 1) / (r + 1), terms)
    return RatInterval(2 * (h * a.lo + b.lo), 2 * (h * a.hi + b.hi))


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
