"""Exact verification of the inequality chains, thresholds, and propagation.

Each report carries both sides of its inequality as exact rationals; the
`margin` field is lhs - rhs. Transcendental quantities (e, ln k) enter only
through rational interval enclosures so comparisons are decided rigorously.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .intervals import ENCLOSURE_CACHE_SIZE, RatInterval, decide_less, e_interval, ln_interval
from .numerics import binomial

Rat = Fraction | int


@dataclass(frozen=True, slots=True)
class BoundReport:
    name: str
    parameters: dict = field(default_factory=dict)
    holds: bool = False
    lhs: Rat = 0
    rhs: Rat = 0
    strict: bool = False

    @property
    def margin(self) -> Fraction:
        return Fraction(self.lhs) - Fraction(self.rhs)


def unimodal_gap_lb(p: Fraction, q: Fraction, m: int) -> BoundReport:
    """First-minus-second-term lower bound: (p-q)^m >= p^m - m p^(m-1) q.

    Valid whenever the leading expansion term exceeds the second (p > m q):
    the terms then decrease, and an alternating series with decreasing terms
    is bounded below by its first two. The precondition is reported, not
    asserted, so callers can probe the boundary.
    """
    p, q = Fraction(p), Fraction(q)
    if p <= 0 or q <= 0 or m < 1:
        raise ValueError(f"need p, q > 0 and m >= 1, got p={p}, q={q}, m={m}")
    lhs = (p - q) ** m
    rhs = p**m - m * p ** (m - 1) * q
    return BoundReport(
        name="unimodal_gap_lb",
        parameters={
            "p": p,
            "q": q,
            "m": m,
            "precondition_met": p > m * q,
        },
        holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
    )


def thm1_threshold(k: int) -> int:
    """3k^(k+1) + k^3: the first extraction route's threshold on n."""
    return 3 * k ** (k + 1) + k**3


def thm1_threshold_check(n: int, k: int) -> BoundReport:
    """(n-3k)^(k-1) + (n/k - k)^(k-1) >= n^(k-1), with n/k exact.

    Also evaluates the chained lower-bound form
    n^(k-1) - 3k^2 n^(k-2) + n^(k-1)/k^(k-1) - n^(k-2)/k^(k-4)
    and confirms it clears n^(k-1) exactly when n >= 3k^(k+1) + k^3.
    """
    if n < 2 or k < 2:
        raise ValueError(f"need n, k >= 2, got n={n}, k={k}")
    nk = Fraction(n, k)
    lhs = Fraction(n - 3 * k) ** (k - 1) + (nk - k) ** (k - 1)
    rhs = Fraction(n) ** (k - 1)
    chained = (
        rhs
        - 3 * k**2 * Fraction(n) ** (k - 2)
        + rhs / Fraction(k) ** (k - 1)
        - Fraction(n) ** (k - 2) / Fraction(k) ** (k - 4)
    )
    threshold = thm1_threshold(k)
    return BoundReport(
        name="thm1_threshold_check",
        parameters={
            "n": n,
            "k": k,
            "threshold": threshold,
            "at_or_above_threshold": n >= threshold,
            "chained_lhs": chained,
            "chained_holds": chained >= rhs,
            "chained_equivalence_ok": (chained >= rhs) == (n >= threshold),
            "first_term_condition": Fraction(n) ** (k - 1) > (k - 1) * Fraction(n) ** (k - 2) * 3 * k,
            "second_term_condition": nk ** (k - 1) > (k - 1) * nk ** (k - 2) * k,
        },
        holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
    )


@lru_cache(maxsize=16)
def _thm2_stage_terms(n: int, k: int) -> tuple:
    """The terms of `thm2_stage_check` that depend on (n, k) alone:
    n^(k-1), (k-1) k n^(k-2), k(k-1), and the large regime's floor bound,
    chain verdict and threshold verdict."""
    rhs = n ** (k - 1)
    divisor = 2 ** (k - 1) * k**2
    chain_holds = n**k > rhs * divisor
    return (rhs, (k - 1) * k * n ** (k - 2), k * (k - 1),
            Fraction(n**k, divisor), chain_holds, chain_holds == (n > divisor))


def thm2_stage_check(n: int, k: int, p: int) -> BoundReport:
    """(p+1) (n - k(p+1))^(k-1) > n^(k-1), plus the regime conditions.

    For p < n/k^2 the sufficient chain ends in n/(k(k-1)) > p + 2 + 1/p;
    for n/k^2 <= p <= n/2k the floor bound n^k / (2^(k-1) k^2) clears
    n^(k-1) exactly when n > 2^(k-1) k^2.

    Every comparison is made in ints: the regime test p < n/k^2 as
    p k^2 < n; the small-regime chain, multiplied through by p k(k-1) > 0,
    as n p > k(k-1)(p+1)^2; the large-regime chain as
    n^k > n^(k-1) 2^(k-1) k^2. Only the reported floor bound is a Fraction.
    The terms free of p are computed once per (n, k).
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if not 1 <= p <= n // (2 * k):
        raise ValueError(f"p={p} outside [1, {n // (2 * k)}]")
    rhs, first_term, kk1, floor_bound, chain_holds, threshold_ok = _thm2_stage_terms(n, k)
    lhs = (p + 1) * (n - k * (p + 1)) ** (k - 1)
    if p * k * k < n:
        params = {"n": n, "k": k, "p": p, "regime": "p_below_n_over_k2",
                  "first_term_condition": rhs > first_term * (p + 1),
                  "sufficient_chain_holds": n * p > kk1 * (p + 1) ** 2}
    else:
        params = {"n": n, "k": k, "p": p, "regime": "p_above_n_over_k2",
                  "floor_bound": floor_bound,
                  "sufficient_chain_holds": chain_holds,
                  "sufficient_threshold_ok": threshold_ok}
    return BoundReport("thm2_stage_check", params, lhs > rhs, lhs, rhs, True)


def stage_count_beats_target(n: int, k: int, p: int) -> BoundReport:
    """Binomial form of the stage inequality: (p+1) C(n-kp-1, k-1) > C(n-1, k-1)."""
    if k < 1 or p < 1 or n <= k * p:
        raise ValueError(f"need k >= 1, p >= 1 and n > kp, got n={n}, k={k}, p={p}")
    lhs = (p + 1) * binomial(n - k * p - 1, k - 1)
    rhs = binomial(n - 1, k - 1)
    return BoundReport(
        name="stage_count_beats_target",
        parameters={"n": n, "k": k, "p": p},
        holds=lhs > rhs,
        lhs=lhs,
        rhs=rhs,
        strict=True,
    )


@dataclass(frozen=True)
class FBoundValues:
    k: int
    old_bound: int
    new_bound: Fraction          # rigorous upper end of the enclosure
    new_bound_float: float | None  # midpoint, for display only; None beyond float range
    new_smaller_than_old: bool


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def new_f_bound_interval(k: int, terms: int) -> RatInterval:
    """Enclosure of k (4 e ln k)^k, kept per (k, terms): the verdicts that
    read it (`decide_less`) are not. It increases in e and ln k, both
    positive, so its ends come from the ends of theirs."""
    e, ln = e_interval(terms), ln_interval(k, terms)
    return RatInterval(k * (4 * e.lo * ln.lo) ** k, k * (4 * e.hi * ln.hi) ** k)


def f_bound_values(k: int) -> FBoundValues:
    """The classical threshold (k-1)(k^k + k^2) + k vs the k (4 e ln k)^k one.

    The comparison is decided by adaptive interval refinement, never by
    floating point. The improvement is asymptotic: the new bound only drops
    below the old one around k = 41.
    """
    if k < 3:
        raise ValueError(f"need k >= 3 (ln k > 1), got k={k}")
    old = (k - 1) * (k**k + k**2) + k
    new_iv = new_f_bound_interval(k, 32)
    smaller = decide_less(partial(new_f_bound_interval, k), old, start_terms=32)
    return FBoundValues(
        k=k,
        old_bound=old,
        new_bound=new_iv.hi,
        new_bound_float=new_iv.midpoint_float(),
        new_smaller_than_old=smaller,
    )


def thm2_threshold_exceeded(n: int, k: int) -> bool:
    """Rigorously decide n > k (4 e ln k)^k (never equal for integer n)."""
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    return decide_less(partial(new_f_bound_interval, k), n, start_terms=16)


@dataclass(frozen=True)
class PropagationResult:
    k: int
    n_max: int
    closure: frozenset[int]
    coprime_witness: int | None
    coprime_bound: int | None


def propagate_equality(verified: set[int], k: int, n_max: int) -> PropagationResult:
    """Close a set of equality-verified n under n -> n+k and n -> c*n.

    Inputs are trusted (produced by the solver or the partition argument),
    but must be positive: a value <= 0 is a ValueError, as its multiples
    would never pass n_max.
    When some member of the closure is coprime with k, the corollary
    f(k) <= (k-1) n is reported for the smallest such n.
    """
    if not verified:
        raise ValueError("verified set must be non-empty")
    if min(verified) < 1:
        raise ValueError(f"verified values must be positive, got {min(verified)}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    closure: set[int] = set()
    frontier = sorted(v for v in verified if v <= n_max)
    while frontier:
        m = frontier.pop()
        if m in closure:
            continue
        closure.add(m)
        if m + k <= n_max:
            frontier.append(m + k)
        c = 2
        while c * m <= n_max:
            frontier.append(c * m)
            c += 1
    coprime = sorted(m for m in closure if math.gcd(m, k) == 1)
    witness = coprime[0] if coprime else None
    return PropagationResult(
        k=k,
        n_max=n_max,
        closure=frozenset(closure),
        coprime_witness=witness,
        coprime_bound=(k - 1) * witness if witness is not None else None,
    )
