"""Certifying witness extraction: explicit or exactly-counted families of
non-negative k-subsets with guaranteed cardinalities.

The two extraction routes, `extract_thm1` and `extract_thm2`, are the only
producers of certified families. Each route only picks its branch, re-checking
every branch condition in exact arithmetic, and names the branch's disjoint
parts; one front door checks the input, certifies the parts in one pass and
builds the report. Every part is a family. A `RangeFamily` is certified by
`_certify`: its minimum-sum member is checked exactly, then its members are
re-summed (explicit) or a seeded uniform sample of them is (counted). A
`SubsetFamily` was certified where it was built: the first route's partition
witnesses are re-summed there (explicit), and above the partition size limit
that part is a count that rests on the theorem alone (counted). Each report
lists how every part was certified. A violated check raises instead of
emitting unsound output.

`log` means the natural logarithm throughout; the k(4e ln k)^k threshold
arises from k^(k/ln k) = e^k, which only holds base-e.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .bounds import thm1_threshold, thm2_threshold_exceeded
from .intervals import decide_less, ln_interval
from .numerics import Configuration, SubsetFamily, binomial, scaled_ksums
from .partition import PARTITION_SIZE_LIMIT, partition_lower_bound_witnesses

#: Families up to this size are enumerated; larger ones are counted+sampled.
EXPLICIT_LIMIT = 10**6
DEFAULT_SAMPLE_SIZE = 1000


class RangeInfeasibleError(ValueError):
    """Medium-range indices exceed the surviving working set (possible
    outside the theorem's n-range)."""


class WitnessSoundnessError(AssertionError):
    """An emitted witness re-evaluated negative; indicates a bug, never
    tolerated silently."""


# the branches whose last stage is central; `WitnessReport.trace` marks it
CENTRAL_AT_TOP, CENTRAL_AT_STAGE_I = CENTRAL_BRANCHES = ("central_at_top", "central_at_stage_i")


@dataclass(frozen=True, slots=True)
class StageTrace:
    """One stage of a scan, as `WitnessReport.trace` reads it off the stage count."""

    stage_index: int
    surviving_top: int        # original index of the working set's maximum
    removed_bottom: int       # total count of removed smallest elements
    central: bool
    stage_set_size: int       # n - (stage_index - 1) * k


@dataclass(frozen=True)
class WitnessReport:
    """What an extraction decided: the branch, the certified family, the
    number of stages scanned and how each part was certified.
    `below_guarantee`, `meets_threshold_target` and `trace` are read off
    these. `guaranteed_count` and `mode` repeat the family but stay stored
    fields: the benchmark harness tests set them with `dataclasses.replace`."""

    branch: str
    witnesses: SubsetFamily
    guaranteed_count: int                  # the family's count
    stages: int                            # stages scanned (1 on the first route)
    provenance: tuple[tuple[str, str], ...]  # (sub-family, how it was certified)
    mode: str                              # "explicit" | "counted", as the family is
    sample_size: int                       # members re-checked in counted mode
    threshold_met: bool                    # n is inside the route's theorem range
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        """True unless some sub-family rests on the theorem alone."""
        return all(how != "theorem" for _, how in self.provenance)

    @property
    def below_guarantee(self) -> bool:
        """count < C(n-1, k-1)."""
        fam = self.witnesses
        return fam.count < binomial(fam.n - 1, fam.k - 1)

    @property
    def meets_threshold_target(self) -> bool | None:
        """True inside the theorem range, where extraction checks that the
        count reaches C(n-1, k-1); None below it."""
        return True if self.threshold_met else None

    @property
    def trace(self) -> tuple[StageTrace, ...]:
        """One record per stage scanned. Stage i keeps x_1..x_i and drops the
        (i-1)(k-1) smallest values; only the last stage can be central, and
        it is on the `CENTRAL_BRANCHES`."""
        n, k, last = self.witnesses.n, self.witnesses.k, self.stages
        central = self.branch in CENTRAL_BRANCHES
        return tuple(StageTrace(i, i, (i - 1) * (k - 1), central and i == last, n - (i - 1) * k)
                     for i in range(1, last + 1))


def eq2_bound(config: Configuration, j: int) -> Fraction:
    """The sorted-average bound x_1 >= -x_(j+1) (n-j)/j, returned exactly.

    Re-derives its own proof obligation j x_1 + (n-j) x_(j+1) >= sum(X) >= 0
    before returning.
    """
    n = config.n
    if config.scaled_prefix[-1] < 0:
        raise ValueError(f"total sum must be non-negative, got {config.total_sum()}")
    if not 1 <= j <= n - 1:
        raise ValueError(f"j={j} out of range [1, {n - 1}]")
    scaled = config.scaled
    if j * scaled[0] + (n - j) * scaled[j] < config.scaled_prefix[-1]:
        raise AssertionError("sorted-average inequality violated -- config not sorted?")
    x1 = config.value(1)
    xj1 = config.value(j + 1)
    bound = -xj1 * Fraction(n - j, j)
    if x1 < bound:
        raise AssertionError("x_1 fell below its own averaging bound")
    return bound


@dataclass(frozen=True)
class RangeFamily:
    """The k-subsets that pick r indices from [lo, hi] for every part (lo, hi, r).

    Parts are 1-based, disjoint and increasing, with 1 <= r; the fixed index 1
    is the part (1, 1, 1). Construction checks this, so concatenating one
    combination per part gives a sorted index tuple within [1, last hi], and
    on a non-increasing configuration the member taking the largest indices
    of every part has the smallest sum.
    """

    parts: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a range family needs at least one part")
        prev_hi = 0
        for lo, hi, r in self.parts:
            if not prev_hi < lo <= hi or r < 1:
                raise ValueError(
                    f"part {(lo, hi, r)} of {self.parts} is not a range after "
                    f"index {prev_hi} with r >= 1")
            prev_hi = hi

    @classmethod
    def of(cls, *parts: tuple[int, int, int]) -> RangeFamily:
        """The family of `parts`, leaving out those that pick no index."""
        return cls(tuple(part for part in parts if part[2]))

    @property
    def count(self) -> int:
        return math.prod(binomial(hi - lo + 1, r) for lo, hi, r in self.parts)

    def members(self) -> list[tuple[int, ...]]:
        """Every member as a sorted index tuple, in increasing order: the
        list of the last part's combinations, then, part by part from the
        back, each combination of a part followed by each entry of the list
        of the parts after it."""
        *heads, (lo, hi, r) = self.parts
        tails = list(itertools.combinations(range(lo, hi + 1), r))
        for lo, hi, r in reversed(heads):
            tails = [c + t for c in itertools.combinations(range(lo, hi + 1), r)
                     for t in tails]
        return tails

    def sample(self, rng: random.Random, count: int) -> list[tuple[int, ...]]:
        """`count` uniformly random members, in O(r) RNG calls per part
        (lo, hi, r) of each.

        Indices drawn uniformly from the part, repeats rejected, give every
        ordered r-tuple of distinct indices the same chance, hence every
        r-subset too. Where r is more than half the part, its complement is
        drawn that way instead, so a pick is a repeat less than half the
        time either way. A part with r = hi - lo + 1 is taken whole, with no
        RNG call. Members are drawn one after another, each part in order.
        """
        randrange = rng.randrange
        plan = []
        for lo, hi, r in self.parts:
            m = min(r, hi - lo + 1 - r)  # the subset, or else its complement
            plan.append((lo, hi + 1, r, m, () if m else tuple(range(lo, hi + 1))))
        members = []
        for _ in range(count):
            member: list[int] = []
            for lo, stop, r, m, whole in plan:
                if not m:
                    member += whole
                    continue
                picks = set()
                while len(picks) < m:
                    picks.add(randrange(lo, stop))
                member += sorted(picks) if m == r else (
                    i for i in range(lo, stop) if i not in picks)
            members.append(tuple(member))
        return members

    def worst_sum(self, config: Configuration) -> int:
        """Scaled sum of the smallest-sum member (requires count > 0)."""
        return sum(config.scaled_range_sum(hi - r + 1, hi) for _, hi, r in self.parts)


def _check_sums(config: Configuration, k: int, tuples: list[tuple[int, ...]]) -> None:
    """Re-check every index tuple's exact scaled sum >= 0 with one call of
    `scaled_ksums`, and name the first negative one from a second. The
    tuples must be a list from a checked `RangeFamily` (sorted, within
    [1, n])."""
    if tuples and min(scaled_ksums(config, tuples, k)) < 0:
        bad = next(itertools.compress(tuples, map((0).__gt__, scaled_ksums(config, tuples, k))))
        raise WitnessSoundnessError(f"witness {bad} has negative sum")


def _certify(
    config: Configuration,
    k: int,
    parts: tuple[tuple[str, RangeFamily | SubsetFamily], ...],
    mode: str,
    rng: random.Random | None,
    sample_size: int,
) -> tuple[SubsetFamily, tuple[tuple[str, str], ...], int]:
    """Certify the family made of the named disjoint `parts`; return it with
    how each part was certified and the number of sampled members.

    A part is a family. A `RangeFamily` is certified here: its worst member
    is checked exactly, which alone proves it on a sorted configuration;
    enumerated, every member is re-summed, and counted, `sample_size`
    uniform members are. A `SubsetFamily` was certified where it was built:
    an explicit one was re-summed, and a counted one rests on the theorem
    alone. The family is enumerated when no part rests on the theorem,
    `mode` is not "counted" and it has at most EXPLICIT_LIMIT members;
    otherwise it is counted, also when it is empty. The parts' enumerations,
    concatenated in order, must be as long as the total count, and
    `SubsetFamily` checks that they are strictly increasing (so the members
    are distinct); the family keeps those plain tuples as they are.
    """
    n = config.n
    count = sum(part.count for _, part in parts)
    on_theorem = any(isinstance(part, SubsetFamily) and not part.is_explicit
                     for _, part in parts)
    if mode == "explicit" and on_theorem:
        raise ValueError("explicit mode impossible: partition instance above the size limit")
    if mode == "explicit" and count > EXPLICIT_LIMIT:
        raise ValueError(f"explicit family of {count} exceeds limit {EXPLICIT_LIMIT}")
    explicit = not on_theorem and mode != "counted" and count <= EXPLICIT_LIMIT
    provenance, enumerated, sampled = [], [], 0
    for name, part in parts:
        how = "resummed"
        if isinstance(part, SubsetFamily):
            if not part.is_explicit:
                how = "theorem"
            elif explicit:
                enumerated.append(part.index_tuples)
        elif part.count:
            if part.worst_sum(config) < 0:
                raise WitnessSoundnessError(f"worst member of the family {part.parts} is negative")
            if explicit:
                members = part.members()
                _check_sums(config, k, members)
                enumerated.append(members)
            else:
                draws = part.sample(rng, sample_size)
                _check_sums(config, k, draws)
                sampled += len(draws)
                how = "worst_member"
        provenance.append((name, how))
    if not explicit:
        return SubsetFamily.counted(n, k, count), tuple(provenance), sampled
    tuples = tuple(itertools.chain.from_iterable(enumerated))
    if len(tuples) != count:
        raise AssertionError(f"enumerated {len(tuples)} members, expected {count}")
    # order, sizes and the range [1, n] are checked by SubsetFamily
    return SubsetFamily(n, k, tuples, count), tuple(provenance), 0


def _check_input(config: Configuration, mode: str, sample_size: int) -> None:
    """The checks both routes share: a non-negative total, a known mode and
    a non-negative sample size."""
    if config.scaled_prefix[-1] < 0:
        raise ValueError(f"total sum must be non-negative, got {config.total_sum()}")
    if mode not in ("auto", "explicit", "counted"):
        raise ValueError(f"unknown mode {mode!r}")
    if sample_size < 0:
        raise ValueError(f"sample_size must be non-negative, got {sample_size}")


def _report(config, k, mode, sample_size, seed, decided) -> WitnessReport:
    """Certify the parts of the branch a route `decided` on, given as
    (threshold_met, branch, parts, stages scanned, notes), and report them."""
    threshold_met, branch, parts, stages, notes = decided
    witnesses, provenance, sampled = _certify(
        config, k, parts, mode, random.Random(seed), sample_size)
    if threshold_met and witnesses.count < binomial(config.n - 1, k - 1):
        raise AssertionError("count fell below the target inside the theorem range -- bug")
    return WitnessReport(branch, witnesses, witnesses.count, stages, provenance,
                         "explicit" if witnesses.is_explicit else "counted",
                         sampled, threshold_met, notes)


# --- first extraction route (threshold 3 k^(k+1) + k^3) --------------------

def extract_thm1(
    config: Configuration,
    k: int,
    mode: str = "auto",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> WitnessReport:
    """Three-branch certified extraction.

    (a) x_1 central: all C(n-1,k-1) k-subsets through index 1.
    (b) fewer than 2k negatives: all k-subsets of the non-negative prefix.
    (c) otherwise: trim x_1 plus the k-1 smallest, then n mod k more, down to
        the largest multiple m of k exceeding n-2k (the extra removals are
        verified negative, so the trimmed sum stays >= 0); take one witness
        per parallel class of the trimmed instance, plus {x_1} with any k-1
        of the floor(n/k) largest remaining values. The families are disjoint
        (index 1 membership differs). Above PARTITION_SIZE_LIMIT the partition
        part is counted on the strength of the theorem alone.
    """
    _check_input(config, mode, sample_size)
    return _report(config, k, mode, sample_size, seed, _thm1_branch(config, k))


def _thm1_branch(config: Configuration, k: int) -> tuple[bool, str, tuple, int, tuple[str, ...]]:
    """`extract_thm1`'s (threshold_met, branch, parts, stages, notes)."""
    n = config.n
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if n < 2 * k + 1:
        raise ValueError(f"need n >= 2k+1, got n={n}, k={k}")
    scaled = config.scaled
    threshold_met = n >= thm1_threshold(k)
    top = RangeFamily.of((1, 1, 1), (2, n, k - 1))
    if top.worst_sum(config) >= 0:
        return threshold_met, CENTRAL_AT_TOP, ((CENTRAL_AT_TOP, top),), 1, ()

    # the values are non-increasing, so the non-negative ones come first
    neg_count = n - bisect.bisect_right(scaled, 0, key=operator.neg)
    if neg_count < 2 * k:
        return (threshold_met, "few_negatives",
                (("few_negatives", RangeFamily(((1, n - neg_count, k),))),), 1, ())

    # branch (c): trim to the largest multiple of k exceeding n - 2k
    r = n % k
    m = n - k - r
    extra_positions = range(m + 2, m + 2 + r)  # removed after x_1 and the k-1 smallest
    for pos in extra_positions:
        if scaled[pos - 1] >= 0:
            raise AssertionError(
                f"trim removed a non-negative value at position {pos}; "
                "the >= 2k negatives precondition should prevent this")
    trimmed_sum = config.scaled_range_sum(2, m + 1)
    if trimmed_sum < 0:
        raise AssertionError("trimmed configuration has negative sum -- aborting")

    notes: tuple[str, ...] = ()
    if binomial(m, k) <= PARTITION_SIZE_LIMIT:
        # re-summed exactly inside; trimmed position i is position i + 1 here
        inner = partition_lower_bound_witnesses(Configuration(config.values[1:m + 1]), k)
        shifted = map((1).__add__, itertools.chain.from_iterable(inner.index_tuples))
        partition = SubsetFamily(n, k, tuple(zip(*[shifted] * k)), inner.count)
    else:
        partition = SubsetFamily.counted(n, k, binomial(m - 1, k - 1))  # the theorem alone
        notes = ("partition family counted by the multiple-of-k bound "
                 "(instance above the partition size limit)",)

    z = n // k  # |Z|, justified by eq2_bound at j = floor(n/k)
    eq2_bound(config, z)
    zone = RangeFamily.of((1, 1, 1), (2, z + 1, k - 1))
    # the zone's members contain index 1 and the partition's do not: the
    # parts are disjoint, and in increasing order zone first
    return (threshold_met, "trim_and_partition_plus_top_zone",
            (("top_zone", zone), ("partition", partition)), 1, notes)


# --- second extraction route (threshold k (4e ln k)^k) ----------------------

def _floor_over_ln(x: Fraction, k: int) -> int:
    """floor(x / ln k) for rational x > 0 and k >= 2, decided rigorously.

    j ln k = x never holds for j >= 1: e^x = k^j would make e algebraic.
    The upper end of an enclosure of ln k gives a j with j ln k < x; j is
    raised while (j + 1) ln k < x.
    """
    j = x // ln_interval(k, 16).hi
    while decide_less(partial(ln_interval, k), x / (j + 1)):
        j += 1
    return j


def two_range_parameters(n: int, k: int) -> tuple[int, int]:
    """(a, j): a = ceil(k / ln k) clamped to [1, k] (a = k when ln k <= 1),
    j = floor(n / (2 ln k)) (0 when a = k; no medium range is needed)."""
    if k <= 2:  # ln k <= 1
        return k, 0
    # k / ln k is never an integer, so its ceiling is its floor plus one
    a = min(_floor_over_ln(Fraction(k), k) + 1, k)
    if a == k:
        return k, 0
    return a, _floor_over_ln(Fraction(n, 2), k)


def extract_thm2(
    config: Configuration,
    k: int,
    mode: str = "auto",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> WitnessReport:
    """Iterated-centrality extraction with the two-range fallback.

    Stage i works on X_i = X minus the i-1 previous maxima and (i-1)(k-1)
    smallest elements; its sum only grows while stages stay non-central. The
    first central stage yields the substitution family (every x_j with j <= i
    may replace the stage maximum). If no stage up to floor(n/2k) is central,
    witnesses combine `a` indices from [1, T] with k-a indices from
    (T, T+j]; the worst member is verified exactly, and is non-negative for
    every input meeting the preconditions because a >= k j / |X_T| always
    holds with this choice of a and j.
    """
    _check_input(config, mode, sample_size)
    return _report(config, k, mode, sample_size, seed, _thm2_branch(config, k))


def _thm2_branch(config: Configuration, k: int) -> tuple[bool, str, tuple, int, tuple[str, ...]]:
    """`extract_thm2`'s (threshold_met, branch, parts, stages, notes)."""
    n = config.n
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if n < 4 * k:
        raise ValueError(f"need n >= 4k, got n={n}, k={k}")
    threshold_met = thm2_threshold_exceeded(n, k)
    big_t = n // (2 * k)

    scaled, prefix = config.scaled, config.scaled_prefix
    for i in range(1, big_t + 1):
        bottom = n - (i - 1) * (k - 1)
        if prefix[bottom] - prefix[i - 1] < 0:
            raise AssertionError(f"working set sum negative at stage {i} -- bug")
        # the stage family takes one of x_1..x_i plus k-1 of the rest of the
        # working set [i, bottom]; its worst member, x_i with the k-1
        # smallest, is read off the prefix sums. The family is built at the
        # central stage only, where certifying it checks that member again.
        if scaled[i - 1] + prefix[bottom] - prefix[bottom - k + 1] >= 0:
            family = RangeFamily.of((1, i, 1), (i + 1, bottom, k - 1))
            return threshold_met, CENTRAL_AT_STAGE_I, ((CENTRAL_AT_STAGE_I, family),), i, ()

    # no central stage: two-range family inside X_T
    a, j = two_range_parameters(n, k)
    bottom_t = n - (big_t - 1) * (k - 1)
    if a < k and big_t + j > bottom_t:
        raise RangeInfeasibleError(
            f"medium range (T, T+j] = ({big_t}, {big_t + j}] exceeds the "
            f"surviving working set (last index {bottom_t})")
    parts = ((1, big_t, a),)
    if a < k:
        parts += ((big_t + 1, big_t + j, k - a),)
    return (threshold_met, "two_range_family",
            (("two_range_family", RangeFamily(parts)),), big_t, (f"a={a}, j={j}",))
