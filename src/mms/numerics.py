"""Exact arithmetic core: configurations, k-subsets, k-sums, counting.

Everything here is pure and exact. Values are `fractions.Fraction`; counts are
Python ints (arbitrary precision). No floats anywhere in this module.

A k-set is its sorted index tuple (`KSubset` validates one). An explicit
`SubsetFamily` holds `index_tuples`, one sorted tuple of distinct plain index
tuples, not `KSubset` objects: the cyclic garbage collector stops tracking
tuples of ints, but not instances of a tuple subclass, so 10^5 live
`KSubset`s would be traversed again by every full collection. Its `members`
yield one `KSubset` at a time, lazily, from those tuples.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

RationalLike = Fraction | int | str


class ConfigParseError(ValueError):
    """Malformed configuration text; carries a 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact int; 0 when k < 0 or k > n. Requires n >= 0."""
    if n < 0:
        raise ValueError(f"binomial: n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_at_most(n: int, r: int, cap: int) -> int | None:
    """C(n, r) when it is at most `cap`, else None (0 <= r <= n).

    C(n, i) grows with i up to n/2 and is at least 2^i there, so the loop
    stops after about log2(cap) steps, however large n and r are.
    """
    value = 1
    for i in range(min(r, n - r)):
        value = value * (n - i) // (i + 1)
        if value > cap:
            return None
    return value


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or string to an exact Fraction; a string is
    read as one config line (`parse_rational`), surrounding whitespace
    ignored."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _is_kset(indices: tuple[int, ...]) -> bool:
    """Non-empty, strictly increasing and >= 1: the shape of a k-set."""
    return bool(indices) and indices[0] >= 1 and all(map(operator.lt, indices, indices[1:]))


class KSubset(tuple):
    """A k-element index set into a configuration: its sorted index tuple,
    1-based and strictly increasing.

    `KSubset(indices)` validates the shape; hashing, equality, order,
    iteration and `in` are the tuple's, so `KSubset((1, 2)) == (1, 2)`.
    """

    __slots__ = ()

    def __new__(cls, indices):
        self = tuple.__new__(cls, indices)
        self.__post_init__()
        return self

    def __post_init__(self):
        if not _is_kset(self):
            raise ValueError(f"indices must be non-empty, strictly increasing and >= 1: {self}")

    @property
    def indices(self) -> tuple[int, ...]:
        return self


#: Builds a KSubset without the shape check, for index tuples already known
#: to be strictly increasing and >= 1: the members of a `SubsetFamily`, each
#: checked by `SubsetFamily.explicit` or enumerated from a checked
#: `RangeFamily`.
trusted_ksubset = partial(tuple.__new__, KSubset)


@dataclass(frozen=True)
class Configuration:
    """A multiset of exact rationals, stored sorted non-increasing."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("configuration must have at least one value")
        scaled = self.scaled  # same order as the values, compared as ints
        if not all(map(operator.ge, scaled, scaled[1:])):
            raise ValueError("values must be sorted non-increasing")

    @classmethod
    def from_values(cls, values) -> Configuration:
        """Build from any iterable of rationals, in any order."""
        return cls.from_counts(Counter(map(as_rational, values)))

    @classmethod
    def from_counts(cls, counts) -> Configuration:
        """Build from a mapping of distinct Fractions to multiplicities: the
        distinct values are sorted once, the common denominator and each
        scaled int are computed once per distinct value, and both are
        expanded (`scaled` is filled in, not derived per value)."""
        distinct = sorted((v for v in counts if counts[v] > 0), reverse=True)
        denom = math.lcm(*(v.denominator for v in distinct))
        mults = [counts[v] for v in distinct]

        def expand(items):
            return tuple(itertools.chain.from_iterable(map(itertools.repeat, items, mults)))

        config = cls.__new__(cls)
        config.__dict__["scaled"] = expand(v.numerator * (denom // v.denominator)
                                           for v in distinct)
        config.__init__(expand(distinct))  # checks order on the scaled tuple
        return config

    @property
    def n(self) -> int:
        return len(self.values)

    def total_sum(self) -> Fraction:
        return sum(self.values, Fraction(0))

    @cached_property
    def scaled(self) -> tuple[int, ...]:
        """Values times the common denominator: exact integer proxies.

        Sign and ordering agree with the original values, so all comparisons
        against zero may be done on these ints.
        """
        denom = math.lcm(*(v.denominator for v in self.values))
        return tuple(v.numerator * (denom // v.denominator) for v in self.values)

    @cached_property
    def scaled_prefix(self) -> tuple[int, ...]:
        """prefix[i] = sum of the i largest scaled values (prefix[0] = 0)."""
        return tuple(itertools.accumulate(self.scaled, initial=0))

    def scaled_range_sum(self, lo: int, hi: int) -> int:
        """Exact scaled sum of values at 1-based positions lo..hi inclusive."""
        return self.scaled_prefix[hi] - self.scaled_prefix[lo - 1]

    def value(self, index: int) -> Fraction:
        """1-based access."""
        if not 1 <= index <= self.n:
            raise IndexError(f"index {index} out of range [1, {self.n}]")
        return self.values[index - 1]


def ksum(config: Configuration, subset: KSubset) -> Fraction:
    """Exact sum of the values selected by a subset (1-based indices). A
    plain tuple will do if it has a k-set's shape (`_is_kset`); any other
    shape is a ValueError, and an index past n an IndexError."""
    if not _is_kset(subset):
        raise ValueError(f"indices must be non-empty, strictly increasing and >= 1: {subset}")
    if subset[-1] > config.n:
        raise IndexError(f"subset index {subset[-1]} out of range for n={config.n}")
    return sum((config.values[i - 1] for i in subset), Fraction(0))


def scaled_ksums(config: Configuration, ksets, k: int):
    """The exact scaled sum of each k-set in `ksets`, lazily and in order.

    `ksets` is a sequence of index tuples within [1, n]; it is read twice.
    Every tuple's length is checked against k first: one of another length
    would shift the grouping of every later sum, so it is a ValueError. Each
    index is then looked up once, through a list (a list's `__getitem__` is a
    builtin method, a tuple's a slower slot wrapper), and the looked-up values
    are summed k at a time, at C level, with no list as long as the family.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if set(map(len, ksets)) - {k}:
        bad = next(s for s in ksets if len(s) != k)
        raise ValueError(f"member {bad} has wrong size (expected k={k})")
    at = [0, *config.scaled].__getitem__
    return map(sum, zip(*[map(at, itertools.chain.from_iterable(ksets))] * k))


def is_central(config: Configuration, index: int, k: int) -> bool:
    """True iff every k-sum through `index` is non-negative.

    By sortedness this reduces to one check: the value at `index` plus the
    k-1 smallest other values.
    """
    n = config.n
    if not 1 <= index <= n:
        raise IndexError(f"index {index} out of range [1, {n}]")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    scaled = config.scaled
    tail = [scaled[i] for i in range(n - 1, -1, -1) if i != index - 1][: k - 1]
    return scaled[index - 1] + sum(tail) >= 0


@dataclass(frozen=True)
class SubsetFamily:
    """A family of k-subsets of [n]: explicit members, or an exact count only.

    An explicit family holds `index_tuples`, one sorted tuple of distinct
    plain index tuples; a counted one holds None there. Built by `explicit`
    (which shape-checks each member once) or `counted`. Construction checks,
    in one pass each, that every member has size k and ends at or below n,
    and that the members strictly increase (so they are distinct).
    """

    n: int
    k: int
    index_tuples: tuple[tuple[int, ...], ...] | None
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be non-negative")
        tuples = self.index_tuples
        if tuples is None:
            return
        if not isinstance(tuples, tuple):
            raise TypeError(f"index_tuples must be a tuple or None, not "
                            f"{type(tuples).__name__}; build a family from k-sets "
                            "with SubsetFamily.explicit")
        if len(tuples) != self.count:
            raise ValueError("count must equal number of enumerated members")
        if set(map(len, tuples)) - {self.k}:
            bad = next(ix for ix in tuples if len(ix) != self.k)
            raise ValueError(f"member {bad} has wrong size (expected k={self.k})")
        if max(map(operator.itemgetter(-1), tuples), default=0) > self.n:
            bad = next(ix for ix in tuples if ix[-1] > self.n)
            raise ValueError(f"member {bad} out of range for n={self.n}")
        if not all(map(operator.lt, tuples, itertools.islice(tuples, 1, None))):
            i = next(i for i in range(1, len(tuples)) if tuples[i - 1] >= tuples[i])
            raise ValueError(
                f"member {tuples[i]} does not follow {tuples[i - 1]} in increasing order")

    @classmethod
    def explicit(cls, n: int, k: int, members) -> SubsetFamily:
        """Any iterable of k-sets, each shape-checked once (as a `KSubset`),
        then deduplicated and sorted once."""
        tuples = tuple(sorted(set(map(tuple, map(KSubset, members)))))
        return cls(n=n, k=k, index_tuples=tuples, count=len(tuples))

    @classmethod
    def counted(cls, n: int, k: int, count: int) -> SubsetFamily:
        return cls(n=n, k=k, index_tuples=None, count=count)

    @property
    def is_explicit(self) -> bool:
        return self.index_tuples is not None

    @property
    def members(self):
        """None for a counted family; otherwise each member as a `KSubset`,
        in increasing order, built lazily one at a time."""
        if self.index_tuples is None:
            return None
        return map(trusted_ksubset, self.index_tuples)


def count_nonneg_scaled(values, k: int) -> int:
    """Number of k-subsets (by position) of the non-increasing ints `values`
    with a non-negative sum. A subset taking a_i of the m_i equal values of
    run i stands for prod C(m_i, a_i) of them. Each recursion level takes at
    least one value, so the depth is at most k."""
    n = len(values)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    prefix = tuple(itertools.accumulate(values, initial=0))
    starts = [i for i in range(n) if i == 0 or values[i] != values[i - 1]]
    runs = [(values[a], a, b - a) for a, b in zip(starts, starts[1:] + [n])]

    def completions(j: int, r: int, s: int) -> int:
        """Ways to add r values from runs j, j+1, ... to the partial sum s."""
        if s + prefix[n] - prefix[n - r] >= 0:  # even the r smallest keep s >= 0
            return math.comb(n - runs[j][1], r)
        total = 0
        for i in range(j, len(runs)):
            value, start, m = runs[i]
            if start + r > n or s + prefix[start + r] - prefix[start] < 0:
                break  # later runs are smaller still
            total += math.comb(m, r)  # all r from this run: s + r*value >= 0
            for a in range(max(1, r - (n - start - m)), min(m + 1, r)):
                total += math.comb(m, a) * completions(i + 1, r - a, s + a * value)
        return total

    return completions(0, k, 0)


def count_nonneg_ksums(config: Configuration, k: int) -> int:
    """Number of k-subsets with non-negative sum; ties (sum zero) count."""
    return count_nonneg_scaled(config.scaled, k)


# --- configuration text format ------------------------------------------
#
# One rational per line, as `p/q` or a bare integer `p` (ASCII digits, an
# optional sign on p only); `#` starts a comment; surrounding whitespace and
# blank lines are ignored; order-insensitive.

_RATIONAL_LINE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def quoted(text: str) -> str:
    """`repr(text)`; past 40 characters, the first 40 quoted and the length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(line: str) -> Fraction:
    """A `p/q` or a bare integer `p` as above: one config line, or one value
    of `mms check --params`."""
    match = _RATIONAL_LINE.fullmatch(line)
    if match is None:
        raise ValueError(f"not a rational p/q or integer: {quoted(line)}")
    num, den = int(match[1]), int(match[2] or 1)  # ValueError past int()'s digit limit
    if den == 0:
        raise ValueError(f"zero denominator: {quoted(line)}")
    return Fraction(num, den)


def parse_config_text(text: str) -> Configuration:
    """Each distinct line is converted once; equal values (`2/4`, `1/2`) merge
    before the one sort of `Configuration.from_counts`."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    line_counts = Counter(map(str.strip, lines))
    line_counts.pop("", None)
    if not line_counts:
        raise ConfigParseError("no values found")
    counts: Counter[Fraction] = Counter()
    for line, m in line_counts.items():  # in order of first occurrence
        try:
            value = parse_rational(line)
        except ValueError as exc:
            line_no = next(i for i, raw in enumerate(lines, start=1) if raw.strip() == line)
            raise ConfigParseError(str(exc), line_no) from None
        counts[value] += m
    return Configuration.from_counts(counts)


def format_config(config: Configuration) -> str:
    """One value per line, as `str` renders a Fraction: p, or p/q."""
    return "".join(f"{v}\n" for v in config.values)
