"""Closure expansion of the maximal border and confidence-filtered rules.

A maximal-set result compresses the full frequent family; expansion
recovers every frequent itemset (each one is a subset of some maximal
set) and counts them all in a single extra pass.  Rules ``X -> Z \\ X``
are then read off the expanded family with exact rational confidences.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable

from .errors import InvalidConfidence, ItemsetTooLarge, MissingSubsetSupport
from .itemsets import Itemset, to_items, to_mask
from .transactions import LevelMatrix, PassCounter, count_many

MAX_EXPANSION_ITEMS = 24


@dataclass(frozen=True)
class FrequentSet:
    """A frequent itemset with its absolute support."""

    itemset: Itemset
    support_count: int
    n_transactions: int

    @property
    def support_fraction(self) -> Fraction:
        return Fraction(self.support_count, self.n_transactions)


@dataclass(frozen=True)
class Rule:
    """An association rule with exact rational confidence."""

    antecedent: Itemset
    consequent: Itemset
    support_count: int
    confidence: Fraction
    level: int


def expand_frequent(
    mfs: Collection[Itemset], matrix: LevelMatrix, counter: PassCounter
) -> tuple[FrequentSet, ...]:
    """All nonempty subsets of the maximal sets, counted in one pass.

    Members wider than ``MAX_EXPANSION_ITEMS`` are refused rather than
    silently enumerating billions of subsets.
    """
    subsets: set[int] = set()
    for m in mfs:
        if len(m) > MAX_EXPANSION_ITEMS:
            raise ItemsetTooLarge(
                f"maximal set of {len(m)} items has 2**{len(m)} subsets; "
                f"the expansion limit is {MAX_EXPANSION_ITEMS} items"
            )
        mask = sub = to_mask(m)
        while sub:
            subsets.add(sub)
            sub = (sub - 1) & mask
    if not subsets:
        return ()
    counts = count_many(matrix, subsets, counter)
    found = ((to_items(s), c) for s, c in counts.items())
    ordered = sorted(found, key=lambda kv: (len(kv[0]), kv[0]))
    return tuple(FrequentSet(s, c, matrix.n_transactions) for s, c in ordered)


def generate_rules(
    frequent: Iterable[FrequentSet],
    min_conf: Fraction | float,
    level: int,
) -> list[Rule]:
    """Emit every rule of the frequent family meeting ``min_conf``.

    Each frequent set of size m yields 2**m - 2 raw rules (every
    nonempty proper subset as antecedent) before filtering.  Output is
    sorted by confidence then support, both descending, then by
    antecedent and consequent; vocabulary indices follow text order, so
    the tiebreak is the textual one.
    """
    if not 0 < min_conf <= 1:
        raise InvalidConfidence(f"min_conf must be in (0, 1], got {min_conf}")
    # z / x >= num / den, compared exactly in integers, as Fraction >= float is.
    num, den = Fraction(min_conf).as_integer_ratio()
    support = {to_mask(fs.itemset): fs.support_count for fs in frequent}
    rules: list[Rule] = []
    for z, z_support in support.items():
        x = (z - 1) & z
        while x:
            x_support = support.get(x)
            if x_support is None:
                raise MissingSubsetSupport(
                    f"no support recorded for {to_items(x)}, needed by a "
                    f"rule from {to_items(z)}; expand the frequent family first"
                )
            if z_support * den >= num * x_support:
                rules.append(Rule(
                    to_items(x), to_items(z & ~x), z_support,
                    Fraction(z_support, x_support), level,
                ))
            x = (x - 1) & z
    rules.sort(
        key=lambda r: (-r.confidence, -r.support_count, r.antecedent, r.consequent)
    )
    return rules
