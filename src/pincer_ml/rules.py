"""Closure expansion of the maximal border and confidence-filtered rules.

A maximal-set result compresses the full frequent family; expansion
recovers every frequent itemset (each one is a subset of some maximal
set) and counts them all in a single extra pass.  Rules ``X -> Z \\ X``
are then read off the expanded family with exact rational confidences.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Collection, Iterable, NamedTuple

from .errors import ConfigError, LimitError, MiningError
from .itemsets import Itemset, by_size, to_items, to_mask
from .transactions import LevelMatrix, count_many

# Subsets, the sum of 2**|m|, that expanding one maximal family may
# enumerate: a 20-item set has 1,048,576, a 21-item set twice as many.
MAX_EXPANSION_SUBSETS = 2**20
# Raw rules, the sum of 2**|z| - 2, that one family may yield: every
# subset of a 12-item set gives 523,250, of a 13-item set 1,577,940.
MAX_RULE_CANDIDATES = 2**20


class FrequentSet(NamedTuple):
    """A frequent itemset with its absolute support."""

    itemset: Itemset
    support_count: int


class Rule(NamedTuple):
    """An association rule with exact rational confidence."""

    antecedent: Itemset
    consequent: Itemset
    support_count: int
    confidence: Fraction


def expand_frequent(
    mfs: Collection[Itemset], matrix: LevelMatrix
) -> tuple[FrequentSet, ...]:
    """All nonempty subsets of the maximal sets, counted in one pass.

    A family with more than ``MAX_EXPANSION_SUBSETS`` subsets is refused
    before any is enumerated.
    """
    total = sum(1 << len(m) for m in mfs)
    if total > MAX_EXPANSION_SUBSETS:
        raise LimitError(
            f"the maximal sets have {total} subsets; "
            f"the expansion limit is {MAX_EXPANSION_SUBSETS}"
        )
    subsets: set[int] = set()
    for m in mfs:
        mask = sub = to_mask(m)
        while sub:
            subsets.add(sub)
            sub = (sub - 1) & mask
    if not subsets:
        return ()
    counts = count_many(matrix, subsets)
    return tuple(FrequentSet(s, c) for s, c in by_size(counts))


def generate_rules(
    frequent: Iterable[FrequentSet],
    min_conf: Fraction | float,
) -> list[Rule]:
    """Emit every rule of the frequent family meeting ``min_conf``.

    Each frequent set of size m yields 2**m - 2 raw rules (every
    nonempty proper subset as antecedent) before filtering.  Output is
    sorted by confidence then support, both descending, then by
    antecedent and consequent; vocabulary indices follow text order, so
    the tiebreak is the textual one.  A family with more than
    ``MAX_RULE_CANDIDATES`` raw rules is refused before any is built.
    Each rule carries its own ``Fraction``, which prints reduced.

    Confidence is ordered by ``z * S**2 // x``, S the largest support:
    two distinct confidences with denominators at most S differ by at
    least 1/S**2, so the integer key orders them exactly.
    """
    if not 0 < min_conf <= 1:
        raise ConfigError(f"min_conf must be in (0, 1], got {min_conf}")
    # z / x >= num / den, compared exactly in integers, as Fraction >= float is.
    num, den = Fraction(min_conf).as_integer_ratio()
    family = {to_mask(fs.itemset): fs for fs in frequent}
    support = {m: fs.support_count for m, fs in family.items()}
    candidates = sum((1 << z.bit_count()) - 2 for z in support)
    if candidates > MAX_RULE_CANDIDATES:
        raise LimitError(
            f"the frequent family has {candidates} candidate rules; "
            f"the rule limit is {MAX_RULE_CANDIDATES}"
        )
    scale = max(support.values(), default=0) ** 2
    kept = []
    # A subset missing from the family ends the walk with a KeyError on its mask.
    try:
        for z, z_support in support.items():
            # num and den are positive, so z * den >= num * x iff x <= z * den // num.
            limit = z_support * den // num
            x = (z - 1) & z
            while x:
                x_support = support[x]
                if x_support <= limit:
                    a, c = family[x].itemset, family[z ^ x].itemset
                    kept.append((-(z_support * scale // x_support), -z_support, a, c, x_support))
                x = (x - 1) & z
    except KeyError as missing:
        raise MiningError(
            f"no support recorded for {to_items(missing.args[0])}, needed by a "
            f"rule from {to_items(z)}; expand the frequent family first"
        ) from None
    # (antecedent, consequent) is unique per rule, so x_support never decides.
    kept.sort()
    return [
        Rule(antecedent, consequent, -neg_z, Fraction(-neg_z, x_support))
        for _, neg_z, antecedent, consequent, x_support in kept
    ]
