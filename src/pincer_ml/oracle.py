"""Exhaustive reference miner used to validate the fast engines.

Deliberately self-contained: it shares only the level matrix with the
engine and enumerates frequent itemsets by depth-first extension of
frequent prefixes, so any agreement with the search engine is evidence,
not circularity.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import LimitError
from .transactions import LevelMatrix

MAX_ORACLE_ITEMS = 24


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Every frequent itemset with its support, plus the maximal ones."""

    frequent: dict[tuple[int, ...], int]
    maximal: frozenset[tuple[int, ...]]


def brute_force(matrix: LevelMatrix, minsup: int) -> OracleResult:
    """Enumerate all frequent itemsets of ``matrix`` at ``minsup``.

    Prefixes are extended only while frequent, which is exhaustive
    because support never grows when items are added.  Refuses
    vocabularies beyond ``MAX_ORACLE_ITEMS`` items.
    """
    n_items = len(matrix.vocabulary)
    if n_items > MAX_ORACLE_ITEMS:
        raise LimitError(
            f"{n_items} items exceed the exhaustive-search limit of "
            f"{MAX_ORACLE_ITEMS}"
        )
    columns = matrix.columns
    frequent: dict[tuple[int, ...], int] = {}

    def extend(prefix: tuple[int, ...], holders: int, start: int) -> None:
        for j in range(start, n_items):
            narrowed = holders & columns[j]
            count = narrowed.bit_count()
            if count >= minsup:
                grown = prefix + (j,)
                frequent[grown] = count
                extend(grown, narrowed, j + 1)

    everyone = (1 << matrix.n_transactions) - 1
    extend((), everyone, 0)

    maximal = frozenset(
        s
        for s in frequent
        if not any(
            j not in s and tuple(sorted(s + (j,))) in frequent
            for j in range(n_items)
        )
    )
    return OracleResult(frequent, maximal)
