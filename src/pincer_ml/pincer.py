"""Bidirectional maximal-frequent-set search over one level matrix.

The search runs the classic bottom-up candidate ladder and a top-down
border refinement inside the same counting passes.  Each pass counts the
current candidates together with any border members whose support is
still unknown; members certified frequent jump straight into the maximal
result without their subsets ever being counted, and every infrequent
set found (candidate or border member) splinters the border.  The loop
ends when both directions are exhausted, which on datasets with large
maximal sets happens well before the ladder would have climbed there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import InvalidMinsup
from .itemsets import (
    BorderState,
    Itemset,
    apriori_prune,
    join,
    mfcs_gen,
    pincer_prune,
    recover,
    to_items,
)
from .taxonomy import ItemCode
from .transactions import LevelMatrix, PassCounter, count_many

Observer = Callable[[int, "frozenset[Itemset]", "frozenset[Itemset]", "frozenset[Itemset]"], None]


@dataclass(frozen=True)
class PassStats:
    """Sizes recorded at the end of one counting pass."""

    k: int
    candidates: int
    frequent: int
    infrequent: int
    mfcs_size: int
    mfs_size: int
    passes: int


@dataclass(frozen=True)
class PincerTrace:
    steps: tuple[PassStats, ...]
    passes: int


@dataclass(frozen=True, eq=False)
class PincerResult:
    """Maximal frequent itemsets with supports, plus run accounting."""

    mfs: Mapping[Itemset, int]
    frequent_items: frozenset[int]
    trace: PincerTrace
    vocabulary: tuple[ItemCode, ...]


def pincer_search(
    matrix: LevelMatrix,
    minsup: int,
    counter: PassCounter | None = None,
    observer: Observer | None = None,
) -> PincerResult:
    """Find all maximal frequent itemsets of ``matrix`` at ``minsup``.

    ``minsup`` is an absolute transaction count and must be positive.
    ``counter`` (when given) accumulates the database passes; pass an
    ``observer`` to inspect the two borders after every pass.
    """
    if minsup < 1:
        raise InvalidMinsup(f"minsup must be at least 1, got {minsup}")
    if counter is None:
        counter = PassCounter()
    n_items = len(matrix.vocabulary)
    if n_items == 0 or matrix.n_transactions == 0:
        return PincerResult({}, frozenset(), PincerTrace((), 0), matrix.vocabulary)

    start = counter.passes
    support: dict[int, int] = {}
    infrequent_seen: set[int] = set()
    mfs: dict[int, int] = {}
    mfcs: frozenset[int] = frozenset({(1 << n_items) - 1})
    candidates: set[int] = {1 << i for i in range(n_items)}
    steps: list[PassStats] = []
    k = 1

    while candidates or any(m not in support for m in mfcs):
        # No candidate was counted before: pincer_prune drops every set
        # equal to a counted border member, frequent or not.
        uncounted = candidates | {m for m in mfcs if m not in support}
        support.update(count_many(matrix, uncounted, counter))

        # Border members are now all counted: frequent ones are maximal,
        # since the border is an antichain that no member of mfs covers,
        # and infrequent ones must splinter below.
        certified = {m: support[m] for m in mfcs if support[m] >= minsup}
        mfs.update(certified)
        mfcs = mfcs.difference(certified)

        frequent_k = {c for c in candidates if support[c] >= minsup}
        infrequent_k = candidates - frequent_k
        splitters = infrequent_k | mfcs
        infrequent_seen.update(splitters)
        state = mfcs_gen(BorderState(mfcs, frozenset(mfs)), splitters)
        mfcs = state.mfcs

        steps.append(
            PassStats(
                k=k,
                candidates=len(candidates),
                frequent=len(frequent_k),
                infrequent=len(infrequent_k),
                mfcs_size=len(mfcs),
                mfs_size=len(mfs),
                passes=counter.passes - start,
            )
        )
        if observer is not None:
            borders = (mfcs, mfs, infrequent_seen)
            observer(k, *(frozenset(map(to_items, b)) for b in borders))

        candidates = pincer_prune(
            recover(
                apriori_prune(join(frequent_k), frequent_k),
                frequent_k,
                frozenset(mfs),
            ),
            state,
        )
        k += 1

    # Any border member still standing was counted frequent on an
    # earlier pass, and nothing in mfs covers it.
    mfs.update((m, support[m]) for m in mfcs)

    results = ((to_items(m), s) for m, s in mfs.items())
    ordered = dict(sorted(results, key=lambda kv: (len(kv[0]), kv[0])))
    frequent_items = frozenset(i for member in ordered for i in member)
    trace = PincerTrace(tuple(steps), counter.passes - start)
    return PincerResult(ordered, frequent_items, trace, matrix.vocabulary)
