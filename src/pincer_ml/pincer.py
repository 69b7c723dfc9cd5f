"""Bidirectional maximal-frequent-set search over one level matrix.

The search runs the classic bottom-up candidate ladder and a top-down
border refinement inside the same counting passes.  Each pass counts the
current candidates together with any border members whose support is
still unknown; members certified frequent jump straight into the maximal
result without their subsets ever being counted.  After each pass the
border is rebuilt from scratch by one call to ``mfcs_gen``, from the
infrequent sets found so far and the certified maximal sets.  Since that
border is exact, the candidates of the next pass need pruning only
against what has been counted and what is certified frequent.  The
loop ends when both directions are exhausted, which on datasets with
large maximal sets happens well before the ladder would have climbed
there.
"""
from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from .errors import ConfigError
from .itemsets import (
    BorderState,
    Itemset,
    apriori_prune,
    by_size,
    join,
    mfcs_gen,
    pincer_prune,
    to_items,
)
from .transactions import LevelMatrix, count_many

# No recovery step exists and nothing calls this name: perfbench/tracing.py
# wraps pincer.recover by name, and ROADMAP item 1b deletes both.
recover = None

# Called after every pass with (k, MFCS, MFS, every itemset counted
# infrequent so far), each a frozenset of index tuples.
Observer = Callable[[int, "frozenset[Itemset]", "frozenset[Itemset]", "frozenset[Itemset]"], None]


class PassStats(NamedTuple):
    """Sizes recorded at the end of one counting pass."""

    k: int
    candidates: int
    frequent: int
    infrequent: int
    mfcs_size: int
    mfs_size: int
    passes: int


class PincerTrace(NamedTuple):
    steps: tuple[PassStats, ...]
    passes: int


class PincerResult(NamedTuple):
    """Maximal frequent itemsets with supports, plus run accounting.

    Itemsets index the searched matrix's ``vocabulary``, which the
    caller holds.
    """

    mfs: Mapping[Itemset, int]
    trace: PincerTrace


def pincer_search(
    matrix: LevelMatrix,
    minsup: int,
    *,
    observer: Observer | None = None,
) -> PincerResult:
    """Find all maximal frequent itemsets of ``matrix`` at ``minsup``.

    ``minsup`` is an absolute transaction count and must be positive.
    Each step of the trace is one database pass.  An ``observer`` is
    called after every pass ``k`` as ``observer(k, mfcs, mfs,
    infrequent)``: the two borders and every itemset counted infrequent
    so far, each a frozenset of index tuples.
    """
    if minsup < 1:
        raise ConfigError(f"minsup must be at least 1, got {minsup}")
    n_items = len(matrix.vocabulary)
    if n_items == 0 or matrix.n_transactions == 0:
        return PincerResult({}, PincerTrace((), 0))

    support: dict[int, int] = {}
    state = BorderState(frozenset({(1 << n_items) - 1}), frozenset())
    candidates: set[int] = {1 << i for i in range(n_items)}
    steps: list[PassStats] = []
    k = 1

    # No candidate was counted before: pincer_prune drops every set
    # equal to a counted border member, frequent or not.
    while uncounted := candidates | {m for m in state.mfcs if m not in support}:
        support.update(count_many(matrix, uncounted))

        # Border members are now all counted: frequent ones are maximal,
        # since the border is an antichain that no member of mfs covers.
        certified = {m for m in state.mfcs if support[m] >= minsup}
        frequent_k = {c for c in candidates if support[c] >= minsup}
        # The new MFCS is determined by the infrequent sets and mfs alone.
        infrequent = [s for s, c in support.items() if c < minsup]
        state = mfcs_gen(state.mfs | certified, infrequent, k, n_items)

        steps.append(
            PassStats(
                k=k,
                candidates=len(candidates),
                frequent=len(frequent_k),
                infrequent=len(candidates) - len(frequent_k),
                mfcs_size=len(state.mfcs),
                mfs_size=len(state.mfs),
                passes=k,
            )
        )
        if observer is not None:
            borders = (state.mfcs, state.mfs, infrequent)
            observer(k, *(frozenset(map(to_items, b)) for b in borders))

        # Every joined candidate has all its k-subsets frequent, so with
        # the border exact only counted and certified sets are settled.
        candidates = pincer_prune(apriori_prune(join(frequent_k), frequent_k), state.mfs, support)
        k += 1

    # Any border member still standing was counted frequent on an
    # earlier pass, and nothing in mfs covers it.
    ordered = dict(by_size({m: support[m] for m in state.mfs | state.mfcs}))
    trace = PincerTrace(tuple(steps), len(steps))
    return PincerResult(ordered, trace)
