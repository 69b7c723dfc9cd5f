"""Itemset algebra for the bidirectional search.

Inside the engine an itemset is an ``int`` mask, bit ``i`` for
vocabulary index ``i``, so ``a & ~b == 0`` is the subset test; results
use the index tuple :data:`Itemset`.  The bottom-up side grows candidates
by prefix joins; the top-down side keeps a :class:`BorderState`:
``mfcs`` is the antichain of largest sets that could still be frequent
given every infrequent set seen so far, and ``mfs`` is the antichain of
sets already certified frequent and maximal.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection, FrozenSet, Iterable, Iterator

Itemset = tuple[int, ...]


def itemset(items: Iterable[int]) -> Itemset:
    """Normalize an iterable of indices into a sorted duplicate-free tuple."""
    return to_items(to_mask(items))


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_mask(items: Iterable[int]) -> int:
    """The mask with a bit set for each index in ``items``."""
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask


def to_items(mask: int) -> Itemset:
    """The index tuple of ``mask``."""
    return tuple(bits(mask))


def join(frequent_k: Collection[int]) -> set[int]:
    """Merge pairs of k-itemsets sharing their k-1 lowest items.

    Produces the classic (k+1)-candidate pool; for k = 1 the shared
    prefix is empty, so every pair of items joins.  Unchecked: every
    member has the same size k >= 1.
    """
    by_prefix: dict[int, list[int]] = {}
    for s in frequent_k:
        by_prefix.setdefault(s ^ (1 << (s.bit_length() - 1)), []).append(s)
    out: set[int] = set()
    for group in by_prefix.values():
        for a, b in combinations(group, 2):
            out.add(a | b)
    return out


def apriori_prune(candidates: Collection[int], frequent_k: Collection[int]) -> set[int]:
    """Drop candidates with any k-subset missing from ``frequent_k``.

    Unchecked: every candidate has size k + 1 and every member of
    ``frequent_k`` size k.
    """
    known = set(frequent_k)
    out: set[int] = set()
    for c in candidates:
        if all(c ^ (1 << i) in known for i in bits(c)):
            out.add(c)
    return out


@dataclass(frozen=True)
class BorderState:
    """The two antichains bounding the unresolved search region.

    Both ``mfcs`` and ``mfs`` are antichains, and no ``mfcs`` member lies
    inside an ``mfs`` member.  :func:`mfcs_gen` keeps these by
    construction, so neither the search nor the refinement re-checks them.
    """

    mfcs: FrozenSet[int]
    mfs: FrozenSet[int]


def mfcs_gen(state: BorderState, infrequent: Collection[int]) -> BorderState:
    """Splinter the candidate border around newly found infrequent sets.

    Every border member containing an infrequent set ``s`` is replaced
    by the members minus one item of ``s`` each, so the result is the
    antichain of maximal subsets of the old members that avoid every set
    in ``infrequent``.  Splinters already covered by another member are
    dropped, as is anything that ends up inside a certified maximal
    frequent set — its support is no longer in question.

    ``state.mfcs`` must be an antichain, as :class:`BorderState` says;
    a member inside an ``mfs`` member is allowed and is dropped.  A
    splinter ``m - e`` cannot contain an unsplit member (that member
    would lie inside ``m``), nor another splinter (``m1 - e1 <= m2 - e2``
    forces ``e1 == e2`` and ``m1 <= m2``), so the result is an antichain
    without a final maximality pass.
    """
    members = sorted(state.mfcs)
    mfs = state.mfs
    for s in sorted(infrequent):
        survivors: list[int] = []
        split: list[int] = []
        for m in members:
            (split if s & ~m == 0 else survivors).append(m)
        for m in split:
            for e in bits(s):
                piece = m ^ (1 << e)
                if not piece:
                    continue
                if any(piece & ~other == 0 for other in survivors):
                    continue
                if any(piece & ~f == 0 for f in mfs):
                    continue
                survivors.append(piece)
        members = survivors
    kept = frozenset(m for m in members if not any(m & ~f == 0 for f in mfs))
    return BorderState(kept, mfs)


def recover(
    candidates: Collection[int],
    frequent_k: Collection[int],
    mfs: Collection[int],
) -> set[int]:
    """Re-add join candidates hidden inside certified maximal sets.

    For each frequent k-set lying inside a maximal frequent set, every
    one-item extension drawn from that maximal set (beyond the k-set's
    last item) is restored to the candidate pool.
    """
    out = set(candidates)
    for l in frequent_k:
        top = l.bit_length()
        for m in mfs:
            if l & ~m == 0:
                out.update(l | (1 << e) for e in bits(m >> top << top))
    return out


def pincer_prune(candidates: Collection[int], state: BorderState) -> set[int]:
    """Keep only candidates whose support is still genuinely unknown.

    A candidate outside every ``mfcs`` member is provably infrequent; a
    candidate inside some ``mfs`` member is provably frequent.  Neither
    needs counting.
    """
    out: set[int] = set()
    for c in candidates:
        if not any(c & ~m == 0 for m in state.mfcs):
            continue
        if any(c & ~f == 0 for f in state.mfs):
            continue
        out.add(c)
    return out
