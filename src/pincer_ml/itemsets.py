"""Itemset algebra for the bidirectional search.

Inside the engine an itemset is an ``int`` mask, bit ``i`` for
vocabulary index ``i``, so ``a & ~b == 0`` is the subset test; results
use the index tuple :data:`Itemset`.  The bottom-up side grows candidates
by prefix joins; the top-down side keeps a :class:`BorderState`:
``mfcs`` is the antichain of largest sets that could still be frequent
given every infrequent set seen so far, and ``mfs`` is the antichain of
sets already certified frequent and maximal.

After pass ``k`` one call to :func:`mfcs_gen` builds the ``mfcs`` from
scratch in two exact steps.  :func:`maximal_avoiding` enumerates the
maximal sets that contain no infrequent set of size at most ``k`` (for
``k = 2`` these are the maximal cliques of the frequent-pair graph);
those are then splintered by the few larger infrequent sets, which are
earlier border members, and whatever lies inside an ``mfs`` member is
dropped.  Because that border is exact, :func:`pincer_prune` needs only
what has been counted and the ``mfs``.
"""
from __future__ import annotations

from itertools import combinations
from typing import Collection, FrozenSet, Iterable, Iterator, Mapping, NamedTuple

Itemset = tuple[int, ...]


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


def by_size(counts: Mapping[int, int]) -> list[tuple[Itemset, int]]:
    """The ``(index tuple, count)`` pairs of a mask -> count map.

    Smaller sets come first, and sets of one size in index order: the
    order in which every miner returns its itemsets.
    """
    pairs = ((to_items(m), c) for m, c in counts.items())
    return sorted(pairs, key=lambda kv: (len(kv[0]), kv[0]))


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


def maximal_avoiding(n_items: int, infrequent: Iterable[int]) -> list[int]:
    """Every maximal nonempty subset of ``0..n_items-1`` containing no
    set in ``infrequent``.

    A pivoted Bron–Kerbosch backtrack over the hypergraph whose edges are
    the infrequent sets: ``r`` is the set being grown, ``p`` the items
    that can still join it, and ``x`` the items that could join it but
    whose branches are done.  Infrequent singletons leave the universe up
    front, along with every edge through them.  When ``v`` joins ``r``,
    each edge ``e`` through ``v`` whose remainder ``e - r - v`` is a
    single item ``q`` blocks ``q`` in both ``p`` and ``x``.  The edges
    through an item are grouped by their rest minus its highest item, so
    all pairs through it are one mask and larger edges share keys.

    Every maximal set below a node either contains the pivot ``u`` or
    completes an edge ``e`` through it, so it meets ``u``'s branch set:
    ``{u} & p`` plus ``e & p`` for each edge ``e`` through ``u`` with
    ``e - u`` inside ``r | p``.  The pivot is the ``u`` in ``x | p`` with
    the smallest branch set; an ``x`` item whose branch set is empty can
    never be blocked, so nothing below that node is maximal.
    """
    removed = 0
    edges: list[int] = []
    for s in infrequent:
        if s & (s - 1):
            edges.append(s)
        else:
            removed |= s
    # rests[v] maps (e - v - top) to the OR of the tops, top being the
    # highest item of e - v, over the edges e through v; a pair's key is 0.
    rests: list[dict[int, int]] = [{} for _ in range(n_items)]
    for e in edges:
        if e & removed:
            continue
        for v in bits(e):
            rest = e ^ (1 << v)
            top = 1 << (rest.bit_length() - 1)
            group = rests[v]
            group[rest ^ top] = group.get(rest ^ top, 0) | top

    out: list[int] = []
    stack = [(0, ((1 << n_items) - 1) & ~removed, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x and r:
                out.append(r)
            continue
        live = r | p
        best, size = p, p.bit_count()
        for pool, floor in ((x, 0), (p, 1)):
            for u in bits(pool):
                branch = p & (1 << u)
                for key, tops in rests[u].items():
                    if key & ~live == 0 and tops & live:
                        branch |= (key | tops) & p
                        if branch == p:  # cannot beat the default
                            break
                n = branch.bit_count()
                if n < size:
                    best, size = branch, n
                    if n <= floor:
                        break
            if size <= 1:
                break
        for v in bits(best):
            block = 0
            for key, tops in rests[v].items():
                rem = key & ~r
                if not rem:
                    block |= tops
                elif rem & (rem - 1) == 0 and tops & r:
                    block |= rem
            v_bit = 1 << v
            p &= ~v_bit
            stack.append((r | v_bit, p & ~block, x & ~block))
            x |= v_bit
    return out


class BorderState(NamedTuple):
    """The two antichains bounding the unresolved search region.

    Both ``mfcs`` and ``mfs`` are antichains, and no ``mfcs`` member lies
    inside an ``mfs`` member.  :func:`mfcs_gen` keeps these by
    construction, so the search does not re-check them.  The ``mfcs``
    after each pass is uniquely determined: the maximal nonempty sets
    containing no infrequent set seen so far, minus those inside an
    ``mfs`` member.
    """

    mfcs: FrozenSet[int]
    mfs: FrozenSet[int]


def mfcs_gen(
    mfs: Collection[int], infrequent: Collection[int], k: int, n_items: int
) -> BorderState:
    """The candidate border after pass ``k``, built from scratch.

    The result's ``mfcs`` is every maximal nonempty subset of
    ``0..n_items-1`` that contains no set in ``infrequent``, minus those
    inside an ``mfs`` member; its ``mfs`` is ``mfs``.
    :func:`maximal_avoiding` enumerates the maximal sets avoiding the
    infrequent sets of at most ``k`` items.  Each of those containing a
    larger infrequent set ``s`` is then replaced by its subsets missing
    one item of ``s`` each; sets wider than the widest member cannot be
    contained in any and are skipped.  Splintering by every infrequent
    set would blow up where the border carries no information; the
    larger ones are earlier border members and usually few.

    A splinter ``m - e`` cannot contain an unsplit member (that member
    would lie inside ``m``), nor another splinter (``m1 - e1 <= m2 - e2``
    forces ``e1 == e2`` and ``m1 <= m2``), so the result is an antichain
    without a final maximality pass.
    """
    small = [s for s in infrequent if s.bit_count() <= k]
    members = sorted(maximal_avoiding(n_items, small))
    widest = max((m.bit_count() for m in members), default=0)
    for s in sorted(s for s in infrequent if k < s.bit_count() <= widest):
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
                survivors.append(piece)
        members = survivors
    kept = frozenset(m for m in members if not any(m & ~f == 0 for f in mfs))
    return BorderState(kept, frozenset(mfs))


def pincer_prune(
    candidates: Collection[int], mfs: Collection[int], counted: Collection[int]
) -> set[int]:
    """Keep only candidates whose support is still genuinely unknown.

    A candidate in ``counted`` already has its support; one inside an
    ``mfs`` member is provably frequent.  Neither needs counting.

    Unchecked: every candidate has all its one-smaller subsets counted
    frequent, and the border was rebuilt by :func:`mfcs_gen` after the
    last pass.  Such a candidate can contain no counted infrequent set
    but itself, so an uncounted one lies inside a maximal set avoiding
    them all: an ``mfcs`` member or a set inside an ``mfs`` member.
    Testing it against the ``mfcs`` could therefore only drop a counted
    set.
    """
    return {
        c for c in candidates if c not in counted and not any(c & ~f == 0 for f in mfs)
    }
