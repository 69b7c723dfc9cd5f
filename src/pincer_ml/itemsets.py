"""Itemset algebra for the bidirectional search.

Inside the engine an itemset is an ``int`` mask, bit ``i`` for
vocabulary index ``i``, so ``a & ~b == 0`` is the subset test; results
use the index tuple :data:`Itemset`.  The bottom-up side grows candidates
by prefix joins; the top-down side keeps a :class:`BorderState`:
``mfcs`` is the antichain of largest sets that could still be frequent
given every infrequent set seen so far, and ``mfs`` is the antichain of
sets already certified frequent and maximal.

After pass ``k`` the ``mfcs`` is built in two exact steps.
:func:`maximal_avoiding` enumerates from scratch the maximal sets that
contain no infrequent set of size at most ``k`` (for ``k = 2`` these are
the maximal cliques of the frequent-pair graph).  :func:`mfcs_gen` then
splinters those by the few larger infrequent sets, which are earlier
border members, and drops whatever lies inside an ``mfs`` member.
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


@dataclass(frozen=True)
class BorderState:
    """The two antichains bounding the unresolved search region.

    Both ``mfcs`` and ``mfs`` are antichains, and no ``mfcs`` member lies
    inside an ``mfs`` member.  :func:`maximal_avoiding` and
    :func:`mfcs_gen` keep these by construction, so neither the search
    nor the refinement re-checks them.  The ``mfcs`` after each pass is
    uniquely determined: the maximal nonempty sets containing no
    infrequent set seen so far, minus those inside an ``mfs`` member.
    """

    mfcs: FrozenSet[int]
    mfs: FrozenSet[int]


def mfcs_gen(state: BorderState, infrequent: Collection[int]) -> BorderState:
    """Splinter the candidate border around the given infrequent sets.

    Every border member containing an infrequent set ``s`` is replaced
    by the members minus one item of ``s`` each, so the result is the
    antichain of maximal subsets of the old members that avoid every set
    in ``infrequent``.  Splinters already covered by another member are
    dropped, as is anything that ends up inside a certified maximal
    frequent set — its support is no longer in question.

    The search passes the output of :func:`maximal_avoiding` as
    ``state.mfcs`` and only the infrequent sets larger than the current
    pass, which are few; splintering by every infrequent set would blow
    up where the border carries no information.

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
