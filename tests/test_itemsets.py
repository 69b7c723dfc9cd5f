import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pincer_ml import itemsets
from pincer_ml.itemsets import bits, to_items, to_mask

# The engine works on int masks; these adapters let every case below be
# written, and its answer read, as index tuples.


def _masks(family):
    return {to_mask(s) for s in family}


def _tuples(masks):
    return {to_items(m) for m in masks}


def join(frequent_k):
    return _tuples(itemsets.join(_masks(frequent_k)))


def apriori_prune(candidates, frequent_k):
    return _tuples(itemsets.apriori_prune(_masks(candidates), _masks(frequent_k)))


def maximal_avoiding(n_items, infrequent):
    return _tuples(itemsets.maximal_avoiding(n_items, _masks(infrequent)))


def mfcs_gen(mfs, infrequent, k, n_items):
    """The MFCS, as index tuples, after pass ``k`` over ``n_items`` items."""
    got = itemsets.mfcs_gen(_masks(mfs), _masks(infrequent), k, n_items)
    assert got.mfs == _masks(mfs)
    return _tuples(got.mfcs)


def pincer_prune(candidates, mfs, counted):
    got = itemsets.pincer_prune(_masks(candidates), _masks(mfs), _masks(counted))
    return _tuples(got)


def test_itemset_normalizes():
    assert to_items(to_mask([3, 1, 3])) == (1, 3)
    assert to_items(to_mask([])) == ()
    assert to_items(to_mask(iter([2, 0, 1]))) == (0, 1, 2)


def test_mask_round_trip():
    assert to_mask((0, 2, 5)) == 0b100101
    assert to_mask(()) == 0
    assert list(bits(0b100101)) == [0, 2, 5]
    assert to_items(0) == ()
    for items in [(3,), (0, 1, 2), (1, 7, 40, 64, 100)]:
        assert to_items(to_mask(items)) == items


def test_by_size_orders_smaller_sets_first_then_by_index():
    counts = {0b110: 2, 0b001: 5, 0b011: 3, 0b101: 1}
    assert itemsets.by_size(counts) == [((0,), 5), ((0, 1), 3), ((0, 2), 1), ((1, 2), 2)]
    # Index order, not mask order: (0, 7) has the larger mask.
    assert itemsets.by_size({0b110: 1, 0b10000001: 1}) == [((0, 7), 1), ((1, 2), 1)]
    assert itemsets.by_size({0b111: 4, 0b1000: 6}) == [((3,), 6), ((0, 1, 2), 4)]
    assert itemsets.by_size({}) == []


class TestJoin:
    def test_singletons_join_to_all_pairs(self):
        got = join({(0,), (1,), (2,)})
        assert got == {(0, 1), (0, 2), (1, 2)}

    def test_shared_prefix_required(self):
        got = join({(0, 1), (0, 2), (1, 2)})
        assert got == {(0, 1, 2)}

    def test_disjoint_prefixes_produce_nothing(self):
        assert join({(0, 1), (2, 3)}) == set()

    def test_empty(self):
        assert join(set()) == set()


class TestAprioriPrune:
    def test_keeps_fully_supported(self):
        frequent = {(0, 1), (0, 2), (1, 2)}
        assert apriori_prune({(0, 1, 2)}, frequent) == {(0, 1, 2)}

    def test_drops_candidate_with_missing_subset(self):
        frequent = {(0, 1), (0, 2)}  # (1, 2) missing
        assert apriori_prune({(0, 1, 2)}, frequent) == set()

    def test_empty_sides(self):
        assert apriori_prune(set(), {(0, 1)}) == set()
        assert apriori_prune({(0, 1)}, set()) == set()


class TestBorderRefinement:
    """Most cases take ``k = 0``: nothing is enumerated around, so the
    whole universe is splintered by every infrequent set."""

    def test_single_infrequent_singleton(self):
        assert mfcs_gen([], [(1,)], 0, 3) == {(0, 2)}

    def test_chained_singletons(self):
        assert mfcs_gen([], [(0,), (8,)], 0, 9) == {tuple(range(1, 8))}

    def test_pair_splits_into_two(self):
        assert mfcs_gen([], [(1, 2)], 0, 4) == {(0, 1, 3), (0, 2, 3)}

    def test_untouched_member_survives(self):
        # Every pair across {0,1,2} and {3,4,5} is infrequent, so pass 2
        # enumerates (0, 1, 2) and (3, 4, 5); only the first contains
        # the infrequent triple.
        infrequent = [(a, b) for a in range(3) for b in range(3, 6)] + [(0, 1, 2)]
        got = mfcs_gen([], infrequent, 2, 6)
        assert got == {(0, 1), (0, 2), (1, 2), (3, 4, 5)}

    def test_known_maximal_absorbs_splinters(self):
        # the splinter (1, 2) is already certified frequent
        assert mfcs_gen([(1, 2)], [(0,)], 0, 3) == set()

    def test_empty_splinters_vanish(self):
        assert mfcs_gen([], [(0,)], 0, 1) == set()

    def test_result_is_antichain(self):
        got = sorted(mfcs_gen([], [(0, 1), (1, 2), (2, 3)], 0, 5))
        for a in got:
            for b in got:
                assert a == b or not set(a) <= set(b)

    def test_no_member_contains_infrequent(self):
        infrequent = [(0, 3), (1, 4), (2,)]
        for m in mfcs_gen([], infrequent, 0, 6):
            for s in infrequent:
                assert not set(s) <= set(m)


def _avoiding_brute_force(n_items, infrequent, mfs=()):
    """Maximal nonempty subsets of the universe containing no infrequent
    set, minus those inside an ``mfs`` member, as masks."""
    avoiding = {
        s for s in range(1, 1 << n_items) if not any(f & ~s == 0 for f in infrequent)
    }
    return {
        s
        for s in avoiding
        if not any((s | 1 << i) in avoiding for i in range(n_items) if not s >> i & 1)
        and not any(s & ~f == 0 for f in mfs)
    }


def _random_family(rng, universe, count, max_size):
    family = set()
    for _ in range(count):
        size = rng.randint(1, max_size)
        family.add(tuple(sorted(rng.sample(universe, min(size, len(universe))))))
    return family


@pytest.mark.parametrize("seed", range(200))
def test_border_refinement_matches_oracle(seed):
    """``mfs`` need not be an antichain: a member inside another drops
    nothing the other does not."""
    rng = random.Random(seed)
    universe = list(range(rng.randint(3, 10)))
    infrequent = _masks(_random_family(rng, universe, rng.randint(0, 4), 3))
    mfs = _masks(_random_family(rng, universe, rng.randint(0, 2), 4))
    k = rng.randint(0, 3)
    got = itemsets.mfcs_gen(mfs, infrequent, k, len(universe))
    assert got.mfcs == _avoiding_brute_force(len(universe), infrequent, mfs)


@pytest.mark.parametrize("seed", range(60))
def test_border_refinement_is_batch_order_independent(seed):
    """However the pass number cuts the infrequent sets into the batch
    enumerated around and the batch splintered by, and in whatever order
    they come, the border is the same."""
    rng = random.Random(seed)
    universe = list(range(8))
    batch_a = list(_random_family(rng, universe, 3, 3))
    batch_b = list(_random_family(rng, universe, 3, 3))
    borders = {
        frozenset(mfcs_gen([], first + second, k, 8))
        for first, second in ((batch_a, batch_b), (batch_b, batch_a))
        for k in range(4)
    }
    assert len(borders) == 1


class TestPincerPrune:
    def test_counted_is_dropped(self):
        assert pincer_prune({(0, 3), (1, 2)}, [], [(0, 3), (4,)]) == {(1, 2)}

    def test_inside_known_frequent_is_dropped(self):
        assert pincer_prune({(0, 1), (0, 3)}, [(0, 1, 2)], []) == {(0, 3)}

    def test_unknown_candidates_survive(self):
        got = pincer_prune({(0, 1), (1, 2)}, [(0, 2), (3, 4)], [(0,), (1,), (2,)])
        assert got == {(0, 1), (1, 2)}


family = st.sets(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=8), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(infrequent=family, mfs=family)
def test_border_antichain_property(infrequent, mfs):
    out = sorted(mfcs_gen(mfs, infrequent, 0, 8))
    for a in out:
        assert a, "empty member leaked through"
        for b in out:
            assert a == b or not set(a) <= set(b)
        for s in infrequent:
            assert not s <= set(a)


class TestMaximalAvoiding:
    def test_nothing_infrequent_keeps_the_universe(self):
        assert maximal_avoiding(4, []) == {(0, 1, 2, 3)}

    def test_infrequent_singletons_leave_the_universe(self):
        assert maximal_avoiding(4, [(1,), (3,), (1, 2)]) == {(0, 2)}

    def test_nothing_left(self):
        assert maximal_avoiding(2, [(0,), (1,)]) == set()
        assert maximal_avoiding(0, []) == set()

    def test_pairs_give_maximal_cliques(self):
        # The frequent pairs 01, 02, 12 and 23 form cliques {0,1,2} and {2,3}.
        assert maximal_avoiding(4, [(0, 3), (1, 3)]) == {(0, 1, 2), (2, 3)}

    def test_every_pair_infrequent_gives_singletons(self):
        infrequent = combinations(range(5), 2)
        assert maximal_avoiding(5, infrequent) == {(i,) for i in range(5)}

    def test_every_triple_infrequent_gives_pairs(self):
        infrequent = combinations(range(6), 3)
        assert maximal_avoiding(6, infrequent) == set(combinations(range(6), 2))

    def test_mixed_sizes(self):
        got = maximal_avoiding(5, [(0, 1, 2), (3, 4)])
        assert got == {a + b for a in combinations(range(3), 2) for b in [(3,), (4,)]}


@pytest.mark.parametrize("seed", range(500))
def test_two_step_border_matches_brute_force(seed):
    """Every cut k between the sets enumerated around and the sets
    splintered by gives the one border the infrequent sets determine."""
    rng = random.Random(seed)
    n_items = rng.randint(1, 10)
    universe = list(range(n_items))
    infrequent = _masks(_random_family(rng, universe, rng.randint(0, 12), 5))
    drawn = _masks(_random_family(rng, universe, rng.randint(0, 3), n_items))
    mfs = frozenset(f for f in drawn if not any(f != g and f & ~g == 0 for g in drawn))
    expected = _avoiding_brute_force(n_items, infrequent, mfs)

    for k in range(7):
        small = [s for s in infrequent if s.bit_count() <= k]
        members = itemsets.maximal_avoiding(n_items, small)
        assert len(members) == len(set(members))
        assert set(members) == _avoiding_brute_force(n_items, small)

        got = itemsets.mfcs_gen(mfs, infrequent, k, n_items)
        assert got.mfcs == expected, f"k={k}"
        assert got.mfs == mfs
    for a in got.mfcs:
        for b in got.mfcs:
            assert a == b or a & ~b
