import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pincer_ml import itemsets
from pincer_ml.errors import MixedSizes
from pincer_ml.itemsets import BorderState, bits, itemset, to_items, to_mask

# The engine works on int masks; these adapters let every case below be
# written, and its answer read, as index tuples.  A ``BorderState`` in
# this module holds tuples and is converted on each call.


def _masks(family):
    return {to_mask(s) for s in family}


def _tuples(masks):
    return {to_items(m) for m in masks}


def _border(state, convert):
    return BorderState(frozenset(convert(state.mfcs)), frozenset(convert(state.mfs)))


def join(frequent_k):
    return _tuples(itemsets.join(_masks(frequent_k)))


def apriori_prune(candidates, frequent_k):
    return _tuples(itemsets.apriori_prune(_masks(candidates), _masks(frequent_k)))


def mfcs_gen(state, infrequent):
    got = itemsets.mfcs_gen(_border(state, _masks), _masks(infrequent))
    return _border(got, _tuples)


def recover(candidates, frequent_k, mfs):
    got = itemsets.recover(_masks(candidates), _masks(frequent_k), _masks(mfs))
    return _tuples(got)


def pincer_prune(candidates, state):
    return _tuples(itemsets.pincer_prune(_masks(candidates), _border(state, _masks)))


def test_itemset_normalizes():
    assert itemset([3, 1, 3]) == (1, 3)
    assert itemset([]) == ()
    assert itemset(iter([2, 0, 1])) == (0, 1, 2)


def test_mask_round_trip():
    assert to_mask((0, 2, 5)) == 0b100101
    assert to_mask(()) == 0
    assert list(bits(0b100101)) == [0, 2, 5]
    assert to_items(0) == ()
    for items in [(3,), (0, 1, 2), (1, 7, 40, 64, 100)]:
        assert to_items(to_mask(items)) == items


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

    def test_mixed_sizes(self):
        with pytest.raises(MixedSizes):
            join({(0,), (0, 1)})


class TestAprioriPrune:
    def test_keeps_fully_supported(self):
        frequent = {(0, 1), (0, 2), (1, 2)}
        assert apriori_prune({(0, 1, 2)}, frequent) == {(0, 1, 2)}

    def test_drops_candidate_with_missing_subset(self):
        frequent = {(0, 1), (0, 2)}  # (1, 2) missing
        assert apriori_prune({(0, 1, 2)}, frequent) == set()

    def test_size_mismatch(self):
        with pytest.raises(MixedSizes):
            apriori_prune({(0, 1)}, {(0, 1, 2)})

    def test_empty_sides(self):
        assert apriori_prune(set(), {(0, 1)}) == set()
        assert apriori_prune({(0, 1)}, set()) == set()


class TestBorderRefinement:
    def test_single_infrequent_singleton(self):
        state = BorderState(frozenset({(0, 1, 2)}), frozenset())
        got = mfcs_gen(state, [(1,)])
        assert got.mfcs == frozenset({(0, 2)})

    def test_chained_singletons(self):
        state = BorderState(frozenset({tuple(range(9))}), frozenset())
        got = mfcs_gen(state, [(0,), (8,)])
        assert got.mfcs == frozenset({tuple(range(1, 8))})

    def test_pair_splits_into_two(self):
        state = BorderState(frozenset({(0, 1, 2, 3)}), frozenset())
        got = mfcs_gen(state, [(1, 2)])
        assert got.mfcs == frozenset({(0, 1, 3), (0, 2, 3)})

    def test_untouched_member_survives(self):
        state = BorderState(frozenset({(0, 1), (2, 3)}), frozenset())
        got = mfcs_gen(state, [(0, 1)])
        # (0,) and (1,) are both swallowed by nothing, so they stay;
        # (2, 3) never contained the infrequent pair
        assert got.mfcs == frozenset({(0,), (1,), (2, 3)})

    def test_known_maximal_absorbs_splinters(self):
        state = BorderState(frozenset({(0, 1, 2)}), frozenset({(1, 2)}))
        got = mfcs_gen(state, [(0,)])
        # the splinter (1, 2) is already certified frequent
        assert got.mfcs == frozenset()

    def test_empty_splinters_vanish(self):
        state = BorderState(frozenset({(4,)}), frozenset())
        got = mfcs_gen(state, [(4,)])
        assert got.mfcs == frozenset()

    def test_result_is_antichain(self):
        state = BorderState(frozenset({(0, 1, 2, 3, 4)}), frozenset())
        got = mfcs_gen(state, [(0, 1), (1, 2), (2, 3)])
        members = sorted(got.mfcs)
        for a in members:
            for b in members:
                assert a == b or not set(a) <= set(b)

    def test_no_member_contains_infrequent(self):
        infrequent = [(0, 3), (1, 4), (2,)]
        state = BorderState(frozenset({tuple(range(6))}), frozenset())
        got = mfcs_gen(state, infrequent)
        for m in got.mfcs:
            for s in infrequent:
                assert not set(s) <= set(m)


def _border_oracle(members, infrequent, mfs):
    """Maximal subsets of the members avoiding every infrequent set and
    not already covered by a certified maximal frequent set."""
    valid = set()
    for m in members:
        for size in range(1, len(m) + 1):
            for sub in combinations(m, size):
                s = set(sub)
                if any(set(i) <= s for i in infrequent):
                    continue
                if any(s <= set(f) for f in mfs):
                    continue
                valid.add(frozenset(s))
    return {
        tuple(sorted(s))
        for s in valid
        if not any(s < t for t in valid)
    }


def _random_family(rng, universe, count, max_size):
    family = set()
    for _ in range(count):
        size = rng.randint(1, max_size)
        family.add(tuple(sorted(rng.sample(universe, min(size, len(universe))))))
    return family


@pytest.mark.parametrize("seed", range(200))
def test_border_refinement_matches_oracle(seed):
    rng = random.Random(seed)
    universe = list(range(rng.randint(3, 10)))
    members = _random_family(rng, universe, rng.randint(1, 3), len(universe))
    # keep only maximal members so the input is a legal antichain
    members = {
        m for m in members if not any(m != o and set(m) <= set(o) for o in members)
    }
    infrequent = _random_family(rng, universe, rng.randint(0, 4), 3)
    mfs = frozenset(_random_family(rng, universe, rng.randint(0, 2), 4))
    got = mfcs_gen(BorderState(frozenset(members), mfs), infrequent)
    assert set(got.mfcs) == _border_oracle(members, infrequent, mfs)


@pytest.mark.parametrize("seed", range(60))
def test_border_refinement_is_batch_order_independent(seed):
    rng = random.Random(seed)
    universe = list(range(8))
    members = {tuple(universe)}
    batch_a = _random_family(rng, universe, 3, 3)
    batch_b = _random_family(rng, universe, 3, 3)
    state = BorderState(frozenset(members), frozenset())
    one = mfcs_gen(mfcs_gen(state, batch_a), batch_b)
    other = mfcs_gen(mfcs_gen(state, batch_b), batch_a)
    assert one.mfcs == other.mfcs


class TestRecover:
    def test_extends_within_maximal_set(self):
        got = recover(set(), [(1, 2)], [(1, 2, 3, 5)])
        assert got == {(1, 2, 3), (1, 2, 5)}

    def test_only_extends_past_last_item(self):
        got = recover(set(), [(2, 3)], [(1, 2, 3, 5)])
        assert got == {(2, 3, 5)}

    def test_noop_when_not_covered(self):
        assert recover({(0, 1, 2)}, [(4, 5)], [(1, 2, 3)]) == {(0, 1, 2)}

    def test_keeps_existing_candidates(self):
        got = recover({(9, 10, 11)}, [(1, 2)], [(1, 2, 3)])
        assert got == {(9, 10, 11), (1, 2, 3)}


class TestPincerPrune:
    def test_outside_border_is_dropped(self):
        state = BorderState(frozenset({(0, 1, 2)}), frozenset())
        assert pincer_prune({(0, 3)}, state) == set()

    def test_inside_known_frequent_is_dropped(self):
        state = BorderState(frozenset({(0, 1, 2, 3)}), frozenset({(0, 1, 2)}))
        assert pincer_prune({(0, 1), (0, 3)}, state) == {(0, 3)}

    def test_unknown_candidates_survive(self):
        state = BorderState(frozenset({(0, 1, 2)}), frozenset())
        assert pincer_prune({(0, 1), (1, 2)}, state) == {(0, 1), (1, 2)}


family = st.sets(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=8), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(infrequent=family, mfs=family)
def test_border_antichain_property(infrequent, mfs):
    members = frozenset({tuple(range(8))})
    got = mfcs_gen(
        BorderState(members, frozenset(tuple(sorted(f)) for f in mfs)),
        [tuple(sorted(f)) for f in infrequent],
    )
    out = sorted(got.mfcs)
    for a in out:
        assert a, "empty member leaked through"
        for b in out:
            assert a == b or not set(a) <= set(b)
        for s in infrequent:
            assert not s <= set(a)
