import random

import pytest

from helpers import idx, mfs_by_text
from pincer_ml.baselines import apriori
from pincer_ml.errors import InvalidMinsup
from pincer_ml.gen import random_matrix
from pincer_ml.itemsets import to_items, to_mask
from pincer_ml.oracle import brute_force
from pincer_ml.pincer import pincer_search
from pincer_ml.taxonomy import load_taxonomy
from pincer_ml.transactions import (
    PassCounter,
    load_transactions,
    project_to_level,
)

LEVEL1_MFS = {
    ("B**", "C**"): 3,
    ("E**", "F**"): 4,
    ("E**", "H**"): 3,
    ("C**", "D**", "E**", "G**"): 4,
}


class TestBookstoreLevel1:
    def test_maximal_sets(self, level1):
        result = pincer_search(level1, 3)
        assert mfs_by_text(result.mfs, level1.vocabulary) == LEVEL1_MFS

    def test_three_passes(self, level1):
        counter = PassCounter()
        result = pincer_search(level1, 3, counter)
        assert counter.passes == 3
        assert result.trace.passes == 3

    def test_candidates_per_pass(self, level1):
        result = pincer_search(level1, 3)
        assert [s.candidates for s in result.trace.steps] == [9, 21, 4]

    def test_frequent_items(self, level1):
        result = pincer_search(level1, 3)
        expected = set(
            idx(level1.vocabulary, "B**", "C**", "D**", "E**", "F**", "G**", "H**")
        )
        assert result.frequent_items == expected

    def test_result_ordered_by_size_then_items(self, level1):
        result = pincer_search(level1, 3)
        keys = list(result.mfs)
        assert keys == sorted(keys, key=lambda s: (len(s), s))

    def test_counter_accumulates(self, level1):
        counter = PassCounter()
        pincer_search(level1, 3, counter)
        pincer_search(level1, 3, counter)
        assert counter.passes == 6


class TestEdges:
    def test_unreachable_threshold_takes_one_pass(self, level1):
        counter = PassCounter()
        result = pincer_search(level1, 16, counter)
        assert result.mfs == {}
        assert result.frequent_items == frozenset()
        assert counter.passes == 1

    def test_minsup_one_returns_maximal_baskets(self, level1):
        result = pincer_search(level1, 1)
        oracle = brute_force(level1, 1)
        assert frozenset(result.mfs) == oracle.maximal

    def test_invalid_minsup(self, level1):
        with pytest.raises(InvalidMinsup):
            pincer_search(level1, 0)
        with pytest.raises(InvalidMinsup):
            pincer_search(level1, -3)

    def test_empty_vocabulary(self, bookstore):
        matrix = project_to_level(bookstore, 2, frozenset())
        counter = PassCounter()
        result = pincer_search(matrix, 1, counter)
        assert result.mfs == {}
        assert counter.passes == 0
        assert result.trace.steps == ()

    def test_no_transactions(self):
        tax = load_taxonomy([("A11", "a"), ("B11", "b")])
        db = load_transactions([], tax)
        matrix = project_to_level(db, 1)
        counter = PassCounter()
        result = pincer_search(matrix, 1, counter)
        assert result.mfs == {}
        assert counter.passes == 0

    def test_single_transaction(self):
        tax = load_taxonomy([("A11", "a"), ("B11", "b")])
        db = load_transactions([("T1", "A11"), ("T1", "B11")], tax)
        matrix = project_to_level(db, 1)
        result = pincer_search(matrix, 1)
        assert dict(result.mfs) == {(0, 1): 1}


class BorderRecorder:
    """Observer snapshotting both borders after every pass."""

    def __init__(self):
        self.snapshots = []

    def __call__(self, k, mfcs, mfs, infrequent):
        self.snapshots.append((k, mfcs, mfs, infrequent))

    def assert_invariants(self):
        assert self.snapshots, "observer never fired"
        for k, mfcs, mfs, infrequent in self.snapshots:
            for a in mfcs:
                for b in mfcs:
                    assert a == b or not set(a) <= set(b), (
                        f"pass {k}: candidate border is not an antichain"
                    )
            for a in mfs:
                for b in mfs:
                    assert a == b or not set(a) <= set(b), (
                        f"pass {k}: maximal result is not an antichain"
                    )
            for m in mfcs:
                for s in infrequent:
                    assert not set(s) <= set(m), (
                        f"pass {k}: border member {m} contains infrequent {s}"
                    )
                for f in mfs:
                    assert not set(m) <= set(f), (
                        f"pass {k}: border member {m} inside settled {f}"
                    )


class TestBorderInvariants:
    def test_bookstore_all_levels(self, bookstore):
        for level, minsup in ((1, 3), (2, 2), (3, 2)):
            matrix = project_to_level(bookstore, level)
            recorder = BorderRecorder()
            pincer_search(matrix, minsup, observer=recorder)
            recorder.assert_invariants()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_runs(self, seed):
        rng = random.Random(seed)
        matrix = random_matrix(
            rng,
            n_items=rng.randint(1, 10),
            n_transactions=rng.randint(1, 30),
            density=rng.uniform(0.2, 0.7),
        )
        recorder = BorderRecorder()
        pincer_search(matrix, rng.randint(1, 6), observer=recorder)
        recorder.assert_invariants()


class TestWideBorders:
    """Borders of hundreds of members, beyond the small random cases."""

    @pytest.mark.parametrize(
        "n_items, n_transactions, density, minsup, peak",
        [(30, 2000, 0.3, 150, 435), (20, 500, 0.5, 90, 190)],
    )
    def test_matches_apriori(self, n_items, n_transactions, density, minsup, peak):
        matrix = random_matrix(random.Random(0), n_items, n_transactions, density)
        recorder = BorderRecorder()
        result = pincer_search(matrix, minsup, observer=recorder)
        recorder.assert_invariants()
        assert max(s.mfcs_size for s in result.trace.steps) == peak

        frequent = {
            to_mask(fs.itemset): fs.support_count
            for fs in apriori(matrix, minsup, PassCounter()).frequent
        }
        maximal = {
            to_items(m): support
            for m, support in frequent.items()
            if not any((m | 1 << i) in frequent for i in range(n_items) if not m >> i & 1)
        }
        assert dict(result.mfs) == maximal


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(1000, 1060))
    def test_maximal_sets_match_brute_force(self, seed):
        rng = random.Random(seed)
        matrix = random_matrix(
            rng,
            n_items=rng.randint(1, 10),
            n_transactions=rng.randint(1, 25),
            density=rng.uniform(0.15, 0.8),
        )
        minsup = rng.randint(1, 6)
        result = pincer_search(matrix, minsup)
        oracle = brute_force(matrix, minsup)
        assert frozenset(result.mfs) == oracle.maximal
        for s, support in result.mfs.items():
            assert oracle.frequent[s] == support

    def test_trace_pass_accounting(self, level1):
        result = pincer_search(level1, 3)
        counts = [s.passes for s in result.trace.steps]
        assert counts == sorted(counts)
        assert result.trace.steps[-1].passes == result.trace.passes

    def test_deterministic_across_runs(self, level1):
        a = pincer_search(level1, 3)
        b = pincer_search(level1, 3)
        assert list(a.mfs.items()) == list(b.mfs.items())
        assert a.trace == b.trace
