import random

import pytest

from helpers import idx, mfs_by_text, sweeps
from pincer_ml import pincer
from pincer_ml.baselines import apriori
from pincer_ml.errors import ConfigError
from pincer_ml.gen import random_matrix
from pincer_ml.itemsets import to_items, to_mask
from pincer_ml.oracle import brute_force
from pincer_ml.pincer import pincer_search
from pincer_ml.taxonomy import load_taxonomy
from pincer_ml.transactions import load_transactions, project_to_level

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

    def test_three_passes(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, pincer)
        result = pincer_search(level1, 3)
        assert len(swept) == 3
        assert result.trace.passes == 3

    def test_candidates_per_pass(self, level1):
        result = pincer_search(level1, 3)
        assert [s.candidates for s in result.trace.steps] == [9, 21, 4]

    def test_frequent_items(self, level1):
        result = pincer_search(level1, 3)
        expected = set(
            idx(level1.vocabulary, "B**", "C**", "D**", "E**", "F**", "G**", "H**")
        )
        assert {i for member in result.mfs for i in member} == expected

    def test_result_ordered_by_size_then_items(self, level1):
        result = pincer_search(level1, 3)
        keys = list(result.mfs)
        assert keys == sorted(keys, key=lambda s: (len(s), s))


class TestEdges:
    def test_unreachable_threshold_takes_one_pass(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, pincer)
        result = pincer_search(level1, 16)
        assert result.mfs == {}
        assert len(swept) == 1
        assert result.trace.passes == 1

    def test_minsup_one_returns_maximal_baskets(self, level1):
        result = pincer_search(level1, 1)
        oracle = brute_force(level1, 1)
        assert frozenset(result.mfs) == oracle.maximal

    def test_invalid_minsup(self, level1):
        with pytest.raises(ConfigError, match="minsup must be at least 1, got 0$"):
            pincer_search(level1, 0)
        with pytest.raises(ConfigError, match="minsup must be at least 1, got -3$"):
            pincer_search(level1, -3)

    def test_empty_vocabulary(self, bookstore, monkeypatch):
        matrix = project_to_level(bookstore, 2, frozenset())
        swept = sweeps(monkeypatch, pincer)
        result = pincer_search(matrix, 1)
        assert result.mfs == {}
        assert swept == []
        assert result.trace == ((), 0)

    def test_no_transactions(self, monkeypatch):
        tax = load_taxonomy([("A11", "a"), ("B11", "b")])
        db = load_transactions([], tax)
        matrix = project_to_level(db, 1)
        swept = sweeps(monkeypatch, pincer)
        result = pincer_search(matrix, 1)
        assert result.mfs == {}
        assert swept == []
        assert result.trace.passes == 0

    def test_single_transaction(self):
        tax = load_taxonomy([("A11", "a"), ("B11", "b")])
        db = load_transactions([("T1", "A11"), ("T1", "B11")], tax)
        matrix = project_to_level(db, 1)
        result = pincer_search(matrix, 1)
        assert dict(result.mfs) == {(0, 1): 1}


def record_infrequent(monkeypatch, count_many, minsup):
    """Route the search's passes through ``count_many``; return the live
    set of index tuples those passes counted below ``minsup``."""
    counted = set()

    def recording(matrix, masks):
        counts = count_many(matrix, masks)
        counted.update(to_items(m) for m, c in counts.items() if c < minsup)
        return counts

    monkeypatch.setattr(pincer, "count_many", recording)
    return counted


class BorderRecorder:
    """Observer snapshotting both borders after every pass.

    Given the live set from :func:`record_infrequent`, it also checks that
    the observer's third argument is exactly the itemsets counted
    infrequent so far.
    """

    def __init__(self, counted=None):
        self.counted = counted
        self.snapshots = []

    def __call__(self, k, mfcs, mfs, infrequent):
        counted = None if self.counted is None else frozenset(self.counted)
        self.snapshots.append((k, mfcs, mfs, infrequent, counted))

    def assert_invariants(self):
        assert self.snapshots, "observer never fired"
        for k, mfcs, mfs, infrequent, counted in self.snapshots:
            assert counted is None or infrequent == counted, (
                f"pass {k}: observed infrequent sets are not those counted"
            )
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
    def test_bookstore_all_levels(self, bookstore, monkeypatch):
        count_many = pincer.count_many
        for level, minsup in ((1, 3), (2, 2), (3, 2)):
            matrix = project_to_level(bookstore, level)
            counted = record_infrequent(monkeypatch, count_many, minsup)
            recorder = BorderRecorder(counted)
            pincer_search(matrix, minsup, observer=recorder)
            recorder.assert_invariants()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_runs(self, seed, monkeypatch):
        rng = random.Random(seed)
        matrix = random_matrix(
            rng,
            n_items=rng.randint(1, 10),
            n_transactions=rng.randint(1, 30),
            density=rng.uniform(0.2, 0.7),
        )
        minsup = rng.randint(1, 6)
        counted = record_infrequent(monkeypatch, pincer.count_many, minsup)
        recorder = BorderRecorder(counted)
        pincer_search(matrix, minsup, observer=recorder)
        recorder.assert_invariants()


# Each wide row's trace, pass by pass: (k, candidates, frequent,
# mfcs_size, mfs_size).  The MFCS after each pass is uniquely
# determined, so every exact border construction gives these.
WIDE_STEPS = {
    (30, 2000): [
        (1, 30, 30, 30, 0),
        (2, 435, 435, 435, 0),
        (3, 4060, 0, 435, 0),
    ],
    (20, 500): [
        (1, 20, 20, 20, 0),
        (2, 190, 190, 190, 0),
        (3, 1140, 0, 190, 0),
    ],
}


class TestWideBorders:
    """Borders of hundreds of members, beyond the small random cases."""

    @pytest.mark.parametrize(
        "n_items, n_transactions, density, minsup, peak",
        [(30, 2000, 0.3, 150, 435), (20, 500, 0.5, 90, 190)],
    )
    def test_matches_apriori(
        self, n_items, n_transactions, density, minsup, peak, monkeypatch
    ):
        matrix = random_matrix(random.Random(0), n_items, n_transactions, density)
        counted = record_infrequent(monkeypatch, pincer.count_many, minsup)
        recorder = BorderRecorder(counted)
        result = pincer_search(matrix, minsup, observer=recorder)
        recorder.assert_invariants()
        assert max(s.mfcs_size for s in result.trace.steps) == peak
        expected = [pincer.PassStats(*row) for row in WIDE_STEPS[n_items, n_transactions]]
        assert list(result.trace.steps) == expected
        assert result.trace.passes == expected[-1].k

        frequent = {
            to_mask(fs.itemset): fs.support_count
            for fs in apriori(matrix, minsup).frequent
        }
        maximal = {
            to_items(m): support
            for m, support in frequent.items()
            if not any((m | 1 << i) in frequent for i in range(n_items) if not m >> i & 1)
        }
        assert dict(result.mfs) == maximal


def check_prune(monkeypatch, pincer_prune):
    """Route the search's prunes through ``pincer_prune``, asserting each
    result equals the rule it replaced: keep a candidate inside some MFCS
    member and inside no MFS member.

    Returns the observer that supplies the MFCS, which fires just before
    each prune, and the list of candidate counts of the checked calls.
    """
    border = []
    checked = []

    def observer(k, mfcs, mfs, infrequent):
        border[:] = map(to_mask, mfcs)

    def checking(candidates, mfs, counted):
        got = pincer_prune(candidates, mfs, counted)
        old = {
            c
            for c in candidates
            if any(c & ~m == 0 for m in border) and not any(c & ~f == 0 for f in mfs)
        }
        assert got == old
        checked.append(len(candidates))
        return got

    monkeypatch.setattr(pincer, "pincer_prune", checking)
    return observer, checked


class TestPruneMatchesBorderRule:
    """The prune reads only what was counted and the MFS; on the ladder's
    candidates that agrees with testing each against the whole MFCS."""

    def test_bookstore_all_levels(self, bookstore, monkeypatch):
        pincer_prune = pincer.pincer_prune
        for level, minsup in ((1, 3), (2, 2), (3, 2)):
            observer, checked = check_prune(monkeypatch, pincer_prune)
            pincer_search(project_to_level(bookstore, level), minsup, observer=observer)
            assert sum(checked) > 0

    @pytest.mark.parametrize("seed", range(200))
    def test_random_runs(self, seed, monkeypatch):
        rng = random.Random(seed)
        matrix = random_matrix(
            rng,
            n_items=rng.randint(1, 12),
            n_transactions=rng.randint(1, 40),
            density=rng.uniform(0.1, 0.9),
        )
        observer, _ = check_prune(monkeypatch, pincer.pincer_prune)
        pincer_search(matrix, rng.randint(1, 8), observer=observer)

    @pytest.mark.parametrize(
        "n_items, n_transactions, density, minsup",
        [(30, 2000, 0.3, 150), (20, 500, 0.5, 90)],
    )
    def test_wide_rows(self, n_items, n_transactions, density, minsup, monkeypatch):
        matrix = random_matrix(random.Random(0), n_items, n_transactions, density)
        observer, checked = check_prune(monkeypatch, pincer.pincer_prune)
        pincer_search(matrix, minsup, observer=observer)
        assert sum(checked) > 0


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
        ks = [s.k for s in result.trace.steps]
        assert ks == list(range(1, len(ks) + 1))
        assert ks[-1] == result.trace.passes

    def test_deterministic_across_runs(self, level1):
        a = pincer_search(level1, 3)
        b = pincer_search(level1, 3)
        assert list(a.mfs.items()) == list(b.mfs.items())
        assert a.trace == b.trace
