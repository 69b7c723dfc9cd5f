import random

import pytest

from helpers import frequent_by_text, sweeps
from pincer_ml import baselines
from pincer_ml.baselines import apriori, compare, ml_t2l1
from pincer_ml.errors import ConfigError, MiningError
from pincer_ml.gen import random_dataset, random_matrix
from pincer_ml.multilevel import DescentPolicy, LevelConfig, mine_multilevel
from pincer_ml.oracle import brute_force
from pincer_ml.pincer import pincer_search
from pincer_ml.rules import expand_frequent

FP = DescentPolicy.FREQUENT_PARENTS


class TestApriori:
    def test_bookstore_level1(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, baselines)
        result = apriori(level1, 3)
        assert swept == [9, 21, 4, 1]
        assert result.passes == 4
        assert [s.candidates for s in result.trace] == [9, 21, 4, 1]
        assert [s.frequent for s in result.trace] == [7, 9, 4, 1]
        assert len(result.frequent) == 21

    def test_largest_frequent_set(self, level1):
        result = apriori(level1, 3)
        supports = frequent_by_text(result.frequent, level1.vocabulary)
        assert supports[("C**", "D**", "E**", "G**")] == 4
        widest = max(len(s) for s in supports)
        assert widest == 4

    def test_unreachable_threshold_is_one_pass(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, baselines)
        result = apriori(level1, 16)
        assert len(swept) == 1
        assert result.passes == 1
        assert result.frequent == ()

    def test_empty_matrix_is_zero_passes(self, monkeypatch):
        matrix = random_matrix(random.Random(0), n_items=3, n_transactions=0)
        swept = sweeps(monkeypatch, baselines)
        result = apriori(matrix, 1)
        assert swept == []
        assert result.passes == 0
        assert result.frequent == ()

    def test_invalid_minsup(self, level1):
        with pytest.raises(ConfigError, match="minsup must be at least 1, got 0$"):
            apriori(level1, 0)

    def test_matches_oracle(self, level1):
        result = apriori(level1, 3)
        oracle = brute_force(level1, 3)
        assert {
            fs.itemset: fs.support_count for fs in result.frequent
        } == oracle.frequent


class TestMlT2l1:
    def test_bookstore_run(self, bookstore):
        result = ml_t2l1(bookstore, LevelConfig((3, 2, 2), 3, FP))
        assert result.passes == 11
        assert [lr.passes for lr in result.levels] == [4, 4, 3]
        assert [len(lr.vocabulary) for lr in result.levels] == [9, 7, 14]
        assert [len(lr.frequent) for lr in result.levels] == [21, 26, 25]
        assert result.db.fingerprint() == bookstore.fingerprint()

    def test_agrees_with_pincer_everywhere(self, bookstore):
        config = LevelConfig((3, 2, 2), 3, FP)
        fast = mine_multilevel(bookstore, config)
        slow = ml_t2l1(bookstore, config)
        for lr_f, lr_s in zip(fast.levels, slow.levels):
            assert lr_f.vocabulary == lr_s.vocabulary
            fast_sets = {fs.itemset: fs.support_count for fs in lr_f.frequent}
            slow_sets = {fs.itemset: fs.support_count for fs in lr_s.frequent}
            assert fast_sets == slow_sets

    def test_dead_level_descends_to_nothing(self, bookstore):
        result = ml_t2l1(bookstore, LevelConfig((16, 16, 16), 3, FP))
        assert [len(lr.vocabulary) for lr in result.levels] == [9, 0, 0]
        assert result.passes == 1


class TestCompare:
    def test_bookstore_pass_advantage(self, bookstore):
        config = LevelConfig((3, 2, 2), 3, FP)
        report = compare(mine_multilevel(bookstore, config), ml_t2l1(bookstore, config))
        assert report.pincer_passes == 9
        assert report.baseline_passes == 11
        assert report.pincer_passes < report.baseline_passes
        assert report.pincer_expansion_passes == 3
        assert report.results_match

    def test_per_level_passes(self, bookstore):
        config = LevelConfig((3, 2, 2), 3, FP)
        report = compare(mine_multilevel(bookstore, config), ml_t2l1(bookstore, config))
        assert [(l.pincer_passes, l.baseline_passes) for l in report.levels] == [
            (3, 4), (3, 4), (3, 3),
        ]

    def test_level1_candidate_totals(self, bookstore):
        config = LevelConfig((3, 2, 2), 3, FP)
        report = compare(mine_multilevel(bookstore, config), ml_t2l1(bookstore, config))
        level1 = report.levels[0]
        assert sum(r.pincer_candidates for r in level1.rows) == 34
        assert sum(r.baseline_candidates for r in level1.rows) == 35
        final = [r for r in level1.rows if r.k == 4][0]
        # the ladder pays one more pass for the 4-set the border already settled
        assert final.pincer_candidates == 0
        assert final.baseline_candidates == 1
        assert final.pincer_frequent == final.baseline_frequent == 1

    def test_candidate_grand_totals(self, bookstore):
        config = LevelConfig((3, 2, 2), 3, FP)
        report = compare(mine_multilevel(bookstore, config), ml_t2l1(bookstore, config))
        pincer_total = sum(r.pincer_candidates for l in report.levels for r in l.rows)
        baseline_total = sum(
            r.baseline_candidates for l in report.levels for r in l.rows
        )
        assert pincer_total == 163
        assert baseline_total == 165
        assert pincer_total <= baseline_total

    def test_rows_list_every_frequent_itemset(self, bookstore):
        config = LevelConfig((3, 2, 2), 3, FP)
        mined = mine_multilevel(bookstore, config)
        report = compare(mined, ml_t2l1(bookstore, config))
        for lr, comparison in zip(mined.levels, report.levels):
            listed = sum(len(r.frequent_itemsets) for r in comparison.rows)
            assert listed == len(lr.frequent)

    def test_mismatched_datasets_are_rejected(self, bookstore):
        config = LevelConfig((3, 2, 2), 3, FP)
        mined = mine_multilevel(bookstore, config)
        other = random_dataset(3, n_roots=4, max_children=3, n_transactions=10)
        baseline = ml_t2l1(other, LevelConfig((2, 2, 2), 3, FP))
        with pytest.raises(MiningError, match="produced from different datasets"):
            compare(mined, baseline)


@pytest.mark.parametrize("seed", range(40))
def test_apriori_and_pincer_agree_on_random_matrices(seed):
    rng = random.Random(seed)
    matrix = random_matrix(
        rng,
        n_items=rng.randint(1, 9),
        n_transactions=rng.randint(1, 25),
        density=rng.uniform(0.2, 0.8),
    )
    minsup = rng.randint(1, 5)
    ladder = apriori(matrix, minsup)
    border = pincer_search(matrix, minsup)
    expanded = expand_frequent(frozenset(border.mfs), matrix)
    assert {fs.itemset: fs.support_count for fs in ladder.frequent} == {
        fs.itemset: fs.support_count for fs in expanded
    }
