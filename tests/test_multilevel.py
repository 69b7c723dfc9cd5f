import inspect
import random
import warnings
from fractions import Fraction

import pytest

from helpers import frequent_by_text, mfs_by_text
from pincer_ml import baselines, multilevel
from pincer_ml.baselines import ml_t2l1
from pincer_ml.errors import ConfigError, MiningError
from pincer_ml.gen import random_dataset
from pincer_ml.itemsets import BorderState
from pincer_ml.multilevel import (
    DescentPolicy,
    LevelConfig,
    LevelResult,
    descend_vocabulary,
    mine_multilevel,
)
from pincer_ml.pincer import PassStats, PincerResult, PincerTrace, pincer_search
from pincer_ml.rules import FrequentSet, Rule, generate_rules
from pincer_ml.transactions import count_support, project_to_level

FP = DescentPolicy.FREQUENT_PARENTS
MAXIMAL = DescentPolicy.MAXIMAL_ITEMSET_ITEMS


def built_three_ways(minsup_per_level, total_levels):
    """The same config built directly, by ``_make`` and by ``_replace``."""
    return [
        LevelConfig(minsup_per_level, total_levels),
        LevelConfig._make((minsup_per_level, total_levels, FP)),
        LevelConfig((3, 2, 2), 3)._replace(
            minsup_per_level=minsup_per_level, total_levels=total_levels
        ),
    ]


@pytest.fixture
def projections(monkeypatch):
    """A live list of the levels either miner has projected so far."""
    calls = []
    for module in (multilevel, baselines):
        def spy(db, level, vocabulary_filter=None, _real=module.project_to_level):
            calls.append(level)
            return _real(db, level, vocabulary_filter)

        monkeypatch.setattr(module, "project_to_level", spy)
    return calls


def assert_refused(db, projections, fields, error, message):
    """Both miners refuse the config, however it was built, before
    projecting a single level."""
    for miner in (mine_multilevel, ml_t2l1):
        for config in built_three_ways(*fields):
            with pytest.raises(error, match=message):
                miner(db, config)
    assert projections == []


class TestLevelConfig:
    """A config is a plain record; each miner checks it before mining."""

    def test_threshold_count_must_match(self, bookstore, projections):
        message = "2 thresholds given for 3 levels"
        assert_refused(bookstore, projections, ((3, 2), 3), ConfigError, message)

    def test_thresholds_must_be_positive(self, bookstore, projections):
        message = "minsup must be at least 1, got 0"
        assert_refused(bookstore, projections, ((3, 0, 2), 3), ConfigError, message)

    def test_warns_on_rising_threshold(self, bookstore):
        for config in built_three_ways((2, 5, 2), 3):
            with pytest.warns(UserWarning, match="deeper level") as caught:
                mine_multilevel(bookstore, config)
            assert [w.filename for w in caught] == [__file__]
            # The baseline mines the same config without a word.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ml_t2l1(bookstore, config)

    def test_monotone_is_silent(self, bookstore):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3))

    def test_signature_lists_the_fields(self):
        parameters = inspect.signature(LevelConfig).parameters
        assert list(parameters) == [
            "minsup_per_level", "total_levels", "descent_policy",
        ]
        assert parameters["descent_policy"].default is FP

    def test_result_records_hold_one_copy_of_each_value(self):
        # The database size lives on the database, the level on the
        # level's result, and the frequent items in the maximal sets.
        assert FrequentSet._fields == ("itemset", "support_count")
        assert Rule._fields == (
            "antecedent", "consequent", "support_count", "confidence",
        )
        assert PincerResult._fields == ("mfs", "trace")
        # A pass's infrequent count is candidates - frequent, its number
        # is k, and a level's mining passes are its trace's total.
        assert PassStats._fields == ("k", "candidates", "frequent", "mfcs_size", "mfs_size")
        assert LevelResult._fields == (
            "level", "minsup", "vocabulary", "pincer", "frequent", "expansion_passes",
        )
        assert baselines.AprioriPassStats._fields == ("k", "candidates", "frequent")
        assert list(inspect.signature(generate_rules).parameters) == [
            "frequent", "min_conf",
        ]
        # The level to descend to is the prior level's plus one.
        assert list(inspect.signature(descend_vocabulary).parameters) == [
            "taxonomy", "prior", "policy",
        ]

    def test_policy_from_string_value(self):
        assert DescentPolicy("frequent-parents") is FP
        assert DescentPolicy("maximal-itemset-items") is MAXIMAL


# Each value record: its class, constructor arguments, and one field.
VALUE_RECORDS = {
    "LevelConfig": (LevelConfig, ((3, 2, 2), 3, MAXIMAL), "total_levels"),
    "PassStats": (PassStats, (2, 10, 4, 3, 1), "k"),
    "PincerTrace": (PincerTrace, ((PassStats(1, 5, 5, 1, 0),), 1), "passes"),
    "BorderState": (BorderState, (frozenset({0b11}), frozenset({0b100})), "mfcs"),
    "FrequentSet": (FrequentSet, ((0, 2), 3), "support_count"),
    "Rule": (Rule, ((0,), (2,), 3, Fraction(3, 4)), "confidence"),
}


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_compare_hash_and_refuse_assignment(name):
    cls, args, field = VALUE_RECORDS[name]
    record, twin = cls(*args), cls(*args)
    assert record == twin
    assert hash(record) == hash(twin)
    for attribute in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, getattr(twin, field))


def searched(matrix, minsup, level=1):
    """The level result ``mine_multilevel`` would descend from, less the
    expansion, which descent does not read."""
    found = pincer_search(matrix, minsup)
    return LevelResult(level, minsup, matrix.vocabulary, found, (), 0)


class TestDescent:
    def test_level_bounds(self, bookstore_taxonomy, level1):
        with pytest.raises(MiningError, match=r"levels 2\.\.3, got 1$"):
            descend_vocabulary(bookstore_taxonomy, searched(level1, 3, level=0), FP)
        with pytest.raises(MiningError, match=r"levels 2\.\.3, got 4$"):
            descend_vocabulary(bookstore_taxonomy, searched(level1, 3, level=3), FP)

    def test_frequent_parents_level2(self, bookstore_taxonomy, level1):
        kept = descend_vocabulary(bookstore_taxonomy, searched(level1, 3), FP)
        assert {c.text for c in kept} == {
            "B1*", "C1*", "D1*", "E1*", "F1*", "G1*", "H1*",
        }

    def test_maximal_policy_level2(self, bookstore_taxonomy, level1):
        kept = descend_vocabulary(bookstore_taxonomy, searched(level1, 3), MAXIMAL)
        assert {c.text for c in kept} == {"C1*", "D1*", "E1*", "G1*"}

    def test_maximal_policy_keeps_every_widest_set(self, bookstore):
        # At minsup 7 level 1's maximal sets are four singletons, all
        # equally wide: each one's children descend.
        result = mine_multilevel(bookstore, LevelConfig((7, 2, 2), 3, MAXIMAL))
        level1, level2 = result.levels[:2]
        assert mfs_by_text(level1.pincer.mfs, level1.vocabulary) == {
            ("C**",): 8, ("D**",): 7, ("E**",): 10, ("G**",): 7,
        }
        assert [c.text for c in level2.vocabulary] == ["C1*", "D1*", "E1*", "G1*"]

    def test_empty_prior_descends_to_nothing(self, bookstore_taxonomy, level1):
        prior = searched(level1, 16)
        for policy in (FP, MAXIMAL):
            assert descend_vocabulary(bookstore_taxonomy, prior, policy) == frozenset()


class TestBookstoreRun:
    def test_frequent_parents_totals(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, FP))
        assert result.mining_passes == 9
        assert result.expansion_passes == 3
        assert result.total_passes == 12
        assert [lr.pincer.trace.passes for lr in result.levels] == [3, 3, 3]
        assert [len(lr.vocabulary) for lr in result.levels] == [9, 7, 14]
        assert [len(lr.frequent) for lr in result.levels] == [21, 26, 25]
        assert result.db.fingerprint() == bookstore.fingerprint()

    def test_frequent_parents_level2_border(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, FP))
        lr = result.levels[1]
        assert mfs_by_text(lr.pincer.mfs, lr.vocabulary) == {
            ("B1*", "C1*"): 3,
            ("B1*", "D1*"): 2,
            ("B1*", "F1*"): 2,
            ("F1*", "G1*"): 2,
            ("E1*", "F1*", "H1*"): 2,
            ("C1*", "D1*", "E1*", "G1*"): 4,
        }

    def test_frequent_parents_level3_border(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, FP))
        lr = result.levels[2]
        assert mfs_by_text(lr.pincer.mfs, lr.vocabulary) == {
            ("B12",): 2,
            ("D11",): 3,
            ("F12",): 2,
            ("B11", "C11"): 2,
            ("C11", "D12"): 2,
            ("C12", "E12"): 2,
            ("E12", "G12"): 2,
            ("D12", "E11", "G11"): 2,
            ("E11", "F11", "H11"): 2,
        }

    def test_maximal_policy_totals(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, MAXIMAL))
        assert result.mining_passes == 7
        assert [lr.pincer.trace.passes for lr in result.levels] == [3, 1, 3]
        assert [len(lr.vocabulary) for lr in result.levels] == [9, 4, 8]

    def test_maximal_policy_level2_is_single_pass_single_set(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, MAXIMAL))
        lr = result.levels[1]
        assert lr.pincer.trace.passes == 1
        assert mfs_by_text(lr.pincer.mfs, lr.vocabulary) == {
            ("C1*", "D1*", "E1*", "G1*"): 4,
        }

    def test_maximal_policy_level3_border(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, MAXIMAL))
        lr = result.levels[2]
        assert mfs_by_text(lr.pincer.mfs, lr.vocabulary) == {
            ("D11",): 3,
            ("C11", "D12"): 2,
            ("C12", "E12"): 2,
            ("E12", "G12"): 2,
            ("D12", "E11", "G11"): 2,
        }

    def test_level2_supports(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, FP))
        lr = result.levels[1]
        supports = frequent_by_text(lr.frequent, lr.vocabulary)
        assert supports[("C1*",)] == 8
        assert supports[("D1*",)] == 7
        assert supports[("E1*",)] == 10
        assert supports[("F1*",)] == 5
        assert supports[("G1*",)] == 7
        assert supports[("C1*", "D1*")] == 5

    def test_reported_supports_are_recountable(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, FP))
        for lr in result.levels:
            matrix = project_to_level(bookstore, lr.level, frozenset(lr.vocabulary))
            for fs in lr.frequent:
                assert count_support(matrix, fs.itemset) == fs.support_count
            for s, support in lr.pincer.mfs.items():
                assert count_support(matrix, s) == support

    def test_unreachable_level1_threshold_stops_descent(self, bookstore):
        result = mine_multilevel(bookstore, LevelConfig((16, 16, 16), 3, FP))
        assert len(result.levels) == 3
        assert result.mining_passes == 1
        assert result.expansion_passes == 0
        assert all(lr.frequent == () for lr in result.levels)
        assert [len(lr.vocabulary) for lr in result.levels] == [9, 0, 0]

    def test_total_levels_must_match_taxonomy(self, bookstore, projections):
        message = "config covers 2 levels but the taxonomy has 3"
        assert_refused(bookstore, projections, ((3, 2), 2), ConfigError, message)

    def test_maximal_vocabulary_is_subset_of_frequent_parents(self, bookstore):
        narrow = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, MAXIMAL))
        wide = mine_multilevel(bookstore, LevelConfig((3, 2, 2), 3, FP))
        for lr_n, lr_w in zip(narrow.levels, wide.levels):
            assert set(lr_n.vocabulary) <= set(lr_w.vocabulary)


@pytest.mark.parametrize("seed", range(20))
def test_policy_dominance_on_random_data(seed):
    db = random_dataset(seed, n_roots=4, max_children=3, n_transactions=25)
    minsup = (random.Random(seed).randint(1, 5),) * 3
    narrow = mine_multilevel(db, LevelConfig(minsup, 3, MAXIMAL))
    wide = mine_multilevel(db, LevelConfig(minsup, 3, FP))
    for lr_n, lr_w in zip(narrow.levels, wide.levels):
        assert set(lr_n.vocabulary) <= set(lr_w.vocabulary)
        # anything the narrow run finds, the wide run must also find
        narrow_sets = {
            tuple(lr_n.vocabulary[i].text for i in fs.itemset): fs.support_count
            for fs in lr_n.frequent
        }
        wide_sets = {
            tuple(lr_w.vocabulary[i].text for i in fs.itemset): fs.support_count
            for fs in lr_w.frequent
        }
        for s, support in narrow_sets.items():
            assert wide_sets.get(s) == support


def test_wide_level_matches_ml_t2l1():
    """A 698-item third level whose maximal sets are all pairs or smaller:
    the border there is the maximal cliques of the frequent-pair graph."""
    db = random_dataset(
        10, n_roots=26, max_children=9, total_levels=3, n_transactions=300, max_items=6
    )
    config = LevelConfig((6, 2, 2), 3)
    mined = mine_multilevel(db, config)
    baseline = ml_t2l1(db, config)
    assert len(mined.levels[2].vocabulary) == 698
    assert max(len(s) for s in mined.levels[2].pincer.mfs) == 2
    for lr, base in zip(mined.levels, baseline.levels, strict=True):
        assert frequent_by_text(lr.frequent, lr.vocabulary) == frequent_by_text(
            base.frequent, base.vocabulary
        )
