import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import idx, names, sweeps
from pincer_ml import rules as rules_module
from pincer_ml.errors import ConfigError, LimitError, MiningError
from pincer_ml.gen import random_matrix
from pincer_ml.pincer import pincer_search
from pincer_ml.rules import FrequentSet, Rule, expand_frequent, generate_rules


@pytest.fixture(scope="module")
def level1_frequent(level1):
    result = pincer_search(level1, 3)
    return expand_frequent(frozenset(result.mfs), level1)


class TestExpand:
    def test_counts_every_subset_of_the_border(self, level1, level1_frequent):
        got = {fs.itemset: fs.support_count for fs in level1_frequent}
        cdeg = idx(level1.vocabulary, "C**", "D**", "E**", "G**")
        for size in range(1, 5):
            for sub in combinations(cdeg, size):
                assert sub in got
        assert len(got) == 21

    def test_specific_supports(self, level1, level1_frequent):
        got = {fs.itemset: fs.support_count for fs in level1_frequent}
        v = level1.vocabulary
        assert got[idx(v, "C**", "D**")] == 5
        assert got[idx(v, "D**", "E**", "G**")] == 5
        assert got[idx(v, "E**", "G**")] == 6
        assert got[idx(v, "C**", "D**", "E**", "G**")] == 4
        assert got[idx(v, "B**", "C**")] == 3

    def test_single_extra_pass(self, level1, monkeypatch):
        result = pincer_search(level1, 3)
        swept = sweeps(monkeypatch, rules_module)
        expand_frequent(frozenset(result.mfs), level1)
        assert swept == [21]

    def test_empty_border_costs_nothing(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, rules_module)
        assert expand_frequent(frozenset(), level1) == ()
        assert swept == []

    def test_singleton_border(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, rules_module)
        got = expand_frequent({(2,)}, level1)
        assert [(fs.itemset, fs.support_count) for fs in got] == [((2,), 8)]
        assert swept == [1]

    def test_output_sorted_by_size_then_items(self, level1_frequent):
        keys = [fs.itemset for fs in level1_frequent]
        assert keys == sorted(keys, key=lambda s: (len(s), s))

    def test_refuses_gigantic_members(self, monkeypatch):
        rng = random.Random(0)
        matrix = random_matrix(rng, n_items=26, n_transactions=4)
        swept = sweeps(monkeypatch, rules_module)
        with pytest.raises(LimitError, match=r"33554432 subsets.* 1048576$"):
            expand_frequent({tuple(range(25))}, matrix)
        assert swept == []

    def test_refuses_21_items_before_enumerating(self, monkeypatch):
        # 2**21 subsets is twice the limit; nothing is enumerated or counted.
        matrix = random_matrix(random.Random(0), n_items=21, n_transactions=4)
        swept = sweeps(monkeypatch, rules_module)
        with pytest.raises(LimitError, match=r"2097152 subsets.* 1048576$"):
            expand_frequent({tuple(range(21))}, matrix)
        assert swept == []

    def test_limit_sums_over_the_family(self, monkeypatch):
        # Two 20-item sets: each alone is within the limit, together not.
        matrix = random_matrix(random.Random(0), n_items=21, n_transactions=4)
        swept = sweeps(monkeypatch, rules_module)
        with pytest.raises(LimitError, match=r"2097152 subsets"):
            expand_frequent({tuple(range(20)), tuple(range(1, 21))}, matrix)
        assert swept == []


class TestRules:
    def test_confidence_one_rules(self, level1, level1_frequent):
        rules = generate_rules(level1_frequent, Fraction(1))
        assert len(rules) == 8
        v = level1.vocabulary
        as_text = {
            (names(v, r.antecedent), names(v, r.consequent)) for r in rules
        }
        assert (("D**", "G**"), ("E**",)) in as_text
        assert (("D**", "E**"), ("G**",)) in as_text
        assert all(r.confidence == 1 for r in rules)

    def test_example_confidences(self, level1, level1_frequent):
        rules = generate_rules(level1_frequent, Fraction(1, 2))
        v = level1.vocabulary
        table = {
            (names(v, r.antecedent), names(v, r.consequent)): r.confidence
            for r in rules
        }
        assert table[(("C**",), ("D**",))] == Fraction(5, 8)
        assert table[(("D**", "G**"), ("E**",))] == Fraction(1)
        assert table[(("G**",), ("E**",))] == Fraction(6, 7)

    def test_confidence_matches_raw_counts(self, level1_frequent):
        lookup = {fs.itemset: fs.support_count for fs in level1_frequent}
        rules = generate_rules(level1_frequent, Fraction(1, 2))
        for r in rules:
            z = tuple(sorted(r.antecedent + r.consequent))
            assert r.confidence == Fraction(lookup[z], lookup[r.antecedent])
            assert r.support_count == lookup[z]

    def test_total_rule_count_without_filtering(self, level1_frequent):
        # each frequent set of size m contributes 2**m - 2 candidate rules
        expected = sum(
            2 ** len(fs.itemset) - 2
            for fs in level1_frequent
            if len(fs.itemset) >= 2
        )
        rules = generate_rules(level1_frequent, Fraction(1, 1000))
        assert len(rules) == expected == 56

    def test_sorted_by_confidence_then_support(self, level1_frequent):
        rules = generate_rules(level1_frequent, Fraction(1, 2))
        keys = [(-r.confidence, -r.support_count) for r in rules]
        assert keys == sorted(keys)

    def test_min_conf_bounds(self, level1_frequent):
        with pytest.raises(ConfigError, match=r"must be in \(0, 1\], got 0$"):
            generate_rules(level1_frequent, 0)
        with pytest.raises(ConfigError, match=r"must be in \(0, 1\], got 3/2$"):
            generate_rules(level1_frequent, Fraction(3, 2))

    def test_missing_subset_support(self):
        frequent = [
            FrequentSet((0,), 5),
            FrequentSet((0, 1), 3),  # (1,) deliberately absent
        ]
        message = r"for \(1,\), needed by a rule from \(0, 1\)"
        with pytest.raises(MiningError, match=message):
            generate_rules(frequent, Fraction(1, 2))

    def test_singletons_alone_make_no_rules(self):
        frequent = [FrequentSet((0,), 5), FrequentSet((1,), 4)]
        assert generate_rules(frequent, Fraction(1, 2)) == []

    def test_float_min_conf_accepted(self, level1_frequent):
        via_float = generate_rules(level1_frequent, 0.5)
        via_fraction = generate_rules(level1_frequent, Fraction(1, 2))
        assert via_float == via_fraction


def reference_rules(frequent, min_conf):
    """Rule generation as it was written on index tuples, for comparison."""
    lookup = {fs.itemset: fs.support_count for fs in frequent}
    rules = []
    for z, z_support in lookup.items():
        for size in range(1, len(z)):
            for antecedent in combinations(z, size):
                x_support = lookup.get(antecedent)
                if x_support is None:
                    raise MiningError(f"no support recorded for {antecedent}")
                confidence = Fraction(z_support, x_support)
                if confidence >= min_conf:
                    consequent = tuple(i for i in z if i not in antecedent)
                    rules.append(
                        Rule(antecedent, consequent, z_support, confidence)
                    )
    rules.sort(
        key=lambda r: (-r.confidence, -r.support_count, r.antecedent, r.consequent)
    )
    return rules


def random_family(rng, supports=(1, 12)):
    """Every nonempty subset of a few random sets, each with a random support."""
    n_items = rng.randint(1, 10)
    itemsets = set()
    for _ in range(rng.randint(1, 4)):
        top = rng.sample(range(n_items), rng.randint(1, min(n_items, 6)))
        for size in range(1, len(top) + 1):
            itemsets.update(tuple(sorted(s)) for s in combinations(top, size))
    return [
        FrequentSet(s, rng.randint(*supports)) for s in sorted(itemsets)
    ]


# Small supports put many confidences exactly on the threshold.  Supports
# just under 2**40 give distinct confidences a float cannot tell apart.
SUPPORT_RANGES = [(1, 12), (1, 2**40), (2**40 - 12, 2**40)]


# 0.1 and 0.2 lie just above 1/10 and 1/5, which supports up to 12 can hit,
# so rounding the float threshold to its decimal would be caught.
MIN_CONFS = [
    Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(1, 12),
    0.1, 0.2, 0.5, 0.75, 0.93, 0.1 + 0.2, 1 / 3,
]


class TestRulesAgainstReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_equal_on_random_families(self, seed):
        for supports in SUPPORT_RANGES:
            frequent = random_family(random.Random(seed), supports)
            for min_conf in MIN_CONFS:
                got = generate_rules(frequent, min_conf)
                assert got == reference_rules(frequent, min_conf)

    def test_order_of_confidences_equal_as_floats(self):
        # 0 -> 1 has confidence (2**30 - 1) / 2**30 and 2 -> 3 has
        # (2**31 - 4) / (2**31 - 2), which is smaller by about 2**-60: both
        # round to the same float, and 2 -> 3 has the larger support.
        n = 2**30
        frequent = [
            FrequentSet((0,), n),
            FrequentSet((1,), n),
            FrequentSet((0, 1), n - 1),
            FrequentSet((2,), 2 * n - 2),
            FrequentSet((3,), 2 * n - 2),
            FrequentSet((2, 3), 2 * n - 4),
        ]
        assert float(Fraction(n - 1, n)) == float(Fraction(2 * n - 4, 2 * n - 2))
        got = generate_rules(frequent, Fraction(1, 2))
        assert got == reference_rules(frequent, Fraction(1, 2))
        assert [(r.antecedent, r.consequent) for r in got] == [
            ((0,), (1,)), ((1,), (0,)), ((2,), (3,)), ((3,), (2,)),
        ]

    @pytest.mark.parametrize("seed", range(20))
    def test_both_refuse_a_family_missing_a_subset(self, seed):
        rng = random.Random(seed)
        wide = []
        while not wide:
            frequent = random_family(rng)
            wide = [fs for fs in frequent if len(fs.itemset) >= 2]
        z = rng.choice(wide).itemset
        gone = rng.choice(
            [s for size in range(1, len(z)) for s in combinations(z, size)]
        )
        holed = [fs for fs in frequent if fs.itemset != gone]
        # ``gone`` is the only missing subset, so both name it.
        message = re.escape(f"no support recorded for {gone}")
        with pytest.raises(MiningError, match=message):
            reference_rules(holed, Fraction(1, 2))
        with pytest.raises(MiningError, match=message):
            generate_rules(holed, Fraction(1, 2))

    def test_equal_on_mined_families(self):
        rng = random.Random(7)
        for _ in range(10):
            matrix = random_matrix(rng, 8, 40, density=0.5)
            result = pincer_search(matrix, 8)
            frequent = expand_frequent(frozenset(result.mfs), matrix)
            for min_conf in (Fraction(3, 4), 0.6):
                got = generate_rules(frequent, min_conf)
                assert got == reference_rules(frequent, min_conf)


def every_subset(n_items, support):
    """Every nonempty subset of ``range(n_items)``, its support from its size."""
    return [
        FrequentSet(s, support(len(s)))
        for size in range(1, n_items + 1)
        for s in combinations(range(n_items), size)
    ]


class TestRuleWork:
    def test_refuses_a_family_over_the_candidate_limit(self):
        # 13 items give 3**13 - 2**14 + 1 raw rules.
        frequent = every_subset(13, lambda size: 20)
        with pytest.raises(LimitError, match=r"1577940 .* 1048576"):
            generate_rules(frequent, Fraction(1, 2))

    def test_refuses_before_walking(self):
        # A missing subset would stop the walk; the limit is checked first.
        frequent = every_subset(13, lambda size: 20)
        del frequent[0]
        with pytest.raises(LimitError, match=r"1577940 candidate rules"):
            generate_rules(frequent, Fraction(1, 2))

    def test_twelve_items_are_within_the_limit(self):
        # 523,250 raw rules; every confidence is below 1, so none is kept.
        frequent = every_subset(12, lambda size: 50 - size)
        assert generate_rules(frequent, 1) == []

    def test_names_each_frequent_set_at_most_once(self, monkeypatch):
        calls = []
        real_to_items = rules_module.to_items

        def counting(mask):
            calls.append(mask)
            return real_to_items(mask)

        monkeypatch.setattr(rules_module, "to_items", counting)
        rng = random.Random(11)
        for _ in range(10):
            matrix = random_matrix(rng, 8, 40, density=0.5)
            result = pincer_search(matrix, 8)
            frequent = expand_frequent(frozenset(result.mfs), matrix)
            calls.clear()
            got = generate_rules(frequent, Fraction(1, 2))
            assert got == reference_rules(frequent, Fraction(1, 2))
            assert len(calls) <= len(frequent)

    def test_rules_sharing_a_ratio_share_its_fraction(self, level1_frequent):
        got = generate_rules(level1_frequent, Fraction(1, 2))
        by_ratio = {}
        for r in got:
            by_ratio.setdefault((r.support_count, r.confidence), []).append(r)
        assert any(len(same) > 1 for same in by_ratio.values())
        for same in by_ratio.values():
            assert len({id(r.confidence) for r in same}) == 1
