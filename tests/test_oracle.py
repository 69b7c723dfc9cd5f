import random
from itertools import combinations

import pytest

from helpers import idx
from pincer_ml.errors import LimitError
from pincer_ml.gen import random_matrix
from pincer_ml.oracle import MAX_ORACLE_ITEMS, brute_force
from pincer_ml.taxonomy import ItemCode
from pincer_ml.transactions import LevelMatrix


def _matrix(columns, n_transactions):
    vocabulary = tuple(ItemCode(chr(65 + i)) for i in range(len(columns)))
    return LevelMatrix(1, vocabulary, n_transactions, dict(zip(vocabulary, columns)))


class TestTiny:
    def test_hand_enumerable(self):
        # items A,B together in rows 0-1; C alone in row 2
        matrix = _matrix([0b011, 0b011, 0b100], 3)
        got = brute_force(matrix, 1)
        assert got.frequent == {(0,): 2, (1,): 2, (0, 1): 2, (2,): 1}
        assert got.maximal == frozenset({(0, 1), (2,)})

    def test_threshold_filters(self):
        matrix = _matrix([0b011, 0b011, 0b100], 3)
        got = brute_force(matrix, 2)
        assert got.frequent == {(0,): 2, (1,): 2, (0, 1): 2}
        assert got.maximal == frozenset({(0, 1)})

    def test_nothing_frequent(self):
        # A only in row 0, B only in row 1
        matrix = _matrix([0b01, 0b10], 2)
        got = brute_force(matrix, 2)
        assert got.frequent == {}
        assert got.maximal == frozenset()

    def test_empty_matrix(self):
        matrix = _matrix([0, 0, 0], 0)
        got = brute_force(matrix, 1)
        assert got.frequent == {}
        assert got.maximal == frozenset()


class TestBookstore:
    def test_level1_family(self, level1):
        got = brute_force(level1, 3)
        assert len(got.frequent) == 21
        v = level1.vocabulary
        assert got.maximal == frozenset(
            {
                idx(v, "B**", "C**"),
                idx(v, "E**", "F**"),
                idx(v, "E**", "H**"),
                idx(v, "C**", "D**", "E**", "G**"),
            }
        )
        assert got.frequent[idx(v, "C**", "D**", "E**", "G**")] == 4
        assert got.frequent[idx(v, "C**", "D**")] == 5


class TestLimits:
    def test_vocabulary_cap(self):
        matrix = random_matrix(random.Random(0), MAX_ORACLE_ITEMS + 1, 3)
        message = f"^{MAX_ORACLE_ITEMS + 1} items exceed .* of {MAX_ORACLE_ITEMS}$"
        with pytest.raises(LimitError, match=message):
            brute_force(matrix, 1)

    def test_cap_is_inclusive(self):
        matrix = random_matrix(random.Random(0), MAX_ORACLE_ITEMS, 2)
        brute_force(matrix, 2)  # must not raise


@pytest.mark.parametrize("seed", range(30))
def test_structural_properties(seed):
    rng = random.Random(seed)
    matrix = random_matrix(
        rng,
        n_items=rng.randint(1, 9),
        n_transactions=rng.randint(1, 20),
        density=rng.uniform(0.2, 0.8),
    )
    minsup = rng.randint(1, 5)
    got = brute_force(matrix, minsup)

    for s, support in got.frequent.items():
        assert support >= minsup
        # downward closure: subsets are frequent with no smaller support
        for size in range(1, len(s)):
            for sub in combinations(s, size):
                assert sub in got.frequent
                assert got.frequent[sub] >= support

    for m in got.maximal:
        assert m in got.frequent
        for other in got.maximal:
            assert m == other or not set(m) <= set(other)
        # no frequent strict superset anywhere
        for s in got.frequent:
            assert s == m or not set(m) < set(s)

    for s in got.frequent:
        assert any(set(s) <= set(m) for m in got.maximal)
