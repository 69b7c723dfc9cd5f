import pytest

from helpers import idx
from pincer_ml.errors import (
    BadLength,
    IndexOutOfRange,
    LevelOutOfRange,
    UnknownItem,
)
from pincer_ml.itemsets import to_mask
from pincer_ml.gen import random_dataset
from pincer_ml.taxonomy import generalize, load_taxonomy, parse_code
from pincer_ml.transactions import (
    PassCounter,
    count_many,
    count_support,
    load_transactions,
    project_to_level,
)

TINY = load_taxonomy(
    [("A11", "a"), ("A12", "b"), ("B11", "c")]
)


class TestLoadTransactions:
    def test_grouping_keeps_first_appearance_order(self):
        db = load_transactions(
            [("T2", "A11"), ("T1", "B11"), ("T2", "B11")], TINY
        )
        assert [tid for tid, _ in db.transactions] == ["T2", "T1"]
        assert db.transactions[0][1] == frozenset(
            {parse_code("A11"), parse_code("B11")}
        )

    def test_duplicates_collapse(self):
        db = load_transactions([("T1", "A11"), ("T1", "A11")], TINY)
        assert len(db.transactions[0][1]) == 1

    def test_unknown_item(self):
        with pytest.raises(UnknownItem, match="record 2"):
            load_transactions([("T1", "A11"), ("T1", "Z99")], TINY)

    def test_interior_code_is_not_a_basket_item(self):
        with pytest.raises(UnknownItem):
            load_transactions([("T1", "A1*")], TINY)

    def test_malformed_code(self):
        with pytest.raises(BadLength, match="record 1"):
            load_transactions([("T1", "A1")], TINY)

    def test_empty(self):
        db = load_transactions([], TINY)
        assert db.n_transactions == 0


class TestBookstoreDb:
    def test_shape(self, bookstore):
        assert bookstore.n_transactions == 15
        assert len(bookstore) == 15

    def test_first_and_last_basket(self, bookstore):
        tid, items = bookstore.transactions[0]
        assert tid == "T1"
        assert {c.text for c in items} == {"A11", "E11", "F11", "H11"}
        tid, items = bookstore.transactions[-1]
        assert tid == "T15"
        assert {c.text for c in items} == {"B11", "C11", "I11"}

    def test_fingerprint_is_stable(self, bookstore, bookstore_taxonomy):
        from pincer_ml import read_transactions_csv
        from conftest import DATA

        again = read_transactions_csv(DATA / "bookstore.csv", bookstore_taxonomy)
        assert again.fingerprint() == bookstore.fingerprint()

    def test_fingerprint_value(self, bookstore):
        # Recorded before ingest was rewritten; the digest must not move.
        assert bookstore.fingerprint() == (
            "d122a60e8dc43f447f21d08ae00178da3003217b4de2d4509491ce8ef3df2933"
        )

    def test_fingerprint_tracks_content(self, bookstore):
        from pincer_ml.transactions import TransactionDB

        trimmed = TransactionDB(bookstore.transactions[:-1], bookstore.taxonomy)
        assert trimmed.fingerprint() != bookstore.fingerprint()


class TestProjection:
    def test_level1_vocabulary(self, level1):
        assert [c.text for c in level1.vocabulary] == [
            "A**", "B**", "C**", "D**", "E**", "F**", "G**", "H**", "I**",
        ]
        assert level1.n_transactions == 15

    def test_single_item_transaction(self, bookstore):
        # T4 contained only C11, so its level-1 row is just the C bit
        matrix = project_to_level(bookstore, 1)
        c = idx(matrix.vocabulary, "C**")[0]
        assert matrix.rows[3] == 1 << c

    def test_siblings_collapse_to_one_bit(self):
        db = load_transactions([("T1", "A11"), ("T1", "A12")], TINY)
        matrix = project_to_level(db, 2)
        assert matrix.rows[0].bit_count() == 1

    def test_level3_is_leaf_level(self, bookstore):
        matrix = project_to_level(bookstore, 3)
        assert len(matrix.vocabulary) == 16

    def test_filter_restricts_columns(self, bookstore):
        keep = frozenset({parse_code("C1*"), parse_code("D1*")})
        matrix = project_to_level(bookstore, 2, keep)
        assert [c.text for c in matrix.vocabulary] == ["C1*", "D1*"]
        # rows for transactions without C1*/D1* stay, as zero rows
        assert matrix.n_transactions == 15
        assert matrix.rows[0] == 0  # T1 = A11,E11,F11,H11

    def test_filter_depth_must_match(self, bookstore):
        with pytest.raises(LevelOutOfRange):
            project_to_level(bookstore, 2, frozenset({parse_code("C**")}))

    def test_level_out_of_range(self, bookstore):
        with pytest.raises(LevelOutOfRange):
            project_to_level(bookstore, 0)
        with pytest.raises(LevelOutOfRange):
            project_to_level(bookstore, 4)

    def test_empty_filter_gives_zero_width(self, bookstore):
        matrix = project_to_level(bookstore, 2, frozenset())
        assert matrix.vocabulary == ()
        assert all(row == 0 for row in matrix.rows)


def reference_projection(db, level, vocabulary_filter=None):
    """Projection as it was written, one ``generalize`` per item per row."""
    if vocabulary_filter is None:
        vocabulary = db.taxonomy.codes_at_depth(level)
    else:
        vocabulary = tuple(sorted(set(vocabulary_filter)))
    index = {code: j for j, code in enumerate(vocabulary)}
    rows = []
    for _tid, items in db.transactions:
        row = 0
        for leaf in items:
            j = index.get(generalize(leaf, level))
            if j is not None:
                row |= 1 << j
        rows.append(row)
    return vocabulary, tuple(rows)


def every_other(codes):
    return codes[::2]


class TestProjectionAgainstReference:
    def check(self, db, level, vocabulary_filter=None):
        matrix = project_to_level(db, level, vocabulary_filter)
        vocabulary, rows = reference_projection(db, level, vocabulary_filter)
        assert matrix.vocabulary == vocabulary
        assert matrix.rows == rows

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_bookstore(self, bookstore, level):
        self.check(bookstore, level)
        codes = bookstore.taxonomy.codes_at_depth(level)
        self.check(bookstore, level, every_other(codes))
        self.check(bookstore, level, codes[1:2])
        self.check(bookstore, level, [])

    @pytest.mark.parametrize("seed", range(30))
    def test_random_datasets(self, seed):
        db = random_dataset(seed, total_levels=2 + seed % 3, n_transactions=30)
        for level in range(1, db.taxonomy.total_levels + 1):
            self.check(db, level)
            self.check(db, level, every_other(db.taxonomy.codes_at_depth(level)))


class TestCounting:
    def test_column_popcounts_match_singletons(self, level1):
        supports = [col.bit_count() for col in level1.columns]
        assert supports == [2, 5, 8, 7, 10, 5, 7, 4, 2]

    def test_pair_support(self, level1):
        assert count_support(level1, idx(level1.vocabulary, "C**", "D**")) == 5
        assert (
            count_support(
                level1, idx(level1.vocabulary, "C**", "D**", "E**", "G**")
            )
            == 4
        )

    def test_empty_itemset_is_everywhere(self, level1):
        assert count_support(level1, ()) == 15

    def test_index_out_of_range(self, level1):
        with pytest.raises(IndexOutOfRange):
            count_support(level1, (9,))
        with pytest.raises(IndexOutOfRange):
            count_support(level1, (-1,))

    def test_count_many_is_one_pass(self, level1):
        counter = PassCounter()
        a, b, ab = to_mask((0,)), to_mask((1,)), to_mask((0, 1))
        counts = count_many(level1, [a, b, ab], counter)
        assert counter.passes == 1
        assert counts[a] == 2 and counts[b] == 5

    def test_count_many_dedupes(self, level1):
        counter = PassCounter()
        c = to_mask((2,))
        counts = count_many(level1, [c, c], counter)
        assert counts == {c: 8}
        assert counter.passes == 1

    def test_empty_batch_still_counts_a_pass(self, level1):
        counter = PassCounter()
        assert count_many(level1, [], counter) == {}
        assert counter.passes == 1
