import hashlib
import random
import string
import tracemalloc

import pytest

import pincer_ml.taxonomy
from helpers import idx, sweeps
from pincer_ml import transactions
from pincer_ml.errors import ConfigError, MiningError
from pincer_ml.itemsets import to_mask
from pincer_ml.gen import random_dataset, random_matrix, transaction_csv_rows
from pincer_ml.taxonomy import _load_csv, generalize, load_taxonomy, parse_code
from pincer_ml.transactions import (
    count_support,
    load_transactions,
    project_to_level,
)

TINY = load_taxonomy(
    [("A11", "a"), ("A12", "b"), ("B11", "c")]
)


def leaves_of(db, row):
    """The leaf codes that a row of ``db`` holds."""
    assert list(row) == sorted(set(row)), row
    return frozenset(db.leaves[i] for i in row)


class TestLoadTransactions:
    def test_grouping_keeps_first_appearance_order(self):
        db = load_transactions(
            [("T2", "A11"), ("T1", "B11"), ("T2", "B11")], TINY
        )
        assert db.tids == ("T2", "T1")
        assert leaves_of(db, db.rows[0]) == frozenset(
            {parse_code("A11", 3), parse_code("B11", 3)}
        )

    def test_duplicates_collapse(self):
        db = load_transactions([("T1", "A11"), ("T1", "A11")], TINY)
        assert len(leaves_of(db, db.rows[0])) == 1

    def test_unknown_item(self):
        with pytest.raises(MiningError, match="record 2: 'Z99' is not a leaf"):
            load_transactions([("T1", "A11"), ("T1", "Z99")], TINY)

    def test_interior_code_is_not_a_basket_item(self):
        with pytest.raises(MiningError, match=r"^record 1: 'A1\*' is not a leaf"):
            load_transactions([("T1", "A1*")], TINY)

    def test_malformed_code(self):
        with pytest.raises(MiningError, match="record 1: code 'A1': expected 3"):
            load_transactions([("T1", "A1")], TINY)

    def test_empty(self):
        db = load_transactions([], TINY)
        assert db.n_transactions == 0


class TestBookstoreDb:
    def test_shape(self, bookstore):
        assert bookstore.n_transactions == 15

    def test_first_and_last_basket(self, bookstore):
        tid, items = bookstore.tids[0], leaves_of(bookstore, bookstore.rows[0])
        assert tid == "T1"
        assert {c.text for c in items} == {"A11", "E11", "F11", "H11"}
        tid, items = bookstore.tids[-1], leaves_of(bookstore, bookstore.rows[-1])
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

        trimmed = TransactionDB(
            bookstore.tids[:-1], bookstore.rows[:-1], bookstore.taxonomy
        )
        assert trimmed.fingerprint() != bookstore.fingerprint()


# Each pair read the same fingerprint while tids were joined unescaped.
PAIRED_LEAVES = load_taxonomy([("A1", "a"), ("A2", "b")])
TID_COLLISIONS = {
    "comma_joins_an_item": ([("T1", "A1"), ("T1", "A2")], [("T1,A1", "A2")]),
    "bar_joins_a_basket": ([("T1", "A1"), ("T2", "A2")], [("T1,A1|T2", "A2")]),
}


@pytest.mark.parametrize("name", TID_COLLISIONS)
def test_fingerprint_escapes_tids(name):
    first, second = (load_transactions(r, PAIRED_LEAVES) for r in TID_COLLISIONS[name])
    assert (first.tids, first.rows) != (second.tids, second.rows)
    assert first.fingerprint() != second.fingerprint()


def reference_load(records, taxonomy):
    """Grouping as it was written: one frozenset of codes per basket."""
    baskets = {}
    for tid, text in records:
        baskets.setdefault(tid, set()).add(parse_code(text, taxonomy.total_levels))
    return [(tid, frozenset(items)) for tid, items in baskets.items()]


def reference_digest(baskets, taxonomy):
    """The fingerprint as it was written, over sets of codes."""
    parts = [str(taxonomy.total_levels)]
    depth = taxonomy.total_levels
    parts.extend(sorted(code.text for code in taxonomy.names if code.depth == depth))
    for tid, items in baskets:
        parts.append("|" + tid)
        parts.extend("," + text for text in sorted(code.text for code in items))
    return hashlib.sha256("".join(parts).encode()).hexdigest()


class TestLoadAgainstReference:
    def check(self, records, taxonomy):
        db = load_transactions(records, taxonomy)
        baskets = reference_load(records, taxonomy)
        assert db.tids == tuple(tid for tid, _ in baskets)
        assert [leaves_of(db, row) for row in db.rows] == [b for _, b in baskets]
        assert db.fingerprint() == reference_digest(baskets, taxonomy)
        again = load_transactions(transaction_csv_rows(db), taxonomy)
        assert (again.tids, again.rows) == (db.tids, db.rows)

    def test_bookstore(self, bookstore_taxonomy):
        from conftest import DATA

        records = _load_csv(DATA / "bookstore.csv", ("tid", "item"), list)
        self.check(records, bookstore_taxonomy)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_datasets(self, seed):
        taxonomy = random_dataset(seed, total_levels=1 + seed % 4).taxonomy
        texts = [leaf.text for leaf in taxonomy.codes_at_depth(taxonomy.total_levels)]
        # Tids drawn with repeats, so baskets interleave and pairs collapse.
        rng = random.Random(seed)
        records = [(f"T{rng.randint(1, 30)}", rng.choice(texts)) for _ in range(150)]
        self.check(records, taxonomy)


def wide_taxonomy():
    """26 roots of 36 children of 36 leaves: 33,696 leaves."""
    symbols = string.digits + string.ascii_uppercase
    return load_taxonomy(
        (a + b + c, "")
        for a in string.ascii_uppercase
        for b in symbols
        for c in symbols
    )


class TestWideTaxonomy:
    def test_load_memory_does_not_grow_with_width(self):
        # A table of one width-sized int per leaf would take about
        # 70 MB; a row is a few item slots.
        taxonomy = wide_taxonomy()
        texts = [leaf.text for leaf in taxonomy.codes_at_depth(3)]
        rng = random.Random(0)
        records = [(f"T{t}", rng.choice(texts)) for t in range(200) for _ in range(5)]
        tracemalloc.start()
        try:
            db = load_transactions(records, taxonomy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert db.n_transactions == 200
        assert all(db.leaves[i].text in texts for row in db.rows for i in row)

    def test_each_node_is_generalized_once(self, monkeypatch):
        calls = 0

        def counting(code, level):
            nonlocal calls
            calls += 1
            return generalize(code, level)

        monkeypatch.setattr(pincer_ml.taxonomy, "generalize", counting)
        taxonomy = wide_taxonomy()
        sizes = [len(taxonomy.codes_at_depth(d)) for d in (1, 2, 3)]
        assert sizes == [26, 26 * 36, 26 * 36 * 36]
        # One call per node below the roots, none to list a depth.
        assert calls == 26 * 36 + 26 * 36 * 36 == 34_632


class TestProjection:
    def test_level1_vocabulary(self, level1):
        assert [c.text for c in level1.vocabulary] == [
            "A**", "B**", "C**", "D**", "E**", "F**", "G**", "H**", "I**",
        ]
        assert level1.n_transactions == 15

    def test_single_item_transaction(self, bookstore):
        # T4 contained only C11, so at level 1 only the C column holds it
        matrix = project_to_level(bookstore, 1)
        c = idx(matrix.vocabulary, "C**")[0]
        assert [col >> 3 & 1 for col in matrix.columns] == [
            int(j == c) for j in range(len(matrix.vocabulary))
        ]

    def test_siblings_collapse_to_one_bit(self):
        db = load_transactions([("T1", "A11"), ("T1", "A12")], TINY)
        matrix = project_to_level(db, 2)
        assert [c.text for c in matrix.vocabulary] == ["A1*", "B1*"]
        assert matrix.columns == (0b1, 0)

    def test_level3_is_leaf_level(self, bookstore):
        matrix = project_to_level(bookstore, 3)
        assert len(matrix.vocabulary) == 16

    def test_filter_restricts_columns(self, bookstore):
        keep = frozenset({parse_code("C1*", 3), parse_code("D1*", 3)})
        matrix = project_to_level(bookstore, 2, keep)
        assert [c.text for c in matrix.vocabulary] == ["C1*", "D1*"]
        # transactions without C1*/D1* still count
        assert matrix.n_transactions == 15
        assert not any(col & 1 for col in matrix.columns)  # T1 = A11,E11,F11,H11

    def test_filter_depth_must_match(self, bookstore):
        with pytest.raises(MiningError, match=r"'C\*\*' has depth 1, expected 2"):
            project_to_level(bookstore, 2, frozenset({parse_code("C**", 3)}))

    def test_level_out_of_range(self, bookstore):
        with pytest.raises(MiningError, match="level 0 outside 1..3"):
            project_to_level(bookstore, 0)
        with pytest.raises(MiningError, match="level 4 outside 1..3"):
            project_to_level(bookstore, 4)

    def test_empty_filter_gives_zero_width(self, bookstore):
        matrix = project_to_level(bookstore, 2, frozenset())
        assert matrix.vocabulary == ()
        assert matrix.columns == ()
        assert matrix.n_transactions == 15


def reference_projection(db, level, vocabulary_filter=None):
    """Projection as it was written: one row bitset per transaction, with
    one ``generalize`` per item per row, then transposed into columns."""
    if vocabulary_filter is None:
        vocabulary = db.taxonomy.codes_at_depth(level)
    else:
        vocabulary = tuple(sorted(set(vocabulary_filter)))
    index = {code: j for j, code in enumerate(vocabulary)}
    rows = []
    for leaf_row in db.rows:
        row = 0
        for leaf in leaves_of(db, leaf_row):
            j = index.get(generalize(leaf, level))
            if j is not None:
                row |= 1 << j
        rows.append(row)
    columns = [0] * len(vocabulary)
    for t, row in enumerate(rows):
        for j in range(len(vocabulary)):
            if row >> j & 1:
                columns[j] |= 1 << t
    return vocabulary, tuple(columns)


def every_other(codes):
    return codes[::2]


class TestProjectionAgainstReference:
    def check(self, db, level, vocabulary_filter=None):
        matrix = project_to_level(db, level, vocabulary_filter)
        vocabulary, columns = reference_projection(db, level, vocabulary_filter)
        assert matrix.vocabulary == vocabulary
        assert matrix.columns == columns
        assert matrix.n_transactions == len(db.rows)

    def check_filters(self, db, level):
        codes = db.taxonomy.codes_at_depth(level)
        self.check(db, level)
        self.check(db, level, every_other(codes))
        self.check(db, level, codes[1:2])
        self.check(db, level, [])

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_bookstore(self, bookstore, level):
        self.check_filters(bookstore, level)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_datasets(self, seed):
        db = random_dataset(seed, total_levels=2 + seed % 3, n_transactions=30)
        for level in range(1, db.taxonomy.total_levels + 1):
            self.check_filters(db, level)


class TestLeafColumns:
    def test_popcount_is_basket_count(self, bookstore):
        occurs = {i for row in bookstore.rows for i in row}
        assert set(bookstore.leaf_columns) == {bookstore.leaves[i] for i in occurs}
        for i in occurs:
            column = bookstore.leaf_columns[bookstore.leaves[i]]
            assert column.bit_count() == sum(i in row for row in bookstore.rows)
            assert column == sum(1 << t for t, row in enumerate(bookstore.rows) if i in row)

    def test_leaves_that_never_occur_are_absent(self):
        db = load_transactions([("T1", "A11"), ("T2", "A11")], TINY)
        assert db.leaf_columns == {parse_code("A11", 3): 0b11}

    def test_empty_db(self):
        assert load_transactions([], TINY).leaf_columns == {}


class TestRandomMatrix:
    def test_items_are_one_symbol_codes_in_text_order(self):
        matrix = random_matrix(random.Random(0), 52, 3, density=1.0)
        assert [code.depth for code in matrix.vocabulary] == [1] * 52
        assert list(matrix.vocabulary) == sorted(matrix.vocabulary)
        assert matrix.columns == (0b111,) * 52

    def test_more_items_than_symbols(self):
        with pytest.raises(ConfigError):
            random_matrix(random.Random(0), 53, 3)

    def test_density_above_one(self):
        with pytest.raises(ConfigError, match="density must be within \\[0, 1\\], got 1.5"):
            random_matrix(random.Random(0), 3, 3, density=1.5)


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
        with pytest.raises(MiningError, match="index 9 outside vocabulary of width 9"):
            count_support(level1, (9,))
        with pytest.raises(MiningError, match="index -1 outside vocabulary of width 9"):
            count_support(level1, (-1,))

    def test_count_many_is_one_pass(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, transactions)
        a, b, ab = to_mask((0,)), to_mask((1,)), to_mask((0, 1))
        counts = transactions.count_many(level1, [a, b, ab])
        assert swept == [3]
        assert counts[a] == 2 and counts[b] == 5

    def test_count_many_dedupes(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, transactions)
        c = to_mask((2,))
        counts = transactions.count_many(level1, [c, c])
        assert counts == {c: 8}
        assert swept == [1]

    def test_empty_batch_still_counts_a_pass(self, level1, monkeypatch):
        swept = sweeps(monkeypatch, transactions)
        assert transactions.count_many(level1, []) == {}
        assert swept == [0]
