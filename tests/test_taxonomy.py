import itertools
import string
import sys

import pytest

from pincer_ml.errors import ConfigError, MiningError
from pincer_ml.gen import random_dataset
from pincer_ml.taxonomy import (
    ItemCode,
    generalize,
    load_taxonomy,
    parse_code,
    read_taxonomy_csv,
)


class TestParseCode:
    def test_leaf(self):
        code = parse_code("C12", 3)
        assert code == "C12"
        assert code.depth == 3
        assert code.text == "C12"

    def test_interior(self):
        assert parse_code("C1*", 3).depth == 2
        assert parse_code("C**", 3).depth == 1

    def test_padding_roundtrip(self):
        for text in ("A**", "B1*", "D12"):
            assert parse_code(text, 3).text == text

    def test_wrong_width(self):
        with pytest.raises(MiningError, match="expected 3 symbols, got 2"):
            parse_code("C1", 3)
        with pytest.raises(MiningError, match="expected 3 symbols, got 4"):
            parse_code("C123", 3)

    def test_wildcard_must_be_suffix(self):
        with pytest.raises(MiningError, match=r"branch symbol after '\*'"):
            parse_code("C*2", 3)

    def test_all_wildcards(self):
        with pytest.raises(MiningError, match="is all wildcards"):
            parse_code("***", 3)

    def test_non_alphanumeric(self):
        with pytest.raises(MiningError, match="symbol '-' is not alphanumeric"):
            parse_code("C-2", 3)
        with pytest.raises(MiningError, match="symbol ' ' is not alphanumeric"):
            parse_code("C 2", 3)

    def test_custom_width(self):
        code = parse_code("AB1*", total_levels=4)
        assert code.depth == 3


class TestGeneralize:
    def test_chain(self):
        leaf = parse_code("C12", 3)
        assert generalize(leaf, 2).text == "C1*"
        assert generalize(leaf, 1).text == "C**"
        assert generalize(leaf, 3) == leaf

    def test_out_of_range(self):
        with pytest.raises(MiningError, match=r"'C12' \(depth 3\) to level 0"):
            generalize(parse_code("C12", 3), 0)
        with pytest.raises(MiningError, match=r"'C1\*' \(depth 2\) to level 3"):
            generalize(parse_code("C1*", 3), 3)


class TestItemCode:
    def test_sorts_by_text(self):
        codes = [parse_code(t, 3) for t in ("D12", "C**", "C1*", "C11")]
        assert [c.text for c in sorted(codes)] == ["C**", "C1*", "C11", "D12"]

    def test_str(self):
        assert str(parse_code("E1*", 3)) == "E1*"


class TestLoadTaxonomy:
    def test_synthesizes_ancestors(self):
        tax = load_taxonomy([("A11", "first"), ("A12", "second")])
        assert len(tax.codes_at_depth(3)) == 2
        assert parse_code("A1*", 3) in tax.names
        assert parse_code("A**", 3) in tax.names
        assert tax.names[parse_code("A1*", 3)] == "A1*"

    def test_interior_names_are_kept(self):
        tax = load_taxonomy([("A**", "top"), ("A11", "leaf")])
        assert tax.names[parse_code("A**", 3)] == "top"
        assert tax.names[parse_code("A11", 3)] == "leaf"

    def test_duplicate_code(self):
        with pytest.raises(MiningError, match="record 2: duplicate code 'A11'"):
            load_taxonomy([("A11", "x"), ("A11", "y")])

    def test_dangling_interior(self):
        with pytest.raises(MiningError, match=r"'B1\*' has no leaf beneath it"):
            load_taxonomy([("A11", "x"), ("B1*", "orphan")])

    def test_empty(self):
        with pytest.raises(MiningError, match="^no records$"):
            load_taxonomy([])

    def test_no_leaves(self):
        with pytest.raises(MiningError, match="^no fully specified codes$"):
            load_taxonomy([("A**", "only interior")])

    def test_width_comes_from_the_first_code(self):
        tax = load_taxonomy([("AB12", "x")])
        assert tax.total_levels == 4
        assert [c.text for c in tax.codes_at_depth(2)] == ["AB**"]

    def test_bad_record_is_positioned(self):
        with pytest.raises(MiningError, match="record 2: code 'B1': expected 3"):
            load_taxonomy([("A11", "ok"), ("B1", "short")])

    @staticmethod
    def _calls_to_load(n):
        """Python-level calls made loading n leaves, each under its own named node."""
        symbols = string.ascii_letters + string.digits
        records = []
        for i in range(n):
            node = symbols[i // len(symbols)] + symbols[i % len(symbols)]
            records += [(node + "*", f"node {i}"), (node + "0", f"leaf {i}")]
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(profile)
        try:
            tax = load_taxonomy(records)
        finally:
            sys.setprofile(None)
        assert len(tax.codes_at_depth(tax.total_levels)) == n
        return calls

    def test_named_interior_nodes_load_in_linear_work(self):
        # A scan of every leaf per named node would make this ratio about 4.
        ratio = self._calls_to_load(1000) / self._calls_to_load(500)
        assert ratio <= 2.5


class TestBookstoreCatalog:
    def test_leaf_count(self, bookstore_taxonomy):
        assert len(bookstore_taxonomy.codes_at_depth(3)) == 16

    def test_codes_per_depth(self, bookstore_taxonomy):
        assert len(bookstore_taxonomy.codes_at_depth(1)) == 9
        assert len(bookstore_taxonomy.codes_at_depth(2)) == 9
        assert len(bookstore_taxonomy.codes_at_depth(3)) == 16

    def test_depth_listing_is_text_sorted(self, bookstore_taxonomy):
        for depth in (1, 2, 3):
            texts = [c.text for c in bookstore_taxonomy.codes_at_depth(depth)]
            assert texts == sorted(texts)

    def test_depth_out_of_range(self, bookstore_taxonomy):
        with pytest.raises(MiningError, match="depth 0 outside 1..3"):
            bookstore_taxonomy.codes_at_depth(0)
        with pytest.raises(MiningError, match="depth 4 outside 1..3"):
            bookstore_taxonomy.codes_at_depth(4)

    def test_names(self, bookstore_taxonomy):
        assert bookstore_taxonomy.names[parse_code("A**", 3)] == "Story book"
        assert bookstore_taxonomy.names[parse_code("I11", 3)] == "S. Chand"
        assert (
            bookstore_taxonomy.names[parse_code("G1*", 3)]
            == "Elective Sub. English for Bsc"
        )

    def test_contains(self, bookstore_taxonomy):
        assert parse_code("E12", 3) in bookstore_taxonomy.names
        assert parse_code("E1*", 3) in bookstore_taxonomy.names
        assert parse_code("Z**", 3) not in bookstore_taxonomy.names


class TestReadCsv:
    def test_reads_bookstore(self, bookstore_taxonomy):
        assert bookstore_taxonomy.total_levels == 3

    def error(self, tmp_path, text):
        path = tmp_path / "tax.csv"
        path.write_text(text)
        with pytest.raises(MiningError) as exc:
            read_taxonomy_csv(path)
        return str(exc.value).replace(str(path), "tax.csv")

    def test_bad_header(self, tmp_path):
        message = self.error(tmp_path, "id,label\nA11,x\n")
        assert message == "tax.csv: expected header 'code,name', got ['id', 'label']"

    def test_missing_header(self, tmp_path):
        message = self.error(tmp_path, "")
        assert message == "tax.csv: expected header 'code,name', got None"

    def test_duplicate_code_names_its_line(self, tmp_path):
        message = self.error(tmp_path, "code,name\nA11,x\nA11,y\n")
        assert message == "tax.csv, line 3: record 2: duplicate code 'A11'"

    def test_orphan_is_found_after_the_last_line(self, tmp_path):
        message = self.error(tmp_path, "code,name\nA11,x\nB1*,orphan\n")
        assert message == "tax.csv: record 2: 'B1*' has no leaf beneath it"

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "tax.csv"
        path.write_text("code,name\nA11,x\n\nA12,y\n")
        assert len(read_taxonomy_csv(path).codes_at_depth(3)) == 2

    def test_width_inferred_from_first_code(self, tmp_path):
        path = tmp_path / "tax.csv"
        path.write_text("code,name\nAB1*,x\nAB11,y\n")
        tax = read_taxonomy_csv(path)
        assert tax.total_levels == 4

    def test_empty_file(self, tmp_path):
        assert self.error(tmp_path, "code,name\n") == "tax.csv: no records"


def test_item_code_is_hashable_value():
    a = ItemCode("C1*")
    b = parse_code("C1*", 3)
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("total_levels", [0, -1])
def test_random_taxonomy_refuses_fewer_than_one_level(total_levels):
    message = f"--levels must be at least 1, got {total_levels}"
    with pytest.raises(ConfigError, match=message):
        random_dataset(0, total_levels=total_levels)


def reference_path(code):
    """The path-tuple model a code used to be: its symbols before the padding."""
    return tuple(itertools.takewhile(lambda ch: ch != "*", code.text))


def reference_text(path, width):
    return "".join(path) + "*" * (width - len(path))


def taxonomies_under_test(bookstore):
    yield bookstore
    for seed in range(20):
        yield random_dataset(seed, total_levels=1 + seed % 5).taxonomy


class TestAgainstPathModel:
    """Codes agree, node for node, with a ``(path, width)`` reference model."""

    def test_depth_text_and_generalize_chain(self, bookstore_taxonomy):
        for taxonomy in taxonomies_under_test(bookstore_taxonomy):
            width = taxonomy.total_levels
            for code in taxonomy.names:
                path = reference_path(code)
                assert code.depth == len(path)
                assert type(code.text) is str
                assert code.text == reference_text(path, width)
                for level in range(1, len(path) + 1):
                    ancestor = generalize(code, level)
                    assert reference_path(ancestor) == path[:level]
                    assert ancestor.text == reference_text(path[:level], width)
                    assert ancestor in taxonomy.names
                assert generalize(code, len(path)) == code

    def test_codes_at_depth_order(self, bookstore_taxonomy):
        for taxonomy in taxonomies_under_test(bookstore_taxonomy):
            width = taxonomy.total_levels
            for depth in range(1, width + 1):
                expected = sorted(
                    (c for c in taxonomy.names if len(reference_path(c)) == depth),
                    key=lambda c: reference_text(reference_path(c), width),
                )
                assert list(taxonomy.codes_at_depth(depth)) == expected

    def test_equality_and_hash_classes(self, bookstore_taxonomy):
        for taxonomy in taxonomies_under_test(bookstore_taxonomy):
            # Every node, plus each ancestor as a fresh, equal object.
            codes = list(taxonomy.names)
            codes += [
                generalize(c, d)
                for c in taxonomy.codes_at_depth(taxonomy.total_levels)
                for d in range(1, c.depth)
            ]
            pairs = {(code, reference_path(code)) for code in codes}
            assert len(pairs) == len(set(codes)) == len({p for _, p in pairs})
            for code in codes:
                assert hash(code) == hash(parse_code(code.text, taxonomy.total_levels))

    def test_empty_zero_width_code(self):
        with pytest.raises(MiningError, match="code '' is all wildcards"):
            parse_code("", 0)
