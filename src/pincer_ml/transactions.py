"""Transaction loading, level projection, and bitset support counting.

A :class:`LevelMatrix` is the Boolean transaction-by-item view of the
database at one taxonomy depth.  Its columns are packed integer bitsets,
so a support query is a handful of bitwise ANDs and a population count.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping, NoReturn

from .errors import MiningError
from .itemsets import Itemset, bits, to_mask
from .taxonomy import ItemCode, Taxonomy, _load_csv, generalize


class TransactionDB:
    """Raw transactions as leaf indices: one (tid, row) pair per basket.

    ``rows[t]`` lists, in ascending order, the indices ``i`` of the
    leaves ``leaves[i]`` in basket ``t``.  The leaves are the taxonomy's
    leaves sorted by code text, so index order and text order agree.
    """

    tids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    taxonomy: Taxonomy

    def __init__(self, tids, rows, taxonomy) -> None:
        self.tids, self.rows, self.taxonomy = tids, rows, taxonomy

    @property
    def leaves(self) -> tuple[ItemCode, ...]:
        return self.taxonomy.codes_at_depth(self.taxonomy.total_levels)

    @property
    def n_transactions(self) -> int:
        return len(self.rows)

    def fingerprint(self) -> str:
        """Stable digest of the dataset, as ``gen`` prints it, computed
        on each call."""
        # Imported on first use, so runs that never hash (``mine``) do
        # not load OpenSSL.
        import hashlib

        leaves = self.leaves
        parts = [str(self.taxonomy.total_levels), *leaves]
        for tid, row in zip(self.tids, self.rows):
            # Escaped, so a tid holding "|" or "," cannot pass for a basket
            # boundary or an item; a tid free of \, | and , is its own
            # escape, so such datasets keep their fingerprints.
            escaped = tid.replace("\\", "\\\\").replace("|", "\\|").replace(",", "\\,")
            parts.append("|" + escaped)
            parts.extend("," + leaves[i] for i in row)
        return hashlib.sha256("".join(parts).encode()).hexdigest()

    @cached_property
    def leaf_columns(self) -> dict[ItemCode, int]:
        """Transaction bitset of each leaf that occurs (bit t = row t).

        Built once, then shared by the matrices of every level.
        """
        size = (len(self.rows) + 7) // 8
        buffers: defaultdict[int, bytearray] = defaultdict(lambda: bytearray(size))
        for t, row in enumerate(self.rows):
            byte, bit = t >> 3, 1 << (t & 7)
            for i in row:
                buffers[i][byte] |= bit
        leaves = self.leaves
        return {
            leaves[i]: int.from_bytes(buffer, "little")
            for i, buffer in buffers.items()
        }


def load_transactions(
    records: Iterable[tuple[str, str]], taxonomy: Taxonomy
) -> TransactionDB:
    """Group (tid, item text) records into transactions.

    Transactions keep first-appearance order; repeated (tid, item) pairs
    collapse.  Every item must be the code text of a leaf of the taxonomy.
    """
    leaves = taxonomy.codes_at_depth(taxonomy.total_levels)
    leaf_index = {leaf: i for i, leaf in enumerate(leaves)}
    baskets: defaultdict[str, set[int]] = defaultdict(set)
    for position, (tid, text) in enumerate(records, start=1):
        i = leaf_index.get(text)
        if i is None:
            try:
                _reject_item(text, taxonomy)
            except MiningError as exc:
                raise MiningError(f"record {position}: {exc}") from exc
        baskets[tid].add(i)
    rows = tuple(tuple(sorted(basket)) for basket in baskets.values())
    return TransactionDB(tuple(baskets), rows, taxonomy)


def _reject_item(text: str, taxonomy: Taxonomy) -> NoReturn:
    """Raise the error for an item text that names no leaf."""
    from .taxonomy import parse_code

    parse_code(text, taxonomy.total_levels)
    raise MiningError(f"{text!r} is not a leaf of the taxonomy")


def read_transactions_csv(path: str | Path, taxonomy: Taxonomy) -> TransactionDB:
    """Load transactions from a ``tid,item`` CSV file."""
    return _load_csv(path, ("tid", "item"), lambda rows: load_transactions(rows, taxonomy))


class LevelMatrix:
    """Boolean occurrence matrix at one taxonomy depth, kept by column.

    ``columns[j]`` has bit ``t`` set when transaction ``t`` contains some
    leaf generalizing to ``vocabulary[j]``.  The vocabulary is sorted by
    code text, so index order and text order agree.
    """

    level: int
    vocabulary: tuple[ItemCode, ...]
    n_transactions: int
    leaf_columns: Mapping[ItemCode, int]

    def __init__(self, level, vocabulary, n_transactions, leaf_columns) -> None:
        self.level = level
        self.vocabulary = vocabulary
        self.n_transactions = n_transactions
        self.leaf_columns = leaf_columns

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Per-item transaction bitsets, each the OR of its leaves' columns.

        Each leaf that occurs is generalized once; leaves sharing an
        ancestor collapse into one column.
        """
        index = {code: j for j, code in enumerate(self.vocabulary)}
        cols = [0] * len(self.vocabulary)
        for leaf, column in self.leaf_columns.items():
            j = index.get(generalize(leaf, self.level))
            if j is not None:
                cols[j] |= column
        return tuple(cols)


def project_to_level(
    db: TransactionDB,
    level: int,
    vocabulary_filter: Collection[ItemCode] | None = None,
) -> LevelMatrix:
    """The bit matrix of ``db`` at ``level``, built from its leaf columns.

    With a filter, only the given depth-``level`` codes become columns;
    transactions with no retained item still count, so support
    denominators never change.
    """
    total = db.taxonomy.total_levels
    if not 1 <= level <= total:
        raise MiningError(f"level {level} outside 1..{total}")
    if vocabulary_filter is not None:
        bad = [c for c in vocabulary_filter if c.depth != level]
        if bad:
            raise MiningError(
                f"filter code {bad[0].text!r} has depth {bad[0].depth}, "
                f"expected {level}"
            )
        vocabulary = tuple(sorted(set(vocabulary_filter)))
    else:
        vocabulary = db.taxonomy.codes_at_depth(level)
    return LevelMatrix(level, vocabulary, db.n_transactions, db.leaf_columns)


def count_support(matrix: LevelMatrix, items: Itemset) -> int:
    """Number of transactions containing every item of ``items``.

    The empty itemset is contained in every transaction.
    """
    width = len(matrix.vocabulary)
    for i in items:
        if not 0 <= i < width:
            raise MiningError(f"index {i} outside vocabulary of width {width}")
    return _support(matrix, to_mask(items))


def _support(matrix: LevelMatrix, mask: int) -> int:
    if not mask:
        return matrix.n_transactions
    acc = -1
    for i in bits(mask):
        acc &= matrix.columns[i]
    return acc.bit_count()


def count_many(matrix: LevelMatrix, masks: Collection[int]) -> dict[int, int]:
    """Count a whole collection of itemset masks in one sweep.

    Each call is exactly one database pass, whatever the collection
    size; duplicate masks collapse to a single map entry.  Unlike
    :func:`count_support`, indices are not checked against the vocabulary.
    """
    return {m: _support(matrix, m) for m in set(masks)}
