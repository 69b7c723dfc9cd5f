"""Transaction loading, level projection, and bitset support counting.

A :class:`LevelMatrix` is the Boolean transaction-by-item view of the
database at one taxonomy depth.  Rows and columns are packed integer
bitsets, so a support query is a handful of bitwise ANDs followed by a
population count.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable

from .errors import IndexOutOfRange, LevelOutOfRange, MiningError, UnknownItem
from .itemsets import Itemset, bits, to_mask
from .taxonomy import ItemCode, Taxonomy, generalize
from .taxonomy import _csv_records


@dataclass
class PassCounter:
    """Counts full counting sweeps over a transaction matrix."""

    passes: int = 0


@dataclass(frozen=True, eq=False)
class TransactionDB:
    """Raw transactions: one (tid, leaf itemset) pair per basket."""

    transactions: tuple[tuple[str, frozenset[ItemCode]], ...]
    taxonomy: Taxonomy

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)

    def fingerprint(self) -> str:
        """Stable digest of the dataset, used to guard comparisons."""
        parts = [str(self.taxonomy.total_levels)]
        parts.extend(sorted(leaf.text for leaf in self.taxonomy.codes))
        for tid, items in self.transactions:
            parts.append("|" + tid)
            parts.extend("," + text for text in sorted(code.text for code in items))
        return hashlib.sha256("".join(parts).encode()).hexdigest()


def load_transactions(
    records: Iterable[tuple[str, str]], taxonomy: Taxonomy
) -> TransactionDB:
    """Group (tid, item text) records into transactions.

    Transactions keep first-appearance order; repeated (tid, item) pairs
    collapse.  Every item must be a leaf of the taxonomy; each distinct
    item text is parsed once.
    """
    codes: dict[str, ItemCode] = {}
    baskets: dict[str, set[ItemCode]] = {}
    for position, (tid, text) in enumerate(records, start=1):
        code = codes.get(text)
        if code is None:
            try:
                code = codes[text] = _parse_item(text, taxonomy)
            except MiningError as exc:
                raise type(exc)(f"record {position}: {exc}") from exc
        baskets.setdefault(tid, set()).add(code)
    rows = tuple((tid, frozenset(items)) for tid, items in baskets.items())
    return TransactionDB(rows, taxonomy)


def _parse_item(text: str, taxonomy: Taxonomy) -> ItemCode:
    from .taxonomy import parse_code

    code = parse_code(text, taxonomy.total_levels)
    if code not in taxonomy.codes:
        raise UnknownItem(f"{text!r} is not a leaf of the taxonomy")
    return code


def read_transactions_csv(path: str | Path, taxonomy: Taxonomy) -> TransactionDB:
    """Load transactions from a ``tid,item`` CSV file."""
    return load_transactions(_csv_records(Path(path), ("tid", "item")), taxonomy)


@dataclass(frozen=True, eq=False)
class LevelMatrix:
    """Boolean occurrence matrix at one taxonomy depth.

    ``rows[t]`` has bit ``j`` set when transaction ``t`` contains some
    leaf generalizing to ``vocabulary[j]``.  The vocabulary is sorted by
    code text, so index order and text order agree.
    """

    level: int
    vocabulary: tuple[ItemCode, ...]
    rows: tuple[int, ...]

    @property
    def n_transactions(self) -> int:
        return len(self.rows)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Per-item transaction bitsets (bit t = row t has the item)."""
        cols = [0] * len(self.vocabulary)
        for t, row in enumerate(self.rows):
            for j in bits(row):
                cols[j] |= 1 << t
        return tuple(cols)


def project_to_level(
    db: TransactionDB,
    level: int,
    vocabulary_filter: Collection[ItemCode] | None = None,
) -> LevelMatrix:
    """Generalize every transaction to ``level`` and build the bit matrix.

    Each leaf of the taxonomy is generalized once, to the bit of its
    ancestor; distinct leaves sharing an ancestor collapse into one bit.
    With a filter, only the given depth-``level`` codes become columns;
    rows for transactions with no retained item are kept as zero rows so
    support denominators never change.
    """
    total = db.taxonomy.total_levels
    if not 1 <= level <= total:
        raise LevelOutOfRange(f"level {level} outside 1..{total}")
    if vocabulary_filter is not None:
        bad = [c for c in vocabulary_filter if c.depth != level]
        if bad:
            raise LevelOutOfRange(
                f"filter code {bad[0].text!r} has depth {bad[0].depth}, "
                f"expected {level}"
            )
        vocabulary = tuple(sorted(set(vocabulary_filter)))
    else:
        vocabulary = db.taxonomy.codes_at_depth(level)
    index = {code: j for j, code in enumerate(vocabulary)}
    bit_of = {}
    for leaf in db.taxonomy.codes:
        j = index.get(generalize(leaf, level))
        if j is not None:
            bit_of[leaf] = 1 << j
    rows = []
    for _tid, items in db.transactions:
        row = 0
        for leaf in items:
            row |= bit_of.get(leaf, 0)
        rows.append(row)
    return LevelMatrix(level, vocabulary, tuple(rows))


def count_support(matrix: LevelMatrix, items: Itemset) -> int:
    """Number of transactions containing every item of ``items``.

    The empty itemset is contained in every transaction.
    """
    width = len(matrix.vocabulary)
    for i in items:
        if not 0 <= i < width:
            raise IndexOutOfRange(f"index {i} outside vocabulary of width {width}")
    return _support(matrix, to_mask(items))


def _support(matrix: LevelMatrix, mask: int) -> int:
    if not mask:
        return matrix.n_transactions
    acc = -1
    for i in bits(mask):
        acc &= matrix.columns[i]
    return acc.bit_count()


def count_many(
    matrix: LevelMatrix, masks: Collection[int], counter: PassCounter
) -> dict[int, int]:
    """Count a whole collection of itemset masks in one sweep.

    Each call is exactly one database pass, whatever the collection
    size; duplicate masks collapse to a single map entry.  Unlike
    :func:`count_support`, indices are not checked against the vocabulary.
    """
    counter.passes += 1
    return {m: _support(matrix, m) for m in set(masks)}
