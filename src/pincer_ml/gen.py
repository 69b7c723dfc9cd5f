"""Seeded random dataset generation for tests and the ``gen`` command.

Everything here takes an explicit ``random.Random`` so runs are
reproducible from a single seed.
"""
from __future__ import annotations

import random
import string

from .errors import ConfigError
from .taxonomy import ItemCode, Taxonomy, load_taxonomy
from .transactions import LevelMatrix, TransactionDB, load_transactions

_LETTERS = string.ascii_uppercase
_ITEM_SYMBOLS = _LETTERS + string.ascii_lowercase
MAX_TAXONOMY_LEAVES = 100_000


def random_dataset(
    seed: int,
    n_roots: int = 4,
    max_children: int = 3,
    total_levels: int = 3,
    n_transactions: int = 20,
    max_items: int = 6,
) -> TransactionDB:
    """A random taxonomy and transactions over its leaves, from one seed.

    Each node has 1..max_children children, and each transaction is a
    uniform sample of 1..max_items leaves.  Every parameter is checked
    before the tree is grown, and each ``ConfigError`` names the ``gen``
    flag that sets it.  Growth stops with a ``ConfigError`` as soon as a
    level passes ``MAX_TAXONOMY_LEAVES`` nodes.
    """
    if not 1 <= n_roots <= 26:
        # codes are one symbol per level, so there are at most 26 roots
        raise ConfigError(f"--roots must be within 1..26, got {n_roots}")
    if not 1 <= max_children <= 9:
        raise ConfigError(f"--max-children must be within 1..9, got {max_children}")
    if total_levels < 1:
        raise ConfigError(f"--levels must be at least 1, got {total_levels}")
    if n_transactions < 0:
        raise ConfigError(f"--rows must be non-negative, got {n_transactions}")
    if max_items < 1:
        raise ConfigError(f"--max-items must be at least 1, got {max_items}")
    rng = random.Random(seed)
    prefixes = list(_LETTERS[:n_roots])
    for _ in range(1, total_levels):
        next_prefixes = []
        for prefix in prefixes:
            for child in range(1, rng.randint(1, max_children) + 1):
                next_prefixes.append(f"{prefix}{child}")
            if len(next_prefixes) > MAX_TAXONOMY_LEAVES:
                raise ConfigError(
                    f"the taxonomy would have over {MAX_TAXONOMY_LEAVES} leaves; "
                    "lower --levels, --max-children or --roots"
                )
        prefixes = next_prefixes
    taxonomy = load_taxonomy([(leaf, f"item {leaf}") for leaf in prefixes])
    leaves = taxonomy.codes_at_depth(total_levels)
    cap = min(max_items, len(leaves))
    records = []
    for tid in range(1, n_transactions + 1):
        for code in sorted(rng.sample(leaves, rng.randint(1, cap))):
            records.append((f"T{tid}", code.text))
    return load_transactions(records, taxonomy)


def random_matrix(
    rng: random.Random,
    n_items: int,
    n_transactions: int,
    density: float = 0.4,
) -> LevelMatrix:
    """A bare one-level matrix for property tests, no hierarchy attached."""
    if not 0.0 <= density <= 1.0:
        raise ConfigError(f"density must be within [0, 1], got {density}")
    if not 0 <= n_items <= len(_ITEM_SYMBOLS):
        raise ConfigError(
            f"n_items must be within 0..{len(_ITEM_SYMBOLS)}, got {n_items}"
        )
    vocabulary = tuple(map(ItemCode, _ITEM_SYMBOLS[:n_items]))
    columns = [0] * n_items
    for t in range(n_transactions):
        for j in range(n_items):
            if rng.random() < density:
                columns[j] |= 1 << t
    return LevelMatrix(1, vocabulary, n_transactions, dict(zip(vocabulary, columns)))


def taxonomy_csv_rows(taxonomy: Taxonomy) -> list[tuple[str, str]]:
    """Leaf rows in code order, ready for ``csv.writer``."""
    leaves = taxonomy.codes_at_depth(taxonomy.total_levels)
    return [(code.text, taxonomy.names[code]) for code in leaves]


def transaction_csv_rows(db: TransactionDB) -> list[tuple[str, str]]:
    """(tid, item) rows in original transaction order."""
    leaves = db.leaves
    return [(tid, leaves[i]) for tid, row in zip(db.tids, db.rows) for i in row]
