"""Multilevel frequent-itemset mining with a bidirectional border search.

The package mines association rules over a concept hierarchy: each
taxonomy level gets its own support threshold, the maximal frequent
itemsets are located by a levelwise search that simultaneously shrinks
an upper border, and the full frequent collection plus rules are
recovered from that border afterwards.

The Apriori baseline and the brute-force oracle are the independent
evidence the engine is checked against, not part of it: import them
from ``pincer_ml.baselines`` and ``pincer_ml.oracle``.
"""
from .errors import MiningError
from .itemsets import Itemset
from .multilevel import (
    DescentPolicy,
    LevelConfig,
    LevelResult,
    MultiLevelResult,
    mine_multilevel,
)
from .pincer import PincerResult, pincer_search
from .rules import FrequentSet, Rule, expand_frequent, generate_rules
from .taxonomy import ItemCode, Taxonomy, load_taxonomy, parse_code, read_taxonomy_csv
from .transactions import (
    LevelMatrix,
    TransactionDB,
    count_support,
    load_transactions,
    project_to_level,
    read_transactions_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DescentPolicy",
    "FrequentSet",
    "ItemCode",
    "Itemset",
    "LevelConfig",
    "LevelMatrix",
    "LevelResult",
    "MiningError",
    "MultiLevelResult",
    "PincerResult",
    "Rule",
    "Taxonomy",
    "TransactionDB",
    "count_support",
    "expand_frequent",
    "generate_rules",
    "load_taxonomy",
    "load_transactions",
    "mine_multilevel",
    "parse_code",
    "pincer_search",
    "project_to_level",
    "read_taxonomy_csv",
    "read_transactions_csv",
    "__version__",
]
