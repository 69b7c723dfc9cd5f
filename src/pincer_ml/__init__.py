"""Multilevel frequent-itemset mining with a bidirectional border search.

The package mines association rules over a concept hierarchy: each
taxonomy level gets its own support threshold, the maximal frequent
itemsets are located by a levelwise search that simultaneously shrinks
an upper border, and the full frequent collection plus rules are
recovered from that border afterwards.
"""
from .errors import MiningError
from .itemsets import BorderState, Itemset
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

# The baselines and the oracle are independent evidence, not part of the
# engine: they load on first use, so ``import pincer_ml.cli`` skips them.
_LAZY = {
    "AprioriResult": "baselines",
    "MlT2l1Result": "baselines",
    "apriori": "baselines",
    "compare": "baselines",
    "ml_t2l1": "baselines",
    "OracleResult": "oracle",
    "brute_force": "oracle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)

__all__ = [
    "AprioriResult",
    "BorderState",
    "DescentPolicy",
    "FrequentSet",
    "ItemCode",
    "Itemset",
    "LevelConfig",
    "LevelMatrix",
    "LevelResult",
    "MiningError",
    "MlT2l1Result",
    "MultiLevelResult",
    "OracleResult",
    "PincerResult",
    "Rule",
    "Taxonomy",
    "TransactionDB",
    "apriori",
    "brute_force",
    "compare",
    "count_support",
    "expand_frequent",
    "generate_rules",
    "load_taxonomy",
    "load_transactions",
    "mine_multilevel",
    "ml_t2l1",
    "parse_code",
    "pincer_search",
    "project_to_level",
    "read_taxonomy_csv",
    "read_transactions_csv",
    "__version__",
]
