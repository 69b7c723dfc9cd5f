"""Top-down, level-by-level mining over the concept hierarchy.

Mining starts at the coarsest level and descends: each deeper level's
vocabulary is restricted by what the level above found, under one of two
policies, so uninteresting branches of the hierarchy are never counted.
Each level gets its own support threshold.
"""
from __future__ import annotations

import warnings
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, MiningError
from .pincer import PincerResult, pincer_search
from .rules import FrequentSet, expand_frequent
from .taxonomy import ItemCode, Taxonomy, generalize
from .transactions import TransactionDB, project_to_level


class DescentPolicy(str, Enum):
    """How a level's result restricts the vocabulary one level down."""

    FREQUENT_PARENTS = "frequent-parents"
    MAXIMAL_ITEMSET_ITEMS = "maximal-itemset-items"


class LevelConfig(NamedTuple):
    """Per-level thresholds and the descent policy for a full run.

    The miners check it against their taxonomy before mining
    (``check_config``).
    """

    minsup_per_level: tuple[int, ...]
    total_levels: int
    descent_policy: DescentPolicy = DescentPolicy.FREQUENT_PARENTS


def check_config(config: LevelConfig, taxonomy: Taxonomy) -> None:
    """Refuse a config that does not fit ``taxonomy``: one threshold per
    level of the hierarchy, each at least 1."""
    if config.total_levels != taxonomy.total_levels:
        raise ConfigError(
            f"config covers {config.total_levels} levels but the taxonomy "
            f"has {taxonomy.total_levels}"
        )
    if len(config.minsup_per_level) != config.total_levels:
        raise ConfigError(
            f"{len(config.minsup_per_level)} thresholds given for "
            f"{config.total_levels} levels"
        )
    for value in config.minsup_per_level:
        if value < 1:
            raise ConfigError(f"minsup must be at least 1, got {value}")


class LevelResult(NamedTuple):
    level: int
    minsup: int
    vocabulary: tuple[ItemCode, ...]
    pincer: PincerResult
    frequent: tuple[FrequentSet, ...]
    expansion_passes: int


class MultiLevelResult(NamedTuple):
    levels: tuple[LevelResult, ...]
    mining_passes: int
    expansion_passes: int
    db: TransactionDB

    @property
    def total_passes(self) -> int:
        return self.mining_passes + self.expansion_passes


def descend_vocabulary(
    taxonomy: Taxonomy, prior: LevelResult, policy: DescentPolicy
) -> frozenset[ItemCode]:
    """Choose the codes worth mining one level below ``prior``.

    The parents are items of ``prior.vocabulary`` found in
    ``prior.pincer.mfs``.  FREQUENT_PARENTS keeps the children of every
    frequent item; MAXIMAL_ITEMSET_ITEMS keeps only children of items
    that belong to a largest maximal frequent itemset.
    """
    level = prior.level + 1
    if not 2 <= level <= taxonomy.total_levels:
        raise MiningError(
            f"can only descend to levels 2..{taxonomy.total_levels}, got {level}"
        )
    members = prior.pincer.mfs
    if policy is DescentPolicy.MAXIMAL_ITEMSET_ITEMS:
        widest = max(map(len, members), default=0)
        members = [m for m in members if len(m) == widest]
    parents = {prior.vocabulary[i] for member in members for i in member}
    return frozenset(
        code
        for code in taxonomy.codes_at_depth(level)
        if generalize(code, level - 1) in parents
    )


def mine_multilevel(db: TransactionDB, config: LevelConfig) -> MultiLevelResult:
    """Run the bidirectional search at every level of the hierarchy.

    Levels whose vocabulary comes up empty (nothing survived descent)
    still appear in the result, with empty findings and zero passes.
    A deeper threshold above a shallower one is allowed, with a warning.
    """
    check_config(config, db.taxonomy)
    thresholds = config.minsup_per_level
    if any(lower > upper for upper, lower in zip(thresholds, thresholds[1:])):
        warnings.warn(
            "a deeper level has a higher support threshold than the "
            "level above it; deeper items can only be rarer",
            stacklevel=2,
        )
    levels: list[LevelResult] = []
    vocabulary_filter = None
    for level, minsup in enumerate(thresholds, start=1):
        matrix = project_to_level(db, level, vocabulary_filter)
        result = pincer_search(matrix, minsup)
        frequent = expand_frequent(result.mfs, matrix)
        levels.append(
            LevelResult(
                level=level,
                minsup=minsup,
                vocabulary=matrix.vocabulary,
                pincer=result,
                frequent=frequent,
                # expand_frequent counts the whole family in one sweep,
                # and makes none when the family is empty.
                expansion_passes=1 if frequent else 0,
            )
        )
        if level < config.total_levels:
            vocabulary_filter = descend_vocabulary(
                db.taxonomy, levels[-1], config.descent_policy
            )
    return MultiLevelResult(
        levels=tuple(levels),
        mining_passes=sum(lr.pincer.trace.passes for lr in levels),
        expansion_passes=sum(lr.expansion_passes for lr in levels),
        db=db,
    )
