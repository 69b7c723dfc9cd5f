"""Top-down, level-by-level mining over the concept hierarchy.

Mining starts at the coarsest level and descends: each deeper level's
vocabulary is restricted by what the level above found, under one of two
policies, so uninteresting branches of the hierarchy are never counted.
Each level gets its own support threshold.
"""
from __future__ import annotations

import sys
import warnings
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, InvalidMinsup, LevelOutOfRange
from .pincer import PincerResult, pincer_search
from .rules import FrequentSet, expand_frequent
from .taxonomy import ItemCode, Taxonomy, generalize
from .transactions import TransactionDB, project_to_level


class DescentPolicy(str, Enum):
    """How a level's result restricts the vocabulary one level down."""

    FREQUENT_PARENTS = "frequent-parents"
    MAXIMAL_ITEMSET_ITEMS = "maximal-itemset-items"


class _LevelConfigFields(NamedTuple):
    minsup_per_level: tuple[int, ...]
    total_levels: int
    descent_policy: DescentPolicy = DescentPolicy.FREQUENT_PARENTS


def _caller_stacklevel() -> int:
    """The ``stacklevel`` that makes a warning raised in
    ``LevelConfig.__new__`` name its caller: the nearest frame outside
    this module and the named tuple's ``_replace``, which calls ``_make``.
    """
    internal = {__file__, _LevelConfigFields._replace.__code__.co_filename}
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_code.co_filename in internal:
        level, frame = level + 1, frame.f_back
    return level


class LevelConfig(_LevelConfigFields):
    """Per-level thresholds and the descent policy for a full run."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> LevelConfig:
        self = super().__new__(cls, *args, **kwargs)
        if len(self.minsup_per_level) != self.total_levels:
            raise ConfigError(
                f"{len(self.minsup_per_level)} thresholds given for "
                f"{self.total_levels} levels"
            )
        for value in self.minsup_per_level:
            if value < 1:
                raise InvalidMinsup(f"minsup must be at least 1, got {value}")
        for upper, lower in zip(self.minsup_per_level, self.minsup_per_level[1:]):
            if lower > upper:
                warnings.warn(
                    "a deeper level has a higher support threshold than the "
                    "level above it; deeper items can only be rarer",
                    stacklevel=_caller_stacklevel(),
                )
                break
        return self

    @classmethod
    def _make(cls, iterable) -> LevelConfig:
        # The named tuple's _make, which _replace calls, skips __new__.
        return cls(*iterable)


class LevelResult(NamedTuple):
    level: int
    minsup: int
    vocabulary: tuple[ItemCode, ...]
    pincer: PincerResult
    frequent: tuple[FrequentSet, ...]
    mining_passes: int
    expansion_passes: int


class MultiLevelResult(NamedTuple):
    levels: tuple[LevelResult, ...]
    mining_passes: int
    expansion_passes: int
    db: TransactionDB

    @property
    def total_passes(self) -> int:
        return self.mining_passes + self.expansion_passes

    @property
    def fingerprint(self) -> str:
        return self.db.fingerprint()


def descend_vocabulary(
    taxonomy: Taxonomy,
    level: int,
    prior: PincerResult,
    policy: DescentPolicy,
) -> frozenset[ItemCode]:
    """Choose the depth-``level`` codes worth mining, given the level above.

    FREQUENT_PARENTS keeps the children of every frequent item;
    MAXIMAL_ITEMSET_ITEMS keeps only children of items that belong to a
    largest maximal frequent itemset.
    """
    if not 2 <= level <= taxonomy.total_levels:
        raise LevelOutOfRange(
            f"can only descend to levels 2..{taxonomy.total_levels}, got {level}"
        )
    if policy is DescentPolicy.FREQUENT_PARENTS:
        parents = {prior.vocabulary[i] for i in prior.frequent_items}
    else:
        if prior.mfs:
            widest = max(len(m) for m in prior.mfs)
            parents = {
                prior.vocabulary[i]
                for member in prior.mfs
                if len(member) == widest
                for i in member
            }
        else:
            parents = set()
    return frozenset(
        code
        for code in taxonomy.codes_at_depth(level)
        if generalize(code, level - 1) in parents
    )


def mine_multilevel(db: TransactionDB, config: LevelConfig) -> MultiLevelResult:
    """Run the bidirectional search at every level of the hierarchy.

    Levels whose vocabulary comes up empty (nothing survived descent)
    still appear in the result, with empty findings and zero passes.
    """
    if config.total_levels != db.taxonomy.total_levels:
        raise ConfigError(
            f"config covers {config.total_levels} levels but the taxonomy "
            f"has {db.taxonomy.total_levels}"
        )
    levels: list[LevelResult] = []
    prior: PincerResult | None = None
    for level in range(1, config.total_levels + 1):
        if level == 1:
            vocabulary_filter = None
        else:
            vocabulary_filter = descend_vocabulary(
                db.taxonomy, level, prior, config.descent_policy
            )
        matrix = project_to_level(db, level, vocabulary_filter)
        minsup = config.minsup_per_level[level - 1]
        result = pincer_search(matrix, minsup)
        frequent = expand_frequent(frozenset(result.mfs), matrix)
        levels.append(
            LevelResult(
                level=level,
                minsup=minsup,
                vocabulary=matrix.vocabulary,
                pincer=result,
                frequent=frequent,
                mining_passes=result.trace.passes,
                # expand_frequent counts the whole family in one sweep,
                # and makes none when the family is empty.
                expansion_passes=1 if frequent else 0,
            )
        )
        prior = result
    return MultiLevelResult(
        levels=tuple(levels),
        mining_passes=sum(lr.mining_passes for lr in levels),
        expansion_passes=sum(lr.expansion_passes for lr in levels),
        db=db,
    )
