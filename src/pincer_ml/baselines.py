"""Levelwise reference miners and the pass/candidate comparison report.

``apriori`` is the classic one-pass-per-size ladder; ``ml_t2l1`` runs it
level by level down the hierarchy with frequent-parents descent.  Both
exist to be measured against the bidirectional engine: same answers,
counted work compared side by side.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, MiningError
from .itemsets import apriori_prune, join, to_items
from .multilevel import LevelConfig, MultiLevelResult, check_config
from .rules import FrequentSet
from .taxonomy import ItemCode, generalize
from .transactions import LevelMatrix, TransactionDB, count_many, project_to_level


@dataclass(frozen=True)
class AprioriPassStats:
    k: int
    candidates: int
    frequent: int
    passes: int


@dataclass(frozen=True, eq=False)
class AprioriResult:
    frequent: tuple[FrequentSet, ...]
    trace: tuple[AprioriPassStats, ...]
    passes: int


def apriori(matrix: LevelMatrix, minsup: int) -> AprioriResult:
    """Classic levelwise mining: count size-k candidates, pass k."""
    if minsup < 1:
        raise ConfigError(f"minsup must be at least 1, got {minsup}")
    found: dict[int, int] = {}
    trace: list[AprioriPassStats] = []
    if matrix.n_transactions == 0:
        candidates: set[int] = set()
    else:
        candidates = {1 << i for i in range(len(matrix.vocabulary))}
    k = 1
    while candidates:
        counts = count_many(matrix, candidates)
        level_frequent = {s: c for s, c in counts.items() if c >= minsup}
        found.update(level_frequent)
        trace.append(
            AprioriPassStats(
                k=k,
                candidates=len(candidates),
                frequent=len(level_frequent),
                passes=k,
            )
        )
        survivors = set(level_frequent)
        candidates = apriori_prune(join(survivors), survivors)
        k += 1
    results = ((to_items(s), c) for s, c in found.items())
    ordered = sorted(results, key=lambda kv: (len(kv[0]), kv[0]))
    frequent = tuple(FrequentSet(s, c) for s, c in ordered)
    return AprioriResult(frequent, tuple(trace), len(trace))


@dataclass(frozen=True, eq=False)
class MlLevelResult:
    level: int
    minsup: int
    vocabulary: tuple[ItemCode, ...]
    frequent: tuple[FrequentSet, ...]
    trace: tuple[AprioriPassStats, ...]
    passes: int


@dataclass(frozen=True, eq=False)
class MlT2l1Result:
    levels: tuple[MlLevelResult, ...]
    passes: int
    db: TransactionDB


def ml_t2l1(db: TransactionDB, config: LevelConfig) -> MlT2l1Result:
    """Per-level Apriori with frequent-parents descent.

    The hierarchy is walked top down; each level keeps only children of
    items found frequent one level up, then mines that vocabulary from
    scratch with the levelwise ladder.
    """
    check_config(config, db.taxonomy)
    levels: list[MlLevelResult] = []
    parent_codes: set[ItemCode] | None = None
    for level in range(1, config.total_levels + 1):
        if level == 1:
            vocabulary_filter = None
        else:
            vocabulary_filter = frozenset(
                code
                for code in db.taxonomy.codes_at_depth(level)
                if generalize(code, level - 1) in parent_codes
            )
        matrix = project_to_level(db, level, vocabulary_filter)
        minsup = config.minsup_per_level[level - 1]
        result = apriori(matrix, minsup)
        levels.append(
            MlLevelResult(
                level=level,
                minsup=minsup,
                vocabulary=matrix.vocabulary,
                frequent=result.frequent,
                trace=result.trace,
                passes=result.passes,
            )
        )
        parent_codes = {
            matrix.vocabulary[fs.itemset[0]]
            for fs in result.frequent
            if len(fs.itemset) == 1
        }
    return MlT2l1Result(
        levels=tuple(levels),
        passes=sum(lr.passes for lr in levels),
        db=db,
    )


@dataclass(frozen=True)
class ComparisonRow:
    k: int
    frequent_itemsets: tuple[tuple[str, ...], ...]
    pincer_candidates: int
    baseline_candidates: int
    pincer_frequent: int
    baseline_frequent: int


@dataclass(frozen=True, eq=False)
class LevelComparison:
    level: int
    rows: tuple[ComparisonRow, ...]
    pincer_passes: int
    baseline_passes: int


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Side-by-side work accounting for the two multilevel miners.

    Pass totals cover the mining itself; the bidirectional engine's
    one-pass-per-level subset expansion is reported separately because
    the baseline enumerates all frequent sets as it goes.
    """

    levels: tuple[LevelComparison, ...]
    pincer_passes: int
    pincer_expansion_passes: int
    baseline_passes: int
    results_match: bool


def _frequent_by_size(itemsets) -> dict[int, list[tuple[str, ...]]]:
    """Group text tuples by length; each group comes out sorted."""
    table: dict[int, list[tuple[str, ...]]] = {}
    for texts in sorted(itemsets):
        table.setdefault(len(texts), []).append(texts)
    return table


def _as_support_map(
    frequent: tuple[FrequentSet, ...], vocabulary: tuple[ItemCode, ...]
) -> dict[tuple[str, ...], int]:
    return {
        tuple(vocabulary[i].text for i in fs.itemset): fs.support_count
        for fs in frequent
    }


def compare(a: MultiLevelResult, b: MlT2l1Result) -> ComparisonReport:
    """Tabulate candidates, frequent sets, and passes per level and size."""
    if a.db.fingerprint() != b.db.fingerprint():
        raise MiningError("the two runs were produced from different datasets")
    if len(a.levels) != len(b.levels):
        raise MiningError(
            f"level counts differ: {len(a.levels)} vs {len(b.levels)}"
        )
    level_reports: list[LevelComparison] = []
    results_match = True
    for lr_a, lr_b in zip(a.levels, b.levels):
        map_a = _as_support_map(lr_a.frequent, lr_a.vocabulary)
        map_b = _as_support_map(lr_b.frequent, lr_b.vocabulary)
        if map_a != map_b:
            results_match = False
        sizes_a = _frequent_by_size(map_a)
        cand_a = {step.k: step.candidates for step in lr_a.pincer.trace.steps}
        cand_b = {step.k: step.candidates for step in lr_b.trace}
        freq_b = {step.k: step.frequent for step in lr_b.trace}
        rows = []
        for k in sorted(set(sizes_a) | set(cand_a) | set(cand_b)):
            itemsets = tuple(sizes_a.get(k, []))
            rows.append(
                ComparisonRow(
                    k=k,
                    frequent_itemsets=itemsets,
                    pincer_candidates=cand_a.get(k, 0),
                    baseline_candidates=cand_b.get(k, 0),
                    pincer_frequent=len(itemsets),
                    baseline_frequent=freq_b.get(k, 0),
                )
            )
        level_reports.append(
            LevelComparison(
                level=lr_a.level,
                rows=tuple(rows),
                pincer_passes=lr_a.mining_passes,
                baseline_passes=lr_b.passes,
            )
        )
    return ComparisonReport(
        levels=tuple(level_reports),
        pincer_passes=a.mining_passes,
        pincer_expansion_passes=a.expansion_passes,
        baseline_passes=b.passes,
        results_match=results_match,
    )
