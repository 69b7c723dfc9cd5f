"""Correctness checks for ``pincer-ml mine`` reports, run outside timing.

The reference answers come from paths that share nothing with the
bidirectional search beyond the level matrix: the levelwise
``baselines.ml_t2l1`` miner, the exhaustive ``oracle.brute_force`` and
direct ``count_support`` recounts.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from pincer_ml.baselines import ml_t2l1
from pincer_ml.multilevel import LevelConfig
from pincer_ml.oracle import brute_force
from pincer_ml.taxonomy import read_taxonomy_csv
from pincer_ml.transactions import count_support, project_to_level, read_transactions_csv


def thresholds(minsup: list[str], support_mode: str, n_transactions: int) -> tuple[int, ...]:
    """Absolute per-level counts, rounding fractions up as the CLI documents."""
    if support_mode == "absolute":
        return tuple(int(v) for v in minsup)
    return tuple(max(1, math.ceil(Fraction(v) * n_transactions)) for v in minsup)


def report_body(path: Path) -> tuple[dict, str]:
    """The parsed report and its canonical text without ``meta``."""
    report = json.loads(path.read_text(encoding="utf-8"))
    body = {k: v for k, v in report.items() if k != "meta"}
    return report, json.dumps(body, sort_keys=True)


class Reference:
    """Independent answers for one generated input, computed once."""

    def __init__(self, taxonomy_csv: Path, transactions_csv: Path, workload: dict):
        self.db = read_transactions_csv(transactions_csv, read_taxonomy_csv(taxonomy_csv))
        levels = self.db.taxonomy.total_levels
        self.minsup = thresholds(
            workload["minsup"], workload["support_mode"], self.db.n_transactions
        )
        self.config = LevelConfig(self.minsup, levels)
        self.min_conf = Fraction(workload["min_conf"])
        self.use_oracle = workload["oracle"]
        self.baseline = ml_t2l1(self.db, self.config)

    def problems(self, report: dict) -> list[str]:
        """Every way ``report`` disagrees with the reference; empty if none."""
        found: list[str] = []
        if len(report["levels"]) != len(self.baseline.levels):
            return [f"{len(report['levels'])} levels reported, expected {len(self.baseline.levels)}"]
        for got, base in zip(report["levels"], self.baseline.levels):
            found += self._level_problems(got, base)
        totals = report["totals"]
        n_frequent = sum(len(lv["frequent_itemsets"]) for lv in report["levels"])
        n_rules = sum(len(lv["rules"]) for lv in report["levels"])
        if (totals["frequent_itemsets"], totals["rules"]) != (n_frequent, n_rules):
            found.append("totals disagree with the per-level lists")
        if totals["passes"] != totals["mining_passes"] + totals["expansion_passes"]:
            found.append("totals.passes is not mining plus expansion passes")
        return found

    def _level_problems(self, got: dict, base) -> list[str]:
        level = base.level
        texts = [code.text for code in base.vocabulary]
        found = []
        if got["minsup"] != self.minsup[level - 1]:
            found.append(f"level {level}: minsup {got['minsup']}, expected {self.minsup[level - 1]}")
        expected = {tuple(texts[i] for i in fs.itemset): fs.support_count for fs in base.frequent}
        frequent = {tuple(row["items"]): row["support"] for row in got["frequent_itemsets"]}
        maximal = {tuple(row["items"]): row["support"] for row in got["maximal_frequent_sets"]}
        if frequent != expected:
            found.append(f"level {level}: frequent itemsets differ from ml_t2l1")
        if maximal != _maximal(expected, texts):
            found.append(f"level {level}: maximal sets differ from ml_t2l1")

        matrix = project_to_level(self.db, level, frozenset(base.vocabulary))
        if self.use_oracle:
            oracle = brute_force(matrix, base.minsup)
            named = {tuple(texts[i] for i in s): c for s, c in oracle.frequent.items()}
            if frequent != named or set(maximal) != {
                tuple(texts[i] for i in s) for s in oracle.maximal
            }:
                found.append(f"level {level}: result differs from the brute-force oracle")

        index = {text: i for i, text in enumerate(texts)}
        for rule in got["rules"]:
            antecedent = tuple(index[t] for t in rule["antecedent"])
            whole = tuple(sorted(antecedent + tuple(index[t] for t in rule["consequent"])))
            support = count_support(matrix, whole)
            confidence = Fraction(rule["confidence"])
            if (
                rule["support"] != support
                or confidence != Fraction(support, count_support(matrix, antecedent))
                or confidence < self.min_conf
            ):
                found.append(f"level {level}: rule {rule} does not recount")
                break
        return found


def _maximal(frequent: dict[tuple[str, ...], int], texts: list[str]) -> dict:
    """Members of a downward-closed family with no one-item-larger superset."""
    return {
        s: c
        for s, c in frequent.items()
        if not any(t not in s and tuple(sorted(s + (t,))) in frequent for t in texts)
    }
