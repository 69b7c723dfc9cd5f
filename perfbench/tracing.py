"""Spans and counts recorded around calls into each ``pincer_ml`` module.

Nothing inside the package is edited: :meth:`Tracer.installed` swaps a
timing wrapper in for each public function *where it is called* (so
``pincer_ml.pincer.mfcs_gen``, the name the search loop looks up, not
``pincer_ml.itemsets.mfcs_gen``) and puts the originals back on exit.
Spans and counts stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import pincer_ml.cli as cli
import pincer_ml.multilevel as multilevel
import pincer_ml.pincer as pincer
import pincer_ml.rules as rules
import pincer_ml.taxonomy as taxonomy
import pincer_ml.transactions as transactions

# Spans whose self time (duration minus child spans) is a metric.
SELF_TIMED = {"pincer.search": "pincer", "multilevel.mine": "multilevel", "cli.main": "cli"}


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.search_passes: list[int] = []
        self._stack: list[int] = []
        self._recovered: set = set()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counted(self, name, fn, within):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is None or self._inside(within):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced call site for the duration of the block."""
        columns = transactions.LevelMatrix.__dict__["columns"]
        timed_columns = functools.cached_property(
            self._wrap("transactions.columns", columns.func)
        )
        timed_columns.__set_name__(transactions.LevelMatrix, "columns")
        patches = [
            (cli, "read_taxonomy_csv", self._wrap("taxonomy.load", cli.read_taxonomy_csv)),
            (cli, "read_transactions_csv",
             self._wrap("transactions.load", cli.read_transactions_csv)),
            (taxonomy, "parse_code",
             self._counted("transactions.parse_calls", taxonomy.parse_code,
                           "transactions.load")),
            (transactions.TransactionDB, "fingerprint",
             self._wrap("transactions.fingerprint", transactions.TransactionDB.fingerprint)),
            (multilevel, "project_to_level",
             self._wrap("transactions.project", multilevel.project_to_level)),
            (transactions, "generalize",
             self._counted("transactions.generalize_calls", transactions.generalize, None)),
            (transactions.LevelMatrix, "columns", timed_columns),
            (pincer, "count_many", self._wrap("transactions.count", pincer.count_many, _on_count)),
            (rules, "count_many", self._wrap("transactions.count", rules.count_many, _on_count)),
            (pincer, "mfcs_gen", self._wrap("itemsets.mfcs_gen", pincer.mfcs_gen, _on_mfcs_gen)),
            (pincer, "join", self._wrap("itemsets.join", pincer.join)),
            (pincer, "apriori_prune", self._wrap("itemsets.apriori_prune", pincer.apriori_prune)),
            (pincer, "recover", self._wrap("itemsets.recover", pincer.recover, _on_recover)),
            (pincer, "pincer_prune",
             self._wrap("itemsets.pincer_prune", pincer.pincer_prune, _on_pincer_prune)),
            (multilevel, "pincer_search",
             self._wrap("pincer.search", multilevel.pincer_search, _on_search)),
            (multilevel, "expand_frequent",
             self._wrap("rules.expand", multilevel.expand_frequent, _on_expand)),
            (cli, "generate_rules", self._wrap("rules.generate", cli.generate_rules, _on_rules)),
            (cli, "mine_multilevel",
             self._wrap("multilevel.mine", cli.mine_multilevel, _on_mine)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Summed span durations as ``<span>_s``, self times, and counts."""
        out: dict[str, float] = dict(self.counts)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start)
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            if name in SELF_TIMED:
                key = f"{SELF_TIMED[name]}.self_s"
                out[key] = out.get(key, 0.0) + (end - start - children)
        return out


def _on_count(tracer, args, result):
    tracer.counts["transactions.count_calls"] += 1
    tracer.counts["transactions.itemsets_counted"] += len(result)


def _on_mfcs_gen(tracer, args, result):
    tracer.counts["itemsets.mfcs_gen_splitters"] += len(args[1])
    peak = tracer.counts["itemsets.border_peak"]
    tracer.counts["itemsets.border_peak"] = max(peak, len(result.mfcs))


def _on_recover(tracer, args, result):
    tracer._recovered = set(result) - set(args[0])
    tracer.counts["itemsets.recover_added"] += len(tracer._recovered)


def _on_pincer_prune(tracer, args, result):
    tracer.counts["itemsets.pincer_prune_in"] += len(args[0])
    tracer.counts["itemsets.pincer_prune_kept"] += len(result)
    tracer.counts["itemsets.recover_survived"] += len(tracer._recovered & result)
    tracer._recovered = set()


def _on_search(tracer, args, result):
    tracer.search_passes.append(result.trace.passes)
    tracer.counts["pincer.mining_passes"] += result.trace.passes
    tracer.counts["pincer.candidates"] += sum(s.candidates for s in result.trace.steps)
    tracer.counts["pincer.frequent"] += sum(s.frequent for s in result.trace.steps)
    tracer.counts["pincer.mfs_size"] += len(result.mfs)


def _on_expand(tracer, args, result):
    tracer.counts["rules.expand_subsets"] += len(result)


def _on_rules(tracer, args, result):
    tracer.counts["rules.rules_considered"] += sum(
        2 ** len(fs.itemset) - 2 for fs in args[0]
    )
    tracer.counts["rules.rules_emitted"] += len(result)


def _on_mine(tracer, args, result):
    tracer.counts["multilevel.vocab_items"] += sum(len(lr.vocabulary) for lr in result.levels)
