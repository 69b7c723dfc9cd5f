"""Differential check of the search against recorded per-pass traces.

``golden/pincer_traces.json`` holds, for each bookstore level at
thresholds 3,2,2 and for 100 seeded random matrices drawn as in
acceptance criterion 6, every ``PassStats`` field of every pass, the
pass total, and the maximal sets with their supports in result order.
It was recorded from the search while itemsets were still index tuples
inside the engine, so it pins the int-mask engine to the same borders,
pass by pass, not just to the same final answer.
"""
import json
import random
from dataclasses import asdict

from conftest import GOLDEN
from pincer_ml.gen import random_matrix
from pincer_ml.pincer import pincer_search
from pincer_ml.transactions import project_to_level

TRACES = GOLDEN / "pincer_traces.json"


def _cases(bookstore):
    for level, minsup in ((1, 3), (2, 2), (3, 2)):
        yield f"bookstore level {level}", project_to_level(bookstore, level), minsup
    for seed in range(100):
        rng = random.Random(seed)
        matrix = random_matrix(
            rng,
            n_items=rng.randint(1, 12),
            n_transactions=rng.randint(1, 40),
            density=rng.uniform(0.15, 0.85),
        )
        yield f"random seed {seed}", matrix, rng.randint(1, 8)


def record(bookstore):
    """Trace every case; the golden file is this mapping as JSON."""
    traces = {}
    for name, matrix, minsup in _cases(bookstore):
        result = pincer_search(matrix, minsup)
        traces[name] = {
            "minsup": minsup,
            "passes": result.trace.passes,
            "steps": [asdict(step) for step in result.trace.steps],
            "mfs": [[list(items), support] for items, support in result.mfs.items()],
        }
    return traces


def test_traces_match_recording(bookstore):
    golden = json.loads(TRACES.read_text())
    got = record(bookstore)
    assert list(got) == list(golden)
    for name, expected in golden.items():
        assert got[name] == expected, name
