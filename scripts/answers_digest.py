#!/usr/bin/env python3
"""Print one sha256 over the search's answers on 2,000 random matrices,
and fail unless it is the expected one.

Matrix ``seed`` is drawn with ``random.Random(seed)``: 1-14 items, 1-60
rows, density 0.1-0.9, minsup 1-10.  The digest covers each run's
maximal sets with their supports, its frequent items, every ``PassStats``
row, the pass total and every observer snapshot, all as plain lists, so
two checkouts whose searches agree print the same line whatever their
classes are called.  Run it from the repository root after any change
to the engine:

    PYTHONPATH=src python3 scripts/answers_digest.py

It exits 1 when the digest differs from ``EXPECTED``.  A change that
alters the answers on purpose updates ``EXPECTED`` and says so.
"""
import hashlib
import json
import random
import sys

from pincer_ml.gen import random_matrix
from pincer_ml.pincer import pincer_search

SEEDS = range(2000)
EXPECTED = "8faac541d5132022a06baeee68d36b17d01bdddb0754ef3e8ed450e3cfb6907b"


def draw(seed: int):
    """Matrix ``seed`` and its minsup."""
    rng = random.Random(seed)
    matrix = random_matrix(
        rng,
        n_items=rng.randint(1, 14),
        n_transactions=rng.randint(1, 60),
        density=rng.uniform(0.1, 0.9),
    )
    return matrix, rng.randint(1, 10)


def answers(seed: int) -> list:
    matrix, minsup = draw(seed)
    snapshots = []

    def observer(k, *borders):
        snapshots.append([k, *(sorted(map(list, b)) for b in borders)])

    result = pincer_search(matrix, minsup, observer=observer)
    steps = [
        [s.k, s.candidates, s.frequent, s.infrequent, s.mfcs_size, s.mfs_size, s.passes]
        for s in result.trace.steps
    ]
    return [
        [[list(items), support] for items, support in result.mfs.items()],
        sorted({i for items in result.mfs for i in items}),
        steps,
        result.trace.passes,
        snapshots,
    ]


def main() -> None:
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(json.dumps(answers(seed)).encode())
        digest.update(b"\n")
    print(digest.hexdigest())
    if digest.hexdigest() != EXPECTED:
        sys.exit(f"answers changed: expected digest {EXPECTED}")


if __name__ == "__main__":
    main()
