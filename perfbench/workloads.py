"""Seeded input generators for the benchmark workloads.

Each generator writes a ``code,name`` taxonomy CSV and a ``tid,item``
transactions CSV into a directory; ``pincer-ml mine`` only ever sees
those files.  Workload sizes, mine flags and the reasons each workload
exists live in ``workloads.json`` next to this file.
"""
from __future__ import annotations

import csv
import json
import math
import random
import string
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"
# One-symbol item codes: 32 distinct characters.
SYMBOLS = string.ascii_uppercase + "012345"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _write_csv(path: Path, header: tuple[str, str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_one_level(out: Path, n_items: int, baskets: list[set[str]]) -> None:
    _write_csv(
        out / "taxonomy.csv",
        ("code", "name"),
        [(code, f"item {code}") for code in SYMBOLS[:n_items]],
    )
    _write_csv(
        out / "transactions.csv",
        ("tid", "item"),
        [(f"T{tid}", code) for tid, basket in enumerate(baskets, 1) for code in sorted(basket)],
    )


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's product-of-uniforms Poisson draw; fine for small means."""
    limit = math.exp(-mean)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def planted(seed: int, out: Path, *, n_items: int, rows: int, mean_basket: float,
            pattern_sizes: list[int], drop: float) -> None:
    """Quest-style T.I.D baskets built around a few long planted patterns.

    After Agrawal & Srikant (VLDB 1994): each basket draws a length from
    Poisson(T), takes one planted pattern with each item dropped with
    probability ``drop`` (the corruption level), and fills up to its
    length with uniform noise items.  Unlike Quest, the patterns are
    disjoint, equally weighted and of fixed sizes (mean I), so the
    maximal sets, and the rule family that grows as 3**size with them,
    keep their shape from seed to seed.
    """
    rng = random.Random(seed)
    items = list(SYMBOLS[:n_items])
    pool = rng.sample(items, sum(pattern_sizes))
    patterns, start = [], 0
    for size in pattern_sizes:
        patterns.append(pool[start:start + size])
        start += size
    baskets = []
    for _ in range(rows):
        length = max(1, _poisson(rng, mean_basket))
        basket = {x for x in rng.choice(patterns) if rng.random() >= drop}
        while len(basket) < length:
            basket.add(rng.choice(items))
        baskets.append(basket)
    _write_one_level(out, n_items, baskets)


def uniform(seed: int, out: Path, *, n_items: int, rows: int, density: float) -> None:
    """Baskets holding each item independently with probability ``density``."""
    rng = random.Random(seed)
    items = SYMBOLS[:n_items]
    baskets = [{x for x in items if rng.random() < density} for _ in range(rows)]
    _write_one_level(out, n_items, baskets)


GENERATORS = {"planted": planted, "uniform": uniform}


def generate(workload: dict, seed: int, out: Path) -> tuple[Path, Path]:
    """Write the workload's inputs for ``seed``; return (taxonomy, transactions)."""
    GENERATORS[workload["generator"]](seed, out, **workload["params"])
    return out / "taxonomy.csv", out / "transactions.csv"


def mine_flags(workload: dict) -> list[str]:
    """The ``pincer-ml mine`` threshold flags the workload runs with."""
    return [
        "--support-mode", workload["support_mode"],
        "--minsup", ",".join(workload["minsup"]),
        "--min-conf", workload["min_conf"],
    ]
