#!/usr/bin/env python3
"""Run the scale cases, each in its own capped child process.

    python3 scripts/scale_cases.py

Run it from anywhere inside a source checkout; the program is imported
from the checkout's ``src``.  The cases are the two wide multilevel runs
and the seven flat matrices that ROADMAP.md measures:

* ``wide-1`` and ``wide-2``: ``gen.random_dataset(seed=10, n_roots=26,
  max_children=9, total_levels=6, n_transactions=5000)`` (89,894
  leaves), with fractional thresholds resolved by ``cli.parse_minsup``;
  the search is ``mine_multilevel`` (search and expansion) and the
  reference ``baselines.ml_t2l1``;
* ``matrix-…``: ``gen.random_matrix(random.Random(1), items, rows,
  density)`` at an absolute minsup, and ``digest-1709``, matrix 1709 of
  ``scripts/answers_digest.py`` drawn as that script draws it; the
  search is ``pincer_search`` and the reference ``baselines.apriori``.

Each case runs in a fresh interpreter, one at a time.  Before it builds
anything the child caps its own address space (``RLIMIT_AS``, 1 GiB)
and CPU time (``RLIMIT_CPU``, 120 s).  The child runs the search
first, then the reference, and then checks that the search's frequent
family and maximal sets equal the reference's (on the wide cases the
frequent family through ``baselines.compare``'s ``results_match``).  A
case that hits a cap is a result: its entry names the cap and the step
it hit it in (``step``: ``search``, ``reference`` or ``check``; none
while the data is built), and keeps whatever the child had finished
before it.

It prints one line per case and writes ``BENCH_scale.json`` at the
repository root, holding per case the search passes per level and the
expansion sweeps, the reference's passes per level, the search and
reference wall times, the child's peak RSS and CPU time, and the two
answer checks.  It uses only the standard library, and the whole run
takes a few minutes.  It exits 1 when an answer check fails or a child
fails without hitting a cap.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
ADDRESS_SPACE_CAP = 1 << 30
CPU_CAP_S = 120
WIDE = {
    "wide-1": "0.05,0.01,0.004,0.002,0.001,0.001",
    "wide-2": "0.02,0.005,0.002,0.001,0.0006,0.0006",
}
# items, rows, density, minsup
MATRICES = {
    "matrix-30x2000-d0.30": (30, 2000, 0.30, 150),
    "matrix-20x500-d0.50": (20, 500, 0.50, 90),
    "matrix-20x500-d0.60": (20, 500, 0.60, 60),
    "matrix-14x40-d0.79": (14, 40, 0.79, 6),
    "matrix-18x40-d0.75": (18, 40, 0.75, 6),
    "digest-1709": None,
    "matrix-22x40-d0.70": (22, 40, 0.70, 6),
}
CHILD = f"import sys; sys.path.insert(0, {str(SCRIPTS)!r}); import scale_cases; " \
    "scale_cases.child(sys.argv[1])"


class CpuCap(Exception):
    pass


def _cpu_cap(signum, frame):
    raise CpuCap


def emit(**fields) -> None:
    """Hand one record to the parent, which merges them in order."""
    print(json.dumps(fields), flush=True)


def timed(step: str, fn, *args):
    """Run ``fn`` as ``step``: its result and wall time."""
    emit(step=step)
    start = time.perf_counter()
    result = fn(*args)
    return result, round(time.perf_counter() - start, 4)


def maximal(family) -> set[frozenset]:
    """The members of a downward-closed family that no other member contains."""
    family = set(map(frozenset, family))
    return family - {s - {i} for s in family for i in s}


def run_wide(minsup: str) -> None:
    from pincer_ml.baselines import compare, ml_t2l1
    from pincer_ml.cli import parse_minsup
    from pincer_ml.gen import random_dataset
    from pincer_ml.multilevel import LevelConfig, mine_multilevel

    db = random_dataset(
        seed=10, n_roots=26, max_children=9, total_levels=6, n_transactions=5000
    )
    # Both miners read these caches: build them before either is timed.
    db.leaf_columns
    db.taxonomy.codes_at_depth(1)
    levels = db.taxonomy.total_levels
    config = LevelConfig(parse_minsup(minsup, "fractional", db.n_transactions, levels), levels)
    emit(leaves=len(db.leaves), rows=db.n_transactions, minsup=list(config.minsup_per_level))
    result, search_s = timed("search", mine_multilevel, db, config)
    emit(
        search_s=search_s,
        search_passes=[lr.mining_passes for lr in result.levels],
        expansion_sweeps=result.expansion_passes,
    )
    reference, reference_s = timed("reference", ml_t2l1, db, config)
    emit(reference_s=reference_s, reference_passes=[lr.passes for lr in reference.levels])
    emit(step="check")

    def texts(itemsets, vocabulary):
        return [[vocabulary[i].text for i in s] for s in itemsets]

    emit(
        frequent_match=compare(result, reference)["totals"]["results_match"],
        maximal_match=all(
            maximal(texts(lr.pincer.mfs, lr.vocabulary))
            == maximal(texts((fs.itemset for fs in ref.frequent), ref.vocabulary))
            for lr, ref in zip(result.levels, reference.levels)
        ),
    )


def run_matrix(name: str) -> None:
    import random

    from pincer_ml.baselines import apriori
    from pincer_ml.gen import random_matrix
    from pincer_ml.pincer import pincer_search
    from pincer_ml.rules import expand_frequent

    if MATRICES[name] is None:
        from answers_digest import draw

        matrix, minsup = draw(int(name.rsplit("-", 1)[1]))
    else:
        items, rows, density, minsup = MATRICES[name]
        matrix = random_matrix(random.Random(1), items, rows, density)
    emit(items=len(matrix.vocabulary), rows=matrix.n_transactions, minsup=[minsup])
    result, search_s = timed("search", pincer_search, matrix, minsup)
    emit(search_s=search_s, search_passes=[result.trace.passes])
    reference, reference_s = timed("reference", apriori, matrix, minsup)
    emit(reference_s=reference_s, reference_passes=[reference.passes])
    emit(step="check")
    frequent = expand_frequent(result.mfs, matrix)
    emit(
        expansion_sweeps=1 if frequent else 0,
        frequent_match=frequent == reference.frequent,
        maximal_match=maximal(result.mfs) == maximal(fs.itemset for fs in reference.frequent),
    )


def child(name: str) -> None:
    """Run case ``name`` under the caps, emitting a record after each step."""
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S + 5))
    signal.signal(signal.SIGXCPU, _cpu_cap)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if name in WIDE:
            run_wide(WIDE[name])
        else:
            run_matrix(name)
    except MemoryError:
        cap = "RLIMIT_AS"
    except CpuCap:
        cap = "RLIMIT_CPU"
    else:
        return
    emit(cap=cap)


def run_case(name: str) -> dict:
    """Run one case in a child; its merged records plus what the parent saw."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, name], stdout=subprocess.PIPE, text=True)
    entry: dict = {"case": name}
    for line in proc.stdout:
        entry.update(json.loads(line))
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    entry.update(
        child_s=round(time.perf_counter() - start, 2),
        cpu_s=round(cpu_s, 2),
        peak_rss_mb=round(usage.ru_maxrss / 1024, 1),
        exit=proc.returncode,
    )
    if "cap" not in entry and proc.returncode < 0 and cpu_s >= CPU_CAP_S:
        entry["cap"] = "RLIMIT_CPU"  # killed at the hard limit
    return entry


def describe(entry: dict) -> str:
    parts = [f"{entry['case']}:"]
    if "search_passes" in entry:
        passes = ",".join(map(str, entry["search_passes"]))
        parts.append(f"passes {passes} + {entry.get('expansion_sweeps', '?')} sweeps,")
    if "reference_passes" in entry:
        parts.append(f"reference {','.join(map(str, entry['reference_passes']))};")
    if "search_s" in entry:
        parts.append(f"search {entry['search_s']:.3f} s,")
    if "reference_s" in entry:
        parts.append(f"reference {entry['reference_s']:.3f} s;")
    parts.append(f"peak {entry['peak_rss_mb']} MB, cpu {entry['cpu_s']} s;")
    if "cap" in entry:
        parts.append(f"hit {entry['cap']} during the {entry.get('step', 'build')}")
    elif "frequent_match" in entry:
        parts.append(
            f"frequent {'match' if entry['frequent_match'] else 'DIFFER'}, "
            f"maximal {'match' if entry['maximal_match'] else 'DIFFER'}"
        )
    else:
        parts.append(f"FAILED with exit {entry['exit']}")
    return " ".join(parts)


def main() -> int:
    entries = []
    for name in [*WIDE, *MATRICES]:
        entry = run_case(name)
        print(describe(entry), flush=True)
        entries.append(entry)
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "caps": {"RLIMIT_AS_bytes": ADDRESS_SPACE_CAP, "RLIMIT_CPU_s": CPU_CAP_S},
        "cases": entries,
    }
    out = ROOT / "BENCH_scale.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    wrong = any(
        "cap" not in e and not (e.get("frequent_match") and e.get("maximal_match"))
        for e in entries
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
