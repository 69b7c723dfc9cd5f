#!/usr/bin/env python3
"""Paired benchmark runs of the staged change against a base revision.

    python3 scripts/bench_pairs.py BASE [--pairs N] [--seconds S]

Run it inside the repository, after ``git add``.  BASE is any git
revision.  The base tree comes from ``git archive BASE`` and the change
from the index (``git checkout-index``), each in a fresh temporary
directory, so neither holds a ``__pycache__``; both run with
``PYTHONDONTWRITEBYTECODE=1``.  For every workload in ``BENCHMARK.json``
it runs ``perfbench/run.py --workload W --seed 1 --trace 0 --seconds S``
once per side in each of N pairs (default 10), and the side that runs
first alternates from pair to pair.  S defaults to ``run_seconds``.

It writes ``BENCH_<short sha of BASE>.json`` at the repository root,
holding every run's final JSON line, the attempted and failed calls of
each side, and for each end-to-end metric and workload: each side's
median and quartiles (inclusive method), the pairs in which the change
read lower, the metric's bound, and one verdict:

* ``gain``: the change read better in at least nine tenths of the pairs,
  and the medians differ by more than the base's quartile spread;
* ``loss``: the change's median is worse than the base's by more than
  the bound, a fraction of the base's median;
* ``unresolved``: the base's quartile spread exceeds the bound;
* ``flat``: anything else.

The first of these that holds is the verdict.  The script only calls
``perfbench/run.py`` and uses only the standard library.  It exits 1
when a run wrote no result line or any call failed, after writing the
file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def build_trees(base: str, tmp: Path) -> dict[str, Path]:
    """The base revision and the index, each exported under ``tmp``."""
    trees = {side: tmp / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir()
    archive = subprocess.Popen(["git", "archive", base], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(trees["base"])], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"git archive {base} failed")
    git("checkout-index", "-a", f"--prefix={trees['change']}/")
    return trees


def run_once(tree: Path, workload: str, seconds: float) -> tuple[int, dict | None]:
    """One ``perfbench/run.py`` run: its exit code and final JSON line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--trace", "0", "--seconds", str(seconds),
    ]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(metric: dict, base: dict, change: dict, better: int, pairs: int) -> str:
    """``better`` is the number of pairs in which the change read better."""
    gap = change["median"] - base["median"]
    if metric["better"] == "higher":
        gap = -gap
    base_spread = base["q3"] - base["q1"]
    if better >= 0.9 * pairs and -gap > base_spread:
        return "gain"
    if gap > metric["bound"] * base["median"]:
        return "loss"
    if base_spread > metric["bound"] * base["median"]:
        return "unresolved"
    return "flat"


def summarize(bench: dict, runs: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides, pair counts, verdict."""
    out: dict[str, dict] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload and run["result"] is not None:
                values.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        complete = [v for _, v in sorted(values.items()) if len(v) == 2]
        out[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if not complete:
                out[workload][name] = {"pairs": 0, "verdict": "unresolved"}
                continue
            pairs = [(p["base"][name]["value"], p["change"][name]["value"]) for p in complete]
            lower = sum(c < b for b, c in pairs)
            better = lower if metric["better"] == "lower" else sum(c > b for b, c in pairs)
            sides = {side: quartiles([p[i] for p in pairs]) for i, side in enumerate(SIDES)}
            out[workload][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **sides,
                "pairs": len(pairs),
                "pairs_change_lower": lower,
                "verdict": verdict(metric, sides["base"], sides["change"], better, len(pairs)),
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the git revision to compare the index against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    short = git("rev-parse", "--short", base_sha)
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = build_trees(base_sha, Path(tmp))
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        for workload in (w["name"] for w in bench["workloads"]):
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    code, result = run_once(trees[side], workload, seconds)
                    runs.append({
                        "workload": workload, "pair": pair, "side": side,
                        "first": side == order[0], "exit": code, "result": result,
                    })
                    shown = result["metrics"]["mine_s"]["value"] if result else "no result"
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}: mine_s {shown}",
                          file=sys.stderr)
    calls = {
        side: {
            key: sum(r["result"][key] for r in runs if r["side"] == side and r["result"])
            for key in ("attempted", "failed")
        }
        for side in SIDES
    }
    report = {
        "base": base_sha,
        "change": "index",
        "seed": SEED,
        "pairs": args.pairs,
        "seconds": seconds,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "calls": calls,
        "summary": summarize(bench, runs),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{short}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in report["summary"].items():
        for name, m in metrics.items():
            if m["pairs"]:
                print(f"{workload} {name}: base {m['base']['median']:.4g} "
                      f"[{m['base']['q1']:.4g}, {m['base']['q3']:.4g}] -> change "
                      f"{m['change']['median']:.4g}, lower in {m['pairs_change_lower']}"
                      f"/{m['pairs']}: {m['verdict']}")
    print(f"calls: {calls}; wrote {out}")
    broken = any(r["result"] is None for r in runs)
    return 1 if broken or any(c["failed"] for c in calls.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
