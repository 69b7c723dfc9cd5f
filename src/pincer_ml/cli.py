"""Command line front end.

Subcommands
-----------
mine          run the multilevel miner and emit itemsets + rules
compare       run the bidirectional engine and the levelwise baseline
              side by side and tabulate the work done by each
oracle-check  cross-check the engine against exhaustive enumeration
gen           emit a seeded random taxonomy/transactions CSV pair

Each command maps its parsed arguments to ``(report text, ok)``;
``main`` writes the text to ``--out`` (UTF-8) or stdout, then exits.
Exit codes: 0 success, 1 runtime failure (bad data, missing file,
unwritable report, mismatched results once the report is written),
2 bad invocation, 3 exact-computation size limit.  Each error class in
``errors`` carries its code as ``exit_code``.
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, MiningError
from .multilevel import (
    DescentPolicy,
    LevelConfig,
    MultiLevelResult,
    mine_multilevel,
)
from .rules import generate_rules
from .taxonomy import read_taxonomy_csv
from .transactions import project_to_level, read_transactions_csv

# baselines, oracle and gen are imported inside the commands that use
# them, so ``mine`` loads none of them.

SUPPORT_MODES = ("absolute", "fractional")
FORMATS = ("json", "text")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="pincer-ml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_policy=True):
        p.add_argument("--taxonomy", required=True, help="taxonomy CSV (code,name)")
        p.add_argument(
            "--transactions", required=True, help="transactions CSV (tid,item)"
        )
        p.add_argument(
            "--minsup",
            required=True,
            help="comma-separated per-level thresholds, most general level first",
        )
        p.add_argument(
            "--support-mode",
            choices=SUPPORT_MODES,
            default="absolute",
            help="interpret --minsup as counts or as fractions of the database",
        )
        if with_policy:
            p.add_argument(
                "--policy",
                choices=[p.value for p in DescentPolicy],
                default=DescentPolicy.FREQUENT_PARENTS.value,
                help="how each level's vocabulary descends from the level above",
            )
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--out", help="write the report here instead of stdout")

    p_mine = sub.add_parser("mine", help="mine itemsets and association rules")
    add_io(p_mine)
    p_mine.add_argument(
        "--min-conf",
        default="0.5",
        help="minimum rule confidence, a number in (0, 1]",
    )
    p_mine.set_defaults(run=cmd_mine)

    p_cmp = sub.add_parser(
        "compare", help="bidirectional engine vs. levelwise baseline"
    )
    add_io(p_cmp, with_policy=False)
    # The baseline only knows frequent-parents descent, so the engine is
    # run with the same policy to keep the comparison apples to apples.
    p_cmp.set_defaults(run=cmd_compare, policy=DescentPolicy.FREQUENT_PARENTS.value)

    p_chk = sub.add_parser(
        "oracle-check", help="verify engine output by exhaustive enumeration"
    )
    add_io(p_chk)
    p_chk.set_defaults(run=cmd_oracle_check)

    p_gen = sub.add_parser("gen", help="generate a random dataset")
    p_gen.add_argument("--taxonomy", required=True, help="taxonomy CSV to write")
    p_gen.add_argument(
        "--transactions", required=True, help="transactions CSV to write"
    )
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p_gen.add_argument("--roots", type=int, default=4)
    p_gen.add_argument("--max-children", type=int, default=3)
    p_gen.add_argument("--levels", type=int, default=3)
    p_gen.add_argument("--rows", type=int, default=20)
    p_gen.add_argument("--max-items", type=int, default=6)
    p_gen.add_argument("--format", choices=FORMATS, default="json")
    p_gen.add_argument("--out", help="write the summary here instead of stdout")
    p_gen.set_defaults(run=cmd_gen)
    return parser


# A --minsup or --min-conf entry is an exact value whose numerator and
# denominator have at most MAX_DIGITS digits, the longest int Python
# prints by default, so every accepted value can be reported.  An
# exponent beyond MAX_EXPONENT is refused before ``Fraction`` builds
# ``10**exponent``: ``Fraction`` reads at most 2 * MAX_DIGITS mantissa
# digits, so such an entry has too many digits anyway.  ``Fraction`` reads
# digit-group underscores from Python 3.11 on only, so an entry holding
# ``_`` is refused on every version.
MAX_DIGITS = 4300
MAX_EXPONENT = 3 * MAX_DIGITS
_EXPONENT = re.compile(r"[eE][-+]?(\d+)\s*\Z")


def _parse_entry(tok: str, flag: str) -> Fraction:
    """One ``--minsup`` or ``--min-conf`` entry as an exact value."""
    match = _EXPONENT.search(tok)
    exponent = match[1].lstrip("0") if match else ""
    if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
        raise ConfigError(f"{flag} entry {tok!r} has an exponent beyond {MAX_EXPONENT}")
    try:
        if "_" in tok:
            raise ValueError(tok)
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad {flag} entry {tok!r}") from None
    if max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        raise ConfigError(f"{flag} entry {tok!r} has over {MAX_DIGITS} digits")
    return value


def parse_minsup(text: str, mode: str, n_transactions: int, total_levels: int):
    """Turn ``3,2,2`` or ``0.2,0.13,0.13`` into absolute per-level counts.

    Fractional thresholds are resolved with exact arithmetic so that a
    value like 0.2 over 15 rows yields 3, never a float-rounded 4.
    """
    tokens = [tok.strip() for tok in text.split(",")]
    if len(tokens) != total_levels:
        raise ConfigError(
            f"--minsup needs {total_levels} comma-separated values, got {len(tokens)}"
        )
    values = []
    for tok in tokens:
        value = _parse_entry(tok, "--minsup")
        if mode == "absolute":
            if value.denominator != 1:
                raise ConfigError(
                    f"--minsup entry {tok!r} is not a whole count; "
                    "use --support-mode fractional for fractions of the database"
                )
            if value < 1:
                raise ConfigError(f"--minsup entry {tok!r} must be at least 1")
            values.append(int(value))
        else:
            if not 0 < value <= 1:
                raise ConfigError(
                    f"fractional --minsup entry {tok!r} must be in (0, 1]"
                )
            values.append(max(1, math.ceil(value * n_transactions)))
    return tuple(values)


def parse_confidence(text: str) -> Fraction:
    value = _parse_entry(text, "--min-conf")
    if not 0 < value <= 1:
        raise ConfigError(f"--min-conf must be in (0, 1], got {text!r}")
    return value


def _mine_levels(args):
    """Load both CSVs, resolve ``--minsup``, mine; return (config, result)."""
    db = read_transactions_csv(args.transactions, read_taxonomy_csv(args.taxonomy))
    levels = db.taxonomy.total_levels
    minsup = parse_minsup(args.minsup, args.support_mode, db.n_transactions, levels)
    config = LevelConfig(minsup, levels, DescentPolicy(args.policy))
    return config, mine_multilevel(db, config)


def _meta(command: str) -> dict:
    from . import __version__

    return {
        "tool": "pincer-ml",
        "version": __version__,
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _report(args, body: dict, render_text) -> str:
    """``body`` under ``meta`` as one line of sorted-key JSON, or as text."""
    if args.format == "text":
        return render_text(body)
    # No indent: CPython's C encoder only runs when indent is None.
    return json.dumps({"meta": _meta(args.command), **body}, sort_keys=True) + "\n"


# ---------------------------------------------------------------- mine


def _mine_totals(result: MultiLevelResult, rules_per_level, min_conf) -> dict:
    return {
        "mining_passes": result.mining_passes,
        "expansion_passes": result.expansion_passes,
        "passes": result.total_passes,
        "frequent_itemsets": sum(len(lr.frequent) for lr in result.levels),
        "rules": sum(len(rules) for rules in rules_per_level),
        "min_conf": str(min_conf),
    }


def _level_names(lr, quote, template: str) -> dict:
    """Each frequent itemset of the level, rendered once.

    Every maximal set, antecedent and consequent is a frequent set of the
    level, so it is looked up by itemset.
    """
    codes = [quote(code.text) for code in lr.vocabulary]
    return {
        fs.itemset: template % ", ".join([codes[i] for i in fs.itemset])
        for fs in lr.frequent
    }


def _mine_json(meta: dict, result: MultiLevelResult, rules_per_level, min_conf) -> str:
    """The report, byte for byte as ``json.dumps(report, sort_keys=True)``.

    Code texts go through ``json.dumps`` once each; support fractions and
    confidences are reduced fraction strings, digits and ``/`` only, so
    they need no escaping.  Keys are written in sorted order.
    """
    levels = []
    for lr, rules in zip(result.levels, rules_per_level):
        names = _level_names(lr, json.dumps, "[%s]")
        counts = {fs.support_count for fs in lr.frequent}
        fractions = {c: str(Fraction(c, result.db.n_transactions)) for c in counts}
        frequent = [
            '{"fraction": "%s", "items": %s, "support": %d}'
            % (fractions[fs.support_count], names[fs.itemset], fs.support_count)
            for fs in lr.frequent
        ]
        maximal = [
            '{"items": %s, "support": %d}' % (names[s], c)
            for s, c in lr.pincer.mfs.items()
        ]
        rule_texts = [
            '{"antecedent": %s, "confidence": "%s", "consequent": %s, "support": %d}'
            % (names[x], conf, names[y], support)
            for x, y, support, conf in rules
        ]
        levels.append(
            '{"expansion_passes": %d, "frequent_itemsets": [%s], "level": %d, '
            '"maximal_frequent_sets": [%s], "mining_passes": %d, "minsup": %d, '
            '"rules": [%s], "vocabulary_size": %d}'
            % (lr.expansion_passes, ", ".join(frequent), lr.level, ", ".join(maximal),
               lr.pincer.trace.passes, lr.minsup, ", ".join(rule_texts), len(lr.vocabulary))
        )
    totals = _mine_totals(result, rules_per_level, min_conf)
    return '{"levels": [%s], "meta": %s, "totals": %s}\n' % (
        ", ".join(levels),
        json.dumps(meta, sort_keys=True),
        json.dumps(totals, sort_keys=True),
    )


def _mine_text(result: MultiLevelResult, rules_per_level, min_conf) -> str:
    totals = _mine_totals(result, rules_per_level, min_conf)
    lines = []
    for lr, rules in zip(result.levels, rules_per_level):
        names = _level_names(lr, str, "{%s}")
        lines.append(
            f"level {lr.level}  minsup={lr.minsup}  "
            f"vocabulary={len(lr.vocabulary)}  "
            f"passes={lr.pincer.trace.passes}+{lr.expansion_passes}"
        )
        lines.append("  maximal frequent sets:")
        lines.extend(f"    {names[s]}  support={c}" for s, c in lr.pincer.mfs.items())
        if not lr.pincer.mfs:
            lines.append("    (none)")
        lines.append(f"  frequent itemsets: {len(lr.frequent)}")
        lines.append(f"  rules (min confidence {totals['min_conf']}):")
        lines.extend(
            "    %s -> %s  support=%d  confidence=%s"
            % (names[x], names[y], support, conf)
            for x, y, support, conf in rules
        )
        if not rules:
            lines.append("    (none)")
        lines.append("")
    lines.append(
        f"totals: {totals['frequent_itemsets']} frequent itemsets, "
        f"{totals['rules']} rules, "
        f"{totals['mining_passes']} mining passes "
        f"+ {totals['expansion_passes']} expansion passes"
    )
    return "\n".join(lines) + "\n"


def cmd_mine(args) -> tuple[str, bool]:
    min_conf = parse_confidence(args.min_conf)
    _, result = _mine_levels(args)
    rules_per_level = [generate_rules(lr.frequent, min_conf) for lr in result.levels]
    if args.format == "text":
        return _mine_text(result, rules_per_level, min_conf), True
    return _mine_json(_meta(args.command), result, rules_per_level, min_conf), True


# ------------------------------------------------------------- compare


def _render_compare_text(payload: dict) -> str:
    lines = []
    for level in payload["levels"]:
        lines.append(
            f"level {level['level']}  "
            f"pincer passes={level['pincer_passes']}  "
            f"baseline passes={level['baseline_passes']}"
        )
        lines.append("    k  pincer-cand  baseline-cand  frequent")
        for row in level["rows"]:
            lines.append(
                f"    {row['k']}  {row['pincer_candidates']:11d}  "
                f"{row['baseline_candidates']:13d}  {row['pincer_frequent']:8d}"
            )
        lines.append("")
    totals = payload["totals"]
    lines.append(
        f"totals: pincer {totals['pincer_passes']} mining passes "
        f"({totals['pincer_candidates']} candidates) "
        f"+ {totals['pincer_expansion_passes']} expansion passes, "
        f"baseline {totals['baseline_passes']} passes "
        f"({totals['baseline_candidates']} candidates), "
        f"results {'match' if totals['results_match'] else 'DIFFER'}"
    )
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> tuple[str, bool]:
    from .baselines import compare, ml_t2l1

    config, mined = _mine_levels(args)
    report = compare(mined, ml_t2l1(mined.db, config))
    return _report(args, report, _render_compare_text), report["totals"]["results_match"]


# -------------------------------------------------------- oracle-check


def _render_oracle_text(body: dict) -> str:
    rows = [
        f"level {lvl['level']}: engine {lvl['engine_frequent']} frequent / "
        f"{lvl['engine_maximal']} maximal, oracle {lvl['oracle_frequent']} / "
        f"{lvl['oracle_maximal']} -> "
        + ("ok" if lvl["match"] else "MISMATCH")
        for lvl in body["levels"]
    ]
    verdict = "all levels match" if body["totals"]["match"] else "MISMATCH FOUND"
    return "\n".join(rows + [verdict]) + "\n"


def cmd_oracle_check(args) -> tuple[str, bool]:
    from .oracle import brute_force

    _, result = _mine_levels(args)
    levels = []
    for lr in result.levels:
        matrix = project_to_level(result.db, lr.level, frozenset(lr.vocabulary))
        oracle = brute_force(matrix, lr.minsup)
        engine_map = {fs.itemset: fs.support_count for fs in lr.frequent}
        engine_maximal = frozenset(lr.pincer.mfs)
        match = engine_map == oracle.frequent and engine_maximal == oracle.maximal
        levels.append(
            {
                "level": lr.level,
                "vocabulary_size": len(lr.vocabulary),
                "engine_frequent": len(engine_map),
                "oracle_frequent": len(oracle.frequent),
                "engine_maximal": len(engine_maximal),
                "oracle_maximal": len(oracle.maximal),
                "match": match,
            }
        )
    ok = all(level["match"] for level in levels)
    body = {"levels": levels, "totals": {"match": ok}}
    return _report(args, body, _render_oracle_text), ok


# ----------------------------------------------------------------- gen


def _write_csv(path: str, header: tuple[str, str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_gen(args) -> tuple[str, bool]:
    from .gen import random_dataset, taxonomy_csv_rows, transaction_csv_rows

    db = random_dataset(
        seed=args.seed,
        n_roots=args.roots,
        max_children=args.max_children,
        total_levels=args.levels,
        n_transactions=args.rows,
        max_items=args.max_items,
    )
    _write_csv(args.taxonomy, ("code", "name"), taxonomy_csv_rows(db.taxonomy))
    _write_csv(args.transactions, ("tid", "item"), transaction_csv_rows(db))
    body = {
        "seed": args.seed,
        "taxonomy": args.taxonomy,
        "transactions": args.transactions,
        "leaves": len(db.leaves),
        "rows": db.n_transactions,
        "fingerprint": db.fingerprint(),
    }

    def render(p):
        return (
            f"wrote {p['leaves']} leaf items to {p['taxonomy']} and "
            f"{p['rows']} transactions to {p['transactions']} (seed {p['seed']})\n"
        )

    return _report(args, body, render), True


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    """Run one command, write its report, and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
        text, ok = args.run(args)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            try:
                sys.stdout.write(text)
            except UnicodeEncodeError:
                # The whole text is encoded before any of it is written.
                raise MiningError("stdout cannot encode the report; --out writes UTF-8") from None
    except (MiningError, OSError) as exc:
        print(f"pincer-ml: {exc}", file=sys.stderr)
        # An OSError (a missing or unwritable file) is a runtime failure.
        return getattr(exc, "exit_code", MiningError.exit_code)
    return 0 if ok else MiningError.exit_code


def app() -> None:
    # One-shot process: the engine's records are acyclic, so collections
    # reclaim nothing.  The freeze keeps start-up objects out of the
    # collection the interpreter still runs at exit.
    gc.freeze()
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    app()
