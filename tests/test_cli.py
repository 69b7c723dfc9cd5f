import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pincer_ml
from conftest import DATA, GOLDEN
from pincer_ml import baselines, errors, oracle
from pincer_ml.cli import _mine_json, _mine_text, main
from pincer_ml.errors import MiningError
from pincer_ml.gen import random_dataset
from pincer_ml.multilevel import DescentPolicy, LevelConfig, mine_multilevel
from pincer_ml.pincer import pincer_search
from pincer_ml.rules import expand_frequent, generate_rules
from pincer_ml.transactions import TransactionDB


def run(*args):
    return main([str(a) for a in args])


def bookstore_args(command):
    return [
        command,
        "--taxonomy", DATA / "bookstore_taxonomy.csv",
        "--transactions", DATA / "bookstore.csv",
        "--minsup", "3,2,2",
    ]


def command_args(command, tmp_path):
    """Arguments that run ``command`` cleanly; ``gen`` writes under ``tmp_path``."""
    if command == "gen":
        return ["gen", "--taxonomy", tmp_path / "t.csv",
                "--transactions", tmp_path / "x.csv", "--seed", "5"]
    return bookstore_args(command)


def mine_args(*extra, out=None):
    args = bookstore_args("mine")
    args.extend(extra)
    if out is not None:
        args.extend(["--out", out])
    return args


SRC = Path(pincer_ml.__file__).resolve().parents[1]


def python_with_src(*argv, **env):
    """Run ``python argv`` in a fresh interpreter that imports from ``SRC``.

    Keyword arguments are added to the child's environment.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return subprocess.run(
        [sys.executable, *map(str, argv)], env=env, capture_output=True,
        text=True, timeout=60,
    )


def body_of(path):
    report = json.loads(path.read_text())
    assert "meta" in report
    return {k: v for k, v in report.items() if k != "meta"}


class TestMine:
    def test_matches_golden_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(*mine_args("--policy", "maximal-itemset-items", out=out))
        assert code == 0
        assert body_of(out) == body_of(GOLDEN / "bookstore_maximal_322.json")

    def test_identical_runs_identical_bodies(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*mine_args(out=first)) == 0
        assert run(*mine_args(out=second)) == 0
        dumps = [
            json.dumps(body_of(p), sort_keys=True).encode() for p in (first, second)
        ]
        assert dumps[0] == dumps[1]

    def test_fractional_thresholds_equal_absolute(self, tmp_path):
        absolute, fractional = tmp_path / "abs.json", tmp_path / "frac.json"
        assert run(*mine_args(out=absolute)) == 0
        code = run(
            "mine",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(DATA / "bookstore.csv"),
            "--minsup", "0.2,0.13,0.13",
            "--support-mode", "fractional",
            "--out", str(fractional),
        )
        assert code == 0
        assert body_of(absolute) == body_of(fractional)

    def test_integral_float_is_accepted_as_count(self, tmp_path):
        plain, dotted = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*mine_args(out=plain)) == 0
        code = run(
            "mine",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(DATA / "bookstore.csv"),
            "--minsup", "3.0,2.0,2.0",
            "--out", str(dotted),
        )
        assert code == 0
        assert body_of(plain) == body_of(dotted)

    def test_text_format(self, capsys):
        assert run(*mine_args("--format", "text")) == 0
        out = capsys.readouterr().out
        assert "level 1" in out
        assert "maximal frequent sets" in out
        assert "{C**, D**, E**, G**}  support=4" in out

    def test_text_format_marks_a_level_with_no_frequent_set(self, capsys):
        args = bookstore_args("mine")
        args[-1] = "7,7,7"
        assert run(*args, "--format", "text") == 0
        out = capsys.readouterr().out
        assert (
            "level 3  minsup=7  vocabulary=8  passes=1+0\n"
            "  maximal frequent sets:\n"
            "    (none)\n"
            "  frequent itemsets: 0\n"
        ) in out

    def test_out_file_silences_stdout(self, tmp_path, capsys):
        assert run(*mine_args(out=tmp_path / "r.json")) == 0
        assert capsys.readouterr().out == ""

    def test_report_content(self, tmp_path):
        out = tmp_path / "report.json"
        run(*mine_args(out=out))
        body = body_of(out)
        assert body["totals"]["mining_passes"] == 9
        assert body["totals"]["expansion_passes"] == 3
        level1 = body["levels"][0]
        assert {"items": ["C**", "D**", "E**", "G**"], "support": 4} in level1[
            "maximal_frequent_sets"
        ]
        rule = {
            "antecedent": ["D**", "G**"],
            "consequent": ["E**"],
            "support": 5,
            "confidence": "1",
        }
        assert rule in level1["rules"]


def reference_payload(result, rules_per_level, min_conf):
    """The mine payload as built with one new text list per printed itemset."""

    def texts(itemset, vocabulary):
        return [vocabulary[i].text for i in itemset]

    levels = []
    for lr, rules in zip(result.levels, rules_per_level):
        vocab = lr.vocabulary
        levels.append({
            "level": lr.level,
            "minsup": lr.minsup,
            "vocabulary_size": len(vocab),
            "mining_passes": lr.mining_passes,
            "expansion_passes": lr.expansion_passes,
            "maximal_frequent_sets": [
                {"items": texts(s, vocab), "support": c}
                for s, c in lr.pincer.mfs.items()
            ],
            "frequent_itemsets": [
                {
                    "items": texts(fs.itemset, vocab),
                    "support": fs.support_count,
                    "fraction": str(Fraction(fs.support_count, result.db.n_transactions)),
                }
                for fs in lr.frequent
            ],
            "rules": [
                {
                    "antecedent": texts(r.antecedent, vocab),
                    "consequent": texts(r.consequent, vocab),
                    "support": r.support_count,
                    "confidence": str(r.confidence),
                }
                for r in rules
            ],
        })
    totals = {
        "mining_passes": result.mining_passes,
        "expansion_passes": result.expansion_passes,
        "passes": result.total_passes,
        "frequent_itemsets": sum(len(lr.frequent) for lr in result.levels),
        "rules": sum(len(rules) for rules in rules_per_level),
        "min_conf": str(min_conf),
    }
    return {"levels": levels, "totals": totals}


def reference_text(payload):
    """The ``--format text`` report as rendered from the mine payload."""
    lines = []
    for level in payload["levels"]:
        lines.append(
            f"level {level['level']}  minsup={level['minsup']}  "
            f"vocabulary={level['vocabulary_size']}  "
            f"passes={level['mining_passes']}+{level['expansion_passes']}"
        )
        lines.append("  maximal frequent sets:")
        for row in level["maximal_frequent_sets"]:
            lines.append(
                f"    {{{', '.join(row['items'])}}}  support={row['support']}"
            )
        if not level["maximal_frequent_sets"]:
            lines.append("    (none)")
        lines.append(
            f"  frequent itemsets: {len(level['frequent_itemsets'])}"
        )
        lines.append(f"  rules (min confidence {payload['totals']['min_conf']}):")
        for rule in level["rules"]:
            lines.append(
                "    {%s} -> {%s}  support=%d  confidence=%s"
                % (
                    ", ".join(rule["antecedent"]),
                    ", ".join(rule["consequent"]),
                    rule["support"],
                    rule["confidence"],
                )
            )
        if not level["rules"]:
            lines.append("    (none)")
        lines.append("")
    totals = payload["totals"]
    lines.append(
        f"totals: {totals['frequent_itemsets']} frequent itemsets, "
        f"{totals['rules']} rules, "
        f"{totals['mining_passes']} mining passes "
        f"+ {totals['expansion_passes']} expansion passes"
    )
    return "\n".join(lines) + "\n"


FIXED_META = {"tool": "pincer-ml", "version": "0", "command": "mine", "generated_at": "t"}


class TestMinePayload:
    @pytest.mark.parametrize("policy", list(DescentPolicy))
    @pytest.mark.parametrize("seed", range(30))
    def test_bytes_equal_the_reference(self, seed, policy):
        rng = random.Random(seed)
        db = random_dataset(seed, n_transactions=30)
        config = LevelConfig((rng.randint(2, 5),) * 3, 3, policy)
        result = mine_multilevel(db, config)
        min_conf = rng.choice([Fraction(1, 2), Fraction(4, 5), Fraction(1)])
        rules_per_level = [
            generate_rules(lr.frequent, min_conf) for lr in result.levels
        ]
        want = reference_payload(result, rules_per_level, min_conf)
        got = _mine_json(FIXED_META, result, rules_per_level, min_conf)
        assert got == json.dumps({"meta": FIXED_META, **want}, sort_keys=True) + "\n"
        assert _mine_text(result, rules_per_level, min_conf) == reference_text(want)

    def test_non_ascii_codes_are_escaped_as_json_dumps_escapes_them(
        self, tmp_path, capsys
    ):
        tax, trx = tmp_path / "tax.csv", tmp_path / "trx.csv"
        tax.write_text("code,name\n\u00c41,a\n\U0001d5381,b\nB1,c\n", encoding="utf-8")
        rows = ["T1,\u00c41", "T1,\U0001d5381", "T2,\u00c41", "T2,\U0001d5381", "T2,B1"]
        trx.write_text("tid,item\n" + "\n".join(rows) + "\n", encoding="utf-8")
        args = ["mine", "--taxonomy", tax, "--transactions", trx, "--minsup", "2,2"]
        assert run(*args, "--out", tmp_path / "r.json") == 0
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True) + "\n"
        assert '["\\u00c41", "\\ud835\\udd381"]' in text
        assert run(*args, "--format", "text") == 0
        out = capsys.readouterr().out
        assert "{\u00c41, \U0001d5381}  support=2" in out


class TestCompare:
    def test_reports_pass_advantage(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = run(
            "compare",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(DATA / "bookstore.csv"),
            "--minsup", "3,2,2",
            "--out", str(out),
        )
        assert code == 0
        totals = body_of(out)["totals"]
        assert totals["pincer_passes"] == 9
        assert totals["baseline_passes"] == 11
        assert totals["pincer_candidates"] == 163
        assert totals["baseline_candidates"] == 165
        assert totals["results_match"] is True

    def test_text_format(self, capsys):
        code = run(
            "compare",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(DATA / "bookstore.csv"),
            "--minsup", "3,2,2",
            "--format", "text",
        )
        assert code == 0
        assert "results match" in capsys.readouterr().out

    @pytest.fixture
    def differing_baseline(self, monkeypatch):
        def drop_first_level1_set(db, config):
            result = real(db, config)
            first, *rest = result.levels
            first = first._replace(frequent=first.frequent[1:])
            return result._replace(levels=(first, *rest))

        real = baselines.ml_t2l1
        monkeypatch.setattr("pincer_ml.baselines.ml_t2l1", drop_first_level1_set)

    def test_differing_results_exit_1(self, differing_baseline, capsys):
        assert run(*bookstore_args("compare"), "--format", "text") == 1
        assert capsys.readouterr().out.splitlines()[-1].endswith("results DIFFER")

    def test_differing_results_still_write_the_report(
        self, differing_baseline, tmp_path, capsys
    ):
        out = tmp_path / "cmp.json"
        assert run(*bookstore_args("compare"), "--out", out) == 1
        assert capsys.readouterr().out == ""
        assert body_of(out)["totals"]["results_match"] is False

    def test_rising_thresholds_warn_once_at_the_caller(self):
        args = bookstore_args("compare")
        args[-1] = "2,3,2"
        done = python_with_src("-c", CONSOLE_SCRIPT, *args)
        assert done.returncode == 0
        lines = done.stderr.splitlines()
        assert [line for line in lines if "UserWarning" in line] == lines[:1]
        assert "cli.py" in lines[0]
        assert "a deeper level has a higher support threshold" in lines[0]

    def test_falling_thresholds_are_silent(self):
        done = python_with_src("-c", CONSOLE_SCRIPT, *bookstore_args("compare"))
        assert (done.returncode, done.stderr) == (0, "")


class TestOracleCheck:
    def test_bookstore_passes(self, capsys):
        code = run(
            "oracle-check",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(DATA / "bookstore.csv"),
            "--minsup", "3,2,2",
            "--format", "text",
        )
        assert code == 0
        assert "all levels match" in capsys.readouterr().out

    @pytest.fixture
    def mismatching_oracle(self, monkeypatch):
        def drop_first_set(matrix, minsup):
            result = real(matrix, minsup)
            return result._replace(frequent=dict(list(result.frequent.items())[1:]))

        real = oracle.brute_force
        monkeypatch.setattr("pincer_ml.oracle.brute_force", drop_first_set)

    def test_mismatch_exits_1(self, mismatching_oracle, capsys):
        assert run(*bookstore_args("oracle-check"), "--format", "text") == 1
        assert "MISMATCH FOUND" in capsys.readouterr().out

    def test_mismatch_still_writes_the_report(self, mismatching_oracle, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert run(*bookstore_args("oracle-check"), "--out", out) == 1
        assert capsys.readouterr().out == ""
        assert body_of(out)["totals"]["match"] is False

    def test_oversized_vocabulary_exits_3(self, tmp_path, capsys):
        tax, trx = tmp_path / "t.csv", tmp_path / "x.csv"
        assert run(
            "gen",
            "--taxonomy", str(tax),
            "--transactions", str(trx),
            "--seed", "1",
            "--roots", "26",
            "--levels", "1",
            "--rows", "8",
        ) == 0
        capsys.readouterr()
        code = run(
            "oracle-check",
            "--taxonomy", str(tax),
            "--transactions", str(trx),
            "--minsup", "1",
        )
        assert code == 3


class TestGen:
    def test_round_trip(self, tmp_path, capsys):
        tax, trx = tmp_path / "t.csv", tmp_path / "x.csv"
        code = run(
            "gen",
            "--taxonomy", str(tax),
            "--transactions", str(trx),
            "--seed", "42",
            "--rows", "12",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 12

        from pincer_ml import read_taxonomy_csv, read_transactions_csv

        taxonomy = read_taxonomy_csv(tax)
        db = read_transactions_csv(trx, taxonomy)
        assert db.fingerprint() == payload["fingerprint"]
        assert db.n_transactions == 12

    def test_same_seed_same_fingerprint(self, tmp_path, capsys):
        prints = []
        for stem in ("one", "two"):
            run(
                "gen",
                "--taxonomy", str(tmp_path / f"{stem}.t.csv"),
                "--transactions", str(tmp_path / f"{stem}.x.csv"),
                "--seed", "9",
            )
            prints.append(json.loads(capsys.readouterr().out)["fingerprint"])
        assert prints[0] == prints[1]

    def test_text_summary_counts_what_the_json_reports(self, tmp_path, capsys):
        tax, trx = tmp_path / "t.csv", tmp_path / "x.csv"
        args = ["gen", "--taxonomy", tax, "--transactions", trx, "--seed", "4"]
        assert run(*args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert run(*args, "--format", "text") == 0
        assert capsys.readouterr().out == (
            f"wrote {payload['leaves']} leaf items to {tax} and "
            f"{payload['rows']} transactions to {trx} (seed 4)\n"
        )

    def test_seed_defaults_to_0(self, tmp_path, capsys):
        run(
            "gen",
            "--taxonomy", str(tmp_path / "t.csv"),
            "--transactions", str(tmp_path / "x.csv"),
        )
        assert json.loads(capsys.readouterr().out)["seed"] == 0

    def test_runaway_tree_exits_2(self, tmp_path, capsys):
        # About 4 * 2**39 leaves: refused while the tree is still small.
        code = run(
            "gen",
            "--taxonomy", str(tmp_path / "t.csv"),
            "--transactions", str(tmp_path / "x.csv"),
            "--levels", "40",
            "--seed", "0",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--levels", "--max-children", "--roots"))
        assert not (tmp_path / "t.csv").exists()

    def test_zero_max_items_exits_2_naming_it(self, tmp_path, capsys):
        code = run(
            "gen",
            "--taxonomy", str(tmp_path / "t.csv"),
            "--transactions", str(tmp_path / "x.csv"),
            "--max-items", "0",
        )
        assert code == 2
        assert "--max-items must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--levels", "0", "--levels must be at least 1, got 0"),
            ("--rows", "-1", "--rows must be non-negative, got -1"),
            ("--roots", "27", "--roots must be within 1..26, got 27"),
            ("--max-children", "0", "--max-children must be within 1..9, got 0"),
        ],
        ids=["levels", "rows", "roots", "max-children"],
    )
    def test_out_of_range_size_exits_2(self, tmp_path, capsys, flag, value, message):
        code = run(
            "gen",
            "--taxonomy", str(tmp_path / "t.csv"),
            "--transactions", str(tmp_path / "x.csv"),
            flag, value,
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_flags_are_checked_before_the_tree_grows(self, tmp_path, capsys):
        code = run(
            "gen",
            "--taxonomy", str(tmp_path / "t.csv"),
            "--transactions", str(tmp_path / "x.csv"),
            "--levels", "40",
            "--max-items", "0",
        )
        assert code == 2
        assert "--max-items must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, fingerprint",
        [
            ([], "5ae809bd18bde1f409fc3b6f025b2ee17ca236c1171f7ef9b351979900727b4d"),
            (
                ["--seed", "0", "--levels", "4", "--rows", "50"],
                "faecf529f2baf66b990b217b1dcb2534d3d00a06889404058371cd4f82b87899",
            ),
            (
                ["--seed", "7", "--levels", "4", "--rows", "50"],
                "2c2ea676779789e7e7cc01b96ad13fbc63a20c5710d74fa9623ea8cfbfc892ac",
            ),
        ],
        ids=["defaults", "seed0-levels4", "seed7-levels4"],
    )
    def test_fingerprint_is_pinned(self, tmp_path, capsys, flags, fingerprint):
        # A change to the draws, or to their order, changes every dataset.
        code = run(
            "gen",
            "--taxonomy", str(tmp_path / "t.csv"),
            "--transactions", str(tmp_path / "x.csv"),
            *flags,
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["fingerprint"] == fingerprint

    def test_generated_data_mines_cleanly(self, tmp_path):
        tax, trx = tmp_path / "t.csv", tmp_path / "x.csv"
        run("gen", "--taxonomy", str(tax), "--transactions", str(trx), "--seed", "3")
        code = run(
            "mine",
            "--taxonomy", str(tax),
            "--transactions", str(trx),
            "--minsup", "3,2,2",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 0


class TestJsonLayout:
    @pytest.mark.parametrize("command", ["mine", "compare", "oracle-check", "gen"])
    def test_report_is_one_line_of_sorted_key_json(self, tmp_path, capsys, command):
        assert run(*command_args(command, tmp_path), "--format", "json") == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


GOLDEN_REPORTS = {
    "bookstore_mine_322.txt": [*bookstore_args("mine"), "--format", "text"],
    "bookstore_mine_maximal_fractional.txt": [
        *bookstore_args("mine")[:-2],
        "--minsup", "0.2,0.13,0.13",
        "--support-mode", "fractional",
        "--policy", "maximal-itemset-items",
        "--min-conf", "0.7",
        "--format", "text",
    ],
    "bookstore_compare_322.txt": [*bookstore_args("compare"), "--format", "text"],
    "bookstore_compare_322.json": bookstore_args("compare"),
    "bookstore_oracle_check_322.txt": [
        *bookstore_args("oracle-check"), "--format", "text",
    ],
    "bookstore_oracle_check_322.json": bookstore_args("oracle-check"),
}


class TestGoldenReports:
    """Every report byte for byte; a JSON golden holds the body without ``meta``."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_bytes(self, capsys, name):
        assert run(*GOLDEN_REPORTS[name]) == 0
        text = capsys.readouterr().out
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            body = json.loads(expected)
            report = {"meta": json.loads(text)["meta"], **body}
            expected = json.dumps(report, sort_keys=True) + "\n"
        assert text == expected


class TestFingerprintUse:
    """The dataset digest is computed only where something reads it."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []
        real_sha256 = hashlib.sha256

        def sha256(data):
            calls.append(data)
            return real_sha256(data)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        return calls

    def test_mine_never_calls_fingerprint(self, tmp_path, monkeypatch, hashes):
        def refuse(self):
            raise AssertionError("mine called TransactionDB.fingerprint")

        monkeypatch.setattr(TransactionDB, "fingerprint", refuse)
        assert run(*mine_args(out=tmp_path / "r.json")) == 0
        assert hashes == []

    def test_compare_computes_the_digest_once(self, tmp_path, hashes):
        assert run(*bookstore_args("compare"), "--out", tmp_path / "r.json") == 0
        assert len(hashes) == 1


class TestImportFootprint:
    def test_cli_leaves_baselines_oracle_gen_and_hashlib_unloaded(self):
        probe = (
            "import sys, pincer_ml.cli; "
            "print(sorted(m for m in ('pincer_ml.baselines', 'pincer_ml.oracle', "
            "'pincer_ml.gen', 'hashlib', 'dataclasses', 'inspect') if m in sys.modules))"
        )
        done = python_with_src("-c", probe)
        assert done.returncode == 0
        assert done.stdout == "[]\n"

    def test_baselines_and_oracle_leave_dataclasses_and_inspect_unloaded(self):
        probe = (
            "import sys, pincer_ml.baselines, pincer_ml.oracle; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
        )
        done = python_with_src("-c", probe)
        assert done.returncode == 0
        assert done.stdout == "[]\n"

    def test_sources_import_only_the_stdlib(self):
        allowed = sys.stdlib_module_names | {"pincer_ml"}
        for path in sorted((SRC / "pincer_ml").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.partition(".")[0] in allowed, f"{path.name}: {name}"

    def test_every_public_name_resolves(self):
        for name in pincer_ml.__all__:
            assert getattr(pincer_ml, name) is not None
        evidence = {
            baselines: ("AprioriResult", "MlT2l1Result", "apriori", "compare", "ml_t2l1"),
            oracle: ("OracleResult", "brute_force"),
        }
        for module, names in evidence.items():
            for name in names:
                assert getattr(module, name).__module__ == module.__name__
                assert not hasattr(pincer_ml, name), name

    def test_mask_records_stay_inside_the_engine(self):
        assert "BorderState" not in pincer_ml.__all__
        assert not hasattr(pincer_ml, "BorderState")
        assert pincer_ml.itemsets.BorderState._fields == ("mfcs", "mfs")

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pincer_ml.no_such_name


CONSOLE_SCRIPT = "from pincer_ml.cli import app; app()"


class TestEntryPoints:
    """The console entry point, each run in a fresh interpreter."""

    @pytest.mark.parametrize(
        "command, golden",
        [("mine", "bookstore_mine_322.txt"), ("compare", "bookstore_compare_322.txt")],
        ids=["app", "app_compare"],
    )
    def test_prints_the_golden_report(self, command, golden):
        args = bookstore_args(command)
        done = python_with_src("-c", CONSOLE_SCRIPT, *args, "--format", "text")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_app_runs_main_with_the_collector_off_and_start_up_frozen(self):
        probe = (
            "import gc, pincer_ml.cli as cli\n"
            "def probe():\n"
            "    print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
            "    return 0\n"
            "cli.main = probe\n"
            "cli.app()\n"
        )
        done = python_with_src("-c", probe)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "False True\n"

    def test_app_exits_1_on_a_missing_file(self, tmp_path):
        args = bookstore_args("mine")
        args[args.index("--taxonomy") + 1] = tmp_path / "absent.csv"
        done = python_with_src("-c", CONSOLE_SCRIPT, *args)
        assert done.returncode == 1
        assert done.stderr.startswith("pincer-ml: ")
        assert done.stdout == ""

    def test_unencodable_text_report_exits_1_naming_out(self, tmp_path):
        tax, trx = tmp_path / "tax.csv", tmp_path / "trx.csv"
        tax.write_text("code,name\n\u00c41,a\nB1,b\n", encoding="utf-8")
        trx.write_text("tid,item\nT1,\u00c41\nT1,B1\nT2,\u00c41\nT2,B1\n", encoding="utf-8")
        args = ["mine", "--taxonomy", tax, "--transactions", trx, "--minsup", "2,2"]
        done = python_with_src(
            "-c", CONSOLE_SCRIPT, *args, "--format", "text", PYTHONIOENCODING="ascii"
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("pincer-ml: ")
        assert len(done.stderr.splitlines()) == 1
        assert "--out" in done.stderr


class TestExitCodes:
    def test_wrong_threshold_count(self):
        assert run(*mine_args()[:-1], "3,2") == 2

    def test_non_numeric_threshold(self):
        assert run(*mine_args()[:-1], "three,2,2") == 2

    def test_fractional_count_in_absolute_mode(self):
        assert run(*mine_args()[:-1], "2.5,2,2") == 2

    def test_fraction_above_one(self):
        args = mine_args()[:-1] + ["1.5,0.2,0.2", "--support-mode", "fractional"]
        assert run(*args) == 2

    def test_zero_threshold(self):
        assert run(*mine_args()[:-1], "0,2,2") == 2

    def test_bad_min_conf(self):
        assert run(*mine_args(), "--min-conf", "0") == 2
        assert run(*mine_args(), "--min-conf", "nope") == 2

    @pytest.mark.parametrize(
        "flag, entry",
        [("--minsup", "1_0"), ("--minsup", "1e1_0"), ("--min-conf", "0.5_0")],
    )
    def test_underscores_exit_2_on_every_python(self, capsys, flag, entry):
        # Fraction reads "1_0" as 10 from Python 3.11 on, but not before.
        if flag == "--minsup":
            assert run(*mine_args()[:-1], f"{entry},2,2") == 2
        else:
            assert run(*mine_args(), flag, entry) == 2
        assert capsys.readouterr().err == f"pincer-ml: bad {flag} entry '{entry}'\n"

    def test_huge_exponents_exit_2(self, capsys):
        assert run(*mine_args(), "--min-conf", "1e-5000") == 2
        assert run(*mine_args()[:-1], "1e5000,2,2") == 2
        assert "--minsup entry '1e5000'" in capsys.readouterr().err

    def test_exponent_is_refused_before_it_is_expanded(self):
        fractional = [*mine_args()[:-1], "1e-999999999,2,2"]
        fractional += ["--support-mode", "fractional"]
        start = time.perf_counter()
        assert run(*mine_args(), "--min-conf", "1e-999999999") == 2
        assert run(*fractional) == 2
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--min-conf", "1e-4299"],
            ["--min-conf", "5e-4300"],
            ["--min-conf", "1e-3"],
            ["--minsup", "1e4299,2,2"],
            ["--minsup", "0.2,0.2,0.2", "--support-mode", "fractional"],
        ],
    )
    def test_values_with_at_most_4300_digits_are_kept(self, flags, tmp_path):
        args = bookstore_args("mine")
        if flags[0] == "--minsup":
            args = args[:-2]
        assert run(*args, *flags, "--out", tmp_path / "r.json") == 0

    def test_value_over_4300_digits_exits_2(self):
        assert run(*mine_args(), "--min-conf", "1e-4300") == 2
        assert run(*mine_args(), "--min-conf", "0.1e-4299") == 2
        assert run(*mine_args()[:-1], "1e4300,2,2") == 2

    @pytest.mark.parametrize("command", ["mine", "compare", "oracle-check", "gen"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "absent" / "report.json"
        assert run(*command_args(command, tmp_path), "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("pincer-ml: ")
        assert captured.out == ""

    def test_unknown_flag(self):
        assert run(*mine_args(), "--frobnicate") == 2

    def test_compare_rejects_policy_flag(self):
        code = run(
            "compare",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(DATA / "bookstore.csv"),
            "--minsup", "3,2,2",
            "--policy", "maximal-itemset-items",
        )
        assert code == 2

    def test_missing_file(self, tmp_path):
        code = run(
            "mine",
            "--taxonomy", str(tmp_path / "absent.csv"),
            "--transactions", str(DATA / "bookstore.csv"),
            "--minsup", "3,2,2",
        )
        assert code == 1

    def test_bad_transaction_item(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("tid,item\nT1,Z99\n")
        code = run(
            "mine",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(bad),
            "--minsup", "3,2,2",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"pincer-ml: {bad}, line 2: record 1: 'Z99' is not a leaf of the taxonomy\n"
        )

    def test_wide_maximal_set_exits_3(self, tmp_path, capsys):
        # Every row holds all 13 items, so one 13-item maximal set has
        # 1,577,940 candidate rules, over the rule limit.
        codes = "ABCDEFGHIJKLM"
        tax, trx = tmp_path / "t.csv", tmp_path / "x.csv"
        tax.write_text("code,name\n" + "".join(f"{c},item {c}\n" for c in codes))
        trx.write_text(
            "tid,item\n" + "".join(f"T{t},{c}\n" for t in range(3) for c in codes)
        )
        code = run(
            "mine", "--taxonomy", tax, "--transactions", trx, "--minsup", "2",
            "--out", tmp_path / "r.json",
        )
        assert code == 3
        assert "1577940 candidate rules" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["mine", "compare"])
    def test_21_item_maximal_set_exits_3_before_expanding(self, tmp_path, capsys, command):
        # Every row holds all 21 items: one maximal set with 2**21 subsets.
        codes = "ABCDEFGHIJKLMNOPQRSTU"
        tax, trx = tmp_path / "t.csv", tmp_path / "x.csv"
        tax.write_text("code,name\n" + "".join(f"{c},item {c}\n" for c in codes))
        trx.write_text(
            "tid,item\n" + "".join(f"T{t},{c}\n" for t in range(30) for c in codes)
        )
        code = run(
            command, "--taxonomy", tax, "--transactions", trx, "--minsup", "2",
            "--out", tmp_path / "r.json",
        )
        assert code == 3
        assert "2097152 subsets" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_engine_failure_exits_1(self, monkeypatch, tmp_path):
        def boom(*args, **kwargs):
            raise MiningError("injected failure")

        monkeypatch.setattr("pincer_ml.multilevel.pincer_search", boom)
        assert run(*mine_args(out=tmp_path / "r.json")) == 1

    def test_each_error_class_carries_its_exit_code(
        self, monkeypatch, tmp_path, capsys, level1
    ):
        classes = {
            name: value
            for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, BaseException)
        }
        assert {name: cls.exit_code for name, cls in classes.items()} == {
            "MiningError": 1,
            "ConfigError": 2,
            "LimitError": 3,
        }
        for cls in classes.values():
            def boom(*args, _cls=cls, **kwargs):
                raise _cls("injected failure")

            monkeypatch.setattr("pincer_ml.multilevel.pincer_search", boom)
            assert run(*mine_args(out=tmp_path / "r.json")) == cls.exit_code
        assert capsys.readouterr().err == "pincer-ml: injected failure\n" * 3
        # The CLI refuses these thresholds while parsing; a library
        # caller gets the same exit code from the engine's own check.
        with pytest.raises(errors.ConfigError, match="got 0$"):
            pincer_search(level1, 0)
        frequent = expand_frequent(pincer_search(level1, 3).mfs, level1)
        with pytest.raises(errors.ConfigError, match="got 0$"):
            generate_rules(frequent, 0)

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0


class TestCsvInput:
    FILES = ("bookstore_taxonomy.csv", "bookstore.csv")

    def mine_files(self, taxonomy, transactions, out=None):
        args = ["mine", "--taxonomy", taxonomy, "--transactions", transactions]
        args += ["--minsup", "3,2,2"]
        return run(*args, *(["--out", out] if out else []))

    def write_with_row(self, tmp_path, name, bad_row: bytes):
        lines = (DATA / name).read_bytes().splitlines()
        lines.insert(2, bad_row)
        bad = tmp_path / name
        bad.write_bytes(b"\n".join(lines) + b"\n")
        return bad, {n: bad if n == name else DATA / n for n in self.FILES}

    @pytest.mark.parametrize(
        "name, bad_row",
        [
            ("bookstore_taxonomy.csv", "Z11"),
            ("bookstore_taxonomy.csv", "Z11,Zebra book,extra"),
            ("bookstore.csv", "T1"),
            ("bookstore.csv", "T1,A11,extra"),
        ],
    )
    def test_row_with_wrong_cell_count_exits_1(self, tmp_path, capsys, name, bad_row):
        bad, paths = self.write_with_row(tmp_path, name, bad_row.encode())
        assert self.mine_files(*paths.values()) == 1
        err = capsys.readouterr().err
        assert f"{bad}, line 3: expected 2 cells, got {bad_row.count(',') + 1}" in err

    @pytest.mark.parametrize(
        "name, bad_row, column",
        [
            ("bookstore.csv", ",A11", "tid"),
            ("bookstore.csv", "  ,A12", "tid"),
            ("bookstore_taxonomy.csv", ",Zebra book", "code"),
        ],
    )
    def test_blank_key_cell_exits_1(self, tmp_path, capsys, name, bad_row, column):
        bad, paths = self.write_with_row(tmp_path, name, bad_row.encode())
        assert self.mine_files(*paths.values()) == 1
        assert f"{bad}, line 3: blank {column}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, bad_row",
        [("bookstore_taxonomy.csv", b"Z11,Zebra\xff book"), ("bookstore.csv", b"T1,A\xff1")],
    )
    def test_non_utf8_byte_exits_1(self, tmp_path, capsys, name, bad_row):
        bad, paths = self.write_with_row(tmp_path, name, bad_row)
        assert self.mine_files(*paths.values()) == 1
        assert f"{bad}, line 3: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, prefix", [("bookstore_taxonomy.csv", b"Z11,"), ("bookstore.csv", b"T1,")]
    )
    def test_overlong_cell_exits_1(self, tmp_path, capsys, name, prefix):
        bad, paths = self.write_with_row(tmp_path, name, prefix + b"A" * 200_000)
        assert self.mine_files(*paths.values()) == 1
        assert f"{bad}, line 3: field larger than field limit" in capsys.readouterr().err

    def test_utf8_bom_gives_the_same_report(self, tmp_path):
        for name in self.FILES:
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        assert self.mine_files(*(DATA / n for n in self.FILES), out=plain) == 0
        assert self.mine_files(*(tmp_path / n for n in self.FILES), out=bom) == 0
        assert body_of(bom) == body_of(plain)


# Raw bytes, and raw bytes after a valid header so that data rows get parsed.
def csv_bytes(header: bytes):
    return st.one_of(st.binary(max_size=300), st.binary(max_size=300).map(header.__add__))


class TestFuzzedCsv:
    """Whatever bytes a CSV holds, ``main`` returns a documented exit code."""

    FUZZ = settings(
        deadline=None,
        max_examples=200,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )

    def exit_code(self, tmp_path, fuzzed_name, data):
        # A fresh directory per example: overwriting a file is far slower
        # than creating one on some filesystems.
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        paths = {n: DATA / n for n in TestCsvInput.FILES}
        paths[fuzzed_name] = work / fuzzed_name
        paths[fuzzed_name].write_bytes(data)
        return run(
            "mine",
            "--taxonomy", paths["bookstore_taxonomy.csv"],
            "--transactions", paths["bookstore.csv"],
            "--minsup", "3,2,2", "--out", work / "report.json",
        )

    @FUZZ
    @given(data=csv_bytes(b"tid,item\n"))
    def test_transactions_bytes(self, tmp_path, data):
        assert self.exit_code(tmp_path, "bookstore.csv", data) in (0, 1, 2, 3)

    @FUZZ
    @given(data=csv_bytes(b"code,name\n"))
    def test_taxonomy_bytes(self, tmp_path, data):
        assert self.exit_code(tmp_path, "bookstore_taxonomy.csv", data) in (0, 1, 2, 3)


# Decimals with long exponents, and arbitrary short text.
flag_entries = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.from_regex(r"\A[-+]?[0-9]{0,3}(\.[0-9]{0,3})?\Z"),
        st.sampled_from(["e", "E", "e+", "E+", "e-", "E-"]),
        st.integers(0, 99_999),
    ),
    st.text(max_size=8),
)


class TestFuzzedFlags:
    """Whatever ``--minsup`` and ``--min-conf`` say, ``main`` returns a
    documented exit code."""

    FUZZ = TestFuzzedCsv.FUZZ

    # Rising thresholds are valid; the CLI only warns about them.
    @pytest.mark.filterwarnings("ignore:a deeper level has a higher support threshold")
    @FUZZ
    @given(
        minsup=st.lists(flag_entries, min_size=1, max_size=4).map(",".join),
        mode=st.sampled_from(["absolute", "fractional"]),
    )
    def test_minsup(self, tmp_path, minsup, mode):
        args = bookstore_args("mine")[:-1] + [minsup, "--support-mode", mode]
        assert run(*args, "--out", tmp_path / "r.json") in (0, 1, 2, 3)

    @FUZZ
    @given(min_conf=flag_entries)
    def test_min_conf(self, tmp_path, min_conf):
        args = mine_args("--min-conf", min_conf, out=tmp_path / "r.json")
        assert run(*args) in (0, 1, 2, 3)
