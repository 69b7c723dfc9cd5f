import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA, GOLDEN
from pincer_ml.cli import main
from pincer_ml.errors import MiningError


def run(*args):
    return main([str(a) for a in args])


def mine_args(*extra, out=None):
    args = [
        "mine",
        "--taxonomy", DATA / "bookstore_taxonomy.csv",
        "--transactions", DATA / "bookstore.csv",
        "--minsup", "3,2,2",
    ]
    args.extend(extra)
    if out is not None:
        args.extend(["--out", out])
    return args


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

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PINCER_ML_SEED", "31")
        run(
            "gen",
            "--taxonomy", str(tmp_path / "t.csv"),
            "--transactions", str(tmp_path / "x.csv"),
        )
        assert json.loads(capsys.readouterr().out)["seed"] == 31

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

    def test_bad_transaction_item(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("tid,item\nT1,Z99\n")
        code = run(
            "mine",
            "--taxonomy", str(DATA / "bookstore_taxonomy.csv"),
            "--transactions", str(bad),
            "--minsup", "3,2,2",
        )
        assert code == 1

    def test_engine_failure_exits_1(self, monkeypatch, tmp_path):
        def boom(*args, **kwargs):
            raise MiningError("injected failure")

        monkeypatch.setattr("pincer_ml.multilevel.pincer_search", boom)
        assert run(*mine_args(out=tmp_path / "r.json")) == 1

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
