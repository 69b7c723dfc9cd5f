"""Self-check of the benchmark harness: structure and counts, not speed.

    python3 -m pytest perfbench

Each workload runs at a tiny size through both measuring modes, and the
bookstore data goes through the tracer's counters to reproduce the
acceptance pass counts.
"""
import copy
import json
import math

import pytest

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DATA = run.ROOT / "data"
TINY = {
    "planted_long": ({"rows": 300, "pattern_sizes": [3, 4]}, None),
    "short_random": ({"rows": 60}, ["11"]),
}
BOOKSTORE = {"support_mode": "absolute", "minsup": ["3", "2", "2"], "min_conf": "0.5",
             "oracle": True}


def names(kind):
    return [metric["name"] for metric in BENCH[kind]]


def tiny_run(name, tmp_path):
    workload = copy.deepcopy(workloads.load_spec()["workloads"][name])
    params, minsup = TINY[name]
    workload["params"].update(params)
    workload["minsup"] = minsup or workload["minsup"]
    inputs = workloads.generate(workload, 7, tmp_path)
    return run.Run(name, workload, *inputs, tmp_path)


def bookstore_run(tmp_path):
    return run.Run("bookstore", BOOKSTORE, DATA / "bookstore_taxonomy.csv",
                   DATA / "bookstore.csv", tmp_path)


def test_spec_names_only_benchmark_workloads_and_metrics():
    spec = workloads.load_spec()
    known = set(spec["workloads"])
    assert known == {w["name"] for w in BENCH["workloads"]}
    for prediction in spec["predictions"].values():
        assert set(prediction["layer_metrics"]) <= set(names("per_layer"))
        for pairs in (prediction["moves"], prediction["flat"]):
            assert set(pairs) <= set(names("end_to_end"))
            assert all(set(listed) <= known for listed in pairs.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_reports_every_end_to_end_metric(name, tmp_path):
    bench_run = tiny_run(name, tmp_path)
    values = run.measure_processes(bench_run, 0.3)
    assert sorted(values) == sorted(names("end_to_end"))
    assert all(value > 0 for value in values.values())
    assert bench_run.attempted >= 1 and bench_run.failed == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    bench_run = tiny_run(name, tmp_path)
    trace_file = tmp_path / "trace.json"
    values = run.measure_traced(bench_run, 0.1, names("per_layer"), trace_file)
    assert sorted(values) == sorted(names("per_layer"))
    assert all(math.isfinite(value) for value in values.values())
    assert values["cli.main_s"] > 0 and values["pincer.mining_passes"] >= 1
    assert bench_run.attempted >= 2 and bench_run.failed == 0
    spans = json.loads(trace_file.read_text())["iterations"][0]["spans"]
    assert {"cli.main", "multilevel.mine", "pincer.search", "itemsets.mfcs_gen"} <= {
        span[0] for span in spans
    }


def test_bookstore_pass_counts_through_the_tracer(tmp_path):
    bench_run = bookstore_run(tmp_path)
    metrics, tracer = run.traced_iteration(bench_run, tmp_path / "report.json")
    assert bench_run.failed == 0
    # Level 1: 3 passes against Apriori's 4.
    assert tracer.search_passes[0] == 3
    assert bench_run.reference.baseline.levels[0].passes == 4
    # All levels: 9 against 11, and one counting call per pass.
    assert metrics["pincer.mining_passes"] == 9
    assert metrics["baselines.apriori_passes"] == 11
    assert metrics["transactions.count_calls"] == 9 + len(tracer.search_passes)


def test_a_wrong_report_counts_as_failed(tmp_path):
    bench_run = bookstore_run(tmp_path)
    out = tmp_path / "report.json"
    assert run._call_main(bench_run.mine_args(out))
    report = json.loads(out.read_text())
    report["levels"][0]["frequent_itemsets"][0]["support"] += 1
    out.write_text(json.dumps(report))
    assert not bench_run.judge(True, out)
    assert (bench_run.attempted, bench_run.failed) == (1, 1)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(20)]) == (50.0, 9.0)


def test_a_child_over_the_limit_is_killed():
    code, elapsed, _ = run.run_child("import time; time.sleep(30)", [], 0.2)
    assert code is None and elapsed < 5
