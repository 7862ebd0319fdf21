"""Self-tests of the benchmark's gate, failure accounting and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

TINY_N = 5


def tiny_run(inp):
    failures = []
    workloads.check_cli(["series", "--n-max", str(TINY_N)], failures,
                        rows=TINY_N + 1)
    for argv in inp["extra"]:
        workloads.check_cli(argv, failures)
    return failures, {}


def tiny_gate(inp, seen):
    w = workloads.mod("walks")
    return workloads.hist_counts(w.free_walk_aggregate(TINY_N, w.UNIT_RULE, "H"))


def tiny_workload(extra=()):
    return workloads.Workload(
        items=1, workers=1, inputs=lambda seed: {"extra": list(extra)},
        run=tiny_run, gate=tiny_gate, probe=lambda inp: {})


@pytest.fixture
def fresh_caches():
    w = workloads.mod("walks")
    w.free_walk_aggregate.cache_clear()
    yield
    w.free_walk_aggregate.cache_clear()


def golden_of(workload) -> dict:
    inp = workload.inputs(0)
    return workload.gate(inp, workload.run(inp)[1])


def repeat(monkeypatch, workload, golden, traced=False, tmp_path=None):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workload)
    monkeypatch.setattr(workloads, "load_golden", lambda: {"tiny": golden})
    spans_path = str(tmp_path / "spans.json") if traced else None
    return rep.repetition("tiny", 0, spans_path)


def test_one_count_off_fails_the_gate(monkeypatch, fresh_caches):
    wl = tiny_workload()
    golden = golden_of(wl)
    assert repeat(monkeypatch, wl, golden)["failures"] == []

    hist = dict(workloads.mod("walks").free_walk_aggregate(
        TINY_N, workloads.mod("walks").UNIT_RULE, "H"))
    key = next(iter(hist))
    hist[key] += 1
    off = workloads.hist_counts(hist)
    failures = workloads.check_golden("tiny", off, {"tiny": golden})
    assert any(f.startswith("sha256") for f in failures)
    assert any(f.startswith("walks.aggregate_walks") for f in failures)


def test_nonzero_cli_exit_is_a_failed_repetition(monkeypatch, fresh_caches):
    ok = tiny_workload()
    golden = golden_of(ok)
    bad = tiny_workload(extra=[["series", "--n-max", "-1"],         # exit 2
                               ["--tol", "0", "verify-cr", "--T", "1"]])  # exit 1
    results = [repeat(monkeypatch, ok, golden),
               repeat(monkeypatch, bad, golden)]
    assert results[0]["failures"] == []
    assert [f.split(":")[0] for f in results[1]["failures"]] == ["exit 2", "exit 1"]
    assert run.outcome(results) == (2, 1)


def test_traced_and_untraced_enumerate_identical_counts(monkeypatch, tmp_path,
                                                       fresh_caches):
    wl = tiny_workload()
    golden = golden_of(wl)
    walks = workloads.mod("walks")
    original = walks.free_walk_aggregate
    walks.free_walk_aggregate.cache_clear()
    plain = repeat(monkeypatch, wl, golden)
    walks.free_walk_aggregate.cache_clear()
    traced = repeat(monkeypatch, wl, golden, traced=True, tmp_path=tmp_path)
    assert plain["failures"] == traced["failures"] == []
    assert plain["counts"] == traced["counts"]
    # the wrapper went through the cache: one miss, no second enumeration
    walks_cache = ("walks.cache_hits", "walks.cache_misses")
    assert ([plain["caches"][k] for k in walks_cache]
            == [traced["caches"][k] for k in walks_cache] == [0, 1])
    assert walks.free_walk_aggregate is original
    assert traced["layers"]["walks.aggregate_s"] > 0
    assert traced["layers"]["walks.cache_misses"] == 1
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {"cli.main", "series.series_report",
            "walks.run_walk_enumeration"} <= {s["name"] for s in spans}

    reps = [plain, traced]
    run.mark_count_mismatch(reps)
    assert run.outcome(reps) == (2, 0)
    reps.append({**plain, "counts": {**plain["counts"], "walks.hist_keys": 0}})
    run.mark_count_mismatch(reps)
    assert run.outcome(reps) == (3, 3)


def test_tracer_reaches_names_imported_elsewhere():
    observable = workloads.mod("observable")
    original = observable.run_walk_enumeration
    tracer = Tracer()
    tracer.install()
    try:
        assert observable.run_walk_enumeration is workloads.mod("walks").run_walk_enumeration
        assert observable.run_walk_enumeration is not original
        assert workloads.mod("walks").profile_weight is observable.profile_weight
    finally:
        tracer.uninstall()
    assert observable.run_walk_enumeration is original


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 3.0, 0),
             Span("c", 2.0, 5.0, 0), Span("d", 6.0, 7.0, 0)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
