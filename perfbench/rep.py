"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py setup
    python3 perfbench/rep.py plain  <workload> <seed>
    python3 perfbench/rep.py traced <workload> <seed> <spans.json>
    python3 perfbench/rep.py record

``setup`` only imports ``skewsaw.cli`` and reports when that returned.
``plain`` times the workload's calls, then reads the integer histograms
and compares them with ``golden.json`` outside the timed region.
``traced`` does the same with spans around every call into the layers,
adds the stand-alone layer probes and writes the spans out.  ``record``
rewrites ``golden.json`` from the program as it stands (use it only when
a change of the answers is intended).

Each child first times ``reference.host_reference``, before skewsaw is
imported and outside set-up, so that run.py can correct its times
for the host's speed.  The last line of standard output is one JSON
object; the exit code is 1 when any check failed.  ``PYTHONPATH`` must
reach ``src``.
"""

import time

REF_START = time.perf_counter()
from reference import host_reference  # noqa: E402

REF_S = host_reference()
REF_END = time.perf_counter()

import skewsaw.cli  # noqa: E402,F401  set-up ends when this import returns

READY = time.perf_counter()
CPU_READY = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from spans import LAYERS, Tracer, self_times  # noqa: E402

CLOCKS = {"ready": READY, "ref_window": REF_END - REF_START, "ref_s": REF_S}

CACHED = {
    "walks": ("walks", "free_walk_aggregate"),
    "observable": ("observable", "domain_walk_aggregate"),
    "loops": ("loops", "_patch_aggregate"),
}


def cache_counts() -> dict:
    out = {}
    for layer, (module, fn) in CACHED.items():
        info = getattr(workloads.mod(module), fn).cache_info()
        out[f"{layer}.cache_hits"] = info.hits
        out[f"{layer}.cache_misses"] = info.misses
    return out


def usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": (me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
                  - CPU_READY),
        "rss_main_mb": me.ru_maxrss / 1024,
        "rss_workers_mb": kids.ru_maxrss / 1024,
    }


def layer_metrics(spans, n_angles: int, workers: int, counts: dict,
                  caches: dict, probes: dict) -> dict:
    """Per-layer numbers from the spans of one traced repetition."""
    selfs = self_times(spans)
    by: dict[str, list[int]] = {}
    for sid, s in enumerate(spans):
        by.setdefault(s.name, []).append(sid)

    def total(name, pick=lambda sid: True):
        return sum(spans[i].duration for i in by.get(name, ()) if pick(i))

    def self_total(name):
        return sum(selfs[i] for i in by.get(name, ()))

    def median(name, pick=lambda sid: True):
        xs = [spans[i].duration for i in by.get(name, ()) if pick(i)]
        return statistics.median(xs) if xs else 0.0

    cold = lambda i: spans[i].cold  # noqa: E731
    patch_pass = {spans[i].parent for i in by.get("loops.iter_consistent_configs", ())}
    per_angle = max(1, n_angles)

    m = {
        "walks.aggregate_s": total("walks.free_walk_aggregate", cold),
        "walks.reweight_s": self_total("walks.weighted_length_sums") / per_angle,
        # with one worker the parallel entry only delegates to the cache
        "walks.pool_s": self_total("walks.free_walk_aggregate_parallel")
        if workers > 1 else 0.0,
        "walks.materialise_s": total("walks.enumerate_walks"),
        "walks.materialised": sum(spans[i].count or 0
                                  for i in by.get("walks.enumerate_walks", ())),
        "series.crosscheck_s": total("series.honeycomb_crosscheck"),
        "series.report_s": median("series.series_report"),
        "honeycomb.oracle_s": total("honeycomb.count_midedge_saws"),
        "observable.domain_enum_s": total("observable.domain_walk_aggregate", cold),
        "observable.reweight_s": (self_total("observable.strip_sums")
                                  + self_total("observable.observable")) / per_angle,
        "observable.cr_s": total("observable.max_cr_residual") / per_angle,
        "loops.observable_cold_s": median("loops.on_observable",
                                          lambda i: i in patch_pass),
        "loops.observable_warm_s": median("loops.on_observable",
                                          lambda i: i not in patch_pass),
        "loops.yb_s": total("loops.yang_baxter_residual"),
        "cli.main_s": median("cli.main"),
        "cli.write_s": median("cli.write_rows"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(selfs[i] for i, s in enumerate(spans)
                                   if s.name.startswith(layer + "."))
    m.update((k, v) for k, v in counts.items() if "." in k)
    m.update(caches)
    m.update(probes)
    if m.get("walks.search_s"):
        m["walks.nodes_per_s"] = m["walks.nodes"] / m["walks.search_s"]
    if m["walks.pool_s"] and m["walks.aggregate_s"]:
        m["walks.parallel_eff"] = m["walks.aggregate_s"] / (
            workers * m["walks.pool_s"])
    if m.get("loops.configs") and m.get("loops.kept"):
        m["loops.kept_ratio"] = m["loops.kept"] / m["loops.configs"]
    return m


def write_spans(path: str, spans) -> None:
    with open(path, "w") as fh:
        json.dump([{"name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "cold": s.cold, "count": s.count}
                   for s in spans], fh)


def repetition(name: str, seed: int, spans_path: str | None) -> dict:
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(seed)
    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    failures, seen = wl.run(inp)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    result = {**CLOCKS, "wall_s": wall, **usage()}
    caches = cache_counts()
    counts = wl.gate(inp, seen)
    failures += workloads.check_golden(name, counts, workloads.load_golden())
    result.update(counts=counts, caches=caches, failures=failures)
    if tracer:
        result["layers"] = layer_metrics(
            tracer.spans, len(inp.get("angles", [0])), wl.workers, counts,
            caches, wl.probe(inp))
        write_spans(spans_path, tracer.spans)
    return result


def record() -> None:
    golden = {}
    for name, wl in workloads.WORKLOADS.items():
        inp = wl.inputs(0)
        failures, seen = wl.run(inp)
        if failures:
            raise SystemExit(f"{name}: {failures}")
        golden[name] = wl.gate(inp, seen)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "setup":
        result = {**CLOCKS, "failures": []}
    elif mode == "record":
        record()
        return 0
    else:
        result = repetition(argv[2], int(argv[3]),
                            argv[4] if mode == "traced" else None)
    print(json.dumps(result))
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
