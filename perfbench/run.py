#!/usr/bin/env python3
"""skewsaw benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload free_series --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is imported from
``src``.  Every repetition runs in a fresh interpreter and checks its
exact integer counts against ``perfbench/golden.json``.

``--trace 0`` measures set-up (``SETUP_PROBES`` extra interpreters plus
one per repetition) and repeats the workload for ``--seconds``, at least
``MIN_REPS`` times; it reports medians.  ``--trace 1`` alternates
untraced and traced repetitions for ``--seconds`` and reports the
per-layer numbers, with the traced run's slowdown over the untraced one.
Every time is corrected for the host's speed (see ``reference.py``); the
uncorrected medians are printed too.  Either way the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``failed / attempted`` is the fraction of repetitions that exited
non-zero, broke an identity's tolerance or changed an integer count.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

import workloads
from reference import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
REP = os.path.join(HERE, "rep.py")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
IMPORT_PROBES = 5
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.skewsaw_s": "s",
    "import.numpy_s": "s",
    "walks.search_s": "s",
    "walks.nodes": "count",
    "walks.nodes_per_s": "1/s",
    "walks.aggregate_s": "s",
    "walks.hist_keys": "count",
    "walks.reweight_s": "s",
    "walks.cache_hits": "count",
    "walks.cache_misses": "count",
    "walks.pool_s": "s",
    "walks.parallel_eff": "ratio",
    "walks.materialise_s": "s",
    "walks.materialised": "count",
    "series.crosscheck_s": "s",
    "series.report_s": "s",
    "honeycomb.oracle_s": "s",
    "honeycomb.oracle_walks": "count",
    "observable.domain_enum_s": "s",
    "observable.domain_walks": "count",
    "observable.hist_keys": "count",
    "observable.reweight_s": "s",
    "observable.cr_s": "s",
    "observable.cache_hits": "count",
    "observable.cache_misses": "count",
    "loops.configs": "count",
    "loops.kept": "count",
    "loops.kept_ratio": "ratio",
    "loops.enumerate_s": "s",
    "loops.observable_cold_s": "s",
    "loops.observable_warm_s": "s",
    "loops.yb_s": "s",
    "loops.cache_hits": "count",
    "loops.cache_misses": "count",
    "cli.main_s": "s",
    "cli.write_s": "s",
    "self.cli_s": "s",
    "self.series_s": "s",
    "self.walks_s": "s",
    "self.observable_s": "s",
    "self.honeycomb_s": "s",
    "self.loops_s": "s",
    "proc.cpu_s": "s",
    "proc.main_rss_mb": "MB",
    "proc.worker_rss_mb": "MB",
    "host.ref_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def stamp(args) -> dict:
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"commit": commit, "nproc": nproc(),
            "python": platform.python_version(), "numpy": numpy,
            "cpu": cpu, "loadavg": list(os.getloadavg()), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


class Runner:
    """Starts repetitions in fresh interpreters, one at a time."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # String hashes, and with them the layout of every dict and set
        # keyed by MidEdge or state names, change with the hash seed; a
        # random seed per process spread one loop_patches repetition by
        # 16 % (standard deviation) against 8 % with a fixed one.
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, *argv: str, importtime: bool = False):
        """(result, stderr) of one child interpreter; a child that gives
        no result yields one that lists the failure.

        The child runs in its own session so that a timeout can stop it
        together with any pool workers it started."""
        flags = ["-X", "importtime"] if importtime else []
        cmd = [sys.executable, *flags, REP, *argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += "\ntimed out\n"
        lines = out.strip().splitlines()
        result = None
        if lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        if result is not None and proc.returncode not in (0, 1):
            result["failures"] = result.get("failures", []) + [
                f"exit code {proc.returncode}"]
        if result is None:
            result = {"failures": [f"no result, exit code {proc.returncode}"]}
        if result["failures"]:
            sys.stderr.write(f"repetition failed: {result['failures']}\n"
                             f"{err[-2000:]}")
        if "ready" in result:
            correct_for_host(result, t0)
        return result, err


def correct_for_host(result: dict, spawned: float) -> None:
    """Scale a child's times by NOMINAL_S / its host reference time.

    Set-up runs from the spawn to the end of ``import skewsaw.cli``, less
    the reference, which runs before that import.  The uncorrected times
    are kept under ``*_raw_s``."""
    speed = NOMINAL_S / result["ref_s"]
    result["setup_raw_s"] = result["ready"] - spawned - result["ref_window"]
    result["setup_s"] = result["setup_raw_s"] * speed
    if "wall_s" in result:
        result["wall_raw_s"] = result["wall_s"]
        result["wall_s"] *= speed
        result["cpu_s"] *= speed
    layers = result.get("layers", {})
    for name, value in layers.items():
        if PER_LAYER.get(name) == "s":
            layers[name] = value * speed
        elif PER_LAYER.get(name) == "1/s":
            layers[name] = value / speed


def repeat(seconds: float, minimum: int, spawn_one) -> list:
    """Results of ``spawn_one()`` until ``seconds`` are used up: a next
    repetition starts only if one of median length still fits."""
    results, took = [], []
    t0 = time.perf_counter()
    while len(results) < minimum or (
            time.perf_counter() - t0 + median(took) <= seconds):
        t = time.perf_counter()
        results.append(spawn_one())
        took.append(time.perf_counter() - t)
    return results


def plain_run(runner: Runner, args, wl) -> tuple[list[dict], dict]:
    runner.spawn("setup")  # writes byte code once, so every sample reads it
    probes = [runner.spawn("setup")[0] for _ in range(SETUP_PROBES)]
    reps = repeat(args.seconds, MIN_REPS,
                  lambda: runner.spawn("plain", args.workload, str(args.seed))[0])
    ok = [r for r in reps if "wall_s" in r]
    setups = values(probes + reps, "setup_s")
    walls = values(ok, "wall_s")
    print(f"# uncorrected medians: setup_s "
          f"{median(values(probes + reps, 'setup_raw_s'))!r} s, wall_s "
          f"{median(values(ok, 'wall_raw_s'))!r} s; host reference "
          f"{median(values(probes + reps, 'ref_s'))!r} s")
    print(f"# wall_s samples: {[round(w, 4) for w in walls]}")
    tail = tail_percentile(walls)
    if tail:
        print(f"# wall_s p{tail[0]} {tail[1]!r} s (n={len(walls)})")
    else:
        print(f"# wall_s tail percentile: needs more than 10 samples "
              f"(n={len(walls)})")
    wall = median(walls)
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "items_per_s": wl.items / wall if wall else 0.0,
        "peak_rss_mb": median([max(r["rss_main_mb"], r["rss_workers_mb"])
                               for r in ok]),
    }
    samples = {"setup_s": len(setups), "wall_s": len(walls),
               "items_per_s": len(walls), "peak_rss_mb": len(ok)}
    return reps, report(metrics, END_TO_END, samples)


def import_times(probe: dict, stderr: str) -> dict:
    """Cumulative import seconds of skewsaw (package and cli) and numpy,
    from ``-X importtime`` lines ``self | cumulative | name``, corrected
    for the host's speed like the probe's set-up."""
    speed = NOMINAL_S / probe["ref_s"] if "ref_s" in probe else 1.0
    cum: dict[str, float] = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) * 1e-6 * speed
    return {"import.skewsaw_s": cum.get("skewsaw", 0.0) + cum.get("skewsaw.cli", 0.0),
            "import.numpy_s": cum.get("numpy", 0.0)}


def traced_run(runner: Runner, args, wl) -> tuple[list[dict], dict]:
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans_{args.workload}_{args.seed}.json")
    probes = [runner.spawn("setup", importtime=True)
              for _ in range(IMPORT_PROBES)]
    imports = [import_times(*probe) for probe in probes]
    pairs = repeat(args.seconds, 1, lambda: (
        runner.spawn("plain", args.workload, str(args.seed))[0],
        runner.spawn("traced", args.workload, str(args.seed), spans_path)[0]))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    reps = plain + traced
    mark_count_mismatch(reps)
    layers = [r["layers"] for r in traced if "layers" in r]
    plain_ok = [r for r in plain if "wall_s" in r]
    metrics = {name: median([m[name] for m in layers if name in m])
               for name in PER_LAYER}
    for name in ("import.skewsaw_s", "import.numpy_s"):
        metrics[name] = median([i[name] for i in imports])
    children = [p for p, _ in probes] + reps
    metrics["host.ref_s"] = median(values(children, "ref_s"))
    metrics["proc.cpu_s"] = median([r["cpu_s"] for r in plain_ok])
    metrics["proc.main_rss_mb"] = median([r["rss_main_mb"] for r in plain_ok])
    metrics["proc.worker_rss_mb"] = median([r["rss_workers_mb"] for r in plain_ok])
    traced_walls = values(traced, "wall_s")
    plain_walls = values(plain_ok, "wall_s")
    if traced_walls and plain_walls:
        metrics["trace.overhead_frac"] = (median(traced_walls)
                                          / median(plain_walls) - 1.0)
    samples = {name: len(layers) for name in PER_LAYER}
    samples.update({"import.skewsaw_s": len(imports),
                    "import.numpy_s": len(imports),
                    "host.ref_s": len(children),
                    "proc.cpu_s": len(plain_ok),
                    "proc.main_rss_mb": len(plain_ok),
                    "proc.worker_rss_mb": len(plain_ok),
                    "trace.overhead_frac": min(len(traced_walls), len(plain_walls))})
    print(f"# spans written to {os.path.relpath(spans_path)}")
    return reps, report(metrics, PER_LAYER, samples)


def mark_count_mismatch(reps: list[dict]) -> None:
    """Fail every repetition when traced and untraced ones disagree on the
    integer counts."""
    if len({json.dumps(r.get("counts"), sort_keys=True) for r in reps}) > 1:
        sys.stderr.write("repetitions disagree on the integer counts\n")
        for r in reps:
            r["failures"] = r.get("failures", []) + ["count mismatch"]


def outcome(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) repetitions."""
    return len(reps), sum(1 for r in reps if r.get("failures"))


def values(results: list[dict], key: str) -> list:
    return [r[key] for r in results if key in r]


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def tail_percentile(xs: list[float]):
    """The highest whole percentile with at least ten samples above it."""
    n = len(xs)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    return p, statistics.quantiles(xs, n=100)[p - 1]


def report(metrics: dict, units: dict, samples: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value = float(metrics[name])
        print(f"{name} {value!r} {unit} (n={samples[name]})")
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "skewsaw", "cli.py")):
        sys.stderr.write("run from the root of a skewsaw checkout: "
                         "src/skewsaw/cli.py not found\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if wl.workers > nproc():
        sys.stderr.write(f"{args.workload} needs {wl.workers} workers but "
                         f"only {nproc()} CPUs are available\n")
        return 2

    start = time.perf_counter()
    print(f"# env {json.dumps(stamp(args))}")
    runner = Runner(start + RUN_LIMIT_S)
    run = traced_run if args.trace else plain_run
    reps, metrics = run(runner, args, wl)
    attempted, failed = outcome(reps)
    print(f"# fail_frac {failed / attempted!r} ({failed}/{attempted} repetitions)")
    print(f"# elapsed {time.perf_counter() - start:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
