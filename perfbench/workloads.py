"""The four workloads: their inputs, calls, exact-count gate and probes.

The enumeration is deterministic.  A workload's seed picks only the
re-weighting angles theta in [pi/3, 2pi/3]; the integer work and its
golden counts are the same for every seed.  Calls go through
``skewsaw.cli.main(argv)`` where a subcommand exists and through the
library otherwise.  Names are looked up on the module at call time, so a
traced run sees them through its wrappers.

Each workload provides

* ``inputs(seed)``: the generated inputs;
* ``run(inputs)``: the timed calls, returning ``(failures, seen)``,
  where ``seen`` carries exact integers read from the program's output;
* ``gate(inputs, seen)``: the integer histograms digested after the
  timed region, read through the call form the program itself uses
  (``free_walk_aggregate(n, rule, orient)``), so the gate hits the cache
  the calls filled instead of enumerating again;
* ``probe(inputs)``: stand-alone layer timings for the traced run.

This module imports no part of skewsaw at import time, so run.py can
list workloads without paying the program's set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

TOL = 1e-10                      # the CLI's default verification tolerance
LOOP_S = (-3 / 8, 1 / 2, 3 / 4)  # loop parameters of loop_patches
HONEYCOMB_WORKERS = 2


def angles(seed: int, k: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(math.pi / 3, 2 * math.pi / 3) for _ in range(k)]


def mod(name: str):
    """The skewsaw submodule (``skewsaw.observable`` the attribute is the
    function of that name, so the module comes from ``sys.modules``)."""
    return sys.modules[f"skewsaw.{name}"]


def run_cli(argv: list[str]) -> tuple[int, list[dict]]:
    """``skewsaw.cli.main(argv)`` with its CSV captured; config errors
    raise SystemExit(2) in argparse, which counts as the exit code."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = mod("cli").main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, list(csv.DictReader(io.StringIO(buf.getvalue())))


def check_cli(argv: list[str], failures: list[str], rows: int | None = None):
    code, out = run_cli(argv)
    if code != 0:
        failures.append(f"exit {code}: {' '.join(argv)}")
    elif rows is not None and len(out) != rows:
        failures.append(f"{len(out)} rows, want {rows}: {' '.join(argv)}")
    return out


def digest(hist: dict) -> str:
    return hashlib.sha256(repr(sorted(hist.items())).encode()).hexdigest()


def hist_counts(hist: dict) -> dict:
    return {"walks.aggregate_walks": sum(hist.values()),
            "walks.hist_keys": len(hist), "sha256": digest(hist)}


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def search_probe(start, max_length, rule, domain=None, **kwargs) -> dict:
    """The bare backtracking search, no per-walk callback."""
    dt, stats = timed(mod("walks").run_walk_enumeration, start, max_length,
                      rule, domain, emit=None, **kwargs)
    return {"walks.search_s": dt, "walks.nodes": stats.walks}


# ---------------------------------------------------------------------------
# free_series: `series --n-max 12` at 13 angles; one cold enumeration, 12
# re-weights from the cache.  The walks search and aggregation do almost
# all the work.

FREE_N = 12
FREE_ANGLES = 13


def free_inputs(seed):
    return {"angles": angles(seed, FREE_ANGLES)}


def free_run(inp):
    failures: list[str] = []
    for th in inp["angles"]:
        check_cli(["--threads", "1", "series", "--n-max", str(FREE_N),
                   "--theta", repr(th)], failures, rows=FREE_N + 1)
    return failures, {}


def free_gate(inp, seen):
    w = mod("walks")
    return hist_counts(w.free_walk_aggregate(FREE_N, w.UNIT_RULE, "H"))


def free_probe(inp):
    from skewsaw.geometry import MidEdge
    return search_probe(MidEdge(0, 0, "H"), FREE_N, mod("walks").UNIT_RULE)


# ---------------------------------------------------------------------------
# domain_identities: `parallelogram --budget 20` and `verify-cr --T 4 --L 2`
# at 5 angles.  Box-pruned search once per shape, then complex-phase
# re-weights of large histograms.

DOMAIN_BUDGET = 20
DOMAIN_ANGLES = 5
CR_SHAPE = (4, 2)


def domain_shapes(budget: int) -> list[tuple[int, int]]:
    """Every (T, L) that `parallelogram --budget` scans, in its order."""
    return [(T, L) for T in range(1, budget + 1) for L in range(budget)
            if (2 * L + 1) * T <= budget]


def domain_inputs(seed):
    return {"angles": angles(seed, DOMAIN_ANGLES)}


def domain_run(inp):
    failures: list[str] = []
    n_shapes = len(domain_shapes(DOMAIN_BUDGET))
    T, L = CR_SHAPE
    for th in inp["angles"]:
        check_cli(["parallelogram", "--budget", str(DOMAIN_BUDGET),
                   "--theta", repr(th)], failures, rows=n_shapes)
        check_cli(["verify-cr", "--T", str(T), "--L", str(L),
                   "--theta", repr(th)], failures, rows=1)
    return failures, {}


def domain_gate(inp, seen):
    agg = mod("observable").domain_walk_aggregate
    hists = [agg(T, L) for T, L in domain_shapes(DOMAIN_BUDGET)]
    cr = agg(*CR_SHAPE)
    return {
        "observable.domain_walks": sum(sum(h.values()) for h in hists),
        "observable.hist_keys": sum(len(h) for h in hists),
        "sha256": hashlib.sha256(
            "".join(digest(h) for h in hists).encode()).hexdigest(),
        "cr_walks": sum(cr.values()),
        "cr_hist_keys": len(cr),
    }


def domain_probe(inp):
    from skewsaw.geometry import ParallelogramDomain
    d = ParallelogramDomain(*CR_SHAPE, math.pi / 2)
    budget = 2 * d.n_rhombi + 2
    return search_probe(d.origin, budget, mod("walks").UNIT_RULE, d,
                        signs=(d.origin_sign,), step_cap=budget)


# ---------------------------------------------------------------------------
# honeycomb_par: `--threads 2 honeycomb --n-max 19`.  The process pool, the
# (1, 2, 2) length rule, the hexagonal oracle and Walk materialisation.

HONEYCOMB_N = 19


def honeycomb_inputs(seed):
    return {}


def honeycomb_run(inp):
    failures: list[str] = []
    rows = check_cli(["--threads", str(HONEYCOMB_WORKERS), "honeycomb",
                      "--n-max", str(HONEYCOMB_N)], failures,
                     rows=HONEYCOMB_N + 1)
    return failures, {"oracle_counts": [int(r["oracle_count"]) for r in rows]}


def honeycomb_gate(inp, seen):
    # The parallel aggregate never fills the cache, so this enumerates
    # again; it is the program's own call form all the same.
    w = mod("walks")
    hist = w.free_walk_aggregate_parallel(HONEYCOMB_N, w.HONEYCOMB_RULE, "V",
                                          HONEYCOMB_WORKERS)
    return {**hist_counts(hist), "oracle_counts": seen["oracle_counts"],
            "honeycomb.oracle_walks": sum(seen["oracle_counts"])}


def honeycomb_probe(inp):
    from skewsaw.geometry import MidEdge
    w = mod("walks")
    out = search_probe(MidEdge(0, 0, "V"), HONEYCOMB_N, w.HONEYCOMB_RULE)
    # single-process aggregate of the same problem, for parallel_eff
    out["walks.aggregate_s"], _ = timed(
        w.free_walk_aggregate, HONEYCOMB_N, w.HONEYCOMB_RULE, "V")
    return out


# ---------------------------------------------------------------------------
# loop_patches: `yangbaxter` plus the loop observable on the 2x3 patch at
# 2 angles x 3 loop parameters.  No walks work at all.

PATCH = (2, 3, 0)
PATCH_ANGLES = 2


def loop_inputs(seed):
    return {"angles": angles(seed, PATCH_ANGLES)}


def loop_run(inp):
    failures: list[str] = []
    check_cli(["yangbaxter"], failures, rows=15)
    loops = mod("loops")
    for th in inp["angles"]:
        for s in LOOP_S:
            r = loops.on_observable_cr_check(th, s, *PATCH[:2], PATCH[2])
            if not r < TOL:
                failures.append(f"loop contour residual {r} at theta={th}, s={s}")
    return failures, {}


def loop_gate(inp, seen):
    # No public function returns the loop histogram; the private cache is
    # read with the call form on_observable uses.  Windings are dropped:
    # at theta = pi/2 the snap cannot tell (k1, k2) from (k1+1, k2-1).
    out: dict = {"kept_per_angle": [], "hist_keys": [], "sha256": []}
    for th in inp["angles"]:
        counts, _origin = mod("loops")._patch_aggregate(th, *PATCH)
        hist: dict = {}
        for (z, _wind, profile, nloops), n in counts.items():
            key = ((z.i, z.j, z.orient), profile, nloops)
            hist[key] = hist.get(key, 0) + n
        out["kept_per_angle"].append(sum(hist.values()))
        out["hist_keys"].append(len(hist))
        out["sha256"].append(digest(hist))
    out["loops.kept"] = min(out["kept_per_angle"])
    return out


def loop_probe(inp):
    loops = mod("loops")
    cells = tuple(loops.rect_cells(inp["angles"][0], *PATCH))
    dt, n = timed(lambda: sum(1 for _ in loops.iter_consistent_configs(
        cells, allow_open_interior=1)))
    return {"loops.enumerate_s": dt, "loops.configs": n}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    items: int     # exact items enumerated per repetition
    workers: int   # processes the workload's calls ask for
    inputs: Callable
    run: Callable
    gate: Callable
    probe: Callable


WORKLOADS = {
    # 941,929 walks of length <= 12
    "free_series": Workload(941_929, 1, free_inputs, free_run, free_gate,
                            free_probe),
    # 221,877 walks over the 39 shapes of at most 20 rhombi
    "domain_identities": Workload(221_877, 1, domain_inputs, domain_run,
                                  domain_gate, domain_probe),
    # 773,317 walks under the (1, 2, 2) rule
    "honeycomb_par": Workload(773_317, HONEYCOMB_WORKERS, honeycomb_inputs,
                              honeycomb_run, honeycomb_gate, honeycomb_probe),
    # 2 x 35,645 patch configurations plus 2,850 from the hexagon tilings
    "loop_patches": Workload(2 * 35_645 + 2_850, 1, loop_inputs, loop_run,
                             loop_gate, loop_probe),
}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_golden(name: str, counts: dict, golden: dict) -> list[str]:
    """One failure per count that differs from the recorded one."""
    want = golden[name]
    return [f"{key}: got {counts.get(key)!r}, golden {want[key]!r}"
            for key in want if counts.get(key) != want[key]]
