"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or check
the captured output).  Tolerances and runtime budgets are pinned here
and never loosened; a red test is a real defect.
"""

import math
import time

import pytest

from skewsaw.geometry import MidEdge, ParallelogramDomain
from skewsaw.loops import on_observable_cr_check, yang_baxter_residual
from skewsaw.observable import (
    bridge_chain_check,
    max_cr_residual,
    observable,
    side_coefficients,
    strip_limits,
    strip_sums,
)
from skewsaw.series import honeycomb_crosscheck, series_report
from skewsaw.walks import UNIT_RULE, free_walk_aggregate, walk_from_dump, weight_of
from skewsaw.weights import (
    critical_weights,
    local_residuals,
    on_weights,
    sigma_one_family,
    sigma_weights,
    solve_local_system,
    theta_grid,
)

from oracles import naive_enumerate, naive_profile
from test_walks import FIXTURE_WALK

THETAS5 = (math.pi / 3, 5 * math.pi / 12, math.pi / 2, 7 * math.pi / 12,
           2 * math.pi / 3)
GRID13 = theta_grid(13)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_weight_closed_forms():
    t0 = time.time()
    worst = 0.0
    for th in THETAS5:
        a = critical_weights(th).as_tuple()
        b = sigma_weights(th, 5 / 8).as_tuple()
        c = on_weights(th, -3 / 8)[0].as_tuple()
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
        worst = max(worst, max(abs(x - y) for x, y in zip(a, c)))
    elapsed = time.time() - t0
    report("1 weight closed forms agree", worst < 1e-12 and elapsed < 1.0,
           f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_form_constants():
    w = critical_weights(math.pi / 2)
    target = math.sqrt(3 + 0.5 * math.sqrt(26 + 7 * math.sqrt(2)))
    ok = abs(1 / w.u1 - target) < 1e-9
    w3 = critical_weights(math.pi / 3)
    u1 = 1 / math.sqrt(2 + math.sqrt(2))
    ok = ok and abs(w3.u1 - u1) < 1e-12
    ok = ok and all(abs(x - u1 * u1) < 1e-12 for x in (w3.u2, w3.v, w3.w1))
    ok = ok and abs(w3.w2) < 1e-12
    report("2 closed-form constants", ok,
           f"1/u1(pi/2)={1 / w.u1:.10f} vs {target:.10f}")


def test_criterion_03_local_relations_and_solver():
    t0 = time.time()
    worst = 0.0
    for th in GRID13:
        worst = max(worst, local_residuals(sigma_weights(th, 5 / 8), 5 / 8, th).max_abs())
        for u1 in (0.3, 0.5, 0.9):
            worst = max(worst, local_residuals(sigma_one_family(u1), 1.0, th).max_abs())
    ok = worst < 1e-12
    solver_err = 0.0
    for sg in (3 / 8, 5 / 8, 7 / 8):
        sol = solve_local_system(sg, math.pi / 2)
        ref = sigma_weights(math.pi / 2, sg)
        solver_err = max(solver_err, max(
            abs(a - b) for a, b in zip(sol.weights.as_tuple(), ref.as_tuple())))
    ok = ok and solver_err < 1e-9
    sol1 = solve_local_system(1.0, math.pi / 2)
    ok = ok and sol1.rank_deficiency == 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report("3 local relations + appendix solver", ok,
           f"residual {worst:.2e}, solver {solver_err:.2e}, {elapsed:.2f}s")


def test_criterion_04_inequalities():
    ok = True
    for th in GRID13:
        w = critical_weights(th)
        ok = ok and w.u1 ** 2 - w.w1 >= -1e-12
        ok = ok and w.u2 ** 2 - w.w2 >= -1e-12
    for th in (math.pi / 4, 3 * math.pi / 4):
        w = sigma_weights(th, 5 / 8)
        fails = int(w.u1 ** 2 < w.w1 - 1e-12) + int(w.u2 ** 2 < w.w2 - 1e-12)
        ok = ok and fails == 1 and min(w.w1, w.w2) < 0
    report("4 positivity window", ok)


def test_criterion_05_discrete_contour_relation():
    t0 = time.time()
    worst = 0.0
    for th in THETAS5:
        for T, L in ((2, 1), (3, 1)):
            tab = observable(ParallelogramDomain(T, L, th), 5 / 8)
            worst = max(worst, max_cr_residual(tab))
    elapsed = time.time() - t0
    report("5 contour relation on domains", worst < 1e-10 and elapsed < 30,
           f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_parallelogram_identity():
    t0 = time.time()
    worst = 0.0
    for th in THETAS5:
        xc = critical_weights(th).x_c
        for T in range(1, 13):
            for L in range(0, 6):
                if (2 * L + 1) * T > 12:
                    continue
                worst = max(worst, strip_sums(T, L, xc, th).residual)
    elapsed = time.time() - t0
    report("6 parallelogram identity", worst < 1e-10 and elapsed < 300,
           f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_strip_behaviour():
    th = math.pi / 2
    w = critical_weights(th)
    xc = w.x_c
    ok = True
    detail = []
    budgets = {1: 7, 2: 5, 3: 3}
    for T in (1, 2, 3):
        rep = strip_limits(T, xc, th, budgets[T])
        ok = ok and all(b < a for a, b in zip(rep.ED, rep.ED[1:]))
        ok = ok and all(m >= -1e-12 for m in rep.growth_margins)
        detail.append(f"T={T} ED_last={rep.ED[-1]:.3g}")
    chain = bridge_chain_check(th, 3, budgets[3])
    ok = ok and all(m > 0 for m in chain.floor_margins)
    ok = ok and all(m > 0 for m in chain.subcritical_margins)
    report("7 strip behaviour", ok, "; ".join(detail))


def test_criterion_08_enumerator_oracle_and_fixture():
    th = math.pi / 2
    fast = {}
    for (rlen, profile), k in free_walk_aggregate(6, UNIT_RULE, "H").items():
        fast[(rlen, profile)] = fast.get((rlen, profile), 0) + k
    slow = {}
    for steps in naive_enumerate(MidEdge(0, 0, "H"), 6):
        key = (len(steps), naive_profile(steps))
        slow[key] = slow.get(key, 0) + 1
    ok = fast == slow
    walk = walk_from_dump(FIXTURE_WALK)
    w = critical_weights(th)
    expected = w.u1 ** 5 * w.u2 * w.v ** 4 * w.w1
    ok = ok and abs(weight_of(walk, w) - expected) < 1e-14
    ok = ok and walk.length(UNIT_RULE) == 12
    report("8 oracle equivalence + reference walk", ok,
           f"{sum(slow.values())} walks to n=6")


def test_criterion_09_series_properties():
    t0 = time.time()
    ok = True
    for th in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        rep = series_report(th, UNIT_RULE, 10)
        c = rep.c_tilde
        for n in range(1, 10):
            for m in range(1, 11 - n):
                ok = ok and c[n + m] <= c[n] * c[m] * (1 + 1e-12)
        w = critical_weights(th)
        floor = (w.u1 + w.v) / w.u1
        ok = ok and all(c[n] >= floor ** n * (1 - 1e-12) for n in range(11))
    rep = series_report(math.pi / 2, UNIT_RULE, 12)
    lo = rep.lower_brackets[0]
    ok = ok and all(lo - 1e-12 <= r <= rep.upper_bracket + 1e-12
                    for r in rep.root_estimates)
    first = abs(rep.ratio_estimates[0] - rep.target)
    ok = ok and all(abs(r - rep.target) < first
                    for r in rep.ratio_estimates[-3:])
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    report("9 series brackets + ratio drift", ok,
           f"last ratio {rep.ratio_estimates[-1]:.4f} -> {rep.target:.4f}, "
           f"{elapsed:.1f}s")


def test_criterion_10_honeycomb_crosscheck():
    rep = honeycomb_crosscheck(10)
    ok = rep.max_relative_error() < 1e-12 and rep.images_valid
    report("10 honeycomb correspondence", ok,
           f"max rel err {rep.max_relative_error():.2e}, "
           f"counts to n=10: {rep.oracle_counts[-1]}")


def test_criterion_11_yang_baxter_and_on_observable():
    t0 = time.time()
    worst = 0.0
    for alpha in (0.5, 0.65, 0.8, 0.95, 1.1):
        for s in (-3 / 8, 0.5, 0.75):   # n = 0, 1, 2
            worst = max(worst, yang_baxter_residual(alpha, s).max_residual)
    cr = max(on_observable_cr_check(math.pi / 2, s, 2, 2)
             for s in (-3 / 8, 0.5))    # n = 0, 1
    elapsed = time.time() - t0
    ok = worst < 1e-10 and cr < 1e-10 and elapsed < 120
    report("11 hexagon flip + loop observable", ok,
           f"yb {worst:.2e}, cr {cr:.2e}, {elapsed:.1f}s")
