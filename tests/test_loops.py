import math

import pytest

from skewsaw.geometry import MidEdge, ParallelogramDomain, Rhombus
from skewsaw.loops import (
    LoopConfig,
    cell_from_rhombus,
    hexagon,
    iter_consistent_configs,
    loop_weight,
    noncrossing_pairings,
    on_observable,
    on_observable_cr_check,
    rect_cells,
    yang_baxter_residual,
)
from skewsaw.observable import observable
from skewsaw.weights import critical_weights, on_weights

ALPHAS = [0.5, 0.65, 0.8, 0.95, 1.1]


def _config_from_states(cells, states):
    from skewsaw.loops import _trace

    loops, chains = _trace(cells, states)
    return LoopConfig(cells=tuple(cells), states=tuple(states),
                      loops=tuple(tuple(c) for c in loops),
                      path=tuple(chains[0]) if chains else None)


def test_empty_config_weight_is_one():
    th = math.pi / 2
    cells = rect_cells(th, 2, 2)
    cfg = _config_from_states(cells, ["empty"] * 4)
    w = critical_weights(th)
    assert loop_weight(cfg, lambda c: w, 2.0) == 1.0
    assert cfg.n_loops == 0


def test_hand_built_vertex_loop():
    # one arc in each of the four rhombi around vertex (1, 1): a single
    # closed loop of two theta-arcs and two (pi-theta)-arcs
    th = 0.52 * math.pi
    cells = rect_cells(th, 2, 2)
    by_key = {c.key: c for c in cells}
    states = []
    for c in cells:
        states.append({
            ("R", 0, 0): "arc_c2",   # NE corner of R(0,0) is vertex (1,1)
            ("R", 0, 1): "arc_c1",   # SE corner of R(0,1)
            ("R", 1, 0): "arc_c3",   # NW corner of R(1,0)
            ("R", 1, 1): "arc_c0",   # SW corner of R(1,1)
        }[c.key])
    cfg = _config_from_states(cells, states)
    assert cfg.n_loops == 1
    assert cfg.path is None
    w = critical_weights(th)
    n = 1.7
    expected = w.u1 ** 2 * w.u2 ** 2 * n
    assert loop_weight(cfg, lambda c: w, n) == pytest.approx(expected)
    assert loop_weight(cfg, lambda c: w, 0.0) == 0.0  # n=0 kills loops


def test_consistent_configs_decompose_cleanly():
    th = math.pi / 2
    cells = rect_cells(th, 2, 2)
    seen = 0
    for states, loops, chains in iter_consistent_configs(cells):
        seen += 1
        # every strand is a loop or a chain; chains end on the patch
        # boundary (no open interior mids were allowed)
        for ch in chains:
            assert len(ch) >= 2
            assert ch[0] != ch[-1]
        for lp in loops:
            assert lp[0] == lp[-1]
    assert seen > 100  # plenty of consistent states on a 2x2 patch


def test_loop_count_invariant_under_cell_order():
    th = math.pi / 2
    cells = rect_cells(th, 2, 2)
    states = ["arc_c2", "arc_c1", "arc_c3", "arc_c0"]
    cfg1 = _config_from_states(cells, states)
    perm = [2, 0, 3, 1]
    cfg2 = _config_from_states([cells[k] for k in perm],
                               [states[k] for k in perm])
    assert cfg1.n_loops == cfg2.n_loops == 1
    w = critical_weights(th)
    assert loop_weight(cfg1, lambda c: w, 2.0) == pytest.approx(
        loop_weight(cfg2, lambda c: w, 2.0))


def test_noncrossing_pairings_catalan():
    pts = tuple(range(6))
    assert len(noncrossing_pairings(pts)) == 5
    assert len(noncrossing_pairings(pts[:4])) == 2
    assert len(noncrossing_pairings(pts[:2])) == 1
    assert len(noncrossing_pairings(())) == 1


def test_hexagon_tilings_share_boundary_and_angles():
    hexa = hexagon(0.8)
    a1 = sorted(round(c.angle, 9) for c in hexa.tiling1)
    a2 = sorted(round(c.angle, 9) for c in hexa.tiling2)
    assert a1 == a2
    assert a1 == sorted([round(0.8, 9), round(0.8, 9), round(1.6, 9)])
    assert len(hexa.boundary) == 6


def test_hexagon_rejects_degenerate_alpha():
    with pytest.raises(ValueError):
        hexagon(0.0)
    with pytest.raises(ValueError):
        hexagon(math.pi / 2)


@pytest.mark.parametrize("s", [-3 / 8, 0.5, 0.75])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_yang_baxter_residual_grid(alpha, s):
    rep = yang_baxter_residual(alpha, s)
    assert rep.pattern_count == 51  # 1 + 15 + 2*15 + 5 patterns of 6 points
    assert rep.max_residual < 1e-10


def test_yang_baxter_empty_pattern_has_loop_terms():
    # at n = 2 closed loops contribute, so both sums exceed the empty
    # configuration's weight of 1 and still agree
    rep = yang_baxter_residual(0.8, 0.75)
    assert abs(rep.n - 2.0) < 1e-12
    empty_rows = [r for r in rep.rows if r[0] == 0]
    assert len(empty_rows) == 1
    _, s1, s2, diff = empty_rows[0]
    assert s1 > 1.0
    assert diff < 1e-10


@pytest.mark.parametrize("s", [-3 / 8, 0.5])
def test_on_observable_cr_2x2(s):
    assert on_observable_cr_check(math.pi / 2, s, 2, 2) < 1e-10


def test_on_observable_cr_perturbation_detected():
    # shift v away from the solving family: residual jumps
    from skewsaw import loops as L

    th = math.pi / 2
    w, n = on_weights(th, 0.5)
    values = L.on_observable(th, 0.5, 2, 2)
    # recompute with perturbed v by monkeypatching the weight lookup
    counts, a = L._patch_aggregate(th, 2, 2, 0)
    import cmath

    def evaluate(vshift):
        vals = {}
        sigma = 0.5 + 1.0
        pmt = math.pi - th
        for (z, (k1, k2), profile, nloops), cnt in counts.items():
            wt = (w.u1 ** profile[0] * w.u2 ** profile[1]
                  * (w.v + vshift) ** profile[2]
                  * w.w1 ** profile[3] * w.w2 ** profile[4])
            amp = cnt * wt * float(n) ** nloops
            phase = cmath.exp(-1j * sigma * (k1 * th + k2 * pmt))
            vals[z] = vals.get(z, 0j) + amp * phase
        worst = 0.0
        e = cmath.exp(1j * th)
        for i in range(2):
            for j in range(2):
                b, rt, t, lf = Rhombus(i, j).mid_edges()
                res = (vals.get(b, 0j) + e * vals.get(rt, 0j)
                       - vals.get(t, 0j) - e * vals.get(lf, 0j))
                worst = max(worst, abs(res))
        return worst

    assert evaluate(0.0) < 1e-10
    assert evaluate(0.01) > 1e-5


def test_on_observable_n0_matches_walk_observable():
    # at n = 0 only the bare path survives, which is exactly the
    # self-avoiding walk observable on the same domain
    th = 7 * math.pi / 12
    vals = on_observable(th, -3 / 8, cols=2, rows=3, j0=-1)
    tab = observable(ParallelogramDomain(2, 1, th), 5 / 8)
    assert set(vals) == set(tab.values)
    for m, fv in tab.values.items():
        assert abs(fv - vals[m]) < 1e-12


def test_w2_states_carry_zero_weight_at_honeycomb_angle():
    w, n = on_weights(math.pi / 3, 0.5)
    assert w.w2 == pytest.approx(0.0, abs=1e-12)
    cells = rect_cells(math.pi / 3, 2, 2)
    cfg_states = ["double_c1c3", "empty", "empty", "empty"]
    cfg = _config_from_states(cells, cfg_states)
    assert loop_weight(cfg, lambda c: w, n) == pytest.approx(0.0, abs=1e-12)


def test_lattice_cell_orientation_matches_geometry():
    th = 0.47 * math.pi
    r = Rhombus(2, -1)
    cell = cell_from_rhombus(r, th)
    assert cell.angle == pytest.approx(th)
    assert cell.mids == r.mid_edges()  # (bottom, right, top, left)


def test_patch_windings_are_exact_at_every_angle():
    # the histogram is combinatorial; at pi/2, where theta = pi - theta,
    # a winding must still keep its own (theta, pi - theta) units
    from skewsaw.loops import _patch_aggregate

    at_half_pi, _ = _patch_aggregate(math.pi / 2, 2, 2, 0)
    assert at_half_pi == _patch_aggregate(1.2, 2, 2, 0)[0]
    assert at_half_pi == _patch_aggregate(1.9, 2, 2, 0)[0]
