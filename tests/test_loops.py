import hashlib
import math

import pytest

from skewsaw.cli import main
from skewsaw.geometry import (
    MidEdge,
    ParallelogramDomain,
    PlaquetteState,
    Rhombus,
)
from skewsaw.loops import (
    Cell,
    _trace,
    cell_from_rhombus,
    hexagon,
    iter_consistent_configs,
    noncrossing_pairings,
    on_observable,
    on_observable_cr_check,
    rect_cells,
    yang_baxter_residual,
)
from skewsaw.observable import observable
from skewsaw.weights import critical_weights, on_weights

from oracles import naive_config_weight, naive_yang_baxter_rows

ALPHAS = [0.5, 0.65, 0.8, 0.95, 1.1]


def test_empty_config_weight_is_one():
    th = math.pi / 2
    cells = rect_cells(th, 2, 2)
    states = [PlaquetteState.EMPTY] * 4
    loops, _ = _trace(cells, states)
    w = critical_weights(th)
    assert naive_config_weight(cells, states, len(loops), w, 2.0) == 1.0
    assert len(loops) == 0


def test_hand_built_vertex_loop():
    # one arc in each of the four rhombi around vertex (1, 1): a single
    # closed loop of two theta-arcs and two (pi-theta)-arcs
    th = 0.52 * math.pi
    cells = rect_cells(th, 2, 2)
    by_key = {c.key: c for c in cells}
    states = []
    for c in cells:
        states.append({
            ("R", 0, 0): PlaquetteState.ARC_NE,  # NE corner of R(0,0) is (1,1)
            ("R", 0, 1): PlaquetteState.ARC_SE,
            ("R", 1, 0): PlaquetteState.ARC_NW,
            ("R", 1, 1): PlaquetteState.ARC_SW,
        }[c.key])
    loops, chains = _trace(cells, states)
    assert len(loops) == 1
    assert not chains
    w = critical_weights(th)
    n = 1.7
    expected = w.u1 ** 2 * w.u2 ** 2 * n
    weight = naive_config_weight(cells, states, len(loops), w, n)
    assert weight == pytest.approx(expected)
    # n=0 kills loops
    assert naive_config_weight(cells, states, len(loops), w, 0.0) == 0.0


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
    states = [PlaquetteState.ARC_NE, PlaquetteState.ARC_SE,
              PlaquetteState.ARC_NW, PlaquetteState.ARC_SW]
    perm = [2, 0, 3, 1]
    cells2 = [cells[k] for k in perm]
    states2 = [states[k] for k in perm]
    loops1, _ = _trace(cells, states)
    loops2, _ = _trace(cells2, states2)
    assert len(loops1) == len(loops2) == 1
    w = critical_weights(th)
    weight1 = naive_config_weight(cells, states, len(loops1), w, 2.0)
    weight2 = naive_config_weight(cells2, states2, len(loops2), w, 2.0)
    assert weight1 == pytest.approx(weight2)


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
    states = [PlaquetteState.DOUBLE_PI_MINUS_THETA,
              *[PlaquetteState.EMPTY] * 3]
    loops, _ = _trace(cells, states)
    assert naive_config_weight(cells, states, len(loops), w, n) == (
        pytest.approx(0.0, abs=1e-12))


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


# The loop-model name of each state code, as the digests below were taken:
# arcs by the corners c0..c3 = (SW, SE, NE, NW) they surround, straights
# by the sides 0..3 = (B, R, T, L) they join.
_DIGEST_NAMES = ("empty", "arc_c0", "arc_c1", "arc_c2", "arc_c3",
                 "straight_02", "straight_13", "double_c0c2", "double_c1c3")


def _states_digest(configs):
    h = hashlib.sha256()
    n = 0
    for states, _, _ in configs:
        h.update(repr(tuple(_DIGEST_NAMES[st] for st in states)).encode())
        n += 1
    return n, h.hexdigest()


@pytest.mark.parametrize("allow,count,sha", [
    (0, 433,
     "cc302e8ffdd7819a919a275548978fc58a0a1d2cb395ea03e62e47d701e954cb"),
    (1, 2113,
     "9573873ae78b37ecfb27af5395d6226461f2f9645ff5931e8a718bd8968be8d8"),
], ids=["closed_interior", "one_open_interior"])
def test_default_search_sequence(allow, count, sha):
    # boundary_mids=None: strands end for free at every mid of one cell;
    # count and order of the yielded states are pinned
    configs = iter_consistent_configs(rect_cells(1.2, 2, 2),
                                      allow_open_interior=allow)
    assert _states_digest(configs) == (count, sha)


def test_boundary_mids_bound_where_strands_end():
    # the loop observable's search: ends are free at the origin only, and
    # one more end may lie anywhere
    a = MidEdge(0, 1, "V")
    configs = list(iter_consistent_configs(
        rect_cells(1.2, 2, 3), boundary_mids={a}, allow_open_interior=1))
    assert len(configs) == 86
    for _, loops, chains in configs:
        assert len(chains) <= 1
        for ch in chains:
            assert a in (ch[0], ch[-1])
        if not chains:
            assert all(a not in lp for lp in loops)


def test_a_mid_of_three_cells_is_refused():
    # a mid joins two cells; a third owner would leave a strand without its
    # partner, so the search refuses the patch by that mid
    cells = [Cell(key=k, angle=0.0, mids=("shared", (k, 1), (k, 2), (k, 3)))
             for k in range(3)]
    with pytest.raises(ValueError, match="mid 'shared' belongs to 3 cells"):
        next(iter_consistent_configs(cells))


def test_hexagon_strands_end_on_its_boundary():
    hexa = hexagon(0.8)
    boundary = set(hexa.boundary)
    for cells in (hexa.tiling1, hexa.tiling2):
        configs = list(iter_consistent_configs(cells, boundary))
        assert configs == list(iter_consistent_configs(cells))
        assert len(configs) == 95
        ends = {m for _, _, chains in configs for ch in chains
                for m in (ch[0], ch[-1])}
        assert ends == boundary


# the CLI's default grid, plus angles and loop parameters off it
YB_CASES = ([(a, s) for a in ALPHAS for s in (-3 / 8, 0.5, 0.75)]
            + [(a, s) for a in (0.3, 1.4) for s in (0.1, -0.9)])


@pytest.mark.parametrize("alpha,s", YB_CASES)
def test_yang_baxter_rows_equal_the_naive_oracle(alpha, s):
    # exact: the cached terms re-weight to the very floats of a fresh pass
    assert yang_baxter_residual(alpha, s).rows == naive_yang_baxter_rows(
        alpha, s)


def _relabelled_configs(cells, boundary_mids, allow_open_interior=0):
    from skewsaw.loops import _shape_configs, _structure

    shape, mids = _structure(cells)
    free = frozenset(mids.index(m) for m in boundary_mids)
    return [(states, [[mids[k] for k in lp] for lp in loops],
             [[mids[k] for k in ch] for ch in chains])
            for states, loops, chains in _shape_configs(
                shape, free, allow_open_interior)]


@pytest.mark.parametrize("alpha", [0.5, 1.1])
def test_structure_cache_replays_the_hexagon_search(alpha):
    hexa = hexagon(alpha)
    for cells in (hexa.tiling1, hexa.tiling2):
        assert _relabelled_configs(cells, hexa.boundary) == list(
            iter_consistent_configs(cells, set(hexa.boundary)))


@pytest.mark.parametrize("theta", [1.2, 1.9])
@pytest.mark.parametrize("rows", [2, 3])
def test_structure_cache_replays_the_patch_search(theta, rows):
    cells = rect_cells(theta, 2, rows)
    a = {MidEdge(0, rows // 2, "V")}
    assert _relabelled_configs(cells, a, 1) == list(
        iter_consistent_configs(cells, a, allow_open_interior=1))


def test_hexagons_at_two_angles_share_one_structure():
    from skewsaw.loops import _structure

    for pick in (lambda h: h.tiling1, lambda h: h.tiling2):
        shape1, mids1 = _structure(pick(hexagon(0.5)))
        shape2, mids2 = _structure(pick(hexagon(0.95)))
        assert mids1 != mids2
        assert shape1 == shape2


def test_each_structure_is_enumerated_once(capsys):
    from skewsaw import loops as L

    for cached in (L._shape_configs, L._flip_terms, L._patch_aggregate):
        cached.cache_clear()
    assert main(["yangbaxter"]) == 0
    assert capsys.readouterr().out.count("\n") == 16  # header + 15 rows
    # five hexagons, one structure per tiling
    assert L._shape_configs.cache_info().misses == 2
    for theta in (0.7, 1.2, 1.9):
        L._patch_aggregate(theta, 2, 3, 0)
    assert L._shape_configs.cache_info().misses == 3
