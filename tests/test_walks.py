import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsaw.geometry import MidEdge, ParallelogramDomain
from skewsaw.walks import (
    HONEYCOMB_RULE,
    LengthRule,
    PlaquetteState,
    UNIT_RULE,
    build_walk,
    c_tilde,
    enumerate_walks,
    free_walk_aggregate,
    free_walk_aggregate_parallel,
    occupancy_from_steps,
    walk_from_dump,
    walk_to_dump,
    weight_of,
)
from skewsaw.weights import critical_weights

from oracles import naive_enumerate, naive_profile, naive_weight

THETAS3 = [math.pi / 3, math.pi / 2, 2 * math.pi / 3]

# the reference walk: five single theta-arcs, one (pi-theta)-arc, four
# straights and one rhombus holding two theta-arcs; see figure fixture test
FIXTURE_WALK = (
    "0,0,H;0,0,H>0,-1,H,0,-1,H>0,-2,H,0,-2,H>0,-3,H,0,-3,H>0,-4,H,"
    "0,-4,H>1,-5,V,1,-5,V>1,-5,H,1,-5,H>1,-6,V,1,-6,V>0,-5,H,"
    "0,-5,H>0,-5,V,0,-5,V>-1,-4,H,-1,-4,H>-1,-4,V,-1,-4,V>-2,-3,H"
)


def collect_walks(start, max_length, rule=UNIT_RULE, domain=None):
    out = []
    enumerate_walks(start, max_length, rule, domain, out.append)
    return out


def test_empty_budget_gives_single_empty_walk():
    walks = collect_walks(MidEdge(0, 0, "H"), 0)
    assert len(walks) == 1
    assert walks[0].steps == ()
    assert weight_of(walks[0], critical_weights(math.pi / 2)) == 1.0


def test_one_step_walks_and_weights():
    w = critical_weights(math.pi / 2)
    walks = collect_walks(MidEdge(0, 0, "V"), 1)
    assert len(walks) == 7
    weights = sorted(weight_of(wk, w) for wk in walks if wk.steps)
    expected = sorted([w.u1, w.u1, w.u2, w.u2, w.v, w.v])
    assert weights == pytest.approx(expected)


def test_c_tilde_small_values():
    th = math.pi / 2
    w = critical_weights(th)
    assert c_tilde(0, th) == 1.0
    assert c_tilde(1, th) == pytest.approx((2 * w.u1 + 2 * w.u2 + 2 * w.v) / w.u1)


@pytest.mark.parametrize("n_max", [2, 4, 6])
def test_oracle_equivalence_counts_and_profiles(n_max):
    """Counts and state profiles agree exactly with the naive enumerator."""
    start = MidEdge(0, 0, "H")
    fast: Counter = Counter()
    for (rlen, profile), k in free_walk_aggregate(n_max, UNIT_RULE, "H").items():
        fast[(rlen, profile)] += k
    slow: Counter = Counter()
    for steps in naive_enumerate(start, n_max):
        slow[(len(steps), naive_profile(steps))] += 1
    assert fast == slow


def test_oracle_equivalence_weight_sums():
    th = math.pi / 2
    w = critical_weights(th)
    start = MidEdge(0, 0, "H")
    by_len_fast = [0.0] * 7
    for (rlen, profile), k in free_walk_aggregate(6, UNIT_RULE, "H").items():
        by_len_fast[rlen] += k * (w.u1 ** profile[0] * w.u2 ** profile[1]
                                  * w.v ** profile[2] * w.w1 ** profile[3]
                                  * w.w2 ** profile[4])
    by_len_slow = [0.0] * 7
    for steps in naive_enumerate(start, 6):
        by_len_slow[len(steps)] += naive_weight(steps, w)
    for a, b in zip(by_len_fast, by_len_slow):
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("orient", ["H", "V"])
def test_enumerate_walks_visits_in_naive_order(orient):
    # the search's transition table follows step_candidates' order
    start = MidEdge(0, 0, orient)
    fast = [wk.steps for wk in collect_walks(start, 6)]
    assert fast == [tuple(steps) for steps in naive_enumerate(start, 6)]


def test_enumerate_in_domain_counts_match_oracle():
    d = ParallelogramDomain(2, 1, math.pi / 2)
    walks = collect_walks(d.origin, 12, domain=d)
    # naive: restrict candidates by rhombus membership
    from skewsaw.geometry import step_candidates
    from oracles import naive_length, replay

    results = []

    def grow(steps, visited):
        results.append(list(steps))
        if steps:
            cands = step_candidates(steps[-1].dst, domain=d,
                                    sign=steps[-1].exit_sign)
        else:
            cands = step_candidates(d.origin, domain=d)
        for cand in cands:
            if cand.dst in visited or replay(steps + [cand]) is None:
                continue
            grow(steps + [cand], visited + [cand.dst])

    grow([], [d.origin])
    assert len(walks) == len(results)


def test_state_machine_soundness():
    for walk in collect_walks(MidEdge(0, 0, "V"), 5):
        mids = [walk.start] + [s.dst for s in walk.steps]
        assert len(set(mids)) == len(mids)  # self-avoiding on mid-edges
        for state in walk.occupancy.values():
            assert isinstance(state, PlaquetteState)
            assert state != PlaquetteState.EMPTY
        # replaying through the public state machine agrees
        assert occupancy_from_steps(walk.steps) == dict(walk.occupancy)


def test_double_visit_uses_double_weight_not_square():
    # the shortest rhombus revisit takes five steps
    w = critical_weights(math.pi / 2)
    doubled = [wk for wk in collect_walks(MidEdge(0, 0, "H"), 5)
               if PlaquetteState.DOUBLE_THETA in wk.occupancy.values()]
    assert doubled
    for wk in doubled:
        profile = wk.profile()
        assert profile[3] >= 1
        expected = (w.u1 ** profile[0] * w.u2 ** profile[1] * w.v ** profile[2]
                    * w.w1 ** profile[3] * w.w2 ** profile[4])
        assert weight_of(wk, w) == pytest.approx(expected)


def test_straight_after_straight_rejected():
    # a straight plus any second component in one rhombus is inadmissible
    from skewsaw.geometry import Rhombus, Step

    r = Rhombus(0, 0)
    b, rt, t, lf = r.mid_edges()
    with pytest.raises(ValueError):
        occupancy_from_steps([Step(r, b, t), Step(r, lf, rt)])   # two straights
    with pytest.raises(ValueError):
        occupancy_from_steps([Step(r, b, lf), Step(r, rt, b)])   # adjacent arcs
    with pytest.raises(ValueError):
        occupancy_from_steps([Step(r, b, t), Step(r, rt, t)])    # straight + arc
    # opposite arcs are the allowed revisit
    occ = occupancy_from_steps([Step(r, b, lf), Step(r, rt, t)])
    assert occ[r] == PlaquetteState.DOUBLE_THETA


def test_fixture_walk_weight_and_length():
    walk = walk_from_dump(FIXTURE_WALK)
    w = critical_weights(math.pi / 2)
    assert walk.profile() == (5, 1, 4, 1, 0)
    expected = w.u1 ** 5 * w.u2 * w.v ** 4 * w.w1
    assert weight_of(walk, w) == pytest.approx(expected, rel=1e-14)
    assert walk.length(UNIT_RULE) == 12
    assert walk_to_dump(walk) == FIXTURE_WALK


def test_dump_roundtrip_all_small_walks():
    for wk in collect_walks(MidEdge(0, 0, "V"), 3):
        again = walk_from_dump(walk_to_dump(wk))
        assert again.steps == wk.steps
        assert again.start == wk.start


def test_submultiplicativity_and_lower_bound():
    for th in THETAS3:
        w = critical_weights(th)
        c = [c_tilde(n, th) for n in range(11)]
        for n in range(1, 10):
            for m in range(1, 11 - n):
                assert c[n + m] <= c[n] * c[m] * (1 + 1e-12)
        floor = (w.u1 + w.v) / w.u1
        for n in range(11):
            assert c[n] >= floor ** n * (1 - 1e-12)


def test_origin_orientation_gives_identical_series():
    # the i <-> j lattice transposition maps H walks to V walks weight
    # by weight, so the series agree exactly
    th = 5 * math.pi / 12
    for n in range(7):
        assert c_tilde(n, th, orient="H") == pytest.approx(
            c_tilde(n, th, orient="V"), rel=1e-12)


def test_splitting_bound_every_split():
    w = critical_weights(math.pi / 2)
    for wk in collect_walks(MidEdge(0, 0, "H"), 6):
        if len(wk.steps) < 2:
            continue
        total = weight_of(wk, w)
        for k in range(1, len(wk.steps)):
            w1 = naive_weight(list(wk.steps[:k]), w)
            w2 = naive_weight(list(wk.steps[k:]), w)
            assert total <= w1 * w2 * (1 + 1e-12)


def test_step_cap_enforced():
    with pytest.raises(ValueError):
        enumerate_walks(MidEdge(0, 0, "H"), 100, UNIT_RULE, None, lambda w: None)
    # a generous cap on rule lengths loosens the limit
    enumerate_walks(MidEdge(0, 0, "H"), 100, LengthRule(25, 25, 25), None,
                    lambda w: None)


def test_step_cap_refuses_steps_beyond_packed_coordinates():
    from skewsaw.walks import _OFF, _step_cap_check

    origin = MidEdge(0, 0, "H")
    assert _step_cap_check(_OFF - 1, UNIT_RULE, 600, origin) == _OFF - 1
    with pytest.raises(ValueError):
        _step_cap_check(600, UNIT_RULE, 600, origin)
    with pytest.raises(ValueError):
        _step_cap_check(_OFF, UNIT_RULE, _OFF, origin)
    # the range counts from the start: 8 steps from j = 511 used to alias
    # and lose walks
    assert _step_cap_check(7, UNIT_RULE, 40, MidEdge(0, _OFF - 8, "H")) == 7
    with pytest.raises(ValueError):
        enumerate_walks(MidEdge(0, _OFF - 1, "H"), 8)


def test_honeycomb_rule_lengths():
    walks = collect_walks(MidEdge(0, 0, "V"), 2, rule=HONEYCOMB_RULE)
    # empty + 2 theta-arcs at length 1; length 2: 2 u2-arcs, 2 straights,
    # 2 theta-arc pairs
    by_len = Counter(wk.length(HONEYCOMB_RULE) for wk in walks)
    assert by_len == {0: 1, 1: 2, 2: 6}


def test_prefix_parallel_matches_sequential():
    seq = free_walk_aggregate(5, UNIT_RULE, "H")
    par = free_walk_aggregate_parallel(5, UNIT_RULE, "H", workers=2)
    assert par == seq


@given(st.integers(0, 3), st.sampled_from(["H", "V"]))
@settings(max_examples=8)
def test_walk_count_independent_of_theta(n_max, orient):
    # enumeration is combinatorial: identical aggregates for any theta
    agg = free_walk_aggregate(n_max, UNIT_RULE, orient)
    total = sum(agg.values())
    counts = {th: sum(1 for _ in collect_walks(MidEdge(0, 0, orient), n_max))
              for th in THETAS3}
    assert set(counts.values()) == {total}


def test_rule_validation():
    with pytest.raises(ValueError):
        LengthRule(0, 1, 1)
    with pytest.raises(ValueError):
        LengthRule(1, -2, 1)
