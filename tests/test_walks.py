import math
import os
import signal
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsaw import walks
from skewsaw.geometry import MidEdge, ParallelogramDomain
from skewsaw.series import series_report
from skewsaw.walks import (
    HONEYCOMB_RULE,
    LengthRule,
    PlaquetteState,
    UNIT_RULE,
    build_walk,
    enumerate_walks,
    free_walk_aggregate,
    free_walk_aggregate_parallel,
    occupancy_from_steps,
    run_walk_enumeration,
    walk_from_dump,
    walk_to_dump,
    weight_of,
)
from skewsaw.weights import critical_weights

from oracles import naive_enumerate, naive_length, naive_profile, naive_weight

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
    c = series_report(th, n_max=1).c_tilde
    assert c[0] == 1.0
    assert c[1] == pytest.approx((2 * w.u1 + 2 * w.u2 + 2 * w.v) / w.u1)


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


def test_oracle_equivalence_honeycomb_rule():
    # a non-unit rule: a walk is childless once no step fits the budget,
    # before its length reaches it
    start = MidEdge(0, 0, "V")
    rule = HONEYCOMB_RULE.as_tuple()
    slow: Counter = Counter()
    for steps in naive_enumerate(start, 9, rule):
        slow[(naive_length(steps, rule), naive_profile(steps))] += 1
    assert sum(slow.values()) == 1_233
    assert Counter(free_walk_aggregate(9, HONEYCOMB_RULE, "V")) == slow


@pytest.mark.parametrize("rule,orient,budget,total", [
    (LengthRule(2, 2, 3), "H", 16, 4_163),
    (LengthRule(3, 2, 2), "V", 16, 4_635),
    (LengthRule(3, 3, 3), "H", 15, 691),
    (LengthRule(2, 2, 3), "H", 2, 5),
    (LengthRule(2, 2, 3), "H", 1, 1),
    (LengthRule(3, 2, 2), "V", 0, 1),
], ids=["2-2-3-H", "3-2-2-V", "3-3-3-H", "2-2-3-H-2", "2-2-3-H-1", "3-2-2-V-0"])
def test_oracle_equivalence_when_the_shortest_passage_is_long(rule, orient,
                                                              budget, total):
    # a shortest passage of length 2 or 3 spreads the parents of leaves
    # over as many lengths, each with its own room for a last step; below
    # the straight's length the start is the only axis point, and below
    # the shortest passage the empty walk, counted once, is the only walk
    slow: Counter = Counter()
    for steps in naive_enumerate(MidEdge(0, 0, orient), budget, rule.as_tuple()):
        slow[(naive_length(steps, rule.as_tuple()), naive_profile(steps))] += 1
    assert sum(slow.values()) == total
    assert Counter(free_walk_aggregate(budget, rule, orient)) == slow


@pytest.mark.parametrize("n_max", [6, 7])
@pytest.mark.parametrize("signs", [(1,), (-1,)], ids=["plus", "minus"])
@pytest.mark.parametrize("orient", ["H", "V"])
def test_oracle_equivalence_of_one_first_step_sign(orient, signs, n_max):
    # a walk back at the start has even length, so at an even budget some
    # parents of leaves have the start's other rhombus ahead, and a step
    # it offers onto the start must be refused
    slow: Counter = Counter()
    for steps in naive_enumerate(MidEdge(0, 0, orient), n_max):
        if not steps or steps[0].entry_sign in signs:
            slow[(len(steps), naive_profile(steps))] += 1
    stats = run_walk_enumeration(MidEdge(0, 0, orient), n_max, signs=signs)
    assert stats.walks == sum(slow.values())
    assert _subtree_hist(orient, n_max, UNIT_RULE, signs) == slow


@pytest.mark.parametrize("signs", [(-1, 1), (1,), (-1,)],
                         ids=["both", "plus", "minus"])
@pytest.mark.parametrize("orient", ["H", "V"])
@pytest.mark.parametrize("rule,budget", [
    (UNIT_RULE, 3), (HONEYCOMB_RULE, 3), (LengthRule(2, 2, 3), 7),
    (LengthRule(3, 3, 3), 11), (UNIT_RULE, 4), (HONEYCOMB_RULE, 4),
    (LengthRule(2, 2, 3), 8), (LengthRule(3, 3, 3), 12),
], ids=["1-1-1-3", "1-2-2-3", "2-2-3-7", "3-3-3-11",
        "1-1-1-4", "1-2-2-4", "2-2-3-8", "3-3-3-12"])
def test_oracle_equivalence_when_a_first_step_is_a_grandparent(rule, budget,
                                                               orient, signs):
    # a walk of length at least budget + 1 - 3 * min(lens) has no
    # great-grandchild, and the search tallies it unless the rhombus ahead
    # of it, or one beyond that rhombus's exits, is one of the start's
    # two.  Below four shortest passages every first step is tallied (the
    # lattice is bipartite, so none of those rhombi is the start's); at
    # four some walks of two steps have a start's rhombus beyond, and the
    # step it offers onto the start must be refused
    lens = rule.as_tuple()
    start = MidEdge(0, 0, orient)
    both: Counter = Counter()
    slow: Counter = Counter()
    for steps in naive_enumerate(start, budget, lens):
        key = (naive_length(steps, lens), naive_profile(steps))
        both[key] += 1
        if not steps or steps[0].entry_sign in signs:
            slow[key] += 1
    stats = run_walk_enumeration(start, budget, rule, signs=signs)
    assert stats.walks == sum(slow.values())
    walks = enumerate_walks(start, budget, rule, signs=signs).walks
    assert walks == stats.walks
    assert _subtree_hist(orient, budget, rule, signs) == slow
    assert Counter(free_walk_aggregate(budget, rule, orient)) == both


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


D2x1 = ParallelogramDomain(2, 1, math.pi / 2)
NAIVE_ORDER = {
    "H": (MidEdge(0, 0, "H"), 6, UNIT_RULE, None, (-1, 1)),
    "V": (MidEdge(0, 0, "V"), 6, UNIT_RULE, None, (-1, 1)),
    "V-honeycomb": (MidEdge(0, 0, "V"), 8, HONEYCOMB_RULE, None, (-1, 1)),
    "H-sign-minus": (MidEdge(0, 0, "H"), 6, UNIT_RULE, None, (-1,)),
    "2x1-origin": (D2x1.origin, 12, UNIT_RULE, D2x1, (-1, 1)),
    "2x1-bottom-mid": (MidEdge(1, -1, "H"), 12, UNIT_RULE, D2x1, (-1, 1)),
}


@pytest.mark.parametrize("case", NAIVE_ORDER)
def test_enumerate_walks_visits_in_naive_order(case):
    # enumerate_walks steps through step_candidates, as the oracle does
    start, budget, rule, domain, signs = NAIVE_ORDER[case]
    fast = []
    enumerate_walks(start, budget, rule, domain, fast.append, signs=signs)
    slow = [tuple(steps) for steps in
            naive_enumerate(start, budget, rule.as_tuple(), domain)
            if not steps or steps[0].entry_sign in signs]
    assert len(slow) > 1
    assert [wk.steps for wk in fast] == slow
    assert [dict(wk.occupancy) for wk in fast] == [
        occupancy_from_steps(steps) for steps in slow]


@pytest.mark.parametrize("start,budget,rule,domain,signs,prior", [
    (MidEdge(0, 0, "H"), 7, UNIT_RULE, None, (-1, 1), None),
    (MidEdge(0, 0, "V"), 16, UNIT_RULE, ParallelogramDomain(4, 2, math.pi / 2),
     (-1, 1), None),
    (MidEdge(0, 0, "V"), 9, HONEYCOMB_RULE, None, (-1, 1), None),
    (MidEdge(0, 0, "H"), 7, UNIT_RULE, None, (-1,), None),
    (MidEdge(0, 0, "H"), 7, UNIT_RULE, None, (-1, 1), 5),
], ids=["free-H-7", "domain-4x2-16", "honeycomb-V-9", "free-H-7-minus",
        "free-H-7-into-5"])
def test_run_walk_enumeration_call_forms(start, budget, rule, domain, signs,
                                         prior):
    # the benchmark's search probe passes emit=None and no counts, and
    # reads .walks, the number the call added to counts
    before: dict = {}
    if prior is not None:  # entries under many of the keys the call adds to
        run_walk_enumeration(start, prior, rule, domain, signs=signs,
                             counts=before)
    alone: dict = {}
    counted = run_walk_enumeration(start, budget, rule, domain, signs=signs,
                                   counts=alone)
    counts = dict(before)
    added = run_walk_enumeration(start, budget, rule, domain, signs=signs,
                                 counts=counts)
    bare = run_walk_enumeration(start, budget, rule, domain, emit=None,
                                signs=signs)
    assert bare.walks == counted.walks == added.walks == sum(alone.values())
    assert counts == {k: before.get(k, 0) + alone.get(k, 0)
                      for k in {**before, **alone}}
    if prior is not None:
        assert before and all(counts[k] > n for k, n in before.items())
    with pytest.raises(TypeError):
        run_walk_enumeration(start, budget, rule, domain, emit=print)


@pytest.mark.parametrize("search", [run_walk_enumeration, enumerate_walks],
                         ids=["count", "visit"])
def test_a_start_outside_the_domain_is_refused(search):
    # the packed search would count free walks under domain keys
    d = ParallelogramDomain(2, 1, math.pi / 2)
    with pytest.raises(ValueError, match="not a mid-edge of the domain"):
        search(MidEdge(10, 10, "H"), 5, UNIT_RULE, d)


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


def test_inadmissible_reuse_names_the_state():
    # up through R(0,0), round to V(0,0), then across R(0,0) again: the
    # second straight is refused, and the message names the first by name
    dump = ("0,0,H;0,0,H>0,1,H,0,1,H>0,1,V,0,1,V>-1,1,H,"
            "-1,1,H>0,0,V,0,0,V>1,0,V")
    with pytest.raises(ValueError, match=r"reuse: STRAIGHT_BT \+ lr in"):
        walk_from_dump(dump)


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
        c = series_report(th, n_max=10).c_tilde
        for n in range(1, 10):
            for m in range(1, 11 - n):
                assert c[n + m] <= c[n] * c[m] * (1 + 1e-12)
        floor = (w.u1 + w.v) / w.u1
        for n in range(11):
            assert c[n] >= floor ** n * (1 - 1e-12)


def test_origin_orientation_gives_identical_series():
    # the i <-> j lattice transposition maps H walks to V walks profile
    # by profile, so the histograms agree exactly, keys in order too
    for rule in (UNIT_RULE, HONEYCOMB_RULE, LengthRule(2, 1, 1)):
        for n in range(10):
            h = free_walk_aggregate(n, rule, "H")
            v = free_walk_aggregate(n, rule, "V")
            assert h == v
            assert list(h) == list(v)


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


def test_step_cap_refuses_steps_beyond_profile_slots():
    from skewsaw.walks import DEFAULT_STEP_CAP, _SLOT_MAX, domain_counts

    assert DEFAULT_STEP_CAP <= _SLOT_MAX
    # a one-rhombus domain keeps the search tiny at any budget
    d = ParallelogramDomain(1, 0, math.pi / 2)
    kw = dict(domain=d, signs=(d.origin_sign,))
    assert run_walk_enumeration(d.origin, _SLOT_MAX, step_cap=_SLOT_MAX,
                                **kw).walks == 4
    with pytest.raises(ValueError, match="profile slots"):
        run_walk_enumeration(d.origin, _SLOT_MAX + 1, step_cap=100, **kw)
    with pytest.raises(ValueError, match="profile slots"):
        run_walk_enumeration(MidEdge(0, 0, "H"), 2 * _SLOT_MAX + 2,
                             LengthRule(2, 2, 2), step_cap=100)
    # the domain search: 32 rhombi can be passed in 64 steps; it is refused
    # with the same message before any walk is counted
    counts: dict = {}
    with pytest.raises(ValueError, match=r"a walk of 64 steps can overflow "
                                         r"the profile slots \(at most 63"):
        domain_counts(ParallelogramDomain(32, 0, math.pi / 2), counts)
    assert counts == {}


def _decoded_key(key):
    """The tuple (end, dtheta, dpmt, profile) of a packed domain key."""
    from skewsaw.walks import _PROFILE_BITS, _unpack_head, _unpack_profile

    return (*_unpack_head(key >> _PROFILE_BITS), _unpack_profile(key))


def _decoded(counts):
    """The tuple histogram of packed domain ``counts``, keys sorted."""
    return dict(sorted((_decoded_key(k), n) for k, n in counts.items()))


@pytest.mark.parametrize("T,L", [(1, 11), (24, 0)])
def test_domain_key_round_trips_at_its_extremes(T, L):
    from skewsaw.walks import (_HV, _PROFILE_BITS, _mirror_above,
                               _mirror_profile, _pack_domain_key, _pack_mid)

    mids = ParallelogramDomain(T, L, math.pi / 2).mid_edges()
    corners = set()
    for orient in "HV":
        side = [m for m in mids if m.orient == orient]
        for i in {min(m.i for m in side), max(m.i for m in side)}:
            for j in {min(m.j for m in side), max(m.j for m in side)}:
                if MidEdge(i, j, orient) in mids:
                    corners.add((i, j, _HV[orient]))
    assert len(corners) == 6
    profiles = [(0, 0, 0, 0, 0), (63, 63, 63, 63, 63), (1, 0, 63, 0, 62)]
    keys = {}
    for mid in corners:
        for dth in (-63, 0, 63):
            for dpm in (-63, 0, 63):
                for profile in profiles:
                    # c1 in the most significant of five 6-bit slots
                    pk = sum(c << 6 * (4 - s) for s, c in enumerate(profile))
                    record = (mid, dth, dpm, profile)
                    key = _pack_domain_key(_pack_mid(*mid), dth, dpm, pk)
                    assert _decoded_key(key) == record
                    keys[key] = record
                    # the mirror image of the key decodes as such
                    i, j, hv = mid
                    c1, c2, c3, c4, c5 = profile
                    image = ((i, -j if hv else 1 - j, hv), -dpm, -dth,
                             (c2, c1, c3, c5, c4))
                    above = _mirror_above(key >> _PROFILE_BITS)
                    assert _mirror_above(above) == key >> _PROFILE_BITS
                    assert _mirror_profile(_mirror_profile(pk)) == pk
                    assert (_decoded_key(above << _PROFILE_BITS
                                         | _mirror_profile(pk)) == image)
    assert len(keys) == 6 * 9 * 3
    # sorted keys come in the order of their tuples
    assert list(map(_decoded_key, sorted(keys))) == sorted(keys.values())


def test_honeycomb_rule_lengths():
    walks = collect_walks(MidEdge(0, 0, "V"), 2, rule=HONEYCOMB_RULE)
    # empty + 2 theta-arcs at length 1; length 2: 2 u2-arcs, 2 straights,
    # 2 theta-arc pairs
    by_len = Counter(wk.length(HONEYCOMB_RULE) for wk in walks)
    assert by_len == {0: 1, 1: 2, 2: 6}


def has_child() -> bool:
    """Whether this process has a child, running or not yet reaped; it
    reaps none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def test_prefix_parallel_matches_sequential():
    # equal counts with keys in one sorted order, so float re-weights sum
    # in the same order on both paths; every rule runs the job queue on two
    # and three processes, the unit rule its mirrored jobs, at n = 12 with
    # its k <= 8 jobs split into sub-jobs
    for n_max, rule, orient in [(6, LengthRule(2, 1, 1), "H"),
                                (9, LengthRule(1, 2, 1), "V"),
                                (12, HONEYCOMB_RULE, "V"),
                                (9, UNIT_RULE, "V"),
                                (12, UNIT_RULE, "H")]:
        seq = free_walk_aggregate(n_max, rule, orient)
        assert list(seq) == sorted(seq)
        for workers in (2, 3):
            par = free_walk_aggregate_parallel(n_max, rule, orient, workers)
            assert list(par.items()) == list(seq.items())
    assert not has_child()


def test_parallel_aggregate_calls_meanwhile_in_the_parent():
    seen = []

    def meanwhile():
        seen.append((os.getpid(), has_child()))

    seq = free_walk_aggregate(12, HONEYCOMB_RULE, "V")
    assert free_walk_aggregate_parallel(12, HONEYCOMB_RULE, "V", 1,
                                        meanwhile=meanwhile) == seq
    # two workers: a child searches while the parent's work runs, and is
    # reaped after
    par = free_walk_aggregate_parallel(12, HONEYCOMB_RULE, "V", 2,
                                       meanwhile=meanwhile)
    assert list(par.items()) == list(seq.items())
    assert seen == [(os.getpid(), False), (os.getpid(), True)]
    assert not has_child()


def test_a_job_that_raises_in_a_child_makes_the_parent_raise(monkeypatch, capfd):
    parent, search = os.getpid(), walks._axis_walks

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("job failed")
        search(*args)

    monkeypatch.setattr(walks, "_axis_walks", fails_in_a_child)
    with pytest.raises(RuntimeError, match="ended with status 1"):
        free_walk_aggregate_parallel(9, UNIT_RULE, "V", workers=2)
    assert not has_child()
    # the child's traceback reaches stderr
    assert "RuntimeError: job failed" in capfd.readouterr().err


def test_a_raising_meanwhile_does_not_wait_for_the_search():
    # the children are killed, not joined: the failure returns long before
    # the search would end
    def fail():
        raise RuntimeError("parent work failed")

    t0 = time.perf_counter()
    free_walk_aggregate_parallel(15, UNIT_RULE, "H", 2)
    search = time.perf_counter() - t0
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="parent work failed"):
        free_walk_aggregate_parallel(15, UNIT_RULE, "H", 2, meanwhile=fail)
    assert time.perf_counter() - t0 < search / 4
    assert not has_child()


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


def _subtree_hist(orient, n_max, rule, signs):
    from skewsaw.walks import _unpack_profile

    counts: dict = {}
    run_walk_enumeration(MidEdge(0, 0, orient), n_max, rule, signs=signs,
                         counts=counts)
    lt, lp, ls = rule.as_tuple()
    hist = Counter()
    for pk, n in counts.items():
        c1, c2, c3, c4, c5 = profile = _unpack_profile(pk)
        hist[(lt * (c1 + 2 * c4) + lp * (c2 + 2 * c5) + ls * c3, profile)] += n
    return hist


@pytest.mark.parametrize("orient,rule,n_max", [
    ("H", UNIT_RULE, 9), ("V", UNIT_RULE, 9), ("V", HONEYCOMB_RULE, 12),
], ids=["H-unit-9", "V-unit-9", "V-honeycomb-12"])
def test_first_step_subtrees_agree_under_pi_rotation(orient, rule, n_max):
    # the pi rotation about the start maps the sign +1 walks one to one
    # onto the sign -1 walks; the free aggregates count one and double it
    plus = _subtree_hist(orient, n_max, rule, (1,))
    assert plus == _subtree_hist(orient, n_max, rule, (-1,))
    both = Counter({key: 2 * n for key, n in plus.items()})
    both[(0, (0, 0, 0, 0, 0))] = 1
    assert free_walk_aggregate(n_max, rule, orient) == both


def test_h_and_v_starts_give_identical_histograms():
    assert (free_walk_aggregate(9, UNIT_RULE, "H")
            == free_walk_aggregate(9, UNIT_RULE, "V"))


def test_free_histogram_invariant_under_reflection():
    # theta <-> pi - theta swaps the arc classes: u1 <-> u2 and w1 <-> w2
    agg = free_walk_aggregate(9, UNIT_RULE, "H")
    swapped = {(n, (p[1], p[0], p[2], p[4], p[3])): c
               for (n, p), c in agg.items()}
    assert swapped == agg


def _mirrored_and_full(orient, n_max, rule):
    # the halved search as _both_signs decodes it, and the full search over
    # both signs decoded here; with the walks each visits with sign +1
    from skewsaw.walks import _both_signs, _free_counts

    half: dict = {}
    _free_counts(n_max, rule, orient, half)
    visited = sum(half.values())
    n_full = run_walk_enumeration(MidEdge(0, 0, orient), n_max, rule,
                                  signs=(1,)).walks
    return (_both_signs(half, rule, n_max), visited,
            _subtree_hist(orient, n_max, rule, (-1, 1)), n_full)


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 9, 11])
@pytest.mark.parametrize("orient", ["H", "V"])
def test_mirrored_free_search_equals_the_full_search(orient, n_max):
    half, visited, full, n_full = _mirrored_and_full(orient, n_max, UNIT_RULE)
    assert half == full
    # the n + 1 walks of straights once, half of the others
    axis = n_max + 1
    assert visited == (n_full - axis) // 2 + axis
    assert (n_full - axis) % 2 == 0


@pytest.mark.parametrize("rule", [LengthRule(1, 1, 2), LengthRule(2, 2, 1)],
                         ids=["1-1-2", "2-2-1"])
def test_mirrored_free_search_holds_for_every_mirror_symmetric_rule(rule):
    # a straight of another length moves the last axis point; the last
    # one may still have room for an arc
    for orient in "HV":
        for n_max in range(10):
            half, visited, full, n_full = _mirrored_and_full(orient, n_max, rule)
            assert half == full
            axis = n_max // rule.len_straight + 1
            assert visited == (n_full - axis) // 2 + axis


@pytest.mark.parametrize("orient", ["H", "V"])
def test_mirror_fold_is_wrong_when_the_arcs_differ_in_length(orient, monkeypatch):
    # with arcs of two lengths the mirror maps walks onto walks of another
    # length, so the fold is guarded off and the jobs of both arcs run
    assert not HONEYCOMB_RULE.mirror_symmetric
    monkeypatch.setattr(LengthRule, "mirror_symmetric", property(lambda _: True))
    for n_max in (4, 12):
        half, _, full, _ = _mirrored_and_full(orient, n_max, HONEYCOMB_RULE)
        assert half != full


@pytest.mark.parametrize("rule,n_max,jobs", [
    (UNIT_RULE, 9, 22), (HONEYCOMB_RULE, 4, 8), (HONEYCOMB_RULE, 0, 2),
], ids=["unit-9", "honeycomb-4", "honeycomb-0"])
def test_pool_is_capped_at_its_job_count(monkeypatch, rule, n_max, jobs):
    # a huge worker count forks one child per job but the parent's; the
    # counter refuses any fork past that, so a broken cap starts no more
    forks = []
    fork = os.fork

    def counted():
        if len(forks) == jobs - 1:
            raise AssertionError("forked a child per job and one more")
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    par = free_walk_aggregate_parallel(n_max, rule, "V", workers=3000)
    assert len(forks) == jobs - 1
    assert list(par.items()) == list(free_walk_aggregate(n_max, rule, "V").items())
    assert not has_child()


# every (T, L) of at most 12 rhombi, and 4x2
MIRROR_SHAPES = [(T, L) for T in range(1, 13) for L in range(6)
                 if (2 * L + 1) * T <= 12] + [(4, 2)]


def _full_domain_counts(domain):
    counts: dict = {}
    cap = 2 * domain.n_rhombi + 2
    stats = run_walk_enumeration(domain.origin, cap, UNIT_RULE, domain,
                                 signs=(domain.origin_sign,), step_cap=cap,
                                 counts=counts)
    return counts, stats.walks


@pytest.mark.parametrize("T,L", MIRROR_SHAPES)
def test_mirrored_domain_search_equals_the_full_search(T, L):
    from skewsaw.observable import _domain_packed, domain_walk_aggregate
    from skewsaw.walks import _C3_FIELD, _PROFILE_MASK, domain_counts

    domain = ParallelogramDomain(T, L, math.pi / 2)
    full, n_full = _full_domain_counts(domain)
    counts: dict = {}
    domain_counts(domain, counts)
    visited = sum(counts.values())
    assert sorted(counts.items()) == list(zip(*_domain_packed(T, L)))
    # the half, with the mirror folded in, sums to the full search key for
    # key, keys in the same order
    want, got = _decoded(full), domain_walk_aggregate(T, L)
    assert got == want
    assert list(got) == list(want)
    # the half holds the T + 1 straights, the only keys without an arc
    assert sum(not k & _PROFILE_MASK & ~_C3_FIELD for k in counts) == T + 1
    # the T + 1 axis walks once, half of the others
    assert visited == (n_full - (T + 1)) // 2 + (T + 1)
    assert (n_full - (T + 1)) % 2 == 0


@pytest.mark.parametrize("T,L", [(1, 0), (2, 1), (3, 1), (1, 3), (4, 2)])
def test_packed_mirror_pairs_the_first_step_subtrees(T, L):
    from skewsaw.walks import (_HV, _PROFILE_BITS, _PROFILE_MASK, _axis_walks,
                               _dead_ends, _mirror_above, _mirror_profile,
                               _pack_domain_key, _pack_mid, _step_rows)

    def mirror(key):
        return (_mirror_above(key >> _PROFILE_BITS) << _PROFILE_BITS
                | _mirror_profile(key & _PROFILE_MASK))

    domain = ParallelogramDomain(T, L, math.pi / 2)
    cm = _pack_mid(0, 0, _HV["V"])
    empty = _pack_domain_key(cm, 0, 0, 0)
    rows = _step_rows(UNIT_RULE.as_tuple(), True)
    # the first steps: the k = 0 axis jobs of both arcs, then the straight
    subtrees = []
    for arc in range(2):
        counts: dict = {}
        _axis_walks(2 * domain.n_rhombi, UNIT_RULE.as_tuple(), rows,
                    (_HV["V"], domain.origin_sign), cm, empty,
                    [(0, arc, None)], counts, _dead_ends(domain, domain.origin))
        subtrees.append(Counter(counts))
    straight = Counter(_full_domain_counts(domain)[0])
    for sub in subtrees:
        straight.subtract(sub)
    straight[empty] -= 1  # the empty walk takes no first step
    assert min(straight.values()) >= 0
    subtrees.append(+straight)
    for sub in subtrees:
        assert all(mirror(mirror(k)) == k for k in sub)

    def mirrored(sub):
        return Counter({mirror(k): n for k, n in sub.items()})

    assert mirrored(subtrees[0]) == subtrees[1]
    assert mirrored(subtrees[2]) == subtrees[2]
    assert subtrees[0] != subtrees[1]


# ---------------------------------------------------------------------------
# The re-weights against a fold over the histogram's keys: every histogram
# is weighed by ``walks._weigh`` from its interned form.  A free aggregate
# and a loop patch are ``walks.Histogram``s, built with the form ``_group``
# makes; the packed domain half is grouped by ``_group_packed``.

def _fold(hist, w):
    """{key[:-1]: sum of n * weight(key[-1])}, added key by key from 0.0,
    each profile weighed from the same power tables as ``_weigh``'s."""
    from itertools import accumulate, repeat
    from operator import mul

    from skewsaw.walks import profile_weight

    size = max((max(key[-1]) for key in hist), default=0)
    tables = [list(accumulate(repeat(x, size), mul, initial=1.0))
              for x in w.as_tuple()]
    out: dict = {}
    for key, n in hist.items():
        out[key[:-1]] = out.get(key[:-1], 0.0) + n * profile_weight(key[-1], tables)
    return out


def _side_marginal_hist(T, L):
    """The (side, profile) histogram that ``_side_marginal`` groups, built
    from the domain histogram in its order."""
    from skewsaw.observable import domain_walk_aggregate

    domain = ParallelogramDomain(T, L, math.pi / 2)
    out: dict = {}
    for ((i, j, hv), _, _, profile), n in domain_walk_aggregate(T, L).items():
        end = MidEdge(i, j, "HV"[hv])
        side = domain.side_of(end)
        if end != domain.origin and side != "interior":
            out[(side, profile)] = out.get((side, profile), 0) + n
    return out


def _weight_sets():
    from skewsaw.weights import on_weights, sigma_weights

    w = critical_weights(1.2)
    return [w, w.at_fugacity(0.8 * w.x_c), sigma_weights(math.pi / 3, 3 / 8),
            on_weights(2 * math.pi / 3, 0.5)[0]]


def _free_case(n_max, rule, orient):
    def check():
        from skewsaw.walks import weighted_length_sums

        hist = free_walk_aggregate(n_max, rule, orient)
        # the walks of straights alone, one per sign, reach the budget
        k = n_max // rule.len_straight
        assert hist[(k * rule.len_straight, (0, 0, k, 0, 0))] == 2
        for w in _weight_sets():
            ref = _fold(hist, w)
            # length by length, bit for bit, not within a tolerance
            sums = weighted_length_sums(hist, w)
            assert len(sums) == hist.n_max + 1
            assert sums == [ref.get((rlen,), 0.0) for rlen in range(n_max + 1)]
    return check


def _patch_case():
    import cmath

    from skewsaw.loops import _patch_aggregate, on_observable
    from skewsaw.weights import on_weights

    for theta in (math.pi / 3, 1.2, 2 * math.pi / 3):
        counts, _ = _patch_aggregate(theta, 2, 3, 0)
        hist = {(z, wind, nloops, profile): n
                for (z, wind, profile, nloops), n in counts.items()}
        for s in (-3 / 8, 1 / 2, 3 / 4):
            w, n = on_weights(theta, s)
            ref: dict = {}
            for (z, (k1, k2), nloops), amp in _fold(hist, w).items():
                phase = cmath.exp(-1j * (s + 1.0)
                                  * (k1 * theta + k2 * (math.pi - theta)))
                ref[z] = ref.get(z, 0j) + amp * float(n) ** nloops * phase
            values = on_observable(theta, s, 2, 3, 0)
            assert values == ref  # bit for bit, not within a tolerance
            assert list(values) == list(ref)


GROUPED_CASES = {
    "free-unit-H-9": _free_case(9, UNIT_RULE, "H"),
    "free-honeycomb-V-12": _free_case(12, HONEYCOMB_RULE, "V"),
    "patch-2x3": _patch_case,
}


@pytest.mark.parametrize("case", GROUPED_CASES)
def test_grouped_reweight_equals_the_per_key_fold(case):
    GROUPED_CASES[case]()


def test_free_reweight_sees_a_changed_count():
    from skewsaw.walks import Histogram, _group, weighted_length_sums

    w = critical_weights(1.2)
    sums = weighted_length_sums(free_walk_aggregate(9), w)
    changed = dict(free_walk_aggregate(9))
    key = list(changed)[len(changed) // 2]
    changed[key] += 1
    other = weighted_length_sums(
        Histogram(changed, _group(changed.items()), 9), w)
    rlen = key[0]
    assert other[rlen] != sums[rlen]
    del other[rlen], sums[rlen]
    assert other == sums


@pytest.mark.parametrize("rule", [UNIT_RULE, HONEYCOMB_RULE,
                                  LengthRule(2, 2, 3)])
def test_free_reweight_reads_a_longer_histogram_to_a_shorter_budget(rule):
    # the walks of length <= 9 are the same in both histograms, each
    # length's profiles in the same order, so the sums agree bit for bit
    from skewsaw.walks import weighted_length_sums

    agg12, agg9 = free_walk_aggregate(12, rule), free_walk_aggregate(9, rule)
    for w in _weight_sets()[:2]:
        assert (weighted_length_sums(agg12, w)[:10]
                == weighted_length_sums(agg9, w))


def test_free_reweight_reads_its_budget_off_the_histogram():
    # every passage of the (2, 2, 2) rule is two long, so no walk has
    # length 9, yet the sums run to the budget the search was given
    from skewsaw.walks import weighted_length_sums

    hist = free_walk_aggregate(9, LengthRule(2, 2, 2))
    assert hist.n_max == 9
    assert max(hist.grouped[1]) == 8
    sums = weighted_length_sums(hist, critical_weights(1.2))
    assert len(sums) == 10
    assert sums[9] == 0.0
    assert sums[8] > 0.0


def test_free_histogram_is_grouped_once_per_aggregate():
    grouped = free_walk_aggregate(9).grouped
    assert free_walk_aggregate(9).grouped is grouped
    # an aggregate cached anew is grouped anew, to the same form
    free_walk_aggregate.cache_clear()
    assert free_walk_aggregate(9).grouped is not grouped
    assert free_walk_aggregate(9).grouped == grouped


def test_patch_histogram_is_grouped_once_per_angle(monkeypatch):
    # the observable at three loop parameters weighs one grouped patch
    import skewsaw.loops as loops

    calls = []
    group = loops._group
    monkeypatch.setattr(loops, "_group",
                        lambda items: calls.append(None) or group(items))
    loops._patch_aggregate.cache_clear()
    for s in (-3 / 8, 1 / 2, 3 / 4):
        loops.on_observable(1.2, s, 2, 3, 0)
    assert len(calls) == 1


def test_patch_reweight_sees_a_changed_count(monkeypatch):
    import skewsaw.loops as loops
    from skewsaw.walks import Histogram, _group

    theta, s = 1.2, 1 / 2
    values = loops.on_observable(theta, s, 2, 3, 0)
    counts, origin = loops._patch_aggregate(theta, 2, 3, 0)
    changed = dict(counts)
    key = list(changed)[len(changed) // 2]
    changed[key] += 1
    grouped = _group((((z, wind, nloops), profile), n)
                     for (z, wind, profile, nloops), n in changed.items())
    monkeypatch.setattr(loops, "_patch_aggregate",
                        lambda *args: (Histogram(changed, grouped), origin))
    other = loops.on_observable(theta, s, 2, 3, 0)
    z = key[0]
    assert list(other) == list(values)
    assert other[z] != values[z]
    del other[z], values[z]
    assert other == values


def _ungroup(grouped):
    """The histogram {(*head, profile): n} of the interned form (profiles,
    {head: (indices, counts)}), in the order of its per-head lists."""
    profiles, heads = grouped
    return {(*head, profiles[i]): n
            for head, (indices, ns) in heads.items()
            for i, n in zip(indices, ns)}


BUDGET_20_SHAPES = [(T, L) for T in range(1, 21) for L in range(20)
                    if (2 * L + 1) * T <= 20]


def test_every_side_marginal_reweights_as_the_per_key_fold():
    # and so does every domain grouped form, the observable's too
    from skewsaw.observable import (_domain_groups, _side_marginal,
                                    domain_walk_aggregate)
    from skewsaw.walks import _weigh

    assert len(BUDGET_20_SHAPES) == 39
    for T, L in BUDGET_20_SHAPES + [(8, 1)]:
        for grouped, full in ((_side_marginal(T, L), _side_marginal_hist),
                              (_domain_groups(T, L), domain_walk_aggregate)):
            # the half with its mirror folded in lists each (head,
            # profile) of the full histogram once, with its count ...
            hist = _ungroup(grouped)
            entries = sum(len(ns) for _, ns in grouped[1].values())
            assert entries == len(hist), (T, L)
            assert hist == full(T, L), (T, L)
            # ... and interns each of its distinct profiles once
            profiles = grouped[0]
            assert len(set(profiles)) == len(profiles), (T, L)
            assert set(profiles) == {key[-1] for key in hist}, (T, L)
            # the T straights across a one-row domain pass every rhombus
            assert L or max(max(key[-1]) for key in hist) == T, T
            # ... and weighs as the fold over its entries, bit for bit
            for w in _weight_sets():
                sums = _weigh(grouped, w)
                ref = _fold(hist, w)
                assert sums == ref, (T, L)
                assert list(sums) == list(ref), (T, L)


def test_grouped_reweight_sees_a_changed_count():
    from skewsaw.observable import _domain_packed
    from skewsaw.walks import (_C3_FIELD, _PROFILE_BITS, _PROFILE_MASK,
                               _group_packed, _mirror_above, _unpack_head,
                               _weigh)

    keys, counts = _domain_packed(4, 2)
    grouped = _group_packed(keys, counts, lambda head: head)
    # the last key with an arc whose head is not its own mirror image
    at = next(k for k in reversed(range(len(keys)))
              if keys[k] & _PROFILE_MASK & ~_C3_FIELD
              and _mirror_above(keys[k] >> _PROFILE_BITS)
              != keys[k] >> _PROFILE_BITS)
    changed = list(counts)
    changed[at] += 1
    other = _group_packed(keys, changed, lambda head: head)
    above = keys[at] >> _PROFILE_BITS
    moved = {_unpack_head(above), _unpack_head(_mirror_above(above))}
    assert len(moved) == 2
    w = critical_weights(1.2)
    sums, resums = _weigh(grouped, w), _weigh(other, w)
    for head in moved:
        assert sum(other[1][head][1]) == sum(grouped[1][head][1]) + 1
        assert resums[head] != sums[head]
        del other[1][head], grouped[1][head], resums[head], sums[head]
    assert other == grouped
    assert resums == sums


# ---------------------------------------------------------------------------
# The search keeps no visited set: a step the occupancy rules admit can
# land on a mid-edge already on the walk only at the start.

def _admitted_returns(start, max_length, domain=None):
    """The admitted steps, over every walk of at most ``max_length`` steps
    from ``start`` found by the oracle, that land on a mid-edge the walk
    has already crossed or started from, as (walk, step) pairs."""
    from skewsaw.geometry import step_candidates
    from oracles import replay

    out = []
    for steps in naive_enumerate(start, max_length, domain=domain):
        on_walk = {start, *(s.dst for s in steps)}
        if steps:
            cands = step_candidates(steps[-1].dst, domain=domain,
                                    sign=steps[-1].exit_sign)
        else:
            cands = step_candidates(start, domain=domain)
        out += [(steps, c) for c in cands
                if c.dst in on_walk and replay(steps + [c]) is not None]
    return out


@pytest.mark.parametrize("orient", ["H", "V"])
def test_an_admitted_step_onto_the_walk_lands_on_the_start(orient):
    start = MidEdge(0, 0, orient)
    returns = _admitted_returns(start, 8)
    assert all(step.dst == start for _, step in returns)
    # the start is re-entered through its other rhombus, so the search
    # must refuse it by name
    assert returns
    assert all(step.rhombus != steps[0].rhombus for steps, step in returns)


def test_no_admitted_step_in_a_domain_lands_on_the_walk():
    # the rhombus behind a domain's origin is outside, so even the start
    # cannot be re-entered
    domain = ParallelogramDomain(3, 1, math.pi / 2)
    assert _admitted_returns(domain.origin, 8, domain) == []


_SIGN_SETS = {"both": (-1, 1), "plus": (1,), "minus": (-1,)}
_RULES = {"unit": UNIT_RULE, "honeycomb": HONEYCOMB_RULE}


@pytest.mark.parametrize("T,L,side,signs,rule", [
    # every walk from the origin, against the mirror-halved search too
    *(pytest.param(T, L, "origin", "both", "unit", id=f"{T}-{L}")
      for T, L in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (4, 1)]),
    # a start on each side and one inside: a first step must pass the
    # rhombus inside, and every other boundary mid-edge ends a walk
    *(pytest.param(T, L, side, signs, rule, id=f"{T}-{L}-{side}-{signs}-{rule}")
      for T, L in [(3, 1), (2, 2)]
      for side in ("alpha", "beta", "delta", "epsilon", "interior")
      for signs in _SIGN_SETS for rule in _RULES),
])
def test_oracle_equivalence_domain_histogram(T, L, side, signs, rule):
    from skewsaw.observable import domain_walk_aggregate

    domain = ParallelogramDomain(T, L, math.pi / 2)
    if side == "origin":
        start, budget = domain.origin, 2 * domain.n_rhombi
    else:  # the side's least mid-edge other than the origin
        start = min(m for m in domain.mid_edges()
                    if m != domain.origin and domain.side_of(m) == side)
        budget = 8
    signs, rule = _SIGN_SETS[signs], _RULES[rule]
    counts: dict = {}
    run_walk_enumeration(start, budget, rule, domain, signs=signs,
                         counts=counts)
    fast = _decoded(counts)
    slow: Counter = Counter()
    for steps in naive_enumerate(start, budget, rule.as_tuple(), domain):
        if steps and steps[0].entry_sign not in signs:
            continue
        end = steps[-1].dst if steps else start
        turns = [sum(s.turn_units[k] for s in steps) for k in (0, 1)]
        slow[((end.i, end.j, 0 if end.orient == "H" else 1), *turns,
              naive_profile(steps))] += 1
    assert Counter(fast) == slow
    if side == "origin":
        # the mirror-halved search, decoded with its mirror
        assert Counter(domain_walk_aggregate(T, L)) == slow


def test_pool_shutdown_cancels_pending_jobs_when_meanwhile_raises(monkeypatch):
    # every child is killed and reaped before the parent's exception
    # propagates
    forked, killed = [], []
    fork, kill = os.fork, os.kill

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def recording_kill(pid, sig):
        killed.append((pid, sig))
        kill(pid, sig)

    def fail():
        raise RuntimeError("parent work failed")

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "kill", recording_kill)
    with pytest.raises(RuntimeError, match="parent work failed"):
        free_walk_aggregate_parallel(12, HONEYCOMB_RULE, "V", workers=3,
                                     meanwhile=fail)
    assert len(forked) == 2
    assert killed == [(pid, signal.SIGKILL) for pid in forked]
    assert not has_child()
