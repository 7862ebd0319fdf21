import math
import multiprocessing
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    from skewsaw.walks import DEFAULT_STEP_CAP, _SLOT_MAX

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


def test_prefix_parallel_matches_sequential():
    # equal counts with keys in one sorted order, so float re-weights sum
    # in the same order on both paths; every rule runs the pool, the unit
    # rule its mirrored jobs
    for n_max, rule, orient in [(6, LengthRule(2, 1, 1), "H"),
                                (9, LengthRule(1, 2, 1), "V"),
                                (12, HONEYCOMB_RULE, "V"),
                                (9, UNIT_RULE, "V")]:
        seq = free_walk_aggregate(n_max, rule, orient)
        par = free_walk_aggregate_parallel(n_max, rule, orient, workers=2)
        assert list(par.items()) == list(seq.items())
        assert list(seq) == sorted(seq)


def test_parallel_aggregate_calls_meanwhile_in_the_parent():
    seen = []

    def meanwhile():
        seen.append((os.getpid(), len(multiprocessing.active_children())))

    seq = free_walk_aggregate(12, HONEYCOMB_RULE, "V")
    assert free_walk_aggregate_parallel(12, HONEYCOMB_RULE, "V", 1,
                                        meanwhile=meanwhile) == seq
    # two workers: the pool is up while the parent's work runs, joined after
    par = free_walk_aggregate_parallel(12, HONEYCOMB_RULE, "V", 2,
                                       meanwhile=meanwhile)
    assert list(par.items()) == list(seq.items())
    assert seen[0] == (os.getpid(), 0)
    assert seen[1][0] == os.getpid() and seen[1][1] >= 1
    assert len(seen) == 2
    assert multiprocessing.active_children() == []


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
    visited = _free_counts(n_max, rule, orient, half).walks
    n_full = run_walk_enumeration(MidEdge(0, 0, orient), n_max, rule,
                                  signs=(1,)).walks
    return (_both_signs(half, rule), visited,
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
    (UNIT_RULE, 9, 10), (HONEYCOMB_RULE, 4, 6), (HONEYCOMB_RULE, 0, 2),
], ids=["unit-9", "honeycomb-4", "honeycomb-0"])
def test_pool_is_capped_at_its_job_count(monkeypatch, rule, n_max, jobs):
    # the fork start method starts every worker at the first submit, so a
    # huge worker count would start that many processes for a few jobs
    import concurrent.futures

    sizes = []

    class InProcess:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    par = free_walk_aggregate_parallel(n_max, rule, "V", workers=3000)
    assert sizes == [jobs]
    assert list(par.items()) == list(free_walk_aggregate(n_max, rule, "V").items())


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
    visited = domain_counts(domain, counts).walks
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
    from skewsaw.walks import (_BLOCKED, _HV, _PROFILE_BITS, _PROFILE_MASK,
                               _axis_walks, _dead_ends, _mirror_above,
                               _mirror_profile, _pack_domain_key, _pack_mid,
                               _ring, _step_rows)

    def mirror(key):
        return (_mirror_above(key >> _PROFILE_BITS) << _PROFILE_BITS
                | _mirror_profile(key & _PROFILE_MASK))

    domain = ParallelogramDomain(T, L, math.pi / 2)
    cm = _pack_mid(0, 0, _HV["V"])
    empty = _pack_domain_key(cm, 0, 0, 0)
    row = _step_rows(UNIT_RULE.as_tuple(), True)[(_HV["V"], domain.origin_sign)]
    # the first steps: the k = 0 axis jobs of both arcs, then the straight
    subtrees = []
    for arc in range(2):
        counts: dict = {}
        _axis_walks(2 * domain.n_rhombi, UNIT_RULE.as_tuple(), row, cm, empty,
                    dict.fromkeys(_ring(domain), _BLOCKED), [(0, arc)], counts,
                    _dead_ends(domain, cm))
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
# The grouped re-weight: _weigh(_group(h), w) against a fold over h's keys.

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


def _patch_hist():
    from skewsaw.loops import _patch_aggregate

    counts, _ = _patch_aggregate(1.2, 2, 3, 0)
    return {(z, wind, nloops, profile): n
            for (z, wind, profile, nloops), n in counts.items()}


def _domain_4x2():
    from skewsaw.observable import domain_walk_aggregate

    return domain_walk_aggregate(4, 2)


GROUPED_CASES = {
    "free-unit-H-9": lambda: free_walk_aggregate(9, UNIT_RULE, "H"),
    "free-honeycomb-V-12": lambda: free_walk_aggregate(12, HONEYCOMB_RULE, "V"),
    "domain-4x2": _domain_4x2,
    "patch-2x3": _patch_hist,
}


def _weight_sets():
    from skewsaw.weights import on_weights, sigma_weights

    w = critical_weights(1.2)
    return [w, w.at_fugacity(0.8 * w.x_c), sigma_weights(math.pi / 3, 3 / 8),
            on_weights(2 * math.pi / 3, 0.5)[0]]


@pytest.mark.parametrize("case", GROUPED_CASES)
def test_grouped_reweight_equals_the_per_key_fold(case):
    from skewsaw.walks import _group, _weigh

    hist = GROUPED_CASES[case]()
    grouped = _group(hist)
    for w in _weight_sets():
        sums = _weigh(grouped, w)
        ref = _fold(hist, w)
        assert sums == ref  # bit for bit, not within a tolerance
        assert list(sums) == list(ref)


def _ungroup(grouped):
    """The histogram {(*head, profile): n} of a grouped form, in its order."""
    profiles = list(zip(*grouped.columns))
    return {(*head, profiles[k]): n
            for head, (idx, ns) in grouped.heads.items()
            for k, n in zip(idx, ns)}


def test_every_side_marginal_reweights_as_the_per_key_fold():
    # and so does every domain grouped form, the observable's too
    from skewsaw.observable import (_domain_groups, _side_marginal,
                                    domain_walk_aggregate)
    from skewsaw.walks import _weigh

    shapes = [(T, L) for T in range(1, 21) for L in range(20)
              if (2 * L + 1) * T <= 20]
    assert len(shapes) == 39
    for T, L in shapes + [(8, 1)]:
        for grouped, full in ((_side_marginal(T, L), _side_marginal_hist),
                              (_domain_groups(T, L), domain_walk_aggregate)):
            # the half with its mirror folded in lists each (head,
            # profile) of the full histogram once, with its count ...
            hist = _ungroup(grouped)
            entries = sum(len(idx) for idx, _ in grouped.heads.values())
            assert entries == len(hist), (T, L)
            assert hist == full(T, L), (T, L)
            # ... and weighs as the fold over its entries, bit for bit
            for w in _weight_sets():
                sums = _weigh(grouped, w)
                ref = _fold(hist, w)
                assert sums == ref, (T, L)
                assert list(sums) == list(ref), (T, L)


def test_group_keeps_first_met_heads_and_distinct_profiles():
    from skewsaw.walks import _group

    p, q = (1, 0, 0, 0, 0), (0, 2, 0, 1, 0)
    hist = {("b", p): 3, ("a", q): 5, ("b", q): 7, ("a", p): 11}
    # the profiles p, q as five columns, and their largest count
    assert _group(hist) == (((1, 0), (0, 2), (0, 0), (0, 1), (0, 0)), 2,
                            {("b",): ([0, 1], [3, 7]),
                             ("a",): ([1, 0], [5, 11])})


def test_grouped_reweight_sees_a_changed_count():
    from skewsaw.walks import _group, _weigh

    hist = _domain_4x2()
    w = critical_weights(1.2)
    sums = _weigh(_group(hist), w)
    key = next(k for k in reversed(hist) if k[-1] != (0, 0, 0, 0, 0))
    changed = dict(hist)
    changed[key] += 1
    other = _weigh(_group(changed), w)
    assert other[key[:-1]] != sums[key[:-1]]
    del other[key[:-1]], sums[key[:-1]]
    assert other == sums


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


@pytest.mark.parametrize("T,L", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (4, 1)])
def test_oracle_equivalence_domain_histogram(T, L):
    from skewsaw.observable import domain_walk_aggregate

    domain = ParallelogramDomain(T, L, math.pi / 2)
    budget = 2 * domain.n_rhombi
    counts: dict = {}
    run_walk_enumeration(domain.origin, budget, UNIT_RULE, domain,
                         counts=counts)
    fast = _decoded(counts)
    slow: Counter = Counter()
    for steps in naive_enumerate(domain.origin, budget, domain=domain):
        end = steps[-1].dst if steps else domain.origin
        turns = [sum(s.turn_units[k] for s in steps) for k in (0, 1)]
        slow[((end.i, end.j, 0 if end.orient == "H" else 1), *turns,
              naive_profile(steps))] += 1
    assert Counter(fast) == slow
    # the mirror-halved search, decoded with its mirror
    assert Counter(domain_walk_aggregate(T, L)) == slow


def test_pool_shutdown_cancels_pending_jobs_when_meanwhile_raises(monkeypatch):
    import concurrent.futures

    calls = []

    class Recording:
        def __init__(self, max_workers):
            calls.append(("start", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            calls.append("exit")
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            calls.append(("shutdown", wait, cancel_futures))

    def fail():
        raise RuntimeError("parent work failed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    with pytest.raises(RuntimeError, match="parent work failed"):
        free_walk_aggregate_parallel(6, HONEYCOMB_RULE, "V", workers=2,
                                     meanwhile=fail)
    assert calls == [("start", 2), ("shutdown", True, True), "exit"]
