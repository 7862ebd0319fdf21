import cmath
import functools
import math
import sys

import pytest

from skewsaw.geometry import MidEdge, ParallelogramDomain, Rhombus
from skewsaw.observable import (
    alpha_winding_split,
    bridge_chain_check,
    cr_residual,
    domain_contour_integral,
    max_cr_residual,
    observable,
    side_coefficients,
    strip_limits,
    strip_sums,
)
from skewsaw.walks import enumerate_walks, weight_of
from skewsaw.weights import (
    WeightSet,
    critical_weights,
    sigma_one_family,
    sigma_weights,
)

THETAS5 = [math.pi / 3, 5 * math.pi / 12, math.pi / 2, 7 * math.pi / 12,
           2 * math.pi / 3]


def test_single_rhombus_observable_by_hand():
    # only four walks exist: empty, two arcs, one straight
    th = 0.48 * math.pi
    sigma = 5 / 8
    d = ParallelogramDomain(1, 0, th)
    w = critical_weights(th)
    tab = observable(d, sigma)
    assert tab.value(MidEdge(0, 0, "V")) == 1.0  # empty walk only
    # down-arc winds by -theta, up-arc by +(pi - theta), straight by 0
    assert tab.value(MidEdge(0, 0, "H")) == pytest.approx(
        w.u1 * cmath.exp(1j * sigma * th))
    assert tab.value(MidEdge(0, 1, "H")) == pytest.approx(
        w.u2 * cmath.exp(-1j * sigma * (math.pi - th)))
    assert tab.value(MidEdge(1, 0, "V")) == pytest.approx(w.v + 0j)


def test_observable_origin_value_is_one():
    # no walk can revisit its own starting mid-edge
    for T, L in [(1, 0), (2, 1), (3, 1)]:
        d = ParallelogramDomain(T, L, math.pi / 2)
        tab = observable(d, 5 / 8)
        val = tab.value(d.origin)
        assert val.imag == pytest.approx(0.0)
        assert val.real == pytest.approx(1.0)
        assert val.real >= 1.0 - 1e-15


@pytest.mark.parametrize("theta", THETAS5)
def test_cr_residual_critical_family(theta):
    for T, L in [(2, 1), (3, 1)]:
        tab = observable(ParallelogramDomain(T, L, theta), 5 / 8)
        assert max_cr_residual(tab) < 1e-10


@pytest.mark.parametrize("theta", THETAS5)
def test_cr_residual_sigma_one_family(theta):
    for u1 in (0.3, 0.7):
        tab = observable(ParallelogramDomain(2, 1, theta), 1.0,
                         sigma_one_family(u1))
        assert max_cr_residual(tab) < 1e-10


@pytest.mark.parametrize("theta", THETAS5)
def test_cr_residual_on_family(theta):
    # the loop-model family at n = 0 is the critical family; its declared
    # spin is s + 1 = 5/8
    from skewsaw.weights import on_weights

    w, n = on_weights(theta, -3 / 8)
    assert abs(n) < 1e-12
    tab = observable(ParallelogramDomain(2, 1, theta), 5 / 8, w)
    assert max_cr_residual(tab) < 1e-10


def test_cr_residual_other_sigma_branch_relative():
    # sigma = 3/8 weights are large (entries ~20), so compare residual
    # against the scale of the observable values it combines
    th = math.pi / 2
    w = sigma_weights(th, 3 / 8)
    tab = observable(ParallelogramDomain(2, 1, th), 3 / 8, w)
    scale = max(abs(v) for v in tab.values.values())
    assert max_cr_residual(tab) < 1e-12 * scale


def test_cr_residual_detects_perturbation():
    th = math.pi / 2
    w = critical_weights(th)
    wp = WeightSet(w.u1 + 0.01, w.u2, w.v, w.w1, w.w2)
    tab = observable(ParallelogramDomain(2, 1, th), 5 / 8, wp)
    assert max_cr_residual(tab) > 1e-5


def test_cr_residual_sharp_in_the_spin():
    # the winding phase must be tuned to the family: a detuned spin
    # breaks the relation, so the vanishing is not a degeneracy
    th = 5 * math.pi / 12
    tab = observable(ParallelogramDomain(2, 1, th), 5 / 8 + 0.01)
    assert max_cr_residual(tab) > 1e-5


def test_cr_requires_contained_rhombus():
    tab = observable(ParallelogramDomain(2, 1, math.pi / 2), 5 / 8)
    with pytest.raises(ValueError):
        cr_residual(tab, Rhombus(5, 5))


@pytest.mark.parametrize("theta", THETAS5)
def test_contour_integral_vanishes(theta):
    tab = observable(ParallelogramDomain(3, 1, theta), 5 / 8)
    assert abs(domain_contour_integral(tab)) < 1e-10


def test_side_coefficients_positive():
    for theta in THETAS5:
        ca, cd, ce = side_coefficients(theta)
        assert ca > 0 and cd > 0 and ce > 0
    assert side_coefficients(math.pi / 2)[0] == pytest.approx(
        math.cos(3 * math.pi / 8))


def test_single_column_sums_by_hand():
    # T=1, L=0: A has no walks, B the straight, D the down arc, E the up arc
    for th in THETAS5:
        w = critical_weights(th)
        s = strip_sums(1, 0, w.x_c, th)
        assert s.A == 0.0
        assert s.B == pytest.approx(w.v)
        assert s.D == pytest.approx(w.u1)
        assert s.E == pytest.approx(w.u2)
        ca, cd, ce = side_coefficients(th)
        assert ca * s.A + s.B + cd * s.D + ce * s.E == pytest.approx(1.0)


def test_zero_fugacity_degenerates():
    s = strip_sums(2, 1, 0.0, math.pi / 2)
    assert (s.A, s.B, s.D, s.E) == (0.0, 0.0, 0.0, 0.0)
    # the identity is specific to x_c
    assert s.residual == 1.0


@pytest.mark.parametrize("theta", THETAS5)
def test_parallelogram_identity_budget_12(theta):
    xc = critical_weights(theta).x_c
    for T in range(1, 13):
        for L in range(0, 6):
            if (2 * L + 1) * T > 12:
                continue
            assert strip_sums(T, L, xc, theta).residual < 1e-10


def test_identity_fails_off_criticality():
    xc = critical_weights(math.pi / 2).x_c
    r = strip_sums(2, 1, 0.9 * xc, math.pi / 2).residual
    assert r > 1e-3


def test_sums_nonnegative_and_bounded():
    for th in (math.pi / 3, math.pi / 2):
        xc = critical_weights(th).x_c
        for T, L in [(1, 3), (2, 2), (3, 1)]:
            s = strip_sums(T, L, xc, th)
            for val in (s.A, s.B, s.D, s.E):
                assert val >= 0.0
            assert s.A <= 1.0 and s.B <= 1.0


def test_strip_limits_tail_control():
    th = math.pi / 2
    xc = critical_weights(th).x_c
    rep = strip_limits(1, xc, th, 6)
    # E + D decays monotonically toward zero
    for a, b in zip(rep.ED, rep.ED[1:]):
        assert b < a
    assert rep.ED[-1] < 0.01
    # A_{L+1} - A_L >= c_T (E_L + D_L) at every L
    assert all(m >= -1e-12 for m in rep.growth_margins)
    # A and B are non-decreasing in L
    assert all(b >= a - 1e-15 for a, b in zip(rep.A, rep.A[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(rep.B, rep.B[1:]))


def test_strip_relation_approached_in_the_limit():
    # c_alpha A_T + B_T -> 1 with the defect bounded by c_d D + c_e E
    th = math.pi / 2
    xc = critical_weights(th).x_c
    ca, cd, ce = side_coefficients(th)
    for T, L in [(1, 7), (2, 5)]:
        s = strip_sums(T, L, xc, th)
        defect = abs(ca * s.A + s.B - 1.0)
        assert defect <= cd * s.D + ce * s.E + 1e-12
    sA = strip_sums(1, 7, xc, th)
    assert abs(ca * sA.A + sA.B - 1.0) < 0.01


def test_real_part_diagnostic_vanishes_at_criticality():
    from skewsaw.observable import alpha_winding_split, real_part_diagnostic

    for th in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        assert abs(real_part_diagnostic(2, 1, th)) < 1e-12
    # the winding split is asymmetric off the symmetric angle and swaps
    # under theta <-> pi - theta
    xc3 = critical_weights(math.pi / 3).x_c
    xc6 = critical_weights(2 * math.pi / 3).x_c
    p3, m3 = alpha_winding_split(2, 1, xc3, math.pi / 3)
    p6, m6 = alpha_winding_split(2, 1, xc6, 2 * math.pi / 3)
    assert p3 != pytest.approx(m3)
    assert p3 == pytest.approx(m6) and m3 == pytest.approx(p6)


def test_bridge_chain_inequalities():
    rep = bridge_chain_check(math.pi / 2, 3, 3)
    assert all(m > 0 for m in rep.floor_margins)
    assert all(m > 0 for m in rep.recursion_margins)
    assert all(m > 0 for m in rep.subcritical_margins)
    # bridges shrink with strip width
    assert rep.B[0] > rep.B[1] > rep.B[2]


@functools.lru_cache(maxsize=None)
def _domain_walks(T, L):
    domain = ParallelogramDomain(T, L, math.pi / 2)
    cap = 2 * domain.n_rhombi + 2
    walks = []
    enumerate_walks(domain.origin, cap, domain=domain, step_cap=cap,
                    visitor=walks.append)
    return walks


@pytest.mark.parametrize("x_ratio", [1.0, 0.8])
@pytest.mark.parametrize("theta", [math.pi / 3, 1.2, 2 * math.pi / 3])
@pytest.mark.parametrize("T,L", [(2, 1), (1, 2), (3, 1), (2, 2)])
def test_domain_reweights_match_per_walk_sums(T, L, theta, x_ratio):
    domain = ParallelogramDomain(T, L, theta)
    xc = critical_weights(theta).x_c
    x = x_ratio * xc
    w = critical_weights(theta).at_fugacity(x)
    sigma = 5 / 8
    sides = {"alpha": 0.0, "beta": 0.0, "delta": 0.0, "epsilon": 0.0}
    split = {(1, 1): 0.0, (-1, -1): 0.0}
    F = dict.fromkeys(domain.mid_edges(), 0j)
    for walk in _domain_walks(T, L):
        weight = weight_of(walk, w)
        F[walk.end] += weight * cmath.exp(-1j * sigma * walk.winding(theta))
        side = domain.side_of(walk.end)
        if side == "alpha" and not walk.steps:
            continue  # the empty walk counts in F only
        if side in sides:
            sides[side] += weight
        if side == "alpha":
            split[walk.turn_units()] += weight

    s = strip_sums(T, L, x, theta)
    assert (s.A, s.B, s.D, s.E) == pytest.approx(
        (sides["alpha"], sides["beta"], sides["delta"], sides["epsilon"]),
        rel=1e-12)
    assert alpha_winding_split(T, L, x, theta) == pytest.approx(
        (split[(1, 1)], split[(-1, -1)]), rel=1e-12)
    table = observable(domain, sigma, w)
    assert table.values.keys() <= F.keys()
    for m, value in F.items():
        assert table.value(m) == pytest.approx(value, rel=1e-12), m


@pytest.mark.parametrize("x_ratio", [1.0, 0.8])
@pytest.mark.parametrize("theta", [math.pi / 3, 1.2, 2 * math.pi / 3])
def test_side_marginal_strip_sums_match_the_full_histogram(theta, x_ratio):
    from skewsaw.observable import domain_walk_aggregate

    x = x_ratio * critical_weights(theta).x_c
    w = critical_weights(theta).at_fugacity(x)
    for T, L in [(1, 0), (2, 1), (1, 3), (3, 1), (2, 2), (12, 0), (4, 2)]:
        domain = ParallelogramDomain(T, L, theta)
        sides = {"alpha": 0.0, "beta": 0.0, "delta": 0.0, "epsilon": 0.0}
        for ((i, j, hv), _, _, profile), n in domain_walk_aggregate(T, L).items():
            end = MidEdge(i, j, "HV"[hv])
            side = domain.side_of(end)
            if end != domain.origin and side in sides:
                sides[side] += n * math.prod(
                    x ** c for x, c in zip(w.as_tuple(), profile))
        s = strip_sums(T, L, x, theta)
        assert (s.A, s.B, s.D, s.E) == pytest.approx(
            (sides["alpha"], sides["beta"], sides["delta"], sides["epsilon"]),
            rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# One packed histogram per shape: every domain path reads it, none changes it.

def _clear_domain_caches():
    # the package exports the function observable, which hides the module
    obs = sys.modules["skewsaw.observable"]
    for cached in (obs._domain_packed, obs.domain_walk_aggregate,
                   obs._domain_groups, obs._side_marginal):
        cached.cache_clear()


def _domain_readings(T, L, order):
    theta = 1.2
    out = {}
    for name in order:
        if name == "hist":
            from skewsaw.observable import domain_walk_aggregate

            hist = domain_walk_aggregate(T, L)
            out[name] = (dict(hist), list(hist))
        elif name == "sums":
            out[name] = strip_sums(T, L, critical_weights(theta).x_c, theta)
        else:
            out[name] = observable(ParallelogramDomain(T, L, theta), 5 / 8).values
    return out


@pytest.mark.parametrize("T,L", [(2, 2), (4, 1)])
def test_tuple_histogram_leaves_the_packed_cache_unchanged(T, L):
    from skewsaw.observable import _domain_packed

    _clear_domain_caches()
    first = _domain_readings(T, L, ("hist", "sums", "observable"))
    packed = _domain_packed(T, L)
    _clear_domain_caches()
    second = _domain_readings(T, L, ("sums", "observable", "hist"))
    assert _domain_packed(T, L) == packed
    assert first == second  # sums, values and tuple keys, bit for bit
    assert first["sums"].A > 0 and sum(first["hist"][0].values()) > 1


def test_identities_build_no_tuple_histogram(monkeypatch):
    obs = sys.modules["skewsaw.observable"]

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple-keyed domain histogram was built")

    _clear_domain_caches()
    monkeypatch.setattr(obs, "domain_walk_aggregate", refuse)
    theta = 1.2
    x = critical_weights(theta).x_c
    for T, L in [(2, 2), (4, 1)]:
        assert strip_sums(T, L, x, theta).residual < 1e-10
        table = observable(ParallelogramDomain(T, L, theta), 5 / 8)
        assert max_cr_residual(table) < 1e-10
        plus, minus = alpha_winding_split(T, L, x, theta)
        assert plus > 0 and minus > 0
        assert abs(obs.real_part_diagnostic(T, L, theta)) < 1e-10


def test_reweight_weighs_each_distinct_profile_once(monkeypatch):
    # on 4x2 the observable's 34,754 (head, profile) entries hold 6,621
    # distinct profiles, and the strip sums' side marginal 5,140
    walks = sys.modules["skewsaw.walks"]
    calls = []
    weigh = walks.profile_weight

    def counted(profile, tables):
        calls.append(profile)
        return weigh(profile, tables)

    monkeypatch.setattr(walks, "profile_weight", counted)
    theta = 1.2
    observable(ParallelogramDomain(4, 2, theta), 5 / 8)
    assert len(calls) == len(set(calls)) == 6621
    calls.clear()
    strip_sums(4, 2, critical_weights(theta).x_c, theta)
    assert len(calls) == len(set(calls)) == 5140


def test_tuple_histogram_reuses_the_search(monkeypatch):
    from skewsaw.observable import _domain_packed, domain_walk_aggregate

    obs = sys.modules["skewsaw.observable"]
    calls = []
    search = obs.domain_counts

    def counted(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(obs, "domain_counts", counted)
    _clear_domain_caches()
    theta = 1.2
    strip_sums(4, 1, critical_weights(theta).x_c, theta)
    assert len(calls) == 1
    hist = domain_walk_aggregate(4, 1)
    observable(ParallelogramDomain(4, 1, theta), 5 / 8)
    assert len(calls) == 1
    # the packed half: the T + 1 straights once, half of the other walks
    assert sum(hist.values()) == 2 * sum(_domain_packed(4, 1)[1]) - (4 + 1)
    # the perfbench gate reads all 39 shapes of budget 20 after the run
    assert _domain_packed.cache_info().maxsize >= 39


# ---------------------------------------------------------------------------
# The packed half: every reading of it equals the fold over the full
# histogram, whose mirror half it applies as it reads.

BUDGET_SHAPES = [(T, L) for T in range(1, 21) for L in range(20)
                 if (2 * L + 1) * T <= 20]


@functools.lru_cache(maxsize=None)
def _full_search(T, L):
    """(end, dtheta, dpmt, profile), n over every walk in the T x L domain,
    from the full search, with no mirror applied."""
    from skewsaw.walks import (_PROFILE_BITS, _unpack_head, _unpack_profile,
                               run_walk_enumeration)

    domain = ParallelogramDomain(T, L, math.pi / 2)
    cap = 2 * domain.n_rhombi  # each rhombus is passed at most twice
    counts: dict = {}
    run_walk_enumeration(domain.origin, cap, domain=domain,
                         signs=(domain.origin_sign,), step_cap=cap,
                         counts=counts)
    return tuple(((*_unpack_head(key >> _PROFILE_BITS), _unpack_profile(key)), n)
                 for key, n in sorted(counts.items()))


def _folded_readings(T, L, theta, x, sigma):
    """Strip sums, observable values, the alpha split and the real-part
    diagnostic, each folded key by key over the full search."""
    weights = critical_weights(theta).at_fugacity(x).as_tuple()
    domain = ParallelogramDomain(T, L, theta)
    pmt = math.pi - theta
    sides = {"alpha": 0.0, "beta": 0.0, "delta": 0.0, "epsilon": 0.0}
    split = {(1, 1): 0.0, (-1, -1): 0.0}
    values: dict = {}
    heads: dict = {}
    for (*head, profile), n in _full_search(T, L):
        head = tuple(head)
        heads[head] = heads.get(head, 0.0) + n * math.prod(
            map(pow, weights, profile))
    for ((i, j, hv), dth, dpm), weight in heads.items():
        end = MidEdge(i, j, "HV"[hv])
        phase = cmath.exp(-1j * sigma * (dth * theta + dpm * pmt))
        values[end] = values.get(end, 0j) + weight * phase
        side = domain.side_of(end)
        if end != domain.origin and side in sides:
            sides[side] += weight
            if side == "alpha":
                split[(dth, dpm)] += weight
    terms = (math.sin(3 * theta / 8) * sides["delta"],
             -math.cos((math.pi + 3 * theta) / 8) * sides["epsilon"],
             math.sin(5 * math.pi / 8) * split[(-1, -1)],
             -math.sin(5 * math.pi / 8) * split[(1, 1)])
    return sides, values, (split[(1, 1)], split[(-1, -1)]), terms


def _assert_readings_agree(T, L, theta, x, sigma=5 / 8):
    from skewsaw.observable import real_part_diagnostic

    sides, values, split, terms = _folded_readings(T, L, theta, x, sigma)
    s = strip_sums(T, L, x, theta)
    assert (s.A, s.B, s.D, s.E) == pytest.approx(
        (sides["alpha"], sides["beta"], sides["delta"], sides["epsilon"]),
        rel=1e-12, abs=0.0)
    assert alpha_winding_split(T, L, x, theta) == pytest.approx(
        split, rel=1e-12, abs=0.0)
    w = critical_weights(theta).at_fugacity(x)
    table = observable(ParallelogramDomain(T, L, theta), sigma, w)
    assert table.values.keys() == values.keys()
    for m, value in values.items():
        assert table.values[m] == pytest.approx(value, rel=1e-12, abs=0.0), m
    # the diagnostic cancels at x_c: compare it on the scale of its terms
    diag = real_part_diagnostic(T, L, theta, x)
    assert abs(diag - math.fsum(terms)) <= 1e-12 * sum(map(abs, terms))


@pytest.mark.parametrize("x_ratio", [1.0, 0.8])
@pytest.mark.parametrize("theta", [math.pi / 3, 1.2, 2 * math.pi / 3])
def test_packed_half_readings_equal_the_per_key_fold(theta, x_ratio):
    x = x_ratio * critical_weights(theta).x_c
    assert len(BUDGET_SHAPES) == 39
    for T, L in BUDGET_SHAPES + [(8, 1)]:
        _assert_readings_agree(T, L, theta, x)


@pytest.mark.parametrize("theta", [math.pi / 3, 1.2, math.pi / 2,
                                   2 * math.pi / 3])
def test_mirror_heads_need_the_swapped_weights(monkeypatch, theta):
    # the mirror image of a walk swaps its theta and (pi - theta) slots,
    # which carry equal weights only at pi/2: with the profiles left
    # unmirrored where the heads are folded, agreement holds there alone
    obs, walks = sys.modules["skewsaw.observable"], sys.modules["skewsaw.walks"]
    x = critical_weights(theta).x_c
    _assert_readings_agree(4, 2, theta, x)
    # both grouped forms apply the mirror, and the tuple histogram is read
    # off the observable's
    cached = (obs._domain_groups, obs._side_marginal, obs.domain_walk_aggregate)
    monkeypatch.setattr(walks, "_mirror_profile", lambda pk: pk)
    for grouped in cached:
        grouped.cache_clear()
    try:
        # the strip sums alone see it
        sides = _folded_readings(4, 2, theta, x, 5 / 8)[0]
        s = strip_sums(4, 2, x, theta)
        assert ((s.A, s.B, s.D, s.E) == pytest.approx(
            tuple(sides.values()), rel=1e-12, abs=0.0)) == (theta == math.pi / 2)
        if theta == math.pi / 2:
            _assert_readings_agree(4, 2, theta, x)
        else:
            with pytest.raises(AssertionError):
                _assert_readings_agree(4, 2, theta, x)
    finally:
        for grouped in cached:
            grouped.cache_clear()


def test_budget_shapes_store_the_half_of_their_keys():
    from skewsaw.observable import _domain_packed, domain_walk_aggregate

    packed = sum(len(_domain_packed(T, L)[0]) for T, L in BUDGET_SHAPES)
    full = sum(len(domain_walk_aggregate(T, L)) for T, L in BUDGET_SHAPES)
    assert (packed, full) == (34_873, 56_384)
