"""Parafermionic observable, discrete contour relations and strip sums.

The observable on a finite parallelogram collects, per target mid-edge,
the sum of walk weights twisted by a winding phase.  The weights are
tuned so that the combination

    F(bottom) + e^{i theta} F(right) - F(top) - e^{i theta} F(left)

vanishes on every rhombus; summing it over a domain telescopes to a
boundary identity relating the four side sums A (back to the left side,
empty walk excluded), B (across), D (down), E (up):

    c_alpha*A + B + c_delta*D + c_eps*E = 1   at the critical fugacity,

with c_alpha = cos(3 pi/8), c_delta = cos(3 theta/8) carried by the
bottom side and c_eps = cos(3 (pi-theta)/8) by the top.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import MidEdge, ParallelogramDomain, Rhombus, as_theta
from .walks import _HV_NAME, _group_packed, _weigh, domain_counts
# not used here: the benchmark's tracer test reads observable.profile_weight
# and observable.run_walk_enumeration
from .walks import profile_weight, run_walk_enumeration  # noqa: F401
from .weights import WeightSet, critical_weights


@dataclass(frozen=True)
class ObservableTable:
    """Observable values F_a(z) over the mid-edges of a domain."""

    domain: ParallelogramDomain
    values: dict  # MidEdge -> complex

    def value(self, m: MidEdge) -> complex:
        return self.values.get(m, 0.0 + 0.0j)


# Largest domain the exhaustive pass will attempt; beyond 24 rhombi the
# walk tree outgrows a desk-scale run (a cold 8x1, 559,489 walks of which
# the mirror-halved search counts 279,749 in 32,604 keys, takes 0.23-0.36 s,
# search and sorting into the packed half, on one core of a 2-vCPU Xeon
# VM under Python 3.11).
DOMAIN_RHOMBUS_BUDGET = 24


@lru_cache(maxsize=128)
def _domain_packed(T: int, L: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(keys, counts): the half of the walks in the T x L domain that
    ``domain_counts`` counts, the straights and one arc's axis jobs, under
    their packed int keys, keys sorted.

    Enumeration is purely combinatorial (independent of theta and of any
    weight family), so one search per shape serves every angle, spin and
    fugacity.  Every domain histogram below is read off this half, which
    applies the mirror for the rest, and tuples keep any reader from
    changing it.
    """
    if (2 * L + 1) * T > DOMAIN_RHOMBUS_BUDGET:
        raise ValueError(
            f"domain of {(2 * L + 1) * T} rhombi exceeds the enumeration "
            f"budget of {DOMAIN_RHOMBUS_BUDGET}"
        )
    counts: dict = {}
    domain_counts(ParallelogramDomain(T, L, math.pi / 2), counts)
    keys = sorted(counts)
    return tuple(keys), tuple(map(counts.__getitem__, keys))


@lru_cache(maxsize=128)
def _domain_groups(T: int, L: int) -> tuple[list, dict]:
    """The full histogram in the interned form (profiles, {head: (indices,
    counts)}) per head (end, dtheta, dpmt), read off the packed half with
    the mirror folded in: each head lists each of its profiles once, by
    its index in the shape's distinct profiles, heads in another order
    than the sorted histogram's."""
    return _group_packed(*_domain_packed(T, L), lambda head: head)


@lru_cache(maxsize=128)
def domain_walk_aggregate(T: int, L: int) -> dict:
    """counts[(end, dtheta, dpmt, profile)] over all in-domain walks,
    with keys in sorted order.

    Read entry by entry on demand off ``_domain_groups`` (no second
    search), the very form ``observable`` and ``alpha_winding_split``
    weigh, each index replaced by its profile, for the readers of tuple
    keys.  The empty walk appears as ((origin), 0, 0, zero-profile).
    """
    profiles, heads = _domain_groups(T, L)
    return dict(sorted(((*head, profiles[i]), n)
                       for head, (indices, ns) in heads.items()
                       for i, n in zip(indices, ns)))


def observable(domain: ParallelogramDomain, sigma: float,
               w: WeightSet | None = None) -> ObservableTable:
    """Exact finite sum F_a(z) for every mid-edge z of the domain."""
    theta = as_theta(domain.theta)
    if w is None:
        w = critical_weights(theta)
    agg = _weigh(_domain_groups(domain.T, domain.L), w)
    values: dict[MidEdge, complex] = {}
    pmt = math.pi - theta
    for ((i, j, hv), dth, dpm), weight in agg.items():
        phase = cmath.exp(-1j * sigma * (dth * theta + dpm * pmt))
        m = MidEdge(i, j, _HV_NAME[hv])
        values[m] = values.get(m, 0.0 + 0.0j) + weight * phase
    return ObservableTable(domain=domain, values=values)


def cr_residual(table: ObservableTable, r: Rhombus) -> complex:
    """Rhombus contour combination of the observable (zero when tuned).

    Equals the counter-clockwise contour integral of F around the
    rhombus: the bottom/top edges carry direction +-1 and the right/left
    edges +-e^{i theta}, so the integral is exactly
    F(bottom) - F(top) + e^{i theta} (F(right) - F(left)).
    """
    if not table.domain.contains_rhombus(r):
        raise ValueError(f"{r} is not inside the domain")
    return _rhombus_contour(table.values, r, table.domain.theta)


def _rhombus_contour(values: dict, r: Rhombus, theta: float) -> complex:
    """F(b) + e^{i theta} F(r) - F(t) - e^{i theta} F(l) around r, with F
    read from ``values`` (zero where absent)."""
    b, rt, t, lf = (values.get(m, 0j) for m in r.mid_edges())
    e = cmath.exp(1j * theta)
    return b + e * rt - t - e * lf


def max_cr_residual(table: ObservableTable) -> float:
    return max(abs(cr_residual(table, r)) for r in table.domain.rhombi())


def domain_contour_integral(table: ObservableTable) -> complex:
    """Contour integral of F along the domain boundary (diagnostic).

    Vanishes whenever every rhombus residual does.  Its rotation
    Im(e^{i(pi/2-theta)} * integral) = 0 is the boundary identity behind
    the parallelogram relation; the orthogonal real part is exposed here
    only as a diagnostic.
    """
    d = table.domain
    theta = d.theta
    e = cmath.exp(1j * theta)
    total = 0.0 + 0.0j
    for i in range(d.T):
        total += table.value(MidEdge(i, -d.L, "H"))        # bottom, +1
        total -= table.value(MidEdge(i, d.L + 1, "H"))     # top, -1
    for j in range(-d.L, d.L + 1):
        total += e * table.value(MidEdge(d.T, j, "V"))     # right, +e2
        total -= e * table.value(MidEdge(0, j, "V"))       # left, -e2
    return total


# ---------------------------------------------------------------------------
# Strip sums and the boundary identities.


@dataclass(frozen=True)
class StripSums:
    """Side-resolved weight sums at one fugacity; ``theta`` gives the
    side coefficients of ``residual``.

    A excludes the empty walk: in the boundary identity the empty walk
    carries the constant 1 on the right-hand side, not the alpha
    coefficient.
    """

    theta: float
    A: float
    B: float
    D: float
    E: float

    @property
    def residual(self) -> float:
        """|c_alpha*A + B + c_delta*D + c_eps*E - 1| (zero only at x = x_c)."""
        ca, cd, ce = side_coefficients(self.theta)
        return abs(ca * self.A + self.B + cd * self.D + ce * self.E - 1.0)


def side_coefficients(theta: float) -> tuple[float, float, float]:
    """(c_alpha, c_delta, c_eps); all positive on [pi/3, 2pi/3]."""
    return (
        math.cos(3 * math.pi / 8),
        math.cos(3 * theta / 8),
        math.cos(3 * (math.pi - theta) / 8),
    )


_SIDES = ("alpha", "beta", "delta", "epsilon")


@lru_cache(maxsize=128)
def _side_marginal(T: int, L: int):
    """counts[(side, profile)] over the walks that end on a side of the
    domain, the empty walk excluded, in the interned form (profiles,
    {(side,): (indices, counts)}) for ``_weigh``: ``domain_walk_aggregate``
    with the turns summed out and each end replaced by its side, in value.
    ``profiles`` holds only the distinct profiles of walks to a side.

    Read straight off the packed half by ``_group_packed``, which folds
    each entry into its mirror image's side (delta and epsilon swap, alpha
    and beta keep their side), so a re-weight costs as many terms as over
    the full histogram and no tuple histogram is built.
    """
    domain = ParallelogramDomain(T, L, math.pi / 2)

    def side(head):
        (i, j, hv), _, _ = head
        m = MidEdge(i, j, _HV_NAME[hv])
        # the empty walk is the only walk that ends at its start
        name = None if m == domain.origin else domain.side_of(m)
        return (name,) if name in _SIDES else None

    return _group_packed(*_domain_packed(T, L), side)


def strip_sums(T: int, L: int, x: float, theta) -> StripSums:
    """Exact side sums A, B, D, E at fugacity x (x = x_c is critical)."""
    th = as_theta(theta)
    w = critical_weights(th).at_fugacity(x)
    sums = _weigh(_side_marginal(T, L), w)
    A, B, D, E = (sums.get((side,), 0.0) for side in _SIDES)
    return StripSums(theta=th, A=A, B=B, D=D, E=E)


def alpha_winding_split(T: int, L: int, x: float, theta) -> tuple[float, float]:
    """Weight sums of walks back to the left side, split by winding sign.

    Walks returning to alpha wind by +pi (ending above the origin) or
    -pi (below); in turn units that is exactly (+1, +1) or (-1, -1).
    """
    th = as_theta(theta)
    w = critical_weights(th).at_fugacity(x)
    domain = ParallelogramDomain(T, L, th)
    agg = _weigh(_domain_groups(T, L), w)
    plus = minus = 0.0
    for ((i, j, hv), dth, dpm), weight in agg.items():
        m = MidEdge(i, j, _HV_NAME[hv])
        if m == domain.origin or domain.side_of(m) != "alpha":
            continue  # the empty walk, or a walk not back to the left side
        if (dth, dpm) == (1, 1):
            plus += weight
        elif (dth, dpm) == (-1, -1):
            minus += weight
        else:
            raise AssertionError(f"alpha walk with winding units {(dth, dpm)}")
    return plus, minus


def real_part_diagnostic(T: int, L: int, theta, x: float | None = None) -> float:
    """Orthogonal (real-part) combination of the boundary relation.

    sin(3 theta/8) * D - cos((pi + 3 theta)/8) * E
        + sin(5 pi/8) * (A_minus - A_plus)

    where A_plus/A_minus split the alpha sum by winding sign.  Vanishes
    at the critical fugacity; B and the empty walk drop out entirely.
    Exposed for inspection only -- no acceptance tolerance rides on it.
    """
    th = as_theta(theta)
    if x is None:
        x = critical_weights(th).x_c
    s = strip_sums(T, L, x, th)
    ap, am = alpha_winding_split(T, L, x, th)
    return (math.sin(3 * th / 8) * s.D
            - math.cos((math.pi + 3 * th) / 8) * s.E
            + math.sin(5 * math.pi / 8) * (am - ap))


def bridge_constant(theta: float, T: int) -> float:
    """Weight floor for rerouting a top/bottom walk back to the left side:
    one arc plus at most T-1 straights."""
    w = critical_weights(theta)
    return w.v ** (T - 1) * min(w.u1, w.u2)


@dataclass(frozen=True)
class StripLimitsReport:
    x: float
    L_values: tuple[int, ...]
    A: tuple[float, ...]
    B: tuple[float, ...]
    ED: tuple[float, ...]          # E + D per L (should decay in L)
    growth_margins: tuple[float, ...]  # A_{L+1} - A_L - c_T (E_L + D_L)


def strip_limits(T: int, x: float, theta, L_max: int) -> StripLimitsReport:
    """Side sums along increasing L with the tail-control inequality.

    The margins verify A_{T,L+1} - A_{T,L} >= c_T (E_{T,L} + D_{T,L}),
    which is what forces E + D -> 0 and justifies using L_max as a stand
    in for the strip limit.
    """
    th = as_theta(theta)
    rows = [strip_sums(T, L, x, th) for L in range(L_max + 1)]
    cT = bridge_constant(th, T)
    margins = tuple(
        rows[L + 1].A - rows[L].A - cT * (rows[L].E + rows[L].D)
        for L in range(L_max)
    )
    return StripLimitsReport(
        x=x, L_values=tuple(range(L_max + 1)),
        A=tuple(r.A for r in rows),
        B=tuple(r.B for r in rows),
        ED=tuple(r.E + r.D for r in rows),
        growth_margins=margins,
    )


@dataclass(frozen=True)
class BridgeChainReport:
    B: tuple[float, ...]               # B_{T, L_max}(x_c), T = 1..T_max
    chain_floor: float                 # c = x_c u2 / c_alpha
    floor_margins: tuple[float, ...]   # B_T - min(B_1, c)/T
    recursion_margins: tuple[float, ...]  # B_{T+1} - bound(B_T)
    subcritical_margins: tuple[float, ...]  # (x/x_c)^T - B_T(x)


# x/x_c of the subcritical fugacity at which bridge_chain_check checks decay.
SUBCRITICAL_X_RATIO = 0.8


def bridge_chain_check(theta, T_max: int, L_max: int) -> BridgeChainReport:
    """Bridge-sum lower bounds along the strip-width chain.

    Uses B_{T,L_max} as the measured stand-in for B_T; margins are
    reported rather than silently clipped.
    """
    th = as_theta(theta)
    w = critical_weights(th)
    xc = w.x_c
    ca, _, _ = side_coefficients(th)
    c = xc * w.u2 / ca
    B = []
    B_sub = []
    for T in range(1, T_max + 1):
        B.append(strip_sums(T, L_max, xc, th).B)
        B_sub.append(strip_sums(T, L_max, SUBCRITICAL_X_RATIO * xc, th).B)
    floor_margins = tuple(B[T - 1] - min(B[0], c) / T for T in range(1, T_max + 1))
    rec_margins = tuple(
        B[T] - 0.5 * (-c + math.sqrt(c * c + 4.0 * c * B[T - 1]))
        for T in range(1, T_max)
    )
    sub_margins = tuple(
        SUBCRITICAL_X_RATIO ** T - B_sub[T - 1] for T in range(1, T_max + 1)
    )
    return BridgeChainReport(
        B=tuple(B), chain_floor=c, floor_margins=floor_margins,
        recursion_margins=rec_margins, subcritical_margins=sub_margins,
    )
