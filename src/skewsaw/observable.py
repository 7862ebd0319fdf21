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
from .walks import (UNIT_RULE, _HV_NAME, _domain_histogram, _weigh,
                    run_walk_enumeration)
# not used here: the benchmark's tracer test reads observable.profile_weight
from .walks import profile_weight  # noqa: F401
from .weights import WeightSet, critical_weights


@dataclass(frozen=True)
class ObservableTable:
    """Observable values F_a(z) over the mid-edges of a domain."""

    domain: ParallelogramDomain
    origin: MidEdge
    sigma: float
    values: dict  # MidEdge -> complex

    def value(self, m: MidEdge) -> complex:
        return self.values.get(m, 0.0 + 0.0j)


# Largest domain the exhaustive pass will attempt; beyond 24 rhombi the
# walk tree outgrows a desk-scale run (8x1 takes seconds).
DOMAIN_RHOMBUS_BUDGET = 24


@lru_cache(maxsize=128)
def domain_walk_aggregate(T: int, L: int) -> dict:
    """counts[(end, dtheta, dpmt, profile)] over all in-domain walks,
    with keys in sorted order.

    Enumeration is purely combinatorial (independent of theta and of any
    weight family), so one pass serves every angle, spin and fugacity.
    The empty walk appears as ((origin), 0, 0, zero-profile).
    """
    if (2 * L + 1) * T > DOMAIN_RHOMBUS_BUDGET:
        raise ValueError(
            f"domain of {(2 * L + 1) * T} rhombi exceeds the enumeration "
            f"budget of {DOMAIN_RHOMBUS_BUDGET}"
        )
    domain = ParallelogramDomain(T, L, math.pi / 2)
    counts: dict = {}
    run_walk_enumeration(domain.origin, 2 * domain.n_rhombi + 2,
                         UNIT_RULE, domain, signs=(domain.origin_sign,),
                         step_cap=2 * domain.n_rhombi + 2, counts=counts)
    return _domain_histogram(counts)


def observable(domain: ParallelogramDomain, sigma: float,
               w: WeightSet | None = None) -> ObservableTable:
    """Exact finite sum F_a(z) for every mid-edge z of the domain."""
    theta = as_theta(domain.theta)
    if w is None:
        w = critical_weights(theta)
    agg = _weigh(domain_walk_aggregate(domain.T, domain.L), w)
    values: dict[MidEdge, complex] = {}
    pmt = math.pi - theta
    for ((i, j, hv), dth, dpm), weight in agg.items():
        phase = cmath.exp(-1j * sigma * (dth * theta + dpm * pmt))
        m = MidEdge(i, j, _HV_NAME[hv])
        values[m] = values.get(m, 0.0 + 0.0j) + weight * phase
    return ObservableTable(domain=domain, origin=domain.origin,
                           sigma=sigma, values=values)


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
    """Side-resolved weight sums at fugacity x.

    A excludes the empty walk: in the boundary identity the empty walk
    carries the constant 1 on the right-hand side, not the alpha
    coefficient.
    """

    T: int
    L: int
    theta: float
    x: float
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


def strip_sums(T: int, L: int, x: float, theta) -> StripSums:
    """Exact side sums A, B, D, E at fugacity x (x = x_c is critical)."""
    th = as_theta(theta)
    w = critical_weights(th).at_fugacity(x)
    domain = ParallelogramDomain(T, L, th)
    agg = _weigh(domain_walk_aggregate(T, L), w)
    sums = {"alpha": 0.0, "beta": 0.0, "delta": 0.0, "epsilon": 0.0}
    for ((i, j, hv), _dth, _dpm), weight in agg.items():
        m = MidEdge(i, j, _HV_NAME[hv])
        if m == domain.origin:
            continue  # the empty walk, the only walk that ends at its start
        side = domain.side_of(m)
        if side in sums:
            sums[side] += weight
    return StripSums(T=T, L=L, theta=th, x=x, A=sums["alpha"],
                     B=sums["beta"], D=sums["delta"], E=sums["epsilon"])


def parallelogram_identity_residual(T: int, L: int, theta,
                                    x: float | None = None) -> float:
    """|c_alpha*A + B + c_delta*D + c_eps*E - 1| (zero only at x = x_c)."""
    th = as_theta(theta)
    if x is None:
        x = critical_weights(th).x_c
    return strip_sums(T, L, x, th).residual


def alpha_winding_split(T: int, L: int, x: float, theta) -> tuple[float, float]:
    """Weight sums of walks back to the left side, split by winding sign.

    Walks returning to alpha wind by +pi (ending above the origin) or
    -pi (below); in turn units that is exactly (+1, +1) or (-1, -1).
    """
    th = as_theta(theta)
    w = critical_weights(th).at_fugacity(x)
    domain = ParallelogramDomain(T, L, th)
    agg = _weigh(domain_walk_aggregate(T, L), w)
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
    T: int
    theta: float
    x: float
    L_values: tuple[int, ...]
    A: tuple[float, ...]
    B: tuple[float, ...]
    ED: tuple[float, ...]          # E + D per L (should decay in L)
    growth_margins: tuple[float, ...]  # A_{L+1} - A_L - c_T (E_L + D_L)

    @property
    def A_limit(self) -> float:
        return self.A[-1]

    @property
    def B_limit(self) -> float:
        return self.B[-1]


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
        T=T, theta=th, x=x,
        L_values=tuple(range(L_max + 1)),
        A=tuple(r.A for r in rows),
        B=tuple(r.B for r in rows),
        ED=tuple(r.E + r.D for r in rows),
        growth_margins=margins,
    )


@dataclass(frozen=True)
class BridgeChainReport:
    theta: float
    T_values: tuple[int, ...]
    B: tuple[float, ...]               # B_{T, L_max}(x_c)
    chain_floor: float                 # c = x_c u2 / c_alpha
    floor_margins: tuple[float, ...]   # B_T - min(B_1, c)/T
    recursion_margins: tuple[float, ...]  # B_{T+1} - bound(B_T)
    subcritical_x: float
    subcritical_margins: tuple[float, ...]  # (x/x_c)^T - B_T(x)


def bridge_chain_check(theta, T_max: int, L_max: int,
                       x_ratio: float = 0.8) -> BridgeChainReport:
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
        B_sub.append(strip_sums(T, L_max, x_ratio * xc, th).B)
    floor_margins = tuple(B[T - 1] - min(B[0], c) / T for T in range(1, T_max + 1))
    rec_margins = tuple(
        B[T] - 0.5 * (-c + math.sqrt(c * c + 4.0 * c * B[T - 1]))
        for T in range(1, T_max)
    )
    sub_margins = tuple(
        x_ratio ** T - B_sub[T - 1] for T in range(1, T_max + 1)
    )
    return BridgeChainReport(
        theta=th, T_values=tuple(range(1, T_max + 1)), B=tuple(B),
        chain_floor=c, floor_margins=floor_margins,
        recursion_margins=rec_margins, subcritical_x=x_ratio,
        subcritical_margins=sub_margins,
    )
