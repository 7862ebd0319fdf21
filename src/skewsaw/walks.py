"""Exhaustive enumeration of weighted self-avoiding walks.

A walk is a self-avoiding sequence of mid-edge crossings.  Each step
passes one rhombus, and a rhombus visited twice (by two arcs around
opposite corners) is re-weighted as a double-arc state rather than a
product of single arcs.  The enumerator is a depth-first backtracker
over exact integer state:

* visited mid-edges as a hash set of packed integers,
* per-rhombus plaquette states as small ints with undo,
* walk weight as the count vector of final states (so a weight set is
  applied afterwards via power tables -- no floating point is touched
  while searching),
* winding as integer multiples of theta and pi - theta.

Per-walk callbacks receive the packed record
``(i, j, hv, sign, rlen, dtheta, dpmt, c1, c2, c3, c4, c5)`` where the
c's count rhombi whose final state is a theta-arc / (pi-theta)-arc /
straight / double-theta / double-(pi-theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .geometry import (
    PASSAGE,
    PLAQUETTE_STATES,
    MidEdge,
    ParallelogramDomain,
    Rhombus,
    Step,
    step_candidates,
)
from .weights import WeightSet

DEFAULT_STEP_CAP = 40

# Members in state-code order: EMPTY, ARC_SW, ..., DOUBLE_PI_MINUS_THETA.
PlaquetteState = Enum(
    "PlaquetteState",
    [(name.upper(), name) for name, _, _ in PLAQUETTE_STATES],
    module=__name__,
)

_STATES = tuple(PlaquetteState)
_CODE = {state: code for code, state in enumerate(_STATES)}

# weight-profile slot per state code (a promotion moves a count from the
# single slot to the double slot)
_SLOT = tuple(slot for _, _, slot in PLAQUETTE_STATES)

# (previous state, arriving single state) -> double state
_PROMOTE = {
    (PASSAGE[p][0], PASSAGE[q][0]): code
    for code, (_, pairs, _) in enumerate(PLAQUETTE_STATES) if len(pairs) == 2
    for p, q in (pairs, pairs[::-1])
}


def state_weight(state: PlaquetteState, w: WeightSet) -> float:
    slot = _SLOT[_CODE[state]]
    return 1.0 if slot is None else w.as_tuple()[slot]


@dataclass(frozen=True)
class LengthRule:
    """Per-passage lengths: (theta-arc, (pi-theta)-arc, straight)."""

    len_theta_arc: int = 1
    len_pi_minus_theta_arc: int = 1
    len_straight: int = 1

    def __post_init__(self) -> None:
        for v in self.as_tuple():
            if not isinstance(v, int) or v < 1:
                raise ValueError("rule lengths must be positive integers")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.len_theta_arc, self.len_pi_minus_theta_arc,
                self.len_straight)


UNIT_RULE = LengthRule(1, 1, 1)
HONEYCOMB_RULE = LengthRule(1, 2, 2)


# ---------------------------------------------------------------------------
# Fast core.  Mid-edges and rhombi pack into single ints; transitions are
# read off geometry.step_candidates once, at import.

_OFF = 1 << 9          # coordinate offset; walks stay inside +-511
_COORD_BITS = 10

def _pack_mid(i: int, j: int, hv: int) -> int:
    return (((i + _OFF) << _COORD_BITS | (j + _OFF)) << 1) | hv


def _pack_rho(i: int, j: int) -> int:
    return (i + _OFF) << _COORD_BITS | (j + _OFF)


_HV = {"H": 0, "V": 1}
_HV_NAME = ("H", "V")


def _transitions() -> dict:
    """Steps out of a crossing (hv, sign) at the origin, as tuples

        (di, dj, nhv, nsign, state, dtheta, dpmt, rdi, rdj)

    with (rdi, rdj) the rhombus passed, in step_candidates order (by
    rhombus, then exit mid-edge).  Offsets hold for any mid-edge.
    """
    out = {}
    for hv, orient in enumerate(_HV_NAME):
        for sign in (1, -1):
            out[(hv, sign)] = tuple(
                (s.dst.i, s.dst.j, _HV[s.dst.orient], s.exit_sign,
                 s.state_code, *s.turn_units, s.rhombus.i, s.rhombus.j)
                for s in step_candidates(MidEdge(0, 0, orient), sign=sign))
    return out


_TRANSITIONS = _transitions()


@dataclass
class EnumerationStats:
    walks: int = 0
    max_length_seen: int = 0


def _step_cap_check(max_length: int, rule: LengthRule, step_cap: int,
                    start: MidEdge) -> int:
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    max_steps = max_length // min(rule.as_tuple())
    if max_steps > step_cap:
        raise ValueError(
            f"length budget {max_length} needs up to {max_steps} steps, "
            f"above the cap {step_cap}"
        )
    # _pack_mid aliases coordinates beyond +-(_OFF - 1), and a step moves
    # each coordinate by at most one
    if max(abs(start.i), abs(start.j)) + max_steps >= _OFF:
        raise ValueError(
            f"a walk of {max_steps} steps from {start} can leave the packed "
            f"coordinate range +-{_OFF - 1}"
        )
    return max_steps


def run_walk_enumeration(
    start: MidEdge,
    max_length: int,
    rule: LengthRule = UNIT_RULE,
    domain: ParallelogramDomain | None = None,
    emit: Callable | None = None,
    signs: Iterable[int] = (-1, 1),
    step_cap: int = DEFAULT_STEP_CAP,
    first_step: int | None = None,
    trace: list | None = None,
) -> EnumerationStats:
    """Drive the backtracking search, invoking ``emit`` once per walk.

    ``emit`` gets the packed record described in the module docstring.
    ``trace`` (if a list) is kept in sync with the crossing sequence
    ``[(i, j, hv, sign), ...]`` so callers can materialise Walk objects.
    ``first_step`` restricts the root to a single candidate index, which
    is the prefix-partition hook for parallel runs.
    """
    _step_cap_check(max_length, rule, step_cap, start)
    lens = rule.as_tuple()
    step_len = {code: lens[_SLOT[code]] for code, _, _ in PASSAGE.values()}

    if domain is not None:
        box = (domain.T, domain.L)
    else:
        box = None

    si, sj, shv = start.i, start.j, _HV[start.orient]
    visited = {_pack_mid(si, sj, shv)}
    occ: dict[int, int] = {}
    profile = [0, 0, 0, 0, 0]
    stats = EnumerationStats()

    def emit_current(ci, cj, chv, sign, rlen, dth, dpm):
        stats.walks += 1
        if rlen > stats.max_length_seen:
            stats.max_length_seen = rlen
        if emit is not None:
            emit((ci, cj, chv, sign, rlen, dth, dpm,
                  profile[0], profile[1], profile[2], profile[3], profile[4]))

    def rec(ci, cj, chv, sign, rlen, dth, dpm):
        for di, dj, nhv, nsign, comp, ddt, ddp, rdi, rdj in _TRANSITIONS[(chv, sign)]:
            slen = step_len[comp]
            nlen = rlen + slen
            if nlen > max_length:
                continue
            ri, rj = ci + rdi, cj + rdj
            if box is not None and not (0 <= ri < box[0] and -box[1] <= rj <= box[1]):
                continue
            ni, nj = ci + di, cj + dj
            mid = _pack_mid(ni, nj, nhv)
            if mid in visited:
                continue
            rho = _pack_rho(ri, rj)
            prev = occ.get(rho, 0)
            if prev == 0:
                new_state = comp
                slot = _SLOT[comp]
                profile[slot] += 1
                undo = (rho, 0, slot, None)
            else:
                new_state = _PROMOTE.get((prev, comp))
                if new_state is None:
                    continue
                slot = _SLOT[comp]
                dslot = _SLOT[new_state]
                profile[slot] -= 1
                profile[dslot] += 1
                undo = (rho, prev, slot, dslot)
            occ[rho] = new_state
            visited.add(mid)
            if trace is not None:
                trace.append((ni, nj, nhv, nsign))
            emit_current(ni, nj, nhv, nsign, nlen, dth + ddt, dpm + ddp)
            rec(ni, nj, nhv, nsign, nlen, dth + ddt, dpm + ddp)
            if trace is not None:
                trace.pop()
            visited.remove(mid)
            rho_, prev_, slot_, dslot_ = undo
            if dslot_ is None:
                profile[slot_] -= 1
                occ.pop(rho_)
            else:
                profile[slot_] += 1
                profile[dslot_] -= 1
                occ[rho_] = prev_

    # Empty walk.
    if trace is not None:
        trace.clear()
        trace.append((si, sj, shv, 0))
    emit_current(si, sj, shv, 0, 0, 0, 0)

    # Root candidates across the allowed crossing signs, ordered like
    # geometry.step_candidates (by rhombus, then exit edge).
    roots = []
    for sign in (1, -1):
        if sign not in signs:
            continue
        for tr in _TRANSITIONS[(shv, sign)]:
            ri, rj = si + tr[7], sj + tr[8]
            if box is not None and not (0 <= ri < box[0] and -box[1] <= rj <= box[1]):
                continue
            roots.append(((ri, rj, si + tr[0], sj + tr[1], tr[2]), sign, tr))
    roots.sort(key=lambda item: item[0])

    for idx, (_, sign, tr) in enumerate(roots):
        if first_step is not None and idx != first_step:
            continue
        di, dj, nhv, nsign, comp, ddt, ddp, rdi, rdj = tr
        slen = step_len[comp]
        if slen > max_length:
            continue
        ni, nj = si + di, sj + dj
        mid = _pack_mid(ni, nj, nhv)
        rho = _pack_rho(si + rdi, sj + rdj)
        profile[_SLOT[comp]] += 1
        occ[rho] = comp
        visited.add(mid)
        if trace is not None:
            trace[0] = (si, sj, shv, sign)  # crossing sign of the first step
            trace.append((ni, nj, nhv, nsign))
        emit_current(ni, nj, nhv, nsign, slen, ddt, ddp)
        rec(ni, nj, nhv, nsign, slen, ddt, ddp)
        if trace is not None:
            trace.pop()
        visited.remove(mid)
        occ.pop(rho)
        profile[_SLOT[comp]] -= 1

    return stats


def root_candidate_count(start: MidEdge,
                         domain: ParallelogramDomain | None = None,
                         signs: Iterable[int] = (-1, 1)) -> int:
    """Number of first-step candidates (the prefix-partition width)."""
    shv = _HV[start.orient]
    count = 0
    for sign in (1, -1):
        if sign not in signs:
            continue
        for tr in _TRANSITIONS[(shv, sign)]:
            ri, rj = start.i + tr[7], start.j + tr[8]
            if domain is not None and not domain.contains_rhombus(Rhombus(ri, rj)):
                continue
            count += 1
    return count


def power_tables(w: WeightSet, size: int):
    """Power tables for evaluating profile weights without pow calls."""
    def tab(x: float):
        out = [1.0] * (size + 1)
        for k in range(1, size + 1):
            out[k] = out[k - 1] * x
        return out

    return (tab(w.u1), tab(w.u2), tab(w.v), tab(w.w1), tab(w.w2))


def profile_weight(profile, tables) -> float:
    t1, t2, t3, t4, t5 = tables
    return (t1[profile[0]] * t2[profile[1]] * t3[profile[2]]
            * t4[profile[3]] * t5[profile[4]])


# ---------------------------------------------------------------------------
# Walk objects: the contract-level representation.


@dataclass(frozen=True)
class Walk:
    """A fully materialised walk with its per-rhombus state ledger."""

    start: MidEdge
    steps: tuple[Step, ...]
    occupancy: Mapping[Rhombus, PlaquetteState]
    visited: frozenset[MidEdge]

    @property
    def end(self) -> MidEdge:
        return self.steps[-1].dst if self.steps else self.start

    def turn_units(self) -> tuple[int, int]:
        dt = sum(s.turn_units[0] for s in self.steps)
        dp = sum(s.turn_units[1] for s in self.steps)
        return dt, dp

    def winding(self, theta: float) -> float:
        dt, dp = self.turn_units()
        return dt * theta + dp * (math.pi - theta)

    def length(self, rule: LengthRule = UNIT_RULE) -> int:
        lens = rule.as_tuple()
        return sum(lens[_SLOT[s.state_code]] for s in self.steps)

    def profile(self) -> tuple[int, int, int, int, int]:
        c = [0, 0, 0, 0, 0]
        for st in self.occupancy.values():
            c[_SLOT[_CODE[st]]] += 1
        return tuple(c)


def occupancy_from_steps(steps: Iterable[Step]) -> dict[Rhombus, PlaquetteState]:
    """Fold steps through the plaquette state machine.

    Raises ValueError on an inadmissible second visit (straight plus
    anything, two straights, or arcs around non-opposite corners).
    """
    occ: dict[Rhombus, int] = {}
    for s in steps:
        prev = occ.get(s.rhombus)
        code = s.state_code
        if prev is not None:
            code = _PROMOTE.get((prev, code))
            if code is None:
                raise ValueError(
                    f"inadmissible plaquette reuse: {_STATES[prev]} + "
                    f"{s.component} in {s.rhombus}"
                )
        occ[s.rhombus] = code
    return {r: _STATES[code] for r, code in occ.items()}


def build_walk(start: MidEdge, steps: Iterable[Step]) -> Walk:
    """Validate a step list as a self-avoiding walk and materialise it."""
    steps = tuple(steps)
    visited = {start}
    cur = start
    for s in steps:
        if s.src != cur:
            raise ValueError(f"step {s} does not continue from {cur}")
        if s.dst in visited:
            raise ValueError(f"mid-edge {s.dst} revisited")
        visited.add(s.dst)
        cur = s.dst
    # consecutive steps must keep a consistent crossing direction
    for a, b in zip(steps, steps[1:]):
        if a.exit_sign != b.entry_sign or a.dst != b.src:
            raise ValueError(f"steps {a} -> {b} reverse direction")
    occ = occupancy_from_steps(steps)
    return Walk(start=start, steps=steps, occupancy=occ,
                visited=frozenset(visited))


def weight_of(walk: Walk, w: WeightSet) -> float:
    """Product of final plaquette-state weights (the weight contract)."""
    out = 1.0
    for st in walk.occupancy.values():
        out *= state_weight(st, w)
    return out


def _steps_from_trace(trace) -> tuple[MidEdge, tuple[Step, ...]]:
    mids = [MidEdge(i, j, _HV_NAME[hv]) for i, j, hv, _ in trace]
    steps = []
    for (pi, pj, phv, psign), cur in zip(trace, mids[1:]):
        prev_mid = MidEdge(pi, pj, _HV_NAME[phv])
        r = prev_mid.rhombi()[0 if psign == 1 else 1]
        steps.append(Step(r, prev_mid, cur))
    return mids[0], tuple(steps)


def enumerate_walks(
    start: MidEdge,
    max_length: int,
    rule: LengthRule = UNIT_RULE,
    domain: ParallelogramDomain | None = None,
    visitor: Callable[[Walk], None] | None = None,
    signs: Iterable[int] = (-1, 1),
    step_cap: int = DEFAULT_STEP_CAP,
) -> EnumerationStats:
    """Visit every self-avoiding walk from ``start`` with length <= budget.

    The visitor sees each walk exactly once (the empty walk included) in
    a deterministic order.  This is the contract-level API; heavy
    consumers aggregate over ``run_walk_enumeration`` records instead.
    """
    trace: list = []

    def emit(_record):
        if visitor is not None:
            mid0, steps = _steps_from_trace(trace)
            visitor(build_walk(mid0, steps))

    if domain is not None:
        allowed = []
        for s in signs:
            fwd = start.rhombi()[0 if s == 1 else 1]
            if domain.contains_rhombus(fwd):
                allowed.append(s)
        signs = tuple(allowed)
        if domain.side_of(start) is None:
            raise ValueError(f"start {start} is not a mid-edge of the domain")

    return run_walk_enumeration(start, max_length, rule, domain,
                                emit=emit, signs=signs, step_cap=step_cap,
                                trace=trace)


# ---------------------------------------------------------------------------
# Aggregates.  Enumeration is independent of theta and of the weights, so
# combinatorial aggregates are cached and re-weighted per family.


def _free_counts(n_max: int, rule: LengthRule, orient: str,
                 first_step: int | None = None) -> dict:
    counts: dict = {}

    def emit(rec):
        key = (rec[4], rec[7:12])
        counts[key] = counts.get(key, 0) + 1

    run_walk_enumeration(MidEdge(0, 0, orient), n_max, rule, emit=emit,
                         first_step=first_step)
    return counts


@lru_cache(maxsize=32)
def free_walk_aggregate(n_max: int, rule: LengthRule = UNIT_RULE,
                        orient: str = "H") -> dict:
    """counts[(rlen, profile)] over all free-lattice walks, both signs."""
    return _free_counts(n_max, rule, orient)


def _free_prefix_aggregate(args):
    n_max, rule_tuple, orient, idx = args
    return _free_counts(n_max, LengthRule(*rule_tuple), orient, idx)


def free_walk_aggregate_parallel(n_max: int, rule: LengthRule = UNIT_RULE,
                                 orient: str = "H", workers: int = 1) -> dict:
    """Prefix-parallel version of ``free_walk_aggregate``.

    The walk tree is split at the six first-step candidates; partial
    counts are summed, so the result is identical to the sequential one
    (the empty walk is added back by hand).
    """
    if workers <= 1:
        return free_walk_aggregate(n_max, rule, orient)
    from concurrent.futures import ProcessPoolExecutor

    nroots = root_candidate_count(MidEdge(0, 0, orient))
    jobs = [(n_max, rule.as_tuple(), orient, k) for k in range(nroots)]
    total: dict = {(0, (0, 0, 0, 0, 0)): 1}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_free_prefix_aggregate, jobs):
            part.pop((0, (0, 0, 0, 0, 0)), None)  # empty walk per worker
            for key, n in part.items():
                total[key] = total.get(key, 0) + n
    return total


def weighted_length_sums(n_max: int, theta: float, w: WeightSet | None = None,
                         rule: LengthRule = UNIT_RULE, orient: str = "H",
                         workers: int = 1) -> list[float]:
    """Sum of walk weights per exact length 0..n_max on the free lattice."""
    from .weights import critical_weights

    if w is None:
        w = critical_weights(theta)
    agg = free_walk_aggregate_parallel(n_max, rule, orient, workers)
    tables = power_tables(w, 2 * n_max + 2)
    sums = [0.0] * (n_max + 1)
    for (rlen, profile), n in agg.items():
        sums[rlen] += n * profile_weight(profile, tables)
    return sums


def c_tilde(n: int, theta: float, rule: LengthRule = UNIT_RULE,
            orient: str = "H", workers: int = 1) -> float:
    """Weight sum over walks of length exactly n, normalised by u1^n."""
    from .weights import critical_weights

    w = critical_weights(theta)
    sums = weighted_length_sums(n, theta, w, rule, orient, workers)
    return sums[n] / w.u1 ** n


# ---------------------------------------------------------------------------
# Dump format: one walk per line, `start;step,step,...` with each step
# written `i,j,orient>i,j,orient`.


def walk_to_dump(walk: Walk) -> str:
    head = f"{walk.start.i},{walk.start.j},{walk.start.orient}"
    parts = [
        f"{s.src.i},{s.src.j},{s.src.orient}>{s.dst.i},{s.dst.j},{s.dst.orient}"
        for s in walk.steps
    ]
    return head + ";" + ",".join(parts)


def walk_from_dump(line: str) -> Walk:
    head, _, rest = line.partition(";")
    hi, hj, ho = head.split(",")
    start = MidEdge(int(hi), int(hj), ho)
    steps: list[Step] = []
    if rest:
        tokens = rest.split(",")
        if len(tokens) % 5 != 0:
            raise ValueError(f"malformed walk dump: {line!r}")
        for k in range(0, len(tokens), 5):
            si, sj, bridge, dj, do = tokens[k:k + 5]
            so, _, di = bridge.partition(">")
            src = MidEdge(int(si), int(sj), so)
            dst = MidEdge(int(di), int(dj), do)
            # two distinct mid-edges border exactly one common rhombus
            shared = set(src.rhombi()) & set(dst.rhombi())
            if len(shared) != 1:
                raise ValueError(f"mid-edges {src}, {dst} share no rhombus")
            steps.append(Step(shared.pop(), src, dst))
    return build_walk(start, steps)
