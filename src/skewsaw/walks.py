"""Exhaustive enumeration of weighted self-avoiding walks.

A walk is a self-avoiding sequence of mid-edge crossings.  Each step
passes one rhombus, and a rhombus visited twice (by two arcs around
opposite corners) is re-weighted as a double-arc state rather than a
product of single arcs.  The enumerator is a depth-first backtracker
over exact integer state:

* the current and visited mid-edges as packed integers (a hash set for
  the visited ones), each step adding a fixed offset,
* per-rhombus plaquette states as small ints in a dict with undo; a
  domain search starts with the ring of rhombi around the domain
  blocked,
* walk weight as the profile (c1, ..., c5), the counts of rhombi whose
  final state is a theta-arc / (pi-theta)-arc / straight / double-theta
  / double-(pi-theta), and winding as integer multiples of theta and
  pi - theta: a weight set is applied afterwards, by ``_weigh``.

A walk whose length leaves no room for the shortest step is childless:
the search counts and reports it without pushing its crossing.

The search counts walks into a ``counts`` dict under one packed int key,
each step adding one precomputed increment.  The low 30 bits hold the
profile, 6 bits per slot and c1 most significant.  A free search keys by
the profile alone.  A domain search packs (end mid-edge, dtheta, dpmt)
above it, each turn count biased into its own field, so sorted keys are
in the order of their tuples.

The free-lattice aggregates enumerate only the walks whose first step
crosses with sign +1 and double every non-empty count: the rotation by
pi about the start maps them one to one onto the sign -1 walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
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
# read off geometry.step_candidates.

_OFF = 1 << 9          # coordinate offset; walks stay inside +-511
_COORD_BITS = 10


def _pack_mid(i: int, j: int, hv: int) -> int:
    return (((i + _OFF) << _COORD_BITS | (j + _OFF)) << 1) | hv


def _unpack_mid(mid: int) -> tuple[int, int, int]:
    return ((mid >> _COORD_BITS + 1) - _OFF,
            ((mid >> 1) & ((1 << _COORD_BITS) - 1)) - _OFF, mid & 1)


def _pack_rho(i: int, j: int) -> int:
    return (i + _OFF) << _COORD_BITS | (j + _OFF)


# The five-slot weight profile packs into one int, _SLOT_BITS per slot and
# c1 most significant, so packed profiles sort as their tuples do.  A slot
# counts at most one rhombus per step, so the search refuses more than
# _SLOT_MAX steps.
_SLOT_BITS = 6
_SLOT_MAX = (1 << _SLOT_BITS) - 1
_PROFILE_BITS = 5 * _SLOT_BITS
_INC = tuple(0 if s is None else 1 << _SLOT_BITS * (4 - s) for s in _SLOT)


def _unpack_profile(key: int) -> tuple[int, int, int, int, int]:
    """The profile (c1, ..., c5) in the low bits of a packed key."""
    return (key >> 4 * _SLOT_BITS & _SLOT_MAX, key >> 3 * _SLOT_BITS & _SLOT_MAX,
            key >> 2 * _SLOT_BITS & _SLOT_MAX, key >> _SLOT_BITS & _SLOT_MAX,
            key & _SLOT_MAX)


# A domain key packs (mid-edge, dtheta, dpmt) above the profile, each turn
# count plus _TURN_BIAS in a _TURN_BITS field that walks of at most _SLOT_MAX
# steps of at most _MAX_TURN units per class never overflow.
_TURN_BITS = 7
_TURN_BIAS = 1 << _TURN_BITS - 1
_TURN_MASK = (1 << _TURN_BITS) - 1
_MAX_TURN = max(abs(u) for _, *units in PASSAGE.values() for u in units)
if _SLOT_MAX * _MAX_TURN >= _TURN_BIAS:
    raise RuntimeError("a walk of _SLOT_MAX steps can overflow a turn field")


def _pack_domain_key(mid: int, dth: int, dpm: int, pk: int) -> int:
    """The key of packed mid-edge ``mid``, turns (dth, dpm) and profile pk."""
    return (((mid << _TURN_BITS) + dth + _TURN_BIAS << _TURN_BITS)
            + dpm + _TURN_BIAS << _PROFILE_BITS) + pk


def _domain_histogram(counts: dict) -> dict:
    """Sorted counts by (end, dtheta, dpmt, profile), each distinct end and
    profile tuple stored once; drains ``counts``."""
    keys, out, share = sorted(counts, reverse=True), {}, {}.setdefault
    while keys:  # popped off the sort, each key is freed once decoded
        key = keys.pop()
        above = key >> _PROFILE_BITS
        end, profile = _unpack_mid(above >> 2 * _TURN_BITS), _unpack_profile(key)
        out[(share(end, end), (above >> _TURN_BITS & _TURN_MASK) - _TURN_BIAS,
             (above & _TURN_MASK) - _TURN_BIAS,
             share(profile, profile))] = counts.pop(key)
    return out


_HV = {"H": 0, "V": 1}
_HV_NAME = ("H", "V")


# Steps out of a crossing (hv, sign) at the origin, by rhombus, then exit
# mid-edge; as offsets they hold for any mid-edge.
_CANDIDATES = {(hv, sign): step_candidates(MidEdge(0, 0, orient), sign=sign)
               for hv, orient in enumerate(_HV_NAME) for sign in (1, -1)}

# _PROMOTE_STEP[prev][state]: (double state, correction) when a single
# state arrives in a rhombus holding prev, else None; the correction
# turns a first visit's key increment into a move of prev's count to the
# double state.  _BLOCKED marks a rhombus no walk may pass.
_BLOCKED = len(_STATES)
_PROMOTE_STEP = tuple(
    tuple(None if (prev, code) not in _PROMOTE else
          (_PROMOTE[(prev, code)],
           _INC[_PROMOTE[(prev, code)]] - _INC[prev] - _INC[code])
          for code in range(len(_STATES)))
    for prev in range(len(_STATES) + 1))


@lru_cache(maxsize=None)
def _step_rows(lens: tuple[int, int, int], domain_keys: bool) -> dict:
    """_CANDIDATES in the search's form for one length rule: per crossing
    (hv, sign) a list of (dmid, drho, state, length, dkey, next row, nsign).
    dmid and drho are the offsets of the packed exit mid-edge and of the
    packed rhombus passed from the packed current mid-edge (shifted right
    by one for the rhombus); dkey is the key increment of a first visit,
    with dmid and the turn units above the profile for domain keys.
    """
    rows: dict = {key: [] for key in _CANDIDATES}
    for (hv, sign), row in rows.items():
        for s in _CANDIDATES[(hv, sign)]:
            nhv, nsign, state = _HV[s.dst.orient], s.exit_sign, s.state_code
            dmid = _pack_mid(s.dst.i, s.dst.j, nhv) - _pack_mid(0, 0, hv)
            dkey = _INC[state]
            if domain_keys:
                dkey += (_pack_domain_key(dmid, *s.turn_units, 0)
                         - _pack_domain_key(0, 0, 0, 0))
            row.append((dmid, _pack_rho(s.rhombus.i, s.rhombus.j) - _pack_rho(0, 0),
                        state, lens[_SLOT[state]], dkey, rows[(nhv, nsign)], nsign))
    return rows


def _ring(domain: ParallelogramDomain) -> list[int]:
    """Packed rhombi just outside the domain.  Neighbouring rhombi differ
    by one in i or j, so a walk that would leave the domain has to pass one
    of these first; blocking them keeps every walk inside."""
    T, L = domain.T, domain.L
    return [_pack_rho(i, j) for i in range(-1, T + 1) for j in range(-L - 1, L + 2)
            if not (0 <= i < T and -L <= j <= L)]


@dataclass
class EnumerationStats:
    walks: int = 0


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
    counts: dict | None = None,
) -> EnumerationStats:
    """Drive the backtracking search over every walk of length <= budget.

    ``counts`` (if a dict) gets ``counts[key] += 1`` per walk, the key
    packed as the module docstring says (see ``_unpack_profile`` and
    ``_domain_histogram``).  ``emit`` (if given) gets each walk's
    crossing list ``[(i, j, hv, sign), ...]``, which the search goes on to
    change.  ``first_step`` restricts the root to a single candidate
    index, which is the prefix-partition hook for parallel runs.
    """
    max_steps = _step_cap_check(max_length, rule, step_cap, start)
    if max_steps > _SLOT_MAX:
        raise ValueError(
            f"a walk of {max_steps} steps can overflow the {_SLOT_BITS}-bit "
            f"profile slots (at most {_SLOT_MAX} steps)"
        )
    lens = rule.as_tuple()
    rows = _step_rows(lens, domain is not None)
    # a walk longer than this has no step left in the budget
    leaf_len = max_length - min(lens)
    promote = _PROMOTE_STEP

    si, sj, shv = start.i, start.j, _HV[start.orient]
    smid = _pack_mid(si, sj, shv)
    visited = {smid}
    occ: dict[int, int] = {}
    key0 = 0 if domain is None else _pack_domain_key(smid, 0, 0, 0)
    if domain is not None:
        occ = dict.fromkeys(_ring(domain), _BLOCKED)
    occ_get = occ.get
    count_get = counts.get if counts is not None else None
    crossings = [(si, sj, shv, 0)]

    def rec(cm, row, rlen, key):
        walks = 0
        base = cm >> 1
        for dmid, drho, comp, slen, dkey, nrow, nsign in row:
            nlen = rlen + slen
            if nlen > max_length:
                continue
            nm = cm + dmid
            if nm in visited:
                continue
            rho = base + drho
            prev = occ_get(rho, 0)
            if prev:
                promoted = promote[prev][comp]
                if promoted is None:
                    continue
                state, fix = promoted
                nkey = key + dkey + fix
            else:
                state = comp
                nkey = key + dkey
            walks += 1
            if counts is not None:
                counts[nkey] = count_get(nkey, 0) + 1
            if emit is not None:
                crossings.append((*_unpack_mid(nm), nsign))
                emit(crossings)
            if nlen <= leaf_len:  # else childless: nothing to push
                occ[rho] = state
                visited.add(nm)
                walks += rec(nm, nrow, nlen, nkey)
                visited.remove(nm)
                if prev:
                    occ[rho] = prev
                else:
                    del occ[rho]
            if emit is not None:
                crossings.pop()
        return walks

    # Empty walk.
    if counts is not None:
        counts[key0] = count_get(key0, 0) + 1
    if emit is not None:
        emit(crossings)
    walks = 1

    # Root candidates across the allowed crossing signs, outside the
    # blocked ring, ordered like geometry.step_candidates (by rhombus, then
    # exit edge: the packed ints order as their coordinates do).
    roots = []
    for sign in (1, -1):
        if sign not in signs:
            continue
        for step in rows[(shv, sign)]:
            rho = (smid >> 1) + step[1]
            if rho not in occ:
                roots.append((rho, smid + step[0], sign, step))
    roots.sort()

    for idx, (_, _, sign, step) in enumerate(roots):
        if first_step is not None and idx != first_step:
            continue
        crossings[0] = (si, sj, shv, sign)  # crossing sign of the first step
        walks += rec(smid, (step,), 0, key0)

    return EnumerationStats(walks=walks)


def profile_weight(profile, tables) -> float:
    t1, t2, t3, t4, t5 = tables
    return (t1[profile[0]] * t2[profile[1]] * t3[profile[2]]
            * t4[profile[3]] * t5[profile[4]])


def _weigh(hist: Mapping, w: WeightSet) -> dict:
    """{key[:-1]: sum of n * weight(key[-1])} over a histogram whose keys
    end with the profile (c1, ..., c5), in first-met key order.

    Each distinct profile is weighed once, by power tables as long as the
    largest count in the histogram.
    """
    weights = dict.fromkeys(key[-1] for key in hist)
    size = max(map(max, weights), default=0)
    tables = [list(accumulate(repeat(x, size), mul, initial=1.0))
              for x in w.as_tuple()]
    for profile in weights:
        weights[profile] = profile_weight(profile, tables)
    out: dict = {}
    for key, n in hist.items():
        head = key[:-1]
        out[head] = out.get(head, 0.0) + n * weights[key[-1]]
    return out


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
    weights = w.as_tuple()
    slots = (_SLOT[_CODE[st]] for st in walk.occupancy.values())
    return math.prod((weights[slot] for slot in slots), start=1.0)


def _steps_from_crossings(crossings) -> tuple[MidEdge, tuple[Step, ...]]:
    mids = [MidEdge(i, j, _HV_NAME[hv]) for i, j, hv, _ in crossings]
    steps = []
    for (pi, pj, phv, psign), cur in zip(crossings, mids[1:]):
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
    consumers aggregate over the ``counts`` of ``run_walk_enumeration``
    instead.
    """
    def emit(crossings):
        visitor(build_walk(*_steps_from_crossings(crossings)))

    if domain is not None and domain.side_of(start) is None:
        raise ValueError(f"start {start} is not a mid-edge of the domain")

    return run_walk_enumeration(
        start, max_length, rule, domain, signs=signs, step_cap=step_cap,
        emit=None if visitor is None else emit)


# ---------------------------------------------------------------------------
# Aggregates.  Enumeration is independent of theta and of the weights, so
# combinatorial aggregates are cached and re-weighted per family.


def _free_counts(n_max: int, rule: LengthRule, orient: str,
                 first_step: int | None = None) -> dict:
    """counts[pk] over the free-lattice walks whose first step crosses
    with sign +1 (the empty walk included)."""
    counts: dict = {}
    run_walk_enumeration(MidEdge(0, 0, orient), n_max, rule, signs=(1,),
                         first_step=first_step, counts=counts)
    return counts


def _both_signs(counts: dict, rule: LengthRule) -> dict:
    """counts[(rlen, profile)] over all free-lattice walks, sorted.

    The rotation by pi about the start maps the sign +1 walks one to one
    onto the sign -1 walks, with the same states, so every non-empty count
    doubles.  Each passage adds its length to its weight slot, a double
    state two arcs of one class, so the length follows from the profile.
    """
    lt, lp, ls = rule.as_tuple()
    out = []
    for pk, n in counts.items():
        c1, c2, c3, c4, c5 = profile = _unpack_profile(pk)
        rlen = lt * (c1 + 2 * c4) + lp * (c2 + 2 * c5) + ls * c3
        out.append(((rlen, profile), 2 * n if pk else n))
    return dict(sorted(out))


@lru_cache(maxsize=32)
def free_walk_aggregate(n_max: int, rule: LengthRule = UNIT_RULE,
                        orient: str = "H") -> dict:
    """counts[(rlen, profile)] over all free-lattice walks, both signs,
    with keys in sorted order."""
    return _both_signs(_free_counts(n_max, rule, orient), rule)


def _free_prefix_aggregate(args):
    n_max, rule_tuple, orient, idx = args
    return _free_counts(n_max, LengthRule(*rule_tuple), orient, idx)


def free_walk_aggregate_parallel(n_max: int, rule: LengthRule = UNIT_RULE,
                                 orient: str = "H", workers: int = 1) -> dict:
    """Prefix-parallel version of ``free_walk_aggregate``.

    One job per sign +1 first step; partial counts are summed, so the
    result is identical to the sequential one, keys in the same order
    (the empty walk, which every job counts, is set back to one).
    """
    if workers <= 1:
        return free_walk_aggregate(n_max, rule, orient)
    from concurrent.futures import ProcessPoolExecutor

    jobs = [(n_max, rule.as_tuple(), orient, k)
            for k in range(len(_CANDIDATES[(_HV[orient], 1)]))]
    total: dict = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_free_prefix_aggregate, jobs):
            for pk, n in part.items():
                total[pk] = total.get(pk, 0) + n
    total[0] = 1
    return _both_signs(total, rule)


def weighted_length_sums(n_max: int, theta: float, w: WeightSet | None = None,
                         rule: LengthRule = UNIT_RULE, orient: str = "H",
                         workers: int = 1) -> list[float]:
    """Sum of walk weights per exact length 0..n_max on the free lattice."""
    from .weights import critical_weights

    if w is None:
        w = critical_weights(theta)
    agg = free_walk_aggregate_parallel(n_max, rule, orient, workers)
    sums = [0.0] * (n_max + 1)
    for (rlen,), x in _weigh(agg, w).items():
        sums[rlen] = x
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
