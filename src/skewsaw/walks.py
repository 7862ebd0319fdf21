"""Exhaustive enumeration of weighted self-avoiding walks.

A walk is a self-avoiding sequence of mid-edge crossings.  Each step
passes one rhombus, and a rhombus visited twice (by two arcs around
opposite corners) is re-weighted as a double-arc state rather than a
product of single arcs.  The enumerator is a depth-first backtracker
over exact integer state:

* the current mid-edge as a packed integer, each step adding a fixed
  offset, and no set of visited ones: a step onto a crossed mid-edge
  passes a rhombus whose state refuses it, so only the start is
  refused by name,
* per-rhombus plaquette states as small ints in a dict, read once per
  node (every step out of a crossing passes the same rhombus, and its
  state selects the allowed steps) and restored once; a domain search
  starts with the ring of rhombi around the domain blocked,
* walk weight as the profile (c1, ..., c5), the counts of rhombi whose
  final state is a theta-arc / (pi-theta)-arc / straight / double-theta
  / double-(pi-theta), and winding as integer multiples of theta and
  pi - theta: a weight set is applied afterwards, by ``_weigh``, to a
  histogram that ``_group`` (``_group_packed`` for packed domain keys)
  has grouped once by head (the key without its profile), each distinct
  profile stored once, as columns, and weighed once.

A walk whose length leaves no room for the shortest step is childless:
the search counts and reports it without pushing its crossing.  So is a
walk that reaches a mid-edge on a domain's boundary (the start aside),
since its next step would pass the blocked rhombus outside.

The search counts walks into a ``counts`` dict under one packed int key,
each step adding one precomputed increment.  The low 30 bits hold the
profile, 6 bits per slot and c1 most significant.  A free search keys by
the profile alone.  A domain search packs (end mid-edge, dtheta, dpmt)
above it, each turn count biased into its own field, so sorted keys are
in the order of their tuples.

The free-lattice aggregates enumerate only the walks whose first step
crosses with sign +1 and double every non-empty count: the rotation by
pi about the start maps them one to one onto the sign -1 walks.

Both the free and the domain aggregates split the search along the axis,
the line of straights out of the start.  The walks of straights alone
are counted by the caller; every other walk leaves the axis after k
straights by one of two arcs, and the axis job (k, arc) of
``_axis_walks`` searches those walks.  The jobs run in one process or,
for the free lattice, one per task on a process pool.  The mirror
through the axis swaps the theta- and (pi-theta)-corners of every
rhombus, so it maps walks onto walks of the same length when the two
arcs have the same length (``LengthRule.mirror_symmetric``, true of
every domain search).  Such a search runs the jobs of the first arc
alone; any other rule runs the jobs of both arcs.  Either search keeps
its half, the straights and the first arc's jobs, and applies the mirror
where the half is read: ``_both_signs`` adds each free key with an arc at
its mirror image too, and in ``_group_packed`` each (head, profile) entry
of a grouped form sums its count from the half and from its mirror image.
The full histogram of tuple keys is read off the grouped form by head.
``run_walk_enumeration`` still searches every walk, and is the oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import accumulate, repeat
from operator import add, mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .geometry import (
    PASSAGE,
    STATE_PAIRS,
    STATE_SLOT,
    MidEdge,
    ParallelogramDomain,
    PlaquetteState,
    Rhombus,
    Step,
    step_candidates,
)
from .weights import WeightSet

DEFAULT_STEP_CAP = 40

# (previous state, arriving single state) -> double state; a promotion
# moves a count from the single state's weight slot to the double's
_PROMOTE = {
    (PASSAGE[p][0], PASSAGE[q][0]): code
    for code, pairs in enumerate(STATE_PAIRS) if len(pairs) == 2
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

    @property
    def mirror_symmetric(self) -> bool:
        """The two arcs have one length, so the mirror that swaps theta and
        pi - theta keeps the length of every walk."""
        return self.len_theta_arc == self.len_pi_minus_theta_arc


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
_PROFILE_MASK = (1 << _PROFILE_BITS) - 1
_INC = tuple(0 if s is None else 1 << _SLOT_BITS * (4 - s)
             for s in STATE_SLOT)


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


def _unpack_head(above: int) -> tuple[tuple[int, int, int], int, int]:
    """(end, dtheta, dpmt) from a domain key shifted right by the profile."""
    return (_unpack_mid(above >> 2 * _TURN_BITS),
            (above >> _TURN_BITS & _TURN_MASK) - _TURN_BIAS,
            (above & _TURN_MASK) - _TURN_BIAS)


class _Grouped(NamedTuple):
    """A histogram grouped for ``_weigh``.

    ``columns`` holds the distinct profiles as five columns (the c1 of
    each, ..., the c5 of each) and ``size`` their largest count.
    ``heads`` maps each head to the list of its keys' profile indices and
    the list of their counts, in key order.
    """

    columns: tuple
    size: int
    heads: dict


def _grouped(columns: tuple, heads: dict) -> _Grouped:
    return _Grouped(columns, max(map(max, columns)) if columns[0] else 0,
                    heads)


def _packed_columns(pks: Iterable[int]) -> tuple:
    """The five columns of the packed profiles ``pks``."""
    pks = list(pks)
    return tuple([pk >> _SLOT_BITS * s & _SLOT_MAX for pk in pks]
                 for s in range(4, -1, -1))


def _group_packed(keys: Sequence[int], counts: Sequence[int],
                  label: Callable[[tuple], object]) -> _Grouped:
    """``_group`` of counts[(label(head), profile)] over the full histogram
    of a mirror-halved domain search, read off the half it keeps: sorted
    packed domain keys and their counts.  The heads (end, dtheta, dpmt)
    labelled None are left out; the others come in first-met order.

    Sorted keys hold each head's walks in one run, so each head and its
    mirror image are labelled once, and the runs of heads left out are
    skipped whole.  Each label is finished with its mirror image's: every
    entry of the half is added at its own label and profile, and at its
    mirror image's label and mirrored profile, the straights aside (the
    walks with no arc, their own mirror images).  So each (label, profile)
    is listed once, its count summed.  ``label`` must give the mirror
    images of one label's heads one label, and leave out a head exactly
    when it leaves out its mirror image, as a domain's sides do.
    """
    # the half's runs per (label, label of the mirror image)
    runs: dict = {}
    lo = 0
    while lo < len(keys):
        above = keys[lo] >> _PROFILE_BITS
        hi = bisect_left(keys, above + 1 << _PROFILE_BITS, lo)
        name = label(_unpack_head(above))
        if name is not None:
            image = label(_unpack_head(_mirror_above(above)))
            runs.setdefault((name, image), []).append((lo, hi))
        lo = hi
    index: dict = {}
    heads: dict = {}
    for name, image in runs:
        if name in heads:
            continue
        # one tally and one pair when the label is its own mirror image
        tallies = {name: {}, image: {}}
        for pair in dict.fromkeys([(name, image), (image, name)]):
            here, there = map(tallies.__getitem__, pair)
            for lo, hi in runs.get(pair, ()):
                for pk, n in zip(keys[lo:hi], counts[lo:hi]):
                    pk &= _PROFILE_MASK
                    here[pk] = here.get(pk, 0) + n
                    if pk & ~_C3_FIELD:
                        pk = _mirror_profile(pk)
                        there[pk] = there.get(pk, 0) + n
        for head, tally in tallies.items():
            heads[head] = ([index.setdefault(pk, len(index)) for pk in tally],
                           list(tally.values()))
    return _grouped(_packed_columns(index), heads)


_HV = {"H": 0, "V": 1}
_HV_NAME = ("H", "V")


# _BLOCKED marks a rhombus no walk may pass.
_BLOCKED = len(PlaquetteState)


@lru_cache(maxsize=None)
def _step_rows(lens: tuple[int, int, int], domain_keys: bool) -> dict:
    """The steps out of a crossing (hv, sign) at the origin in the search's
    form for one length rule: per crossing a row [drho, by_prev].

    Every step out of a crossing passes the same rhombus, whose packed int
    is the packed current mid-edge shifted right by one, plus drho.
    by_prev[prev] lists the steps allowed when that rhombus holds state
    code prev (``_BLOCKED`` included), in the order of
    geometry.step_candidates, each as (dmid, state, length, dkey, next
    row, nsign): dmid is the offset of the packed exit mid-edge from the
    packed current one, state the rhombus's state after the step and dkey
    the step's key increment, with dmid and the turn units above the
    profile for domain keys.  A free rhombus admits the three first-visit
    steps; a single arc admits at most the arc around the opposite corner,
    whose dkey moves the first arc's count to the double state; any other
    state admits none.
    """
    rows: dict = {(hv, sign): [] for hv in (0, 1) for sign in (1, -1)}
    for (hv, sign), row in rows.items():
        first, drhos = [], set()
        for s in step_candidates(MidEdge(0, 0, _HV_NAME[hv]), sign=sign):
            nhv, nsign, state = _HV[s.dst.orient], s.exit_sign, s.state_code
            dmid = _pack_mid(s.dst.i, s.dst.j, nhv) - _pack_mid(0, 0, hv)
            dkey = _INC[state]
            if domain_keys:
                dkey += (_pack_domain_key(dmid, *s.turn_units, 0)
                         - _pack_domain_key(0, 0, 0, 0))
            drhos.add(_pack_rho(s.rhombus.i, s.rhombus.j) - _pack_rho(0, 0))
            first.append((dmid, state, lens[STATE_SLOT[state]], dkey,
                          rows[(nhv, nsign)], nsign))
        (drho,) = drhos
        by_prev = [tuple(first)]
        for prev in range(1, _BLOCKED + 1):
            steps = []
            for dmid, state, slen, dkey, nrow, nsign in first:
                double = _PROMOTE.get((prev, state))
                if double is not None:
                    steps.append((dmid, double, slen, dkey + _INC[double]
                                  - _INC[prev] - _INC[state], nrow, nsign))
            by_prev.append(tuple(steps))
        row[:] = [drho, tuple(by_prev)]
    return rows


def _ring(domain: ParallelogramDomain) -> list[int]:
    """Packed rhombi just outside the domain.  Neighbouring rhombi differ
    by one in i or j, so a walk that would leave the domain has to pass one
    of these first; blocking them keeps every walk inside."""
    T, L = domain.T, domain.L
    return [_pack_rho(i, j) for i in range(-1, T + 1) for j in range(-L - 1, L + 2)
            if not (0 <= i < T and -L <= j <= L)]


def _dead_ends(domain: ParallelogramDomain, start: int) -> frozenset:
    """Packed mid-edges on the domain's boundary, but packed ``start``.  A
    walk reaches one through the rhombus inside, so its next step would
    pass the blocked rhombus outside: such a walk is childless."""
    T, L = domain.T, domain.L
    mids = {_pack_mid(i, j, _HV["V"]) for i in (0, T) for j in range(-L, L + 1)}
    mids.update(_pack_mid(i, j, _HV["H"]) for i in range(T) for j in (-L, L + 1))
    mids.discard(start)
    return frozenset(mids)


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


def _searcher(max_length: int, lens: tuple[int, int, int], start: int,
              occ: dict, counts: dict | None, emit: Callable | None,
              crossings: list, dead: frozenset = frozenset()) -> Callable:
    """The backtracking search as rec(cm, row, rlen, key) -> walks.

    rec tries each step of ``row`` (a ``_step_rows`` row) out of packed
    mid-edge ``cm``, reached at length ``rlen`` with key ``key``, and every
    walk below it; it counts and returns the walks it finds.  ``occ`` (the
    packed rhombi's state codes) holds the walk so far and is restored on
    return.  A walk that reaches a packed mid-edge in ``dead`` is counted
    and has no children.

    No visited set is kept.  Both rhombi of a mid-edge the walk has
    crossed have been passed, so the one a step onto it would pass is
    double, straight, or holds an arc through that mid-edge, and the row
    offers no such step.  Only the packed ``start`` can be re-entered, by
    its other rhombus, and rec refuses it by name.
    """
    # a walk longer than this has no step left in the budget
    leaf_len = max_length - min(lens)
    occ_get = occ.get
    count_get = counts.get if counts is not None else None

    def rec(cm, row, rlen, key):
        drho, by_prev = row
        rho = (cm >> 1) + drho
        prev = occ_get(rho, 0)
        walks = 0
        for dmid, state, slen, dkey, nrow, nsign in by_prev[prev]:
            nlen = rlen + slen
            if nlen > max_length:
                continue
            nm = cm + dmid
            if nm == start:
                continue
            nkey = key + dkey
            walks += 1
            if counts is not None:
                counts[nkey] = count_get(nkey, 0) + 1
            if emit is not None:
                crossings.append((*_unpack_mid(nm), nsign))
                emit(crossings)
            if nlen <= leaf_len and nm not in dead:  # else childless
                occ[rho] = state
                walks += rec(nm, nrow, nlen, nkey)
            if emit is not None:
                crossings.pop()
        occ[rho] = prev
        return walks

    return rec


def run_walk_enumeration(
    start: MidEdge,
    max_length: int,
    rule: LengthRule = UNIT_RULE,
    domain: ParallelogramDomain | None = None,
    emit: Callable | None = None,
    signs: Iterable[int] = (-1, 1),
    step_cap: int = DEFAULT_STEP_CAP,
    counts: dict | None = None,
) -> EnumerationStats:
    """Drive the backtracking search over every walk of length <= budget
    whose first step crosses with a sign in ``signs``, and the empty walk.

    ``counts`` (if a dict) gets ``counts[key] += 1`` per walk, the key
    packed as the module docstring says (see ``_unpack_profile`` and
    ``_unpack_head``).  ``emit`` (if given) gets each walk's
    crossing list ``[(i, j, hv, sign), ...]``, which the search goes on to
    change.  This full search is the axis-job searches' oracle.
    """
    max_steps = _step_cap_check(max_length, rule, step_cap, start)
    if max_steps > _SLOT_MAX:
        raise ValueError(
            f"a walk of {max_steps} steps can overflow the {_SLOT_BITS}-bit "
            f"profile slots (at most {_SLOT_MAX} steps)"
        )
    lens = rule.as_tuple()
    rows = _step_rows(lens, domain is not None)

    si, sj, shv = start.i, start.j, _HV[start.orient]
    smid = _pack_mid(si, sj, shv)
    if domain is None:
        occ, key0, dead = {}, 0, frozenset()
    else:
        occ = dict.fromkeys(_ring(domain), _BLOCKED)
        key0 = _pack_domain_key(smid, 0, 0, 0)
        dead = _dead_ends(domain, smid)
    crossings = [(si, sj, shv, 0)]
    rec = _searcher(max_length, lens, smid, occ, counts, emit, crossings, dead)

    # Empty walk.
    if counts is not None:
        counts[key0] = counts.get(key0, 0) + 1
    if emit is not None:
        emit(crossings)
    walks = 1

    # The first steps across the allowed crossing signs, ordered like
    # geometry.step_candidates: by rhombus (each sign passes one), then by
    # exit mid-edge, the order of a row's steps.
    for sign in sorted((s for s in (1, -1) if s in signs),
                       key=lambda s: rows[(shv, s)][0]):
        crossings[0] = (si, sj, shv, sign)  # crossing sign of the first step
        walks += rec(smid, rows[(shv, sign)], 0, key0)

    return EnumerationStats(walks=walks)


# The mirror through the axis swaps the theta- and (pi-theta)-corners of
# every rhombus, so the profile slots c1 <-> c2 and c4 <-> c5.  Through the
# horizontal line of a domain's origin V(0, 0) it also maps V(i, j) to
# V(i, -j) and H(i, j) to H(i, 1 - j), and the turns (dtheta, dpmt) to
# (-dpmt, -dtheta).
_SWAP_LOW = _SLOT_MAX << 3 * _SLOT_BITS | _SLOT_MAX   # the c2 and c5 fields
_C3_FIELD = _SLOT_MAX << 2 * _SLOT_BITS


def _mirror_profile(pk: int) -> int:
    return (pk >> _SLOT_BITS & _SWAP_LOW | (pk & _SWAP_LOW) << _SLOT_BITS
            | pk & _C3_FIELD)


def _mirror_above(above: int) -> int:
    """The mirror of a domain key's (end, dtheta, dpmt) field ``above`` the
    profile."""
    (i, j, hv), dth, dpm = _unpack_head(above)
    return (_pack_domain_key(_pack_mid(i, -j if hv else 1 - j, hv), -dpm, -dth, 0)
            >> _PROFILE_BITS)


def _axis_jobs(points: int, mirrored: bool) -> list[tuple[int, int]]:
    """The axis jobs (k, arc) over ``points`` axis points, largest first:
    the first arc's alone for a mirrored search, else both arcs'."""
    return [(k, arc) for k in range(points) for arc in range(1 if mirrored else 2)]


def _straight(row: list) -> tuple:
    """The straight among a row's first-visit steps."""
    return next(step for step in row[1][0] if STATE_SLOT[step[1]] == 2)


def _axis_walks(max_length: int, lens: tuple[int, int, int], row: list,
                cm: int, key: int, occ: dict, jobs: list, counts: dict,
                dead: frozenset = frozenset()) -> int:
    """``counts[key] += 1`` over the walks of the axis jobs ``jobs``, sorted
    by k; returns their number.  The axis is the line of straights out of
    packed mid-edge ``cm`` (empty-walk key ``key``, first steps ``row``);
    the job (k, arc) covers the walks that take k straights along it and
    then leave it by arc number ``arc`` of ``row``.  The rhombus ahead of
    every axis point is free or blocked, so a job's row offers its arc to
    a free rhombus alone."""
    rec = _searcher(max_length, lens, cm, occ, counts, None, [], dead)
    drho, by_prev = row
    blocked = ((),) * (len(by_prev) - 1)
    arcs = [[drho, ((step,), *blocked)]
            for step in by_prev[0] if STATE_SLOT[step[1]] != 2]
    dmid, state, slen, dkey, _, _ = _straight(row)
    walks = rlen = laid = 0
    for k, arc in jobs:
        while laid < k:
            occ[(cm >> 1) + drho] = state
            cm += dmid
            key += dkey
            rlen += slen
            laid += 1
        walks += rec(cm, arcs[arc], rlen, key)
    return walks


def domain_counts(domain: ParallelogramDomain, counts: dict) -> EnumerationStats:
    """``counts[key] += 1`` over the half of the walks in ``domain`` from
    its origin that a mirror-halved search visits, keyed like
    ``run_walk_enumeration``'s.

    The walks of k straights along the axis, k = 0..T, are their own
    mirror images.  Every other walk leaves the axis first by the bottom
    or the top arc of some R(k, 0), and the mirror maps the one set onto
    the other.  So this counts the straights and the walks of the bottom
    arc's axis jobs; ``_group_packed`` folds in the other half's counts.
    The straights are the only walks counted with no arc in their profile.
    The returned ``walks`` is the number of walks visited.
    """
    max_steps = 2 * domain.n_rhombi  # each rhombus is passed at most twice
    if max_steps > _SLOT_MAX:
        raise ValueError(
            f"a domain of {domain.n_rhombi} rhombi can overflow the "
            f"{_SLOT_BITS}-bit profile slots")
    lens = UNIT_RULE.as_tuple()
    cm = _pack_mid(domain.origin.i, domain.origin.j, _HV[domain.origin.orient])
    key = _pack_domain_key(cm, 0, 0, 0)
    # out of V(k, 0) crossed rightward, into R(k, 0); R(T, 0) is blocked
    row = _step_rows(lens, True)[(_HV["V"], domain.origin_sign)]
    points, straight = domain.T + 1, _straight(row)[3]
    for k in range(points):  # the empty walk and the walks of straights
        counts[key + k * straight] = counts.get(key + k * straight, 0) + 1
    walks = _axis_walks(max_steps, lens, row, cm, key,
                        dict.fromkeys(_ring(domain), _BLOCKED),
                        _axis_jobs(points, True), counts, _dead_ends(domain, cm))
    return EnumerationStats(walks=points + walks)


def profile_weight(profile, tables) -> float:
    """The weight of one profile from power tables; ``_weigh`` multiplies
    its columns in this order."""
    t1, t2, t3, t4, t5 = tables
    return (t1[profile[0]] * t2[profile[1]] * t3[profile[2]]
            * t4[profile[3]] * t5[profile[4]])


def _group(hist: Mapping) -> _Grouped:
    """A histogram whose keys end with the profile (c1, ..., c5), grouped
    for ``_weigh``: the distinct profiles once each, and per head
    ``key[:-1]``, in first-met order, the list of its keys' profile
    indices and the list of their counts, in key order."""
    index: dict = {}
    heads: dict = {}
    for key, n in hist.items():
        k = index.setdefault(key[-1], len(index))
        group = heads.get(key[:-1])
        if group is None:
            group = heads[key[:-1]] = ([], [])
        group[0].append(k)
        group[1].append(n)
    return _grouped(tuple(zip(*index)) or ((),) * 5, heads)


def _weigh(grouped: _Grouped, w: WeightSet) -> dict:
    """{head: sum of n * weight(profile)} over a histogram grouped by
    ``_group`` or ``_group_packed``, heads in its order.

    Each distinct profile is weighed once, column by column from power
    tables as long as its grouped form's largest count, and as
    ``profile_weight`` multiplies.  Each head adds its terms from 0.0 in
    the order of its lists; ``reduce`` keeps that order on every Python,
    where ``sum`` compensates float sums from 3.12 on.  So every grouped
    form weighs as a fold over its own entries, bit for bit; for
    ``_group`` those are the histogram's keys.
    """
    columns, size, heads = grouped
    tables = (list(accumulate(repeat(x, size), mul, initial=1.0))
              for x in w.as_tuple())
    # t1[c1] * t2[c2] * ... * t5[c5] per profile, in profile_weight's order
    weight = list(reduce(partial(map, mul),
                         map(map, (t.__getitem__ for t in tables), columns)))
    weight = weight.__getitem__
    return {head: reduce(add, map(mul, counts, map(weight, idx)), 0.0)
            for head, (idx, counts) in heads.items()}


# ---------------------------------------------------------------------------
# Walk objects: the contract-level representation.


@dataclass(frozen=True)
class Walk:
    """A fully materialised walk with its per-rhombus state ledger."""

    start: MidEdge
    steps: tuple[Step, ...]
    occupancy: Mapping[Rhombus, PlaquetteState]

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
        return sum(lens[STATE_SLOT[s.state_code]] for s in self.steps)

    def profile(self) -> tuple[int, int, int, int, int]:
        c = [0, 0, 0, 0, 0]
        for st in self.occupancy.values():
            c[STATE_SLOT[st]] += 1
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
                    "inadmissible plaquette reuse: "
                    f"{PlaquetteState(prev).name} + {s.component} "
                    f"in {s.rhombus}")
        occ[s.rhombus] = code
    return {r: PlaquetteState(code) for r, code in occ.items()}


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
    return Walk(start=start, steps=steps, occupancy=occ)


def weight_of(walk: Walk, w: WeightSet) -> float:
    """Product of final plaquette-state weights (the weight contract)."""
    weights = w.as_tuple()
    slots = (STATE_SLOT[st] for st in walk.occupancy.values())
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


def _free_job(args) -> tuple[dict, int]:
    """(counts[pk], walks) over the sign +1 free-lattice walks of the axis
    jobs in ``args`` = (n_max, lens, orient, jobs); a pool task."""
    n_max, lens, orient, jobs = args
    hv = _HV[orient]
    counts: dict = {}
    walks = _axis_walks(n_max, lens, _step_rows(lens, False)[(hv, 1)],
                        _pack_mid(0, 0, hv), 0, {}, jobs, counts)
    return counts, walks


def _free_counts(n_max: int, rule: LengthRule, orient: str, counts: dict,
                 workers: int = 1,
                 meanwhile: Callable[[], None] | None = None) -> EnumerationStats:
    """``counts[pk] += n`` over the free-lattice walks whose first step
    crosses with sign +1 (the empty walk included) that the search visits:
    under a mirror-symmetric rule the straights and the first arc's axis
    jobs alone, whose mirror images ``_both_signs`` adds.  The axis jobs
    run in this process or, for ``workers`` > 1, one per task on a pool of
    at most that many processes; ``meanwhile`` is then called in this
    process while the pool searches, before the jobs' counts are
    collected.  The returned ``walks`` is the number of walks visited."""
    # checks the budget before any pool starts, and counts the empty walk
    stats = run_walk_enumeration(MidEdge(0, 0, orient), n_max, rule, signs=(),
                                 counts=counts)
    lens = rule.as_tuple()
    points = n_max // rule.len_straight + 1
    straight = _straight(_step_rows(lens, False)[(_HV[orient], 1)])[3]
    for k in range(1, points):  # the walks of straights
        counts[k * straight] = counts.get(k * straight, 0) + 1
    stats.walks += points - 1
    jobs = _axis_jobs(points, rule.mirror_symmetric)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # leaving the block joins the pool; when ``meanwhile`` raises, the
        # jobs no worker has started are cancelled first
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            parts = pool.map(_free_job, [(n_max, lens, orient, [job])
                                         for job in jobs])
            if meanwhile is not None:
                try:
                    meanwhile()
                except BaseException:
                    pool.shutdown(wait=True, cancel_futures=True)
                    raise
            parts = list(parts)
    else:
        parts = [_free_job((n_max, lens, orient, jobs))]
    for part, walks in parts:
        for pk, n in part.items():
            counts[pk] = counts.get(pk, 0) + n
        stats.walks += walks
    return stats


def _both_signs(counts: dict, rule: LengthRule) -> dict:
    """counts[(rlen, profile)] over all free-lattice walks, sorted, from the
    counts of ``_free_counts``.

    Under a mirror-symmetric rule each count with an arc also counts at its
    mirror image; the straights are their own images.  Then the rotation by
    pi about the start maps the sign +1 walks one to one onto the sign -1
    walks, with the same states, so every non-empty count doubles.  Each
    passage adds its length to its weight slot, a double state two arcs of
    one class, so the length follows from the profile.
    """
    if rule.mirror_symmetric:
        half, counts = counts, {}
        for pk, n in half.items():
            counts[pk] = counts.get(pk, 0) + n
            if pk & ~_C3_FIELD:
                pk = _mirror_profile(pk)
                counts[pk] = counts.get(pk, 0) + n
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
    with keys in sorted order.

    The search visits the sign +1 walks only (the pi rotation gives the
    others) and, under a mirror-symmetric rule, about half of those (the
    mirror through the axis gives the rest).
    """
    counts: dict = {}
    _free_counts(n_max, rule, orient, counts)
    return _both_signs(counts, rule)


def free_walk_aggregate_parallel(n_max: int, rule: LengthRule = UNIT_RULE,
                                 orient: str = "H", workers: int = 1, *,
                                 meanwhile: Callable[[], None] | None = None
                                 ) -> dict:
    """``free_walk_aggregate`` with its axis jobs mapped over a pool of at
    most ``workers`` processes, for any rule; one worker gets the cached
    aggregate.  The parent checks the budget before the pool starts, sums
    the jobs' counts and adds the mirror, so the result equals the
    sequential one, keys in the same order.

    ``meanwhile``, if given, is the parent's own work: it is called once
    the jobs are on the pool, while the pool searches, and before their
    counts are collected; with one worker, after the cached aggregate.
    Its exception cancels the jobs not yet started and propagates once the
    pool is joined."""
    if workers <= 1:
        agg = free_walk_aggregate(n_max, rule, orient)
        if meanwhile is not None:
            meanwhile()
        return agg
    counts: dict = {}
    _free_counts(n_max, rule, orient, counts, workers, meanwhile)
    return _both_signs(counts, rule)


def weighted_length_sums(n_max: int, w: WeightSet,
                         rule: LengthRule = UNIT_RULE, orient: str = "H",
                         workers: int = 1, *,
                         meanwhile: Callable[[], None] | None = None
                         ) -> list[float]:
    """Sum of walk weights per exact length 0..n_max on the free lattice.

    ``meanwhile`` is passed to ``free_walk_aggregate_parallel``: with
    ``workers`` > 1 it runs in this process while the pool searches."""
    agg = free_walk_aggregate_parallel(n_max, rule, orient, workers,
                                       meanwhile=meanwhile)
    sums = [0.0] * (n_max + 1)
    for (rlen,), x in _weigh(_group(agg), w).items():
        sums[rlen] = x
    return sums


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
