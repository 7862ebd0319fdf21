"""Exhaustive enumeration of weighted self-avoiding walks.

A walk is a self-avoiding sequence of mid-edges, each step passing one
rhombus, and a rhombus visited twice (by two arcs around opposite
corners) is re-weighted as a double-arc state rather than a product of
single arcs.  The search only counts: it is a depth-first backtracker
over exact integer state,

* the current mid-edge as a packed integer, each step adding a fixed
  offset, and no set of visited ones: a step onto a crossed mid-edge
  passes a rhombus whose state refuses it, so only the start is
  refused by name,
* per-rhombus plaquette states as small ints in a dict, read once per
  node (every step out of a crossing passes the same rhombus, and its
  state selects the allowed steps) and restored once,
* walk weight as the profile (c1, ..., c5), the counts of rhombi whose
  final state is a theta-arc / (pi-theta)-arc / straight / double-theta
  / double-(pi-theta), and winding as integer multiples of theta and
  pi - theta: a weight set is applied afterwards.  Every histogram is
  weighed by ``_weigh`` from one interned form (profiles, heads): its
  distinct profiles, and per head the indices of its profiles in that
  list and their counts.  ``_group_packed`` builds it from the packed
  domain half.  A free aggregate and a loop patch are each a
  ``Histogram``, a dict of tuple keys that carries the form ``_group``
  built with it, and a free one the length budget it was enumerated to.

A walk whose length leaves no room for the shortest step is childless:
the search counts it without searching below it.  So is a walk that
reaches a mid-edge on a domain's boundary (the start aside), since its
next step would leave the domain, and a start's first steps pass only
the rhombi inside.  So the search reads a domain off its geometry
alone: ``contains_rhombus``, ``mid_edges`` and ``side_of``, origin and T.
A walk whose children are all childless, a leaf parent, is counted but
not searched either: its leaves follow from its key, its length, its
row of steps and the state of the rhombus ahead, so the search tallies
leaf parents under those four and counts their leaves in bulk after the
last job.  A walk whose children are all leaf parents, a grandparent,
is tallied too, under the states of the three rhombi beyond the exits
of the rhombus ahead as well, and its children and grandchildren are
counted in bulk.  Neither tally takes a walk whose tally reads one of
the start's two rhombi (a step onto the start is refused by name), and
only a search without dead ends, a free one, tallies grandparents.  The
domain aggregates, at a budget of twice the rhombus count, have no leaf
parent on any shape of at most 24 rhombi: their walks meet the boundary
first.

The search counts walks into a ``counts`` dict under one packed int key,
each step adding one precomputed increment, and keeps nothing else: the
number of walks it visits is ``sum(counts.values())``.  The low 30 bits
hold the profile, 6 bits per slot and c1 most significant.  A free search
keys by the profile alone.  A domain search packs (end mid-edge, dtheta,
dpmt) above it, each turn count biased into its own field, so sorted keys
are in the order of their tuples.

The free-lattice aggregates enumerate only the walks whose first step
crosses with sign +1 and double every non-empty count: the rotation by
pi about the start maps them one to one onto the sign -1 walks.

Both the free and the domain aggregates split the search along the axis,
the line of straights out of the start.  The walks of straights alone
are counted by the caller; every other walk leaves the axis after k
straights by one of two arcs, and the axis job (k, arc) of
``_axis_walks`` searches those walks; a free job whose one-arc walk has
descendants to search splits into three sub-jobs, one per step beyond
the arc.  The jobs run in one process or, for the free lattice, on
forked processes, the caller's included, that draw them off one queue
(``jobqueue``).  The mirror
through the axis swaps the theta- and (pi-theta)-corners of every
rhombus, so it maps walks onto walks of the same length when the two
arcs have the same length (``LengthRule.mirror_symmetric``, true of
every domain search).  Such a search runs the jobs of the first arc
alone; any other rule runs the jobs of both arcs.  Either search keeps
its half, the straights and the first arc's jobs, and applies the mirror
where the half is read: ``_both_signs`` adds each free key with an arc at
its mirror image too, and in ``_group_packed`` each (head, profile) entry
sums its count from the half and from its mirror image.  A domain's
histogram of tuple keys is read off its interned form by head.
``run_walk_enumeration`` still searches every walk, and is the oracle.
``enumerate_walks`` visits ``Walk`` objects through a plain search.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

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
# counts at most one rhombus per step, so ``_searcher`` refuses more than
# _SLOT_MAX steps, and the re-weight's power tables run to _SLOT_MAX.
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


def _group_packed(keys: Sequence[int], counts: Sequence[int],
                  label: Callable[[tuple], object]) -> tuple[list, dict]:
    """(profiles, {label: (indices, counts)}): counts[(label(head),
    profile)] over the full histogram of a mirror-halved domain search,
    read off the half it keeps: sorted packed domain keys and their
    counts.  The heads (end, dtheta, dpmt) labelled None are left out; the
    others come in first-met order, each with the indices of its profiles
    in ``profiles`` and the list of their counts.  ``profiles`` holds each
    distinct profile of the labelled heads once, decoded to a tuple, in
    first-met order.

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
    index: dict = {}  # packed profile -> its index in the profiles
    intern = index.setdefault
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
            heads[head] = ([intern(pk, len(index)) for pk in tally],
                           list(tally.values()))
    return list(map(_unpack_profile, index)), heads


_HV = {"H": 0, "V": 1}
_HV_NAME = ("H", "V")


@lru_cache(maxsize=None)
def _step_rows(lens: tuple[int, int, int], domain_keys: bool) -> dict:
    """The steps out of a crossing (hv, sign) at the origin in the search's
    form for one length rule: per crossing a row
    [drho, by_prev, rid, exits].

    Every step out of a crossing passes the same rhombus, whose packed int
    is the packed current mid-edge shifted right by one, plus drho.
    by_prev[prev] lists the steps allowed when that rhombus holds state
    code prev, in the order of geometry.step_candidates, each as (dmid,
    state, length, dkey, next row): dmid is the offset of the packed exit
    mid-edge from the packed current one, state the rhombus's state after
    the step and dkey the step's key increment, with dmid and the turn
    units above the profile for domain keys.  A free rhombus admits the
    three first-visit steps; a single arc admits at most the arc around
    the opposite corner, whose dkey moves the first arc's count to the
    double state; any other state admits none.  rid, 0 to 3, names the
    row in ``_searcher``'s tallies.  exits holds, per first-visit step,
    the offset from the packed current mid-edge shifted right by one to
    the packed rhombus ahead of the step's exit, ((hv + dmid) >> 1) plus
    the next row's drho: the rhombi that the walk's grandchildren pass.
    """
    rows: dict = {(hv, sign): [] for hv in (0, 1) for sign in (1, -1)}
    for rid, ((hv, sign), row) in enumerate(rows.items()):
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
                          rows[(nhv, nsign)]))
        (drho,) = drhos
        by_prev = [tuple(first)]
        for prev in range(1, len(PlaquetteState)):
            steps = []
            for dmid, state, slen, dkey, nrow in first:
                double = _PROMOTE.get((prev, state))
                if double is not None:
                    steps.append((dmid, double, slen, dkey + _INC[double]
                                  - _INC[prev] - _INC[state], nrow))
            by_prev.append(tuple(steps))
        row[:] = [drho, tuple(by_prev), rid]
    for (hv, _), row in rows.items():
        row.append(tuple(((hv + dmid) >> 1) + nrow[0]
                         for dmid, _, _, _, nrow in row[1][0]))
    return rows


def _dead_ends(domain: ParallelogramDomain, start: MidEdge) -> frozenset:
    """Packed mid-edges on the domain's boundary, but ``start``.  A walk
    reaches one through the rhombus inside, so its next step would leave
    the domain: such a walk is childless."""
    return frozenset(_pack_mid(m.i, m.j, _HV[m.orient]) for m in domain.mid_edges()
                     if m != start and domain.side_of(m) != "interior")


@dataclass
class EnumerationStats:
    walks: int = 0


def _step_cap_check(max_length: int, rule: LengthRule, step_cap: int,
                    start: MidEdge,
                    domain: ParallelogramDomain | None = None) -> int:
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if domain is not None and domain.side_of(start) is None:
        raise ValueError(f"start {start} is not a mid-edge of the domain")
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


def _folds(max_length: int, lens: tuple[int, int, int],
           dead: frozenset) -> tuple[int, int, int]:
    """(leaf_len, fold, fold2) of a search: a walk longer than leaf_len has
    no step left in the budget, one of length fold or more has no
    grandchild, and one of length fold2 or more no great-grandchild; a
    search with dead ends tallies no grandparent."""
    leaf_len = max_length - min(lens)
    fold = leaf_len - min(lens) + 1
    return leaf_len, fold, fold if dead else fold - min(lens)


def _searcher(max_length: int, lens: tuple[int, int, int], rows: dict,
              start: int, occ: dict, counts: dict,
              dead: frozenset = frozenset()) -> tuple[Callable, Callable]:
    """The backtracking search as (rec, finish).

    rec(cm, row, rlen, key) tries each step of ``row`` (a row of ``rows``,
    the ``_step_rows`` of the search) out of packed mid-edge ``cm``,
    reached at length ``rlen`` with key ``key``, and every walk below it;
    it adds one to ``counts`` at the key of each walk it finds, but for
    the walks it tallies.  ``occ`` (the packed rhombi's state codes) holds
    the walk so far and is restored on return.  A walk that reaches a
    packed mid-edge in ``dead`` is counted and has no children.  finish(),
    called once after the last rec, counts the tallied walks.  Neither
    returns anything: ``counts`` is the search's one record.

    A walk longer than ``max_length - 2 * min(lens)`` has only childless
    children, the leaves.  Each leaf's key is its parent's plus the step's
    dkey, and which steps fit depends only on the parent's length, its
    row and the state of the rhombus ahead.  So rec counts such a parent
    and adds one to a tally under (key, length offset, row id, state
    ahead) instead of searching it, and finish adds m leaves per step that
    fits for an entry seen m times.  A parent in ``dead`` has no leaves.

    A walk longer than ``max_length - 3 * min(lens)`` has only leaf
    parents and leaves as children, and its subtree depends on the states
    of four rhombi: the one ahead, whose state picks its children, and the
    one beyond each of that rhombus's three exits, which picks a child's
    leaves.  None of the four is the rhombus the walk passed last (two
    rhombi share at most one mid-edge), so their states are the walk's.
    So rec counts such a grandparent and adds one to a second tally under
    (key, length offset, row id, state ahead, three states beyond), and
    finish adds each entry's children that fit, m times, and tallies
    those with room for a leaf as leaf parents, before it counts the
    leaves.  Only a search without dead ends tallies grandparents, since a
    child in ``dead`` would have no leaves.

    No visited set is kept.  Both rhombi of a mid-edge the walk has
    crossed have been passed, so the one a step onto it would pass is
    double, straight, or holds an arc through that mid-edge, and the row
    offers no such step.  Only the packed ``start`` can be re-entered, by
    its other rhombus, and rec refuses it by name.  So a walk is searched,
    not tallied, when the rhombus ahead or, for a grandparent, one beyond
    it is one of the start's two.
    """
    max_steps = max_length // min(lens)
    if max_steps > _SLOT_MAX:
        raise ValueError(f"a walk of {max_steps} steps can overflow the "
                         f"profile slots (at most {_SLOT_MAX} steps)")
    leaf_len, fold, fold2 = _folds(max_length, lens, dead)
    by_id = {row[2]: row[1] for row in rows.values()}
    guard = {(start >> 1) + rows[(start & 1, sign)][0] for sign in (1, -1)}
    leaves: defaultdict = defaultdict(int)
    grand: defaultdict = defaultdict(int)
    occ_get = occ.get
    count_get = counts.get

    def rec(cm, row, rlen, key):
        drho, by_prev, _, _ = row
        rho = (cm >> 1) + drho
        prev = occ_get(rho, 0)
        for dmid, state, slen, dkey, nrow in by_prev[prev]:
            nlen = rlen + slen
            if nlen > max_length:
                continue
            nm = cm + dmid
            if nm == start:
                continue
            nkey = key + dkey
            counts[nkey] = count_get(nkey, 0) + 1
            if nlen >= fold2:
                if nlen > leaf_len or nm in dead:
                    continue  # childless
                here = nm >> 1
                ahead = here + nrow[0]
                if nlen >= fold:
                    if ahead not in guard:  # a leaf parent
                        entry = (nkey, nlen - fold, nrow[2],
                                 occ_get(ahead, 0))
                        leaves[entry] += 1
                        continue
                else:
                    b0, b1, b2 = nrow[3]
                    b0 += here
                    b1 += here
                    b2 += here
                    if not (ahead in guard or b0 in guard or b1 in guard
                            or b2 in guard):  # a grandparent of leaves
                        entry = (nkey, nlen - fold2, nrow[2],
                                 occ_get(ahead, 0), occ_get(b0, 0),
                                 occ_get(b1, 0), occ_get(b2, 0))
                        grand[entry] += 1
                        continue
            elif nm in dead:
                continue  # childless
            occ[rho] = state
            rec(nm, nrow, nlen, nkey)
        occ[rho] = prev

    def finish():
        # a grandparent's children, then every leaf parent's leaves
        for (key, offset, rid, ahead, *beyond), m in grand.items():
            nlen = fold2 + offset
            by_prev = by_id[rid]
            beyond = dict(zip((step[0] for step in by_prev[0]), beyond))
            for dmid, _, slen, dkey, nrow in by_prev[ahead]:
                clen = nlen + slen
                if clen <= max_length:
                    nkey = key + dkey
                    counts[nkey] = count_get(nkey, 0) + m
                    if clen <= leaf_len:
                        leaves[(nkey, clen - fold, nrow[2], beyond[dmid])] += m
        for (key, offset, rid, ahead), m in leaves.items():
            room = max_length - fold - offset
            for _, _, slen, dkey, _ in by_id[rid][ahead]:
                if slen <= room:
                    counts[key + dkey] = count_get(key + dkey, 0) + m

    return rec, finish


def run_walk_enumeration(
    start: MidEdge,
    max_length: int,
    rule: LengthRule = UNIT_RULE,
    domain: ParallelogramDomain | None = None,
    emit: None = None,
    signs: Iterable[int] = (-1, 1),
    step_cap: int = DEFAULT_STEP_CAP,
    counts: dict | None = None,
) -> EnumerationStats:
    """Count every walk of length <= budget whose first step crosses with
    a sign in ``signs``, and the empty walk.

    ``counts`` (a fresh dict when None) gets ``counts[key] += 1`` per walk,
    the key packed as the module docstring says (see ``_unpack_profile``
    and ``_unpack_head``).  The returned ``walks`` is the number this call
    added to ``counts``.  ``emit`` must be None, else ``TypeError`` is
    raised; ROADMAP item 1 deletes the keyword.  This full search is the
    axis-job searches' oracle.
    """
    if emit is not None:
        raise TypeError("run_walk_enumeration only counts; see enumerate_walks")
    _step_cap_check(max_length, rule, step_cap, start, domain)
    counts = {} if counts is None else counts
    before = sum(counts.values())
    lens = rule.as_tuple()
    rows = _step_rows(lens, domain is not None)

    shv = _HV[start.orient]
    smid = _pack_mid(start.i, start.j, shv)
    if domain is None:
        key0, dead = 0, frozenset()
    else:
        key0, dead = _pack_domain_key(smid, 0, 0, 0), _dead_ends(domain, start)
    rec, finish = _searcher(max_length, lens, rows, smid, {}, counts, dead)

    counts[key0] = counts.get(key0, 0) + 1  # the empty walk
    # the first steps, ordered like geometry.step_candidates: by rhombus
    # (each sign passes one, a domain's only inside it), then by exit
    # mid-edge, as a row's steps are
    for rhombus, sign in sorted(zip(start.rhombi(), (1, -1))):
        if sign in signs and (domain is None or domain.contains_rhombus(rhombus)):
            rec(smid, rows[(shv, sign)], 0, key0)
    finish()
    return EnumerationStats(walks=sum(counts.values()) - before)


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


def _axis_jobs(points: int, arcs: Sequence[int], len_straight: int = 1,
               fold2: int = 0) -> list[tuple[int, int, int | None]]:
    """The axis jobs (k, arc, sub) over ``points`` axis points and the arcs
    of lengths ``arcs``, largest first.  A job whose one-arc walk, of
    length k * len_straight + arcs[arc], is shorter than ``fold2`` (the
    search would search below it) is split into the sub-jobs sub = 0, 1,
    2, one per step out of the free rhombus beyond its arc; sub None is a
    whole job."""
    return [(k, arc, sub) for k in range(points) for arc, alen in enumerate(arcs)
            for sub in (range(3) if k * len_straight + alen < fold2 else (None,))]


def _straight(row: list) -> tuple:
    """The straight among a row's first-visit steps."""
    return next(step for step in row[1][0] if STATE_SLOT[step[1]] == 2)


def _arcs(row: list) -> list[tuple]:
    """The two arcs among a row's first-visit steps, in the row's order."""
    return [step for step in row[1][0] if STATE_SLOT[step[1]] != 2]


def _axis_walks(max_length: int, lens: tuple[int, int, int], rows: dict,
                crossing: tuple[int, int], cm: int, key: int,
                jobs: Iterable[tuple[int, int, int | None]], counts: dict,
                dead: frozenset = frozenset()) -> None:
    """``counts[key] += 1`` over the walks of the axis jobs ``jobs``
    (``_axis_jobs``), met in increasing k.  The axis is the line of
    straights out of packed mid-edge ``cm`` (empty-walk key ``key``, first
    steps ``rows[crossing]``); the job (k, arc, None) covers the walks that
    take k straights along it and then leave it by arc number ``arc`` of
    the row.  The rhombus ahead of a job's axis point is free, so a job's
    row lists its arc for a free rhombus alone.  So is the rhombus beyond
    the arc, off the axis: the sub-job (k, arc, sub) covers the walks of
    the job that go on by step number ``sub`` out of it, and sub-job 0
    also the walk that ends with the arc."""
    occ: dict = {}
    rec, finish = _searcher(max_length, lens, rows, cm, occ, counts, dead)
    drho, by_prev, _, _ = row = rows[crossing]
    arcs = _arcs(row)
    whole = [[drho, ((arc,),), None, None] for arc in arcs]
    beyond = [[[nrow[0], ((step,),), None, None] for step in nrow[1][0]]
              for *_, nrow in arcs]
    dmid, state, slen, dkey, _ = _straight(row)
    rlen = laid = 0
    for k, arc, sub in jobs:
        while laid < k:
            occ[(cm >> 1) + drho] = state
            cm += dmid
            key += dkey
            rlen += slen
            laid += 1
        if sub is None:
            rec(cm, whole[arc], rlen, key)
            continue
        amid, astate, alen, akey, _ = arcs[arc]
        rho = (cm >> 1) + drho
        occ[rho] = astate
        if sub == 0:
            counts[key + akey] = counts.get(key + akey, 0) + 1
        rec(cm + amid, beyond[arc][sub], rlen + alen, key + akey)
        occ[rho] = 0
    finish()


def domain_counts(domain: ParallelogramDomain, counts: dict) -> None:
    """``counts[key] += 1`` over the half of the walks in ``domain`` from
    its origin that a mirror-halved search visits, keyed like
    ``run_walk_enumeration``'s.

    The walks of k straights along the axis, k = 0..T, are their own
    mirror images.  Every other walk leaves the axis first by the bottom
    or the top arc of some R(k, 0), k < T, and the mirror maps the one set
    onto the other.  So this counts the straights and the walks of the bottom
    arc's axis jobs; ``_group_packed`` folds in the other half's counts.
    The straights are the only walks counted with no arc in their profile.
    """
    lens = UNIT_RULE.as_tuple()
    cm = _pack_mid(domain.origin.i, domain.origin.j, _HV[domain.origin.orient])
    key = _pack_domain_key(cm, 0, 0, 0)
    # out of V(k, 0) crossed rightward, into R(k, 0); R(T, 0) is outside
    rows, crossing = _step_rows(lens, True), (_HV["V"], domain.origin_sign)
    # each rhombus is passed at most twice; the axis jobs' search refuses
    # a budget beyond the profile slots before anything is counted
    _axis_walks(2 * domain.n_rhombi, lens, rows, crossing, cm, key,
                _axis_jobs(domain.T, (1,)), counts,
                _dead_ends(domain, domain.origin))
    straight = _straight(rows[crossing])[3]
    for k in range(domain.T + 1):  # the empty walk and the walks of straights
        counts[key + k * straight] = counts.get(key + k * straight, 0) + 1


@lru_cache(maxsize=32)
def _power_tables(w: WeightSet) -> tuple[tuple[float, ...], ...]:
    """Per weight x of ``w``, the powers 1.0, x, x*x, ... of x up to
    x**_SLOT_MAX, each the one before times x.  Built once per weight set
    (every re-weight at one angle and fugacity shares them), as tuples,
    so no reader can change a cached table."""
    return tuple(tuple(accumulate(repeat(x, _SLOT_MAX), mul, initial=1.0))
                 for x in w.as_tuple())


def profile_weight(profile, tables) -> float:
    """The weight t1[c1] * t2[c2] * ... * t5[c5] of the profile (c1, ...,
    c5) from ``_power_tables``, multiplied left to right."""
    t1, t2, t3, t4, t5 = tables
    return (t1[profile[0]] * t2[profile[1]] * t3[profile[2]]
            * t4[profile[3]] * t5[profile[4]])


def _weigh(grouped: tuple[list, dict], w: WeightSet) -> dict:
    """{head: 0.0 + n * weight + ...} over the interned form (profiles,
    {head: (indices, counts)}), in order.  Each distinct profile is
    weighed once, by ``profile_weight`` from power tables up to
    ``_SLOT_MAX``, and each entry reads its profile's weight by index.  A
    plain loop keeps the entry order on every Python; ``sum`` compensates
    float sums from 3.12."""
    profiles, heads = grouped
    tables = _power_tables(w)
    weights = [profile_weight(profile, tables) for profile in profiles]
    sums = {}
    for head, (indices, counts) in heads.items():
        total = 0.0
        for i, n in zip(indices, counts):
            total += n * weights[i]
        sums[head] = total
    return sums


def _group(items: Iterable[tuple[tuple, int]]) -> tuple[list, dict]:
    """The interned form (profiles, {head: (indices, counts)}) for
    ``_weigh`` from ((head, profile), n) pairs: the distinct profiles,
    heads and each head's entries in first-met order."""
    index: dict = {}  # profile -> its index in the profiles
    intern = index.setdefault
    heads: dict = {}
    for (head, profile), n in items:
        indices, counts = heads.setdefault(head, ([], []))
        indices.append(intern(profile, len(index)))
        counts.append(n)
    return list(index), heads


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


def enumerate_walks(
    start: MidEdge,
    max_length: int,
    rule: LengthRule = UNIT_RULE,
    domain: ParallelogramDomain | None = None,
    visitor: Callable[[Walk], None] | None = None,
    signs: Iterable[int] = (-1, 1),
    step_cap: int = DEFAULT_STEP_CAP,
) -> EnumerationStats:
    """Visit every self-avoiding walk from ``start`` with length <= budget
    whose first step crosses with a sign in ``signs``, inside ``domain`` if
    one is given.

    The visitor sees each walk exactly once (the empty walk included), in
    the order of a plain depth-first search through
    geometry.step_candidates: a set of visited mid-edges, and per passed
    rhombus its state, a second passage promoted through ``_PROMOTE`` or
    refused.  Heavy consumers count with ``run_walk_enumeration`` instead.
    """
    _step_cap_check(max_length, rule, step_cap, start, domain)
    lens = rule.as_tuple()
    leaf_len = max_length - min(lens)  # no step fits after a longer walk
    visited = {start}

    def rec(steps: tuple, occ: dict, rlen: int, candidates: list) -> int:
        if visitor is not None:
            visitor(Walk(start, steps, occ))
        walks = 1
        for s in candidates:
            single, prev = s.state_code, occ.get(s.rhombus)
            code = single if prev is None else _PROMOTE.get((prev, single))
            nlen = rlen + lens[STATE_SLOT[single]]
            if code is None or nlen > max_length or s.dst in visited:
                continue
            visited.add(s.dst)
            walks += rec(steps + (s,), {**occ, s.rhombus: PlaquetteState(code)},
                         nlen, step_candidates(s.dst, domain, s.exit_sign)
                         if nlen <= leaf_len else ())
            visited.remove(s.dst)
        return walks

    return EnumerationStats(walks=rec((), {}, 0, [
        s for s in step_candidates(start, domain) if s.entry_sign in signs]))


# ---------------------------------------------------------------------------
# Aggregates.  Enumeration is independent of theta and of the weights, so
# combinatorial aggregates are cached and re-weighted per family.


def _free_counts(n_max: int, rule: LengthRule, orient: str, counts: dict,
                 workers: int = 1,
                 meanwhile: Callable[[], None] | None = None) -> None:
    """``counts[pk] += n`` over the free-lattice walks whose first step
    crosses with sign +1 (the empty walk included) that the search visits:
    under a mirror-symmetric rule the straights and the first arc's axis
    jobs alone, whose mirror images ``_both_signs`` adds.  Every job whose
    one-arc walk the search would search below is split into its three
    sub-jobs.  The jobs run in this process or, for ``workers`` > 1, on
    at most that many processes, this one included, that draw them off
    one queue (``jobqueue.run``); ``meanwhile`` is then called in this
    process while the others search, before it draws jobs itself."""
    # only checks the budget, before any process is forked
    run_walk_enumeration(MidEdge(0, 0, orient), n_max, rule, signs=())
    lens = rule.as_tuple()
    hv = _HV[orient]
    rows = _step_rows(lens, False)
    points = n_max // rule.len_straight + 1
    straight = _straight(rows[(hv, 1)])[3]
    for k in range(points):  # the empty walk and the walks of straights
        counts[k * straight] = counts.get(k * straight, 0) + 1
    arcs = [step[2] for step in _arcs(rows[(hv, 1)])]
    jobs = _axis_jobs(points, arcs[:1] if rule.mirror_symmetric else arcs,
                      rule.len_straight, _folds(n_max, lens, frozenset())[2])

    def search(queue: Iterable) -> dict:
        part: dict = {}
        _axis_walks(n_max, lens, rows, (hv, 1), _pack_mid(0, 0, hv), 0,
                    queue, part)
        return part

    if workers > 1:
        from . import jobqueue

        parts = jobqueue.run(search, jobs, workers, meanwhile)
    else:
        parts = [search(jobs)]
    for part in parts:
        for pk, n in part.items():
            counts[pk] = counts.get(pk, 0) + n


class Histogram(dict):
    """counts[key] of an aggregate, a tuple key per (head, profile), with
    two attributes its producer sets once: ``grouped``, its interned form
    (profiles, {head: (indices, counts)}) for ``_weigh``, and ``n_max``,
    the length budget of a free aggregate (None for a loop patch, which
    is enumerated completely)."""

    def __init__(self, counts, grouped: tuple[list, dict],
                 n_max: int | None = None):
        super().__init__(counts)
        self.grouped = grouped
        self.n_max = n_max


def _both_signs(counts: dict, rule: LengthRule, n_max: int) -> Histogram:
    """counts[(rlen, profile)] over all free-lattice walks, sorted, from the
    counts of ``_free_counts`` to budget ``n_max``, grouped by length.

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
    out.sort()
    return Histogram(out, _group(out), n_max)


@lru_cache(maxsize=32)
def free_walk_aggregate(n_max: int, rule: LengthRule = UNIT_RULE,
                        orient: str = "H") -> Histogram:
    """counts[(rlen, profile)] over all free-lattice walks, both signs,
    with keys in sorted order, as a ``Histogram`` to budget ``n_max``.

    The search visits the sign +1 walks only (the pi rotation gives the
    others) and, under a mirror-symmetric rule, about half of those (the
    mirror through the axis gives the rest).
    """
    counts: dict = {}
    _free_counts(n_max, rule, orient, counts)
    return _both_signs(counts, rule, n_max)


def free_walk_aggregate_parallel(n_max: int, rule: LengthRule = UNIT_RULE,
                                 orient: str = "H", workers: int = 1, *,
                                 meanwhile: Callable[[], None] | None = None
                                 ) -> Histogram:
    """``free_walk_aggregate`` with its axis jobs and sub-jobs searched by
    at most ``workers`` processes, this one included, for any rule; one
    worker gets the cached aggregate.  This process checks the budget
    before it forks, sums the processes' counts and adds the mirror, so
    the result equals the sequential one, keys in the same order, and
    carries its own interned form for ``weighted_length_sums``.

    ``meanwhile``, if given, is this process's own work: it is called
    once the children are forked, while they search, and before this
    process draws jobs itself; with one worker, after the cached
    aggregate.  Its exception, like any other, kills and reaps every
    child before it propagates, and a child that fails makes this raise
    ``RuntimeError``: no process outlives the call."""
    if workers <= 1:
        agg = free_walk_aggregate(n_max, rule, orient)
        if meanwhile is not None:
            meanwhile()
        return agg
    counts: dict = {}
    _free_counts(n_max, rule, orient, counts, workers, meanwhile)
    return _both_signs(counts, rule, n_max)


def weighted_length_sums(hist: Histogram, w: WeightSet) -> list[float]:
    """Sum of walk weights per exact length 0..hist.n_max on the free
    lattice, from a free aggregate's interned form, heads the lengths; a
    length no walk has reads 0.0."""
    sums = _weigh(hist.grouped, w)
    return [sums.get(rlen, 0.0) for rlen in range(hist.n_max + 1)]


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
