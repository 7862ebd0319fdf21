"""Loop-model configurations on small rhombic patches.

Configurations assign one of nine states to every rhombus cell (empty,
four single arcs, two straights, two double arcs) subject to matching
occupancy on shared mid-edges.  The traced curves decompose into closed
loops plus open strands; a configuration weight is the product of cell
weights times n per closed loop.

Two verifiers are built on top:

* the hexagon flip check -- the two rhombic tilings of a symmetric
  equilateral hexagon must give equal boundary-conditioned partition
  sums for every outside connection pattern;
* the loop-weighted observable on a rectangular patch of the skewed
  lattice, which must satisfy the same rhombus contour relation as the
  walk-only observable when the spin is s + 1.

Neither the configurations nor their loop counts depend on an angle or
on s, only on which cells share which mids.  So both verifiers enumerate
once per incidence structure (the cells' mids relabelled 0, 1, ...) and
re-weight the cached configurations on every call.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import PASSAGE, STATE_PAIRS, STATE_SLOT, MidEdge, Rhombus
from .observable import _rhombus_contour
from .walks import Histogram, _group, _weigh
from .weights import WeightSet, loop_parameter, on_weights


def cell_state_weight(state: int, w: WeightSet) -> float:
    """The weight of a cell in the state of code ``state``."""
    slot = STATE_SLOT[state]
    return 1.0 if slot is None else w.as_tuple()[slot]


@dataclass(frozen=True)
class Cell:
    """A rhombus cell with hashable mid-edge keys.

    ``mids`` are the midpoints of sides 0..3, counter-clockwise, and the
    angle sits at corners 0 and 2, so ARC_SW/ARC_NE are the u1 arcs of
    this cell.
    """

    key: object
    angle: float
    mids: tuple[object, object, object, object]


def _point_key(z: complex):
    return (round(z.real, 9), round(z.imag, 9))


def make_cell(key, p0: complex, va: complex, vb: complex) -> Cell:
    """Cell spanned by two edge vectors, corner order forced CCW."""
    if va.real * vb.imag - va.imag * vb.real < 0:
        va, vb = vb, va
    corners = (p0, p0 + va, p0 + va + vb, p0 + vb)
    mids = tuple(_point_key((corners[k] + corners[(k + 1) % 4]) / 2.0)
                 for k in range(4))
    return Cell(key=key, angle=cmath.phase(vb / va), mids=mids)


def cell_from_rhombus(r: Rhombus, theta: float) -> Cell:
    """Lattice cell keyed by MidEdge objects, sides ordered B, R, T, L."""
    return Cell(key=("R", r.i, r.j), angle=theta, mids=r.mid_edges())


def rect_cells(theta: float, cols: int, rows: int, j0: int = 0) -> list[Cell]:
    """cols x rows block of lattice cells, rows starting at j0."""
    return [cell_from_rhombus(Rhombus(i, j), theta)
            for i in range(cols) for j in range(j0, j0 + rows)]


# ---------------------------------------------------------------------------
# Configuration enumeration and curve tracing.


def _strand_edges(cells, states):
    """Half-strand segments as (mid_key_a, mid_key_b) pairs."""
    return [(cell.mids[a], cell.mids[b])
            for cell, st in zip(cells, states) for a, b in STATE_PAIRS[st]]


def _trace(cells, states):
    """Glue cell segments at shared mids into closed loops and chains.

    Returns (loops, chains) where each entry is a list of alternating
    mid keys; chains are open strands with both endpoints at mids of
    degree one.  No mid ends more than two segments, as no mid belongs
    to more than two cells (``iter_consistent_configs`` refuses it).
    """
    edges = _strand_edges(cells, states)
    by_mid: dict = {}
    for idx, (a, b) in enumerate(edges):
        for m in (a, b):
            by_mid.setdefault(m, []).append(idx)
    seen = [False] * len(edges)
    loops, chains = [], []

    def walk_from(idx, start_mid):
        """Follow strand from one end; returns the mid sequence."""
        seq = [start_mid]
        cur_edge, cur_mid = idx, start_mid
        while True:
            seen[cur_edge] = True
            a, b = edges[cur_edge]
            nxt_mid = b if a == cur_mid else a
            seq.append(nxt_mid)
            options = [e for e in by_mid[nxt_mid] if not seen[e]]
            if not options:
                return seq
            cur_edge, cur_mid = options[0], nxt_mid

    # open chains first: start from degree-1 mids
    for m, idxs in by_mid.items():
        if len(idxs) == 1 and not seen[idxs[0]]:
            chains.append(walk_from(idxs[0], m))
    # what remains are loops
    for idx in range(len(edges)):
        if not seen[idx]:
            loops.append(walk_from(idx, edges[idx][0]))
    return loops, chains


def iter_consistent_configs(cells, boundary_mids=None,
                            allow_open_interior=0):
    """Yield (states, loops, chains) over all consistent assignments, the
    states as a tuple of state codes, one per cell.

    A strand ends at a mid that the cells around it occupy once.  It may
    end at the mids in ``boundary_mids`` at no cost (default: every mid
    that belongs to only one cell); at most ``allow_open_interior`` other
    mids may be strand ends.  Ends are counted as the search goes, each
    mid when its last cell is assigned.  A mid of more than two cells
    raises ``ValueError``.
    """
    owners: dict = {}
    for ci, cell in enumerate(cells):
        for k, m in enumerate(cell.mids):
            owners.setdefault(m, []).append((ci, k))
    if boundary_mids is None:
        boundary_mids = {m for m, own in owners.items() if len(own) == 1}
    # closes[ci]: (side, partner (cell, side) or None, free end) for each
    # mid whose last cell is ci
    closes = [[] for _ in cells]
    for m, own in owners.items():
        if len(own) > 2:  # a partner is the one other owner
            raise ValueError(f"mid {m!r} belongs to {len(own)} cells; "
                             "at most two cells may share a mid")
        ci, k = own[-1]
        partner = own[0] if len(own) == 2 else None
        closes[ci].append((k, partner, m in boundary_mids))

    # the sides each state code occupies
    occupied = [frozenset(itertools.chain.from_iterable(pairs))
                for pairs in STATE_PAIRS]
    n = len(cells)
    states = [0] * n

    def rec(ci, open_ends):
        if ci == n:
            yield tuple(states), *_trace(cells, states)
            return
        for code, occ in enumerate(occupied):
            ends = open_ends
            for k, partner, free in closes[ci]:
                there = (partner is not None
                         and partner[1] in occupied[states[partner[0]]])
                if (k in occ) != there and not free:
                    ends += 1
            if ends > allow_open_interior:
                continue
            states[ci] = code
            yield from rec(ci + 1, ends)

    yield from rec(0, 0)


def _structure(cells):
    """Relabel the cells' mid keys 0, 1, ... in first-met order.

    Returns the patch's shape (a label 4-tuple per cell) and the mid key
    of each label.  The labels keep the order in which
    iter_consistent_configs meets the mids, so configurations enumerated
    on the shape map back to the sequence enumerated on the cells.
    """
    label: dict = {}
    shape = tuple(tuple(label.setdefault(m, len(label)) for m in cell.mids)
                  for cell in cells)
    return shape, tuple(label)


@lru_cache(maxsize=None)
def _shape_configs(shape, free_labels, allow_open_interior):
    """iter_consistent_configs over label-keyed cells, as tuples."""
    cells = [Cell(key=ci, angle=0.0, mids=mids)
             for ci, mids in enumerate(shape)]
    return tuple(
        (states, tuple(map(tuple, loops)), tuple(map(tuple, chains)))
        for states, loops, chains in iter_consistent_configs(
            cells, free_labels, allow_open_interior))


# ---------------------------------------------------------------------------
# Hexagon flip check.


@dataclass(frozen=True)
class HexagonInstance:
    """Symmetric equilateral hexagon spanned by unit vectors at angles
    -alpha, 0, +alpha, with its two rhombic tilings."""

    tiling1: tuple[Cell, Cell, Cell]
    tiling2: tuple[Cell, Cell, Cell]
    boundary: tuple  # 6 boundary mid keys in cyclic order


def hexagon(alpha: float) -> HexagonInstance:
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError("alpha must lie in (0, pi/2) so both rhombus "
                         "angles are proper")
    v1 = cmath.exp(-1j * alpha)
    v2 = 1.0 + 0.0j
    v3 = cmath.exp(1j * alpha)
    t1 = (
        make_cell(("t1", 0), 0.0, v1, v2),
        make_cell(("t1", 1), 0.0, v2, v3),
        make_cell(("t1", 2), v2, v1, v3),
    )
    t2 = (
        make_cell(("t2", 0), v3, v1, v2),
        make_cell(("t2", 1), v1, v2, v3),
        make_cell(("t2", 2), 0.0, v1, v3),
    )
    ring = [0.0, v1, v1 + v2, v1 + v2 + v3, v2 + v3, v3]
    boundary = tuple(
        _point_key((ring[k] + ring[(k + 1) % 6]) / 2.0) for k in range(6)
    )
    # both tilings must present exactly these six mids on the boundary
    for cells in (t1, t2):
        mids = set(itertools.chain.from_iterable(c.mids for c in cells))
        assert set(boundary) <= mids
    return HexagonInstance(tiling1=t1, tiling2=t2, boundary=boundary)


def noncrossing_pairings(points: tuple):
    """All non-crossing perfect matchings of an even cyclic point tuple."""
    if not points:
        return [frozenset()]
    out = []
    first = points[0]
    for k in range(1, len(points), 2):
        left = points[1:k]
        right = points[k + 1:]
        for lp in noncrossing_pairings(left):
            for rp in noncrossing_pairings(right):
                out.append(lp | rp | {frozenset((first, points[k]))})
    return out


def boundary_patterns(boundary: tuple):
    """(occupied-subset, outside pairing) pairs, outside-planar only."""
    out = []
    n = len(boundary)
    for mask in range(1 << n):
        subset = tuple(boundary[k] for k in range(n) if mask >> k & 1)
        if len(subset) % 2:
            continue
        for pairing in noncrossing_pairings(subset):
            out.append((frozenset(subset), pairing))
    return out


def _closed_cycles(chain_pairs, outside_pairs) -> int:
    """Cycles closed by inside chains against an outside pairing.

    Both pair the same boundary points, so their union is 2-regular and
    decomposes into alternating cycles.
    """
    inside = {}
    for a, b in chain_pairs:
        inside[a] = b
        inside[b] = a
    outside = {}
    for pair in outside_pairs:
        a, b = tuple(pair)
        outside[a] = b
        outside[b] = a
    seen = set()
    cycles = 0
    for start in inside:
        if start in seen:
            continue
        cur = start
        while True:
            seen.add(cur)
            cur = inside[cur]
            seen.add(cur)
            cur = outside[cur]
            if cur == start:
                cycles += 1
                break
    return cycles


@lru_cache(maxsize=None)
def _flip_terms(shape, boundary_labels):
    """States of each configuration of one tiling and, per boundary
    pattern, its (configuration index, exponent of n) terms.

    Strands end only at the boundary mids, where the pattern's outside
    pairing continues them; the exponent counts the closed loops plus
    the cycles that pairing closes.
    """
    configs = _shape_configs(shape, frozenset(boundary_labels), 0)
    buckets: dict = {}
    for ci, (_, loops, chains) in enumerate(configs):
        chain_pairs = tuple((ch[0], ch[-1]) for ch in chains)
        occupied = frozenset(itertools.chain(*chain_pairs))
        buckets.setdefault(occupied, []).append((ci, chain_pairs, len(loops)))
    terms = tuple(
        tuple((ci, nloops + _closed_cycles(chain_pairs, pairing))
              for ci, chain_pairs, nloops in buckets.get(subset, ()))
        for subset, pairing in boundary_patterns(boundary_labels))
    return tuple(states for states, _, _ in configs), terms


def _tiling_terms(cells, boundary, s: float):
    """Weight of each configuration of one tiling, and its flip terms."""
    tables = []
    for cell in cells:
        w, _ = on_weights(cell.angle, s)
        tables.append([cell_state_weight(code, w)
                       for code in range(len(STATE_SLOT))])
    shape, mids = _structure(cells)
    states, terms = _flip_terms(shape, tuple(map(mids.index, boundary)))
    weights = []
    for config in states:
        w = 1.0
        for table, st in zip(tables, config):
            w *= table[st]
        weights.append(w)
    return weights, terms


@dataclass(frozen=True)
class YangBaxterReport:
    n: float
    pattern_count: int
    max_residual: float
    rows: tuple  # (pattern-id, sum_t1, sum_t2, diff)


def yang_baxter_residual(alpha: float, s: float) -> YangBaxterReport:
    """Max discrepancy between the two hexagon tilings over all boundary
    patterns (occupied boundary mids plus their outside pairing)."""
    hexa = hexagon(alpha)
    n = loop_parameter(s)
    tilings = [_tiling_terms(cells, hexa.boundary, s)
               for cells in (hexa.tiling1, hexa.tiling2)]
    rows = []
    worst = 0.0
    for pid in range(len(tilings[0][1])):
        sums = []
        for weights, terms in tilings:
            total = 0.0
            for ci, e in terms[pid]:
                total += weights[ci] * n ** e
            sums.append(total)
        diff = abs(sums[0] - sums[1])
        worst = max(worst, diff)
        rows.append((pid, sums[0], sums[1], diff))
    return YangBaxterReport(n=n, pattern_count=len(rows),
                            max_residual=worst, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Loop-weighted observable on a lattice patch.


@lru_cache(maxsize=32)
def _patch_aggregate(theta: float, cols: int, rows: int, j0: int):
    """counts[(z, winding, state-profile, n_loops)] over all
    configurations that are loops plus one strand from the origin, as a
    ``Histogram`` grouped under heads (z, winding, n_loops).

    The profile counts cells by weight class (u1, u2, v, w1, w2), which
    is enough to weight any family at this uniform angle.  Windings are
    exact multiples of (theta, pi-theta), summed passage by passage.
    The configurations are enumerated once per (cols, rows, j0) and
    shared by every theta; only this aggregation repeats per angle.
    """
    a = MidEdge(0, j0 + rows // 2, "V")
    shape, mids = _structure(rect_cells(theta, cols, rows, j0))
    la = mids.index(a)

    counts: dict = {}
    # a is a mid of one cell only, so by parity every configuration is
    # loops avoiding a (standing in for the empty strand at the origin)
    # or loops plus one chain with a as an end
    for states, loops, chains in _shape_configs(shape, frozenset((la,)), 1):
        if chains:
            ch = chains[0] if chains[0][0] == la else chains[0][::-1]
            z = mids[ch[-1]]
            key_wind = _chain_turns(shape, states, ch)
        else:
            z = a
            key_wind = (0, 0)
        profile = [0, 0, 0, 0, 0]
        for st in states:
            slot = STATE_SLOT[st]
            if slot is not None:
                profile[slot] += 1
        key = (z, key_wind, tuple(profile), len(loops))
        counts[key] = counts.get(key, 0) + 1
    grouped = _group((((z, wind, nloops), profile), cnt)
                     for (z, wind, profile, nloops), cnt in counts.items())
    return Histogram(counts, grouped), a


def _chain_turns(shape, states, chain) -> tuple[int, int]:
    """Total turn along a chain of mids in units of (theta, pi-theta).

    ``shape`` holds each cell's mids.  Lattice cells only: their sides
    are numbered like geometry.PASSAGE.
    """
    turns = {}
    for mids, st in zip(shape, states):
        for pair in STATE_PAIRS[st]:
            for x, y in (pair, pair[::-1]):
                turns[(mids[x], mids[y])] = PASSAGE[(x, y)][1:]
    k1 = k2 = 0
    for segment in zip(chain, chain[1:]):
        dt, dp = turns[segment]
        k1 += dt
        k2 += dp
    return k1, k2


def on_observable(theta: float, s: float, cols: int = 2, rows: int = 2,
                  j0: int = 0) -> dict:
    """Loop-weighted observable F_a(z) with spin s + 1 on a patch.

    Sums over configurations made of disjoint loops plus one strand from
    the origin a = V(0, j0 + rows//2) to z; each contributes
    weight * n^#loops * exp(-i (s+1) winding).  F_a(a) collects the
    loop-only configurations avoiding a.  The cached patch histogram is
    weighed from the interned form it carries, grouped once per angle.
    """
    w, n = on_weights(theta, s)
    sigma = s + 1.0
    counts, a = _patch_aggregate(theta, cols, rows, j0)
    amps = _weigh(counts.grouped, w)
    pmt = math.pi - theta
    values: dict = {}
    for (z, (k1, k2), nloops), amp in amps.items():
        phase = cmath.exp(-1j * sigma * (k1 * theta + k2 * pmt))
        values[z] = values.get(z, 0.0 + 0.0j) + amp * float(n) ** nloops * phase
    return values


def on_observable_cr_check(theta: float, s: float, cols: int = 2,
                           rows: int = 2, j0: int = 0) -> float:
    """Max rhombus contour residual of the loop-weighted observable."""
    values = on_observable(theta, s, cols, rows, j0)
    return max(abs(_rhombus_contour(values, Rhombus(i, j), theta))
               for i in range(cols) for j in range(j0, j0 + rows))
