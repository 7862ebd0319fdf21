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
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import PASSAGE, PLAQUETTE_STATES, MidEdge, Rhombus
from .walks import power_tables, profile_weight
from .weights import WeightSet, loop_parameter, on_weights

def _cell_state_name(pairs) -> str:
    """Loop-model name of a state of geometry.PLAQUETTE_STATES: arcs by
    the corners they surround (an arc around c_k joins sides k-1 and k),
    straights by the sides they join."""
    if not pairs:
        return "empty"
    if len(pairs) == 1 and (pairs[0][1] - pairs[0][0]) % 4 == 2:
        return "straight_%d%d" % pairs[0]
    corners = "".join(f"c{k}" for _, k in pairs)
    return ("arc_" if len(pairs) == 1 else "double_") + corners


# name -> (side pairs, weight slot), in state-code order
_CELL_STATES = {_cell_state_name(pairs): (pairs, slot)
                for _, pairs, slot in PLAQUETTE_STATES}

STATE_NAMES = tuple(_CELL_STATES)


def state_pairs(name: str):
    return _CELL_STATES[name][0]


def cell_state_weight(name: str, w: WeightSet) -> float:
    slot = _CELL_STATES[name][1]
    return 1.0 if slot is None else w.as_tuple()[slot]


@dataclass(frozen=True)
class Cell:
    """A rhombus cell with hashable mid-edge keys.

    ``mids`` are the midpoints of sides 0..3, counter-clockwise, and the
    angle sits at corners 0 and 2, so arc_c0/arc_c2 are the u1 arcs of
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


@dataclass(frozen=True)
class LoopConfig:
    """A consistent assignment of states with its traced decomposition."""

    cells: tuple[Cell, ...]
    states: tuple[str, ...]              # parallel to cells
    loops: tuple[tuple, ...]             # each a tuple of mid keys
    path: tuple | None                   # open strand (mid keys), if any

    @property
    def n_loops(self) -> int:
        return len(self.loops)


def loop_weight(config: LoopConfig, weights_for_cell, n: float) -> float:
    """Product of cell-state weights times n^#loops.

    ``weights_for_cell`` maps a Cell to the WeightSet for its angle, so
    mixed-angle patches (the hexagon) weight each rhombus by its own
    angle.  With n = 0 only loop-free configurations survive (0^0 = 1).
    """
    out = 1.0
    for cell, st in zip(config.cells, config.states):
        out *= cell_state_weight(st, weights_for_cell(cell))
    return out * float(n) ** config.n_loops


def _strand_edges(cells, states):
    """Half-strand segments as (mid_key_a, mid_key_b, cell_idx, pair)."""
    out = []
    for ci, (cell, st) in enumerate(zip(cells, states)):
        for (a, b) in state_pairs(st):
            out.append((cell.mids[a], cell.mids[b], ci, (a, b)))
    return out


def _trace(cells, states):
    """Glue cell segments at shared mids into closed loops and chains.

    Returns (loops, chains) where each entry is a list of alternating
    mid keys; chains are open strands with both endpoints at mids of
    degree one.  Returns None if some mid is crossed more than twice
    (inconsistent occupancy).
    """
    edges = _strand_edges(cells, states)
    by_mid: dict = {}
    for idx, (a, b, _, _) in enumerate(edges):
        for m in (a, b):
            by_mid.setdefault(m, []).append(idx)
            if len(by_mid[m]) > 2:
                return None
    seen = [False] * len(edges)
    loops, chains = [], []

    def walk_from(idx, start_mid):
        """Follow strand from one end; returns the mid sequence."""
        seq = [start_mid]
        cur_edge, cur_mid = idx, start_mid
        while True:
            seen[cur_edge] = True
            a, b, _, _ = edges[cur_edge]
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
            a, _, _, _ = edges[idx]
            seq = walk_from(idx, a)
            loops.append(seq)
    return loops, chains


def iter_consistent_configs(cells, boundary_mids=None,
                            allow_open_interior=0):
    """Yield (states, loops, chains) over all consistent assignments.

    Interior mids (shared by two cells) must be occupied by both or
    neither; ``allow_open_interior`` of them may instead be occupied
    once, which is how a path endpoint strictly inside a patch arises.
    ``boundary_mids`` is informational only (chains may end there).
    """
    mid_owner: dict = {}
    for ci, cell in enumerate(cells):
        for m in cell.mids:
            mid_owner.setdefault(m, []).append(ci)
    shared = {m for m, owners in mid_owner.items() if len(owners) == 2}

    occupied_by_state = {
        name: frozenset(itertools.chain.from_iterable(state_pairs(name)))
        for name in STATE_NAMES
    }

    n = len(cells)
    states = [""] * n

    def rec(ci, open_interior):
        if ci == n:
            traced = _trace(cells, states)
            if traced is not None:
                yield tuple(states), traced[0], traced[1]
            return
        cell = cells[ci]
        for name in STATE_NAMES:
            occ_idx = occupied_by_state[name]
            extra = 0
            ok = True
            for k in range(4):
                m = cell.mids[k]
                if m not in shared:
                    continue
                other = [o for o in mid_owner[m] if o != ci]
                o = other[0]
                if o > ci:
                    continue  # partner not assigned yet
                here = k in occ_idx
                there = any(
                    cells[o].mids[t] == m and t in occupied_by_state[states[o]]
                    for t in range(4)
                )
                if here != there:
                    extra += 1
                    if open_interior + extra > allow_open_interior:
                        ok = False
                        break
            if not ok:
                continue
            states[ci] = name
            yield from rec(ci + 1, open_interior + extra)
        states[ci] = ""

    yield from rec(0, 0)


# ---------------------------------------------------------------------------
# Hexagon flip check.


@dataclass(frozen=True)
class HexagonInstance:
    """Symmetric equilateral hexagon spanned by unit vectors at angles
    -alpha, 0, +alpha, with its two rhombic tilings."""

    alpha: float
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
    return HexagonInstance(alpha=alpha, tiling1=t1, tiling2=t2,
                           boundary=boundary)


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


def _tiling_sums(cells, boundary, s: float):
    """Aggregate per (occupied-boundary-subset): list of
    (chain pairing, n-exponent base, weight product)."""
    wcache: dict[float, WeightSet] = {}

    def weights_for(cell: Cell) -> WeightSet:
        if cell.angle not in wcache:
            wcache[cell.angle], _ = on_weights(cell.angle, s)
        return wcache[cell.angle]

    buckets: dict = {}
    for states, loops, chains in iter_consistent_configs(cells):
        ends = []
        chain_pairs = []
        ok = True
        for ch in chains:
            a, b = ch[0], ch[-1]
            if a not in boundary or b not in boundary:
                ok = False  # strand ends strictly inside: no outside match
                break
            ends.extend((a, b))
            chain_pairs.append((a, b))
        if not ok:
            continue
        occupied = frozenset(ends)
        w = 1.0
        for cell, st in zip(cells, states):
            w *= cell_state_weight(st, weights_for(cell))
        buckets.setdefault(occupied, []).append(
            (tuple(chain_pairs), len(loops), w))
    return buckets


@dataclass(frozen=True)
class YangBaxterReport:
    alpha: float
    s: float
    n: float
    pattern_count: int
    max_residual: float
    rows: tuple  # (pattern-id, sum_t1, sum_t2, diff)


def yang_baxter_residual(alpha: float, s: float) -> YangBaxterReport:
    """Max discrepancy between the two hexagon tilings over all boundary
    patterns (occupied boundary mids plus their outside pairing)."""
    hexa = hexagon(alpha)
    n = loop_parameter(s)
    b1 = _tiling_sums(hexa.tiling1, set(hexa.boundary), s)
    b2 = _tiling_sums(hexa.tiling2, set(hexa.boundary), s)
    rows = []
    worst = 0.0
    for pid, (subset, pairing) in enumerate(boundary_patterns(hexa.boundary)):
        sums = []
        for buckets in (b1, b2):
            total = 0.0
            for chain_pairs, nloops, w in buckets.get(subset, ()):
                cyc = _closed_cycles(chain_pairs, pairing)
                total += w * n ** (nloops + cyc)
            sums.append(total)
        diff = abs(sums[0] - sums[1])
        worst = max(worst, diff)
        rows.append((pid, sums[0], sums[1], diff))
    return YangBaxterReport(alpha=alpha, s=s, n=n,
                            pattern_count=len(rows),
                            max_residual=worst, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Loop-weighted observable on a lattice patch.


@lru_cache(maxsize=32)
def _patch_aggregate(theta: float, cols: int, rows: int, j0: int):
    """counts[(z, winding, state-profile, n_loops)] over all
    configurations that are loops plus one strand from the origin.

    The profile counts cells by weight class (u1, u2, v, w1, w2), which
    is enough to weight any family at this uniform angle.  Windings are
    exact multiples of (theta, pi-theta), summed passage by passage.
    """
    cells = tuple(rect_cells(theta, cols, rows, j0))
    a = MidEdge(0, j0 + rows // 2, "V")

    counts: dict = {}
    for states, loops, chains in iter_consistent_configs(
            cells, allow_open_interior=1):
        if len(chains) > 1:
            continue
        if chains:
            ch = chains[0]
            if ch[0] == a:
                pass
            elif ch[-1] == a:
                ch = ch[::-1]
            else:
                continue
            z = ch[-1]
            key_wind = _chain_turns(cells, states, ch)
        else:
            # loop-only configuration: stands in for the empty strand at
            # the origin, so nothing may cross the origin mid-edge
            if any(a in _occupied_mids(cell, st)
                   for cell, st in zip(cells, states)):
                continue
            z = a
            key_wind = (0, 0)
        profile = [0, 0, 0, 0, 0]
        for st in states:
            slot = _CELL_STATES[st][1]
            if slot is not None:
                profile[slot] += 1
        key = (z, key_wind, tuple(profile), len(loops))
        counts[key] = counts.get(key, 0) + 1
    return counts, a


def _occupied_mids(cell: Cell, state: str):
    occ = set()
    for (x, y) in state_pairs(state):
        occ.add(cell.mids[x])
        occ.add(cell.mids[y])
    return occ


def _chain_turns(cells, states, chain) -> tuple[int, int]:
    """Total turn along a chain of mids in units of (theta, pi-theta).

    Lattice cells only: their sides are numbered like geometry.PASSAGE.
    """
    turns = {}
    for cell, st in zip(cells, states):
        for pair in state_pairs(st):
            for x, y in (pair, pair[::-1]):
                turns[(cell.mids[x], cell.mids[y])] = PASSAGE[(x, y)][1:]
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
    loop-only configurations avoiding a.
    """
    w, n = on_weights(theta, s)
    sigma = s + 1.0
    counts, a = _patch_aggregate(theta, cols, rows, j0)
    tables = power_tables(w, cols * rows)
    pmt = math.pi - theta
    values: dict = {}
    for (z, (k1, k2), profile, nloops), cnt in counts.items():
        amp = cnt * profile_weight(profile, tables) * float(n) ** nloops
        phase = cmath.exp(-1j * sigma * (k1 * theta + k2 * pmt))
        values[z] = values.get(z, 0.0 + 0.0j) + amp * phase
    return values


def on_observable_cr_check(theta: float, s: float, cols: int = 2,
                           rows: int = 2, j0: int = 0) -> float:
    """Max rhombus contour residual of the loop-weighted observable."""
    values = on_observable(theta, s, cols, rows, j0)
    e = cmath.exp(1j * theta)
    worst = 0.0
    for i in range(cols):
        for j in range(j0, j0 + rows):
            r = Rhombus(i, j)
            b, rt, t, lf = r.mid_edges()
            res = (values.get(b, 0j) + e * values.get(rt, 0j)
                   - values.get(t, 0j) - e * values.get(lf, 0j))
            worst = max(worst, abs(res))
    return worst
