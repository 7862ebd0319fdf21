"""Independent reference enumerator used to validate the fast engine.

Deliberately naive: walks are grown through geometry.step_candidates
(the public, allocating API), self-avoidance is re-checked against a
list of visited mid-edges, and weight/length/occupancy are recomputed
from scratch at every node by replaying the whole step list.  No state
tables, no incremental bookkeeping -- the point is to share as little
code as possible with skewsaw.walks.
"""

from __future__ import annotations

import itertools

from skewsaw.geometry import MidEdge, Step, step_candidates
from skewsaw.honeycomb import _neighbours
from skewsaw.loops import (
    _closed_cycles,
    boundary_patterns,
    cell_state_weight,
    hexagon,
    iter_consistent_configs,
)
from skewsaw.weights import WeightSet, loop_parameter, on_weights

_OPPOSITE_ARCS = {frozenset(("sw", "ne")): "w1", frozenset(("se", "nw")): "w2"}
_ARC_WEIGHT = {"sw": "u1", "ne": "u1", "se": "u2", "nw": "u2",
               "bt": "v", "lr": "v"}


def replay(steps: list[Step]):
    """Recompute per-rhombus component lists; None if inadmissible."""
    comps: dict = {}
    for s in steps:
        comps.setdefault(s.rhombus, []).append(s.component)
    for clist in comps.values():
        if len(clist) > 2:
            return None
        if len(clist) == 2:
            if frozenset(clist) not in _OPPOSITE_ARCS:
                return None
    return comps


def naive_weight(steps: list[Step], w: WeightSet) -> float:
    comps = replay(steps)
    out = 1.0
    for clist in comps.values():
        if len(clist) == 1:
            out *= getattr(w, _ARC_WEIGHT[clist[0]])
        else:
            out *= getattr(w, _OPPOSITE_ARCS[frozenset(clist)])
    return out


def naive_profile(steps: list[Step]):
    """(singles u1, singles u2, straights, doubles w1, doubles w2)."""
    comps = replay(steps)
    counts = [0, 0, 0, 0, 0]
    slot = {"u1": 0, "u2": 1, "v": 2, "w1": 3, "w2": 4}
    for clist in comps.values():
        if len(clist) == 1:
            counts[slot[_ARC_WEIGHT[clist[0]]]] += 1
        else:
            counts[slot[_OPPOSITE_ARCS[frozenset(clist)]]] += 1
    return tuple(counts)


def naive_length(steps: list[Step], rule=(1, 1, 1)) -> int:
    """Sum of passage lengths, rule = (theta-arc, (pi-theta)-arc, straight)."""
    lens = dict(zip(("u1", "u2", "v"), rule))
    return sum(lens[_ARC_WEIGHT[s.component]] for s in steps)


def naive_enumerate(start: MidEdge, max_length: int, rule=(1, 1, 1),
                    domain=None):
    """Every self-avoiding walk (as a step list) of length <= budget, inside
    ``domain`` if one is given."""
    results: list[list[Step]] = []

    def grow(steps: list[Step], visited: list[MidEdge]):
        results.append(list(steps))
        if steps:
            cur = steps[-1].dst
            sign = steps[-1].exit_sign
            candidates = step_candidates(cur, domain=domain, sign=sign)
        else:
            cur = start
            candidates = step_candidates(cur, domain=domain)
        for cand in candidates:
            if cand.dst in visited:
                continue
            trial = steps + [cand]
            if naive_length(trial, rule) > max_length:
                continue
            if replay(trial) is None:
                continue
            grow(trial, visited + [cand.dst])

    grow([], [start])
    return results


# ---------------------------------------------------------------------------
# Naive hexagonal reference: the mid-edge walks of honeycomb.py grown
# vertex by vertex through a set of visited vertices and a set of used
# edges, searching from both endpoints of the start edge and recursing
# into every leaf.  It shares the graph (``_neighbours``, anchored to
# OEIS A001668 in test_series.py) and nothing else with the fast search.


def _edge_key(u, v):
    return (u, v) if u <= v else (v, u)


def naive_midedge_saws(n_max: int, start_class: int = 1,
                       forbidden_end_class: int | None = 0) -> list[int]:
    """Same contract as honeycomb.count_midedge_saws."""
    # A(0,0) and its class-`start_class` neighbour
    a0 = ("A", 0, 0)
    b0 = next(v for v, cls in _neighbours(a0) if cls == start_class)
    start_edge = _edge_key(a0, b0)

    counts = [0] * (n_max + 1)
    counts[0] = 1
    if n_max == 0:
        return counts

    visited = set()
    used_edges = {start_edge}

    def rec(vertex, depth):
        visited.add(vertex)
        for nxt, cls in _neighbours(vertex):
            key = _edge_key(vertex, nxt)
            if key in used_edges:
                continue
            if cls != forbidden_end_class:
                counts[depth] += 1  # end here, at the midpoint of (vertex, nxt)
            if depth < n_max and nxt not in visited:
                used_edges.add(key)
                rec(nxt, depth + 1)
                used_edges.remove(key)
        visited.remove(vertex)

    for first in (a0, b0):
        rec(first, 1)
    return counts


# ---------------------------------------------------------------------------
# Naive hexagon flip check: both tilings enumerated afresh on every call,
# their configurations bucketed by occupied boundary subset, the cycles an
# outside pairing closes counted per pattern, and the terms summed.  It
# shares the enumeration and the pattern list with loops.py, not the
# structure caches or the per-call re-weighting.


def naive_config_weight(cells, states, nloops: int, w: WeightSet,
                        n: float) -> float:
    """Product of cell-state weights under one weight set, times
    n^nloops; with n = 0 only loop-free configurations survive."""
    out = 1.0
    for cell, st in zip(cells, states):
        out *= cell_state_weight(st, w)
    return out * float(n) ** nloops


def naive_yang_baxter_rows(alpha: float, s: float) -> tuple:
    """Same rows as loops.yang_baxter_residual(alpha, s).rows."""
    hexa = hexagon(alpha)
    n = loop_parameter(s)

    def buckets(cells):
        out: dict = {}
        for states, loops, chains in iter_consistent_configs(
                cells, set(hexa.boundary)):
            chain_pairs = tuple((ch[0], ch[-1]) for ch in chains)
            w = 1.0
            for cell, st in zip(cells, states):
                w *= cell_state_weight(st, on_weights(cell.angle, s)[0])
            occupied = frozenset(itertools.chain(*chain_pairs))
            out.setdefault(occupied, []).append((chain_pairs, len(loops), w))
        return out

    tilings = (buckets(hexa.tiling1), buckets(hexa.tiling2))
    rows = []
    for pid, (subset, pairing) in enumerate(boundary_patterns(hexa.boundary)):
        sums = []
        for by_subset in tilings:
            total = 0.0
            for chain_pairs, nloops, w in by_subset.get(subset, ()):
                total += w * n ** (nloops + _closed_cycles(chain_pairs, pairing))
            sums.append(total)
        rows.append((pid, sums[0], sums[1], abs(sums[0] - sums[1])))
    return tuple(rows)
