"""Self-avoiding walk counts on the hexagonal lattice.

Deliberately self-contained: the graph is built from its own axial
coordinates and the search shares no code with the rhombic engine, so it
can act as an independent oracle for the theta = pi/3 correspondence.
The test suite anchors the graph to the published counts of OEIS
A001668, and ``tests/oracles.py`` keeps the naive search over a set of
used edges as the reference this one must equal.

Vertices come in two sublattices, ('A', p, q) and ('B', p, q).  Each A
vertex has the three neighbours

    B(p, q)     via an edge of direction class 0,
    B(p-1, q)   via class 1,
    B(p, q-1)   via class 2,

and the lattice is 3-edge-coloured by these classes.  Walks start and
end at edge midpoints and are self-avoiding on vertices and on the
midpoints they cross.

The search packs a vertex as the int ``(p * W + q) * 2 + sublattice``
(p and q shifted so that both stay in ``[0, W)``), and steps along class
c by a per-sublattice offset derived once from ``_neighbours``.  It keeps
no set of used edges: a vertex-self-avoiding walk has used one edge at
its current vertex, the one it came in by, except at the far endpoint of
the start edge, where the start edge is used as well.  A walk that has
reached the last length is counted from its entry class and not pushed.
Only the walks leaving from one endpoint of the start edge are searched:
the rotation by pi about the edge's midpoint maps them onto those
leaving from the other endpoint, class by class, so each count doubles.
"""

from __future__ import annotations


def _neighbours(vertex):
    kind, p, q = vertex
    if kind == "A":
        return (
            (("B", p, q), 0),
            (("B", p - 1, q), 1),
            (("B", p, q - 1), 2),
        )
    return (
        (("A", p, q), 0),
        (("A", p + 1, q), 1),
        (("A", p, q + 1), 2),
    )


def _pack(vertex, width: int) -> int:
    kind, p, q = vertex
    return (p * width + q) * 2 + (kind == "B")


def _class_steps(width: int) -> tuple[tuple[int, ...], ...]:
    """steps[s][c]: packed offset from a sublattice-s vertex along class c."""
    out = []
    for base in (("A", 0, 0), ("B", 0, 0)):
        row = [0, 0, 0]
        for nxt, cls in _neighbours(base):
            row[cls] = _pack(nxt, width) - _pack(base, width)
        out.append(tuple(row))
    return tuple(out)


def count_midedge_saws(n_max: int, start_class: int = 1,
                       forbidden_end_class: int | None = 0) -> list[int]:
    """counts[n] of n-vertex self-avoiding walks from a fixed mid-edge.

    The walk starts at the midpoint of a class-``start_class`` edge and
    may move off either endpoint.  Every visited vertex adds one unit of
    length.  A walk of n vertices ends at the midpoint of one of the two
    free edges of its last vertex; when ``forbidden_end_class`` is set,
    endings on that direction class are not counted (continuing through
    it is still allowed).  counts[0] = 1 for the empty walk.
    """
    counts = [0] * (n_max + 1)
    counts[0] = 1
    if n_max == 0:
        return counts

    # A walk of n_max vertices from A(0, 0) keeps |p|, |q| <= n_max, its
    # last vertex's neighbours included, so this width cannot alias.
    width = 2 * n_max + 3
    steps = _class_steps(width)
    a0 = _pack(("A", n_max + 1, n_max + 1), width)
    far = a0 + steps[0][start_class]
    # ends[c]: end classes a vertex entered by class c may stop on; at the
    # far endpoint the start edge is used too (its other end is visited,
    # so the search never continues through it)
    ends = [sum(e not in (c, forbidden_end_class) for e in range(3))
            for c in range(3)]
    far_cut = int(start_class != forbidden_end_class)
    # rows[s][c]: (offset, row there, ends there) for the two classes that
    # leave a sublattice-s vertex entered by class c
    rows = [[[], [], []], [[], [], []]]
    for s in (0, 1):
        for c in range(3):
            rows[s][c].extend((steps[s][e], rows[1 - s][e], ends[e])
                              for e in range(3) if e != c)
    last = n_max - 1
    visited = bytearray(2 * width * width)

    def rec(v, row, depth):
        nd = depth + 1
        if depth == last:  # childless: count the children's ends
            total = 0
            for off, _, n in row:
                nv = v + off
                if not visited[nv]:
                    total += n - far_cut if nv == far else n
            counts[nd] += total
            return
        for off, nrow, n in row:
            nv = v + off
            if visited[nv]:
                continue
            counts[nd] += n - far_cut if nv == far else n
            visited[nv] = 1
            rec(nv, nrow, nd)
            visited[nv] = 0

    counts[1] = ends[start_class]
    visited[a0] = 1
    if n_max > 1:
        rec(a0, rows[0][start_class], 1)
    # The rotation by pi about the start edge's midpoint swaps its two
    # endpoints and maps every edge class onto itself, so the walks that
    # leave from the far endpoint are as many, length by length and with
    # the same end classes, as those searched from A(0, 0).
    for n in range(1, n_max + 1):
        counts[n] *= 2
    return counts
