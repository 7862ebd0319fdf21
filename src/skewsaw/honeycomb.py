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
reached the last length is counted from its entry class and not pushed,
and so are the walks one vertex short of it, with their last vertices,
in one pass over children and grandchildren.  Only a quarter of the
walks is searched.  The rotation by pi about the start edge's midpoint
maps the walks leaving from one endpoint onto those leaving from the
other, class by class, so each count doubles.  The reflection through
the start edge's own line fixes both endpoints and the start class and
swaps the other two classes; it maps the walks whose first step takes
one of those two classes onto the walks whose first step takes the
other, so each vertex a searched walk reaches is counted with the end
classes of its mirror image as well.
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
    # The reflection through the start edge's line: sigma[e] is the class
    # it maps class e onto.  It fixes the start class and swaps the others.
    first, second = (e for e in range(3) if e != start_class)
    sigma = {start_class: start_class, first: second, second: first}
    # plain[c]: end classes a vertex entered by class c may stop on; the
    # mirror image of that vertex is entered by sigma[c], so ends[c] counts
    # both.  At the far endpoint the start edge is used too, by both (its
    # other end is visited, so the search never continues through it).
    plain = [sum(e not in (c, forbidden_end_class) for e in range(3))
             for c in range(3)]
    ends = [plain[c] + plain[sigma[c]] for c in range(3)]
    far_cut = 2 * (start_class != forbidden_end_class)
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
        if depth == last - 1:  # count the children and grandchildren
            total = grand = 0
            for off, nrow, n in row:
                nv = v + off
                if visited[nv]:
                    continue
                total += n - far_cut if nv == far else n
                # a grandchild is never v or nv: the rows skip the
                # class a vertex was entered by
                for off2, _, n2 in nrow:
                    gv = nv + off2
                    if not visited[gv]:
                        grand += n2 - far_cut if gv == far else n2
            counts[nd] += total
            counts[nd + 1] += grand
            return
        if depth == last:  # only when n_max == 2, at the root
            counts[nd] += sum(n for _, _, n in row)
            return
        for off, nrow, n in row:
            nv = v + off
            if visited[nv]:
                continue
            counts[nd] += n - far_cut if nv == far else n
            visited[nv] = 1
            rec(nv, nrow, nd)
            visited[nv] = 0

    # The walk that has not stepped is its own mirror image.
    counts[1] = plain[start_class]
    visited[a0] = 1
    if n_max > 1:
        # only the first steps along class `first`; sigma maps them onto
        # the rest
        rec(a0, rows[0][start_class][:1], 1)
    # The rotation by pi about the start edge's midpoint swaps its two
    # endpoints and maps every edge class onto itself, so the walks that
    # leave from the far endpoint are as many, length by length and with
    # the same end classes, as those searched from A(0, 0).
    for n in range(1, n_max + 1):
        counts[n] *= 2
    return counts
