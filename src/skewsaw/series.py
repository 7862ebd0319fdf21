"""Growth-constant series and the honeycomb cross-check.

The normalised length series c_n = u1^{-n} * sum of walk weights at
length n grows like (1/u1)^n in the limit; at desk scale only exact
values, analytic brackets and the drift of the ratio estimates are
reported -- no extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import MidEdge
from .honeycomb import count_midedge_saws
from .walks import (
    HONEYCOMB_RULE,
    LengthRule,
    UNIT_RULE,
    Walk,
    enumerate_walks,
    free_walk_aggregate_parallel,
    weighted_length_sums,
)
from .weights import critical_weights


@dataclass(frozen=True)
class SeriesReport:
    n_max: int
    c_tilde: tuple[float, ...]
    root_estimates: tuple[float, ...]    # c_n^(1/n), n >= 1
    # c_n/c_{n-1}, n >= 1, or None where c_{n-1} = 0
    ratio_estimates: tuple[float | None, ...]
    lower_brackets: tuple[float, ...]    # per-n analytic floor for the roots
    upper_bracket: float | None          # c_1 (unit rule only, see below)
    target: float                        # 1/u1

    def rows(self):
        for n in range(self.n_max + 1):
            yield {
                "n": n,
                "c_tilde": self.c_tilde[n],
                "root_estimate": self.root_estimates[n - 1] if n >= 1 else "",
                "ratio_estimate": self.ratio_estimates[n - 1]
                if n >= 1 and self.ratio_estimates[n - 1] is not None else "",
                "lower_bracket": self.lower_brackets[n - 1] if n >= 1 else "",
                "upper_bracket": self.upper_bracket
                if self.upper_bracket is not None else "",
                "target": self.target,
            }


def _lower_bound_sequence(theta: float, rule: LengthRule, n_max: int) -> list[float]:
    """g_n = u1 g_{n - len(theta-arc)} + v g_{n - len(straight)}.

    Counts the weight of the staircase walks built from theta-arcs and
    straights only; every arc/straight sequence of that shape is
    realisable and self-avoiding, so u1^{-n} g_n bounds c_n from below.
    """
    w = critical_weights(theta)
    lt, _, ls = rule.as_tuple()
    g = [0.0] * (n_max + 1)
    g[0] = 1.0
    for n in range(1, n_max + 1):
        val = 0.0
        if n - lt >= 0:
            val += w.u1 * g[n - lt]
        if n - ls >= 0:
            val += w.v * g[n - ls]
        g[n] = val
    return g


def series_report(theta, rule: LengthRule = UNIT_RULE, n_max: int = 10,
                  workers: int = 1) -> SeriesReport:
    """Exact c_0..c_{n_max} with root/ratio estimators and brackets.

    The upper bracket c_1 relies on submultiplicativity, which needs
    every walk to split at every intermediate length; that holds for the
    unit rule only (a two-unit passage has no length-1 prefix), so for
    other rules no upper bracket is reported.
    """
    w = critical_weights(theta)
    sums = weighted_length_sums(
        free_walk_aggregate_parallel(n_max, rule, workers=workers), w)
    c = [sums[n] / w.u1 ** n for n in range(n_max + 1)]
    roots = tuple(c[n] ** (1.0 / n) if c[n] > 0 else 0.0
                  for n in range(1, n_max + 1))
    ratios = tuple(c[n] / c[n - 1] if c[n - 1] > 0 else None
                   for n in range(1, n_max + 1))
    g = _lower_bound_sequence(theta, rule, n_max)
    lower = tuple((g[n] / w.u1 ** n) ** (1.0 / n) for n in range(1, n_max + 1))
    upper = c[1] if rule == UNIT_RULE and n_max >= 1 else None
    return SeriesReport(
        n_max=n_max, c_tilde=tuple(c),
        root_estimates=roots, ratio_estimates=ratios,
        lower_brackets=lower, upper_bracket=upper,
        target=1.0 / w.u1,
    )


# ---------------------------------------------------------------------------
# Honeycomb correspondence at theta = pi/3.
#
# Splitting each rhombus along its short diagonal gives two triangles,
#   T1(i,j) with corners (i,j), (i+1,j), (i,j+1)      <-> vertex A(i,j)
#   T2(i,j) with corners (i+1,j), (i+1,j+1), (i,j+1)  <-> vertex B(i,j)
# of the triangular lattice, whose dual is the hexagonal lattice.  A
# theta-arc stays inside one triangle; a (pi-theta)-arc and a straight
# cross the diagonal and visit both.  Walk length under the (1, 2, 2)
# rule therefore equals the number of hexagonal-lattice vertices
# visited.  The edge classes of honeycomb.count_midedge_saws match as
#   class 0 <-> a rhombus diagonal (walks never end there),
#   class 1 <-> a V edge (the origin), class 2 <-> an H edge.


def triangle_path(walk: Walk) -> list[tuple[str, int, int]]:
    """Sequence of triangles visited, as honeycomb vertices A/B(i, j)."""
    out: list[tuple[str, int, int]] = []
    for s in walk.steps:
        i, j = s.rhombus.i, s.rhombus.j
        comp = s.component
        if comp == "sw":
            cells = [("A", i, j)]
        elif comp == "ne":
            cells = [("B", i, j)]
        else:
            # crosses the diagonal; order by traversal direction
            first_is_t1 = s.src in (MidEdge(i, j, "H"), MidEdge(i, j, "V"))
            cells = [("A", i, j), ("B", i, j)] if first_is_t1 else [("B", i, j), ("A", i, j)]
        out.extend(cells)
    return out


def _hex_adjacent(u, v) -> bool:
    (ku, pu, qu), (kv, pv, qv) = u, v
    if ku == kv:
        return False
    if ku == "B":
        u, v = v, u
        (ku, pu, qu), (kv, pv, qv) = u, v
    return (pv, qv) in ((pu, qu), (pu - 1, qu), (pu, qu - 1))


def is_valid_hex_image(walk: Walk) -> bool:
    """The triangle trace must be a vertex self-avoiding hexagonal path
    starting next to the origin edge."""
    path = triangle_path(walk)
    if not path:
        return True
    if len(set(path)) != len(path):
        return False
    if walk.start == MidEdge(0, 0, "V") and path[0] not in (("A", 0, 0), ("B", -1, 0)):
        return False
    return all(_hex_adjacent(a, b) for a, b in zip(path, path[1:]))


@dataclass(frozen=True)
class HoneycombComparison:
    n_max: int
    weighted_sums: tuple[float, ...]     # rhombic sums per length
    oracle_counts: tuple[int, ...]       # honeycomb SAW counts
    expected_sums: tuple[float, ...]     # u1^n * count
    images_checked: int
    images_valid: bool

    def rows(self):
        for n in range(self.n_max + 1):
            yield {
                "n": n,
                "weighted_sum": self.weighted_sums[n],
                "oracle_count": self.oracle_counts[n],
                "expected_sum": self.expected_sums[n],
            }

    def max_relative_error(self) -> float:
        err = 0.0
        for got, want in zip(self.weighted_sums, self.expected_sums):
            err = max(err, abs(got - want) / max(1.0, abs(want)))
        return err


def honeycomb_crosscheck(n_max: int, workers: int = 1) -> HoneycombComparison:
    """Compare rhombic weighted sums at theta=pi/3, rule (1,2,2), against
    u1^n times the independent honeycomb oracle count.

    The oracle count and the image check of every walk up to length 7
    are this process's own work: with ``workers`` > 1 they run here
    while the forked children search the rhombic walks, before this
    process joins the search, and with one worker after the cached
    aggregate.  Every child is reaped before this returns; when either
    of them raises, the children are killed first."""
    theta = math.pi / 3
    w = critical_weights(theta)
    oracle: list[int] = []
    checked = 0
    valid = True

    def visit(walk: Walk) -> None:
        nonlocal checked, valid
        checked += 1
        if not is_valid_hex_image(walk):
            valid = False

    def parent_work() -> None:
        oracle.extend(count_midedge_saws(n_max, start_class=1,
                                         forbidden_end_class=0))
        image_budget = min(n_max, 7)  # image validation is per-walk, keep it light
        enumerate_walks(MidEdge(0, 0, "V"), image_budget, HONEYCOMB_RULE,
                        visitor=visit)

    hist = free_walk_aggregate_parallel(n_max, HONEYCOMB_RULE, "V", workers,
                                        meanwhile=parent_work)
    sums = weighted_length_sums(hist, w)
    expected = [w.u1 ** n * oracle[n] for n in range(n_max + 1)]
    return HoneycombComparison(
        n_max=n_max,
        weighted_sums=tuple(sums),
        oracle_counts=tuple(oracle),
        expected_sums=tuple(expected),
        images_checked=checked,
        images_valid=valid,
    )
