"""Geometry of the skewed square lattice.

Vertices sit at ``i*e1 + j*e2`` with ``e1 = (1, 0)`` and
``e2 = (cos(theta), sin(theta))``.  Every face is a rhombus with angles
``theta`` (at its SW and NE corners) and ``pi - theta`` (at SE and NW).
Walks live on mid-edges: they start, end and turn at edge midpoints and
cross every edge at a right angle.

Conventions fixed here and relied on everywhere else:

* ``MidEdge(i, j, 'H')`` is the midpoint of the edge from vertex (i, j)
  to (i+1, j); ``'V'`` the edge from (i, j) to (i, j+1).
* ``Rhombus(i, j)`` has corners (i, j), (i+1, j), (i+1, j+1), (i, j+1)
  and mid-edges bottom H(i,j), right V(i+1,j), top H(i,j+1), left V(i,j).
* Crossing signs: ``+1`` crosses an H edge upward (toward +e2) and a V
  edge rightward (toward +e1).
* Turns are counter-clockwise positive.  An arc around a theta-corner
  turns by +-theta, around a (pi-theta)-corner by +-(pi-theta), and a
  straight passage turns by 0.  Turn totals are tracked exactly as
  integer multiples (n_theta, n_pi_minus_theta).
* ``PLAQUETTE_STATES`` lists the nine states a rhombus can hold; the
  passage table here, the walk search's transitions and the loop
  model's cell states are all derived from it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

THETA_MIN = math.pi / 3
THETA_MAX = 2 * math.pi / 3

_RANGE_SLACK = 1e-12


def as_theta(theta) -> float:
    """A rhombus angle as a float, restricted to [pi/3, 2pi/3].

    Outside this window one of the double-arc weights of the critical
    family goes negative, so domain-level code refuses such angles.
    """
    th = float(theta)
    if not (THETA_MIN - _RANGE_SLACK <= th <= THETA_MAX + _RANGE_SLACK):
        raise ValueError(f"lattice angle {th!r} outside [pi/3, 2pi/3]")
    return th


def basis(theta: float) -> tuple[complex, complex]:
    """Embedding basis (e1, e2) as complex numbers."""
    return 1.0 + 0.0j, cmath.exp(1j * theta)


@dataclass(frozen=True, order=True)
class MidEdge:
    """Midpoint of a lattice edge, addressed by exact integer coordinates."""

    i: int
    j: int
    orient: str  # 'H' or 'V'

    def __post_init__(self) -> None:
        if self.orient not in ("H", "V"):
            raise ValueError(f"orient must be 'H' or 'V', got {self.orient!r}")

    def embed(self, theta: float) -> complex:
        e1, e2 = basis(theta)
        if self.orient == "H":
            return (self.i + 0.5) * e1 + self.j * e2
        return self.i * e1 + (self.j + 0.5) * e2

    def rhombi(self) -> tuple["Rhombus", "Rhombus"]:
        """The two faces sharing this edge, (+1)-side first.

        For an H edge the +1 crossing direction points into the first
        rhombus returned; for a V edge likewise.
        """
        if self.orient == "H":
            return Rhombus(self.i, self.j), Rhombus(self.i, self.j - 1)
        return Rhombus(self.i, self.j), Rhombus(self.i - 1, self.j)

    def normal(self, theta: float, sign: int = 1) -> complex:
        """Unit crossing direction for the given sign."""
        if self.orient == "H":
            return sign * 1j
        return sign * cmath.exp(1j * (theta - math.pi / 2))


@dataclass(frozen=True, order=True)
class Rhombus:
    """Face with corners (i,j), (i+1,j), (i+1,j+1), (i,j+1)."""

    i: int
    j: int

    def mid_edges(self) -> tuple[MidEdge, MidEdge, MidEdge, MidEdge]:
        """(bottom, right, top, left) mid-edges."""
        return (
            MidEdge(self.i, self.j, "H"),
            MidEdge(self.i + 1, self.j, "V"),
            MidEdge(self.i, self.j + 1, "H"),
            MidEdge(self.i, self.j, "V"),
        )

    def center(self, theta: float) -> complex:
        e1, e2 = basis(theta)
        return (self.i + 0.5) * e1 + (self.j + 0.5) * e2


# The nine plaquette states, indexed by state code.  A rhombus has
# corners c0..c3 = (SW, SE, NE, NW) counter-clockwise, with the angle
# theta at c0 and c2, and sides 0..3 = (B, R, T, L), side k running from
# c_k to c_{k+1}.  An arc around corner c_k joins sides k-1 and k; a
# straight joins opposite sides; a double state is two arcs around
# opposite corners.  Each row is (name, side pairs, weight slot), the
# slot indexing the weights (u1, u2, v, w1, w2) of WeightSet.as_tuple()
# (None for the empty state).  Every other table of states, passages and
# transitions is derived from this one.
PLAQUETTE_STATES = (
    ("empty", (), None),
    ("arc_sw", ((3, 0),), 0),
    ("arc_se", ((0, 1),), 1),
    ("arc_ne", ((1, 2),), 0),
    ("arc_nw", ((2, 3),), 1),
    ("straight_bt", ((0, 2),), 2),
    ("straight_lr", ((1, 3),), 2),
    ("double_theta", ((3, 0), (1, 2)), 3),
    ("double_pi_minus_theta", ((0, 1), (2, 3)), 4),
)

# Step.kind by the weight slot of a single state
_KINDS = ("arc_theta", "arc_pi_minus_theta", "straight")


def _passages() -> dict:
    """(src side, dst side) -> (state code, dtheta, dpmt) per single state.

    Passing from side k to side k-1 keeps corner c_k on the left: a
    counter-clockwise turn by the corner's angle, theta at c0 and c2,
    pi - theta at c1 and c3.  The reverse passage turns back by as much.
    """
    out = {}
    for code, (_, pairs, _) in enumerate(PLAQUETTE_STATES):
        if len(pairs) != 1:
            continue
        (a, b), = pairs
        if (b - a) % 4 == 2:     # straight
            dt, dp = 0, 0
        elif b % 2 == 0:         # arc around c_b = c0 or c2
            dt, dp = 1, 0
        else:
            dt, dp = 0, 1
        out[(b, a)] = (code, dt, dp)
        out[(a, b)] = (code, -dt, -dp)
    return out


PASSAGE = _passages()


# side index by the offset (m.i - r.i, m.j - r.j, m.orient) of a side m of r
_SIDE_AT = {(m.i, m.j, m.orient): k
            for k, m in enumerate(Rhombus(0, 0).mid_edges())}


def _side_position(r: Rhombus, m: MidEdge) -> int:
    """The index of ``m`` in ``r.mid_edges()``, found without building them."""
    side = _SIDE_AT.get((m.i - r.i, m.j - r.j, m.orient))
    if side is None:
        raise ValueError(f"{m} is not a mid-edge of {r}")
    return side


@dataclass(frozen=True, order=True)
class Step:
    """One passage of a rhombus, from one of its mid-edges to another."""

    rhombus: Rhombus
    src: MidEdge
    dst: MidEdge

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("step endpoints must differ")
        # Raises if either endpoint does not belong to the rhombus.
        _side_position(self.rhombus, self.src)
        _side_position(self.rhombus, self.dst)

    def _passage(self) -> tuple[int, int, int]:
        return PASSAGE[(_side_position(self.rhombus, self.src),
                        _side_position(self.rhombus, self.dst))]

    @property
    def state_code(self) -> int:
        """Code of the single plaquette state this passage leaves."""
        return self._passage()[0]

    @property
    def component(self) -> str:
        """The corner an arc surrounds ('sw', ...) or the straight ('bt', 'lr')."""
        return PLAQUETTE_STATES[self.state_code][0].partition("_")[2]

    @property
    def kind(self) -> str:
        return _KINDS[PLAQUETTE_STATES[self.state_code][2]]

    @property
    def turn_units(self) -> tuple[int, int]:
        _, dt, dp = self._passage()
        return dt, dp

    def turn(self, theta: float) -> float:
        dt, dp = self.turn_units
        return dt * theta + dp * (math.pi - theta)

    @property
    def entry_sign(self) -> int:
        """Crossing sign at src that enters this step's rhombus."""
        return 1 if self.src.rhombi()[0] == self.rhombus else -1

    @property
    def exit_sign(self) -> int:
        """Crossing sign at dst that leaves this step's rhombus."""
        return -1 if self.dst.rhombi()[0] == self.rhombus else 1


def step_candidates(src: MidEdge, domain: "ParallelogramDomain | None" = None,
                    sign: int | None = None) -> list[Step]:
    """All steps leaving a mid-edge.

    Six on the free lattice (three through each adjacent rhombus); fewer
    when a domain clips a side or the crossing sign is pinned.
    """
    out = []
    plus, minus = src.rhombi()
    for s, r in ((1, plus), (-1, minus)):
        if sign is not None and s != sign:
            continue
        if domain is not None and not domain.contains_rhombus(r):
            continue
        for dst in r.mid_edges():
            if dst != src:
                out.append(Step(r, src, dst))
    out.sort(key=lambda st: (st.rhombus, st.dst))
    return out


@dataclass(frozen=True)
class ParallelogramDomain:
    """Finite parallelogram of T columns by 2L+1 rows of rhombi.

    Rhombi are R(i, j) with 0 <= i < T and -L <= j <= L.  The origin
    mid-edge ``a = V(0, 0)`` sits in the middle of the left side; walks
    launched from it enter the domain crossing rightward (sign +1).

    Sides (as sets of boundary mid-edges):

    * alpha   -- left,   V(0, j),   2L+1 edges, contains the origin
    * beta    -- right,  V(T, j),   2L+1 edges
    * delta   -- bottom, H(i, -L),  T edges
    * epsilon -- top,    H(i, L+1), T edges
    """

    T: int
    L: int
    theta: float

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("T must be a positive integer")
        if self.L < 0:
            raise ValueError("L must be a non-negative integer")
        as_theta(self.theta)

    @property
    def origin(self) -> MidEdge:
        return MidEdge(0, 0, "V")

    @property
    def origin_sign(self) -> int:
        return 1

    @property
    def n_rhombi(self) -> int:
        return (2 * self.L + 1) * self.T

    def contains_rhombus(self, r: Rhombus) -> bool:
        return 0 <= r.i < self.T and -self.L <= r.j <= self.L

    def rhombi(self):
        for i in range(self.T):
            for j in range(-self.L, self.L + 1):
                yield Rhombus(i, j)

    def mid_edges(self) -> set[MidEdge]:
        out: set[MidEdge] = set()
        for r in self.rhombi():
            out.update(r.mid_edges())
        return out

    def side_of(self, m: MidEdge) -> str | None:
        """'alpha' | 'beta' | 'delta' | 'epsilon' | 'interior' | None."""
        if m.orient == "V":
            if -self.L <= m.j <= self.L:
                if m.i == 0:
                    return "alpha"
                if m.i == self.T:
                    return "beta"
                if 0 < m.i < self.T:
                    return "interior"
            return None
        if 0 <= m.i < self.T:
            if m.j == -self.L:
                return "delta"
            if m.j == self.L + 1:
                return "epsilon"
            if -self.L < m.j < self.L + 1:
                return "interior"
        return None
