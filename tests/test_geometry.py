import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewsaw.geometry import (
    PASSAGE,
    MidEdge,
    ParallelogramDomain,
    Rhombus,
    Step,
    _side_position,
    as_theta,
    step_candidates,
)

THETAS = [math.pi / 3, 5 * math.pi / 12, math.pi / 2, 7 * math.pi / 12,
          2 * math.pi / 3]


def winding_increment(prev_direction: complex, step: Step, theta: float) -> float:
    """Signed turn contributed by one step, given the crossing direction
    at its source edge.

    ``prev_direction`` must equal the inward normal of the step's
    rhombus at ``step.src`` (the walk has to enter the face it passes).
    The exact turn is checked against the embedded normals: a mismatch
    means the passage table and the embedding disagree.
    """
    entry = step.src.normal(theta, step.entry_sign)
    if abs(prev_direction - entry) > 1e-9:
        raise ValueError(
            f"direction {prev_direction} does not enter {step.rhombus} "
            f"through {step.src}"
        )
    turn = step.turn(theta)
    exit_dir = step.dst.normal(theta, step.exit_sign)
    expected = cmath.phase(exit_dir / entry)
    if abs(_wrap_angle(turn) - expected) > 1e-9:
        raise ValueError(f"inconsistent turn for step {step}")
    return turn


def _wrap_angle(x: float) -> float:
    while x <= -math.pi:
        x += 2 * math.pi
    while x > math.pi:
        x -= 2 * math.pi
    return x


def test_lattice_angle_rejects_out_of_range():
    with pytest.raises(ValueError):
        as_theta(math.pi / 4)
    with pytest.raises(ValueError):
        as_theta(3 * math.pi / 4)
    as_theta(math.pi / 3)
    as_theta(2 * math.pi / 3)


def test_embeddings_distinct_within_window():
    theta = 5 * math.pi / 12
    seen = {}
    for i in range(-4, 5):
        for j in range(-4, 5):
            for orient in ("H", "V"):
                z = MidEdge(i, j, orient).embed(theta)
                key = (round(z.real, 9), round(z.imag, 9))
                assert key not in seen
                seen[key] = (i, j, orient)


def test_each_midedge_borders_two_rhombi_and_rhombus_has_four_midedges():
    m = MidEdge(3, -2, "H")
    r1, r2 = m.rhombi()
    assert r1 != r2
    assert all(m in r.mid_edges() for r in (r1, r2))
    r = Rhombus(0, 0)
    mids = r.mid_edges()
    assert len(set(mids)) == 4
    for m in mids:
        assert r in m.rhombi()


def test_side_position_equals_index_in_mid_edges():
    for i in range(-3, 4):
        for j in range(-3, 4):
            r = Rhombus(i, j)
            sides = r.mid_edges()
            for k, m in enumerate(sides):
                assert _side_position(r, m) == sides.index(m) == k
            # the sides of the neighbouring rhombi, and their neighbours
            for di in range(-2, 3):
                for dj in range(-2, 3):
                    for orient in "HV":
                        m = MidEdge(i + di, j + dj, orient)
                        if m in sides:
                            continue
                        with pytest.raises(ValueError, match="is not a mid-edge"):
                            _side_position(r, m)


def test_step_rejects_a_foreign_mid_edge():
    r = Rhombus(2, -1)
    bottom, _, top, _ = r.mid_edges()
    # a side of each neighbouring rhombus that is not a side of r
    for foreign in (MidEdge(3, -1, "H"), MidEdge(2, 1, "H"),
                    MidEdge(4, -1, "V"), MidEdge(1, -1, "V")):
        with pytest.raises(ValueError, match="is not a mid-edge"):
            Step(r, bottom, foreign)
        with pytest.raises(ValueError, match="is not a mid-edge"):
            Step(r, foreign, top)


def test_step_candidates_free_lattice():
    for m in (MidEdge(0, 0, "H"), MidEdge(0, 0, "V")):
        steps = step_candidates(m)
        assert len(steps) == 6
        rhombi = {s.rhombus for s in steps}
        assert rhombi == set(m.rhombi())
        # three exits per rhombus
        for r in rhombi:
            assert sum(1 for s in steps if s.rhombus == r) == 3


def test_step_candidates_domain_truncation():
    d = ParallelogramDomain(2, 1, math.pi / 2)
    # H(0,0): R(0,0) inside, R(0,-1) inside too (L=1) -> 6
    assert len(step_candidates(MidEdge(0, 0, "H"), domain=d)) == 6
    # origin V(0,0): R(-1,0) is outside -> 3
    assert len(step_candidates(MidEdge(0, 0, "V"), domain=d)) == 3
    # bottom boundary H(0,-1): R(0,-2) outside -> 3
    assert len(step_candidates(MidEdge(0, -1, "H"), domain=d)) == 3
    # single-row domain: R(0,-1) outside clips H(0,0) to 3
    d0 = ParallelogramDomain(2, 0, math.pi / 2)
    assert len(step_candidates(MidEdge(0, 0, "H"), domain=d0)) == 3


def test_step_kinds_and_turns():
    theta = math.pi / 3
    r = Rhombus(0, 0)
    b, rt, t, lf = r.mid_edges()
    straight = Step(r, b, t)
    assert straight.kind == "straight"
    assert straight.turn(theta) == 0.0
    arc = Step(r, b, lf)  # around the SW theta-corner
    assert arc.kind == "arc_theta"
    assert math.isclose(arc.turn(theta), theta)
    arc2 = Step(r, b, rt)  # around the SE corner
    assert arc2.kind == "arc_pi_minus_theta"
    assert math.isclose(arc2.turn(theta), theta - math.pi)


def test_winding_calibration_pair():
    # from the bottom mid-edge: the arc to the left side winds by theta,
    # the arc to the right side by theta - pi
    theta = 0.52 * math.pi
    r = Rhombus(0, 0)
    b, rt, t, lf = r.mid_edges()
    up = b.normal(theta, 1)
    assert math.isclose(winding_increment(up, Step(r, b, lf), theta), theta)
    assert math.isclose(winding_increment(up, Step(r, b, rt), theta),
                        theta - math.pi)
    assert winding_increment(up, Step(r, b, t), theta) == 0.0


def test_winding_rejects_wrong_direction():
    theta = math.pi / 2
    r = Rhombus(0, 0)
    b, _, t, lf = r.mid_edges()
    down = b.normal(theta, -1)
    with pytest.raises(ValueError):
        winding_increment(down, Step(r, b, lf), theta)


@pytest.mark.parametrize("theta", THETAS)
def test_every_passage_turn_agrees_with_embedded_normals(theta):
    # all twelve ordered side pairs of a rhombus, through both rhombi of
    # an H and a V mid-edge
    sides = set()
    for m in (MidEdge(0, 0, "H"), MidEdge(0, 0, "V")):
        for s in step_candidates(m):
            # raises when the exact turn and the embedding disagree
            winding_increment(s.src.normal(theta, s.entry_sign), s, theta)
            sides.add((s.rhombus.mid_edges().index(s.src),
                       s.rhombus.mid_edges().index(s.dst)))
    assert sides == set(PASSAGE) and len(sides) == 12


@pytest.mark.parametrize("theta", THETAS)
def test_closed_four_arc_loop_winds_full_turn(theta):
    # arcs around the single vertex (1, 1), one in each incident rhombus
    steps = [
        Step(Rhombus(1, 0), MidEdge(1, 0, "V"), MidEdge(1, 1, "H")),   # nw
        Step(Rhombus(1, 1), MidEdge(1, 1, "H"), MidEdge(1, 1, "V")),   # sw
        Step(Rhombus(0, 1), MidEdge(1, 1, "V"), MidEdge(0, 1, "H")),   # se
        Step(Rhombus(0, 0), MidEdge(0, 1, "H"), MidEdge(1, 0, "V")),   # ne
    ]
    direction = steps[0].src.normal(theta, steps[0].entry_sign)
    total = 0.0
    for s in steps:
        total += winding_increment(direction, s, theta)
        direction = s.dst.normal(theta, s.exit_sign)
    assert math.isclose(total, 2 * math.pi)
    # returns to the start mid-edge with the starting crossing direction
    assert steps[-1].dst == steps[0].src
    assert steps[-1].exit_sign == steps[0].entry_sign


@given(st.integers(1, 5), st.integers(0, 4))
def test_domain_rhombus_count(T, L):
    d = ParallelogramDomain(T, L, math.pi / 2)
    assert sum(1 for _ in d.rhombi()) == (2 * L + 1) * T == d.n_rhombi


def test_domain_sides():
    d = ParallelogramDomain(3, 1, math.pi / 2)
    assert d.side_of(d.origin) == "alpha"
    assert d.side_of(MidEdge(0, 1, "V")) == "alpha"
    assert d.side_of(MidEdge(3, -1, "V")) == "beta"
    assert d.side_of(MidEdge(1, -1, "H")) == "delta"
    assert d.side_of(MidEdge(2, 2, "H")) == "epsilon"
    assert d.side_of(MidEdge(1, 0, "V")) == "interior"
    assert d.side_of(MidEdge(0, 3, "H")) is None
    sides = {"alpha": 0, "beta": 0, "delta": 0, "epsilon": 0, "interior": 0}
    for m in d.mid_edges():
        sides[d.side_of(m)] += 1
    assert sides["alpha"] == sides["beta"] == 2 * d.L + 1
    assert sides["delta"] == sides["epsilon"] == d.T


def test_origin_is_middle_of_alpha():
    d = ParallelogramDomain(4, 2, math.pi / 2)
    alpha = sorted(m.j for m in d.mid_edges() if d.side_of(m) == "alpha")
    assert alpha == [-2, -1, 0, 1, 2]
    assert d.origin.j == 0


def test_entry_exit_signs_agree_with_embedding():
    theta = 0.47 * math.pi
    for m in (MidEdge(0, 0, "H"), MidEdge(0, 0, "V")):
        for s in step_candidates(m):
            entry = s.src.normal(theta, s.entry_sign)
            # entering direction points toward the rhombus centre
            c = s.rhombus.center(theta)
            gap = c - s.src.embed(theta)
            assert entry.real * gap.real + entry.imag * gap.imag > 0
            exit_dir = s.dst.normal(theta, s.exit_sign)
            gap2 = s.dst.embed(theta) - c
            assert exit_dir.real * gap2.real + exit_dir.imag * gap2.imag > 0
