import itertools
import math
import os

import pytest

from oracles import naive_midedge_saws
from skewsaw import series
from skewsaw.geometry import MidEdge
from skewsaw.honeycomb import _neighbours, count_midedge_saws
from skewsaw.series import (
    honeycomb_crosscheck,
    is_valid_hex_image,
    series_report,
    triangle_path,
)
from skewsaw.walks import (
    HONEYCOMB_RULE,
    LengthRule,
    UNIT_RULE,
    enumerate_walks,
    weight_of,
)
from skewsaw.weights import critical_weights


def test_series_report_trivial():
    rep = series_report(math.pi / 2, UNIT_RULE, 0)
    assert rep.c_tilde == (1.0,)
    assert rep.root_estimates == ()
    assert rep.ratio_estimates == ()


def test_series_targets():
    assert series_report(math.pi / 2, UNIT_RULE, 1).target == pytest.approx(
        math.sqrt(3 + 0.5 * math.sqrt(26 + 7 * math.sqrt(2))))
    assert series_report(math.pi / 3, UNIT_RULE, 1).target == pytest.approx(
        math.sqrt(2 + math.sqrt(2)))


def test_target_swap_symmetry():
    # the 2pi/3 growth target is 1/u2 of the pi/3 family
    t = series_report(2 * math.pi / 3, UNIT_RULE, 1).target
    assert t == pytest.approx(1.0 / critical_weights(math.pi / 3).u2)


def test_series_brackets_and_drift():
    rep = series_report(math.pi / 2, UNIT_RULE, 8)
    lo = (critical_weights(math.pi / 2).u1 + critical_weights(math.pi / 2).v) \
        / critical_weights(math.pi / 2).u1
    assert rep.lower_brackets[0] == pytest.approx(lo)
    for n in range(1, 9):
        assert rep.lower_brackets[n - 1] == pytest.approx(lo)  # unit rule
        assert lo - 1e-12 <= rep.root_estimates[n - 1] <= rep.upper_bracket + 1e-12
    # ratio estimates drift toward the target
    first = abs(rep.ratio_estimates[0] - rep.target)
    for r in rep.ratio_estimates[-3:]:
        assert abs(r - rep.target) < first


def test_series_positive():
    rep = series_report(math.pi / 3, UNIT_RULE, 6)
    assert all(c > 0 for c in rep.c_tilde)


def test_rule_change_keeps_target_and_lower_bracket():
    rule = LengthRule(1, 2, 2)
    rep = series_report(math.pi / 3, rule, 8)
    assert rep.target == pytest.approx(math.sqrt(2 + math.sqrt(2)))
    for n in range(1, 9):
        assert rep.root_estimates[n - 1] >= rep.lower_brackets[n - 1] - 1e-12
    # no submultiplicative upper bracket away from the unit rule:
    # c_2 = 6 > c_1^2 = 4 already violates it
    assert rep.upper_bracket is None
    assert rep.c_tilde[2] > rep.c_tilde[1] ** 2


@pytest.mark.parametrize(
    "rule", [LengthRule(*r) for r in itertools.product((1, 2, 3), repeat=3)],
    ids=lambda r: ",".join(map(str, r.as_tuple())))
def test_ratio_rows_stay_aligned_when_a_term_is_zero(rule):
    # with no passage of length 1, c_1 = 0 (with only even lengths, every
    # odd c_n = 0); a ratio over a zero term has no value: its row is empty
    rows = list(series_report(math.pi / 2, rule, 7).rows())
    assert rows[0]["ratio_estimate"] == ""
    for prev, row in zip(rows, rows[1:]):
        c_prev = prev["c_tilde"]
        want = row["c_tilde"] / c_prev if c_prev > 0 else ""
        assert row["ratio_estimate"] == want, f"row {row['n']}"


def test_honeycomb_counts_small():
    counts = count_midedge_saws(3)
    # one empty walk; two one-vertex walks each with one admissible exit;
    # hand count for two and three vertices
    assert counts[0] == 1
    assert counts[1] == 2
    assert counts[2] == 6
    assert counts[3] == 10


@pytest.mark.parametrize("forbidden", [None, 0, 1, 2])
@pytest.mark.parametrize("start", [0, 1, 2])
def test_honeycomb_oracle_equals_naive_reference(start, forbidden):
    ref = naive_midedge_saws(12, start, forbidden)
    for n in range(13):
        assert count_midedge_saws(n, start, forbidden) == ref[:n + 1]


def test_honeycomb_oracle_equals_naive_reference_at_defaults():
    assert count_midedge_saws(16) == naive_midedge_saws(16)


def test_honeycomb_crosscheck_exact():
    rep = honeycomb_crosscheck(8)
    assert rep.max_relative_error() < 1e-12
    assert rep.images_valid
    assert rep.oracle_counts[0] == 1
    # weighted sums equal u1^n * counts
    w = critical_weights(math.pi / 3)
    for n, cnt in enumerate(rep.oracle_counts):
        assert rep.weighted_sums[n] == pytest.approx(w.u1 ** n * cnt, rel=1e-12)


def test_crosscheck_with_a_pool_equals_one_process():
    one = honeycomb_crosscheck(12, workers=1)
    two = honeycomb_crosscheck(12, workers=2)
    assert two.weighted_sums == one.weighted_sums
    assert two.oracle_counts == one.oracle_counts
    assert two.expected_sums == one.expected_sums
    assert two.images_checked == one.images_checked == 325
    assert two.images_valid and one.images_valid


def has_child() -> bool:
    """Whether this process has a child, running or not yet reaped; it
    reaps none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def test_crosscheck_leaves_no_process_running(monkeypatch):
    honeycomb_crosscheck(10, workers=2)
    assert not has_child()

    def fail(*args, **kwargs):
        raise RuntimeError("oracle failed")

    # the oracle runs in the parent while the pool searches
    monkeypatch.setattr(series, "count_midedge_saws", fail)
    with pytest.raises(RuntimeError, match="oracle failed"):
        honeycomb_crosscheck(10, workers=2)
    assert not has_child()


def test_crosscheck_reports_a_rejected_image(monkeypatch):
    # the image check runs in the parent while the pool searches, and its
    # flag still reaches the report
    monkeypatch.setattr(series, "is_valid_hex_image", lambda walk: False)
    rep = honeycomb_crosscheck(8, workers=2)
    assert rep.images_checked > 0
    assert not rep.images_valid
    assert rep.max_relative_error() < 1e-12


def test_double_pi_minus_theta_walks_have_no_hexagonal_image():
    # at pi/3 a double-(pi - theta) rhombus weighs w2 = 0; both of its arcs
    # cross the diagonal, so the walk visits each of its triangles twice
    w = critical_weights(math.pi / 3)
    assert w.w2 == pytest.approx(0.0, abs=1e-12)
    doubles = []

    def visit(wk):
        if wk.profile()[4] > 0:
            doubles.append(wk)
        else:
            assert is_valid_hex_image(wk)

    enumerate_walks(MidEdge(0, 0, "V"), 11, HONEYCOMB_RULE, visitor=visit,
                    signs=(-1,))
    assert doubles
    for wk in doubles:
        assert not is_valid_hex_image(wk)
        assert weight_of(wk, w) == pytest.approx(0.0, abs=1e-12)


def test_triangle_images_are_hexagonal_saws():
    seen = []

    def visit(wk):
        seen.append(wk)
        assert is_valid_hex_image(wk)

    enumerate_walks(MidEdge(0, 0, "V"), 5, HONEYCOMB_RULE, visitor=visit)
    assert len(seen) > 50


def test_triangle_path_lengths_match_rule():
    def visit(wk):
        assert len(triangle_path(wk)) == wk.length(HONEYCOMB_RULE)

    enumerate_walks(MidEdge(0, 0, "V"), 4, HONEYCOMB_RULE, visitor=visit)


def test_no_w2_states_at_honeycomb_angle():
    # double (pi-theta)-arc states would map two arcs into crossing
    # triangles; their weight vanishes so they never contribute
    assert critical_weights(math.pi / 3).w2 == pytest.approx(0.0, abs=1e-15)


# n-step vertex self-avoiding walks on the honeycomb lattice, OEIS A001668
A001668 = [1, 3, 6, 12, 24, 48, 90, 174, 336, 648, 1218, 2328, 4416, 8388,
           15780]


def test_hexagonal_graph_reproduces_published_saw_counts():
    # anchors the oracle's own graph to the literature
    counts = [0] * len(A001668)
    visited = set()

    def rec(v, n):
        counts[n] += 1
        if n + 1 == len(counts):
            return
        visited.add(v)
        for u, _ in _neighbours(v):
            if u not in visited:
                rec(u, n + 1)
        visited.remove(v)

    rec(("A", 0, 0), 0)
    assert counts == A001668
