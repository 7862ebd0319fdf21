import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewsaw.weights import (
    SOLVE_RESIDUAL_TOL,
    WeightSet,
    _local_coefficient_rows,
    critical_weights,
    local_residuals,
    loop_parameter,
    on_weights,
    sigma_one_family,
    sigma_weights,
    solve_local_system,
    theta_grid,
)

GRID13 = theta_grid(13)
THETAS = [math.pi / 3, 5 * math.pi / 12, math.pi / 2, 7 * math.pi / 12,
          2 * math.pi / 3]

thetas_in_range = st.floats(math.pi / 3, 2 * math.pi / 3)


def maxdiff(a: WeightSet, b: WeightSet) -> float:
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))


def swap_gap(b: WeightSet, a: WeightSet) -> float:
    """How far b is from a with u1<->u2 and w1<->w2, the theta <-> pi-theta
    counterpart."""
    return max(abs(x - y)
               for x, y in zip(b.as_tuple(), (a.u2, a.u1, a.v, a.w2, a.w1)))


def test_honeycomb_point():
    w = critical_weights(math.pi / 3)
    u1 = 1.0 / math.sqrt(2.0 + math.sqrt(2.0))
    assert abs(w.u1 - u1) < 1e-12
    for val in (w.u2, w.v, w.w1):
        assert abs(val - u1 * u1) < 1e-12
    assert abs(w.w2) < 1e-12


def test_square_point_growth_constant():
    w = critical_weights(math.pi / 2)
    target = math.sqrt(3.0 + 0.5 * math.sqrt(26.0 + 7.0 * math.sqrt(2.0)))
    assert abs(1.0 / w.u1 - target) < 1e-12
    assert abs(w.u1 - w.u2) < 1e-12
    assert abs(w.w1 - w.w2) < 1e-12
    # known decimal values of the pi/2 revisit and straight penalties
    assert abs(w.w1 / w.u1 ** 2 - 0.675) < 1e-3
    assert abs(w.v / w.u1 - 0.785) < 1e-3


def test_theta_swap_at_endpoints():
    a = critical_weights(math.pi / 3)
    b = critical_weights(2 * math.pi / 3)
    assert swap_gap(b, a) < 1e-12


@given(thetas_in_range)
def test_theta_reflection_symmetry(theta):
    a = critical_weights(theta)
    b = critical_weights(math.pi - theta)
    assert swap_gap(b, a) < 1e-11
    assert abs(a.v - b.v) < 1e-11


def test_families_coincide_on_grid():
    for th in GRID13:
        a = critical_weights(th)
        b = sigma_weights(th, 5 / 8)
        c, n = on_weights(th, -3 / 8)
        assert maxdiff(a, b) < 1e-12
        assert maxdiff(a, c) < 1e-12
        assert abs(n) < 1e-12


def test_critical_rejects_out_of_range():
    with pytest.raises(ValueError):
        critical_weights(math.pi / 4)


def test_sigma_rejects_off_locus():
    with pytest.raises(ValueError):
        sigma_weights(math.pi / 2, 0.5)   # 4/8: even numerator
    with pytest.raises(ValueError):
        sigma_weights(math.pi / 2, 0.6)   # not a multiple of 1/8
    sigma_weights(math.pi / 2, 11 / 8)    # odd multiples are fine


def test_sigma_rejects_degenerate_denominator():
    # (sigma-1)(pi+theta) hits a multiple of pi here
    with pytest.raises(ValueError):
        sigma_weights(11 * math.pi / 21, 29 / 8)


def test_on_weights_rejects_degenerate_s():
    with pytest.raises(ValueError):
        on_weights(math.pi / 2, 0.0)
    with pytest.raises(ValueError):
        on_weights(math.pi / 2, 3.0)  # sin(pi*s/3) = 0


def test_sigma_one_family_values():
    w = sigma_one_family(1.0)
    assert w.as_tuple() == (1.0, 0.0, 0.0, 1.0, 0.0)
    w = sigma_one_family(0.5)
    assert w.as_tuple() == (0.5, 0.5, 0.0, 0.5, 0.5)


@given(st.floats(-0.5, 1.5), thetas_in_range)
def test_sigma_one_residuals_vanish_any_u1_any_theta(u1, theta):
    r = local_residuals(sigma_one_family(u1), 1.0, theta)
    assert r.max_abs() < 1e-12


def test_local_residuals_vanish_on_grid():
    for th in GRID13:
        assert local_residuals(sigma_weights(th, 5 / 8), 5 / 8, th).max_abs() < 1e-12
        for u1 in (0.3, 0.5, 0.9):
            assert local_residuals(sigma_one_family(u1), 1.0, th).max_abs() < 1e-12


def test_local_residuals_other_sigma_branch():
    # a valid family with negative entries; relations still hold
    w = sigma_weights(math.pi / 2, 3 / 8)
    assert min(w.as_tuple()) < 0
    # residual scale tracks the weight scale (entries are ~20 here)
    assert local_residuals(w, 3 / 8, math.pi / 2).max_abs() < 1e-12 * 100


def test_on_weights_vs_sigma_lattice():
    # s = sigma - 1 with sigma = (6k+5)/8 reproduces the sigma family
    for k in (0, 1, -1):
        sigma = (6 * k + 5) / 8
        s = sigma - 1.0
        for th in THETAS:
            a = sigma_weights(th, sigma)
            b, _ = on_weights(th, s)
            assert maxdiff(a, b) < 1e-10


def test_on_weights_honeycomb_factorization():
    for s in (-3 / 8, 0.5, 0.75, 1.2):
        w, n = on_weights(math.pi / 3, s)
        assert abs(w.w2) < 1e-12
        for val in (w.u2, w.v, w.w1):
            assert abs(val - w.u1 ** 2) < 1e-12
        # honeycomb edge weight 1/sqrt(2 +- sqrt(2-n))
        candidates = [1.0 / math.sqrt(2.0 + math.sqrt(2.0 - n)),
                      1.0 / math.sqrt(2.0 - math.sqrt(2.0 - n)),
                      -1.0 / math.sqrt(2.0 + math.sqrt(2.0 - n)),
                      -1.0 / math.sqrt(2.0 - math.sqrt(2.0 - n))]
        assert min(abs(w.u1 - c) for c in candidates) < 1e-12


@given(st.floats(-1.0, 2.0), thetas_in_range)
def test_on_weights_theta_reflection(s, theta):
    try:
        a, na = on_weights(theta, s)
        b, nb = on_weights(math.pi - theta, s)
    except ValueError:
        return  # degenerate denominator: nothing to compare
    assert abs(na - nb) < 1e-12
    assert swap_gap(b, a) < 1e-9 * max(1.0, max(map(abs, a.as_tuple())))


def test_perturbed_weights_break_relations():
    w = critical_weights(math.pi / 2)
    wp = WeightSet(w.u1 + 0.01, w.u2, w.v, w.w1, w.w2)
    assert local_residuals(wp, 5 / 8, math.pi / 2).max_abs() > 1e-4


def test_perturbation_sensitivity_scales_linearly():
    # residual responds at least proportionally to a small perturbation
    w = critical_weights(math.pi / 2)
    eps = 1e-3
    for field in range(5):
        vals = list(w.as_tuple())
        vals[field] += eps
        r = local_residuals(WeightSet(*vals), 5 / 8, math.pi / 2).max_abs()
        assert r >= 0.1 * eps


def test_positivity_and_inequalities_on_grid():
    for th in GRID13:
        w = critical_weights(th)
        assert all(x >= -1e-12 for x in w.as_tuple())
        assert w.u1 ** 2 - w.w1 >= -1e-12
        assert w.u2 ** 2 - w.w2 >= -1e-12


@pytest.mark.parametrize("theta", [math.pi / 4, 3 * math.pi / 4])
def test_exactly_one_inequality_fails_outside_range(theta):
    w = sigma_weights(theta, 5 / 8)  # formula evaluation only
    fails = [w.u1 ** 2 < w.w1 - 1e-12, w.u2 ** 2 < w.w2 - 1e-12]
    assert sum(fails) == 1
    assert min(w.w1, w.w2) < 0


def test_solver_roundtrip_on_solvable_locus():
    for sigma in (3 / 8, 5 / 8, 7 / 8):
        sol = solve_local_system(sigma, math.pi / 2)
        assert sol.weights is not None
        assert sol.residual < 1e-12 * max(1.0, max(map(abs, sol.weights.as_tuple())))
        ref = sigma_weights(math.pi / 2, sigma)
        assert maxdiff(sol.weights, ref) < 1e-9
        assert sol.rank == 5


def test_solver_rank_deficiency_at_sigma_one():
    sol = solve_local_system(1.0, math.pi / 2)
    assert sol.rank_deficiency == 1
    assert sol.residual < 1e-12
    # the free direction is the sigma-one family line
    (direction,) = sol.nullspace
    scale = direction[0]
    assert abs(scale) > 1e-6
    normalized = tuple(d / scale for d in direction)
    expected = (1.0, -1.0, 0.0, 1.0, -1.0)
    assert max(abs(a - b) for a, b in zip(normalized, expected)) < 1e-9
    # min-norm solution + a multiple of the direction satisfies the family
    w = sol.weights
    assert abs(w.u1 + w.u2 - 1.0) < 1e-9
    assert abs(w.w1 - w.u1) < 1e-9 and abs(w.w2 - w.u2) < 1e-9


def test_solver_no_solution_off_locus():
    sol = solve_local_system(0.7, math.pi / 2)
    assert sol.residual > 1e-6
    assert sol.weights is None


# 19 angles, 13 in range and 6 around or outside it, by 20 spins: the
# odd multiples of 1/8 (solvable), sigma = 1 (a solution line) and
# spins with no solution
SOLVER_THETAS = GRID13 + [math.pi / 3, math.pi / 2, 2 * math.pi / 3,
                          1.0, 2.5, 0.3]
SOLVER_SIGMAS = sorted({k / 8 for k in range(1, 17)}
                       | {0.3, 1 / 3, 0.55, 0.7, 1.25})
SOLVER_CASES = [(th, sg) for th in SOLVER_THETAS for sg in SOLVER_SIGMAS]


def real_system(sigma, theta):
    """The 8x5 real rows and right-hand side of the local relations."""
    A, b = [], []
    for coeffs, const in _local_coefficient_rows(sigma, theta):
        A += [[complex(c).real for c in coeffs],
              [complex(c).imag for c in coeffs]]
        b += [-complex(const).real, -complex(const).imag]
    return A, b


def test_solver_over_the_case_matrix():
    assert len(SOLVER_CASES) == 380
    for theta, sigma in SOLVER_CASES:
        sol = solve_local_system(sigma, theta)
        A, b = real_system(sigma, theta)
        ell = sigma * 8
        odd = ell == round(ell) and round(ell) % 2 == 1
        assert sol.rank == (4 if sigma == 1 else 5), (theta, sigma)
        assert (sol.weights is not None) == (odd or sigma == 1), (theta, sigma)
        x = sol.weights.as_tuple() if sol.weights is not None else None
        if odd:
            assert maxdiff(sol.weights, sigma_weights(theta, sigma)) < 1e-9
        if sigma == 1:
            (v,) = sol.nullspace
            assert abs(math.hypot(*v) - 1.0) < 1e-12
            assert math.hypot(*(sum(a * c for a, c in zip(row, v))
                                for row in A)) < 1e-12
            # minimum norm: no component along the solution line
            assert abs(sum(a * c for a, c in zip(x, v))) < 1e-12
        else:
            assert sol.nullspace == ()
        if x is not None:
            r = math.hypot(*(sum(a * c for a, c in zip(row, x)) - rhs
                             for row, rhs in zip(A, b)))
            assert abs(sol.residual - r) < 1e-12, (theta, sigma)


def test_solver_matches_numpy():
    np = pytest.importorskip("numpy")
    for theta, sigma in SOLVER_CASES:
        sol = solve_local_system(sigma, theta)
        A, b = (np.array(m) for m in real_system(sigma, theta))
        x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        residual = float(np.linalg.norm(A @ x - b))
        assert sol.rank == rank, (theta, sigma)
        assert (sol.weights is None) == (residual >= SOLVE_RESIDUAL_TOL)
        assert abs(sol.residual - residual) < 1e-12, (theta, sigma)
        if sol.weights is not None:
            assert max(abs(sol.weights.as_tuple() - x)) < 1e-11
        # the same null space: equal orthogonal projectors onto it
        vt = np.linalg.svd(A)[2][rank:]
        ns = np.array(sol.nullspace).reshape(len(vt), 5)
        assert abs(ns.T @ ns - vt.T @ vt).max() < 1e-14, (theta, sigma)


@pytest.mark.parametrize("sigma, theta", [(math.nan, 1.0), (0.625, math.inf)])
def test_solver_refuses_a_non_finite_system(sigma, theta):
    with pytest.raises(ValueError,
                       match=f"sigma={sigma!r}, theta={theta!r}"):
        solve_local_system(sigma, theta)


def test_loop_parameter_values():
    assert abs(loop_parameter(-3 / 8)) < 1e-12
    assert abs(loop_parameter(0.5) - 1.0) < 1e-12
    assert abs(loop_parameter(0.75) - 2.0) < 1e-12


def test_fugacity_rescaling_is_per_length():
    w = critical_weights(math.pi / 2)
    x = 0.8 * w.x_c
    wx = w.at_fugacity(x)
    r = x / w.x_c
    assert abs(wx.u1 - r * w.u1) < 1e-15
    assert abs(wx.u2 - r * w.u2) < 1e-15
    assert abs(wx.v - r * w.v) < 1e-15
    assert abs(wx.w1 - r * r * w.w1) < 1e-15
    assert abs(wx.w2 - r * r * w.w2) < 1e-15
