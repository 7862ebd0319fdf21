"""Integrable plaquette weight families and the local linear system.

Five weights attach to the plaquette passage states: ``u1`` for a single
arc of angle theta, ``u2`` for a single arc of angle pi - theta, ``v``
for a straight passage, ``w1``/``w2`` for the two-arc states.  The
closed forms below are trigonometric products in theta and a family
parameter (a spin sigma or a loop parameter s); ``local_residuals``
evaluates the four complex linear relations those weights are defined
to satisfy, and ``solve_local_system`` recovers the weights from the
relations numerically, by a pure-Python Jacobi SVD of their 8x5 real
form that reproduces numpy's minimum-norm ``lstsq`` and its rank cut.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .geometry import as_theta


@dataclass(frozen=True)
class WeightSet:
    """The five plaquette weights."""

    u1: float
    u2: float
    v: float
    w1: float
    w2: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.u1, self.u2, self.v, self.w1, self.w2)

    @property
    def x_c(self) -> float:
        """Critical fugacity: the per-unit-length weight u1."""
        return self.u1

    def at_fugacity(self, x: float) -> "WeightSet":
        """Rescale so a length-n walk picks up (x/x_c)^n relative to this set."""
        xc = self.x_c
        return replace(
            self,
            u1=x,
            u2=x * self.u2 / xc,
            v=x * self.v / xc,
            w1=x * x * self.w1 / (xc * xc),
            w2=x * x * self.w2 / (xc * xc),
        )


def critical_weights(theta) -> WeightSet:
    """The critical weight family on [pi/3, 2pi/3].

    Equals ``sigma_weights(theta, 5/8)`` componentwise; kept as a
    separate closed form because it is the family every growth-constant
    statement refers to.
    """
    th = as_theta(theta)  # range-checked
    q = 3.0 * th / 8.0
    a = 5.0 * math.pi / 4.0
    b = 5.0 * math.pi / 8.0
    denom = math.sin(a + q) * math.sin(b - q)
    return WeightSet(
        u1=math.sin(a) * math.sin(b + q) / denom,
        u2=math.sin(a) * math.sin(q) / denom,
        v=math.sin(b + q) * math.sin(-q) / denom,
        w1=math.sin(b + q) * math.sin(a - q) / denom,
        w2=math.sin(15.0 * math.pi / 8.0 + q) * math.sin(-q) / denom,
    )


def _require_eighth_odd(sigma: float) -> None:
    ell = sigma * 8.0
    if abs(ell - round(ell)) > 1e-9 or round(ell) % 2 == 0:
        raise ValueError(
            f"sigma={sigma!r} is not an odd multiple of 1/8; no generic "
            "weight solution exists off that locus"
        )


def sigma_weights(theta: float, sigma: float) -> WeightSet:
    """Weight family solving the local relations at spin sigma = ell/8, ell odd.

    theta is not range-restricted here: evaluating outside [pi/3, 2pi/3]
    is legitimate (and used to demonstrate where the positivity
    inequalities break down).
    """
    _require_eighth_odd(sigma)
    th = float(theta)
    s1 = sigma - 1.0
    t = math.sin(s1 * (math.pi + th)) * math.sin(s1 * (2.0 * math.pi - th))
    if abs(t) < 1e-12:
        raise ValueError(f"degenerate denominator t=0 at sigma={sigma}, theta={theta}")
    sin2s = math.sin(2.0 * sigma * math.pi)
    sp = math.sin(s1 * (math.pi - th))   # recurring factor, (pi-theta) leg
    st = math.sin(s1 * th)               # recurring factor, theta leg
    return WeightSet(
        u1=sin2s * sp / t,
        u2=sin2s * st / t,
        v=st * sp / t,
        w1=sp * math.sin(s1 * (2.0 * math.pi + th)) / t,
        w2=st * math.sin(s1 * (3.0 * math.pi - th)) / t,
    )


def sigma_one_family(u1: float) -> WeightSet:
    """The one-parameter family at spin 1: no straights, u1 + u2 = 1.
    The same weights solve the local relations at every angle."""
    return WeightSet(u1=u1, u2=1.0 - u1, v=0.0, w1=u1, w2=1.0 - u1)


def loop_parameter(s: float) -> float:
    """Loop fugacity n associated with the parameter s."""
    return -2.0 * math.cos(4.0 * math.pi * s / 3.0)


def on_weights(theta: float, s: float) -> tuple[WeightSet, float]:
    """Loop-model weight family for a rhombus of angle theta, with its n.

    Unlike the sigma family this is defined for any real s away from the
    degenerate denominators, and it specialises to ``critical_weights``
    at s = -3/8 (where n = 0).
    """
    th = float(theta)
    sin_third = math.sin(math.pi * s / 3.0)
    if abs(sin_third) < 1e-12:
        raise ValueError(f"sin(pi*s/3) vanishes at s={s!r}")
    s23 = math.sin(2.0 * math.pi * s / 3.0)
    t = s23 ** 3 / sin_third + math.sin((th - math.pi / 3.0) * s) * math.sin(
        (2.0 * math.pi / 3.0 - th) * s
    )
    if abs(t) < 1e-12:
        raise ValueError(f"degenerate denominator t=0 at s={s}, theta={theta}")
    sp = math.sin((math.pi - th) * s)
    st = math.sin(th * s)
    ws = WeightSet(
        u1=sp * s23 / t,
        u2=st * s23 / t,
        v=st * sp / t,
        w1=math.sin((2.0 * math.pi / 3.0 - th) * s) * sp / t,
        w2=math.sin((th - math.pi / 3.0) * s) * st / t,
    )
    return ws, loop_parameter(s)


@dataclass(frozen=True)
class LocalResiduals:
    """Residuals of the four complex local relations.  For real weights
    each relation's conjugate is its residual conjugated, so it is not
    evaluated separately."""

    r1: complex
    r2: complex
    r3: complex
    r4: complex

    def all(self) -> tuple[complex, ...]:
        return (self.r1, self.r2, self.r3, self.r4)

    def max_abs(self) -> float:
        return max(abs(z) for z in self.all())


def _local_coefficient_rows(sigma: float, theta: float):
    """Complex coefficient rows (per weight) and constants of the four
    local relations, in the order (u1, u2, v, w1, w2)."""
    lam = cmath.exp(-1j * sigma * theta)
    mu = cmath.exp(-1j * sigma * math.pi)
    mub = mu.conjugate()
    e = cmath.exp(1j * theta)
    rows = [
        # 1 + lam*conj(mu)*e*u2 - v - lam*e*u1 = 0
        ((-lam * e, lam * mub * e, -1.0, 0.0, 0.0), 1.0),
        # lam*conj(mu)^2*e*v - mu*u2 - lam*e*w2 = 0
        ((0.0, -mu, lam * mub * mub * e, 0.0, -lam * e), 0.0),
        # -lam*mu*e*v - conj(mu)*u1 + lam*conj(mu)*e*w1 = 0
        ((-mub, 0.0, -lam * mu * e, lam * mub * e, 0.0), 0.0),
        # -lam*mu*e*u2 - mu^2*w2 + lam*conj(mu)^2*e*u1 - conj(mu)^2*w1 = 0
        ((lam * mub * mub * e, -lam * mu * e, 0.0, -mub * mub, -mu * mu), 0.0),
    ]
    return rows


def local_residuals(w: WeightSet, sigma: float, theta: float) -> LocalResiduals:
    """Evaluate the four complex local relations at the given spin and
    angle."""
    rows = _local_coefficient_rows(sigma, float(theta))
    return LocalResiduals(*(
        const + sum(c * x for c, x in zip(coeffs, w.as_tuple()))
        for coeffs, const in rows))


@dataclass(frozen=True)
class SystemSolution:
    """Least-squares solution of the real-linearized local system."""

    weights: WeightSet | None   # None when no consistent solution exists
    residual: float             # ||A x - b|| of the best solution
    rank: int                   # rank of the 8x5 real system
    nullspace: tuple[tuple[float, ...], ...]  # basis of solution directions

    @property
    def rank_deficiency(self) -> int:
        return 5 - self.rank


# Largest least-squares residual ``solve_local_system`` accepts as a solution.
SOLVE_RESIDUAL_TOL = 1e-9

# Sweeps ``_jacobi_svd`` may take; the 8x5 local system needs at most a
# handful, so running out means the columns never became orthogonal.
_JACOBI_SWEEPS = 30
_EPS = 2.0 ** -52


def _dot(a, b) -> float:
    # fsum rounds once, so every interpreter gives the same bits; sum
    # compensates from 3.12 on and would not
    return math.fsum(x * y for x, y in zip(a, b))


def _jacobi_svd(cols):
    """One-sided Jacobi SVD (Hestenes) of the matrix with columns ``cols``.

    Rotates pairs of columns until they are mutually orthogonal and
    applies each rotation to the identity as well (Demmel & Veselic, SIAM
    J. Matrix Anal. Appl. 13 (1992) 1204).  Returns ``(s, us, vs)`` ordered
    by decreasing singular value ``s[k]``: ``us[k]`` is the rotated column,
    ``s[k]`` times the left singular vector, and ``vs[k]`` the unit right
    singular vector.  Raises ``ValueError`` if ``_JACOBI_SWEEPS`` sweeps
    leave a pair of columns unorthogonal.
    """
    n = len(cols)
    us = [list(c) for c in cols]
    vs = [[float(i == j) for i in range(n)] for j in range(n)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha, beta = _dot(us[p], us[p]), _dot(us[q], us[q])
                gamma = _dot(us[p], us[q])
                if abs(gamma) <= _EPS * math.sqrt(alpha * beta):
                    continue
                rotated = True
                # the smaller root t = tan(angle) of t^2 + 2 zeta t - 1 = 0
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta)
                                                + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                for vecs in (us, vs):
                    a, b = vecs[p], vecs[q]
                    vecs[p] = [c * x - s * y for x, y in zip(a, b)]
                    vecs[q] = [s * x + c * y for x, y in zip(a, b)]
        if not rotated:
            sing = [math.sqrt(_dot(u, u)) for u in us]
            order = sorted(range(n), key=lambda k: -sing[k])
            return ([sing[k] for k in order], [us[k] for k in order],
                    [vs[k] for k in order])
    raise ValueError(f"Jacobi SVD did not converge in {_JACOBI_SWEEPS} sweeps")


def solve_local_system(sigma: float, theta: float) -> SystemSolution:
    """Solve the eight real-linearized local relations for the weights.

    The four complex relations are affine in the five real weights;
    stacking real and imaginary parts gives an 8x5 real least-squares
    problem.  At sigma on the solvable locus the residual vanishes and
    the solution matches ``sigma_weights``; at sigma = 1 the system has
    a one-dimensional solution family; elsewhere the residual stays
    bounded away from zero (or the solution degenerates to v = 0).

    Solved as ``numpy.linalg.lstsq(A, b, rcond=None)`` and ``svd`` would:
    singular values at most s_max * 8 * 2**-52 count as zero, ``weights``
    is the minimum-norm least-squares solution, and ``nullspace`` holds
    the orthonormal right singular vectors past the rank, in decreasing
    singular value.  Non-finite sigma or theta raises ``ValueError``.
    """
    if not (math.isfinite(sigma) and math.isfinite(theta)):
        raise ValueError(f"local system at sigma={sigma!r}, theta={theta!r} "
                         "is not finite")
    rows = _local_coefficient_rows(sigma, float(theta))
    # column j holds the real and imaginary parts of weight j's coefficients
    cols = [[part for coeffs, _ in rows
             for part in (complex(coeffs[j]).real, complex(coeffs[j]).imag)]
            for j in range(5)]
    b = [part for _, const in rows
         for part in (-complex(const).real, -complex(const).imag)]
    sing, us, vs = _jacobi_svd(cols)
    rank = sum(sv > sing[0] * 8 * _EPS for sv in sing)
    # x = sum over the rank of (u_k . b / s_k) v_k, with us[k] = s_k u_k
    coef = [_dot(us[k], b) / (sing[k] * sing[k]) for k in range(rank)]
    x = [math.fsum(coef[k] * vs[k][j] for k in range(rank)) for j in range(5)]
    residual = math.sqrt(math.fsum(
        math.fsum([*(col[i] * xj for col, xj in zip(cols, x)), -b[i]]) ** 2
        for i in range(8)))
    weights = None
    if residual < SOLVE_RESIDUAL_TOL:
        weights = WeightSet(*x)
    return SystemSolution(weights=weights, residual=residual, rank=rank,
                          nullspace=tuple(tuple(v) for v in vs[rank:]))


def theta_grid(n: int = 13) -> list[float]:
    """Evenly spaced angles spanning [pi/3, 2pi/3]."""
    lo, hi = math.pi / 3, 2 * math.pi / 3
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]
