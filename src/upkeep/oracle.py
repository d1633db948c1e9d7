"""Independent brute-force optimality checkers for the three solvers.

These deliberately avoid the solvers' machinery.  First best and
participation fill contributions greedily in cost order (exact at a
fixed uptime, as the objective is linear) and score, in closed form,
every uptime where that welfare can bend.  Screening is checked by one
linear program over the full constraint set, with the uptime substituted
out through balance, and the bounded-payment sale by one LP over direct
mechanisms with the same truth-telling rows.  Both LPs have only <= rows
with nonnegative right-hand sides, so one self-contained Bland simplex
solves them from the slack basis, on a tableau of floats or of
Fractions: a float pivot is one dense rank-1 update, a Fraction pivot
updates the nonzero entries alone.  The float answer is checked row by
row; when the check fails, its final basis is solved again on the
original rows, and only if that fails too is the LP solved again in
Fractions.  Nothing here is imported from the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .model import TypeDistribution

_FEAS_EPS = 1e-12
_LP_TOL = 1e-9  # the simplex's pivot and ratio-test tolerance
_SLACK = 1e-13  # row violation, per unit of max(1, max b_ub), of an accepted float x


class TooManyTypesError(ValueError):
    """The LP oracle enumerates densely and is capped at 8 types."""


@dataclass(frozen=True)
class GridSpec:
    """The resolution and refinement rounds of the uptime grid that the
    exact oracles replaced.  Validated; lp_screening_welfare takes one and
    reads neither field."""

    q_points: int = 2001
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        if self.q_points < 3:
            raise ValueError("q_points must be >= 3")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")


def primal_grid_welfare(
    d: TypeDistribution,
    rho: float,
    mode: Literal["first_best", "participation"],
) -> tuple[float, float, dict[str, float]]:
    """Exact welfare maximum over the uptime, with greedy cost-ordered
    filling.

    The greedy fill is exact at each uptime Q, so W(Q) is piecewise
    linear.  It bends only at a type's kink Q = 1/(1 + nu) (participation)
    and where the need rho·Q crosses the cap sum of a cost-sorted prefix.
    Between kinks that sum is a line a_k + b_k·Q, so each crossing is a
    root of rho·Q = a_k + b_k·Q inside its segment.  The greedy fill is
    scored at 0, 1, the kinks and the roots, and W is linear between them.

    Returns (welfare, uptime, contribution level per type id).  Ties
    resolve to the lowest uptime.
    """
    if mode not in ("first_best", "participation"):
        raise ValueError("mode must be 'first_best' or 'participation'")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    order = sorted(d.types, key=lambda t: t.c)
    mass, nu, cost = np.array([(t.mass, t.nu, t.c) for t in order]).T
    # A type past its kink has the cap mass·(1 - Q), any other mass·nu·Q;
    # in first best every type is past it.  Row s is the segment
    # [edges[s], edges[s + 1]].
    kinks = 1.0 / (1.0 + nu) if mode == "participation" else np.zeros(nu.size)
    edges = np.concatenate(([0.0, 1.0], kinks[kinks > 0.0]))
    edges.sort()
    full = kinks <= edges[:-1, None]
    a = np.where(full, mass, 0.0).cumsum(axis=1)
    b = np.where(full, -mass, mass * nu).cumsum(axis=1)
    slope = rho - b
    roots = np.divide(a, slope, out=np.full_like(a, -1.0), where=slope > 0)
    inside = (edges[:-1, None] <= roots) & (roots <= edges[1:, None])
    # Sorted with duplicates kept, so argmax takes the lowest best uptime.
    qs = np.concatenate((edges, roots[inside]))
    qs.sort()

    # The greedy fill at each uptime in qs, one row per cost-sorted type;
    # welfare is -inf where the caps cannot cover the need.
    one_minus = 1.0 - qs
    if mode == "first_best":
        caps = mass[:, None] * one_minus[None, :]
    else:
        caps = mass[:, None] * np.minimum(one_minus[None, :], qs[None, :] * nu[:, None])
    need = rho * qs
    fill = np.clip(need[None, :] - (caps.cumsum(axis=0) - caps), 0.0, caps)
    w = qs * d.u_bar - (cost[:, None] * fill).sum(axis=0)
    w = np.where(caps.sum(axis=0) >= need - _FEAS_EPS * np.maximum(1.0, need), w, -np.inf)
    i = int(w.argmax())
    levels = np.divide(fill[:, i], mass, out=np.zeros_like(mass), where=mass > 0.0)
    return float(w[i]), float(qs[i]), dict(zip((t.id for t in order), levels.tolist()))


_MAX_PIVOTS = 20000
_MAX_EXACT_PIVOTS = 1000  # the tests take at most 122 exact pivots, seeded 8-type LPs 133


def _bland(T: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Maximize in place over the tableau T = [A | I | b; -obj | 0 | 0]
    of A x <= b, x >= 0 with b >= 0, from the slack basis, by Bland's
    rule; returns x as floats and the final basis, the column of
    [A | I] basic in each row.

    T holds floats or Fractions.  The entering column is the first with
    a reduced cost below -tol; the leaving row has the smallest ratio,
    ties within tol going to the smallest basic variable.

    The two tableaus are updated differently for speed alone: either
    update gives the same entries, up to the sign of a float zero.  A
    float LP here is small (25 x 33 at 4 types) and takes about 8
    pivots, so numpy's cost per call sets its time, and one dense
    rank-1 update of the whole tableau is cheapest.  A Fraction costs
    more per entry than a numpy call does, so the Fraction tableau
    divides the pivot row's nonzero entries alone and updates only the
    rows and columns that the pivot touches.
    """
    m = T.shape[0] - 1
    basis = list(range(T.shape[1] - 1 - m, T.shape[1] - 1))
    exact = T.dtype == object
    costs, rhs = T[m, :-1], T[:m, -1]
    for _ in range(_MAX_EXACT_PIVOTS if exact else _MAX_PIVOTS):
        entering = costs < -tol
        col = int(entering.argmax())
        if not entering[col]:
            x = np.zeros(T.shape[1] - 1 - m)
            for r, j in enumerate(basis):
                if j < x.size:
                    x[j] = rhs[r]
            return x, basis
        row, best = -1, math.inf
        for r, (b, f) in enumerate(zip(rhs.tolist(), T[:m, col].tolist())):
            if f > tol:
                ratio = b / f
                if row < 0 or ratio < best - tol or (abs(ratio - best) <= tol and basis[r] < basis[row]):
                    row, best = r, ratio
        if row < 0:
            raise RuntimeError("unbounded linear program")
        if exact:
            # The rows that the pivot column touches, over the columns
            # that the pivot row touches: no Fraction is divided or
            # multiplied by a zero.
            cols = T[row].nonzero()[0]
            T[row, cols] /= T[row, col]
            rows = T[:, col].nonzero()[0]
            rows = rows[rows != row]
            T[rows[:, None], cols] -= T[rows, col][:, None] * T[row, cols]
            if T[row, col] != 1 or min(rhs) < 0:  # exact pivots keep both
                raise RuntimeError("a Fraction pivot broke the tableau")
        else:
            # The whole tableau, with the pivot row's own factor set to
            # 0.  Where the Fraction update skips an entry, this one
            # subtracts a zero, which leaves a nonzero entry as it is
            # and can only turn a -0.0 into 0.0.  No -0.0 reaches x: the
            # oracles' b holds none, and no pivot makes one in the
            # right-hand side.
            T[row] /= T[row, col]
            fc = T[:, col].copy()
            fc[row] = 0.0
            T -= np.multiply.outer(fc, T[row])
        basis[row] = col
    raise RuntimeError("simplex iteration limit exceeded")


def _tableau(obj: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """[A_ub | I | b_ub; -obj | 0 | 0] in floats."""
    m, n = A_ub.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:-1], T[:m, -1] = A_ub, np.eye(m), b_ub
    T[m, :n] = -obj
    return T


def _float_simplex(
    obj: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """_simplex_max's x, with the final basis of _bland and the residual
    A_ub @ x - b_ub."""
    x, basis = _bland(_tableau(obj, A_ub, b_ub), _LP_TOL)
    residual = A_ub @ x - b_ub
    worst = max(-x.min(initial=0.0), residual.max(initial=0.0))
    if not worst <= 1e-6 * np.abs(b_ub).max(initial=1.0):
        raise RuntimeError(f"simplex returned an infeasible point (violation {worst:.3g})")
    return x, basis, residual


def _simplex_max(
    obj: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray
) -> tuple[np.ndarray, float]:
    """(x, obj @ x) maximizing obj @ x subject to A_ub x <= b_ub, x >= 0,
    for b_ub >= 0 and a bounded optimum, by _bland in floats with the
    pivot and ratio-test tolerance _LP_TOL.

    That tolerance can end on a basis whose x breaks a row; an x that
    breaks one by more than 1e-6·max(1, max|b|) raises RuntimeError.
    """
    x, _, _ = _float_simplex(obj, A_ub, b_ub)
    return x, float(obj @ x)


def _ic_rows(u: np.ndarray, c: np.ndarray | float) -> np.ndarray:
    """Rows over x = (r, p) for buyers who value (r_j, p_j) at
    u_i r_j - c_i p_j: an identity for the boxes on r and p, then
    participation -u_i r_i + c_i p_i <= 0, then truth-telling
    -u_i r_i + c_i p_i + u_i r_j - c_i p_j <= 0 for each i and j != i.
    """
    n = u.size
    i, j = (~np.eye(n, dtype=bool)).nonzero()
    own, tt = np.arange(n), 3 * n + np.arange(i.size)
    A = np.zeros((n * n + 2 * n, 2 * n))
    A[: 2 * n] = np.eye(2 * n)
    A[2 * n + own, own], A[2 * n + own, n + own] = -u, c
    # Truth-telling: i's participation row (c_i at n + i) plus i's payoff from j's bundle.
    A[tt] = A[2 * n + i]
    A[tt, j], A[tt, n + j] = u[i], -A[tt, n + i]
    return A


def _exact_max(obj: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, float]:
    """_simplex_max's problem by _bland in Fractions with no tolerance:
    exact, but slow."""
    T = np.frompyfunc(Fraction, 1, 1)(_tableau(obj, A_ub, b_ub))
    x, _ = _bland(T, 0)
    return x, float(T[-1, -1])


def _checked_max(obj: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, float]:
    """_simplex_max's problem, by the first of three answers whose x
    breaks no row by more than _SLACK·max(1, max b_ub): the float
    tableau's x; the same basis solved again on the original rows,
    [A_ub | I][:, basis] x_B = b_ub, which sheds the error the pivots
    accumulated; and _exact_max.  An answer that _simplex_max refuses goes
    straight to _exact_max."""
    try:
        x, basis, residual = _float_simplex(obj, A_ub, b_ub)
    except RuntimeError:  # refused as infeasible, or out of pivots
        return _exact_max(obj, A_ub, b_ub)
    # The value errs by about as much as x breaks its rows.
    def fits(x: np.ndarray, residual: np.ndarray) -> bool:
        return max(residual.max(), -x.min()) <= _SLACK * max(1.0, b_ub.max())

    if fits(x, residual):
        return x, float(obj @ x)
    m, n = A_ub.shape
    try:
        x_B = np.linalg.solve(np.hstack((A_ub, np.eye(m)))[:, basis], b_ub)
    except np.linalg.LinAlgError:  # a singular basis
        return _exact_max(obj, A_ub, b_ub)
    x = np.zeros(n + m)
    x[basis] = x_B
    x = x[:n]
    if fits(x, A_ub @ x - b_ub):
        return x, float(obj @ x)
    return _exact_max(obj, A_ub, b_ub)


def lp_screening_welfare(
    d: TypeDistribution, rho: float, g: GridSpec = GridSpec()
) -> tuple[float, float]:
    """Exact screening optimum (W, Q) by one LP over x = (R, P) >= 0
    with the full constraint set.

    Balance fixes the uptime, Q = mass @ P / rho, so R_i <= Q and
    P_i <= 1 - Q become rho R_i - mass @ P <= 0 and
    rho P_i + mass @ P <= rho, beside participation and truth-telling
    (_ic_rows; 0 <= Q <= 1 follows), and _checked_max solves it.  Q is
    the optimal vertex's uptime, not the lowest optimal one.
    g.q_points and g.refine_rounds are validated but unused.
    """
    if len(d.types) > 8:
        raise TooManyTypesError("LP oracle supports at most 8 types")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    n = len(d.types)
    u = np.array([t.u for t in d.types])
    c = np.array([t.c for t in d.types])
    mass = np.array([t.mass for t in d.types])
    obj = np.concatenate([mass * u, -mass * c])
    balance = np.concatenate([np.zeros(n), mass])  # mass @ P = rho Q
    A_ub = _ic_rows(u, c)
    A_ub[: 2 * n] *= rho
    A_ub[:n] -= balance
    A_ub[n : 2 * n] += balance
    b_ub = np.zeros(A_ub.shape[0])
    b_ub[n : 2 * n] = rho
    x, w = _checked_max(obj, A_ub, b_ub)
    return w, float(balance @ x) / rho


def menu_grid_oracle(
    vals: Sequence[tuple[float, float, float]],
    cap: float = 1.0,
    resolution: float = 1e-3,
) -> float:
    """Optimum of the bounded-payment sale problem by one LP over direct
    mechanisms: buyer i, of (valuation, surplus_weight, payment_weight)
    in vals, gets a bundle with 0 <= r_i <= 1 and 0 <= p_i <= cap, under
    participation and truth-telling between every pair (_ic_rows).

    By the taxation principle every incentive-compatible, individually
    rational menu with payments at most cap is such a mechanism, so the
    LP checks two-tier menus without assuming that two tiers suffice;
    _checked_max solves it.  resolution is validated but unused: it sized
    the menu grid that this LP replaced, and callers still pass it.
    """
    if not all(math.isfinite(v) and v > 0 for v in (cap, resolution)):
        raise ValueError("cap and resolution must be finite and > 0")
    nu, sw, pw = np.array(vals, dtype=float).reshape(-1, 3).T
    if not (np.isfinite((nu, sw, pw)).all() and (nu >= 0).all() and (sw >= 0).all()):
        raise ValueError("weights must be finite, valuations and surplus weights >= 0")
    n = nu.size
    if not n:
        return 0.0
    A_ub = _ic_rows(nu, 1.0)
    b_ub = np.zeros(A_ub.shape[0])
    b_ub[:n], b_ub[n : 2 * n] = 1.0, cap
    obj = np.concatenate([sw * nu, pw - sw])
    return _checked_max(obj, A_ub, b_ub)[1]
