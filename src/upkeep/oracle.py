"""Independent brute-force optimality checkers for the three solvers.

These deliberately avoid the solvers' machinery: welfare is maximized by
scanning an uptime grid with local refinement, filling contributions
greedily (exact for a fixed uptime since the objective is linear), or by
solving the full linear program with a small self-contained simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .model import TypeDistribution

_FEAS_EPS = 1e-12
# Pair-grid candidates per block in menu_grid_oracle, sized for cache.
_MENU_BLOCK = 16384


class TooManyTypesError(ValueError):
    """The LP oracle enumerates densely and is capped at 8 types."""


@dataclass(frozen=True)
class GridSpec:
    """Uptime grid resolution and refinement schedule."""

    q_points: int = 2001
    refine_rounds: int = 3
    lp_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.q_points < 3:
            raise ValueError("q_points must be >= 3")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.lp_tol <= 0:
            raise ValueError("lp_tol must be > 0")


def _grid_eval(
    d: TypeDistribution,
    rho: float,
    mode: str,
    qs: np.ndarray,
) -> np.ndarray:
    """Welfare at each grid uptime, -inf where infeasible.

    For a fixed uptime the required contributions are filled greedily in
    ascending cost order, which is exactly optimal because the objective
    is linear in the fill.
    """
    order = sorted(d.types, key=lambda t: t.c)
    mass = np.array([t.mass for t in order])
    cost = np.array([t.c for t in order])
    nu = np.array([t.nu for t in order])
    one_minus = 1.0 - qs
    if mode == "first_best":
        caps = mass[:, None] * one_minus[None, :]
    else:
        caps = mass[:, None] * np.minimum(one_minus[None, :], qs[None, :] * nu[:, None])
    need = rho * qs
    total = caps.sum(axis=0)
    cum_before = np.cumsum(caps, axis=0) - caps
    fill = np.clip(need[None, :] - cum_before, 0.0, caps)
    w = qs * d.u_bar - (cost[:, None] * fill).sum(axis=0)
    w = np.where(total >= need - _FEAS_EPS * np.maximum(1.0, need), w, -np.inf)
    return w


def primal_grid_welfare(
    d: TypeDistribution,
    rho: float,
    mode: Literal["first_best", "participation"],
    g: GridSpec = GridSpec(),
) -> tuple[float, float, dict[str, float]]:
    """Grid-search welfare maximum with greedy cost-ordered filling.

    Returns (welfare, uptime, contribution level per type id).  Ties on
    the grid resolve to the lowest uptime.
    """
    if mode not in ("first_best", "participation"):
        raise ValueError("mode must be 'first_best' or 'participation'")
    lo, hi = 0.0, 1.0
    best_q = 0.0
    best_w = -math.inf
    for _ in range(g.refine_rounds + 1):
        qs = np.linspace(lo, hi, g.q_points)
        w = _grid_eval(d, rho, mode, qs)
        i = int(np.argmax(w))
        if w[i] > best_w:
            best_w, best_q = float(w[i]), float(qs[i])
        h = (hi - lo) / (g.q_points - 1)
        lo = max(0.0, best_q - 2.0 * h)
        hi = min(1.0, best_q + 2.0 * h)

    order = sorted(d.types, key=lambda t: t.c)
    q = best_q
    fills: dict[str, float] = {}
    need = rho * q
    for t in order:
        if mode == "first_best":
            cap = t.mass * (1.0 - q)
        else:
            cap = t.mass * min(1.0 - q, q * t.nu)
        take = min(cap, max(need, 0.0))
        fills[t.id] = take / t.mass if t.mass > 0 else 0.0
        need -= take
    return best_w, q, fills


def _simplex_max(
    obj: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float] | None:
    """Two-phase dense simplex with Bland's rule; None if infeasible.

    Maximizes obj @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.
    Inequality right-hand sides must be nonnegative.  Equality rows with a
    negative right-hand side are negated, so the artificials start
    feasible.
    """
    n = obj.size
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    n_total = n + m_ub + m_eq  # structural + slacks + artificials

    T = np.zeros((m + 1, n_total + 1))
    T[:m_ub, :n] = A_ub
    T[:m_ub, n : n + m_ub] = np.eye(m_ub)
    T[:m_ub, -1] = b_ub
    flip = np.where(b_eq < 0.0, -1.0, 1.0)
    T[m_ub:m, :n] = A_eq * flip[:, None]
    T[m_ub:m, n + m_ub :n_total] = np.eye(m_eq)
    T[m_ub:m, -1] = b_eq * flip
    basis = list(range(n, n + m_ub)) + list(range(n + m_ub, n_total))

    def pivot(row: int, col: int) -> None:
        T[row] /= T[row, col]
        f = T[:, col]
        rows = (f != 0.0).nonzero()[0]
        rows = rows[rows != row]
        # One rank-1 update over the rows that the pivot column touches;
        # each entry gets the same multiply and subtract as a row loop.
        T[rows] -= f[rows, None] * T[row]

    def run(allowed: int) -> bool:
        for _ in range(20000):
            cols = (T[m, :allowed] < -tol).nonzero()[0]
            if not cols.size:
                return True
            col = int(cols[0])
            # Bland's rule: the smallest ratio, ties within tol to the
            # smallest basic variable, scanned in row order.
            f = T[:m, col]
            cand = (f > tol).nonzero()[0]
            ratios = (T[cand, -1] / f[cand]).tolist()
            row, best_ratio = -1, math.inf
            for r, ratio in zip(cand.tolist(), ratios):
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (row < 0 or basis[r] < basis[row])
                ):
                    best_ratio, row = ratio, r
            if row < 0:
                raise RuntimeError("unbounded linear program")
            pivot(row, col)
            basis[row] = col
        raise RuntimeError("simplex iteration limit exceeded")

    # Phase 1: drive the artificials to zero.
    if m_eq > 0:
        T[m, :] = 0.0
        for r in range(m_ub, m):
            T[m, : n_total] -= T[r, : n_total]
            T[m, -1] -= T[r, -1]
        T[m, n + m_ub : n_total] = 0.0
        run(n + m_ub)
        if T[m, -1] < -1e3 * tol * max(1.0, float(np.abs(b_eq).max(initial=0.0))):
            return None
        for r in range(m):
            if basis[r] >= n + m_ub and T[r, -1] > tol:
                return None
            if basis[r] >= n + m_ub:
                for j in range(n + m_ub):
                    if abs(T[r, j]) > tol:
                        pivot(r, j)
                        basis[r] = j
                        break
        T[:, n + m_ub : n_total] = 0.0

    # Phase 2.
    T[m, :] = 0.0
    T[m, :n] = -obj
    for r in range(m):
        if basis[r] < n and abs(T[m, basis[r]]) > 0.0:
            T[m] -= T[m, basis[r]] * T[r]
    run(n + m_ub)

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    return x, float(obj @ x)


def _screening_lp(
    d: TypeDistribution, rho: float, tol: float
) -> Callable[[float], float | None]:
    """Exact welfare at a given uptime over the full constraint set, or
    None where infeasible.

    The uptime enters only the right-hand sides, so the objective and
    the constraint matrices are built once for all uptimes.
    """
    n = len(d.types)
    u = np.array([t.u for t in d.types])
    c = np.array([t.c for t in d.types])
    mass = np.array([t.mass for t in d.types])

    obj = np.concatenate([mass * u, -mass * c])
    # R <= q and P <= 1 - q, then participation and truth-telling.
    rows: list[np.ndarray] = list(np.eye(2 * n))
    for i in range(n):
        row = np.zeros(2 * n)
        row[i] = -u[i]
        row[n + i] = c[i]
        rows.append(row)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(2 * n)
            row[i] -= u[i]
            row[n + i] += c[i]
            row[j] += u[i]
            row[n + j] -= c[i]
            rows.append(row)
    A_ub = np.array(rows)
    A_eq = np.zeros((1, 2 * n))
    A_eq[0, n:] = mass
    n_zero = len(rows) - 2 * n

    def welfare_at(q: float) -> float | None:
        b_ub = np.array([q] * n + [1.0 - q] * n + [0.0] * n_zero)
        result = _simplex_max(obj, A_ub, b_ub, A_eq, np.array([rho * q]), tol)
        return None if result is None else result[1]

    return welfare_at


def lp_screening_welfare(
    d: TypeDistribution, rho: float, g: GridSpec = GridSpec()
) -> tuple[float, float]:
    """Grid-plus-refinement maximum of the exact fixed-uptime LP.

    The LP value is concave piecewise linear in the uptime, so the
    refinement window around the grid argmax always brackets the true
    maximizer.
    """
    if len(d.types) > 8:
        raise TooManyTypesError("LP oracle supports at most 8 types")
    lo, hi = 0.0, 1.0
    best_q = 0.0
    best_w = -math.inf
    welfare_at = _screening_lp(d, rho, g.lp_tol)
    for _ in range(g.refine_rounds + 1):
        qs = np.linspace(lo, hi, g.q_points)
        for q in qs:
            w = welfare_at(float(q))
            if w is not None and w > best_w:
                best_w, best_q = w, float(q)
        h = (hi - lo) / (g.q_points - 1)
        lo = max(0.0, best_q - 2.0 * h)
        hi = min(1.0, best_q + 2.0 * h)
    return best_w, best_q


def menu_grid_oracle(
    vals: Sequence[tuple[float, float, float]],
    cap: float = 1.0,
    resolution: float = 1e-3,
) -> float:
    """Exhaustive menu grid for the bounded-payment sale problem.

    Scans posted prices and two-atom menus (low atom, high atom, with the
    low allocation implied by payment-moment saturation) at the given
    resolution, assigning buyers by self-selection with seller-preferred
    tie-breaking, which enforces incentive compatibility, individual
    rationality, and the payment cap directly.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    if not vals:
        return 0.0
    types = [(float(a), float(b), float(c)) for a, b, c in vals]
    nu_top = max(t[0] for t in types)
    eps = 1e-12 * max(1.0, nu_top, cap)

    def best_over_bundles(
        r0: np.ndarray, p0: np.ndarray, r1: np.ndarray | float, p1: np.ndarray | float
    ) -> float:
        # Per-type pick of the utility-best bundle along the candidate
        # axis, ties resolved toward the larger objective contribution.
        # The high bundle (r1, p1) may be a scalar shared by every
        # candidate, as in the pair grid where it is always (1, cap).
        total = np.zeros_like(r0)
        for nu_i, sw_i, pw_i in types:
            u_lo = r0 * nu_i - p0
            u_hi = r1 * nu_i - p1
            u_best = np.maximum(0.0, np.maximum(u_lo, u_hi))
            near = u_best - eps
            contrib = np.where(u_best <= eps, 0.0, -np.inf)
            np.maximum(
                contrib, np.where(u_lo >= near, sw_i * u_lo + pw_i * p0, -np.inf), out=contrib
            )
            np.maximum(
                contrib, np.where(u_hi >= near, sw_i * u_hi + pw_i * p1, -np.inf), out=contrib
            )
            total += contrib
        return float(total.max()) if total.size else 0.0

    best = 0.0  # the empty menu

    prices = np.arange(0.0, cap + resolution / 2, resolution)
    zeros = np.zeros_like(prices)
    best = max(best, best_over_bundles(zeros, zeros, np.ones_like(prices), prices))

    lo_grid = np.arange(0.0, cap + resolution / 2, resolution)
    hi_top = max(cap, nu_top) + resolution
    hi_grid = np.arange(cap, hi_top + resolution / 2, resolution)
    # Evaluate the pair grid in blocks small enough that each block's
    # temporaries stay in cache.
    chunk = max(1, _MENU_BLOCK // hi_grid.size)
    for start in range(0, lo_grid.size, chunk):
        L, H = np.meshgrid(lo_grid[start : start + chunk], hi_grid, indexing="ij")
        mask = H > L
        Lf, Hf = L[mask], H[mask]
        if not Lf.size:
            continue
        r0 = (Hf - cap) / (Hf - Lf)
        ok = (r0 >= 0.0) & (r0 <= 1.0)
        Lf, r0 = Lf[ok], r0[ok]
        if not Lf.size:
            continue
        p0 = r0 * Lf
        best = max(best, best_over_bundles(r0, p0, 1.0, cap))
    return best
