"""Independent brute-force optimality checkers for the three solvers.

These deliberately avoid the solvers' machinery.  First best and
participation are checked by scanning an uptime grid with local
refinement, filling contributions greedily (exact for a fixed uptime
since the objective is linear).  Screening is checked by one linear
program over the full constraint set, with the uptime substituted out
through balance, and the bounded-payment sale by one LP over direct
mechanisms with the same truth-telling rows.  Both LPs are solved by a
small self-contained float simplex whose answer is checked row by row,
and solved again in exact arithmetic when the check fails.
Nothing here is imported from the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

import numpy as np

from .model import TypeDistribution

_FEAS_EPS = 1e-12
_LP_TOL = 1e-9  # the simplex's pivot and ratio-test tolerance
_SLACK = 1e-13  # row violation, per unit of max(1, max b_ub), of an accepted float x


class TooManyTypesError(ValueError):
    """The LP oracle enumerates densely and is capped at 8 types."""


@dataclass(frozen=True)
class GridSpec:
    """Uptime grid resolution and refinement schedule."""

    q_points: int = 2001
    refine_rounds: int = 3
    lp_tol: float = _LP_TOL

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


_MAX_PIVOTS = 20000  # per simplex phase


def _pivot(T: np.ndarray, row: int, col: int) -> tuple[float, list[int], list[float]]:
    """Pivot T on (row, col) in place.

    Returns the pivot and the rows and multipliers of the rank-1 update,
    which replay the same pivot on a right-hand side.
    """
    piv = T[row, col]
    T[row] /= piv
    f = T[:, col]
    rows = (f != 0.0).nonzero()[0]
    rows = rows[rows != row]
    # f is a view of the pivot column, which the update zeroes, so the
    # multipliers are taken first.  One rank-1 update over the rows that
    # the pivot column touches; each entry gets the same multiply and
    # subtract as a row loop.
    mult = f[rows]
    T[rows] -= mult[:, None] * T[row]
    return float(piv), rows.tolist(), mult.tolist()


def _phase2_objective(
    T: np.ndarray, basis: list[int], obj: np.ndarray
) -> list[tuple[int, float]]:
    """Write the phase-2 objective row of T, priced out against the basis.

    Returns the (row, multiplier) pairs subtracted, in order; they build
    the same row's right-hand side.
    """
    n, m = obj.size, len(basis)
    T[m, :] = 0.0
    T[m, :n] = -obj
    mults = []
    for r in range(m):
        if basis[r] < n and abs(T[m, basis[r]]) > 0.0:
            mult = T[m, basis[r]]
            T[m] -= mult * T[r]
            mults.append((r, float(mult)))
    return mults


_Replay = tuple[int, float, list[int], list[float]]  # row, pivot, rows, multipliers


class _Node:
    """A coefficient tableau (every column but the right-hand side) with
    its basis, and what it decides for every right-hand side.

    A node that pivots holds its entering column ``col`` and the ratio
    test's candidate rows with their pivot-column entries; ``kids`` maps
    each leaving row met so far to its replay and the child node.  The
    end of phase 1 holds its artificial-row steps, the phase-2
    objective's multipliers and the phase-2 node; the end of phase 2
    holds the basic rows that give x.
    """

    __slots__ = (
        "T", "basis", "phase", "depth", "col", "cand", "den", "kids",
        "steps", "obj_mult", "next", "x_rows",
    )

    def __init__(self, T: np.ndarray, basis: list[int], phase: int, depth: int) -> None:
        self.T: np.ndarray | None = T
        self.basis, self.phase, self.depth = basis, phase, depth
        self.col = -1
        self.next: _Node | None = None


class _LPFamily:
    """Two-phase dense simplex with Bland's rule for LPs that share their
    objective and constraint matrices and differ in right-hand sides.

    Maximizes obj @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.
    Inequality right-hand sides must be nonnegative.  Equality rows with a
    negative right-hand side are negated, so the artificials start
    feasible.

    The entering column is chosen from the coefficient part of the
    tableau alone; the right-hand side picks only the ratio test's
    leaving row and the infeasibility returns.  So the coefficient
    tableaux form a trie keyed by those decisions: a root per sign-flip
    pattern of the equality rows, a child per leaving row, and one
    recorded transition from the end of phase 1 to phase 2.  A tableau
    is pivoted the first time a solve reaches it; every solve replays
    only its right-hand side, with the same float operations in the same
    order as a fresh solve, so the results are bit-identical to one.
    """

    def __init__(self, obj: np.ndarray, A_ub: np.ndarray, A_eq: np.ndarray, tol: float) -> None:
        self.obj, self.A_ub, self.A_eq, self.tol = obj, A_ub, A_eq, tol
        self.n = obj.size
        self.m_ub, self.m_eq = A_ub.shape[0], A_eq.shape[0]
        self.m = self.m_ub + self.m_eq
        self.allowed = self.n + self.m_ub  # structural and slack columns
        self.roots: dict[tuple[bool, ...], _Node] = {}
        self.tableau_pivots = 0  # pivots done on coefficient tableaux
        self.rhs_pivots = 0  # pivots replayed on right-hand sides

    def _node(self, T: np.ndarray, basis: list[int], phase: int, depth: int) -> _Node:
        node = _Node(T, basis, phase, depth)
        if depth == _MAX_PIVOTS:
            return node
        cols = (T[self.m, : self.allowed] < -self.tol).nonzero()[0]
        if cols.size:
            node.col = int(cols[0])
            f = T[: self.m, node.col]
            cand = (f > self.tol).nonzero()[0]
            node.cand, node.den = cand.tolist(), f[cand].tolist()
            node.kids = {}
        elif phase == 2:
            node.x_rows = [(r, j) for r, j in enumerate(basis) if j < self.n]
            node.T = None
        return node

    def _root(self, signs: np.ndarray) -> _Node:
        n, m_ub, m, art = self.n, self.m_ub, self.m, self.allowed
        T = np.zeros((m + 1, art + self.m_eq))
        T[:m_ub, :n] = self.A_ub
        T[:m_ub, n:art] = np.eye(m_ub)
        T[m_ub:m, :n] = self.A_eq * signs[:, None]
        T[m_ub:m, art:] = np.eye(self.m_eq)
        basis = list(range(n, art + self.m_eq))
        if not self.m_eq:
            # Slacks only in the basis, so nothing is priced out.
            _phase2_objective(T, basis, self.obj)
            return self._node(T, basis, 2, 0)
        # Phase 1 drives the artificials to zero.
        for r in range(m_ub, m):
            T[m] -= T[r]
        T[m, art:] = 0.0
        return self._node(T, basis, 1, 0)

    def _kid(self, node: _Node, row: int) -> tuple[_Replay, _Node]:
        T = node.T.copy()
        replay = (row, *_pivot(T, row, node.col))
        basis = node.basis.copy()
        basis[row] = node.col
        self.tableau_pivots += 1
        kid = node.kids[row] = (replay, self._node(T, basis, node.phase, node.depth + 1))
        return kid

    def _end_phase1(self, node: _Node) -> None:
        """Record the artificial-row checks and the pivots that drive
        artificials out of the basis at zero level, then build phase 2."""
        T, basis, art = node.T.copy(), node.basis.copy(), self.allowed
        steps: list[tuple[int, _Replay | None]] = []
        for r in range(self.m):
            if basis[r] < art:
                continue
            replay = None
            for j in range(art):
                if abs(T[r, j]) > self.tol:
                    replay = (r, *_pivot(T, r, j))
                    basis[r] = j
                    self.tableau_pivots += 1
                    break
            steps.append((r, replay))
        T[:, art:] = 0.0
        node.steps = steps
        node.obj_mult = _phase2_objective(T, basis, self.obj)
        node.next = self._node(T, basis, 2, 0)
        node.T = None

    def _replay(self, b: list[float], replay: _Replay) -> None:
        row, piv, rows, mult = replay
        b_row = b[row] = b[row] / piv
        for r, f in zip(rows, mult):
            b[r] -= f * b_row
        self.rhs_pivots += 1

    def solve(
        self, b_ub: np.ndarray, b_eq: np.ndarray
    ) -> tuple[np.ndarray, float] | None:
        """Optimal (x, obj @ x) at these right-hand sides; None if
        infeasible."""
        tol, m = self.tol, self.m
        b_eq = np.asarray(b_eq, dtype=float)
        negative = b_eq < 0.0
        signs = np.where(negative, -1.0, 1.0)
        key = tuple(negative.tolist())
        node = self.roots.get(key)
        if node is None:
            node = self.roots[key] = self._root(signs)
        b_ub = np.asarray(b_ub, dtype=float)
        b_art = (b_eq * signs).tolist()
        b = b_ub.tolist() + b_art
        obj_rhs = 0.0
        if node.phase == 1:
            for v in b_art:
                obj_rhs -= v
        b.append(obj_rhs)
        while True:
            if node.depth == _MAX_PIVOTS:
                raise RuntimeError("simplex iteration limit exceeded")
            if node.col >= 0:
                # Bland's rule: the smallest ratio, ties within tol to the
                # smallest basic variable, scanned in row order.
                basis = node.basis
                row, best_ratio = -1, math.inf
                for r, den in zip(node.cand, node.den):
                    ratio = b[r] / den
                    if ratio < best_ratio - tol or (
                        abs(ratio - best_ratio) <= tol
                        and (row < 0 or basis[r] < basis[row])
                    ):
                        best_ratio, row = ratio, r
                if row < 0:
                    raise RuntimeError("unbounded linear program")
                replay, node = node.kids.get(row) or self._kid(node, row)
                self._replay(b, replay)
            elif node.phase == 1:
                if node.next is None:
                    self._end_phase1(node)
                # No separate test of the phase-1 objective: if it is short
                # of zero by more than tol, some basic artificial exceeds
                # tol, and its row's check returns None.
                for r, replay in node.steps:
                    if b[r] > tol:
                        return None
                    if replay is not None:
                        self._replay(b, replay)
                obj_rhs = 0.0
                for r, mult in node.obj_mult:
                    obj_rhs -= mult * b[r]
                b[m] = obj_rhs
                node = node.next
            else:
                x = np.zeros(self.n)
                for r, j in node.x_rows:
                    x[j] = b[r]
                # Tolerances in the pivots and ratio tests can end on a
                # basis whose x breaks a row; such an answer is refused.
                worst = max(
                    -x.min(initial=0.0),
                    (self.A_ub @ x - b_ub).max(initial=0.0),
                    np.abs(self.A_eq @ x - b_eq).max(initial=0.0),
                )
                if not worst <= 1e-6 * np.abs(np.concatenate([b_ub, b_eq])).max(initial=1.0):
                    raise RuntimeError(f"simplex returned an infeasible point (violation {worst:.3g})")
                return x, float(self.obj @ x)


def _simplex_max(
    obj: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float] | None:
    """Two-phase dense simplex with Bland's rule; None if infeasible.

    Maximizes obj @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0;
    a one-shot _LPFamily solve.
    """
    return _LPFamily(obj, A_ub, A_eq, tol).solve(b_ub, b_eq)


def _ic_rows(u: np.ndarray, c: np.ndarray | float) -> np.ndarray:
    """Rows over x = (r, p) for buyers who value (r_j, p_j) at
    u_i r_j - c_i p_j: an identity for the boxes on r and p, then
    participation -u_i r_i + c_i p_i <= 0, then truth-telling
    -u_i r_i + c_i p_i + u_i r_j - c_i p_j <= 0 for each i and j != i.
    """
    n = u.size
    c = np.broadcast_to(c, (n,))
    i, j = (~np.eye(n, dtype=bool)).nonzero()
    own, tt = np.arange(n), 3 * n + np.arange(i.size)
    A = np.zeros((n * n + 2 * n, 2 * n))
    A[: 2 * n] = np.eye(2 * n)
    A[2 * n + own, own], A[2 * n + own, n + own] = -u, c
    # Truth-telling: i's participation row plus i's payoff from j's bundle.
    A[tt] = A[2 * n + i]
    A[tt, j], A[tt, n + j] = u[i], -c[i]
    return A


def _screening_constraints(
    d: TypeDistribution, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[float], tuple[np.ndarray, np.ndarray]]]:
    """The fixed-uptime screening LP over the full constraint set:
    (obj, A_ub, A_eq, rhs), where rhs(q) gives (b_ub, b_eq) at uptime q.

    The uptime enters only the right-hand sides, so the objective and
    the constraint matrices are built once for all uptimes.
    """
    n = len(d.types)
    u = np.array([t.u for t in d.types])
    c = np.array([t.c for t in d.types])
    mass = np.array([t.mass for t in d.types])

    obj = np.concatenate([mass * u, -mass * c])
    # R <= q and P <= 1 - q, then participation and truth-telling.
    A_ub = _ic_rows(u, c)
    A_eq = np.zeros((1, 2 * n))
    A_eq[0, n:] = mass
    n_zero = A_ub.shape[0] - 2 * n

    def rhs(q: float) -> tuple[np.ndarray, np.ndarray]:
        return np.array([q] * n + [1.0 - q] * n + [0.0] * n_zero), np.array([rho * q])

    return obj, A_ub, A_eq, rhs


def _exact_max(obj: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, float]:
    """(x, obj @ x) maximizing obj @ x subject to A_ub x <= b_ub, x >= 0,
    for b_ub >= 0 and a bounded optimum, in rational arithmetic by Bland's
    rule from the slack basis: no tolerances, so exact, but slow."""
    m, n = A_ub.shape
    T = [[Fraction(a) for a in row] + [Fraction(int(k == r)) for k in range(m)] + [Fraction(b)]
         for r, (row, b) in enumerate(zip(A_ub.tolist(), b_ub.tolist()))]
    T.append([Fraction(-a) for a in obj.tolist()] + [Fraction(0)] * (m + 1))  # objective row
    basis = list(range(n, n + m))
    while (col := next((j for j, v in enumerate(T[m][:-1]) if v < 0), -1)) >= 0:
        row = min((T[r][-1] / T[r][col], basis[r], r) for r in range(m) if T[r][col] > 0)[2]
        T[row] = [v / T[row][col] for v in T[row]]
        for r in range(m + 1):
            if r != row and (f := T[r][col]):
                T[r] = [a - f * b if b else a for a, b in zip(T[r], T[row])]
        basis[row] = col
    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = T[r][-1]
    return x, float(T[m][-1])


def _checked_max(
    obj: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray, tol: float
) -> tuple[np.ndarray, float]:
    """_exact_max's problem, by the float simplex if its x breaks no row
    by more than _SLACK·max(1, max b_ub), else by _exact_max."""
    try:
        result = _simplex_max(obj, A_ub, b_ub, np.zeros((0, obj.size)), np.zeros(0), tol)
    except RuntimeError:  # refused as infeasible, or out of pivots
        return _exact_max(obj, A_ub, b_ub)
    assert result is not None  # no equality rows, and x = 0 is feasible
    x = result[0]
    # The value errs by about as much as x breaks its rows.
    if max((A_ub @ x - b_ub).max(), -x.min()) <= _SLACK * max(1.0, b_ub.max()):
        return result
    return _exact_max(obj, A_ub, b_ub)


def lp_screening_welfare(
    d: TypeDistribution, rho: float, g: GridSpec = GridSpec()
) -> tuple[float, float]:
    """Exact screening optimum (W, Q) by one LP over x = (R, P) >= 0.

    Balance fixes the uptime, Q = mass @ P / rho, so R_i <= Q and
    P_i <= 1 - Q of _screening_constraints become rho R_i - mass @ P <= 0
    and rho P_i + mass @ P <= rho, beside participation and truth-telling
    (0 <= Q <= 1 follows), and _checked_max solves it.  Q is the optimal
    vertex's uptime, not the lowest optimal one.  g.lp_tol is the simplex
    tolerance; g.q_points and g.refine_rounds are validated but unused.
    """
    if len(d.types) > 8:
        raise TooManyTypesError("LP oracle supports at most 8 types")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    n = len(d.types)
    obj, A_ub, A_eq, _ = _screening_constraints(d, rho)
    A_ub[: 2 * n] *= rho
    A_ub[:n] -= A_eq
    A_ub[n : 2 * n] += A_eq
    b_ub = np.zeros(A_ub.shape[0])
    b_ub[n : 2 * n] = rho
    x, w = _checked_max(obj, A_ub, b_ub, g.lp_tol)
    return w, float(A_eq[0] @ x) / rho


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
    return _checked_max(obj, A_ub, b_ub, _LP_TOL)[1]
