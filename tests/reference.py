"""Plain-Python references that the solvers are tested against.

Each is a direct loop over the types, written from the model's
definitions and not from the solvers' tables, so agreement between the
two is evidence for both.  first_best_via_participation is the
exception: it runs participation's walk and general finish on first
best's table, the reference for first best's closed form to the bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from upkeep import FirstBestSolution, Mechanism, TypeDistribution, bounded_monopoly_solve
from upkeep.envelope import minimize
from upkeep.model import ATOM_SNAP, agent_utility, kink_uptimes
from upkeep.participation import _balanced_point, _KinkLines
from upkeep.screening import _score_menu

_FACE_RTOL = 1e-12


@dataclass(frozen=True)
class InnerMenu:
    """Normalized menu keyed by type id."""

    r: Mapping[str, float]
    p: Mapping[str, float]


def fb_threshold_gap(y: float, d: TypeDistribution, rho: float) -> float:
    """Net value of raising the first-best cost threshold to y.

    Strictly decreasing in y and positive at 0, so its unique root is the
    optimal threshold.
    """
    surplus = d.u_bar - rho * y
    covered = sum(t.mass * max(y - t.c, 0.0) for t in d.types)
    return surplus - covered


def fb_dual_value(y: float, d: TypeDistribution, rho: float) -> float:
    """Upper envelope of the two sides of the first-best threshold
    equation.

    Convex in y and minimized at the optimal threshold, where it equals
    first-best welfare.
    """
    return max(d.u_bar - rho * y, sum(t.mass * max(y - t.c, 0.0) for t in d.types))


def reduced_lagrangian(Q: float, y: float, d: TypeDistribution, rho: float) -> float:
    """Participation's value of uptime Q when fixing the machine is worth
    y per repair.

    Concave in Q for fixed y; convex piecewise linear in y for fixed Q.
    """
    total = Q * (d.u_bar - rho * y)
    one_minus = 1.0 - Q
    for t in d.types:
        gain = y - t.c
        if gain > 0.0 and t.mass > 0.0:
            total += t.mass * min(one_minus, Q * t.nu) * gain
    return total


def _cap_sum(Q: float, y: float, d: TypeDistribution, strict: bool) -> float:
    total = 0.0
    one_minus = 1.0 - Q
    for t in d.types:
        included = t.c < y if strict else t.c <= y
        if included and t.mass > 0.0:
            total += t.mass * min(one_minus, Q * t.nu)
    return total


def balance_residual_at(
    Q: float, y: float, d: TypeDistribution, rho: float, strict: bool
) -> float:
    """Saturated contributions of the types with cost below y (strict)
    or at most y, minus the breakage rate, at uptime Q."""
    return _cap_sum(Q, y, d, strict) - rho * Q


def argmax_face(y: float, d: TypeDistribution, rho: float) -> tuple[float, float, float]:
    """Maximizer interval of Q for a fixed threshold y.

    The reduced Lagrangian is linear between kinks, so the maximum over
    [0, 1] is attained on the kink partition; ties span a flat face.
    Returns (face_lo, face_hi, max_value).
    """
    pts = kink_uptimes(d)
    vals = [reduced_lagrangian(q, y, d, rho) for q in pts]
    vmax = max(vals)
    tol = _FACE_RTOL * max(1.0, abs(vmax))
    sel = [q for q, v in zip(pts, vals) if v >= vmax - tol]
    return min(sel), max(sel), vmax


def inner_max_Q(y: float, d: TypeDistribution, rho: float) -> tuple[float, float]:
    """Maximize the reduced Lagrangian over uptime for a fixed threshold.

    Exact on the kink partition; returns the smallest maximizer and the
    maximum value.
    """
    lo, _, value = argmax_face(y, d, rho)
    return lo, value


def slater_gap(d: TypeDistribution, rho: float) -> float:
    """Largest achievable slack in the balance condition.

    Maximizes aggregate saturated contributions minus the breakage rate
    over the kink partition.  A positive value certifies that the dual
    minimum is attained at a finite threshold.
    """
    return max(balance_residual_at(q, math.inf, d, rho, True) for q in kink_uptimes(d))


def ic_lagrangian(
    Q: float, y: float, d: TypeDistribution, rho: float
) -> tuple[float, InnerMenu]:
    """Relaxed value of uptime Q at repair value y over screening menus.

    For interior Q the problem normalizes to a bounded-payment sale with
    valuations scaled by Q / (1 - Q), surplus weights mass * c, and a net
    payment coefficient of mass * (y - c).  At Q of 0 or 1 the trade
    surface degenerates and the all-zero menu value is returned.
    """
    zero = InnerMenu(
        r={t.id: 0.0 for t in d.types}, p={t.id: 0.0 for t in d.types}
    )
    if Q <= 0.0 or Q >= 1.0:
        return -rho * Q * y, zero
    ratio = Q / (1.0 - Q)
    order = sorted(d.types, key=lambda t: t.nu)
    vals = [(t.nu * ratio, t.mass * t.c, t.mass * y) for t in order]
    sol = bounded_monopoly_solve(vals, cap=1.0)
    value = (1.0 - Q) * sol.value - rho * Q * y
    menu = InnerMenu(
        r={t.id: ri for t, ri in zip(order, sol.r)},
        p={t.id: pi for t, pi in zip(order, sol.p)},
    )
    return value, menu


def table_row_menu(
    tab, i: int, d: TypeDistribution, rho: float
) -> tuple[float, float, float, InnerMenu]:
    """(Q, W, S, menu) of the screening kink table's row i, its menu
    scored buyer by buyer with _score_menu.

    Every buyer breaks ties with unit payment weight, so it takes the
    bundle that pays the seller more whatever its mass.  At its own kink
    a buyer's valuation is exactly 1, as in the table.
    """
    q = float(tab.qs[tab.kink[i]])
    lo, hi = int(tab.lo[i]), int(tab.hi[i])
    ratio = q / (1.0 - q)
    order = sorted(d.types, key=lambda t: t.nu)
    nus = [1.0 if q == 1.0 / (1.0 + t.nu) else t.nu * ratio for t in order]
    pad = [0.0] + nus + [1.0]
    out = (0.0, 0.0)
    if hi < 0:
        bundles: tuple[tuple[float, float], ...] = (out, (1.0, min(pad[lo], 1.0)))
    else:
        r0 = (pad[hi] - 1.0) / (pad[hi] - pad[lo])
        bundles = (out, (r0, r0 * pad[lo]), (1.0, 1.0))
    tie_eps = 1e-12 * max(1.0, max(nus))
    _, choice = _score_menu(bundles, [(x, 0.0, 1.0) for x in nus], tie_eps)
    menu = InnerMenu(
        r={t.id: bundles[c][0] for t, c in zip(order, choice)},
        p={t.id: bundles[c][1] for t, c in zip(order, choice)},
    )
    W = sum(t.mass * (q * menu.r[t.id] * t.u - (1.0 - q) * menu.p[t.id] * t.c) for t in d.types)
    S = sum(t.mass * (1.0 - q) * menu.p[t.id] for t in d.types) - rho * q
    return q, W, S, menu


def first_best_lines(d: TypeDistribution) -> _KinkLines:
    """First best's dual as participation's table: the kinks 0 and 1, and
    each type's cap relaxed to the downtime, so it covers mass * (1 - q).
    Row 0 holds a line per prefix of the cost-sorted types and row 1 the
    limit line."""
    by_cost = sorted(d.types, key=lambda t: t.c)
    mass, c = np.array([(0.0, 0.0)] + [(t.mass, t.c) for t in by_cost]).T
    qs = np.array([0.0, 1.0])
    q = qs[:, None]
    covered = mass * (1.0 - q)
    W = q * d.u_bar - (covered * c).cumsum(axis=1)
    kink = np.arange(2).repeat(W.shape[1]).reshape(W.shape)
    return _KinkLines(W, covered.cumsum(axis=1), kink, by_cost, [t.c for t in by_cost], qs=qs)


def first_best_via_participation(d: TypeDistribution, rho: float) -> FirstBestSolution:
    """solve_first_best by participation's finish on first best's table:
    the walk, the snap to a cost atom, the band of rationed types when
    the final pair shares a kink, the uptime and share of _balanced_point
    at tolerance 0, each type's share of its downtime, and welfare summed
    through agent_utility.  No shortcut is taken that first best's table
    would allow, such as the pair's rows always being 0 and 1.
    """
    lines = first_best_lines(d)
    W, S = lines.W, lines.slack(rho)
    pos, neg, _, y = minimize(W.ravel(), S.ravel(), 0.0)
    for t in d.types:
        if abs(t.c - y) <= ATOM_SNAP * max(1.0, t.c):
            y = t.c
            break
    by_cost, costs = lines.by_cost, lines.costs
    (pos_row, pos_col), (neg_row, neg_col) = (divmod(i, W.shape[1]) for i in (pos, neg))
    lo_c = hi_c = y
    if pos_row == neg_row and y not in costs:
        band = [t.c for t in by_cost[neg_col:pos_col] if t.mass > 0.0]
        lo_c, hi_c = min(band), max(band)
    Q, frac = _balanced_point(
        lines.qs, S, bisect_left(costs, lo_c), bisect_right(costs, hi_c), pos_row, neg_row, 0.0
    )
    P = {}
    for t in d.types:
        share = 1.0 if t.c < lo_c else frac if t.c <= hi_c else 0.0
        P[t.id] = (1.0 - Q) * share
    mech = Mechanism(Q=Q, R={t.id: Q for t in d.types}, P=P)
    W_fb = sum(t.mass * agent_utility(t, mech.R[t.id], mech.P[t.id]) for t in d.types)
    return FirstBestSolution(y, Q, W_fb, mech, rho)
