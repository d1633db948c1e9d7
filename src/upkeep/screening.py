"""Incentive-compatible mechanisms: two-tier membership menus.

Hidden types are screened through access levels.  For a fixed uptime the
problem reduces to a single-good sale with a hard payment cap, whose
optima are posted prices or two-atom menus saturating the payment
moment.  Between consecutive kink uptimes Q = 1 / (1 + nu) every
candidate menu's usage and contribution levels are affine in Q, so at a
fixed repair value y the Lagrangian W + y * S peaks at a kink or in the
limit Q -> 1.  The dual is therefore the upper envelope of finitely many
lines, which a cutting-plane walk minimizes exactly; mixing the two lines
active at the minimum balances the mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import (
    DEFAULT_TOL,
    DegenerateDistributionError,
    Mechanism,
    TypeDistribution,
    kink_uptimes,
    welfare,
)

_MAX_WALK = 200

# (revenue, welfare, r_by_id, p_by_id) of one candidate menu at an uptime.
_Candidate = tuple[float, float, dict[str, float], dict[str, float]]


@dataclass(frozen=True)
class MenuTier:
    """One membership option in normalized units: allocation probability
    and payment as a fraction of the payment cap."""

    r: float
    p: float


@dataclass(frozen=True)
class MenuSolution:
    """Per-buyer allocation and payment plus the achieved objective."""

    r: tuple[float, ...]
    p: tuple[float, ...]
    value: float


@dataclass(frozen=True)
class InnerMenu:
    """Normalized menu keyed by type id."""

    r: Mapping[str, float]
    p: Mapping[str, float]


@dataclass(frozen=True)
class ScreeningSolution:
    """Saddle data, the induced mechanism, and its tier structure.

    tiers are ordered by descending access; assignment maps each type id
    to a tier index, or None for opting out.  iterations counts the steps
    of the dual walk, and is 0 when y_star is infinite.
    """

    y_star: float
    Q_star: float
    W_star: float
    mechanism: Mechanism
    tiers: tuple[MenuTier, ...]
    assignment: Mapping[str, int | None]
    iterations: int
    rho: float
    d: TypeDistribution


def _menu_candidates(
    nus: Sequence[float], cap: float
) -> list[tuple[tuple[float, float], ...]]:
    """Candidate bundle sets: the opt-out alone, posted prices, and
    moment-saturated two-atom menus over valuation and cap cutpoints."""
    out = (0.0, 0.0)
    candidates: list[tuple[tuple[float, float], ...]] = [(out,)]
    points = sorted(set(nus))
    for t in [0.0] + points + [cap]:
        candidates.append((out, (1.0, min(t, cap))))
    lows = sorted({0.0, cap} | {v for v in points if v <= cap})
    highs = sorted({cap} | {v for v in points if v >= cap})
    for lo in lows:
        for hi in highs:
            if hi <= lo:
                continue
            r0 = (hi - cap) / (hi - lo)
            if not (0.0 <= r0 <= 1.0):
                continue
            candidates.append((out, (r0, r0 * lo), (1.0, cap)))
    return candidates


def _score_menu(
    bundles: tuple[tuple[float, float], ...],
    vals: Sequence[tuple[float, float, float]],
    tie_eps: float,
) -> tuple[float, list[int]]:
    # Buyers self-select, so the menu is incentive compatible and
    # individually rational by construction; indifferent buyers are
    # steered to the seller-preferred bundle.
    total = 0.0
    choice: list[int] = []
    for nu, sw, pw in vals:
        best_u = -math.inf
        best_obj = -math.inf
        best_k = 0
        for k, (r, p) in enumerate(bundles):
            u = r * nu - p
            if u > best_u + tie_eps:
                best_u, best_obj, best_k = u, sw * u + pw * p, k
            elif u >= best_u - tie_eps:
                obj = sw * u + pw * p
                if obj > best_obj:
                    best_u = max(best_u, u)
                    best_obj, best_k = obj, k
        total += best_obj
        choice.append(best_k)
    return total, choice


def bounded_monopoly_solve(
    vals: Sequence[tuple[float, float, float]], cap: float = 1.0
) -> MenuSolution:
    """Single-good sale with payments capped, mixed seller objective.

    vals holds (valuation, surplus_weight, payment_weight) triples sorted
    ascending by valuation; surplus weights must be nonnegative, payment
    weights may have any sign.  The objective is
    sum(surplus_weight * (r * valuation - p)) + sum(payment_weight * p)
    over incentive-compatible, individually rational menus with p <= cap.
    The search enumerates posted prices and moment-saturated two-atom
    menus, which exhaust the extreme points of the feasible allocation
    set, and returns the best candidate.
    """
    if cap <= 0:
        raise ValueError("cap must be > 0")
    for nu, sw, _ in vals:
        if nu < 0:
            raise ValueError("valuations must be >= 0")
        if sw < 0:
            raise ValueError("surplus weights must be >= 0")
    nus = [v[0] for v in vals]
    if any(b < a for a, b in zip(nus, nus[1:])):
        raise ValueError("vals must be sorted ascending by valuation")
    if not vals:
        return MenuSolution(r=(), p=(), value=0.0)

    tie_eps = 1e-12 * max(1.0, cap, max(nus))
    best_value = -math.inf
    best_choice: list[int] = []
    best_bundles: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    for bundles in _menu_candidates(nus, cap):
        value, choice = _score_menu(bundles, vals, tie_eps)
        if value > best_value:
            best_value, best_choice, best_bundles = value, choice, bundles
    r = tuple(best_bundles[k][0] for k in best_choice)
    p = tuple(best_bundles[k][1] for k in best_choice)
    return MenuSolution(r=r, p=p, value=best_value)


def _rev_candidates(d: TypeDistribution, Q: float) -> list[_Candidate]:
    """Revenue, welfare and normalized menu of every candidate menu."""
    ratio = Q / (1.0 - Q)
    order = sorted(d.types, key=lambda t: t.nu)
    nus = [t.nu * ratio for t in order]
    tie_eps = 1e-12 * max(1.0, max(nus, default=0.0))
    results = []
    for bundles in _menu_candidates(nus, 1.0):
        _, choice = _score_menu(
            bundles, [(nu, 0.0, t.mass) for nu, t in zip(nus, order)], tie_eps
        )
        r_by = {t.id: bundles[k][0] for t, k in zip(order, choice)}
        p_by = {t.id: bundles[k][1] for t, k in zip(order, choice)}
        rev = sum(t.mass * (1.0 - Q) * p_by[t.id] for t in order)
        w = sum(
            t.mass * (Q * r_by[t.id] * t.u - (1.0 - Q) * p_by[t.id] * t.c)
            for t in order
        )
        results.append((rev, w, r_by, p_by))
    return results


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


@dataclass(frozen=True)
class _Line:
    """Uptime Q and a normalized menu with welfare W and balance slack
    S = sum(mass * P) - rho * Q; in the dual it is the line y -> W + y * S."""

    W: float
    S: float
    Q: float
    menu: InnerMenu


def _line(Q: float, menu: InnerMenu, d: TypeDistribution, rho: float) -> _Line:
    R = {t.id: Q * menu.r[t.id] for t in d.types}
    P = {t.id: (1.0 - Q) * menu.p[t.id] for t in d.types}
    W = sum(t.mass * (R[t.id] * t.u - P[t.id] * t.c) for t in d.types)
    S = sum(t.mass * P[t.id] for t in d.types) - rho * Q
    return _Line(W=W, S=S, Q=Q, menu=menu)


def _kink_line(
    y: float, kinks: Sequence[float], d: TypeDistribution, rho: float
) -> _Line:
    """The kink menu maximizing ic_lagrangian(Q, y) over the kinks Q < 1."""
    _, menu, q = max(
        (ic_lagrangian(q, y, d, rho) + (q,) for q in kinks), key=lambda b: b[0]
    )
    return _line(q, menu, d, rho)


def _mix(a: _Line, b: _Line) -> tuple[float, InnerMenu]:
    """The point alpha * a + (1 - alpha) * b in (Q, R, P) with S = 0, as
    its uptime and normalized menu.

    Usage is mixed in uptime shares and contributions in downtime shares,
    so a tier keeps its normalized levels exactly even next to the
    Q -> 1 limit, where 1 - Q is tiny.
    """
    alpha = -b.S / (a.S - b.S)
    up_a, up_b = alpha * a.Q, (1.0 - alpha) * b.Q
    down_a, down_b = alpha * (1.0 - a.Q), (1.0 - alpha) * (1.0 - b.Q)
    w_r = up_a / (up_a + up_b) if up_a + up_b > 0.0 else 1.0
    w_p = down_a / (down_a + down_b)
    r = {tid: w_r * x + (1.0 - w_r) * b.menu.r[tid] for tid, x in a.menu.r.items()}
    p = {tid: w_p * x + (1.0 - w_p) * b.menu.p[tid] for tid, x in a.menu.p.items()}
    return up_a + up_b, InnerMenu(r=r, p=p)


def _extract_tiers(
    menu: InnerMenu, d: TypeDistribution
) -> tuple[tuple[MenuTier, ...], dict[str, int | None]]:
    key_of: dict[tuple[float, float], int] = {}
    tiers: list[tuple[float, float]] = []
    assignment: dict[str, int | None] = {}
    for t in d.types:
        r, p = menu.r[t.id], menu.p[t.id]
        if r <= 1e-12 and p <= 1e-12:
            assignment[t.id] = None
            continue
        key = (round(r, 9), round(p, 9))
        if key not in key_of:
            key_of[key] = len(tiers)
            tiers.append((r, p))
        assignment[t.id] = key_of[key]
    order = sorted(range(len(tiers)), key=lambda i: (-tiers[i][0], -tiers[i][1]))
    remap = {old: new for new, old in enumerate(order)}
    sorted_tiers = tuple(MenuTier(r=tiers[i][0], p=tiers[i][1]) for i in order)
    assignment = {
        tid: (remap[k] if k is not None else None) for tid, k in assignment.items()
    }
    return sorted_tiers, assignment


def _build_solution(
    y_star: float,
    Q: float,
    menu: InnerMenu,
    d: TypeDistribution,
    rho: float,
    iterations: int,
) -> ScreeningSolution:
    R = {t.id: Q * menu.r[t.id] for t in d.types}
    P = {t.id: (1.0 - Q) * menu.p[t.id] for t in d.types}
    mech = Mechanism(Q=Q, R=R, P=P)
    tiers, assignment = _extract_tiers(menu, d)
    return ScreeningSolution(
        y_star=y_star,
        Q_star=Q,
        W_star=welfare(mech, d),
        mechanism=mech,
        tiers=tiers,
        assignment=assignment,
        iterations=iterations,
        rho=rho,
        d=d,
    )


def _solve_infinite_branch(
    d: TypeDistribution, rho: float, cands: Mapping[float, list[_Candidate]]
) -> ScreeningSolution:
    # No menu has strictly slack balance, so feasible menus are exactly
    # the balanced revenue maximizers; pick the welfare-best of those.
    # Revenue minus rho * Q is convex between kinks and nowhere positive,
    # so where it vanishes inside a segment it vanishes at both ends, and
    # welfare, affine along the segment, is best at one end.  At Q = 0
    # the opt-out menu is balanced, so the scan always finds one.
    eps_bal = 1e-12 * max(1.0, rho, d.total_mass)
    best: tuple[float, float, InnerMenu] | None = None
    for q, cs in cands.items():
        rev_max = max(c[0] for c in cs)
        if abs(rev_max - rho * q) > eps_bal:
            continue
        for rev, w, r_by, p_by in cs:
            if rev < rev_max - eps_bal:
                continue
            if best is None or w > best[0] + eps_bal:
                best = (w, q, InnerMenu(r=r_by, p=p_by))
    _, q, menu = best
    return _build_solution(math.inf, q, menu, d, rho, 0)


def solve_screening(
    d: TypeDistribution, rho: float, tol: float = DEFAULT_TOL
) -> ScreeningSolution:
    """Solve the designer's problem under participation and truthful
    reporting.

    The dual g(y) = max over Q of ic_lagrangian(Q, y) is the upper
    envelope of finitely many lines W + y * S, one per kink menu plus
    the Q -> 1 limit (W = u_bar, S = -rho).  A cutting-plane walk keeps
    one line with S >= 0 and one with S < 0, starting from the kink menu
    with the most slack and the limit line.  At their crossing it
    evaluates g; a line above the pair replaces the member on its side
    of S = 0, otherwise the crossing minimizes g and mixing the pair's
    (Q, R, P) points so that S = 0 gives an optimal balanced mechanism.
    Each evaluation is one walk step.  When no kink menu has slack
    above tol the dual is unbounded and the welfare-best balanced
    revenue maximizer is returned with y_star = inf.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if d.total_mass <= 0:
        raise DegenerateDistributionError("distribution has no mass")

    kinks = [q for q in kink_uptimes(d) if q < 1.0]
    cands = {q: _rev_candidates(d, q) for q in kinks}
    slack, q, r_by, p_by = max(
        (
            (rev - rho * q, q, r_by, p_by)
            for q, cs in cands.items()
            for rev, _, r_by, p_by in cs
        ),
        key=lambda c: c[0],
    )
    if slack <= tol * max(1.0, rho, d.total_mass):
        return _solve_infinite_branch(d, rho, cands)

    # Between kinks every candidate menu's (R, P) is affine in Q, so at
    # any y the Lagrangian peaks at a kink or in the limit Q -> 1, where
    # everyone has full access for free; ic_lagrangian(1, y) misses that
    # limit, so its line starts the walk as neg.  It never rises above the
    # pair again: every later neg line entered above its predecessor, so
    # above the limit line, and while it is held every crossing lies to
    # the right of its entry, where its lead over the steeper limit line
    # only grows.
    free = InnerMenu(r={t.id: 1.0 for t in d.types}, p={t.id: 0.0 for t in d.types})
    neg = _Line(W=d.u_bar, S=-rho, Q=1.0, menu=free)
    pos = _line(q, InnerMenu(r=r_by, p=p_by), d, rho)
    for step in range(1, _MAX_WALK + 1):
        y = (neg.W - pos.W) / (pos.S - neg.S)
        v = pos.W + y * pos.S
        top = _kink_line(y, kinks, d, rho)
        if top.W + y * top.S <= v + 1e-12 * max(1.0, abs(v)):
            return _build_solution(y, *_mix(pos, neg), d, rho, step)
        if top.S >= 0.0:
            pos = top
        else:
            neg = top
    raise RuntimeError("screening dual walk did not converge")


def verify_structure(sol: ScreeningSolution, tol: float = DEFAULT_TOL) -> bool:
    """Check the qualitative shape of an optimal screening menu.

    True iff the assignment is monotone in valuation, at most two nonzero
    tiers are used, a two-tier menu's top tier charges the full downtime,
    and a single-tier menu grants full access.
    """
    used = sorted({k for k in sol.assignment.values() if k is not None})
    tiers = [sol.tiers[k] for k in used]
    if len(tiers) > 2:
        return False
    if len(tiers) == 2 and abs(tiers[0].p - 1.0) > tol:
        return False
    if len(tiers) == 1 and abs(tiers[0].r - 1.0) > tol:
        return False

    def rank(tid: str) -> float:
        k = sol.assignment[tid]
        return -1.0 if k is None else sol.tiers[k].r

    by_nu = sorted(sol.d.types, key=lambda t: t.nu)
    for a, b in zip(by_nu, by_nu[1:]):
        if b.nu > a.nu + 1e-12 * max(1.0, a.nu) and rank(b.id) < rank(a.id) - tol:
            return False
        if abs(b.nu - a.nu) <= 1e-12 * max(1.0, a.nu):
            ra, pa = sol.mechanism.R[a.id], sol.mechanism.P[a.id]
            rb, pb = sol.mechanism.R[b.id], sol.mechanism.P[b.id]
            if abs(ra - rb) > tol or abs(pa - pb) > tol:
                return False
    return True
