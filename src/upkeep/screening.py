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

Every candidate menu at every kink is scored once, into one table of
lines.  Buyers sorted by nu stay sorted at every kink, and a menu
{out, (r0, r0 * lo), (1, 1)} sends the buyers below lo out, those in
[lo, hi) to the low tier and those from hi up to the top tier, ties
going to the seller-preferred bundle.  So each menu's revenue and welfare
come from two cut indices and prefix sums of mass, mass * u and
mass * c: O(n^2) numpy work per kink, in blocks of kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .model import (
    DEFAULT_TOL,
    AgentType,
    DegenerateDistributionError,
    Mechanism,
    TypeDistribution,
    kink_uptimes,
    welfare,
)

_MAX_WALK = 200

# Kinks per scoring pass of the kink table: as many as keep the
# (kinks, n + 1, n + 1) grid of low and high atoms within this many
# cells, and at least one.
_BLOCK_CELLS = 1 << 16


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
    if not (math.isfinite(cap) and cap > 0):
        raise ValueError("cap must be finite and > 0")
    for nu, sw, pw in vals:
        if not (math.isfinite(nu) and math.isfinite(sw) and math.isfinite(pw)):
            raise ValueError("valuations and weights must be finite")
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


class _KinkTable(NamedTuple):
    """Every candidate menu at every kink uptime Q < 1, as the line
    y -> W + y * S with S = revenue - rho * Q.

    Row 0 is Q = 0, where every menu sells nothing.  Then, one block of
    kinks at a time, come the block's posted prices and then its two-atom
    menus, each kink by kink in _menu_candidates order (a repeated
    valuation repeats its menus), so a first maximum among one kink's
    rows breaks ties the way bounded_monopoly_solve does; across kinks
    exact ties are left to row order.  A row names its menu by indices into
    its kink's padded valuations pad = (0, v_1, ..., v_n, 1), v sorted
    ascending: hi = -1 is the posted price min(pad[lo], 1), otherwise the
    menu has its low atom at pad[lo] and its high atom at pad[hi]; lo = -1
    is the opt-out alone.
    """

    W: np.ndarray
    S: np.ndarray
    kink: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    qs: np.ndarray
    order: tuple[AgentType, ...]


def _score_kinks(
    qs: np.ndarray, nu: np.ndarray, cum: np.ndarray, rho: float
) -> tuple[np.ndarray, ...]:
    """(W, S, kink, lo, hi) of every posted price and two-atom menu at a
    block of kinks qs in (0, 1); nu is sorted and cum holds the prefix
    sums of mass, mass * u and mass * c in that order.

    A buyer takes the low atom (r, r * lo) iff r * (v - lo) clears the
    tie tolerance eps, on the low atom's side when it charges something;
    it then takes the top tier (1, 1) iff that is within eps of its best
    utility so far.  Each test is monotone in v, so it is a cut index
    into the sorted buyers, found by searchsorted in nu-space.  Between
    the low atom and the top tier the cut sits at hi, where the two
    utilities are equal.
    """
    k_n, n = qs.size, nu.size
    ratio = qs / (1.0 - qs)
    pad = np.empty((k_n, n + 2))
    pad[:, 0], pad[:, 1:-1], pad[:, -1] = 0.0, ratio[:, None] * nu, 1.0
    v = pad[:, 1:-1]
    eps = 1e-12 * np.maximum(1.0, v[:, -1])
    # Low atoms are 0 and every v < 1, high atoms every v > 1; an atom at
    # exactly 1 would only repeat the posted price 1.
    low_ok = np.arange(n + 1) <= (v < 1.0).sum(axis=1)[:, None]
    high_ok = np.arange(n + 1) > (v <= 1.0).sum(axis=1)[:, None]
    kq, lo, hi = np.nonzero(low_ok[:, :, None] & high_ok[:, None, :])
    l, h = pad[kq, lo], pad[kq, hi]

    # The rows: every posted price (r = 1, charging min(pad, 1)), then
    # every pair.  Buyers from `cut` up take the low atom.
    n_posted = pad.size
    k = np.concatenate([np.repeat(np.arange(k_n), n + 2), kq])
    low = np.concatenate([np.minimum(pad, 1.0).ravel(), l])
    r = np.concatenate([np.ones(n_posted), (h - 1.0) / (h - l)])
    pay = r * low
    slack = eps[k] / r
    cut = np.searchsorted(nu, np.where(pay > 0.0, low - slack, low + slack) / ratio[k])
    # A pair's top tier takes the buyers from top1 up among those past the
    # cut (v >= hi, less eps over the slope 1 - r, and v >= 1 - eps), and
    # those from top0 to the cut among the rest (v >= 1 - eps).
    e, cut_q = eps[kq], cut[n_posted:]
    to_top = np.maximum(1.0 - e, h - e * (h - l) / (1.0 - l))
    out_top = np.searchsorted(nu, (1.0 - eps) / ratio)[kq]
    top0 = np.concatenate([cut[:n_posted], np.minimum(out_top, cut_q)])
    top1 = np.concatenate(
        [np.full(n_posted, n), np.maximum(cut_q, np.searchsorted(nu, to_top / ratio[kq]))]
    )

    at_cut, at_top1 = cum[:, cut], cum[:, top1]
    in_low = at_top1 - at_cut
    in_top = (at_cut - cum[:, top0]) + (cum[:, n:] - at_top1)
    q = qs[k]
    rev = (1.0 - q) * (pay * in_low[0] + in_top[0])
    W = q * (r * in_low[1] + in_top[1]) - (1.0 - q) * (pay * in_low[2] + in_top[2])
    lo = np.concatenate([np.tile(np.arange(n + 2), k_n), lo])
    hi = np.concatenate([np.full(n_posted, -1), hi])
    return W, rev - rho * q, k, lo, hi


def _kink_table(d: TypeDistribution, rho: float) -> _KinkTable:
    """Score every candidate menu at every kink, a block of kinks at a
    time; see _score_kinks."""
    order = tuple(sorted(d.types, key=lambda t: t.nu))
    nu = np.array([t.nu for t in order])
    cum = np.zeros((3, nu.size + 1))
    cum[:, 1:] = np.cumsum([[t.mass, t.mass * t.u, t.mass * t.c] for t in order], axis=0).T
    qs = np.array([q for q in kink_uptimes(d) if q < 1.0])
    parts = [(np.zeros(1), np.zeros(1), np.zeros(1, int), np.full(1, -1), np.full(1, -1))]
    step = max(1, _BLOCK_CELLS // (nu.size + 1) ** 2)
    for first in range(1, qs.size, step):
        W, S, k, lo, hi = _score_kinks(qs[first : first + step], nu, cum, rho)
        parts.append((W, S, k + first, lo, hi))
    W, S, k, lo, hi = zip(*parts)
    return _KinkTable(
        W=np.concatenate(W),
        S=np.concatenate(S),
        kink=np.concatenate(k, dtype=np.int32),
        lo=np.concatenate(lo, dtype=np.int32),
        hi=np.concatenate(hi, dtype=np.int32),
        qs=qs,
        order=order,
    )


def _row_line(tab: _KinkTable, i: int, d: TypeDistribution, rho: float) -> _Line:
    """The line of table row i, from its menu scored buyer by buyer with
    the seller-preferred tie rule of _score_menu; row -1 is the Q -> 1
    limit, where everyone has full access for free."""
    if i < 0:
        free = InnerMenu(r={t.id: 1.0 for t in d.types}, p={t.id: 0.0 for t in d.types})
        return _Line(W=d.u_bar, S=-rho, Q=1.0, menu=free)
    q = float(tab.qs[tab.kink[i]])
    lo, hi = int(tab.lo[i]), int(tab.hi[i])
    ratio = q / (1.0 - q)
    nus = [t.nu * ratio for t in tab.order]
    pad = [0.0] + nus + [1.0]
    out = (0.0, 0.0)
    if lo < 0:
        bundles: tuple[tuple[float, float], ...] = (out,)
    elif hi < 0:
        bundles = (out, (1.0, min(pad[lo], 1.0)))
    else:
        r0 = (pad[hi] - 1.0) / (pad[hi] - pad[lo])
        bundles = (out, (r0, r0 * pad[lo]), (1.0, 1.0))
    tie_eps = 1e-12 * max(1.0, max(nus))
    _, choice = _score_menu(
        bundles, [(x, 0.0, t.mass) for x, t in zip(nus, tab.order)], tie_eps
    )
    menu = InnerMenu(
        r={t.id: bundles[c][0] for t, c in zip(tab.order, choice)},
        p={t.id: bundles[c][1] for t, c in zip(tab.order, choice)},
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
    d: TypeDistribution, rho: float, tab: _KinkTable
) -> ScreeningSolution:
    # No menu has strictly slack balance, so feasible menus are exactly
    # the balanced revenue maximizers; pick the welfare-best of those.
    # Revenue minus rho * Q is convex between kinks and nowhere positive,
    # so where it vanishes inside a segment it vanishes at both ends, and
    # welfare, affine along the segment, is best at one end.  At Q = 0
    # the opt-out menu is balanced, so the scan always finds one.
    eps_bal = 1e-12 * max(1.0, rho, d.total_mass)
    top = np.full(tab.qs.size, -math.inf)
    np.maximum.at(top, tab.kink, tab.S)
    top = top[tab.kink]
    rows = np.flatnonzero((np.abs(top) <= eps_bal) & (tab.S >= top - eps_bal))
    # Scanned kink by kink, a row replaces the best so far only if its
    # welfare is higher by more than eps_bal.
    rows = rows[np.argsort(tab.kink[rows], kind="stable")]
    best = rows[0]
    for i in rows[1:]:
        if tab.W[i] > tab.W[best] + eps_bal:
            best = i
    line = _row_line(tab, int(best), d, rho)
    return _build_solution(math.inf, line.Q, line.menu, d, rho, 0)


def solve_screening(
    d: TypeDistribution, rho: float, tol: float = DEFAULT_TOL
) -> ScreeningSolution:
    """Solve the designer's problem under participation and truthful
    reporting.

    The dual g(y) = max over Q of ic_lagrangian(Q, y) is the upper
    envelope of finitely many lines W + y * S, one per kink menu plus
    the Q -> 1 limit (W = u_bar, S = -rho).  All kink lines are scored
    once into one table (_kink_table), and each evaluation of g is one
    numpy maximum over it.  A cutting-plane walk keeps one line with
    S >= 0 and one with S < 0, starting from the kink menu with the most
    slack and the limit line.  At their crossing it evaluates g; a line
    above the pair replaces the member on its side of S = 0, otherwise
    the crossing minimizes g and mixing the pair's (Q, R, P) points so
    that S = 0 gives an optimal balanced mechanism.  Each evaluation is
    one walk step.  Only the final pair's menus are assigned buyer by
    buyer.  When no kink menu has slack above tol the dual is unbounded
    and the welfare-best balanced revenue maximizer is returned with
    y_star = inf.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    if d.total_mass <= 0:
        raise DegenerateDistributionError("distribution has no mass")

    tab = _kink_table(d, rho)
    pos = int(np.argmax(tab.S))
    if tab.S[pos] <= tol * max(1.0, rho, d.total_mass):
        return _solve_infinite_branch(d, rho, tab)

    # Between kinks every candidate menu's (R, P) is affine in Q, so at
    # any y the Lagrangian peaks at a kink or in the limit Q -> 1, where
    # everyone has full access for free; that limit line (row -1 here)
    # starts the walk as neg.  It never rises above the pair again: every
    # later neg line entered above its predecessor, so above the limit
    # line, and while it is held every crossing lies to the right of its
    # entry, where its lead over the steeper limit line only grows.
    u_bar = d.u_bar

    def line(i: int) -> tuple[float, float]:
        return (u_bar, -rho) if i < 0 else (float(tab.W[i]), float(tab.S[i]))

    neg = -1
    for step in range(1, _MAX_WALK + 1):
        (w_pos, s_pos), (w_neg, s_neg) = line(pos), line(neg)
        y = (w_neg - w_pos) / (s_pos - s_neg)
        v = w_pos + y * s_pos
        values = tab.W + y * tab.S
        top = int(np.argmax(values))
        g = float(values[top])
        if u_bar - rho * y > g:
            top, g = -1, u_bar - rho * y
        if g <= v + 1e-12 * max(1.0, abs(v)):
            # The pair's lines from their menus, as the mix uses them.
            a, b = _row_line(tab, pos, d, rho), _row_line(tab, neg, d, rho)
            y = (b.W - a.W) / (a.S - b.S)
            return _build_solution(y, *_mix(a, b), d, rho, step)
        if line(top)[1] >= 0.0:
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
