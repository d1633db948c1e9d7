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

Every candidate menu at every kink is scored once, into one rho-free
envelope.Lines table, so one table serves every breakage rate.  Both of
its ends are the free posted price: at Q = 0 nobody takes it, and at the
limit Q -> 1 everybody does.  A solve at rho is one core
(_screening_core), which mixes the table's final pair into the final
line; only the public solve builds the mechanism and labels from it,
as they cost about a fifth of a step and a sweep row prints y, Q, W
(participation's cost a few per cent, so its step forms them).  Buyers
sorted by nu stay sorted at every kink, and a menu {out, (r0, r0 * lo),
(1, 1)} sends the buyers below lo out, those in [lo, hi) to the low tier
and those from hi up to the top tier, ties going to the seller-preferred
bundle whatever the buyer's mass, so tied valuations share a bundle.
Each menu's revenue and welfare then come from cut indices and prefix
sums of mass, mass * u and mass * c: O(n^2) numpy work per kink, in
blocks of kinks.  One function (_cuts) finds those indices, and the
table stores them with each kink's padded valuations, so the final menus
are read from the indices and atoms that scored them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .envelope import Lines, solve_at
from .model import (
    Mechanism,
    TypeDistribution,
    kink_uptimes,
    slack_scale,
)

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
class ScreeningSolution:
    """Saddle data, the induced mechanism, and its tier structure.

    tiers are the distinct normalized levels (r, p) other than (0, 0), by
    descending access; assignment maps each type id to the index of its
    levels, or None when they are exactly (0, 0), opting out.  iterations
    counts the steps of the dual walk, and is 0 when y_star is infinite.
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


class _Line(NamedTuple):
    """Uptime Q and a normalized menu (r, p), in d.types order, with its
    levels R = Q * r and P = (1 - Q) * p as lists, welfare W and balance
    slack S = sum(mass * P) - rho * Q; in the dual it is the line
    y -> W + y * S."""

    W: float
    S: float
    Q: float
    r: np.ndarray
    p: np.ndarray
    R: list[float]
    P: list[float]


def _line(Q: float, r: np.ndarray, p: np.ndarray, d: TypeDistribution, rho: float) -> _Line:
    R, P = (Q * r).tolist(), ((1.0 - Q) * p).tolist()
    W = sum(t.mass * (Ri * t.u - Pi * t.c) for t, Ri, Pi in zip(d.types, R, P))
    S = sum(t.mass * Pi for t, Pi in zip(d.types, P)) - rho * Q
    return _Line(W, S, Q, r, p, R, P)


@dataclass
class _KinkTable(Lines):
    """Every candidate menu at every kink uptime Q < 1, then the limit,
    one row of Lines each.

    Row 0, at Q = 0, is the free posted price pad[0, 0] = 0, which nobody
    takes: every buyer is cut out (W = rev = 0).  Then, one block of kinks
    at a time, come the block's posted prices and then its two-atom menus,
    each kink by kink in _menu_candidates order (a repeated valuation
    repeats its menus), so a first maximum among one kink's rows breaks
    ties the way bounded_monopoly_solve does; across kinks exact ties are
    left to row order.  The last row, at the last kink Q = 1, is the limit:
    the free posted price pad[last, 0] = 0, which every buyer takes, so
    everyone has full access for free: W = u_bar, rev = 0.  A row names
    its menu by indices into its kink's padded valuations pad[kink] =
    (0, v_1, ..., v_n, 1), v sorted ascending: hi = -1 is the posted price
    pad[kink, lo] <= 1 (the sale caps payments at 1), otherwise the menu
    has its low atom at pad[kink, lo] and its high atom at pad[kink, hi];
    no row has lo = -1.
    cut, top0 and top1 are the row's cut indices as _cuts forms them, from
    _cuts itself for the scored rows: n for row 0, and 0, 0 and n for the
    limit.  pad is 0 at the first and last kinks, and rank[j] is the place
    of d.types[j] among the sorted valuations.  The six index columns
    (kink to top1) have the narrowest signed dtype that holds n + 2
    (_index_dtype).
    """

    lo: np.ndarray
    hi: np.ndarray
    cut: np.ndarray
    top0: np.ndarray
    top1: np.ndarray
    pad: np.ndarray
    rank: np.ndarray


def _tier(low, high=None) -> tuple:
    """(r, pay) of a menu's tier at low: the posted price low at full
    access or, given high, the low atom's tier of the two-atom menu whose
    top tier (1, 1) the valuation high is indifferent to."""
    r = 1.0 if high is None else (high - 1.0) / (high - low)
    return r, r * low


def _cuts(nu: np.ndarray, ratio: np.ndarray, eps: np.ndarray, k, low, high=None) -> tuple:
    """(r, pay, cut, top0, top1): who takes which bundle of each menu.

    Buyers are sorted by nu, and a menu at kink k sees the valuations
    ratio[k] * nu.  The menus are posted prices low or, given high,
    two-atom menus with atoms low and high; k, low and high hold one
    entry per menu.  In nu order the buyers in [0, top0) opt out, those
    in [top0, cut) and [top1, n) take the top tier (1, 1), and those in
    [cut, top1) take (r, pay); a posted price has top0 = cut and
    top1 = n.

    A buyer takes (r, pay) iff r * (v - low) clears the tie tolerance
    eps[k], in favour of (r, pay) when it charges something, and then the
    top tier iff that is within eps[k] of its best utility so far (eps
    holds 1e-12 * max(1, ratio * nu[-1]) per kink).  So ties
    go to the seller-preferred bundle whatever the buyer's mass, and tied
    valuations share a bundle.  Each test is monotone in v, so it is a
    cut index into the sorted buyers, found by searchsorted in nu-space.
    """
    e, scale = eps[k], ratio[k]
    r, pay = _tier(low, high)
    slack = e / r
    cut = nu.searchsorted(np.where(pay > 0.0, low - slack, low + slack) / scale)
    if high is None:
        return np.array(1.0).repeat(pay.size), pay, cut, cut, np.array(nu.size).repeat(cut.size)
    # The top tier takes the buyers from top1 up among those past the cut
    # (v >= high, less eps over the slope 1 - r, and v >= 1 - eps), and
    # those from top0 to the cut among the rest (v >= 1 - eps).
    to_top = np.maximum(1.0 - e, high - e * (high - low) / (1.0 - low))
    top0 = np.minimum(nu.searchsorted((1.0 - eps) / ratio)[k], cut)
    top1 = np.maximum(cut, nu.searchsorted(to_top / scale))
    return r, pay, cut, top0, top1


def _index_dtype(n: int) -> np.dtype:
    """The narrowest signed integer dtype that holds n + 2, and so every
    kink, atom and cut index of n types."""
    # A signed dtype that holds -(n + 3) holds n + 2.
    return np.min_scalar_type(-(n + 3))


def _score_kinks(
    qs: np.ndarray, nu: np.ndarray, cum: np.ndarray, dtype: np.dtype
) -> tuple[np.ndarray, ...]:
    """(W, rev, index, pad) of every posted price and two-atom menu at a
    block of kinks qs in (0, 1), where index stacks the rows' kink
    (counted from the block's first), lo, hi, cut, top0 and top1 in dtype,
    and pad holds the block's padded valuations, a row per kink, which lo
    and hi index; nu is sorted and cum holds the prefix sums of mass,
    mass * u and mass * c in that order.  Buyers are assigned by _cuts, so
    each menu's revenue and welfare are differences of cum at its cut
    indices.
    """
    k_n, n = qs.size, nu.size
    ratio = qs / (1.0 - qs)
    # Padded valuations (0, ratio * nu, 1), but exactly 1 at a buyer's own
    # kink 1 / (1 + nu) as kink_uptimes forms it: ratio * nu may round off 1.
    pad = np.zeros((k_n, n + 2))
    pad[:, 1:] = 1.0
    np.multiply(ratio[:, None], nu, out=pad[:, 1:-1], where=qs[:, None] != 1.0 / (1.0 + nu))
    # Low atoms are 0 and every v < 1, high atoms every v > 1; an atom at
    # 1, a buyer's own kink included, would only repeat the posted price 1.
    # Tested atom by atom: a type within rounding of another's kink can
    # have v on the other side of 1 from that kink's exact 1.
    kq, lo, hi = ((pad < 1.0)[:, :, None] & (pad > 1.0)[:, None, :]).nonzero()

    # The rows: every posted price up to 1 (r = 1; a price above 1 is the
    # price 1, as payments are capped at 1), then every pair.
    kp, lp = (pad <= 1.0).nonzero()
    eps = 1e-12 * np.maximum(1.0, ratio * nu[-1])
    posted = _cuts(nu, ratio, eps, kp, pad[kp, lp])
    pairs = _cuts(nu, ratio, eps, kq, pad[kq, lo], pad[kq, hi])
    r, pay, cut, top0, top1 = (np.concatenate(part) for part in zip(posted, pairs))

    at_cut, at_top1 = cum[:, cut], cum[:, top1]
    in_low = at_top1 - at_cut
    in_top = (at_cut - cum[:, top0]) + (cum[:, n:] - at_top1)
    k = np.concatenate([kp, kq])
    q = qs[k]
    rev = (1.0 - q) * (pay * in_low[0] + in_top[0])
    W = q * (r * in_low[1] + in_top[1]) - (1.0 - q) * (pay * in_low[2] + in_top[2])
    lo = np.concatenate([lp, lo])
    hi = np.concatenate([np.array(-1).repeat(kp.size), hi])
    return W, rev, np.array((k, lo, hi, cut, top0, top1), dtype), pad


def _kink_table(d: TypeDistribution) -> _KinkTable:
    """Score every candidate menu at every kink, a block of kinks at a
    time; see _score_kinks."""
    by_nu = sorted(range(len(d.types)), key=lambda j: d.types[j].nu)
    order = [d.types[j] for j in by_nu]
    nu = np.array([t.nu for t in order])
    cum = np.zeros((3, nu.size + 1))
    cum[:, 1:] = np.array([[t.mass, t.mass * t.u, t.mass * t.c] for t in order]).cumsum(axis=0).T
    qs = np.array(kink_uptimes(d))
    # Chosen before any block is scored, so no index is ever cast into
    # a dtype too narrow for it.
    dtype = _index_dtype(nu.size)
    n, last = nu.size, qs.size - 1
    edge = np.zeros((1, n + 2))
    # Row 0 is the posted price pad[0, 0] = 0, which no buyer takes:
    # everyone is cut out.
    parts = [(np.zeros(1), np.zeros(1), np.array([0, 0, -1, n, n, n], dtype)[:, None], edge)]
    step = max(1, _BLOCK_CELLS // (n + 1) ** 2)
    for first in range(1, last, step):
        W, rev, index, pad = _score_kinks(qs[first : min(first + step, last)], nu, cum, dtype)
        index[0] += first
        parts.append((W, rev, index, pad))
    # The limit row is the posted price pad[last, 0] = 0, which every
    # buyer takes: everyone is cut to the low tier (1, 0).
    limit = np.array([last, 0, -1, 0, 0, n], dtype)[:, None]
    parts.append((np.array([d.u_bar]), np.zeros(1), limit, edge))
    W, rev, index, pad = zip(*parts)
    return _KinkTable(
        np.concatenate(W),
        np.concatenate(rev),
        *np.concatenate(index, axis=1),
        np.concatenate(pad),
        qs=qs,
        rank=np.array(by_nu).argsort(),
    )


def _table_line(tab: _KinkTable, i: int, d: TypeDistribution, rho: float) -> _Line:
    """The line of table row i, its buyers assigned by the cut indices
    the table stored for it, and the low tier (r0, pay) formed by _tier
    from the atoms the table stored for its kink."""
    k, lo, hi = tab.kink.item(i), tab.lo.item(i), tab.hi.item(i)
    low = tab.pad.item(k, lo)
    r0, pay = _tier(low) if hi < 0 else _tier(low, tab.pad.item(k, hi))
    cut, top0, top1 = tab.cut.item(i), tab.top0.item(i), tab.top1.item(i)
    # (r, p) of each buyer in nu order.
    bundle = np.zeros((2, tab.rank.size))
    bundle[:, top0:cut] = bundle[:, top1:] = 1.0
    bundle[0, cut:top1], bundle[1, cut:top1] = r0, pay
    r, p = bundle[:, tab.rank]
    return _line(tab.qs.item(k), r, p, d, rho)


def _mix(a: _Line, b: _Line, eps_bal: float, d: TypeDistribution, rho: float) -> _Line:
    """The point alpha * a + (1 - alpha) * b in (Q, R, P) with S = 0, as
    a line.

    A member with slack within eps_bal of 0 stands alone, the one nearer
    balance if both do: the other's weight is then 0 up to rounding, and
    would only leave its buyers' levels a few ulps off.  Otherwise usage
    is mixed in uptime shares and contributions in downtime shares, so a
    tier keeps its normalized levels exactly even next to the Q -> 1
    limit, where 1 - Q is tiny.  Only row 0 has Q = 0, and its slack is
    exactly 0, so it stands alone: the uptime shares never divide by 0.
    """
    heavy = min(a, b, key=lambda m: abs(m.S))
    if abs(heavy.S) <= eps_bal:
        return heavy
    alpha = -b.S / (a.S - b.S)
    up_a, up_b = alpha * a.Q, (1.0 - alpha) * b.Q
    down_a, down_b = alpha * (1.0 - a.Q), (1.0 - alpha) * (1.0 - b.Q)
    w_r = up_a / (up_a + up_b)
    w_p = down_a / (down_a + down_b)
    r, p = w_r * a.r + (1.0 - w_r) * b.r, w_p * a.p + (1.0 - w_p) * b.p
    return _line(up_a + up_b, r, p, d, rho)


def solve_screening(d: TypeDistribution, rho: float) -> ScreeningSolution:
    """Solve the designer's problem under participation and truthful
    reporting.

    The dual g(y), the relaxed Lagrangian's maximum over Q and menus, is
    the upper envelope of the lines of one rho-free table (_kink_table),
    one per kink menu plus the Q -> 1 limit (W = u_bar, S = -rho).
    envelope.solve_at walks g down at rho, each evaluation being one
    numpy maximum over the table, and mixing the (Q, R, P) points of its
    final pair so that S = 0 gives an optimal balanced mechanism.  The
    pair's menus are read from the cut indices that scored them in the
    table, so one tie rule assigns every buyer.  When no kink menu has
    slack the dual is unbounded, and solve_at's welfare-best balanced row
    is returned with y_star = inf.  Only this solve builds the mechanism
    and the labels, from _screening_core's final line.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    line, y, steps = _screening_core(_kink_table(d), d, rho)
    ids = d.ids
    levels = list(zip(line.r.tolist(), line.p.tolist()))
    tiers = sorted(set(levels) - {(0.0, 0.0)}, key=lambda t: (-t[0], -t[1]))
    index = {level: k for k, level in enumerate(tiers)}
    return ScreeningSolution(
        y_star=y,
        Q_star=line.Q,
        W_star=line.W,
        mechanism=Mechanism(Q=line.Q, R=dict(zip(ids, line.R)), P=dict(zip(ids, line.P))),
        tiers=tuple(MenuTier(*level) for level in tiers),
        assignment={i: index.get(level) for i, level in zip(ids, levels)},
        iterations=steps,
        rho=rho,
        d=d,
    )


def _screening_core(tab: _KinkTable, d: TypeDistribution, rho: float) -> tuple[_Line, float, int]:
    """solve_screening at rho from d's table, for a checked rho, as its
    final line (the pos row's, mixed with the neg row's when the walk
    took steps), the pair's crossing y (inf on the infinite branch) and
    the walk's steps."""
    scale = slack_scale(d, rho)
    _, pos, neg, steps, y = solve_at(tab, rho, scale)
    line = _table_line(tab, pos, d, rho)
    if steps:
        # The pair's lines from their menus, as the mix uses them; their
        # crossing is the one the mix balances, within solve_at's eps_bal.
        b = _table_line(tab, neg, d, rho)
        y = (b.W - line.W) / (line.S - b.S)
        line = _mix(line, b, 1e-12 * scale, d, rho)
    return line, y, steps


def verify_structure(sol: ScreeningSolution) -> bool:
    """Check the qualitative shape of a screening menu, on exact levels.

    True iff at most two nonzero tiers are used, the top of two charges
    the full downtime (p == 1), a lone tier grants full access (r == 1),
    access never falls as valuation rises, and types whose valuations
    agree within 1e-12 relative have equal levels (R, P).
    """
    used = sorted({k for k in sol.assignment.values() if k is not None})
    tiers = [sol.tiers[k] for k in used]
    if len(tiers) > 2:
        return False
    if len(tiers) == 2 and tiers[0].p != 1.0:
        return False
    if len(tiers) == 1 and tiers[0].r != 1.0:
        return False

    def rank(tid: str) -> float:
        k = sol.assignment[tid]
        return -1.0 if k is None else sol.tiers[k].r

    m = sol.mechanism
    by_nu = sorted(sol.d.types, key=lambda t: t.nu)
    for a, b in zip(by_nu, by_nu[1:]):
        if rank(b.id) < rank(a.id):
            return False
        tied = b.nu - a.nu <= 1e-12 * max(1.0, a.nu)
        if tied and (m.R[a.id], m.P[a.id]) != (m.R[b.id], m.P[b.id]):
            return False
    return True
