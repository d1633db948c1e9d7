"""Participation-constrained and first-best mechanisms via a saddle point.

With participation constraints, each type's contribution is capped at the
smaller of the downtime and the uptime scaled by its valuation.  The
designer's problem is the saddle point of a reduced Lagrangian that is
piecewise linear in the uptime (kinks at one point per type) and
piecewise linear in the cost threshold (kinks at the cost atoms).  So
the dual, the Lagrangian's maximum over the uptime, is the upper
envelope of finitely many lines in the threshold: one per kink uptime
and prefix of the cost-sorted types, the kink Q = 1 giving the limit
line, all in one rho-free envelope.Lines table, whose envelope
envelope.solve_at minimizes at each breakage rate.  Each line's slope is
also a balance residual: the prefix's saturated contributions minus the
breakage rate.  Every residual column is concave in the uptime and 0 at
uptime 0, so the uptime between the kinks of the walk's final pair has
a closed form read off one column, and the threshold's share is read
off the kink row that balances; the infinite branch takes the saturated
column's welfare-best balanced row.  Both branches end in one place
(_participation_at): each type contributes its share of its cap, and the
same pass labels it with its class.  A sweep row prints no class, but
the labels cost a few per cent of a solve at rho, so unlike screening's
(see screening._screening_core) they are not split from the solve.
First best, under physical constraints only, is this problem with each
cap relaxed to the downtime 1 - Q; its dual's minimum is one closed form
over the prefixes of the cost-sorted types, with no table and no walk.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .envelope import Lines, solve_at
from .model import (
    ATOM_SNAP,
    DEFAULT_TOL,
    AgentType,
    Mechanism,
    TypeDistribution,
    kink_uptimes,
    slack_scale,
    welfare,
)

TypeClass = Literal["FULL", "BOUND", "MARGINAL", "NONE"]

_SCAN_RTOL = 1e-15


class NotOrderedError(ValueError):
    """Raised when a distribution is not ordered: sorting by descending
    cost must make valuations nondecreasing."""


@dataclass(frozen=True)
class ParticipationSolution:
    """Saddle point data plus the induced mechanism.

    y_star is math.inf when the dual minimum is not attained, in which
    case every balanced feasible mechanism saturates all contribution
    caps.  classes labels each type from the share of its cap
    min(1 - Q, Q * nu) that it contributes: NONE if its level is 0,
    else MARGINAL (a threshold type, share strictly between 0 and 1),
    else FULL (the whole downtime: Q at or past its own kink 1 / (1 + nu))
    or BOUND (participation binds, utility zero).  iterations counts the
    steps of the dual walk, and is 0 when y_star is infinite.
    """

    y_star: float
    Q_star: float
    W_star: float
    mechanism: Mechanism
    classes: Mapping[str, TypeClass]
    marginal_fraction: float
    iterations: int
    rho: float


@dataclass(frozen=True)
class FirstBestSolution:
    """Threshold, uptime, welfare, and the mechanism that attains them.

    Types whose cost sits exactly at the threshold contribute nothing.
    """

    y_fb: float
    Q_fb: float
    W_fb: float
    mechanism: Mechanism
    rho: float


@dataclass(frozen=True)
class OrderedTypesReport:
    """Shape of the participation-bound set under ordered types."""

    order: tuple[str, ...]
    bound_ids: tuple[str, ...]
    contiguous: bool
    cost_span: tuple[float, float] | None
    contains_fb_threshold: bool
    fb_welfare_attained: bool

    @property
    def holds(self) -> bool:
        return self.fb_welfare_attained or (
            self.contiguous and self.contains_fb_threshold
        )


@dataclass
class _KinkLines(Lines):
    """The dual's lines at the kinks (see _kink_lines): rev holds the
    covered caps C, and kink, each row's index into qs, is repeated
    across the row.  by_cost holds the types sorted by cost, the table's
    column order, and costs their costs."""

    # The infinite branch's scan: the saturated column without the limit row.
    scan = np.s_[:-1, -1]
    by_cost: list[AgentType]
    costs: list[float]


def _kink_lines(d: TypeDistribution) -> _KinkLines:
    """The reduced Lagrangian at each kink q of kink_uptimes as the
    maximum of lines W + y * S over prefixes of the cost-sorted types,
    which add mass * cap * (y - c), the cap being min(1 - q, q * nu): one
    row per kink, one column per prefix, the empty prefix first.  The
    last row, at q = 1, is the limit line u_bar - rho * y.  Neither W nor
    the covered caps C, the prefix sums of mass * cap, involve rho; the
    slopes are S = C - rho * q.

    S[i, j] is also the balance residual at kink i when the j cheapest
    types contribute their caps and no other type contributes, and the
    last column holds the fully saturated slack and welfare.
    """
    by_cost = sorted(d.types, key=lambda t: t.c)
    nu, mass, c = np.array([(1.0, 0.0, 0.0)] + [(t.nu, t.mass, t.c) for t in by_cost]).T
    qs = np.array(kink_uptimes(d))
    q = qs[:, None]
    covered = mass * np.minimum(1.0 - q, q * nu)
    W = q * d.u_bar - (covered * c).cumsum(axis=1)
    kink = np.arange(qs.size).repeat(W.shape[1]).reshape(W.shape)
    return _KinkLines(W, covered.cumsum(axis=1), kink, by_cost, [t.c for t in by_cost], qs=qs)


def _snapped(y: float, d: TypeDistribution) -> float:
    """The first cost in type order within ATOM_SNAP of y, relative, or
    y: a crossing of two lines lands on a cost atom only up to rounding."""
    for t in d.types:
        if abs(t.c - y) <= ATOM_SNAP * max(1.0, t.c):
            return t.c
    return y


def _balanced_point(
    qs: np.ndarray, S: np.ndarray, jm: int, jp: int,
    pos_row: int, neg_row: int, eps: float,
) -> tuple[float, float]:
    """The smallest uptime between the final pair's kinks where the
    residual S[:, jm] without the threshold's types is <= eps, and their
    share there.  That column and S[:, jp], with them, are concave in the
    uptime and 0 at 0, S[:, jm] < 0 at the neg kink and S[:, jp] >= 0 at
    the pos kink: so S[:, jp] >= 0 up to the pos kink, S[:, jm] <= 0 from
    the neg kink on, and S[:, jp] >= S[:, jm] = 0 where S[:, jm] first
    reaches 0 past the pos kink.  S[:, jm] is linear between kinks, so
    that point has a closed form, and the share there is 0.  At a kink
    row the share balances the row's two residuals, clamped to [0, 1]; it
    is exactly 0 when the residual without the threshold's types is
    within eps of 0, and exactly 1 when the one with them is, so rounding
    noise in a residual reads as no share or a full one.
    """
    rm = S[:, jm].tolist()
    first = min(pos_row, neg_row)
    k = next((k for k in range(first, neg_row + 1) if rm[k] <= eps), None)
    if k is None:
        raise RuntimeError("no balanced uptime found between the final pair's kinks")
    if k > first:
        a, b, fa, fb = qs.item(k - 1), qs.item(k), rm[k - 1], rm[k]
        return min(max(a + (eps - fa) * (b - a) / (fb - fa), a), b), 0.0
    Q, r_without, r_with = qs.item(k), rm[k], float(S[k, jp])
    if abs(r_without) <= eps:
        return Q, 0.0
    if abs(r_with) <= eps:
        return Q, 1.0
    gap = r_with - r_without
    return Q, min(max(0.0, -r_without / gap), 1.0) if gap > eps else 0.0


def solve_participation(d: TypeDistribution, rho: float) -> ParticipationSolution:
    """Solve the designer's problem under participation constraints.

    Every line of the dual is scored once (_kink_lines), independently of
    rho.  When some line has slack at rho, envelope.solve_at walks the
    dual, and the crossing of its final pair is the threshold, snapped to
    a cost atom within rounding.  The uptime is the smallest between the
    final pair's kinks where the balance residual without the threshold's
    types is <= 0 and with them is >= 0.  Both residuals are concave in
    the uptime and 0 at 0, so that is the neg kink if it is at or below
    the pos kink, and otherwise where the table's column without the
    threshold's types first reaches 0 past the pos kink.  At a kink the
    threshold's types then share one contribution fraction, read off that
    row's residuals without and with them, that balances exactly; past
    one they contribute nothing (_balanced_point).  Otherwise the
    threshold is infinite, every type saturates its cap, and the uptime
    is the kink of solve_at's balanced row in the saturated column.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    return _participation_at(_kink_lines(d), d, rho)


def _participation_at(
    lines: _KinkLines, d: TypeDistribution, rho: float
) -> ParticipationSolution:
    """solve_participation at rho from d's lines, for a checked rho.

    Each type contributes a share of its cap: 1 if its cost is below
    lo_c, frac if its cost is in [lo_c, hi_c], and 0 above.  Its class
    is read off that share, its level and its own kink 1 / (1 + nu), as
    kink_uptimes forms it, in the same pass."""
    scale = slack_scale(d, rho)
    S, pos, neg, iterations, y = solve_at(lines, rho, scale)
    if iterations == 0:
        # Every type saturates its cap at the kink of the scan's row.
        Q, y_star, lo_c, hi_c, frac = lines.qs.item(pos), math.inf, math.inf, math.inf, 0.0
    else:
        # Marginal rationing applies only at a cost atom.
        y_star = _snapped(y, d)

        # The types rationed at the threshold are those with costs in
        # [lo_c, hi_c]: the cost atom at y_star, if any.  A pair on one
        # kink crosses at a mix of the costs its prefixes differ by, which
        # is an atom in exact arithmetic; where the walk's tolerance leaves
        # the crossing off every atom, the band spans the mix's costs
        # instead.
        by_cost, costs = lines.by_cost, lines.costs
        (pos_row, pos_col), (neg_row, neg_col) = (divmod(i, S.shape[1]) for i in (pos, neg))
        lo_c = hi_c = y_star
        if pos_row == neg_row and y_star not in costs:
            band = [t.c for t in by_cost[neg_col:pos_col] if t.mass > 0.0]
            lo_c, hi_c = min(band), max(band)

        # Column bisect_left(costs, lo_c) is the balance residual without
        # the band's types, and column bisect_right(costs, hi_c) with them.
        # S does not fall along a row, and the columns between a pair
        # line's prefix and the band's edges add only massless types: at
        # the neg kink the first is <= the neg slack < 0, and at the pos
        # kink the second is >= the pos slack >= 0.
        Q, frac = _balanced_point(
            lines.qs, S, bisect_left(costs, lo_c), bisect_right(costs, hi_c),
            pos_row, neg_row, _SCAN_RTOL * scale,
        )
    P: dict[str, float] = {}
    classes: dict[str, TypeClass] = {}
    for t in d.types:
        s = 1.0 if t.c < lo_c else frac if t.c <= hi_c else 0.0
        P[t.id] = p = min(1.0 - Q, Q * t.nu) * s
        classes[t.id] = (
            "NONE" if p == 0.0
            else "MARGINAL" if s < 1.0
            else "FULL" if Q >= 1.0 / (1.0 + t.nu)
            else "BOUND"
        )
    mech = Mechanism(Q=Q, R=dict.fromkeys(P, Q), P=P)
    return ParticipationSolution(y_star, Q, welfare(mech, d), mech, classes, frac, iterations, rho)


def solve_first_best(d: TypeDistribution, rho: float) -> FirstBestSolution:
    """Solve the physical-constraints-only problem.

    The dual, max(sum of mass * (y - c)^+, u_bar - rho * y), is a
    nondecreasing sum against the falling limit line, so its minimum is
    their crossing: y* = min_j (u_bar + C_j) / (M_j + rho) over the
    prefixes j of the cost-sorted types, the empty one included, with
    mass M_j and C_j the sum of mass * c.  Every prefix line lies at or
    below the sum, so it crosses the limit line at y* or right of it, and
    the line on top at y* crosses there.  y* is snapped to a cost atom
    within rounding.  The types below it contribute their whole downtime
    and the rest nothing, so the uptime balances at Q = fa / (fa + rho),
    where fa is their mass.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    by_cost = sorted(d.types, key=lambda t: t.c)
    M, C = np.array([(0.0, 0.0)] + [(t.mass, t.mass * t.c) for t in by_cost]).T.cumsum(axis=1)
    y = _snapped(float(((d.u_bar + C) / (M + rho)).min()), d)
    fa = M.item(bisect_left([t.c for t in by_cost], y))
    Q = fa / (fa + rho)
    P = {t.id: 1.0 - Q if t.c < y else 0.0 for t in d.types}
    mech = Mechanism(Q=Q, R=dict.fromkeys(P, Q), P=P)
    return FirstBestSolution(y, Q, welfare(mech, d), mech, rho)


def classify_interval(sol: ParticipationSolution, d: TypeDistribution) -> OrderedTypesReport:
    """Report the shape of the participation-bound set for ordered types.

    Types are sorted by descending cost; valuations must be nondecreasing
    along that order, otherwise NotOrderedError is raised.  When
    first-best welfare is out of reach, the bound set should be a
    contiguous block whose cost span covers the first-best threshold.
    First-best welfare counts as attained when sol's welfare is within
    DEFAULT_TOL * max(1, |W_fb|) of it.
    """
    order = sorted(d.types, key=lambda t: -t.c)
    for a, b in zip(order, order[1:]):
        if b.nu < a.nu - 1e-12 * max(1.0, a.nu):
            raise NotOrderedError(
                f"valuations not nondecreasing in descending cost order: "
                f"{a.id!r} -> {b.id!r}"
            )

    fb = solve_first_best(d, sol.rho)
    bound_idx = [i for i, t in enumerate(order) if sol.classes[t.id] == "BOUND"]
    bound_ids = tuple(order[i].id for i in bound_idx)
    contiguous = (
        not bound_idx or (bound_idx[-1] - bound_idx[0] + 1) == len(bound_idx)
    )
    if bound_idx:
        costs = [order[i].c for i in bound_idx]
        cost_span = (min(costs), max(costs))
        contains = cost_span[0] <= fb.y_fb <= cost_span[1]
    else:
        cost_span = None
        contains = False
    attained = sol.W_star >= fb.W_fb - DEFAULT_TOL * max(1.0, abs(fb.W_fb))
    return OrderedTypesReport(
        order=tuple(t.id for t in order),
        bound_ids=bound_ids,
        contiguous=contiguous,
        cost_span=cost_span,
        contains_fb_threshold=contains,
        fb_welfare_attained=attained,
    )
