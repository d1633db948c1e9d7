"""Participation-constrained and first-best mechanisms via a saddle point.

With participation constraints, each type's contribution is capped at the
smaller of the downtime and the uptime scaled by its valuation.  The
designer's problem is the saddle point of a reduced Lagrangian that is
piecewise linear in the uptime (kinks at one point per type) and in the
cost threshold (kinks at the cost atoms).  So the dual, its maximum over
the uptime, is the upper envelope of one rho-free envelope.Lines table:
a line per kink uptime and prefix of the cost-sorted types, the kink
Q = 1 giving the limit line.  Each line's slope is also a balance
residual, concave in the uptime and 0 at 0.  At each breakage rate the
dual's minimum is one exact bracket over the cost atoms (_bracket), with
no walk, no snap and only relative tolerances, and the uptime and the
threshold's share have closed forms between the kinks it names; the
infinite branch takes the saturated column's welfare-best balanced row.
Both end in _participation_at, whose one pass forms each type's level
and class (a few per cent of a solve, so unlike screening's labels not
split from it).  First best is this problem with each cap relaxed to the
downtime 1 - Q, and its dual's minimum is one closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .envelope import Lines, balanced_row
from .model import (
    ATOM_SNAP,
    DEFAULT_TOL,
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
    cost atoms scored (bench/tracing.py reads it), 0 if y_star is inf.
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
    across the row.  atoms holds -inf, the distinct costs and inf; between
    atoms[i] and atoms[i + 1] the dual is column cols[i]'s envelope."""

    # The infinite branch's scan: the saturated column without the limit row.
    scan = np.s_[:-1, -1]
    atoms: np.ndarray
    cols: np.ndarray


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
    last column holds the fully saturated slack and welfare.  Nor do the
    atoms involve rho, or their first indices among the costs (all > 0).
    """
    by_cost = sorted(d.types, key=lambda t: t.c)
    nu, mass, c = np.array([(1.0, 0.0, 0.0)] + [(t.nu, t.mass, t.c) for t in by_cost]).T
    qs = np.array(kink_uptimes(d))
    q = qs[:, None]
    covered = mass * np.minimum(1.0 - q, q * nu)
    W = q * d.u_bar - (covered * c).cumsum(axis=1)
    kink = np.arange(qs.size).repeat(W.shape[1]).reshape(W.shape)
    first = (c[1:] != c[:-1]).nonzero()[0]
    atoms, cols = np.concatenate(([-np.inf], c[1:][first], [np.inf])), np.append(first, c.size - 1)
    return _KinkLines(W, covered.cumsum(axis=1), kink, atoms, cols, qs=qs)


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
    """The smallest uptime from the lower of the pos and neg kinks where
    the residual S[:, jm] without the threshold's types is <= eps, and
    their share there.  That column and S[:, jp], with them, are concave
    in the uptime and 0 at 0, S[:, jm] <= 0 at the neg kink and
    S[:, jp] >= 0 at the pos kink: so S[:, jp] >= 0 up to the pos kink,
    S[:, jm] <= 0 from the neg kink on, and S[:, jp] >= S[:, jm] = 0
    where S[:, jm] first reaches 0 past the pos kink, linear between
    kinks: there the share is 0, and a kink within eps of 0 is exact.  At
    a kink row the share balances the row's two residuals, clamped to
    [0, 1]; it is 0 or 1 when the residual without or with the
    threshold's types is within eps of 0, so rounding noise reads as no
    share or a full one.
    """
    rm = S[:, jm].tolist()
    first = min(pos_row, neg_row)
    k = next(k for k in range(first, neg_row + 1) if rm[k] <= eps)
    if k > first and abs(rm[k]) > eps:
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

    If some line of the dual (_kink_lines) has slack above DEFAULT_TOL *
    max(rho, total mass), _bracket finds its minimum and _balanced_point
    the uptime and share; otherwise the threshold is infinite and every
    type saturates its cap (envelope.balanced_row).
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    return _participation_at(_kink_lines(d), d, rho)


def _bracket(lines: _KinkLines, S: np.ndarray) -> tuple[float, int, int, int, int]:
    """(y, jm, jp, pos, neg): the dual's minimizer y, the columns without
    and with the types that cost y, and the rows _balanced_point reads.

    The dual is convex, so its minimum lies next to its lowest atom, found
    in one numpy pass.  Its slopes there run from the slack in jm of the
    rows on top (within 1e-12 relative) to their slack in jp: pos is the
    lowest row on top with slack >= 0 in jp and neg with slack <= 0 in
    jm.  Without pos the dual falls right, into column jp, and without
    neg left, into jm.  There the lines' value is concave in the uptime,
    so the rows on top are consecutive and hold the two rows where the
    column's slack changes sign (the left end of a flat minimum), with
    slack < 0 past them; those furthest apart cross with least rounding.
    """
    W, a, cols = lines.W, lines.atoms, lines.cols
    V = W[:, cols[:-1]] + a[1:-1] * S[:, cols[:-1]]
    i = int(V.max(axis=0).argmin())
    y, jm, jp = a.item(i + 1), cols.item(i), cols.item(i + 1)
    v, sm, sp = V[:, i].tolist(), S[:, jm].tolist(), S[:, jp].tolist()
    best = max(v)
    top = [r for r, x in enumerate(v) if x >= best - 1e-12 * abs(best)]
    pos = next((r for r in top if sp[r] >= 0.0), None)
    neg = next((r for r in top if sm[r] <= 0.0), None)
    if pos is not None and neg is not None:
        return y, jm, jp, pos, neg
    j, lo, hi = (jp, y, a.item(i + 2)) if pos is None else (jm, a.item(i), y)
    w, s = W[:, j].tolist(), S[:, j].tolist()
    neg = next(r for r, x in enumerate(s) if x < 0.0)
    pos, x = neg - 1, (w[neg] - w[neg - 1]) / (s[neg - 1] - s[neg])
    u = [wr + x * sr for wr, sr in zip(w, s)]
    low = max(u[pos], u[neg]) - 1e-12 * abs(max(u[pos], u[neg]))
    while pos > 0 and u[pos - 1] >= low:
        pos -= 1
    while neg + 1 < len(s) and u[neg + 1] >= low:
        neg += 1
    x = (w[neg] - w[pos]) / (s[pos] - s[neg])
    return (x, j, j, pos, neg) if lo < x < hi else (y, jm, jp, pos, neg)


def _participation_at(
    lines: _KinkLines, d: TypeDistribution, rho: float
) -> ParticipationSolution:
    """solve_participation at rho from d's lines, for a checked rho.

    Each type contributes a share of its cap: 1 below y_star, frac at
    y_star and 0 above.  Its class is read off that share, its level and
    its kink 1 / (1 + nu), formed as kink_uptimes does, in the same pass."""
    S = lines.slack(rho)
    scale = max(rho, d.total_mass)
    if S[:, -1].max() > DEFAULT_TOL * scale:
        y_star, jm, jp, pos, neg = _bracket(lines, S)
        Q, frac = _balanced_point(lines.qs, S, jm, jp, pos, neg, _SCAN_RTOL * scale)
        atoms = lines.cols.size - 1
    else:
        Q = lines.qs.item(balanced_row(lines, S, slack_scale(d, rho)))
        y_star, frac, atoms = math.inf, 0.0, 0
    P: dict[str, float] = {}
    classes: dict[str, TypeClass] = {}
    for t in d.types:
        s = 1.0 if t.c < y_star else frac if t.c == y_star else 0.0
        P[t.id] = p = min(1.0 - Q, Q * t.nu) * s
        classes[t.id] = (
            "NONE" if p == 0.0
            else "MARGINAL" if s < 1.0
            else "FULL" if Q >= 1.0 / (1.0 + t.nu)
            else "BOUND"
        )
    mech = Mechanism(Q=Q, R=dict.fromkeys(P, Q), P=P)
    return ParticipationSolution(y_star, Q, welfare(mech, d), mech, classes, frac, atoms, rho)


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
