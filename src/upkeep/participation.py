"""Participation-constrained mechanisms via a concave-convex saddle point.

With participation constraints, each type's contribution is capped at the
smaller of the downtime and the uptime scaled by its valuation.  The
designer's problem is the saddle point of a reduced Lagrangian that is
piecewise linear in the uptime (kinks at one point per type) and
piecewise linear in the cost threshold (kinks at the cost atoms).  Both
scalar searches below exploit that structure: the inner maximization is
exact on the kink partition, and the outer minimization is a bisection
on the sign of the dual subgradient, which is the balance residual of
the candidate mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

from .first_best import solve_first_best
from .model import (
    DEFAULT_TOL,
    DegenerateDistributionError,
    Mechanism,
    TypeDistribution,
    kink_uptimes,
    welfare,
)

TypeClass = Literal["FULL", "BOUND", "NONE"]

_MAX_BISECT = 200
_FACE_RTOL = 1e-12
_ATOM_SNAP = 1e-12
_SCAN_RTOL = 1e-15


class NotOrderedError(ValueError):
    """Raised when a distribution is not ordered: sorting by descending
    cost must make valuations nondecreasing."""


@dataclass(frozen=True)
class ParticipationSolution:
    """Saddle point data plus the induced mechanism.

    y_star is math.inf when the dual minimum is not attained, in which
    case every balanced feasible mechanism saturates all contribution
    caps.  classes labels each type FULL (contributes the downtime),
    BOUND (participation binds, utility zero) or NONE (does not
    contribute).
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


def reduced_lagrangian(Q: float, y: float, d: TypeDistribution, rho: float) -> float:
    """Value of uptime Q when fixing the machine is worth y per repair.

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


def _residual_minus(Q: float, y: float, d: TypeDistribution, rho: float) -> float:
    return _cap_sum(Q, y, d, strict=True) - rho * Q


def _residual_plus(Q: float, y: float, d: TypeDistribution, rho: float) -> float:
    return _cap_sum(Q, y, d, strict=False) - rho * Q


def argmax_face(
    y: float, d: TypeDistribution, rho: float, kinks: list[float] | None = None
) -> tuple[float, float, float]:
    """Maximizer interval of Q for a fixed threshold y.

    The reduced Lagrangian is linear between kinks, so the maximum over
    [0, 1] is attained on the kink partition; ties span a flat face.
    Returns (face_lo, face_hi, max_value).
    """
    pts = kinks if kinks is not None else kink_uptimes(d)
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
    best = -math.inf
    for q in kink_uptimes(d):
        g = _cap_sum(q, math.inf, d, strict=True) - rho * q
        if g > best:
            best = g
    return best


def _interval_leq(fa: float, fb: float, a: float, b: float, eps: float):
    """Subinterval of [a, b] where a linear function stays <= eps."""
    if fa <= eps and fb <= eps:
        return a, b
    if fa > eps and fb > eps:
        return None
    x = a + (eps - fa) * (b - a) / (fb - fa)
    x = min(max(x, a), b)
    return (a, x) if fa <= eps else (x, b)


def _smallest_balanced_q(
    y: float,
    d: TypeDistribution,
    rho: float,
    hull_lo: float,
    hull_hi: float,
    kinks: list[float],
    eps: float,
) -> float | None:
    """Smallest Q in [hull_lo, hull_hi] whose balance interval brackets 0.

    With marginal rationing at a cost atom equal to y, the achievable
    residual at Q spans [r_minus(Q), r_plus(Q)]; both are linear between
    kinks, so each segment is solved in closed form.
    """
    pts = [hull_lo]
    pts += [k for k in kinks if hull_lo < k < hull_hi]
    pts.append(hull_hi)
    segments = (
        [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
        if len(pts) > 1
        else [(hull_lo, hull_lo)]
    )
    for a, b in segments:
        rm_a = _residual_minus(a, y, d, rho)
        rp_a = _residual_plus(a, y, d, rho)
        if a == b:
            if rm_a <= eps and rp_a >= -eps:
                return a
            continue
        rm_b = _residual_minus(b, y, d, rho)
        rp_b = _residual_plus(b, y, d, rho)
        lo1 = _interval_leq(rm_a, rm_b, a, b, eps)
        lo2 = _interval_leq(-rp_a, -rp_b, a, b, eps)
        if lo1 is None or lo2 is None:
            continue
        left = max(lo1[0], lo2[0])
        right = min(lo1[1], lo2[1])
        if left <= right:
            return left
    return None


def _saturated_welfare(Q: float, d: TypeDistribution) -> float:
    total = 0.0
    for t in d.types:
        total += t.mass * (Q * t.u - min(1.0 - Q, Q * t.nu) * t.c)
    return total


def _solve_infinite_branch(
    d: TypeDistribution, rho: float, tol: float
) -> ParticipationSolution:
    # Every balanced feasible point saturates all caps; the feasible
    # uptimes are the zero set of the slack function, an interval [0, qbar].
    kinks = kink_uptimes(d)
    eps = tol * max(1.0, rho, d.total_mass)
    qbar = 0.0
    for a, b in zip(kinks, kinks[1:]):
        ga = _cap_sum(a, math.inf, d, True) - rho * a
        gb = _cap_sum(b, math.inf, d, True) - rho * b
        if gb >= -eps:
            qbar = b
            continue
        if ga >= -eps:
            qbar = a if abs(ga - gb) < 1e-300 else a + ga * (b - a) / (ga - gb)
        break
    candidates = [0.0] + [k for k in kinks if 0.0 < k < qbar] + ([qbar] if qbar > 0 else [])
    best_q = 0.0
    best_w = _saturated_welfare(0.0, d)
    for q in candidates:
        w = _saturated_welfare(q, d)
        if w > best_w + eps:
            best_q, best_w = q, w
    Q = best_q
    P = {t.id: min(1.0 - Q, Q * t.nu) for t in d.types}
    mech = Mechanism(Q=Q, R={t.id: Q for t in d.types}, P=P)
    classes = _classify(mech, d, tol)
    return ParticipationSolution(
        y_star=math.inf,
        Q_star=Q,
        W_star=welfare(mech, d),
        mechanism=mech,
        classes=classes,
        marginal_fraction=0.0,
        iterations=0,
        rho=rho,
    )


def _classify(m: Mechanism, d: TypeDistribution, tol: float) -> dict[str, TypeClass]:
    classes: dict[str, TypeClass] = {}
    if m.Q <= tol:
        return {t.id: "NONE" for t in d.types}
    scale = max(1.0, m.Q)
    for t in d.types:
        p = m.P[t.id]
        if abs(p - (1.0 - m.Q)) <= tol * scale:
            classes[t.id] = "FULL"
        elif p > tol * scale and abs(p - m.Q * t.nu) <= tol * max(scale, m.Q * t.nu):
            classes[t.id] = "BOUND"
        else:
            classes[t.id] = "NONE"
    return classes


def solve_participation(
    d: TypeDistribution, rho: float, tol: float = DEFAULT_TOL
) -> ParticipationSolution:
    """Solve the designer's problem under participation constraints.

    When the balance condition can be strictly slack, the dual threshold
    is found by bisection on the subgradient sign and the uptime is then
    pinned on the maximizer face by driving the balance residual to zero
    exactly, with marginal rationing if a cost atom sits at the
    threshold.  Otherwise the threshold is infinite and the solution is
    the welfare-best fully saturated balanced point.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    if d.total_mass <= 0:
        raise DegenerateDistributionError("distribution has no mass")

    slack_scale = max(1.0, rho, d.total_mass)
    if slater_gap(d, rho) <= tol * slack_scale:
        return _solve_infinite_branch(d, rho, tol)

    kinks = kink_uptimes(d)

    def ascending(y: float) -> bool:
        lo, hi, _ = argmax_face(y, d, rho, kinks)
        pts = [lo] + [k for k in kinks if lo < k < hi] + [hi]
        return max(_residual_plus(q, y, d, rho) for q in pts) >= 0.0

    y_hi = (d.u_bar + d.c_bar) / rho + d.max_cost + 1.0
    for _ in range(64):
        if ascending(y_hi):
            break
        y_hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the dual threshold")
    y_lo = 0.0

    iterations = 0
    while y_hi - y_lo > 1e-10 * max(1.0, y_hi) and iterations < _MAX_BISECT:
        mid = 0.5 * (y_lo + y_hi)
        if ascending(mid):
            y_hi = mid
        else:
            y_lo = mid
        iterations += 1

    # Snap to a cost atom caught inside the final bracket so marginal
    # rationing applies to it exactly; otherwise polish the threshold to
    # the exact crossing of the two dual pieces meeting at the optimum.
    y_star = y_hi
    snapped = False
    for t in d.types:
        if y_lo < t.c <= y_hi or abs(t.c - y_hi) <= _ATOM_SNAP * max(1.0, t.c):
            y_star = t.c
            snapped = True
            break
    if not snapped:
        y_mid = 0.5 * (y_lo + y_hi)
        q_a = argmax_face(y_lo, d, rho, kinks)[0]
        q_b = argmax_face(y_hi, d, rho, kinks)[0]
        slope_a = _residual_minus(q_a, y_mid, d, rho)
        slope_b = _residual_minus(q_b, y_mid, d, rho)
        if abs(slope_b - slope_a) > 1e-15 * max(1.0, abs(slope_a), abs(slope_b)):
            inter_a = reduced_lagrangian(q_a, y_mid, d, rho) - slope_a * y_mid
            inter_b = reduced_lagrangian(q_b, y_mid, d, rho) - slope_b * y_mid
            cross = (inter_a - inter_b) / (slope_b - slope_a)
            width = y_hi - y_lo
            if y_lo - 10.0 * width <= cross <= y_hi + 10.0 * width:
                y_star = cross

    faces = [argmax_face(y, d, rho, kinks)[:2] for y in (y_lo, y_hi, y_star)]
    hull_lo = min(f[0] for f in faces)
    hull_hi = max(f[1] for f in faces)
    eps = _SCAN_RTOL * slack_scale
    Q_star = _smallest_balanced_q(y_star, d, rho, hull_lo, hull_hi, kinks, eps)
    if Q_star is None:
        Q_star = _smallest_balanced_q(y_star, d, rho, 0.0, 1.0, kinks, eps)
    if Q_star is None:
        raise RuntimeError("no balanced uptime found on the maximizer face")

    rm = _residual_minus(Q_star, y_star, d, rho)
    rp = _residual_plus(Q_star, y_star, d, rho)
    frac = 0.0
    if rp - rm > eps:
        frac = min(max(-rm / (rp - rm), 0.0), 1.0)

    scale_y = max(1.0, y_star)
    P: dict[str, float] = {}
    for t in d.types:
        cap = min(1.0 - Q_star, Q_star * t.nu)
        if abs(t.c - y_star) <= _ATOM_SNAP * scale_y:
            P[t.id] = cap * frac
        elif t.c < y_star:
            P[t.id] = cap
        else:
            P[t.id] = 0.0
    mech = Mechanism(Q=Q_star, R={t.id: Q_star for t in d.types}, P=P)
    classes = _classify(mech, d, tol)

    return ParticipationSolution(
        y_star=y_star,
        Q_star=Q_star,
        W_star=welfare(mech, d),
        mechanism=mech,
        classes=classes,
        marginal_fraction=frac,
        iterations=iterations,
        rho=rho,
    )


def classify_interval(
    sol: ParticipationSolution, d: TypeDistribution, tol: float = DEFAULT_TOL
) -> OrderedTypesReport:
    """Report the shape of the participation-bound set for ordered types.

    Types are sorted by descending cost; valuations must be nondecreasing
    along that order, otherwise NotOrderedError is raised.  When
    first-best welfare is out of reach, the bound set should be a
    contiguous block whose cost span covers the first-best threshold.
    """
    order = sorted(d.types, key=lambda t: -t.c)
    for a, b in zip(order, order[1:]):
        if b.nu < a.nu - 1e-12 * max(1.0, a.nu):
            raise NotOrderedError(
                f"valuations not nondecreasing in descending cost order: "
                f"{a.id!r} -> {b.id!r}"
            )

    fb = solve_first_best(d, sol.rho, tol)
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
    attained = sol.W_star >= fb.W_fb - tol * max(1.0, abs(fb.W_fb))
    return OrderedTypesReport(
        order=tuple(t.id for t in order),
        bound_ids=bound_ids,
        contiguous=contiguous,
        cost_span=cost_span,
        contains_fb_threshold=contains,
        fb_welfare_attained=attained,
    )
