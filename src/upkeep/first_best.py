"""First-best mechanism: welfare maximization under physical constraints only.

The optimum has a threshold structure.  There is a unique cost threshold
at which the marginal usage value of extra uptime equals the marginal
cost of the contributions needed to sustain it; types cheaper than the
threshold contribute the maximum amount, everyone else contributes
nothing, and all types enjoy full access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DegenerateDistributionError,
    Mechanism,
    TypeDistribution,
    welfare,
)

_ATOM_SNAP = 1e-12
_MAX_BISECT = 200


@dataclass(frozen=True)
class FirstBestSolution:
    """Threshold, uptime, welfare, and the mechanism that attains them.

    Types whose cost sits exactly at the threshold contribute nothing;
    balance holds for any contribution fraction they might be given.
    """

    y_fb: float
    Q_fb: float
    W_fb: float
    mechanism: Mechanism
    iterations: int
    rho: float


def fb_threshold_gap(y: float, d: TypeDistribution, rho: float) -> float:
    """Net value of raising the cost threshold to y.

    Strictly decreasing in y and positive at 0, so its unique root is the
    optimal threshold.
    """
    surplus = d.u_bar - rho * y
    covered = sum(t.mass * max(y - t.c, 0.0) for t in d.types)
    return surplus - covered


def fb_dual_value(y: float, d: TypeDistribution, rho: float) -> float:
    """Upper envelope of the two sides of the threshold equation.

    Convex in y and minimized at the optimal threshold, where it equals
    first-best welfare.
    """
    return max(d.u_bar - rho * y, sum(t.mass * max(y - t.c, 0.0) for t in d.types))


def _polish_root(y: float, d: TypeDistribution, rho: float) -> float:
    # The gap is linear between cost atoms; solve exactly on the segment
    # the bisection landed in.
    below = [t for t in d.types if t.c < y]
    above = [t.c for t in d.types if t.c >= y]
    num = d.u_bar + sum(t.mass * t.c for t in below)
    den = rho + sum(t.mass for t in below)
    root = num / den
    lo = max((t.c for t in below), default=0.0)
    hi = min(above, default=math.inf)
    if lo <= root <= hi:
        return root
    return y


def solve_first_best(
    d: TypeDistribution, rho: float, tol: float = 1e-9
) -> FirstBestSolution:
    """Solve the physical-constraints-only problem.

    The threshold is found by bracketed bisection on [0, u_bar / rho] and
    then refined exactly on the linear segment it falls in.  Uptime then
    follows in closed form from the balance condition, which avoids
    coupling the two tolerances.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    if d.total_mass <= 0:
        raise DegenerateDistributionError("distribution has no mass")

    hi = d.u_bar / rho
    lo = 0.0
    tol_y = tol * max(1.0, hi)
    iterations = 0
    while hi - lo > tol_y and iterations < _MAX_BISECT:
        mid = 0.5 * (lo + hi)
        if fb_threshold_gap(mid, d, rho) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    y_fb = _polish_root(0.5 * (lo + hi), d, rho)

    scale = max(1.0, y_fb)
    contributing = {t.id for t in d.types if t.c < y_fb - _ATOM_SNAP * scale}
    m_eff = sum(t.mass for t in d.types if t.id in contributing)
    Q_fb = m_eff / (rho + m_eff) if m_eff > 0 else 0.0
    P = {t.id: 1.0 - Q_fb if t.id in contributing else 0.0 for t in d.types}
    mechanism = Mechanism(Q=Q_fb, R={t.id: Q_fb for t in d.types}, P=P)

    W_fb = d.u_bar - rho * y_fb
    return FirstBestSolution(
        y_fb=y_fb,
        Q_fb=Q_fb,
        W_fb=W_fb,
        mechanism=mechanism,
        iterations=iterations,
        rho=rho,
    )
