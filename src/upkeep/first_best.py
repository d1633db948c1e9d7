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

import numpy as np

from .envelope import minimize
from .model import (
    ATOM_SNAP,
    Mechanism,
    TypeDistribution,
    welfare,
)


@dataclass(frozen=True)
class FirstBestSolution:
    """Threshold, uptime, welfare, and the mechanism that attains them.

    Types whose cost sits exactly at the threshold contribute nothing;
    balance holds for any contribution fraction they might be given.
    iterations counts the steps of the dual walk.
    """

    y_fb: float
    Q_fb: float
    W_fb: float
    mechanism: Mechanism
    iterations: int
    rho: float


def solve_first_best(d: TypeDistribution, rho: float) -> FirstBestSolution:
    """Solve the physical-constraints-only problem.

    The dual is the upper envelope of one line per prefix of the
    cost-sorted types, y -> sum of mass * (y - c) over the prefix, and
    the limit line u_bar - rho * y.  envelope.minimize minimizes it
    exactly, and the crossing of its final pair is the threshold.  Uptime
    then follows in closed form from the balance condition.  The walk is
    exact, so no tolerance is taken.  The prefix lines do not involve rho
    (_prefix_lines); the limit line and the walk do (_first_best_at).
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    return _first_best_at(_prefix_lines(d), d, rho)


def _prefix_lines(d: TypeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(W, S) of the empty prefix and each prefix of the cost-sorted types."""
    by_cost = sorted(d.types, key=lambda t: t.c)
    # A massless first row gives the empty prefix's line.
    mass, c = np.array([(0.0, 0.0)] + [(t.mass, t.c) for t in by_cost]).T
    return -np.cumsum(mass * c), np.cumsum(mass)


def _first_best_at(
    lines: tuple[np.ndarray, np.ndarray], d: TypeDistribution, rho: float
) -> FirstBestSolution:
    """solve_first_best at rho from d's prefix lines, for a checked rho."""
    W, S = lines
    # The full prefix has slope total_mass > 0, so the threshold is finite.
    _, _, iterations, y_fb = minimize(np.append(W, d.u_bar), np.append(S, -rho), 0.0)

    scale = max(1.0, y_fb)
    contributing = {t.id for t in d.types if t.c < y_fb - ATOM_SNAP * scale}
    m_eff = sum(t.mass for t in d.types if t.id in contributing)
    Q_fb = m_eff / (rho + m_eff) if m_eff > 0 else 0.0
    P = {t.id: 1.0 - Q_fb if t.id in contributing else 0.0 for t in d.types}
    mechanism = Mechanism(Q=Q_fb, R={t.id: Q_fb for t in d.types}, P=P)

    return FirstBestSolution(
        y_fb=y_fb,
        Q_fb=Q_fb,
        W_fb=welfare(mechanism, d),
        mechanism=mechanism,
        iterations=iterations,
        rho=rho,
    )
