"""First-best mechanism: welfare maximization under physical constraints only.

The optimum has a threshold structure.  There is a unique cost threshold
at which the marginal usage value of extra uptime equals the marginal
cost of the contributions needed to sustain it; types cheaper than the
threshold contribute the maximum amount, everyone else contributes
nothing, and all types enjoy full access.

It is the participation problem with each cap relaxed to the downtime
1 - Q, and is solved on participation's path, on a table with the kinks
0 and 1 only: one line per prefix of the cost-sorted types,
y -> sum of mass * (y - c), and the limit line u_bar - rho * y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Mechanism, TypeDistribution
from .participation import _KinkLines, _kink_lines, _participation_at


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

    The crossing of the walk's final pair, a prefix line and the limit
    line, is the threshold.  The uptime is where the types below it
    balance, and the types at it contribute nothing.  The full prefix
    always has slack, so no step takes a tolerance.  The table does not
    involve rho (_kink_lines); the walk does (_first_best_at).
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    return _first_best_at(_kink_lines(d, may_exit=False), d, rho)


def _first_best_at(lines: _KinkLines, d: TypeDistribution, rho: float) -> FirstBestSolution:
    """solve_first_best at rho from d's first-best lines, for a checked rho."""
    sol = _participation_at(lines, d, rho)
    return FirstBestSolution(
        sol.y_star, sol.Q_star, sol.W_star, sol.mechanism, sol.iterations, rho
    )
