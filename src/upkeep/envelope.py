"""Each optimum's dual: an upper envelope of lines W + y * S, one per
candidate point, with welfare W and balance slack S.  A Lines table holds
them without rho; solve_at minimizes the envelope at rho by Kelley's
cutting-plane method (minimize) or picks the infinite branch's line."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DEFAULT_TOL

_MAX_WALK = 200


@dataclass
class Lines:
    """A rho-free table of the dual's lines, ending in the limit line
    (Q = 1, W = u_bar, rev = 0), where everyone has full access for free:
    columns of welfare W, revenue rev and kink, the index of the line's
    uptime Q in the ascending kink uptimes qs (keyword-only, as no
    column).  At a breakage rate rho the line is y -> W + y * S with
    S = rev - rho * Q (slack).  The class attribute scan indexes the rows
    that solve_at's infinite branch may return: by default all but the last."""

    W: np.ndarray
    rev: np.ndarray
    kink: np.ndarray
    qs: np.ndarray = field(kw_only=True)
    scan = np.s_[:-1]

    def slack(self, rho: float) -> np.ndarray:
        """S = rev - rho * Q of every line, formed in one new array."""
        S = self.qs[self.kink]
        S *= rho
        return np.subtract(self.rev, S, out=S)


def minimize(W: np.ndarray, S: np.ndarray, eps: float) -> tuple[int, int, int, float] | None:
    """Minimize max_i W[i] + y * S[i] over y, the last line being the
    limit line.

    None when no line has slack above eps: the envelope then only falls
    as y grows, the infinite branch.  Otherwise the walk holds a line
    with S >= 0, first the one with the most slack, and one with S < 0,
    first the limit line.  A line above the pair where they cross
    replaces the member on its side of S = 0; otherwise the crossing is
    the minimum.  Returns the final pair (pos, neg), the number of
    evaluations and the crossing y.  One argmax of S gives both the
    branch test and the first pos; a NaN slack wins it and so, as under
    S.max(), fails the test.
    """
    pos, neg = int(S.argmax()), S.size - 1
    if S.item(pos) <= eps:
        return None

    # The limit line never rises above the pair again: every later neg
    # line entered above its predecessor, so above the limit line, and
    # while it is held every crossing lies to the right of its entry,
    # where its lead over the steeper limit line only grows.  Rounding can
    # still lift a pair member, or a copy of one, above the crossing by a
    # hair; the crossing then cannot move, so it is the minimum.
    for step in range(1, _MAX_WALK + 1):
        w_pos, s_pos = W.item(pos), S.item(pos)
        w_neg, s_neg = W.item(neg), S.item(neg)
        y = (w_neg - w_pos) / (s_pos - s_neg)
        v = w_pos + y * s_pos
        values = W + y * S
        top = int(values.argmax())
        g = values.item(top)
        if g <= v + 1e-12 * max(1.0, abs(v)) or g in (values.item(pos), values.item(neg)):
            return pos, neg, step, y
        if S.item(top) >= 0.0:
            pos = top
        else:
            neg = top
    raise RuntimeError("dual walk did not converge")


def solve_at(lines: Lines, rho: float, scale: float) -> tuple[np.ndarray, int, int, int, float]:
    """(S, pos, neg, steps, y): the slack of lines at rho and, when some
    line has slack above DEFAULT_TOL * scale (see model.slack_scale),
    minimize's final pair as flat indices, its evaluations and their
    crossing.  Otherwise the branch is infinite:
    steps is 0, y is inf, and pos = neg is the welfare-best row of
    lines[lines.scan], as an index into it, with |S| <= eps_bal =
    1e-12 * scale.  No row has positive slack there, and every mechanism
    mixes rows (levels are affine in the uptime between kinks), so a
    balanced mix has only balanced members, and linear welfare is best
    at one of them.  Rows are scanned by ascending kink, ties in row
    order; a row replaces the best so far only if its welfare is higher
    by more than eps_bal.  Every scan leaves out the limit row, Q = 1 with
    nobody contributing, which balances when rho is within eps_bal of 0.
    """
    S = lines.slack(rho)
    found = minimize(lines.W.ravel(), S.ravel(), DEFAULT_TOL * scale)
    if found is not None:
        return (S, *found)
    eps_bal = 1e-12 * scale
    W = lines.W[lines.scan]
    rows = (np.abs(S[lines.scan]) <= eps_bal).nonzero()[0]
    rows = rows[lines.kink[lines.scan][rows].argsort(kind="stable")]
    best = rows[0]
    for i in rows[1:]:
        if W[i] > W[best] + eps_bal:
            best = i
    return S, int(best), int(best), 0, np.inf
