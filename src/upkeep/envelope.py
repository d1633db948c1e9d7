"""Exact minimum of an upper envelope of lines W + y * S by Kelley's
cutting-plane method.  Each optimum's dual is such an envelope: one line
per candidate point, with welfare W and balance slack S, ending in the
limit line W = u_bar, S = -rho, where everyone has full access for free.
When no line has positive slack, best_balanced picks the answer's line.
"""

from __future__ import annotations

import numpy as np

_MAX_WALK = 200


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


def best_balanced(W: np.ndarray, S: np.ndarray, key: np.ndarray, eps_bal: float) -> int:
    """The infinite branch's row: the welfare-best row with |S| <= eps_bal.

    No row has positive slack there, and every mechanism mixes rows
    (levels are affine in the uptime between kinks), so a balanced mix
    has only balanced members, and linear welfare is best at one of
    them.  Rows are scanned by ascending key (the kink), ties in row
    order; a row replaces the best so far only if its welfare is higher
    by more than eps_bal.  The caller leaves out the limit row.
    """
    rows = (np.abs(S) <= eps_bal).nonzero()[0]
    rows = rows[key[rows].argsort(kind="stable")]
    best = rows[0]
    for i in rows[1:]:
        if W[i] > W[best] + eps_bal:
            best = i
    return int(best)
