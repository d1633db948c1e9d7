"""Exact minimum of an upper envelope of lines W + y * S by Kelley's
cutting-plane method.  Each optimum's dual is such an envelope: one line
per candidate point, with welfare W and balance slack S, plus a limit
line of negative slope.
"""

from __future__ import annotations

import numpy as np

_MAX_WALK = 200


def walk(
    W: np.ndarray, S: np.ndarray, limit: tuple[float, float]
) -> tuple[int, int, int]:
    """Minimize max(limit, max_i W[i] + y * S[i]) over y.

    The walk holds a line with S >= 0, first the one with the most slack
    (which must be positive), and one with S < 0, first limit (index -1).
    A line above the pair where they cross replaces the member on its
    side of S = 0; otherwise the crossing is the minimum.  Returns the
    final pair (pos, neg) and the number of evaluations.
    """
    w_lim, s_lim = limit

    def line(i: int) -> tuple[float, float]:
        return (w_lim, s_lim) if i < 0 else (float(W[i]), float(S[i]))

    # The limit line never rises above the pair again: every later neg
    # line entered above its predecessor, so above the limit line, and
    # while it is held every crossing lies to the right of its entry,
    # where its lead over the steeper limit line only grows.  Rounding can
    # still put a pair member on top by a hair; the crossing then cannot
    # move, so it is the minimum.
    pos, neg = int(np.argmax(S)), -1
    for step in range(1, _MAX_WALK + 1):
        (w_pos, s_pos), (w_neg, s_neg) = line(pos), line(neg)
        y = (w_neg - w_pos) / (s_pos - s_neg)
        v = w_pos + y * s_pos
        values = W + y * S
        top = int(np.argmax(values))
        g = float(values[top])
        if w_lim + s_lim * y > g:
            top, g = -1, w_lim + s_lim * y
        if g <= v + 1e-12 * max(1.0, abs(v)) or top in (pos, neg):
            return pos, neg, step
        if line(top)[1] >= 0.0:
            pos = top
        else:
            neg = top
    raise RuntimeError("dual walk did not converge")
