import math

import numpy as np
import pytest

from upkeep import (
    AgentType,
    TypeDistribution,
    check_feasible,
    primal_grid_welfare,
    solve_first_best,
    solve_participation,
    solve_screening,
    verify_structure,
)
from upkeep import envelope
from upkeep.envelope import Lines, minimize, solve_at
from upkeep.model import kink_uptimes
from upkeep.participation import _KinkLines, _kink_lines
from upkeep.screening import _kink_table, _table_line
from conftest import KINDS, kinded_distribution
from reference import (
    balance_residual_at,
    fb_dual_value,
    inner_max_Q,
    reduced_lagrangian,
)


def _envelope(W, S, limit, y):
    return max(limit[0] + y * limit[1], float(np.max(W + y * S)))


def test_walk_finds_envelope_minimum():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = int(rng.integers(1, 30))
        W = rng.uniform(-5.0, 5.0, m)
        S = rng.uniform(-3.0, 3.0, m)
        S[rng.integers(m)] = rng.uniform(0.1, 3.0)
        limit = (float(rng.uniform(-5.0, 5.0)), float(-rng.uniform(0.1, 3.0)))
        pos, neg, steps, _ = minimize(np.append(W, limit[0]), np.append(S, limit[1]), 0.0)
        lines = list(zip(W.tolist(), S.tolist())) + [limit]
        w_pos, s_pos = lines[pos]
        w_neg, s_neg = lines[neg]
        assert s_pos >= 0.0 > s_neg and 1 <= steps <= m + 1
        y = (w_neg - w_pos) / (s_pos - s_neg)
        # The envelope's minimum sits where a rising line meets a falling
        # one; try every such crossing.
        best = min(
            _envelope(W, S, limit, (wb - wa) / (sa - sb))
            for wa, sa in lines
            for wb, sb in lines
            if sa >= 0.0 > sb
        )
        assert _envelope(W, S, limit, y) <= best + 1e-12 * max(1.0, abs(best))


def test_walk_stops_when_a_pair_member_is_on_top():
    # The flat line and a limit line crossing at y = u / r, where rounding
    # leaves the limit line about 1e-10 above 0: a repeat of the same step
    # would never clear the tolerance.
    u, r = 757387.3877973956, 353170.8115138709
    y = u / r
    assert u - r * y > 1e-12
    assert minimize(np.array([0.0, u]), np.array([0.0, -r]), -1.0)[:3] == (0, 1, 1)


def test_walk_stops_on_a_repeated_limit_line():
    # Participation's Q = 1 row repeats the limit line once per prefix.
    # The first copy tops the second, which the walk holds, by no more
    # than it is the same line: the value on top is a pair member's, so
    # the walk stops at once.  A rule on indices alone takes a second step.
    u, r = 757387.3877973956, 353170.8115138709
    W, S = np.array([0.0, u, u]), np.array([0.0, -r, -r])
    assert minimize(W, S, -1.0)[:3] == (0, 2, 1)


def test_walk_stops_within_its_tolerance_of_the_crossing():
    # The pair (0, 2) crosses at y = 1 with value 1, and line 1 tops it
    # there by exactly the walk's tolerance 1e-12: the crossing is the
    # minimum, so the walk stops at once.  A strict test takes line 1 into
    # the pair and a second step.
    W, S = np.array([0.0, 1.0 + 1e-12, 2.0]), np.array([1.0, 0.0, -1.0])
    assert minimize(W, S, 0.0) == (0, 2, 1, 1.0)


def test_no_slack_above_eps_is_the_infinite_branch():
    W, S = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, -1.0])
    assert minimize(W, S, 0.5) is None
    assert minimize(W, S, 0.4999)[:3] == (1, 2, 1)


def test_a_nan_slack_is_not_the_infinite_branch():
    # The branch test reads the slack that argmax picks, a NaN if there is
    # one, and NaN <= eps is false, as S.max() <= eps was: the walk runs
    # and cannot converge, rather than reading as the infinite branch.
    W, S = np.array([0.0, 1.0, 2.0]), np.array([0.5, math.nan, -1.0])
    with pytest.raises(RuntimeError, match="did not converge"):
        minimize(W, S, 0.0)


def _hand_built(W, off, kink, qs, rho):
    # A flat table, as screening's, whose slack at rho is exactly 0 where
    # off is 0 and about -1 where it is 1; at Q = 1 the limit line, rev = 0
    # and S = -rho.
    qs = np.array(qs)
    q = qs[kink]
    return Lines(np.array(W), np.where(q == 1.0, 0.0, q * rho - np.array(off)), kink, qs=qs)


def _participation_shaped(W, off, qs, rho):
    # One row per kink, as participation's, with its scan.
    kink = np.arange(len(qs)).repeat(len(W[0])).reshape(len(qs), -1)
    flat = _hand_built(W, off, kink, qs, rho)
    return _KinkLines(flat.W, flat.rev, flat.kink, [], [], qs=flat.qs)


@pytest.mark.parametrize("rho", [1e-13, 9e-13])
def test_solve_at_never_returns_the_limit_row(rho):
    # Below eps_bal = 1e-12 * scale the limit row balances and has the
    # highest welfare of the balanced rows, but it is no mechanism: each
    # solver's scan leaves it out of the infinite branch.
    qs = [0.0, 0.5, 1.0]
    flat = _hand_built([0.0, 1.0, 3.0, 2.0], [0, 0, 1, 0], np.array([0, 1, 1, 2]), qs, rho)
    W, off = [[0.0, 0.0], [0.5, 1.0], [2.0, 2.0]], [[0, 0], [1, 0], [0, 0]]
    table = _participation_shaped(W, off, qs, rho)
    for lines in (flat, table):
        balanced = np.abs(lines.slack(rho)) <= 1e-12
        assert balanced.flat[-1] and lines.W.flat[-1] == lines.W[balanced].max()
        assert solve_at(lines, rho, 1.0)[1:] == (1, 1, 0, math.inf)


def test_solve_at_scans_balanced_rows_kink_by_kink():
    # Rows out of kink order: the scan starts at kink 0 (row 3), takes
    # kink 1 (row 1) for a welfare higher by more than eps_bal = 1e-12,
    # and keeps it against kink 2 (row 2), higher by less, and kink 3
    # (row 0), an exact tie.  Row 4 is the welfare-best but does not
    # balance.  At exactly eps_bal higher kink 1 still holds, and at
    # 2e-12 higher kink 2 wins.
    qs, rho = [0.0, 0.25, 0.5, 0.75, 1.0], 0.5
    kink = np.array([3, 1, 2, 0, 2, 4])
    for gap, best in ((0.5e-12, 1), (1e-12, 1), (2e-12, 2)):
        W = [1.0, 1.0, 1.0 + gap, 0.0, 5.0, 2.0]
        lines = _hand_built(W, [0, 0, 0, 0, 1, 0], kink, qs, rho)
        assert solve_at(lines, rho, 1.0)[1:] == (best, best, 0, math.inf)


def test_solve_at_scans_rows_with_slack_exactly_eps_bal():
    # Row 1's slack is exactly eps_bal = 1e-12, so it balances, and its
    # welfare beats row 0's: the scan takes it.  A strict test leaves it
    # out and returns row 0.
    W, rev, kink = np.array([0.0, 1.0, 5.0]), np.array([0.0, 1e-12, 0.0]), np.array([0, 0, 1])
    lines = Lines(W, rev, kink, qs=np.array([0.0, 1.0]))
    assert solve_at(lines, 3.0, 1.0)[1:] == (1, 1, 0, math.inf)


def test_solve_at_takes_participations_row_from_the_saturated_column():
    # The other columns balance at kink 1 with more welfare, and the
    # answer is still the saturated column's welfare-best balanced row:
    # kink 0 while that column's kink-1 row does not balance, kink 1 once
    # it does.
    qs, rho = [0.0, 0.5, 1.0], 0.5
    W = [[0.0, 0.0, 0.0], [4.0, 3.0, 1.0], [2.0, 2.0, 2.0]]
    for off, best in ((1, 0), (0, 1)):
        lines = _participation_shaped(W, [[0, 0, 0], [0, 0, off], [0, 0, 0]], qs, rho)
        S, *found = solve_at(lines, rho, 1.0)
        assert found == [best, best, 0, math.inf] and S[best, -1] == 0.0


def _tiny_masses():
    return TypeDistribution(
        (AgentType("A", 1e12, 1.0, 1e-15), AgentType("B", 5e11, 2.0, 2e-15))
    )


@pytest.mark.parametrize("kind", [*KINDS, "tiny_masses"])
def test_every_table_ends_in_its_limit_line(kind, monkeypatch):
    # Participation and screening each hand envelope.minimize, through
    # envelope.solve_at, a table whose last line is the limit line, and
    # screening's stored limit row reads as Q = 1 with free full access.
    # First best has no table and no walk.
    last = []

    def record(W, S, eps, inner=envelope.minimize):
        last.append((W[-1], S[-1]))
        return inner(W, S, eps)

    monkeypatch.setattr(envelope, "minimize", record)
    rng = np.random.default_rng(59)
    for n in (2, 7):
        d = _tiny_masses() if kind == "tiny_masses" else kinded_distribution(rng, kind, n)
        lines, tab = _kink_lines(d), _kink_table(d)
        for rho in (1e-14, 1e-13, 0.3 * d.total_mass, 20.0 * d.total_mass):
            last.clear()
            solve_participation(d, rho)
            solve_screening(d, rho)
            # participation and screening, in that order
            assert last == [(d.u_bar, -rho)] * 2
            assert lines.W[-1, -1] == d.u_bar and lines.slack(rho)[-1, -1] == -rho
            assert tab.W[-1] == d.u_bar and tab.slack(rho)[-1] == -rho
            line = _table_line(tab, tab.W.size - 1, d, rho)
            assert line.Q == 1.0
            assert line.r.tolist() == [1.0] * len(d.types)
            assert line.p.tolist() == [0.0] * len(d.types)


@pytest.mark.parametrize("kind", KINDS)
def test_kink_lines_match_reduced_lagrangian(kind):
    # The table sums in cost order with numpy, the reference in type
    # order with a Python loop, so they agree to rounding.  The table does
    # not involve rho; the slopes S are formed at each draw's rho.
    rng = np.random.default_rng(47)
    for n in (2, 6, 15):
        d = kinded_distribution(rng, kind, n)
        rho = float(d.total_mass * rng.uniform(0.1, 3.0))
        kinks = kink_uptimes(d)
        lines = _kink_lines(d)
        assert lines.qs.tolist() == kinks
        W, S = lines.W, lines.slack(rho)
        assert W.shape == S.shape == (len(kinks), n + 1)
        assert W[-1].tolist() == [d.u_bar] * (n + 1)
        assert S[-1].tolist() == [-rho] * (n + 1)
        for y in [0.0, *rng.uniform(0.0, 12.0, 4)]:
            top = (W + y * S).max(axis=1)
            for q, v in zip(kinks, top):
                ref = reduced_lagrangian(q, float(y), d, rho)
                assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("kind", KINDS)
def test_kink_line_slopes_are_balance_residuals(kind):
    # Column j of S is the residual when the j cheapest types contribute
    # their caps: below y it is column #{c < y}, up to y column #{c <= y}.
    rng = np.random.default_rng(53)
    tied = 0
    for n in (2, 6, 15):
        d = kinded_distribution(rng, kind, n)
        rho = float(d.total_mass * rng.uniform(0.1, 3.0))
        kinks = kink_uptimes(d)
        S = _kink_lines(d).slack(rho)
        costs = np.sort([t.c for t in d.types])
        ys = np.concatenate((costs, (costs[1:] + costs[:-1]) / 2.0))
        scale = 1e-12 * max(1.0, rho, d.total_mass)
        for y in ys.tolist():
            j_lt, j_le = int(np.sum(costs < y)), int(np.sum(costs <= y))
            tied += j_le - j_lt > 1
            for q, r_lt, r_le in zip(kinks, S[:, j_lt], S[:, j_le]):
                assert abs(r_lt - balance_residual_at(q, y, d, rho, True)) <= scale
                assert abs(r_le - balance_residual_at(q, y, d, rho, False)) <= scale
    assert (tied > 0) == (kind == "tied_cost")


def _extreme_instance(rng):
    kind = KINDS[int(rng.integers(len(KINDS)))]
    d = kinded_distribution(rng, kind, int(rng.integers(2, 9)))
    scales = 10.0 ** rng.uniform(-6.0, 6.0, len(d.types))
    d = TypeDistribution(
        tuple(AgentType(t.id, t.u, t.c, t.mass * s) for t, s in zip(d.types, scales))
    )
    return d, d.total_mass * 10.0 ** float(rng.uniform(-3.0, 3.0))


@pytest.mark.parametrize("seed", range(4))
def test_extreme_masses_and_rates(seed):
    """Per-type masses spread over twelve decades and rho over six: every
    solver returns a feasible mechanism and the optima stay nested."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(12):
        d, rho = _extreme_instance(rng)
        tol = 1e-9 * max(1.0, rho, d.total_mass)
        fb = solve_first_best(d, rho)
        part = solve_participation(d, rho)
        ic = solve_screening(d, rho)
        for mech, families in (
            (fb.mechanism, {"balance", "simplex"}),
            (part.mechanism, {"balance", "simplex", "participation"}),
            (ic.mechanism, {"balance", "simplex", "participation", "ic"}),
        ):
            assert check_feasible(mech, d, rho, families, tol=tol).ok
        assert ic.W_star <= part.W_star + tol
        assert part.W_star <= fb.W_fb + tol
        assert verify_structure(ic)


def _check_certificates(d, rho):
    fb = solve_first_best(d, rho)
    part = solve_participation(d, rho)
    assert abs(fb_dual_value(fb.y_fb, d, rho) - fb.W_fb) <= 1e-12 * max(1.0, abs(fb.W_fb))
    if math.isfinite(part.y_star):
        g = inner_max_Q(part.y_star, d, rho)[1]
        assert abs(g - part.W_star) <= 1e-12 * max(1.0, abs(part.W_star))
    assert check_feasible(fb.mechanism, d, rho, {"balance", "simplex"}).ok
    assert check_feasible(
        part.mechanism, d, rho, {"balance", "simplex", "participation"}
    ).ok
    assert part.W_star <= fb.W_fb + 1e-9 * max(1.0, abs(fb.W_fb))
    assert abs(primal_grid_welfare(d, rho, "first_best")[0] - fb.W_fb) <= 1e-3
    assert abs(primal_grid_welfare(d, rho, "participation")[0] - part.W_star) <= 1e-3
    return part


@pytest.mark.parametrize("kind", KINDS)
def test_certificates_across_kinds(kind):
    """Zero duality gap at the walk's threshold for first best and
    participation, with feasibility, nesting and the grid oracle."""
    rng = np.random.default_rng(43)
    branches = set()
    for n in (2, 3, 5, 8, 13, 21, 40):
        d = kinded_distribution(rng, kind, n)
        for f_rho in (0.2, 20.0):
            part = _check_certificates(d, f_rho * d.total_mass)
            branches.add(math.isfinite(part.y_star))
    assert True in branches


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("f_rho, finite", [(0.2, True), (20.0, False)])
def test_certificates_at_scale(n, f_rho, finite):
    d = kinded_distribution(np.random.default_rng(5), "plain", n)
    part = _check_certificates(d, f_rho * d.total_mass)
    assert math.isfinite(part.y_star) == finite
