import ast
import math
import sys

import numpy as np
import pytest

from upkeep import (
    AgentType,
    GridSpec,
    MarkovPolicy,
    PhysicalParams,
    TooManyTypesError,
    TypeDistribution,
    bounded_monopoly_solve,
    lp_screening_welfare,
    menu_grid_oracle,
    primal_grid_welfare,
    simulate_poisson,
)
from upkeep.oracle import (
    _exact_max,
    _LPFamily,
    _screening_constraints,
    _screening_lp,
    _simplex_max,
)
from conftest import KINDS, kinded_distribution, random_distribution


def test_grid_values(lmh, equal_cost):
    w, q, fills = primal_grid_welfare(lmh, 5.5, "first_best")
    assert w == pytest.approx(2.15, abs=1e-4)
    assert q == pytest.approx(4.0 / 15.0, abs=1e-3)
    w, q, _ = primal_grid_welfare(lmh, 5.5, "participation")
    assert w == pytest.approx(13.75 / 7.0, abs=1e-4)
    assert q == pytest.approx(2.0 / 7.0, abs=1e-3)


def test_grid_idle_when_no_capacity():
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    w, q, fills = primal_grid_welfare(d, 3.0, "participation")
    assert w == pytest.approx(0.0, abs=1e-9)
    assert q == pytest.approx(0.0, abs=1e-9)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(q_points=2)
    with pytest.raises(ValueError):
        GridSpec(lp_tol=0.0)


def test_lp_oracle_golden(equal_cost):
    w, q = lp_screening_welfare(equal_cost, 1.0, GridSpec(q_points=61, refine_rounds=3))
    assert w == pytest.approx(0.8 / 3.0, abs=1e-4)
    assert q == pytest.approx(0.3, abs=1e-3)


def test_lp_oracle_singleton_matches_grid():
    d = TypeDistribution((AgentType("A", 2.0, 1.0, 1.0),))
    w_lp, _ = lp_screening_welfare(d, 1.0, GridSpec(q_points=61, refine_rounds=3))
    w_grid, _, _ = primal_grid_welfare(d, 1.0, "participation")
    assert abs(w_lp - w_grid) <= 1e-4


def test_lp_oracle_type_cap():
    d = TypeDistribution(tuple(AgentType(f"T{i}", 1.0, 1.0, 0.1) for i in range(9)))
    with pytest.raises(TooManyTypesError):
        lp_screening_welfare(d, 1.0)


def test_greedy_fill_matches_lp_on_fixed_uptime():
    # for a fixed uptime the contribution problem is a transportation
    # LP; the cost-ordered greedy fill must match its optimum
    rng = np.random.default_rng(61)
    for _ in range(10):
        d = random_distribution(rng, n_min=4, n_max=4)
        rho = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(0.05, 0.9))
        caps = np.array([t.mass * min(1 - q, q * t.nu) for t in d.types])
        need = rho * q
        if caps.sum() < need:
            continue
        cost = np.array([t.c for t in d.types])
        n = len(d.types)
        obj = -cost
        A_ub = np.eye(n)
        b_ub = caps
        A_eq = np.ones((1, n))
        b_eq = np.array([need])
        res = _simplex_max(obj, A_ub, b_ub, A_eq, b_eq, 1e-9)
        assert res is not None
        x, value = res
        order = sorted(range(n), key=lambda i: cost[i])
        remaining = need
        greedy_cost = 0.0
        for i in order:
            take = min(caps[i], remaining)
            greedy_cost += cost[i] * take
            remaining -= take
        assert -value == pytest.approx(greedy_cost, abs=1e-8)


def test_grid_convergence_guard(lmh):
    # doubling the grid should change the reported welfare by less than
    # four times the previous change; non-nested sizes avoid exact
    # grid-point reuse masking the comparison
    ws = [
        primal_grid_welfare(lmh, 5.5, "participation", GridSpec(qp, 0))[0]
        for qp in (101, 203, 407, 815)
    ]
    changes = [abs(b - a) for a, b in zip(ws, ws[1:])]
    for prev, nxt in zip(changes, changes[1:]):
        assert nxt <= 4.0 * prev + 1e-12


def test_oracle_never_beats_solver():
    # the grid oracle only visits feasible points, so it can fall short
    # of the optimum by grid error but never exceed it
    from upkeep import solve_first_best, solve_participation

    rng = np.random.default_rng(67)
    for _ in range(10):
        d = random_distribution(rng)
        rho = float(rng.uniform(0.1, 10.0))
        w_fb, _, _ = primal_grid_welfare(d, rho, "first_best")
        w_part, _, _ = primal_grid_welfare(d, rho, "participation")
        assert w_fb <= solve_first_best(d, rho).W_fb + 1e-8
        assert w_part <= solve_participation(d, rho).W_star + 1e-8


def test_menu_grid_trivials():
    assert menu_grid_oracle([], 1.0, 1e-3) == 0.0
    value = menu_grid_oracle([(2.0, 1.5, 0.0)], 1.0, 1e-3)
    assert value == pytest.approx(1.5 * 2.0, abs=1e-6)


@pytest.mark.parametrize(
    "vals, cap, resolution",
    [
        ([(1.0, 1.0, 0.0)], 0.0, 1e-3),
        ([(1.0, 1.0, 0.0)], -0.5, 1e-3),
        ([(1.0, 1.0, 0.0)], math.inf, 1e-3),
        ([(1.0, 1.0, 0.0)], math.nan, 1e-3),
        ([(1.0, 1.0, 0.0)], 1.0, 0.0),
        ([(1.0, 1.0, 0.0)], 1.0, math.nan),
        ([(1.0, 1.0, 0.0)], 1.0, math.inf),
        ([(-0.1, 1.0, 0.0)], 1.0, 1e-3),
        ([(1.0, -1.0, 0.0)], 1.0, 1e-3),
        ([(math.nan, 1.0, 0.0)], 1.0, 1e-3),
        ([(math.inf, 1.0, 0.0)], 1.0, 1e-3),
        ([(1.0, 1.0, math.nan)], 1.0, 1e-3),
    ],
)
def test_menu_grid_rejects_bad_arguments(vals, cap, resolution):
    with pytest.raises(ValueError):
        menu_grid_oracle(vals, cap, resolution)


def _menu_cases():
    """(vals, cap, resolution) inputs for the exact menu oracle test.

    Random menus of 1 to 5 buyers, some with zero surplus weight, some
    with every valuation below cap, at caps 0.3 and 0.7.  Then ties under
    pure-revenue weights at cap 1: a low valuation at a multiple of 1e-3
    or one ulp to either side, and a high valuation in [1, 1.1) at a
    multiple of 1e-3 or one ulp to either side, so that menus priced at
    those points leave buyers a few ulps from indifference.  In the last
    quarter a twin of the low buyer has a negative payment weight, so the
    seller prefers that buyer to opt out.
    """
    rng = np.random.default_rng(2028)
    cases = []
    for k in range(40):
        n = int(rng.integers(1, 6))
        cap, resolution = ((0.3, 0.1), (0.7, 0.01))[k % 2]
        nus = np.sort(rng.uniform(0.0, (0.6, 2.5)[k // 2 % 2], size=n))
        sws = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.0, 2.0, size=n))
        pws = rng.uniform(-2.0, 2.0, size=n)
        cases.append(([(float(a), float(b), float(c)) for a, b, c in zip(nus, sws, pws)], cap, resolution))
    lo_grid = np.arange(0.0, 1.0005, 1e-3)
    hi_grid = np.arange(1.0, 1.1, 1e-3)
    for k in range(120):
        lo = float(lo_grid[int(rng.integers(1, lo_grid.size))])
        lo = (lo, math.nextafter(lo, 0.0), math.nextafter(lo, 2.0))[k % 3]
        hi = float(hi_grid[int(rng.integers(hi_grid.size))])
        hi = (math.nextafter(hi, -math.inf), hi, math.nextafter(hi, math.inf))[k // 3 % 3]
        pws = rng.uniform(0.1, 2.0, size=3).tolist()
        vals = [(lo, 0.0, pws[0]), (hi, 0.0, pws[1])]
        if k >= 90:
            # a twin of the low buyer whose payments the seller dislikes
            vals.insert(1, (lo, 0.0, -pws[2]))
        cases.append((vals, 1.0, 1e-3))
    return cases


def test_oracle_imports_nothing_from_the_solvers():
    # an independent check may use the model, numpy and the standard
    # library, and nothing that the solvers are built from
    import upkeep.oracle

    tree = ast.parse(open(upkeep.oracle.__file__).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert (node.level, node.module) == (1, "model"), ast.dump(node)
                continue
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root == "numpy" or root in sys.stdlib_module_names, ast.dump(node)


def test_simplex_detects_infeasible():
    obj = np.array([1.0])
    A_ub = np.array([[1.0]])
    b_ub = np.array([0.5])
    A_eq = np.array([[1.0]])
    b_eq = np.array([2.0])
    assert _simplex_max(obj, A_ub, b_ub, A_eq, b_eq, 1e-9) is None


def test_simplex_simple_lp():
    # max x + y subject to x + 2y <= 4, 3x + y <= 6
    obj = np.array([1.0, 1.0])
    A_ub = np.array([[1.0, 2.0], [3.0, 1.0]])
    b_ub = np.array([4.0, 6.0])
    res = _simplex_max(obj, A_ub, b_ub, np.zeros((0, 2)), np.zeros(0), 1e-9)
    assert res is not None
    x, value = res
    assert value == pytest.approx(2.8, abs=1e-9)
    assert x == pytest.approx([1.6, 1.2], abs=1e-9)


def _pinned_distributions():
    """Seeded distributions of every kind with 1 to 5 types, each with a
    rho; a single zero-mass type has no mass, so that kind starts at 2."""
    rng = np.random.default_rng(2024)
    out = []
    for kind in KINDS:
        for n in range(2 if kind == "zero_mass" else 1, 6):
            d = kinded_distribution(rng, kind, n)
            out.append((d, float(rng.uniform(0.05, 0.6)) * d.total_mass))
    return out


def _pinned_menus():
    """Inner-menu valuations (nu * Q / (1 - Q), mass * c, mass * y) of
    seeded distributions, scaled so the top valuation falls in [0.3, 1.3],
    plus one menu whose top valuation is 2.5."""
    rng = np.random.default_rng(2025)
    menus = []
    for kind in KINDS:
        for n in range(2 if kind == "zero_mass" else 1, 6):
            d = kinded_distribution(rng, kind, n)
            scale = float(rng.uniform(0.3, 1.3)) / max(t.nu for t in d.types)
            y = float(rng.uniform(-1.0, 2.0))
            order = sorted(d.types, key=lambda t: t.nu)
            menus.append([(t.nu * scale, t.mass * t.c, t.mass * y) for t in order])
    nus = np.sort(rng.uniform(0.0, 2.5, size=4))
    nus[-1] = 2.5
    sws = rng.uniform(0.0, 2.0, size=4)
    pws = rng.uniform(-2.0, 2.0, size=4)
    menus.append([(float(a), float(b), float(c)) for a, b, c in zip(nus, sws, pws)])
    return menus


def _pinned_policies():
    """Seeded distributions with random Markov policies for the Poisson
    engine, at rho equal to the total mass."""
    rng = np.random.default_rng(2026)
    out = []
    for kind in KINDS:
        n = 4 if kind == "zero_mass" else 3
        d = kinded_distribution(rng, kind, n)
        pol = MarkovPolicy(
            sigma_W={t.id: float(rng.uniform()) for t in d.types},
            sigma_B={t.id: float(rng.uniform()) for t in d.types},
        )
        out.append((d, pol, PhysicalParams(d.total_mass), int(rng.integers(2**31))))
    return out


PINNED_LP = [
    ("0x1.05475da9b536ep+1", "0x1.57b096922bec5p-1"),
    ("0x1.1b55edc0939b9p+2", "0x1.74aed2c6f1b98p-1"),
    ("0x1.17a9946ace48ap+3", "0x1.b80df4ecf6103p-1"),
    ("0x1.98ddcc32dd2a0p+2", "0x1.a806453a3a9bap-1"),
    ("0x1.924a944723e39p+4", "0x1.e19896b13d910p-1"),
    ("0x1.7f9010fe10b0bp+1", "0x1.9f093a8847ce8p-1"),
    ("0x1.32ffe4c7785c1p+1", "0x1.348ec89527b37p-1"),
    ("0x1.5fd540946eea9p+1", "0x1.ab9836e581ea0p-1"),
    ("0x1.895d5c21d387bp+1", "0x1.438e625069bf7p-1"),
    ("0x1.e3c7b54e00c57p-3", "0x1.44ba11d48abcfp-2"),
    ("0x1.226dc96503078p+2", "0x1.579d2b8b44e0ep-1"),
    ("0x1.468af1db2415ep+4", "0x1.c87424f47c561p-1"),
    ("0x1.a4eba74aabf58p+2", "0x1.d58da54fc029bp-1"),
    ("0x1.723d85cd14c6dp+5", "0x1.42e38146def43p-1"),
    ("0x1.38677fb944326p+6", "0x1.9f32a763ce4d5p-1"),
    ("0x1.5f610d94e51b8p-1", "0x1.7fde578da2b8fp-1"),
    ("0x0.0p+0", "0x0.0p+0"),
    ("0x1.a145b400a012ep+1", "0x1.77934c9af5d4ap-1"),
    ("0x1.b3931b10b6fb1p+2", "0x1.65446c65b8ee9p-1"),
]

PINNED_POISSON = [
    (
        "0x1.83dfae5f3607bp-2",
        ("0x1.f755b5c7dd56dp-4", "0x1.9fbd0911704e2p-2", "0x1.722b40e151fb0p-2"),
        ("0x1.acbd2096b2f48p-2", "0x1.b60f5896ab98cp-2", "0x1.4bf1eae05078bp-2"),
        1057,
    ),
    (
        "0x1.bdf2bae3e75aep-2",
        ("0x1.bc86f21bc86f2p-3", "0x1.a7b9611a7b961p-4", "0x1.91ea930647aa5p-4"),
        ("0x1.e23b88ee23b89p-2", "0x1.e58469ee5846ap-2", "0x1.8ef606a63bd82p-2"),
        811,
    ),
    (
        "0x1.9286aa138eb44p-2",
        ("0x1.83ee868d8aebep-3", "0x1.d8f2fba938682p-3", "0x1.1b6513d66f780p-4"),
        ("0x1.bbd98e6a98070p-2", "0x1.63cbeea4e1a09p-2", "0x1.77069ccfd2a82p-2"),
        814,
    ),
    (
        "0x1.78e002855e250p-2",
        (
            "0x1.7edd8ce490665p-2",
            "0x0.0p+0",
            "0x1.ccb5c3b636e3ap-6",
            "0x1.272349c8d2723p-3",
        ),
        (
            "0x1.c6a7174f6b798p-2",
            "0x0.0p+0",
            "0x1.7486f94056621p-2",
            "0x1.033540cd50335p-2",
        ),
        960,
    ),
]


def _hex(x):
    return float(x).hex()


def _poisson_pin(stats, d):
    return (
        _hex(stats.Q_hat),
        tuple(_hex(stats.R_hat[t.id]) for t in d.types),
        tuple(_hex(stats.P_hat[t.id]) for t in d.types),
        stats.n_breaks,
    )


def test_oracle_outputs_pinned():
    # float.hex of every output, recorded before the oracles' fast paths:
    # vectorized pivot, LP constraints built once per call
    g = GridSpec(q_points=61, refine_rounds=3)
    lp = [
        tuple(map(_hex, lp_screening_welfare(d, rho, g)))
        for d, rho in _pinned_distributions()
    ]
    assert lp == PINNED_LP
    # q = 1 leaves no downtime for the contributions that balance needs
    d, rho = _pinned_distributions()[0]
    assert _screening_lp(d, rho, g.lp_tol)(1.0) is None
    sims = [
        _poisson_pin(simulate_poisson(pol, d, phys, 1000.0, seed), d)
        for d, pol, phys, seed in _pinned_policies()
    ]
    assert sims == PINNED_POISSON


def _seeded_lps():
    """Small bounded LPs with integer data, so ratio-test ties are common.

    Every other LP repeats one of its rows scaled by 1 or 2, which ties
    the two rows in every ratio test that reaches them; zero right-hand
    sides add degenerate ties.  Every fourth LP asks an equality row for
    more than the box x <= U allows, so it is infeasible.  Every third LP
    states its equalities negated, so their right-hand sides are at or
    below zero.
    """
    rng = np.random.default_rng(4242)
    lps = []
    for k in range(40):
        n = int(rng.integers(2, 6))
        A = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), n)).astype(float)
        b = rng.integers(0, 5, size=A.shape[0]).astype(float)
        if k % 2 == 0:
            i = int(rng.integers(A.shape[0]))
            scale = float(rng.integers(1, 3))
            A = np.vstack([A, scale * A[i]])
            b = np.append(b, scale * b[i])
        U = rng.integers(1, 5, size=n).astype(float)
        x0 = rng.integers(0, U + 1).astype(float)
        b = np.maximum(b, A @ x0)
        A_ub = np.vstack([A, np.eye(n)])
        b_ub = np.concatenate([b, U])
        A_eq = rng.integers(0, 3, size=(int(rng.integers(1 if k % 4 == 3 else 0, 3)), n))
        A_eq = A_eq.astype(float)
        b_eq = A_eq @ x0
        if k % 4 == 3:
            A_eq[0, int(rng.integers(n))] += 1.0
            b_eq[0] = A_eq[0] @ U + 1.0
        if k % 3 == 1:
            A_eq, b_eq = -A_eq, -b_eq
        obj = rng.integers(-3, 4, size=n).astype(float)
        lps.append((obj, A_ub, b_ub, A_eq, b_eq))
    # Beale's example, on which the largest-coefficient rule cycles: two
    # rows tie at ratio 0 in the first pivot
    lps.append(
        (
            np.array([0.75, -20.0, 0.5, -6.0]),
            np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
            np.array([0.0, 0.0, 1.0]),
            np.zeros((0, 4)),
            np.zeros(0),
        )
    )
    return lps


def test_simplex_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    infeasible = 0
    for obj, A_ub, b_ub, A_eq, b_eq in _seeded_lps():
        res = _simplex_max(obj, A_ub, b_ub, A_eq, b_eq, 1e-9)
        ref = linprog(
            -obj,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq if A_eq.size else None,
            b_eq=b_eq if A_eq.size else None,
            method="highs",
        )
        assert ref.status in (0, 2)
        if ref.status == 2:
            infeasible += 1
            assert res is None
            continue
        assert res is not None
        x, value = res
        assert value == pytest.approx(-ref.fun, abs=1e-9 * max(1.0, abs(ref.fun)))
        assert value == obj @ x
        assert np.all(x >= 0.0)
        assert np.all(A_ub @ x <= b_ub + 1e-9)
        assert np.allclose(A_eq @ x, b_eq, rtol=0.0, atol=1e-9)
    assert infeasible == 10


def _tableau_simplex(obj, A_ub, b_ub, A_eq, b_eq, tol):
    """Reference two-phase simplex with Bland's rule that pivots the whole
    tableau, right-hand side included, one row at a time, with the same
    float operations as the oracle's simplex."""
    n = obj.size
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    art = n + m_ub
    T = np.zeros((m + 1, art + m_eq + 1))
    T[:m_ub, :n] = A_ub
    T[:m_ub, n:art] = np.eye(m_ub)
    T[:m_ub, -1] = b_ub
    flip = np.where(b_eq < 0.0, -1.0, 1.0)
    T[m_ub:m, :n] = A_eq * flip[:, None]
    T[m_ub:m, art:-1] = np.eye(m_eq)
    T[m_ub:m, -1] = b_eq * flip
    basis = list(range(n, art + m_eq))

    def pivot(row, col):
        T[row] /= T[row, col]
        for r in range(m + 1):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * T[row]
        basis[row] = col

    def run():
        for _ in range(20000):
            col = next((j for j in range(art) if T[m, j] < -tol), None)
            if col is None:
                return
            row, best = -1, math.inf
            for r in range(m):
                if T[r, col] > tol:
                    ratio = T[r, -1] / T[r, col]
                    if ratio < best - tol or (
                        abs(ratio - best) <= tol and (row < 0 or basis[r] < basis[row])
                    ):
                        best, row = ratio, r
            assert row >= 0, "unbounded"
            pivot(row, col)
        raise AssertionError("iteration limit")

    if m_eq:
        for r in range(m_ub, m):
            T[m] -= T[r]
        T[m, art:-1] = 0.0
        run()
        for r in range(m):
            if basis[r] >= art:
                if T[r, -1] > tol:
                    return None
                j = next((j for j in range(art) if abs(T[r, j]) > tol), None)
                if j is not None:
                    pivot(r, j)
        T[:, art:-1] = 0.0
    T[m] = 0.0
    T[m, :n] = -obj
    for r in range(m):
        if basis[r] < n and T[m, basis[r]] != 0.0:
            T[m] -= T[m, basis[r]] * T[r]
    run()
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    return x, float(obj @ x)


def _lp_hex(result):
    return None if result is None else (_hex(result[1]), tuple(map(_hex, result[0])))


def test_lp_family_replay_matches_fresh_solves():
    # One family pivots each coefficient tableau once and replays only the
    # right-hand side; in any order of uptimes every result must be
    # bit-identical to a fresh solve and to the whole-tableau reference
    rng = np.random.default_rng(2027)
    tol = 1e-9
    nones = 0
    for kind in KINDS:
        for n in range(2 if kind == "zero_mass" else 1, 6):
            d = kinded_distribution(rng, kind, n)
            rho = float(10.0 ** rng.uniform(-1.5, 1.5)) * d.total_mass
            obj, A_ub, A_eq, rhs = _screening_constraints(d, rho)
            qs = np.linspace(0.0, 1.0, 61).tolist() + rng.uniform(size=20).tolist()
            fresh = {}
            for q in qs:
                b_ub, b_eq = rhs(q)
                fresh[q] = _lp_hex(_simplex_max(obj, A_ub, b_ub, A_eq, b_eq, tol))
                assert fresh[q] == _lp_hex(_tableau_simplex(obj, A_ub, b_ub, A_eq, b_eq, tol))
            nones += sum(v is None for v in fresh.values())
            for order in (qs, qs[::-1], rng.permutation(qs).tolist()):
                family = _LPFamily(obj, A_ub, A_eq, tol)
                assert [_lp_hex(family.solve(*rhs(q))) for q in order] == [
                    fresh[q] for q in order
                ]
                # the trie is hit: fewer tableau pivots than replayed ones
                assert family.tableau_pivots < family.rhs_pivots
    assert nones > 0


def _seeded_menus():
    """200 menus of 1 to 8 buyers: valuations below 0.6 or 3, about 30%
    of the surplus weights zero, payment weights of either sign, caps 1,
    0.3 and 0.7."""
    rng = np.random.default_rng(2030)
    menus = []
    for k in range(200):
        n = int(rng.integers(1, 9))
        nus = np.sort(rng.uniform(0.0, (0.6, 3.0)[k % 2], size=n))
        sws = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.0, 2.0, size=n))
        pws = rng.uniform(-2.0, 2.0, size=n)
        menus.append(([(float(a), float(b), float(c)) for a, b, c in zip(nus, sws, pws)], (1.0, 0.3, 0.7)[k % 3]))
    return menus


# Menus whose float simplex answer is not exact: on the first two the
# simplex ends on a basis whose x breaks a row by more than 1e-6, so the
# answer is refused; on the last two x breaks rows by about 1e-12 and the
# value errs by 1.1e-12 and 2.3e-12 relative.
HARD_MENUS = [
    (
        [
            (0.008164452024524937, 0.0, 0.7132211913693336),
            (0.21283584194997732, 0.0, -1.5944714895373444),
            (0.4240780991063437, 0.0, -1.8448088238663871),
            (0.43587572211482034, 0.0, -1.5981429138444359),
            (0.5072510345596128, 1.310168846956022, 0.4749210274951796),
            (0.5230086516902771, 0.11587225515373611, 0.938910128610194),
            (0.5685175742219246, 0.011450396168264376, 1.7693474323350458),
            (0.5718316996121723, 0.0, -0.5387316763868646),
        ],
        0.7,
    ),
    (
        [
            (0.08275602143959541, 1.0823406354565221, -1.5710075715059793),
            (0.11149789086823093, 0.0, 1.7836049281826294),
            (0.1852886201083194, 1.0003425882099763, 0.16532086651030875),
            (0.44172307265508626, 1.320505675388541, 0.7774235896900903),
            (0.4425509215144074, 0.0, 1.775712788451747),
            (0.489706906166365, 0.0, -0.007819324177563924),
            (0.5548244749442754, 0.3578447916413099, 1.8049014291967724),
        ],
        1.0,
    ),
    (
        [
            (0.0018248878382221667, 0.27128692044434244, -0.9922989210526154),
            (0.13203497838017214, 0.6473211693703758, -0.3079980595075047),
            (0.19853624721683497, 0.3065191833590615, 1.6265476222510635),
            (0.2730234235033578, 1.1233815176370618, -1.1492139476713175),
            (0.40477487383381244, 0.0, -0.5173640456372817),
            (0.5574697459834731, 0.0, 0.1726279800714705),
            (0.5989595329885954, 0.0, 1.7121065776589055),
            (0.5990318471557804, 0.0, 0.6648200554825543),
        ],
        0.7,
    ),
    (
        [
            (0.04749865423271022, 0.0, 0.03921879922914906),
            (0.12611550960077098, 1.3384542196746565, -1.9295205348021969),
            (0.3311267173801025, 0.3452158342597702, 1.937014926536992),
            (0.43136958618535165, 0.0, -0.9638030028236555),
            (0.5099174323810192, 1.9965974128067283, 1.7110367369970643),
            (0.5099918456939103, 0.0, -1.6252150640244891),
            (0.5199681006607212, 0.8501386113760461, 1.3637249520600863),
            (0.5792994158498941, 0.0, 1.4423049400284134),
        ],
        0.7,
    ),
]


def _menu_lp(vals, cap):
    """(obj, A_ub, b_ub) of the menu LP over x = (r, p), row by row: the
    boxes, participation, then truth-telling of each buyer i against
    each j != i."""
    nu, sw, pw = np.array(vals).T
    n = nu.size

    def row(i, j):
        # buyer i's payoff from bundle j (None: opting out) less its own
        a = np.zeros(2 * n)
        a[i], a[n + i] = -nu[i], 1.0
        if j is not None:
            a[j], a[n + j] = nu[i], -1.0
        return a

    rows = list(np.eye(2 * n)) + [row(i, None) for i in range(n)]
    rows += [row(i, j) for i in range(n) for j in range(n) if j != i]
    b_ub = np.concatenate([np.ones(n), np.full(n, cap), np.zeros(len(rows) - 2 * n)])
    return np.concatenate([sw * nu, pw - sw]), np.array(rows), b_ub


def test_menu_oracle_is_exact():
    # the LP covers every truthful menu with capped payments, so it must
    # find the same optimum as the two-tier enumeration, and as HiGHS
    try:
        from scipy.optimize import linprog
    except ImportError:
        linprog = None
    cases = [(v, cap) for v, cap, _ in _menu_cases()] + [(v, 1.0) for v in _pinned_menus()]
    for vals, cap in cases + _seeded_menus() + HARD_MENUS:
        value = menu_grid_oracle(vals, cap, 1e-3)
        ref = bounded_monopoly_solve(sorted(vals), cap).value
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (vals, cap, value, ref)
        if linprog is not None:
            obj, A_ub, b_ub = _menu_lp(vals, cap)
            highs = -linprog(-obj, A_ub=A_ub, b_ub=b_ub, method="highs").fun
            assert abs(value - highs) <= 1e-9 * max(1.0, abs(highs)), (vals, cap, value, highs)
    # a price at the cap is charged at the cap, not an ulp above it
    assert menu_grid_oracle([(1.0, 0.0, 1.0)], 0.3, 0.1) == 0.3


def test_inexact_menu_lps_are_solved_exactly():
    # the float simplex is refused or off by more than 1e-12; the exact
    # solve must land on the enumeration's optimum
    refused = 0
    for vals, cap in HARD_MENUS:
        obj, A_ub, b_ub = _menu_lp(vals, cap)
        ref = bounded_monopoly_solve(sorted(vals), cap).value
        try:
            _, value = _simplex_max(obj, A_ub, b_ub, np.zeros((0, obj.size)), np.zeros(0), 1e-9)
        except RuntimeError:
            refused += 1
        else:
            assert abs(value - ref) > 1e-12 * max(1.0, abs(ref))
        assert abs(_exact_max(obj, A_ub, b_ub) - ref) <= 1e-15 * max(1.0, abs(ref))
    assert refused == 2


# HiGHS optima of joint screening LPs on which the simplex, unchecked,
# returned an infeasible x with a wrong value: 1.5115, 2.9e-4, 8.624 and
# 0.0345 in turn.
JOINT_HIGHS = {
    745: 1.5120489292140047,
    1474: 118.87192649546736,
    1513: 8.959487112997577,
    2310: 38.739641815201495,
}


def test_simplex_never_returns_an_infeasible_optimum():
    # one LP in x = (Q, R, P): R <= Q, P <= 1 - Q, participation and
    # truth-telling, and balance rho * Q = sum(mass * P)
    for seed, highs in JOINT_HIGHS.items():
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = kinded_distribution(rng, KINDS[seed % 4], n)
        rho = d.total_mass * 10.0 ** rng.uniform(-2.0, math.log10(20.0))
        obj, A_ub, A_eq, rhs = _screening_constraints(d, rho)
        q_col = np.concatenate([-np.ones(n), np.ones(n), np.zeros(A_ub.shape[0] - 2 * n)])
        b_ub, _ = rhs(0.0)
        try:
            result = _simplex_max(
                np.concatenate([[0.0], obj]),
                np.column_stack([q_col, A_ub]),
                b_ub,
                np.column_stack([[rho], -A_eq]),
                np.zeros(1),
                1e-9,
            )
        except RuntimeError:
            continue
        assert result is not None
        assert abs(result[1] - highs) <= 1e-9 * max(1.0, highs), (seed, result[1], highs)
