import ast
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
    simulate_fluid,
    simulate_poisson,
    solve_first_best,
    solve_participation,
    solve_screening,
    welfare,
)
import upkeep.oracle
from upkeep.oracle import (
    _exact_max,
    _ic_rows,
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


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
def test_lp_oracle_rejects_bad_rho(equal_cost, rho):
    # the uptime is mass @ P / rho, so rho must be finite and positive
    with pytest.raises(ValueError):
        lp_screening_welfare(equal_cost, rho)


@pytest.mark.parametrize("mode", ["first_best", "participation"])
@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
def test_grid_oracle_rejects_bad_rho(mode, rho):
    # Unchecked, rho <= 0 gave W = 7 here, NaN gave -inf and inf a
    # RuntimeWarning.
    d = TypeDistribution((AgentType("A", 3.0, 1.0, 1.0), AgentType("B", 2.0, 2.0, 2.0)))
    with pytest.raises(ValueError, match="rho must be finite and > 0"):
        primal_grid_welfare(d, rho, mode)


def test_greedy_fill_matches_lp_on_fixed_uptime():
    # for a fixed uptime the contribution problem is a transportation
    # LP; the cost-ordered greedy fill must match its optimum.  Every
    # unit earns C - c_i >= 1 with C = max c + 1, so the LP fills exactly
    # need and C * need - value is the cost of the cheapest fill.
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
        C = cost.max() + 1.0
        A_ub = np.vstack([np.ones((1, n)), np.eye(n)])
        b_ub = np.concatenate([[need], caps])
        _, value = _simplex_max(C - cost, A_ub, b_ub)
        order = sorted(range(n), key=lambda i: cost[i])
        remaining = need
        greedy_cost = 0.0
        for i in order:
            take = min(caps[i], remaining)
            greedy_cost += cost[i] * take
            remaining -= take
        assert C * need - value == pytest.approx(greedy_cost, abs=1e-8)


def test_grid_convergence_guard(lmh):
    # The primal oracle is exact, so it agrees with the solver.
    w = primal_grid_welfare(lmh, 5.5, "participation")[0]
    best = solve_participation(lmh, 5.5).W_star
    assert abs(w - best) <= 1e-12 * max(1.0, abs(best))


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


def test_primal_oracle_is_exact():
    # 1000 distributions of the four kinds, up to 40 types and four of
    # 400, masses scaled by 1e-6 to 1e6, rho from 1e-3 to 1e3 times the
    # mass: the oracle finds each solver's optimum.  W_fb = u_bar - rho y
    # rounds off about an ulp of u_bar, which reads as an error when W is
    # near 0, so first best is compared with its mechanism's welfare.
    rng = np.random.default_rng(2033)
    for k in range(1000):
        kind = KINDS[k % 4]
        n = 400 if k % 251 == 0 else int(rng.integers(2 if kind == "zero_mass" else 1, 41))
        d = kinded_distribution(rng, kind, n)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        d = TypeDistribution(tuple(AgentType(t.id, t.u, t.c, t.mass * scale) for t in d.types))
        rho = d.total_mass * 10.0 ** rng.uniform(-3.0, 3.0)
        for mode, ref in (
            ("first_best", welfare(solve_first_best(d, rho).mechanism, d)),
            ("participation", solve_participation(d, rho).W_star),
        ):
            w, _, _ = primal_grid_welfare(d, rho, mode)
            assert abs(w - ref) <= 1e-12 * max(1.0, abs(ref)), (k, mode, w, ref)
    # Participation's optimum at A's kink 1/3.3, off every grid point: W
    # rises at slope 1.5 while A's cap grows as 2.3 Q, and falls at slope
    # -11.7 once it shrinks as 1 - Q and B, at cost 5, fills the rest.
    d = TypeDistribution((AgentType("A", 2.3, 1.0, 1.0), AgentType("B", 5.0, 5.0, 1.0)))
    w, q, fills = primal_grid_welfare(d, 3.0, "participation")
    assert q == 1.0 / 3.3 and abs(w - 1.5 / 3.3) <= 1e-15
    assert abs(w - solve_participation(d, 3.0).W_star) <= 1e-15
    assert fills["A"] == pytest.approx(1.0 - q, abs=1e-15)


def test_primal_oracle_memory_at_400_types():
    # candidates are O(n) uptimes, scored in one (n, O(n)) block: about
    # 16 MB traced at n = 400
    d = kinded_distribution(np.random.default_rng(7), "plain", 400)
    tracemalloc.start()
    try:
        primal_grid_welfare(d, 0.2 * d.total_mass, "participation")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6, peak


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

    tree = ast.parse(Path(upkeep.oracle.__file__).read_text(encoding="utf-8"))
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


def test_simplex_simple_lp():
    # max x + y subject to x + 2y <= 4, 3x + y <= 6
    obj = np.array([1.0, 1.0])
    A_ub = np.array([[1.0, 2.0], [3.0, 1.0]])
    b_ub = np.array([4.0, 6.0])
    x, value = _simplex_max(obj, A_ub, b_ub)
    assert value == pytest.approx(2.8, abs=1e-9)
    assert x == pytest.approx([1.6, 1.2], abs=1e-9)


def test_exact_simplex_has_no_tolerance():
    # a reduced cost of -2**-40 still enters, and a ratio 2**-40 below
    # another still leaves
    eps = 2.0**-40
    x, value = _exact_max(np.array([eps]), np.array([[1.0]]), np.array([1.0]))
    assert (x.tolist(), value) == ([1.0], eps)
    x, value = _exact_max(np.array([1.0]), np.array([[1.0], [1.0]]), np.array([1.0 + eps, 1.0]))
    assert (x.tolist(), value) == ([1.0], 1.0)


def test_exact_simplex_stops_at_its_own_pivot_budget(monkeypatch):
    # the LP of test_simplex_simple_lp takes two pivots, and the budget
    # counts the pass that finds no entering column too; the float
    # simplex keeps _MAX_PIVOTS
    lp = np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0])
    monkeypatch.setattr(upkeep.oracle, "_MAX_EXACT_PIVOTS", 3)
    assert _exact_max(*lp)[1] == 2.8
    monkeypatch.setattr(upkeep.oracle, "_MAX_EXACT_PIVOTS", 2)
    with pytest.raises(RuntimeError, match="iteration limit"):
        _exact_max(*lp)
    assert _simplex_max(*lp)[1] == pytest.approx(2.8, abs=1e-9)


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


# The LP oracle's exact optimum (W, Q) on _pinned_distributions().
PINNED_LP = [
    ("0x1.0547c62d7f014p+1", "0x1.57b1200d1d41dp-1"),
    ("0x1.1b56235428076p+2", "0x1.74af21e995adfp-1"),
    ("0x1.17a99a477f476p+3", "0x1.b80e408081c11p-1"),
    ("0x1.98ddf8e8c27acp+2", "0x1.a8067b2af3e21p-1"),
    ("0x1.924ac309a814ep+4", "0x1.e198ceab891b6p-1"),
    ("0x1.7f909cbbebc1bp+1", "0x1.9f09d1bd907ddp-1"),
    ("0x1.330016e56676ap+1", "0x1.348efaf433f45p-1"),
    ("0x1.5fd5b2dd4d5f1p+1", "0x1.ab98c1ca5f2aep-1"),
    ("0x1.895dffa8be638p+1", "0x1.438ee8d21fc5ap-1"),
    ("0x1.e3c8caf0c6e27p-3", "0x1.44bacc2fee921p-2"),
    ("0x1.226e20628dec0p+2", "0x1.579d9276f1f5fp-1"),
    ("0x1.468b484f6bb19p+4", "0x1.c8749dcdd0abfp-1"),
    ("0x1.a4ebf9d28bc59p+2", "0x1.d58e0160b87eep-1"),
    ("0x1.723dee5996349p+5", "0x1.42e3dc7459345p-1"),
    ("0x1.3867b6e760251p+6", "0x1.9f32f0b9f9142p-1"),
    ("0x1.5f617e52bc506p-1", "0x1.7fded2b81da2bp-1"),
    ("0x0.0p+0", "0x0.0p+0"),
    ("0x1.a14655b2199bep+1", "0x1.7793de2418d7ap-1"),
    ("0x1.b393239e3332fp+2", "0x1.65447d46eb938p-1"),
]

# W of the uptime grid (61 points, 3 refinements) that the exact LP
# replaced.  The grid visited feasible uptimes only, so each is a lower
# bound on the optimum.
GRID_LP_W = [
    "0x1.05475da9b536ep+1",
    "0x1.1b55edc0939b9p+2",
    "0x1.17a9946ace48ap+3",
    "0x1.98ddcc32dd2a0p+2",
    "0x1.924a944723e39p+4",
    "0x1.7f9010fe10b0bp+1",
    "0x1.32ffe4c7785c1p+1",
    "0x1.5fd540946eea9p+1",
    "0x1.895d5c21d387bp+1",
    "0x1.e3c7b54e00c57p-3",
    "0x1.226dc96503078p+2",
    "0x1.468af1db2415ep+4",
    "0x1.a4eba74aabf58p+2",
    "0x1.723d85cd14c6dp+5",
    "0x1.38677fb944326p+6",
    "0x1.5f610d94e51b8p-1",
    "0x0.0p+0",
    "0x1.a145b400a012ep+1",
    "0x1.b3931b10b6fb1p+2",
]

# Recorded from the block-drawn engine, whose four child streams replaced
# the single generator of the per-event loop.
PINNED_POISSON = [
    (
        "0x1.9236ed3fb6935p-2",
        ("0x1.dd51da56242c0p-4", "0x1.6a1c32753d96ap-2", "0x1.7401f53b3a3fap-2"),
        ("0x1.8a88db44cd193p-2", "0x1.06ada2811cf07p-1", "0x1.401f53b3a3fa2p-2"),
        1032,
    ),
    (
        "0x1.c8bde6adb0ac2p-2",
        ("0x1.9ac335866b0cdp-3", "0x1.39ed5059b184bp-3", "0x1.7daf885dff49bp-4"),
        ("0x1.003e007c00f80p-1", "0x1.a291c077975b9p-2", "0x1.5b813f05573b7p-2"),
        828,
    ),
    (
        "0x1.9e320c32273d3p-2",
        ("0x1.6d713fc317cabp-3", "0x1.a74e9d3a74e9dp-3", "0x1.4f52edf8c9ea6p-4"),
        ("0x1.e18be55a68af2p-2", "0x1.58b162c58b163p-2", "0x1.512073615a241p-2"),
        798,
    ),
    (
        "0x1.727b5293fac64p-2",
        (
            "0x1.49d9ace439b3dp-2",
            "0x0.0p+0",
            "0x1.d19eb155f08a4p-7",
            "0x1.2ba59c52f5c8ep-3",
        ),
        (
            "0x1.d8d06acad1b58p-2",
            "0x0.0p+0",
            "0x1.6bc3fa8b23ec0p-2",
            "0x1.c52f5c8e64ea0p-3",
        ),
        931,
    ),
]

# (Q_hat, ci_Q, n_breaks, lifespan_mean) of the fluid engine on each of
# _fluid_cases(), recorded from the per-period loop the block-drawn
# engine replaced.
PINNED_FLUID = [
    ("0x1.8601d7d70cf65p-2", "0x1.53877696972a1p-6", 1029, "0x1.7bd927fd7c400p-2"),
    ("0x1.7ad56cd06c7acp-2", "0x1.bcd5f6727d966p-7", 1042, "0x1.6b82c9d52448ap-2"),
    ("0x1.89976e6dcf6abp-2", "0x1.c2749217bec22p-7", 1050, "0x1.772cbe435c29bp-2"),
    ("0x1.826e15e419be9p-2", "0x0.0p+0", 1030, "0x1.772cbe435c29cp-2"),
    ("0x0.0p+0", "0x1.0000000000000p-1", 0, "nan"),
    ("0x1.bf1c4d63d0237p-2", "0x1.805e3c4b31fb3p-6", 824, "0x1.0ea12df7e9beap-1"),
    ("0x1.af87c5d48d83bp-2", "0x1.18d8860abecbcp-6", 830, "0x1.04972aa0458a2p-1"),
    ("0x1.c75cfe0486775p-2", "0x1.1c3edc41e5a67p-6", 833, "0x1.1153c8b8a6cb2p-1"),
    ("0x1.bc0168f44c41dp-2", "0x0.0p+0", 813, "0x1.1153c8b8a6cb3p-1"),
    ("0x0.0p+0", "0x1.0000000000000p-1", 0, "nan"),
    ("0x1.ae408f0b94ef2p-2", "0x1.87f07da0a56b6p-6", 823, "0x1.057da88232b98p-1"),
    ("0x1.8bda537902991p-2", "0x1.10923823827b1p-6", 811, "0x1.e87e56b7307a1p-2"),
    ("0x1.8e7866c326083p-2", "0x1.10b9a9810704ep-6", 812, "0x1.eaba1c30a5495p-2"),
    ("0x1.8d39b48e21c3bp-2", "0x0.0p+0", 809, "0x1.eaba1c30a5494p-2"),
    ("0x0.0p+0", "0x1.0000000000000p-1", 0, "nan"),
    ("0x1.74cbfcff8146dp-2", "0x1.54e42ddac5327p-6", 960, "0x1.85c5cf70189adp-2"),
    ("0x1.806b34a053071p-2", "0x1.f4551a8d822b0p-7", 958, "0x1.9145af2f1a457p-2"),
    ("0x1.7d87b544bd5a1p-2", "0x1.f2f689b44bdd2p-7", 957, "0x1.8ea377ef09071p-2"),
    ("0x1.7ec8028b1d361p-2", "0x0.0p+0", 960, "0x1.8ea377ef09071p-2"),
    ("0x0.0p+0", "0x1.0000000000000p-1", 0, "nan"),
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
    # float.hex of every output: the LP oracle's exact optimum and the
    # Poisson engine's estimates
    g = GridSpec(q_points=61, refine_rounds=3)
    lp = [
        tuple(map(_hex, lp_screening_welfare(d, rho, g)))
        for d, rho in _pinned_distributions()
    ]
    assert lp == PINNED_LP
    for (w, _), grid_w in zip(lp, GRID_LP_W):
        w, grid_w = float.fromhex(w), float.fromhex(grid_w)
        assert w >= grid_w - 1e-12 * max(1.0, abs(w)) and abs(w - grid_w) <= 2e-3
    sims = [
        _poisson_pin(simulate_poisson(pol, d, phys, 1000.0, seed), d)
        for d, pol, phys, seed in _pinned_policies()
    ]
    assert sims == PINNED_POISSON


def _fluid_cases():
    """Each of _pinned_policies() under the four lifespan and quantum
    shapes, then with nobody contributing, so that the first repair never
    ends."""
    shapes = [
        (lifespan, quantum)
        for lifespan in ("exponential", "deterministic")
        for quantum in ("exponential", "deterministic")
    ]
    for d, pol, phys, seed in _pinned_policies():
        for lifespan, quantum in shapes:
            yield d, pol, PhysicalParams(phys.rho, lifespan, quantum), seed
        idle = MarkovPolicy(sigma_W=pol.sigma_W, sigma_B={t.id: 0.0 for t in d.types})
        yield d, idle, phys, seed


def test_fluid_outputs_pinned():
    sims = [
        (_hex(s.Q_hat), _hex(s.ci_Q), s.n_breaks, _hex(s.lifespan_mean))
        for s in (
            simulate_fluid(pol, d, phys, 1000.0, seed)
            for d, pol, phys, seed in _fluid_cases()
        )
    ]
    assert sims == PINNED_FLUID


def _seeded_lps():
    """Small bounded LPs A_ub x <= b_ub with b_ub >= 0 and integer data,
    so ratio-test ties are common.

    Every other LP repeats one of its rows scaled by 1 or 2, which ties
    the two rows in every ratio test that reaches them; zero right-hand
    sides add degenerate ties.  A box x <= U bounds every LP.
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
        obj = rng.integers(-3, 4, size=n).astype(float)
        lps.append((obj, np.vstack([A, np.eye(n)]), np.concatenate([b, U])))
    # Beale's example, on which the largest-coefficient rule cycles: two
    # rows tie at ratio 0 in the first pivot
    lps.append(
        (
            np.array([0.75, -20.0, 0.5, -6.0]),
            np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
            np.array([0.0, 0.0, 1.0]),
        )
    )
    return lps


def test_simplex_matches_highs():
    # the float and the Fraction path both find HiGHS's optimum
    linprog = pytest.importorskip("scipy.optimize").linprog
    for obj, A_ub, b_ub in _seeded_lps():
        ref = linprog(-obj, A_ub=A_ub, b_ub=b_ub, method="highs")
        assert ref.status == 0
        x, value = _simplex_max(obj, A_ub, b_ub)
        assert value == obj @ x
        for x, value in ((x, value), _exact_max(obj, A_ub, b_ub)):
            assert value == pytest.approx(-ref.fun, abs=1e-9 * max(1.0, abs(ref.fun)))
            assert np.all(x >= 0.0)
            assert np.all(A_ub @ x <= b_ub + 1e-9)


def _tableau_simplex(obj, A_ub, b_ub, tol, exact=False):
    """Reference simplex with Bland's rule from the slack basis that
    pivots the whole tableau one row at a time, with the same float
    operations as the oracle's simplex; or, when exact, on a tableau of
    Fractions, where the value is the exact optimum rounded once."""
    m, n = A_ub.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A_ub
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b_ub
    T[m, :n] = -obj
    if exact:
        T = np.array([[Fraction(v) for v in row] for row in T.tolist()], dtype=object)
    basis = list(range(n, n + m))
    for _ in range(20000):
        col = next((j for j in range(n + m) if T[m, j] < -tol), None)
        if col is None:
            break
        row, best = -1, math.inf
        for r in range(m):
            if T[r, col] > tol:
                ratio = T[r, -1] / T[r, col]
                if ratio < best - tol or (
                    abs(ratio - best) <= tol and (row < 0 or basis[r] < basis[row])
                ):
                    best, row = ratio, r
        assert row >= 0, "unbounded"
        T[row] /= T[row, col]
        for r in range(m + 1):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * T[row]
        basis[row] = col
    else:
        raise AssertionError("iteration limit")
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    return x, float(T[m, -1]) if exact else float(obj @ x)


def _lp_hex(result):
    return _hex(result[1]), tuple(map(_hex, result[0]))


def _posed_lps(pose):
    """The (obj, A_ub, b_ub) that pose() hands to _checked_max, in order,
    each answered with x = 0 rather than solved."""
    lps = []

    def record(obj, A_ub, b_ub):
        lps.append((obj, A_ub, b_ub))
        return np.zeros(A_ub.shape[1]), 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(upkeep.oracle, "_checked_max", record)
        pose()
    return lps


def _reference_lps():
    """(source, index, LP) for the 224 LPs of
    test_simplex_matches_the_tableau_reference, in its order: 20
    screening LPs, the menus of _seeded_menus() and HARD_MENUS."""
    rng = np.random.default_rng(2027)
    lps = []
    for k in range(20):
        kind = KINDS[k % 4]
        d = kinded_distribution(rng, kind, int(rng.integers(2 if kind == "zero_mass" else 1, 9)))
        rho = d.total_mass * 10.0 ** rng.uniform(-2.0, math.log10(20.0))
        lps += _posed_lps(lambda: lp_screening_welfare(d, rho))
    for vals, cap in _seeded_menus() + HARD_MENUS:
        lps += _posed_lps(lambda: menu_grid_oracle(vals, cap, 1e-3))
    sources = [("screening", k) for k in range(20)] + [("menu", k) for k in range(200)]
    sources += [("hard_menu", k) for k in range(len(HARD_MENUS))]
    return [(source, k, lp) for (source, k), lp in zip(sources, lps, strict=True)]


def test_simplex_matches_the_tableau_reference(monkeypatch):
    # on the LPs that the screening and the menu oracle pose, the float
    # simplex's x and value are bit-identical to the whole-tableau
    # reference, or refused where the reference's x breaks a row
    lps = []
    checked_max = upkeep.oracle._checked_max

    def record(obj, A_ub, b_ub):
        lps.append((obj, A_ub, b_ub))
        return checked_max(obj, A_ub, b_ub)

    monkeypatch.setattr(upkeep.oracle, "_checked_max", record)
    rng = np.random.default_rng(2027)
    for k in range(20):
        kind = KINDS[k % 4]
        d = kinded_distribution(rng, kind, int(rng.integers(2 if kind == "zero_mass" else 1, 9)))
        lp_screening_welfare(d, d.total_mass * 10.0 ** rng.uniform(-2.0, math.log10(20.0)))
    for vals, cap in _seeded_menus() + HARD_MENUS:
        menu_grid_oracle(vals, cap, 1e-3)
    assert len(lps) == 224
    refused = 0
    for obj, A_ub, b_ub in lps:
        ref = _tableau_simplex(obj, A_ub, b_ub, 1e-9)
        try:
            result = _simplex_max(obj, A_ub, b_ub)
        except RuntimeError:
            refused += 1
            x = ref[0]
            assert max(-x.min(), (A_ub @ x - b_ub).max()) > 1e-6 * max(1.0, b_ub.max())
        else:
            assert _lp_hex(result) == _lp_hex(ref)
    assert refused == 2  # the first two HARD_MENUS


def test_exact_simplex_matches_the_tableau_reference(monkeypatch):
    # the Fraction tableau's x and value are the whole-tableau
    # reference's in Fractions: on the screening LPs of at most 3 types
    # of the reference test and of _verify_instances(), the reference
    # test's menus of at most 3 buyers, and the two HARD_MENUS whose
    # float answer is refused.  None takes more than 41 pivots, so a
    # broken pivot fails here rather than running on.
    monkeypatch.setattr(upkeep.oracle, "_MAX_EXACT_PIVOTS", 100)
    lps = [
        lp
        for source, k, lp in _reference_lps()
        if (source != "hard_menu" and lp[1].shape[1] <= 6) or (source == "hard_menu" and k < 2)
    ]
    lps += [_screening_lp(d, rho) for d, rho, _ in _verify_instances() if len(d.types) <= 3]
    assert len(lps) == 217
    for obj, A_ub, b_ub in lps:
        ref = _tableau_simplex(obj, A_ub, b_ub, 0, exact=True)
        assert _lp_hex(_exact_max(obj, A_ub, b_ub)) == _lp_hex(ref)


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
            _, value = _simplex_max(obj, A_ub, b_ub)
        except RuntimeError:
            refused += 1
        else:
            assert abs(value - ref) > 1e-12 * max(1.0, abs(ref))
        assert abs(_exact_max(obj, A_ub, b_ub)[1] - ref) <= 1e-15 * max(1.0, abs(ref))
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


def _joint_lp_instance(seed):
    # the recipe of the JOINT_HIGHS seeds
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    d = kinded_distribution(rng, KINDS[seed % 4], n)
    return d, d.total_mass * 10.0 ** rng.uniform(-2.0, math.log10(20.0))


def _highs_screening(d, rho, linprog):
    """HiGHS on screening as one LP in x = (Q, R, P): R <= Q, P <= 1 - Q,
    participation and truth-telling, with balance
    rho * Q = sum(mass * P) kept as an equality row."""
    n = len(d.types)
    u, c, mass = (np.array([getattr(t, k) for t in d.types]) for k in ("u", "c", "mass"))
    A_ub = _ic_rows(u, c)
    q_col = np.concatenate([-np.ones(n), np.ones(n), np.zeros(A_ub.shape[0] - 2 * n)])
    b_ub = np.concatenate([np.zeros(n), np.ones(n), np.zeros(A_ub.shape[0] - 2 * n)])
    res = linprog(
        -np.concatenate([[0.0], mass * u, -mass * c]),
        A_ub=np.column_stack([q_col, A_ub]),
        b_ub=b_ub,
        A_eq=np.concatenate([[rho], np.zeros(n), -mass])[None],
        b_eq=np.zeros(1),
        method="highs",
    )
    return -res.fun


def test_screening_oracle_is_exact():
    # 200 distributions of the four kinds, 1 to 8 types, rho from 0.01 to
    # 20 times the mass: the LP oracle finds the solver's optimum, and
    # HiGHS's on the LP with the uptime kept as a variable
    try:
        from scipy.optimize import linprog
    except ImportError:
        linprog = None
    rng = np.random.default_rng(2032)
    for k in range(200):
        kind = KINDS[k % 4]
        d = kinded_distribution(rng, kind, int(rng.integers(2 if kind == "zero_mass" else 1, 9)))
        rho = d.total_mass * 10.0 ** rng.uniform(-2.0, math.log10(20.0))
        w, q = lp_screening_welfare(d, rho)
        ref = solve_screening(d, rho).W_star
        assert abs(w - ref) <= 1e-12 * max(1.0, abs(ref)), (k, w, ref)
        assert -1e-12 <= q <= 1.0 + 1e-12
        if linprog is not None:
            highs = _highs_screening(d, rho, linprog)
            assert abs(w - highs) <= 1e-9 * max(1.0, abs(highs)), (k, w, highs)


def test_screening_oracle_solves_the_joint_lp_seeds():
    # the LPs on which the unchecked simplex returned infeasible points
    for seed, highs in JOINT_HIGHS.items():
        w, _ = lp_screening_welfare(*_joint_lp_instance(seed))
        assert abs(w - highs) <= 1e-12 * max(1.0, abs(highs)), (seed, w, highs)


def test_inexact_screening_lps_are_solved_exactly(monkeypatch):
    # seed 1052's float answer breaks a row by more than 1e-6 and is
    # refused, so it is solved again exactly, and the uptime comes from
    # the exact x.  Seed 1054's breaks one by more than _SLACK allows; its
    # final basis, solved again on the original rows, passes the same
    # check, with no exact solve.
    exact = []

    def exact_max(*args):
        exact.append(_exact_max(*args))
        return exact[-1]

    monkeypatch.setattr(upkeep.oracle, "_exact_max", exact_max)
    for seed in (1052, 1054):
        d, rho = _joint_lp_instance(seed)
        w, q = lp_screening_welfare(d, rho)
        if seed == 1052:
            assert len(exact) == 1
            x, value = exact.pop()
            assert w == value
            assert abs(q - np.dot([t.mass for t in d.types], x[len(d.types):]) / rho) <= 1e-15
        else:
            assert not exact
            value = _exact_max(*_screening_lp(d, rho))[1]
            assert abs(w - value) <= 1e-15 * max(1.0, abs(w))
        ref = solve_screening(d, rho)
        assert abs(w - ref.W_star) <= 1e-13 * max(1.0, abs(ref.W_star))
        assert abs(q - ref.Q_star) <= 1e-12


def _screening_lp(d, rho):
    """(obj, A_ub, b_ub) that lp_screening_welfare hands to _checked_max."""
    (lp,) = _posed_lps(lambda: lp_screening_welfare(d, rho))
    return lp


def test_singular_basis_falls_back_to_the_exact_solve(monkeypatch):
    # with the basis solve raising, seed 1054 takes _exact_max's answer
    d, rho = _joint_lp_instance(1054)
    obj, A_ub, b_ub = _screening_lp(d, rho)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    w, _ = lp_screening_welfare(d, rho)
    assert w == _exact_max(obj, A_ub, b_ub)[1]


def _verify_instances():
    """200 instances shaped like the benchmark's verify items, by its
    recipe: 2 to 4 types with u and c on [0.1, 10] and mass on
    [0.1, 1.5], drawn per type in that order; tied_cost gives T1 the
    cost of T0, tied_nu gives T1 twice T0's (u, c), and zero_mass
    empties T0.  rho is 0.2 or 20 times the total mass, and each
    instance has a menu of 4 buyers with cap 1."""
    rng = np.random.default_rng(2035)
    out = []
    for k in range(200):
        n, kind, f_rho = 2 + k % 3, KINDS[k // 3 % 4], (0.2, 20.0)[k // 12 % 2]
        rows = [
            [float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 1.5))]
            for _ in range(n)
        ]
        if kind == "tied_cost":
            rows[1][1] = rows[0][1]
        elif kind == "tied_nu":
            rows[1][0], rows[1][1] = 2.0 * rows[0][0], 2.0 * rows[0][1]
        elif kind == "zero_mass":
            rows[0][2] = 0.0
        d = TypeDistribution(tuple(AgentType(f"T{i}", u, c, m) for i, (u, c, m) in enumerate(rows)))
        nus = np.sort(rng.uniform(0.0, 3.0, size=4))
        sws = rng.uniform(0.0, 2.0, size=4)
        pws = rng.uniform(-2.0, 2.0, size=4)
        vals = [(float(a), float(b), float(c)) for a, b, c in zip(nus, sws, pws)]
        out.append((d, f_rho * d.total_mass, vals))
    return out


def _listed_lps():
    """(source, index, LP) for every LP of the listing below."""
    yield from _reference_lps()
    for seed in JOINT_HIGHS:
        yield "joint", seed, _screening_lp(*_joint_lp_instance(seed))
    for k, (d, rho, vals) in enumerate(_verify_instances()):
        yield "verify.lp", k, _screening_lp(d, rho)
        (lp,) = _posed_lps(lambda: menu_grid_oracle(vals, 1.0, 1e-3))
        yield "verify.menu", k, lp


if __name__ == "__main__":
    # One line per LP: its source and index, which of _checked_max's three
    # answers it took (float, basis or exact) and a short hash of x and
    # the value as float.hex, or of the exception raised.  `diff` between
    # the listings of two checkouts shows whether an answer moved by one
    # bit.  Run from the repository root as
    # `PYTHONPATH=src python tests/test_oracle.py`.
    import hashlib

    solve, exact_max = np.linalg.solve, upkeep.oracle._exact_max
    for source, index, lp in _listed_lps():
        taken = ["float"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", lambda *a: (taken.append("basis"), solve(*a))[1])
            mp.setattr(upkeep.oracle, "_exact_max", lambda *a: (taken.append("exact"), exact_max(*a))[1])
            try:
                text = repr(_lp_hex(upkeep.oracle._checked_max(*lp)))
            except Exception as e:
                text = f"{type(e).__name__}: {e}"
        print(source, index, taken[-1], hashlib.sha256(text.encode()).hexdigest()[:16])
