"""Seeded instances and the three closed-loop workloads.

BENCHMARK.json lists sweep-ic and verify. part-scale runs the same way
by hand (``--workload part-scale``) but is not listed: the benchmark's
time limit holds two workloads at a run length (50 s) that keeps their
medians and tails steady on the reference machine, and sweep-ic and
verify between them reach every layer.

Every instance is drawn from the workload seed alone. Type values mirror
``tests/conftest.py::random_distribution``: u and c uniform on [0.1, 10],
mass uniform on [0.1, 1.5], drawn per type in that order.

Each workload repeats a fixed *pattern* of item shapes (number of types,
rho relative to total mass, degenerate kind); the seed only draws the
values. A pass is one round of the pattern, so every pass does the same
mix of work and medians and tails do not depend on which seed was drawn.
Each pattern has twelve items in three groups of four: cheap shapes,
one middle shape and one dear shape, interleaved. With a third of the
items in each group, the median falls in the middle of the middle group
and the tail (ten items from the top) inside the dear group for any run
of three passes or more, so neither sits on the step between two
groups.
Shapes aimed at the finite dual branch use rho = 0.2 * total mass and
shapes aimed at the infinite branch rho = 20 * total mass. At 5 * total
mass about one instance in ten still took the finite branch, which made
an item eight times dearer by the luck of the draw; at 20 none of 155
drawn instances did. The traced run reports the share of solves that
took the infinite branch (inf_frac).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import upkeep
import upkeep.cli
from upkeep import AgentType, GridSpec, PhysicalParams, TypeDistribution

import checks

F_FINITE = 0.2
F_INFINITE = 20.0
LP_GRID = GridSpec(q_points=61, refine_rounds=3)  # as acceptance criterion 7
MENU_RESOLUTION = 1e-3  # as acceptance criterion 10
SIGMA_MULT = 4.0  # as acceptance criterion 9
SIM_BREAKS = 2000  # expected breaks per engine run when Q > 0

DEGENERATE_KINDS = ("plain", "tied_cost", "tied_nu", "zero_mass")


def draw_types(rng: np.random.Generator, n: int, kind: str = "plain") -> TypeDistribution:
    """n types drawn like random_distribution, then made degenerate.

    tied_cost gives T1 the cost of T0; tied_nu scales T0's (u, c) by 2,
    which keeps u / c bit-identical; zero_mass empties T0.
    """
    if kind not in DEGENERATE_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
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
    return TypeDistribution(tuple(AgentType(f"T{i}", u, c, m) for i, (u, c, m) in enumerate(rows)))


def write_table(path: Path, d: TypeDistribution) -> None:
    """Type table in the CLI's format; repr round-trips every float."""
    lines = ["id,u,c,mass"] + [f"{t.id},{t.u!r},{t.c!r},{t.mass!r}" for t in d.types]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Shape:
    n: int
    f_rho: float
    kind: str = "plain"


@dataclass
class Item:
    shape: Shape
    d: TypeDistribution
    rho: float
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pattern: tuple[Shape, ...]
    make: Callable[[np.random.Generator, Shape, Path, int], Item]
    run: Callable[[Item], Any]
    check: Callable[[Item, Any], list[checks.Check]]
    # How the items' time follows the host slowdown (hostspeed.py),
    # fitted on runs spanning calm and busy hosts: the value at which a
    # run's throughput at reference speed no longer trends with the
    # run's median slowdown.
    sensitivity: float = 1.0
    threaded: bool = False  # items run on several cores at once

    def items(self, seed: int, passes: int, workdir: Path) -> list[Item]:
        rng = np.random.default_rng([seed, 0])
        return [
            self.make(rng, shape, workdir, k)
            for k, shape in enumerate(self.pattern * passes)
        ]

    def warm_item(self, seed: int, workdir: Path, k: int = 0) -> Item:
        """The k-th extra instance of the pattern's first (cheapest) shape,
        from its own stream so no measured instance is seen during warm-up."""
        return self.make(np.random.default_rng([seed, 1, k]), self.pattern[0], workdir, -1 - k)


# --- sweep-ic ------------------------------------------------------------

def _make_sweep(rng, shape: Shape, workdir: Path, k: int) -> Item:
    d = draw_types(rng, shape.n, shape.kind)
    m = d.total_mass
    lo, hi = shape.f_rho * m, F_INFINITE * m
    path = workdir / f"types_{k}.csv"
    write_table(path, d)
    argv = ["--mode", "sweep", "--ic", "--input", str(path), "--rho-grid", f"{lo!r}:{hi!r}:2:log"]
    rhos = upkeep.cli.RhoGrid(lo, hi, 2, log=True).values()
    return Item(shape, d, lo, {"argv": argv, "rhos": rhos})


def _run_sweep(item: Item):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = upkeep.cli.main(item.extra["argv"])
    return code, buf.getvalue()


def _check_sweep(item: Item, out) -> list[checks.Check]:
    code, text = out
    return checks.sweep_output(code, text, item.d, item.extra["rhos"])


# --- part-scale ----------------------------------------------------------

def _make_scale(rng, shape: Shape, workdir: Path, k: int) -> Item:
    d = draw_types(rng, shape.n, shape.kind)
    return Item(shape, d, shape.f_rho * d.total_mass)


def _run_scale(item: Item):
    return (
        upkeep.solve_first_best(item.d, item.rho),
        upkeep.solve_participation(item.d, item.rho),
    )


def _check_scale(item: Item, out) -> list[checks.Check]:
    fb, part = out
    d, rho = item.d, item.rho
    return (
        checks.nesting(fb.W_fb, part.W_star)
        + [
            checks.feasible("first_best", fb.mechanism, d, rho, checks.FB_FAMILIES),
            checks.feasible("participation", part.mechanism, d, rho, checks.PART_FAMILIES),
        ]
        + checks.primal_agreement(d, rho, fb, part)
    )


# --- verify --------------------------------------------------------------

def _make_verify(rng, shape: Shape, workdir: Path, k: int) -> Item:
    d = draw_types(rng, shape.n, shape.kind)
    nus = np.sort(rng.uniform(0.0, 3.0, size=4))
    sws = rng.uniform(0.0, 2.0, size=4)
    pws = rng.uniform(-2.0, 2.0, size=4)
    vals = [(float(a), float(b), float(c)) for a, b, c in zip(nus, sws, pws)]
    sim_seed = int(rng.integers(0, 2**31 - 1))
    return Item(shape, d, shape.f_rho * d.total_mass, {"vals": vals, "sim_seed": sim_seed})


def sim_horizon(rho: float, q: float) -> float:
    """Horizon with SIM_BREAKS expected breaks: the machine breaks at rate
    rho for a share Q of the time. A Q = 0 mechanism never repairs, so it
    gets the horizon of SIM_BREAKS mean lifespans."""
    return SIM_BREAKS / (rho * q) if q > 0.0 else SIM_BREAKS / rho


def _run_verify(item: Item):
    d, rho = item.d, item.rho
    out: dict[str, Any] = {
        "fb": upkeep.solve_first_best(d, rho),
        "part": upkeep.solve_participation(d, rho),
        "ic": upkeep.solve_screening(d, rho),
        "grid_fb": upkeep.primal_grid_welfare(d, rho, "first_best")[0],
        "grid_part": upkeep.primal_grid_welfare(d, rho, "participation")[0],
        "lp": upkeep.lp_screening_welfare(d, rho, LP_GRID)[0],
    }
    vals = item.extra["vals"]
    out["menu"] = upkeep.bounded_monopoly_solve(vals).value
    out["menu_oracle"] = upkeep.menu_grid_oracle(vals, 1.0, MENU_RESOLUTION)
    mech = out["ic"].mechanism
    pol = upkeep.build_policy(mech)
    phys = PhysicalParams(rho)
    horizon = sim_horizon(rho, mech.Q)
    seed = item.extra["sim_seed"]
    for label, engine, offset in (
        ("poisson", upkeep.simulate_poisson, 0),
        ("fluid", upkeep.simulate_fluid, 1),
    ):
        stats = engine(pol, d, phys, horizon, seed + offset)
        out[label] = stats
        out[label + "_report"] = upkeep.check_reduced_form(stats, mech, SIGMA_MULT)
    return out


def _check_verify(item: Item, out) -> list[checks.Check]:
    d, rho = item.d, item.rho
    fb, part, ic = out["fb"], out["part"], out["ic"]
    return (
        checks.nesting(fb.W_fb, part.W_star, ic.W_star)
        + [
            checks.feasible("first_best", fb.mechanism, d, rho, checks.FB_FAMILIES),
            checks.feasible("participation", part.mechanism, d, rho, checks.PART_FAMILIES),
            checks.feasible("screening", ic.mechanism, d, rho, checks.IC_FAMILIES),
            checks.agrees("oracle.grid.first_best", fb.W_fb, out["grid_fb"], checks.ORACLE_TOL_PRIMAL),
            checks.agrees("oracle.grid.participation", part.W_star, out["grid_part"], checks.ORACLE_TOL_PRIMAL),
            checks.agrees("oracle.lp", ic.W_star, out["lp"], checks.ORACLE_TOL_SCREENING),
            checks.menu_agrees(item.extra["vals"], out["menu"], out["menu_oracle"]),
            checks.admissible("poisson", out["poisson"]),
            checks.admissible("fluid", out["fluid"]),
        ]
    )


FIN, INF = F_FINITE, F_INFINITE

# Why each workload exists (measured at the seed commit on the reference
# machine, see run.PASS_S; times as measured):
# - sweep-ic: solve_screening and bounded_monopoly_solve do over 90% of
#   the work (about 3.5k inner menu solves per finite-branch screening
#   solve). Each item is one in-process `sweep --ic` over a two-point log
#   rho grid, 0.2 and 20 times the total mass, so screening runs on both
#   its finite and its infinite branch (y_star = inf). It is the only
#   workload through the CLI and its ThreadPoolExecutor, so a new dual
#   envelope for screening and removing the threaded sweep both show here.
#   Tables have n = 3-6 types: at n = 12 one item took about 2.5 s and
#   set the time of a whole pass, and cheaper items put more of them in
#   a run, which steadies the median and the tail.
# - part-scale: solve_participation's O(n^2) kink scans set the time
#   (about 4.8 s at n = 400 and 0.3 s at n = 100 on the finite branch,
#   against milliseconds for first best); finite-branch items stop at
#   n = 200 so no single item dominates a pass, and n = 283 and 400 run
#   on the infinite branch. Screening never runs: it is the bypass
#   workload on which a screening change must predict no change, and
#   where an envelope for participation would show. Not in
#   BENCHMARK.json (see the top of this file).
# - verify: the acceptance suite's checks on acceptance-sized instances:
#   the primal grid, the fixed-uptime LP (61 points, 3 refinements) and
#   the menu grid (resolution 1e-3) oracles, and a Poisson and a fluid
#   round trip of the screening mechanism. Oracles and simulators do most
#   of the work here and none elsewhere; screening runs at small n and
#   mostly on its infinite branch. Five items in each twelve have tied
#   costs, tied valuations or a zero-mass type.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-ic",
            "screening and its inner menu solve do over 90% of the work; the only "
            "workload through the CLI and its threaded sweep",
            tuple(Shape(n, FIN) for n in (3, 5, 6, 4, 5, 6, 3, 5, 6, 4, 5, 6)),
            _make_sweep,
            _run_sweep,
            _check_sweep,
            sensitivity=0.85,  # fits gave 0.86 and 0.89 over slowdowns of 1.16-2.09
            threaded=True,
        ),
        Workload(
            "part-scale",
            "participation's O(n^2) kink scans at n = 50-400 on both dual branches; "
            "screening never runs, so a screening change must predict no change here",
            (
                Shape(50, INF), Shape(141, FIN), Shape(200, FIN), Shape(400, INF),
                Shape(141, FIN), Shape(200, FIN), Shape(283, INF), Shape(141, FIN),
                Shape(200, FIN), Shape(100, FIN), Shape(141, FIN), Shape(200, FIN),
            ),
            _make_scale,
            _run_scale,
            _check_scale,
            sensitivity=1.0,  # fit gave 1.04 over slowdowns of 1.43-1.98, 5 runs
        ),
        Workload(
            "verify",
            "oracles and simulators do most of the work, on acceptance-sized instances "
            "with tied costs, tied valuations and zero-mass types",
            (
                Shape(2, INF, "zero_mass"), Shape(4, INF), Shape(4, FIN),
                Shape(3, INF, "tied_cost"), Shape(4, INF, "zero_mass"), Shape(4, FIN, "tied_nu"),
                Shape(2, INF), Shape(4, INF), Shape(4, FIN, "tied_cost"),
                Shape(3, INF), Shape(4, INF), Shape(4, FIN),
            ),
            _make_verify,
            _run_verify,
            _check_verify,
            sensitivity=0.6,  # fits gave 0.62 and 0.61 over slowdowns of 0.95-1.84, 10 runs each
        ),
    )
}
