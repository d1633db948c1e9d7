"""Tests of the benchmark itself: every check can fail, instances are
seeded, spans nest across the sweep's threads, the traced run's counts
repeat exactly, and times are put at reference speed.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import upkeep  # noqa: E402
import upkeep.cli  # noqa: E402
import upkeep.screening  # noqa: E402
from upkeep import Mechanism, SimStats  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import FIN, INF, Shape, Workload  # noqa: E402


def failed(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


@pytest.fixture
def lmh():
    return workloads.TypeDistribution(
        (
            upkeep.AgentType("L", 3.0, 3.0, 1.0),
            upkeep.AgentType("M", 4.0, 2.0, 1.0),
            upkeep.AgentType("H", 10.0, 1.25, 1.0),
        )
    )


# --- every check can fail ---------------------------------------------------

def test_nesting_fails_on_perturbed_welfare():
    assert failed(checks.nesting(2.0, 1.9, 1.8)) == []
    assert failed(checks.nesting(2.0, 2.0 + 1e-6)) == ["nest.part_le_fb"]
    assert failed(checks.nesting(2.0, 1.9, 1.9 + 1e-6)) == ["nest.ic_le_part"]


def test_feasible_fails_on_infeasible_mechanism(lmh):
    sol = upkeep.solve_participation(lmh, 5.5)
    assert checks.feasible("p", sol.mechanism, lmh, 5.5, checks.PART_FAMILIES)[1]
    m = sol.mechanism
    unbalanced = Mechanism(Q=m.Q, R=m.R, P={k: 0.5 * v for k, v in m.P.items()})
    assert not checks.feasible("p", unbalanced, lmh, 5.5, checks.PART_FAMILIES)[1]
    # Charging L its full downtime breaks participation but keeps the box.
    greedy = Mechanism(Q=m.Q, R=m.R, P={**m.P, "L": 1.0 - m.Q})
    assert not checks.feasible("p", greedy, lmh, 5.5, {"participation"})[1]


def test_screening_feasibility_fails_on_misreport(lmh):
    sol = upkeep.solve_screening(lmh, 5.5)
    assert checks.feasible("ic", sol.mechanism, lmh, 5.5, checks.IC_FAMILIES)[1]
    m = sol.mechanism
    # Give the cheapest-to-serve type a free ride: others now want its bundle.
    free = Mechanism(Q=m.Q, R={**m.R, "L": m.Q}, P={**m.P, "L": 0.0})
    assert not checks.feasible("ic", free, lmh, 5.5, {"ic"})[1]


def test_oracle_checks_fail_outside_tolerance(lmh):
    assert checks.agrees("x", 1.0, 1.0 + 0.9e-3, 1e-3)[1]
    assert not checks.agrees("x", 1.0, 1.0 + 1.1e-3, 1e-3)[1]
    fb = upkeep.solve_first_best(lmh, 5.5)
    part = upkeep.solve_participation(lmh, 5.5)
    assert failed(checks.primal_agreement(lmh, 5.5, fb, part)) == []
    off = dataclasses.replace(fb, W_fb=fb.W_fb + 0.01)
    assert failed(checks.primal_agreement(lmh, 5.5, off, part)) == ["primal.first_best"]


def test_menu_check_scales_and_fails():
    vals = [(0.5, 1.0, 0.5), (1.0, 0.5, -1.0), (2.0, 0.2, 1.0), (2.5, 1.0, 0.3)]
    value = upkeep.bounded_monopoly_solve(vals).value
    oracle = upkeep.menu_grid_oracle(vals, 1.0, 1e-3)
    assert checks.menu_agrees(vals, value, oracle)[1]
    assert not checks.menu_agrees(vals, value + 0.1, oracle)[1]


def _sweep_run(tmp_path, d):
    path = tmp_path / "t.csv"
    workloads.write_table(path, d)
    m = d.total_mass
    argv = ["--mode", "sweep", "--ic", "--input", str(path), "--rho-grid", f"{0.2 * m!r}:{5 * m!r}:2:log"]
    item = workloads.Item(Shape(3, FIN), d, 0.2 * m, {"argv": argv, "rhos": [0.2 * m, 5 * m]})
    return item, workloads._run_sweep(item)


def test_sweep_checks_fail_on_bad_output(tmp_path, lmh):
    item, (code, text) = _sweep_run(tmp_path, lmh)
    rhos = item.extra["rhos"]
    assert failed(checks.sweep_output(code, text, lmh, rhos)) == []
    assert "cli.exit" in failed(checks.sweep_output(3, text, lmh, rhos))
    lines = text.splitlines()
    assert "cli.rows" in failed(checks.sweep_output(code, "\n".join(lines[:-1]), lmh, rhos))
    cells = lines[1].split(",")
    w_fb = cells[3]
    cells[3] = upkeep.cli.fmt(float(w_fb) + 1e-3)
    bad_fb = "\n".join([lines[0], ",".join(cells)] + lines[2:])
    assert failed(checks.sweep_output(code, bad_fb, lmh, rhos)) == ["cli.columns"]
    cells[3] = w_fb
    cells[9] = upkeep.cli.fmt(float(cells[6]) + 1e-6)
    bad_ic = "\n".join([lines[0], ",".join(cells)] + lines[2:])
    assert failed(checks.sweep_output(code, bad_ic, lmh, rhos)) == ["nest.ic_le_part"]


def test_admissibility_check_fails_on_flag(lmh):
    mech = upkeep.solve_participation(lmh, 5.5).mechanism
    stats = upkeep.simulate_fluid(upkeep.build_policy(mech), lmh, upkeep.PhysicalParams(5.5), 50.0, 1)
    assert checks.admissible("fluid", stats)[1]
    adm = dataclasses.replace(stats.admissibility, contribution_only_while_broken=False)
    bad: SimStats = dataclasses.replace(stats, admissibility=adm)
    assert not checks.admissible("fluid", bad)[1]


# --- instances ---------------------------------------------------------------

def test_instances_depend_on_seed_only(tmp_path):
    wl = workloads.WORKLOADS["verify"]
    a = wl.items(7, 1, tmp_path)
    b = wl.items(7, 1, tmp_path)
    c = wl.items(8, 1, tmp_path)
    assert [(i.d, i.rho, i.extra) for i in a] == [(i.d, i.rho, i.extra) for i in b]
    assert [i.d for i in a] != [i.d for i in c]


def test_degenerate_kinds():
    rng = workloads.np.random.default_rng(3)
    tied = workloads.draw_types(rng, 4, "tied_cost").types
    assert tied[0].c == tied[1].c
    tied = workloads.draw_types(rng, 4, "tied_nu").types
    assert tied[0].nu == tied[1].nu
    assert workloads.draw_types(rng, 4, "zero_mass").types[0].mass == 0.0


def test_table_round_trips(tmp_path):
    d = workloads.draw_types(workloads.np.random.default_rng(5), 6)
    workloads.write_table(tmp_path / "t.csv", d)
    assert upkeep.cli.parse_types((tmp_path / "t.csv").read_text()) == d


# --- tracing -------------------------------------------------------------------

def test_union_length_and_tail():
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == 3.5
    assert tracing.tail([1.0] * 5) == (1.0, 100.0, 5)
    xs = [float(i) for i in range(1, 101)]
    assert tracing.tail(xs) == (90.0, 90.0, 100)
    assert tracing.tail(xs[:15]) == (8.0, 800.0 / 15, 15)
    assert tracing.tail(xs[:12]) == (7.0, 700.0 / 12, 12)


def test_install_restores_originals():
    before = (upkeep.cli.main, upkeep.screening.bounded_monopoly_solve, upkeep.solve_screening)
    restore = tracing.Tracer().install()
    try:
        assert upkeep.cli.main is not before[0]
        assert upkeep.screening.bounded_monopoly_solve is not before[1]
    finally:
        restore()
    assert (upkeep.cli.main, upkeep.screening.bounded_monopoly_solve, upkeep.solve_screening) == before


def test_worker_spans_nest_under_cli(tmp_path, lmh):
    item, _ = _sweep_run(tmp_path, lmh)
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        code, _ = tracer.span("item", workloads._run_sweep, item)
    finally:
        restore()
    assert code == 0
    by_id = {s.sid: s for s in tracer.spans}
    (cli,) = [s for s in tracer.spans if s.name == "cli"]
    assert by_id[cli.parent].name == "item"
    solves = [s for s in tracer.spans if s.name in ("first_best", "participation", "screening")]
    assert len(solves) == 6 and all(s.parent == cli.sid for s in solves)
    inner = [s for s in tracer.spans if s.name == "monopoly"]
    assert inner and all(by_id[s.parent].name == "screening" for s in inner)
    m = tracing.layer_metrics(tracer.spans, (0, 0))
    assert m["cli.workers"] == min(2, int(os.environ.get("UPKEEP_THREADS") or os.cpu_count()))
    assert 0.0 <= m["cli.self_s"] < m["cli.busy_s"]


def test_traced_counts_repeat_exactly(tmp_path):
    base = workloads.WORKLOADS["verify"]
    tiny = Workload("tiny", "", (Shape(2, FIN), Shape(3, INF, "zero_mass")),
                    base.make, base.run, base.check)
    counted = [k for k in tracing.layer_metrics([], (0, 0)) if k.endswith((".calls", ".breaks"))]
    seen = []
    for _ in range(2):
        items = tiny.items(11, 1, tmp_path)
        tracer = tracing.Tracer()
        plain, traced = run.run_paired(tiny, items, 1, tracer)
        assert plain.failed == traced.failed == 0
        m = tracing.layer_metrics(tracer.spans, (traced.oracle_agree, traced.oracle_compared))
        seen.append({k: m[k] for k in counted + ["screening.inner_calls_per_solve"]})
    assert seen[0] == seen[1]
    assert seen[0]["sim.poisson.breaks"] > 0 and seen[0]["monopoly.calls"] > 0


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads((out.stdout.strip().splitlines() or [""])[-1])


# part-scale stays runnable by hand; the benchmark's time limit holds two
# workloads at a run length that keeps them steady.
LISTED = ("sweep-ic", "verify")


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w for w in workloads.WORKLOADS if w in LISTED]
    e2e, _ = run.end_to_end([1.0], run.Tally(latencies=[0.5] * 12, wall=[0.6] * 12, slow=[1.2] * 12))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    layer = list(tracing.layer_metrics([], (0, 0))) + ["trace.overhead_frac"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, run.layer_unit(k)) for k in layer]


def test_raising_item_or_check_counts_as_failed():
    def boom(item):
        raise RuntimeError("solver blew up")

    tally = run.Tally()
    run.run_item(Workload("boom", "", (), None, boom, None), None, tally)
    run.run_item(Workload("bad", "", (), None, lambda item: None, lambda item, out: 1 / 0), None, tally)
    assert tally.failed == 2 and len(tally.latencies) == 2


def test_unlisted_part_scale_still_runs_and_checks(tmp_path):
    base = workloads.WORKLOADS["part-scale"]
    small = dataclasses.replace(base, pattern=(Shape(40, FIN), Shape(60, INF)))
    tally = run.run_items(small, small.items(3, 1, tmp_path), 0.0)
    assert tally.failed == 0 and len(tally.latencies) == 2


# --- reference speed -------------------------------------------------------------

def test_slowdown_probes_every_core_and_restores_affinity():
    cores = os.sched_getaffinity(0)
    assert hostspeed.slowdown() > 0.0
    assert hostspeed.slowdown(all_cores=True) > 0.0
    assert os.sched_getaffinity(0) == cores


def test_times_are_divided_by_the_slowdown():
    assert hostspeed.at_reference_speed(2.0, 1.0, 0.5) == 2.0
    assert hostspeed.at_reference_speed(2.0, 16.0, 0.5) == 0.5
    tally = run.Tally(sensitivity=0.5)
    tally.record(2.0, 16.0, [])
    assert tally.wall == [2.0] and tally.latencies == [0.5]
    assert tally.items_per_s == 1.0 / tally.latencies[0]


def test_run_stops_before_a_pass_that_would_overrun(monkeypatch):
    monkeypatch.setattr(run, "slowdown", lambda all_cores=False: 1.0)
    nap = lambda item: run.time.sleep(0.05)  # noqa: E731
    wl = Workload("slow", "", (Shape(2, FIN),), None, nap, lambda item, out: [])
    tally = run.run_items(wl, [None] * 40, 0.12)
    assert tally.passes == 2 and len(tally.latencies) == 2
    assert run.run_items(wl, [None] * 40, 0.0).passes == 1
