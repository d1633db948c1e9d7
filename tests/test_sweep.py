"""A sweep builds each solver's line table once per distribution and solves
every grid point from it; it must give what independent solves give."""

import dataclasses
import math
from collections.abc import Mapping

import numpy as np
import pytest

import upkeep.cli
import upkeep.participation
import upkeep.screening
from upkeep import (
    lp_screening_welfare,
    primal_grid_welfare,
    solve_first_best,
    solve_participation,
    solve_screening,
)
from upkeep.cli import ORACLE_TOL, RhoGrid, fmt, main
from conftest import KINDS, kinded_distribution


def _hexed(x):
    """x with every float as its hex string, dataclasses as dicts."""
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return {f.name: _hexed(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, Mapping):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_hexed(v) for v in x]
    return x


def _corpus():
    """(distribution, log grid of rho): the four kinds at n = 2-48 with
    six points each and at n = 96 with three, from about 1e-3 to 1e3
    times the total mass."""
    rng = np.random.default_rng(191)
    for kind in KINDS:
        for n in [*range(2, 49), 96]:
            d = kinded_distribution(rng, kind, n)
            lo, hi = d.total_mass * 10.0 ** rng.uniform([-3.0, 2.5], [-2.5, 3.0])
            yield d, RhoGrid(float(lo), float(hi), 3 if n > 48 else 6, log=True)


def test_sweep_equals_independent_solves(monkeypatch):
    # Record what the sweep solved at each grid point: first best's and
    # participation's solutions and screening's core.
    seen = []

    def recording(name):
        solve_at = getattr(upkeep.cli, name)

        def recorded(*args):
            seen.append(solve_at(*args))
            return seen[-1]

        return recorded

    for name in ("solve_first_best", "_participation_at", "_screening_core"):
        monkeypatch.setattr(upkeep.cli, name, recording(name))

    pairs = 0
    infinite = {"participation": 0, "screening": 0}
    for d, grid in _corpus():
        seen.clear()
        lines = upkeep.cli._run_sweep(d, grid, True)
        rows = [lines[0]]
        for k, rho in enumerate(grid.values()):
            fb = solve_first_best(d, rho)
            part = solve_participation(d, rho)
            ic = solve_screening(d, rho)
            got_fb, got_part, got_ic = seen[3 * k : 3 * k + 3]
            assert _hexed(got_fb) == _hexed(fb)
            assert _hexed(got_part) == _hexed(part)
            line, y, steps = got_ic
            ids = d.ids
            assert _hexed([y, line.Q, line.W, line.R, line.P, steps]) == _hexed(
                [ic.y_star, ic.Q_star, ic.W_star, [ic.mechanism.R[i] for i in ids],
                 [ic.mechanism.P[i] for i in ids], ic.iterations]
            )
            cells = [rho, fb.y_fb, fb.Q_fb, fb.W_fb, part.y_star, part.Q_star, part.W_star]
            cells += [ic.y_star, ic.Q_star, ic.W_star]
            rows.append(",".join(map(fmt, cells)))
            infinite["participation"] += math.isinf(part.y_star)
            infinite["screening"] += math.isinf(ic.y_star)
            pairs += 1
        assert lines == rows
    assert pairs >= 1000
    # Both dual branches occur, each on a good share of the corpus.
    assert all(pairs // 10 < count < pairs - pairs // 10 for count in infinite.values())


def test_sweep_welfare_matches_the_exact_oracles():
    # The sweep and the public solves share each per-rho core, so an error
    # in a core escapes test_sweep_equals_independent_solves.  Each printed
    # W is checked against an exact oracle instead, at the CLI's tolerance.
    rows = 0
    for d, grid in _corpus():
        if len(d.types) > 8:
            continue
        lines = upkeep.cli._run_sweep(d, grid, True)
        for rho, line in zip(grid.values(), lines[1:]):
            cells = [float(x) for x in line.split(",")]
            for w, oracle in (
                (cells[3], primal_grid_welfare(d, rho, "first_best")[0]),
                (cells[6], primal_grid_welfare(d, rho, "participation")[0]),
                (cells[9], lp_screening_welfare(d, rho)[0]),
            ):
                assert abs(w - oracle) <= ORACLE_TOL * max(1.0, abs(w))
            rows += 1
    assert rows == 168


def test_sweep_builds_each_table_once(tmp_path, monkeypatch):
    builds = {}

    def counted(module, name):
        build = getattr(module, name)

        def count(*args, **kwargs):
            builds[name] = builds.get(name, 0) + 1
            return build(*args, **kwargs)

        # The CLI's own reference and the one the public solvers use.
        monkeypatch.setattr(upkeep.cli, name, count)
        monkeypatch.setattr(module, name, count)

    counted(upkeep.participation, "_kink_lines")
    counted(upkeep.screening, "_kink_table")
    path = tmp_path / "types.csv"
    path.write_text("id,u,c,mass\nL,3,3,1\nM,4,2,1\nH,10,1.25,1\n")
    out = tmp_path / "sweep.csv"
    argv = ["--mode", "sweep", "--ic", "--input", str(path), "--rho-grid", "0.01:100:16:log"]
    assert main([*argv, "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 17
    # One table each for participation and screening; first best has none.
    assert builds == {"_kink_lines": 1, "_kink_table": 1}


def test_sweep_builds_no_screening_mechanism_or_labels(monkeypatch):
    # A row prints only y, Q and W, so the sweep never builds a screening
    # mechanism or tier, on either branch.  (Participation's classes cost
    # little and come with its solve.)
    def forbidden(*args, **kwargs):
        raise AssertionError("a mechanism or label built on the sweep path")

    monkeypatch.setattr(upkeep.screening, "Mechanism", forbidden)
    monkeypatch.setattr(upkeep.screening, "MenuTier", forbidden)
    for d, grid in _corpus():
        assert len(upkeep.cli._run_sweep(d, grid, True)) == grid.count + 1
    # The public solve still builds both, through the patched names.
    with pytest.raises(AssertionError, match="a mechanism or label built"):
        solve_screening(d, grid.values()[0])
