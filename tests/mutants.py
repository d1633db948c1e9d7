"""Named mutations of the program, and the tests that must catch them.

Each entry names a file, an exact old text in it, the new text that
replaces it, and the ids of the tests that must each fail under it (an
id without parameters stands for all of its parametrizations).  pytest
does not collect this file; tests/test_mutants.py checks that every old
text occurs exactly once, so code that moves takes its mutants with it.
EQUIVALENT lists the mutations that change no behaviour, each with the
reason no test can catch it; they are checked the same way but not run.

Run from the repository root:

    python tests/mutants.py

First every mutant's tests run once on an unmutated copy of the tree,
under a wall budget of BUDGET_S: a test that already fails there would
read as a catch, so if any fails or times out the runner prints the
failing ids and exits 1.  Then, for each mutant, the tree is copied to
a temporary directory, the mutation applied there, and the mutant's
tests run under the same budget.  Each line reads caught, survived or
timed out, with the wall time; a time-out is not a catch.  The exit
status is 0 only if every mutant is caught.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 120.0


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "balanced scan by argmax",
        "src/upkeep/envelope.py",
        "    best = rows[0]\n"
        "    for i in rows[1:]:\n"
        "        if W[i] > W[best] + eps_bal:\n"
        "            best = i\n",
        "    best = rows[W[rows].argmax()]\n",
        (
            "tests/test_identity.py::test_solutions_are_bit_identical[participation/integer]",
            "tests/test_envelope.py::test_solve_at_scans_balanced_rows_kink_by_kink",
        ),
    ),
    Mutant(
        "participation scan keeps the limit row",
        "src/upkeep/participation.py",
        "scan = np.s_[:-1, -1]",
        "scan = np.s_[:, -1]",
        ("tests/test_envelope.py::test_solve_at_never_returns_the_limit_row",),
    ),
    Mutant(
        "flat tables' scan keeps the limit row",
        "src/upkeep/envelope.py",
        "scan = np.s_[:-1]",
        "scan = np.s_[:]",
        ("tests/test_envelope.py::test_solve_at_never_returns_the_limit_row",),
    ),
    Mutant(
        "float pivot keeps the pivot row's factor",
        "src/upkeep/oracle.py",
        "            fc[row] = 0.0\n",
        "",
        (
            "tests/test_acceptance.py::test_criterion_3_screening_golden",
            "tests/test_oracle.py::test_simplex_matches_the_tableau_reference",
        ),
    ),
    Mutant(
        "Fraction pivot row over cols[:-1]",
        "src/upkeep/oracle.py",
        "T[row, cols] /= T[row, col]",
        "T[row, cols[:-1]] /= T[row, col]",
        ("tests/test_oracle.py::test_simplex_matches_the_tableau_reference",),
    ),
    Mutant(
        "Fraction pivot row over cols[1:]",
        "src/upkeep/oracle.py",
        "T[row, cols] /= T[row, col]",
        "T[row, cols[1:]] /= T[row, col]",
        ("tests/test_oracle.py::test_simplex_matches_the_tableau_reference",),
    ),
    Mutant(
        "breaks window slice from the right",
        "src/upkeep/sim.py",
        "i = breaks.searchsorted(w_start)",
        'i = breaks.searchsorted(w_start, side="right")',
        ("tests/test_sim.py::test_events_at_the_window_start_are_inside_it",),
    ),
    Mutant(
        "first best without the atom snap",
        "src/upkeep/participation.py",
        "y = _snapped(float(((d.u_bar + C) / (M + rho)).min()), d)",
        "y = float(((d.u_bar + C) / (M + rho)).min())",
        ("tests/test_first_best.py::test_own_finish_matches_participations_finish",),
    ),
    Mutant(
        "first best's column by bisect_right",
        "src/upkeep/participation.py",
        "fa = M.item(bisect_left([t.c for t in by_cost], y))",
        "fa = M.item(bisect_right([t.c for t in by_cost], y))",
        (
            "tests/test_first_best.py::test_own_finish_matches_participations_finish",
            "tests/test_identity.py::test_solutions_are_bit_identical[first_best/integer]",
        ),
    ),
    Mutant(
        "first best takes the full prefix's crossing",
        "src/upkeep/participation.py",
        "((d.u_bar + C) / (M + rho)).min()",
        "((d.u_bar + C) / (M + rho))[-1]",
        (
            "tests/test_first_best.py::test_first_best_is_scale_free",
            "tests/test_first_best.py::test_first_best_threshold_is_the_exact_minimum",
        ),
    ),
    Mutant(
        "limit row stored with cut n",
        "src/upkeep/screening.py",
        "limit = np.array([last, 0, -1, 0, 0, n], dtype)",
        "limit = np.array([last, 0, -1, n, 0, n], dtype)",
        ("tests/test_screening.py::test_limit_row_names_free_full_access",),
    ),
    Mutant(
        "row 0 stored with cut 0",
        "src/upkeep/screening.py",
        "np.array([0, 0, -1, n, n, n], dtype)",
        "np.array([0, 0, -1, 0, 0, n], dtype)",
        ("tests/test_screening.py::test_row_0_names_the_free_posted_price_nobody_takes",),
    ),
    Mutant(
        "near ties merged",
        "src/upkeep/screening.py",
        "last = nu[:-1] != nu[1:]",
        "last = nu[1:] - nu[:-1] > 1e-12 * np.maximum(1.0, nu[:-1])",
        ("tests/test_screening.py::test_a_tie_group_scores_as_one_type",),
    ),
    Mutant(
        "rank by sorted type, not by group",
        "src/upkeep/screening.py",
        "rank=nu.searchsorted([t.nu for t in d.types])",
        'rank=np.argsort([t.nu for t in d.types], kind="stable").argsort()',
        ("tests/test_screening.py::test_a_tie_group_scores_as_one_type",),
    ),
    Mutant(
        "solve_screening accepts rho = 0",
        "src/upkeep/screening.py",
        "if not (math.isfinite(rho) and rho > 0):",
        "if not (math.isfinite(rho) and rho >= 0):",
        ("tests/test_screening.py::test_solvers_reject_invalid_rho[0.0-solve_screening]",),
    ),
    Mutant(
        "final menu read from the previous kink's pads",
        "src/upkeep/screening.py",
        "low = tab.pad.item(k, lo)",
        "low = tab.pad.item(k - 1, lo)",
        ("tests/test_screening.py::test_kink_table_matches_inner_solve_and_menus",),
    ),
    Mutant(
        "final menu without its [top0, cut) top-tier segment",
        "src/upkeep/screening.py",
        "bundle[:, top0:cut] = bundle[:, top1:] = 1.0",
        "bundle[:, top1:] = 1.0",
        ("tests/test_screening.py::test_kink_table_matches_inner_solve_and_menus",),
    ),
    Mutant(
        "slack written into rev",
        "src/upkeep/envelope.py",
        "return np.subtract(self.rev, S, out=S)",
        "return np.subtract(self.rev, S, out=self.rev)",
        (
            "tests/test_sweep.py::test_sweep_equals_independent_solves",
            "tests/test_screening.py::test_final_menus_are_read_from_the_stored_cuts",
        ),
    ),
    Mutant(
        "sweep solves screening per rho",
        "src/upkeep/cli.py",
        "line, y, _ = _screening_core(ic_table, d, rho)",
        "line, y, _ = _screening_core(_kink_table(d), d, rho)",
        ("tests/test_sweep.py::test_sweep_builds_each_table_once",),
    ),
    Mutant(
        "Poisson engine passes no positions",
        "src/upkeep/sim.py",
        "breaks, fix_times, times[used], starts_working, positions=(pos, fix)",
        "breaks, fix_times, times[used], starts_working",
        ("tests/test_sim.py::test_tied_stream_flags_fail_when_a_break_may_precede_its_fix",),
    ),
    Mutant(
        "walk stops on a pair member's index",
        "src/upkeep/envelope.py",
        "or g in (values.item(pos), values.item(neg)):",
        "or top in (pos, neg):",
        ("tests/test_envelope.py::test_walk_stops_on_a_repeated_limit_line",),
    ),
    Mutant(
        "sweep prints the pos line's W, not the mix's",
        "src/upkeep/screening.py",
        "line = _mix(line, b, 1e-12 * scale, d, rho)",
        "line = _mix(line, b, 1e-12 * scale, d, rho)._replace(W=line.W)",
        (
            "tests/test_cli.py::test_readme_commands_print_pinned_bytes",
            "tests/test_identity.py::test_solutions_are_bit_identical[screening/plain]",
            "tests/test_sweep.py::test_sweep_welfare_matches_the_exact_oracles",
        ),
    ),
    Mutant(
        "participation labels every type FULL",
        "src/upkeep/participation.py",
        '            "NONE" if p == 0.0\n'
        '            else "MARGINAL" if s < 1.0\n'
        '            else "FULL" if Q >= 1.0 / (1.0 + t.nu)\n'
        '            else "BOUND"\n',
        '            "FULL"\n',
        (
            "tests/test_participation.py::test_classes_read_from_each_types_share",
            "tests/test_acceptance.py::test_criterion_2_participation_golden",
        ),
    ),
    Mutant(
        "oracle slack loosened to 1e-6",
        "src/upkeep/oracle.py",
        "_SLACK = 1e-13 ",
        "_SLACK = 1e-6 ",
        (
            "tests/test_oracle.py::test_screening_oracle_is_exact",
            "tests/test_oracle.py::test_inexact_screening_lps_are_solved_exactly",
        ),
    ),
    Mutant(
        "float simplex refuses no infeasible point",
        "src/upkeep/oracle.py",
        "    if not worst <= 1e-6 * np.abs(b_ub).max(initial=1.0):\n",
        "    if False:\n",
        (
            "tests/test_oracle.py::test_simplex_matches_the_tableau_reference",
            "tests/test_oracle.py::test_inexact_screening_lps_are_solved_exactly",
        ),
    ),
    Mutant(
        "Poisson break searched from its fixing arrival",
        "src/upkeep/sim.py",
        "c = bisect_left(ct, ct[c] + life, c + 1)",
        "c = bisect_left(ct, ct[c] + life, c)",
        ("tests/test_sim.py::test_tied_stream_flags_fail_when_a_break_may_precede_its_fix",),
    ),
    Mutant(
        "admissibility without the alternation test",
        "src/upkeep/sim.py",
        "    if not ((breaks[:nf] <= fixes).all() and (fixes[: nb - 1] <= breaks[1:]).all()):\n"
        "        return False, False\n",
        "",
        ("tests/test_sim.py::test_admissibility_fails_on_corrupted_events",),
    ),
    Mutant(
        "oracle accepts every float answer",
        "src/upkeep/oracle.py",
        "        return max(residual.max(), -x.min()) <= _SLACK * max(1.0, b_ub.max())",
        "        return True",
        (
            "tests/test_oracle.py::test_inexact_screening_lps_are_solved_exactly",
            "tests/test_oracle.py::test_singular_basis_falls_back_to_the_exact_solve",
        ),
    ),
    Mutant(
        "posted prices at every valuation",
        "src/upkeep/screening.py",
        "kp, lp = (pad <= 1.0).nonzero()",
        "kp, lp = (pad >= 0.0).nonzero()",
        ("tests/test_screening.py::test_posted_prices_run_over_the_valuations_up_to_1",),
    ),
    Mutant(
        "a buyer tied with a free bundle takes it",
        "src/upkeep/screening.py",
        "np.where(pay > 0.0, low - slack, low + slack)",
        "np.where(pay >= 0.0, low - slack, low + slack)",
        ("tests/test_screening.py::test_a_buyer_within_tolerance_of_a_free_bundle_opts_out",),
    ),
    Mutant(
        "walk stops only strictly inside its tolerance",
        "src/upkeep/envelope.py",
        "if g <= v + 1e-12 * max(1.0, abs(v))",
        "if g < v + 1e-12 * max(1.0, abs(v))",
        ("tests/test_envelope.py::test_walk_stops_within_its_tolerance_of_the_crossing",),
    ),
    Mutant(
        "infinite branch scans only slack strictly inside eps_bal",
        "src/upkeep/envelope.py",
        "(np.abs(S[lines.scan]) <= eps_bal)",
        "(np.abs(S[lines.scan]) < eps_bal)",
        ("tests/test_envelope.py::test_solve_at_scans_rows_with_slack_exactly_eps_bal",),
    ),
    Mutant(
        "mix of a member with slack exactly eps_bal",
        "src/upkeep/screening.py",
        "if abs(heavy.S) <= eps_bal:",
        "if abs(heavy.S) < eps_bal:",
        ("tests/test_screening.py::test_a_member_with_slack_exactly_eps_bal_stands_alone",),
    ),
    Mutant(
        "valuations exactly 1e-12 apart not tied",
        "src/upkeep/screening.py",
        "tied = b.nu - a.nu <= 1e-12 * max(1.0, a.nu)",
        "tied = b.nu - a.nu < 1e-12 * max(1.0, a.nu)",
        ("tests/test_screening.py::test_verify_structure_ties_valuations_exactly_1e_12_apart",),
    ),
    Mutant(
        "two-atom menus dropped",
        "src/upkeep/screening.py",
        "(pad > 1.0)[:, None, :]",
        "(pad > 9e99)[:, None, :]",
        ("tests/test_screening.py::test_kink_table_matches_inner_solve_and_menus",),
    ),
    Mutant(
        "sweep builds the screening mechanism",
        "src/upkeep/screening.py",
        "    return line, y, steps\n",
        "    Mechanism(Q=line.Q, R={}, P={})\n    return line, y, steps\n",
        ("tests/test_sweep.py::test_sweep_builds_no_screening_mechanism_or_labels",),
    ),
    Mutant(
        "balanced scan takes a row exactly eps_bal better",
        "src/upkeep/envelope.py",
        "W[i] > W[best] + eps_bal",
        "W[i] >= W[best] + eps_bal",
        ("tests/test_envelope.py::test_solve_at_scans_balanced_rows_kink_by_kink",),
    ),
    Mutant(
        "a crossing exactly ATOM_SNAP from a cost not snapped",
        "src/upkeep/participation.py",
        "if abs(t.c - y) <= ATOM_SNAP * max(1.0, t.c):",
        "if abs(t.c - y) < ATOM_SNAP * max(1.0, t.c):",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[snap]",),
    ),
    Mutant(
        "a residual without the threshold's types exactly eps not balanced",
        "src/upkeep/participation.py",
        "if rm[k] <= eps)",
        "if rm[k] < eps)",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[without]",),
    ),
    Mutant(
        "a residual with the threshold's types exactly eps not a full share",
        "src/upkeep/participation.py",
        "if abs(r_with) <= eps:",
        "if abs(r_with) < eps:",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[with]",),
    ),
    Mutant(
        "residuals exactly eps apart balanced",
        "src/upkeep/participation.py",
        "if gap > eps else 0.0",
        "if gap >= eps else 0.0",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[gap]",),
    ),
    Mutant(
        "left atom, not the lowest",
        "src/upkeep/participation.py",
        "i = int(V.max(axis=0).argmin())",
        "i = max(int(V.max(axis=0).argmin()) - 1, 0)",
        (
            "tests/test_acceptance.py::test_criterion_2_participation_golden",
            "tests/test_acceptance.py::test_criterion_4_threshold_inequality",
            "tests/test_acceptance.py::test_criterion_7_oracle_equivalence",
            "tests/test_acceptance.py::test_criterion_8_tail_sweeps",
            "tests/test_participation.py::test_participation_threshold_is_the_exact_minimum",
        ),
    ),
    Mutant(
        "pair rule drops S = 0 lines",
        "src/upkeep/participation.py",
        "    neg = next(r for r, x in enumerate(s) if x < 0.0)\n",
        "    neg = next(r for r, x in enumerate(s) if r and x <= 0.0)\n",
        (
            "tests/test_identity.py::test_solutions_are_bit_identical[participation/integer]",
            "tests/test_participation.py::test_participation_threshold_is_the_exact_minimum",
        ),
    ),
    Mutant(
        "balanced kink interpolated",
        "src/upkeep/participation.py",
        "if k > first and abs(rm[k]) > eps:",
        "if k > first:",
        ("tests/test_participation.py::test_uptime_lands_on_the_pair_kink",),
    ),
    Mutant(
        "a kink's residual exactly eps from 0 interpolated",
        "src/upkeep/participation.py",
        "if k > first and abs(rm[k]) > eps:",
        "if k > first and abs(rm[k]) >= eps:",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[kink]",),
    ),
    Mutant(
        "a row exactly 1e-12 relative below the atom's top value not on top",
        "src/upkeep/participation.py",
        "if x >= best - 1e-12 * abs(best)]",
        "if x > best - 1e-12 * abs(best)]",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[top]",),
    ),
    Mutant(
        "a top row with slack exactly 0 with the atom's types not pos",
        "src/upkeep/participation.py",
        "if sp[r] >= 0.0), None)",
        "if sp[r] > 0.0), None)",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[top]",),
    ),
    Mutant(
        "pos widened past row 0",
        "src/upkeep/participation.py",
        "while pos > 0 and",
        "while pos >= 0 and",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[atom]",),
    ),
    Mutant(
        "a row exactly on the widening tolerance not widened to, below",
        "src/upkeep/participation.py",
        "and u[pos - 1] >= low:",
        "and u[pos - 1] > low:",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[atom]",),
    ),
    Mutant(
        "a row exactly on the widening tolerance not widened to, above",
        "src/upkeep/participation.py",
        "and u[neg + 1] >= low:",
        "and u[neg + 1] > low:",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[atom]",),
    ),
    Mutant(
        "a crossing exactly on the atom taken as past it",
        "src/upkeep/participation.py",
        "if lo < x < hi else",
        "if lo <= x < hi else",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[atom]",),
    ),
    Mutant(
        "slack exactly on the branch tolerance takes the finite branch",
        "src/upkeep/participation.py",
        "if S[:, -1].max() > DEFAULT_TOL * scale:",
        "if S[:, -1].max() >= DEFAULT_TOL * scale:",
        ("tests/test_participation.py::test_a_value_exactly_on_its_tolerance_is_within_it[branch]",),
    ),
    Mutant(
        "branch test keeps the floor",
        "src/upkeep/participation.py",
        "if S[:, -1].max() > DEFAULT_TOL * scale:",
        "if S[:, -1].max() > DEFAULT_TOL * max(1.0, scale):",
        (
            "tests/test_participation.py::test_participation_is_scale_free",
            "tests/test_participation.py::test_tiny_masses_balance_relative_to_rho",
            "tests/test_participation.py::test_participation_threshold_is_the_exact_minimum",
        ),
    ),
)


class Equivalent(NamedTuple):
    """A mutation that changes no behaviour, and why; tests/test_mutants.py
    checks that its old text occurs exactly once, as for a Mutant."""

    name: str
    path: str
    old: str
    new: str
    reason: str


EQUIVALENT = (
    Equivalent(
        "final menu's posted-price test admits hi = 0",
        "src/upkeep/screening.py",
        "if hi < 0 else",
        "if hi <= 0 else",
        "pad column 0 is 0 at every kink and high atoms exceed 1, so no row stores hi = 0",
    ),
    Equivalent(
        "a crossing exactly on the far bound taken as inside",
        "src/upkeep/participation.py",
        "if lo < x < hi else",
        "if lo < x <= hi else",
        "hi is the next atom or inf (right) or y (left), and the dual there is read off the "
        "crossing column: a crossing on it would make the next atom lower than y, or put both "
        "rows of the pair on top at y, where the dual then falls on neither side",
    ),
)


def _failed_ids(output: str) -> set[str]:
    """The ids on the FAILED and ERROR lines of pytest's short summary."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE))


def _caught(test_id: str, failed: set[str]) -> bool:
    return test_id in failed or any(f.startswith(test_id + "[") for f in failed)


def _pytest(tests: tuple[str, ...], m: Mutant | None = None) -> tuple[int | None, str, float]:
    """(exit status, or None on a time-out; output; wall seconds) of
    pytest on tests in a fresh copy of the tree, mutated by m if given."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        if m is not None:
            target = tree / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                raise ValueError(f"{m.name}: old text occurs {text.count(m.old)} times in {m.path}")
            target.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests]
        start = time.perf_counter()
        # A session of its own, so that a time-out also stops what the
        # tests started.
        proc = subprocess.Popen(
            cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            output, _ = proc.communicate()
            return None, output, time.perf_counter() - start
        return proc.returncode, output, time.perf_counter() - start


def run(m: Mutant) -> tuple[str, float]:
    """('caught' | 'survived' | 'timed out', wall seconds) of one mutant,
    run in a fresh copy of the tree."""
    status, output, wall = _pytest(m.tests, m)
    if status is None:
        return "timed out", wall
    failed = _failed_ids(output)
    return ("caught" if all(_caught(t, failed) for t in m.tests) else "survived"), wall


def main() -> int:
    # Every named test must pass unmutated, or its failure proves no catch.
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    status, output, wall = _pytest(tests)
    if status != 0:
        verdict = "timed out" if status is None else "failed"
        print(f"{verdict:<9}  {wall:6.1f} s of {BUDGET_S:.0f}  unmutated tree", flush=True)
        print(*(sorted(_failed_ids(output)) or [output]), sep="\n")
        return 1
    print(f"{'passed':<9}  {wall:6.1f} s of {BUDGET_S:.0f}  unmutated tree", flush=True)
    ok = True
    for m in MUTANTS:
        verdict, wall = run(m)
        ok &= verdict == "caught"
        print(f"{verdict:<9}  {wall:6.1f} s of {BUDGET_S:.0f}  {m.name}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
