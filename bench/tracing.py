"""Span recording for the traced run, and the per-layer metrics derived
from the spans.

Tracing replaces public names in the package's module namespaces with
wrappers that record a span per call; ``install`` returns a function
that puts the originals back, so the untraced run executes unpatched
code. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import threading
import time
from pathlib import Path
from typing import Callable

import upkeep
import upkeep.cli
import upkeep.screening

# Span name for each wrapped function, and what to keep from its result.
LAYERS = {
    "main": "cli",
    "solve_first_best": "first_best",
    "solve_participation": "participation",
    "solve_screening": "screening",
    "bounded_monopoly_solve": "monopoly",
    "primal_grid_welfare": "oracle.grid",
    "lp_screening_welfare": "oracle.lp",
    "menu_grid_oracle": "oracle.menu",
    "build_policy": "sim.policy",
    "simulate_poisson": "sim.poisson",
    "simulate_fluid": "sim.fluid",
    "check_reduced_form": "sim.check",
}
_NOTE: dict[str, Callable] = {
    "screening": lambda s: s.y_star == float("inf"),
    "participation": lambda s: (s.y_star == float("inf"), s.iterations),
    "sim.poisson": lambda s: (s.n_breaks, sum(s.masses.values()) * s.measured_time),
    "sim.fluid": lambda s: s.n_breaks,
    "sim.check": lambda r: r.passed,
}
# The CLI's solver, oracle and simulator imports, the inner menu solve as
# screening calls it, and the package's top-level functions.
TARGETS = (
    (upkeep.cli, ("main", "solve_first_best", "solve_participation", "solve_screening",
                  "primal_grid_welfare", "lp_screening_welfare", "build_policy",
                  "simulate_poisson", "simulate_fluid")),
    (upkeep.screening, ("bounded_monopoly_solve",)),
    (upkeep, ("solve_first_best", "solve_participation", "solve_screening",
              "bounded_monopoly_solve", "primal_grid_welfare", "lp_screening_welfare",
              "menu_grid_oracle", "build_policy", "simulate_poisson", "simulate_fluid",
              "check_reduced_form")),
)


class Span:
    __slots__ = ("sid", "name", "parent", "t0", "t1", "thread", "note")

    def __init__(self, sid, name, parent, t0, t1, thread, note):
        self.sid, self.name, self.parent = sid, name, parent
        self.t0, self.t1, self.thread, self.note = t0, t1, thread, note

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans with a parent stack per thread.

    A thread whose stack is empty (a sweep worker) takes the innermost
    open span of the main thread as its parent, which is the CLI call
    that submitted the work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            keep = _NOTE.get(name)
            note = keep(out) if keep is not None and out is not None else None
            self.spans.append(Span(sid, name, parent, t0, t1, threading.get_ident(), note))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> Callable[[], None]:
        """Patch every target; returns the function that restores them."""
        saved = []
        wrapped: dict[int, Callable] = {}
        for module, names in TARGETS:
            for attr in names:
                orig = getattr(module, attr)
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self.wrap(LAYERS[attr], orig)
                saved.append((module, attr, orig))
                setattr(module, attr, wrapped[id(orig)])

        def restore() -> None:
            for module, attr, orig in saved:
                setattr(module, attr, orig)

        return restore

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("sid,name,parent,t0,t1,thread,note\n")
            for s in self.spans:
                note = "" if s.note is None else str(s.note).replace(",", ";")
                fh.write(f"{s.sid},{s.name},{s.parent},{s.t0!r},{s.t1!r},{s.thread},{note}\n")


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest nearest-rank percentile
    with at least ten samples beyond it, but not below the median; the
    maximum when there are ten or fewer samples."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, n
    rank = max(n - 10, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n


def layer_metrics(spans: list[Span], oracle_checks: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced run. oracle_checks is
    (agreements, comparisons) from the item checks of that run."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def notes(name: str) -> list:
        """Notes of the calls that returned (a raising call has none)."""
        return [s.note for s in by_name.get(name, []) if s.note is not None]

    def busy(name: str) -> float:
        return sum(s.dur for s in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def self_time(name: str) -> float:
        return sum(
            s.dur - union_length([(c.t0, c.t1) for c in children.get(s.sid, [])], s.t0, s.t1)
            for s in by_name.get(name, [])
        )

    def ms(name: str) -> list[float]:
        return [1e3 * s.dur for s in by_name.get(name, [])]

    def p50(name: str) -> float:
        xs = ms(name)
        return statistics.median(xs) if xs else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    cli = by_name.get("cli", [])
    m["cli.calls"] = calls("cli")
    m["cli.busy_s"] = busy("cli")
    m["cli.self_s"] = self_time("cli")
    m["cli.child_overlap"] = ratio(
        sum(c.dur for s in cli for c in children.get(s.sid, [])), busy("cli")
    )
    m["cli.workers"] = max(
        (len({c.thread for c in children.get(s.sid, [])}) for s in cli), default=0
    )

    screening = by_name.get("screening", [])
    inner = [c for s in screening for c in children.get(s.sid, []) if c.name == "monopoly"]
    m["screening.calls"] = calls("screening")
    m["screening.busy_s"] = busy("screening")
    m["screening.self_s"] = self_time("screening")
    m["screening.p50_ms"] = p50("screening")
    m["screening.tail_ms"] = tail(ms("screening"))[0]
    m["screening.inf_frac"] = ratio(sum(notes("screening")), len(screening))
    m["screening.inner_calls_per_solve"] = ratio(len(inner), len(screening))
    m["screening.inner_share"] = ratio(sum(c.dur for c in inner), busy("screening"))

    m["monopoly.calls"] = calls("monopoly")
    m["monopoly.busy_s"] = busy("monopoly")
    m["monopoly.us_per_call"] = 1e6 * ratio(busy("monopoly"), calls("monopoly"))

    part = notes("participation")
    m["participation.calls"] = calls("participation")
    m["participation.busy_s"] = busy("participation")
    m["participation.p50_ms"] = p50("participation")
    m["participation.tail_ms"] = tail(ms("participation"))[0]
    m["participation.inf_frac"] = ratio(sum(inf for inf, _ in part), len(part))
    m["participation.iterations_mean"] = ratio(sum(it for _, it in part), len(part))

    m["first_best.calls"] = calls("first_best")
    m["first_best.busy_s"] = busy("first_best")
    m["first_best.p50_ms"] = p50("first_best")

    for short in ("grid", "lp", "menu"):
        m[f"oracle.{short}.calls"] = calls(f"oracle.{short}")
        m[f"oracle.{short}.busy_s"] = busy(f"oracle.{short}")
    m["oracle.lp.ms_per_call"] = 1e3 * ratio(busy("oracle.lp"), calls("oracle.lp"))
    agreements, comparisons = oracle_checks
    m["oracle.agree_frac"] = ratio(agreements, comparisons)

    poisson = notes("sim.poisson")
    m["sim.poisson.calls"] = calls("sim.poisson")
    m["sim.poisson.busy_s"] = busy("sim.poisson")
    m["sim.poisson.breaks"] = sum(breaks for breaks, _ in poisson)
    m["sim.poisson.breaks_per_s"] = ratio(m["sim.poisson.breaks"], m["sim.poisson.busy_s"])
    # Computed, not counted: expected arrivals (total mass x measured time).
    m["sim.poisson.arrivals_per_s"] = ratio(sum(a for _, a in poisson), m["sim.poisson.busy_s"])
    m["sim.fluid.calls"] = calls("sim.fluid")
    m["sim.fluid.busy_s"] = busy("sim.fluid")
    m["sim.fluid.breaks"] = sum(notes("sim.fluid"))
    m["sim.fluid.cycles_per_s"] = ratio(m["sim.fluid.breaks"], m["sim.fluid.busy_s"])
    m["sim.pass_frac"] = ratio(sum(notes("sim.check")), calls("sim.check"))
    return m
