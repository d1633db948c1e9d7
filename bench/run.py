#!/usr/bin/env python3
"""The upkeep benchmark: one command, closed-loop workloads.

    python3 bench/run.py --workload verify --seed 1 --seconds 50 --trace 0

One caller runs items back to back; the next item starts only after the
previous one finished and was checked. An item is the unit that is
timed and checked (see workloads.py for what each workload's item does
and why the workload exists). Checks run after the item's timer stops.

Items come in passes of the workload's pattern, and every pass does the
same mix of work. A run does the whole passes that fit in --seconds of
wall time, so a slow host or a slow build costs items, not time.
The same seed always gives the same passes in the same order.

Times are reported at reference host speed (hostspeed.py). The host
this benchmark was written on is a shared VM whose speed swings by up to
2x within seconds, which would bury any change to the package. So a
fixed pure-Python loop is timed right before and right after every item
and every set-up step (on every core the process may use, for the
threaded sweep), and the step's measured time is divided by the
slowdown the loop saw around it, raised to the workload's sensitivity
to it. Slowdowns hit the loop and the package alike, while a change to
the package moves only the item times. The times as measured are
printed on comment lines next to the metrics.

With ``--trace 0`` the run reports the end-to-end metrics:

  setup_s      median over SETUP_REPEATS set-ups of: generating the
               instances, writing the type tables, running one warm-up
               item and importing upkeep in a fresh interpreter
  items_per_s  items completed / summed item latency
  item_p50_s   median item latency
  item_tail_s  item latency at the highest nearest-rank percentile with
               at least ten items beyond it (percentile and count are
               printed with it)
  pass_frac    items that raised nothing and passed every check, over
               items attempted (1 - fail_frac; fail_frac is printed too)
  peak_rss_mb  peak resident memory of this process (getrusage)

With ``--trace 1`` the run takes a fixed number of passes,
round(--seconds / PASS_S / 3) but at least one, so its counts repeat
exactly, and runs every item twice, untraced and with every layer's
public functions wrapped in spans (tracing.py), in alternating order.
It reports the per-layer metrics, including trace.overhead_frac
(1 - traced items_per_s / untraced items_per_s over the same items).
Per-layer times are as measured. Spans are written to
bench/_work/spans-<workload>.csv.gz.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import at_reference_speed, slowdown

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
SETUP_REPEATS = 7
# Seconds one pass of each pattern takes at reference speed on the
# reference machine (2-core x86 VM, Python 3.11, numpy 2.4). They set the
# traced run's passes (a third of what --seconds would hold, since each
# item runs twice and tracing adds time; at the reference machine's usual
# slowdown such a run takes 1.1-1.4 times --seconds); an untraced run
# draws PASS_BUDGET times as many passes as --seconds would hold, so a
# faster build still finds work.
PASS_S = {"sweep-ic": 5.1, "part-scale": 4.4, "verify": 6.6}
PASS_BUDGET = 4
# The import is timed in a fresh interpreter, which may run on the other
# core, so the child measures its own slowdown around the import.
IMPORT_PROBE = (
    "import time, hostspeed; before = hostspeed.slowdown(); t = time.perf_counter(); "
    "import upkeep; dt = time.perf_counter() - t; print(dt, before, hostspeed.slowdown())"
)


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # at reference speed
    wall: list[float] = field(default_factory=list)  # as measured
    slow: list[float] = field(default_factory=list)  # host slowdown around each item
    sensitivity: float = 1.0  # the workload's, see hostspeed.py
    passes: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    oracle_agree: int = 0
    oracle_compared: int = 0

    def record(self, seconds: float, slow: float, results) -> None:
        self.wall.append(seconds)
        self.slow.append(slow)
        self.latencies.append(at_reference_speed(seconds, slow, self.sensitivity))
        bad = [f"{name}: {detail}" for name, ok, detail in results if not ok]
        if bad:
            self.failed += 1
            self.failures.extend(bad)
        for name, ok, _ in results:
            if name.startswith("oracle."):
                self.oracle_compared += 1
                self.oracle_agree += ok

    @property
    def items_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def wall_items_per_s(self) -> float:
        return len(self.wall) / sum(self.wall)


def pass_items(wl, items, k: int):
    size = len(wl.pattern)
    return items[k * size:(k + 1) * size]


def run_item(wl, item, tally: Tally, tracer=None) -> None:
    before = slowdown(wl.threaded)
    t0 = time.perf_counter()
    try:
        out = tracer.span("item", wl.run, item) if tracer else wl.run(item)
    except Exception as exc:  # an item that raises is a failed item
        dt = time.perf_counter() - t0
        tally.record(dt, 0.5 * (before + slowdown(wl.threaded)), [("raised", False, repr(exc))])
        return
    dt = time.perf_counter() - t0
    slow = 0.5 * (before + slowdown(wl.threaded))
    try:
        results = wl.check(item, out)
    except Exception as exc:  # output too malformed to check
        results = [("check.raised", False, repr(exc))]
    tally.record(dt, slow, results)


def run_items(wl, items, seconds: float) -> Tally:
    """Whole passes while another pass, as long as the last one, still
    ends within `seconds` of wall time (at least one pass; fewer if the
    items run out)."""
    tally = Tally(sensitivity=wl.sensitivity)
    t0 = time.perf_counter()
    last = 0.0
    for k in range(len(items) // len(wl.pattern)):
        start = time.perf_counter()
        if k and start - t0 + last > seconds:
            break
        for item in pass_items(wl, items, k):
            run_item(wl, item, tally)
        tally.passes += 1
        last = time.perf_counter() - start
    return tally


def run_paired(wl, items, passes: int, tracer) -> tuple[Tally, Tally]:
    """Each item of `passes` passes once untraced and once traced, in
    alternating order, so both runs see the same machine state."""
    plain, traced = Tally(sensitivity=wl.sensitivity), Tally(sensitivity=wl.sensitivity)
    for k in range(passes):
        for i, item in enumerate(pass_items(wl, items, k)):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if not with_trace:
                    run_item(wl, item, plain)
                    continue
                restore = tracer.install()
                try:
                    run_item(wl, item, traced, tracer)
                finally:
                    restore()
    return plain, traced


def import_seconds() -> tuple[float, float]:
    """Time to import upkeep in a fresh interpreter, and the host
    slowdown that interpreter saw around it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT / "bench"))))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    seconds, before, after = map(float, out.stdout.strip().splitlines()[-1].split())
    return seconds, 0.5 * (before + after)


def setup(wl, seed: int, passes: int, workdir: Path):
    """Set up SETUP_REPEATS times; returns the set-up times at reference
    speed and as measured, the item stream and the warm-up items' tally.
    A set-up is generating the instances and writing the tables, one
    warm-up item (timed like any item, without the probes around it;
    each set-up draws its own) and importing upkeep in a fresh
    interpreter."""
    times, wall = [], []
    warm = Tally(sensitivity=wl.sensitivity)
    for k in range(SETUP_REPEATS):
        before = slowdown(wl.threaded)
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        items = wl.items(seed, passes, workdir)
        generate = time.perf_counter() - t0
        run_item(wl, wl.warm_item(seed, workdir, k), warm)
        child, child_slow = import_seconds()
        wall.append(generate + warm.wall[-1] + child)
        times.append(
            at_reference_speed(generate, before, wl.sensitivity)
            + warm.latencies[-1]
            + at_reference_speed(child, child_slow, wl.sensitivity)
        )
    return times, wall, items, warm


def environment() -> dict[str, str]:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "upkeep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = rev.stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(os.cpu_count()),
        "affinity": str(len(os.sched_getaffinity(0))),
        "UPKEEP_THREADS": os.environ["UPKEEP_THREADS"],
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def end_to_end(
    setup_times: list[float], tally: Tally, setup_wall: list[float] | None = None
) -> tuple[dict, list[str]]:
    import tracing

    tail, pct, count = tracing.tail(tally.latencies)
    n = len(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (tally.items_per_s, "1/s"),
        "item_p50_s": (statistics.median(tally.latencies), "s"),
        "item_tail_s": (tail, "s"),
        "pass_frac": ((n - tally.failed) / n, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "item_tail_s": f"p{pct:.1f} of {count} items",
        "pass_frac": f"fail_frac = {tally.failed / n} ({tally.failed} of {n} items)",
    }
    lines = [f"{k:<12} {v:.6g} {u}  {notes.get(k, '')}".rstrip() for k, (v, u) in metrics.items()]
    lines.append(
        f"# as measured: items_per_s {tally.wall_items_per_s:.6g} 1/s, item_p50_s "
        f"{statistics.median(tally.wall):.6g} s, item_tail_s {tracing.tail(tally.wall)[0]:.6g} s"
        + ("" if setup_wall is None else f", setup_s {statistics.median(setup_wall):.6g} s")
    )
    lines.append("# each set-up at reference speed: " + " ".join(f"{t:.4g}" for t in setup_times))
    lines.append(
        f"# host slowdown around items: median {statistics.median(tally.slow):.4g}, "
        f"range {min(tally.slow):.4g}-{max(tally.slow):.4g}; {tally.passes} passes"
    )
    return metrics, lines


PER_LAYER_UNITS = (
    ("us_per_call", "us"), ("ms_per_call", "ms"), ("_per_s", "1/s"), ("_ms", "ms"),
    ("_s", "s"), ("_frac", "frac"), ("inner_share", "frac"), ("child_overlap", "ratio"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def traced(wl, items, passes: int) -> tuple[dict, Tally, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    base, tally = run_paired(wl, items, passes, tracer)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}.csv.gz")
    values = tracing.layer_metrics(tracer.spans, (tally.oracle_agree, tally.oracle_compared))
    values["trace.overhead_frac"] = 1.0 - tally.items_per_s / base.items_per_s
    metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
    lines = [f"{k:<36} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(
        f"# {passes} passes, each item untraced and traced; items_per_s {base.items_per_s:.6g} untraced, "
        f"{tally.items_per_s:.6g} traced; sim.poisson.arrivals_per_s is computed "
        "(total mass x measured time / busy time)"
    )
    base.latencies += tally.latencies
    base.wall += tally.wall
    base.slow += tally.slow
    base.failed += tally.failed
    base.failures += tally.failures
    return metrics, base, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep-ic", "part-scale", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not (SRC / "upkeep" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'upkeep'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # Cap the CLI sweep's thread pool at the cores this process may use.
    os.environ["UPKEEP_THREADS"] = str(len(os.sched_getaffinity(0)))
    import upkeep

    if Path(upkeep.__file__).resolve().parent != (SRC / "upkeep").resolve():
        print(f"error: imported upkeep from {upkeep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / PASS_S[wl.name] / 3))
    if not args.trace:
        passes = PASS_BUDGET * max(1, round(args.seconds / PASS_S[wl.name]))
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    try:
        setup_times, setup_wall, items, warm = setup(wl, args.seed, passes, workdir)
        if args.trace:
            metrics, tally, lines = traced(wl, items, passes)
        else:
            tally = run_items(wl, items, args.seconds)
            metrics, lines = end_to_end(setup_times, tally, setup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# upkeep benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# why: " + wl.why)
    print("# env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for line in lines:
        print(line)
    for failure in (["warm-up " + f for f in warm.failures] + tally.failures)[:20]:
        print("# FAILED " + failure)
    result = {
        "correct": tally.failed == 0 and warm.failed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
