"""fdc benchmark: three closed-loop workloads with one client and no threads.

    python3 perfbench/run.py --workload fuzz-metatheory --seed 42 \
        --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
A run makes whole passes over the workload's pool of ops that end within
`--seconds`, and takes each op's latency as its best over the passes.
`--workload all` runs the three one after another, each in a process of
its own. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` the run is split in
an untraced and a traced half and the JSON holds the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_REPEATS = 9
WORKLOADS = ("fuzz-metatheory", "elab-classes", "eval-deep")
TRACE_LIMIT_FACTOR = 5  # traced ops run slower; widen their time limit

CURVES = (
    [("not_chain", f"d{d}") for d in (10, 20, 40)]
    + [("xor_chain", f"d{d}") for d in (10, 20, 40)]
    + [("sym", f"d{d}") for d in (20, 40, 80)]
    + [("fundep_structural", f"n{n}") for n in range(4)]
    + [("superclass_chain", f"k{k}") for k in (2, 4, 8)]
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Record:
    index: int  # the op's place in its pool
    family: str
    size: str
    shape: str
    latency: float  # seconds, scaled to the reference speed (speed.py)
    wall: float     # seconds, as measured
    outcome: str    # "ok", "mismatch", or the class of what was raised
    detail: str = ""


def run_op(index: int, op, limit: float) -> Record:
    """Run one op under a speed meter (speed.py) and a time limit, then
    check its output. Whatever the op raises is recorded, never
    propagated: the loop must go on."""
    with speed.Meter() as meter:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            out = op.run()
            outcome, detail = "ok", ""
        except Exception as exc:  # noqa: BLE001 - recorded as a failed op
            outcome, detail = type(exc).__name__, str(exc)[:200]
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency, wall = meter.scaled, meter.wall
    if outcome == "ok":
        problem = op.check(out)
        if problem is not None:
            outcome, detail = "mismatch", problem
    return Record(index, op.family, op.size, op.shape, latency, wall,
                  outcome, detail)


def run_passes(pool: list, order_seed: str, seconds: float, limit: float,
               tracer=None) -> tuple[list[Record], int]:
    """Closed loop: the next op starts when the previous one is checked.
    Whole passes over `pool`, each in its own seeded order, run while one
    more pass as long as the longest so far still ends within `seconds`;
    there is always at least one. Returns the records and the number of
    passes."""
    records = []
    deadline = perf_counter() + seconds
    passes, longest = 0, 0.0
    while passes == 0 or perf_counter() + longest <= deadline:
        began = perf_counter()
        order = list(range(len(pool)))
        random.Random(f"{order_seed}/{passes}").shuffle(order)
        for index in order:
            if tracer is not None:
                tracer.op_id = len(records)
            records.append(run_op(index, pool[index], limit))
        longest = max(longest, perf_counter() - began)
        passes += 1
    return records, passes


# ------------------------------------------------------------ metrics

def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 ops beyond it,
    and that percentile."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def best_latencies(records: list[Record]) -> dict[int, Record]:
    """Each op's fastest correct run at the reference speed. Scaling takes
    out most of the machine's speed; most of what it leaves, a slow
    stretch that falls between two probes, adds time, so the minimum
    over passes is the steadiest estimate of what an op costs."""
    best: dict[int, Record] = {}
    for r in records:
        if r.outcome == "ok" and (r.index not in best
                                  or r.latency < best[r.index].latency):
            best[r.index] = r
    return best


def throughput(records: list[Record]) -> float:
    """Ops in the pool per second of their summed best latencies."""
    best = [r.latency for r in best_latencies(records).values()]
    return len(best) / sum(best) if best else 0.0


def end_to_end(records: list[Record], passes: int,
               setup: tuple[float, float]) -> dict:
    best = [r.latency * 1e3 for r in best_latencies(records).values()]
    tail_ms, tail_pct = tail(best) if best else (0.0, 0.0)
    failed = sum(r.outcome != "ok" for r in records)
    walls: dict[int, float] = {}
    for r in records:
        if r.outcome == "ok":
            walls[r.index] = min(r.wall, walls.get(r.index, r.wall))
    wall_rate = len(walls) / sum(walls.values()) if walls else 0.0
    return {
        "ops_per_s": (throughput(records), "1/s",
                      f"{len(best)} ops at their best of {passes} passes; "
                      f"{wall_rate:.3f} by wall time"),
        "op_p50_ms": (statistics.median(best) if best else 0.0, "ms", ""),
        "op_tail_ms": (tail_ms, "ms", f"p{tail_pct:.2f} of {len(best)} ops"),
        "ops_failed_ratio": (failed / len(records) if records else 0.0,
                             "ratio", f"{failed} of {len(records)} runs"),
        "setup_s": (setup[0], "s", f"best of {SETUP_REPEATS}; "
                    f"{setup[1]:.3f} by wall time"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", ""),
    }


def curves(records: list[Record]) -> dict[str, float]:
    best = best_latencies(records).values()
    out = {}
    for family, size in CURVES:
        lat = [r.latency * 1e3 for r in best
               if (r.family, r.size) == (family, size)]
        out[f"curve.{family}.{size}_ms"] = (statistics.median(lat) if lat
                                            else 0.0)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def summarize_failures(records: list[Record]) -> list[str]:
    groups = Counter((r.outcome, r.shape)
                     for r in records if r.outcome != "ok")
    lines = []
    for (outcome, shape), n in sorted(groups.items()):
        detail = next(r.detail for r in records
                      if (r.outcome, r.shape) == (outcome, shape))
        lines.append(f"  {outcome} x{n}: {shape}: {detail}")
    return lines


# ------------------------------------------------------------ phases

def measure_setup() -> tuple[float, float]:
    """Fastest of SETUP_REPEATS set-ups, each in a fresh interpreter, for
    the same reason as `best_latencies`: (at the reference speed, by wall
    time), in seconds."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, SRC], check=True,
                              capture_output=True, text=True, timeout=120)
        scaled, wall = done.stdout.split()[-2:]
        times.append((float(scaled), float(wall)))
    return min(times)


def run_workload(workloads, tracing, name: str, ctx, args,
                 header: dict) -> tuple[dict, list[Record]]:
    """Returns (metrics, every record the JSON counts)."""
    limit = workloads.OP_LIMIT_S
    pool = workloads.pool(name, ctx, args.seed)
    order_seed = f"{name}/{args.seed}"
    print(f"# {name}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} pool={len(pool)} "
          + " ".join(f"{k}={v}" for k, v in header.items()))
    if not args.trace:
        started = perf_counter()
        setup = measure_setup()
        records, passes = run_passes(
            pool, order_seed, args.seconds - (perf_counter() - started), limit)
        metrics = end_to_end(records, passes, setup)
        for key, (value, unit, note) in metrics.items():
            print(f"{name:16} {key:17} {value:14.6f} {unit:6} {note}")
        metrics.pop("ops_failed_ratio")  # carried by `attempted`/`failed`
        result = {k: {"value": v, "unit": u} for k, (v, u, _) in
                  metrics.items()}
    else:
        half = args.seconds / 2
        plain, plain_passes = run_passes(pool, order_seed, half, limit)
        tracer = tracing.Tracer(clients=[workloads])
        tracer.install()
        try:
            traced, passes = run_passes(pool, order_seed, half,
                                        limit * TRACE_LIMIT_FACTOR, tracer)
        finally:
            tracer.uninstall()
        values = {**tracer.metrics(passes), **curves(plain)}
        values["trace.untraced_ops_per_s"] = throughput(plain)
        values["trace.ops_per_s"] = throughput(traced)
        values["trace.overhead_ratio"] = (
            sum(r.latency for r in traced) / passes
            / (sum(r.latency for r in plain) / plain_passes))
        for key, value in values.items():
            print(f"{name:16} {key:42} {value:16.6f} {unit_of(key)}")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}.jsonl.gz")
        tracer.write_spans(spans_path, {"workload": name, "seed": args.seed,
                                        "passes": passes, **header})
        print(f"# spans: {spans_path}")
        records = plain + traced
        result = {k: {"value": v, "unit": unit_of(k)}
                  for k, v in values.items()}
    for line in summarize_failures(records):
        print(line)
    if name == "elab-classes":
        report_known_defects(workloads, ctx, args.seed, limit)
    return result, records


def report_known_defects(workloads, ctx, seed: int, limit: float) -> None:
    """The programs the timed pool leaves out, run once and untimed, so the
    defect stays in the report until a change fixes it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    records = [run_op(i, op, limit) for i, op in
               enumerate(workloads.known_defects(ctx, seed, OUT_DIR))]
    failed = sum(r.outcome != "ok" for r in records)
    print(f"# known defects (untimed, not in the counts): "
          f"{failed} of {len(records)} failed")
    for r in records:
        print(f"  {r.outcome}: {r.shape} ({r.latency * 1e3:.0f} ms)"
              + (f": {r.detail}" if r.detail else ""))


def result_line(records: list[Record], metrics: dict) -> dict:
    """The pools are built so that every op succeeds: an op that raises or
    runs past its limit is as wrong as one that returns a wrong answer."""
    return {
        "correct": all(r.outcome == "ok" for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome != "ok" for r in records),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another, so
    that its `setup_s` and `peak_rss_mb` are its own."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=4 * args.seconds + 300)
        *lines, last = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        result = json.loads(last)
        metrics.update({f"{name}.{k}": v
                        for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fdc", "__init__.py")):
        print(f"perfbench: no fdc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    signal.signal(signal.SIGALRM, _alarm)
    ctx = workloads.build_context()
    header = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0))}
    result, records = run_workload(workloads, tracing, args.workload, ctx,
                                   args, header)
    print(json.dumps(result_line(records, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
