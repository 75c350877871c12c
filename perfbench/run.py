"""raysched benchmark: end-to-end metrics, or a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``catalog``, ``deep-horizon``,
``base-scan``, or ``all``, which interleaves the three pass by pass and
alternates their order between rounds.

One run, in a single process on the package in ``src/``:

1. ``setup_s``: fresh interpreters import ``raysched``; median of several.
2. Timed passes until the next one would end past ``--seconds`` (at
   least two rounds).  Passes alternate the item order, so a stretch of host
   contention does not always land on the same items.  Every pass is
   checked by the correctness gate.

There is no separate warm-up pass: the package keeps no caches and does
all its set-up at import, so the first pass is already warm (its wall
time falls inside the spread of the later ones), and a catalog pass is
too long to spend on warming up.

With ``--trace 0`` the result line carries the end-to-end metrics:
``wall_s`` and ``cpu_s`` (medians per pass), ``item_p50_ms`` and
``item_p90_ms`` (the median and the nearest-rank 90th percentile, over
the workload's items, of each item's median latency across passes),
``peak_rss_mb`` and ``setup_s``.  Taking each item's median first keeps
a few slow samples of the millisecond calls from moving the percentiles;
the pooled latencies are printed too, at the highest percentile that has
at least ten samples beyond it (``item_tail_ms``).  Pass and item times
are reported at a reference host speed measured around every pass (see
``REFERENCE_NOMINAL_S``); raw wall times are printed beside them.
``setup_s`` stays raw: import time is mostly file and loader work, which
does not follow the calibration loop.  With
``--trace 1`` untraced and traced passes alternate; the result line
carries the per-layer metrics named in ``BENCHMARK.json`` (raw times)
and ``trace.overhead_s``, the traced minus the untraced median pass
time.  On ``catalog`` the traced run also times each claim id on its
own (``claims.<id>.total_s``).

Lines before the last one are for people: every timing with its
quartiles and sample count, the failure share, the source line count.
The full record, including every traced function, is written to
``perfbench/out/``.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 11
MIN_ROUNDS = 2
TAIL_SAMPLES = 10
# Host-speed calibration.  The speed of this kind of shared host drifts by
# a third within minutes (the same pass ran 1.02 s and 1.46 s a quarter of
# an hour apart), which would swamp any regression bound.  Before and
# after every pass the harness times a fixed pure-Python loop; the run's
# host factor is the mean of those loop times over REFERENCE_NOMINAL_S,
# about the loop's mean time on a 2.0 GHz Xeon vCPU.  The mean, not the
# median: a single loop time is bimodal (the host flips between a fast
# and a slow state every few milliseconds), and a pass, like the mean,
# averages over the flips.  Pass and item times are divided by the
# factor, i.e. reported at that reference speed; the raw medians and the
# factor are printed beside them.
REFERENCE_STEPS = 8_000
REFERENCE_SAMPLES = 3  # at least, on each side of a pass
REFERENCE_SHARE = 0.02  # and for at least this share of the last pass
REFERENCE_NOMINAL_S = 0.010


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (an observed sample)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure_setup() -> list[float]:
    """Seconds to import raysched in fresh interpreters."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import raysched\n"
        "sys.stdout.write(repr(time.perf_counter() - t))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return samples


@dataclass(frozen=True)
class _Span:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo < self.hi:
            raise ValueError("empty span")


def reference_times(min_seconds: float) -> list[float]:
    """Times of runs of the calibration loop, which does what the
    package's sweeps do most (a closure call building a validated frozen
    dataclass from a float power): REFERENCE_SAMPLES runs, or more until
    min_seconds is spent."""
    make = lambda i: _Span(0.0, 1.001 ** (i % 700) + 1.0)  # noqa: E731
    samples: list[float] = []
    while len(samples) < REFERENCE_SAMPLES or sum(samples) < min_seconds:
        start = time.perf_counter()
        total = 0.0
        for i in range(REFERENCE_STEPS):
            span = make(i)
            total += span.hi - span.lo
        samples.append(time.perf_counter() - start)
    return samples


def source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "raysched").glob("*.py"))
    )


class Runner:
    """Passes over one workload, with their timings and gate results."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.reference: list[float] = []
        self.latencies: list[float] = []
        self.item_latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def run_pass(self, reverse: bool) -> float:
        """One pass, timed and gated; returns its wall time."""
        from workloads import Outcome, gate

        items = self.workload.items[::-1] if reverse else self.workload.items
        outcomes = []
        latencies = []
        gc.collect()
        budget = REFERENCE_SHARE * (self.walls[-1] if self.walls else 0.0)
        self.reference += reference_times(budget)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for item in items:
            start = time.perf_counter()
            try:
                outcome = Outcome(item, item.call())
            except Exception as exc:  # the gate decides what it means
                outcome = Outcome(item, error=exc)
            latencies.append(time.perf_counter() - start)
            outcomes.append(outcome)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        self.reference += reference_times(REFERENCE_SHARE * wall)
        for outcome in outcomes:
            if outcome.error is None:
                outcome.text = outcome.item.render(outcome.result)
        problems, failed = gate(self.workload, outcomes)
        for problem in problems:
            if problem not in self.problems:
                self.problems.append(problem)
        self.passes += 1
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.latencies.extend(latencies)
        for item, latency in zip(items, latencies):
            self.item_latencies.setdefault(item.name, []).append(latency)
        self.attempted += len(items)
        self.failed += len(failed)
        return wall


def timed_rounds(runners: list, seconds: float, pass_fn) -> None:
    """Call pass_fn(runner, round) for every runner, round after round,
    until the next round would end past `seconds`.  Odd rounds reverse
    the order of the runners."""
    start = time.perf_counter()
    round_times: list[float] = []
    round_no = 0
    while True:
        elapsed = time.perf_counter() - start
        if round_no >= MIN_ROUNDS and elapsed + statistics.median(round_times) > seconds:
            break
        order = runners if round_no % 2 == 0 else runners[::-1]
        r0 = time.perf_counter()
        for runner in order:
            pass_fn(runner, round_no)
        round_times.append(time.perf_counter() - r0)
        round_no += 1


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    """Every end-to-end metric with its samples, quartiles and unit; pass
    and item times at reference host speed."""
    factor = statistics.fmean(runner.reference) / REFERENCE_NOMINAL_S
    ms = [x * 1e3 / factor for x in runner.latencies]
    tail_q = 1.0 - TAIL_SAMPLES / len(ms)
    walls = [x / factor for x in runner.walls]
    cpus = [x / factor for x in runner.cpus]
    stats = {
        "wall_s": ("s", walls, quartiles(walls)),
        "cpu_s": ("s", cpus, quartiles(cpus)),
        "setup_s": ("s", setup, quartiles(setup)),
        "raw_wall_s": ("s", runner.walls, quartiles(runner.walls)),
    }
    out = {}
    for name, (unit, samples, (q1, med, q3)) in stats.items():
        out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                     "samples": len(samples)}
    item_ms = [statistics.median(v) * 1e3 / factor
               for v in runner.item_latencies.values()]
    for name, value in (("item_p50_ms", statistics.median(item_ms)),
                        ("item_p90_ms", nearest_rank(item_ms, 0.9))):
        out[name] = {"value": value, "unit": "ms", "items": len(item_ms),
                     "samples": len(ms)}
    out["item_tail_ms"] = {
        "value": nearest_rank(ms, max(0.5, tail_q)), "unit": "ms",
        "percentile": round(100 * max(0.5, tail_q), 2), "samples": len(ms),
        "note": f"highest percentile with >= {TAIL_SAMPLES} samples beyond it",
    }
    out["host_factor"] = {"value": factor, "unit": "x",
                          "samples": len(runner.reference)}
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    out["fail_ratio"] = {
        "value": runner.failed / runner.attempted, "unit": "ratio",
        "failed": runner.failed, "attempted": runner.attempted,
    }
    return out


def claim_attribution(seed: int) -> dict[str, float]:
    """Seconds per claim id, each run on its own, untraced.

    A subset selects ids by prefix, so selecting `fig1-ratio` also runs
    `fig1-ratio-edge`; such ids get their own time minus that of the
    longer ids their prefix also selects."""
    from raysched import ClaimConfig, claim_ids, run_claim_catalog

    ids = claim_ids()
    measured = {}
    for claim_id in ids:
        start = time.perf_counter()
        run_claim_catalog(ClaimConfig(subset=claim_id, seed=seed % 2**32))
        measured[claim_id] = time.perf_counter() - start
    own: dict[str, float] = {}
    for claim_id in sorted(ids, key=len, reverse=True):
        extra = [o for o in ids if o != claim_id and o.startswith(claim_id)]
        own[claim_id] = measured[claim_id] - sum(own[o] for o in extra)
    return own


def per_layer(runner: Runner, snapshots: list[dict], untraced: list[float],
              traced: list[float]) -> tuple[dict, bool]:
    """Counts from the traced passes (they must repeat exactly) and
    median times."""
    merged: dict[str, float] = {}
    keys = sorted(set().union(*snapshots))
    repeat = True
    for key in keys:
        values = [snap.get(key, 0) for snap in snapshots]
        if key.endswith(("total_s", "self_s")):
            merged[key] = statistics.median(values)
        else:
            merged[key] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    merged["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    merged["gate.fail_ratio"] = runner.failed / runner.attempted
    return merged, repeat


def report_line(workload: str, name: str, metric: dict) -> str:
    text = f"# {workload:<12} {name:<16} {metric['value']:>14.6f} {metric['unit']:<5}"
    if "q1" in metric:
        text += f" q1 {metric['q1']:.6f} q3 {metric['q3']:.6f} n={metric['samples']}"
    elif "percentile" in metric:
        text += f" p{metric['percentile']} n={metric['samples']}"
    elif "items" in metric:
        text += f" items={metric['items']} n={metric['samples']}"
    elif "samples" in metric:
        text += f" n={metric['samples']}"
    elif "attempted" in metric:
        text += f" {metric['failed']} of {metric['attempted']} items"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "raysched" / "__init__.py").is_file():
        print(f"error: no raysched package under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, str(SRC))
    import raysched
    from workloads import WORKLOADS

    if Path(raysched.__file__).resolve().parent != (SRC / "raysched").resolve():
        print(f"error: imported raysched from {raysched.__file__}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join([*WORKLOADS, "all"]), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    setup = measure_setup() if not args.trace else []
    runners = [Runner(WORKLOADS[name](args.seed, OUT_DIR)) for name in names]
    # The harness's own long-lived objects (items, goldens) should not
    # lengthen the program's garbage collections.
    gc.collect()
    gc.freeze()

    results: dict[str, dict] = {}
    if not args.trace:
        timed_rounds(runners, args.seconds,
                     lambda runner, k: runner.run_pass(reverse=k % 2 == 1))
        for runner in runners:
            results[runner.workload.name] = end_to_end(runner, setup)
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        from tracing import Tracer

        tracer = Tracer()
        state = {id(r): {"snapshots": [], "untraced": [], "traced": []}
                 for r in runners}

        def traced_pair(runner, k):
            record = state[id(runner)]
            record["untraced"].append(runner.run_pass(reverse=k % 2 == 1))
            tracer.install()
            try:
                tracer.reset()
                record["traced"].append(runner.run_pass(reverse=k % 2 == 1))
                record["snapshots"].append(tracer.snapshot())
            finally:
                tracer.uninstall()

        timed_rounds(runners, args.seconds, traced_pair)
        for runner in runners:
            record = state[id(runner)]
            layers, repeat = per_layer(runner, record["snapshots"],
                                       record["untraced"], record["traced"])
            layers["trace.counts_repeat"] = int(repeat)
            if runner.workload.name == "catalog":
                for claim_id, seconds in claim_attribution(args.seed).items():
                    layers[f"claims.{claim_id}.total_s"] = seconds
            results[runner.workload.name] = layers
        wanted = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    src_lines = source_lines()
    correct = all(not r.problems for r in runners)
    for runner in runners:
        for problem in runner.problems[:20]:
            print(f"# GATE {runner.workload.name}: {problem}")
    metrics_out = {}
    for runner in runners:
        name = runner.workload.name
        result = results[name]
        print(f"# workload={name} seed={args.seed} trace={args.trace} "
              f"passes={runner.passes} items/pass={len(runner.workload.items)} "
              f"src_lines={src_lines} fail_ratio={runner.failed}/{runner.attempted}")
        if not args.trace:
            for metric_name, metric in result.items():
                print(report_line(name, metric_name, metric))
        else:
            shown = sorted(
                (k for k in result if k.endswith(".self_s")),
                key=lambda k: -result[k],
            )[:12]
            for key in shown:
                print(f"# {name:<12} {key:<58} {result[key]:.6f} s")
        prefix = f"{name}." if len(runners) > 1 else ""
        for metric_name in wanted:
            if args.trace:
                value = result.get(metric_name, 0)
                unit = units[metric_name]
            else:
                value, unit = result[metric_name]["value"], result[metric_name]["unit"]
            metrics_out[prefix + metric_name] = {"value": value, "unit": unit}
        record = {
            "workload": name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "passes": runner.passes,
            "items_per_pass": len(runner.workload.items),
            "src_lines": src_lines, "correct": not runner.problems,
            "problems": runner.problems, "metrics": result,
            "pass_walls_s": runner.walls,
            "pass_cpus_s": runner.cpus,
            "item_latencies_s": runner.item_latencies if len(
                runner.item_latencies) <= 100 else {},
        }
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
