"""seqscan benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload {grid_glr,pair_explore,wide_k} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; seqscan is imported from ``src/`` there.
The load is one caller in a closed loop: each pass is an in-process
``seqscan run`` over the workload's sweep (see workloads.py), the next pass
starts when the previous one returns, and passes repeat until ``--seconds``
have been measured. Every batch row is compared with the recorded reference.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: pass wall
time, episode and observation rates, per-episode latency (each call to
``harness.run_episode`` timed from outside), set-up time in fresh
interpreters, and peak RSS. ``--trace 1`` first repeats a share of the
passes untraced, then replays them with spans around every module boundary
(tracing.py) and prints the per-layer metrics. The last stdout line is one
JSON object; the command exits nonzero when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYERS, EpisodeClock, Tracer
from workloads import (
    COUNTS,
    WORKLOADS,
    csv_totals,
    failed_batches,
    load_reference,
    pass_seeds,
    run_pass,
    traced_counts,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
# share of --seconds a trace run spends on the untraced passes it replays
UNTRACED_SHARE = 0.3
# the tail percentile must leave at least this many episodes beyond it
TAIL_BEYOND = 10


def import_cli():
    if not (SRC / "seqscan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no seqscan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqscan.cli
    import seqscan.harness

    if Path(seqscan.cli.__file__).resolve().parent != (SRC / "seqscan").resolve():
        sys.exit(f"perfbench: seqscan was imported from {seqscan.cli.__file__}, not {SRC}")
    return seqscan.cli, seqscan.harness


class Run:
    """Passes of one benchmark run, their checks, and the batch tally."""

    def __init__(self, cli, reference: dict, config: Path, out: Path):
        self.cli = cli
        self.reference = reference["passes"]  # master seed -> csv lines, counts
        self.config = config
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, master_seed: int):
        result = run_pass(self.cli, self.config, self.out, master_seed)
        expected = self.reference[str(master_seed)]["csv"]
        failed = failed_batches(result.csv, expected)
        self.attempted += len(expected) - 1
        self.failed += failed
        if failed:
            self.problems.append(f"master seed {master_seed}: {failed} batch rows differ from the reference")
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def setup_seconds(config: Path) -> list[float]:
    """Import, config parse and validation, and materialize_processes for
    every sweep point, each time in a fresh interpreter."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def tail(ordered: list[float], percentile: float) -> tuple[float, float]:
    """Nearest-rank percentile of sorted values, lowered until TAIL_BEYOND
    values lie beyond it; returns the value and the percentile used."""
    n = len(ordered)
    rank = min(math.ceil(percentile / 100.0 * n), n - TAIL_BEYOND)
    if rank < 1:
        raise ValueError(f"{n} episodes leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[rank - 1], 100.0 * rank / n


def measure(run: Run, workload, seed: int, seconds: float) -> dict:
    setup = setup_seconds(run.config)
    seeds = pass_seeds(seed)
    with EpisodeClock() as clock:
        run.one(seeds[0])  # warm-up, checked but not timed
        clock.reset()
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            passes.append(run.one(seeds[(len(passes) + 1) % len(seeds)]))
    busy = sum(p.seconds for p in passes)
    totals = [csv_totals(p.csv) for p in passes if p.csv is not None]
    episodes = sum(t["episodes"] for t in totals)
    observations = sum(t["observations"] for t in totals)
    run.check(len(clock.episode_ms) == episodes, "timed episodes differ from the CSV episode count")
    run.check(clock.observations == observations, "engine observations differ from the CSV count")
    episode_ms = sorted(clock.episode_ms)
    tail_ms, tail_pct = tail(episode_ms, workload.tail_percentile)
    print(f"passes {len(passes)}, episodes {episodes}, observations {observations}, busy {busy:.3f} s")
    print(
        f"episode_ms_tail is p{tail_pct:.2f} of {len(episode_ms)} episodes; "
        + ", ".join(f"p{p} {tail(episode_ms, p)[0]:.3f}" for p in (50, 75, 90, 95))
    )
    print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup))
    return {
        "wall_s": statistics.median(p.seconds for p in passes),
        "episodes_per_s": episodes / busy,
        "obs_per_s": observations / busy,
        "episode_ms_p50": statistics.median(episode_ms),
        "episode_ms_tail": tail_ms,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(run: Run, seed: int, seconds: float) -> dict:
    """Untraced passes for a share of --seconds, then the same passes traced."""
    seeds = pass_seeds(seed)
    with EpisodeClock() as clock:
        run.one(seeds[0])  # warm-up, checked but not timed
        untraced = []
        begin = time.perf_counter()
        while not untraced or time.perf_counter() - begin < UNTRACED_SHARE * seconds:
            untraced.append(run.one(seeds[(len(untraced) + 1) % len(seeds)]))
        traced, counts, mismatched = [], dict.fromkeys(COUNTS, 0), 0
        with Tracer() as tracer:
            for plain in untraced:
                before, seen = tracer.snapshot(), clock.observations
                result = run.one(plain.master_seed)
                traced.append(result)
                now = traced_counts(before, tracer.snapshot(), clock.observations - seen)
                mismatched += check_counts(run, plain, result, now)
                for name in COUNTS:
                    counts[name] += now[name]
    if tracer.missing:
        print("spans not installed (names absent): " + ", ".join(tracer.missing))
    print(f"traced {len(traced)} passes, {counts['episodes']} episodes, {counts['observations']} observations")
    metrics = layer_metrics(tracer.snapshot(), counts)
    metrics["harness.bounds_dropped"] = sum(
        csv_totals(p.csv)["bounds_dropped"] for p in traced if p.csv is not None
    )
    metrics["trace.overhead_s"] = sum(p.seconds for p in traced) - sum(p.seconds for p in untraced)
    metrics["trace.count_mismatches"] = mismatched
    return metrics


def check_counts(run: Run, plain, traced, counts: dict) -> int:
    """Fail the run when tracing changed the output; return 1 when the exact
    counts differ from the recorded ones or sample calls from observations."""
    seed = plain.master_seed
    run.check(traced.csv == plain.csv, f"master seed {seed}: traced CSV differs from untraced")
    if traced.csv is not None:
        from_csv = csv_totals(traced.csv)
        run.check(
            counts["observations"] == from_csv["observations"] and counts["episodes"] == from_csv["episodes"],
            f"master seed {seed}: engine episodes or observations differ from the CSV",
        )
    recorded = run.reference[str(seed)]["counts"]
    if counts["sample_calls"] == counts["observations"] and all(counts[k] == recorded[k] for k in COUNTS):
        return 0
    print(f"master seed {seed}: counts {counts} differ from recorded {recorded}")
    return 1


def layer_metrics(stats: dict, counts: dict) -> dict:
    obs, episodes = counts["observations"], counts["episodes"]

    def total(key: str) -> tuple[int, float, float]:
        return stats.get(key, (0, 0.0, 0.0))

    def per_call_us(key: str) -> float:
        calls, span, _ = total(key)
        return span / calls * 1e6 if calls else 0.0

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        own = [v for k, v in stats.items() if k.split(".")[0] == layer]
        self_s = sum(span - child for _, span, child in own)
        metrics[f"{layer}.calls"] = sum(calls for calls, _, _ in own)
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.self_us_per_obs"] = self_s / obs * 1e6
    _, run_span, run_child = total("engine.run_episode")
    select_calls = total("policy.select_cl")[0]
    metrics.update(
        {
            "engine.observations": obs,
            "engine.decision_instants": counts["decision_instants"],
            "engine.episodes": episodes,
            "engine.run_episode.self_us_per_episode": (run_span - run_child) / episodes * 1e6,
            "engine.lower_bound_oracle.us_per_call": per_call_us("engine.lower_bound_oracle"),
            "policy.select_cl.us_per_call": per_call_us("policy.select_cl"),
            "policy.exploration_instants": counts["exploration_instants"],
            "policy.exploration_share": counts["exploration_instants"] / select_calls if select_calls else 0.0,
            "models.sample.us_per_call": per_call_us("models.sample"),
            "models.log_density.us_per_call": per_call_us("models.log_density"),
            "composite.ingest.us_per_call": per_call_us("composite.ingest"),
            "composite.grid_indices_per_obs": counts["grid_indices"] / obs,
        }
    )
    return metrics


def environment(harness) -> str:
    import numpy

    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy.__version__}, "
        f"seqscan from {Path(harness.__file__).parent}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    cli, harness = import_cli()
    print(environment(harness))
    workload = WORKLOADS[args.workload]
    reference = load_reference(args.workload)
    config_dict = workload.build(harness)
    if config_dict != reference["config"]:
        sys.exit(f"perfbench: the {args.workload} config differs from the one the reference was recorded with")

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        config = Path(tmp) / f"{args.workload}.json"
        config.write_text(json.dumps(config_dict, indent=2, sort_keys=True))
        run = Run(cli, reference, config, Path(tmp) / f"{args.workload}.csv")
        if args.trace:
            values = trace(run, args.seed, args.seconds)
        else:
            values = measure(run, workload, args.seed, args.seconds)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"INCORRECT: {problem}")
    correct = not run.problems
    print(f"failed_share = {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} batches)")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
