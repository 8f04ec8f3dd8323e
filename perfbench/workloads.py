"""The benchmark's workloads, how one pass of a workload runs, and how its
output is checked against the reference recorded in ``reference.json``.

A pass is one in-process ``seqscan run CONFIG --seed S`` over the workload's
whole sweep. The benchmark seed only chooses which recorded master seeds S
the passes use and in what order, so every batch row a pass writes has a
recorded reference row to be compared with.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# master seeds 0..REFERENCE_SEEDS-1 have reference rows; 0 is the recipes'
# own default seed
REFERENCE_SEEDS = 64

# exact counts a traced pass records; they depend only on the master seed
COUNTS = ("observations", "episodes", "decision_instants", "exploration_instants", "grid_indices")


@dataclass(frozen=True)
class Workload:
    build: Callable  # seqscan.harness module -> config dict
    tail_percentile: float  # fixed so the tail keeps its meaning as speed changes


def _figure(recipe: str, episodes: int) -> Callable:
    def build(harness) -> dict:
        cfg = replace(harness.figure_config(recipe), episodes=episodes)
        return json.loads(harness.serialize_config(cfg))

    return build


def _wide_k(harness) -> dict:
    return {
        "name": "wide_k",
        "episodes": 1,
        "master_seed": 0,
        "m": 5,
        "policies": ["CL", "OL", "CL-no-explore"],
        "sweep": {"variable": "K", "values": [1000]},
        "generator": {"kind": "identical"},
    }


WORKLOADS = {
    # fig1 at its full K sweep: GLR grid processes, 80 short episodes a pass
    "grid_glr": Workload(_figure("fig1", 10), 99.0),
    # fig5: two model-pair processes, dense exploration, heavy-tailed episodes
    "pair_explore": Workload(_figure("fig5", 1), 95.0),
    # K=1000 model pairs, M=5: CL re-ranks 1000 ids per instant; OL path too.
    # OL episodes take a third of CL's; two closed-loop policies to one OL
    # keep the median episode inside the closed-loop mode
    "wide_k": Workload(_wide_k, 80.0),
}


def pass_seeds(seed: int) -> list[int]:
    """Master seeds of a run's passes, in order, chosen by the benchmark seed."""
    order = list(range(REFERENCE_SEEDS))
    random.Random(seed).shuffle(order)
    return order


def load_reference(name: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


@dataclass
class PassResult:
    master_seed: int
    seconds: float
    csv: str | None  # None when the run raised or returned nonzero


def run_pass(cli, config: Path, out: Path, master_seed: int) -> PassResult:
    """One ``seqscan run``; only the call into the program is timed."""
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(["run", str(config), "--seed", str(master_seed), "--out", str(out)])
    except Exception:  # noqa: BLE001  (a crashing pass counts as failed batches)
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - start
    csv = out.read_text() if rc == 0 and out.exists() else None
    return PassResult(master_seed, seconds, csv)


def failed_batches(csv: str | None, expected: list[str]) -> int:
    """Batch rows that differ from the reference; all of them when the
    header or the row count differs."""
    rows = len(expected) - 1
    if csv is None:
        return rows
    got = csv.splitlines()
    if len(got) != len(expected) or got[0] != expected[0]:
        return rows
    return sum(g != e for g, e in zip(got[1:], expected[1:]))


def csv_totals(csv: str) -> dict[str, int]:
    """Episodes, observations (sum of mean_samples x episodes) and batches
    whose lower bound was dropped, read from a summary CSV."""
    header, *rows = (line.split(",") for line in csv.splitlines())
    col = {name: i for i, name in enumerate(header)}
    totals = {"episodes": 0, "observations": 0, "bounds_dropped": 0}
    for row in rows:
        episodes = int(row[col["episodes"]])
        if not episodes:  # a failed batch: its numeric cells are empty
            continue
        totals["episodes"] += episodes
        totals["observations"] += round(float(row[col["mean_samples"]]) * episodes)
        totals["bounds_dropped"] += row[col["lower_bound"]] == ""
    return totals


def traced_counts(before: dict, after: dict, observations: int) -> dict[str, int]:
    """COUNTS for one traced pass, from two Tracer snapshots."""

    def calls(key: str) -> int:
        return after.get(key, (0,))[0] - before.get(key, (0,))[0]

    return {
        "observations": observations,
        "episodes": calls("engine.run_episode"),
        "decision_instants": calls("engine.apply_switching_delay"),
        "exploration_instants": calls("policy.round_robin_next_multi"),
        "grid_indices": calls("composite.indices"),
        "sample_calls": calls("models.sample"),
    }
