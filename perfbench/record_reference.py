"""Record the reference that perfbench/run.py checks every pass against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

For each workload (all by default) and each master seed below
REFERENCE_SEEDS, runs one untraced and one traced pass, keeps the summary
CSV lines and the traced exact counts, and rewrites those workloads'
entries in reference.json. Run it only on a commit whose CSV output is
known good: the benchmark treats these rows as the correct output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, import_cli
from tracing import EpisodeClock, Tracer
from workloads import COUNTS, REFERENCE, REFERENCE_SEEDS, WORKLOADS, csv_totals, run_pass, traced_counts


def record(cli, harness, name: str, tmp: Path) -> dict:
    config_dict = WORKLOADS[name].build(harness)
    config = tmp / f"{name}.json"
    config.write_text(json.dumps(config_dict, indent=2, sort_keys=True))
    out = tmp / f"{name}.csv"
    passes = {}
    with EpisodeClock() as clock:
        for seed in range(REFERENCE_SEEDS):
            plain = run_pass(cli, config, out, seed)
            if plain.csv is None:
                raise SystemExit(f"{name}: master seed {seed} failed")
            seen = clock.observations
            with Tracer() as tracer:
                traced = run_pass(cli, config, out, seed)
            counts = traced_counts({}, tracer.snapshot(), clock.observations - seen)
            totals = csv_totals(plain.csv)
            if (
                traced.csv != plain.csv
                or counts["sample_calls"] != counts["observations"]
                or counts["observations"] != totals["observations"]
                or counts["episodes"] != totals["episodes"]
            ):
                raise SystemExit(f"{name}: master seed {seed} is not reproducible")
            passes[str(seed)] = {
                "csv": plain.csv.splitlines(),
                "counts": {k: counts[k] for k in COUNTS},
            }
            print(f"{name} seed {seed}: {counts}", flush=True)
    return {"config": config_dict, "passes": passes}


def main() -> None:
    names = sys.argv[1:] or sorted(WORKLOADS)
    cli, harness = import_cli()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for name in names:
            reference[name] = record(cli, harness, name, Path(tmp))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
