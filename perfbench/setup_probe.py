"""Set-up time of one seqscan run, measured inside a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG.json

Times the seqscan import, config parse and validation, and
``materialize_processes`` for every sweep point (for an alpha-matched
config that includes the error-budget bisection), then prints the seconds.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    src, config = sys.argv[1], Path(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import seqscan.cli  # noqa: F401  (the import the command line pays)
    from seqscan.harness import materialize_processes, parse_config

    cfg = parse_config(config.read_text())
    for value in cfg.sweep_values:
        materialize_processes(cfg, value)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
