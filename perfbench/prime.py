"""Fill a workload's replay cache with one untimed, gated run.

Usage: python3 perfbench/prime.py <workload> <seed> <workdir>

The workdir holds the inputs the benchmark wrote for this seed. The run
goes through the fake endpoint (at the workload's latency) and must pass
the same correctness gate as a timed run. It runs in its own process so
that the cold HTTP path it takes stays out of the timed process's peak
RSS. Prints the replies served per property as one JSON object.
"""

import json
import sys
from pathlib import Path

from run import SRC, Bench, GateFailure


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(SRC))
    try:
        outcome = Bench(name, seed, workdir, write=False).run(warm=False)
    except GateFailure as exc:
        print(f"priming run failed its gate: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(dict(outcome.served)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
