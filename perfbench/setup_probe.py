"""Time one set-up of a run in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <config path>

Set-up is the import of mathagent plus the public calls a run makes
before its first sample: load_config, load_dataset and build_setup
(which loads the replay cache, when the config names one). Prints one
JSON object with the seconds of each part and their sum.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, config_path = sys.argv[1], Path(sys.argv[2])
    started = time.perf_counter()
    sys.path.insert(0, src)
    from mathagent import cli, data_model

    imported = time.perf_counter()
    config = cli.load_config(config_path)
    configured = time.perf_counter()
    samples = data_model.load_dataset(config.dataset)
    loaded = time.perf_counter()
    setup = cli.build_setup(config, config_path.parent)
    built = time.perf_counter()
    if not samples or setup is None:
        return 1
    print(json.dumps({
        "import_s": imported - started,
        "load_config_s": configured - imported,
        "load_dataset_s": loaded - configured,
        "build_setup_s": built - loaded,
        "setup_s": built - started,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
