#!/usr/bin/env python3
"""Write the synthetic reference dataset to a JSONL file.

The generated corpus mirrors the marginal statistics of the benchmark
snapshot the evaluation harness was tuned against: 2500 samples with
fixed question-type and error-category counts, step counts, and
question lengths. Construction is deterministic, so reruns produce
byte-identical output.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mathagent import dataset_stats, write_dataset
from mathagent.synth import synthetic_reference_dataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("out/synthetic_reference.jsonl"),
        help="Destination JSONL path (parents created as needed).",
    )
    args = parser.parse_args()

    samples = synthetic_reference_dataset()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(samples, args.out)

    stats = dataset_stats(samples)
    types = {k.value if k else "unlabeled": v for k, v in stats.by_question_type.items()}
    categories = {k.value: v for k, v in stats.by_error_category.items()}
    print(f"wrote {stats.total} samples to {args.out}")
    print(f"question types: {dict(sorted(types.items()))}")
    print(f"error categories: {dict(sorted(categories.items()))}")
    print(
        f"steps: mean={stats.step_count_mean} min={stats.step_count_min} "
        f"max={stats.step_count_max}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
