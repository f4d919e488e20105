#!/usr/bin/env python3
"""Run the detection pipeline on the bundled 12-sample fixture.

Uses the scripted backend shipped with the test suite, so no network
access or API key is needed. Prints the scored report for the full
pipeline, then the four-row ablation grid, all from one setup: its memo
answers the requests a later run repeats.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from mathagent import (
    AblationMode,
    PhaseSetup,
    PipelineSetup,
    ScriptedBackend,
    build_report_row,
    call_counts,
    load_dataset,
    render_ablation_csv,
    render_markdown,
    run_dataset,
)

FIXTURES = REPO_ROOT / "tests" / "fixtures"


def main() -> int:
    samples = load_dataset(FIXTURES / "dataset_12.jsonl")
    print(f"loaded {len(samples)} samples from {FIXTURES / 'dataset_12.jsonl'}")

    phase = PhaseSetup(backend=ScriptedBackend.from_file(FIXTURES / "scripts_12.json"))
    setup = PipelineSetup(phase1=phase, phase2=phase, phase3=phase)
    detections = run_dataset(samples, AblationMode.FULL, setup)
    row = build_report_row(detections, samples, "scripted-12")
    print(f"full pipeline: {len(detections)} detections, {row.failures} failures")
    print()
    print(render_markdown([row]))

    entries = []
    for mode in AblationMode:
        mode_detections = run_dataset(samples, mode, setup)
        row = build_report_row(mode_detections, samples, mode.value)
        entries.append((row, call_counts(mode_detections)))
    print("ablation grid:")
    print(render_ablation_csv(entries), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
