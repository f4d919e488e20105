"""Command-line harness: run, ablate, validate, report.

Exit codes: 0 success, 1 validation or alignment findings, 2 config
error, 3 dataset error. Logs go to stderr; stdout carries report data.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .backends import (
    Backend,
    HttpBackend,
    ReplayCache,
    RequestSettings,
    RetryPolicy,
    ScriptedBackend,
)
from .data_model import (
    EmptyDataset,
    ErrorCategory,
    QuestionType,
    SchemaError,
    dataset_stats,
    load_dataset,
    scan_dataset,
)
from .metrics import AlignmentError
from .pipeline import (
    AblationMode,
    PhaseSetup,
    PipelineSetup,
    SharedSteps,
    call_counts,
    load_detections,
    run_dataset,
    write_detections,
)
from .prompts import PromptSet
from .report import (
    attach_deltas,
    build_report_row,
    render_ablation_csv,
    render_csv,
    render_markdown,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2
EXIT_DATASET = 3

log = logging.getLogger("mathagent")


class ConfigError(Exception):
    pass


class DatasetError(Exception):
    pass


PHASE_NAMES = ("phase1", "phase2", "phase3")


@dataclass
class RunConfig:
    dataset: Path
    mode: AblationMode
    backends: dict[str, dict]
    router: dict[str, str] = field(default_factory=dict)
    workers: int = 1
    cache_path: Path | None = None
    output_dir: Path = Path("runs/out")
    prompt_dir: Path | None = None


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


def _typed(spec: dict, key: str, kind, default, what: str):
    """spec[key], or default when the key is absent; a `kind`, never a JSON boolean."""
    value = spec.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):  # bool is an int subclass
        raise ConfigError(f"{key!r} must be {what}, not {type(value).__name__}")
    return value


def _path(raw: dict, key: str, base: Path, default: str | None = None) -> Path | None:
    """raw[key] resolved against base; an absent, null or empty value gives default."""
    value = _typed(raw, key, (str, type(None)), None, "a path string") or default
    return None if value is None else _resolve(base, value)


def load_config(path) -> RunConfig:
    """Parse and sanity-check a run config; all problems raise ConfigError."""
    config_path = Path(path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    base = config_path.parent
    dataset = _path(raw, "dataset", base)
    if dataset is None:
        raise ConfigError("config needs a 'dataset' path")
    mode_raw = raw.get("mode", "full")
    try:
        mode = AblationMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"unknown mode {mode_raw!r}; expected one of "
            + ", ".join(m.value for m in AblationMode)
        ) from None

    backends = raw.get("backends")
    if not isinstance(backends, dict):
        raise ConfigError("config needs a 'backends' object")
    for name in PHASE_NAMES:
        if name not in backends:
            raise ConfigError(f"backends must define {name!r}")

    router = raw.get("router", {})
    if not isinstance(router, dict):
        raise ConfigError("'router' must be an object")
    valid_keys = {q.value for q in QuestionType} | {"default"}
    for key, target in router.items():
        if key not in valid_keys:
            raise ConfigError(f"router key {key!r} is not a question type")
        if not isinstance(target, str) or target not in backends:
            raise ConfigError(f"router target {target!r} is not a configured backend")

    workers = _typed(raw, "workers", int, 1, "a positive integer")
    if workers < 1:
        raise ConfigError("'workers' must be a positive integer")

    return RunConfig(
        dataset=dataset,
        mode=mode,
        backends=backends,
        router=router,
        workers=workers,
        cache_path=_path(raw, "cache_path", base),
        output_dir=_path(raw, "output_dir", base, "runs/out"),
        prompt_dir=_path(raw, "prompt_dir", base),
    )


def build_backend(spec: dict, base: Path) -> Backend:
    """Construct a backend from its config object."""
    if not isinstance(spec, dict):
        raise ConfigError("backend spec must be an object")
    kind = spec.get("kind")
    if kind == "http":
        if "base_url" not in spec:
            raise ConfigError("http backend needs 'base_url'")
        retry_spec = _typed(spec, "retry", dict, {}, "an object")
        return HttpBackend(
            base_url=_typed(spec, "base_url", str, None, "a string"),
            api_key_env=_typed(spec, "api_key_env", str, "MATHAGENT_API_KEY", "a string"),
            retry=RetryPolicy(
                max_attempts=_typed(retry_spec, "max_attempts", int, 3, "an integer"),
                backoff_base_ms=_typed(retry_spec, "backoff_base_ms", int, 250, "an integer"),
            ),
            rate_limit=_typed(spec, "rate_limit", int, 4, "an integer"),
            timeout_s=_typed(spec, "timeout_s", (int, float), 60.0, "a number"),
        )
    if kind != "scripted":
        raise ConfigError(f"unknown backend kind {kind!r}")
    script = spec
    if "script_path" in spec:
        path = _resolve(base, _typed(spec, "script_path", str, None, "a path string"))
        script = json.loads(path.read_text(encoding="utf-8"))
        if "default_reply" in spec and isinstance(script, dict):  # the spec's own wins
            script = {**script, "default_reply": spec["default_reply"]}
    return ScriptedBackend.from_script(script)


def _settings(spec: dict) -> RequestSettings:
    """The request knobs of a backend spec; a bad one raises before any sample runs."""
    default = RequestSettings()
    return RequestSettings(
        model_id=_typed(spec, "model_id", str, default.model_id, "a string"),
        system_prompt=_typed(spec, "system_prompt", str, default.system_prompt, "a string"),
        temperature=_typed(spec, "temperature", (int, float), default.temperature, "a number"),
        max_tokens=_typed(spec, "max_tokens", int, default.max_tokens, "an integer"),
    )


def _open_cache(config: RunConfig) -> ReplayCache:
    """One command's memo, persisted at config.cache_path when that is set."""
    try:
        return ReplayCache(config.cache_path)
    except (OSError, ValueError) as exc:  # unreadable or corrupt cache file
        raise ConfigError(str(exc)) from exc


def build_setup(
    config: RunConfig, config_base: Path, cache: ReplayCache | None = None
) -> PipelineSetup:
    """Fresh backends, router and prompt set for one pipeline run.

    Every call of the setup asks `cache` first, by default a new one.
    """
    if cache is None:
        cache = _open_cache(config)
    built: dict[str, PhaseSetup] = {}
    try:
        prompts = PromptSet.load(config.prompt_dir)
        for name, spec in config.backends.items():
            built[name] = PhaseSetup(
                backend=build_backend(spec, config_base),
                settings=_settings(spec),
            )
    except (OSError, ValueError) as exc:
        # missing prompt assets or script files, bad scripts, knobs out of range
        raise ConfigError(str(exc)) from exc
    default_name = config.router.get("default", "phase2")
    router: dict[QuestionType, PhaseSetup] = {}
    for key, target in config.router.items():
        if key == "default":
            continue
        router[QuestionType(key)] = built[target]
    return PipelineSetup(
        phase1=built["phase1"],
        phase2=built[default_name],
        phase3=built["phase3"],
        router=router,
        prompts=prompts,
        cache=cache,
    )


def _load_samples(dataset_path: Path):
    try:
        samples = load_dataset(dataset_path)
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {dataset_path}: {exc}") from exc
    except SchemaError as exc:
        raise DatasetError(f"dataset {dataset_path}: {exc}") from exc
    if not samples:
        raise DatasetError(f"dataset {dataset_path} has no samples")
    return samples


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def cmd_run(args) -> int:
    config = load_config(args.config)
    with _open_cache(config) as cache:
        setup = build_setup(config, Path(args.config).parent, cache)
        samples = _load_samples(config.dataset)
        log.info("running %d samples in mode %s", len(samples), config.mode.value)

        started = _utc_now()
        detections = run_dataset(samples, config.mode, setup, workers=config.workers)
        finished = _utc_now()
    model = setup.phase3.settings.model_id

    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_detections(detections, out_dir / "detections.jsonl")

    row = build_report_row(detections, samples, model)
    csv_text = render_csv([row])
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / "report.md").write_text(render_markdown([row]), encoding="utf-8")

    failures = sum(1 for d in detections if d.failure is not None)
    meta = {
        "model": model,
        "mode": config.mode.value,
        "dataset": str(config.dataset),
        "n_samples": len(samples),
        "n_failures": failures,
        "call_counts": call_counts(detections),
        "workers": config.workers,
        "started_at": started,
        "finished_at": finished,
    }
    (out_dir / "run_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if failures:
        log.warning("%d of %d samples failed; see detections.jsonl", failures, len(samples))
    sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    samples = _load_samples(config.dataset)
    out_dir = config.output_dir
    # each sample's phase results, reused by the modes after the one that ran them
    shared = [SharedSteps() for _ in samples]
    modes = list(AblationMode)

    entries = []
    with _open_cache(config) as cache:  # shared by all four modes
        for mode in modes:
            log.info("ablation mode %s", mode.value)
            if mode is modes[-1]:
                for steps in shared:
                    steps.storing = False  # no later mode would read them
            setup = build_setup(config, Path(args.config).parent, cache)
            detections = run_dataset(samples, mode, setup, config.workers, shared)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_detections(detections, out_dir / f"detections_{mode.value}.jsonl")
            row = build_report_row(detections, samples, mode.value)
            entries.append((mode.value, row, call_counts(detections)))

    csv_text = render_ablation_csv(entries)
    (out_dir / "ablation.csv").write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return EXIT_OK


def _print_stats(samples) -> None:
    stats = dataset_stats(samples)
    print(f"total: {stats.total}")
    print("by_question_type:")
    for qtype in QuestionType:
        if qtype in stats.by_question_type:
            print(f"  {qtype.value}: {stats.by_question_type[qtype]}")
    if None in stats.by_question_type:
        print(f"  unlabeled: {stats.by_question_type[None]}")
    print("by_error_category:")
    for cat in ErrorCategory:
        if cat in stats.by_error_category:
            print(f"  {cat.value}: {stats.by_error_category[cat]}")
    print(
        f"steps: mean={stats.step_count_mean} "
        f"min={stats.step_count_min} max={stats.step_count_max}"
    )
    print(
        f"question_length: mean={stats.question_length_mean} "
        f"min={stats.question_length_min} max={stats.question_length_max}"
    )


def cmd_validate(args) -> int:
    dataset_path = Path(args.dataset)
    try:
        samples, findings = scan_dataset(dataset_path)
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {dataset_path}: {exc}") from exc
    for finding in findings:
        print(str(finding))
    if samples:
        _print_stats(samples)
    if not samples and not findings:
        print("line 0: field '': dataset contains no samples")
        return EXIT_FINDINGS
    return EXIT_FINDINGS if findings else EXIT_OK


def cmd_report(args) -> int:
    samples = _load_samples(Path(args.dataset))
    try:
        detections = load_detections(Path(args.detections))
    except OSError as exc:
        raise DatasetError(f"cannot read detections: {exc}") from exc
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_FINDINGS

    model = args.model
    if model is None:
        meta_path = Path(args.detections).parent / "run_meta.json"
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # absent, unreadable or not JSON
            meta = None
        model = meta.get("model") if isinstance(meta, dict) else None
        if not isinstance(model, str):
            model = "run"

    try:
        row = build_report_row(detections, samples, model)
        rows = [row]
        if args.baseline:
            base_detections = load_detections(Path(args.baseline))
            base_row = build_report_row(base_detections, samples, model + " (baseline)")
            rows = [base_row, attach_deltas(row, base_row)]
    except AlignmentError as exc:
        log.error("alignment: %s", exc)
        return EXIT_FINDINGS
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_FINDINGS

    csv_text = render_csv(rows)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
        (out_dir / "report.md").write_text(render_markdown(rows), encoding="utf-8")
    sys.stdout.write(csv_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathagent",
        description="Locate the first wrong step in student math solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline over a dataset")
    p_run.add_argument("--config", required=True, help="path to run config JSON")
    p_run.set_defaults(func=cmd_run)

    p_ablate = sub.add_parser("ablate", help="run all four ablation modes")
    p_ablate.add_argument("--config", required=True, help="path to run config JSON")
    p_ablate.set_defaults(func=cmd_ablate)

    p_validate = sub.add_parser("validate", help="schema-check a dataset and print stats")
    p_validate.add_argument("dataset", help="dataset JSONL path")
    p_validate.set_defaults(func=cmd_validate)

    p_report = sub.add_parser("report", help="recompute a report from detections")
    p_report.add_argument("detections", help="detections JSONL path")
    p_report.add_argument("dataset", help="dataset JSONL path")
    p_report.add_argument("--baseline", help="baseline detections for deltas")
    p_report.add_argument("--out-dir", help="where to write report.csv and report.md")
    p_report.add_argument("--model", help="model label for the report row")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    except DatasetError as exc:
        log.error("dataset: %s", exc)
        return EXIT_DATASET
    except EmptyDataset as exc:
        log.error("dataset: %s", exc)
        return EXIT_DATASET


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
