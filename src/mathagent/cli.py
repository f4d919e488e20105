"""Command-line harness: run, ablate, validate, report.

run and ablate each build one PipelineSetup, whose modes share its
backends, its memo and one in-flight gate per base_url.

Exit codes: 0 success, 1 validation or alignment findings, 2 config
error, an output location that cannot be made or written, or an
AuthError, which stops a run (its detections keep their aligned
prefix), 3 dataset error, 130 interrupted (Ctrl-C). Logs go to stderr;
stdout carries report data.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import logging
import sys
import threading
from pathlib import Path
from typing import NamedTuple

from .backends import (
    DEFAULT_API_KEY_ENV,
    DEFAULT_RATE_LIMIT,
    DEFAULT_RETRY,
    DEFAULT_TIMEOUT_S,
    MAX_RATE_LIMIT,
    AuthError,
    Backend,
    HttpBackend,
    ReplayCache,
    RequestSettings,
    RetryPolicy,
    ScriptedBackend,
    read_api_key,
)
from .data_model import (
    EmptyDataset,
    ErrorCategory,
    QuestionType,
    Sample,
    SchemaError,
    dataset_stats,
    load_dataset,
    parse_json,
    scan_dataset,
)
from .metrics import AlignmentError
from .pipeline import (
    AblationMode,
    DetectionLog,
    DetectionRecord,
    PhaseSetup,
    PipelineSetup,
    load_detections,
    stream_detections,
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
EXIT_INTERRUPTED = 130  # Ctrl-C, as a shell reports SIGINT

log = logging.getLogger("mathagent")


class ConfigError(Exception):
    pass


class DatasetError(Exception):
    pass


PHASE_NAMES = ("phase1", "phase2", "phase3")

# the keys each part of a config may hold; load_config warns about any other
_CONFIG_KEYS = frozenset(
    {"dataset", "mode", "backends", "router", "cache_path", "output_dir", "prompt_dir"}
)
_SPEC_KEYS = frozenset({"kind", "model_id", "system_prompt", "temperature", "max_tokens"})
_HTTP_KEYS = _SPEC_KEYS | {"base_url", "api_key_env", "retry", "rate_limit", "timeout_s"}
_RETRY_KEYS = frozenset({"max_attempts", "backoff_base_ms"})
_SCRIPTED_KEYS = _SPEC_KEYS | {"script_path", "default_reply"}
_INLINE_SCRIPT_KEYS = _SCRIPTED_KEYS | {"phases", "by_fingerprint"}  # a script in the spec


class BackendSpec(NamedTuple):
    """One checked backend spec: its request knobs and what builds its backend."""

    settings: RequestSettings
    http: dict | None  # HttpBackend's keyword arguments, retry built
    scripted: ScriptedBackend | None  # the spec's backend, when http is None

    def build(self, gates: dict[str, threading.Semaphore]) -> Backend:
        """The scripted backend, which holds no state, or an http one on its base_url's gate."""
        if self.http is None:
            return self.scripted
        return HttpBackend(**self.http, gate=gates.get(self.http["base_url"]))


class RunConfig(NamedTuple):
    dataset: Path
    mode: AblationMode
    backends: dict[str, BackendSpec]
    prompts: PromptSet
    router: dict[str, str]
    cache_path: Path | None
    output_dir: Path


def _resolve(base: Path, value: str, key: str) -> Path:
    if "\0" in value:  # no file name holds one, and opening it raises a bare ValueError
        raise ConfigError(f"{key!r} holds a NUL byte")
    path = Path(value)
    return path if path.is_absolute() else base / path


def _typed(spec: dict, key: str, kind, default, what: str):
    """spec[key], or default when the key is absent; a `kind`, never a JSON boolean."""
    value = spec.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):  # bool is an int subclass
        raise ConfigError(f"{key!r} must be {what}, not {type(value).__name__}")
    return value


def _warn_unknown(obj: dict, known: frozenset, where: str) -> None:
    """One warning for each key of obj outside known, named by its path in the config."""
    for key in obj:
        if key not in known:
            log.warning("config: unknown key %r ignored", where + key)


def _path(raw: dict, key: str, base: Path, default: str | None = None) -> Path | None:
    """raw[key] resolved against base; an absent, null or empty value gives default."""
    value = _typed(raw, key, (str, type(None)), None, "a path string") or default
    return None if value is None else _resolve(base, value, key)


def load_config(path) -> RunConfig:
    """Read and check a run config, its scripts and its prompt set; problems raise ConfigError."""
    config_path = Path(path)
    try:
        raw = parse_json(config_path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except ValueError as exc:  # BadText: not UTF-8, not JSON, or a lone surrogate
        raise ConfigError(f"config {config_path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _warn_unknown(raw, _CONFIG_KEYS, "")

    base = config_path.parent
    dataset = _path(raw, "dataset", base)
    if dataset is None:
        raise ConfigError("config needs a 'dataset' path")
    mode = raw.get("mode", "full")
    modes = [m.value for m in AblationMode]
    if mode not in modes:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(modes)}")

    specs = raw.get("backends")
    if not isinstance(specs, dict):
        raise ConfigError("config needs a 'backends' object")
    for name in PHASE_NAMES:
        if name not in specs:
            raise ConfigError(f"backends must define {name!r}")

    router = raw.get("router", {})
    if not isinstance(router, dict):
        raise ConfigError("'router' must be an object")
    valid_keys = {q.value for q in QuestionType} | {"default"}
    for key, target in router.items():
        if key not in valid_keys:
            raise ConfigError(f"router key {key!r} is not a question type")
        if not isinstance(target, str) or target not in specs:
            raise ConfigError(f"router target {target!r} is not a configured backend")

    cache_path = _path(raw, "cache_path", base)
    output_dir = _path(raw, "output_dir", base, "runs/out")
    prompt_dir = _path(raw, "prompt_dir", base)
    scripts: dict[Path, object] = {}  # each script file read once, whichever specs name it
    try:
        prompts = PromptSet.load(prompt_dir)
        backends = {
            name: _backend_spec(spec, base, scripts, f"backends.{name}.")
            for name, spec in specs.items()
        }
    except (OSError, ValueError) as exc:
        # missing prompt assets or script files, bad scripts, knobs out of range
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        dataset, AblationMode(mode), backends, prompts, router, cache_path, output_dir
    )


def _backend_spec(spec: dict, base: Path, scripts: dict[Path, object], where: str) -> BackendSpec:
    """A checked backend spec at where; the constructors run their own range and shape checks."""
    if not isinstance(spec, dict):
        raise ConfigError("backend spec must be an object")
    kind = spec.get("kind")
    http = scripted = None
    if kind == "http":
        if "base_url" not in spec:
            raise ConfigError("http backend needs 'base_url'")
        base_url = _typed(spec, "base_url", str, None, "a string")
        retry_spec = _typed(spec, "retry", dict, {}, "an object")
        _warn_unknown(spec, _HTTP_KEYS, where)
        _warn_unknown(retry_spec, _RETRY_KEYS, where + "retry.")
        # a knob the spec leaves out gets HttpBackend's own default
        http = dict(
            base_url=base_url.rstrip("/"),
            api_key_env=_typed(spec, "api_key_env", str, DEFAULT_API_KEY_ENV, "a string"),
            retry=RetryPolicy(**{
                key: _typed(retry_spec, key, int, default, "an integer")
                for key, default in DEFAULT_RETRY._asdict().items()
            }),
            rate_limit=_typed(spec, "rate_limit", int, DEFAULT_RATE_LIMIT, "an integer"),
            timeout_s=_typed(spec, "timeout_s", (int, float), DEFAULT_TIMEOUT_S, "a number"),
        )
        HttpBackend(**http)  # built only for its range checks, as RetryPolicy was
    elif kind == "scripted":
        _warn_unknown(spec, _SCRIPTED_KEYS if "script_path" in spec else _INLINE_SCRIPT_KEYS, where)
        script = spec
        if "script_path" in spec:
            value = _typed(spec, "script_path", str, None, "a path string")
            path = _resolve(base, value, where + "script_path")
            if path not in scripts:
                try:
                    scripts[path] = parse_json(path.read_bytes())
                except ValueError as exc:  # BadText, as for the config
                    raise ConfigError(f"script {path}: {exc}") from exc
            script = scripts[path]
            if "default_reply" in spec and isinstance(script, dict):  # the spec's own wins
                script = {**script, "default_reply": spec["default_reply"]}
        scripted = ScriptedBackend.from_script(script)  # checks the script's shape
    else:
        raise ConfigError(f"unknown backend kind {kind!r}")
    default = RequestSettings()
    settings = RequestSettings(
        model_id=_typed(spec, "model_id", str, default.model_id, "a string"),
        system_prompt=_typed(spec, "system_prompt", str, default.system_prompt, "a string"),
        temperature=_typed(spec, "temperature", (int, float), default.temperature, "a number"),
        max_tokens=_typed(spec, "max_tokens", int, default.max_tokens, "an integer"),
    )
    return BackendSpec(settings, http, scripted)


def _http_gates(config: RunConfig) -> tuple[dict[str, threading.Semaphore], int]:
    """One in-flight gate per HTTP base_url, sized by the smallest rate_limit on it, and workers."""
    limits: dict[str, int] = {}
    for spec in config.backends.values():
        if spec.http is not None:
            url, limit = spec.http["base_url"], spec.http["rate_limit"]
            limits[url] = min(limit, limits.get(url, limit))
    gates = {url: threading.Semaphore(limit) for url, limit in limits.items()}
    # a worker per slot fills every gate, up to one gate's bound in all; a scripted-only run
    # is CPU-bound, so it takes one
    return gates, min(sum(limits.values()), MAX_RATE_LIMIT) or 1


def _open_cache(config: RunConfig) -> ReplayCache:
    """One command's memo, persisted at config.cache_path when that is set."""
    try:
        return ReplayCache(config.cache_path)
    except (OSError, ValueError) as exc:  # unreadable or corrupt cache file
        raise ConfigError(str(exc)) from exc


def build_setup(config: RunConfig, config_base: Path | None = None) -> PipelineSetup:
    """One command's setup on the config's checked specs; the caller closes its cache.

    config_base is unused, since load_config resolved every path. An HTTP
    backend the setup uses whose key variable no request could send (see
    backends.read_api_key) raises AuthError first, before any output is
    made. Every call asks the config's cache, opened here, and each HTTP
    backend waits on its base_url's gate, new here and shared by every
    mode run on the setup. Scripted backends are the config's own.
    """
    phase2 = config.router.get("default", "phase2")
    # each backend a phase or a route uses, in the order a sample's calls meet them
    for name in dict.fromkeys(("phase1", phase2, "phase3", *config.router.values())):
        http = config.backends[name].http
        if http is not None:
            read_api_key(http["api_key_env"])
    cache = _open_cache(config)
    gates, _ = _http_gates(config)
    built = {
        name: PhaseSetup(backend=spec.build(gates), settings=spec.settings)
        for name, spec in config.backends.items()
    }
    router = {QuestionType(k): built[v] for k, v in config.router.items() if k != "default"}
    return PipelineSetup(
        built["phase1"], built[phase2], built["phase3"],
        router=router, prompts=config.prompts, cache=cache,
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


@contextlib.contextmanager
def _writing_under(out_dir: Path):
    """Map an OSError from making or writing an output to a ConfigError naming its path."""
    try:
        yield
    except OSError as exc:
        path = out_dir if exc.filename is None else exc.filename
        raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _detect(
    config: RunConfig, modes: list[AblationMode], names: list[str]
) -> tuple[list[Sample], list[DetectionLog], int]:
    """Stream each mode's detections into output_dir/<its name>: (samples, logs, workers).

    Every mode runs on one setup. The output directory is made only once
    it and the dataset have loaded, so a config or dataset error leaves
    none; an AuthError that stops the run leaves the lines written before
    it. A mode with failed samples gets a warning naming its file.
    """
    setup = build_setup(config)
    with setup.cache:
        _, workers = _http_gates(config)
        samples = _load_samples(config.dataset)
        in_turn = ", then ".join(mode.value for mode in modes)
        log.info("running %d samples in mode %s on %d worker(s)", len(samples), in_turn, workers)
        with _writing_under(config.output_dir), contextlib.ExitStack() as stack:
            config.output_dir.mkdir(parents=True, exist_ok=True)
            logs = [
                stack.enter_context(DetectionLog(config.output_dir / name)) for name in names
            ]

            def emit(detections) -> None:
                for det_log, det in zip(logs, detections):
                    det_log.add(det)

            stream_detections(samples, modes, setup, emit, workers)
    for name, det_log in zip(names, logs):
        if det_log.failures:
            log.warning("%d of %d samples failed; see %s", det_log.failures, len(samples), name)
    return samples, logs, workers


def cmd_run(args) -> int:
    config = load_config(args.config)
    started = _utc_now()
    samples, (detections,), workers = _detect(config, [config.mode], ["detections.jsonl"])
    finished = _utc_now()
    model = config.backends["phase3"].settings.model_id

    out_dir = config.output_dir
    row = build_report_row(detections.records, samples, model, detections.failures)
    csv_text = render_csv([row])

    meta = {
        "model": model,
        "mode": config.mode.value,
        "dataset": str(config.dataset),
        "n_samples": len(samples),
        "n_failures": detections.failures,
        "call_counts": detections.calls,
        "workers": workers,
        "started_at": started,
        "finished_at": finished,
    }
    with _writing_under(out_dir):
        (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
        (out_dir / "report.md").write_text(render_markdown([row]), encoding="utf-8")
        (out_dir / "run_meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    modes = list(AblationMode)
    names = [f"detections_{mode.value}.jsonl" for mode in modes]
    samples, logs, _ = _detect(config, modes, names)
    entries = [
        (mode.value, build_report_row(det_log.records, samples, mode.value), det_log.calls)
        for mode, det_log in zip(modes, logs)
    ]
    csv_text = render_ablation_csv(entries)
    with _writing_under(config.output_dir):
        (config.output_dir / "ablation.csv").write_text(csv_text, encoding="utf-8")
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


def _failures(records: list[DetectionRecord]) -> int:
    return sum(record.failure is not None for record in records)


def cmd_report(args) -> int:
    samples = _load_samples(Path(args.dataset))
    try:
        detections = load_detections(Path(args.detections))
        baseline = load_detections(Path(args.baseline)) if args.baseline else None
    except OSError as exc:  # a missing or unreadable file
        raise DatasetError(f"cannot read detections: {exc}") from exc
    except ValueError as exc:  # a bad line
        log.error("%s", exc)
        return EXIT_FINDINGS

    model = args.model
    if model is None:
        meta_path = Path(args.detections).parent / "run_meta.json"
        try:
            meta = parse_json(meta_path.read_bytes())
        except (OSError, ValueError):  # absent, unreadable or not JSON
            meta = None
        model = meta.get("model") if isinstance(meta, dict) else None
        if not isinstance(model, str):
            model = "run"

    try:
        row = build_report_row(detections, samples, model, _failures(detections))
        rows = [row]
        if baseline is not None:
            base_row = build_report_row(
                baseline, samples, model + " (baseline)", _failures(baseline)
            )
            rows = [base_row, attach_deltas(row, base_row)]
    except AlignmentError as exc:  # typed records leave scoring no other error
        log.error("alignment: %s", exc)
        return EXIT_FINDINGS

    csv_text = render_csv(rows)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        with _writing_under(out_dir):
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
    except AuthError as exc:  # it names the variable or the URL, never the key
        log.error("auth: %s", exc)
        return EXIT_CONFIG
    except (DatasetError, EmptyDataset) as exc:
        log.error("dataset: %s", exc)
        return EXIT_DATASET
    except KeyboardInterrupt:
        log.error("interrupted")
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
