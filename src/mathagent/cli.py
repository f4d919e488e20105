"""Command-line harness: run, ablate, validate, report.

load_config builds a config's PipelineSetup once: the phases and routes
a command uses, resolved by name in the order a sample meets them, and
the prompts. run and ablate each give it one memo in build_setup, and
their modes share its backends, its memo and one in-flight gate per
base_url.

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
    PhaseSetup,
    PipelineSetup,
    load_detections,
    stream_detections,
)
from .prompts import PromptSet
from .report import (
    ReportRow,
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


class RunConfig(NamedTuple):
    dataset: Path
    mode: AblationMode
    # the phases, routes and prompts, built once; every HTTP backend waits on its base_url's
    # gate. Its cache is an in-memory stand-in: build_setup gives each command its own
    setup: PipelineSetup
    cache_path: Path | None
    output_dir: Path
    # the slots of every gate the run uses plus one spare, up to MAX_RATE_LIMIT; 1 if all scripted
    workers: int


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
    """Read and check a run config, its scripts and prompt set, then build its setup."""
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
        checked = {
            name: _backend_spec(spec, base, scripts, f"backends.{name}.")
            for name, spec in specs.items()
        }
    except (OSError, ValueError) as exc:
        # missing or bad prompt assets, unreadable script files
        raise ConfigError(str(exc)) from exc
    routes = {QuestionType(k): v for k, v in router.items() if k != "default"}
    default = router.get("default", "phase2")
    # each spec a phase or route uses, in the order a sample meets them
    used = list(dict.fromkeys(["phase1", default, "phase3", *routes.values()]))
    # one in-flight gate per base_url, sized by the smallest rate_limit of the used specs on
    # it; a used http spec names its model
    limits: dict[str, int] = {}
    for name in used:
        made = checked[name][1]
        if isinstance(made, dict):
            if "model_id" not in specs[name]:
                raise ConfigError(f"backends.{name}: http backend needs 'model_id'")
            url, limit = made["base_url"], made["rate_limit"]
            limits[url] = min(limit, limits.get(url, limit))
    gates = {url: threading.Semaphore(limit) for url, limit in limits.items()}
    phases: dict[str, PhaseSetup] = {}
    for name in used:
        settings, made = checked[name]
        if isinstance(made, dict):
            made = HttpBackend(**made, gate=gates[made["base_url"]])
        phases[name] = PhaseSetup(made, settings)

    setup = PipelineSetup(
        phases["phase1"], phases[default], phases["phase3"],
        router={qtype: phases[name] for qtype, name in routes.items()},
        prompts=prompts,
    )
    # one worker per slot, and a spare that waits at a gate while another worker parses,
    # writes or sleeps a backoff, so no slot idles; the gates alone bound the calls in flight.
    # A scripted-only run is CPU-bound, so it takes one
    slots = sum(limits.values())
    workers = min(slots + 1, MAX_RATE_LIMIT) if slots else 1
    return RunConfig(dataset, AblationMode(mode), setup, cache_path, output_dir, workers)


def _backend_spec(spec: dict, base: Path, scripts: dict[Path, object], where: str) -> tuple:
    """The spec at where, checked: (settings, ScriptedBackend or HttpBackend's keywords).

    The constructors run their own range and shape checks. Every error
    names the spec once: a script's own errors name its spec or its file,
    and any other is prefixed with the spec's path.
    """
    try:
        if not isinstance(spec, dict):
            raise ConfigError("backend spec must be an object")
        kind = spec.get("kind")
        if kind == "http":
            if "base_url" not in spec:
                raise ConfigError("http backend needs 'base_url'")
            base_url = _typed(spec, "base_url", str, None, "a string")
            retry_spec = _typed(spec, "retry", dict, {}, "an object")
            _warn_unknown(spec, _HTTP_KEYS, where)
            _warn_unknown(retry_spec, _RETRY_KEYS, where + "retry.")
            # a knob the spec leaves out gets HttpBackend's own default
            made = dict(
                base_url=base_url.rstrip("/"),
                api_key_env=_typed(spec, "api_key_env", str, DEFAULT_API_KEY_ENV, "a string"),
                retry=RetryPolicy(**{
                    key: _typed(retry_spec, key, int, default, "an integer")
                    for key, default in DEFAULT_RETRY._asdict().items()
                }),
                rate_limit=_typed(spec, "rate_limit", int, DEFAULT_RATE_LIMIT, "an integer"),
                timeout_s=_typed(spec, "timeout_s", (int, float), DEFAULT_TIMEOUT_S, "a number"),
            )
            HttpBackend(**made)  # built for its range checks, before a bad rate_limit sizes a gate
        elif kind == "scripted":
            keys = _SCRIPTED_KEYS if "script_path" in spec else _INLINE_SCRIPT_KEYS
            _warn_unknown(spec, keys, where)
            _typed(spec, "script_path", str, "", "a path string")  # the file is read below
        else:
            raise ConfigError(f"unknown backend kind {kind!r}")
        default = RequestSettings()
        settings = RequestSettings(
            model_id=_typed(spec, "model_id", str, default.model_id, "a string"),
            system_prompt=_typed(spec, "system_prompt", str, default.system_prompt, "a string"),
            temperature=_typed(spec, "temperature", (int, float), default.temperature, "a number"),
            max_tokens=_typed(spec, "max_tokens", int, default.max_tokens, "an integer"),
        )
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{where[:-1]}: {exc}") from exc
    if kind == "scripted":
        script, source = spec, where[:-1]  # a bad script is named by its file, or by its spec
        if "script_path" in spec:
            path = _resolve(base, spec["script_path"], where + "script_path")
            if path not in scripts:
                try:
                    scripts[path] = parse_json(path.read_bytes())
                except ValueError as exc:  # BadText, as for the config
                    raise ConfigError(f"script {path}: {exc}") from exc
            script, source = scripts[path], path
            if "default_reply" in spec and isinstance(script, dict):  # the spec's own wins
                script = {**script, "default_reply": spec["default_reply"]}
        try:
            made = ScriptedBackend.from_script(script)  # checks the script's shape
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    return settings, made


def _open_cache(config: RunConfig) -> ReplayCache:
    """One command's memo, persisted at config.cache_path when that is set."""
    try:
        return ReplayCache(config.cache_path)
    except (OSError, ValueError) as exc:  # unreadable or corrupt cache file
        raise ConfigError(str(exc)) from exc


def build_setup(config: RunConfig, config_base: Path | None = None) -> PipelineSetup:
    """config.setup on the config's cache, opened here; the caller closes it.

    config_base is unused, since load_config resolved every path. An HTTP
    backend the setup uses whose key variable no request could send (see
    backends.read_api_key) raises AuthError first, before the cache opens
    or any output is made. The setups of one config share its phases, and
    so its gates.
    """
    setup = config.setup
    in_turn = (setup.phase1, setup.phase2, setup.phase3, *setup.router.values())
    for backend in dict.fromkeys(p.backend for p in in_turn):  # as a sample meets them
        if not isinstance(backend, ScriptedBackend):  # an HttpBackend
            read_api_key(backend.api_key_env)
    return setup._replace(cache=_open_cache(config))


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
    config: RunConfig, modes: list[AblationMode], names: list[str], labels: list[str]
) -> list[tuple[ReportRow, dict[str, int]]]:
    """Stream each mode's detections into output_dir/<its name>: its (row, calls per phase tag).

    Every mode runs on one setup. The output directory is made only once
    it and the dataset have loaded, so a config or dataset error leaves
    none; an AuthError that stops the run leaves the lines written before
    it. Then each mode's records are scored once, into a row named by its
    label, and a mode with failed samples gets a warning naming its file.
    """
    setup = build_setup(config)
    with setup.cache:
        samples = _load_samples(config.dataset)
        in_turn = ", then ".join(mode.value for mode in modes)
        log.info(
            "running %d samples in mode %s on %d worker(s)", len(samples), in_turn, config.workers
        )
        with _writing_under(config.output_dir), contextlib.ExitStack() as stack:
            config.output_dir.mkdir(parents=True, exist_ok=True)
            logs = [
                stack.enter_context(DetectionLog(config.output_dir / name)) for name in names
            ]

            def emit(detections) -> None:
                for det_log, det in zip(logs, detections):
                    det_log.add(det)

            stream_detections(samples, modes, setup, emit, config.workers)
    scored = []
    for name, label, det_log in zip(names, labels, logs):
        row = build_report_row(det_log.records, samples, label)
        if row.failures:
            log.warning("%d of %d samples failed; see %s", row.failures, row.n_samples, name)
        scored.append((row, det_log.calls))
    return scored


def _write_report(out_dir: Path, rows: list[ReportRow]) -> str:
    """Write the rows as report.csv and report.md into out_dir, made if need be: the CSV text."""
    csv_text = render_csv(rows)
    with _writing_under(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
        (out_dir / "report.md").write_text(render_markdown(rows), encoding="utf-8")
    return csv_text


def cmd_run(args) -> int:
    config = load_config(args.config)
    model = config.setup.phase3.settings.model_id
    started = _utc_now()
    ((row, calls),) = _detect(config, [config.mode], ["detections.jsonl"], [model])
    finished = _utc_now()
    csv_text = _write_report(config.output_dir, [row])
    meta = {
        "model": model,
        "mode": config.mode.value,
        "dataset": str(config.dataset),
        "n_samples": row.n_samples,
        "n_failures": row.failures,
        "call_counts": calls,
        "workers": config.workers,
        "started_at": started,
        "finished_at": finished,
    }
    with _writing_under(config.output_dir):
        (config.output_dir / "run_meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    modes = list(AblationMode)
    labels = [mode.value for mode in modes]
    scored = _detect(config, modes, [f"detections_{label}.jsonl" for label in labels], labels)
    csv_text = render_ablation_csv(scored)
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
        row = build_report_row(detections, samples, model)
        rows = [row]
        if baseline is not None:
            base_row = build_report_row(baseline, samples, model + " (baseline)")
            rows = [base_row, attach_deltas(row, base_row)]
    except AlignmentError as exc:  # typed records leave scoring no other error
        log.error("alignment: %s", exc)
        return EXIT_FINDINGS

    csv_text = _write_report(Path(args.out_dir), rows) if args.out_dir else render_csv(rows)
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
