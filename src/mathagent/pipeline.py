"""Three-phase detection pipeline and its ablation variants.

Per sample: (1) decide whether the image adds information beyond the
text, (2) if it does, transcribe it according to the question type,
(3) hand everything to the text-only analyzer. Ablations drop phase 1,
replace phase 2 routing with plain captioning, or cut the problem text
out of the analyzer prompt. A failing sample is recorded, never fatal.

stream_detections is the one driver: each worker takes the next sample
and runs it through every (mode, setup) in order, then hands the
sample's detections to a reorder buffer that emits them in sample
order. `run` streams one mode, `ablate` four, and run_dataset collects
one mode's detections into a list. A DetectionLog writes one mode's
detections as they are emitted, one flushed line per sample, and keeps
only what a report and run_meta.json read.

Across modes, one SharedSteps table lives while one sample goes through
them. Each phase step (the verdict, the type query, the transcript, the
analysis) is stored under the inputs that fix its requests, and a later
mode that reaches the same step reuses its result and copies its call
records as memo hits (from_cache true, latency 0.0), which is what the
memo would have answered. A step that raised is not stored, so a later
mode asks again.
"""

from __future__ import annotations

import enum
import json
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from .analyzer import analyze
from .backends import (
    Backend,
    BackendError,
    CallRecord,
    ModelRequest,
    ModelResponse,
    ReplayCache,
    RequestSettings,
)
from .consistency import ConsistencyVerdict, check_consistency
from .data_model import ErrorCategory, QuestionType, Sample
from .interpreter import (
    TranscriptSource,
    TypeInferenceError,
    VisualTranscript,
    interpret_visual,
    resolve_question_type,
)
from .prompts import PromptSet, packaged_prompts


class AblationMode(enum.Enum):
    FULL = "full"
    NO_VALIDATOR = "no_validator"
    NO_INTERPRETER = "no_interpreter"
    NO_ANALYZER = "no_analyzer"


class PhaseError(Exception):
    """A pipeline phase failed for one sample."""

    def __init__(self, phase: str, cause: Exception):
        self.phase = phase
        self.cause = cause
        super().__init__(f"{phase}: {type(cause).__name__}: {cause}")


@dataclass(frozen=True)
class PhaseSetup:
    backend: Backend
    settings: RequestSettings = RequestSettings()


@dataclass(frozen=True)
class PipelineSetup:
    phase1: PhaseSetup
    phase2: PhaseSetup
    phase3: PhaseSetup
    # per-question-type overrides for phase 2; phase2 handles the rest
    router: dict[QuestionType, PhaseSetup] = field(default_factory=dict)
    prompts: PromptSet = field(default_factory=packaged_prompts)
    # the memo every call asks first; runs that share this setup share it too
    cache: ReplayCache = field(default_factory=ReplayCache)

    def phase2_for(self, question_type: QuestionType | None) -> PhaseSetup:
        if question_type is not None and question_type in self.router:
            return self.router[question_type]
        return self.phase2


@dataclass
class PhaseTrace:
    phase1: ConsistencyVerdict | None = None
    phase2: VisualTranscript | None = None
    phase3_raw: str = ""
    backend_calls: list[CallRecord] = field(default_factory=list)


@dataclass
class Detection:
    sample_id: str
    mode: AblationMode
    predicted_step: int | None
    predicted_category: ErrorCategory | None
    trace: PhaseTrace
    failure: str | None = None


@dataclass(slots=True)
class SharedSteps:
    """One sample's phase results, kept while that sample goes through the modes of a run.

    Keys are the inputs that fix a step's requests; each value is the
    step's result and its call records, which a reuse copies as memo hits.
    Only steps that made a call are stored.
    """

    results: dict[tuple, tuple[object, tuple[CallRecord, ...]]] = field(default_factory=dict)


@dataclass(frozen=True)
class _RecordedCalls:
    """A phase backend as one sample calls it: through the memo, each call recorded."""

    backend: Backend
    cache: ReplayCache
    records: list[CallRecord]

    def complete(self, request: ModelRequest) -> ModelResponse:
        response = self.cache.complete(self.backend, request)
        self.records.append(
            CallRecord(
                request.phase, request.fingerprint, response.from_cache, response.latency_ms
            )
        )
        return response


def detect_errors(
    sample: Sample,
    mode: AblationMode,
    setup: PipelineSetup,
    steps: SharedSteps | None = None,
) -> Detection:
    """Run one sample through the pipeline; never raises.

    Backend and IO failures mark the sample as failed (scored as a miss
    on both subtasks) so one bad sample cannot sink a dataset run. With
    steps, a step an earlier mode ran on the same inputs is reused.
    """
    trace = PhaseTrace()
    calls = trace.backend_calls

    def bound(phase_setup: PhaseSetup) -> Backend:
        return _RecordedCalls(phase_setup.backend, setup.cache, calls)

    def step(key: tuple, run):
        """run(), or the result steps holds for key with its records as memo hits."""
        if steps is None:
            return run()
        stored = steps.results.get(key)
        if stored is not None:
            result, records = stored
            calls.extend(CallRecord(r.phase, r.fingerprint, True, 0.0) for r in records)
            return result
        made = len(calls)
        result = run()
        if len(calls) > made:
            steps.results[key] = result, tuple(calls[made:])
        return result

    def resolve_type() -> tuple[QuestionType | None, TranscriptSource | None]:
        try:
            return resolve_question_type(
                sample, bound(setup.phase2), setup.phase2.settings, setup.prompts
            )
        except TypeInferenceError:
            # unresolvable type: transcribe as a plain caption
            return None, TranscriptSource.INFERRED

    phase = "phase1"
    try:
        if mode is not AblationMode.NO_VALIDATOR:
            trace.phase1 = step(
                ("phase1", setup.phase1.settings),
                lambda: check_consistency(
                    sample, bound(setup.phase1), setup.phase1.settings, setup.prompts
                ),
            )

        if mode is AblationMode.NO_VALIDATOR:
            needs_transcript = sample.image is not None
        else:
            needs_transcript = sample.image is not None and not trace.phase1.consistent

        if needs_transcript:
            phase = "phase2"
            caption_only = mode is AblationMode.NO_INTERPRETER
            if caption_only:
                # unified captioning: no type-driven scheduling, no inference
                qtype, chosen = sample.question_type, setup.phase2
                source = TranscriptSource.DATASET_LABEL if qtype is not None else None
            else:
                qtype, source = step(("phase2.type", setup.phase2.settings), resolve_type)
                chosen = setup.phase2_for(qtype)
            trace.phase2 = step(
                ("phase2", qtype, chosen.settings, source, caption_only),
                lambda: interpret_visual(
                    sample,
                    qtype,
                    bound(chosen),
                    chosen.settings,
                    setup.prompts,
                    source=source,
                    caption_only=caption_only,
                ),
            )

        phase = "phase3"
        include_problem_text = mode is not AblationMode.NO_ANALYZER
        output = step(
            ("phase3", trace.phase2, include_problem_text, setup.phase3.settings),
            lambda: analyze(
                sample,
                trace.phase2,
                bound(setup.phase3),
                setup.phase3.settings,
                include_problem_text=include_problem_text,
                prompts=setup.prompts,
            ),
        )
        trace.phase3_raw = output.raw_text
        return Detection(
            sample_id=sample.id,
            mode=mode,
            predicted_step=output.error_step if output.parse_ok else None,
            predicted_category=output.error_category if output.parse_ok else None,
            trace=trace,
        )
    except (BackendError, OSError) as exc:
        return Detection(
            sample_id=sample.id,
            mode=mode,
            predicted_step=None,
            predicted_category=None,
            trace=trace,
            # no local keeps the PhaseError, whose cause's traceback holds this frame
            failure=str(PhaseError(phase, exc)),
        )


def stream_detections(
    samples: Sequence[Sample],
    runs: Sequence[tuple[AblationMode, PipelineSetup]],
    emit: Callable[[tuple[Detection, ...]], None],
    workers: int = 1,
) -> None:
    """Run each sample through every (mode, setup) of runs, in order.

    emit gets each sample's detections, one per run, in sample order and
    from one thread at a time. The calling thread and workers - 1 pool
    threads each take the next sample as soon as they are free, so a slow
    call holds up one worker, not a share of the dataset; a sample that
    finishes ahead of an earlier one waits in a reorder buffer. Any
    exception, a KeyboardInterrupt in the calling thread included, stops
    the claiming of samples and is re-raised once the in-flight samples
    are done; what was emitted before it stays emitted.
    """

    def detect(sample: Sample) -> tuple[Detection, ...]:
        # the sample's table lives only while it goes through the modes
        steps = (SharedSteps(),) if len(runs) > 1 else ()
        return tuple(detect_errors(sample, mode, setup, *steps) for mode, setup in runs)

    pending = enumerate(samples)
    claim, emitting = threading.Lock(), threading.Lock()
    ready: dict[int, tuple[Detection, ...]] = {}  # the reorder buffer
    next_index = 0
    stopped = False

    def drain() -> None:
        nonlocal next_index, stopped
        try:
            while not stopped:
                with claim:
                    claimed = next(pending, None)
                if claimed is None:
                    return
                index, sample = claimed
                ready[index] = detect(sample)
                # No worker blocks on another's emit, since workers that
                # wait and wake trade the interpreter lock and slowed a
                # CPU-bound warm run by about a third. While one worker
                # emits, the others go on; it looks once more after letting
                # go, so a sample made ready meanwhile is not left behind.
                while next_index in ready and emitting.acquire(blocking=False):
                    try:
                        while next_index in ready:
                            emit(ready.pop(next_index))
                            next_index += 1
                    finally:
                        emitting.release()
        finally:
            stopped = True  # after a raise the others take no more; after a return none is left

    # workers 1 starts no pool thread, since the executor starts them on submit
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        try:
            tasks = [pool.submit(drain) for _ in range(min(workers, len(samples)) - 1)]
            drain()
            for task in tasks:
                task.result()  # re-raises a pool worker's exception
        finally:
            stopped = True  # also when interrupted while submitting or collecting


def run_dataset(
    samples: Iterable[Sample],
    mode: AblationMode,
    setup: PipelineSetup,
    workers: int = 1,
) -> list[Detection]:
    """Detect over a dataset in one mode; results come back in sample order."""
    detections: list[Detection] = []
    stream_detections(list(samples), [(mode, setup)], detections.extend, workers)
    return detections


def call_counts(detections: Iterable[Detection]) -> dict[str, int]:
    """Backend calls per phase tag, aggregated over a run."""
    return dict(Counter(r.phase for det in detections for r in det.trace.backend_calls))


class PredictionRecord(NamedTuple):
    """What scoring reads of a detection: its sample and its predicted step and category."""

    sample_id: str
    predicted_step: int | None
    predicted_category: ErrorCategory | None


class DetectionLog:
    """One mode's detections as a run emits them, written and then let go.

    Each detection is written to path as one JSON line and flushed, so a
    killed run leaves whole lines in sample order. What is kept is what a
    report and run_meta.json read: the predictions, the number of failed
    samples and the calls per phase tag. close() (or leaving a `with`
    block) closes the file.
    """

    def __init__(self, path):
        self.predictions: list[PredictionRecord] = []
        self.failures = 0
        self.calls: Counter[str] = Counter()
        self._file = open(path, "w", encoding="utf-8")

    def add(self, det: Detection) -> None:
        line = json.dumps(detection_to_dict(det), sort_keys=True, ensure_ascii=False)
        self._file.write(line + "\n")
        self._file.flush()
        self.predictions.append(
            PredictionRecord(det.sample_id, det.predicted_step, det.predicted_category)
        )
        self.failures += det.failure is not None
        self.calls.update(r.phase for r in det.trace.backend_calls)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "DetectionLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --- detection (de)serialization -------------------------------------------


def _transcript_to_dict(t: VisualTranscript | None):
    if t is None:
        return None
    return {
        "representation": t.representation.value,
        "content": t.content,
        "question_type": t.question_type.value if t.question_type else None,
        "source": t.source.value if t.source else None,
        "findings": list(t.findings),
    }


def _verdict_to_dict(v: ConsistencyVerdict | None):
    if v is None:
        return None
    return {
        "consistent": v.consistent,
        "raw_text": v.raw_text,
        "confidence_note": v.confidence_note,
    }


def detection_to_dict(det: Detection) -> dict:
    return {
        "sample_id": det.sample_id,
        "mode": det.mode.value,
        "predicted_step": det.predicted_step,
        "predicted_category": (
            det.predicted_category.value if det.predicted_category else None
        ),
        "failure": det.failure,
        "trace": {
            "phase1": _verdict_to_dict(det.trace.phase1),
            "phase2": _transcript_to_dict(det.trace.phase2),
            "phase3_raw": det.trace.phase3_raw,
            "backend_calls": [
                {
                    "phase": r.phase,
                    "fingerprint": r.fingerprint,
                    "from_cache": r.from_cache,
                    "latency_ms": r.latency_ms,
                }
                for r in det.trace.backend_calls
            ],
        },
    }


@dataclass
class StoredDetection:
    """A detection read back from JSONL; enough to score and re-report."""

    sample_id: str
    predicted_step: int | None
    predicted_category: ErrorCategory | None
    mode: str
    failure: str | None
    trace: dict


def load_detections(path) -> list[StoredDetection]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("not a JSON object")
                category = obj.get("predicted_category")
                out.append(
                    StoredDetection(
                        sample_id=obj["sample_id"],
                        predicted_step=obj.get("predicted_step"),
                        predicted_category=(
                            ErrorCategory(category) if category else None
                        ),
                        mode=obj.get("mode", ""),
                        failure=obj.get("failure"),
                        trace=obj.get("trace", {}),
                    )
                )
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"bad detection line {line_no} in {path}: {exc}") from exc
    return out
