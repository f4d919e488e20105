"""Three-phase detection pipeline and its ablation variants.

Per sample: (1) decide whether the image adds information beyond the
text, (2) if it does, transcribe it according to the question type,
(3) hand everything to the text-only analyzer. Ablations drop phase 1,
replace phase 2 routing with plain captioning, or cut the problem text
out of the analyzer prompt. A failing sample is recorded, never fatal.

`ablate` runs the modes in order and keeps one SharedSteps table per
sample for the whole command. Each phase step (the verdict, the type
query, the transcript, the analysis) is stored under the inputs that fix
its requests, and a later mode that reaches the same step reuses its
result and copies its call records as memo hits (from_cache true, latency
0.0), which is what the memo would have answered. A step that raised is
not stored, so a later mode asks again.
"""

from __future__ import annotations

import enum
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

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
    """One sample's phase results, kept for the later modes of one `ablate` command.

    Keys are the inputs that fix a step's requests; each value is the
    step's result and its call records, which a reuse copies as memo hits.
    Only steps that made a call are stored, and none while storing is off.
    """

    results: dict[tuple, tuple[object, tuple[CallRecord, ...]]] = field(default_factory=dict)
    storing: bool = True


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
        if steps.storing and len(calls) > made:
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
        failure = PhaseError(phase, exc)
        return Detection(
            sample_id=sample.id,
            mode=mode,
            predicted_step=None,
            predicted_category=None,
            trace=trace,
            failure=str(failure),
        )


def run_dataset(
    samples: Iterable[Sample],
    mode: AblationMode,
    setup: PipelineSetup,
    workers: int = 1,
    shared: list[SharedSteps] | None = None,
) -> list[Detection]:
    """Detect over a dataset; results come back in sample order.

    With workers > 1, each worker thread pulls the next sample as soon as it
    is free, so a slow call holds up one worker, not a share of the dataset.
    shared holds one table per sample, in sample order, for detect_errors.
    """
    samples = list(samples)
    if shared is not None and len(shared) != len(samples):
        raise ValueError(f"{len(shared)} shared tables for {len(samples)} samples")

    def detect(index: int) -> Detection:
        if shared is None:
            return detect_errors(samples[index], mode, setup)
        return detect_errors(samples[index], mode, setup, shared[index])

    if workers <= 1:
        return [detect(index) for index in range(len(samples))]
    detections: list[Detection | None] = [None] * len(samples)
    pending = iter(range(len(samples)))
    claim = threading.Lock()

    def drain() -> None:
        while True:
            with claim:
                index = next(pending, None)
            if index is None:
                return
            detections[index] = detect(index)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = [pool.submit(drain) for _ in range(min(workers, len(samples)))]
        for task in tasks:
            task.result()  # re-raises a worker's unexpected exception
    return detections


def call_counts(detections: Iterable[Detection]) -> dict[str, int]:
    """Backend calls per phase tag, aggregated over a run."""
    counts: dict[str, int] = {}
    for det in detections:
        for record in det.trace.backend_calls:
            counts[record.phase] = counts.get(record.phase, 0) + 1
    return counts


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


def write_detections(detections: Iterable[Detection], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            fh.write(
                json.dumps(detection_to_dict(det), sort_keys=True, ensure_ascii=False)
                + "\n"
            )


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
