"""Three-phase detection pipeline and its ablation variants.

Per sample: (1) decide whether the image adds information beyond the
text, (2) if it does, transcribe it according to the question type,
(3) hand everything to the text-only analyzer. Ablations drop phase 1,
replace phase 2 routing with plain captioning, or cut the problem text
out of the analyzer prompt. A failing sample is recorded, never fatal,
unless it failed on an AuthError, which stops the run: the endpoint or
key that refused one sample would refuse them all. The values built for
each sample, its Detection and the PhaseTrace inside it, are immutable
NamedTuples, built once, when the sample is done.

stream_detections is the one driver: each worker takes the next sample
and runs it through every mode in order on the one setup, then hands
the sample's detections to a reorder buffer that emits them in sample
order. `run` streams one mode, `ablate` four, and run_dataset collects
one mode's detections into a list. A DetectionLog writes one mode's
detections as they are emitted, each line's UTF-8 bytes in one
unbuffered write, and keeps each one's DetectionRecord: the line
without its trace, which is what a report and run_meta.json read.
detection_line, the one writer, frames a line field by field in the
bytes json.dumps gives, building no dict, and detection_from_line reads
its record back; the reader accepts only what the writer emits, so
`report` on a detections file scores exactly what its run kept.

A later mode that repeats a request an earlier one made is answered by
the setup's ReplayCache, which records the call as a memo hit
(from_cache true, latency 0.0). A call that raised is not stored, so a
later mode asks again. No backend keeps state between calls, so a
sample's detections do not depend on the samples or modes before it.
"""

from __future__ import annotations

import reprlib
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from json.encoder import encode_basestring as _quote
from typing import Callable, Iterable, NamedTuple, Sequence

from .analyzer import analyze
from .backends import (
    AuthError,
    Backend,
    BackendError,
    CallRecord,
    ModelRequest,
    ModelResponse,
    ReplayCache,
    RequestSettings,
)
from .consistency import ConsistencyVerdict, check_consistency
from .data_model import BuiltByNew, ErrorCategory, IdentityEnum, QuestionType, Sample, parse_json
from .interpreter import VisualTranscript, interpret_visual, resolve_question_type
from .prompts import PromptSet, packaged_prompts


class AblationMode(IdentityEnum):
    FULL = "full"
    NO_VALIDATOR = "no_validator"
    NO_INTERPRETER = "no_interpreter"
    NO_ANALYZER = "no_analyzer"


class PhaseSetup(NamedTuple):
    backend: Backend
    settings: RequestSettings = RequestSettings()


class _SetupFields(NamedTuple):
    phase1: PhaseSetup
    phase2: PhaseSetup
    phase3: PhaseSetup
    # per-question-type overrides for phase 2; phase2 handles the rest
    router: dict[QuestionType, PhaseSetup]
    prompts: PromptSet
    # the memo every call asks first; the modes and runs on this setup share it
    cache: ReplayCache


class PipelineSetup(BuiltByNew, _SetupFields):
    """One command's phases, routes, prompts and memo.

    A router, prompts or cache left out (or None) is made here: an empty
    router, the packaged prompts, and a new in-memory ReplayCache, so no
    two setups share a cache they were not given.
    """

    __slots__ = ()

    def __new__(cls, phase1, phase2, phase3, router=None, prompts=None, cache=None):
        return tuple.__new__(cls, (
            phase1, phase2, phase3,
            {} if router is None else router,
            packaged_prompts() if prompts is None else prompts,
            ReplayCache() if cache is None else cache,
        ))

    def phase2_for(self, question_type: QuestionType | None) -> PhaseSetup:
        if question_type is not None and question_type in self.router:
            return self.router[question_type]
        return self.phase2


class PhaseTrace(NamedTuple):
    """What each phase of one sample's run gave, and its calls in order."""

    phase1: ConsistencyVerdict | None
    phase2: VisualTranscript | None
    phase3_raw: str
    backend_calls: list[CallRecord]  # no default, so no two traces share one list


class DetectionRecord(NamedTuple):
    """A detection as scoring and run_meta.json read it: its line without the trace."""

    sample_id: str
    mode: AblationMode
    predicted_step: int | None
    predicted_category: ErrorCategory | None
    failure: str | None


class Detection(NamedTuple):
    sample_id: str
    mode: AblationMode
    predicted_step: int | None
    predicted_category: ErrorCategory | None
    trace: PhaseTrace
    failure: str | None = None


class _RecordedCalls:
    """A phase backend as one sample calls it: through the memo, each call recorded."""

    __slots__ = ("backend", "cache", "records")

    def __init__(self, backend: Backend, cache: ReplayCache, records: list[CallRecord]):
        self.backend = backend
        self.cache = cache
        self.records = records

    def complete(self, request: ModelRequest) -> ModelResponse:
        response = self.cache.complete(self.backend, request)
        self.records.append(
            CallRecord(
                request.phase, request.fingerprint, response.from_cache, response.latency_ms
            )
        )
        return response


def detect_errors(sample: Sample, mode: AblationMode, setup: PipelineSetup) -> Detection:
    """Run one sample through the pipeline.

    Backend and IO failures mark the sample as failed (scored as a miss
    on both subtasks) so one bad sample cannot sink a dataset run. An
    AuthError is raised instead: a key or endpoint that refuses one
    sample refuses them all, so it is a fault of the run.
    """
    calls: list[CallRecord] = []

    def bound(phase_setup: PhaseSetup) -> Backend:
        return _RecordedCalls(phase_setup.backend, setup.cache, calls)

    phase = "phase1"
    verdict = transcript = step = category = failure = None
    raw = ""
    try:
        if mode is not AblationMode.NO_VALIDATOR:
            verdict = check_consistency(
                sample, bound(setup.phase1), setup.phase1.settings, setup.prompts
            )

        if sample.image is not None and (verdict is None or not verdict.consistent):
            phase = "phase2"
            caption_only = mode is AblationMode.NO_INTERPRETER
            if caption_only:
                # unified captioning: no type-driven scheduling, no inference
                qtype, chosen = sample.question_type, setup.phase2
            else:
                qtype = resolve_question_type(
                    sample, bound(setup.phase2), setup.phase2.settings, setup.prompts
                )
                chosen = setup.phase2_for(qtype)  # an unresolved type (None) gets phase2
            transcript = interpret_visual(
                sample,
                qtype,
                bound(chosen),
                chosen.settings,
                setup.prompts,
                caption_only=caption_only,
            )

        phase = "phase3"
        include_problem_text = mode is not AblationMode.NO_ANALYZER
        output = analyze(
            sample,
            transcript,
            bound(setup.phase3),
            setup.phase3.settings,
            include_problem_text=include_problem_text,
            prompts=setup.prompts,
        )
        raw = output.raw_text
        if output.parse_ok:
            step, category = output.error_step, output.error_category
    except AuthError:
        raise
    except (BackendError, OSError) as exc:
        failure = f"{phase}: {type(exc).__name__}: {exc}"
    return Detection(
        sample.id, mode, step, category, PhaseTrace(verdict, transcript, raw, calls), failure
    )


def stream_detections(
    samples: Sequence[Sample],
    modes: Sequence[AblationMode],
    setup: PipelineSetup,
    emit: Callable[[tuple[Detection, ...]], None],
    workers: int = 1,
) -> None:
    """Run each sample through every mode of modes on setup, in order.

    emit gets each sample's detections, one per mode, in sample order and
    from one thread at a time. The calling thread and workers - 1 pool
    threads each take the next sample as soon as they are free, so a slow
    call holds up one worker, not a share of the dataset; a sample that
    finishes ahead of an earlier one waits in a reorder buffer. Any
    exception, a KeyboardInterrupt in the calling thread included, stops
    the claiming of samples and is re-raised once the in-flight samples
    are done; what was emitted before it stays emitted.
    """

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
                ready[index] = tuple(detect_errors(sample, mode, setup) for mode in modes)
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
    """Detect over a dataset in one mode; results come back in sample order.

    A failed sample is a Detection with its failure set, but an AuthError
    is raised: no sample is claimed after it, and the samples in flight
    finish first.
    """
    detections: list[Detection] = []
    stream_detections(list(samples), [mode], setup, detections.extend, workers)
    return detections


def call_counts(detections: Iterable[Detection]) -> dict[str, int]:
    """Backend calls per phase tag, aggregated over a run."""
    return dict(Counter(r.phase for det in detections for r in det.trace.backend_calls))


class DetectionLog:
    """One mode's detections as a run emits them, written and then let go.

    Each detection's detection_line is written to path as UTF-8 bytes in
    one unbuffered write, so it has left the process before the next
    sample is emitted, and a killed run leaves whole lines in sample
    order. What is kept is what a report and run_meta.json read: the
    records load_detections reads back, the number of failed samples and
    the calls per phase tag. close() (or leaving a `with` block) closes
    the file.
    """

    def __init__(self, path):
        self.records: list[DetectionRecord] = []
        self.failures = 0
        self.calls: Counter[str] = Counter()
        self._file = open(path, "wb", buffering=0)  # each write() is one write(2)

    def add(self, det: Detection) -> None:
        line = detection_line(det).encode("utf-8")
        written = self._file.write(line)
        while written < len(line):  # a short write: the rest follows before anything else
            written += self._file.write(line[written:])
        self.records.append(DetectionRecord(
            det.sample_id, det.mode, det.predicted_step, det.predicted_category, det.failure
        ))
        self.failures += det.failure is not None
        calls = self.calls
        for record in det.trace.backend_calls:
            calls[record.phase] += 1

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "DetectionLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --- detection (de)serialization -------------------------------------------


_SPELLINGS = {"None": "null", "True": "true", "False": "false", "nan": "NaN", "inf": "Infinity",
              "-inf": "-Infinity"}


def _scalar(value: bool | int | float | None) -> str:
    text = repr(value)  # json.dumps writes the same, but for the words it spells otherwise
    return _SPELLINGS.get(text, text)


def _text(value: str | IdentityEnum | None) -> str:
    if value is None:
        return "null"
    # _value_ is where the member keeps its value; .value reads it through a Python property
    return _quote(value._value_ if isinstance(value, IdentityEnum) else value)


def _verdict(v: ConsistencyVerdict | None) -> str:
    return "null" if v is None else (
        f'{{"confidence_note": {_text(v.confidence_note)}, '
        f'"consistent": {_scalar(v.consistent)}, "raw_text": {_quote(v.raw_text)}}}'
    )


def _transcript(t: VisualTranscript | None) -> str:
    return "null" if t is None else (
        f'{{"content": {_quote(t.content)}, "findings": [{", ".join(map(_quote, t.findings))}], '
        f'"question_type": {_text(t.question_type)}, '
        f'"representation": {_text(t.representation)}, "source": {_text(t.source)}}}'
    )


def detection_line(det: Detection) -> str:
    """det's detections-file line: json.dumps(..., sort_keys=True, ensure_ascii=False) + "\\n"."""
    trace = det.trace
    calls = ", ".join(
        f'{{"fingerprint": {_quote(r.fingerprint)}, "from_cache": {_scalar(r.from_cache)}, '
        f'"latency_ms": {_scalar(r.latency_ms)}, "phase": {_quote(r.phase)}}}'
        for r in trace.backend_calls
    )
    return (
        f'{{"failure": {_text(det.failure)}, "mode": {_text(det.mode)}, '
        f'"predicted_category": {_text(det.predicted_category)}, '
        f'"predicted_step": {_scalar(det.predicted_step)}, '
        f'"sample_id": {_quote(det.sample_id)}, "trace": {{"backend_calls": [{calls}], '
        f'"phase1": {_verdict(trace.phase1)}, "phase2": {_transcript(trace.phase2)}, '
        f'"phase3_raw": {_quote(trace.phase3_raw)}}}}}\n'
    )


_MODE_CODES = tuple(m.value for m in AblationMode)
_CATEGORY_CODES = tuple(c.value for c in ErrorCategory)


def detection_from_line(line: str | bytes) -> DetectionRecord:
    """The record of one line detection_line wrote; the trace is not read.

    A line the writer could not have emitted raises ValueError naming the field.
    """
    obj = parse_json(line)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    for key in DetectionRecord._fields:
        if key not in obj:
            raise ValueError(f"field {key!r} is missing")
    sample_id, mode, step, category, failure = (obj[key] for key in DetectionRecord._fields)
    for key, ok, expected in (
        ("sample_id", isinstance(sample_id, str) and sample_id != "", "a non-empty string"),
        ("mode", mode in _MODE_CODES, "one of " + ", ".join(_MODE_CODES)),
        # type(), not isinstance: JSON true is a bool, which isinstance counts as an int
        ("predicted_step", step is None or type(step) is int and step > 0,
         "a positive integer or null"),
        ("predicted_category", category is None if step is None else category in _CATEGORY_CODES,
         "null when predicted_step is, else one of " + ", ".join(_CATEGORY_CODES)),
        ("failure", failure is None or isinstance(failure, str), "a string or null"),
    ):
        if not ok:
            raise ValueError(f"field {key!r} must be {expected}, not {reprlib.repr(obj[key])}")
    category = ErrorCategory(category) if category else None
    return DetectionRecord(sample_id, AblationMode(mode), step, category, failure)


def load_detections(path) -> list[DetectionRecord]:
    """The records of a detections file in line order; a bad line raises ValueError citing it."""
    records = []
    with open(path, "rb") as fh:  # read line by line, so a bad byte names its line
        for line_no, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    records.append(detection_from_line(line))
            except ValueError as exc:
                raise ValueError(f"bad detection line {line_no} in {path}: {exc}") from exc
    return records
