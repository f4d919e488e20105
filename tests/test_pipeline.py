"""End-to-end pipeline behaviour over the 12-sample scripted fixture."""

import hashlib
import json
import random
import signal
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, CapturingBackend, awkward_text, make_sample, truncated
from mathagent import (
    AblationMode,
    CallRecord,
    ConsistencyVerdict,
    Detection,
    DetectionLog,
    ErrorCategory,
    ImageKind,
    ImageRef,
    PhaseSetup,
    PhaseTrace,
    PipelineSetup,
    QuestionType,
    ReplayCache,
    Representation,
    RequestSettings,
    ScriptedBackend,
    TranscriptSource,
    TransportError,
    VisualTranscript,
    build_report_row,
    call_counts,
    detect_errors,
    detection_from_line,
    detection_line,
    load_detections,
    run_dataset,
    stream_detections,
)
from mathagent import AuthError, BackendError, pipeline
from mathagent.prompts import PromptSet, packaged_prompts


def fresh_setup():
    backend = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
    phase = PhaseSetup(backend=backend)
    return PipelineSetup(phase1=phase, phase2=phase, phase3=phase)


def run(samples, mode):
    return run_dataset(samples, mode, fresh_setup())


def save(detections, path):
    with DetectionLog(path) as log:
        for det in detections:
            log.add(det)


def by_id(detections):
    return {d.sample_id: d for d in detections}


EXPECTED_CALLS = {
    AblationMode.FULL: {"phase1": 10, "phase2.type": 2, "phase2": 6, "phase3": 14},
    AblationMode.NO_VALIDATOR: {"phase2.type": 2, "phase2": 10, "phase3": 14},
    AblationMode.NO_INTERPRETER: {"phase1": 10, "phase2": 6, "phase3": 14},
    AblationMode.NO_ANALYZER: {"phase1": 10, "phase2.type": 2, "phase2": 6, "phase3": 14},
}


class TestCallMatrix:
    @pytest.mark.parametrize("mode", list(AblationMode), ids=lambda m: m.value)
    def test_per_phase_call_counts(self, samples_12, mode):
        detections = run(samples_12, mode)
        assert call_counts(detections) == EXPECTED_CALLS[mode]
        assert [d.sample_id for d in detections] == [s.id for s in samples_12]
        assert all(d.mode is mode for d in detections)
        assert all(d.failure is None for d in detections)


class TestFullMode:
    @pytest.fixture()
    def detections(self, samples_12):
        return by_id(run(samples_12, AblationMode.FULL))

    def test_transcription_iff_imaged_and_not_consistent(self, samples_12, detections):
        for sample in samples_12:
            det = detections[sample.id]
            if sample.image is None:
                assert det.trace.phase1.confidence_note == (
                    "no image attached; trivially consistent"
                )
                assert det.trace.phase2 is None
            elif det.trace.phase1.consistent:
                assert det.trace.phase2 is None
            else:
                assert det.trace.phase2 is not None

    def test_imageless_samples_cost_no_visual_calls(self, detections):
        for sample_id in ("s04", "s10"):
            phases = [r.phase for r in detections[sample_id].trace.backend_calls]
            assert phases == ["phase3"]

    def test_plane_geometry_becomes_formal_facts(self, detections):
        transcript = detections["s01"].trace.phase2
        assert transcript.representation is Representation.FORMAL_LANGUAGE
        assert transcript.content == "Triangle(P, Q, R), Angle(PQR, 60), Line(PR, 10)"
        assert transcript.source is TranscriptSource.DATASET_LABEL
        assert transcript.findings == ()

    def test_unparseable_formal_reply_downgrades_to_caption(self, detections):
        transcript = detections["s03"].trace.phase2
        assert transcript.representation is Representation.CAPTION
        assert len(transcript.findings) == 1
        assert transcript.findings[0].startswith("formal parse failed: ")

    def test_diagram_becomes_latex_table(self, detections):
        clean = detections["s07"].trace.phase2
        assert clean.representation is Representation.LATEX_TABLE
        assert clean.findings == ()

    def test_ragged_diagram_reply_is_flagged_not_fatal(self, detections):
        ragged = detections["s08"]
        # s08 was consistent, so its diagram is never transcribed
        assert ragged.trace.phase2 is None

    def test_inferred_types_route_correctly(self, detections):
        inferred = detections["s09"].trace.phase2
        assert inferred.question_type is QuestionType.ALGEBRA
        assert inferred.source is TranscriptSource.INFERRED
        assert inferred.representation is Representation.CAPTION

    def test_reask_costs_a_second_analyzer_call(self, detections):
        for sample_id in ("s03", "s06"):
            phases = [r.phase for r in detections[sample_id].trace.backend_calls]
            assert phases.count("phase3") == 2

    def test_double_format_failure_yields_unparsed_detection(self, detections):
        det = detections["s06"]
        assert det.predicted_step is None
        assert det.predicted_category is None
        assert det.failure is None

    def test_metric_grid(self, samples_12, detections):
        row = build_report_row(detections.values(), list(samples_12), "full")
        assert row.values == {
            "step": Decimal("75.00"),
            "vis": Decimal("50.00"),
            "cal": Decimal("100.00"),
            "reas": Decimal("66.67"),
            "know": Decimal("0.00"),
            "mis": Decimal("50.00"),
            "overall": Decimal("66.67"),
            "average": Decimal("70.83"),
        }


class TestAblations:
    def test_no_validator_transcribes_every_imaged_sample(self, samples_12):
        detections = by_id(run(samples_12, AblationMode.NO_VALIDATOR))
        for sample in samples_12:
            det = detections[sample.id]
            assert det.trace.phase1 is None
            assert (det.trace.phase2 is not None) == (sample.image is not None)

    def test_no_interpreter_keeps_validator_and_captions_everything(self, samples_12):
        detections = by_id(run(samples_12, AblationMode.NO_INTERPRETER))
        transcribed = [d for d in detections.values() if d.trace.phase2 is not None]
        assert {d.sample_id for d in transcribed} == {"s01", "s03", "s05", "s07", "s09", "s11"}
        for det in transcribed:
            assert det.trace.phase2.representation is Representation.CAPTION
        # dataset labels are kept for the record, but never inferred
        assert detections["s01"].trace.phase2.source is TranscriptSource.DATASET_LABEL
        assert detections["s09"].trace.phase2.source is None
        assert detections["s09"].trace.phase2.question_type is None

    def test_no_analyzer_cuts_problem_text_only(self, samples_12):
        full = by_id(run(samples_12, AblationMode.FULL))
        cut = by_id(run(samples_12, AblationMode.NO_ANALYZER))
        # same scripted replies either way on this fixture, so predictions
        # agree while the prompts (hence fingerprints) differ
        for sample_id, det in cut.items():
            assert det.predicted_step == full[sample_id].predicted_step
        full_fp = {r.fingerprint for r in full["s01"].trace.backend_calls if r.phase == "phase3"}
        cut_fp = {r.fingerprint for r in cut["s01"].trace.backend_calls if r.phase == "phase3"}
        assert full_fp.isdisjoint(cut_fp)


class TestFailureContainment:
    def test_script_miss_is_recorded_not_raised(self):
        sample = make_sample(sample_id="ghost")
        setup = PipelineSetup(
            phase1=PhaseSetup(backend=ScriptedBackend()),
            phase2=PhaseSetup(backend=ScriptedBackend()),
            phase3=PhaseSetup(backend=ScriptedBackend()),
        )
        det = detect_errors(sample, AblationMode.FULL, setup)
        assert det.failure is not None
        assert det.failure.startswith("phase1: ScriptMiss")
        assert det.predicted_step is None
        assert det.predicted_category is None

    @pytest.mark.parametrize(
        "sample_shape, mode, phase, call, fingerprint",
        [
            ({}, AblationMode.FULL, "phase1", "phase1", "c54623b56b27"),
            ({}, AblationMode.NO_VALIDATOR, "phase2", "phase2.type", "d3567dd3897a"),
            (
                {"question_type": QuestionType.ALGEBRA},
                AblationMode.NO_VALIDATOR,
                "phase2",
                "phase2",
                "e917b3d94bee",
            ),
            ({"image": None}, AblationMode.FULL, "phase3", "phase3", "8ecca0b10748"),
        ],
        ids=["phase1", "type-query", "transcription", "phase3"],
    )
    def test_failure_cites_the_failing_phase(self, sample_shape, mode, phase, call, fingerprint):
        sample = make_sample(sample_id="ghost", **sample_shape)
        setup = PipelineSetup(
            phase1=PhaseSetup(backend=ScriptedBackend()),
            phase2=PhaseSetup(backend=ScriptedBackend()),
            phase3=PhaseSetup(backend=ScriptedBackend()),
        )
        assert detect_errors(sample, mode, setup).failure == (
            f"{phase}: ScriptMiss: no scripted reply for phase='{call}' sample='ghost' "
            f"fingerprint={fingerprint}"
        )

    def test_missing_image_file_fails_the_sample_only(self, samples_12):
        broken = make_sample(
            sample_id="s99",
            image=ImageRef(kind=ImageKind.FILE_PATH, value="/nonexistent/fig.png"),
        )
        setup = fresh_setup()
        detections = run_dataset(list(samples_12) + [broken], AblationMode.FULL, setup)
        assert detections[-1].failure is not None
        assert "phase1" in detections[-1].failure
        assert all(d.failure is None for d in detections[:-1])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_an_auth_error_stops_the_run_after_an_aligned_prefix(self, samples_12, workers):
        k = 5
        refused = samples_12[k].id
        scripted = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")

        class Refusing:
            def complete(self, request):
                if request.sample_id == refused:
                    raise AuthError("HTTP 401 from http://localhost:9/v1/chat/completions")
                return scripted.complete(request)

        phase = PhaseSetup(backend=Refusing())
        setup = PipelineSetup(phase1=phase, phase2=phase, phase3=phase)
        with pytest.raises(AuthError):
            detect_errors(samples_12[k], AblationMode.FULL, setup)
        emitted = []
        with pytest.raises(AuthError, match="HTTP 401"):
            stream_detections(samples_12, list(AblationMode), setup, emitted.append, workers)
        # the samples claimed before the refused one finish and are emitted, no later one is
        assert [dets[0].sample_id for dets in emitted] == [s.id for s in samples_12[:k]]
        whole = run_dataset(samples_12, AblationMode.FULL, fresh_setup())
        assert [detection_line(dets[0]) for dets in emitted] == list(
            map(detection_line, whole[:k])
        )


class TestRouter:
    def test_per_type_phase2_override(self):
        plane_backend = ScriptedBackend(default_reply="Point(A)")
        other_backend = ScriptedBackend(default_reply="NOT CONSISTENT")
        setup = PipelineSetup(
            phase1=PhaseSetup(backend=other_backend),
            phase2=PhaseSetup(backend=other_backend),
            phase3=PhaseSetup(
                backend=ScriptedBackend(default_reply="Error Step: #1\nError Category: cal")
            ),
            router={QuestionType.PLANE_GEOMETRY: PhaseSetup(backend=plane_backend)},
        )
        sample = make_sample(question_type=QuestionType.PLANE_GEOMETRY)
        det = detect_errors(sample, AblationMode.FULL, setup)
        assert det.trace.phase2.content == "Point(A)"
        assert det.failure is None

    def test_unrouted_types_use_default_phase2(self):
        setup = PipelineSetup(
            phase1=PhaseSetup(backend=ScriptedBackend(default_reply="NOT CONSISTENT")),
            phase2=PhaseSetup(backend=ScriptedBackend(default_reply="a cube")),
            phase3=PhaseSetup(
                backend=ScriptedBackend(default_reply="Error Step: #1\nError Category: cal")
            ),
            router={QuestionType.PLANE_GEOMETRY: PhaseSetup(backend=ScriptedBackend())},
        )
        sample = make_sample(question_type=QuestionType.SOLID_GEOMETRY)
        det = detect_errors(sample, AblationMode.FULL, setup)
        assert det.trace.phase2.content == "a cube"


class TestDeterminismAndConcurrency:
    def test_back_to_back_runs_are_identical(self, samples_12):
        first = [detection_line(d) for d in run(samples_12, AblationMode.FULL)]
        second = [detection_line(d) for d in run(samples_12, AblationMode.FULL)]
        assert first == second

    def test_worker_pool_matches_sequential(self, samples_12):
        sequential = [detection_line(d) for d in run(samples_12, AblationMode.FULL)]
        pooled = [
            detection_line(d)
            for d in run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=4)
        ]
        assert pooled == sequential

    def test_more_workers_than_samples_matches_sequential(self, samples_12):
        sequential = [detection_line(d) for d in run(samples_12, AblationMode.FULL)]
        pooled = [
            detection_line(d)
            for d in run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=32)
        ]
        assert pooled == sequential

    def test_every_sample_is_detected_once(self, samples_12, monkeypatch):
        seen = Counter()
        real = pipeline.detect_errors

        def counting(sample, mode, setup):
            seen[sample.id] += 1
            return real(sample, mode, setup)

        monkeypatch.setattr(pipeline, "detect_errors", counting)
        run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=4)
        assert seen == Counter(s.id for s in samples_12)
        assert set(seen.values()) == {1}

    def test_one_file_ref_shared_by_many_workers_keeps_one_digest(self, tmp_path):
        figure = tmp_path / "fig.png"
        figure.write_bytes(b"a figure")
        ref = ImageRef(kind=ImageKind.FILE_PATH, value=str(figure))
        samples = [make_sample(sample_id=f"f{i:02d}", image=ref) for i in range(60)]
        backend = ScriptedBackend(default_reply="Error Step: #1\nError Category: cal")
        phase = PhaseSetup(backend=backend)
        setup = PipelineSetup(phase1=phase, phase2=phase, phase3=phase)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:  # workers may race to hash the ref first; each stores the same digest
            detections = run_dataset(samples, AblationMode.FULL, setup, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert [d.failure for d in detections] == [None] * 60
        calls = [r for d in detections for r in d.trace.backend_calls]
        # the same question and image everywhere, so one phase-1 request
        assert len({r.fingerprint for r in calls if r.phase == "phase1"}) == 1
        assert ref.sha256 == hashlib.sha256(b"a figure").hexdigest()

    def test_a_sample_detects_the_same_whichever_samples_ran_before_it(self, samples_12):
        """A scripted reply list answers an ask by its attempt, not by the calls before it."""

        def setup():
            fixture = PhaseSetup(ScriptedBackend.from_file(FIXTURES / "scripts_12.json"))
            analyzer = PhaseSetup(ScriptedBackend(default_reply=[
                "The mistake is somewhere in the middle.",
                "Error Step: #2\nError Category: Calculation Error",
            ]))
            return PipelineSetup(phase1=fixture, phase2=fixture, phase3=analyzer)

        whole = run_dataset(samples_12, AblationMode.FULL, setup())
        rest = run_dataset(samples_12[1:], AblationMode.FULL, setup())
        assert list(map(detection_line, rest)) == list(map(detection_line, whole[1:]))
        # every sample asks twice: its first ask gets the first reply, its re-ask the second
        assert [call_counts([d])["phase3"] for d in whole] == [2] * len(samples_12)
        assert {(d.predicted_step, d.predicted_category) for d in whole} == {(2, ErrorCategory.CAL)}

    def test_empty_dataset_with_workers(self):
        assert run_dataset([], AblationMode.FULL, fresh_setup(), workers=4) == []

    def test_unexpected_exception_propagates(self, samples_12):
        class Broken:
            def complete(self, request):
                raise RuntimeError("bug in a backend")

        phase = PhaseSetup(backend=Broken())
        setup = PipelineSetup(phase1=phase, phase2=phase, phase3=phase)
        with pytest.raises(RuntimeError, match="bug in a backend"):
            run_dataset(samples_12, AblationMode.FULL, setup, workers=4)

    def test_one_task_per_worker(self, samples_12, monkeypatch):
        submitted = []
        real_submit = ThreadPoolExecutor.submit

        def spy(pool, fn, /, *args, **kwargs):
            submitted.append(fn)
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
        run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=4)
        assert 1 <= len(submitted) <= 4

    def test_a_slow_sample_holds_up_one_worker_only(self, samples_12, monkeypatch):
        # the first sample waits until every other one is done; with samples
        # dealt out to workers in advance, one of them would wait behind it
        others_done = threading.Event()
        finished = []
        real = pipeline.detect_errors

        def slow_first(sample, mode, setup):
            if sample.id == samples_12[0].id:
                assert others_done.wait(timeout=5)
            det = real(sample, mode, setup)
            finished.append(sample.id)
            if len(finished) == len(samples_12) - 1:
                others_done.set()
            return det

        monkeypatch.setattr(pipeline, "detect_errors", slow_first)
        detections = run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=2)
        assert [d.sample_id for d in detections] == [s.id for s in samples_12]
        assert finished[-1] == samples_12[0].id

    def test_the_reorder_buffer_emits_each_sample_once_in_order_under_stress(self, monkeypatch):
        # more workers than cores, a short switch interval, jittered sample
        # times, and driver locks slow to let go, so that samples are made
        # ready while an emitting worker is about to release its lock
        jitter = random.Random(7)
        delays = [jitter.choice([0, 0, 0.001, 0.003]) for _ in range(400)]

        def fake_detect(sample, mode, setup):
            time.sleep(delays[sample])
            return Detection(sample, mode, None, None, PhaseTrace(None, None, "", []))

        class SlowRelease:
            def __init__(self):
                self.lock = threading.Lock()

            def acquire(self, blocking=True):
                return self.lock.acquire(blocking)

            def release(self):
                time.sleep(0.001)
                self.lock.release()

            def __enter__(self):
                self.acquire()

            def __exit__(self, *exc_info):
                self.release()

        monkeypatch.setattr(pipeline, "detect_errors", fake_detect)
        monkeypatch.setattr(pipeline, "threading", SimpleNamespace(Lock=SlowRelease))
        emitted, emitting = [], threading.Lock()

        def emit(detections):
            assert emitting.acquire(blocking=False), "two threads emitting at once"
            try:
                time.sleep(delays[detections[0].sample_id] / 4)
                emitted.append(tuple((det.sample_id, det.mode) for det in detections))
            finally:
                emitting.release()

        modes = [AblationMode.FULL, AblationMode.NO_ANALYZER]
        driver = threading.Thread(
            target=stream_detections, args=(range(400), modes, fresh_setup(), emit, 9)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver.start()
            driver.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not driver.is_alive()
        assert emitted == [
            ((i, AblationMode.FULL), (i, AblationMode.NO_ANALYZER)) for i in range(400)
        ]


class TestInterrupt:
    """Ctrl-C in the calling thread stops the claiming of samples at every worker count."""

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    @pytest.mark.parametrize("workers", [1, 3])
    def test_an_interrupt_at_sample_k_stops_the_run(self, tmp_path, samples_12, monkeypatch,
                                                     workers):
        caller = threading.current_thread()
        assert caller is threading.main_thread(), "SIGINT is handled in the main thread"
        k = 3
        ids = [s.id for s in samples_12]
        started, handled = [], threading.Event()
        real = pipeline.detect_errors

        def detect(sample, mode, setup):
            if mode is AblationMode.FULL:
                started.append(sample.id)
                if sample.id == ids[k]:
                    # a real SIGINT, sent from whichever thread runs sample k
                    signal.pthread_kill(caller.ident, signal.SIGINT)
                    assert handled.wait(timeout=5)
            time.sleep(0.005)  # leaves the interpreter lock free for the handler
            return real(sample, mode, setup)

        def on_sigint(signum, frame):
            handled.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "detect_errors", detect)
        modes = [AblationMode.FULL, AblationMode.NO_ANALYZER]
        paths = [tmp_path / f"{mode.value}.jsonl" for mode in modes]
        logs = [DetectionLog(path) for path in paths]

        def emit(detections):
            for det_log, det in zip(logs, detections):
                det_log.add(det)

        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            with pytest.raises(KeyboardInterrupt):
                stream_detections(samples_12, modes, fresh_setup(), emit, workers)
        finally:
            signal.signal(signal.SIGINT, previous)
            for det_log in logs:
                det_log.close()
        assert handled.is_set()
        assert ids[k] in started
        assert len(started) - started.index(ids[k]) - 1 <= workers
        for path in paths:
            lines = path.read_text(encoding="utf-8").splitlines()
            emitted = [json.loads(line)["sample_id"] for line in lines]
            assert emitted == ids[: len(emitted)], path.name

    @pytest.mark.parametrize("workers", [1, 3])
    def test_the_calling_thread_is_a_worker(self, samples_12, monkeypatch, workers):
        threads = set()
        real = pipeline.detect_errors

        def detect(sample, mode, setup):
            threads.add(threading.current_thread())
            time.sleep(0.005)
            return real(sample, mode, setup)

        monkeypatch.setattr(pipeline, "detect_errors", detect)
        run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=workers)
        assert threading.current_thread() in threads
        assert len(threads) <= workers


class SpyScript:
    """The fixture script; keeps every request it gets."""

    def __init__(self):
        self.script = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.script.complete(request)


def shared_setup(backend, **kwargs):
    phase = PhaseSetup(backend=backend)
    return PipelineSetup(phase1=phase, phase2=phase, phase3=phase, **kwargs)


def sample_by_id(samples, sample_id):
    return next(s for s in samples if s.id == sample_id)


class TestCallRecords:
    """Each call is recorded from its own request: phase, fingerprint, how it was answered."""

    def test_cold_calls_carry_their_request(self, samples_12):
        spy = SpyScript()
        det = detect_errors(sample_by_id(samples_12, "s09"), AblationMode.FULL, shared_setup(spy))
        records = det.trace.backend_calls
        assert [r.phase for r in records] == ["phase1", "phase2.type", "phase2", "phase3"]
        assert [(r.phase, r.fingerprint) for r in records] == [
            (q.phase, q.fingerprint) for q in spy.requests
        ]
        assert [r.from_cache for r in records] == [False] * 4

    def test_a_reask_records_both_analyzer_calls(self, samples_12):
        spy = SpyScript()
        det = detect_errors(sample_by_id(samples_12, "s03"), AblationMode.FULL, shared_setup(spy))
        records = det.trace.backend_calls
        assert [r.phase for r in records] == ["phase1", "phase2", "phase3", "phase3"]
        assert records[2].fingerprint != records[3].fingerprint
        assert [r.fingerprint for r in records] == [q.fingerprint for q in spy.requests]

    def test_a_warm_hit_is_recorded_as_cached(self, samples_12):
        spy = SpyScript()
        setup = shared_setup(spy)
        sample = sample_by_id(samples_12, "s09")
        cold = detect_errors(sample, AblationMode.FULL, setup)
        warm = detect_errors(sample, AblationMode.FULL, setup)
        assert len(spy.requests) == 4
        assert [(r.phase, r.fingerprint) for r in warm.trace.backend_calls] == [
            (r.phase, r.fingerprint) for r in cold.trace.backend_calls
        ]
        assert [r.from_cache for r in warm.trace.backend_calls] == [True] * 4

    def test_a_persisted_cache_answers_a_new_setup(self, tmp_path, samples_12):
        cache = tmp_path / "cache.jsonl"
        with ReplayCache(cache) as memo:
            cold_setup = shared_setup(SpyScript(), cache=memo)
            cold = run_dataset(samples_12, AblationMode.FULL, cold_setup)
        spy = SpyScript()
        with ReplayCache(cache) as memo:
            warm = run_dataset(samples_12, AblationMode.FULL, shared_setup(spy, cache=memo))
        assert spy.requests == []
        assert [r.fingerprint for d in warm for r in d.trace.backend_calls] == [
            r.fingerprint for d in cold for r in d.trace.backend_calls
        ]
        assert all(r.from_cache for d in warm for r in d.trace.backend_calls)

    @pytest.mark.parametrize("twin_first", [False, True], ids=["original-first", "twin-first"])
    def test_at_one_worker_the_earlier_of_two_twins_asks(self, samples_12, twin_first):
        """Two samples that make the same requests (two students' copies of one solution):
        the earlier one in the dataset asks, and the memo answers the later. This is what a
        one-worker run writes, and what a run at more workers writes too (below)."""
        original = sample_by_id(samples_12, "s09")
        twin = original._replace(id="s09-twin")
        samples = [twin, original] if twin_first else [original, twin]
        spy, emitted = SpyScript(), []
        # the script knows s09 only; the twin's requests are the same but for this metadata
        as_s09 = SimpleNamespace(complete=lambda q: spy.complete(q._replace(sample_id="s09")))
        stream_detections(samples, [AblationMode.FULL], shared_setup(as_s09), emitted.append, 1)
        flags = [[r.from_cache for r in det.trace.backend_calls] for (det,) in emitted]
        assert [det.sample_id for (det,) in emitted] == [s.id for s in samples]
        assert flags == [[False] * 4, [True] * 4]
        assert len(spy.requests) == 4

    @pytest.mark.parametrize("held", [False, True], ids=["free", "earlier-held"])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("twin_first", [False, True], ids=["original-first", "twin-first"])
    def test_at_more_workers_the_earlier_of_two_twins_still_asks(
        self, samples_12, monkeypatch, twin_first, workers, held
    ):
        """The one-worker flags, whichever twin reaches the memo first.

        Held, the earlier twin starts its phase 1 only once the later one is
        done, so the later one makes every call to the backend. An unrelated
        sample comes first, so that three workers each take a sample.
        """
        original = sample_by_id(samples_12, "s09")
        twin = original._replace(id="s09-twin")
        earlier, later = (twin, original) if twin_first else (original, twin)
        other = sample_by_id(samples_12, "s01")
        script, askers, emitted = ScriptedBackend.from_file(FIXTURES / "scripts_12.json"), [], []

        def complete(q):
            askers.append(q.sample_id)
            # the script knows s09 by its id; the twin's requests differ from s09's in it alone
            return script.complete(q._replace(sample_id="s09") if q.sample_id == twin.id else q)

        later_done, real = threading.Event(), pipeline.detect_errors

        def detect(sample, mode, setup):
            if held and sample is earlier:
                assert later_done.wait(timeout=10)
            det = real(sample, mode, setup)
            if sample is later:
                later_done.set()
            return det

        monkeypatch.setattr(pipeline, "detect_errors", detect)
        samples = [other, earlier, later]
        setup = shared_setup(SimpleNamespace(complete=complete))
        stream_detections(samples, [AblationMode.FULL], setup, emitted.append, workers)
        assert [det.sample_id for (det,) in emitted] == [s.id for s in samples]
        flags = [[r.from_cache for r in det.trace.backend_calls] for (det,) in emitted[1:]]
        assert flags == [[False] * 4, [True] * 4]
        twins_asked = [sample_id for sample_id in askers if sample_id != other.id]
        assert len(twins_asked) == 4
        if held:  # the later twin asked, yet the earlier one records the asks
            assert twins_asked == [later.id] * 4

    def test_a_setup_without_a_cache_answers_a_repeat_once(self, samples_12):
        spy = SpyScript()
        setup = shared_setup(spy)
        first = run_dataset(samples_12, AblationMode.FULL, setup)
        asked = len(spy.requests)
        again = run_dataset(samples_12, AblationMode.FULL, setup)
        assert asked == sum(len(d.trace.backend_calls) for d in first)
        assert len(spy.requests) == asked
        assert all(r.from_cache for d in again for r in d.trace.backend_calls)
        assert [d.predicted_step for d in again] == [d.predicted_step for d in first]


class ModeScripts:
    """The fixture script as one backend, as `ablate` builds it; keeps which mode asked what.

    Each ask is credited to the mode that detect_errors is running in the
    asking thread, seen through that seam. With fail=(phase, sample id, n),
    the n-th request for that phase and sample raises BackendError, once.
    """

    def __init__(self, monkeypatch, fail=None):
        self.script = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
        self.fail = fail
        self.seen = 0
        self.asked = Counter()  # (mode, phase, sample id) of every request answered
        self.lock = threading.Lock()
        self.running = threading.local()  # .mode: the mode detect_errors runs in this thread
        real = pipeline.detect_errors

        def detect(sample, mode, setup):
            self.running.mode = mode
            return real(sample, mode, setup)

        monkeypatch.setattr(pipeline, "detect_errors", detect)

    def complete(self, request):
        key = (request.phase, request.sample_id)
        with self.lock:
            if self.fail is not None and key == self.fail[:2]:
                self.seen += 1
                if self.seen == self.fail[2]:
                    raise BackendError("endpoint down")
            self.asked[(self.running.mode, *key)] += 1
        return self.script.complete(request)


def ablate(samples, scripts, workers=1):
    """The four modes on one setup, as `mathagent ablate` runs them: each sample through all."""
    out = {mode: [] for mode in AblationMode}

    def emit(detections):
        for mode, det in zip(AblationMode, detections):
            out[mode].append(detection_line(det))

    stream_detections(samples, list(AblationMode), shared_setup(scripts), emit, workers)
    return out


def modes_in_turn(samples, scripts, workers=1):
    """The four modes on one setup, each over the whole dataset before the next."""
    setup = shared_setup(scripts)
    return {
        mode: [detection_line(d) for d in run_dataset(samples, mode, setup, workers)]
        for mode in AblationMode
    }


class TestSharedSteps:
    """Steps a later mode repeats, answered by the setup's memo as memo hits."""

    def test_a_repeated_step_is_reused_as_memo_hits(self, samples_12):
        sample, spy = sample_by_id(samples_12, "s09"), SpyScript()
        setup = shared_setup(spy)
        full = detect_errors(sample, AblationMode.FULL, setup)
        assert len(spy.requests) == 4
        cut = detect_errors(sample, AblationMode.NO_ANALYZER, setup)
        # only the analyzer prompt changes; the three earlier requests are memo hits
        assert [q.phase for q in spy.requests[4:]] == ["phase3"]
        assert cut.trace.phase1 == full.trace.phase1
        assert cut.trace.phase2 == full.trace.phase2
        assert list(cut.trace.backend_calls[:3]) == [
            r._replace(from_cache=True) for r in full.trace.backend_calls[:3]
        ]
        assert [r.from_cache for r in full.trace.backend_calls] == [False] * 4

    def test_each_sample_gets_a_table_for_its_modes(self, samples_12, monkeypatch):
        modes_seen = []
        real = pipeline.detect_errors

        def recording(sample, mode, setup):
            modes_seen.append((sample.id, mode))
            return real(sample, mode, setup)

        monkeypatch.setattr(pipeline, "detect_errors", recording)
        ablate(samples_12[:2], ModeScripts(monkeypatch))
        # each sample runs through the four modes in order before the next sample
        assert modes_seen == [(s.id, m) for s in samples_12[:2] for m in AblationMode]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_ablate_matches_the_modes_run_without_tables(self, samples_12, monkeypatch, workers):
        reusing, plain = ModeScripts(monkeypatch), ModeScripts(monkeypatch)
        runs = ablate(samples_12, reusing, workers)
        assert runs == modes_in_turn(samples_12, plain, workers)
        assert reusing.asked == plain.asked

    @pytest.mark.parametrize(
        "phase, sample_id, nth",
        [("phase1", "s01", 1), ("phase2.type", "s11", 1), ("phase3", "s03", 2)],
        ids=["verdict", "type-query", "reask"],
    )
    def test_a_failed_step_is_asked_again_in_a_later_mode(
        self, samples_12, monkeypatch, phase, sample_id, nth
    ):
        fail = (phase, sample_id, nth)
        reusing, plain = ModeScripts(monkeypatch, fail), ModeScripts(monkeypatch, fail)
        runs = ablate(samples_12, reusing)
        assert runs == modes_in_turn(samples_12, plain)
        assert reusing.asked == plain.asked
        index = [s.id for s in samples_12].index(sample_id)
        failure = detection_from_line(runs[AblationMode.FULL][index]).failure
        assert failure.startswith(f"{phase.split('.')[0]}: BackendError")
        assert any(
            (p, s) == (phase, sample_id) and mode is not AblationMode.FULL
            for mode, p, s in reusing.asked
        ), "no later mode asked the backend again"
        for mode in list(AblationMode)[1:]:
            assert all(detection_from_line(line).failure is None for line in runs[mode]), mode

    def test_a_routed_transcript_is_not_reused_under_another_phase2_setting(self, samples_12):
        sample = sample_by_id(samples_12, "s07")  # a diagram, judged inconsistent
        spy = SpyScript()
        routed = PhaseSetup(backend=spy, settings=RequestSettings(model_id="latex-reader"))
        memo = ReplayCache()
        with_router = shared_setup(spy, cache=memo, router={QuestionType.DIAGRAM: routed})
        first = detect_errors(sample, AblationMode.FULL, with_router)
        plain = detect_errors(sample, AblationMode.FULL, shared_setup(spy, cache=memo))
        again = detect_errors(sample, AblationMode.FULL, with_router)

        def phase2(det):
            (record,) = [r for r in det.trace.backend_calls if r.phase == "phase2"]
            return record

        assert [q.settings.model_id for q in spy.requests if q.phase == "phase2"] == [
            "latex-reader", "scripted"
        ]
        assert not phase2(plain).from_cache
        assert phase2(plain).fingerprint != phase2(first).fingerprint
        assert plain.trace.phase1 == first.trace.phase1
        assert again.trace.phase2 == first.trace.phase2
        assert phase2(again).from_cache

    @pytest.mark.parametrize("other", ["prompt-set", "memo"])
    def test_setups_on_another_prompt_set_or_memo_share_no_table(self, samples_12, other):
        """A setup on another prompt set gets no memo hit for the requests it changes, and one
        on another memo none at all, from a run on the first setup before it."""
        templates = dict(packaged_prompts().templates)
        templates["phase1_consistency"] += "\nAnswer in one line."
        memo = ReplayCache()
        if other == "prompt-set":
            second = shared_setup(SpyScript(), cache=memo, prompts=PromptSet(templates))
        else:
            second = shared_setup(SpyScript(), cache=ReplayCache())
        first = run_dataset(samples_12, AblationMode.FULL, shared_setup(SpyScript(), cache=memo))
        then = run_dataset(samples_12, AblationMode.FULL, second)
        asked = [q.phase for q in second.phase1.backend.requests]
        assert asked.count("phase1") == 10  # its own verdicts, asked of its own backend
        calls = [r for d in then for r in d.trace.backend_calls]
        assert len(asked) == sum(not r.from_cache for r in calls)
        assert len(asked) == (10 if other == "prompt-set" else len(calls))
        assert [(d.predicted_step, d.predicted_category) for d in then] == [
            (d.predicted_step, d.predicted_category) for d in first
        ]


class TestDetectionStorage:
    def test_write_then_load_round_trip(self, tmp_path, samples_12):
        detections = run(samples_12, AblationMode.FULL)
        path = tmp_path / "detections.jsonl"
        save(detections, path)
        loaded = load_detections(path)
        assert [d.sample_id for d in loaded] == [d.sample_id for d in detections]
        for stored, det in zip(loaded, detections):
            assert stored.predicted_step == det.predicted_step
            assert stored.predicted_category == det.predicted_category
            assert stored.mode is det.mode
            assert stored.failure == det.failure

    def test_corrupt_line_cites_its_number(self, tmp_path, samples_12):
        detections = run(samples_12, AblationMode.FULL)
        path = tmp_path / "detections.jsonl"
        save(detections, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValueError) as err:
            load_detections(path)
        assert "line 13" in str(err.value)

    def test_a_line_that_is_not_an_object_cites_its_number(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text("[1]\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_detections(path)

    def test_a_line_whose_calls_carry_latency_still_loads(self, samples_12):
        # files written before calls stopped recording wall time hold a latency_ms per call
        for det in run(samples_12, AblationMode.FULL):
            line = detection_line(det)
            old = line.replace(', "phase": ', ', "latency_ms": 12.5, "phase": ')
            assert old.count('"latency_ms": 12.5') == len(det.trace.backend_calls) > 0
            assert detection_from_line(old) == detection_from_line(line)

    def test_detections_can_be_scored_after_reload(self, tmp_path, samples_12):
        detections = run(samples_12, AblationMode.FULL)
        path = tmp_path / "detections.jsonl"
        save(detections, path)
        loaded = load_detections(path)
        direct = build_report_row(detections, list(samples_12), "m")
        reloaded = build_report_row(loaded, list(samples_12), "m")
        assert direct.values == reloaded.values

    def test_each_line_is_one_write_and_a_short_one_is_finished(self, tmp_path, samples_12):
        detections = run(samples_12, AblationMode.FULL)
        path = tmp_path / "detections.jsonl"
        writes = []
        with DetectionLog(path) as log:
            real = log._file

            class Short:  # the file as a write(2) that takes at most 100 bytes at a time
                def write(self, data):
                    writes.append((bytes(data), path.read_bytes()))
                    return real.write(bytes(data[:100]))

            log._file = Short()
            for det in detections[:2]:
                log.add(det)
            log._file = real
        lines = [detection_line(det).encode("utf-8") for det in detections[:2]]
        assert path.read_bytes() == b"".join(lines)
        # each call hands over the whole rest of one line, and the next line starts only
        # once the one before it is on disk
        assert [data for data, _ in writes] == [
            line[start:] for line in lines for start in range(0, len(line), 100)
        ]
        first_of_second = -(len(lines[0]) // -100)  # the writes the first line took
        assert writes[0] == (lines[0], b"")
        assert writes[first_of_second] == (lines[1], lines[0])

    def test_a_whole_log_writes_each_line_once(self, tmp_path, samples_12):
        detections = run(samples_12, AblationMode.FULL)
        path = tmp_path / "detections.jsonl"
        with DetectionLog(path) as log:
            counted = Counter()
            real_write = log._file.write
            log._file = SimpleNamespace(
                write=lambda data: counted.update(["write"]) or real_write(data),
                close=log._file.close,
            )
            for det in detections:
                log.add(det)
        assert counted["write"] == len(detections)
        assert path.read_bytes() == "".join(map(detection_line, detections)).encode("utf-8")


# Replies that steer a sample down every path: verdicts, question types,
# analyses with in- and out-of-range steps, text no parser reads, cut
# replies and failing calls. A sample's list ends in an analysis, which
# answers every later call, so about a third of the samples parse.
ANALYSIS = st.builds(
    "Error Step: #{}\nError Category: {}".format,
    st.integers(0, 6),
    st.sampled_from([c.value for c in ErrorCategory] + ["Nonsense"]),
)
VERDICTS_AND_TYPES = ["CONSISTENT", "NOT CONSISTENT"] + [q.value for q in QuestionType]
TEXT = st.sampled_from(VERDICTS_AND_TYPES) | st.text(max_size=30)
REPLY = st.one_of(
    ANALYSIS,
    TEXT,
    (ANALYSIS | TEXT).map(truncated),
    st.builds(TransportError, st.just("connection reset")),  # a fresh exception per draw
)
SAMPLE_REPLIES = st.builds(
    lambda prefix, last: [*prefix, last], st.lists(REPLY, max_size=4), ANALYSIS
)


class TestDetectionLineRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        mode=st.sampled_from(list(AblationMode)),
        replies=st.lists(SAMPLE_REPLIES, min_size=12, max_size=12),
    )
    def test_a_written_line_reads_back_to_the_kept_record(self, samples_12, mode, replies):
        detections = []
        for sample, sample_replies in zip(samples_12, replies):
            phase = PhaseSetup(backend=CapturingBackend(*sample_replies))
            setup = PipelineSetup(phase1=phase, phase2=phase, phase3=phase)
            detections.append(detect_errors(sample, mode, setup))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "detections.jsonl"
            with DetectionLog(path) as log:
                for det in detections:
                    log.add(det)
            assert load_detections(path) == log.records
        assert [r.sample_id for r in log.records] == [s.id for s in samples_12]


def reference_line(det):
    """A detection's line as the dict-and-json.dumps writer built it: detection_line's reference."""
    v, t = det.trace.phase1, det.trace.phase2
    obj = {
        "sample_id": det.sample_id,
        "mode": det.mode.value,
        "predicted_step": det.predicted_step,
        "predicted_category": det.predicted_category.value if det.predicted_category else None,
        "failure": det.failure,
        "trace": {
            "phase1": None if v is None else {
                "consistent": v.consistent,
                "raw_text": v.raw_text,
                "confidence_note": v.confidence_note,
            },
            "phase2": None if t is None else {
                "representation": t.representation.value,
                "content": t.content,
                "question_type": t.question_type.value if t.question_type else None,
                "source": t.source.value if t.source else None,
                "findings": list(t.findings),
            },
            "phase3_raw": det.trace.phase3_raw,
            "backend_calls": [
                {
                    "phase": r.phase,
                    "fingerprint": r.fingerprint,
                    "from_cache": r.from_cache,
                }
                for r in det.trace.backend_calls
            ],
        },
    }
    return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"


DETECTIONS = st.builds(
    Detection,
    sample_id=awkward_text,
    mode=st.sampled_from(AblationMode),
    predicted_step=st.none() | st.just(1) | st.integers(min_value=2**63),
    predicted_category=st.none() | st.sampled_from(ErrorCategory),
    failure=st.none() | awkward_text,
    trace=st.builds(
        PhaseTrace,
        phase1=st.none() | st.builds(
            ConsistencyVerdict, st.booleans(), awkward_text, st.none() | awkward_text
        ),
        phase2=st.none() | st.builds(
            VisualTranscript,
            representation=st.sampled_from(Representation),
            content=awkward_text,
            question_type=st.none() | st.sampled_from(QuestionType),
            source=st.none() | st.sampled_from(TranscriptSource),
            findings=st.lists(awkward_text, max_size=3).map(tuple),
        ),
        phase3_raw=awkward_text,
        backend_calls=st.lists(
            st.builds(CallRecord, awkward_text, awkward_text, st.booleans()),
            max_size=4,
        ),
    ),
)


class TestDetectionLine:
    @settings(max_examples=300, deadline=None)
    @given(det=DETECTIONS)
    def test_the_line_is_what_json_dumps_writes_of_the_detection(self, det):
        assert detection_line(det) == reference_line(det)
