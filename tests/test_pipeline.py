"""End-to-end pipeline behaviour over the 12-sample scripted fixture."""

import json
import random
import signal
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from types import SimpleNamespace

import pytest

from conftest import FIXTURES, make_sample
from mathagent import (
    AblationMode,
    DetectionLog,
    ErrorCategory,
    ImageKind,
    ImageRef,
    ModelResponse,
    PhaseSetup,
    PipelineSetup,
    QuestionType,
    ReplayCache,
    Representation,
    RequestSettings,
    ScriptedBackend,
    SharedSteps,
    TranscriptSource,
    build_report_row,
    call_counts,
    detect_errors,
    detection_to_dict,
    load_detections,
    run_dataset,
    stream_detections,
)
from mathagent import BackendError, pipeline


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

    def test_failure_cites_the_failing_phase(self):
        sample = make_sample(sample_id="ghost", image=None)
        setup = PipelineSetup(
            phase1=PhaseSetup(backend=ScriptedBackend()),
            phase2=PhaseSetup(backend=ScriptedBackend()),
            phase3=PhaseSetup(backend=ScriptedBackend()),
        )
        det = detect_errors(sample, AblationMode.FULL, setup)
        assert det.failure.startswith("phase3: ScriptMiss")

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
        first = [detection_to_dict(d) for d in run(samples_12, AblationMode.FULL)]
        second = [detection_to_dict(d) for d in run(samples_12, AblationMode.FULL)]
        assert first == second

    def test_worker_pool_matches_sequential(self, samples_12):
        sequential = [detection_to_dict(d) for d in run(samples_12, AblationMode.FULL)]
        pooled = [
            detection_to_dict(d)
            for d in run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=4)
        ]
        assert pooled == sequential

    def test_more_workers_than_samples_matches_sequential(self, samples_12):
        sequential = [detection_to_dict(d) for d in run(samples_12, AblationMode.FULL)]
        pooled = [
            detection_to_dict(d)
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

        def fake_detect(sample, mode, setup, *steps):
            time.sleep(delays[sample])
            return sample, mode

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
                time.sleep(delays[detections[0][0]] / 4)
                emitted.append(detections)
            finally:
                emitting.release()

        runs = [(AblationMode.FULL, None), (AblationMode.NO_ANALYZER, None)]
        driver = threading.Thread(target=stream_detections, args=(range(400), runs, emit, 9))
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

        def detect(sample, mode, setup, *steps):
            if mode is AblationMode.FULL:
                started.append(sample.id)
                if sample.id == ids[k]:
                    # a real SIGINT, sent from whichever thread runs sample k
                    signal.pthread_kill(caller.ident, signal.SIGINT)
                    assert handled.wait(timeout=5)
            time.sleep(0.005)  # leaves the interpreter lock free for the handler
            return real(sample, mode, setup, *steps)

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
                stream_detections(samples_12, [(m, fresh_setup()) for m in modes], emit, workers)
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

        def detect(sample, mode, setup, *steps):
            threads.add(threading.current_thread())
            time.sleep(0.005)
            return real(sample, mode, setup, *steps)

        monkeypatch.setattr(pipeline, "detect_errors", detect)
        run_dataset(samples_12, AblationMode.FULL, fresh_setup(), workers=workers)
        assert threading.current_thread() in threads
        assert len(threads) <= workers


class TimedScript:
    """The fixture script answering with a fixed latency; keeps every request it gets."""

    def __init__(self):
        self.script = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        reply = self.script.complete(request)
        return ModelResponse(reply.text, reply.finish_reason, latency_ms=7.5)


def shared_setup(backend, **kwargs):
    phase = PhaseSetup(backend=backend)
    return PipelineSetup(phase1=phase, phase2=phase, phase3=phase, **kwargs)


def sample_by_id(samples, sample_id):
    return next(s for s in samples if s.id == sample_id)


class TestCallRecords:
    """Each call is recorded from its own request: phase, fingerprint, how it was answered."""

    def test_cold_calls_carry_their_request_and_latency(self, samples_12):
        spy = TimedScript()
        det = detect_errors(sample_by_id(samples_12, "s09"), AblationMode.FULL, shared_setup(spy))
        records = det.trace.backend_calls
        assert [r.phase for r in records] == ["phase1", "phase2.type", "phase2", "phase3"]
        assert [(r.phase, r.fingerprint) for r in records] == [
            (q.phase, q.fingerprint) for q in spy.requests
        ]
        assert [(r.from_cache, r.latency_ms) for r in records] == [(False, 7.5)] * 4

    def test_a_reask_records_both_analyzer_calls(self, samples_12):
        spy = TimedScript()
        det = detect_errors(sample_by_id(samples_12, "s03"), AblationMode.FULL, shared_setup(spy))
        records = det.trace.backend_calls
        assert [r.phase for r in records] == ["phase1", "phase2", "phase3", "phase3"]
        assert records[2].fingerprint != records[3].fingerprint
        assert [r.fingerprint for r in records] == [q.fingerprint for q in spy.requests]

    def test_a_warm_hit_is_recorded_as_cached(self, samples_12):
        spy = TimedScript()
        setup = shared_setup(spy)
        sample = sample_by_id(samples_12, "s09")
        cold = detect_errors(sample, AblationMode.FULL, setup)
        warm = detect_errors(sample, AblationMode.FULL, setup)
        assert len(spy.requests) == 4
        assert [(r.phase, r.fingerprint) for r in warm.trace.backend_calls] == [
            (r.phase, r.fingerprint) for r in cold.trace.backend_calls
        ]
        assert [(r.from_cache, r.latency_ms) for r in warm.trace.backend_calls] == [
            (True, 0.0)
        ] * 4

    def test_a_persisted_cache_answers_a_new_setup(self, tmp_path, samples_12):
        cache = tmp_path / "cache.jsonl"
        with ReplayCache(cache) as memo:
            cold_setup = shared_setup(TimedScript(), cache=memo)
            cold = run_dataset(samples_12, AblationMode.FULL, cold_setup)
        spy = TimedScript()
        with ReplayCache(cache) as memo:
            warm = run_dataset(samples_12, AblationMode.FULL, shared_setup(spy, cache=memo))
        assert spy.requests == []
        assert [r.fingerprint for d in warm for r in d.trace.backend_calls] == [
            r.fingerprint for d in cold for r in d.trace.backend_calls
        ]
        assert all(r.from_cache for d in warm for r in d.trace.backend_calls)

    def test_a_setup_without_a_cache_answers_a_repeat_once(self, samples_12):
        spy = TimedScript()
        setup = shared_setup(spy)
        first = run_dataset(samples_12, AblationMode.FULL, setup)
        asked = len(spy.requests)
        again = run_dataset(samples_12, AblationMode.FULL, setup)
        assert asked == sum(len(d.trace.backend_calls) for d in first)
        assert len(spy.requests) == asked
        assert all(r.from_cache for d in again for r in d.trace.backend_calls)
        assert [d.predicted_step for d in again] == [d.predicted_step for d in first]


class ModeScripts:
    """The fixture script, one fresh backend per mode as `ablate` builds them; keeps who asked what.

    With fail=(phase, sample id, n), the n-th request for that phase and
    sample raises BackendError, once.
    """

    def __init__(self, fail=None):
        self.fail = fail
        self.seen = 0
        self.asked = Counter()  # (mode, phase, sample id) of every request answered
        self.lock = threading.Lock()

    def setup(self, mode, memo):
        script = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
        owner = self

        class ModeBackend:
            def complete(self, request):
                key = (request.phase, request.sample_id)
                with owner.lock:
                    if owner.fail is not None and key == owner.fail[:2]:
                        owner.seen += 1
                        if owner.seen == owner.fail[2]:
                            raise BackendError("endpoint down")
                    owner.asked[(mode, *key)] += 1
                return script.complete(request)

        return shared_setup(ModeBackend(), cache=memo)


def ablate(samples, scripts, workers=1):
    """The four modes over one memo, as `mathagent ablate` runs them: each sample through all."""
    memo = ReplayCache()
    runs = [(mode, scripts.setup(mode, memo)) for mode in AblationMode]
    out = {mode: [] for mode in AblationMode}

    def emit(detections):
        for mode, det in zip(AblationMode, detections):
            out[mode].append(detection_to_dict(det))

    stream_detections(samples, runs, emit, workers)
    return out


def modes_in_turn(samples, scripts, workers=1):
    """The four modes over one memo, each over the whole dataset before the next, no tables."""
    memo = ReplayCache()
    return {
        mode: [
            detection_to_dict(d)
            for d in run_dataset(samples, mode, scripts.setup(mode, memo), workers)
        ]
        for mode in AblationMode
    }


class TestSharedSteps:
    """Phase results one mode ran, reused by a later mode through a per-sample table."""

    def test_a_repeated_step_is_reused_as_memo_hits(self, samples_12):
        sample, steps, spy = sample_by_id(samples_12, "s09"), SharedSteps(), TimedScript()
        setup = shared_setup(spy)
        full = detect_errors(sample, AblationMode.FULL, setup, steps)
        assert len(spy.requests) == 4
        cut = detect_errors(sample, AblationMode.NO_ANALYZER, setup, steps)
        # only the analyzer prompt changes; the three earlier steps are reused
        assert [q.phase for q in spy.requests[4:]] == ["phase3"]
        assert cut.trace.phase1 is full.trace.phase1
        assert cut.trace.phase2 is full.trace.phase2
        assert [(r.phase, r.fingerprint, r.from_cache, r.latency_ms)
                for r in cut.trace.backend_calls[:3]] == [
            (r.phase, r.fingerprint, True, 0.0) for r in full.trace.backend_calls[:3]
        ]
        assert [(r.from_cache, r.latency_ms) for r in full.trace.backend_calls] == [
            (False, 7.5)
        ] * 4

    def test_only_steps_that_made_a_call_are_stored(self, samples_12):
        tables = {sample_id: SharedSteps() for sample_id in ("s01", "s04", "s09")}
        setup = fresh_setup()
        for sample_id, steps in tables.items():
            detect_errors(sample_by_id(samples_12, sample_id), AblationMode.FULL, setup, steps)
        phases = {k: [key[0] for key in t.results] for k, t in tables.items()}
        # s04 has no image, so no verdict call; s01 is labeled, so no type call
        assert phases == {
            "s01": ["phase1", "phase2", "phase3"],
            "s04": ["phase3"],
            "s09": ["phase1", "phase2.type", "phase2", "phase3"],
        }

    def test_each_sample_gets_a_table_for_its_modes(self, samples_12, monkeypatch):
        tables, modes_seen = [], []
        real = pipeline.detect_errors

        def recording(sample, mode, setup, *steps):
            tables.append(steps)
            modes_seen.append((sample.id, mode))
            return real(sample, mode, setup, *steps)

        monkeypatch.setattr(pipeline, "detect_errors", recording)
        ablate(samples_12[:2], ModeScripts())
        # each sample runs through the four modes in order, on one table of its own
        assert modes_seen == [(s.id, m) for s in samples_12[:2] for m in AblationMode]
        assert all(len(steps) == 1 for steps in tables)
        assert len({id(steps[0]) for steps in tables[:4]}) == 1
        assert tables[0][0] is not tables[4][0]
        run_dataset(samples_12[:1], AblationMode.FULL, fresh_setup())
        assert tables[-1] == ()  # one mode has no later mode to reuse anything

    @pytest.mark.parametrize("workers", [1, 3])
    def test_ablate_matches_the_modes_run_without_tables(self, samples_12, workers):
        reusing, plain = ModeScripts(), ModeScripts()
        runs = ablate(samples_12, reusing, workers)
        assert runs == modes_in_turn(samples_12, plain, workers)
        assert reusing.asked == plain.asked

    @pytest.mark.parametrize(
        "phase, sample_id, nth",
        [("phase1", "s01", 1), ("phase2.type", "s11", 1), ("phase3", "s03", 2)],
        ids=["verdict", "type-query", "reask"],
    )
    def test_a_failed_step_is_asked_again_in_a_later_mode(self, samples_12, phase, sample_id, nth):
        reusing, plain = ModeScripts((phase, sample_id, nth)), ModeScripts((phase, sample_id, nth))
        runs = ablate(samples_12, reusing)
        assert runs == modes_in_turn(samples_12, plain)
        assert reusing.asked == plain.asked
        index = [s.id for s in samples_12].index(sample_id)
        failure = runs[AblationMode.FULL][index]["failure"]
        assert failure.startswith(f"{phase.split('.')[0]}: BackendError")
        assert any(
            (p, s) == (phase, sample_id) and mode is not AblationMode.FULL
            for mode, p, s in reusing.asked
        ), "no later mode asked the backend again"
        for mode in list(AblationMode)[1:]:
            assert all(det["failure"] is None for det in runs[mode]), mode

    def test_a_routed_transcript_is_not_reused_under_another_phase2_setting(self, samples_12):
        sample = sample_by_id(samples_12, "s07")  # a diagram, judged inconsistent
        spy = TimedScript()
        routed = PhaseSetup(backend=spy, settings=RequestSettings(model_id="latex-reader"))
        memo, steps = ReplayCache(), SharedSteps()
        with_router = shared_setup(spy, cache=memo, router={QuestionType.DIAGRAM: routed})
        first = detect_errors(sample, AblationMode.FULL, with_router, steps)
        plain = detect_errors(sample, AblationMode.FULL, shared_setup(spy, cache=memo), steps)
        again = detect_errors(sample, AblationMode.FULL, with_router, steps)

        def phase2(det):
            (record,) = [r for r in det.trace.backend_calls if r.phase == "phase2"]
            return record

        assert [q.model_id for q in spy.requests if q.phase == "phase2"] == [
            "latex-reader", "scripted"
        ]
        assert not phase2(plain).from_cache
        assert phase2(plain).fingerprint != phase2(first).fingerprint
        assert plain.trace.phase1 is first.trace.phase1
        assert again.trace.phase2 is first.trace.phase2
        assert phase2(again).from_cache


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
            assert stored.mode == det.mode.value
            assert stored.failure == det.failure
            assert stored.trace["phase3_raw"] == det.trace.phase3_raw

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

    def test_detections_can_be_scored_after_reload(self, tmp_path, samples_12):
        detections = run(samples_12, AblationMode.FULL)
        path = tmp_path / "detections.jsonl"
        save(detections, path)
        loaded = load_detections(path)
        direct = build_report_row(detections, list(samples_12), "m")
        reloaded = build_report_row(loaded, list(samples_12), "m")
        assert direct.values == reloaded.values
