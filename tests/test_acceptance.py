"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each test prints "[PASS]" or "[FAIL]" with the criterion number so a
plain pytest run doubles as the acceptance checklist. Tolerances and
runtime budgets are hard assertions.
"""

import json
import random
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import FIXTURES, load_corpus, make_sample
from mathagent import (
    AblationMode,
    ErrorCategory,
    GeometryFact,
    HttpBackend,
    ModelRequest,
    Number,
    PhaseSetup,
    PipelineSetup,
    QuestionType,
    ReplayCache,
    Representation,
    RequestSettings,
    Symbol,
    TextSegment,
    TranscriptSource,
    VisualTranscript,
    average_score,
    build_analysis_prompt,
    call_counts,
    detection_to_dict,
    improvement_delta,
    mean_delta,
    parse_analyzer_output,
    parse_facts,
    parse_verdict,
    request_fingerprint,
    run_dataset,
    sample_to_dict,
    score_run,
    serialize_facts,
    validate_arity,
    weighted_overall,
)
from mathagent.cli import EXIT_FINDINGS, EXIT_OK, main
from mathagent.formal_language import DEFAULT_ARITY
from mathagent.rounding import round_half_up
from mathagent.synth import synthetic_reference_dataset

COLUMNS = ("step", "vis", "cal", "reas", "know", "mis", "overall", "average")
CATEGORY_COLUMNS = ("vis", "cal", "reas", "know", "mis")


@pytest.fixture()
def announce(capsys):
    @contextmanager
    def _announce(number: int, label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] acceptance {number}/8: {label}")
            raise
        with capsys.disabled():
            print(f"[PASS] acceptance {number}/8: {label}")

    return _announce


# --- 1: reference table arithmetic -----------------------------------------


def test_criterion_1_reference_table_arithmetic(announce):
    with announce(1, "reference table arithmetic reconstructs within tolerance"):
        started = time.perf_counter()
        data = load_corpus("reference_rows.json")
        counts = data["category_counts"]
        rows = data["rows"]
        by_model = {row["model"]: row for row in rows}
        assert len(rows) == 13

        # count-weighted overall from the five printed category cells
        for row in rows:
            cells = {c: row[c] for c in CATEGORY_COLUMNS}
            computed = round_half_up(weighted_overall(cells, counts), 2)
            assert abs(computed - Decimal(row["overall"])) <= Decimal("0.05"), row["model"]

        # average of printed step and overall, except the known outlier
        average_outliers = set(data["known_anomalies"]["average_mismatch"])
        for row in rows:
            computed = average_score(row["step"], row["overall"])
            diff = abs(computed - Decimal(row["average"]))
            if row["model"] in average_outliers:
                assert diff > Decimal("0.01"), "documented outlier unexpectedly matches"
            else:
                assert diff <= Decimal("0.01"), row["model"]

        # every GPT-4o superscript delta, exactly
        enhanced = by_model["GPT-4o w/ MathAgent"]
        base = by_model[enhanced["baseline"]]
        for column in COLUMNS:
            assert improvement_delta(base[column], enhanced[column]) == Decimal(
                enhanced["printed_deltas"][column]
            ), column

        # the improvement summary row is the column mean of printed deltas
        pairs = [row for row in rows if "printed_deltas" in row]
        assert len(pairs) == 6
        for column in COLUMNS:
            deltas = [row["printed_deltas"][column] for row in pairs]
            assert mean_delta(deltas) == Decimal(
                data["average_improvement"][column]
            ), column

        # recomputing every pair's deltas finds exactly the documented mismatches
        mismatches = []
        for row in pairs:
            row_base = by_model[row["baseline"]]
            for column in COLUMNS:
                computed = improvement_delta(row_base[column], row[column])
                if computed != Decimal(row["printed_deltas"][column]):
                    mismatches.append([row["model"], column])
        assert mismatches == data["known_anomalies"]["delta_mismatch"]

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


# --- 2: metric oracle equivalence -------------------------------------------


def test_criterion_2_metric_oracle_equivalence(announce):
    with announce(2, "500 random runs match a brute-force recount bit-exactly"):
        started = time.perf_counter()
        categories = list(ErrorCategory)
        rng = random.Random(20240917)
        for _ in range(500):
            n = rng.randint(1, 40)
            samples, preds = [], []
            for i in range(n):
                n_steps = rng.randint(2, 15)
                samples.append(
                    make_sample(
                        sample_id=f"x{i}",
                        steps=tuple("s" for _ in range(n_steps)),
                        gt_error_step=rng.randint(1, n_steps),
                        gt_error_category=rng.choice(categories),
                        image=None,
                    )
                )
                parsed = rng.random() < 0.8
                preds.append(
                    SimpleNamespace(
                        sample_id=f"x{i}",
                        predicted_step=rng.randint(1, n_steps) if parsed else None,
                        predicted_category=rng.choice(categories) if parsed else None,
                    )
                )

            # recount with plain loops, no shared code with the metrics module
            lookup = {p.sample_id: p for p in preds}
            step_hits = 0
            hits_by_cat: dict = {}
            totals_by_cat: dict = {}
            for s in samples:
                p = lookup[s.id]
                if p.predicted_step == s.gt_error_step:
                    step_hits += 1
                totals_by_cat[s.gt_error_category] = (
                    totals_by_cat.get(s.gt_error_category, 0) + 1
                )
                if p.predicted_category == s.gt_error_category:
                    hits_by_cat[s.gt_error_category] = (
                        hits_by_cat.get(s.gt_error_category, 0) + 1
                    )

            assert score_run(preds, samples).step_accuracy() == Fraction(100 * step_hits, n)
            per_cat = score_run(preds, samples).category_accuracy()
            assert per_cat == {
                c: Fraction(100 * hits_by_cat.get(c, 0), t)
                for c, t in totals_by_cat.items()
            }
            micro = score_run(preds, samples).overall_micro()
            assert micro == Fraction(100 * sum(hits_by_cat.values()), n)
            assert micro == weighted_overall(per_cat, totals_by_cat)

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"


# --- 3: routing properties ---------------------------------------------------


def scripted_setup():
    from mathagent import ScriptedBackend

    backend = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
    phase = PhaseSetup(backend=backend)
    return PipelineSetup(phase1=phase, phase2=phase, phase3=phase)


def test_criterion_3_routing_properties(announce, samples_12):
    with announce(3, "scripted 12-sample routing matrix matches hand enumeration"):
        expected = {
            AblationMode.FULL: {"phase1": 10, "phase2.type": 2, "phase2": 6, "phase3": 14},
            AblationMode.NO_VALIDATOR: {"phase2.type": 2, "phase2": 10, "phase3": 14},
            AblationMode.NO_INTERPRETER: {"phase1": 10, "phase2": 6, "phase3": 14},
            AblationMode.NO_ANALYZER: {
                "phase1": 10, "phase2.type": 2, "phase2": 6, "phase3": 14,
            },
        }
        for mode, table in expected.items():
            detections = run_dataset(samples_12, mode, scripted_setup())
            assert call_counts(detections) == table, mode.value

        full = {
            d.sample_id: d
            for d in run_dataset(samples_12, AblationMode.FULL, scripted_setup())
        }
        for sample in samples_12:
            det = full[sample.id]
            if sample.image is None:
                # image-free: no phase 1 or phase 2 backend traffic at all
                assert all(
                    r.phase == "phase3" for r in det.trace.backend_calls
                ), sample.id
                assert det.trace.phase2 is None
            else:
                transcribed = det.trace.phase2 is not None
                assert transcribed == (not det.trace.phase1.consistent), sample.id

        no_validator = run_dataset(
            samples_12, AblationMode.NO_VALIDATOR, scripted_setup()
        )
        for sample, det in zip(samples_12, no_validator):
            assert (det.trace.phase2 is not None) == (sample.image is not None)


# --- 4: determinism and replay ----------------------------------------------


def test_criterion_4_determinism_and_replay(
    announce, tmp_path, capsys, monkeypatch, samples_12
):
    with announce(4, "byte-identical reruns; warm replay cache makes zero calls"):
        # scripted cmd_run twice, byte-for-byte equal artifacts
        script = str(FIXTURES / "scripts_12.json")
        out_dirs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            backend = {"kind": "scripted", "script_path": script, "model_id": "m"}
            config = tmp_path / f"{name}.json"
            config.write_text(
                json.dumps(
                    {
                        "dataset": str(FIXTURES / "dataset_12.jsonl"),
                        "backends": {
                            "phase1": backend, "phase2": backend, "phase3": backend,
                        },
                        "output_dir": str(out_dir),
                    }
                ),
                encoding="utf-8",
            )
            assert main(["run", "--config", str(config)]) == EXIT_OK
            out_dirs.append(out_dir)
        capsys.readouterr()
        for artifact in ("detections.jsonl", "report.csv", "report.md"):
            assert (out_dirs[0] / artifact).read_bytes() == (
                out_dirs[1] / artifact
            ).read_bytes(), artifact

        # a warm replay cache answers everything; the transport stays cold
        class CountingTransport:
            def __init__(self):
                self.calls = 0

            def __call__(self, url, headers, body, timeout_s):
                self.calls += 1
                return 200, json.dumps(
                    {
                        "choices": [
                            {
                                "message": {
                                    "content": (
                                        "Error Step: #2\nError Category: Reasoning Error"
                                    )
                                },
                                "finish_reason": "stop",
                            }
                        ]
                    }
                )

        transport = CountingTransport()
        http = HttpBackend("https://stub.invalid/v1", transport=transport)
        cache = tmp_path / "replay.jsonl"

        monkeypatch.setenv("MATHAGENT_API_KEY", "acceptance-key")

        def replay_setup(memo):
            phase = PhaseSetup(backend=http)
            return PipelineSetup(phase1=phase, phase2=phase, phase3=phase, cache=memo)

        with ReplayCache(cache) as memo:
            cold = run_dataset(samples_12, AblationMode.FULL, replay_setup(memo))
        cold_calls = transport.calls
        assert cold_calls == 36  # 10 verdicts + 4 type tries + 10 transcripts + 12
        with ReplayCache(cache) as memo:
            warm = run_dataset(samples_12, AblationMode.FULL, replay_setup(memo))
        assert transport.calls == cold_calls, "warm replay hit the network"

        strip = lambda dets: [detection_to_dict(d) for d in dets]
        cold_dicts, warm_dicts = strip(cold), strip(warm)
        for det in cold_dicts + warm_dicts:
            for record in det["trace"]["backend_calls"]:
                record.pop("from_cache")
                record.pop("latency_ms")
        assert cold_dicts == warm_dicts


# --- 5: formal-language round-trip -------------------------------------------


def test_criterion_5_formal_language_round_trip(announce):
    with announce(5, "parse/serialize identity, canonical example, arity oracle"):
        rng = random.Random(7331)
        idents = ["A", "B", "C", "AB", "BAC", "P1", "xy", "Zq_3"]
        predicates = list(DEFAULT_ARITY) + ["Pentagon", "Mark"]

        def random_fact():
            args = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.6:
                    args.append(Symbol(rng.choice(idents)))
                else:
                    args.append(Number(Decimal(rng.randint(0, 999))))
            return GeometryFact(rng.choice(predicates), tuple(args))

        for _ in range(100):
            facts = tuple(random_fact() for _ in range(rng.randint(0, 8)))
            assert parse_facts(serialize_facts(facts)) == facts

        facts = parse_facts("Triangle(A, B, C), Angle(BAC, 45), Line(AB, 5)")
        assert len(facts) == 3
        assert facts[0] == GeometryFact("Triangle", (Symbol("A"), Symbol("B"), Symbol("C")))
        assert facts[1] == GeometryFact("Angle", (Symbol("BAC"), Number(Decimal(45))))
        assert facts[2] == GeometryFact("Line", (Symbol("AB"), Number(Decimal(5))))

        for _ in range(200):
            facts = tuple(random_fact() for _ in range(rng.randint(0, 6)))
            naive = [
                i
                for i, f in enumerate(facts)
                if f.predicate in DEFAULT_ARITY
                and len(f.args) != DEFAULT_ARITY[f.predicate]
            ]
            assert [v.fact_index for v in validate_arity(facts)] == naive


# --- 6: output-grammar conformance -------------------------------------------


def test_criterion_6_output_grammar_corpora(announce):
    with announce(6, "verdict and analyzer corpora reproduce with zero mismatches"):
        verdicts = load_corpus("verdict_cases.json")
        assert len(verdicts) == 50
        wrong = [
            c["reply"]
            for c in verdicts
            if parse_verdict(c["reply"]) != c["consistent"]
        ]
        assert wrong == []

        analyzer = load_corpus("analyzer_cases.json")
        assert len(analyzer) == 60
        for case in analyzer:
            out = parse_analyzer_output(case["reply"], case["n_steps"])
            expected_cat = ErrorCategory[case["category"]] if case["category"] else None
            assert (out.error_step, out.error_category, out.parse_ok) == (
                case["step"], expected_cat, case["ok"],
            ), case["reply"]

        canonical = parse_analyzer_output("Error Step: #3\nError Category: Calculation", 5)
        assert (canonical.error_step, canonical.error_category) == (3, ErrorCategory.CAL)
        assert canonical.parse_ok


# --- 7: schema gate ----------------------------------------------------------


def test_criterion_7_schema_gate(announce, tmp_path, capsys):
    with announce(7, "validator accepts the fixture, rejects 8 corruptions, matches marginals"):
        dataset = FIXTURES / "dataset_12.jsonl"
        assert main(["validate", str(dataset)]) == EXIT_OK
        capsys.readouterr()

        lines = dataset.read_text(encoding="utf-8").splitlines()

        def run_corruption(name, mutate):
            broken_lines = list(lines)
            mutate(broken_lines)
            path = tmp_path / f"{name}.jsonl"
            path.write_text("\n".join(broken_lines) + "\n", encoding="utf-8")
            code = main(["validate", str(path)])
            out = capsys.readouterr().out
            finding_lines = [
                l for l in out.splitlines() if l.startswith("line ") and "field" in l
            ]
            assert code == EXIT_FINDINGS, name
            assert finding_lines, name
            return finding_lines[0]

        def edit(index, **changes):
            def mutate(broken_lines):
                obj = json.loads(broken_lines[index])
                for key, value in changes.items():
                    if value is None:
                        obj.pop(key, None)
                    else:
                        obj[key] = value
                broken_lines[index] = json.dumps(obj)
            return mutate

        finding = run_corruption("missing-id", edit(1, id=None))
        assert finding.startswith("line 2:") and "field 'id'" in finding
        finding = run_corruption("bad-steps", edit(2, steps=7))
        assert finding.startswith("line 3:") and "field 'steps'" in finding
        finding = run_corruption("step-zero", edit(3, gt_error_step=0))
        assert finding.startswith("line 4:") and "field 'gt_error_step'" in finding
        finding = run_corruption("step-high", edit(4, gt_error_step=40))
        assert finding.startswith("line 5:") and "field 'gt_error_step'" in finding
        finding = run_corruption("bad-category", edit(5, gt_error_category="oops"))
        assert finding.startswith("line 6:") and "field 'gt_error_category'" in finding
        finding = run_corruption(
            "bad-image",
            edit(0, image={"kind": "inline_base64", "value": "!!", "media_type": "image/png"}),
        )
        assert finding.startswith("line 1:") and "field 'image.value'" in finding
        finding = run_corruption(
            "duplicate-id", lambda broken: broken.append(broken[0])
        )
        assert finding.startswith("line 13:") and "field 'id'" in finding
        finding = run_corruption(
            "bad-json", lambda broken: broken.insert(6, "{oops")
        )
        assert finding.startswith("line 7:") and "invalid JSON" in finding

        # synthetic dataset reproduces the reference marginals through the CLI
        synth_path = tmp_path / "synthetic.jsonl"
        with open(synth_path, "w", encoding="utf-8") as fh:
            for sample in synthetic_reference_dataset():
                fh.write(json.dumps(sample_to_dict(sample), ensure_ascii=False) + "\n")
        assert main(["validate", str(synth_path)]) == EXIT_OK
        out = capsys.readouterr().out
        for needle in (
            "total: 2500",
            "plane_geometry: 1559",
            "solid_geometry: 191",
            "diagram: 233",
            "algebra: 288",
            "math_commonsense: 229",
            "VIS: 395",
            "CAL: 912",
            "REAS: 951",
            "KNOW: 119",
            "MIS: 123",
            "steps: mean=7.6 min=3 max=20",
            "question_length: mean=168.0 min=13 max=719",
        ):
            assert needle in out, needle


# --- 8: end-to-end ablation ordering -----------------------------------------

ABLATION_SETTINGS = RequestSettings(model_id="abl")

EXPECTED_ABLATION_CSV = (
    "mode,step,vis,cal,reas,know,mis,overall,average,"
    "calls_phase1,calls_phase2_type,calls_phase2,calls_phase3\n"
    "full,100.00,100.00,100.00,100.00,,100.00,100.00,100.00,3,0,2,4\n"
    "no_validator,75.00,100.00,0.00,100.00,,100.00,75.00,75.00,0,0,3,4\n"
    "no_interpreter,50.00,0.00,100.00,0.00,,100.00,50.00,50.00,3,0,2,4\n"
    "no_analyzer,75.00,100.00,100.00,0.00,,100.00,75.00,75.00,3,0,2,4\n"
)


def ablation_samples():
    def sample(sample_id, gt_step, gt_cat, imaged=True):
        return make_sample(
            sample_id=sample_id,
            question_text=f"Problem {sample_id}: find the marked value.",
            steps=tuple(f"{sample_id} work, part {i}" for i in range(4)),
            gt_error_step=gt_step,
            gt_error_category=gt_cat,
            question_type=QuestionType.PLANE_GEOMETRY if imaged else None,
            image="inline" if imaged else None,
        )

    return [
        sample("a1", 2, ErrorCategory.CAL),
        sample("b1", 1, ErrorCategory.VIS),
        sample("b2", 3, ErrorCategory.REAS),
        sample("c1", 2, ErrorCategory.MIS, imaged=False),
    ]


def analyzer_fingerprint(sample, transcript, include_problem_text):
    prompt = build_analysis_prompt(sample, transcript, include_problem_text)
    request = ModelRequest(
        model_id=ABLATION_SETTINGS.model_id,
        system_prompt=ABLATION_SETTINGS.system_prompt,
        segments=(TextSegment(prompt),),
        temperature=ABLATION_SETTINGS.temperature,
        max_tokens=ABLATION_SETTINGS.max_tokens,
        phase="phase3",
        sample_id=sample.id,
    )
    return request_fingerprint(request)


def formal(sample, content):
    return VisualTranscript(
        representation=Representation.FORMAL_LANGUAGE,
        content=content,
        question_type=sample.question_type,
        source=TranscriptSource.DATASET_LABEL,
        facts=parse_facts(content),
    )


def caption(sample, content):
    return VisualTranscript(
        representation=Representation.CAPTION,
        content=content,
        question_type=sample.question_type,
        source=TranscriptSource.DATASET_LABEL,
    )


def build_ablation_script():
    """Scripted replies keyed by analyzer-prompt fingerprint.

    The analyzer prompt differs per ablation mode (transcript presence,
    caption vs facts, problem text removed), so fingerprints address
    mode-specific behaviour that phase/sample routing cannot.
    """
    a1, b1, b2, c1 = ablation_samples()
    a1_facts = "Point(A)"
    b1_facts = "Triangle(A, B, C)"
    b2_facts = "Line(XY, 4)"

    right = {
        "a1": "Error Step: #2\nError Category: Calculation",
        "b1": "Error Step: #1\nError Category: Visual Perception",
        "b2": "Error Step: #3\nError Category: Reasoning",
        "c1": "Error Step: #2\nError Category: Misinterpretation of the Question",
    }
    by_fingerprint = {
        # a1: consistent image; only no_validator transcribes it and errs
        analyzer_fingerprint(a1, None, True): right["a1"],
        analyzer_fingerprint(a1, formal(a1, a1_facts), True): (
            "Error Step: #4\nError Category: Knowledge"
        ),
        analyzer_fingerprint(a1, None, False): right["a1"],
        # b1: formal facts keep it right, a bare caption loses it
        analyzer_fingerprint(b1, formal(b1, b1_facts), True): right["b1"],
        analyzer_fingerprint(b1, caption(b1, b1_facts), True): (
            "Error Step: #2\nError Category: Calculation"
        ),
        analyzer_fingerprint(b1, formal(b1, b1_facts), False): right["b1"],
        # b2: also needs the problem text; cutting it loses the sample
        analyzer_fingerprint(b2, formal(b2, b2_facts), True): right["b2"],
        analyzer_fingerprint(b2, caption(b2, b2_facts), True): (
            "Error Step: #1\nError Category: Visual Perception"
        ),
        analyzer_fingerprint(b2, formal(b2, b2_facts), False): (
            "Error Step: #2\nError Category: Misinterpretation of the Question"
        ),
        # c1: no image; identical prompt in three of the four modes
        analyzer_fingerprint(c1, None, True): right["c1"],
        analyzer_fingerprint(c1, None, False): right["c1"],
    }
    assert len(by_fingerprint) == 11
    return {
        "phases": {
            "phase1": {"a1": "CONSISTENT", "b1": "NOT CONSISTENT", "b2": "NOT CONSISTENT"},
            "phase2": {"a1": a1_facts, "b1": b1_facts, "b2": b2_facts},
        },
        "by_fingerprint": by_fingerprint,
    }


def test_criterion_8_ablation_ordering(announce, tmp_path, capsys):
    with announce(8, "ablation grid reproduces the hand-scored table and ordering"):
        samples = ablation_samples()
        dataset = tmp_path / "ablation.jsonl"
        with open(dataset, "w", encoding="utf-8") as fh:
            for sample in samples:
                fh.write(json.dumps(sample_to_dict(sample), ensure_ascii=False) + "\n")

        script = tmp_path / "script.json"
        script.write_text(json.dumps(build_ablation_script()), encoding="utf-8")

        backend = {"kind": "scripted", "script_path": str(script), "model_id": "abl"}
        out_dir = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "dataset": str(dataset),
                    "backends": {
                        "phase1": backend, "phase2": backend, "phase3": backend,
                    },
                    "output_dir": str(out_dir),
                }
            ),
            encoding="utf-8",
        )
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        stdout = capsys.readouterr().out
        csv_text = (out_dir / "ablation.csv").read_text(encoding="utf-8")
        assert stdout == csv_text
        assert csv_text == EXPECTED_ABLATION_CSV

        by_mode = {}
        for line in csv_text.splitlines()[1:]:
            cells = line.split(",")
            by_mode[cells[0]] = Decimal(cells[1])
        assert by_mode["full"] > by_mode["no_validator"] > by_mode["no_interpreter"]
        assert min(by_mode, key=by_mode.get) == "no_interpreter"
