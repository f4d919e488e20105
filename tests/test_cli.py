"""Command-line behaviour: run, ablate, validate, report, exit codes."""

import functools
import json
import shutil
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import FIXTURES, REPO, run_python, track_appends
from mathagent import ScriptedBackend, backends, cli, load_dataset, pipeline, prompts
from mathagent.cli import (
    EXIT_CONFIG,
    EXIT_DATASET,
    EXIT_FINDINGS,
    EXIT_OK,
    main,
)

DATASET = FIXTURES / "dataset_12.jsonl"
SCRIPTS = FIXTURES / "scripts_12.json"
PACKAGED_PROMPTS = Path(prompts.__file__).parent / "prompts"


def write_config(tmp_path: Path, out_dir: Path, **overrides) -> Path:
    backend = {"kind": "scripted", "script_path": str(SCRIPTS), "model_id": "scripted-12"}
    config = {
        "dataset": str(DATASET),
        "mode": "full",
        "backends": {"phase1": backend, "phase2": backend, "phase3": backend},
        "output_dir": str(out_dir),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


class TestValidate:
    def test_clean_dataset_exits_zero_with_stats(self, capsys):
        code = main(["validate", str(DATASET)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "total: 12" in out
        assert "plane_geometry: 4" in out
        assert "unlabeled: 2" in out
        assert "CAL: 4" in out
        assert "steps: mean=4.7 min=3 max=8" in out

    def test_empty_file_is_a_finding(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["validate", str(empty)])
        assert code == EXIT_FINDINGS
        assert "dataset contains no samples" in capsys.readouterr().out

    def test_missing_file_is_a_dataset_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.jsonl")]) == EXIT_DATASET


def corrupt(line: dict, **changes) -> dict:
    out = dict(line)
    for key, value in changes.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = value
    return out


CORRUPTIONS = [
    ("missing-id", {"id": None}, "field 'id'"),
    ("ill-typed-steps", {"steps": "not a list"}, "field 'steps'"),
    ("step-zero", {"gt_error_step": 0}, "field 'gt_error_step'"),
    ("step-beyond-last", {"gt_error_step": 99}, "field 'gt_error_step'"),
    ("unknown-category", {"gt_error_category": "typo"}, "field 'gt_error_category'"),
    (
        "bad-base64",
        {"image": {"kind": "inline_base64", "value": "@@@", "media_type": "image/png"}},
        "field 'image.value'",
    ),
]


class TestValidateCorruptions:
    @pytest.mark.parametrize(
        "changes,expected", [(c, e) for _, c, e in CORRUPTIONS],
        ids=[name for name, _, _ in CORRUPTIONS],
    )
    def test_field_corruptions_cite_line_and_field(self, tmp_path, capsys, changes, expected):
        lines = read_lines(DATASET)
        broken = corrupt(json.loads(lines[2]), **changes)
        lines[2] = json.dumps(broken)
        path = tmp_path / "broken.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS
        assert "line 3:" in out
        assert expected in out

    def test_duplicate_id_cites_both_lines(self, tmp_path, capsys):
        lines = read_lines(DATASET)
        lines.append(lines[0])
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS
        assert "line 13: field 'id'" in out
        assert "first seen line 1" in out

    def test_malformed_json_line(self, tmp_path, capsys):
        lines = read_lines(DATASET)
        lines.insert(4, "{this is not json")
        path = tmp_path / "badjson.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS
        assert "line 5:" in out
        assert "invalid JSON" in out

    def test_valid_samples_still_summarized_after_findings(self, tmp_path, capsys):
        lines = read_lines(DATASET)
        lines[0] = json.dumps(corrupt(json.loads(lines[0]), id=None))
        path = tmp_path / "partial.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS
        assert "total: 11" in out


class TestRun:
    def test_outputs_and_stdout(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir)
        code = main(["run", "--config", str(config)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        csv_text = (out_dir / "report.csv").read_text(encoding="utf-8")
        assert stdout == csv_text
        assert csv_text.splitlines()[1] == (
            "scripted-12,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83"
        )
        assert (out_dir / "detections.jsonl").exists()
        assert (out_dir / "report.md").exists()
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["model"] == "scripted-12"
        assert meta["mode"] == "full"
        assert meta["n_samples"] == 12
        assert meta["n_failures"] == 0
        assert meta["call_counts"] == {
            "phase1": 10, "phase2.type": 2, "phase2": 6, "phase3": 14,
        }

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            config = write_config(tmp_path, out_dir)
            assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        for name in ("detections.jsonl", "report.csv", "report.md"):
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second, name

    def test_seed_key_is_ignored(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir, seed="not even an integer")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert "seed" not in meta

    def test_mode_from_config(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir, mode="no_validator")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["call_counts"] == {"phase2.type": 2, "phase2": 10, "phase3": 14}


class TestAblate:
    def test_grid_and_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir)
        code = main(["ablate", "--config", str(config)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        csv_text = (out_dir / "ablation.csv").read_text(encoding="utf-8")
        assert stdout == csv_text
        lines = csv_text.splitlines()
        assert lines[0] == (
            "mode,step,vis,cal,reas,know,mis,overall,average,"
            "calls_phase1,calls_phase2_type,calls_phase2,calls_phase3"
        )
        assert [line.split(",")[0] for line in lines[1:]] == [
            "full", "no_validator", "no_interpreter", "no_analyzer",
        ]
        assert lines[1].endswith("10,2,6,14")
        assert lines[2].endswith("0,2,10,14")
        assert lines[3].endswith("10,0,6,14")
        assert lines[4].endswith("10,2,6,14")
        for mode in ("full", "no_validator", "no_interpreter", "no_analyzer"):
            assert (out_dir / f"detections_{mode}.jsonl").exists()


    def test_failed_samples_are_counted_per_mode(self, tmp_path, capsys, caplog):
        script = json.loads(SCRIPTS.read_text(encoding="utf-8"))
        del script["phases"]["phase3"]["s01"]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        backend = {"kind": "scripted", "script_path": str(script_path), "model_id": "scripted-12"}
        backends = {"phase1": backend, "phase2": backend, "phase3": backend}
        warnings = {}
        for command in ("run", "ablate"):
            config = write_config(tmp_path, tmp_path / command, backends=backends)
            caplog.clear()
            assert main([command, "--config", str(config)]) == EXIT_OK
            warnings[command] = [
                r.getMessage() for r in caplog.records if r.levelname == "WARNING"
            ]
        capsys.readouterr()
        assert warnings["run"] == ["1 of 12 samples failed; see detections.jsonl"]
        assert warnings["ablate"] == [
            f"1 of 12 samples failed; see detections_{mode}.jsonl"
            for mode in ("full", "no_validator", "no_interpreter", "no_analyzer")
        ]
        for mode in ("full", "no_validator", "no_interpreter", "no_analyzer"):
            first = read_lines(tmp_path / "ablate" / f"detections_{mode}.jsonl")[0]
            assert json.loads(first)["failure"] is not None, mode

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("ablate_cache", [False, True], ids=["uncached", "cached"])
    def test_each_mode_matches_a_run_in_that_mode(self, tmp_path, capsys, workers, ablate_cache):
        """Modes reuse each other's phase results; a run of each mode, in order, does not."""
        runs = tmp_path / "runs"
        runs.mkdir()
        for mode in ("full", "no_validator", "no_interpreter", "no_analyzer"):
            config = write_config(
                runs, runs / mode, mode=mode, workers=workers,
                cache_path=str(runs / "cache.jsonl"),
            )
            assert main(["run", "--config", str(config)]) == EXIT_OK
        extra = {"cache_path": str(tmp_path / "cache.jsonl")} if ablate_cache else {}
        config = write_config(tmp_path, tmp_path / "ablate", workers=workers, **extra)
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        for mode in ("full", "no_validator", "no_interpreter", "no_analyzer"):
            assert (tmp_path / "ablate" / f"detections_{mode}.jsonl").read_bytes() == (
                runs / mode / "detections.jsonl"
            ).read_bytes(), mode


class TestReport:
    @pytest.fixture()
    def run_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        return out_dir

    def test_recomputes_the_same_csv(self, run_dir, capsys):
        code = main(["report", str(run_dir / "detections.jsonl"), str(DATASET)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        # model name comes from the sibling run_meta.json
        assert stdout == (run_dir / "report.csv").read_text(encoding="utf-8")

    def test_model_flag_overrides_meta(self, run_dir, capsys):
        code = main([
            "report", str(run_dir / "detections.jsonl"), str(DATASET),
            "--model", "renamed",
        ])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert stdout.splitlines()[1].startswith("renamed,")

    def test_baseline_adds_delta_row(self, run_dir, tmp_path, capsys):
        out_dir = tmp_path / "reported"
        code = main([
            "report", str(run_dir / "detections.jsonl"), str(DATASET),
            "--baseline", str(run_dir / "detections.jsonl"),
            "--out-dir", str(out_dir), "--model", "self",
        ])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[1].startswith("self (baseline),")
        assert lines[2].startswith("self,")
        md = (out_dir / "report.md").read_text(encoding="utf-8")
        assert "<sup>+0.0</sup>" in md

    def test_corrupt_detections_exit_one(self, run_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert main(["report", str(bad), str(DATASET)]) == EXIT_FINDINGS

    def test_detection_line_that_is_not_an_object_exits_one(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1]\n", encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", "report", str(bad), str(DATASET))
        assert proc.returncode == EXIT_FINDINGS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "line 1" in proc.stderr

    def test_run_meta_that_is_not_an_object_gives_the_run_label(self, run_dir):
        (run_dir / "run_meta.json").write_text("[]\n", encoding="utf-8")
        detections = str(run_dir / "detections.jsonl")
        proc = run_python("-m", "mathagent.cli", "report", detections, str(DATASET))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[1].startswith("run,")

    @pytest.mark.parametrize("which", ["missing", "directory"])
    def test_an_unreadable_baseline_exits_three(self, run_dir, tmp_path, which):
        baseline = tmp_path / "baseline"
        if which == "directory":
            baseline.mkdir()
        detections = str(run_dir / "detections.jsonl")
        proc = run_python(
            "-m", "mathagent.cli", "report", detections, str(DATASET), "--baseline", str(baseline)
        )
        assert proc.returncode == EXIT_DATASET, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "cannot read detections" in proc.stderr

    def test_a_bad_baseline_line_exits_one(self, run_dir, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        baseline.write_text("[1]\n", encoding="utf-8")
        detections = str(run_dir / "detections.jsonl")
        proc = run_python(
            "-m", "mathagent.cli", "report", detections, str(DATASET), "--baseline", str(baseline)
        )
        assert proc.returncode == EXIT_FINDINGS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "line 1" in proc.stderr

    def test_misaligned_detections_exit_one(self, run_dir, tmp_path):
        detections = (run_dir / "detections.jsonl").read_text(encoding="utf-8")
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(detections.splitlines()[:5]) + "\n", encoding="utf-8")
        assert main(["report", str(partial), str(DATASET)]) == EXIT_FINDINGS


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_mode(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out", mode="half")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_missing_phase_backend(self, tmp_path):
        backend = {"kind": "scripted", "script_path": str(SCRIPTS)}
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        del raw["backends"]["phase3"]
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_unknown_backend_kind(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase1"] = {"kind": "telepathy"}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_router_key_must_be_a_question_type(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out", router={"geometry": "phase2"})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_router_target_must_exist(self, tmp_path):
        config = write_config(
            tmp_path, tmp_path / "out", router={"plane_geometry": "phase9"}
        )
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_workers_must_be_positive(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out", workers=0)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_missing_script_file(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase2"] = {"kind": "scripted", "script_path": "absent.json"}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_missing_prompt_asset(self, tmp_path, caplog, command):
        prompt_dir = tmp_path / "prompts"
        shutil.copytree(PACKAGED_PROMPTS, prompt_dir)
        (prompt_dir / "phase2_latex.prompt").unlink()
        config = write_config(tmp_path, tmp_path / "out", prompt_dir="prompts")
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert "missing prompt assets" in caplog.text
        assert "phase2_latex.prompt" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("prompt_dir", 5),
            ("cache_path", 5),
            ("output_dir", 5),
            ("phase1", {"kind": "http", "base_url": "http://localhost:9", "rate_limit": "x"}),
            ("phase1", {"kind": "http", "base_url": "http://localhost:9", "retry": 5}),
            ("phase1", {"kind": "scripted", "phases": [1]}),
            ("workers", True),
            ("phase1", {"kind": "http", "base_url": "http://localhost:9", "rate_limit": True}),
            ("router", {"diagram": [1]}),
        ],
        ids=[
            "prompt_dir", "cache_path", "output_dir", "rate_limit", "retry", "phases",
            "workers-bool", "rate_limit-bool", "router-target",
        ],
    )
    def test_wrong_typed_value(self, tmp_path, key, value):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        (raw["backends"] if key.startswith("phase") else raw)[key] = value
        config.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("backoff_base_ms", -5),
            ("max_attempts", 0),
            ("rate_limit", 0),
            ("timeout_s", 0),
            ("timeout_s", -1.5),
        ],
        ids=["backoff_base_ms", "max_attempts", "rate_limit", "timeout_s-zero", "timeout_s-negative"],
    )
    def test_http_knob_out_of_range(self, tmp_path, knob, value):
        spec = {"kind": "http", "base_url": "http://localhost:9", "rate_limit": 2}
        if knob in ("backoff_base_ms", "max_attempts"):
            spec["retry"] = {"max_attempts": 3, "backoff_base_ms": 2, knob: value}
        else:
            spec[knob] = value
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase2"] = spec
        config.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert repr(knob) in proc.stderr
        assert not (tmp_path / "out").exists()  # stopped before any sample ran

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("temperature", "x"),
            ("temperature", 2),
            ("max_tokens", 0),
            ("model_id", 5),
            ("system_prompt", ["a"]),
            ("max_tokens", True),
            ("temperature", False),
        ],
        ids=[
            "temperature-type", "temperature-range", "max_tokens-range", "model_id", "system_prompt",
            "max_tokens-bool", "temperature-bool",
        ],
    )
    def test_bad_request_knob(self, tmp_path, knob, value):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase3"][knob] = value
        config.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert repr(knob) in proc.stderr
        assert not (tmp_path / "out").exists()  # stopped before any sample ran

    @pytest.mark.parametrize(
        "script",
        [
            [1],
            {"phases": [1]},
            {"phases": {"phase1": [1]}},
            {"phases": {"phase1": {"s01": 5}}},
            {"by_fingerprint": {"abc": ["ok", 5]}},
            {"phases": {"phase1": {"s01": {"text": "CONSISTENT", "finish_reason": "bogus"}}}},
            {"phases": {"phase1": {"s01": {"text": ["CONSISTENT"]}}}},
        ],
        ids=["root", "phases", "phase", "reply", "reply-list", "finish_reason", "reply-object"],
    )
    def test_bad_script_file(self, tmp_path, script):
        (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase1"] = {"kind": "scripted", "script_path": "script.json"}
        config.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_spec_default_reply_overrides_the_script_file(self, tmp_path, capsys):
        (tmp_path / "script.json").write_text(
            json.dumps({"default_reply": 5}), encoding="utf-8"
        )
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase1"] = {
            "kind": "scripted", "script_path": "script.json", "default_reply": "CONSISTENT",
        }
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
        assert "phase2" not in meta["call_counts"]  # every image judged consistent


def as_reply_objects(script: dict, **fields) -> dict:
    """script with every reply text wrapped in a {"text": ...} object carrying fields."""

    def wrap(reply):
        if isinstance(reply, list):
            return [wrap(text) for text in reply]
        return {"text": reply, **fields}

    return {
        "phases": {
            phase: {sample: wrap(reply) for sample, reply in replies.items()}
            for phase, replies in script["phases"].items()
        }
    }


def cache_reasons(cache: Path) -> Counter:
    return Counter(json.loads(line)["finish_reason"] for line in read_lines(cache))


class TestReplyObjects:
    @pytest.mark.parametrize("fields", [{}, {"finish_reason": "stop"}], ids=["absent", "stop"])
    def test_reply_objects_read_like_strings(self, tmp_path, capsys, fields):
        script = json.loads(SCRIPTS.read_text(encoding="utf-8"))
        objects = tmp_path / "objects.json"
        objects.write_text(json.dumps(as_reply_objects(script, **fields)), encoding="utf-8")
        runs = {}
        for name, script_path in (("strings", SCRIPTS), ("objects", objects)):
            backend = {"kind": "scripted", "script_path": str(script_path), "model_id": "scripted-12"}
            (tmp_path / name).mkdir()
            config = write_config(
                tmp_path / name,
                tmp_path / name / "out",
                backends={"phase1": backend, "phase2": backend, "phase3": backend},
                cache_path=str(tmp_path / name / "cache.jsonl"),
            )
            assert main(["run", "--config", str(config)]) == EXIT_OK
            runs[name] = capsys.readouterr().out
            assert cache_reasons(tmp_path / name / "cache.jsonl") == {"stop": 32}
        assert runs["objects"] == runs["strings"]
        for artifact in ("detections.jsonl", "report.csv", "report.md"):
            assert (tmp_path / "objects" / "out" / artifact).read_bytes() == (
                tmp_path / "strings" / "out" / artifact
            ).read_bytes()


TRUNCATED_FINDING = "truncated: the reply stopped at the max_tokens limit"


class TestTruncation:
    """A reply cut at the token limit, scripted with a reply object, through `mathagent run`."""

    @staticmethod
    def truncated_script() -> dict:
        script = json.loads(SCRIPTS.read_text(encoding="utf-8"))
        phase2, phase3 = script["phases"]["phase2"], script["phases"]["phase3"]
        # s05: a caption cut short still reaches the analyzer, flagged
        phase2["s05"] = {"text": "A cylinder of radius 3 and", "finish_reason": "length"}
        # s01: a cut analyzer reply that parses earns the re-ask, which answers whole
        phase3["s01"] = [{"text": phase3["s01"], "finish_reason": "length"}, phase3["s01"]]
        # s02: the re-ask is cut too, so the sample is a miss
        phase3["s02"] = [{"text": phase3["s02"], "finish_reason": "length"}] * 2
        return script

    @staticmethod
    def by_id(out_dir: Path) -> dict:
        lines = read_lines(out_dir / "detections.jsonl")
        return {det["sample_id"]: det for det in map(json.loads, lines)}

    def test_truncated_replies_end_to_end(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "script.json").write_text(json.dumps(self.truncated_script()), encoding="utf-8")
        backend = {"kind": "scripted", "script_path": "script.json", "model_id": "scripted-12"}
        cache = tmp_path / "cache.jsonl"
        config = write_config(
            tmp_path, tmp_path / "cold",
            backends={"phase1": backend, "phase2": backend, "phase3": backend},
            cache_path=str(cache),
        )
        (tmp_path / "plain").mkdir()
        plain = write_config(tmp_path / "plain", tmp_path / "plain" / "out")
        assert main(["run", "--config", str(plain)]) == EXIT_OK
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        base, cold = self.by_id(tmp_path / "plain" / "out"), self.by_id(tmp_path / "cold")

        assert cold["s05"]["trace"]["phase2"]["findings"] == [TRUNCATED_FINDING]
        assert cold["s05"]["trace"]["phase2"]["content"] == "A cylinder of radius 3 and"
        assert base["s05"]["trace"]["phase2"]["findings"] == []

        def phase3_calls(det):
            return sum(r["phase"] == "phase3" for r in det["trace"]["backend_calls"])

        assert phase3_calls(base["s01"]) == phase3_calls(base["s02"]) == 1
        assert phase3_calls(cold["s01"]) == phase3_calls(cold["s02"]) == 2
        assert cold["s01"]["predicted_step"] == base["s01"]["predicted_step"] == 2
        assert base["s02"]["predicted_step"] == 1
        assert cold["s02"]["predicted_step"] is cold["s02"]["predicted_category"] is None
        assert cold["s02"]["failure"] is None

        # the four cut replies are cached with their finish reason: s05's transcript,
        # s01's first ask and both of s02's asks
        assert cache_reasons(cache) == {"stop": 30, "length": 4}

        # warm: no scripted call, the cached finish reasons replay, so the outputs repeat
        asked = []
        original = ScriptedBackend.complete
        monkeypatch.setattr(
            ScriptedBackend, "complete",
            lambda self, request: asked.append(request) or original(self, request),
        )
        for name in ("warm", "warm-again"):
            raw = json.loads(config.read_text(encoding="utf-8"))
            raw["output_dir"] = str(tmp_path / name)
            config.write_text(json.dumps(raw), encoding="utf-8")
            assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert asked == []
        warm = (tmp_path / "warm" / "detections.jsonl").read_bytes()
        assert warm == (tmp_path / "warm-again" / "detections.jsonl").read_bytes()
        cold_as_cached = {
            sample_id: {**det, "trace": {**det["trace"], "backend_calls": [
                {**r, "from_cache": True} for r in det["trace"]["backend_calls"]
            ]}}
            for sample_id, det in cold.items()
        }
        assert self.by_id(tmp_path / "warm") == cold_as_cached
        for artifact in ("report.csv", "report.md"):
            assert (tmp_path / "warm" / artifact).read_bytes() == (
                tmp_path / "cold" / artifact
            ).read_bytes()


    def test_truncated_verdict_and_type_replies_end_to_end(self, tmp_path, capsys, monkeypatch):
        script = json.loads(SCRIPTS.read_text(encoding="utf-8"))
        phases = script["phases"]
        cut = {"text": phases["phase1"]["s02"], "finish_reason": "length"}
        # s02: a cut "CONSISTENT" is not consistent, so its image is transcribed
        phases["phase1"]["s02"] = cut
        # s09: a cut type reply earns the reminder retry, which answers whole
        types = phases["phase2.type"]
        types["s09"] = [{"text": types["s09"], "finish_reason": "length"}, types["s09"]]
        # s11: the retry is cut too, so the sample takes the caption route
        types["s11"] = [{"text": "This is a plane geometry", "finish_reason": "length"}] * 2
        (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
        backend = {"kind": "scripted", "script_path": "script.json", "model_id": "scripted-12"}
        cache = tmp_path / "cache.jsonl"
        config = write_config(
            tmp_path, tmp_path / "cold",
            backends={"phase1": backend, "phase2": backend, "phase3": backend},
            cache_path=str(cache),
        )
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((tmp_path / "cold" / "run_meta.json").read_text(encoding="utf-8"))
        # one more phase-2 call (s02) and two more type calls (s09, s11) than the plain run
        assert meta["call_counts"] == {"phase1": 10, "phase2.type": 4, "phase2": 7, "phase3": 14}
        cold = self.by_id(tmp_path / "cold")
        assert cold["s02"]["trace"]["phase1"] == {
            "consistent": False, "raw_text": "CONSISTENT", "confidence_note": TRUNCATED_FINDING,
        }
        assert cold["s02"]["trace"]["phase2"]["representation"] == "formal_language"
        s09, s11 = cold["s09"]["trace"]["phase2"], cold["s11"]["trace"]["phase2"]
        assert (s09["question_type"], s09["source"]) == ("algebra", "inferred")
        assert (s11["question_type"], s11["source"]) == (None, "inferred")
        assert s11["representation"] == "caption"
        assert cache_reasons(cache) == {"stop": 31, "length": 4}

        asked = []
        original = ScriptedBackend.complete
        monkeypatch.setattr(
            ScriptedBackend, "complete",
            lambda self, request: asked.append(request) or original(self, request),
        )
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["output_dir"] = str(tmp_path / "warm")
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert asked == []
        for det in cold.values():
            for record in det["trace"]["backend_calls"]:
                record["from_cache"] = True
        assert self.by_id(tmp_path / "warm") == cold


class TestDatasetErrors:
    def test_missing_dataset_file(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out", dataset=str(tmp_path / "no.jsonl"))
        assert main(["run", "--config", str(config)]) == EXIT_DATASET

    def test_schema_error_in_dataset(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        lines = read_lines(DATASET)
        lines[0] = json.dumps(corrupt(json.loads(lines[0]), gt_error_step=0))
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(tmp_path, tmp_path / "out", dataset=str(bad))
        assert main(["run", "--config", str(config)]) == EXIT_DATASET

    def test_empty_dataset_for_run(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        config = write_config(tmp_path, tmp_path / "out", dataset=str(empty))
        assert main(["run", "--config", str(config)]) == EXIT_DATASET


class TestUndecodableDataset:
    """A dataset that is not UTF-8 is a finding naming its line, never a traceback."""

    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(b"\xff\xfe" + DATASET.read_bytes())
        return path

    def test_validate_prints_the_finding_and_exits_one(self, dataset):
        proc = run_python("-m", "mathagent.cli", "validate", str(dataset))
        assert proc.returncode == EXIT_FINDINGS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("line 1: field '': not valid UTF-8 (byte 0xff)\n")

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_detecting_command_exits_three(self, tmp_path, dataset, command):
        config = write_config(tmp_path, tmp_path / "out", dataset=str(dataset))
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_DATASET, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"ERROR dataset: dataset {dataset}: line 1: field '': not valid UTF-8 (byte 0xff)"
        ]
        assert not (tmp_path / "out").exists()

    def test_report_exits_three(self, tmp_path, dataset):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, out_dir))]) == EXIT_OK
        detections = str(out_dir / "detections.jsonl")
        proc = run_python("-m", "mathagent.cli", "report", detections, str(dataset))
        assert proc.returncode == EXIT_DATASET, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "line 1: field '': not valid UTF-8" in proc.stderr


class TestRouterConfig:
    def test_default_router_renames_phase2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        backend = {"kind": "scripted", "script_path": str(SCRIPTS), "model_id": "scripted-12"}
        vision = dict(backend, model_id="vision-variant")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({
                "dataset": str(DATASET),
                "backends": {
                    "phase1": backend, "phase2": backend,
                    "phase3": backend, "vision": vision,
                },
                "router": {"default": "vision"},
                "output_dir": str(out_dir),
            }),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        # phase totals unchanged; the work just moved to the vision backend
        assert meta["call_counts"] == {
            "phase1": 10, "phase2.type": 2, "phase2": 6, "phase3": 14,
        }


class TestPromptDir:
    def test_edited_prompt_reaches_the_request(self, tmp_path, capsys, monkeypatch):
        prompt_dir = tmp_path / "prompts"
        shutil.copytree(PACKAGED_PROMPTS, prompt_dir)
        analyzer = prompt_dir / "phase3_analyzer.prompt"
        analyzer.write_text(
            "EDITED ANALYZER PROMPT\n" + analyzer.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        seen = []
        original = ScriptedBackend.complete
        monkeypatch.setattr(
            ScriptedBackend,
            "complete",
            lambda self, request: seen.append(request) or original(self, request),
        )
        config = write_config(tmp_path, tmp_path / "out", prompt_dir="prompts")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        phase3 = [r for r in seen if r.phase == "phase3"]
        assert len(phase3) == 14
        assert all(r.segments[0].text.startswith("EDITED ANALYZER PROMPT\n") for r in phase3)
        assert not any("EDITED" in r.segments[0].text for r in seen if r.phase != "phase3")


class TestComputedOnce:
    def test_warm_replay_fingerprints_each_request_once(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir, cache_path=str(tmp_path / "cache.jsonl"))
        assert main(["run", "--config", str(config)]) == EXIT_OK
        fingerprinted = []
        original = backends.request_fingerprint
        monkeypatch.setattr(
            backends,
            "request_fingerprint",
            lambda request: fingerprinted.append(request) or original(request),
        )
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        calls = sum(meta["call_counts"].values())
        assert calls == 32
        assert len(fingerprinted) == calls
        detections = [json.loads(line) for line in read_lines(out_dir / "detections.jsonl")]
        assert all(
            record["from_cache"]
            for det in detections
            for record in det["trace"]["backend_calls"]
        )

    def test_prompt_assets_read_once_per_setup(self, tmp_path, capsys, monkeypatch):
        reads = []
        original = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            if path.suffix == ".prompt":
                reads.append(path.name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        config = write_config(tmp_path, tmp_path / "out")
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        # ablate builds one setup per mode
        assert Counter(reads) == {name: 4 for name in prompts.PROMPT_FILES.values()}

    def test_uncached_ablate_asks_once_per_distinct_request(self, tmp_path, capsys, monkeypatch):
        asked = []
        original = ScriptedBackend.complete
        monkeypatch.setattr(
            ScriptedBackend,
            "complete",
            lambda self, request: asked.append(request.fingerprint) or original(self, request),
        )
        out_dir = tmp_path / "out"
        assert main(["ablate", "--config", str(write_config(tmp_path, out_dir))]) == EXIT_OK
        capsys.readouterr()
        records = [
            record
            for path in sorted(out_dir.glob("detections_*.jsonl"))
            for line in read_lines(path)
            for record in json.loads(line)["trace"]["backend_calls"]
        ]
        distinct = {record["fingerprint"] for record in records}
        assert len(asked) == len(distinct) < len(records)
        assert sum(not record["from_cache"] for record in records) == len(distinct)

    def test_uncached_ablate_fingerprints_each_step_once(self, tmp_path, capsys, monkeypatch):
        fingerprinted = []
        original = backends.request_fingerprint
        monkeypatch.setattr(
            backends,
            "request_fingerprint",
            lambda request: fingerprinted.append(request) or original(request),
        )
        out_dir = tmp_path / "out"
        assert main(["ablate", "--config", str(write_config(tmp_path, out_dir))]) == EXIT_OK
        capsys.readouterr()
        # 120 calls over the four modes, 60 of them repeats; a step a later mode
        # reuses builds no request, so only 67 requests are built
        assert len(fingerprinted) == 67
        records = [
            record
            for path in sorted(out_dir.glob("detections_*.jsonl"))
            for line in read_lines(path)
            for record in json.loads(line)["trace"]["backend_calls"]
        ]
        assert Counter(record["from_cache"] for record in records) == {True: 60, False: 60}
        assert (out_dir / "ablation.csv").read_text(encoding="utf-8") == (
            "mode,step,vis,cal,reas,know,mis,overall,average,"
            "calls_phase1,calls_phase2_type,calls_phase2,calls_phase3\n"
            "full,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,10,2,6,14\n"
            "no_validator,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,0,2,10,14\n"
            "no_interpreter,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,10,0,6,14\n"
            "no_analyzer,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,10,2,6,14\n"
        )

    def test_warm_ablate_parses_the_cache_once(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        config = write_config(tmp_path, tmp_path / "out", cache_path=str(cache))
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        reads = []
        original = Path.read_bytes
        monkeypatch.setattr(
            Path, "read_bytes", lambda path: reads.append(path) or original(path)
        )
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert reads.count(cache) == 1


class TestCacheHandle:
    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_one_append_handle_closed_when_the_command_ends(
        self, tmp_path, capsys, monkeypatch, command
    ):
        handles = track_appends(monkeypatch)
        cache = tmp_path / "cache.jsonl"
        config = write_config(tmp_path, tmp_path / "out", cache_path=str(cache))
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert len(handles) == 1
        assert handles[0].closed
        assert len(read_lines(cache)) == (32 if command == "run" else 60)


MODES = ("full", "no_validator", "no_interpreter", "no_analyzer")


def detection_files(command: str, out_dir: Path) -> list[Path]:
    if command == "run":
        return [out_dir / "detections.jsonl"]
    return [out_dir / f"detections_{mode}.jsonl" for mode in MODES]


class TestStreamedDetections:
    """Detections reach their files in sample order, one flushed line per sample."""

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("k", [0, 5])
    def test_a_crash_at_sample_k_leaves_the_first_k_lines(
        self, tmp_path, capsys, monkeypatch, command, k
    ):
        whole = tmp_path / "whole"
        assert main([command, "--config", str(write_config(tmp_path, whole))]) == EXIT_OK
        crashing = load_dataset(DATASET)[k].id
        out_dir = tmp_path / "cut"
        files = detection_files(command, out_dir)
        on_disk = []
        original = ScriptedBackend.complete

        def complete(self, request):
            if request.sample_id == crashing:
                on_disk.append([len(read_lines(path)) for path in files])
                raise RuntimeError("bug in a backend")
            return original(self, request)

        monkeypatch.setattr(ScriptedBackend, "complete", complete)
        with pytest.raises(RuntimeError, match="bug in a backend"):
            main([command, "--config", str(write_config(tmp_path, out_dir))])
        capsys.readouterr()
        # every earlier sample was on disk before the crashing one asked a backend
        assert on_disk == [[k] * len(files)]
        for path, whole_path in zip(files, detection_files(command, whole)):
            assert read_lines(path) == read_lines(whole_path)[:k], path.name

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_slow_first_sample_streams_the_sequential_bytes(
        self, tmp_path, capsys, monkeypatch, command
    ):
        sequential = tmp_path / "sequential"
        config = write_config(tmp_path, sequential, workers=1)
        assert main([command, "--config", str(config)]) == EXIT_OK
        first = load_dataset(DATASET)[0].id
        out_dir = tmp_path / "pooled"
        files = detection_files(command, out_dir)
        others = (len(load_dataset(DATASET)) - 1) * (1 if command == "run" else len(MODES))
        finished, others_done, held = [], threading.Event(), []
        real = pipeline.detect_errors

        def slow_first(sample, mode, setup, *steps):
            if sample.id == first and not held:
                assert others_done.wait(timeout=10)
                # every other sample is done, yet none may pass the first one
                held.append([len(read_lines(path)) for path in files])
            det = real(sample, mode, setup, *steps)
            if sample.id != first:
                finished.append(sample.id)
                if len(finished) == others:
                    others_done.set()
            return det

        monkeypatch.setattr(pipeline, "detect_errors", slow_first)
        config = write_config(tmp_path, out_dir, workers=3)
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert held == [[0] * len(files)]
        for path, sequential_path in zip(files, detection_files(command, sequential)):
            assert path.read_bytes() == sequential_path.read_bytes(), path.name

    def test_ablate_holds_one_table_per_busy_worker(self, tmp_path, capsys, monkeypatch):
        tables, peak = [], [0]

        def alive() -> int:
            return sum(table() is not None for table in tables)

        class Counted(pipeline.SharedSteps):
            def __init__(self):
                super().__init__()
                tables.append(weakref.ref(self))
                peak[0] = max(peak[0], alive())

        monkeypatch.setattr(pipeline, "SharedSteps", Counted)
        config = write_config(tmp_path, tmp_path / "out", workers=3)
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert len(tables) == 12  # one table per sample, for all four modes
        assert 1 <= peak[0] <= 3
        assert alive() == 0


class FakeEndpoint:
    """A chat-completions endpoint behind HttpBackend's transport hook; counts calls in flight."""

    REPLY = json.dumps({
        "choices": [{
            "message": {"content": "Error Step: #2\nError Category: Reasoning Error"},
            "finish_reason": "stop",
        }],
    })

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = self.max_in_flight = self.calls = 0

    def __call__(self, url, headers, body, timeout_s):
        with self.lock:
            self.in_flight += 1
            self.calls += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.002)  # long enough for another worker's call to overlap
        with self.lock:
            self.in_flight -= 1
        return 200, self.REPLY


class TestEndpointGate:
    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_one_call_in_flight_per_base_url(self, tmp_path, capsys, monkeypatch, command):
        endpoint = FakeEndpoint()
        monkeypatch.setattr(cli, "HttpBackend", functools.partial(cli.HttpBackend, transport=endpoint))
        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        spec = {"kind": "http", "base_url": "http://localhost:9/v1", "rate_limit": 1}
        config = write_config(
            tmp_path,
            tmp_path / "out",
            workers=4,
            # the smallest rate_limit on a base_url sizes its gate, trailing slash or not
            backends={
                "phase1": spec,
                "phase2": {**spec, "base_url": "http://localhost:9/v1/", "rate_limit": 4},
                "phase3": {**spec, "rate_limit": 2},
            },
        )
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert endpoint.calls > 12
        assert endpoint.max_in_flight == 1


class TestCachePath:
    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_missing_cache_directory_is_a_config_error(self, tmp_path, command):
        config = write_config(
            tmp_path, tmp_path / "out", cache_path=str(tmp_path / "missing" / "cache.jsonl")
        )
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "missing" in proc.stderr
        assert not (tmp_path / "out").exists()  # stopped before any sample ran
        assert not (tmp_path / "missing").exists()


class TestReplayCacheDamage:
    """Each case runs `run`, and `ablate`, which opens the cache itself."""

    @pytest.fixture()
    def cached_run(self, tmp_path, capsys, command):
        cache = tmp_path / "cache.jsonl"
        config = write_config(tmp_path, tmp_path / "out", cache_path=str(cache))
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        return config, cache

    @pytest.mark.parametrize(
        "command, cut",
        [("run", 40), ("run", 1), ("ablate", 40), ("ablate", 1)],
        ids=["mid-record", "newline-only", "ablate-mid-record", "ablate-newline-only"],
    )
    def test_torn_final_line_is_dropped_and_fetched_again(self, cached_run, tmp_path, command, cut):
        config, cache = cached_run
        intact = cache.read_bytes().splitlines(keepends=True)
        report_name = "report.csv" if command == "run" else "ablation.csv"
        report = (tmp_path / "out" / report_name).read_bytes()
        cache.write_bytes(b"".join(intact)[:-cut])
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"dropping torn final line {len(intact)}" in proc.stderr
        # the dropped record was fetched again and appended on a line of its own
        lines = cache.read_bytes().splitlines(keepends=True)
        assert lines[:-1] == intact[:-1]
        assert json.loads(lines[-1])["fingerprint"] == json.loads(intact[-1])["fingerprint"]
        assert lines[-1].endswith(b"\n")
        assert (tmp_path / "out" / report_name).read_bytes() == report

    @pytest.mark.parametrize(
        "command, index",
        [("run", 2), ("run", -1), ("ablate", 2), ("ablate", -1)],
        ids=["middle", "last-complete", "ablate-middle", "ablate-last-complete"],
    )
    def test_other_corrupt_lines_are_config_errors(self, cached_run, command, index):
        config, cache = cached_run
        lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[index] = "{broken\n"
        cache.write_text("".join(lines), encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert f"line {len(lines) if index == -1 else index + 1}" in proc.stderr

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("key", ["response_text", "fingerprint"])
    def test_non_string_values_are_config_errors(self, cached_run, command, key):
        config, cache = cached_run
        lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), key: 5}) + "\n"
        cache.write_text("".join(lines), encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{cache} line 2" in proc.stderr


class TestScripts:
    def test_run_demo(self):
        proc = run_python(str(REPO / "scripts" / "run_demo.py"))
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert "| scripted-12 | 75.00 | 50.00 |" in out
        grid = out.split("ablation grid:\n")[1].splitlines()
        assert grid[0].startswith("mode,step,")
        assert [line.split(",")[0] for line in grid[1:]] == [
            "full", "no_validator", "no_interpreter", "no_analyzer",
        ]


    def test_make_fixtures(self, tmp_path):
        out = tmp_path / "nested" / "synthetic.jsonl"
        proc = run_python(str(REPO / "scripts" / "make_fixtures.py"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert f"wrote 2500 samples to {out}" in proc.stdout
        assert len(load_dataset(out)) == 2500


class TestReadme:
    def test_python_api_blocks_run(self, tmp_path):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Python API\n")[1].split("\n## ")[0]
        blocks = [block.split("```")[0] for block in section.split("```python\n")[1:]]
        assert len(blocks) == 2
        shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
        (tmp_path / "api.py").write_text("\n".join(blocks), encoding="utf-8")
        proc = run_python("api.py", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "| demo |" in proc.stdout
        # one line per distinct request of the cold run; the warm run added none
        assert len((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 32
