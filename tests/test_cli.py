"""Command-line behaviour: run, ablate, validate, report, exit codes."""

import base64
import errno
import functools
import json
import re
import shutil
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FIXTURES, REPO, Fault, FaultyEndpoint, run_python, track_appends
from mathagent import (
    CSV_HEADER,
    QuestionType,
    ScriptedBackend,
    backends,
    cli,
    data_model,
    load_dataset,
    metrics,
    pipeline,
    prompts,
)
from mathagent.cli import (
    EXIT_CONFIG,
    EXIT_DATASET,
    EXIT_FINDINGS,
    EXIT_INTERRUPTED,
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


DELETED = "<deleted>"  # a field edit that removes the key


def warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def count_file_reads(monkeypatch) -> list[Path]:
    """Every path read through Path.read_text or Path.read_bytes from here on, in order."""
    reads = []
    for name in ("read_text", "read_bytes"):
        original = getattr(Path, name)

        def counting_read(path, *args, _original=original, **kwargs):
            reads.append(path)
            return _original(path, *args, **kwargs)

        monkeypatch.setattr(Path, name, counting_read)
    return reads


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

    def test_seed_key_is_ignored(self, tmp_path, capsys, caplog):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir, seed="not even an integer")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert warnings(caplog) == ["config: unknown key 'seed' ignored"]
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert "seed" not in meta

    def test_unknown_keys_are_named_in_warnings(self, tmp_path, capsys, caplog):
        backend = {
            "kind": "scripted", "script_path": str(SCRIPTS), "model_id": "scripted-12",
            "max_token": 64,
        }
        config = write_config(
            tmp_path, tmp_path / "out", cache_pth=str(tmp_path / "cache.jsonl"), worker=3,
            backends={"phase1": backend, "phase2": backend, "phase3": backend},
        )
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert warnings(caplog) == [
            "config: unknown key 'cache_pth' ignored",
            "config: unknown key 'worker' ignored",
            "config: unknown key 'backends.phase1.max_token' ignored",
            "config: unknown key 'backends.phase2.max_token' ignored",
            "config: unknown key 'backends.phase3.max_token' ignored",
        ]
        assert not (tmp_path / "cache.jsonl").exists()  # a misspelt key still does nothing

    @pytest.mark.parametrize(
        "spec, unknown",
        [
            (
                {"kind": "http", "base_url": "http://127.0.0.1:9", "model_id": "m",
                 "rate_limits": 2, "retry": {"max_attempt": 2, "backoff_base_ms": 5}},
                ["rate_limits", "retry.max_attempt"],
            ),
            ({"kind": "scripted", "phases": {}, "by_fingerprint": {}, "default_reply": "x"}, []),
            ({"kind": "scripted", "script_path": str(SCRIPTS), "phases": {}}, ["phases"]),
        ],
        ids=["http", "inline-script", "script-file"],
    )
    def test_spec_keys_are_checked_against_their_kind(self, tmp_path, caplog, spec, unknown):
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS)}
        backends = {"phase1": spec, "phase2": scripted, "phase3": scripted}
        cli.load_config(write_config(tmp_path, tmp_path / "out", backends=backends))
        assert warnings(caplog) == [
            f"config: unknown key 'backends.phase1.{key}' ignored" for key in unknown
        ]

    def test_an_http_spec_without_knobs_takes_the_backend_defaults(self, tmp_path):
        spec = {"kind": "http", "base_url": "http://localhost:9/", "model_id": "m"}
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS)}
        specs = {"phase1": spec, "phase2": scripted, "phase3": scripted}
        config = cli.load_config(write_config(tmp_path, tmp_path / "out", backends=specs))
        backend = config.setup.phase1.backend
        assert backend.base_url == "http://localhost:9"
        assert backend.api_key_env == "MATHAGENT_API_KEY"
        assert backend.retry == backends.RetryPolicy(max_attempts=3, backoff_base_ms=250)
        assert backend.timeout_s == 60.0
        assert config.workers == 4 + 1  # the rate_limit of the one base_url, and a spare

    def test_the_test_config_warns_of_nothing_and_the_benchmark_config_of_workers(
        self, tmp_path, caplog, monkeypatch
    ):
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        import workload

        cli.load_config(write_config(tmp_path, tmp_path / "out"))
        assert warnings(caplog) == []
        # the benchmark still sets the retired key; its rate_limit gives the count
        config = cli.load_config(workload.write_config(tmp_path, cache=True))
        assert warnings(caplog) == ["config: unknown key 'workers' ignored"]
        assert config.workers == workload.RATE_LIMIT + 1

    def test_a_workers_key_is_unknown_and_the_run_goes_on(self, tmp_path, capsys, caplog):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir, workers=3)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert warnings(caplog) == ["config: unknown key 'workers' ignored"]
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["workers"] == 1  # a scripted-only run takes the calling thread alone
        assert (out_dir / "detections.jsonl").read_bytes() == (
            FIXTURES / "golden_detections_full.jsonl"
        ).read_bytes()

    def test_mode_from_config(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir, mode="no_validator")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["call_counts"] == {"phase2.type": 2, "phase2": 10, "phase3": 14}

    def test_a_step_number_too_long_for_int_is_unparsed(self, tmp_path):
        # int() refuses more than 4,300 digits; the reply is unparsed, not a crash
        reply = "Error Step: #" + "9" * 5000 + "\nError Category: Calculation"
        analyzer = {"kind": "scripted", "phases": {}, "by_fingerprint": {}, "default_reply": reply}
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS)}
        config = write_config(
            tmp_path, tmp_path / "out",
            backends={"phase1": scripted, "phase2": scripted, "phase3": analyzer},
        )
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = [json.loads(line) for line in read_lines(tmp_path / "out" / "detections.jsonl")]
        assert len(lines) == 12
        for line in lines:
            assert line["failure"] is None
            assert line["predicted_step"] is None
            assert sum(c["phase"] == "phase3" for c in line["trace"]["backend_calls"]) == 2

    def test_a_key_no_header_can_carry_fails_each_sample_without_a_traceback(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("MATHAGENT_API_KEY", "sk-abc\u2026")
        http = {"kind": "http", "base_url": "http://127.0.0.1:9", "model_id": "m"}
        config = write_config(
            tmp_path, tmp_path / "out", backends={"phase1": http, "phase2": http, "phase3": http}
        )
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        # an AuthError is a fault of the run: the setup finds this key before any sample runs
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "ERROR auth: environment variable MATHAGENT_API_KEY is not printable ASCII",
        ]
        assert "sk-abc" not in proc.stderr
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("rate_limit", [1, 3])
    @pytest.mark.parametrize("ablate_cache", [False, True], ids=["uncached", "cached"])
    def test_each_mode_matches_a_run_in_that_mode(
        self, tmp_path, capsys, monkeypatch, rate_limit, ablate_cache
    ):
        """Modes reuse each other's phase results; a run of each mode, in order, does not.

        Over HTTP, so that rate_limit sets the workers; one endpoint serves the
        runs, as one serves the modes of `ablate`.
        """
        serve(FaultyEndpoint(), monkeypatch)
        runs = tmp_path / "runs"
        for mode in MODES:
            config = http_config(
                runs / mode, rate_limit, mode=mode, cache_path=str(runs / "cache.jsonl")
            )
            assert main(["run", "--config", str(config)]) == EXIT_OK
        serve(FaultyEndpoint(), monkeypatch)
        extra = {"cache_path": str(tmp_path / "cache.jsonl")} if ablate_cache else {}
        config = http_config(tmp_path / "ablate", rate_limit, **extra)
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        for mode in MODES:
            assert (tmp_path / "ablate" / "out" / f"detections_{mode}.jsonl").read_bytes() == (
                runs / mode / "out" / "detections.jsonl"
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

    def test_each_ablate_mode_reports_as_a_run_in_that_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "ablate")
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        for mode in MODES:
            run_dir = tmp_path / mode
            run_config = write_config(tmp_path, run_dir, mode=mode)
            assert main(["run", "--config", str(run_config)]) == EXIT_OK
            reported = tmp_path / f"reported_{mode}"
            assert main([
                "report", str(tmp_path / "ablate" / f"detections_{mode}.jsonl"), str(DATASET),
                "--model", "scripted-12", "--out-dir", str(reported),
            ]) == EXIT_OK
            for name in ("report.csv", "report.md"):
                assert (reported / name).read_bytes() == (run_dir / name).read_bytes(), mode
        capsys.readouterr()

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

    def test_failed_samples_get_a_line_under_the_table(
        self, run_dir, tmp_path, capsys, monkeypatch
    ):
        every_first_ask = {
            (phase, sample.id, 0): Fault(404)
            for phase in ("phase1", "phase2.type", "phase2", "phase3")
            for sample in load_dataset(DATASET)
        }
        serve(FaultyEndpoint(every_first_ask), monkeypatch)
        assert main(["run", "--config", str(http_config(tmp_path / "failed"))]) == EXIT_OK
        failed = tmp_path / "failed" / "out"
        note = "12 of 12 samples failed; a failed sample is scored as wrong"
        table = (run_dir / "report.md").read_text(encoding="utf-8")
        assert "failed" not in table
        assert (failed / "report.md").read_text(encoding="utf-8").endswith(f" |\n\n{note}\n")
        assert (failed / "report.csv").read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER
        detections = str(failed / "detections.jsonl")
        reported = tmp_path / "reported"
        assert main(["report", detections, str(DATASET), "--out-dir", str(reported)]) == EXIT_OK
        assert (reported / "report.md").read_bytes() == (failed / "report.md").read_bytes()
        clean = str(run_dir / "detections.jsonl")
        for ours, theirs, named in ((detections, clean, "m"), (clean, detections, "m (baseline)")):
            out_dir = tmp_path / named
            assert main([
                "report", ours, str(DATASET), "--baseline", theirs, "--model", "m",
                "--out-dir", str(out_dir),
            ]) == EXIT_OK
            lines = (out_dir / "report.md").read_text(encoding="utf-8").splitlines()
            assert lines[-3].startswith("| ") and lines[-2:] == ["", f"{named}: {note}"]
        capsys.readouterr()

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

    @pytest.mark.parametrize("which", ["detections", "baseline"])
    def test_a_detections_file_that_is_not_utf8_exits_one(self, run_dir, tmp_path, which):
        detections = run_dir / "detections.jsonl"
        undecodable = tmp_path / "undecodable.jsonl"
        undecodable.write_bytes(b"\xff\xfe" + detections.read_bytes())
        argv = ["report", str(undecodable), str(DATASET)]
        if which == "baseline":
            argv = ["report", str(detections), str(DATASET), "--baseline", str(undecodable)]
        proc = run_python("-m", "mathagent.cli", *argv)
        assert proc.returncode == EXIT_FINDINGS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"bad detection line 1 in {undecodable}" in proc.stderr
        assert "not valid UTF-8 (byte 0xff)" in proc.stderr  # the cache's and dataset's wording

    def test_misaligned_detections_exit_one(self, run_dir, tmp_path):
        detections = (run_dir / "detections.jsonl").read_text(encoding="utf-8")
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(detections.splitlines()[:5]) + "\n", encoding="utf-8")
        assert main(["report", str(partial), str(DATASET)]) == EXIT_FINDINGS

    @pytest.mark.parametrize(
        "field, value",
        [
            ("predicted_step", "2"),
            ("predicted_step", True),
            ("predicted_step", [1]),
            ("predicted_step", 2.0),
            ("predicted_step", 0),
            ("predicted_category", ""),
            ("predicted_category", 0),
            ("predicted_category", "vis"),
            ("mode", "bogus"),
            ("mode", None),
            ("failure", 5),
            ("sample_id", 1),
            ("predicted_category", None),  # step 2 kept, so only one of the pair is set
            ("mode", DELETED),
        ],
        ids=lambda v: v if v in pipeline.DetectionRecord._fields else json.dumps(v),
    )
    def test_a_value_run_never_writes_exits_one_naming_the_field(
        self, run_dir, tmp_path, field, value
    ):
        lines = read_lines(run_dir / "detections.jsonl")
        first = json.loads(lines[0])
        assert (first["sample_id"], first["predicted_step"]) == ("s01", 2)
        if value is DELETED:
            del first[field]
        else:
            first[field] = value
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", "report", str(edited), str(DATASET))
        assert proc.returncode == EXIT_FINDINGS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"bad detection line 1 in {edited}: field {field!r}" in proc.stderr
        assert proc.stdout == ""


def assert_load_config_raises(config: Path) -> None:
    """load_config alone rejects config: no later step of a command is needed."""
    with pytest.raises(cli.ConfigError):
        cli.load_config(config)


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        config = tmp_path / "none.json"
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        assert_load_config_raises(path)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_mode(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out", mode="half")
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_missing_phase_backend(self, tmp_path):
        backend = {"kind": "scripted", "script_path": str(SCRIPTS)}
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        del raw["backends"]["phase3"]
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_unknown_backend_kind(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase1"] = {"kind": "telepathy"}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_router_key_must_be_a_question_type(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out", router={"geometry": "phase2"})
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_router_target_must_exist(self, tmp_path):
        config = write_config(
            tmp_path, tmp_path / "out", router={"plane_geometry": "phase9"}
        )
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_missing_script_file(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase2"] = {"kind": "scripted", "script_path": "absent.json"}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_missing_prompt_asset(self, tmp_path, caplog, command):
        prompt_dir = tmp_path / "prompts"
        shutil.copytree(PACKAGED_PROMPTS, prompt_dir)
        (prompt_dir / "phase2_latex.prompt").unlink()
        config = write_config(tmp_path, tmp_path / "out", prompt_dir="prompts")
        assert_load_config_raises(config)
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
            ("phase1", {"kind": "http", "base_url": "http://localhost:9", "rate_limit": True}),
            ("router", {"diagram": [1]}),
        ],
        ids=[
            "prompt_dir", "cache_path", "output_dir", "rate_limit", "retry", "phases",
            "rate_limit-bool", "router-target",
        ],
    )
    def test_wrong_typed_value(self, tmp_path, key, value):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        (raw["backends"] if key.startswith("phase") else raw)[key] = value
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert_load_config_raises(config)
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("backoff_base_ms", -5),
            ("backoff_base_ms", 10**13),  # past the wait cap; time.sleep overflowed on it
            ("backoff_base_ms", int("9" * 322)),  # past a float
            ("max_attempts", 0),
            ("rate_limit", 0),
            ("rate_limit", -1),  # a Semaphore of it would raise before HttpBackend names it
            ("rate_limit", 10**6),  # as many worker threads; rejected before any starts
            ("timeout_s", 0),
            ("timeout_s", -1.5),
            ("timeout_s", 1e10),  # past threading.TIMEOUT_MAX: the socket timeout overflows
            ("timeout_s", float("inf")),  # written as JSON's Infinity, which the reader takes
        ],
        ids=[
            "backoff_base_ms", "backoff_base_ms-huge", "backoff_base_ms-past-float",
            "max_attempts", "rate_limit", "rate_limit-negative", "rate_limit-huge",
            "timeout_s-zero", "timeout_s-negative", "timeout_s-huge", "timeout_s-infinity",
        ],
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
        assert_load_config_raises(config)
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
        assert_load_config_raises(config)
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert repr(knob) in proc.stderr
        assert not (tmp_path / "out").exists()  # stopped before any sample ran

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([1], "backend spec must be an object"),
            ({"kind": "nope"}, "unknown backend kind 'nope'"),
            ({"kind": "http"}, "http backend needs 'base_url'"),
            ({"kind": "http", "base_url": "http://localhost:9", "rate_limit": "x"},
             "'rate_limit' must be an integer, not str"),
            ({"kind": "http", "base_url": "http://localhost:9", "timeout_s": 0},
             "'timeout_s' 0 is not in (0, "),
            ({"kind": "http", "base_url": "http://localhost:9", "retry": {"max_attempts": 0}},
             "'max_attempts' 0 "),
            ({"kind": "scripted", "script_path": 5}, "'script_path' must be a path string, not int"),
            ({"kind": "scripted", "default_reply": "ok", "temperature": 2},
             "'temperature' 2 is outside [0, 1]"),
        ],
        ids=["not-object", "kind", "base_url", "rate_limit", "timeout_s", "retry", "script_path",
             "temperature"],
    )
    def test_a_spec_error_names_the_spec_once(self, tmp_path, caplog, spec, message):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase2"] = spec
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith(f"config: backends.phase2: {message}")
        assert error.count("phase2") == 1

    @pytest.mark.parametrize(
        "name, router",
        [("phase1", {}), ("phase3", {}), ("spare", {"diagram": "spare"}),
         ("spare", {"default": "spare"})],
        ids=["phase1", "phase3", "routed", "default-route"],
    )
    def test_a_used_http_spec_must_name_its_model(self, tmp_path, caplog, name, router):
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS)}
        specs = {"phase1": scripted, "phase2": scripted, "phase3": scripted}
        specs[name] = {"kind": "http", "base_url": "http://localhost:9"}
        config = write_config(tmp_path, tmp_path / "out", backends=specs, router=router)
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"config: backends.{name}: http backend needs 'model_id'"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "router, named",
        [({"diagram": "spare"}, "phase3"), ({"default": "spare"}, "spare")],
        ids=["route-after-phase3", "default-route-before-phase3"],
    )
    def test_the_first_used_spec_without_a_model_is_named(self, tmp_path, caplog, router, named):
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS)}
        http = {"kind": "http", "base_url": "http://localhost:9"}
        specs = {"spare": http, "phase1": scripted, "phase2": scripted, "phase3": http}
        config = write_config(tmp_path, tmp_path / "out", backends=specs, router=router)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"config: backends.{named}: http backend needs 'model_id'"
        ]

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
        assert_load_config_raises(config)
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"ERROR config: {tmp_path / 'script.json'}: " in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_a_bad_inline_script_names_its_spec(self, tmp_path, caplog):
        config = write_config(tmp_path, tmp_path / "out")
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["backends"]["phase1"] = {"kind": "scripted", "phases": {"phase1": {"s01": 5}}}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert_load_config_raises(config)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith("config: backends.phase1: script 'phases.phase1.s01': 5 is not")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["config", "script"])
    def test_a_file_that_is_not_utf8_exits_two(self, tmp_path, which):
        config = write_config(tmp_path, tmp_path / "out")
        undecodable = config
        if which == "script":
            undecodable = tmp_path / "script.json"
            undecodable.write_bytes(SCRIPTS.read_bytes())
            raw = json.loads(config.read_text(encoding="utf-8"))
            raw["backends"]["phase1"] = {"kind": "scripted", "script_path": "script.json"}
            config.write_text(json.dumps(raw), encoding="utf-8")
        undecodable.write_bytes(b"\xff\xfe" + undecodable.read_bytes())
        assert_load_config_raises(config)
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(undecodable) in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize("which", ["config", "script"])
    def test_a_lone_surrogate_exits_two_naming_the_file(self, tmp_path, which, cache):
        cache_path = {"cache_path": str(tmp_path / "cache.jsonl")} if cache else {}
        config = write_config(tmp_path, tmp_path / "out", **cache_path)
        raw = json.loads(config.read_text(encoding="utf-8"))
        bad = config
        if which == "config":  # json.dumps writes the surrogate as a \ud83d escape
            raw["backends"]["phase1"] = {**raw["backends"]["phase1"], "system_prompt": "\ud83d"}
        else:
            bad = tmp_path / "script.json"
            script = json.loads(SCRIPTS.read_text(encoding="utf-8"))
            script["phases"]["phase3"]["s01"] = "Error Step: #2\ud83d"
            bad.write_text(json.dumps(script), encoding="utf-8")
            raw["backends"]["phase3"] = {"kind": "scripted", "script_path": "script.json"}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert "\\ud83d" in bad.read_text(encoding="utf-8")
        assert_load_config_raises(config)
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"ERROR config: {which} {bad}: lone surrogate \\ud83d, which UTF-8 cannot encode"
        ]
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache.jsonl").exists()

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

    def test_unknown_prompt_placeholder_names_the_asset(self, tmp_path):
        prompt_dir = tmp_path / "prompts"
        shutil.copytree(PACKAGED_PROMPTS, prompt_dir)
        asset = prompt_dir / "phase1_consistency.prompt"
        template = asset.read_text(encoding="utf-8").replace("{{question_text}}", "{{question_txt}}")
        asset.write_text(template, encoding="utf-8")
        config = write_config(tmp_path, tmp_path / "out", prompt_dir="prompts")
        assert_load_config_raises(config)
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.splitlines() == [
            f"ERROR config: prompt asset {asset}: unknown placeholder {{{{question_txt}}}}"
        ]
        assert not (tmp_path / "out").exists()


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


# the note a phase records for a cut reply, by finish reason; an endpoint's
# content_filter, tool_calls, null or vendor reason all read as error
CUT_NOTES = {
    "length": "truncated: the reply stopped at the max_tokens limit",
    "error": "cut: the reply ended with finish reason error",
}


@pytest.mark.parametrize("reason", ["length", "error"])
class TestTruncation:
    """A cut reply, scripted with a reply object, through `mathagent run`.

    A reply is whole only on finish reason stop: an error reply is cut as a
    length one is, and only the note differs.
    """

    @staticmethod
    def truncated_script(reason: str) -> dict:
        script = json.loads(SCRIPTS.read_text(encoding="utf-8"))
        phase2, phase3 = script["phases"]["phase2"], script["phases"]["phase3"]
        # s05: a caption cut short still reaches the analyzer, flagged
        phase2["s05"] = {"text": "A cylinder of radius 3 and", "finish_reason": reason}
        # s01: a cut analyzer reply that parses earns the re-ask, which answers whole
        phase3["s01"] = [{"text": phase3["s01"], "finish_reason": reason}, phase3["s01"]]
        # s02: the re-ask is cut too, so the sample is a miss
        phase3["s02"] = [{"text": phase3["s02"], "finish_reason": reason}] * 2
        return script

    @staticmethod
    def by_id(out_dir: Path) -> dict:
        lines = read_lines(out_dir / "detections.jsonl")
        return {det["sample_id"]: det for det in map(json.loads, lines)}

    def test_truncated_replies_end_to_end(self, tmp_path, capsys, monkeypatch, reason):
        script = self.truncated_script(reason)
        (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
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

        assert cold["s05"]["trace"]["phase2"]["findings"] == [CUT_NOTES[reason]]
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
        assert cache_reasons(cache) == {"stop": 30, reason: 4}

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


    def test_truncated_verdict_and_type_replies_end_to_end(
        self, tmp_path, capsys, monkeypatch, reason
    ):
        script = json.loads(SCRIPTS.read_text(encoding="utf-8"))
        phases = script["phases"]
        cut = {"text": phases["phase1"]["s02"], "finish_reason": reason}
        # s02: a cut "CONSISTENT" is not consistent, so its image is transcribed
        phases["phase1"]["s02"] = cut
        # s09: a cut type reply earns the reminder retry, which answers whole
        types = phases["phase2.type"]
        types["s09"] = [{"text": types["s09"], "finish_reason": reason}, types["s09"]]
        # s11: the retry is cut too, so the sample takes the caption route
        types["s11"] = [{"text": "This is a plane geometry", "finish_reason": reason}] * 2
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
            "consistent": False, "raw_text": "CONSISTENT", "confidence_note": CUT_NOTES[reason],
        }
        assert cold["s02"]["trace"]["phase2"]["representation"] == "formal_language"
        s09, s11 = cold["s09"]["trace"]["phase2"], cold["s11"]["trace"]["phase2"]
        assert (s09["question_type"], s09["source"]) == ("algebra", "inferred")
        assert (s11["question_type"], s11["source"]) == (None, "inferred")
        assert s11["representation"] == "caption"
        assert cache_reasons(cache) == {"stop": 31, reason: 4}

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


class TestUnreadableDatasetLine:
    """A dataset line parse_json rejects is a finding on that line, never a traceback."""

    LINES = {
        "lone-surrogate": lambda line: line.replace('_text": "', '_text": "\\udc80', 1),
        "nested-100000-deep": lambda line: "[" * 100_000 + "]" * 100_000,
        "5000-digit-integer": lambda line: re.sub(
            r'"gt_error_step": \d+', '"gt_error_step": ' + "9" * 5000, line
        ),
    }

    @pytest.fixture(params=list(LINES))
    def dataset(self, request, tmp_path):
        lines = read_lines(DATASET)
        lines[3] = self.LINES[request.param](lines[3])
        assert lines[3] != read_lines(DATASET)[3]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_validate_exits_one_with_a_finding_on_that_line(self, dataset):
        proc = run_python("-m", "mathagent.cli", "validate", str(dataset))
        assert proc.returncode == EXIT_FINDINGS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("line 4: field '': ")
        assert "total: 11" in proc.stdout

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_detecting_command_exits_three(self, tmp_path, dataset, command):
        config = write_config(tmp_path, tmp_path / "out", dataset=str(dataset))
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_DATASET, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"ERROR dataset: dataset {dataset}: line 4: field '': ")
        assert not (tmp_path / "out").exists()



class TestNulBytePaths:
    """A NUL byte in a path from outside is a config or dataset error, never a traceback."""

    @pytest.mark.parametrize("key", ["dataset", "cache_path", "output_dir", "prompt_dir"])
    def test_a_config_path_exits_two_naming_its_key(self, tmp_path, key):
        config = write_config(tmp_path, tmp_path / "out", **{key: "runs/fig\u0000.png"})
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [f"ERROR config: {key!r} holds a NUL byte"]

    def test_a_script_path_exits_two_naming_its_spec(self, tmp_path):
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS)}
        broken = dict(scripted, script_path="scripts\u0000.json")
        backends = {"phase1": scripted, "phase2": broken, "phase3": scripted}
        config = write_config(tmp_path, tmp_path / "out", backends=backends)
        proc = run_python("-m", "mathagent.cli", "run", "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "ERROR config: 'backends.phase2.script_path' holds a NUL byte"
        ]

    @pytest.fixture()
    def dataset(self, tmp_path):
        lines = read_lines(DATASET)
        sample = json.loads(lines[1])
        sample["image"] = {"kind": "file_path", "value": "fig\u0000.png"}
        lines[1] = json.dumps(sample)
        path = tmp_path / "nul.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_validate_exits_one_with_a_finding_on_the_image(self, dataset):
        proc = run_python("-m", "mathagent.cli", "validate", str(dataset))
        assert proc.returncode == EXIT_FINDINGS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith(
            "line 2: field 'image.value': a file path may not hold a NUL byte\n"
        )

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_detecting_command_exits_three(self, tmp_path, dataset, command):
        config = write_config(tmp_path, tmp_path / "out", dataset=str(dataset))
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_DATASET, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"ERROR dataset: dataset {dataset}: line 2: field 'image.value': "
            "a file path may not hold a NUL byte"
        ]
        assert not (tmp_path / "out").exists()

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

    @staticmethod
    def routed_config(tmp_path) -> cli.RunConfig:
        backend = {"kind": "scripted", "script_path": str(SCRIPTS), "model_id": "scripted-12"}
        specs = {
            "phase1": dict(backend, model_id="checker"), "phase2": backend,
            "phase3": dict(backend, model_id="analyst"),
            "vision": dict(backend, model_id="vision-variant"),
            "plane": dict(backend, model_id="plane-reader"),
        }
        router = {"default": "vision", "plane_geometry": "plane"}
        config = write_config(tmp_path, tmp_path / "out", backends=specs, router=router)
        return cli.load_config(config)

    def test_load_config_resolves_the_router_into_the_setup(self, tmp_path):
        setup = self.routed_config(tmp_path).setup
        models = [phase.settings.model_id for phase in (setup.phase1, setup.phase2, setup.phase3)]
        assert models == ["checker", "vision-variant", "analyst"]
        assert list(setup.router) == [QuestionType.PLANE_GEOMETRY]
        assert setup.router[QuestionType.PLANE_GEOMETRY].settings.model_id == "plane-reader"

    def test_build_setup_changes_only_the_cache(self, tmp_path):
        config = self.routed_config(tmp_path)
        setup = cli.build_setup(config)
        setup.cache.close()
        for field in ("phase1", "phase2", "phase3", "router", "prompts"):
            assert getattr(setup, field) is getattr(config.setup, field), field
        assert setup.cache is not config.setup.cache


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
        assert all(r.prompt.startswith("EDITED ANALYZER PROMPT\n") for r in phase3)
        assert not any("EDITED" in r.prompt for r in seen if r.phase != "phase3")

    def test_every_allowed_placeholder_is_filled_by_its_phase(
        self, tmp_path, capsys, monkeypatch
    ):
        prompt_dir = tmp_path / "prompts"
        prompt_dir.mkdir()
        for name, filename in prompts.PROMPT_FILES.items():
            allowed = sorted(prompts.PLACEHOLDERS[name])
            (prompt_dir / filename).write_text(
                " ".join(f"{{{{{key}}}}}" for key in allowed), encoding="utf-8"
            )
        rendered = set()
        original = prompts.PromptSet.render
        monkeypatch.setattr(
            prompts.PromptSet,
            "render",
            lambda self, name, values: rendered.add(name) or original(self, name, values),
        )
        config = write_config(tmp_path, tmp_path / "out", prompt_dir="prompts")
        # a placeholder its phase does not fill would raise out of render
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert rendered == set(prompts.PROMPT_FILES)

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_an_asset_that_is_not_utf8_is_a_config_error(self, tmp_path, command):
        prompt_dir = tmp_path / "prompts"
        shutil.copytree(PACKAGED_PROMPTS, prompt_dir)
        asset = prompt_dir / "phase1_consistency.prompt"
        asset.write_bytes(b"\xff\xfe" + asset.read_bytes())
        config = write_config(tmp_path, tmp_path / "out", prompt_dir="prompts")
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"ERROR config: prompt asset {asset} is not valid UTF-8 (byte 0xff)"
        ]
        assert not (tmp_path / "out").exists()


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

    def test_one_scoring_pass_per_report(self, tmp_path, capsys, monkeypatch):
        scored = []
        original = metrics.score_run
        monkeypatch.setattr(
            "mathagent.report.score_run",
            lambda predictions, samples: scored.append(1) or original(predictions, samples),
        )
        out_dir = tmp_path / "out"
        config = str(write_config(tmp_path, out_dir))
        detections = str(out_dir / "detections.jsonl")
        passes = {}
        for name, argv in [
            ("run", ["run", "--config", config]),
            ("ablate", ["ablate", "--config", config]),
            ("report", ["report", detections, str(DATASET)]),
            ("report --baseline", ["report", detections, str(DATASET), "--baseline", detections]),
        ]:
            scored.clear()
            assert main(argv) == EXIT_OK, name
            passes[name] = len(scored)
        capsys.readouterr()
        assert passes == {"run": 1, "ablate": 4, "report": 1, "report --baseline": 2}

    @staticmethod
    def count_calls(monkeypatch, *targets) -> Counter:
        """Each call from here on of each (owner, name) in targets, counted by name."""
        calls = Counter()
        for owner, name in targets:
            original = getattr(owner, name)

            def call(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)
        return calls

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_one_setup_and_one_backend_per_scripted_spec_per_command(
        self, tmp_path, capsys, monkeypatch, command
    ):
        built = self.count_calls(
            monkeypatch, (cli, "build_setup"), (ScriptedBackend, "from_script")
        )
        config = write_config(tmp_path, tmp_path / "out")
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        # the test config's three scripted specs, each built once by load_config
        assert built == {"build_setup": 1, "from_script": 3}

    def test_build_setup_builds_no_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        http = {"kind": "http", "base_url": ONE_URL, "model_id": "m"}
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS)}
        config = cli.load_config(write_config(tmp_path, tmp_path / "out", backends={
            "phase1": http, "phase2": scripted, "phase3": {**http, "base_url": OTHER_URL},
        }))
        built = self.count_calls(
            monkeypatch, (cli, "HttpBackend"), (ScriptedBackend, "from_script")
        )
        setups = [cli.build_setup(config), cli.build_setup(config)]
        for setup in setups:
            setup.cache.close()
        assert built == {}
        for name in cli.PHASE_NAMES:
            phases = [getattr(setup, name) for setup in setups]
            assert phases[0].backend is phases[1].backend is getattr(config.setup, name).backend

    def test_prompt_assets_read_once_per_command(self, tmp_path, capsys, monkeypatch):
        reads = count_file_reads(monkeypatch)
        config = write_config(tmp_path, tmp_path / "out")
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        # ablate's one setup runs every mode on the one prompt set load_config read
        prompt_reads = Counter(path.name for path in reads if path.suffix == ".prompt")
        assert prompt_reads == {name: 1 for name in prompts.PROMPT_FILES.values()}

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_script_file_is_read_once_per_command(self, tmp_path, capsys, monkeypatch, command):
        reads = count_file_reads(monkeypatch)
        # all three specs name the one script file
        config = write_config(tmp_path, tmp_path / "out")
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert reads.count(SCRIPTS) == 1

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

    def test_uncached_commands_fingerprint_each_call_once(self, tmp_path, capsys, monkeypatch):
        fingerprinted = []
        original = backends.request_fingerprint
        monkeypatch.setattr(
            backends,
            "request_fingerprint",
            lambda request: fingerprinted.append(request) or original(request),
        )
        out_dir = tmp_path / "out"
        config = str(write_config(tmp_path, out_dir))
        records = {}
        for command, pattern in (("run", "detections.jsonl"), ("ablate", "detections_*.jsonl")):
            fingerprinted.clear()
            assert main([command, "--config", config]) == EXIT_OK
            records[command] = [
                record
                for path in sorted(out_dir.glob(pattern))
                for line in read_lines(path)
                for record in json.loads(line)["trace"]["backend_calls"]
            ]
            # one request built per call record, a memo hit included
            assert len(fingerprinted) == len(records[command]), command
        capsys.readouterr()
        assert len(records["run"]) == 32
        # 120 calls over the four modes, 60 of them repeats the memo answers
        assert len(records["ablate"]) == 120
        assert Counter(record["from_cache"] for record in records["ablate"]) == {True: 60, False: 60}
        assert (out_dir / "ablation.csv").read_text(encoding="utf-8") == (
            "mode,step,vis,cal,reas,know,mis,overall,average,"
            "calls_phase1,calls_phase2_type,calls_phase2,calls_phase3\n"
            "full,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,10,2,6,14\n"
            "no_validator,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,0,2,10,14\n"
            "no_interpreter,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,10,0,6,14\n"
            "no_analyzer,75.00,50.00,100.00,66.67,0.00,50.00,66.67,70.83,10,2,6,14\n"
        )

    def test_ablate_decodes_each_image_once(self, tmp_path, capsys, monkeypatch):
        figure_bytes = bytes(range(256)) * 480  # 120 KB
        figure = tmp_path / "figure.png"
        figure.write_bytes(figure_bytes)
        encoded = base64.b64encode(figure_bytes).decode("ascii")
        lines, inline = [], 0
        for line in read_lines(DATASET):
            obj = json.loads(line)
            if obj.get("image", {}).get("kind") == "inline_base64":
                if obj["id"] == "s01":  # one imaged sample keeps its image in a file
                    obj["image"] = {"kind": "file_path", "value": str(figure)}
                else:
                    obj["image"]["value"] = encoded
                    inline += 1
            lines.append(json.dumps(obj))
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        decodes = []
        original_decode = data_model.base64.b64decode
        monkeypatch.setattr(
            data_model.base64,
            "b64decode",
            lambda *args, **kwargs: decodes.append(args) or original_decode(*args, **kwargs),
        )
        reads = []
        original_read = Path.read_bytes
        monkeypatch.setattr(
            Path, "read_bytes", lambda path: reads.append(path) or original_read(path)
        )
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir, dataset=str(dataset))
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        # the loader's decode is the only one, whatever the four modes ask
        assert inline == 8 and len(decodes) == inline
        assert reads.count(figure) == 1
        for mode in MODES:
            lines = read_lines(out_dir / f"detections_{mode}.jsonl")
            assert [json.loads(line)["failure"] for line in lines] == [None] * 12, mode

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


class TestGoldenDetections:
    """`ablate` on the 12-sample fixture writes the checked-in detections, byte for byte.

    tests/fixtures/golden_detections_<mode>.jsonl pin every line of each
    mode's detections: predictions, traces, fingerprints and call order. A
    refactor must leave them as they are. Regenerate them only for an
    intended output change: run `mathagent ablate` on a config like
    write_config's and copy each detections_<mode>.jsonl over its golden file.
    """

    def test_ablate_reproduces_the_golden_detections(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "out")
        assert main(["ablate", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        for mode in MODES:
            assert (tmp_path / "out" / f"detections_{mode}.jsonl").read_bytes() == (
                FIXTURES / f"golden_detections_{mode}.jsonl"
            ).read_bytes(), mode

    def test_ablate_over_http_writes_the_golden_detections(self, tmp_path, capsys, monkeypatch):
        """The test endpoint hands a reply list out by the ask, as a script does."""
        serve(FaultyEndpoint(), monkeypatch)
        out_dir = tmp_path / "run" / "out"
        assert main(["ablate", "--config", str(http_config(tmp_path / "run", 1))]) == EXIT_OK
        capsys.readouterr()
        grid = (out_dir / "ablation.csv").read_text(encoding="utf-8").splitlines()
        assert grid[4].startswith("no_analyzer,") and grid[4].endswith(",14")
        for mode in MODES:
            assert (out_dir / f"detections_{mode}.jsonl").read_bytes() == (
                FIXTURES / f"golden_detections_{mode}.jsonl"
            ).read_bytes(), mode


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
    @pytest.mark.parametrize("rate_limit", [1, 3])
    def test_ctrl_c_at_sample_k_exits_130_with_whole_lines(
        self, tmp_path, capsys, caplog, monkeypatch, command, rate_limit
    ):
        serve(FaultyEndpoint(), monkeypatch)
        whole = tmp_path / "whole"
        assert main([command, "--config", str(http_config(whole))]) == EXIT_OK
        serve(FaultyEndpoint(), monkeypatch)
        k = 5
        interrupted = load_dataset(DATASET)[k].id
        original = pipeline.DetectionLog.add

        def add(self, det):
            if det.sample_id == interrupted:
                raise KeyboardInterrupt
            original(self, det)

        monkeypatch.setattr(pipeline.DetectionLog, "add", add)
        caplog.clear()
        config = http_config(tmp_path / "cut", rate_limit)
        try:
            code = main([command, "--config", str(config)])
        except KeyboardInterrupt:  # uncaught, it would stop the whole test session
            pytest.fail("main let KeyboardInterrupt through")
        assert code == EXIT_INTERRUPTED
        capsys.readouterr()
        assert [r.getMessage() for r in caplog.records if "interrupt" in r.getMessage()] == [
            "interrupted"
        ]
        # each file holds the first k samples' lines, whole and in order
        for path, whole_path in zip(
            detection_files(command, tmp_path / "cut" / "out"),
            detection_files(command, whole / "out"),
        ):
            assert path.read_bytes().endswith(b"\n"), path.name
            assert read_lines(path) == read_lines(whole_path)[:k], path.name

    def test_sigint_exits_130_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        serve(FaultyEndpoint(), monkeypatch)
        whole = tmp_path / "whole"
        assert main(["run", "--config", str(http_config(whole))]) == EXIT_OK
        capsys.readouterr()
        out_dir = tmp_path / "cut" / "out"
        config = http_config(tmp_path / "cut", rate_limit=2)
        # the process signals itself as the sixth sample is written, on three workers
        code = (
            "import functools, os, signal, sys\n"
            # a background job of a non-interactive shell starts with SIGINT ignored
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import FaultyEndpoint\n"
            "from mathagent import backends, cli, pipeline\n"
            "endpoint = FaultyEndpoint()\n"
            "os.environ['MATHAGENT_API_KEY'] = 'test-key'\n"
            "cli.HttpBackend = functools.partial(\n"
            "    backends.HttpBackend, transport=endpoint, sleep=endpoint.sleep)\n"
            "add = pipeline.DetectionLog.add\n"
            "def interrupting_add(log, det):\n"
            f"    if det.sample_id == {load_dataset(DATASET)[5].id!r}:\n"
            "        os.kill(os.getpid(), signal.SIGINT)\n"
            "    add(log, det)\n"
            "pipeline.DetectionLog.add = interrupting_add\n"
            f"sys.exit(cli.main(['run', '--config', {str(config)!r}]))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == EXIT_INTERRUPTED, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("interrupted") == 1
        cut = out_dir / "detections.jsonl"
        assert cut.read_bytes().endswith(b"\n")
        lines = read_lines(cut)
        assert len(lines) >= 5  # every sample before the sixth was written
        assert lines == read_lines(whole / "out" / "detections.jsonl")[:len(lines)]

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_slow_first_sample_streams_the_sequential_bytes(
        self, tmp_path, capsys, monkeypatch, command
    ):
        serve(FaultyEndpoint(), monkeypatch)
        sequential = tmp_path / "sequential"
        assert main([command, "--config", str(http_config(sequential, rate_limit=1))]) == EXIT_OK
        serve(FaultyEndpoint(), monkeypatch)
        first = load_dataset(DATASET)[0].id
        files = detection_files(command, tmp_path / "pooled" / "out")
        others = (len(load_dataset(DATASET)) - 1) * (1 if command == "run" else len(MODES))
        finished, others_done, held = [], threading.Event(), []
        real = pipeline.detect_errors

        def slow_first(sample, mode, setup):
            if sample.id == first and not held:
                assert others_done.wait(timeout=10)
                # every other sample is done, yet none may pass the first one
                held.append([len(read_lines(path)) for path in files])
            det = real(sample, mode, setup)
            if sample.id != first:
                finished.append(sample.id)
                if len(finished) == others:
                    others_done.set()
            return det

        monkeypatch.setattr(pipeline, "detect_errors", slow_first)
        config = http_config(tmp_path / "pooled", rate_limit=3)
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert held == [[0] * len(files)]
        for path, sequential_path in zip(files, detection_files(command, sequential / "out")):
            assert path.read_bytes() == sequential_path.read_bytes(), path.name


def serve(endpoint, monkeypatch) -> None:
    """Every HttpBackend a command builds sends to endpoint and sleeps through it."""
    monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
    monkeypatch.setattr(cli, "HttpBackend", functools.partial(
        backends.HttpBackend, transport=endpoint, sleep=endpoint.sleep
    ))


def http_config(run_dir: Path, rate_limit: int | None = None, **overrides) -> Path:
    """A config in run_dir whose three phases use one HTTP spec, writing to run_dir/out.

    The spec sets rate_limit when one is given, and so the run's worker count.
    """
    spec = {"kind": "http", "base_url": "http://localhost:9/v1", "model_id": "scripted-12"}
    if rate_limit is not None:
        spec["rate_limit"] = rate_limit
    run_dir.mkdir(parents=True)
    return write_config(
        run_dir, run_dir / "out", backends={"phase1": spec, "phase2": spec, "phase3": spec},
        **overrides,
    )


def run_over(endpoint, command: str, config: Path, out_dir: Path) -> dict:
    """command over HTTP against endpoint: {file name: {sample id: line as a dict}}."""
    with pytest.MonkeyPatch.context() as mp:
        serve(endpoint, mp)
        assert main([command, "--config", str(config)]) == EXIT_OK
    return {
        path.name: {det["sample_id"]: det for det in map(json.loads, read_lines(path))}
        for path in detection_files(command, out_dir)
    }


def run_against(endpoint, run_dir: Path, **overrides) -> dict:
    """`run` over HTTP against endpoint in run_dir: its detections by sample id, as dicts."""
    config = http_config(run_dir, **overrides)
    return run_over(endpoint, "run", config, run_dir / "out")["detections.jsonl"]


ONE_URL, OTHER_URL = "http://localhost:9/v1", "http://localhost:8/v1"


class TestEndpointGate:
    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_one_call_in_flight_per_base_url(self, tmp_path, capsys, monkeypatch, command):
        endpoint = FaultyEndpoint(hold_s=0.002)  # long enough for another worker's call to overlap
        serve(endpoint, monkeypatch)
        spec = {"kind": "http", "base_url": ONE_URL, "model_id": "m", "rate_limit": 1}
        config = write_config(
            tmp_path,
            tmp_path / "out",
            # the smallest rate_limit on a base_url sizes its gate, trailing slash or not:
            # one slot on ONE_URL and three on OTHER_URL, so four workers
            backends={
                "phase1": spec,
                "phase2": {**spec, "base_url": ONE_URL + "/", "rate_limit": 4},
                "plane": {**spec, "rate_limit": 2},
                "phase3": {**spec, "base_url": OTHER_URL, "rate_limit": 3},
            },
            router={"plane_geometry": "plane"},
        )
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        urls = Counter(url.removesuffix("/chat/completions") for url, *_ in endpoint.sent)
        assert urls[ONE_URL] > 12 and urls[OTHER_URL] >= 12
        assert endpoint.peaks[ONE_URL + "/chat/completions"] == 1
        assert 1 <= endpoint.peaks[OTHER_URL + "/chat/completions"] <= 3
        assert endpoint.max_in_flight <= 4


class TestWorkers:
    """A run has a worker per slot of its gates and a spare; a scripted-only run has one."""

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_default_http_run_fills_its_gate_and_no_more(
        self, tmp_path, capsys, caplog, monkeypatch, command
    ):
        # the first three calls wait for one another, so they are in flight at once
        endpoint = FaultyEndpoint(hold_s=0.002, barrier=threading.Barrier(3))
        serve(endpoint, monkeypatch)
        caplog.set_level("INFO", logger="mathagent")
        config = http_config(tmp_path / "run", rate_limit=3)
        assert main([command, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert not endpoint.barrier.broken
        assert endpoint.max_in_flight == 3
        assert any(r.getMessage().endswith(" on 4 worker(s)") for r in caplog.records)
        if command == "run":
            meta = json.loads((tmp_path / "run" / "out" / "run_meta.json").read_text("utf-8"))
            assert meta["workers"] == 4

    def test_two_base_urls_give_the_sum_of_their_gates(self, tmp_path, capsys, monkeypatch):
        serve(FaultyEndpoint(), monkeypatch)
        spec = {"kind": "http", "base_url": ONE_URL, "model_id": "m", "rate_limit": 2}
        config = write_config(tmp_path, tmp_path / "out", backends={
            "phase1": spec,
            "phase2": {**spec, "rate_limit": 5},
            "phase3": {**spec, "base_url": OTHER_URL, "rate_limit": 3},
        })
        assert cli.load_config(config).workers == 2 + 3 + 1
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["workers"] == 6

    def test_a_spec_no_phase_or_route_uses_adds_no_worker(self, tmp_path):
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS), "model_id": "scripted-12"}
        spare = {"kind": "http", "base_url": ONE_URL, "rate_limit": 8}
        specs = {"phase1": scripted, "phase2": scripted, "phase3": scripted, "spare": spare}
        config = write_config(tmp_path, tmp_path / "out", backends=specs)
        assert cli.load_config(config).workers == 1  # unused, it needs no model_id either
        # routed to, the spec's gate gives the run its slots
        specs["spare"] = {**spare, "model_id": "m"}
        config = write_config(tmp_path, tmp_path / "out", backends=specs,
                              router={"plane_geometry": "spare"})
        assert cli.load_config(config).workers == 8 + 1

    def test_a_spec_no_phase_or_route_uses_leaves_the_gate_its_size(self, tmp_path):
        spec = {"kind": "http", "base_url": "http://h/v1", "model_id": "m", "rate_limit": 8}
        leftover = {**spec, "rate_limit": 1}
        specs = {"phase1": spec, "phase2": spec, "phase3": spec, "leftover": leftover}
        config = cli.load_config(write_config(tmp_path, tmp_path / "out", backends=specs))
        gate = config.setup.phase1.backend._gate
        assert [gate.acquire(blocking=False) for _ in range(9)] == [True] * 8 + [False]
        assert config.workers == 8 + 1

    def test_the_spare_sends_while_a_worker_sleeps_its_backoff(
        self, tmp_path, capsys, monkeypatch
    ):
        """One slot, two workers: the spare takes the slot a backoff leaves free."""
        first = load_dataset(DATASET)[0].id
        endpoint = FaultyEndpoint({("phase1", first, 0): Fault(status=503)})
        sent_during = []  # what reached the endpoint during each backoff, in order

        def sleep(seconds):
            before = endpoint.calls
            time.sleep(seconds)
            sent_during.append(endpoint.log[before:endpoint.calls])

        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        monkeypatch.setattr(cli, "HttpBackend", functools.partial(
            backends.HttpBackend, transport=endpoint, sleep=sleep
        ))
        spec = {"kind": "http", "base_url": ONE_URL, "model_id": "scripted-12", "rate_limit": 1,
                "retry": {"max_attempts": 3, "backoff_base_ms": 200}}
        config = write_config(tmp_path, tmp_path / "out",
                              backends={"phase1": spec, "phase2": spec, "phase3": spec})
        assert cli.load_config(config).workers == 2
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        (during,) = sent_during  # the one backoff
        assert during and all(sample_id != first for _, sample_id, _, _ in during)
        assert endpoint.max_in_flight == 1
        assert (tmp_path / "out" / "detections.jsonl").read_bytes() == (
            FIXTURES / "golden_detections_full.jsonl"
        ).read_bytes()

    def test_the_sum_over_base_urls_is_capped(self, tmp_path):
        """Three base_urls at the largest rate_limit would sum to three times the cap."""
        top = backends.MAX_RATE_LIMIT
        urls = ["http://localhost:7/v1", ONE_URL, OTHER_URL]
        config = write_config(tmp_path, tmp_path / "out", backends={
            phase: {"kind": "http", "base_url": url, "model_id": "m", "rate_limit": top}
            for phase, url in zip(["phase1", "phase2", "phase3"], urls)
        })
        loaded = cli.load_config(config)  # starts no pool
        gates = {getattr(loaded.setup, name).backend._gate for name in cli.PHASE_NAMES}
        assert len(gates) == 3
        assert loaded.workers == top

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_scripted_run_starts_no_pool_thread(self, tmp_path, capsys, monkeypatch, command):
        threads, alive = set(), []
        real = pipeline.detect_errors

        def detect(sample, mode, setup):
            threads.add(threading.current_thread())
            alive.append(threading.active_count())
            return real(sample, mode, setup)

        monkeypatch.setattr(pipeline, "detect_errors", detect)
        before = threading.active_count()
        assert main([command, "--config", str(write_config(tmp_path, tmp_path / "out"))]) == EXIT_OK
        capsys.readouterr()
        assert threads == {threading.current_thread()}
        assert max(alive) <= before


class TestEndpointFinishReasons:
    """An endpoint's finish reason other than stop or length cuts the reply, as length does."""

    def test_content_filter_and_null_replies_are_cut(self, tmp_path):
        endpoints, runs = {}, {}
        # s01's first analyzer reply is filtered; s02's verdict "CONSISTENT" has no reason
        for name, plan in (
            ("clean", {}),
            ("faulty", {("phase3", "s01", 0): Fault(finish_reason="content_filter"),
                        ("phase1", "s02", 0): Fault(finish_reason=None)}),
        ):
            endpoints[name] = FaultyEndpoint(plan)
            runs[name] = run_against(endpoints[name], tmp_path / name)

        clean, faulty = runs["clean"], runs["faulty"]
        # s01: the filtered reply parses, yet earns the re-ask, whose whole reply is scored
        assert endpoints["clean"].asked["phase3", "s01"] == 1
        assert endpoints["faulty"].asked["phase3", "s01"] == 2
        s01_calls = [r["phase"] for r in faulty["s01"]["trace"]["backend_calls"]]
        assert s01_calls.count("phase3") == 2
        assert (faulty["s01"]["predicted_step"], faulty["s01"]["predicted_category"]) == (2, "VIS")
        # s02: the verdict is not consistent, so the image is transcribed
        assert clean["s02"]["trace"]["phase1"]["consistent"] is True
        assert faulty["s02"]["trace"]["phase1"] == {
            "consistent": False, "raw_text": "CONSISTENT", "confidence_note": CUT_NOTES["error"],
        }
        assert faulty["s02"]["trace"]["phase2"]["representation"] == "formal_language"
        assert clean["s02"]["trace"]["phase2"] is None
        for sample_id in clean.keys() - {"s01", "s02"}:
            assert faulty[sample_id] == clean[sample_id], sample_id


class TestEndpointBodies:
    """A reply body parse_json rejects fails its sample as BadResponse; the run goes on."""

    BODIES = {
        "lone-surrogate": json.dumps({"choices": [
            {"message": {"content": "Error Step: #2\ud83d"}, "finish_reason": "stop"}
        ]}),
        "nested-5000-deep": '{"choices": ' + "[" * 5000 + "]" * 5000 + "}",
    }

    @pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize("body", list(BODIES))
    def test_that_sample_fails_and_no_other_changes(self, tmp_path, body, cache):
        runs = {}
        faulty_plan = {("phase3", "s01", 0): Fault(body=self.BODIES[body])}
        for name, plan in (("clean", {}), ("faulty", faulty_plan)):
            cache_path = {"cache_path": str(tmp_path / f"{name}.jsonl")} if cache else {}
            endpoint = FaultyEndpoint(plan)
            runs[name] = run_against(endpoint, tmp_path / name, **cache_path)
        clean, faulty = runs["clean"], runs["faulty"]
        assert clean["s01"]["failure"] is None
        assert faulty["s01"]["failure"].startswith("phase3: BadResponse: malformed completion body: ")
        assert faulty["s01"]["predicted_step"] is None
        for sample_id in clean.keys() - {"s01"}:
            assert faulty[sample_id] == clean[sample_id], sample_id
        meta = json.loads((tmp_path / "faulty" / "out" / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["n_failures"] == 1


class TestAuthStopsTheRun:
    """An AuthError is a fault of the run: it stops it with exit 2 and one line.

    No sample starts after it, the samples in flight finish, and each
    detections file keeps the lines of the samples before the refused one.
    """

    URL = "http://localhost:9/v1/chat/completions"

    @staticmethod
    def refusing_from(k: int, status: int = 401) -> dict:
        """A plan answering status to every ask about a sample from index k of the dataset on."""
        return {
            (phase, sample.id, ask): Fault(status, body="denied")
            for phase in ("phase1", "phase2.type", "phase2", "phase3")
            for sample in load_dataset(DATASET)[k:]
            for ask in range(4)
        }

    @staticmethod
    def errors(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize(
        "key, message",
        [(None, "is not set"), ("sk-abc\u2026", "is not printable ASCII")],
        ids=["unset", "non-ascii"],
    )
    def test_a_refused_key_stops_the_run_before_any_call(
        self, tmp_path, capsys, caplog, monkeypatch, command, key, message
    ):
        endpoint = FaultyEndpoint()
        serve(endpoint, monkeypatch)
        if key is None:
            monkeypatch.delenv("MATHAGENT_API_KEY")
        else:
            monkeypatch.setenv("MATHAGENT_API_KEY", key)
        config = http_config(tmp_path / "run", rate_limit=3)
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert self.errors(caplog) == [
            f"auth: environment variable MATHAGENT_API_KEY {message}"
        ]
        assert endpoint.calls == 0
        assert not (tmp_path / "run" / "out").exists()  # found by the setup, before any output

    @pytest.mark.parametrize("routed", [False, True], ids=["spare", "routed"])
    def test_the_setup_checks_the_key_of_each_http_backend_it_uses(
        self, tmp_path, capsys, caplog, monkeypatch, routed
    ):
        endpoint = FaultyEndpoint()
        serve(endpoint, monkeypatch)
        monkeypatch.delenv("MATHAGENT_API_KEY")
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS), "model_id": "scripted-12"}
        spare = {"kind": "http", "base_url": "http://localhost:9/v1", "model_id": "m"}
        config = write_config(
            tmp_path, tmp_path / "out",
            backends={"phase1": scripted, "phase2": scripted, "phase3": scripted, "spare": spare},
            router={"diagram": "spare"} if routed else {},
        )
        code = main(["run", "--config", str(config)])
        capsys.readouterr()
        if routed:
            assert code == EXIT_CONFIG
            message = "auth: environment variable MATHAGENT_API_KEY is not set"
            assert self.errors(caplog) == [message]
            assert not (tmp_path / "out").exists()
        else:  # a spec no phase or route uses makes no call, so its key is not read
            assert code == EXIT_OK
        assert endpoint.calls == 0

    def test_the_first_unset_key_a_sample_would_meet_is_named(self, tmp_path, caplog, monkeypatch):
        monkeypatch.delenv("KEY_ONE", raising=False)
        monkeypatch.delenv("KEY_TWO", raising=False)
        scripted = {"kind": "scripted", "script_path": str(SCRIPTS), "model_id": "scripted-12"}
        http = {"kind": "http", "base_url": "http://localhost:9/v1", "model_id": "m"}
        specs = {  # the routed spec comes first in the config, and phase1's key first in a run
            "spare": dict(http, api_key_env="KEY_TWO"),
            "phase1": dict(http, api_key_env="KEY_ONE"),
            "phase2": scripted, "phase3": scripted,
        }
        router = {"diagram": "spare"}
        config = write_config(tmp_path, tmp_path / "out", backends=specs, router=router)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert self.errors(caplog) == ["auth: environment variable KEY_ONE is not set"]

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("rate_limit", [1, 3])
    @pytest.mark.parametrize("status", [401, 403])
    def test_a_refusal_on_every_call_stops_the_run_after_a_call_per_worker(
        self, tmp_path, capsys, caplog, monkeypatch, command, rate_limit, status
    ):
        endpoint = FaultyEndpoint(self.refusing_from(0, status))
        serve(endpoint, monkeypatch)
        config = http_config(tmp_path / "run", rate_limit)
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert self.errors(caplog) == [f"auth: HTTP {status} from {self.URL}"]
        # a refusal is not retried, and each worker stops at its first sample's first call
        assert 1 <= endpoint.calls <= cli.load_config(config).workers
        assert endpoint.sleeps == []
        for path in detection_files(command, tmp_path / "run" / "out"):
            assert read_lines(path) == [], path.name

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("rate_limit", [1, 3])
    def test_a_refusal_at_sample_k_leaves_the_first_k_lines(
        self, fault_free, tmp_path, capsys, caplog, monkeypatch, command, rate_limit
    ):
        k = 5
        serve(FaultyEndpoint(self.refusing_from(k)), monkeypatch)
        out_dir = tmp_path / "run" / "out"
        config = http_config(tmp_path / "run", rate_limit)
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert self.errors(caplog) == [f"auth: HTTP 401 from {self.URL}"]
        clean = fault_free(command)
        first_k = [sample.id for sample in load_dataset(DATASET)[:k]]
        for path in detection_files(command, out_dir):
            assert [json.loads(line) for line in read_lines(path)] == [
                clean[path.name][sample_id] for sample_id in first_k
            ]
        assert not (out_dir / "report.csv").exists()


# every fault a plan may hold
PLAN_FAULTS = (
    Fault(429),
    Fault(429, {"retry-after": "1"}),
    Fault(503),
    Fault(error=TimeoutError("planned timeout")),
    Fault(error=ConnectionError("planned reset")),
    Fault(finish_reason="length"),
    Fault(finish_reason="content_filter"),
    Fault(finish_reason=None),
    Fault(body="not json"),
    Fault(body=TestEndpointBodies.BODIES["lone-surrogate"]),
)
SCRIPTED_PAIRS = [
    (phase, sample_id)
    for phase, table in json.loads(SCRIPTS.read_text(encoding="utf-8"))["phases"].items()
    for sample_id in table
]
_POLICY = backends.RetryPolicy()  # the retry policy http_config leaves at its default
MAX_ATTEMPTS, BACKOFF_S = _POLICY.max_attempts, _POLICY.backoff_base_ms / 1000
EXHAUSTED = "exhausted"  # a complete() call whose every attempt was retried


def fault_plans():
    """Plans keyed by (phase, sample_id, k): up to three scripted pairs, four asks each."""
    schedules = st.dictionaries(
        st.sampled_from(SCRIPTED_PAIRS),
        st.lists(st.none() | st.sampled_from(PLAN_FAULTS), min_size=1, max_size=4),
        max_size=3,
    )
    return schedules.map(lambda by_pair: {
        (*pair, k): fault
        for pair, faults in by_pair.items() for k, fault in enumerate(faults) if fault is not None
    })


def planned(plan: dict, pair: tuple, completes: int) -> tuple[int, list, list]:
    """What `completes` HttpBackend.complete calls on pair meet under plan.

    Returns the attempts they make, the sleeps between attempts, and how each
    call ended: the fault of its last attempt (Fault() for a whole reply), or
    EXHAUSTED when every attempt was retried.
    """
    k, sleeps, ends = 0, [], []
    for _ in range(completes):
        for attempt in range(1, MAX_ATTEMPTS + 1):
            fault = plan.get((*pair, k), Fault())
            k += 1
            if not fault.retried:
                ends.append(fault)
                break
            if attempt < MAX_ATTEMPTS:
                backoff_s = BACKOFF_S * 2 ** (attempt - 1)
                sleeps.append(float(fault.headers.get("retry-after", backoff_s)))
        else:
            ends.append(EXHAUSTED)
    return k, sleeps, ends


def failure_of(phase: str, end) -> str:
    """The start of the failure a sample records when a call on phase ends so."""
    label = "phase2" if phase == "phase2.type" else phase
    if end is EXHAUSTED:
        return f"{label}: TransportError: gave up after {MAX_ATTEMPTS} attempts"
    return f"{label}: BadResponse: malformed completion body"


def shows_cut(line: dict, phase: str, finish_reason) -> bool:
    """line carries what a cut reply on phase earns: its cut note, a re-ask or no result."""
    trace = line["trace"]
    note = CUT_NOTES["length" if finish_reason == "length" else "error"]
    if phase == "phase1":
        return trace["phase1"] is not None and trace["phase1"]["confidence_note"] == note
    if phase == "phase2":
        return trace["phase2"] is not None and note in trace["phase2"]["findings"]
    # the type query and the analyzer re-ask once; a failed re-ask fails the sample
    asked = [record["phase"] for record in trace["backend_calls"]].count(phase)
    unresolved = trace["phase2"] is not None and trace["phase2"]["question_type"] is None
    no_result = line["predicted_step"] is None if phase == "phase3" else unresolved
    return asked == 2 or no_result or line["failure"] is not None


@pytest.fixture(scope="module")
def fault_free(tmp_path_factory):
    """Each command's detections against an endpoint with no fault, made once."""

    @functools.cache
    def lines(command: str) -> dict:
        run_dir = tmp_path_factory.mktemp(f"fault-free-{command}") / "run"
        return run_over(FaultyEndpoint(), command, http_config(run_dir), run_dir / "out")

    return lines


@pytest.mark.parametrize("rate_limit", [1, 3])
@pytest.mark.parametrize("command", ["run", "ablate"])
@settings(max_examples=4, derandomize=True, deadline=None)
@example(plan={
    # s01's verdict is retried twice, then answered; s04's analyzer runs out of attempts
    ("phase1", "s01", 0): Fault(429, {"retry-after": "1"}),
    ("phase1", "s01", 1): Fault(error=TimeoutError("planned timeout")),
    **{("phase3", "s04", k): Fault(503) for k in range(MAX_ATTEMPTS)},
})
@example(plan={
    ("phase1", "s02", 0): Fault(finish_reason="length"),
    ("phase2.type", "s09", 0): Fault(finish_reason=None),
    ("phase2", "s05", 0): Fault(finish_reason="content_filter"),
    ("phase3", "s07", 0): Fault(finish_reason="length"),
    ("phase2", "s11", 0): Fault(body="not json"),
    ("phase3", "s12", 1): Fault(error=ConnectionError("planned reset")),
})
@given(plan=fault_plans())
def test_every_sample_gets_what_its_plan_implies(
    fault_free, tmp_path_factory, command, rate_limit, plan
):
    """A seeded fault plan behind the transport hook, through `run` and `ablate`.

    Faults a retry clears leave a sample's lines as a fault-free run writes
    them; every other sample fails where the plan exhausted or broke a
    call, or carries what its cut reply earns. The endpoint sees exactly the
    attempts the plan implies, and a rerun over the cache makes no call that
    got a whole 200.

    A function, not a method: pytest runs each case of a parametrized method
    on a new instance of its class, which hypothesis's differing_executors
    health check can fail.
    """
    run_dir = tmp_path_factory.mktemp("plan") / "run"
    out_dir = run_dir / "out"
    config = http_config(run_dir, rate_limit, cache_path=str(run_dir / "cache.jsonl"))
    endpoint, completes = FaultyEndpoint(plan), Counter()
    original = backends.HttpBackend.complete

    def counted(backend, request):
        completes[request.phase, request.sample_id] += 1  # one worker per sample
        return original(backend, request)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends.HttpBackend, "complete", counted)
        files = run_over(endpoint, command, config, out_dir)

    # the endpoint saw exactly the attempts and sleeps the plan implies
    sleeps, ends = [], {}
    for pair in endpoint.asked.keys() | completes.keys():
        calls, pair_sleeps, ends[pair] = planned(plan, pair, completes[pair])
        assert endpoint.asked[pair] == calls, pair
        sleeps += pair_sleeps
    assert sorted(endpoint.sleeps) == sorted(sleeps)

    clean = fault_free(command)
    for sample_id in clean[next(iter(clean))]:
        lines = [files[name][sample_id] for name in files]
        events = [
            (phase, end) for (phase, owner), pair_ends in ends.items() if owner == sample_id
            for end in pair_ends if end is EXHAUSTED or end != Fault()
        ]
        if not events:  # every fault was retried away
            assert lines == [clean[name][sample_id] for name in files], sample_id
            continue
        failures = Counter(
            re.match(r"[^:]+: (TransportError: gave up after \d+ attempts|BadResponse: "
                     r"malformed completion body)", line["failure"])[0]
            for line in lines if line["failure"] is not None
        )
        assert failures == Counter(
            failure_of(phase, end) for phase, end in events
            if end is EXHAUSTED or not end.well_formed
        ), sample_id
        for phase, end in events:
            if end is not EXHAUSTED and end.well_formed:
                assert any(shows_cut(line, phase, end.finish_reason) for line in lines), (
                    sample_id, phase
                )

    # report over the run's detections reproduces its report
    if command == "run":
        report_dir = run_dir / "report"
        assert main(["report", str(out_dir / "detections.jsonl"), str(DATASET),
                     "--out-dir", str(report_dir)]) == EXIT_OK
        for name in ("report.csv", "report.md"):
            assert (report_dir / name).read_bytes() == (out_dir / name).read_bytes(), name
    else:
        grid = read_lines(out_dir / "ablation.csv")[1:]
        for mode, row in zip(MODES, grid):
            report_dir = run_dir / f"report_{mode}"
            assert main(["report", str(out_dir / f"detections_{mode}.jsonl"), str(DATASET),
                         "--out-dir", str(report_dir), "--model", mode]) == EXIT_OK
            scored = read_lines(report_dir / "report.csv")[1]
            assert row.startswith(scored + ","), mode

    # a rerun over the cache asks again only what got no whole 200
    whole = {
        json.dumps(body, sort_keys=True)
        for (_, _, body, _), (*_, fault) in zip(endpoint.sent, endpoint.log)
        if fault.well_formed
    }
    rerun = FaultyEndpoint()
    run_over(rerun, command, config, out_dir)
    assert not whole & {json.dumps(body, sort_keys=True) for _, _, body, _ in rerun.sent}


# the faults a retry clears; RECOVERABLE_ASKS of them per pair leave every call an attempt
RETRIED_FAULTS = (
    Fault(429),
    Fault(429, {"retry-after": "1"}),
    Fault(503),
    Fault(error=ConnectionError("planned reset")),
    Fault(error=TimeoutError("planned timeout")),
)
RECOVERABLE_ASKS = MAX_ATTEMPTS - 1


def recoverable_plans():
    """Plans keyed by (phase, sample_id, k) that fault only a pair's first RECOVERABLE_ASKS asks.

    Every complete() call on a pair makes its asks among that pair's, so
    none meets more than RECOVERABLE_ASKS faults, and none runs out of attempts.
    """
    schedules = st.dictionaries(
        st.sampled_from(SCRIPTED_PAIRS),
        st.lists(st.none() | st.sampled_from(RETRIED_FAULTS), min_size=1,
                 max_size=RECOVERABLE_ASKS),
        max_size=6,
    )
    return schedules.map(lambda by_pair: {
        (*pair, k): fault
        for pair, faults in by_pair.items() for k, fault in enumerate(faults) if fault is not None
    })


@pytest.fixture(scope="module")
def scripted_calls(tmp_path_factory):
    """The scripted runs' calls: `run`'s call_counts per mode, and `ablate`'s ablation.csv."""
    root = tmp_path_factory.mktemp("scripted-calls")
    counts = {}
    for mode in MODES:
        (root / mode).mkdir()
        config = write_config(root / mode, root / mode / "out", mode=mode)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        meta = json.loads((root / mode / "out" / "run_meta.json").read_text(encoding="utf-8"))
        counts[mode] = meta["call_counts"]
    config = write_config(root, root / "ablate")
    assert main(["ablate", "--config", str(config)]) == EXIT_OK
    return counts, (root / "ablate" / "ablation.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("rate_limit", [1, 2, 3, 4])
@pytest.mark.parametrize("command", ["run", "ablate"])
@settings(max_examples=3, derandomize=True, deadline=None)
@example(plan={
    ("phase1", "s01", 0): Fault(429, {"retry-after": "1"}),
    ("phase1", "s01", 1): Fault(error=TimeoutError("planned timeout")),
    ("phase2.type", "s09", 0): Fault(429),
    ("phase2", "s05", 1): Fault(503),
    ("phase3", "s03", 0): Fault(error=ConnectionError("planned reset")),
    ("phase3", "s03", 1): Fault(503),
})
@given(plan=recoverable_plans())
def test_a_recoverable_plan_writes_the_golden_detections(
    scripted_calls, tmp_path_factory, command, rate_limit, plan
):
    """Faults that retries clear change nothing a run writes, at any worker count.

    `ablate`, and `run` in each mode in turn on one cache (so that each
    mode's repeats of the modes before it are hits, as in `ablate`), write
    the golden detections' bytes over HTTP, and make the calls per phase the
    scripted runs make.
    """
    run_dir = tmp_path_factory.mktemp("recoverable")
    endpoint = FaultyEndpoint(plan, hold_s=0.0005)  # so that the workers' calls overlap
    with pytest.MonkeyPatch.context() as mp:
        serve(endpoint, mp)
        if command == "ablate":
            config = http_config(run_dir / "ablate", rate_limit)
            assert main(["ablate", "--config", str(config)]) == EXIT_OK
            written = {
                mode: run_dir / "ablate" / "out" / f"detections_{mode}.jsonl" for mode in MODES
            }
        else:
            for mode in MODES:
                config = http_config(
                    run_dir / mode, rate_limit, mode=mode, cache_path=str(run_dir / "cache.jsonl")
                )
                assert main(["run", "--config", str(config)]) == EXIT_OK
            written = {mode: run_dir / mode / "out" / "detections.jsonl" for mode in MODES}
    # every fault reached the transport and was retried once
    assert len(endpoint.sleeps) == sum(fault != Fault() for *_, fault in endpoint.log)
    for mode, path in written.items():
        golden = FIXTURES / f"golden_detections_{mode}.jsonl"
        assert path.read_bytes() == golden.read_bytes(), mode
    counts, grid = scripted_calls
    if command == "ablate":
        assert (run_dir / "ablate" / "out" / "ablation.csv").read_text(encoding="utf-8") == grid
    else:
        for mode in MODES:
            meta = json.loads((run_dir / mode / "out" / "run_meta.json").read_text("utf-8"))
            assert meta["call_counts"] == counts[mode], mode


class TestOutputLocation:
    """An output that cannot be made or written exits 2 with one line naming it."""

    @pytest.mark.parametrize(
        "command, blocked",
        [("run", "out"), ("run", "out/detections.jsonl"), ("ablate", "out"),
         ("ablate", "out/ablation.csv")],
    )
    def test_run_and_ablate(self, tmp_path, command, blocked):
        config = write_config(tmp_path, tmp_path / "out")
        target = tmp_path / blocked
        if blocked == "out":
            target.write_text("a file", encoding="utf-8")  # output_dir names a file
        else:
            target.mkdir(parents=True)  # an output file's path is a directory
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        [error] = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
        assert error.startswith(f"ERROR config: cannot write output {target}: ")

    def test_a_failed_write_names_the_output_dir(self, tmp_path, monkeypatch, caplog, capsys):
        def add(det_log, det):
            raise OSError(errno.ENOSPC, "No space left on device")  # no file name, as write's

        monkeypatch.setattr(pipeline.DetectionLog, "add", add)
        config = write_config(tmp_path, tmp_path / "out")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        capsys.readouterr()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        out_dir = tmp_path / "out"
        assert errors == [f"config: cannot write output {out_dir}: No space left on device"]

    def test_report_out_dir(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("a file", encoding="utf-8")
        proc = run_python(
            "-m", "mathagent.cli", "report", str(FIXTURES / "golden_detections_full.jsonl"),
            str(DATASET), "--out-dir", str(target),
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"ERROR config: cannot write output {target}: File exists"
        ]


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


    def test_two_runs_write_the_same_cache_bytes(self, tmp_path, capsys):
        caches = []
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            cache = tmp_path / name / "cache.jsonl"
            config = write_config(tmp_path / name, tmp_path / name / "out", cache_path=str(cache))
            assert main(["run", "--config", str(config)]) == EXIT_OK
            capsys.readouterr()
            caches.append(cache.read_bytes())
        assert len(caches[0].splitlines()) == 32
        assert caches[0] == caches[1]


class TestSetupProbe:
    """perfbench/setup_probe.py, the benchmark's one direct call into cli, keeps working."""

    @pytest.mark.parametrize("cache", ["none", "primed"])
    def test_the_probe_times_the_fixture_config(self, tmp_path, capsys, cache):
        cache_path = {"cache_path": str(tmp_path / "cache.jsonl")} if cache == "primed" else {}
        config = write_config(tmp_path, tmp_path / "out", **cache_path)
        if cache_path:
            assert main(["run", "--config", str(config)]) == EXIT_OK
            capsys.readouterr()
            assert len(read_lines(tmp_path / "cache.jsonl")) == 32
        proc = run_python("perfbench/setup_probe.py", "src", str(config), cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)) == {
            "import_s", "load_config_s", "load_dataset_s", "build_setup_s", "setup_s",
        }

    def test_build_setup_with_two_arguments_opens_the_config_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        cache = tmp_path / "cache.jsonl"
        config = write_config(tmp_path, tmp_path / "out", cache_path=str(cache))
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        reads = []
        original = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or original(path))
        setup = cli.build_setup(cli.load_config(config), config.parent)
        setup.cache.close()
        assert reads.count(cache) == 1


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

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_lone_surrogate_is_a_config_error(self, cached_run, command):
        config, cache = cached_run
        lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), "response_text": "\ud83d"}) + "\n"
        cache.write_text("".join(lines), encoding="utf-8")
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{cache} line 2: lone surrogate \\ud83d" in proc.stderr

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_a_line_that_is_not_utf8_is_a_config_error(self, cached_run, command):
        config, cache = cached_run
        lines = cache.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"fingerprint"', b'"\xfffingerprint"', 1)
        cache.write_bytes(b"".join(lines))
        proc = run_python("-m", "mathagent.cli", command, "--config", str(config))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{cache} line 3: not valid UTF-8 (byte 0xff)" in proc.stderr


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

    def test_the_config_example_runs(self, tmp_path, capsys):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        block = readme.split("A run config is a JSON file")[1].split("```json\n")[1]
        raw = json.loads(block.split("```")[0])
        shutil.copy(DATASET, tmp_path / raw["dataset"])
        shutil.copytree(PACKAGED_PROMPTS, tmp_path / raw["prompt_dir"])
        config = tmp_path / "run.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        as_written = cli.load_config(config)  # its HTTP specs too, though none is called
        setup = as_written.setup
        phases = (setup.phase1, setup.phase2, setup.phase3, *setup.router.values())
        assert {phase.settings.model_id for phase in phases} == {"gpt-4o"}
        for name in raw["backends"]:
            raw["backends"][name] = {"kind": "scripted", "script_path": str(SCRIPTS)}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / raw["output_dir"] / "report.md").exists()

    def test_exit_codes_line_names_the_cli_constants(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        line = readme.split("Exit codes: ")[1].split("(")[0]
        documented = {word: int(code) for code, word in re.findall(r"(\d+) (\w+)", line)}
        assert documented == {
            name.removeprefix("EXIT_").lower(): value
            for name, value in vars(cli).items()
            if name.startswith("EXIT_")
        }
