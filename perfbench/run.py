"""mathagent benchmark: the run and ablate commands on seeded inputs.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (2,500 samples, workers = 2, rate_limit = 2 on every backend):
    replay-warm      `run --config`, replay cache primed by an untimed run of
                     the same config, so no call reaches the endpoint.
    http-cold        the same run against the fake endpoint, with a fresh
                     replay cache written on every run.
    ablate-uncached  `ablate --config`, all four modes, no replay cache.

Each timed run is one `mathagent.cli.main([...])` call; the benchmark
repeats it for --seconds and reports medians. Every run passes a
correctness gate first: predictions, report rows and calls per phase must
equal what the seeded replies imply. A run that fails its gate prints no
result and exits 1. With --trace 1, runs alternate between traced and
untraced, and the per-layer metrics come from the traced ones.

The model endpoint is faked at `requests.post` as mathagent.backends sees
it, the call its default transport makes. A run config cannot reach the
HttpBackend `transport=` hook, and a fake backend built by the benchmark
would measure the benchmark's wiring instead of the program's: the
program must build its own backends, replay layer included, from the
config, so the benchmark keeps working when those classes are replaced.

The last line of stdout is one JSON object with the metrics; the lines
before it print them, and the figures no bound applies to, as a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# latency_s is the fake endpoint's service time per call. http-cold's runs
# are dominated by waiting on it. ablate-uncached's endpoint answers as soon
# as it has built the reply: with a 0.5 ms sleep, each wake-up waited up to
# the interpreter's 5 ms thread switch interval behind the other worker,
# which doubled the wall time and its spread. replay-warm calls the
# endpoint only in its untimed priming run.
WORKLOADS = {
    "replay-warm": {"command": "run", "cache": True, "latency_s": 0.0},
    "http-cold": {"command": "run", "cache": True, "latency_s": 0.003},
    "ablate-uncached": {"command": "ablate", "cache": False, "latency_s": 0.0},
}
MIN_RUNS = 3  # untraced runs per measurement, whatever --seconds says
MIN_TRACED_RUNS = 2  # so that their counters can be checked to repeat
SETUP_PROBES = 21
PHASE_TAGS = ("phase1", "phase2.type", "phase2", "phase3")


class GateFailure(Exception):
    """The program's outputs are not what the seeded inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Outcome:
    """What one cli.main call produced, reduced to what runs must repeat."""

    attempted: int  # sample evaluations: samples x modes
    counts: Counter  # exact counters; equal on every run of a seed
    served: Counter  # replies served per property, from the fake endpoint
    digest: str  # of the detections, latency_ms zeroed unless the run is warm
    max_in_flight: int
    wall_s: float = 0.0
    tracer: object = None
    span_counts: dict = field(default_factory=dict)


class Bench:
    def __init__(self, name: str, seed: int, workdir: Path, write: bool = True):
        from workload import FakeEndpoint, make_plan, write_config, write_inputs

        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.spec = WORKLOADS[name]
        self.samples, self.plans = make_plan(seed)
        self.config = workdir / "config.json"
        if write:
            write_inputs(self.samples, self.plans, workdir)
            write_config(workdir, self.spec["cache"])
        self.cache = workdir / "cache.jsonl"
        self.out = workdir / "out"
        self.endpoint = FakeEndpoint(self.plans, seed, self.spec["latency_s"])
        self.argv = [self.spec["command"], "--config", str(self.config)]

    def run(self, tracer=None, warm: bool | None = None) -> Outcome:
        """One timed cli.main call, checked by the gate."""
        from mathagent import backends, cli

        if warm is None:
            warm = self.name == "replay-warm"
        if self.name == "http-cold":
            self.cache.unlink(missing_ok=True)
        self.endpoint.reset()
        post = self.endpoint.post
        if tracer is not None:
            post = tracer.wrap("endpoint.post", post)
        original_post = backends.requests.post
        stdout = io.StringIO()
        gc.collect()  # the previous gate's garbage is not this run's to collect
        try:
            backends.requests.post = post
            if tracer is not None:
                tracer.install()
            started = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(self.argv)
            wall = time.perf_counter() - started
        finally:
            backends.requests.post = original_post
            if tracer is not None:
                tracer.uninstall()
        _require(code == 0, f"mathagent {self.argv[0]} exited with {code}")
        outcome = self.check(stdout.getvalue(), warm)
        outcome.wall_s = wall
        if tracer is not None:
            outcome.tracer = tracer
            outcome.span_counts = {k: (s.calls, s.errors) for k, s in tracer.spans.items()}
        return outcome

    def check(self, stdout: str, warm: bool) -> Outcome:
        """The gate: outputs must be exactly what the seeded replies imply."""
        from workload import (
            MODES,
            RATE_LIMIT,
            expected_ablation_csv,
            expected_calls,
            expected_prediction,
            expected_report_csv,
        )

        if self.spec["command"] == "run":
            files = {"full": self.out / "detections.jsonl"}
            report_text = (self.out / "report.csv").read_text(encoding="utf-8")
            expected_report = expected_report_csv(self.plans)
        else:
            files = {m: self.out / f"detections_{m}.jsonl" for m in MODES}
            report_text = (self.out / "ablation.csv").read_text(encoding="utf-8")
            expected_report = expected_ablation_csv(self.plans)
        _require(stdout == report_text, "stdout differs from the written report")
        _require(report_text == expected_report,
                 f"report differs from the seeded expectation:\n{report_text}\n"
                 f"expected:\n{expected_report}")

        counts = Counter()
        digest = hashlib.sha256()
        for mode, path in files.items():
            lines = path.read_text(encoding="utf-8").splitlines()
            _require(len(lines) == len(self.samples), f"{mode}: {len(lines)} detections")
            calls = Counter()
            for sample, plan, line in zip(self.samples, self.plans, lines):
                det = json.loads(line)
                _require(det["sample_id"] == sample.id, f"{mode}: detections out of order")
                _require(det["failure"] is None, f"{mode} {sample.id}: {det['failure']}")
                got = (det["predicted_step"], det["predicted_category"])
                _require(got == expected_prediction(plan),
                         f"{mode} {sample.id}: predicted {got}, seeded "
                         f"{expected_prediction(plan)}")
                counts["unparsed"] += det["predicted_step"] is None
                tags = Counter()
                for record in det["trace"]["backend_calls"]:
                    tags[record["phase"]] += 1
                    counts["replay.hits" if record["from_cache"] else "replay.misses"] += 1
                    record["latency_ms"] = 0.0
                counts["type_retries"] += max(tags["phase2.type"] - 1, 0)
                counts["reasks"] += max(tags["phase3"] - 1, 0)
                calls.update(tags)
                digest.update(line.encode("utf-8") if warm
                              else json.dumps(det, sort_keys=True).encode("utf-8"))
            expected = expected_calls(self.plans, mode)
            _require(dict(calls) == expected,
                     f"{mode}: calls per phase {dict(calls)}, seeded {expected}")
            counts.update({f"calls.{tag}": calls[tag] for tag in PHASE_TAGS})

        endpoint = self.endpoint
        counts["endpoint.attempts"] = endpoint.attempts
        counts["endpoint.unique"] = endpoint.unique_requests
        counts["endpoint.faults"] = endpoint.faults
        if warm:
            _require(endpoint.attempts == 0, f"warm replay made {endpoint.attempts} endpoint calls")
        else:
            _require(endpoint.attempts > 0, "no call reached the fake endpoint")
        _require(endpoint.max_in_flight <= RATE_LIMIT,
                 f"{endpoint.max_in_flight} calls in flight, rate_limit is {RATE_LIMIT}")
        return Outcome(
            attempted=len(files) * len(self.samples),
            counts=counts,
            served=Counter(endpoint.served),
            digest=digest.hexdigest(),
            max_in_flight=endpoint.max_in_flight,
        )

    def prime(self) -> Counter:
        """Fill the replay cache with one untimed, gated run in a child process.

        The priming run takes the cold HTTP path; run apart, it does not
        count in this process's peak RSS. Returns the replies it was served.
        """
        proc = self._child("prime.py", self.name, str(self.seed), str(self.workdir))
        return Counter(json.loads(proc.stdout.splitlines()[-1]))

    def setup_probe(self) -> float:
        """Seconds of one set-up in a fresh interpreter."""
        if self.name == "http-cold":
            self.cache.unlink(missing_ok=True)  # every http-cold run starts without one
        proc = self._child("setup_probe.py", str(SRC), str(self.config))
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]

    @staticmethod
    def _child(script: str, *args: str) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).parent / script), *args],
                capture_output=True, text=True, timeout=120, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise GateFailure(f"{script} did not finish in 120 s") from exc
        _require(proc.returncode == 0, f"{script} failed: {proc.stderr[-2000:]}")
        return proc


def _check_repeats(outcomes: list[Outcome]) -> None:
    first = outcomes[0]
    for later in outcomes[1:]:
        _require(later.counts == first.counts,
                 f"counters differ between runs: {dict(first.counts)} vs {dict(later.counts)}")
        _require(later.digest == first.digest, "detections differ between runs")


def measure(bench: Bench, seconds: float, traced: bool):
    """Runs repeated for `seconds`: (untraced, traced, set-up times).

    Untraced, SETUP_PROBES set-up probes are spread evenly between the
    runs, so swings in the host's speed reach set-up time as they reach the
    runs; time spent in probes does not count against `seconds`.
    """
    plain: list[Outcome] = []
    with_trace: list[Outcome] = []
    setups: list[float] = []
    probes = 0 if traced else SETUP_PROBES
    start = time.perf_counter()
    in_probes = 0.0

    def measured() -> float:
        return time.perf_counter() - start - in_probes

    while True:
        if traced:
            enough = len(plain) >= 1 and len(with_trace) >= MIN_TRACED_RUNS
        else:
            enough = len(plain) >= MIN_RUNS
        if enough and measured() >= seconds:
            break
        if traced and len(with_trace) <= len(plain):
            with_trace.append(bench.run(Tracer()))
        else:
            plain.append(bench.run())
        while len(setups) < probes and measured() >= len(setups) * seconds / probes:
            probe_start = time.perf_counter()
            setups.append(bench.setup_probe())
            in_probes += time.perf_counter() - probe_start
    while len(setups) < probes:
        setups.append(bench.setup_probe())
    _check_repeats(plain + with_trace)
    for later in with_trace[1:]:
        _require(later.span_counts == with_trace[0].span_counts,
                 "span counts differ between traced runs")
    return plain, with_trace, setups


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _samples_per_s(bench: Bench, outcomes: list[Outcome]) -> float:
    return statistics.median(len(bench.samples) / o.wall_s for o in outcomes)


def end_to_end(bench: Bench, plain: list[Outcome], setup_s: float) -> dict:
    last = plain[-1]
    return {
        "samples_per_s": (_samples_per_s(bench, plain), "samples/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "unparsed_share": (last.counts["unparsed"] / last.attempted, "share"),
    }


def unbounded(last: Outcome, served: Counter, harness_rss_mb: float) -> dict:
    """Figures printed beside the metrics: endpoint cost and served shares.

    endpoint_calls and failed_share are 0 on some workloads by design, so
    no bound can be put on them; they are printed, not gated. The shares
    are of the replies the endpoint served. harness_rss_mb is the peak RSS
    before the first timed run: the part of peak_rss_mb that is the
    benchmark's own (interpreter, imports, seeded plan).
    """
    def share(part: str, other: str) -> float:
        total = served[part] + served[other]
        return served[part] / total if total else 0.0

    return {
        "endpoint_calls": (last.counts["endpoint.attempts"], "count"),
        "unique_requests": (last.counts["endpoint.unique"], "count"),
        "retries": (last.counts["endpoint.faults"], "count"),
        "failed_share": (0.0, "share"),  # the gate fails a run with any failed sample
        "share.verdict_consistent": (share("verdict.consistent", "verdict.inconsistent"),
                                     "share"),
        "share.type_reply_unmatched": (share("type.unmatched", "type.matched"), "share"),
        "share.facts_malformed": (share("facts.malformed", "facts.valid"), "share"),
        "share.latex_ragged": (share("latex.ragged", "latex.clean"), "share"),
        "share.analyzer_reask": (last.counts["reasks"] / last.attempted, "share"),
        "harness_rss_mb": (harness_rss_mb, "MB"),
    }


def per_layer(bench: Bench, plain: list[Outcome], traced: list[Outcome]) -> dict:
    """Per-layer metrics: counts from the traced runs, times as their medians."""
    first = traced[0]
    counts = first.counts

    def med(fn) -> float:
        return statistics.median(fn(o.tracer) for o in traced)

    def ms(name: str):
        return (med(lambda t: t.stats(name).total_s * 1000.0), "ms")

    def self_ms(name: str):
        return (med(lambda t: t.stats(name).self_s * 1000.0), "ms")

    def pct_ms(name: str, q: int):
        return (med(lambda t: t.stats(name).percentile_ms(q)), "ms")

    def calls(name: str):
        return (first.tracer.stats(name).calls, "count")

    def ratio(num: float, den: float):
        return (num / den if den else 0.0, "ratio")

    backend_calls = sum(counts[f"calls.{t}"] for t in PHASE_TAGS)
    hits, misses = counts["replay.hits"], counts["replay.misses"]
    attempts = counts["endpoint.attempts"]
    fingerprints = first.tracer.stats("backends.request_fingerprint").calls
    reports = first.tracer.stats("report.build_report_row").calls
    score_runs = first.tracer.stats("metrics.score_run").calls
    http = "backends.HttpBackend.complete"
    return {
        "cli.load_config.ms": ms("cli.load_config"),
        "cli.build_setup.ms": ms("cli.build_setup"),
        "cli.build_setup.calls": calls("cli.build_setup"),
        "data_model.load_dataset.ms": ms("data_model.load_dataset"),
        "prompts.load_prompt.calls": calls("prompts.load_prompt"),
        "prompts.load_prompt.self_ms": self_ms("prompts.load_prompt"),
        "prompts.render_prompt.self_ms": self_ms("prompts.render_prompt"),
        "backends.request_fingerprint.calls": (fingerprints, "count"),
        "backends.request_fingerprint.self_ms": self_ms("backends.request_fingerprint"),
        "backends.fingerprints_per_call": ratio(fingerprints, backend_calls),
        "backends.replay.hits": (hits, "count"),
        "backends.replay.misses": (misses, "count"),
        "backends.replay.hit_ratio": ratio(hits, hits + misses),
        "backends.replay.append_ms": self_ms("backends.ReplayBackend.complete.miss"),
        "backends.http.complete.p50_ms": pct_ms(http, 50),
        "backends.http.complete.p99_ms": pct_ms(http, 99),
        "backends.http.wait_self_ms": self_ms(http),
        "backends.http.attempts": (attempts, "count"),
        "backends.http.retries": (counts["endpoint.faults"], "count"),
        "backends.http.failed": (first.tracer.stats(http).errors, "count"),
        "backends.http.max_in_flight": (max(o.max_in_flight for o in traced), "count"),
        "backends.http.unique_requests": (counts["endpoint.unique"], "count"),
        "backends.http.unique_ratio": ratio(counts["endpoint.unique"], attempts),
        "consistency.check_consistency.calls": calls("consistency.check_consistency"),
        "consistency.parse_verdict.self_ms": self_ms("consistency.parse_verdict"),
        "interpreter.resolve_question_type.calls": calls("interpreter.resolve_question_type"),
        "interpreter.type_retries": (counts["type_retries"], "count"),
        "interpreter.match_question_type.self_ms": self_ms("interpreter.match_question_type"),
        "interpreter.interpret_visual.self_ms": self_ms("interpreter.interpret_visual"),
        "formal_language.parse_facts.self_ms": self_ms("formal_language.parse_facts"),
        "formal_language.serialize_facts.self_ms": self_ms("formal_language.serialize_facts"),
        "formal_language.check_latex_table.self_ms": self_ms("formal_language.check_latex_table"),
        "formal_language.parse_failures": (
            first.tracer.stats("formal_language.parse_facts").errors, "count"),
        "analyzer.build_analysis_prompt.self_ms": self_ms("analyzer.build_analysis_prompt"),
        "analyzer.parse_analyzer_output.self_ms": self_ms("analyzer.parse_analyzer_output"),
        "analyzer.reasks": (counts["reasks"], "count"),
        "pipeline.detect_errors.p50_ms": pct_ms("pipeline.detect_errors", 50),
        "pipeline.detect_errors.p99_ms": pct_ms("pipeline.detect_errors", 99),
        "pipeline.write_detections.ms": ms("pipeline.write_detections"),
        "calls.phase1": (counts["calls.phase1"], "count"),
        "calls.phase2.type": (counts["calls.phase2.type"], "count"),
        "calls.phase2": (counts["calls.phase2"], "count"),
        "calls.phase3": (counts["calls.phase3"], "count"),
        "metrics.score_run.calls": (score_runs, "count"),
        "metrics.score_run.per_report": ratio(score_runs, reports),
        "metrics.score_run.ms": ms("metrics.score_run"),
        "report.build_report_row.ms": ms("report.build_report_row"),
        "endpoint.post.ms": ms("endpoint.post"),
        "trace.overhead": ratio(_samples_per_s(bench, traced), _samples_per_s(bench, plain)),
    }


def _emit(metrics: dict, attempted: int, extra: dict | None = None) -> None:
    for name, (value, unit) in list(metrics.items()) + list((extra or {}).items()):
        print(f"{name:<45} {value:>16.10g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mathagent" / "__init__.py").is_file():
        print(f"perfbench: no mathagent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workload import API_KEY_ENV

    os.environ[API_KEY_ENV] = "perfbench"

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        primed = bench.prime() if args.workload == "replay-warm" else None
        harness_rss_mb = _peak_rss_mb()
        plain, traced, setups = measure(bench, args.seconds, bool(args.trace))
        attempted = sum(o.attempted for o in plain + traced)
        if args.trace:
            _emit(per_layer(bench, plain, traced), attempted)
        else:
            last = plain[-1]
            served = primed if primed is not None else last.served
            print(f"{'detections_sha256':<45} {last.digest}")
            _emit(end_to_end(bench, plain, statistics.median(setups)), attempted,
                  unbounded(last, served, harness_rss_mb))
        return 0
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed on {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
