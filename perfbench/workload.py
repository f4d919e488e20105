"""Seeded inputs, the fake model endpoint, and the outputs they imply.

The seed picks, with exact counts, which imaged samples lose their
question_type label, which inline images become file refs, and the reply
the fake endpoint gives every request. From the same plan this module
derives the predictions, call counts and report rows a correct program
must produce, without calling any of the program's scoring code.
"""

from __future__ import annotations

import base64
import csv
import dataclasses
import hashlib
import io
import json
import random
import re
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mathagent.synth import TINY_PNG_BASE64, synthetic_reference_dataset

MODEL_ID = "bench-model"
API_KEY_ENV = "PERFBENCH_API_KEY"
# Port 9 on loopback refuses at once: if the fake is ever bypassed, the run
# fails its gate instead of reaching a real host.
BASE_URL = "http://127.0.0.1:9/v1"

WORKERS = 2
RATE_LIMIT = 2
MAX_ATTEMPTS = 3
BACKOFF_BASE_MS = 2
FAULT_SHARE = 0.02  # share of endpoint attempts answered with 429 or 503

# The call mix is the re-anchor profile in ROADMAP.md: 3,500 backend calls
# per 2,500 samples in mode full and 13,500 over the ablate grid. That
# profile is what a scripted backend gives when every imaged sample is
# inconsistent, every sample is labeled and every analyzer reply parses at
# once. The shares below exist only to exercise parser paths, so they are
# small, and they are balanced: every extra type call or re-ask is offset by
# one consistent verdict, which skips a phase-2 call, so mode full still
# makes exactly 3,500 calls.
UNLABELED_SHARE = 0.05  # of imaged samples (500), drawn from the inconsistent
TYPE_RETRY_SHARE = 0.20  # of unlabeled samples: first type reply names no type
REASK_OK_SHARE = 0.008  # of all samples: first analyzer reply malformed, re-ask parses
UNPARSED_SHARE = 0.002  # of all samples: the analyzer reply and its re-ask malformed
FILE_REF_SHARE = 0.05  # of imaged samples; no effect on calls
MALFORMED_FACTS_SHARE = 0.10  # of imaged plane-geometry samples; no effect on calls
RAGGED_LATEX_SHARE = 0.10  # of imaged diagram samples; no effect on calls
# scoring inputs only, so that every category has hits and misses
STEP_HIT_SHARE = 0.60
CATEGORY_HIT_SHARE = 0.55

CATEGORIES = ("VIS", "CAL", "REAS", "KNOW", "MIS")
LONG_NAMES = {
    "VIS": "Visual Perception Error",
    "CAL": "Calculation Error",
    "REAS": "Reasoning Error",
    "KNOW": "Knowledge Error",
    "MIS": "Misinterpretation of the Question",
}
TYPE_REPLIES = {
    "plane_geometry": "Plane geometry.",
    "solid_geometry": "This is a solid geometry problem.",
    "diagram": "diagram",
    "algebra": "Algebra",
    "math_commonsense": "math commonsense",
}
MODES = ("full", "no_validator", "no_interpreter", "no_analyzer")


@dataclasses.dataclass(frozen=True)
class SamplePlan:
    """What the seed decided for one sample, and the replies that follow."""

    n_steps: int
    gt_step: int
    gt_category: str
    imaged: bool
    true_type: str
    labeled: bool
    file_ref: bool
    consistent: bool
    type_retry: bool
    facts_ok: bool
    latex_ok: bool
    answer: str  # "clean", "reask_ok" or "unparsed"
    step: int
    category: str


def _pick(rng: random.Random, population: list[int], share: float) -> set[int]:
    return set(rng.sample(population, round(share * len(population))))


def make_plan(seed: int):
    """The dataset samples and one SamplePlan per sample, both in order."""
    rng = random.Random(seed)
    samples = synthetic_reference_dataset()
    everyone = list(range(len(samples)))
    imaged = [i for i, s in enumerate(samples) if s.image is not None]
    unlabeled = _pick(rng, imaged, UNLABELED_SHARE)
    type_retry = _pick(rng, sorted(unlabeled), TYPE_RETRY_SHARE)
    shuffled = everyone[:]
    rng.shuffle(shuffled)
    n_reask, n_unparsed = (round(s * len(everyone)) for s in (REASK_OK_SHARE, UNPARSED_SHARE))
    reask_ok = set(shuffled[:n_reask])
    unparsed = set(shuffled[n_reask:n_reask + n_unparsed])
    # each consistent verdict skips one phase-2 call, which offsets one extra
    # type call or re-ask: mode full stays at 3,500 calls
    n_consistent = len(unlabeled) + len(type_retry) + n_reask + n_unparsed
    consistent = set(rng.sample([i for i in imaged if i not in unlabeled], n_consistent))
    file_refs = _pick(rng, imaged, FILE_REF_SHARE)
    plane = [i for i in imaged if samples[i].question_type.value == "plane_geometry"]
    diagram = [i for i in imaged if samples[i].question_type.value == "diagram"]
    bad_facts = _pick(rng, plane, MALFORMED_FACTS_SHARE)
    ragged = _pick(rng, diagram, RAGGED_LATEX_SHARE)
    step_hits = _pick(rng, everyone, STEP_HIT_SHARE)
    cat_hits = _pick(rng, everyone, CATEGORY_HIT_SHARE)

    plans = []
    for i, s in enumerate(samples):
        gt_cat = s.gt_error_category.value
        n = len(s.steps)
        plans.append(
            SamplePlan(
                n_steps=n,
                gt_step=s.gt_error_step,
                gt_category=gt_cat,
                imaged=s.image is not None,
                true_type=s.question_type.value,
                labeled=i not in unlabeled,
                file_ref=i in file_refs,
                consistent=i in consistent,
                type_retry=i in type_retry,
                facts_ok=i not in bad_facts,
                latex_ok=i not in ragged,
                answer="unparsed" if i in unparsed else "reask_ok" if i in reask_ok else "clean",
                step=s.gt_error_step if i in step_hits else s.gt_error_step % n + 1,
                category=(
                    gt_cat if i in cat_hits
                    else CATEGORIES[(CATEGORIES.index(gt_cat) + 1) % len(CATEGORIES)]
                ),
            )
        )
    return samples, plans


def write_inputs(samples, plans, workdir: Path) -> Path:
    """Write the dataset JSONL (and the image files it refers to)."""
    image_dir = workdir / "images"
    image_dir.mkdir(parents=True, exist_ok=True)
    png = base64.b64decode(TINY_PNG_BASE64)
    path = workdir / "dataset.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s, plan in zip(samples, plans):
            obj = {"id": s.id, "question_text": s.question_text}
            if plan.imaged and plan.file_ref:
                image_path = image_dir / f"{s.id}.png"
                image_path.write_bytes(png)
                obj["image"] = {"kind": "file_path", "value": str(image_path.resolve())}
            elif plan.imaged:
                obj["image"] = {
                    "kind": s.image.kind.value,
                    "value": s.image.value,
                    "media_type": s.image.media_type,
                }
            if plan.labeled:
                obj["question_type"] = plan.true_type
            obj.update(
                correct_answer=s.correct_answer,
                incorrect_answer=s.incorrect_answer,
                steps=list(s.steps),
                gt_error_step=s.gt_error_step,
                gt_error_category=plan.gt_category,
            )
            fh.write(json.dumps(obj) + "\n")
    return path


def write_config(workdir: Path, cache: bool) -> Path:
    """A mode-full run config with every phase on the (faked) HTTP endpoint."""
    spec = {
        "kind": "http",
        "base_url": BASE_URL,
        "api_key_env": API_KEY_ENV,
        "model_id": MODEL_ID,
        "rate_limit": RATE_LIMIT,
        "retry": {"max_attempts": MAX_ATTEMPTS, "backoff_base_ms": BACKOFF_BASE_MS},
    }
    config = {
        "dataset": "dataset.jsonl",
        "mode": "full",
        "workers": WORKERS,
        "backends": {"phase1": spec, "phase2": spec, "phase3": spec},
        "output_dir": "out",
    }
    if cache:
        config["cache_path"] = "cache.jsonl"
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


# --- the fake endpoint -------------------------------------------------------

_QUESTION_RE = re.compile(r"Question (\d+):")
_ANSWER_RE = re.compile(r"Correct answer: (\d+)\n")


def _unit(seed: int, digest: bytes, attempt: int) -> float:
    h = hashlib.sha256(b"%d:%d:" % (seed, attempt) + digest).digest()
    return int.from_bytes(h[:8], "big") / 2.0**64


class _Response:
    """The part of requests.Response the default transport reads.

    No headers: a 429 carries no Retry-After.
    """

    headers: dict = {}

    def __init__(self, status_code: int, text: str):
        self.status_code = status_code
        self.text = text


class FakeEndpoint:
    """A chat-completions server, installed as `requests.post`.

    Every reply follows from the sample plan and the request text. Each
    attempt takes latency_s. Attempt k on a request body faults (429 or
    503) when a hash of (seed, body, k) falls under FAULT_SHARE, unless
    attempt k-1 on that body faulted: two faults never follow each other,
    so no request exhausts MAX_ATTEMPTS and no sample fails.
    """

    def __init__(self, plans, seed: int, latency_s: float):
        self.plans = plans
        self.seed = seed
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.attempts = 0
        self.faults = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.served: Counter = Counter()
        self._bodies: dict[bytes, tuple[int, bool]] = {}

    @property
    def unique_requests(self) -> int:
        return len(self._bodies)

    def post(self, url, headers=None, json=None, timeout=None):
        started = time.perf_counter()
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            digest = hashlib.sha256(_json_dumps(json).encode("utf-8")).digest()
            with self._lock:
                self.attempts += 1
                attempt, faulted_before = self._bodies.get(digest, (0, False))
                attempt += 1
                fault = not faulted_before and _unit(self.seed, digest, attempt) < FAULT_SHARE
                self._bodies[digest] = (attempt, fault)
                if fault:
                    self.faults += 1
            if fault:
                status, text = (429 if digest[0] % 2 else 503), '{"error": "busy"}'
            else:
                status, text = self._reply(json)
            remaining = self.latency_s - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
            return _Response(status, text)
        finally:
            with self._lock:
                self.in_flight -= 1

    def _reply(self, body) -> tuple[int, str]:
        try:
            prompt = next(
                part["text"] for part in body["messages"][-1]["content"] if part["type"] == "text"
            )
        except (KeyError, IndexError, TypeError, StopIteration):
            prompt = ""
        kind, content = reply_for(prompt, self.plans)
        if content is None:
            return 400, '{"error": "unrecognised request"}'
        with self._lock:
            self.served[kind] += 1
        return 200, _json_dumps(
            {
                "choices": [
                    {"message": {"role": "assistant", "content": content}, "finish_reason": "stop"}
                ]
            }
        )


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def reply_for(prompt: str, plans) -> tuple[str, str | None]:
    """(property served, reply text) for one prompt; text None if unknown."""
    if prompt.startswith("A student solved a math problem"):
        m = _ANSWER_RE.search(prompt)
        if m is None or int(m.group(1)) >= len(plans):
            return "unknown", None
        i = int(m.group(1))
        plan = plans[i]
        reask = "Format reminder:" in prompt
        if plan.answer == "unparsed" or (plan.answer == "reask_ok" and not reask):
            return "answer.malformed", _MALFORMED_ANSWERS[i % len(_MALFORMED_ANSWERS)].format(
                k=plan.n_steps + 5
            )
        template = _ANSWERS[i % len(_ANSWERS)]
        return "answer.clean", template.format(
            k=plan.step, short=plan.category, long=LONG_NAMES[plan.category]
        )
    m = _QUESTION_RE.search(prompt)
    if m is None or int(m.group(1)) >= len(plans):
        return "unknown", None
    i = int(m.group(1))
    plan = plans[i]
    if prompt.startswith("You are shown the text"):
        if plan.consistent:
            return "verdict.consistent", _CONSISTENT[i % len(_CONSISTENT)]
        return "verdict.inconsistent", _INCONSISTENT[i % len(_INCONSISTENT)]
    if prompt.startswith("Classify the math problem"):
        if plan.type_retry and "Reply with exactly one of:" not in prompt:
            return "type.unmatched", "Hard to say from this picture."
        return "type.matched", TYPE_REPLIES[plan.true_type]
    if prompt.startswith("Transcribe the geometric configuration"):
        if plan.facts_ok:
            return "facts.valid", _FACTS[i % len(_FACTS)].format(a=30 + i % 60, n=1 + i % 9)
        return "facts.malformed", "Triangle(A, B, C), Angle(BAC 45"
    if prompt.startswith("Transcribe the table"):
        if plan.latex_ok:
            return "latex.clean", "\\begin{tabular}{cc}\nx & y \\\\\n1 & %d \\\\\n\\end{tabular}" % i
        return "latex.ragged", "\\begin{tabular}{cc}\nx & y \\\\\n1 & 2 & %d \\\\\n\\end{tabular}" % i
    if prompt.startswith("Describe the attached image"):
        return "caption", f"A figure for question {i} with points A, B and C on a line."
    return "unknown", None


_CONSISTENT = ("CONSISTENT", "Consistent.", "The text covers the figure: CONSISTENT")
_INCONSISTENT = (
    "NOT_CONSISTENT",
    "Inconsistent.",
    "The image adds side lengths; the text is not consistent with it.",
)
_FACTS = (
    "Triangle(A, B, C), Angle(BAC, {a}), Line(AB, {n})",
    "Triangle( A,B ,C ),Angle(BAC,{a}.0) , Line(AB,{n})",
    "Circle(O, {n}), Point(A), Perpendicular(AB, CD)",
)
_ANSWERS = (
    "Error Step: #{k}\nError Category: {long}",
    "Error Step: {k}\nError Category: {short}",
    "Error step: #{k}\nError category: {long}.",
)
_MALFORMED_ANSWERS = (
    "I think the student slipped somewhere in the middle.",
    "Error Step: #{k}\nError Category: {{unclear}}",
)


# --- the outputs a correct program produces ----------------------------------


def expected_prediction(plan: SamplePlan) -> tuple[int | None, str | None]:
    if plan.answer == "unparsed":
        return None, None
    return plan.step, plan.category


def expected_calls(plans, mode: str) -> dict[str, int]:
    """Backend calls per phase tag in one mode, as call_counts reports them."""
    calls = Counter()
    for p in plans:
        if p.imaged and mode != "no_validator":
            calls["phase1"] += 1
        if p.imaged and (mode == "no_validator" or not p.consistent):
            calls["phase2"] += 1
            if mode != "no_interpreter" and not p.labeled:
                calls["phase2.type"] += 1 + p.type_retry
        calls["phase3"] += 1 if p.answer == "clean" else 2
    return dict(calls)


def _cell(value: Fraction) -> str:
    """Half-up rounding to 2 decimals, rendered the way report.csv shows it."""
    hundredths = (value * 100 + Fraction(1, 2)).__floor__()
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def expected_row(plans) -> list[str]:
    """The step..average cells of a report row over these predictions."""
    n = len(plans)
    step_hits = sum(expected_prediction(p)[0] == p.gt_step for p in plans)
    totals, hits = Counter(), Counter()
    for p in plans:
        totals[p.gt_category] += 1
        hits[p.gt_category] += expected_prediction(p)[1] == p.gt_category
    step = Fraction(100 * step_hits, n)
    overall = Fraction(100 * sum(hits.values()), n)
    cats = [_cell(Fraction(100 * hits[c], totals[c])) if totals[c] else "" for c in CATEGORIES]
    return [_cell(step)] + cats + [_cell(overall), _cell((step + overall) / 2)]


def expected_report_csv(plans) -> str:
    return _csv(["model", "step", "vis", "cal", "reas", "know", "mis", "overall", "average"],
                [[MODEL_ID] + expected_row(plans)])


def expected_ablation_csv(plans) -> str:
    header = ["mode", "step", "vis", "cal", "reas", "know", "mis", "overall", "average",
              "calls_phase1", "calls_phase2_type", "calls_phase2", "calls_phase3"]
    row = expected_row(plans)
    rows = []
    for mode in MODES:
        calls = expected_calls(plans, mode)
        rows.append([mode] + row + [str(calls.get(t, 0))
                                    for t in ("phase1", "phase2.type", "phase2", "phase3")])
    return _csv(header, rows)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
