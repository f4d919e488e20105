"""Spans around the program's public functions, installed from outside.

The program has no tracing of its own, so a traced run replaces each
named function with a wrapper at every place it is bound: its defining
module and every mathagent module that imported it by name (load_prompt
is bound in consistency, interpreter and analyzer; step_accuracy and its
siblings in report). Methods are wrapped on their class. Uninstalling
puts the originals back, so untraced runs execute the program unchanged.

Spans nest per thread; a span's self time is its duration minus the time
covered by its child spans. Spans are aggregated per name in memory.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, attribute path) of every function a traced run wraps
TRACED = (
    ("cli", "load_config"),
    ("cli", "build_setup"),
    ("data_model", "load_dataset"),
    ("prompts", "load_prompt"),
    ("prompts", "render_prompt"),
    ("backends", "request_fingerprint"),
    ("backends", "HttpBackend.complete"),
    ("backends", "ReplayBackend.complete"),
    ("consistency", "check_consistency"),
    ("consistency", "parse_verdict"),
    ("interpreter", "resolve_question_type"),
    ("interpreter", "match_question_type"),
    ("interpreter", "interpret_visual"),
    ("formal_language", "parse_facts"),
    ("formal_language", "serialize_facts"),
    ("formal_language", "check_latex_table"),
    ("analyzer", "build_analysis_prompt"),
    ("analyzer", "parse_analyzer_output"),
    ("pipeline", "detect_errors"),
    ("pipeline", "write_detections"),
    ("metrics", "score_run"),
    ("metrics", "step_accuracy"),
    ("metrics", "category_accuracy"),
    ("metrics", "overall_micro"),
    ("report", "build_report_row"),
)


@dataclass
class SpanStats:
    durations: list[float] = field(default_factory=list)
    self_s: float = 0.0
    errors: int = 0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return sum(self.durations)

    def percentile_ms(self, q: int) -> float:
        """q-th percentile of span durations (the one duration, or 0, below 2)."""
        if len(self.durations) < 2:
            return sum(self.durations) * 1000.0
        return statistics.quantiles(self.durations, n=100, method="inclusive")[q - 1] * 1000.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def wrap(self, name: str, fn, classify=None):
        """fn, recording a span named `name` (plus a suffix classify picks)."""
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            failed = False
            result = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = name if classify is None or failed else name + classify(result)
                with self._lock:
                    span = self.spans.setdefault(key, SpanStats())
                    span.durations.append(elapsed)
                    span.self_s += elapsed - children
                    span.errors += failed

        return traced

    def install(self, package: str = "mathagent") -> None:
        """Wrap every TRACED function wherever a module of `package` binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attr in TRACED:
            home = sys.modules.get(f"{package}.{module_name}")
            if home is None:
                continue
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is None:
                    continue
                classify = _hit_or_miss if cls_name == "ReplayBackend" else None
                self._patch(cls, method, self.wrap(name, original, classify))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def _hit_or_miss(response) -> str:
    return ".hit" if getattr(response, "from_cache", False) else ".miss"
