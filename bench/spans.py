"""In-memory span recorder for the traced benchmark run.

Hooks replace loamsim functions at the module attributes where their callers
look them up, so a traced call records one span (name, start, end, parent)
and the untraced code is untouched. Spans stay in per-thread lists until the
run ends. A span opened in a thread with no open span of its own (a run_sweep
worker) takes the innermost open span of the thread that entered the recorder as its parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# (module, attribute, span name). The span name's first part is the layer.
# Entries under loamsim.* name the bindings run_sweep uses internally.
HOOKS = (
    ("loamsim", "run_sweep", "simulate.run_sweep"),
    ("loamsim", "ChannelState", "channel.ChannelState"),
    ("loamsim", "effective_min_distance", "channel.effective_min_distance"),
    ("loamsim", "design_loam", "constellations.design_loam"),
    ("loamsim", "build_detector", "detector.build_detector"),
    ("loamsim", "detect", "detector.detect"),
    ("loamsim", "oracle_ray_search", "oracle.oracle_ray_search"),
    ("loamsim", "oracle_free_search_m2", "oracle.oracle_free_search_m2"),
    ("loamsim.simulate", "ChannelState", "channel.ChannelState"),
    ("loamsim.simulate", "snr_db_to_sigma2", "channel.snr_db_to_sigma2"),
    ("loamsim.simulate", "design_loam", "constellations.design_loam"),
    ("loamsim.simulate", "gen_pam", "constellations.gen_pam"),
    ("loamsim.simulate", "gen_qam", "constellations.gen_qam"),
    ("loamsim.simulate", "gen_psk", "constellations.gen_psk"),
    ("loamsim.simulate", "spacing_strong", "constellations.spacing_strong"),
    (
        "loamsim.simulate",
        "strong_reference_threshold",
        "constellations.strong_reference_threshold",
    ),
    ("loamsim.simulate", "build_detector", "detector.build_detector"),
    ("loamsim.simulate", "detect", "detector.detect"),
)


def _detect_observations(args, kwargs) -> int:
    return int(np.size(kwargs.get("z", args[1] if len(args) > 1 else ())))


# Work counted per span, for spans whose cost scales with an argument.
_WORK = {"detector.detect": _detect_observations}


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a root span
    name: str
    start_ns: int
    end_ns: int
    thread: int
    work: int


class _ThreadLog:
    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.thread = threading.get_ident()


class SpanRecorder:
    """Records spans around hooked calls; use as a context manager."""

    def __init__(self, hooks=HOOKS):
        self._hooks = hooks
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._owner: _ThreadLog | None = None
        self._installed: list[tuple[object, str, object]] = []
        self.not_measured: list[str] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, name: str, fn):
        count = _WORK.get(name)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            log = self._log()
            span_id = next(self._ids)
            if log.stack:
                parent = log.stack[-1]
            else:
                owner_stack = self._owner.stack
                parent = owner_stack[-1] if owner_stack else 0
            log.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                log.stack.pop()
                work = count(args, kwargs) if count else 1
                log.spans.append(Span(span_id, parent, name, start, end, log.thread, work))

        return traced

    def __enter__(self):
        self._owner = self._log()
        self.not_measured = []
        for module_name, attr, name in self._hooks:
            target = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.not_measured.append(target)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.not_measured.append(target)
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        return False

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for log in self._logs for s in log.spans]


def _covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.span_id: (s.end_ns - s.start_ns)
        - _covered_ns(children.get(s.span_id, ()), s.start_ns, s.end_ns)
        for s in spans
    }


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, and counted work."""
    own = self_times_ns(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["total_s"] += (s.end_ns - s.start_ns) * 1e-9
        row["self_s"] += own[s.span_id] * 1e-9
        row["work"] += s.work
    return out
