"""Traced mode: spans around the program's public layer functions.

The wrappers are installed only for a traced run and removed afterwards.
Each call records a span (layer name, start, end, parent span, thread) in
memory; a layer's time is the sum of its spans' self time (duration minus
the time covered by child spans), so on a single thread the layer times
plus ``unattributed.s`` add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path).  Free functions are also rebound in
#: every loaded ``repro`` module that imported them by name.
LAYERS: List[Tuple[str, str, str]] = [
    ("compile", "repro.headerspace.match", "MatchCompiler.compile"),
    ("mr2.map", "repro.core.mr2", "map_phase"),
    ("mr2.reduce", "repro.core.mr2", "aggregate"),
    ("apply", "repro.core.inverse_model", "InverseModel.apply_overwrites"),
    ("ce2d.dispatch", "repro.ce2d.dispatcher", "CE2DDispatcher.receive"),
    ("ce2d.loop", "repro.ce2d.loop_detector", "LoopDetector.on_model_update"),
    ("ce2d.regex", "repro.ce2d.regex_verifier", "RegexVerifier.on_model_update"),
    ("ce2d.regex", "repro.ce2d.regex_verifier", "CoverVerifier.on_model_update"),
    ("wire.encode", "repro.bdd.wire", "export_blob"),
    ("wire.encode", "repro.bdd.wire", "export_delta_blob"),
    ("wire.decode", "repro.bdd.wire", "import_blob"),
    ("wire.decode", "repro.bdd.wire", "import_delta_blob"),
    ("serve.publish", "repro.serve.snapshots", "isolate_view"),
    ("serve.publish", "repro.serve.snapshots", "SnapshotStore.publish"),
    ("serve.query.eval", "repro.serve.queries", "ReachabilityQuery.evaluate"),
    ("serve.query.eval", "repro.serve.queries", "LoopQuery.evaluate"),
    ("serve.query.eval", "repro.serve.queries", "WaypointQuery.evaluate"),
    ("fleet.submit", "repro.fleet.supervisor", "FleetSupervisor.submit"),
    ("fleet.wait", "repro.fleet.supervisor", "FleetSupervisor.wait"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "child_time")

    def __init__(self, name: str, start: float, parent: Optional["Span"], thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """In-memory span store plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = {}

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, layer: str, fn: Callable, path: str) -> Callable:
        before, after = BEFORE.get(path), AFTER.get(path)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            parent = getattr(local, "top", None)
            span = Span(layer, clock(), parent, threading.get_ident())
            local.top = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                local.top = parent
                if parent is not None:
                    parent.child_time += span.end - span.start
                with self._lock:
                    self.spans.append(span)
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self) -> None:
        for layer, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(layer, original, path)
            targets = [owner]
            if not isinstance(owner, type):  # rebind imported names too
                targets = [
                    m for name, m in list(sys.modules.items())
                    if name.startswith("repro") and getattr(m, attr, None) is original
                ]
            for target in targets:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- results --------------------------------------------------------
    def layer_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out

    def covered_seconds(self, start: float, end: float) -> float:
        """Wall time in [start, end] covered by at least one span."""
        intervals = sorted(
            (max(s.start, start), min(s.end, end)) for s in self.spans
            if s.parent is None
        )
        covered, cursor = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "id": ids[id(s)],
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                "thread": s.thread,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(extra, spans=rows), f)


def _count_ecs_in(tracer: Tracer, args) -> None:
    tracer.count("apply.ecs_in", len(args[0]))


def _count_deltas(tracer: Tracer, args) -> None:
    tracer.count("ce2d.deltas", len(args[1]))


def _count_bytes(tracer: Tracer, result) -> None:
    tracer.count("wire.bytes", len(result))


BEFORE: Dict[str, Callable] = {
    "InverseModel.apply_overwrites": _count_ecs_in,
    "LoopDetector.on_model_update": _count_deltas,
    "RegexVerifier.on_model_update": _count_deltas,
    "CoverVerifier.on_model_update": _count_deltas,
}
AFTER: Dict[str, Callable] = {
    "export_blob": _count_bytes,
    "export_delta_blob": _count_bytes,
}
