"""Spans around calls into the program's public entry points.

The traced run wraps only coarse entry points — the functions and
methods :data:`TARGETS` names — at module or class level, from the
benchmark's own files.  It never patches cache, controller or policy
instances and never enables ``repro.obs`` telemetry, because the
native, batched and fused kernel gates reject both and the traced run
would then measure a different program.

Each call records a span ``[name, start, end, parent, thread, count]``
in memory; :meth:`Tracer.layer_times` folds them into per-layer *self*
time (a span's duration minus the part its child spans cover).  The
timed region itself is a ``bench.region`` span, so its self time is
exactly the wall time no layer accounts for.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

REGION = "bench.region"


def _kernel_span(result) -> str:
    meta = getattr(result, "meta", None) or {}
    return "sim.replay.%s" % meta.get("kernel_used", "unknown")


def _trace_length(args, kwargs) -> int:
    trace = args[1] if len(args) > 1 else kwargs.get("trace")
    return len(trace)


#: (module, owner attribute or None, attribute, span name, rename, count).
#: ``rename`` maps the call's result to the final span name (the replay
#: span is named after the kernel rung that actually ran); ``count``
#: maps the call's arguments to a work count (accesses replayed).
TARGETS = (
    ("repro.sim.runner", None, "run_policy", "sim.runner", None, None),
    ("repro.sim.runner", None, "packed_trace", "sim.runner", None, None),
    ("repro.workloads.registry", "SurrogateWorkload", "build_accesses",
     "workloads.synth", None, None),
    ("repro.trace.packed", "PackedTrace", "from_accesses", "trace.pack",
     None, None),
    ("repro.sim.simulator", "Simulator", "run", "sim.replay",
     _kernel_span, _trace_length),
    ("repro.sim.store", "ResultStore", "load", "sim.store_read", None, None),
    ("repro.sim.store", "ResultStore", "load_payload", "sim.store_read",
     None, None),
    ("repro.sim.store", "ResultStore", "save", "sim.store_write", None,
     None),
    ("repro.sim.store", "ResultStore", "save_payload", "sim.store_write",
     None, None),
    ("repro.sim.resilience", "RunJournal", "create", "sim.parallel.journal",
     None, None),
    ("repro.sim.resilience", "RunJournal", "task_started",
     "sim.parallel.journal", None, None),
    ("repro.sim.resilience", "RunJournal", "task_finished",
     "sim.parallel.journal", None, None),
    ("repro.sim.resilience", "RunJournal", "task_failed",
     "sim.parallel.journal", None, None),
    ("repro.sim.resilience", "RunJournal", "run_finished",
     "sim.parallel.journal", None, None),
    ("repro.analysis.oracle", None, "oracle_report", "analysis.oracle",
     None, None),
    ("repro.service.client", "ServiceClient", "submit",
     "service.submit_rpc", None, None),
    ("repro.service.client", "ServiceClient", "wait", "service.wait_rpc",
     None, None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args,
             _rename=None, _count=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        record = [name, perf_counter(), None,
                  stack[-1] if stack else None,
                  threading.get_ident(), 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if _rename is not None:
            record[0] = _rename(result)
        if _count is not None:
            record[5] = _count(args, kwargs)
        return result

    def _wrap(self, fn, name, rename, count):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, _rename=rename,
                               _count=count, **kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        import importlib

        for module_name, owner_name, attr, name, rename, count in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name
            )
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, name, rename, count)
                )
            else:
                wrapped = self._wrap(raw, name, rename, count)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- aggregation -----------------------------------------------------

    def layer_times(self) -> Dict[str, float]:
        """Self time per span name, summed over all threads."""
        child_time = defaultdict(float)
        for name, start, end, parent, _thread, _count in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _t, _c) in enumerate(
            self.spans
        ):
            if end is not None:
                totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def counts(self, prefix: str) -> int:
        return sum(span[5] for span in self.spans
                   if span[0].startswith(prefix))

    def dump(self, path: Optional[str]) -> None:
        """Write every span as JSON (start-relative seconds)."""
        if not path or not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": name, "start_s": start - origin,
                     "end_s": None if end is None else end - origin,
                     "parent": parent, "thread": thread, "count": count}
                    for name, start, end, parent, thread, count
                    in self.spans
                ],
                handle,
            )
