"""Spans and counters around the public functions of profforce.

The tracer is installed from outside the package: it replaces public
names (module functions and class methods) with thin wrappers, in every
``profforce`` module that holds a reference to them.  A name the
package no longer has is reported as absent, so the benchmark keeps
running when later changes merge or remove functions.

One function is the workload's *operation* (``engine.train_step`` or
``cli.main``).  Every operation is timed.  While it runs, calls to the
other wrapped names are counted, and ``Tape.__exit__`` adds the node
count of the closing tape.  Those counters are cheap and run in every
mode; they give the work-mix counts.

With span recording on, each wrapped call also records a span (name,
start, end, parent) in memory.  Operations alternate: even-numbered ones
record spans for everything beneath them, odd-numbered ones record only
their own span.  The two halves share one time window and one work mix,
so their p50 difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

# (module, attribute path) of every name the benchmark wraps.
TARGETS = (
    ("tensor", "backward"),
    ("tensor", "Tape.__exit__"),
    ("nets", "bigru_encode"),
    ("nets", "mlp_forward"),
    ("engine", "train_step"),
    ("engine", "scheduled_sampling_unroll"),
    ("engine", "unroll_free_running"),
    ("engine", "unroll_teacher_forced"),
    ("engine", "discriminate"),
    ("optim", "adam_step"),
    ("trainer", "Trainer.__init__"),
    ("trainer", "Trainer.run"),
    ("trainer", "Trainer.validate"),
    ("trainer", "generator_from_checkpoint"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("data", "synth_copy_task"),
    ("data", "synth_raster_task"),
    ("data", "raster_dataset"),
    ("data", "load_corpus"),
    ("data", "chunk_sequences"),
    ("diagnostics", "collect_state_clouds"),
    ("cli", "main"),
)


class Tracer:
    """Counters, operation timings and (with ``spans``) spans for one worker."""

    def __init__(self, op: str, spans: bool):
        self.op = op                  # span name of the workload's operation
        self.spans_enabled = spans
        self.spans: list = []         # (name, start, end, parent index or -1)
        self.op_ms: list[float] = []
        self.op_traced: list[bool] = []
        self.calls_in_op: Counter = Counter()
        self.tape_nodes_in_op = 0
        self.saved_bytes: list[int] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._recording = spans
        self._in_op = False
        self._paused = 0

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "profforce") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        # Keyed by id: module attributes include unhashable values such as __all__.
        wrappers = {}  # id(original function) -> (original, wrapper)
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules.get(f"{package}.{mod_name}")
            cls_name, _, attr = path.rpartition(".")
            if owner is not None and cls_name:
                owner = vars(owner).get(cls_name)
            if owner is None or attr not in vars(owner):
                self.absent.append(name)
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if cls_name:
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        # A function imported by name into other modules is replaced there too.
        for m in modules:
            for key, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, key, hit[1])

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark itself (checks, probes) stay out of the trace."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        is_op = name == self.op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if tracer._in_op:
                tracer.calls_in_op[name] += 1
            if is_op:
                result = tracer._run_op(name, fn, args, kwargs)
            elif tracer._recording:
                result = tracer._span(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            tracer._after(name, args, kwargs)
            return result

        return wrapper

    def _after(self, name: str, args, kwargs) -> None:
        if name == "tensor.Tape.__exit__" and self._in_op:
            self.tape_nodes_in_op += len(args[0])
        elif name == "checkpoint.save_checkpoint":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.saved_bytes.append(os.path.getsize(path))

    def _span(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _run_op(self, name: str, fn, args, kwargs):
        traced = self.spans_enabled and len(self.op_ms) % 2 == 0
        outer = self._recording
        self._in_op, self._recording = True, traced
        t0 = time.perf_counter()
        try:
            if traced:
                return self._span(name, fn, args, kwargs)
            if self.spans_enabled:  # kept apart so that its self time is not mistaken for the op's
                return self._span(name + ":untraced", fn, args, kwargs)
            return fn(*args, **kwargs)
        finally:
            self.op_ms.append((time.perf_counter() - t0) * 1e3)
            self.op_traced.append(traced)
            self._in_op, self._recording = False, outer

    # -- results ----------------------------------------------------------------

    def count_per_op(self, name: str) -> float:
        return self.calls_in_op[name] / len(self.op_ms) if self.op_ms else 0.0

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("id,name,start_ms,end_ms,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{(start - t0) * 1e3:.4f},{(end - t0) * 1e3:.4f},{parent}\n")


class SpanSummary:
    """Totals and self times per span name, split by whether a span ran inside an operation."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        op_of = [-1] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                op_of[i] = op_of[parent]
            if name == tracer.op:
                op_of[i] = i
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.count: Counter = Counter()
        self.total_in_op: Counter = Counter()
        self.self_in_op: Counter = Counter()
        self.count_in_op: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            dur, own = (end - start) * 1e3, (end - start - child_time[i]) * 1e3
            self.total[name] += dur
            self.self_time[name] += own
            self.count[name] += 1
            if op_of[i] >= 0:
                self.total_in_op[name] += dur
                self.self_in_op[name] += own
                self.count_in_op[name] += 1
        self.traced_ops = sum(tracer.op_traced)

    def per_op(self, name: str, self_time: bool = False) -> float:
        """Milliseconds per traced operation spent in ``name`` beneath operations."""
        if not self.traced_ops:
            return 0.0
        table = self.self_in_op if self_time else self.total_in_op
        return table[name] / self.traced_ops

    def mean_in_op(self, name: str) -> float:
        n = self.count_in_op[name]
        return self.total_in_op[name] / n if n else 0.0

    def mean(self, name: str) -> float:
        n = self.count[name]
        return self.total[name] / n if n else 0.0
