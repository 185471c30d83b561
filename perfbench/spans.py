"""Span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: :func:`install`
replaces public entry points of the simulator's modules with thin
wrappers that time each call.  Nothing under ``src/`` is edited.

* Wrappers are installed in the benchmark process before any worker is
  forked, so sweep-pool and fleet workers inherit them.  Each process
  appends its closed spans to ``spans-<pid>.jsonl`` in the trace
  directory whenever its span stack empties (a forked worker leaves via
  ``os._exit``, so nothing can wait for an exit hook).
* :func:`load` merges every per-pid file; :func:`self_times` gives each
  span's duration minus its children's; :func:`attribute` splits the
  benchmark process's wall-clock among the spans busy at each instant;
  :func:`chrome_trace` writes Chrome trace-event JSON.

Workload generation is consumed lazily, interleaved with its consumer,
so its span is accumulated: it starts at the first instruction and
lasts as long as the generator itself ran.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: spans whose own time is waiting for workers, not work: they count in
#: the attribution only while no other span is busy
WAIT_SPANS = ("parallel.run_points", "fleet.coordinator_run")

#: span name -> layer (module) it belongs to
LAYER_OF = {
    "workloads.generate": "workloads.generator",
    "trace_codec.encode": "workloads.trace_codec",
    "trace_codec.decode": "workloads.trace_codec",
    "trace_codec.materialize": "workloads.trace_codec",
    "cache.trace_get": "harness.cache",
    "cache.trace_put": "harness.cache",
    "cache.result_get": "harness.cache",
    "cache.result_put": "harness.cache",
    "codegen.load_kernel": "codegen",
    "pipeline.simulate": "pipeline",
    "pipeline.init": "pipeline",
    "pipeline.run": "pipeline",
    "sampling.simulate": "sampling",
    "sampling.window": "sampling",
    "sampling.skim": "sampling",
    "sampling.fast_forward": "sampling",
    "analysis.figure1": "analysis",
    "analysis.figure2": "analysis",
    "analysis.figure3": "analysis",
    "analysis.figure9": "analysis",
    "area.table1": "area",
    "area.table2": "area",
    "area.table3": "area",
    "parallel.run_points": "harness.parallel",
    "fleet.coordinator_run": "fleet",
    "fleet.drain": "fleet",
    "fleet.stop": "fleet",
}


class Recorder:
    """Span stacks (one per thread) and a buffer flushed to a per-pid
    file."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # a forked child inherits the parent's open spans and buffer;
        # neither is its own
        self.pid = os.getpid()
        self.local = threading.local()
        self.lock = threading.Lock()
        self.buffer: list[str] = []
        self.count = 0

    @property
    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
            #: open sampled simulations: a Processor.run under one is a
            #: sampling window, not an exact run
            self.local.sampled = 0
        return stack

    def current(self) -> int:
        stack = self.stack
        return stack[-1] if stack else -1

    def new_id(self) -> int:
        with self.lock:
            self.count += 1
            return self.count

    def open(self) -> int:
        sid = self.new_id()
        self.stack.append(sid)
        return sid

    def close(self, sid: int, name: str, t0: float, t1: float,
              args: dict) -> None:
        self.stack.pop()
        self.add(sid, self.current(), name, t0, t1, args)

    def add(self, sid: int, parent: int, name: str, t0: float, t1: float,
            args: dict) -> None:
        line = json.dumps([self.pid, sid, parent, name, t0, t1, args],
                          separators=(",", ":"))
        with self.lock:
            self.buffer.append(line)
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        with self.lock:
            if not self.buffer:
                return
            data = ("\n".join(self.buffer) + "\n").encode()
            self.buffer = []
            fd = os.open(self.out_dir / f"spans-{self.pid}.jsonl",
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, data)
            finally:
                os.close(fd)


def _wrap(recorder: Recorder, fn, name: str, note=None):
    """``fn`` timed as span ``name``; ``note(result, args, kwargs)`` adds
    span arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = recorder.open()
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            extra = note(result, args, kwargs) if note else {}
            recorder.close(sid, name, t0, t1, extra)

    return wrapper


def _wrap_iter(recorder: Recorder, fn, name):
    """``__iter__`` wrapper accumulating the time spent inside the
    generator, emitted as one span when the iteration ends."""

    @functools.wraps(fn)
    def wrapper(self):
        inner = fn(self)
        spent = 0.0
        count = 0
        first = None
        parent = recorder.current()
        clock = time.perf_counter
        try:
            while True:
                t0 = clock()
                if first is None:
                    first = t0
                try:
                    item = next(inner)
                except StopIteration:
                    spent += clock() - t0
                    return
                spent += clock() - t0
                count += 1
                yield item
        finally:
            if first is not None:
                recorder.add(recorder.new_id(), parent, name, first,
                             first + spent, {"insts": count})

    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind every module-global reference to ``original`` inside the
    simulator's modules (``from x import f`` copies the binding)."""
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _patch_function(recorder, module, attr, name, note=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, _wrap(recorder, original, name, note))


def _patch_method(recorder, cls, attr, name, note=None) -> None:
    setattr(cls, attr, _wrap(recorder, cls.__dict__[attr], name, note))


def _hit(result, _args, _kwargs):
    return {"hit": result is not None}


def _len(result, _args, _kwargs):
    return {"insts": len(result) if result is not None else 0}


def _insts(result, _args, _kwargs):
    return {"insts": result or 0}


def install(out_dir: Path) -> Recorder:
    """Wrap the simulator's public entry points; returns the recorder.

    The imports load every package that re-binds a patched function
    (``repro.harness``, ``repro.fleet``, ``repro.codegen``,
    ``repro.sampling``), so :func:`_replace_everywhere` reaches them."""
    from repro.codegen import cache as codegen_cache
    from repro.fleet.coordinator import FleetCoordinator
    from repro.harness import cache, figures, parallel, tables
    from repro.pipeline import processor
    from repro.pipeline.processor import Processor
    from repro.sampling.warmer import FunctionalWarmer
    from repro.workloads import generator, trace_codec

    recorder = Recorder(out_dir)

    generator.SyntheticWorkload.__iter__ = _wrap_iter(
        recorder, generator.SyntheticWorkload.__iter__, "workloads.generate")
    _patch_function(recorder, trace_codec, "encode", "trace_codec.encode")
    _patch_function(recorder, trace_codec, "decode_columns",
                    "trace_codec.decode")
    _patch_method(recorder, trace_codec.TraceColumns, "materialize",
                  "trace_codec.materialize", _len)
    _patch_method(recorder, cache.TraceCache, "get_stream",
                  "cache.trace_get", _hit)
    _patch_method(recorder, cache.TraceCache, "put_insts", "cache.trace_put")
    _patch_method(recorder, cache.ResultCache, "get", "cache.result_get",
                  _hit)
    _patch_method(recorder, cache.ResultCache, "put", "cache.result_put")
    _patch_function(recorder, codegen_cache, "load_kernel",
                    "codegen.load_kernel")
    _patch_function(recorder, parallel, "run_points", "parallel.run_points")
    _patch_method(recorder, FleetCoordinator, "run", "fleet.coordinator_run")
    _patch_method(recorder, FleetCoordinator, "drain", "fleet.drain")
    _patch_method(recorder, FleetCoordinator, "stop", "fleet.stop")
    _patch_method(recorder, Processor, "__init__", "pipeline.init")
    _patch_method(recorder, FunctionalWarmer, "skim", "sampling.skim",
                  _insts)
    _patch_method(recorder, FunctionalWarmer, "fast_forward",
                  "sampling.fast_forward", _insts)
    for number in (1, 2, 3, 9):
        _patch_function(recorder, figures, f"figure{number}",
                        f"analysis.figure{number}")
    _patch_function(recorder, tables, "table1", "area.table1")
    _patch_function(recorder, tables, "table2_result", "area.table2")
    _patch_function(recorder, tables, "table3", "area.table3")

    original_simulate = processor.simulate

    def simulate(config, workload, *args, **kwargs):
        sampled = kwargs.get("sampling") is not None
        sid = recorder.open()
        t0 = time.perf_counter()
        recorder.local.sampled += sampled
        try:
            return original_simulate(config, workload, *args, **kwargs)
        finally:
            recorder.local.sampled -= sampled
            recorder.close(sid, "sampling.simulate" if sampled
                           else "pipeline.simulate", t0,
                           time.perf_counter(), {})

    _replace_everywhere(original_simulate, simulate)

    original_run = Processor.run

    def run(self, *args, **kwargs):
        before = (self.stats.committed, self.stats.cycles,
                  self.cycles_skipped)
        sid = recorder.open()
        t0 = time.perf_counter()
        try:
            return original_run(self, *args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stats = self.stats
            recorder.close(
                sid, "sampling.window" if recorder.local.sampled
                else "pipeline.run", t0, t1,
                {"committed": stats.committed - before[0],
                 "cycles": stats.cycles - before[1],
                 "skipped": self.cycles_skipped - before[2],
                 "loop": getattr(self, "loop_used", None)})

    Processor.run = run
    return recorder


# ------------------------------------------------------------------ analysis
def load(out_dir: Path) -> list:
    """Every span of every process: ``[pid, id, parent, name, t0, t1,
    args]`` lists, sorted by start time."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line:
                spans.append(json.loads(line))
    spans.sort(key=lambda s: (s[4], -s[5]))
    return spans


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    index = {(s[0], s[1]): i for i, s in enumerate(spans)}
    result = [s[5] - s[4] for s in spans]
    for s in spans:
        parent = index.get((s[0], s[2]))
        if parent is not None:
            result[parent] -= s[5] - s[4]
    return result


def _segments(spans: list) -> dict:
    """Per pid, the time line of innermost spans: ``(t0, t1, name)``
    intervals during which ``name`` was the deepest open span."""
    children: dict = {}
    roots: dict = {}
    for s in spans:
        key = (s[0], s[2])
        if s[2] == -1:
            roots.setdefault(s[0], []).append(s)
        else:
            children.setdefault(key, []).append(s)

    def walk(span, lo, hi, out):
        t = max(span[4], lo)
        end = min(span[5], hi)
        for child in children.get((span[0], span[1]), ()):
            c0 = max(child[4], t)
            c1 = min(child[5], end)
            if c1 <= c0:
                continue
            if c0 > t:
                out.append((t, c0, span[3]))
            walk(child, c0, c1, out)
            t = c1
        if end > t:
            out.append((t, end, span[3]))

    result = {}
    for pid, tops in roots.items():
        out: list = []
        last = float("-inf")
        for top in tops:
            walk(top, max(top[4], last), float("inf"), out)
            last = max(last, top[5])
        result[pid] = out
    return result


def attribute(spans: list, main_pid: int, t_start: float,
              t_end: float) -> dict:
    """Split the wall-clock ``[t_start, t_end]`` of the main process.

    At each instant the busy spans are the innermost open span of every
    process; a wait span (:data:`WAIT_SPANS`) counts only while nothing
    else is busy.  The instant is shared equally among the busy spans;
    an instant with none is unattributed, so the layers plus the
    unattributed time sum to the wall-clock.  Returns ``{"layers":
    {layer: seconds}, "unattributed": seconds, "gap": (seconds, before,
    after)}``, ``gap`` being the longest unattributed stretch and the
    spans around it.
    """
    events = []
    for pid, segments in _segments(spans).items():
        for t0, t1, name in segments:
            t0, t1 = max(t0, t_start), min(t1, t_end)
            if t1 > t0:
                events.append((t0, 1, pid, name))
                events.append((t1, -1, pid, name))
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict = {}  # pid -> innermost span name
    layers: dict = {}
    unattributed = 0.0
    gap = (0.0, "start", "end")
    idle_since, last_ended = t_start, "start"
    t = t_start
    for when, kind, pid, name in events:
        if when > t:
            busy = [n for n in active.values() if n not in WAIT_SPANS] \
                or list(active.values())
            for n in busy:
                layer = LAYER_OF.get(n, n)
                layers[layer] = layers.get(layer, 0.0) \
                    + (when - t) / len(busy)
            if not busy:
                unattributed += when - t
            t = when
        if kind == 1:
            if not active and when - idle_since > gap[0]:
                gap = (when - idle_since, last_ended, name)
            active[pid] = name
        else:
            active.pop(pid, None)
            last_ended = name
            if not active:
                idle_since = when
    if t_end > t:
        unattributed += t_end - t
        if t_end - idle_since > gap[0]:
            gap = (t_end - idle_since, last_ended, "end")
    return {"layers": layers, "unattributed": unattributed, "gap": gap}


def chrome_trace(spans: list, path: Path) -> None:
    """Write Chrome trace-event JSON (complete events, microseconds)."""
    events = [{"name": s[3], "cat": LAYER_OF.get(s[3], "other"), "ph": "X",
               "pid": s[0], "tid": s[0], "ts": s[4] * 1e6,
               "dur": (s[5] - s[4]) * 1e6, "args": s[6]} for s in spans]
    Path(path).write_text(json.dumps({"traceEvents": events}))
