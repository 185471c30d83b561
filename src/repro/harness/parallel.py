"""Parallel sweep execution engine with fault-tolerant workers.

Every paper figure is a grid of fully independent simulations.  This
module turns that grid into data: a sweep is a list of
:class:`SweepPoint` values (benchmark profile x scheme x register-file
size x instruction count x seed) which :func:`run_points` executes —
serially for ``jobs=1``, over a
:class:`~concurrent.futures.ProcessPoolExecutor` for the plain parallel
case, or (when per-point ``timeout``/``retries`` are requested) over a
self-healing worker fleet that kills and requeues stragglers, retries
crashed points with exponential backoff, and respawns dead workers.
Results cross the process boundary as plain
:meth:`~repro.pipeline.stats.SimStats.to_dict` dicts (cheap to pickle); a
crashed simulation is captured as a per-point error — with its full
worker-side traceback — instead of killing the sweep.

Three layers of persistence/recovery:

* an optional :class:`~repro.harness.cache.ResultCache` serves previously
  computed points without re-simulating;
* an optional :class:`SweepJournal` appends one fsync'd JSON line per
  completed point (with periodic atomic compaction), so a sweep killed
  mid-flight (SIGKILL, OOM, power) resumes exactly where it stopped —
  only incomplete points are re-simulated;
* a :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
  taken out by the OOM killer hard enough to poison the pool) rebuilds
  the pool and requeues the in-flight points, degrading to serial
  execution after ``POOL_FAILURE_LIMIT`` consecutive failures.

The sweep data plane: before forking workers, the parent publishes each
distinct workload's binary trace blob into
:mod:`multiprocessing.shared_memory` (:class:`WorkloadBroadcast`,
refcounted and unlinked by the parent alone, so worker deaths never
leak segments), and fleet dispatch is affinity-aware
(:class:`_AffinityQueue`): a freed worker preferentially receives points
sharing its warm trace memo and loaded cycle kernel.  ``REPRO_NO_SHM=1``
and ``REPRO_NO_AFFINITY=1`` disable either layer.

Determinism: a point's result does not depend on how it was executed —
``jobs=1``, ``jobs=N``, the fleet, the cached and the journaled path,
shared-memory or disk, all reproduce bit-identical counters, which the
tests assert.  Retries, backoff jitter, broadcast and affinity only
affect *when and where* a point runs, never its result.
"""

from __future__ import annotations

import json
import os
import random
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.pipeline.stats import SimStats, stats_from_dict
from repro.workloads.profiles import WorkloadProfile, profile_key

#: environment default for ``jobs`` when the caller passes None
JOBS_ENV = "REPRO_JOBS"

#: consecutive BrokenProcessPool failures before degrading to jobs=1
POOL_FAILURE_LIMIT = 3

#: characters of a per-point failure message kept when journaling or
#: uploading — a recursive traceback must not bloat every journal line,
#: result frame and final report it passes through
ERROR_LIMIT = 8192


@dataclass(frozen=True)
class SweepPoint:
    """One simulation of a sweep grid, described declaratively."""

    profile: WorkloadProfile
    scheme: str
    size: int  # register-file size under study (the equal-area knob)
    insts: int
    seed: int
    #: ``PERIOD:WINDOW:WARMUP`` spec for interval-sampled execution, or
    #: None for exact simulation
    sampling: Optional[str] = None
    #: register-file read-port-reduction scheme (repro.core.read_ports):
    #: 'none' | 'bypass_filter' | 'banked_arbiter'
    port_scheme: str = "none"

    @property
    def benchmark(self) -> str:
        return self.profile.name

    def label(self) -> str:
        label = (f"{self.profile.name}/{self.scheme}/rf{self.size}"
                 f"/i{self.insts}/s{self.seed}")
        if self.sampling is not None:
            label += f"/sampled[{self.sampling}]"
        if self.port_scheme != "none":
            label += f"/ports[{self.port_scheme}]"
        return label


@dataclass
class PointResult:
    point: SweepPoint
    stats: Optional[SimStats] = None
    error: Optional[str] = None
    cached: bool = False
    #: served from a :class:`SweepJournal` (a resumed sweep)
    journaled: bool = False
    #: execution attempts this result took (1 = first try; 0 = not run,
    #: i.e. cache/journal hit)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepError(RuntimeError):
    """One or more sweep points failed; carries every per-point error
    (including the worker-side traceback captured at the failure site)."""

    def __init__(self, failures: list[PointResult]) -> None:
        self.failures = failures
        lines = []
        for result in failures:
            error = result.error or ""
            indented = "\n    ".join(error.rstrip().splitlines())
            lines.append(f"  {result.point.label()}:\n    {indented}")
        super().__init__(
            f"{len(failures)} sweep point(s) failed:\n" + "\n".join(lines))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """``jobs`` argument > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"{JOBS_ENV}={env!r} is not an integer")
        else:
            jobs = 1
    return max(1, jobs)


def simulate_point(point: SweepPoint):
    """Execute one sweep point (pure function of the point).

    Workloads come from the pregenerated-trace cache: a cold pool worker
    attaches the parent's shared-memory broadcast of the trace blob (or
    decodes from disk when no broadcast covers the point) instead of
    re-running the generator, and every execution path (jobs=1, warm or
    cold worker, shared-memory or disk) consumes the identical
    serialized stream.
    """
    from repro.harness.cache import cached_stream  # avoid import cycle
    from repro.harness.runner import make_config
    from repro.pipeline.processor import simulate

    _attach_shared_workload(point)
    workload = cached_stream(point.profile, point.insts, point.seed)
    config = make_config(point.profile, point.scheme, point.size,
                         port_scheme=point.port_scheme)
    if point.sampling is not None:
        # total_insts anchors the sampling schedule and scaling ratio.
        # Pass the stream itself (not an iterator): the sampling engine
        # fast-forwards straight over a binary stream's packed columns
        # and only materializes DynInsts for warm zones and windows.
        return simulate(config, workload, max_insts=point.insts,
                        sampling=point.sampling, sampling_seed=point.seed)
    return simulate(config, iter(workload))


#: the function workers run for each point — a module-level indirection so
#: tests can substitute a controllable runner (fork-started children
#: inherit the patched value)
_POINT_RUNNER: Callable = simulate_point


def _worker(payload: tuple[int, SweepPoint]) -> tuple[int, Optional[dict], Optional[str]]:
    """Process-pool entry point: never raises, ships results as dicts.

    Failures carry the full traceback, not just ``repr(exc)`` — a sweep
    failure must be debuggable from the parent process alone, without
    re-running the point under a debugger.
    """
    index, point = payload
    try:
        return index, _POINT_RUNNER(point).to_dict(), None
    except Exception as exc:
        return index, None, _bound_error(
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")


def _bound_error(text: Optional[str]) -> Optional[str]:
    """Clamp a failure message to :data:`ERROR_LIMIT` characters.

    Keeps the head (exception type + message + outermost frames) and the
    tail (the innermost frames, where the actual failure site is) and
    drops the middle — the two ends are what a debugging session reads
    first, and a pathological message (recursion tracebacks, a repr of a
    huge structure) must stay journal- and wire-sized.
    """
    if text is None or len(text) <= ERROR_LIMIT:
        return text
    head = ERROR_LIMIT * 5 // 8
    tail = ERROR_LIMIT - head
    dropped = len(text) - head - tail
    return (f"{text[:head]}\n"
            f"... [{dropped} characters truncated] ...\n"
            f"{text[-tail:]}")


def _backoff(base: float, attempt: int, salt: int) -> float:
    """Exponential backoff with deterministic jitter.

    Jitter decorrelates retry bursts across points without introducing
    nondeterminism into tests: the jitter is a pure function of
    (point index, attempt).
    """
    if base <= 0:
        return 0.0
    jitter = random.Random((salt << 8) | attempt).uniform(0.0, base / 2)
    return base * (2 ** (attempt - 1)) + jitter


# ------------------------------------------------------- workload broadcast
#: kill switch for the shared-memory workload broadcast
NO_SHM_ENV = "REPRO_NO_SHM"

#: kill switch for affinity-aware fleet scheduling (FIFO dispatch instead)
NO_AFFINITY_ENV = "REPRO_NO_AFFINITY"

#: workload key -> (shared-memory segment name, blob size).  The parent
#: populates this before forking workers; fork-started children inherit
#: it and attach instead of hitting disk.  Spawn-started children see an
#: empty dict and fall back to the on-disk trace cache — same bytes.
_SHM_WORKLOADS: dict[tuple, tuple[str, int]] = {}


def _workload_key(point: SweepPoint) -> tuple:
    """Identity of the workload a point consumes (cached_stream inputs),
    keyed on the profile's content like the trace cache itself."""
    return (profile_key(point.profile), point.insts, point.seed, 50)


def _attach_shared_workload(point: SweepPoint) -> None:
    """Worker side: seed the trace memo from the parent's broadcast.

    If the parent published this point's workload blob before forking,
    copy it out of shared memory into a :class:`TraceStream` and install
    it in the process-local memo, so the subsequent
    :func:`~repro.harness.cache.cached_stream` call is a memo hit —
    no disk read, no gunzip, no generation.  Any failure (segment
    already unlinked, platform quirks) silently falls back to the
    normal disk path: the stream bytes are identical either way.
    """
    wkey = _workload_key(point)
    entry = _SHM_WORKLOADS.get(wkey)
    if entry is None:
        return
    from repro.harness.cache import TRACE_MEMO, TraceStream, memo_key

    key = memo_key(point.profile, point.insts, point.seed)
    if TRACE_MEMO.get(key) is not None:
        return
    name, size = entry
    try:
        from multiprocessing.shared_memory import SharedMemory

        segment = SharedMemory(name=name)
    except Exception:
        return
    try:
        blob = bytes(segment.buf[:size])
    finally:
        # Attaching re-registers the name with the resource tracker
        # (CPython < 3.13 has no track=False).  Fork-started workers
        # share the parent's tracker process, so that register is a
        # set-add no-op and the parent's unlink() unregisters exactly
        # once; unregistering here would strip the parent's entry and
        # make that unlink KeyError inside the tracker.
        segment.close()
    TRACE_MEMO.put(key, TraceStream(blob, point.insts))


class WorkloadBroadcast:
    """Parent-side shared-memory publication of distinct workload blobs.

    Each distinct ``(profile, insts, seed)`` workload among the pending
    points is encoded **once** in the parent — generating it if the trace
    cache is cold, which also moves generation out of the workers — and
    its binary-codec blob is copied into one
    :class:`~multiprocessing.shared_memory.SharedMemory` segment.
    Fork-started workers inherit the name map (:data:`_SHM_WORKLOADS`)
    and attach instead of re-reading disk per point.

    Leak-proofing: segments are refcounted by pending-point count and
    unlinked the moment the last consumer point resolves (crashed,
    timed-out and requeued points all resolve exactly once through
    ``finish``), and :meth:`close` unlinks everything left as the sweep's
    ``finally`` — worker deaths never strand a segment, because only the
    parent owns unlinking.
    """

    def __init__(self) -> None:
        self._segments: dict[tuple, object] = {}
        self._refs: dict[tuple, int] = {}
        self.published_bytes = 0

    def publish(self, points: list, pending: list[int]) -> None:
        """Publish every distinct pending workload; silently does nothing
        when disabled (``REPRO_NO_SHM=1``), when traces are bypassed or
        non-binary, or where shared memory is unavailable."""
        if os.environ.get(NO_SHM_ENV) or os.environ.get("REPRO_NO_TRACE_CACHE"):
            return
        try:
            from multiprocessing.shared_memory import SharedMemory
        except Exception:  # pragma: no cover - platform without shm
            return
        from repro.harness.cache import TraceStream, cached_stream, trace_format

        if trace_format() != "binary":
            return
        refs: dict[tuple, int] = {}
        for index in pending:
            refs[_workload_key(points[index])] = \
                refs.get(_workload_key(points[index]), 0) + 1
        for wkey, count in refs.items():
            profile = next(points[i].profile for i in pending
                           if _workload_key(points[i]) == wkey)
            try:
                stream = cached_stream(profile, wkey[1], wkey[2], wkey[3])
                if not isinstance(stream, TraceStream):
                    continue  # legacy-format entry: disk path still works
                blob = stream.blob
                segment = SharedMemory(create=True, size=max(1, len(blob)))
                segment.buf[:len(blob)] = blob
            except Exception:
                continue  # /dev/shm exhausted etc.: disk path still works
            self._segments[wkey] = segment
            self._refs[wkey] = count
            self.published_bytes += len(blob)
            _SHM_WORKLOADS[wkey] = (segment.name, len(blob))

    def release(self, point: SweepPoint) -> None:
        """One consumer point resolved: unlink its segment at refcount 0."""
        wkey = _workload_key(point)
        if wkey not in self._refs:
            return
        self._refs[wkey] -= 1
        if self._refs[wkey] <= 0:
            self._unlink(wkey)

    def _unlink(self, wkey: tuple) -> None:
        segment = self._segments.pop(wkey, None)
        self._refs.pop(wkey, None)
        _SHM_WORKLOADS.pop(wkey, None)
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except Exception:  # pragma: no cover - double-unlink race
                pass

    def close(self) -> None:
        """Unlink every remaining segment (sweep ``finally``)."""
        for wkey in list(self._segments):
            self._unlink(wkey)

    def stats(self) -> dict:
        return {"segments": len(self._segments),
                "published_bytes": self.published_bytes}


# --------------------------------------------------------------- affinity
#: memoized kernel fingerprints; (profile, scheme, size, port_scheme) ->
#: fingerprint string or None when codegen is unavailable/disabled
_KERNEL_KEYS: dict[tuple, Optional[str]] = {}


def _kernel_key(point: SweepPoint) -> Optional[str]:
    """The compiled-kernel identity a point will execute under, or None."""
    cache_key = (profile_key(point.profile), point.scheme, point.size,
                 point.port_scheme)
    if cache_key in _KERNEL_KEYS:
        return _KERNEL_KEYS[cache_key]
    fingerprint: Optional[str] = None
    try:
        from repro.codegen import kernels_enabled
        from repro.codegen.fingerprint import kernel_fingerprint
        from repro.harness.runner import make_config

        if kernels_enabled():
            config = make_config(point.profile, point.scheme, point.size,
                                 port_scheme=point.port_scheme)
            fingerprint = kernel_fingerprint(config)
    except Exception:
        fingerprint = None
    _KERNEL_KEYS[cache_key] = fingerprint
    return fingerprint


def _affinity_order(points: list, pending: list[int]) -> list[int]:
    """Pending indices grouped by workload key, then kernel key.

    Workers consuming an ordered stream of tasks then see long runs of
    the same workload (memo hits) and the same kernel (no module
    reload); grouping is stable, so equal-key points keep their index
    order.  ``REPRO_NO_AFFINITY=1`` preserves plain index order.
    """
    if os.environ.get(NO_AFFINITY_ENV):
        return list(pending)
    order: dict[tuple, int] = {}
    for index in pending:
        group = (_workload_key(points[index]),
                 _kernel_key(points[index]) or "")
        order.setdefault(group, len(order))
    return sorted(pending, key=lambda i: (
        order[(_workload_key(points[i]), _kernel_key(points[i]) or "")], i))


class _AffinityQueue:
    """Fleet dispatch queue that maximizes worker-side reuse.

    Tasks are grouped by workload key, then kernel key.  ``pop`` prefers,
    in order: a task matching the worker's last (workload, kernel) pair
    (memo hit + loaded kernel), then the worker's last workload (memo
    hit), then the largest workload group no other busy worker currently
    owns (spreads distinct workloads across the fleet), then the largest
    group outright.  Ties break by insertion order, keeping dispatch
    deterministic for a fixed fleet state.  With ``REPRO_NO_AFFINITY=1``
    it degrades to plain FIFO.
    """

    def __init__(self, points: list) -> None:
        self._points = points
        self._fifo = bool(os.environ.get(NO_AFFINITY_ENV))
        #: wkey -> kkey -> list of (index, attempt); dicts keep insertion
        #: order, lists serve as FIFO queues within a kernel group
        self._groups: dict[tuple, dict[Optional[str], list]] = {}
        self._order: list[tuple[int, int]] = []  # FIFO fallback view
        self._size = 0

    def push(self, index: int, attempt: int) -> None:
        point = self._points[index]
        kernels = self._groups.setdefault(_workload_key(point), {})
        kernels.setdefault(_kernel_key(point), []).append((index, attempt))
        self._order.append((index, attempt))
        self._size += 1

    def __len__(self) -> int:
        return self._size

    def _take(self, wkey: tuple, kkey: Optional[str]) -> tuple[int, int]:
        kernels = self._groups[wkey]
        task = kernels[kkey].pop(0)
        if not kernels[kkey]:
            del kernels[kkey]
        if not kernels:
            del self._groups[wkey]
        self._order.remove(task)
        self._size -= 1
        return task

    def _group_size(self, wkey: tuple) -> int:
        return sum(len(tasks) for tasks in self._groups[wkey].values())

    def pop(self, last_wkey: Optional[tuple] = None,
            last_kkey: Optional[str] = None,
            owned: frozenset = frozenset()) -> Optional[tuple[int, int]]:
        """Next (index, attempt) for a worker whose previous task had
        ``(last_wkey, last_kkey)``; ``owned`` holds workload keys other
        busy workers are executing right now."""
        if self._size == 0:
            return None
        if self._fifo:
            task = self._order.pop(0)
            index, attempt = task
            point = self._points[index]
            kernels = self._groups[_workload_key(point)]
            kernels[_kernel_key(point)].remove(task)
            if not kernels[_kernel_key(point)]:
                del kernels[_kernel_key(point)]
            if not kernels:
                del self._groups[_workload_key(point)]
            self._size -= 1
            return task
        if last_wkey is not None and last_wkey in self._groups:
            kernels = self._groups[last_wkey]
            if last_kkey in kernels:
                return self._take(last_wkey, last_kkey)
            return self._take(last_wkey, next(iter(kernels)))
        candidates = [wkey for wkey in self._groups if wkey not in owned] \
            or list(self._groups)
        best = max(candidates, key=self._group_size)
        return self._take(best, next(iter(self._groups[best])))


# ------------------------------------------------------------------ journal
def _key_for_point(point: SweepPoint, fingerprint: Optional[str]) -> str:
    from repro.harness.cache import point_key
    from repro.harness.runner import make_config  # avoid import cycle

    config = make_config(point.profile, point.scheme, point.size,
                         port_scheme=point.port_scheme)
    return point_key(config, point.profile, point.insts, point.seed,
                     fingerprint, sampling=point.sampling)


class SweepJournal:
    """Crash-safe record of completed sweep points (``--resume`` support).

    A JSON-lines file: one ``{"key", "label", "stats"}`` object per
    completed point.  Each :meth:`record` *appends* one fsync'd line —
    O(1) per point, not the O(n) whole-file rewrite (O(n²) per sweep)
    it replaced.  A crash can tear at most the final line, which the
    loader skips (counted in ``skipped_lines``) like any corrupt or
    alien line — never fatal.  Re-recorded keys append duplicate lines
    (last one wins on load); when duplicates pile past
    ``COMPACT_SLACK``, the journal compacts itself through an atomic
    temp-file + rename rewrite, so readers still never observe a torn
    file.

    Keys are the result-cache point keys, which fold in the simulator
    code fingerprint: a journal written by a stale checkout silently
    serves nothing, rather than resuming with wrong numbers.
    """

    #: excess file lines (duplicates from re-records) tolerated before an
    #: atomic compaction rewrite
    COMPACT_SLACK = 256

    def __init__(self, path: os.PathLike,
                 fingerprint: Optional[str] = None) -> None:
        from repro.harness.cache import code_fingerprint

        self.path = Path(path)
        self.fingerprint = (fingerprint if fingerprint is not None
                            else code_fingerprint())
        self._entries: dict[str, dict] = {}
        self._file_lines = 0  # lines in the file, duplicates included
        self.skipped_lines = 0
        self.compactions = 0
        self._load()

    # ------------------------------------------------------------------ io
    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            self._file_lines += 1
            try:
                raw = json.loads(line)
                key = raw["key"]
                if not isinstance(raw["stats"], dict):
                    raise TypeError("stats must be a dict")
            except Exception:
                self.skipped_lines += 1
                continue
            self._entries[key] = raw

    def _flush(self) -> None:
        """Atomic whole-file rewrite (compaction): one line per live key."""
        from repro.harness.cache import atomic_write_text

        body = "".join(json.dumps(entry, sort_keys=True) + "\n"
                       for entry in self._entries.values())
        atomic_write_text(self.path, body)
        self._file_lines = len(self._entries)

    def _append(self, entry: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._file_lines += 1

    # ------------------------------------------------------------------ access
    def key_for_point(self, point: SweepPoint) -> str:
        return _key_for_point(point, self.fingerprint)

    def get(self, key: str) -> Optional[SimStats]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        try:
            return stats_from_dict(entry["stats"])
        except Exception:
            # schema drift in an old journal: a miss, not a crash
            del self._entries[key]
            return None

    def record(self, point: SweepPoint, stats) -> None:
        key = self.key_for_point(point)
        self._entries[key] = {"key": key, "label": point.label(),
                              "stats": stats.to_dict()}
        self._append(self._entries[key])
        if self._file_lines > len(self._entries) + self.COMPACT_SLACK:
            self._flush()
            self.compactions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


# ------------------------------------------------------------------ execution
def _prewarm_kernels(points: list[SweepPoint], pending: list[int]) -> None:
    """Generate and cache each distinct cycle kernel once, in the parent.

    Sweep workers share kernels through the fingerprint-keyed on-disk
    cache; generating up front means N workers hitting the same
    (scheme, config) pair load one compiled module instead of each
    paying generation, and a cold pool does no generation at all.
    Resolution failures are ignored — the affected points simply fall
    back to the event loop in their workers, same semantics.
    """
    try:
        from repro.codegen import kernels_enabled, load_kernel
        from repro.codegen.fingerprint import kernel_fingerprint
        from repro.harness.runner import make_config
    except Exception:
        return
    if not kernels_enabled():
        return
    seen: set[str] = set()
    for index in pending:
        point = points[index]
        try:
            config = make_config(point.profile, point.scheme, point.size,
                                 port_scheme=point.port_scheme)
            fingerprint = kernel_fingerprint(config)
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            load_kernel(config)
        except Exception:
            continue


def run_points(
    points: Iterable[SweepPoint],
    jobs: Optional[int] = None,
    cache=None,
    progress: Optional[Callable[[int, int, PointResult], None]] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    retry_delay: float = 0.25,
    journal: Optional[SweepJournal] = None,
    remote=None,
) -> list[PointResult]:
    """Execute a sweep; returns one :class:`PointResult` per point, in order.

    ``cache`` is a :class:`~repro.harness.cache.ResultCache` (or None);
    cached points are served without simulating and fresh results are
    written back.  ``journal`` is a :class:`SweepJournal` (or None):
    points it already holds are served from it, and every fresh success
    is recorded — kill the process at any moment and a rerun with the
    same journal resumes from the last completed point.
    ``progress(done, total, result)`` fires once per resolved point.

    Resilience knobs (all off by default):

    * ``timeout`` — per-point wall-clock seconds; a straggler's worker is
      killed and the point requeued (consuming a retry) until ``retries``
      is exhausted, then reported as a per-point failure.
    * ``retries`` — re-executions granted per point after a crash, a
      worker death, or a timeout; waits ``retry_delay * 2**(attempt-1)``
      plus deterministic jitter between attempts.
    * ``remote`` — a ``"HOST:PORT"`` string or
      :class:`repro.fleet.FleetConfig`: serve the pending points to TCP
      fleet workers instead of executing them here (the coordinator
      still degrades to local execution when no workers show up).
      ``retries`` then bounds lease re-grants and ``timeout`` bounds the
      coordinator's own local runs.
    """
    points = list(points)
    total = len(points)
    jobs = resolve_jobs(jobs)
    results: list[Optional[PointResult]] = [None] * total
    done = 0
    broadcast = WorkloadBroadcast()

    def finish(index: int, result: PointResult) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if result.ok and not result.cached and not result.journaled:
            if cache is not None:
                cache.put(cache.key_for_point(result.point), result.stats)
            if journal is not None:
                journal.record(result.point, result.stats)
        broadcast.release(result.point)
        if progress is not None:
            progress(done, total, result)

    pending: list[int] = []
    for index, point in enumerate(points):
        if journal is not None:
            stats = journal.get(journal.key_for_point(point))
            if stats is not None:
                finish(index, PointResult(point, stats=stats, journaled=True,
                                          attempts=0))
                continue
        cached = cache.get(cache.key_for_point(point)) if cache is not None \
            else None
        if cached is not None:
            finish(index, PointResult(point, stats=cached, cached=True,
                                      attempts=0))
        else:
            pending.append(index)

    if not pending:
        return results  # type: ignore[return-value]

    _prewarm_kernels(points, pending)
    multiprocess = remote is None and (timeout is not None or
                                       min(jobs, len(pending)) > 1)

    try:
        if multiprocess:
            # publish each distinct workload blob to shared memory once,
            # before any worker forks, so cold workers attach instead of
            # re-reading disk per point
            broadcast.publish(points, pending)
        if remote is not None:
            from repro.fleet.coordinator import (fleet_execute,
                                                 resolve_fleet_config)

            fleet_execute(points, pending, finish,
                          resolve_fleet_config(remote),
                          timeout=timeout, retries=retries)
        elif timeout is not None:
            # enforcing a wall-clock bound needs killable workers, even
            # for jobs=1: run a fleet of (at least) one
            _run_fleet(points, pending, finish,
                       max(1, min(jobs, len(pending))),
                       timeout, retries, retry_delay)
        elif jobs > 1 and retries > 0:
            # retries with jobs>1 also imply process isolation (a point
            # that takes its worker down must not take the sweep down),
            # so the fleet runs even for a single pending point
            _run_fleet(points, pending, finish, min(jobs, len(pending)),
                       None, retries, retry_delay)
        elif jobs == 1 or len(pending) == 1:
            _run_serial(points, pending, finish, retries, retry_delay)
        else:
            _run_executor(points, pending, finish,
                          min(jobs, len(pending)))
    finally:
        broadcast.close()
    return results  # type: ignore[return-value]


class PointTimeout(Exception):
    """A serially-executed point exceeded its wall-clock budget."""


def _subprocess_child(conn, payload) -> None:
    """Child side of the subprocess watchdog: run one point, ship the
    result tuple back over the pipe."""
    try:
        conn.send(_worker(payload))
    finally:
        conn.close()


def _worker_subprocess(payload, timeout: float):
    """Run one point in a killable child process with a wall-clock bound.

    The fallback watchdog for serial execution off the main thread
    (where SIGALRM is unavailable): a straggler's child is killed, and
    the parent reports the timeout as an ordinary per-point error.
    """
    import multiprocessing

    index, _point = payload
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_subprocess_child,
                          args=(child_conn, payload), daemon=True)
    process.start()
    child_conn.close()
    try:
        if parent_conn.poll(timeout):
            try:
                result = parent_conn.recv()
            except (EOFError, OSError):
                result = (index, None,
                          "worker process died while running the point")
            process.join()
            return result
    finally:
        parent_conn.close()
    process.kill()
    process.join()
    return (index, None,
            f"TimeoutError: point exceeded the {timeout}s wall-clock "
            f"budget (serial watchdog)")


def _worker_with_timeout(payload, timeout: Optional[float]):
    """:func:`_worker` with the wall-clock watchdog still enforced.

    Serial (in-process) execution is the degrade path of every other
    mode, so it must honour ``timeout`` too — a sweep that fell back to
    jobs=1 must not hang forever on the very straggler that broke the
    pool.  On the main thread a SIGALRM itimer interrupts the point
    in-process; off the main thread (or without SIGALRM) the point runs
    in a killable child process instead.
    """
    if timeout is None:
        return _worker(payload)
    import signal
    import threading

    if not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        return _worker_subprocess(payload, timeout)
    index, _point = payload
    armed = [True]

    def _alarm(signum, frame):
        if armed[0]:
            raise PointTimeout(
                f"point exceeded the {timeout}s wall-clock budget "
                f"(serial watchdog)")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return _worker(payload)
    except PointTimeout as exc:
        return index, None, f"TimeoutError: {exc}"
    finally:
        armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_serial(points, pending, finish, retries: int,
                retry_delay: float, timeout: Optional[float] = None) -> None:
    """In-process execution with bounded retry + backoff.

    ``timeout`` keeps the per-point wall-clock bound alive on the
    degrade paths (broken pool, failed fleet spawn, fleet coordinator
    running points locally) — serial mode enforces it via SIGALRM or a
    killable child process, never silently drops it.
    """
    for index in pending:
        attempt = 0
        while True:
            attempt += 1
            _, stats_dict, error = _worker_with_timeout(
                (index, points[index]), timeout)
            if error is None or attempt > retries:
                break
            time.sleep(_backoff(retry_delay, attempt, index))
        stats = None if stats_dict is None else stats_from_dict(stats_dict)
        finish(index, PointResult(points[index], stats=stats, error=error,
                                  attempts=attempt))


def _run_executor(points, pending, finish, workers: int,
                  timeout: Optional[float] = None) -> None:
    """Plain ProcessPoolExecutor fan-out with BrokenProcessPool recovery.

    A worker killed hard (OOM killer, SIGKILL) poisons the whole pool:
    every outstanding future raises :class:`BrokenProcessPool`.  Recovery
    rebuilds the pool and requeues exactly the unresolved points; after
    ``POOL_FAILURE_LIMIT`` consecutive breakages the remaining points
    degrade to in-process serial execution — slower, but immune — with
    any per-point ``timeout`` still enforced there.
    """
    remaining = set(pending)
    breakages = 0
    while remaining:
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(remaining))) as pool:
                # affinity ordering: grouped submission gives each worker
                # long runs of one workload/kernel (memo + kernel reuse)
                futures = {pool.submit(_worker, (index, points[index])): index
                           for index in _affinity_order(points,
                                                        sorted(remaining))}
                for future in as_completed(futures):
                    index, stats_dict, error = future.result()
                    remaining.discard(index)
                    stats = None if stats_dict is None \
                        else stats_from_dict(stats_dict)
                    finish(index, PointResult(points[index], stats=stats,
                                              error=error))
            breakages = 0
        except BrokenProcessPool:
            breakages += 1
            if breakages >= POOL_FAILURE_LIMIT:
                _run_serial(points, sorted(remaining), finish, 0, 0.0,
                            timeout=timeout)
                return


def _fleet_child(conn) -> None:
    """Fleet worker main: execute tasks from the pipe until the sentinel.

    Runs :func:`_worker` (which never raises), so the only exits are the
    ``None`` sentinel, a closed pipe, or being killed by the parent's
    timeout watchdog.
    """
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            conn.send(_worker(task))
    except (EOFError, OSError, KeyboardInterrupt):
        return


@dataclass
class _Slot:
    """One fleet worker: a process, its pipe, and its current assignment."""

    process: object
    conn: object
    index: Optional[int] = None  # point index in flight, or None (idle)
    attempt: int = 0
    deadline: Optional[float] = None
    #: affinity state: workload/kernel keys of the most recent dispatch —
    #: kept across completions so an idle worker's warm memo is known
    wkey: Optional[tuple] = None
    kkey: Optional[str] = None

    @property
    def busy(self) -> bool:
        return self.index is not None


def _run_fleet(points, pending, finish, workers: int,
               timeout: Optional[float], retries: int,
               retry_delay: float) -> None:
    """Self-healing worker fleet: direct task dispatch over pipes, a
    wall-clock watchdog per in-flight point, kill-and-requeue for
    stragglers and dead workers, bounded retries with backoff.

    Dispatch is affinity-aware (:class:`_AffinityQueue`): a freed worker
    preferentially receives a point sharing its previous workload (warm
    trace memo) and kernel (loaded module), while distinct workloads
    spread across distinct workers.  Scheduling never affects results —
    a point is a pure function of itself — only wall-clock.

    Workers are forked (where available) so test doubles installed on
    :data:`_POINT_RUNNER` propagate; each worker owns a dedicated
    duplex pipe, and the parent multiplexes completions with
    :func:`multiprocessing.connection.wait`.
    """
    import multiprocessing
    from multiprocessing.connection import wait as conn_wait

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()

    def spawn() -> _Slot:
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_fleet_child, args=(child_conn,),
                              daemon=True)
        process.start()
        child_conn.close()
        return _Slot(process=process, conn=parent_conn)

    def retire(slot: _Slot) -> None:
        try:
            slot.conn.close()
        except OSError:
            pass
        slot.process.kill()
        slot.process.join()

    # affinity queue of (point index, attempt) ready to dispatch now;
    # delayed holds (ready-at monotonic time, index, attempt) backing off
    queue = _AffinityQueue(points)
    for index in pending:
        queue.push(index, 1)
    delayed: list[tuple[float, int, int]] = []
    unresolved = set(pending)
    slots = []
    try:
        for _ in range(workers):
            slots.append(spawn())
    except OSError:
        pass  # fork refused (rlimit, memory): run with what we got
    if not slots:
        # cannot fork at all — degrade to in-process serial execution,
        # with the wall-clock watchdog still enforced rather than
        # silently dropped
        _run_serial(points, sorted(unresolved), finish, retries,
                    retry_delay, timeout=timeout)
        return

    def requeue(index: int, attempt: int, error: str) -> None:
        """A point crashed/timed out/lost its worker: retry or fail."""
        if attempt > retries:
            finish(index, PointResult(points[index], error=error,
                                      attempts=attempt))
            unresolved.discard(index)
            return
        delay = _backoff(retry_delay, attempt, index)
        delayed.append((time.monotonic() + delay, index, attempt + 1))

    try:
        while unresolved:
            now = time.monotonic()
            # move backoff-expired tasks into the ready queue
            if delayed:
                ready = [entry for entry in delayed if entry[0] <= now]
                if ready:
                    delayed[:] = [e for e in delayed if e[0] > now]
                    for _, index, attempt in sorted(ready):
                        queue.push(index, attempt)
            # dispatch ready tasks to idle slots, best-affinity first
            for slot in slots:
                if not len(queue):
                    break
                if slot.busy:
                    continue
                owned = frozenset(s.wkey for s in slots
                                  if s is not slot and s.busy
                                  and s.wkey is not None)
                index, attempt = queue.pop(slot.wkey, slot.kkey, owned)
                slot.index, slot.attempt = index, attempt
                slot.wkey = _workload_key(points[index])
                slot.kkey = _kernel_key(points[index])
                slot.deadline = (now + timeout) if timeout is not None \
                    else None
                try:
                    slot.conn.send((index, points[index]))
                except (BrokenPipeError, OSError):
                    # worker died between tasks: respawn and requeue
                    retire(slot)
                    fresh = spawn()
                    slots[slots.index(slot)] = fresh
                    requeue(index, attempt,
                            "worker process died before accepting the point")

            busy = [slot for slot in slots if slot.busy]
            if not busy:
                if queue:
                    continue
                if delayed:
                    time.sleep(max(0.0, min(e[0] for e in delayed)
                                   - time.monotonic()))
                    continue
                break  # unresolved but nothing queued: all accounted for

            # wake on the next completion, deadline, or backoff expiry
            wait_until = min((slot.deadline for slot in busy
                              if slot.deadline is not None),
                             default=None)
            if delayed:
                soonest = min(entry[0] for entry in delayed)
                wait_until = soonest if wait_until is None \
                    else min(wait_until, soonest)
            wait_timeout = None if wait_until is None \
                else max(0.0, wait_until - time.monotonic())
            ready_conns = conn_wait([slot.conn for slot in busy],
                                    timeout=wait_timeout)

            for slot in [s for s in busy if s.conn in ready_conns]:
                index, attempt = slot.index, slot.attempt
                try:
                    result_index, stats_dict, error = slot.conn.recv()
                except (EOFError, OSError):
                    # the worker died mid-point (segfault, OOM kill)
                    retire(slot)
                    slots[slots.index(slot)] = spawn()
                    requeue(index, attempt,
                            "worker process died while running the point")
                    continue
                slot.index, slot.attempt, slot.deadline = None, 0, None
                if error is not None and attempt <= retries:
                    requeue(index, attempt, error)
                    continue
                stats = None if stats_dict is None \
                    else stats_from_dict(stats_dict)
                finish(result_index, PointResult(
                    points[result_index], stats=stats, error=error,
                    attempts=attempt))
                unresolved.discard(result_index)

            # timeout watchdog: kill stragglers past their deadline
            now = time.monotonic()
            for position, slot in enumerate(slots):
                if (slot.busy and slot.deadline is not None
                        and now >= slot.deadline
                        and slot.conn not in ready_conns):
                    index, attempt = slot.index, slot.attempt
                    retire(slot)
                    slots[position] = spawn()
                    requeue(index, attempt,
                            f"TimeoutError: point exceeded the {timeout}s "
                            f"wall-clock budget (attempt {attempt})")
    finally:
        for slot in slots:
            if not slot.busy:
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            retire(slot)


def collect_stats(results: list[PointResult]) -> dict[tuple, SimStats]:
    """Index successful results by (benchmark, scheme, size, seed); raises
    :class:`SweepError` if any point failed."""
    failures = [result for result in results if not result.ok]
    if failures:
        raise SweepError(failures)
    return {
        (r.point.benchmark, r.point.scheme, r.point.size, r.point.seed): r.stats
        for r in results
    }
