"""Persistent, content-addressed caches for the experiment harness.

Two caches live here:

**Result cache** — every sweep point the harness runs is a pure function
of its inputs — the :class:`~repro.pipeline.config.MachineConfig`, the
workload profile, the instruction count, the seed and the sampling
schedule (``None`` for exact runs) — plus the simulator's own code.  The
cache keys on a stable SHA-256 of exactly those inputs, with a
*code fingerprint* (a hash over every ``.py`` file of the ``repro``
package) folded in so results from a stale simulator invalidate
automatically instead of silently polluting figures.  Values are
:meth:`~repro.pipeline.stats.SimStats.to_dict` /
:meth:`~repro.pipeline.stats.SampledStats.to_dict` snapshots stored
one-JSON-file-per-entry under the cache root:

* ``REPRO_CACHE_DIR`` environment variable, else
* ``~/.cache/repro/sweeps``.

**Trace cache** — pregenerated synthetic-workload traces, keyed by
(profile, insts, seed, body_iters) plus a *generator fingerprint* that
hashes only the workload-generation modules, so simulator changes do not
invalidate traces.  Entries are stored in the binary columnar codec
(:mod:`repro.workloads.trace_codec`, ``.rtc`` files) by default; the
gzipped JSON-lines container (:mod:`repro.workloads.trace_io` format,
``.jsonl.gz``) remains as the human-readable interchange and the
measured legacy comparison path (``REPRO_TRACE_FORMAT=jsonl``).  Both
live under ``REPRO_TRACE_DIR``, else ``REPRO_CACHE_DIR``/traces, else
``~/.cache/repro/traces``.  :func:`cached_stream` is the harness entry
point for sweep points and the analysis figures alike: cold ProcessPool
workers decode a trace from disk (or from the parent's shared-memory
broadcast, :mod:`repro.harness.parallel`) instead of re-running the
generator; a process-local LRU (:class:`TraceMemo`,
sized by ``REPRO_TRACE_MEMO``) keeps the parsed columns of recently
used workloads so repeat points pay only re-materialization.

Corrupted or truncated entries are treated as misses (and removed), never
as errors.  There is no automatic eviction — result entries are a few KB
each — but :meth:`ResultCache.prune` drops the oldest entries past a
bound, and deleting either directory is always safe.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from repro.pipeline.config import MachineConfig
from repro.pipeline.stats import SampledStats, SimStats, stats_from_dict
from repro.workloads.profiles import WorkloadProfile, profile_key


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


def default_journal_dir() -> Path:
    """Where ``--resume`` sweep journals live by default."""
    env = os.environ.get("REPRO_JOURNAL_DIR")
    if env:
        return Path(env)
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env) / "journals"
    return Path.home() / ".cache" / "repro" / "journals"


def _unlink_quietly(path: Union[str, os.PathLike]) -> None:
    """Best-effort unlink: a concurrent writer/reader may already have
    removed (or be replacing) the entry — never an error."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError:
        pass


def atomic_write_bytes(path: os.PathLike, data: bytes) -> None:
    """Crash-safe file publication: temp file + fsync + atomic rename.

    Readers — including a resumed run after SIGKILL — observe either the
    previous complete contents or the new complete contents, never a torn
    intermediate.  The fsync orders the data before the rename so a power
    loss cannot leave a renamed-but-empty file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        _unlink_quietly(tmp)
        raise


def atomic_write_text(path: os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the whole ``repro`` package source.

    Conservative by design: *any* source change invalidates every cached
    result, because config/workload hashing cannot know which module a
    simulation's behaviour actually depends on.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def point_key(config: MachineConfig, profile: WorkloadProfile, insts: int,
              seed: int, fingerprint: Optional[str] = None,
              sampling: Optional[str] = None) -> str:
    """Stable content hash of one simulation's complete inputs.

    ``sampling`` is the ``PERIOD:WINDOW:WARMUP`` spec for interval-sampled
    runs and ``None`` for exact runs — the two must never share a cache
    entry (a sampled estimate silently standing in for an exact result
    would corrupt golden comparisons).
    """
    payload = {
        "config": asdict(config),
        "profile": asdict(profile),
        "insts": insts,
        "seed": seed,
        "sampling": sampling,
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """On-disk SimStats cache; safe for concurrent writers (atomic rename)."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.fingerprint = fingerprint if fingerprint is not None \
            else code_fingerprint()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ keys
    def key_for(self, config: MachineConfig, profile: WorkloadProfile,
                insts: int, seed: int,
                sampling: Optional[str] = None) -> str:
        return point_key(config, profile, insts, seed, self.fingerprint,
                         sampling=sampling)

    def key_for_point(self, point) -> str:
        """Key for a :class:`~repro.harness.parallel.SweepPoint`."""
        from repro.harness.runner import make_config  # avoid import cycle

        config = make_config(point.profile, point.scheme, point.size)
        return self.key_for(config, point.profile, point.insts, point.seed,
                            sampling=getattr(point, "sampling", None))

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ access
    def get(self, key: str) -> Optional[Union[SimStats, SampledStats]]:
        path = self._path(key)
        try:
            with open(path) as handle:
                stats = stats_from_dict(json.load(handle))
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # corrupted/truncated/wrong-schema entry: a miss, not a crash
            # (another reader may have unlinked it first — also fine)
            self.misses += 1
            _unlink_quietly(path)
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: Union[SimStats, SampledStats]) -> None:
        atomic_write_text(self._path(key), json.dumps(stats.to_dict()))

    # ------------------------------------------------------------- raw bytes
    def get_bytes(self, key: str) -> Optional[bytes]:
        """The entry's exact stored JSON bytes, validated — or ``None``.

        Used by the fleet's content-addressed store: shipping the stored
        bytes verbatim keeps the transfer digest stable across hops.
        Corrupt entries read as misses and are unlinked, same as
        :meth:`get`.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
            stats_from_dict(json.loads(blob.decode("utf-8")))
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.misses += 1
            _unlink_quietly(path)
            return None
        self.hits += 1
        return blob

    def put_bytes(self, key: str, blob: bytes) -> None:
        """Store an entry from its serialized bytes (caller validates)."""
        atomic_write_bytes(self._path(key), blob)

    # ------------------------------------------------------------------ maintenance
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        entries = self._entries()
        for path in entries:
            _unlink_quietly(path)
        return len(entries)

    def prune(self, max_entries: int = 50_000) -> int:
        """Drop the oldest entries (by mtime) beyond ``max_entries``."""
        entries = self._entries()
        excess = len(entries) - max_entries
        if excess <= 0:
            return 0
        entries.sort(key=lambda path: path.stat().st_mtime)
        for path in entries[:excess]:
            _unlink_quietly(path)
        return excess


# ---------------------------------------------------------------------- traces
def default_trace_dir() -> Path:
    env = os.environ.get("REPRO_TRACE_DIR")
    if env:
        return Path(env)
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env) / "traces"
    return Path.home() / ".cache" / "repro" / "traces"


@lru_cache(maxsize=1)
def generator_fingerprint() -> str:
    """Hash of only the workload-generation source.

    Deliberately narrower than :func:`code_fingerprint`: a pregenerated
    trace depends on the generator, the profiles and the serialization
    formats — not on the simulator.  Pipeline changes keep traces valid.
    """
    from repro.workloads import generator, profiles, trace_codec, trace_io

    digest = hashlib.sha256()
    for module in (generator, profiles, trace_codec, trace_io):
        path = Path(module.__file__)
        digest.update(path.name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


#: trace storage format: "binary" (columnar codec) | "jsonl" (legacy)
TRACE_FORMAT_ENV = "REPRO_TRACE_FORMAT"

#: entry bound of the process-local trace memo
TRACE_MEMO_ENV = "REPRO_TRACE_MEMO"


def trace_format() -> str:
    """``REPRO_TRACE_FORMAT`` env, validated; default ``binary``."""
    fmt = os.environ.get(TRACE_FORMAT_ENV, "").strip() or "binary"
    if fmt not in ("binary", "jsonl"):
        raise ValueError(f"{TRACE_FORMAT_ENV}={fmt!r}: expected "
                         f"'binary' or 'jsonl'")
    return fmt


def trace_key(profile: WorkloadProfile, insts: int, seed: int,
              body_iters: int = 50,
              fingerprint: Optional[str] = None) -> str:
    """Stable content hash of one pregenerated trace's inputs."""
    payload = {
        "profile": asdict(profile),
        "insts": insts,
        "seed": seed,
        "body_iters": body_iters,
        "generator": fingerprint if fingerprint is not None
        else generator_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class TraceStream:
    """Re-iterable binary-codec trace.

    The blob is parsed into :class:`~repro.workloads.trace_codec.
    TraceColumns` once (lazily, checksum-validated); every iteration
    re-materializes fresh :class:`~repro.isa.dyninst.DynInst` objects,
    because the pipeline mutates instructions in place.  Holding the
    stream (e.g. in :class:`TraceMemo`) therefore amortizes the parse
    across passes — repeat points pay only materialization.
    """

    def __init__(self, blob: bytes, total_insts: int) -> None:
        self.blob = blob
        self.total_insts = total_insts
        self._columns = None

    def columns(self):
        if self._columns is None:
            from repro.workloads.trace_codec import decode_columns

            self._columns = decode_columns(self.blob)
        return self._columns

    def __iter__(self):
        return iter(self.columns().materialize())


class JsonTraceStream:
    """Re-iterable JSON-lines trace (legacy/interchange path): every
    iteration re-decodes the text, so each pass yields fresh
    :class:`~repro.isa.dyninst.DynInst` objects."""

    def __init__(self, text: str, total_insts: int) -> None:
        self._text = text
        self.total_insts = total_insts

    def __iter__(self):
        from repro.workloads.trace_io import load_trace

        return load_trace(io.StringIO(self._text))


class TraceCache:
    """On-disk pregenerated-trace cache.

    One entry per trace key, stored either as a binary columnar blob
    (``.rtc``, the default) or as a gzipped JSON-lines container
    (``.jsonl.gz``, the interchange/legacy format); ``format`` defaults
    to :func:`trace_format` (``REPRO_TRACE_FORMAT``).  Reads probe the
    cache's own format first, then fall back to the other, so a cache
    directory written by the legacy path keeps working after the switch.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 fingerprint: Optional[str] = None,
                 format: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_trace_dir()
        self.fingerprint = fingerprint if fingerprint is not None \
            else generator_fingerprint()
        self.format = format if format is not None else trace_format()
        if self.format not in ("binary", "jsonl"):
            raise ValueError(f"unknown trace format {self.format!r}")
        self.hits = 0
        self.misses = 0

    def key_for(self, profile: WorkloadProfile, insts: int, seed: int,
                body_iters: int = 50) -> str:
        return trace_key(profile, insts, seed, body_iters, self.fingerprint)

    def _path(self, key: str, format: Optional[str] = None) -> Path:
        suffix = ".rtc" if (format or self.format) == "binary" \
            else ".jsonl.gz"
        return self.root / key[:2] / f"{key}{suffix}"

    # ------------------------------------------------------------ binary
    def get_blob(self, key: str) -> Optional[bytes]:
        """The stored binary trace blob, or ``None`` on a miss.

        The blob's header (magic, version, schema digest) and payload
        checksum are validated here, so corruption, truncation and
        version skew all read as misses (and remove the entry) rather
        than surfacing later as decode errors.
        """
        from repro.workloads.trace_codec import TraceCodecError, trace_count

        path = self._path(key, "binary")
        try:
            blob = path.read_bytes()
            trace_count(blob)  # full header + checksum validation
        except FileNotFoundError:
            self.misses += 1
            return None
        except (TraceCodecError, OSError, ValueError):
            self.misses += 1
            _unlink_quietly(path)
            return None
        self.hits += 1
        return blob

    def put_blob(self, key: str, blob: bytes) -> None:
        atomic_write_bytes(self._path(key, "binary"), blob)

    # ------------------------------------------------------------- jsonl
    def get_text(self, key: str) -> Optional[str]:
        """The stored trace as JSON-lines text, or ``None`` on a miss.

        The first line is a ``{"count": N}`` header; a mismatch between
        the header and the body (a truncated write that survived
        compression framing) reads as a miss, like any other corruption.
        """
        path = self._path(key, "jsonl")
        try:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                body = handle.read()
            count = header["count"]
            if body.count("\n") != count:
                raise ValueError("trace line count mismatch")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.misses += 1
            _unlink_quietly(path)
            return None
        self.hits += 1
        return body

    def put_text(self, key: str, text: str, count: int) -> None:
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
            handle.write(json.dumps({"count": count}).encode("utf-8"))
            handle.write(b"\n")
            handle.write(text.encode("utf-8"))
        atomic_write_bytes(self._path(key, "jsonl"), buffer.getvalue())

    # ----------------------------------------------------------- streams
    def get_stream(self, key: str,
                   insts: int) -> Optional[Union[TraceStream,
                                                 JsonTraceStream]]:
        """The cached trace as a re-iterable stream, or ``None``.

        Probes the cache's own format first, then the other format, so
        mixed-format cache directories never force regeneration.  Only
        the first probe's miss is counted (the fallback is opportunistic).
        """
        if self.format == "binary":
            blob = self.get_blob(key)
            if blob is not None:
                return TraceStream(blob, insts)
            text = self.get_text(key)
            if text is not None:
                self.misses -= 1  # fallback hit, not a real miss
                return JsonTraceStream(text, insts)
            self.misses -= 1
            return None
        text = self.get_text(key)
        if text is not None:
            return JsonTraceStream(text, insts)
        blob = self.get_blob(key)
        if blob is not None:
            self.misses -= 1
            return TraceStream(blob, insts)
        self.misses -= 1
        return None

    def put_insts(self, key: str, insts_list: list,
                  total_insts: int) -> Union[TraceStream, JsonTraceStream]:
        """Serialize a generated instruction list per the cache format,
        store it, and return the stream decoded from the stored bytes."""
        if self.format == "binary":
            from repro.workloads.trace_codec import TraceCodecError, encode

            try:
                blob = encode(insts_list)
            except TraceCodecError:
                pass  # unrepresentable trace: fall back to jsonl below
            else:
                self.put_blob(key, blob)
                return TraceStream(blob, total_insts)
        from repro.workloads.trace_io import save_trace

        buffer = io.StringIO()
        count = save_trace(iter(insts_list), buffer)
        text = buffer.getvalue()
        self.put_text(key, text, count)
        return JsonTraceStream(text, total_insts)

    # ------------------------------------------------------- maintenance
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/*.jsonl.gz")) \
            + list(self.root.glob("??/*.rtc"))

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        entries = self._entries()
        for path in entries:
            _unlink_quietly(path)
        return len(entries)


def memo_key(profile: WorkloadProfile, insts: int, seed: int,
             body_iters: int = 50, format: str = "binary") -> tuple:
    """:class:`TraceMemo` key of one trace: the profile's whole content
    (like :func:`trace_key`), never just its name."""
    return (profile_key(profile), insts, seed, body_iters, format)


class TraceMemo:
    """Process-local LRU of decoded trace streams.

    Keyed by :func:`memo_key`; bounded by
    ``REPRO_TRACE_MEMO`` (default 32 entries, 0 disables).  Holding the
    stream object — not just its bytes — keeps a binary stream's parsed
    columns warm, so a worker revisiting a workload pays only
    re-materialization.  Hit/miss counters feed the bench report.
    """

    DEFAULT_LIMIT = 32

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is None:
            raw = os.environ.get(TRACE_MEMO_ENV, "").strip()
            limit = int(raw) if raw else self.DEFAULT_LIMIT
        if limit < 0:
            raise ValueError(f"{TRACE_MEMO_ENV} must be >= 0, got {limit}")
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()

    def get(self, key: tuple):
        stream = self._entries.get(key)
        if stream is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return stream

    def put(self, key: tuple, stream) -> None:
        if self.limit == 0:
            return
        self._entries[key] = stream
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def stats(self) -> dict:
        return {"limit": self.limit, "entries": len(self._entries),
                "hits": self.hits, "misses": self.misses}


#: process-wide memo instance; replace via :func:`reset_trace_memo`
TRACE_MEMO = TraceMemo()


def reset_trace_memo(limit: Optional[int] = None) -> TraceMemo:
    """Install a fresh :class:`TraceMemo` (re-reading ``REPRO_TRACE_MEMO``
    unless ``limit`` is given) and return it.  Used by tests and by the
    bench harness to start from a cold memo."""
    global TRACE_MEMO
    TRACE_MEMO = TraceMemo(limit)
    return TRACE_MEMO


def cached_stream(profile: WorkloadProfile, insts: int, seed: int = 1,
                  body_iters: int = 50, cache: Optional[TraceCache] = None):
    """The workload stream for one sweep point, via the trace cache.

    Resolution order: process-local :class:`TraceMemo` -> on-disk trace
    cache (binary ``.rtc`` by default; see ``REPRO_TRACE_FORMAT``) ->
    generate (and populate both).  Every path returns a stream decoded
    from the serialized bytes — never the raw generator — so jobs=1,
    warm-worker and cold-worker runs all consume byte-identical streams.
    Set ``REPRO_NO_TRACE_CACHE=1`` to bypass the cache and use the
    in-memory generator directly.
    """
    if os.environ.get("REPRO_NO_TRACE_CACHE"):
        from repro.workloads.generator import shared_workload

        return shared_workload(profile, insts, seed, body_iters)
    trace_cache = cache if cache is not None else TraceCache()
    key = memo_key(profile, insts, seed, body_iters, trace_cache.format)
    stream = TRACE_MEMO.get(key)
    if stream is None:
        disk_key = trace_cache.key_for(profile, insts, seed, body_iters)
        stream = trace_cache.get_stream(disk_key, insts)
        if stream is None:
            from repro.workloads.generator import SyntheticWorkload

            workload = SyntheticWorkload(profile, total_insts=insts,
                                         seed=seed, body_iters=body_iters)
            stream = trace_cache.put_insts(disk_key, list(iter(workload)),
                                           insts)
        TRACE_MEMO.put(key, stream)
    return stream
