"""Remote sweep worker: lease, simulate, heartbeat, upload, repeat.

A worker is a loop around one TCP session: ``hello`` (which the
coordinator rejects outright on a code-fingerprint mismatch — a
version-skewed worker must not compute anything), then lease points and
run them through the exact same :func:`~repro.harness.parallel._worker`
entry as every local execution mode, so a point's statistics cannot
depend on *where* it ran.

Concurrency is deliberately primitive: while the main thread simulates,
a heartbeat thread owns the socket exclusively, extending the lease
deadline every few seconds; the main thread only touches the socket
before and after.  No multiplexing, no async — a dead socket surfaces as
an exception in whichever thread holds it, the session ends, and the
reconnect loop (deterministic seeded backoff jitter, same scheme as the
local worker pool's retry path) starts a fresh one.  Anything the worker
abandoned mid-point comes back via lease expiry on the coordinator.

Traces move through the content-addressed store: before simulating, the
worker asks the coordinator for the point's trace blob (keyed by the
same fingerprinted :func:`~repro.harness.cache.trace_key` as the local
cache); a hit lands in the worker's local cache so generation is
skipped, a miss means the worker generates locally and publishes the
blob back for the rest of the fleet.  Every transfer is digest-verified
on receipt, both directions.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.fleet import protocol
from repro.fleet.cas import CasError, ContentStore, blob_digest
from repro.fleet.coordinator import FleetEvents

#: result-upload attempts per lease before abandoning (each rejection is
#: a clean resend of freshly serialized bytes)
UPLOAD_ATTEMPTS = 3


class FatalRejection(RuntimeError):
    """The coordinator refused this worker permanently; do not reconnect."""


@dataclass(frozen=True)
class WorkerConfig:
    """Shape of one worker process."""

    host: str = "127.0.0.1"
    port: int = 0
    name: str = ""  # defaults to worker-<pid>
    #: target interval between lease heartbeats (clamped well under the
    #: coordinator's lease deadline once a point is leased)
    heartbeat_interval: float = 5.0
    #: consecutive connection/session failures tolerated before giving up
    #: (any committed progress resets the count)
    reconnect_attempts: int = 10
    reconnect_delay: float = 0.25
    connect_timeout: float = 5.0
    socket_timeout: float = 60.0
    #: salt for the deterministic reconnect-backoff jitter
    seed: int = 0
    max_frame: int = protocol.MAX_FRAME
    #: when set, the final event summary is atomically written here as
    #: JSON — how chaos campaigns read a (possibly SIGKILLed) worker back
    events_path: str = ""
    #: when set, exported as ``REPRO_TRACE_DIR``/``REPRO_CACHE_DIR``
    #: before any cache is opened (per-worker isolation in tests/chaos)
    trace_dir: str = ""
    cache_dir: str = ""
    #: claim this code fingerprint instead of the real one (how the
    #: chaos harness models a version-skewed worker)
    fingerprint: str = ""
    #: file descriptors to close at process start — a fork-started
    #: worker inherits the coordinator's listening socket, which would
    #: keep the port bound across a coordinator restart
    close_fds: tuple = ()


class WorkerChaos:
    """Self-inflicted faults, installed by the chaos campaign.

    Each knob is a countdown — the fault fires that many times, then the
    worker behaves; a rejected upload therefore retries *clean*, which is
    exactly the recovery path under test.
    """

    def __init__(self, truncate_uploads: int = 0, corrupt_uploads: int = 0,
                 stall_points: int = 0, stall_duration: float = 0.0) -> None:
        self.truncate_uploads = truncate_uploads
        self.corrupt_uploads = corrupt_uploads
        self.stall_points = stall_points
        self.stall_duration = stall_duration
        self.events: list[dict] = []

    def mangle_upload(self, body: bytes) -> tuple[bytes, Optional[str]]:
        """Maybe damage an upload body (the digest still names the
        *correct* bytes, so the coordinator must notice)."""
        if self.truncate_uploads > 0 and len(body) > 1:
            self.truncate_uploads -= 1
            self.events.append({"event": "chaos_truncate_upload"})
            return body[:len(body) // 2], "truncate_upload"
        if self.corrupt_uploads > 0 and body:
            self.corrupt_uploads -= 1
            self.events.append({"event": "chaos_corrupt_upload"})
            mangled = bytearray(body)
            mangled[len(mangled) // 3] ^= 0x40
            return bytes(mangled), "corrupt_upload"
        return body, None

    def point_stall(self) -> float:
        """Seconds to stall (heartbeats stopped) before uploading —
        modelling a worker that goes silent past the lease deadline."""
        if self.stall_points > 0:
            self.stall_points -= 1
            self.events.append({"event": "chaos_stall_point",
                                "duration": self.stall_duration})
            return self.stall_duration
        return 0.0


class FleetWorker:
    """One worker process: reconnect loop around lease/run/upload."""

    def __init__(self, config: WorkerConfig, *,
                 store: Optional[ContentStore] = None,
                 fingerprint: Optional[str] = None,
                 chaos: Optional[WorkerChaos] = None) -> None:
        from repro.harness.cache import code_fingerprint

        self.config = config
        self.name = config.name or f"worker-{os.getpid()}"
        self.store = store if store is not None else ContentStore()
        self.fingerprint = fingerprint if fingerprint is not None \
            else (config.fingerprint or code_fingerprint())
        self.chaos = chaos
        self.events = FleetEvents()
        self.points_done = 0
        self._progressed = False

    # -------------------------------------------------------------- main loop
    def run(self) -> dict:
        """Work until the coordinator says ``done``; returns a summary.

        Transient failures (refused connection during a coordinator
        restart, a dropped socket mid-session) reconnect with
        deterministic seeded backoff; committed progress resets the
        failure budget.  A fatal rejection (fingerprint mismatch) or an
        exhausted budget ends the worker with ``fatal`` set — it never
        spins forever against a dead or incompatible coordinator.
        """
        from repro.harness.parallel import _backoff

        failures = 0
        finished = False
        fatal = None
        while not finished:
            sock = None
            try:
                sock = self._connect()
                finished = self._session(sock)
            except FatalRejection as exc:
                fatal = str(exc)
                break
            except (protocol.ProtocolError, OSError) as exc:
                self.events.note(
                    "session_errors",
                    error=f"{type(exc).__name__}: {exc}"[:200])
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
            if self._progressed:
                failures = 0
                self._progressed = False
            if not finished:
                failures += 1
                if failures > self.config.reconnect_attempts:
                    fatal = (f"gave up after {failures} consecutive "
                             f"connection failures")
                    break
                # capped: a worker polling a restarting coordinator must
                # come back within seconds, not exponentially later
                time.sleep(min(_backoff(self.config.reconnect_delay,
                                        failures, self.config.seed), 5.0))
        summary = {
            "worker": self.name,
            "finished": finished,
            "fatal": fatal,
            "points_done": self.points_done,
            "events": self.events.snapshot(),
            "chaos": list(self.chaos.events) if self.chaos else [],
        }
        self._write_events(summary)
        return summary

    def _write_events(self, summary: dict) -> None:
        if not self.config.events_path:
            return
        from repro.harness.cache import atomic_write_bytes

        atomic_write_bytes(
            Path(self.config.events_path),
            json.dumps(summary, sort_keys=True).encode("utf-8"))

    # --------------------------------------------------------------- session
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.config.host, self.config.port),
            timeout=self.config.connect_timeout)
        ok = False
        try:
            sock.settimeout(self.config.socket_timeout)
            reply, _ = protocol.request(sock, {
                "type": "hello",
                "protocol": protocol.PROTOCOL_VERSION,
                "fingerprint": self.fingerprint,
                "worker": self.name,
            }, max_frame=self.config.max_frame)
            if reply.get("type") == "error":
                reason = str(reply.get("reason", "rejected"))
                if reply.get("fatal"):
                    self.events.note("fatal_rejections", reason=reason[:200])
                    raise FatalRejection(reason)
                raise protocol.ProtocolError(f"hello rejected: {reason}")
            if reply.get("type") != "welcome":
                raise protocol.ProtocolError(
                    f"expected welcome, got {reply.get('type')!r}")
            self.events.incr("sessions")
            ok = True
            return sock
        finally:
            if not ok:
                sock.close()

    def _session(self, sock: socket.socket) -> bool:
        """Lease/run until ``done`` (True) or the socket dies (raises)."""
        while True:
            reply, _ = self._request(sock, {"type": "lease"})
            kind = reply.get("type")
            if kind == "done":
                try:
                    protocol.send_message(sock, {"type": "bye"})
                except OSError:
                    pass
                return True
            if kind == "idle":
                time.sleep(float(reply.get("delay", 0.2)))
                continue
            if kind == "point":
                self._execute(sock, reply)
                self._progressed = True
                continue
            if kind == "error":
                if reply.get("fatal"):
                    raise FatalRejection(str(reply.get("reason", "rejected")))
                self.events.note("soft_errors",
                                 reason=str(reply.get("reason"))[:200])
                continue
            raise protocol.ProtocolError(f"unexpected reply type {kind!r}")

    def _request(self, sock, msg, body: bytes = b"") -> tuple[dict, bytes]:
        return protocol.request(sock, msg, body,
                                max_frame=self.config.max_frame)

    # -------------------------------------------------------------- one point
    def _execute(self, sock: socket.socket, lease_msg: dict) -> None:
        from repro.harness.parallel import _worker

        index = int(lease_msg["index"])
        lease = str(lease_msg["lease"])
        deadline = float(lease_msg.get("deadline", 30.0))
        point = protocol.point_from_dict(lease_msg["point"])

        # trace first (before heartbeats start: blob transfer and
        # simulation never share the socket with the heartbeat thread)
        coordinator_has_trace = self._fetch_trace(sock, point)

        stop_hb = threading.Event()
        hb_state: dict = {"lost": False, "error": None}
        interval = min(self.config.heartbeat_interval,
                       max(deadline / 3.0, 0.05))
        hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            args=(sock, lease, interval, stop_hb, hb_state),
            daemon=True, name=f"{self.name}-heartbeat")
        hb_thread.start()
        try:
            _, stats_dict, error = _worker((index, point))
        finally:
            stop_hb.set()
            hb_thread.join()
        if hb_state["error"] is not None:
            raise hb_state["error"]  # socket died; lease expiry recovers
        if not coordinator_has_trace:
            self._publish_trace(sock, point)
        if self.chaos is not None:
            stall = self.chaos.point_stall()
            if stall > 0:
                time.sleep(stall)  # silent past the deadline, on purpose
        if hb_state["lost"]:
            # the coordinator already re-leased this point; the re-run is
            # bit-identical, so abandoning here loses nothing
            self.events.note("leases_lost", index=index)
            return
        if error is not None:
            self.events.note("point_errors", index=index)
            self._request(sock, {"type": "result", "lease": lease,
                                 "index": index, "error": error})
            return
        self._upload(sock, lease, index, stats_dict)

    def _upload(self, sock, lease: str, index: int, stats_dict: dict) -> None:
        body = json.dumps(stats_dict, sort_keys=True).encode("utf-8")
        digest = blob_digest(body)  # of the TRUE bytes, even under chaos
        for _ in range(UPLOAD_ATTEMPTS):
            wire = body
            fault = None
            if self.chaos is not None:
                wire, fault = self.chaos.mangle_upload(body)
            try:
                reply, _ = self._request(sock, {"type": "result",
                                                "lease": lease,
                                                "index": index,
                                                "digest": digest}, wire)
            except (protocol.ProtocolError, OSError):
                if fault is not None and self.chaos is not None:
                    # the mangled body died with the connection — no
                    # coordinator ever saw it, so no rejection counter
                    # will account for it (the chaos classifier needs
                    # to know the difference)
                    self.chaos.events.append({"event": "chaos_mangle_void"})
                raise
            if reply.get("type") == "ok":
                self.points_done += 1
                self.events.incr("uploads_committed")
                return
            if reply.get("stale"):
                self.events.note("leases_lost", index=index)
                return
            if reply.get("type") == "error" and not reply.get("fatal"):
                self.events.note("uploads_rejected",
                                 reason=str(reply.get("reason"))[:200])
                continue
            raise protocol.ProtocolError(
                f"unexpected result reply: {reply!r}")
        # give up; the lease expires and the point requeues elsewhere
        self.events.note("uploads_abandoned", index=index)

    def _heartbeat_loop(self, sock, lease: str, interval: float,
                        stop: threading.Event, state: dict) -> None:
        try:
            while not stop.wait(interval):
                reply, _ = self._request(sock, {"type": "heartbeat",
                                                "lease": lease})
                if not reply.get("known", False):
                    state["lost"] = True
                    return
                self.events.incr("heartbeats")
        except (protocol.ProtocolError, OSError) as exc:
            state["error"] = exc

    # ----------------------------------------------------------------- blobs
    def _trace_key(self, point) -> str:
        return self.store.trace_cache.key_for(point.profile, point.insts,
                                              point.seed)

    def _fetch_trace(self, sock, point) -> bool:
        """Pull the point's trace blob if the coordinator has it; returns
        whether the coordinator had it (False → publish after the run)."""
        key = self._trace_key(point)
        local = self.store.get("trace", key)
        reply, body = self._request(sock, {"type": "blob_get",
                                           "kind": "trace", "key": key})
        if reply.get("type") != "blob" or not reply.get("found"):
            return False
        if local is None:
            try:
                self.store.put("trace", key, body,
                               digest=str(reply.get("digest", "")))
                self.events.incr("traces_fetched")
            except CasError as exc:
                # damaged in flight: refuse it and generate locally
                self.events.note("blobs_rejected", reason=str(exc)[:200])
                return False
        return True

    def _publish_trace(self, sock, point) -> None:
        """Ship a locally generated trace back for the rest of the fleet."""
        key = self._trace_key(point)
        blob = self.store.get("trace", key)
        if blob is None:
            return  # this run didn't leave a binary blob behind
        reply, _ = self._request(sock, {"type": "blob_put", "kind": "trace",
                                        "key": key,
                                        "digest": blob_digest(blob)}, blob)
        if reply.get("type") == "ok":
            self.events.incr("traces_published")


def worker_main(config: WorkerConfig,
                chaos: Optional[WorkerChaos] = None) -> dict:
    """Process entry point: apply cache isolation, run one worker.

    Fork/spawn target for the smoke tool and the chaos harness; also the
    backend of ``repro fleet worker``.  Exports the per-worker cache
    directories *before* the first cache object is constructed, then runs
    the worker to completion and (if configured) leaves its event summary
    on disk for the parent to read back.
    """
    for fd in config.close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    if config.trace_dir:
        os.environ["REPRO_TRACE_DIR"] = config.trace_dir
    if config.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = config.cache_dir
    if config.trace_dir or config.cache_dir:
        # fork-started children inherit the parent's warm in-memory trace
        # memo; drop it so this worker's cache isolation is real (its
        # traces come from its own dir or the coordinator's blob store)
        from repro.harness.cache import reset_trace_memo

        reset_trace_memo()
    worker = FleetWorker(config, chaos=chaos)
    return worker.run()
