"""The benchmark's three workloads, driven through the simulator's
public API.

Every workload is a :class:`Workload` with two steps:

* ``setup(seed, sizes, work)`` — imports, grid enumeration and, for the
  fleet, coordinator start plus both workers' handshakes; it ends where
  the workload makes its first simulation call.
* ``run()`` — the timed work; ``summarize()`` then digests and checks
  its results into a :class:`PassResult`, outside the timed region.

The seed reaches the simulator only through ``Scale.seed`` /
``SweepPoint.seed`` (and so the generated traces).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import threading
import time
from dataclasses import dataclass, field

#: worker processes for the sweep pool and for the fleet
JOBS = 2
#: sampling schedule of ``sampled-fleet``: the inter-window gap exceeds
#: the sampling engine's 3000-instruction warm zone, so both the skim
#: and the fast-forward paths run.  The stream length is a whole number
#: of periods, so every point gets the same number of windows whatever
#: the seeded window offsets; three windows average out how much of each
#: gap those offsets leave to fast-forward
FLEET_SAMPLING = "10000:200:120"
#: ``point-exact`` configurations: (renamer scheme, read-port scheme)
EXACT_CONFIGS = (("sharing", "none"), ("conventional", "none"),
                 ("early", "none"), ("hinted", "none"),
                 ("conventional", "banked_arbiter"))
EXACT_PROFILES = ("hmmer", "milc")  # one integer, one floating-point
EXACT_SIZE = 64
#: a fleet that has not resolved every point by then has hung
FLEET_DEADLINE_S = 150.0


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does."""

    quick_insts: int
    per_suite: int
    rf_sizes: tuple
    fleet_insts: int
    exact_insts: int


SIZES = {
    # the measured configuration
    "bench": Sizes(quick_insts=8_000, per_suite=6,
                   rf_sizes=(48, 56, 64, 80, 96), fleet_insts=30_000,
                   exact_insts=10_000),
    # seconds-long runs for the benchmark's self-tests
    "tiny": Sizes(quick_insts=600, per_suite=1, rf_sizes=(48, 64),
                  fleet_insts=3_000, exact_insts=1_500),
}


def digest(payload) -> str:
    """Short content digest of a JSON-able value (or text)."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    #: point key -> digest of the simulated stats dict
    points: dict = field(default_factory=dict)
    #: rendered output name -> digest of its text
    outputs: dict = field(default_factory=dict)
    #: summed exact simulated counters
    sim: dict = field(default_factory=lambda: {
        "cycles": 0, "committed": 0, "rename_stall_regs": 0})
    #: (point key, message) for every failed or inconsistent point
    errors: list = field(default_factory=list)
    #: summed :func:`tail_seconds` of the pass's parallel executions
    tail_s: float = 0.0
    #: workload-specific extras (headline numbers, fleet counters)
    extra: dict = field(default_factory=dict)

    def record(self, key: str, stats, expected_insts=None) -> None:
        """Record one point's stats; a key seen twice must agree."""
        point_digest = digest(stats.to_dict())
        previous = self.points.setdefault(key, point_digest)
        if previous != point_digest:
            self.errors.append((key, "two results in one pass differ"))
        est = getattr(stats, "est", stats)
        if expected_insts is not None and est.committed != expected_insts:
            self.errors.append((key, f"committed {est.committed} of "
                                     f"{expected_insts} instructions"))

    def add_sim(self, stats) -> None:
        est = getattr(stats, "est", stats)
        for name in self.sim:
            self.sim[name] += getattr(est, name)


def tail_seconds(completions: list) -> float:
    """Seconds from the completion that left fewer than ``JOBS`` points
    running to the final completion (0 when fewer than JOBS completed)."""
    if len(completions) < JOBS:
        return 0.0
    ordered = sorted(completions)
    return ordered[-1] - ordered[-JOBS]


class Workload:
    name = ""
    #: passes per measured run: cold passes (each from empty caches) and
    #: warm passes; cold_s and warm_s are their medians
    cold_passes = 1
    warm_passes = 2
    #: processes that simulate in parallel (the parallel efficiency base)
    parallelism = JOBS

    def setup(self, seed: int, sizes: Sizes, work, points=True) -> None:
        """``points=False`` sets up without any work queued (the fleet
        then serves its workers nothing); other workloads ignore it."""
        raise NotImplementedError

    def run(self) -> None:
        """The timed work; keeps its raw results for :meth:`summarize`."""
        raise NotImplementedError

    def summarize(self) -> PassResult:
        """Digests and checks of the last :meth:`run` (not timed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started (idempotent)."""


# ----------------------------------------------------------- figures-quick
class FiguresQuick(Workload):
    """What ``repro figures --jobs 2`` does at quick scale."""

    name = "figures-quick"

    def setup(self, seed, sizes, work, points=True) -> None:
        import repro.harness as harness
        from repro.harness.cache import ResultCache
        from repro.harness.runner import Scale

        self.harness = harness
        self.scale = Scale(insts=sizes.quick_insts,
                           benchmarks_per_suite=sizes.per_suite,
                           sizes=sizes.rf_sizes, seed=seed, seeds=(seed,))
        self.cache = ResultCache()
        # the figure functions enumerate their grids themselves; this is
        # the union, kept to check that every point was reported
        self.grid = self._grid()

    def _grid(self) -> set:
        from repro.harness.figures import PORT_CONFIGS

        scale = self.scale
        all_profiles = [p for suite in ("specint", "specfp", "mediabench",
                                        "cognitive")
                        for p in scale.profiles(suite)]
        spec = scale.profiles("specint") + scale.profiles("specfp")
        keys = {f"{p.name}/{scheme}/{size}/none" for p in all_profiles
                for size in scale.sizes
                for scheme in ("conventional", "sharing")}
        keys |= {f"{p.name}/{scheme}/{size}/{ports}" for p in spec
                 for size in scale.sizes for scheme, ports in PORT_CONFIGS}
        keys |= {f"{p.name}/sharing/64/none" for p in spec}
        return keys

    def run(self) -> None:
        h = self.harness
        scale = self.scale
        self.reported: list = []
        self.calls: list = []

        def progress(done, _total, point_result):
            if done == 1:
                self.calls.append([])
            self.reported.append(point_result)
            if not point_result.cached:
                self.calls[-1].append(time.perf_counter())

        engine = {"jobs": JOBS, "cache": self.cache, "progress": progress}
        self.texts = {
            "tables": "\n\n".join([h.table1(), h.table2_result().render(),
                                   h.table3().render()]),
            "fig1": h.figure1(scale).render(),
            "fig2": h.figure2(scale).render(),
            "fig3": h.figure3(scale).render(),
            "fig9": h.figure9(scale).render(),
            "fig11": h.figure11(scale, **engine).render(),
            "fig12": h.figure12(scale, **engine).render(),
            "ports": h.figure_ports(scale, **engine).render(),
        }
        for suite in ("specfp", "specint", "media+cog"):
            self.texts[f"fig10-{suite}"] = h.figure10(suite, scale,
                                                      **engine).render()
        self.headline = h.headline(scale, **engine)
        self.texts["headline"] = self.headline.render()

    def summarize(self) -> PassResult:
        result = PassResult()
        for point_result in self.reported:
            point = point_result.point
            key = (f"{point.profile.name}/{point.scheme}/{point.size}/"
                   f"{point.port_scheme}")
            if not point_result.ok:
                result.errors.append((key, point_result.error))
                continue
            if key not in result.points:
                result.add_sim(point_result.stats)
            result.record(key, point_result.stats, point.insts)
        result.outputs = {name: digest(text)
                          for name, text in self.texts.items()}
        result.tail_s = sum(tail_seconds(c) for c in self.calls)
        result.extra["headline"] = {
            "speedup": self.headline.average_speedup - 1.0,
            "saving": self.headline.iso_ipc_saving}
        missing = self.grid - set(result.points)
        result.errors.extend((key, "never reported")
                             for key in sorted(missing))
        return result


# ----------------------------------------------------------- sampled-fleet
class SampledFleet(Workload):
    """The fig10 equal-area grid, sampled, served over a localhost TCP
    fleet coordinator to forked workers."""

    name = "sampled-fleet"

    def setup(self, seed, sizes, work, points=True) -> None:
        from repro.fleet import ContentStore, FleetConfig, FleetCoordinator
        from repro.fleet.worker import WorkerConfig, worker_main
        from repro.harness.runner import Scale, enumerate_pair_points

        scale = Scale(insts=sizes.fleet_insts,
                      benchmarks_per_suite=sizes.per_suite,
                      sizes=sizes.rf_sizes, seed=seed, seeds=(seed,),
                      sampling=FLEET_SAMPLING)
        profiles = [p for suite in ("specfp", "specint", "mediabench",
                                    "cognitive")
                    for p in scale.profiles(suite)]
        self.points = enumerate_pair_points(profiles, scale)
        self.results: dict = {}
        self.completions: list = []
        lock = threading.Lock()

        def finish(index, point_result):
            with lock:
                self.results[index] = point_result
                self.completions.append(time.perf_counter())

        config = FleetConfig(host="127.0.0.1", port=0, local=False,
                             lease_deadline=60.0, socket_timeout=60.0)
        pending = list(range(len(self.points))) if points else []
        self.coordinator = FleetCoordinator(self.points, pending, finish,
                                            config, store=ContentStore())
        host, port = self.coordinator.start()
        context = multiprocessing.get_context("fork")
        self.workers = []
        for slot in range(JOBS):
            worker_config = WorkerConfig(
                host=host, port=port, name=f"bench-w{slot}", seed=slot,
                reconnect_attempts=5, socket_timeout=60.0,
                trace_dir=str(work / f"worker{slot}" / "traces"),
                cache_dir=str(work / f"worker{slot}" / "cache"),
                close_fds=(self.coordinator.listener_fd,))
            process = context.Process(target=worker_main,
                                      args=(worker_config,), daemon=True)
            process.start()
            self.workers.append(process)
        deadline = time.monotonic() + 30.0
        while self.coordinator.events.get("workers_connected") < JOBS:
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers never connected")
            time.sleep(0.001)

    def run(self) -> None:
        stop = threading.Event()
        timer = threading.Timer(FLEET_DEADLINE_S, stop.set)
        timer.start()
        try:
            self.completed = self.coordinator.run(stop=stop)
        finally:
            timer.cancel()
        self.close()

    def summarize(self) -> PassResult:
        result = PassResult()
        if not self.completed:
            result.errors.append(("fleet", "did not resolve every point "
                                  f"within {FLEET_DEADLINE_S:.0f} s"))
        self.stats = {}
        for index, point in enumerate(self.points):
            key = f"{point.profile.name}/{point.scheme}/{point.size}"
            point_result = self.results.get(index)
            if point_result is None or not point_result.ok:
                error = "missing" if point_result is None \
                    else point_result.error
                result.errors.append((key, error))
                continue
            self.stats[key] = point_result.stats.to_dict()
            result.record(key, point_result.stats, point.insts)
            result.add_sim(point_result.stats)
        result.tail_s = tail_seconds(self.completions)
        counters = self.coordinator.events.snapshot()["counters"]
        result.extra["fleet"] = {
            name: counters.get(name, 0)
            for name in ("leases_granted", "blobs_served", "requeues",
                         "local_points")}
        return result

    def verify_serial(self, result: PassResult) -> None:
        """The fleet's results must be byte-identical to an in-process
        serial run of the same points."""
        from repro.harness.parallel import run_points

        for point, serial in zip(self.points, run_points(self.points,
                                                         jobs=1)):
            key = f"{point.profile.name}/{point.scheme}/{point.size}"
            if not serial.ok:
                result.errors.append((key, f"serial run failed: "
                                           f"{serial.error}"))
            elif key in self.stats and json.dumps(
                    serial.stats.to_dict(), sort_keys=True) != json.dumps(
                    self.stats[key], sort_keys=True):
                result.errors.append((key, "fleet result differs from "
                                           "the serial in-process run"))

    def close(self) -> None:
        coordinator = getattr(self, "coordinator", None)
        if coordinator is None:
            return
        if not coordinator.stopping:
            coordinator.drain()
            coordinator.stop()
        for process in self.workers:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()


# ------------------------------------------------------------- point-exact
class PointExact(Workload):
    """Long exact runs straight through ``Processor(config,
    stream).run()``: no sweep engine, no result cache."""

    name = "point-exact"
    cold_passes = 3
    warm_passes = 3
    parallelism = 1

    def setup(self, seed, sizes, work, points=True) -> None:
        from repro.frontend.fetch import IterSource
        from repro.harness import cache
        from repro.harness.runner import make_config
        from repro.pipeline.processor import Processor
        from repro.workloads.profiles import BENCHMARKS

        self.seed = seed
        self.insts = sizes.exact_insts
        # bound here so that their imports count as set-up
        self.cache = cache
        self.source = IterSource
        self.processor = Processor
        self.configs = [
            (BENCHMARKS[name], scheme, ports,
             make_config(BENCHMARKS[name], scheme, EXACT_SIZE,
                         port_scheme=ports))
            for name in EXACT_PROFILES for scheme, ports in EXACT_CONFIGS]

    def run(self) -> None:
        self.stats = []
        for profile, scheme, ports, config in self.configs:
            stream = self.cache.cached_stream(profile, self.insts, self.seed)
            processor = self.processor(config, self.source(iter(stream)))
            self.stats.append(processor.run())

    def summarize(self) -> PassResult:
        result = PassResult()
        for (profile, scheme, ports, _config), stats in zip(self.configs,
                                                            self.stats):
            key = profile.name + "/" + scheme + (
                "" if ports == "none" else "+" + ports)
            result.record(key, stats, self.insts)
            result.add_sim(stats)
        return result


WORKLOADS = {w.name: w for w in (FiguresQuick, SampledFleet, PointExact)}
