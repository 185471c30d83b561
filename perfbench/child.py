"""One benchmark pass in a fresh process.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py --workload NAME --seed N --scale bench \\
        --mode setup|cold|warm --work DIR --out RESULT.json \\
        [--trace-dir DIR] [--verify-serial]

``setup`` stops where the workload would make its first simulation
call; ``cold`` and ``warm`` then run the workload once (which of the
two it is depends only on what the cache directories in the
environment hold).  The result JSON carries the monotonic time setup
ended, the pass's wall-clock, the host's speed during set-up and during
the pass, peak RSS, per-point digests and, with ``--trace-dir``, the
per-layer metrics of the pass.

The host's speed is sampled inside the pass itself.  On a shared host
the speed of each virtual CPU drifts by 10-30% within seconds and over
minutes, independently of the other CPU, so a calibration taken between
passes, or in another process, does not track what the pass ran at.
Every ``SAMPLE_EVERY_S`` of a process's CPU time a ``SIGVTALRM``
handler times a fixed interpreter loop on the thread's CPU clock, in
this process and in the workers it forks; the mean loop time over a
phase is the speed that phase ran at.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: CPU seconds of this process between two speed samples
SAMPLE_EVERY_S = 0.04
#: steps of the sampled loop (about 0.25 ms, run twice per sample: about
#: 1.3% of the pass)
CAL_ITERATIONS = 2_000


def _calibration_loop() -> int:
    """Fixed interpreter work, independent of the simulator's code."""
    table: dict = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        table[i & 1023] = total
        total += i * 3 % 7
    return total


class HostSpeed:
    """Mean CPU seconds of the calibration loop, sampled through each
    phase of the pass by a virtual-time interval timer.

    The virtual timer counts a process's own CPU time, so it neither
    fires while the process waits nor collides with a wall-clock
    ``SIGALRM`` watchdog.  Interval timers do not survive ``fork``, so a
    fork hook re-arms the timer in every process the pass forks (sweep
    pool and fleet workers); each such process keeps its running totals
    in a file of its own under ``samples``, rewritten in place after every
    sample because pool workers end without running exit handlers.
    """

    #: one record: total loop CPU seconds, loop count
    RECORD = "{:24.9f} {:12d}\n"

    def __init__(self, samples: Path) -> None:
        self.samples = samples
        samples.mkdir(parents=True, exist_ok=True)
        self.cpu = 0.0
        self.loops = 0
        self.fd = None
        self.active = True
        signal.signal(signal.SIGVTALRM, self._sample)
        os.register_at_fork(after_in_child=self._forked)
        self._arm()

    @staticmethod
    def _arm() -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S,
                         SAMPLE_EVERY_S)

    def _forked(self) -> None:
        if not self.active:
            return
        self.cpu, self.loops = 0.0, 0
        self.fd = os.open(self.samples / str(os.getpid()),
                          os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        self._arm()

    def _sample(self, *_) -> None:
        # the first run refills the caches the pass evicted, so that the
        # timed one measures the host, not the simulator's footprint
        _calibration_loop()
        start = time.thread_time()
        _calibration_loop()
        self.cpu += time.thread_time() - start
        self.loops += 1
        if self.fd is not None:
            os.pwrite(self.fd,
                      self.RECORD.format(self.cpu, self.loops).encode(), 0)

    def phase(self, forked: bool = False) -> float:
        """Mean loop seconds since the previous call (or the start), in
        this process and, with ``forked``, in every process it forked."""
        if not self.loops:
            self._sample()
        cpu, loops = self.cpu, self.loops
        self.cpu, self.loops = 0.0, 0
        if forked:
            for path in self.samples.iterdir():
                fields = path.read_text().split()
                if len(fields) == 2:
                    cpu += float(fields[0])
                    loops += int(fields[1])
        return cpu / loops

    def stop(self) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        # not SIG_DFL, whose action on a late signal is to terminate
        signal.signal(signal.SIGVTALRM, signal.SIG_IGN)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "warm"),
                        required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--verify-serial", action="store_true")
    args = parser.parse_args()

    speed = HostSpeed(args.out.with_suffix(".speed"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import SIZES, WORKLOADS

    recorder = None
    if args.trace_dir is not None:
        import spans

        recorder = spans.install(args.trace_dir)
    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed, SIZES[args.scale], args.work,
                       points=args.mode != "setup")
        out = {"ready": time.monotonic(), "setup_loop_s": speed.phase()}
        if args.mode == "setup":
            return _write(args.out, out)
        t0 = time.perf_counter()
        workload.run()
        t1 = time.perf_counter()
        out["run_loop_s"] = speed.phase(forked=True)
    finally:
        speed.stop()
        workload.close()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = workload.summarize()
    out.update(seconds=t1 - t0, peak_rss_mb=peak_kb / 1024.0)
    if args.verify_serial:
        workload.verify_serial(result)
    out["result"] = dataclasses.asdict(result)
    if recorder is not None:
        import layers
        import spans

        recorder.flush()
        out["traced"] = layers.compute(spans.load(args.trace_dir),
                                       os.getpid(), t0, t1, out["result"],
                                       workload.parallelism)
    return _write(args.out, out)


def _write(path: Path, payload: dict) -> int:
    path.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
