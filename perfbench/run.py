"""Benchmark of the register-renaming reproduction, end to end and by layer.

    python3 perfbench/run.py --workload figures-quick --seed 1 \\
        --seconds 15 --trace 0

Workloads (see README.md for why each was chosen):

* ``figures-quick`` — what ``repro figures --jobs 2`` does at quick
  scale, cold (empty result, trace and kernel caches), then warm;
* ``sampled-fleet`` — the 180-point fig10 grid, interval-sampled,
  served by a localhost TCP fleet coordinator to two forked workers;
* ``point-exact`` — long exact runs through ``Processor.run`` with no
  sweep engine and no result cache.

Every pass runs in a fresh process (``child.py``) against cache
directories under ``.perfbench/`` in the checkout, removed on exit.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several set-ups), ``cold_s`` and ``warm_s`` (medians over the
workload's cold and warm passes; warm passes are added while the run
has measured less than ``--seconds``), ``peak_rss_mb``.  The three
times are in reference seconds: each pass's wall-clock scaled by the
host speed sampled inside it (see ``child.py``), so that they read the
same whether the shared host ran fast or slow at the time.
``--trace 1`` runs the workload untraced and traced, prints the
per-layer table and the wall-clock attribution, and reports
the per-layer metrics.  Both check every point against the reference
recorded for the seed (``reference.json``) and the warm pass against the
cold one.  For ``sampled-fleet`` the recorded reference was checked
byte-identical to an in-process serial run when it was recorded; for a
seed without one, the run makes that serial comparison itself.  The
last line of standard output is one JSON object.

``--record-reference SEEDS`` (comma-separated) re-records
``reference.json`` for the workload instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402
SCALES = ("bench", "tiny")
#: set-up-only processes per run; setup_s is the median over these and
#: the cold and warm passes' own set-ups
SETUP_SAMPLES = 2
#: warm passes are added (up to this many) while the run has measured
#: less than --seconds
MAX_WARM_PASSES = 5
#: a run must end well within the 180 s it is allowed
RUN_BUDGET_S = 170.0
REFERENCE = HERE / "reference.json"
#: CPU seconds of ``child._calibration_loop`` on the reference host (an
#: Intel Xeon at 2.1 GHz, Python 3.11); a reference second is a wall
#: second at the speed where the loop takes this long
CAL_REFERENCE_S = 0.00025
DIGEST_CHARS = 10
PAPER_SPEEDUP, PAPER_SAVING = 0.06, 0.105


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Spawns the child passes of one benchmark run."""

    def __init__(self, workload: str, seed: int, scale: str,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def pass_(self, mode: str, caches: str, trace_dir: Path | None = None,
              verify_serial: bool = False) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{mode}"
        out = self.work / f"{tag}.json"
        log = self.work / f"{tag}.log"
        cache_root = self.work / caches
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(REPRO_CACHE_DIR=str(cache_root / "results"),
                   REPRO_TRACE_DIR=str(cache_root / "traces"),
                   REPRO_KERNEL_DIR=str(cache_root / "kernels"))
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--scale", self.scale, "--mode", mode,
               "--work", str(cache_root), "--out", str(out)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        if verify_serial:
            cmd.append("--verify-serial")
        with open(log, "wb") as handle:
            spawned = time.monotonic()
            process = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                       stdout=handle,
                                       stderr=subprocess.STDOUT,
                                       start_new_session=True)
            try:
                code = process.wait(
                    timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # the pass's own workers share its process group
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        if code != 0:
            tail = log.read_text(errors="replace")[-3000:]
            what = "timed out" if code is None else f"exited with {code}"
            raise ChildFailed(f"{self.workload} {mode} pass {what}:\n{tail}")
        result = json.loads(out.read_text())
        result["setup_wall_s"] = result["ready"] - spawned
        result["setup_s"] = (result["setup_wall_s"] * CAL_REFERENCE_S
                             / result["setup_loop_s"])
        if "seconds" in result:
            result["scaled_s"] = (result["seconds"] * CAL_REFERENCE_S
                                  / result["run_loop_s"])
        return result


# ---------------------------------------------------------------- checking
class Check:
    """Failed points and outputs of one run, by key."""

    def __init__(self, cold: dict) -> None:
        result = cold["result"]
        self.keys = sorted(result["points"])
        self.outputs = sorted(result["outputs"])
        self.failed: dict = {}
        self.notes: list = []
        self.errors(cold, "cold")

    def fail(self, key: str, message: str) -> None:
        self.failed.setdefault(key, message)

    def errors(self, passed: dict, label: str) -> None:
        for key, message in passed["result"]["errors"]:
            self.fail(key, f"{label}: {message}")

    def same(self, a: dict, b: dict, label: str) -> None:
        """Pass ``b`` must have simulated and rendered what ``a`` did."""
        ra, rb = a["result"], b["result"]
        for field in ("points", "outputs"):
            for key in set(ra[field]) | set(rb[field]):
                if ra[field].get(key) != rb[field].get(key):
                    self.fail(key, f"{label}: differs")
        if ra["sim"] != rb["sim"]:
            self.fail("sim", f"{label}: simulated counters differ "
                             f"{ra['sim']} vs {rb['sim']}")

    def reference(self, workload: str, scale: str, seed: int,
                  cold: dict) -> None:
        recorded = _load_reference().get(f"{workload}/{scale}", {})
        digests = recorded.get("seeds", {}).get(str(seed))
        if digests is None:
            self.notes.append(
                f"no reference recorded for seed {seed}: checked warm vs "
                f"cold, committed instruction counts"
                + (", fleet vs serial" if workload == "sampled-fleet"
                   else "") + " only")
            return
        result = cold["result"]
        names = recorded["keys"] + recorded["outputs"]
        values = [digests[i:i + DIGEST_CHARS]
                  for i in range(0, len(digests), DIGEST_CHARS)]
        expected = dict(zip(names, values))
        got = {**result["points"], **result["outputs"]}
        for key in set(expected) | set(got):
            if (got.get(key) or "")[:DIGEST_CHARS] != expected.get(key):
                self.fail(key, "differs from the recorded reference")
        matched = len(names) - sum(1 for k in names if k in self.failed)
        self.notes.append(
            f"{matched} of {len(names)} points and outputs match the "
            f"reference recorded for seed {seed}"
            + (" (recorded from a fleet pass byte-identical to an "
               "in-process serial run)" if workload == "sampled-fleet"
               else ""))

    @property
    def attempted(self) -> int:
        return max(1, len(set(self.keys) | set(self.outputs)
                          | set(self.failed)))


def _load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def _recorded(runner: "Runner") -> bool:
    entry = _load_reference().get(f"{runner.workload}/{runner.scale}", {})
    return str(runner.seed) in entry.get("seeds", {})


def _serial_check(runner: "Runner") -> bool:
    """Whether a pass must compare the fleet with a live serial run: a
    recorded reference was itself checked against one when recorded."""
    return runner.workload == "sampled-fleet" and not _recorded(runner)


def record_reference(runner: Runner, seeds: list[int]) -> None:
    data = _load_reference()
    entry = None
    for seed in seeds:
        runner.seed = seed
        runner.deadline = time.monotonic() + RUN_BUDGET_S
        cold = runner.pass_("cold", f"record-{seed}",
                            verify_serial=runner.workload == "sampled-fleet")
        if cold["result"]["errors"]:
            raise ChildFailed(f"seed {seed}: {cold['result']['errors'][:3]}")
        result = cold["result"]
        keys, outputs = sorted(result["points"]), sorted(result["outputs"])
        if entry is None:
            entry = data.setdefault(f"{runner.workload}/{runner.scale}", {})
            entry.update(keys=keys, outputs=outputs)
            entry.setdefault("seeds", {})
        if keys != entry["keys"] or outputs != entry["outputs"]:
            raise ChildFailed(f"seed {seed}: a different grid")
        entry["seeds"][str(seed)] = "".join(
            {**result["points"], **result["outputs"]}[k][:DIGEST_CHARS]
            for k in keys + outputs)
        print(f"recorded {runner.workload} seed {seed}", flush=True)
        shutil.rmtree(runner.work / f"record-{seed}", ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------- running
def measure(runner: Runner, seconds: float) -> tuple[dict, Check, list]:
    """``--trace 0``: set-ups, cold passes, then warm passes on the first
    cold pass's caches."""
    setups = [runner.pass_("setup", f"setup-{i}")
              for i in range(SETUP_SAMPLES)]
    workload = WORKLOADS[runner.workload]
    colds = [runner.pass_("cold", f"caches-{i}",
                          verify_serial=i == 0 and _serial_check(runner))
             for i in range(workload.cold_passes)]
    warms: list = []
    while len(warms) < workload.warm_passes or (
            sum(p["seconds"] for p in colds + warms) < seconds
            and len(warms) < MAX_WARM_PASSES):
        warms.append(runner.pass_("warm", "caches-0"))
    cold = colds[0]
    check = Check(cold)
    for i, other in enumerate(colds[1:], 2):
        check.errors(other, f"cold {i}")
        check.same(cold, other, f"cold {i} vs cold 1")
    for i, warm in enumerate(warms, 1):
        check.errors(warm, f"warm {i}")
        check.same(cold, warm, f"warm {i} vs cold 1")
    check.reference(runner.workload, runner.scale, runner.seed, cold)
    passes = setups + colds + warms
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "cold_s": (statistics.median(c["scaled_s"] for c in colds), "s"),
        "warm_s": (statistics.median(w["scaled_s"] for w in warms), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in colds + warms), "MB"),
    }
    walls = {
        "setup_s": statistics.median(p["setup_wall_s"] for p in passes),
        "cold_s": statistics.median(c["seconds"] for c in colds),
        "warm_s": statistics.median(w["seconds"] for w in warms),
    }
    counts = {"setup_s": f"{len(passes)} set-ups",
              "cold_s": f"{len(colds)} cold pass(es)",
              "warm_s": f"{len(warms)} warm passes"}
    lines = [f"  {name:<12} {metrics[name][0]:9.3f} s   (median of "
             f"{counts[name]}; wall-clock {walls[name]:.3f} s)"
             for name in counts]
    lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:9.1f} MB")
    lines += _headline(cold)
    return metrics, check, lines


def trace(runner: Runner, chrome: Path | None) -> tuple[dict, Check, list]:
    """``--trace 1``: untraced cold, traced cold, traced warm."""
    import layers

    plain = runner.pass_("cold", "plain",
                         verify_serial=_serial_check(runner))
    spans_cold = runner.work / "spans-cold"
    traced = runner.pass_("cold", "traced", trace_dir=spans_cold)
    warm = runner.pass_("warm", "traced", trace_dir=runner.work / "spans-warm")
    check = Check(plain)
    check.errors(traced, "traced cold")
    check.errors(warm, "traced warm")
    check.same(plain, traced, "traced vs untraced cold")
    check.same(traced, warm, "traced warm vs cold")
    check.reference(runner.workload, runner.scale, runner.seed, plain)
    values = dict(traced["traced"]["metrics"])
    values["trace_overhead_s"] = traced["seconds"] - plain["seconds"]
    metrics = {name: (values[name], unit)
               for name, unit, _better in layers.PER_LAYER}
    lines = [f"  untraced cold {plain['seconds']:.3f} s, traced cold "
             f"{traced['seconds']:.3f} s, traced warm {warm['seconds']:.3f} s"]
    lines.append(f"  {'metric':<34}{'value':>14}  unit")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<34}{value:>14.6g}  {unit}")
    lines += ["  " + line for line in
              layers.attribution_table("cold pass", traced["traced"])]
    lines += ["  " + line for line in
              layers.attribution_table("warm pass", warm["traced"])]
    warm_hits = warm["traced"]["metrics"]
    lines.append(f"  warm pass: result cache hit ratio "
                 f"{warm_hits['cache.result_hit_ratio']:.3f}, trace cache "
                 f"hit ratio {warm_hits['cache.trace_hit_ratio']:.3f}")
    if chrome is not None:
        import spans

        spans.chrome_trace(spans.load(spans_cold), chrome)
        lines.append(f"  Chrome trace of the traced cold pass: {chrome}")
    return metrics, check, lines


def _headline(cold: dict) -> list:
    headline = cold["result"]["extra"].get("headline")
    if headline is None:
        return []
    return [f"  headline: equal-area speedup {headline['speedup']:+.1%} "
            f"[paper: {PAPER_SPEEDUP:.0%}], iso-IPC register saving "
            f"{headline['saving']:.1%} [paper: {PAPER_SAVING:.1%}]",
            "  (simulated; the model is unvalidated against hardware)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="bench")
    parser.add_argument("--chrome-trace", type=Path,
                        help="write the traced cold pass as Chrome "
                             "trace-event JSON (with --trace 1)")
    parser.add_argument("--record-reference", metavar="SEEDS")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # an interrupted run still stops its passes (the finally clauses)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, args.scale, work)
    try:
        if args.record_reference:
            record_reference(runner, [int(s) for s in
                                      args.record_reference.split(",")])
            return 0
        if args.trace:
            metrics, check, lines = trace(runner, args.chrome_trace)
        else:
            metrics, check, lines = measure(runner, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = min(len(check.failed), check.attempted)
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}")
    for line in lines:
        print(line)
    print(f"  failed_frac  {failed / check.attempted:9.4f} share   "
          f"({failed} of {check.attempted} points and outputs)")
    for note in check.notes:
        print(f"  check: {note}")
    for key, message in sorted(check.failed.items())[:20]:
        print(f"  FAILED {key}: {message}")
    print(json.dumps({
        "correct": not check.failed,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
