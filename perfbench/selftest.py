"""Self-tests of the benchmark, at tiny scale (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:

* an untraced run prints every ``end_to_end`` metric of BENCHMARK.json
  with its unit, and a traced run every ``per_layer`` metric;
* both report ``correct`` (the traced run also compares its simulated
  counters with the untraced run's: tracing never changes a counter);
* the same seed reproduces identical ``sim.*`` counts, and a different
  seed simulates different traces;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, OTHER_SEED = 5, 6


def fail(message: str) -> None:
    print(f"SELFTEST FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> dict:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {done.returncode}:\n"
             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(name: str, result: dict, wanted: list) -> None:
    if not result["correct"] or result["failed"]:
        fail(f"{name}: not correct: {result}")
    got = result["metrics"]
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None or entry.get("unit") != metric["unit"]:
            fail(f"{name}: metric {metric['name']} missing or has the "
                 f"wrong unit: {entry}")
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{name}: unexpected metrics {sorted(set(got))}")


def main() -> int:
    sys.path.insert(0, str(HERE))
    import layers
    from run import WORKLOADS, Runner

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py's")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            != list(layers.PER_LAYER):
        fail("BENCHMARK.json per_layer differs from layers.PER_LAYER")

    for workload in WORKLOADS:
        check_metrics(f"{workload} trace 0", run(workload, SEED, 0),
                      spec["end_to_end"])
        first = run(workload, SEED, 1)
        check_metrics(f"{workload} trace 1", first, spec["per_layer"])
        again = run(workload, SEED, 1)
        for metric in ("sim.cycles", "sim.committed", "sim.rename_stall_regs"):
            if first["metrics"][metric] != again["metrics"][metric]:
                fail(f"{workload}: {metric} differs between two runs of "
                     f"seed {SEED}")
        digests = {}
        for seed in (SEED, OTHER_SEED):
            work = ROOT / ".perfbench" / f"selftest-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                digests[seed] = Runner(workload, seed, "tiny", work).pass_(
                    "cold", "caches")["result"]["points"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
        same = sum(digests[SEED][k] == digests[OTHER_SEED].get(k)
                   for k in digests[SEED])
        if same:
            fail(f"{workload}: {same} point(s) simulate identically under "
                 f"seeds {SEED} and {OTHER_SEED}")
        print(f"{workload}: ok")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             next(iter(WORKLOADS)), "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a concurrent run still uses it
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail("without the simulator's source the benchmark still "
             "printed a result")
    print("bare directory: exits non-zero without a result")
    print("SELFTEST PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
