#!/usr/bin/env python3
"""SPEC-style workload study: motivation stats + equal-area speedups.

Reproduces, for a handful of benchmarks, the paper's motivation analysis
(Figures 1-3: how many values are single-use, how long the reuse chains
are) and then the equal-area performance comparison of Figure 10.

Run:  python examples/spec_study.py [benchmark ...]
"""

import sys

from repro import MachineConfig, simulate
from repro.analysis import analyze_dataflow
from repro.harness.runner import class_sizes
from repro.workloads import BENCHMARKS, SyntheticWorkload

DEFAULT = ["gcc", "mcf", "bwaves", "lbm", "jpeg", "gmm"]


def study(name: str, insts: int = 10_000) -> None:
    profile = BENCHMARKS[name]
    stream = list(SyntheticWorkload(profile, total_insts=insts))

    consumers, chains = analyze_dataflow(stream)
    series = chains.figure3_series()

    print(f"\n=== {name} ({profile.suite}) ===")
    print(f"  single-consumer values (Fig 2 'one'):     "
          f"{100 * consumers.single_use_value_fraction:5.1f}%")
    print(f"  single-consumer instructions (Fig 1):     "
          f"{100 * consumers.single_consumer_inst_fraction:5.1f}% "
          f"(redefine-same {100 * consumers.redefine_same_fraction:.1f}%, "
          f"other {100 * consumers.redefine_other_fraction:.1f}%)")
    print(f"  reuse-chain buckets (Fig 3):              "
          f"one {100 * series['one']:.1f}%  two {100 * series['two']:.1f}%  "
          f"three {100 * series['three']:.1f}%  more {100 * series['more']:.1f}%")

    print(f"  equal-area speedups (Fig 10):             ", end="")
    for size in (48, 64, 96):
        int_regs, fp_regs = class_sizes(profile, size)
        results = {}
        for scheme in ("conventional", "sharing"):
            cfg = MachineConfig(scheme=scheme, int_regs=int_regs,
                                fp_regs=fp_regs, verify_values=False)
            results[scheme] = simulate(
                cfg, iter(SyntheticWorkload(profile, total_insts=insts)))
        speedup = results["sharing"].ipc / results["conventional"].ipc - 1
        print(f"RF{size}: {100 * speedup:+5.1f}%  ", end="")
    print()


def main() -> None:
    names = sys.argv[1:] or DEFAULT
    for name in names:
        if name not in BENCHMARKS:
            print(f"unknown benchmark {name!r}; available: "
                  f"{', '.join(sorted(BENCHMARKS))}")
            return
        study(name)


if __name__ == "__main__":
    main()
