"""Command-line interface.

Usage::

    python -m repro run PROGRAM.s [--scheme sharing] [--int-regs 64] ...
    python -m repro bench NAME [--scheme ...] [--insts 20000] ...
    python -m repro bench [--quick]    # cycle-loop throughput benchmark
    python -m repro bench sweep [--quick] [--jobs 4]  # sweep data plane
    python -m repro bench sample [--quick]  # sampled-simulation throughput
    python -m repro profile sharing:hmmer:10000 [--top 15] [--out p.pstats]
    python -m repro profile sharing:hmmer:20000 --sampled  # phase breakdown
    python -m repro compare NAME [--sizes 48,64,96] [--insts 10000]
    python -m repro figures [fig1 fig2 ... | all]
    python -m repro kernels [--list | NAME]
    python -m repro motivation NAME    # Figures 1-3 stats for one benchmark
    python -m repro verify [--scheme sharing | --all-schemes] [--faults ...]
    python -m repro fuzz [--count 25] [--seed 0] [--out DIR]
    python -m repro fuzz --replay REPRODUCER.json
    python -m repro faults [--injections 200] [--seed 0] [--out REPORT.json]

``run`` executes an assembly file through the timing pipeline; ``bench``
runs one synthetic benchmark profile — or, with no name, the cycle-loop
throughput benchmark behind ``BENCH_cycleloop.json``, or, with the name
``sweep``, the sweep data-plane benchmark behind ``BENCH_sweep.json``
(:mod:`repro.harness.bench_sweep`), or, with the name ``sample``, the
sampled-simulation benchmark behind ``BENCH_sampling.json``
(:mod:`repro.harness.bench_sampling`); ``compare`` sweeps
register-file sizes for baseline vs proposed; ``figures`` regenerates the
paper's tables/figures; ``motivation`` prints the dataflow analysis;
``profile`` wraps one simulation point in cProfile (``run`` and ``verify``
also take ``--profile PATH``).

``verify`` runs every kernel through the pipeline in lockstep with the
in-order golden model (the commit-time differential oracle,
:mod:`repro.verify.oracle`) with invariant checking on; ``fuzz`` runs the
seeded random-program fuzzer (:mod:`repro.verify.fuzz`) across all rename
schemes and shrinks failures to on-disk reproducers.

``compare`` and ``figures`` execute their simulation grids through the
sweep engine: ``--jobs N`` (default: ``REPRO_JOBS`` env, else 1) fans the
points out over N worker processes, and results are served from the
persistent result cache (``REPRO_CACHE_DIR``, default
``~/.cache/repro/sweeps``) unless ``--no-cache`` is given.  The engine is
resilient on demand: ``--timeout`` bounds each point's wall clock (the
straggler's worker is killed and the point requeued), ``--retries``
grants bounded re-execution with exponential backoff, and
``--journal PATH`` / ``--resume`` record completed points crash-safely so
an interrupted sweep picks up where it stopped (docs/RESILIENCE.md).

``faults`` runs the seeded fault-injection campaign
(:mod:`repro.faults`): transient PRF bit flips, PRT metadata corruption,
forced squash storms and interrupt floods, each classified against the
differential oracle as masked / detected / recovered — a nonzero exit
means an injection produced silent data corruption or an unexpected
outcome.

Timing simulations accept ``--sampling PERIOD:WINDOW:WARMUP`` to run
interval-sampled (functional fast-forward between detailed measurement
windows, :mod:`repro.sampling`) instead of cycle-by-cycle; the
``REPRO_SAMPLING`` environment variable sets the same spec globally and
``--exact`` overrides it back to exact simulation.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis import analyze_dataflow
from repro.harness.runner import Scale
from repro.isa import assemble
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import simulate
from repro.workloads import ALL_KERNELS as KERNELS
from repro.workloads import BENCHMARKS, SyntheticWorkload


def _machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", default="sharing",
                        choices=["conventional", "sharing", "hinted", "early"])
    parser.add_argument("--int-regs", type=int, default=64)
    parser.add_argument("--fp-regs", type=int, default=64)
    parser.add_argument("--counter-bits", type=int, default=2)
    parser.add_argument("--no-verify", action="store_true",
                        help="disable operand verification (faster)")
    parser.add_argument("--detailed", action="store_true",
                        help="print the full statistics report")
    parser.add_argument("--wrong-path", action="store_true",
                        help="model wrong-path speculation")


def _sampling_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--sampling", default=None,
                       metavar="PERIOD:WINDOW:WARMUP",
                       help="interval-sampled simulation: detailed windows "
                            "of WINDOW insts (after WARMUP warm-up insts) "
                            "every PERIOD insts, functional fast-forward "
                            "in between (default: REPRO_SAMPLING env, "
                            "else exact)")
    group.add_argument("--exact", action="store_true",
                       help="force exact cycle-by-cycle simulation, "
                            "overriding REPRO_SAMPLING")


def _resolve_sampling(args) -> str | None:
    """--exact > --sampling > REPRO_SAMPLING env > None (exact)."""
    if getattr(args, "exact", False):
        return None
    spec = getattr(args, "sampling", None)
    if spec is None:
        spec = os.environ.get("REPRO_SAMPLING", "").strip() or None
    if spec is not None:
        from repro.sampling import parse_schedule

        parse_schedule(spec)  # validate before any simulation starts
    return spec


def _sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep "
                             "(default: REPRO_JOBS env, else 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-point wall-clock budget; a straggler's "
                             "worker is killed and the point requeued")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-execution attempts per point after a "
                             "crash, worker death or timeout (default 0)")
    parser.add_argument("--retry-delay", type=float, default=0.25,
                        metavar="SECONDS",
                        help="base backoff between retry attempts "
                             "(exponential with jitter; default 0.25)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="record every completed point in a crash-safe "
                             "journal at PATH; re-running with the same "
                             "journal resumes after an interruption")
    parser.add_argument("--resume", action="store_true",
                        help="shorthand for --journal at the default "
                             "location (REPRO_JOURNAL_DIR, else "
                             "~/.cache/repro/journals/<command>.jsonl)")
    parser.add_argument("--fleet", default=None, metavar="HOST:PORT",
                        help="serve the sweep's pending points to TCP "
                             "fleet workers at HOST:PORT instead of "
                             "running them in local processes (start "
                             "workers with 'repro fleet worker')")


def _config(args) -> MachineConfig:
    return MachineConfig(
        scheme=args.scheme,
        int_regs=args.int_regs,
        fp_regs=args.fp_regs,
        counter_bits=args.counter_bits,
        verify_values=not args.no_verify,
        model_wrong_path=getattr(args, "wrong_path", False),
    )


def _print_stats(stats, detailed: bool = False) -> None:
    # sampled runs: say so up front — every number below is an estimate
    if hasattr(stats, "sampling_report"):
        print(stats.sampling_report())
    if detailed:
        print(stats.detailed_report())
        return
    print(stats.summary())
    renamer = stats.renamer_stats
    if renamer is not None and renamer.dest_insts:
        print(f"register reuse    {renamer.reuses}/{renamer.dest_insts} "
              f"({100 * renamer.reuse_fraction:.1f}%) "
              f"[guaranteed {renamer.reuses_guaranteed}, "
              f"predicted {renamer.reuses_predicted}]")
        if renamer.repairs:
            print(f"repairs           {renamer.repairs} "
                  f"({renamer.repair_uops} micro-ops)")
    if stats.branch_stats is not None and stats.branch_stats.branches:
        print(f"branch accuracy   {100 * stats.branch_stats.accuracy:.1f}%")


def _simulate_program(args, program, budget=10_000_000, max_insts=None,
                      sampling=None, sampling_seed=1):
    """Run a program; the hinted scheme gets lookahead hint annotation."""
    if args.scheme == "hinted":
        from repro.frontend.fetch import IterSource
        from repro.isa.executor import FunctionalExecutor
        from repro.workloads.lookahead import annotate_hints

        executor = FunctionalExecutor(program)
        source = IterSource(annotate_hints(executor.run(budget)))
        return simulate(_config(args), source, max_insts=max_insts,
                        sampling=sampling, sampling_seed=sampling_seed)
    return simulate(_config(args), program, max_insts=max_insts,
                    program_budget=budget, sampling=sampling,
                    sampling_seed=sampling_seed)


def _profiled(args, fn):
    """Run ``fn`` under cProfile when ``--profile PATH`` was given: dump the
    pstats file and print the top-15 functions by cumulative time."""
    if not getattr(args, "profile", None):
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(15)
        print(f"profile written to {args.profile}", file=sys.stderr)


def cmd_run(args) -> int:
    with open(args.program) as handle:
        program = assemble(handle.read())
    sampling = _resolve_sampling(args)
    stats = _profiled(
        args, lambda: _simulate_program(args, program, max_insts=args.insts,
                                        sampling=sampling))
    _print_stats(stats, args.detailed)
    return 0


def cmd_bench(args) -> int:
    if args.name is None:
        return _cmd_bench_cycleloop(args)
    if args.name == "sweep":
        return _cmd_bench_sweep(args)
    if args.name == "sample":
        return _cmd_bench_sample(args)
    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}; use one of: "
              f"{', '.join(sorted(BENCHMARKS))}", file=sys.stderr)
        return 1
    workload = SyntheticWorkload(BENCHMARKS[args.name],
                                 total_insts=args.insts, seed=args.seed)
    sampling = _resolve_sampling(args)
    stats = simulate(_config(args), iter(workload),
                     max_insts=args.insts if sampling else None,
                     sampling=sampling, sampling_seed=args.seed)
    _print_stats(stats, args.detailed)
    return 0


def _cmd_bench_cycleloop(args) -> int:
    """``repro bench`` with no profile name: the cycle-loop throughput
    benchmark behind BENCH_cycleloop.json (see repro.harness.bench)."""
    import json
    from pathlib import Path

    from repro.harness import bench

    record = bench.load_record()
    current = bench.run_bench(quick=args.quick, seed=args.seed)
    for line in bench.diff_against(record, current):
        print(line)

    if args.quick:
        # quick mode (CI): never touch the committed record; write the
        # artifact elsewhere and enforce the throughput floor
        out = Path(args.out or "bench-quick.json")
        out.write_text(json.dumps({"current": current}, indent=2,
                                  sort_keys=True) + "\n")
        print(f"results written to {out}", file=sys.stderr)
        if not args.no_floor:
            ok, message = bench.check_floor(record, current,
                                            tolerance=args.floor_tolerance)
            print(message)
            sampled_ok, sampled_message = bench.check_sampled_floor(
                current, floor=args.sampled_floor)
            print(sampled_message)
            if not (ok and sampled_ok):
                return 1
        return 0

    out = Path(args.out) if args.out else bench.DEFAULT_PATH
    bench.write_record(current, path=out)
    print(f"results written to {out}", file=sys.stderr)
    return 0


def _cmd_bench_sweep(args) -> int:
    """``repro bench sweep``: the sweep data-plane benchmark behind
    BENCH_sweep.json (see repro.harness.bench_sweep)."""
    import json
    from pathlib import Path

    from repro.harness import bench_sweep

    record = bench_sweep.load_record()
    current = bench_sweep.run_bench(quick=args.quick, jobs=args.jobs,
                                    seed=args.seed)
    for line in bench_sweep.diff_against(record, current):
        print(line)

    if args.quick:
        # quick mode (CI): never touch the committed record; write the
        # artifact elsewhere and enforce the data-plane floors
        out = Path(args.out or "bench-sweep.json")
        out.write_text(json.dumps({"current": current}, indent=2,
                                  sort_keys=True) + "\n")
        print(f"results written to {out}", file=sys.stderr)
        if not args.no_floor:
            decode_ok, decode_message = bench_sweep.check_decode_floor(
                current, floor=args.decode_floor)
            print(decode_message)
            sweep_ok, sweep_message = bench_sweep.check_sweep_floor(
                current, floor=args.sweep_floor)
            print(sweep_message)
            if not (decode_ok and sweep_ok):
                return 1
        return 0

    out = Path(args.out) if args.out else bench_sweep.DEFAULT_PATH
    bench_sweep.write_record(current, path=out)
    print(f"results written to {out}", file=sys.stderr)
    return 0


def _cmd_bench_sample(args) -> int:
    """``repro bench sample``: the sampled-simulation benchmark behind
    BENCH_sampling.json (see repro.harness.bench_sampling)."""
    import json
    from pathlib import Path

    from repro.harness import bench_sampling

    record = bench_sampling.load_record()
    current = bench_sampling.run_bench(quick=args.quick, seed=args.seed)
    for line in bench_sampling.diff_against(record, current):
        print(line)

    if args.quick:
        # quick mode (CI): never touch the committed record; write the
        # artifact elsewhere and enforce the columnar floors
        out = Path(args.out or "bench-sampling.json")
        out.write_text(json.dumps({"current": current}, indent=2,
                                  sort_keys=True) + "\n")
        print(f"results written to {out}", file=sys.stderr)
        if not args.no_floor:
            skim_ok, skim_message = bench_sampling.check_skim_floor(
                current, floor=args.skim_floor)
            print(skim_message)
            e2e_ok, e2e_message = bench_sampling.check_e2e_floor(
                current, floor=args.e2e_floor)
            print(e2e_message)
            if not (skim_ok and e2e_ok):
                return 1
        return 0

    out = Path(args.out) if args.out else bench_sampling.DEFAULT_PATH
    bench_sampling.write_record(current, path=out)
    print(f"results written to {out}", file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    """``repro profile SCHEME[:PROFILE[:INSTS]]``: cProfile one simulation
    point and report the top-N functions by cumulative time."""
    import cProfile
    import pstats

    parts = args.point.split(":")
    scheme = parts[0]
    profile_name = parts[1] if len(parts) > 1 else "hmmer"
    insts = int(parts[2]) if len(parts) > 2 else 10_000
    if scheme not in ("conventional", "sharing", "hinted", "early"):
        print(f"unknown scheme {scheme!r}", file=sys.stderr)
        return 1
    if profile_name not in BENCHMARKS:
        print(f"unknown benchmark {profile_name!r}; use one of: "
              f"{', '.join(sorted(BENCHMARKS))}", file=sys.stderr)
        return 1
    if args.sampled is not None:
        return _cmd_profile_sampled(args, scheme, profile_name, insts)

    from repro.pipeline.processor import IterSource, Processor

    stream = list(SyntheticWorkload(BENCHMARKS[profile_name],
                                    total_insts=insts, seed=args.seed))
    config = MachineConfig(scheme=scheme, verify_values=False)
    processor = Processor(config, IterSource(iter(stream)))
    profiler = cProfile.Profile()
    profiler.enable()
    processor.run()
    profiler.disable()
    if args.out:
        profiler.dump_stats(args.out)
        print(f"profile written to {args.out}", file=sys.stderr)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    loop = processor.loop_used
    label = f"loop={loop}"
    if loop == "generated":
        try:
            from repro.codegen import kernel_fingerprint
            label += f" kernel={kernel_fingerprint(config)}"
        except Exception:
            pass
    print(f"{scheme}:{profile_name}:{insts}  {label}  "
          f"cycles={processor.stats.cycles}  "
          f"skipped={processor.cycles_skipped}")
    return 0


def _cmd_profile_sampled(args, scheme: str, profile_name: str,
                         insts: int) -> int:
    """``repro profile --sampled``: cProfile one interval-sampled point
    and attribute its wall time to the engine's phases — skim,
    fast-forward (warming) and detailed windows — before the usual
    top-N function listing."""
    import cProfile
    import pstats
    import time

    from repro.harness.cache import TraceStream
    from repro.pipeline.processor import Processor
    from repro.sampling import as_schedule, sampled_simulate
    from repro.sampling.warmer import FunctionalWarmer
    from repro.workloads.trace_codec import encode

    stream_insts = list(SyntheticWorkload(BENCHMARKS[profile_name],
                                          total_insts=insts, seed=args.seed))
    stream = TraceStream(encode(stream_insts), insts)
    stream.columns()  # parse outside the profiled region
    config = MachineConfig(scheme=scheme, verify_values=False)

    phases = {"skim": 0.0, "fast_forward": 0.0, "window": 0.0}
    calls = {"skim": 0, "fast_forward": 0, "window": 0}
    originals = (("skim", FunctionalWarmer, "skim"),
                 ("fast_forward", FunctionalWarmer, "fast_forward"),
                 ("window", Processor, "run"))

    def attributed(name, fn):
        def wrapper(*wargs, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*wargs, **kwargs)
            finally:
                phases[name] += time.perf_counter() - start
                calls[name] += 1
        return wrapper

    saved = [(cls, attr, getattr(cls, attr)) for _, cls, attr in originals]
    profiler = cProfile.Profile()
    start = time.perf_counter()
    try:
        for name, cls, attr in originals:
            setattr(cls, attr, attributed(name, getattr(cls, attr)))
        profiler.enable()
        stats = sampled_simulate(
            config, stream, schedule=as_schedule(args.sampled,
                                                 seed=args.seed),
            total_insts=insts)
        profiler.disable()
    finally:
        for cls, attr, fn in saved:
            setattr(cls, attr, fn)
    total = time.perf_counter() - start

    other = total - sum(phases.values())
    print(f"{scheme}:{profile_name}:{insts}  sampled [{args.sampled}]  "
          f"windows={stats.windows}  "
          f"fast-forwarded={stats.insts_fast_forwarded}  "
          f"total {total * 1e3:.1f}ms")
    for name in ("skim", "fast_forward", "window"):
        share = 100.0 * phases[name] / total if total else 0.0
        print(f"  {name:14s} {phases[name] * 1e3:8.1f}ms  {share:5.1f}%  "
              f"({calls[name]} calls)")
    print(f"  {'other':14s} {other * 1e3:8.1f}ms  "
          f"{100.0 * other / total if total else 0.0:5.1f}%  "
          f"(setup, materialize, scaling)")

    if args.out:
        profiler.dump_stats(args.out)
        print(f"profile written to {args.out}", file=sys.stderr)
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.top)
    return 0


def _sweep_cache(args):
    """Result cache honouring --no-cache (None disables caching)."""
    if getattr(args, "no_cache", False):
        return None
    from repro.harness.cache import ResultCache

    return ResultCache()


def _sweep_journal(args, command: str):
    """SweepJournal from --journal/--resume, or None."""
    path = getattr(args, "journal", None)
    if path is None and getattr(args, "resume", False):
        from repro.harness.cache import default_journal_dir

        path = default_journal_dir() / f"{command}.jsonl"
    if path is None:
        return None
    from repro.harness.parallel import SweepJournal

    journal = SweepJournal(path)
    if len(journal):
        print(f"resuming from journal {journal.path} "
              f"({len(journal)} completed point(s))", file=sys.stderr)
    return journal


def _sweep_engine(args, command: str) -> dict:
    """Keyword arguments for run_points / the figure helpers, resolved
    from the shared --jobs/--no-cache/--timeout/--retries/--journal
    options."""
    return {
        "jobs": args.jobs,
        "cache": _sweep_cache(args),
        "timeout": getattr(args, "timeout", None),
        "retries": getattr(args, "retries", 0),
        "retry_delay": getattr(args, "retry_delay", 0.25),
        "journal": _sweep_journal(args, command),
        "remote": getattr(args, "fleet", None),
    }


def cmd_compare(args) -> int:
    from repro.harness.parallel import SweepPoint, collect_stats, run_points

    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}", file=sys.stderr)
        return 1
    profile = BENCHMARKS[args.name]
    sizes = [int(s) for s in args.sizes.split(",")]
    sampling = _resolve_sampling(args)
    points = [SweepPoint(profile=profile, scheme=scheme, size=size,
                         insts=args.insts, seed=args.seed, sampling=sampling)
              for size in sizes for scheme in ("conventional", "sharing")]
    engine = _sweep_engine(args, "compare")
    cache = engine["cache"]
    stats = collect_stats(run_points(points, **engine))
    suffix = f", sampled [{sampling}]" if sampling else ""
    print(f"{args.name} ({profile.suite}), {args.insts} instructions{suffix}")
    print(f"{'RF size':>8s} {'baseline':>9s} {'proposed':>9s} {'speedup':>8s}")
    for size in sizes:
        baseline = stats[(profile.name, "conventional", size, args.seed)].ipc
        proposed = stats[(profile.name, "sharing", size, args.seed)].ipc
        speedup = proposed / baseline - 1 if baseline else 0.0
        print(f"{size:8d} {baseline:9.3f} {proposed:9.3f} "
              f"{100 * speedup:+7.1f}%")
    _print_cache_summary(cache)
    return 0


def _print_cache_summary(cache) -> None:
    if cache is not None and (cache.hits or cache.misses):
        print(f"result cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"[{cache.root}]", file=sys.stderr)


def cmd_figures(args) -> int:
    from dataclasses import replace

    from repro.harness import (figure1, figure2, figure3, figure9, figure10,
                               figure11, figure12, figure_ports, headline,
                               table1, table2_result, table3)
    # --exact/--sampling override whatever REPRO_SAMPLING put in the Scale
    scale = replace(Scale.from_env(), sampling=_resolve_sampling(args))
    wanted = set(args.which) or {"all"}
    engine = _sweep_engine(args, "figures")
    cache = engine["cache"]

    def want(key):
        return "all" in wanted or key in wanted

    if want("tables"):
        print(table1(), "\n")
        print(table2_result().render(), "\n")
        print(table3().render(), "\n")
    # figures outside the sweep engine: 1-3 analyze each profile's cached
    # trace, 9 simulates four profiles once with unbounded shadow cells
    for key, fn in (("fig1", figure1), ("fig2", figure2), ("fig3", figure3),
                    ("fig9", figure9)):
        if want(key):
            print(fn(scale).render(), "\n")
    for key, fn in (("fig11", figure11), ("fig12", figure12),
                    ("ports", figure_ports)):
        if want(key):
            print(fn(scale, **engine).render(), "\n")
    if want("fig10"):
        for suite in ("specfp", "specint", "media+cog"):
            print(figure10(suite, scale, **engine).render(), "\n")
    if want("headline"):
        print(headline(scale, **engine).render())
    _print_cache_summary(cache)
    return 0


def cmd_kernels(args) -> int:
    if args.list or not args.name:
        print("available kernels:", ", ".join(sorted(KERNELS)))
        return 0
    if args.name not in KERNELS:
        print(f"unknown kernel {args.name!r}", file=sys.stderr)
        return 1
    kernel = KERNELS[args.name]()
    stats = _simulate_program(args, kernel.program, budget=2_000_000)
    print(f"kernel {kernel.name}: ", end="")
    _print_stats(stats, args.detailed)
    return 0


def cmd_verify(args) -> int:
    """Oracle-checked kernel battery: the commit-time differential oracle
    plus cross-structure invariants, over every kernel program."""
    return _profiled(args, lambda: _cmd_verify_body(args))


def _cmd_verify_body(args) -> int:
    from repro.isa.executor import FirstTouchFaults
    from repro.pipeline.debug import check_invariants
    from repro.verify.oracle import lockstep_run

    schemes = (["conventional", "sharing", "hinted", "early"]
               if args.all_schemes else [args.scheme])
    names = [args.kernel] if args.kernel else sorted(KERNELS)
    for name in names:
        if name not in KERNELS:
            print(f"unknown kernel {name!r}", file=sys.stderr)
            return 1
    failures = 0
    for scheme in schemes:
        variants = [("plain", {}, None)]
        if scheme != "early":  # early release has no precise state
            if args.faults:
                variants.append(("faults", {}, FirstTouchFaults))
            if args.interrupts:
                variants.append(("interrupts", {"interrupt_interval": 500},
                                 None))
        for name in names:
            program = KERNELS[name]().program
            for label, overrides, fault_cls in variants:
                config = MachineConfig(
                    scheme=scheme, int_regs=args.int_regs,
                    fp_regs=args.fp_regs, counter_bits=args.counter_bits,
                    verify_values=not args.no_verify, **overrides)
                try:
                    stats = lockstep_run(
                        config, program,
                        fault_model=fault_cls() if fault_cls else None,
                        on_cycle=check_invariants,
                        on_cycle_interval=args.check_interval)
                except AssertionError as exc:
                    failures += 1
                    print(f"FAIL  {scheme:12s} {name:10s} {label}: {exc}")
                else:
                    print(f"ok    {scheme:12s} {name:10s} {label:10s} "
                          f"{stats.committed} insts, ipc={stats.ipc:.2f}")
    if failures:
        print(f"{failures} verification failure(s)", file=sys.stderr)
        return 1
    print("all verification runs passed")
    return 0


def cmd_fuzz(args) -> int:
    from repro.verify.fuzz import ALL_SCHEMES, FuzzFailure, FuzzProgram, fuzz, run_case

    schemes = (tuple(args.schemes.split(","))
               if args.schemes else ALL_SCHEMES)
    if args.replay:
        try:
            fp = FuzzProgram.load(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load reproducer {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 1
        try:
            counts = run_case(fp, schemes=schemes)
        except FuzzFailure as failure:
            print(f"FAIL  {failure}")
            return 1
        print(f"ok    seed {fp.seed} ({fp.variant}), "
              f"{fp.instruction_count()} IR instructions: "
              + ", ".join(f"{s}={n}" for s, n in counts.items()))
        return 0
    failures = fuzz(count=args.count, seed_base=args.seed, size=args.size,
                    schemes=schemes, out_dir=args.out, log=print)
    if failures:
        print(f"{len(failures)} fuzz failure(s); reproducers in {args.out}",
              file=sys.stderr)
        return 1
    print(f"fuzz campaign clean: {args.count} programs, "
          f"schemes {', '.join(schemes)}")
    return 0


def cmd_faults(args) -> int:
    """Seeded fault-injection campaign across the rename schemes."""
    from repro.faults import run_campaign

    schemes = tuple(args.schemes.split(",")) if args.schemes else None
    overrides = {"injections": args.injections, "seed": args.seed,
                 "shrink": not args.no_shrink}
    if schemes:
        overrides["schemes"] = schemes

    def progress(record):
        if args.verbose:
            print(f"[{record.index + 1}/{args.injections}] "
                  f"{record.spec.kind:<16} {record.spec.scheme:<12} "
                  f"-> {record.outcome}"
                  + ("" if record.expected else "  UNEXPECTED"))

    try:
        report = run_campaign(progress=progress, **overrides)
    except ValueError as exc:  # e.g. an unknown scheme name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0 if report.clean else 1


def cmd_fleet_serve(args) -> int:
    """Coordinate a benchmark sweep for TCP fleet workers."""
    from repro.fleet import FleetConfig
    from repro.harness.parallel import SweepPoint, run_points

    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}", file=sys.stderr)
        return 1
    profile = BENCHMARKS[args.name]
    sizes = [int(s) for s in args.sizes.split(",")]
    schemes = args.schemes.split(",")
    points = [SweepPoint(profile=profile, scheme=scheme, size=size,
                         insts=args.insts, seed=args.seed)
              for scheme in schemes for size in sizes]
    config = FleetConfig(host=args.host, port=args.port,
                         lease_deadline=args.lease_deadline,
                         local_fallback_after=args.local_after)
    print(f"serving {len(points)} point(s) at {args.host}:{args.port} "
          f"(connect workers with: repro fleet worker "
          f"{args.host}:{args.port})", file=sys.stderr)
    results = run_points(points, jobs=1, cache=_sweep_cache(args),
                         timeout=args.timeout, retries=args.retries,
                         journal=_sweep_journal(args, "fleet-serve"),
                         remote=config)
    failures = 0
    for point, result in zip(points, results):
        if result.error:
            failures += 1
            line = f"FAILED after {result.attempts} attempt(s)"
        else:
            line = (f"ipc={result.stats.ipc:.4f} "
                    f"attempts={result.attempts}")
        print(f"{point.scheme:<14} {args.name} rf={point.size:<4} {line}")
    if failures:
        print(f"{failures} point(s) failed", file=sys.stderr)
    return 1 if failures else 0


def cmd_fleet_worker(args) -> int:
    """Run one fleet worker against a coordinator."""
    from repro.fleet import WorkerConfig, worker_main

    host, _, port = args.address.rpartition(":")
    try:
        port_num = int(port)
    except ValueError:
        print(f"fleet address {args.address!r}: expected HOST:PORT",
              file=sys.stderr)
        return 2
    config = WorkerConfig(host=host or "127.0.0.1", port=port_num,
                          name=args.name, seed=args.seed,
                          heartbeat_interval=args.heartbeat,
                          reconnect_attempts=args.reconnect_attempts,
                          trace_dir=args.trace_dir or "",
                          cache_dir=args.cache_dir or "",
                          events_path=args.events_out or "")
    summary = worker_main(config)
    print(f"worker {summary['worker']}: {summary['points_done']} point(s) "
          + ("done" if summary["finished"]
             else f"then stopped: {summary['fatal']}"))
    return 0 if summary["finished"] else 1


def cmd_fleet_chaos(args) -> int:
    """Seeded chaos campaign against a live localhost fleet."""
    from repro.fleet import run_campaign

    overrides = {"faults": args.faults, "seed": args.seed,
                 "workers": args.workers, "points": args.points,
                 "insts": args.insts, "shrink": not args.no_shrink}
    if args.schemes:
        overrides["schemes"] = tuple(args.schemes.split(","))
    if args.workdir:
        overrides["workdir"] = args.workdir

    def progress(record):
        if args.verbose:
            print(f"[{record.index + 1}/{args.faults}] "
                  f"{record.spec.kind:<18} round {record.spec.round_index} "
                  f"-> {record.outcome}"
                  + ("" if record.expected else "  UNEXPECTED"))

    report = run_campaign(progress=progress, **overrides)
    for line in report.summary_lines():
        print(line)
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0 if report.clean else 1


def cmd_motivation(args) -> int:
    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}", file=sys.stderr)
        return 1
    from repro.harness.cache import cached_stream

    profile = BENCHMARKS[args.name]
    consumers, chains = analyze_dataflow(
        cached_stream(profile, args.insts, args.seed))
    series = chains.figure3_series()
    print(f"{args.name} ({profile.suite}), {args.insts} instructions")
    print(f"single-consumer values (Fig 2):        "
          f"{100 * consumers.single_use_value_fraction:.1f}%")
    print(f"single-consumer instructions (Fig 1):  "
          f"{100 * consumers.single_consumer_inst_fraction:.1f}% "
          f"(same {100 * consumers.redefine_same_fraction:.1f}% / "
          f"other {100 * consumers.redefine_other_fraction:.1f}%)")
    print(f"reuse chains (Fig 3): one {100 * series['one']:.1f}%  "
          f"two {100 * series['two']:.1f}%  three {100 * series['three']:.1f}%  "
          f"more {100 * series['more']:.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Register renaming with physical register "
        "sharing (HPCA 2018) — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate an assembly file")
    p_run.add_argument("program")
    p_run.add_argument("--insts", type=int, default=None)
    p_run.add_argument("--profile", default=None, metavar="PATH",
                       help="cProfile the run; dump pstats to PATH and "
                            "print the top-15 cumulative functions")
    _machine_args(p_run)
    _sampling_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_bench = sub.add_parser(
        "bench", help="run one benchmark profile; with no name, run the "
        "cycle-loop throughput benchmark (BENCH_cycleloop.json); with "
        "'sweep', run the sweep data-plane benchmark (BENCH_sweep.json); "
        "with 'sample', run the sampled-simulation benchmark "
        "(BENCH_sampling.json)")
    p_bench.add_argument("name", nargs="?", default=None)
    p_bench.add_argument("--insts", type=int, default=20_000)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--quick", action="store_true",
                         help="cycle-loop bench: smaller run, write the "
                              "artifact to --out and enforce the "
                              "throughput floor (CI mode)")
    p_bench.add_argument("--out", default=None, metavar="PATH",
                         help="cycle-loop bench: output JSON path")
    p_bench.add_argument("--no-floor", action="store_true",
                         help="cycle-loop bench: skip the floor check in "
                              "--quick mode")
    p_bench.add_argument("--floor-tolerance", type=float, default=0.35,
                         help="allowed sharing-scheme throughput drop vs "
                              "the committed record (default 0.35; the "
                              "committed numbers come from the 20k-inst "
                              "full run, and the generated kernel's "
                              "skip amortisation makes the 8k-inst quick "
                              "run ~20%% slower per instruction)")
    p_bench.add_argument("--jobs", type=int, default=4,
                         help="sweep bench: worker count for the grid "
                              "measurements (default 4)")
    p_bench.add_argument("--decode-floor", type=float, default=5.0,
                         help="sweep bench --quick: minimum binary/jsonl "
                              "per-pass decode speedup before CI fails")
    p_bench.add_argument("--sweep-floor", type=float, default=2.0,
                         help="sweep bench --quick: minimum cold-cache "
                              "sampled-grid speedup before CI fails")
    p_bench.add_argument("--sampled-floor", type=float, default=3.0,
                         help="cycle-loop bench --quick: minimum sampled/"
                              "exact sharing-scheme speedup (default 3.0)")
    p_bench.add_argument("--skim-floor", type=float, default=5.0,
                         help="sample bench --quick: minimum columnar/"
                              "per-inst skim speedup before CI fails")
    p_bench.add_argument("--e2e-floor", type=float, default=1.0,
                         help="sample bench --quick: minimum worst-scheme "
                              "end-to-end columnar speedup before CI fails")
    _machine_args(p_bench)
    _sampling_args(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_prof = sub.add_parser(
        "profile", help="cProfile one simulation point "
        "(SCHEME[:PROFILE[:INSTS]], e.g. sharing:hmmer:10000)")
    p_prof.add_argument("point")
    p_prof.add_argument("--top", type=int, default=15,
                        help="functions to print (default 15)")
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--out", default=None, metavar="PATH",
                        help="also dump the raw pstats file to PATH")
    p_prof.add_argument("--sampled", nargs="?", const="2000:150:100",
                        default=None, metavar="P:W:U",
                        help="profile the interval-sampled engine instead "
                             "of the exact cycle loop, attributing time "
                             "to the skim / fast-forward / window phases "
                             "(optional schedule, default 2000:150:100)")
    p_prof.set_defaults(fn=cmd_profile)

    p_cmp = sub.add_parser("compare", help="baseline vs proposed sweep")
    p_cmp.add_argument("name")
    p_cmp.add_argument("--sizes", default="48,56,64,80,96")
    p_cmp.add_argument("--insts", type=int, default=10_000)
    p_cmp.add_argument("--seed", type=int, default=1)
    _sweep_args(p_cmp)
    _sampling_args(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_fig = sub.add_parser("figures", help="regenerate tables/figures")
    p_fig.add_argument("which", nargs="*", default=[],
                       help="tables fig1..fig12 ports headline (default: all)")
    _sweep_args(p_fig)
    _sampling_args(p_fig)
    p_fig.set_defaults(fn=cmd_figures)

    p_ker = sub.add_parser("kernels", help="run a real kernel")
    p_ker.add_argument("name", nargs="?")
    p_ker.add_argument("--list", action="store_true")
    _machine_args(p_ker)
    p_ker.set_defaults(fn=cmd_kernels)

    p_ver = sub.add_parser(
        "verify", help="oracle-checked kernel battery (differential "
        "lockstep against the in-order golden model)")
    p_ver.add_argument("--kernel", default=None,
                       help="verify one kernel (default: all)")
    p_ver.add_argument("--all-schemes", action="store_true",
                       help="verify every rename scheme")
    p_ver.add_argument("--faults", action="store_true",
                       help="also run a first-touch page-fault variant")
    p_ver.add_argument("--interrupts", action="store_true",
                       help="also run a periodic-interrupt variant")
    p_ver.add_argument("--check-interval", type=int, default=16,
                       help="invariant-check interval in cycles")
    p_ver.add_argument("--profile", default=None, metavar="PATH",
                       help="cProfile the battery; dump pstats to PATH and "
                            "print the top-15 cumulative functions")
    _machine_args(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="random-program fuzzer across all rename schemes")
    p_fuzz.add_argument("--count", type=int, default=25,
                        help="number of seeded programs")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed (program i uses seed+i)")
    p_fuzz.add_argument("--size", type=int, default=40,
                        help="IR items per generated program")
    p_fuzz.add_argument("--schemes", default=None,
                        help="comma-separated scheme subset")
    p_fuzz.add_argument("--out", default="fuzz-failures",
                        help="directory for shrunk reproducers")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="replay one reproducer instead of fuzzing")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_faults = sub.add_parser(
        "faults", help="seeded fault-injection campaign (bit flips, PRT "
        "corruption, squash storms, interrupt floods) with oracle-checked "
        "outcome classification")
    p_faults.add_argument("--injections", type=int, default=200,
                          help="number of injections to draw (default 200)")
    p_faults.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default 0)")
    p_faults.add_argument("--schemes", default=None,
                          help="comma-separated scheme subset "
                               "(default: conventional,sharing,early)")
    p_faults.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON campaign report to PATH")
    p_faults.add_argument("--no-shrink", action="store_true",
                          help="skip ddmin shrinking of unexpected outcomes")
    p_faults.add_argument("--verbose", action="store_true",
                          help="print every injection as it classifies")
    p_faults.set_defaults(fn=cmd_faults)

    p_fleet = sub.add_parser(
        "fleet", help="distributed sweep fleet over TCP: coordinator, "
        "workers, chaos campaign")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_serve = fleet_sub.add_parser(
        "serve", help="coordinate a benchmark sweep for fleet workers "
        "(degrades to local execution when no workers connect)")
    p_serve.add_argument("name", help="benchmark profile to sweep")
    p_serve.add_argument("--sizes", default="48,56,64,80,96")
    p_serve.add_argument("--insts", type=int, default=10_000)
    p_serve.add_argument("--seed", type=int, default=1)
    p_serve.add_argument("--schemes", default="conventional,sharing",
                         help="comma-separated scheme list "
                              "(default conventional,sharing)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9461)
    p_serve.add_argument("--lease-deadline", type=float, default=30.0,
                         help="seconds a worker may hold a point without "
                              "heartbeating before it is requeued "
                              "(default 30)")
    p_serve.add_argument("--local-after", type=float, default=3.0,
                         help="seconds of remote silence before the "
                              "coordinator starts running points itself "
                              "(default 3)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result cache")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget for the coordinator's "
                              "own local runs")
    p_serve.add_argument("--retries", type=int, default=3,
                         help="lease re-grants per point after worker "
                              "loss (default 3)")
    p_serve.add_argument("--journal", default=None, metavar="PATH",
                         help="crash-safe journal; re-serving with the "
                              "same journal resumes after interruption")
    p_serve.add_argument("--resume", action="store_true",
                         help="shorthand for --journal at the default "
                              "location")
    p_serve.set_defaults(fn=cmd_fleet_serve)

    p_worker = fleet_sub.add_parser(
        "worker", help="lease and simulate points from a coordinator")
    p_worker.add_argument("address", help="coordinator HOST:PORT")
    p_worker.add_argument("--name", default="",
                          help="worker name shown in coordinator events")
    p_worker.add_argument("--seed", type=int, default=0,
                          help="reconnect-backoff jitter seed")
    p_worker.add_argument("--heartbeat", type=float, default=5.0,
                          help="heartbeat interval ceiling in seconds "
                               "(default 5; clamped to the lease "
                               "deadline)")
    p_worker.add_argument("--reconnect-attempts", type=int, default=10,
                          help="consecutive connection failures before "
                               "giving up (default 10)")
    p_worker.add_argument("--trace-dir", default=None, metavar="DIR",
                          help="private trace-cache directory")
    p_worker.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="private result-cache directory")
    p_worker.add_argument("--events-out", default=None, metavar="PATH",
                          help="write the worker's event summary JSON "
                               "to PATH on exit")
    p_worker.set_defaults(fn=cmd_fleet_worker)

    p_chaos = fleet_sub.add_parser(
        "chaos", help="seeded fault campaign against a live localhost "
        "fleet: worker kills, partitions, mangled uploads, stalls, "
        "coordinator restarts — every round must end bit-identical to "
        "a serial reference")
    p_chaos.add_argument("--faults", type=int, default=100,
                         help="fault budget for the campaign (default 100)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="campaign seed (default 0)")
    p_chaos.add_argument("--workers", type=int, default=3,
                         help="fleet workers per round (default 3)")
    p_chaos.add_argument("--points", type=int, default=6,
                         help="sweep points per round (default 6)")
    p_chaos.add_argument("--insts", type=int, default=800,
                         help="instructions per point (default 800)")
    p_chaos.add_argument("--schemes", default=None,
                         help="comma-separated scheme subset")
    p_chaos.add_argument("--workdir", default=None, metavar="DIR",
                         help="keep round artifacts under DIR instead of "
                              "a temporary directory")
    p_chaos.add_argument("--out", default=None, metavar="PATH",
                         help="write the JSON campaign report to PATH")
    p_chaos.add_argument("--no-shrink", action="store_true",
                         help="skip ddmin shrinking of unexpected rounds")
    p_chaos.add_argument("--verbose", action="store_true",
                         help="print every fault as it classifies")
    p_chaos.set_defaults(fn=cmd_fleet_chaos)

    p_mot = sub.add_parser("motivation", help="Figures 1-3 stats for a benchmark")
    p_mot.add_argument("name")
    p_mot.add_argument("--insts", type=int, default=10_000)
    p_mot.add_argument("--seed", type=int, default=1)
    p_mot.set_defaults(fn=cmd_motivation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
