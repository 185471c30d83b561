"""Object-based reference implementations of the dataflow analyses.

These are the original :class:`~repro.isa.dyninst.DynInst` /
:class:`~repro.isa.registers.RegRef` implementations of Figures 1-3,
kept only as test oracles: ``tests/test_analysis.py`` checks that the
register-byte core in :mod:`repro.analysis.dataflow` gives equal results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis import ConsumerAnalysis, ReuseChainAnalysis
from repro.isa.dyninst import DynInst
from repro.isa.registers import RegRef


@dataclass
class _ValueRecord:
    producer_seq: int
    #: consumer entries: (consumer_seq, consumer_has_dest, redefines_same_reg)
    consumers: list = field(default_factory=list)


def reference_stream(stream: Iterable[DynInst]) -> ConsumerAnalysis:
    """Run the consumer analysis over a dynamic instruction stream."""
    result = ConsumerAnalysis()
    live: dict[RegRef, _ValueRecord] = {}
    finished: list[_ValueRecord] = []

    for dyn in stream:
        result.total_insts += 1
        has_dest = dyn.dest is not None
        seen: set[RegRef] = set()
        for src in dyn.srcs:
            if src in seen:
                continue  # one instruction counts once per source value
            seen.add(src)
            record = live.get(src)
            if record is not None:
                record.consumers.append((dyn.seq, has_dest, src == dyn.dest))
        if has_dest:
            result.dest_insts += 1
            old = live.pop(dyn.dest, None)
            if old is not None:
                finished.append(old)
            live[dyn.dest] = _ValueRecord(dyn.seq)
            result.values_produced += 1

    finished.extend(live.values())

    histogram: dict[int, int] = {}
    sole_consumers: dict[int, bool] = {}  # consumer seq -> redefines_same
    for record in finished:
        count = min(len(record.consumers), 6)
        histogram[count] = histogram.get(count, 0) + 1
        if len(record.consumers) == 1:
            consumer_seq, consumer_has_dest, redefines_same = record.consumers[0]
            if consumer_has_dest:
                # an instruction that is sole consumer of several values
                # counts once; the guaranteed (redefine-same) case wins
                previous = sole_consumers.get(consumer_seq, False)
                sole_consumers[consumer_seq] = previous or redefines_same

    result.consumer_histogram = histogram
    for redefines_same in sole_consumers.values():
        if redefines_same:
            result.single_use_redefine_same += 1
        else:
            result.single_use_redefine_other += 1
    return result


def reference_chains(stream: Iterable[DynInst]) -> ReuseChainAnalysis:
    insts = list(stream)

    # oracle pass: total consumer count per produced value (producer seq)
    consumer_count: dict[int, int] = {}
    producer_of: dict[RegRef, int] = {}  # current value's producer seq
    for dyn in insts:
        seen: set[RegRef] = set()
        for src in dyn.srcs:
            if src in seen:
                continue
            seen.add(src)
            producer = producer_of.get(src)
            if producer is not None:
                consumer_count[producer] = consumer_count.get(producer, 0) + 1
        if dyn.dest is not None:
            producer_of[dyn.dest] = dyn.seq

    # reuse pass: track chain depth of the register backing each value
    result = ReuseChainAnalysis()
    producer_of.clear()
    chain_depth: dict[int, int] = {}  # producer seq -> depth of its register
    consumed_so_far: dict[int, int] = {}
    for dyn in insts:
        reuse_from = None
        seen = set()
        for src in dyn.srcs:
            if src in seen:
                continue
            seen.add(src)
            producer = producer_of.get(src)
            if producer is None:
                continue
            consumed_so_far[producer] = consumed_so_far.get(producer, 0) + 1
            if (
                dyn.dest is not None
                and src.cls is dyn.dest.cls
                and consumer_count.get(producer) == 1
                and reuse_from is None
            ):
                reuse_from = producer
        if dyn.dest is None:
            continue
        result.dest_insts += 1
        if reuse_from is not None:
            depth = min(chain_depth.get(reuse_from, 0) + 1, 4)
            result.depth_histogram[depth] = result.depth_histogram.get(depth, 0) + 1
            chain_depth[dyn.seq] = depth if depth < 4 else 4
        else:
            chain_depth[dyn.seq] = 0
        producer_of[dyn.dest] = dyn.seq
    return result
