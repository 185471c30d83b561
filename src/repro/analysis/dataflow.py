"""Register-dataflow analyses behind the paper's motivation (Figs 1-3).

* **Figure 2** — per produced value, the number of consuming instructions
  (one, two, ..., six-or-more);
* **Figure 1** — the percentage of instructions *with a destination
  register* that are the sole consumer of some value, split by whether
  they redefine the consumed logical register (guaranteed last use) or a
  different one (needs the single-use prediction);
* **Figure 3** — an *oracle* renamer lets an instruction with a
  destination reuse a source's physical register when it is that value's
  only consumer (and of the same register class); each register tracks
  its chain depth, and reusing instructions are classified by the depth
  they land at (one / two / three / more-than-three reuses).

All three are functions of one thing: which earlier instruction produced
each value an instruction reads.  :func:`analyze_registers` resolves that
once, with an int-indexed last-writer array over the trace codec's
register bytes (``cls * INT_REGS + idx``; ``NO_REG`` for no destination),
and derives every figure's counts from it.  :func:`analyze_dataflow`
feeds it straight from a binary-codec stream's blob
(:func:`~repro.workloads.trace_codec.register_columns`); any other
:class:`~repro.isa.dyninst.DynInst` iterable is converted to the same
bytes first.  Instructions are identified by stream position, and an
instruction reading one register twice consumes its value once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, NamedTuple

from repro.isa.dyninst import DynInst
from repro.isa.registers import INT_REGS


@dataclass
class ConsumerAnalysis:
    """Consumer counts of one stream (Figures 1 and 2)."""

    total_insts: int = 0
    dest_insts: int = 0
    values_produced: int = 0
    #: histogram over consumer counts; key 6 means "six or more", key 0 =
    #: values never consumed inside the analysis window
    consumer_histogram: dict = field(default_factory=dict)
    #: Figure 1 categories (instruction counts)
    single_use_redefine_same: int = 0
    single_use_redefine_other: int = 0

    # ---------------------------------------------------------------- Figure 2
    def consumer_fractions(self, include_unconsumed: bool = False) -> dict:
        """Fractions per consumer-count bucket (Figure 2 series)."""
        histogram = dict(self.consumer_histogram)
        if not include_unconsumed:
            histogram.pop(0, None)
        total = sum(histogram.values())
        if not total:
            return {}
        return {k: v / total for k, v in sorted(histogram.items())}

    @property
    def single_use_value_fraction(self) -> float:
        """Fraction of consumed values with exactly one consumer."""
        fractions = self.consumer_fractions()
        return fractions.get(1, 0.0)

    # ---------------------------------------------------------------- Figure 1
    @property
    def single_consumer_inst_fraction(self) -> float:
        """Fraction of dest-instructions that are sole consumer of a value."""
        if not self.dest_insts:
            return 0.0
        hits = self.single_use_redefine_same + self.single_use_redefine_other
        return hits / self.dest_insts

    @property
    def redefine_same_fraction(self) -> float:
        return self.single_use_redefine_same / self.dest_insts if self.dest_insts else 0.0

    @property
    def redefine_other_fraction(self) -> float:
        return self.single_use_redefine_other / self.dest_insts if self.dest_insts else 0.0


@dataclass
class ReuseChainAnalysis:
    """Idealized reuse chains of one stream (Figure 3)."""

    dest_insts: int = 0
    #: histogram: chain depth (1, 2, 3, 4=more) -> reusing instruction count
    depth_histogram: dict = field(default_factory=dict)

    def reuse_fraction(self, limit: int | None = None) -> float:
        """Fraction of dest-instructions that avoid an allocation when a
        register may be reused up to ``limit`` times (None = unlimited)."""
        if not self.dest_insts:
            return 0.0
        total = 0
        for depth, count in self.depth_histogram.items():
            if limit is None or depth <= limit:
                total += count
        return total / self.dest_insts

    def depth_fraction(self, depth: int) -> float:
        """Fraction of dest-instructions whose reuse lands at ``depth``
        (depth 4 aggregates 'more than three')."""
        if not self.dest_insts:
            return 0.0
        return self.depth_histogram.get(depth, 0) / self.dest_insts

    def figure3_series(self) -> dict:
        """The four Figure 3 buckets: one/two/three/more reuses."""
        return {
            "one": self.depth_fraction(1),
            "two": self.depth_fraction(2),
            "three": self.depth_fraction(3),
            "more": self.depth_fraction(4),
        }


class Dataflow(NamedTuple):
    """Both analyses of one stream, from one register pass."""

    consumers: ConsumerAnalysis
    chains: ReuseChainAnalysis


def analyze_registers(dests: bytes, src_counts: bytes,
                      srcs: bytes) -> Dataflow:
    """Figures 1-3 from a stream's register columns (see
    :func:`~repro.workloads.trace_codec.register_columns`)."""
    # the codec is imported on use: it loads numpy, which importing
    # repro.analysis (and so every CLI command) should not pay for
    from repro.workloads.trace_codec import NO_REG

    n = len(dests)
    writer = [-1] * 256  # register byte -> producer of its current value
    uses = [0] * n  # consumers of each value, indexed by its producer
    reader = [-1] * n  # latest consumer of each value
    pos = 0
    for i, count in enumerate(src_counts):
        end = pos + count
        for p in range(pos, end):
            v = writer[srcs[p]]
            if v >= 0 and reader[v] != i:
                uses[v] += 1
                reader[v] = i
        pos = end
        dest = dests[i]
        if dest != NO_REG:
            writer[dest] = i

    starts = list(accumulate(src_counts, initial=0))
    histogram: dict[int, int] = {}
    sole: dict[int, bool] = {}  # sole consumer -> it redefines that register
    reuse: dict[int, int] = {}  # reusing consumer -> producer it reuses
    producers = [i for i, dest in enumerate(dests) if dest != NO_REG]
    for v in producers:
        count = uses[v]
        bucket = count if count < 6 else 6
        histogram[bucket] = histogram.get(bucket, 0) + 1
        if count != 1:
            continue
        i = reader[v]
        dest = dests[i]
        if dest == NO_REG:
            continue
        # a value lives in its producer's dest register, so that is the
        # register its consumer read it through
        held = dests[v]
        # a consumer sole-consuming several values counts once; the
        # guaranteed (redefine-same) case wins
        sole[i] = sole.get(i, False) or held == dest
        if held // INT_REGS != dest // INT_REGS:
            continue  # a register is only reused within its class
        # the oracle renamer reuses the first qualifying source in order
        other = reuse.get(i)
        if other is None or (srcs.index(held, starts[i], starts[i + 1])
                             < srcs.index(dests[other], starts[i],
                                          starts[i + 1])):
            reuse[i] = v

    depth_histogram: dict[int, int] = {}
    depth: dict[int, int] = {}  # producer -> chain depth of its register
    for i in sorted(reuse):
        d = depth[i] = min(depth.get(reuse[i], 0) + 1, 4)
        depth_histogram[d] = depth_histogram.get(d, 0) + 1

    same = sum(sole.values())
    consumers = ConsumerAnalysis(
        total_insts=n, dest_insts=len(producers),
        values_produced=len(producers), consumer_histogram=histogram,
        single_use_redefine_same=same,
        single_use_redefine_other=len(sole) - same)
    chains = ReuseChainAnalysis(dest_insts=len(producers),
                                depth_histogram=depth_histogram)
    return Dataflow(consumers, chains)


def analyze_dataflow(stream: Iterable[DynInst]) -> Dataflow:
    """Figures 1-3 of a stream in one register pass.

    A binary-codec trace stream (one carrying its codec ``blob``) is read
    from the blob's register columns without building a single
    :class:`DynInst`; any other iterable is converted to the same bytes.
    """
    from repro.workloads.trace_codec import register_bytes, register_columns

    blob = getattr(stream, "blob", None)
    if isinstance(blob, bytes):
        return analyze_registers(*register_columns(blob))
    return analyze_registers(*register_bytes(stream))


def analyze_stream(stream: Iterable[DynInst]) -> ConsumerAnalysis:
    """Consumer counts of a stream (Figures 1 and 2)."""
    return analyze_dataflow(stream).consumers


def analyze_chains(stream: Iterable[DynInst]) -> ReuseChainAnalysis:
    """Idealized reuse chains of a stream (Figure 3)."""
    return analyze_dataflow(stream).chains
