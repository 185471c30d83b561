"""The original object-based memory model, kept only as a test oracle.

This is the ``repro.mem`` code from before the flat access path
(one ``_Set`` object per cache set, recursive ``Cache.access`` down the
levels, an ``_Entry`` dataclass per prefetcher slot), moved here
verbatim: ``tests/test_memory_model.py`` drives it and
:class:`repro.mem.MemoryHierarchy` with the same streams and checks
equal per-call latencies and equal final state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.mem.hierarchy import HierarchyConfig


# ----------------------------------------------------------------------- cache
@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    prefetches: int = 0
    prefetch_hits: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _Set:
    """One cache set: list of (tag, dirty) kept in LRU order (MRU last)."""

    __slots__ = ("tags", "dirty")

    def __init__(self) -> None:
        self.tags: list[int] = []
        self.dirty: list[bool] = []

    def find(self, tag: int) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            return -1

    def touch(self, way: int) -> None:
        tag = self.tags.pop(way)
        dirty = self.dirty.pop(way)
        self.tags.append(tag)
        self.dirty.append(dirty)

    def insert(self, tag: int, dirty: bool, assoc: int) -> Optional[tuple[int, bool]]:
        """Insert; returns the evicted (tag, dirty) if any."""
        victim = None
        if len(self.tags) >= assoc:
            victim = (self.tags.pop(0), self.dirty.pop(0))
        self.tags.append(tag)
        self.dirty.append(dirty)
        return victim

    def remove(self, tag: int) -> Optional[bool]:
        way = self.find(tag)
        if way < 0:
            return None
        self.tags.pop(way)
        return self.dirty.pop(way)


class Cache:
    """A cache level.

    ``access`` returns the total latency (cycles) of the access including
    lower levels on a miss.  ``next_level`` is either another Cache or a
    DRAM object; both expose the same ``access(addr, is_write, cycle)``
    signature.  Writes are write-back/write-allocate; evicted dirty lines
    charge a writeback at the next level (latency not added to the critical
    path, as with a write buffer).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        hit_latency: int,
        next_level=None,
    ) -> None:
        if size_bytes % (assoc * line_bytes):
            raise ValueError(f"{name}: size not divisible by assoc*line")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.num_sets = size_bytes // (assoc * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._sets = [_Set() for _ in range(self.num_sets)]
        self.stats = CacheStats()
        #: lines brought in by the prefetcher and not yet demanded
        self._prefetched: set[int] = set()

    # ------------------------------------------------------------------ layout
    def _index_tag(self, addr: int) -> tuple[int, int]:
        block = addr // self.line_bytes
        return block % self.num_sets, block // self.num_sets

    def _block(self, addr: int) -> int:
        return addr // self.line_bytes

    # ------------------------------------------------------------------ access
    def access(self, addr: int, is_write: bool, cycle: int, _prefetch: bool = False) -> int:
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        way = cache_set.find(tag)

        if not _prefetch:
            self.stats.accesses += 1

        if way >= 0:
            if not _prefetch:
                self.stats.hits += 1
                block = self._block(addr)
                if block in self._prefetched:
                    self._prefetched.discard(block)
                    self.stats.prefetch_hits += 1
            cache_set.touch(way)
            if is_write:
                cache_set.dirty[-1] = True
            return self.hit_latency

        # miss: fill from below
        if not _prefetch:
            self.stats.misses += 1
        lower_latency = 0
        if self.next_level is not None:
            lower_latency = self.next_level.access(addr, False, cycle)
        victim = cache_set.insert(tag, is_write, self.assoc)
        if victim is not None and victim[1]:
            self.stats.writebacks += 1
            if self.next_level is not None:
                self.next_level.access(self._victim_addr(index, victim[0]), True, cycle)
        if _prefetch:
            self._prefetched.add(self._block(addr))
        return self.hit_latency + lower_latency

    def prefetch(self, addr: int, cycle: int) -> None:
        """Bring a line in without charging a demand access."""
        index, tag = self._index_tag(addr)
        if self._sets[index].find(tag) >= 0:
            return
        self.stats.prefetches += 1
        self.access(addr, False, cycle, _prefetch=True)

    def contains(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        return self._sets[index].find(tag) >= 0

    def _victim_addr(self, index: int, tag: int) -> int:
        return (tag * self.num_sets + index) * self.line_bytes

    def reset_stats(self) -> None:
        self.stats = CacheStats()


# ------------------------------------------------------------------------ dram
@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing parameters converted to core cycles."""

    core_ghz: float = 2.0
    tcas_ns: float = 13.75
    trcd_ns: float = 13.75
    trp_ns: float = 13.75
    bus_ns: float = 5.0  # channel/bus transfer + controller overhead
    ranks: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 8192

    def cycles(self, ns: float) -> int:
        return max(1, round(ns * self.core_ghz))

    @property
    def row_hit_latency(self) -> int:
        return self.cycles(self.tcas_ns + self.bus_ns)

    @property
    def row_miss_latency(self) -> int:
        return self.cycles(self.trp_ns + self.trcd_ns + self.tcas_ns + self.bus_ns)


@dataclass
class DRAMStats:
    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0


class DRAM:
    """Open-page DRAM with one row buffer per (rank, bank)."""

    def __init__(self, timings: DRAMTimings | None = None) -> None:
        self.timings = timings or DRAMTimings()
        total_banks = self.timings.ranks * self.timings.banks_per_rank
        self._open_rows: list[int | None] = [None] * total_banks
        self.stats = DRAMStats()

    def _bank_row(self, addr: int) -> tuple[int, int]:
        t = self.timings
        row = addr // t.row_bytes
        total_banks = t.ranks * t.banks_per_rank
        return row % total_banks, row // total_banks

    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        bank, row = self._bank_row(addr)
        self.stats.accesses += 1
        if self._open_rows[bank] == row:
            self.stats.row_hits += 1
            return self.timings.row_hit_latency
        self.stats.row_misses += 1
        self._open_rows[bank] = row
        return self.timings.row_miss_latency


# ------------------------------------------------------------------------- tlb
@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Models the paper's 48-entry fully-associative L1 data TLB.

    ``translate`` returns the *extra* latency charged on top of the cache
    access: zero on a hit, ``miss_penalty`` cycles for a page walk on a
    miss.  Page faults are modelled separately by the fault model in the
    functional executor.
    """

    def __init__(self, entries: int = 48, page_bits: int = 12, miss_penalty: int = 30) -> None:
        self.entries = entries
        self.page_bits = page_bits
        self.miss_penalty = miss_penalty
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.stats = TLBStats()

    def translate(self, addr: int) -> int:
        page = addr >> self.page_bits
        self.stats.accesses += 1
        if page in self._lru:
            self._lru.move_to_end(page)
            return 0
        self.stats.misses += 1
        self._lru[page] = None
        if len(self._lru) > self.entries:
            self._lru.popitem(last=False)
        return self.miss_penalty

    def flush(self) -> None:
        self._lru.clear()


# ------------------------------------------------------------------ prefetcher
@dataclass
class _Entry:
    last_addr: int = 0
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Classic reference-prediction-table stride prefetcher.

    On every demand load the table entry for the load's PC is trained with
    the observed stride; once the same stride is seen twice in a row the
    prefetcher issues a degree-1 prefetch of ``addr + stride`` into the
    target cache.
    """

    def __init__(self, table_size: int = 256, degree: int = 1, threshold: int = 2) -> None:
        if table_size & (table_size - 1):
            raise ValueError("prefetcher table size must be a power of two")
        self.mask = table_size - 1
        self.degree = degree
        self.threshold = threshold
        self.table: dict[int, _Entry] = {}
        self.issued = 0

    def observe(self, pc: int, addr: int, cache, cycle: int) -> None:
        index = pc & self.mask
        entry = self.table.get(index)
        if entry is None:
            self.table[index] = _Entry(last_addr=addr)
            return
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence = 0
            entry.stride = stride
        entry.last_addr = addr
        if entry.confidence >= self.threshold and entry.stride != 0:
            for i in range(1, self.degree + 1):
                cache.prefetch(addr + i * entry.stride, cycle)
                self.issued += 1


# ------------------------------------------------------------------- hierarchy
class MemoryHierarchy:
    """Single-core cache hierarchy + TLB + prefetcher + DRAM."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.dram = DRAM(DRAMTimings())
        self.l2 = Cache("L2", cfg.l2_size, cfg.l2_assoc, cfg.line_bytes,
                        cfg.l2_latency, next_level=self.dram)
        self.l1d = Cache("L1D", cfg.l1d_size, cfg.l1d_assoc, cfg.line_bytes,
                         cfg.l1d_latency, next_level=self.l2)
        self.l1i = Cache("L1I", cfg.l1i_size, cfg.l1i_assoc, cfg.line_bytes,
                         cfg.l1i_latency, next_level=self.l2)
        self.tlb = TLB(cfg.tlb_entries, miss_penalty=cfg.tlb_miss_penalty)
        self.prefetcher = StridePrefetcher(degree=cfg.prefetcher_degree) \
            if cfg.enable_prefetcher else None

    def data_access(self, pc: int, addr: int, is_write: bool, cycle: int) -> int:
        """Latency of a demand data access (TLB + caches)."""
        latency = self.tlb.translate(addr)
        latency += self.l1d.access(addr, is_write, cycle)
        if self.prefetcher is not None and not is_write:
            self.prefetcher.observe(pc, addr, self.l1d, cycle)
        return latency

    def inst_fetch(self, addr: int, is_write: bool, cycle: int) -> int:
        """Latency of an instruction fetch (L1-I path).

        Signature matches ``Cache.access`` so the fetch unit can use either
        a raw cache or the hierarchy.
        """
        return self.l1i.access(addr, False, cycle)

    # Allow the FetchUnit to treat the hierarchy as its "icache".
    access = inst_fetch
