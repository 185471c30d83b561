"""The full memory hierarchy of Table I, wired together.

L1-I (48 KB 3-way, 1 cycle) and L1-D (32 KB 2-way, 1 cycle) both back into
a unified L2 (1 MB 16-way, 12 cycles) over DDR3-1600 DRAM.  Data accesses
go through the 48-entry fully-associative TLB, and demand loads train a
degree-1 stride prefetcher that fills into L1-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.mem.cache import Cache
from repro.mem.dram import DRAM, DRAMTimings
from repro.mem.prefetcher import StridePrefetcher
from repro.mem.tlb import TLB


@dataclass
class HierarchyConfig:
    line_bytes: int = 64
    l1i_size: int = 48 * 1024
    l1i_assoc: int = 3
    l1i_latency: int = 1
    l1d_size: int = 32 * 1024
    l1d_assoc: int = 2
    l1d_latency: int = 1
    l2_size: int = 1024 * 1024
    l2_assoc: int = 16
    l2_latency: int = 12
    tlb_entries: int = 48
    tlb_miss_penalty: int = 30
    prefetcher_degree: int = 1
    enable_prefetcher: bool = True


class MemoryHierarchy:
    """Single-core cache hierarchy + TLB + prefetcher + DRAM.

    ``data_access(pc, addr, is_write, cycle)`` is the latency of a demand
    data access; ``inst_fetch(addr, is_write, cycle)`` (also ``access``,
    so the fetch unit can use the hierarchy as its I-cache) that of an
    instruction fetch, always a read.  Each is one Python call over the
    components' flat state (only a dirty L2 victim, rare, costs a second:
    ``DRAM.access``), with the results, state and counters of the
    components' own methods chained as TLB -> L1 -> L2 -> DRAM.
    """

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
        self.data_access = self._walker(self.l1d, self.tlb, self.prefetcher)
        self.inst_fetch = self.access = partial(
            self._walker(self.l1i, None, None), 0)

    def state(self) -> dict:
        """Every bit of hierarchy state, recency order included."""
        tlb, dram, pf = self.tlb, self.dram, self.prefetcher
        return {
            "l1i": self.l1i.state(), "l1d": self.l1d.state(),
            "l2": self.l2.state(),
            "tlb": {"pages": list(tlb.pages), "stats": vars(tlb.stats)},
            "dram": {"open_rows": list(dram.open_rows),
                     "stats": vars(dram.stats)},
            "prefetcher": None if pf is None else {
                "table": {i: tuple(e) for i, e in enumerate(pf.table) if e},
                "issued": pf.issued},
        }

    def _walker(self, l1: Cache, tlb: Optional[TLB], prefetcher):
        """Build ``walk(pc, addr, is_write, cycle)``: one access through
        ``tlb`` (None: a read-only L1) and ``l1``, the L2 and DRAM,
        training ``prefetcher`` (if any) on loads.  An L1 hit that fills
        no prefetch ends the walk.  Otherwise the L2 serves, in order, the
        demand fill, the L1 victim's writeback and each prefetch fill and
        its victim's writeback, and DRAM each L2 fill and then the L2
        victim's writeback: the order of the chained ``access`` calls."""
        l2, dram = self.l2, self.dram
        line_bytes, lat1, lat2 = l1.line_bytes, l1.hit_latency, l2.hit_latency
        sets1, mask1, assoc1 = l1.sets, l1.mask, l1.assoc
        dirty1, pending1 = l1.dirty, l1.prefetched
        sets2, mask2, assoc2 = l2.sets, l2.mask, l2.assoc
        dirty2, pending2 = l2.dirty, l2.prefetched
        open_rows, row_bytes, banks = dram.open_rows, dram.row_bytes, dram.banks
        row_hit, row_miss = dram.row_hit_latency, dram.row_miss_latency
        if tlb is not None:
            pages, page_bits = tlb.pages, tlb.page_bits
            move_to_end, evict_page = pages.move_to_end, pages.popitem
        table = prefetcher.table if prefetcher is not None else None
        if table is not None:
            pc_mask, threshold = prefetcher.mask, prefetcher.threshold
            steps = tuple(range(1, prefetcher.degree + 1))

        def walk(pc: int, addr: int, is_write: bool, cycle: int) -> int:
            latency = lat1
            if tlb is None:
                is_write = False
            else:
                page = addr >> page_bits
                tlb.accesses += 1
                if page in pages:
                    move_to_end(page)
                else:
                    tlb.misses += 1
                    pages[page] = None
                    if len(pages) > tlb.entries:
                        evict_page(False)
                    latency += tlb.miss_penalty
            line = addr // line_bytes
            ways = sets1[line & mask1]
            below = None  # (addr, is_write) accesses for the L2, in order
            fill = line not in ways
            if fill:
                l1.misses += 1
                below = [(addr, False)]
                if len(ways) >= assoc1:
                    victim = ways.pop(0)
                    if victim in dirty1:
                        dirty1.discard(victim)
                        l1.writebacks += 1
                        below.append((victim * line_bytes, True))
                ways.append(line)
            else:
                if ways[-1] != line:
                    ways.remove(line)
                    ways.append(line)
                l1.hits += 1
                if line in pending1:
                    pending1.discard(line)
                    l1.prefetch_hits += 1
            if is_write:
                dirty1.add(line)
            elif table is not None:
                entry = table[pc & pc_mask]
                if entry is None:
                    table[pc & pc_mask] = [addr, 0, 0]
                    stride = 0
                else:
                    stride = addr - entry[0]
                    if stride and stride == entry[1]:
                        if entry[2] < 3:
                            entry[2] += 1
                    else:
                        entry[1] = stride
                        entry[2] = 0
                    entry[0] = addr
                if stride and entry[2] >= threshold:
                    prefetcher.issued += len(steps)
                    for k in steps:
                        target = addr + k * stride
                        line = target // line_bytes
                        ways = sets1[line & mask1]
                        if line in ways:
                            continue
                        l1.prefetches += 1
                        pending1.add(line)
                        if below is None:
                            below = []
                        below.append((target, False))
                        if len(ways) >= assoc1:
                            victim = ways.pop(0)
                            if victim in dirty1:
                                dirty1.discard(victim)
                                l1.writebacks += 1
                                below.append((victim * line_bytes, True))
                        ways.append(line)
            if below is None:
                return latency
            for a, write in below:
                line = a // line_bytes
                ways = sets2[line & mask2]
                if line in ways:
                    if ways[-1] != line:
                        ways.remove(line)
                        ways.append(line)
                    l2.hits += 1
                    if line in pending2:
                        pending2.discard(line)
                        l2.prefetch_hits += 1
                    cost = lat2
                else:
                    l2.misses += 1
                    row = a // row_bytes
                    bank, row = row % banks, row // banks
                    if open_rows[bank] == row:
                        dram.row_hits += 1
                        cost = lat2 + row_hit
                    else:
                        dram.row_misses += 1
                        open_rows[bank] = row
                        cost = lat2 + row_miss
                    if len(ways) >= assoc2:
                        victim = ways.pop(0)
                        if victim in dirty2:  # rare: no inlining needed
                            dirty2.discard(victim)
                            l2.writebacks += 1
                            dram.access(victim * line_bytes, True, cycle)
                    ways.append(line)
                if write:
                    dirty2.add(line)
                if fill:
                    latency += cost
                    fill = False
            return latency

        return walk
