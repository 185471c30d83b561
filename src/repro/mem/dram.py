"""DDR3-style DRAM timing model (open-page, per-bank row buffers).

Models the latency-relevant behaviour of the paper's memory configuration
(DDR3-1600, 2 ranks/channel, 8 banks/rank, 8 KB rows, tCAS=tRCD=tRP=13.75 ns):
row-buffer hits pay tCAS, row conflicts pay tRP+tRCD+tCAS.  Queueing
contention is not modelled (single-core study).
"""

from __future__ import annotations

from dataclasses import dataclass


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
    """Open-page DRAM with one row buffer per (rank, bank): row ``addr //
    row_bytes`` maps to bank ``row % banks``, whose ``open_rows`` entry is
    ``row // banks`` while open.  Latencies are computed once, here."""

    __slots__ = ("timings", "banks", "row_bytes", "row_hit_latency",
                 "row_miss_latency", "open_rows", "row_hits", "row_misses")

    def __init__(self, timings: DRAMTimings | None = None) -> None:
        self.timings = t = timings or DRAMTimings()
        self.banks, self.row_bytes = t.ranks * t.banks_per_rank, t.row_bytes
        self.row_hit_latency = t.row_hit_latency
        self.row_miss_latency = t.row_miss_latency
        self.open_rows: list[int | None] = [None] * self.banks
        self.row_hits = self.row_misses = 0

    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        row = addr // self.row_bytes
        bank, row = row % self.banks, row // self.banks
        if self.open_rows[bank] == row:
            self.row_hits += 1
            return self.row_hit_latency
        self.row_misses += 1
        self.open_rows[bank] = row
        return self.row_miss_latency

    @property
    def stats(self) -> DRAMStats:
        return DRAMStats(self.row_hits + self.row_misses, self.row_hits,
                         self.row_misses)
