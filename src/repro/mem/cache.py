"""Set-associative write-back caches with LRU replacement.

State is flat: each set is a list of its resident line numbers
(``addr // line_bytes``, the tag with the set index folded in), most
recently used last; dirty lines and prefetched-but-not-yet-demanded
lines are two sets of line numbers; counters are plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class Cache:
    """A cache level.

    ``access`` returns the total latency (cycles) of the access including
    lower levels on a miss.  ``next_level`` is either another Cache or a
    DRAM object; both expose the same ``access(addr, is_write, cycle)``
    signature.  Writes are write-back/write-allocate; evicted dirty lines
    charge a writeback at the next level (latency not added to the critical
    path, as with a write buffer).  A prefetched line stays pending until
    its first demand hit, even if it is evicted first.
    """

    __slots__ = ("name", "size_bytes", "assoc", "line_bytes", "hit_latency",
                 "next_level", "num_sets", "mask", "sets", "dirty",
                 "prefetched", "hits", "misses", "writebacks", "prefetches",
                 "prefetch_hits")

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
        self.mask = self.num_sets - 1
        self.sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.dirty: set[int] = set()
        self.prefetched: set[int] = set()
        self.reset_stats()

    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        line = addr // self.line_bytes
        ways = self.sets[line & self.mask]
        if line not in ways:
            self.misses += 1
            return self.hit_latency + self._fill(line, addr, is_write, cycle)
        ways.remove(line)
        ways.append(line)
        self.hits += 1
        if line in self.prefetched:
            self.prefetched.discard(line)
            self.prefetch_hits += 1
        if is_write:
            self.dirty.add(line)
        return self.hit_latency

    def prefetch(self, addr: int, cycle: int) -> None:
        """Bring a line in without charging a demand access."""
        line = addr // self.line_bytes
        if line not in self.sets[line & self.mask]:
            self.prefetches += 1
            self.prefetched.add(line)
            self._fill(line, addr, False, cycle)

    def _fill(self, line: int, addr: int, is_write: bool, cycle: int) -> int:
        """Install ``line`` as MRU; returns the lower levels' latency."""
        lower = self.next_level
        latency = lower.access(addr, False, cycle) if lower is not None else 0
        ways = self.sets[line & self.mask]
        victim = ways.pop(0) if len(ways) >= self.assoc else None
        ways.append(line)
        if is_write:
            self.dirty.add(line)
        if victim in self.dirty:
            self.dirty.discard(victim)
            self.writebacks += 1
            if lower is not None:
                lower.access(victim * self.line_bytes, True, cycle)
        return latency

    def contains(self, addr: int) -> bool:
        line = addr // self.line_bytes
        return line in self.sets[line & self.mask]

    @property
    def stats(self) -> CacheStats:
        return CacheStats(self.hits + self.misses, self.hits, self.misses,
                          self.writebacks, self.prefetches, self.prefetch_hits)

    def reset_stats(self) -> None:
        self.hits = self.misses = self.writebacks = 0
        self.prefetches = self.prefetch_hits = 0

    def state(self) -> dict:
        """Per-set ``[line, dirty]`` pairs (MRU last), pending prefetched
        lines and counters."""
        return {"sets": [[[line, line in self.dirty] for line in ways]
                         for ways in self.sets],
                "prefetched": sorted(self.prefetched),
                "stats": vars(self.stats)}
