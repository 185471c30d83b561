"""Fully-associative data TLB with LRU replacement."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


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
    functional executor.  ``pages`` holds the resident pages, LRU first.
    """

    __slots__ = ("entries", "page_bits", "miss_penalty", "pages", "accesses",
                 "misses")

    def __init__(self, entries: int = 48, page_bits: int = 12, miss_penalty: int = 30) -> None:
        self.entries = entries
        self.page_bits = page_bits
        self.miss_penalty = miss_penalty
        self.pages: OrderedDict[int, None] = OrderedDict()
        self.accesses = self.misses = 0

    def translate(self, addr: int) -> int:
        page = addr >> self.page_bits
        self.accesses += 1
        if page in self.pages:
            self.pages.move_to_end(page)
            return 0
        self.misses += 1
        self.pages[page] = None
        if len(self.pages) > self.entries:
            self.pages.popitem(last=False)
        return self.miss_penalty

    def flush(self) -> None:
        self.pages.clear()

    @property
    def stats(self) -> TLBStats:
        return TLBStats(self.accesses, self.misses)
