"""PC-indexed stride prefetcher (degree 1), as in the paper's Table I."""

from __future__ import annotations


class StridePrefetcher:
    """Classic reference-prediction-table stride prefetcher.

    On every demand load the table entry for the load's PC is trained with
    the observed stride; once the same stride is seen twice in a row the
    prefetcher issues a degree-1 prefetch of ``addr + stride`` into the
    target cache.  ``table[pc & mask]`` is None until that slot's first
    load, then a ``[last_addr, stride, confidence]`` list.
    """

    __slots__ = ("mask", "degree", "threshold", "table", "issued")

    def __init__(self, table_size: int = 256, degree: int = 1, threshold: int = 2) -> None:
        if table_size & (table_size - 1):
            raise ValueError("prefetcher table size must be a power of two")
        self.mask = table_size - 1
        self.degree = degree
        self.threshold = threshold
        self.table: list[list[int] | None] = [None] * table_size
        self.issued = 0

    def observe(self, pc: int, addr: int, cache, cycle: int) -> None:
        entry = self.table[pc & self.mask]
        if entry is None:
            self.table[pc & self.mask] = [addr, 0, 0]
            return
        stride = addr - entry[0]
        if stride != 0 and stride == entry[1]:
            entry[2] = min(entry[2] + 1, 3)
        else:
            entry[1] = stride
            entry[2] = 0
        entry[0] = addr
        if entry[2] >= self.threshold and stride != 0:
            for i in range(1, self.degree + 1):
                cache.prefetch(addr + i * stride, cycle)
                self.issued += 1
