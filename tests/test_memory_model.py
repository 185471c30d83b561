"""Unit tests for SparseMemory and the cache/TLB/DRAM/prefetcher models.

The last section is a differential oracle: ``tests/reference_mem.py``
keeps the original object-based memory model, and seeded and
hypothesis-drawn access streams must give equal per-call latencies and
equal final state (set order, dirty bits, pending prefetches, TLB
recency, DRAM open rows, prefetcher table, every counter) through the
flat :class:`MemoryHierarchy` and through the standalone components.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.mem
from repro.isa.memory import SparseMemory
from repro.mem.cache import Cache
from repro.mem.dram import DRAM, DRAMTimings
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.prefetcher import StridePrefetcher
from repro.mem.tlb import TLB
from tests import reference_mem as ref


# --------------------------------------------------------------------- memory
def test_sparse_memory_alignment_and_default():
    mem = SparseMemory()
    assert mem.load(0x123) == 0
    mem.store(0x100, 7)
    assert mem.load(0x107) == 7  # same 8-byte word
    assert mem.load(0x108) == 0


def test_sparse_memory_blocks_and_copy():
    mem = SparseMemory()
    mem.store_block(0x40, [1, 2, 3])
    assert mem.load_block(0x40, 3) == [1, 2, 3]
    clone = mem.copy()
    clone.store(0x40, 99)
    assert mem.load(0x40) == 1
    assert mem != clone
    assert mem == mem.copy()


# --------------------------------------------------------------------- caches
def make_l1(next_level=None):
    return Cache("L1", size_bytes=1024, assoc=2, line_bytes=64,
                 hit_latency=1, next_level=next_level)


def test_cache_hit_after_miss():
    cache = make_l1()
    miss = cache.access(0x0, False, 0)
    hit = cache.access(0x8, False, 1)  # same line
    assert miss == 1  # no next level: just its own latency
    assert hit == 1
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_cache_miss_goes_to_next_level():
    l2 = Cache("L2", 4096, 4, 64, hit_latency=10)
    l1 = make_l1(next_level=l2)
    latency = l1.access(0x0, False, 0)
    assert latency == 1 + 10
    assert l2.stats.accesses == 1
    # now L1 hit: L2 untouched
    assert l1.access(0x0, False, 1) == 1
    assert l2.stats.accesses == 1


def test_cache_lru_eviction():
    cache = make_l1()  # 8 sets, 2 ways
    set_stride = 64 * 8  # same set every 512 bytes
    a, b, c = 0, set_stride, 2 * set_stride
    cache.access(a, False, 0)
    cache.access(b, False, 1)
    cache.access(a, False, 2)  # touch a -> b is LRU
    cache.access(c, False, 3)  # evicts b
    assert cache.contains(a) and cache.contains(c)
    assert not cache.contains(b)


def test_cache_writeback_of_dirty_victim():
    l2 = Cache("L2", 4096, 4, 64, hit_latency=10)
    l1 = make_l1(next_level=l2)
    set_stride = 64 * 8
    l1.access(0, True, 0)  # dirty
    l1.access(set_stride, False, 1)
    l1.access(2 * set_stride, False, 2)  # evicts dirty line 0
    assert l1.stats.writebacks == 1


def test_cache_prefetch_is_not_a_demand_access():
    cache = make_l1()
    cache.prefetch(0x0, 0)
    assert cache.stats.accesses == 0
    assert cache.stats.prefetches == 1
    cache.access(0x0, False, 1)
    assert cache.stats.hits == 1
    assert cache.stats.prefetch_hits == 1


# --------------------------------------------------------------------- DRAM
def test_dram_row_buffer():
    dram = DRAM(DRAMTimings())
    first = dram.access(0x0, False, 0)
    second = dram.access(0x40, False, 1)  # same row
    assert first == dram.timings.row_miss_latency
    assert second == dram.timings.row_hit_latency
    assert first > second
    assert dram.stats.row_hits == 1 and dram.stats.row_misses == 1


def test_dram_bank_interleaving():
    timings = DRAMTimings()
    dram = DRAM(timings)
    dram.access(0x0, False, 0)
    other_bank = timings.row_bytes  # next row maps to the next bank
    dram.access(other_bank, False, 1)
    assert dram.access(0x0, False, 2) == timings.row_hit_latency


# --------------------------------------------------------------------- TLB
def test_tlb_hit_miss_and_lru():
    tlb = TLB(entries=2, page_bits=12, miss_penalty=30)
    assert tlb.translate(0x0000) == 30
    assert tlb.translate(0x0008) == 0  # same page
    assert tlb.translate(0x1000) == 30
    assert tlb.translate(0x0000) == 0  # still resident
    assert tlb.translate(0x2000) == 30  # evicts LRU (0x1000's page)
    assert tlb.translate(0x1000) == 30
    assert tlb.stats.misses == 4


def test_tlb_flush():
    tlb = TLB(entries=4)
    tlb.translate(0)
    tlb.flush()
    assert tlb.translate(0) == tlb.miss_penalty


# --------------------------------------------------------------------- prefetcher
def test_stride_prefetcher_trains_and_issues():
    cache = make_l1()
    pf = StridePrefetcher(table_size=16, degree=1, threshold=2)
    pc = 0x40
    for i in range(4):
        pf.observe(pc, 0x1000 + i * 64, cache, i)
    assert pf.issued >= 1
    # the next stride target should now be resident
    assert cache.contains(0x1000 + 4 * 64)


def test_stride_prefetcher_ignores_irregular():
    cache = make_l1()
    pf = StridePrefetcher(table_size=16)
    addrs = [0x0, 0x1000, 0x40, 0x2000, 0x80]
    for i, addr in enumerate(addrs):
        pf.observe(0x40, addr, cache, i)
    assert pf.issued == 0


# --------------------------------------------------------------------- hierarchy
def test_hierarchy_latency_composition():
    h = MemoryHierarchy(HierarchyConfig(enable_prefetcher=False))
    cold = h.data_access(0, 0x5000, False, 0)
    warm = h.data_access(0, 0x5000, False, 1)
    # cold access: TLB walk + L1 + L2 + DRAM; warm: 1-cycle L1 hit
    assert cold > warm
    assert warm == h.config.l1d_latency
    assert h.tlb.stats.misses == 1


def test_hierarchy_inst_fetch_uses_l1i():
    h = MemoryHierarchy()
    h.inst_fetch(0x0, False, 0)
    assert h.l1i.stats.accesses == 1
    assert h.l1d.stats.accesses == 0


# ------------------------------------------------- differential vs. oracle
#: Table I, plus a small hierarchy where L2 evicts dirty lines quickly, a
#: degree-2 prefetcher, and no prefetcher at all
_CONFIGS = {
    "table1": HierarchyConfig(),
    "small": HierarchyConfig(l1i_size=512, l1i_assoc=2, l1d_size=512,
                             l1d_assoc=2, l2_size=2048, l2_assoc=4,
                             tlb_entries=8),
    "degree2": HierarchyConfig(l1d_size=1024, l2_size=4096, l2_assoc=4,
                               prefetcher_degree=2),
    "no_prefetcher": HierarchyConfig(l2_size=4096, l2_assoc=4,
                                     enable_prefetcher=False),
}
_ROW_STRIDE = 2 * 8 * 8192  # same DRAM bank, next row


def _ref_cache_state(c) -> dict:
    """:meth:`Cache.state` of a reference cache."""
    return {"sets": [[[tag * c.num_sets + index, dirty]
                      for tag, dirty in zip(s.tags, s.dirty)]
                     for index, s in enumerate(c._sets)],
            "prefetched": sorted(c._prefetched),
            "stats": dataclasses.asdict(c.stats)}


def _ref_state(h) -> dict:
    """:meth:`MemoryHierarchy.state` of a reference hierarchy."""
    pf = h.prefetcher
    return {
        "l1i": _ref_cache_state(h.l1i), "l1d": _ref_cache_state(h.l1d),
        "l2": _ref_cache_state(h.l2),
        "tlb": {"pages": list(h.tlb._lru),
                "stats": dataclasses.asdict(h.tlb.stats)},
        "dram": {"open_rows": list(h.dram._open_rows),
                 "stats": dataclasses.asdict(h.dram.stats)},
        "prefetcher": None if pf is None else {
            "table": {k: (e.last_addr, e.stride, e.confidence)
                      for k, e in pf.table.items()},
            "issued": pf.issued},
    }


def _replay(config: HierarchyConfig, ops) -> None:
    """Drive the oracle and the flat hierarchy with ``ops`` —
    ``(pc, addr, is_write)`` data accesses, ``(None, addr, _)``
    instruction fetches — asserting equal latencies and final state."""
    want, got = ref.MemoryHierarchy(config), MemoryHierarchy(config)
    for cycle, (pc, addr, is_write) in enumerate(ops):
        if pc is None:
            assert got.inst_fetch(addr, is_write, cycle) == \
                want.inst_fetch(addr, is_write, cycle), (cycle, addr)
        else:
            assert got.data_access(pc, addr, is_write, cycle) == \
                want.data_access(pc, addr, is_write, cycle), (cycle, addr)
    assert got.state() == _ref_state(want)


def _seeded_stream(seed: int, n: int = 6000) -> list:
    """Strided loads from several PCs (strides below, at and above a line,
    negative, a page, a DRAM row), random loads and stores over hot
    regions, >48 pages of TLB churn, DRAM row conflicts, I-fetches."""
    rng = random.Random(seed)
    strides = [8, 64, 136, -64, 4096, _ROW_STRIDE]
    # stream PCs own prefetcher slots 0-11; the other loads use 128-255
    streams = {pc: [rng.randrange(1 << 24), strides[pc % len(strides)]]
               for pc in range(12)}
    fetch_pc = 0x4000
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.35:
            pc = rng.choice(list(streams))
            addr, stride = streams[pc]
            streams[pc][0] = max(0, addr + stride)
            ops.append((pc, addr, rng.random() < 0.1))
        elif r < 0.6:
            region = rng.choice((0, 1 << 20, 3 << 22))
            ops.append((rng.randrange(128, 192),
                        region + rng.randrange(16 * 1024),
                        rng.random() < 0.4))
        elif r < 0.75:
            addr = rng.randrange(200) * 4096 if rng.random() < 0.5 \
                else rng.randrange(6) * _ROW_STRIDE + rng.randrange(64)
            ops.append((rng.randrange(192, 256), addr,
                        rng.random() < 0.3))
        else:
            fetch_pc = rng.randrange(1 << 16) if rng.random() < 0.05 \
                else fetch_pc + 16
            ops.append((None, fetch_pc, False))
    return ops


@pytest.mark.parametrize("name", sorted(_CONFIGS))
@pytest.mark.parametrize("seed", [1, 2])
def test_flat_hierarchy_matches_reference_on_seeded_streams(name, seed):
    _replay(_CONFIGS[name], _seeded_stream(seed))


def test_seeded_stream_reaches_every_guarded_path():
    h = ref.MemoryHierarchy(_CONFIGS["small"])
    pages = set()
    for cycle, (pc, addr, is_write) in enumerate(_seeded_stream(1)):
        if pc is None:
            h.inst_fetch(addr, False, cycle)
        else:
            h.data_access(pc, addr, is_write, cycle)
            pages.add(addr >> 12)
    stats = h.l1d.stats
    assert 0 < stats.prefetches < h.prefetcher.issued  # some were present
    assert stats.prefetch_hits > 0
    assert stats.writebacks > 0 and h.l2.stats.writebacks > 0
    assert len(pages) > 2 * 48 and h.tlb.stats.misses > 48
    assert h.dram.stats.row_misses > h.dram.stats.row_hits > 0
    assert h.l1i.stats.misses > 0 and h.l1i.stats.hits > 0


_ADDRS = st.one_of(
    st.integers(0, 64 * 64),  # a few dozen lines: set conflicts, re-hits
    st.integers(0, 4).map(lambda i: i * _ROW_STRIDE),  # row conflicts
    st.integers(0, 60).map(lambda page: page * 4096 + 8))  # TLB churn
_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from([0x40, 0x44, 0x48]), _ADDRS, st.booleans())
    .map(lambda op: [op]),
    st.tuples(st.none(), st.integers(0, 1 << 14), st.booleans())
    .map(lambda op: [op]),
    # a strided burst from one PC, long enough to arm the prefetcher
    st.tuples(st.integers(0, 1 << 16), st.sampled_from([8, 64, -128, 200]),
              st.integers(3, 8))
    .map(lambda t: [(0x80, max(0, t[0] + i * t[1]), False)
                    for i in range(t[2])])),
    max_size=120).map(lambda groups: [op for g in groups for op in g])


@given(st.sampled_from(sorted(_CONFIGS)), _OPS)
@settings(max_examples=150, deadline=None)
def test_flat_hierarchy_matches_reference_on_drawn_streams(name, ops):
    _replay(_CONFIGS[name], ops)


def _components(m):
    """Standalone chains — a lone cache, cache over cache, cache over
    DRAM, two caches over DRAM — plus a TLB, a DRAM and a prefetcher."""
    l2 = m.Cache("L2", 2048, 4, 64, 10, next_level=m.DRAM(m.DRAMTimings()))
    caches = [m.Cache("A", 512, 2, 64, 1),
              m.Cache("B", 512, 2, 64, 1,
                      next_level=m.Cache("C", 1024, 2, 64, 5)),
              m.Cache("D", 512, 1, 64, 1, next_level=m.DRAM(m.DRAMTimings())),
              m.Cache("E", 512, 2, 64, 1, next_level=l2)]
    return caches, m.TLB(entries=4), m.DRAM(m.DRAMTimings()), \
        m.StridePrefetcher(table_size=4)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1 << 15),
                          st.booleans()), max_size=150))
@settings(max_examples=100, deadline=None)
def test_standalone_components_match_reference(ops):
    want_caches, want_tlb, want_dram, want_pf = _components(ref)
    got_caches, got_tlb, got_dram, got_pf = _components(repro.mem)
    for cycle, (kind, addr, is_write) in enumerate(ops):
        for want, got in zip(want_caches, got_caches):
            if kind == 0:
                want.prefetch(addr, cycle)
                got.prefetch(addr, cycle)
            else:
                assert got.access(addr, is_write, cycle) == \
                    want.access(addr, is_write, cycle)
        assert got_tlb.translate(addr) == want_tlb.translate(addr)
        assert got_dram.access(addr, is_write, cycle) == \
            want_dram.access(addr, is_write, cycle)
        want_pf.observe(kind, addr, want_caches[3], cycle)
        got_pf.observe(kind, addr, got_caches[3], cycle)
    for want, got in zip(want_caches, got_caches):
        while isinstance(want, ref.Cache):  # every level of the chain
            assert got.state() == _ref_cache_state(want)
            want, got = want.next_level, got.next_level
        if want is not None:
            assert got.open_rows == want._open_rows
            assert vars(got.stats) == dataclasses.asdict(want.stats)
    assert list(got_tlb.pages) == list(want_tlb._lru)
    assert vars(got_tlb.stats) == dataclasses.asdict(want_tlb.stats)
    assert got_dram.open_rows == want_dram._open_rows
    assert vars(got_dram.stats) == dataclasses.asdict(want_dram.stats)
    assert got_pf.issued == want_pf.issued
