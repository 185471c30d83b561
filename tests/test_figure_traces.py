"""The analysis figures read workloads through the trace cache.

Figures 1, 2, 3 and 9 take each profile's stream from
:func:`~repro.harness.cache.cached_stream` under the same key as the sweep
points, so a workload is generated once per trace cache and shared with
the sweep, and a warm run decodes instead of generating.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.harness.cache import cached_stream, reset_trace_memo
from repro.harness.figures import figure1, figure2, figure3, figure9, figure11
from repro.harness.parallel import SweepPoint, run_points
from repro.harness.runner import Scale, make_config
from repro.pipeline.processor import simulate
from repro.workloads import trace_codec
from repro.workloads.generator import SyntheticWorkload, shared_workload
from repro.workloads.profiles import BENCHMARKS

SCALE = Scale(insts=600, benchmarks_per_suite=2, sizes=(48,), seed=3)
ANALYSIS_FIGURES = (figure1, figure2, figure3, figure9)
#: every profile Figures 1-3 read at SCALE
PROFILES = {p.name for suite in ("specint", "specfp", "mediabench",
                                 "cognitive")
            for p in SCALE.profiles(suite)}


@pytest.fixture
def trace_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_FORMAT", raising=False)
    monkeypatch.delenv("REPRO_TRACE_MEMO", raising=False)
    reset_trace_memo()
    yield tmp_path
    reset_trace_memo()


@pytest.fixture
def generated(monkeypatch):
    """(profile name, insts, seed) -> times a SyntheticWorkload was
    iterated, i.e. generated."""
    counts = Counter()
    original = SyntheticWorkload.__iter__

    def counting_iter(self):
        counts[(self.profile.name, self.total_insts, self.seed)] += 1
        return original(self)

    monkeypatch.setattr(SyntheticWorkload, "__iter__", counting_iter)
    return counts


def test_warm_analysis_figures_generate_nothing(trace_dir, generated,
                                                monkeypatch):
    cold = [fn(SCALE).render() for fn in ANALYSIS_FIGURES]
    assert generated, "the cold run should have generated the workloads"
    generated.clear()
    reset_trace_memo()

    register_reads = Counter()
    parses = Counter()
    register_columns = trace_codec.register_columns
    parse = trace_codec.TraceColumns.__init__

    def counting_register_columns(data):
        register_reads[data] += 1
        return register_columns(data)

    def counting_parse(self, data):
        parses[data] += 1
        parse(self, data)

    monkeypatch.setattr(trace_codec, "register_columns",
                        counting_register_columns)
    monkeypatch.setattr(trace_codec.TraceColumns, "__init__", counting_parse)

    warm = [fn(SCALE).render() for fn in ANALYSIS_FIGURES]
    assert warm == cold
    assert not generated
    # Figures 1-3 share one register read per profile; Figure 9 decodes
    # its (specfp) profiles once each
    assert len(register_reads) == len(PROFILES)
    assert set(register_reads.values()) == {1}
    assert len(parses) == len(SCALE.profiles("specfp")[:4])
    assert set(parses.values()) == {1}


def test_cold_figures_generate_each_workload_once(trace_dir, generated):
    for fn in ANALYSIS_FIGURES:
        fn(SCALE)
    figure11(SCALE, jobs=1)  # the sweep hits the traces the figures left
    assert generated == {(name, SCALE.insts, SCALE.seed): 1
                         for name in PROFILES}


# --------------------------------------------- memos key on profile content
BASE = BENCHMARKS["gsm"]
VARIANT = replace(BASE, chain_frac=0.9)  # same name, different workload


def _registers(stream):
    return trace_codec.register_columns(stream.blob)


def test_trace_memo_keys_on_profile_content(trace_dir):
    base = cached_stream(BASE, 2000, 1)
    variant = cached_stream(VARIANT, 2000, 1)
    assert variant is not base
    assert _registers(variant) != _registers(base)
    assert _registers(variant) == trace_codec.register_bytes(
        SyntheticWorkload(VARIANT, 2000, 1))
    assert cached_stream(BASE, 2000, 1) is base  # still a memo hit


def test_shared_workload_keys_on_profile_content():
    assert shared_workload(VARIANT, 1000, 1) is not \
        shared_workload(BASE, 1000, 1)


def test_grid_mixing_same_named_profiles_matches_serial(trace_dir):
    points = [SweepPoint(profile=profile, scheme=scheme, size=48,
                         insts=1500, seed=1)
              for profile in (BASE, VARIANT)
              for scheme in ("conventional", "sharing")]
    serial = [r.stats.to_dict() for r in run_points(points, jobs=1)]
    reset_trace_memo()
    parallel = [r.stats.to_dict() for r in run_points(points, jobs=2)]
    assert parallel == serial
    # each profile simulated its own workload, not its namesake's
    direct = simulate(make_config(VARIANT, "sharing", 48),
                      iter(SyntheticWorkload(VARIANT, 1500, 1)))
    assert serial[3] == direct.to_dict()
    assert serial[3] != serial[1]
