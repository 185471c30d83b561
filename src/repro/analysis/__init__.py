"""Dataflow analyses reproducing the paper's motivation study (Figs 1-3)
and the shadow-cell demand study (Fig 9)."""

from repro.analysis.dataflow import (
    ConsumerAnalysis,
    Dataflow,
    ReuseChainAnalysis,
    analyze_chains,
    analyze_dataflow,
    analyze_registers,
    analyze_stream,
)
from repro.analysis.shadow_demand import ShadowDemand, measure_shadow_demand
from repro.analysis.lifetimes import (
    LifetimeAnalysis,
    ValueLifetime,
    analyze_lifetimes,
)

__all__ = [
    "ConsumerAnalysis",
    "Dataflow",
    "ReuseChainAnalysis",
    "analyze_chains",
    "analyze_dataflow",
    "analyze_registers",
    "analyze_stream",
    "ShadowDemand",
    "measure_shadow_demand",
    "LifetimeAnalysis",
    "ValueLifetime",
    "analyze_lifetimes",
]
