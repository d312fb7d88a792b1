"""NetFlow-style flow-level monitoring (the paper's future work).

The paper's conclusion proposes exploring "more granular flow-level
data collected using NetFlow" as a middle ground between TLS
transactions and packet traces: flow records resemble TLS transactions
(per-connection byte/packet counters) but an exporter's *active
timeout* slices long flows into periodic summaries, giving finer
temporal resolution at slightly higher record volume.

This package implements that data source: a NetFlow v9-style exporter
that turns simulated connections into flow records (active/idle
timeout semantics), plus feature extraction that reuses the TLS
feature schema over flow slices.  The video-identification problem the
paper notes for flow data (no SNI) is assumed solved via DNS
augmentation, as in Bermudez et al. — see DESIGN.md.
"""

from repro.netflow.exporter import ExporterConfig, FlowRecord, export_flows
from repro.netflow.features import extract_flow_features

__all__ = [
    "FlowRecord",
    "ExporterConfig",
    "export_flows",
    "extract_flow_features",
]
