"""Streaming inference: online session detection and QoE scoring.

The batch pipeline collects a whole corpus, then splits, extracts and
cross-validates.  An ISP deployment (the paper's operational pitch)
instead consumes an unbounded feed of TLS transactions from many
concurrent ``(user, service)`` streams and must emit per-session QoE
verdicts with bounded latency and memory.  This package is that
engine:

* :mod:`repro.stream.engine` — :class:`StreamDetector`, the ingest
  engine: per-stream pending buffers, the W-lookahead online boundary
  heuristic, idle-timeout / capacity eviction, and a batched scoring
  loop: each chunk of closed sessions is featurized by one call to the
  batch kernel :func:`~repro.features.tls_features.extract_tls_table`
  and scored by one ``model.predict``.
* :mod:`repro.stream.replay` — corpus-to-event-stream replay used by
  the ``python -m repro stream`` CLI, the golden-equivalence tests and
  the benchmarks.

Golden contract: replaying a corpus through :class:`StreamDetector`
and flushing yields byte-identical session groups, feature vectors and
model verdicts to the batch path (``split_sessions`` →
``extract_tls_table`` → ``model.predict``).  Both paths featurize
through the same kernel, so the feature half of the contract holds by
construction.
"""

from repro.stream.engine import StreamConfig, StreamDetector, StreamVerdict

__all__ = [
    "StreamConfig",
    "StreamDetector",
    "StreamVerdict",
]
