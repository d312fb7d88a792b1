"""HTTP Adaptive Streaming (HAS) substrate.

Implements the streaming stack the paper's data collection exercised:
videos encoded into quality ladders with variable-bitrate segments, a
playback buffer with startup and stall dynamics, pluggable adaptation
(ABR) algorithms, and a player that drives segment downloads over the
TLS connection pool while logging per-second ground-truth QoE — the
role the browser-automation testbed with JavaScript instrumentation
played for the authors.
"""

from repro.has.abr import (
    AbrAlgorithm,
    AbrState,
    BolaAbr,
    BufferBasedAbr,
    HybridAbr,
    ThroughputAbr,
)
from repro.has.buffer import PlaybackSchedule, PlayEvent, Stall
from repro.has.player import PlayerSession, SessionTrace
from repro.has.video import QualityLadder, QualityLevel, Video, VideoCatalog

__all__ = [
    "QualityLevel",
    "QualityLadder",
    "Video",
    "VideoCatalog",
    "PlaybackSchedule",
    "PlayEvent",
    "Stall",
    "AbrAlgorithm",
    "AbrState",
    "ThroughputAbr",
    "BufferBasedAbr",
    "HybridAbr",
    "BolaAbr",
    "PlayerSession",
    "SessionTrace",
]
