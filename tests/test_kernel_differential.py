"""Randomized differential tests of the one feature kernel.

Two equivalence contracts, each over generated inputs rather than
fixed fixtures:

* **kernel == oracle.**  :func:`extract_tls_table` on a multi-session
  table equals the scalar per-session oracle (:mod:`tests.feature_oracle`)
  bit for bit, for the whole table and for every session alone.  The
  generator favours the edges: 1-row sessions, zero-duration rows, zero
  uplink, duplicate start times, and sessions long enough for numpy's
  blocked summation to kick in.
* **stream == batch.**  Feeds replayed through :class:`StreamDetector`
  give the batch pipeline's verdicts (``check_batch_equivalence``) for
  ``score_batch`` 1, 3 and 64, with gaps of exactly the boundary window
  ``W``, undersized trailing groups, and streams that go idle and are
  evicted while others continue.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.tls_features import TEMPORAL_INTERVALS, extract_tls_table
from repro.sessions.boundary import transaction_sort_key
from repro.stream.engine import StreamConfig, StreamDetector
from repro.stream.replay import check_batch_equivalence, replay
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable
from tests.feature_oracle import extract_tls_features as oracle_features


@st.composite
def sessions(draw):
    """A list of sessions, each a non-empty list of transactions."""
    n_sessions = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    zero_duration = draw(st.sampled_from([0.0, 0.3, 1.0]))
    zero_uplink = draw(st.sampled_from([0.0, 0.3, 1.0]))
    # A coarse start grid makes duplicate start times common.
    grid = draw(st.sampled_from([0.0, 1.0, 30.0]))
    out = []
    for _ in range(n_sessions):
        size = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(100, 400)))
        starts = rng.uniform(0.0, 1500.0, size) + rng.uniform(-1e6, 1e6)
        if grid:
            starts = np.round(starts / grid) * grid
        durations = rng.exponential(40.0, size)
        durations[rng.random(size) < zero_duration] = 0.0
        uplink = rng.integers(0, 5_000, size)
        uplink[rng.random(size) < zero_uplink] = 0
        downlink = rng.integers(0, 10**8, size)
        out.append(
            [
                TlsTransaction(
                    start=float(s),
                    end=float(s + d),
                    uplink_bytes=int(u),
                    downlink_bytes=int(v),
                    sni="edge",
                )
                for s, d, u, v in zip(starts, durations, uplink, downlink)
            ]
        )
    return out


class TestKernelAgainstOracle:
    @given(
        groups=sessions(),
        intervals=st.sampled_from([TEMPORAL_INTERVALS, (5,), (10, 45, 300, 900)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_and_each_session_alone(self, groups, intervals):
        table = TransactionTable.from_sessions(groups)
        X = extract_tls_table(table, intervals)
        expected = np.vstack([oracle_features(g, intervals) for g in groups])
        assert np.array_equal(X, expected)
        for i in range(table.n_sessions):
            assert np.array_equal(extract_tls_table(table.session(i), intervals)[0], X[i])


#: Start-time steps within a stream.  3.0 is the boundary window W of
#: the default config, so a step of exactly W lands on the edge of the
#: succeeding-burst window; every step stays below the idle timeout.
_STEPS = (0.0, 0.5, 1.0, 3.0, 3.0, 6.0, 40.0)
_HOSTS = ("www", "e1", "e2", "e3", "e4", "e5", "e6", "e7")
_IDLE_TIMEOUT_S = 50.0


@st.composite
def feeds(draw):
    """Per-stream transaction lists on one shared timeline."""
    streams = {}
    for k in range(draw(st.integers(1, 5))):
        # Staggered streams: one that ends early goes idle while the
        # others advance event time past its timeout, and is evicted.
        t = draw(st.sampled_from([0.0, 3.0, 100.0, 250.0]))
        rows = []
        for _ in range(draw(st.integers(1, 30))):
            t += draw(st.sampled_from(_STEPS))
            rows.append(
                TlsTransaction(
                    start=t,
                    end=t + draw(st.sampled_from([0.0, 0.5, 2.0, 9.0])),
                    uplink_bytes=draw(st.sampled_from([0, 300, 1_000])),
                    downlink_bytes=draw(st.integers(0, 10**6)),
                    sni=draw(st.sampled_from(_HOSTS)),
                )
            )
        streams[f"user{k}"] = rows
    return streams


class TestStreamAgainstBatch:
    @given(
        streams=feeds(),
        score_batch=st.sampled_from([1, 3, 64]),
        min_transactions=st.sampled_from([1, 3, 5]),
        micro_batch=st.sampled_from([1, 7, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdicts_equal_batch(self, streams, score_batch, min_transactions, micro_batch):
        config = StreamConfig(
            score_batch=score_batch,
            min_transactions=min_transactions,
            idle_timeout_s=_IDLE_TIMEOUT_S,
        )
        events = sorted(
            ((key, t) for key, rows in streams.items() for t in rows),
            key=lambda e: transaction_sort_key(e[1]),
        )
        detector = StreamDetector(config=config)
        verdicts = replay(detector, events, micro_batch=micro_batch)
        check_batch_equivalence(streams, verdicts, config=config)
        assert detector.stats()["scored"] == len(verdicts)
        assert detector.stats()["late_dropped"] == 0
