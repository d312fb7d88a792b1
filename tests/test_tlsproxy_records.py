"""Tests for repro.tlsproxy.records and repro.tlsproxy.hosts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tlsproxy.hosts import ServiceHostModel
from repro.tlsproxy.records import HttpTransaction, ResourceType, TlsTransaction


def make_tls(start=0.0, end=10.0, up=1000, down=100_000, sni="edge0001.cdn.svc1.example"):
    return TlsTransaction(
        start=start, end=end, uplink_bytes=up, downlink_bytes=down, sni=sni
    )


class TestHttpTransaction:
    def test_duration(self):
        t = HttpTransaction(
            start=1.0,
            end=2.5,
            request_bytes=400,
            response_bytes=1000,
            host="api.svc1.example",
            resource_type=ResourceType.MANIFEST,
        )
        assert t.duration == pytest.approx(1.5)

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            HttpTransaction(
                start=2.0,
                end=1.0,
                request_bytes=1,
                response_bytes=1,
                host="h",
                resource_type=ResourceType.BEACON,
            )

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            HttpTransaction(
                start=0.0,
                end=1.0,
                request_bytes=-1,
                response_bytes=1,
                host="h",
                resource_type=ResourceType.BEACON,
            )


class TestTlsTransaction:
    def test_duration_and_rates(self):
        t = make_tls(start=0.0, end=10.0, up=1000, down=100_000)
        assert t.duration == 10.0
        assert t.data_rate == pytest.approx(10_000.0)
        assert t.d2u_ratio == pytest.approx(100.0)

    def test_zero_duration_data_rate(self):
        t = make_tls(start=5.0, end=5.0, down=42)
        assert t.data_rate == 42.0

    def test_zero_uplink_d2u(self):
        t = make_tls(up=0, down=500)
        assert t.d2u_ratio == 500.0

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            make_tls(start=10.0, end=5.0)

    @pytest.mark.parametrize(
        "start, end",
        [
            (np.nan, 10.0),
            (0.0, np.nan),
            (np.nan, np.nan),
            (0.0, np.inf),
            (-np.inf, 10.0),
            (np.inf, np.inf),
        ],
    )
    def test_rejects_non_finite_times(self, start, end):
        # NaN compares false against everything, so only an explicit
        # finiteness check stops it; inf would open-end the session.
        with pytest.raises(ValueError, match="finite"):
            make_tls(start=start, end=end)

    @pytest.mark.parametrize(
        "up, down",
        [
            (np.nan, 10),
            (1, np.nan),
            (np.inf, 10),
            (1, np.inf),
            (-np.inf, 10),
            (1, -np.inf),
        ],
    )
    def test_rejects_non_finite_bytes(self, up, down):
        # NaN passes the sign check (every comparison with NaN is
        # false) and would reach the features as a non-finite value.
        with pytest.raises(ValueError, match="finite"):
            make_tls(up=up, down=down)

    @pytest.mark.parametrize("up, down", [(1.5, 10), (1, 0.25), (1e-9, 10)])
    def test_rejects_non_integral_bytes(self, up, down):
        with pytest.raises(ValueError, match="whole"):
            make_tls(up=up, down=down)

    def test_whole_valued_float_bytes_accepted(self):
        # Records materialized from a table's float columns.
        t = make_tls(up=100.0, down=2048.0)
        assert (t.uplink_bytes, t.downlink_bytes) == (100.0, 2048.0)

    def test_rejects_empty_sni(self):
        with pytest.raises(ValueError):
            make_tls(sni="")

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            make_tls(up=-1)

    def test_shifted_preserves_everything_but_time(self):
        t = make_tls(start=1.0, end=4.0)
        s = t.shifted(10.0)
        assert s.start == 11.0 and s.end == 14.0
        assert s.uplink_bytes == t.uplink_bytes
        assert s.downlink_bytes == t.downlink_bytes
        assert s.sni == t.sni

    @given(
        start=st.floats(min_value=0, max_value=1e4),
        dur=st.floats(min_value=0, max_value=1e3),
        offset=st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_preserves_duration(self, start, dur, offset):
        t = make_tls(start=start, end=start + dur)
        if t.start + offset < 0:
            offset = -t.start
        assert t.shifted(offset).duration == pytest.approx(t.duration)


class TestServiceHostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceHostModel(service="x", n_edge_nodes=0)
        with pytest.raises(ValueError):
            ServiceHostModel(service="x", n_edge_nodes=5, edges_per_session=6)

    def test_stable_hosts_are_deterministic(self):
        m = ServiceHostModel(service="svc1")
        assert m.api_host == "api.svc1.example"
        assert m.beacon_host == "telemetry.svc1.example"
        assert m.page_host == "www.svc1.example"

    def test_edge_host_range_check(self):
        m = ServiceHostModel(service="svc1", n_edge_nodes=10)
        with pytest.raises(ValueError):
            m.edge_host(10)

    def test_sampled_hosts_use_configured_edges(self):
        m = ServiceHostModel(service="svc2", edges_per_session=3)
        hosts = m.sample_session_hosts(np.random.default_rng(0))
        assert len(hosts.video_edges) == 3
        assert len(set(hosts.video_edges)) == 3

    def test_sessions_usually_differ_in_edges(self):
        """The property the session-boundary heuristic relies on."""
        m = ServiceHostModel(service="svc1", n_edge_nodes=400, edges_per_session=2)
        rng = np.random.default_rng(1)
        a = m.sample_session_hosts(rng)
        b = m.sample_session_hosts(rng)
        assert set(a.video_edges) != set(b.video_edges)

    def test_host_for_each_resource_type(self):
        m = ServiceHostModel(service="svc1")
        hosts = m.sample_session_hosts(np.random.default_rng(0))
        rng = np.random.default_rng(0)
        for rt in ResourceType:
            h = hosts.host_for(rt, rng)
            assert h in hosts.all_hosts

    def test_video_segments_prefer_primary_edge(self):
        m = ServiceHostModel(service="svc1", edges_per_session=2)
        hosts = m.sample_session_hosts(np.random.default_rng(0))
        rng = np.random.default_rng(2)
        picks = [
            hosts.host_for(ResourceType.VIDEO_SEGMENT, rng) for _ in range(200)
        ]
        primary_share = picks.count(hosts.video_edges[0]) / len(picks)
        assert primary_share > 0.7

    def test_audio_host_with_shared_av(self):
        m = ServiceHostModel(service="svc3", separate_audio_host=False)
        hosts = m.sample_session_hosts(np.random.default_rng(0))
        assert hosts.audio_edge == hosts.video_edges[0]
