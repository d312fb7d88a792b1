"""Golden equivalence tests: the feature kernel vs the scalar oracle.

The data plane's core contract is ``np.array_equal`` — not approximate
closeness — between the columnar kernel (segment reductions over one
:class:`TransactionTable`, reached through :func:`extract_tls_matrix`,
:func:`extract_tls_features` and the flow extractors) and the scalar
per-session oracle in :mod:`tests.feature_oracle`, across services,
interval grids, whole corpora and sessions alone, and the flow
pipeline; and, by consequence, unchanged fig5 / table3 numbers.
"""

import numpy as np
import pytest

from repro.collection.harness import collect_corpus
from repro.experiments import fig5, table3
from repro.experiments.common import default_forest
from repro.features.tls_features import (
    TEMPORAL_INTERVALS,
    extract_tls_features,
    extract_tls_matrix,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_val_predict, cross_validate
from repro.netflow.exporter import export_flows
from repro.netflow.features import extract_flow_features, extract_flow_matrix
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable
from tests import feature_oracle


def reference_matrix(dataset, intervals=TEMPORAL_INTERVALS):
    """The oracle's loop path: one scalar reference vector per session."""
    return np.vstack(
        [
            feature_oracle.extract_tls_features(s.tls_transactions, intervals)
            for s in dataset
        ]
    )


@pytest.fixture(scope="module", params=["svc1", "svc2", "svc3"])
def corpus(request):
    seeds = {"svc1": 31, "svc2": 32, "svc3": 33}
    return collect_corpus(request.param, 12, seed=seeds[request.param])


class TestTlsGoldenEquivalence:
    def test_bit_identical_default_grid(self, corpus):
        X_fast, names = extract_tls_matrix(corpus)
        assert np.array_equal(X_fast, reference_matrix(corpus))
        assert X_fast.shape == (len(corpus), len(names))

    def test_bit_identical_nondefault_grid(self, corpus):
        intervals = (10, 45, 300, 900)
        X_fast, names = extract_tls_matrix(corpus, intervals)
        assert np.array_equal(X_fast, reference_matrix(corpus, intervals))
        assert len(names) == 4 + 18 + 2 * len(intervals)

    def test_each_session_alone_matches_oracle(self, corpus):
        """A one-session call gives the session the row it gets in the
        whole-corpus table."""
        table = corpus.tls_table()
        X_fast, _ = extract_tls_matrix(table)
        for i, session in enumerate(corpus):
            alone, _ = extract_tls_matrix(table.session(i))
            assert np.array_equal(alone[0], X_fast[i])
            assert np.array_equal(
                extract_tls_features(session.tls_transactions), X_fast[i]
            )

    def test_table_input_equivalent(self, corpus):
        X_from_dataset, _ = extract_tls_matrix(corpus)
        X_from_table, _ = extract_tls_matrix(corpus.tls_table())
        assert np.array_equal(X_from_dataset, X_from_table)

    def test_single_transaction_sessions(self):
        """IAT is empty for 1-txn sessions; stats must be exact zeros."""
        sessions = [
            [TlsTransaction(start=1.0, end=5.0, uplink_bytes=10,
                            downlink_bytes=100, sni="a")],
            [TlsTransaction(start=0.0, end=2.0, uplink_bytes=7,
                            downlink_bytes=90, sni="b"),
             TlsTransaction(start=4.0, end=9.0, uplink_bytes=3,
                            downlink_bytes=50, sni="b")],
        ]
        table = TransactionTable.from_sessions(sessions)
        X_fast, _ = extract_tls_matrix(table)
        X_ref = np.vstack([feature_oracle.extract_tls_features(s) for s in sessions])
        assert np.array_equal(X_fast, X_ref)

    def test_empty_session_rejected(self):
        table = TransactionTable.from_sessions(
            [[TlsTransaction(start=0.0, end=1.0, uplink_bytes=1,
                             downlink_bytes=1, sni="a")], []]
        )
        with pytest.raises(ValueError):
            extract_tls_matrix(table)


class TestFlowGoldenEquivalence:
    def test_bit_identical(self, corpus):
        X_fast, names = extract_flow_matrix(corpus)
        flows = [export_flows(r) for r in corpus]
        X_ref = np.vstack([feature_oracle.extract_flow_features(f) for f in flows])
        X_alone = np.vstack([extract_flow_features(f) for f in flows])
        assert np.array_equal(X_fast, X_ref)
        assert np.array_equal(X_alone, X_ref)
        assert X_fast.shape == (len(corpus), len(names))


class TestExperimentNumbersUnchanged:
    """fig5/table3 are invariant to which path produced the features."""

    @pytest.fixture(scope="class")
    def svc1(self):
        return collect_corpus("svc1", 60, seed=41)

    def test_fig5_predictions_match_reference_features(self, svc1):
        result = fig5.run_service(svc1, targets=("combined",), n_estimators=10)
        X_ref = reference_matrix(svc1)
        y = svc1.labels("combined")
        model = default_forest()
        model.n_estimators = 10
        y_pred = cross_val_predict(model, X_ref, y, n_splits=5)
        assert np.array_equal(result["combined"]["y_pred"], y_pred)

    def test_table3_ablation_matches_reference_features(self, svc1):
        X_fast, _ = extract_tls_matrix(svc1)
        X_ref = reference_matrix(svc1)
        y = svc1.labels("combined")
        cols = table3._columns_for(("session_level", "transaction_stats"))
        model = RandomForestClassifier(n_estimators=10, random_state=0)
        fast = cross_validate(model, X_fast[:, cols], y, n_splits=3)
        ref = cross_validate(model, X_ref[:, cols], y, n_splits=3)
        assert fast.accuracy == ref.accuracy
        assert np.array_equal(fast.confusion, ref.confusion)
