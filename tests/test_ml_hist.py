"""Hist-vs-exact-oracle golden-equivalence suite.

The contract (DESIGN.md §5h): on finite *pre-binned* data — every
column has few enough distinct values that :class:`~repro.ml.binning.Binner` is
lossless — histogram split finding scores exactly the same candidate
boundaries as the exact splitter kept in :mod:`tests.tree_oracle`,
with the same float expressions, so production and oracle must agree
**bitwise**: identical node tables for classifier trees, identical
predictions/importances for forests, boosting, and regressors.  On
continuous data the two may differ (hist quantizes to ≤256 bins);
there the contract is a bounded accuracy delta on the paper's
fig5/table3 corpus, plus bit-identity of hist results across worker
counts and row permutations.
"""

import numpy as np
import pytest

from repro.collection.harness import collect_corpus
from repro.experiments.common import features_for
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_val_predict
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.tree_oracle import (
    ExactDecisionTreeClassifier,
    ExactDecisionTreeRegressor,
    ExactGradientBoostingClassifier,
    ExactRandomForestClassifier,
    assert_same_tree,
)


def binned_data(seed=0, n=600, n_features=6, n_values=12, k=3):
    """Data where every column has ``n_values`` distinct values, so
    binning is lossless and exact/hist see identical candidate splits."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_values, size=(n, n_features)).astype(np.float64)
    X *= rng.gamma(2.0, size=n_features)  # distinct per-column scales
    y = (X[:, 0] + X[:, 1] > np.median(X[:, 0] + X[:, 1])).astype(int)
    y += (X[:, 2] > np.median(X[:, 2])).astype(int) * (k > 2)
    noisy = rng.random(n) < 0.1
    y[noisy] = rng.integers(0, k, size=int(noisy.sum()))
    return X, y


class TestPreBinnedIdentity:
    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    def test_classifier_tree_identical_node_table(self, max_features):
        X, y = binned_data(seed=1)
        kw = dict(max_features=max_features, random_state=7)
        exact = ExactDecisionTreeClassifier(**kw).fit(X, y)
        hist = DecisionTreeClassifier(**kw).fit(X, y)
        assert_same_tree(exact, hist)

    @pytest.mark.parametrize("max_depth", [4, None])
    def test_regressor_identical_predictions(self, max_depth):
        X, _ = binned_data(seed=2)
        rng = np.random.default_rng(3)
        t = rng.integers(0, 9, size=X.shape[0]).astype(np.float64)
        exact = ExactDecisionTreeRegressor(max_depth=max_depth, random_state=0).fit(X, t)
        hist = DecisionTreeRegressor(max_depth=max_depth, random_state=0).fit(X, t)
        Xq = binned_data(seed=4)[0]
        assert np.array_equal(exact.predict(Xq), hist.predict(Xq))

    def test_forest_identical_proba_and_importances(self):
        X, y = binned_data(seed=5)
        kw = dict(n_estimators=12, random_state=11, n_jobs=1)
        exact = ExactRandomForestClassifier(**kw).fit(X, y)
        hist = RandomForestClassifier(**kw).fit(X, y)
        Xq = binned_data(seed=6)[0]
        assert np.array_equal(exact.predict_proba(Xq), hist.predict_proba(Xq))
        assert np.array_equal(
            exact.feature_importances_, hist.feature_importances_
        )

    def test_boosting_identical_proba(self):
        X, y = binned_data(seed=7)
        kw = dict(n_estimators=8, max_depth=3, random_state=13)
        exact = ExactGradientBoostingClassifier(**kw).fit(X, y)
        hist = GradientBoostingClassifier(**kw).fit(X, y)
        Xq = binned_data(seed=8)[0]
        assert np.array_equal(exact.predict_proba(Xq), hist.predict_proba(Xq))


class TestHistDeterminism:
    def test_forest_worker_count_invariance(self):
        X, y = binned_data(seed=9, n_values=40)
        Xq = binned_data(seed=10, n_values=40)[0]
        results = []
        for n_jobs in (1, 4):
            f = RandomForestClassifier(
                n_estimators=8, random_state=3, n_jobs=n_jobs
            ).fit(X, y)
            results.append((f.predict_proba(Xq), f.feature_importances_))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_boosting_worker_count_invariance(self):
        X, y = binned_data(seed=11, n_values=40)
        Xq = binned_data(seed=12, n_values=40)[0]
        results = []
        for n_jobs in (1, 4):
            g = GradientBoostingClassifier(
                n_estimators=4, random_state=3, n_jobs=n_jobs
            ).fit(X, y)
            results.append(g.predict_proba(Xq))
        assert np.array_equal(results[0], results[1])

    def test_classifier_tree_row_permutation_invariance(self):
        # Classifier histograms are integer counts, so the node table
        # cannot depend on row order (no rng is consumed with
        # max_features=None).
        rng = np.random.default_rng(13)
        X = rng.normal(size=(500, 5))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        a = DecisionTreeClassifier().fit(X, y)
        perm = rng.permutation(X.shape[0])
        b = DecisionTreeClassifier().fit(X[perm], y[perm])
        assert_same_tree(a, b)

    def test_exact_tree_row_permutation_invariance(self):
        # The oracle side of the identity tests must not depend on row
        # order either, or a pre-binned mismatch could be an artifact.
        rng = np.random.default_rng(14)
        X = rng.normal(size=(400, 5))
        y = (X[:, 0] - X[:, 2] > 0).astype(int)
        a = ExactDecisionTreeClassifier().fit(X, y)
        perm = rng.permutation(X.shape[0])
        b = ExactDecisionTreeClassifier().fit(X[perm], y[perm])
        assert_same_tree(a, b)


class TestCorpusAccuracyDelta:
    """Hist may differ from the exact oracle on continuous features
    (≤256 bins); on the paper's table3/fig5-style corpus the CV
    accuracy delta must stay within the documented ±0.05 envelope."""

    @pytest.fixture(scope="class")
    def corpus_Xy(self):
        ds = collect_corpus("svc1", 120, seed=77)
        X = features_for(ds)[0]
        y = ds.labels("combined")
        return X, y

    def test_cv_accuracy_delta_bounded(self, corpus_Xy):
        X, y = corpus_Xy
        accs = {}
        for method, cls in (
            ("exact", ExactRandomForestClassifier),
            ("hist", RandomForestClassifier),
        ):
            forest = cls(
                n_estimators=30,
                min_samples_leaf=2,
                random_state=0,
                n_jobs=1,
            )
            pred = cross_val_predict(forest, X, y, n_splits=5, random_state=0)
            accs[method] = float(np.mean(pred == y))
        majority = np.bincount(y).max() / y.shape[0]
        assert accs["hist"] > majority, accs
        assert abs(accs["exact"] - accs["hist"]) <= 0.05, accs
