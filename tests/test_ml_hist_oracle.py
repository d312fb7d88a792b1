"""Randomized differential tests: production trees vs :mod:`tests.tree_oracle`.

Two contracts, each against an independent reference:

- **Splitter.** On finite pre-binned data (≤256 distinct values per
  column, so binning is lossless) histogram split finding must grow
  exactly the exact splitter's trees: identical classifier node tables
  and importances, identical regressor predictions, bit for bit.  The
  generator covers constant columns, duplicate rows, 1–3 classes and
  the ``max_features`` / ``min_samples_leaf`` / ``max_depth`` grid,
  where tie-breaks go wrong first; query rows carry NaN cells.
  NaN in *training* cells is the one place the two splitters differ
  by design (:class:`TestNanTrainingCells`).
- **Traversal.** The flattened, vectorized prediction paths
  (:class:`~repro.ml.tree.FlatEnsemble` for the ensembles,
  ``_leaf_values_for`` for one tree) must gather the same leaf values
  as the per-row python walk, so forest and boosting probabilities and
  single-tree predictions equal the walk's bit for bit — NaN routing
  right included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.boosting import GradientBoostingClassifier, _softmax
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.tree_oracle import (
    ExactDecisionTreeClassifier,
    ExactDecisionTreeRegressor,
    assert_same_tree,
    leaf_values_reference,
)


def pre_binned_matrix(rng, n, n_features, nan_rate, dup_rate):
    """A matrix every column of which ``Binner`` bins losslessly.

    Columns are constant, low-cardinality or all-distinct continuous
    (≤256 rows); some rows repeat earlier rows and some cells are NaN.
    """
    cols = []
    for _ in range(n_features):
        kind = rng.integers(3)
        if kind == 0:
            col = np.full(n, rng.normal())
        elif kind == 1:
            col = rng.integers(0, rng.integers(2, 9), size=n) * rng.gamma(2.0)
        else:
            col = rng.normal(size=n)
        cols.append(col.astype(np.float64))
    X = np.column_stack(cols)
    dups = np.nonzero(rng.random(n) < dup_rate)[0]
    dups = dups[dups > 0]
    X[dups] = X[rng.integers(0, dups)]
    X[rng.random(X.shape) < nan_rate] = np.nan
    return X


tree_case = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(2, 120),
        "n_features": st.integers(1, 6),
        "n_classes": st.integers(1, 3),
        "dup_rate": st.sampled_from([0.0, 0.3]),
        "max_features": st.one_of(
            st.none(), st.just("sqrt"), st.integers(1, 6)
        ),
        "min_samples_leaf": st.integers(1, 5),
        "max_depth": st.one_of(st.none(), st.integers(1, 6)),
        "tree_seed": st.integers(0, 2**31 - 2),
    }
)


def _case_data(case):
    rng = np.random.default_rng(case["seed"])
    X = pre_binned_matrix(rng, case["n"], case["n_features"], 0.0, case["dup_rate"])
    y = rng.integers(0, case["n_classes"], size=case["n"])
    # Small integer targets: every partial sum is exact in float64, so
    # any prediction mismatch is a different tree, not a rounding order.
    t = rng.integers(-4, 5, size=case["n"]).astype(np.float64)
    Xq = pre_binned_matrix(rng, 40, case["n_features"], 0.2, 0.0)
    Xq[:20] = X[rng.integers(0, case["n"], size=20)]
    Xq[rng.random(Xq.shape) < 0.1] = np.nan
    max_features = case["max_features"]
    if isinstance(max_features, int):
        max_features = min(max_features, case["n_features"])
    params = dict(
        max_features=max_features,
        min_samples_leaf=case["min_samples_leaf"],
        max_depth=case["max_depth"],
        random_state=case["tree_seed"],
    )
    return X, y, t, Xq, params


class TestHistEqualsExactOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=tree_case)
    def test_classifier_node_table_and_importances(self, case):
        X, y, _, _, params = _case_data(case)
        hist = DecisionTreeClassifier(**params).fit(X, y)
        exact = ExactDecisionTreeClassifier(**params).fit(X, y)
        assert_same_tree(hist, exact)

    @settings(max_examples=200, deadline=None)
    @given(case=tree_case)
    def test_regressor_predictions(self, case):
        X, _, t, Xq, params = _case_data(case)
        hist = DecisionTreeRegressor(**params).fit(X, t)
        exact = ExactDecisionTreeRegressor(**params).fit(X, t)
        assert np.array_equal(hist.predict(Xq), exact.predict(Xq))
        assert np.array_equal(hist.predict(X), exact.predict(X))


class TestNanTrainingCells:
    """NaN cells in training data: hist and the exact oracle differ.

    Both send NaN right at every split.  The exact splitter sorts NaN
    last and ``x < NaN`` is False, so it can never separate a node's
    NaN rows from its largest finite value.  Hist puts NaN in the top
    bin, which it shares only with the column's corpus-wide maximum, so
    at a node that lacks that maximum it *can* split finite rows left
    and NaN rows right — a split prediction routes the same way.
    """

    # Column 0 sends the corpus maximum of column 1 (5.0) away at the
    # root; the left child then holds column-1 values {0, 1, NaN, NaN}.
    X = np.array(
        [[0, 0.0], [0, 1.0], [0, np.nan], [0, np.nan], [1, 5.0], [1, 5.0]]
    )
    y = np.array([0, 0, 1, 1, 0, 0])

    def test_hist_separates_nan_rows_from_finite_ones(self):
        hist = DecisionTreeClassifier().fit(self.X, self.y)
        assert np.array_equal(hist.predict(self.X), self.y)
        assert np.array_equal(
            _walk(hist, self.X).argmax(axis=1), self.y
        )

    def test_exact_oracle_cannot(self):
        exact = ExactDecisionTreeClassifier().fit(self.X, self.y)
        # {1.0, NaN, NaN} stays one impure leaf.
        assert not np.array_equal(exact.predict(self.X), self.y)


@pytest.fixture(scope="module")
def nan_data():
    """Training and query rows with NaN cells in every column."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 0.5).astype(int)
    X[rng.random(X.shape) < 0.1] = np.nan
    Xq = rng.normal(scale=2.0, size=(200, 5))
    Xq[rng.random(Xq.shape) < 0.25] = np.nan
    Xq[:10] = np.nan  # all-NaN rows route right at every node
    return X, y, Xq


def _walk(tree, X):
    return leaf_values_reference(tree, X)


class TestFlatPredictionEqualsWalk:
    def test_nan_rows_route_right(self, nan_data):
        X, y, Xq = nan_data
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        j = 0
        while tree.feature_[j] >= 0:
            j = tree.right_[j]
        rightmost = np.broadcast_to(tree.value_[j], (10, tree.value_.shape[1]))
        assert np.array_equal(_walk(tree, Xq[:10]), rightmost)
        assert np.array_equal(tree.predict_proba(Xq[:10]), rightmost)

    def test_single_tree_classifier_and_regressor(self, nan_data):
        X, y, Xq = nan_data
        clf = DecisionTreeClassifier(max_features="sqrt", random_state=1).fit(X, y)
        assert np.array_equal(clf.predict_proba(Xq), _walk(clf, Xq))
        reg = DecisionTreeRegressor(max_depth=5, random_state=1).fit(
            X, y.astype(np.float64) * 0.3
        )
        assert np.array_equal(reg.predict(Xq), _walk(reg, Xq)[:, 0])

    def test_forest_predict_proba(self, nan_data):
        X, y, Xq = nan_data
        forest = RandomForestClassifier(
            n_estimators=15, max_samples=0.4, random_state=2, n_jobs=1
        ).fit(X, y)
        # Small bootstraps leave some trees without every class, so
        # alignment to the forest's class order is exercised too.
        ref = np.zeros((Xq.shape[0], forest.classes_.shape[0]))
        for tree in forest.trees_:
            ref += forest._align(tree, _walk(tree, Xq))
        ref /= len(forest.trees_)
        assert np.array_equal(forest.predict_proba(Xq), ref)

    def test_boosting_predict_proba(self, nan_data):
        X, y, Xq = nan_data
        model = GradientBoostingClassifier(
            n_estimators=6, max_depth=3, subsample=0.7, random_state=3
        ).fit(X, y)
        scores = np.tile(model._base_scores, (Xq.shape[0], 1))
        for round_trees in model.trees_:
            for c, tree in enumerate(round_trees):
                scores[:, c] += model.learning_rate * _walk(tree, Xq)[:, 0]
        assert np.array_equal(model.predict_proba(Xq), _softmax(scores))
