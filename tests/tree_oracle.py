"""Exact-splitter reference for the tree ensembles.

The library grows every tree with histogram split finding
(:mod:`repro.ml.tree`).  This module is the independent oracle hist is
held to: the former exact splitter, kept verbatim — at each node every
candidate feature is sorted once and every threshold between adjacent
distinct values is scored in one cumulative-sum pass — plus the exact
branches of the forest and boosting ``fit`` methods and the per-row
python walk that predicts from a node table.

On finite *pre-binned* data (every column has at most 256 distinct
values, so :class:`~repro.ml.binning.Binner` is lossless) hist scores
exactly the same candidate boundaries with the same float expressions
and the same first-minimum tie-break, so production and oracle must
agree bit for bit: node tables, importances, predictions.  On
continuous data hist quantizes candidate thresholds and the two may
differ; with NaN training cells hist can also split a node's NaN rows
from its finite ones, which the exact splitter never does (DESIGN.md
§5h).

The oracle estimators subclass the production ones and override only
how trees are grown, so candidate-feature draws, bootstrap draws,
leaf values, node tables and prediction are shared code.
"""

from __future__ import annotations

import numpy as np

from repro.ml.boosting import GradientBoostingClassifier, _softmax
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.validation import as_2d_float, check_n_features
from repro.parallel import parallel_map, resolve_jobs

__all__ = [
    "ExactDecisionTreeClassifier",
    "ExactDecisionTreeRegressor",
    "ExactGradientBoostingClassifier",
    "ExactRandomForestClassifier",
    "assert_same_tree",
    "leaf_values_reference",
]


class _ExactTree:
    """Exact split search and recursive build, mixed into the
    production tree classes ahead of their hist ``fit`` path."""

    def _split_impurities(
        self, y_sorted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Impurity of the left/right children for every split point.

        Split point ``i`` puts ``y_sorted[: i + 1]`` left; arrays have
        length ``n - 1``.
        """
        raise NotImplementedError

    # -- exact split search ----------------------------------------------
    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float, np.ndarray] | None:
        """Best (feature, threshold, left-mask) at this node, or None."""
        n = X.shape[0]
        features = self._candidate_features(X.shape[1], rng)
        best = None
        best_score = np.inf
        min_leaf = self.min_samples_leaf
        for f in features:
            order = np.argsort(X[:, f], kind="stable")
            x_sorted = X[order, f]
            y_sorted = y[order]
            # Valid split points: value changes and both children large
            # enough.
            valid = x_sorted[:-1] < x_sorted[1:]
            if min_leaf > 1:
                valid = valid.copy()
                valid[: min_leaf - 1] = False
                valid[len(valid) - (min_leaf - 1):] = False
            if not valid.any():
                continue
            imp_left, imp_right = self._split_impurities(y_sorted)
            n_left = np.arange(1, n)
            n_right = n - n_left
            weighted = (n_left * imp_left + n_right * imp_right) / n
            weighted = np.where(valid, weighted, np.inf)
            idx = int(np.argmin(weighted))
            if weighted[idx] < best_score:
                best_score = weighted[idx]
                # Split at the lower boundary value with <=: the
                # midpoint of two adjacent floats can round up to the
                # higher one, which would leave the right child empty.
                best = (int(f), float(x_sorted[idx]), best_score)

        if best is None:
            return None
        f, threshold, _ = best
        left_mask = X[:, f] <= threshold
        return f, threshold, left_mask

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        importances: np.ndarray,
        n_total: int,
    ) -> int:
        n = X.shape[0]
        impurity = self._node_impurity(y)
        is_leaf = (
            n < self.min_samples_split
            or impurity <= 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        )
        split = None if is_leaf else self._best_split(X, y, rng)
        if split is None:
            return self._append_node(-1, 0.0, self._leaf_value(y))

        f, threshold, left_mask = split
        n_left = int(left_mask.sum())
        n_right = n - n_left
        left_imp = self._node_impurity(y[left_mask])
        right_imp = self._node_impurity(y[~left_mask])
        decrease = impurity - (n_left * left_imp + n_right * right_imp) / n
        importances[f] += decrease * n / n_total

        node_index = self._append_node(f, threshold, self._leaf_value(y))
        left = self._build(X[left_mask], y[left_mask], depth + 1, rng, importances, n_total)
        right = self._build(X[~left_mask], y[~left_mask], depth + 1, rng, importances, n_total)
        self._build_left[node_index] = left
        self._build_right[node_index] = right
        return node_index

    # -- fitting -----------------------------------------------------------
    def _fit_tree(self, X: np.ndarray, y: np.ndarray) -> None:
        X = as_2d_float(X)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        self._grow_exact(X, y)

    def _grow_exact(self, X: np.ndarray, y: np.ndarray) -> None:
        self.n_features_ = X.shape[1]
        self._reset_nodes()
        importances = np.zeros(X.shape[1])
        rng = np.random.default_rng(self.random_state)
        self._build(X, y, depth=0, rng=rng, importances=importances, n_total=X.shape[0])
        self._finalize_nodes()
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances


class ExactDecisionTreeClassifier(_ExactTree, DecisionTreeClassifier):
    """CART classifier grown by the exact (sort-per-node) splitter."""

    def _split_impurities(self, y_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = y_sorted.shape[0]
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y_sorted] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[:-1]
        right_counts = cum[-1] - left_counts
        n_left = np.arange(1, n, dtype=np.float64)[:, None]
        n_right = (n - n_left.ravel())[:, None]
        gini_left = 1.0 - np.sum((left_counts / n_left) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right) ** 2, axis=1)
        return gini_left, gini_right


class ExactDecisionTreeRegressor(_ExactTree, DecisionTreeRegressor):
    """CART regressor grown by the exact (sort-per-node) splitter."""

    def _split_impurities(self, y_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = y_sorted.shape[0]
        cum = np.cumsum(y_sorted)
        cum2 = np.cumsum(y_sorted**2)
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        sum_left = cum[:-1]
        sum_right = cum[-1] - sum_left
        sum2_left = cum2[:-1]
        sum2_right = cum2[-1] - sum2_left
        var_left = sum2_left / n_left - (sum_left / n_left) ** 2
        var_right = sum2_right / n_right - (sum_right / n_right) ** 2
        # Numerical noise can push variances a hair below zero.
        return np.maximum(var_left, 0.0), np.maximum(var_right, 0.0)


def leaf_values_reference(tree, X: np.ndarray) -> np.ndarray:
    """Per-row python walk of one fitted tree's node table — the
    reference the vectorized and stacked traversals are held to.

    ``x <= threshold`` is False for NaN, so NaN routes right.
    """
    if tree.feature_ is None:
        raise RuntimeError("tree is not fitted")
    X = as_2d_float(X)
    check_n_features(tree, X)
    out = np.empty((X.shape[0],) + tree.value_.shape[1:])
    for i in range(X.shape[0]):
        j = 0
        while tree.feature_[j] >= 0:
            if X[i, tree.feature_[j]] <= tree.threshold_[j]:
                j = tree.left_[j]
            else:
                j = tree.right_[j]
        out[i] = tree.value_[j]
    return out


def assert_same_tree(a, b) -> None:
    """Two fitted trees have bit-identical node tables and importances."""
    assert np.array_equal(a.feature_, b.feature_)
    assert np.array_equal(a.threshold_, b.threshold_)
    assert np.array_equal(a.left_, b.left_)
    assert np.array_equal(a.right_, b.right_)
    assert np.array_equal(a.value_, b.value_)
    assert np.array_equal(a.feature_importances_, b.feature_importances_)


def _fit_exact_tree_batch(
    task: tuple[np.ndarray, np.ndarray, dict, list[tuple[np.ndarray, int]]],
) -> list[DecisionTreeClassifier]:
    """Fit a batch of exact trees on the raw matrix (pool worker)."""
    X, y_enc, params, specs = task
    trees = []
    for sample, tree_seed in specs:
        tree = ExactDecisionTreeClassifier(random_state=tree_seed, **params)
        tree.fit(X[sample], y_enc[sample])
        trees.append(tree)
    return trees


class ExactRandomForestClassifier(RandomForestClassifier):
    """Random Forest whose trees grow by the exact splitter on the raw
    matrix: the same bootstrap and seed draws, no binner."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ExactRandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        n = X.shape[0]
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._flat = None
        rng = np.random.default_rng(self.random_state)
        self.binner_ = None

        m = (
            n
            if self.max_samples is None
            else max(1, int(round(self.max_samples * n)))
        )
        specs = [
            (rng.integers(0, n, size=m), int(rng.integers(2**31 - 1)))
            for _ in range(self.n_estimators)
        ]

        jobs = resolve_jobs(self.n_jobs)
        params = self._tree_params()
        if jobs > 1 and self.n_estimators > 1:
            tasks = [
                (X, y_enc, params, specs[lo:hi])
                for lo, hi in self._batches(self.n_estimators, jobs)
            ]
            batches = parallel_map(_fit_exact_tree_batch, tasks, n_jobs=jobs, chunksize=1)
            self.trees_ = [tree for batch in batches for tree in batch]
        else:
            self.trees_ = _fit_exact_tree_batch((X, y_enc, params, specs))

        importances = np.zeros(X.shape[1])
        oob_votes = (
            np.zeros((n, self.classes_.shape[0])) if self.oob_score else None
        )
        oob_counts = np.zeros(n, dtype=np.int64) if self.oob_score else None
        for tree, (sample, _) in zip(self.trees_, specs):
            importances += tree.feature_importances_
            if self.oob_score:
                mask = np.ones(n, dtype=bool)
                mask[sample] = False
                if mask.any():
                    proba = self._tree_proba(tree, X[mask])
                    oob_votes[mask] += proba
                    oob_counts[mask] += 1

        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        if self.oob_score:
            seen = oob_counts > 0
            if seen.any():
                pred = self.classes_[np.argmax(oob_votes[seen], axis=1)]
                self.oob_score_ = float(np.mean(pred == y[seen]))
        return self


class ExactGradientBoostingClassifier(GradientBoostingClassifier):
    """Softmax boosting whose round trees grow by the exact splitter on
    the raw rows: the same subsample and seed draws, no binner."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ExactGradientBoostingClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._flat = None
        n, k = X.shape[0], self.classes_.shape[0]
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y_enc] = 1.0
        priors = np.clip(onehot.mean(axis=0), 1e-9, None)
        self._base_scores = np.log(priors)
        scores = np.tile(self._base_scores, (n, 1))
        rng = np.random.default_rng(self.random_state)
        self.trees_ = []
        self.binner_ = None

        for _ in range(self.n_estimators):
            proba = _softmax(scores)
            residual = onehot - proba
            if self.subsample < 1.0:
                m = max(1, int(round(self.subsample * n)))
                rows = rng.choice(n, size=m, replace=False)
            else:
                rows = np.arange(n)
            seeds = [int(rng.integers(2**31 - 1)) for _ in range(k)]
            round_trees = []
            for c in range(k):
                tree = ExactDecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    random_state=seeds[c],
                ).fit(X[rows], residual[rows, c])
                scores[:, c] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self.trees_.append(round_trees)
        return self
