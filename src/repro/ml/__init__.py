"""From-scratch machine-learning stack.

The paper trains scikit-learn models (Random Forest, SVM, k-NN,
XGBoost, Multilayer Perceptron) with 5-fold cross validation.
scikit-learn is not available in this environment, so this package
implements the required algorithms on numpy: CART decision trees, a
bagged Random Forest with Gini feature importances, k-nearest
neighbours, gradient-boosted trees (softmax multiclass), a multilayer
perceptron trained with Adam, a linear one-vs-rest SVM, plus the
supporting machinery — standard scaling, stratified k-fold cross
validation, and classification metrics.

All classifiers follow a minimal sklearn-like contract: ``fit(X, y)``,
``predict(X)``, ``predict_proba(X)`` and are safely re-usable across CV
folds via :func:`repro.ml.model_selection.clone`.
"""

from repro.ml.binning import Binner
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import permutation_importance
from repro.ml.knn import KNeighborsClassifier
from repro.ml.metrics import (
    EvalReport,
    accuracy_score,
    confusion_matrix,
    evaluate_predictions,
    precision_score,
    recall_score,
)
from repro.ml.mlp import MLPClassifier
from repro.ml.model_selection import (
    StratifiedKFold,
    clone,
    cross_val_predict,
)
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import LinearSVC
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "Binner",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "GradientBoostingClassifier",
    "MLPClassifier",
    "LinearSVC",
    "StandardScaler",
    "StratifiedKFold",
    "clone",
    "cross_val_predict",
    "accuracy_score",
    "confusion_matrix",
    "precision_score",
    "recall_score",
    "EvalReport",
    "evaluate_predictions",
    "permutation_importance",
]
