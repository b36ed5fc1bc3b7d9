"""From-scratch ML substrate (scikit-learn replacement).

Exactly the estimators the reproduced workloads train — LR / RF / GBT and
grid / random search (Kaggle, Table 1), scaler → selector → model pipelines
(OpenML) — and nothing kept "for completeness":
``tests/ml/test_substrate.py`` fails on any definition no workload, example
or benchmark reaches.  Every estimator follows the fit/predict/transform
protocol of :mod:`repro.ml.base`; estimators flagged ``supports_warm_start``
can resume training from a prior model, which is what the optimizer's
warmstarting exploits.
"""

from .base import BaseEstimator, ClassifierMixin, TransformerMixin, clone
from .ensemble import GradientBoostingClassifier, RandomForestClassifier
from .feature_selection import SelectKBest, f_classif
from .linear import LogisticRegression
from .metrics import accuracy_score, roc_auc_score
from .model_selection import GridSearchCV, KFold, RandomizedSearchCV, cross_val_score
from .naive_bayes import GaussianNB
from .neighbors import KNeighborsClassifier
from .preprocessing import MinMaxScaler, StandardScaler
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "TransformerMixin",
    "clone",
    "GradientBoostingClassifier",
    "RandomForestClassifier",
    "SelectKBest",
    "f_classif",
    "LogisticRegression",
    "accuracy_score",
    "roc_auc_score",
    "GridSearchCV",
    "RandomizedSearchCV",
    "KFold",
    "cross_val_score",
    "GaussianNB",
    "KNeighborsClassifier",
    "StandardScaler",
    "MinMaxScaler",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
]
