"""Estimator parameter introspection: names read once per class."""

import pytest

from repro.ml.base import BaseEstimator


class _Parent(BaseEstimator):
    def __init__(self, alpha=1.0, beta=2, *args, **kwargs):
        self.alpha = alpha
        self.beta = beta


class _Child(_Parent):
    def __init__(self, gamma="g", alpha=3.0):
        super().__init__(alpha=alpha)
        self.gamma = gamma


class _Inheriting(_Parent):
    pass


class TestParamNames:
    def test_each_class_has_its_own_names_in_signature_order(self):
        # the parent is asked first, so a subclass that read an inherited
        # memo would answer with the parent's names
        assert _Parent._param_names() == ("alpha", "beta")
        assert _Child._param_names() == ("gamma", "alpha")
        assert _Inheriting._param_names() == ("alpha", "beta")
        assert _Parent._param_names() == ("alpha", "beta")
        for cls in (_Parent, _Child, _Inheriting):
            assert "_param_names_memo" in cls.__dict__

    def test_params_round_trip_through_the_memo(self):
        child = _Child(gamma="x")
        assert child.get_params() == {"gamma": "x", "alpha": 3.0}
        assert repr(child) == "_Child(alpha=3.0, gamma='x')"
        child.set_params(alpha=5.0)
        assert child.alpha == 5.0
        with pytest.raises(ValueError, match="no parameter 'beta'"):
            child.set_params(beta=1)
