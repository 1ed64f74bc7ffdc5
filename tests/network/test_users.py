"""Tests for the User type."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.geometry import Point
from repro.network.users import User


def make_user(**kwargs) -> User:
    defaults = dict(
        user_id=0,
        position=Point(0, 0),
        deadlines_s=np.array([0.5, 1.0]),
        inference_latency_s=np.array([0.1, 0.2]),
    )
    defaults.update(kwargs)
    return User(**defaults)


class TestUser:
    def test_construction(self):
        user = make_user()
        assert user.num_models == 2
        assert user.active_probability == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_user(user_id=-1)
        with pytest.raises(ConfigurationError):
            make_user(deadlines_s=np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            make_user(inference_latency_s=np.array([-0.1, 0.2]))
        with pytest.raises(ConfigurationError):
            make_user(inference_latency_s=np.array([0.1]))
        with pytest.raises(ConfigurationError):
            make_user(active_probability=0.0)
        with pytest.raises(ConfigurationError):
            make_user(deadlines_s=np.ones((2, 2)), inference_latency_s=np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["deadlines_s", "inference_latency_s"])
    def test_rejects_non_finite_qos(self, field, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            make_user(**{field: np.array([0.5, bad])})
