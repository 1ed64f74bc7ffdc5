"""Tests for Zipf popularity matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.models.popularity import ZipfPopularity


class TestZipfPopularity:
    def test_rows_sum_to_one(self):
        matrix = ZipfPopularity().probabilities(5, 20, seed=0)
        assert matrix.shape == (5, 20)
        assert matrix.sum(axis=1) == pytest.approx(np.ones(5))

    def test_zipf_shape_without_permutation(self):
        matrix = ZipfPopularity(
            exponent=1.0, per_user_permutation=False
        ).probabilities(3, 10, seed=0)
        # All users identical.
        assert (matrix[0] == matrix[1]).all()
        # Sorted descending, the ratios follow r^-1.
        top = np.sort(matrix[0])[::-1]
        assert top[0] / top[1] == pytest.approx(2.0)
        assert top[0] / top[4] == pytest.approx(5.0)

    def test_per_user_permutation_differs(self):
        matrix = ZipfPopularity(per_user_permutation=True).probabilities(
            4, 50, seed=0
        )
        assert not (matrix[0] == matrix[1]).all()
        # Every row is the same multiset of probabilities.
        assert np.sort(matrix[0]) == pytest.approx(np.sort(matrix[1]))

    def test_zero_exponent_is_uniform(self):
        matrix = ZipfPopularity(exponent=0.0).probabilities(2, 8, seed=0)
        assert matrix == pytest.approx(np.full((2, 8), 1 / 8))

    def test_reproducible(self):
        a = ZipfPopularity().probabilities(3, 10, seed=42)
        b = ZipfPopularity().probabilities(3, 10, seed=42)
        assert (a == b).all()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity(exponent=-0.1)

    @pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponent_rejected(self, exponent):
        with pytest.raises(ConfigurationError, match="finite"):
            ZipfPopularity(exponent=exponent)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity().probabilities(0, 5)
        with pytest.raises(ConfigurationError):
            ZipfPopularity().probabilities(5, 0)

    @given(
        exponent=st.floats(0.0, 3.0),
        num_models=st.integers(1, 40),
    )
    def test_rows_always_normalised(self, exponent, num_models):
        matrix = ZipfPopularity(exponent=exponent).probabilities(
            2, num_models, seed=0
        )
        assert matrix.sum(axis=1) == pytest.approx(np.ones(2))
        assert (matrix >= 0).all()


class TestProbabilitiesBatched:
    """The ``rng_scheme="v2"`` batched draw against the per-user one."""

    def test_rows_sum_to_one(self):
        matrix = ZipfPopularity().probabilities_batched(5, 20, seed=0)
        assert matrix.shape == (5, 20)
        assert matrix.sum(axis=1) == pytest.approx(np.ones(5))

    def test_rows_are_permutations_of_base_weights(self):
        """Every row holds exactly the Zipf weights, permuted — the
        batched draw changes the stream layout, not the support."""
        pop = ZipfPopularity(exponent=0.8)
        batched = pop.probabilities_batched(6, 15, seed=3)
        looped = pop.probabilities(6, 15, seed=3)
        for row in range(6):
            assert np.sort(batched[row]) == pytest.approx(np.sort(looped[0]))

    def test_shared_ranking_identical_rows(self):
        matrix = ZipfPopularity(per_user_permutation=False).probabilities_batched(
            4, 10, seed=1
        )
        assert (matrix == matrix[0]).all()

    def test_reproducible(self):
        pop = ZipfPopularity()
        a = pop.probabilities_batched(4, 12, seed=9)
        b = pop.probabilities_batched(4, 12, seed=9)
        assert (a == b).all()

    def test_rows_permuted_independently(self):
        matrix = ZipfPopularity(exponent=1.2).probabilities_batched(20, 30, seed=2)
        assert not (matrix == matrix[0]).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity().probabilities_batched(0, 5)
        with pytest.raises(ConfigurationError):
            ZipfPopularity().probabilities_batched(5, 0)
