"""Tests for expertise profiles and numerical guards."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.expertise import (
    DEFAULT_EXPERTISE,
    MAX_EXPERTISE,
    MIN_EXPERTISE,
    ExpertiseMatrix,
    clamp_expertise,
    expertise_from_sums,
)


class TestClamp:
    def test_clamps_range(self):
        values = clamp_expertise([-(1.0), 0.0, 1.0, 100.0])
        assert values[0] == MIN_EXPERTISE
        assert values[1] == MIN_EXPERTISE
        assert values[2] == 1.0
        assert values[3] == MAX_EXPERTISE

    def test_nan_becomes_default(self):
        assert clamp_expertise([np.nan])[0] == DEFAULT_EXPERTISE


class TestFromSums:
    def test_zero_sums_give_default(self):
        assert expertise_from_sums([0.0], [0.0])[0] == DEFAULT_EXPERTISE

    def test_accurate_history_raises_expertise(self):
        # 10 observations with tiny normalised error.
        value = expertise_from_sums([10.0], [0.1])[0]
        assert value > 2.0

    def test_noisy_history_lowers_expertise(self):
        value = expertise_from_sums([10.0], [100.0])[0]
        assert value < 0.5

    def test_prior_bounds_low_data_estimates(self):
        # One perfect observation cannot produce extreme expertise.
        value = expertise_from_sums([1.0], [0.0])[0]
        assert value <= np.sqrt(5.0) + 1e-9

    def test_scalar_sums_give_a_scalar(self):
        assert expertise_from_sums(0.0, 0.0) == DEFAULT_EXPERTISE
        assert expertise_from_sums(1.0, 2.0) == np.sqrt(1.25 / 2.25)

    def test_negative_sums_rejected(self):
        with pytest.raises(ValueError):
            expertise_from_sums([-1.0], [0.0])

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e4),
    )
    def test_always_in_legal_range(self, numerator, denominator):
        value = expertise_from_sums([numerator], [denominator])[0]
        assert MIN_EXPERTISE <= value <= MAX_EXPERTISE


class TestExpertiseMatrix:
    def test_add_and_read_domains(self):
        matrix = ExpertiseMatrix(np.full((3, 2), DEFAULT_EXPERTISE), domain_ids=[20, 10])
        assert matrix.domain_ids == [10, 20]
        assert matrix.n_users == 3 and matrix.n_domains == 2
        assert matrix.has_domain(20) and not matrix.has_domain(999)
        assert matrix.expertise(0, 10) == DEFAULT_EXPERTISE
        assert matrix.expertise(0, 999) == DEFAULT_EXPERTISE  # unknown domain

    def test_set_and_get_column(self):
        matrix = ExpertiseMatrix(np.array([[0.5], [1.5], [2.5]]), domain_ids=[1])
        assert matrix.expertise(2, 1) == 2.5
        column = matrix.column(1)
        assert column.tolist() == [0.5, 1.5, 2.5]
        with pytest.raises(ValueError):
            column[0] = 9.0  # read-only view
        with pytest.raises(KeyError):
            matrix.column(9)

    def test_set_column_clamps(self):
        matrix = ExpertiseMatrix(np.array([[-5.0], [50.0]]), domain_ids=[0])
        assert matrix.expertise(0, 0) == MIN_EXPERTISE
        assert matrix.expertise(1, 0) == MAX_EXPERTISE

    def test_duplicate_domain_rejected(self):
        with pytest.raises(ValueError):
            ExpertiseMatrix(np.ones((2, 2)), domain_ids=[0, 0])

    def test_profile(self):
        matrix = ExpertiseMatrix(np.array([[2.0, 1.0], [2.5, 1.0]]), domain_ids=[4, 3])
        assert matrix.profile(1) == {3: DEFAULT_EXPERTISE, 4: 2.5}
        assert list(matrix.profile(1)) == [3, 4]

    def test_from_array(self):
        values = np.array([[1.0, 2.0], [3.0, 0.5]])
        matrix = ExpertiseMatrix(values, domain_ids=[7, 8])
        assert matrix.expertise(1, 7) == 3.0
        values[1, 0] = 4.0  # the snapshot keeps its own copy
        assert matrix.expertise(1, 7) == 3.0
        with pytest.raises(ValueError):
            ExpertiseMatrix(values, domain_ids=[7])
        with pytest.raises(ValueError):
            ExpertiseMatrix(np.ones(2), domain_ids=[7, 8])

    def test_n_users_validation(self):
        with pytest.raises(ValueError):
            ExpertiseMatrix(np.zeros((0, 1)), domain_ids=[0])
