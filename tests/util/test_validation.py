"""Parameter validators: domains, coercion, and error naming."""

import pytest

from repro.errors import InvalidParameterError
from repro.util.validation import (
    check_epsilon,
    check_k,
    check_positive_int,
    check_probability,
    round_cap,
)


class TestCheckEpsilon:
    def test_accepts_positive(self):
        assert check_epsilon(0.1) == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, -0.5, -1e-30])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(InvalidParameterError):
            check_epsilon(bad)

    def test_upper_bound_enforced(self):
        with pytest.raises(InvalidParameterError):
            check_epsilon(1.5, upper=1.0)

    def test_upper_bound_inclusive(self):
        assert check_epsilon(1.0, upper=1.0) == 1.0

    def test_error_names_parameter(self):
        with pytest.raises(InvalidParameterError, match="slack"):
            check_epsilon(-1, name="slack")


class TestCheckK:
    def test_accepts_range(self):
        assert check_k(3, 10) == 3
        assert check_k(1, 1) == 1
        assert check_k(10, 10) == 10

    @pytest.mark.parametrize("bad", [0, -1, 11])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidParameterError):
            check_k(bad, 10)

    def test_rejects_fractional(self):
        with pytest.raises(InvalidParameterError):
            check_k(2.5, 10)


class TestCheckPositiveInt:
    def test_accepts(self):
        assert check_positive_int(5, name="n") == 5

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive_int(bad, name="n")


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert check_probability(ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_outside(self, bad):
        with pytest.raises(InvalidParameterError):
            check_probability(bad)


class TestRoundCap:
    def test_ceiling_of_a_finite_bound(self):
        assert round_cap(3.2, 0.1, what="test bound") == 4
        assert round_cap(3.0, 0.1, what="test bound") == 3

    @pytest.mark.parametrize("bound", [float("inf"), float("nan")])
    def test_overflowed_bound_names_epsilon(self, bound):
        with pytest.raises(InvalidParameterError, match="epsilon=5e-324.*test bound"):
            round_cap(bound, 5e-324, what="test bound")
