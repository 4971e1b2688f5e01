"""Parameter validators: domains, coercion, and error naming."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.util.validation import (
    check_epsilon,
    check_ids,
    check_k,
    check_max_rounds,
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

    @pytest.mark.parametrize("whole", [3.0, np.int64(3), np.float64(3.0), np.uint8(3)])
    def test_whole_numbers_are_ints(self, whole):
        got = check_positive_int(whole, name="n")
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive_int(bad, name="n")

    @pytest.mark.parametrize(
        "bad",
        [True, False, np.bool_(True), float("nan"), float("inf"), -float("inf"),
         "3", None, 1e-300, np.float64("nan")],
    )
    def test_refuses_what_is_not_a_count(self, bad):
        """Bools, text, NaN, ±inf and fractions are typed errors, never
        a raw ``ValueError``/``OverflowError`` or a silent 1."""
        with pytest.raises(InvalidParameterError, match="n must be a positive integer"):
            check_positive_int(bad, name="n")

    def test_callers_refuse_nan_and_bool(self):
        from repro.faults import RetryPolicy
        from repro.shard import build_coreset, shard_and_solve

        pts = np.random.default_rng(0).random((40, 2))
        with pytest.raises(InvalidParameterError, match="coreset_size"):
            shard_and_solve(pts, 2, shards=2, coreset_size=float("nan"))
        for bad in (float("nan"), 2.5, True):
            with pytest.raises(InvalidParameterError, match="coreset size"):
                build_coreset(pts, bad)
        for bad in (float("nan"), True):
            with pytest.raises(InvalidParameterError, match="max_attempts"):
                RetryPolicy(max_attempts=bad)


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


class TestCheckMaxRounds:
    @pytest.mark.parametrize("ok", [0, 3, 3.0, np.int64(2)])
    def test_accepts_whole_numbers(self, ok):
        assert check_max_rounds(ok) == int(ok)
        assert type(check_max_rounds(ok)) is int

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "5", 2.5, -1, True, None])
    def test_rejects(self, bad):
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            check_max_rounds(bad)


class TestCheckIds:
    @pytest.mark.parametrize("ok", [[3, 0, 3], [3.0, 0.0, 3.0], np.array([3, 0, 3], dtype=np.uint8)])
    def test_accepts_whole_numbers(self, ok):
        ids = check_ids(ok, 4, name="ids")
        assert ids.dtype == np.intp and ids.tolist() == [3, 0, 3]

    @pytest.mark.parametrize(
        "bad",
        [[0.5], [1.0, float("nan")], [True, False], [[0, 1]], [[0], [1, 2]], [], ["a"], [1j]],
    )
    def test_rejects_non_ids(self, bad):
        with pytest.raises(InvalidParameterError, match="whole-number ids"):
            check_ids(bad, 4, name="ids")

    @pytest.mark.parametrize("bad", [[-1], [4], [float("inf")]])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidParameterError, match=r"ids must lie in \[0, 4\)"):
            check_ids(bad, 4, name="ids")
