"""Parameter normalization and job-table lifecycle (incl. coalescing)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.serve.jobs import JobTable, normalize_params

#: Every scalar a JSON body can carry.
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)


class TestNormalizeParams:
    def test_defaults_filled(self):
        p = normalize_params({"k": 3})
        assert p["k"] == 3
        assert p["solver"] == "kmedian"
        assert p["shards"] == 2
        assert p["seed"] == 0

    def test_k_required(self):
        with pytest.raises(InvalidParameterError, match="requires 'k'"):
            normalize_params({})

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="sharrds"):
            normalize_params({"k": 3, "sharrds": 2})

    def test_unknown_solver_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown solver"):
            normalize_params({"k": 3, "solver": "kmode"})

    @pytest.mark.parametrize("field", ["k", "shards", "neighbors"])
    def test_positive_int_fields(self, field):
        with pytest.raises(InvalidParameterError):
            normalize_params({"k": 3, field: 0})

    def test_malformed_value(self):
        with pytest.raises(InvalidParameterError, match="malformed"):
            normalize_params({"k": "three"})

    def test_server_defaults_override(self):
        p = normalize_params({"k": 3}, defaults={"shards": 7})
        assert p["shards"] == 7

    @pytest.mark.parametrize(
        "field,value",
        [("k", 2.5), ("k", True), ("seed", 1.7), ("shards", 2.9),
         ("neighbors", False), ("coreset_size", 64.5), ("seed", "1"),
         ("k", float("inf"))],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"malformed solve parameter '{field}'"):
            normalize_params({"k": 3, field: value})

    @pytest.mark.parametrize("field", ["epsilon", "fallback_slack"])
    @pytest.mark.parametrize(
        "value", [True, float("nan"), float("inf"), "0.5", 10**400],
        ids=["bool", "nan", "inf", "text", "beyond-float"],
    )
    def test_reals_must_be_finite_numbers(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"malformed solve parameter '{field}'"):
            normalize_params({"k": 3, field: value})

    @pytest.mark.parametrize(
        "body",
        [{"k": 3, "epsilon": -1}, {"k": 3, "epsilon": 0}, {"k": 3, "epsilon": 1.0},
         {"k": 3, "solver": "kmeans", "epsilon": 1.5}, {"k": 3, "coreset_size": 0},
         {"k": 3, "fallback_slack": -0.5}, {"k": 3, "seed": -1}],
        ids=["eps-neg", "eps-zero", "eps-one", "kmeans-eps", "coreset-zero",
             "slack-neg", "seed-neg"],
    )
    def test_solver_checks_run_at_submit(self, body):
        with pytest.raises(InvalidParameterError):
            normalize_params(body)

    def test_epsilon_bound_follows_the_solver(self):
        # the Lagrangian k-median accepts any epsilon > 0; k-center takes none
        lagrangian = normalize_params({"k": 3, "solver": "kmedian_lagrangian", "epsilon": 2})
        assert lagrangian["epsilon"] == 2.0
        kcenter = normalize_params({"k": 3, "solver": "kcenter", "epsilon": 0})
        assert kcenter["epsilon"] == 0.0

    def test_lagrangian_epsilon_refused_when_its_schedule_is_too_long(self):
        """The Lagrangian runs the §5 primal–dual per probe; an ε whose
        threshold schedule the solve would refuse is a 400 at submit."""
        body = {"k": 5, "solver": "kmedian_lagrangian", "epsilon": 1e-9}
        with pytest.raises(InvalidParameterError, match="epsilon"):
            normalize_params(body, n=400)
        assert normalize_params({**body, "epsilon": 1e-3}, n=400)["epsilon"] == 1e-3
        # local search runs no primal–dual
        assert normalize_params({**body, "solver": "kmedian"}, n=400)["epsilon"] == 1e-9

    def test_k_checked_against_n(self):
        assert normalize_params({"k": 60}, n=60)["k"] == 60
        with pytest.raises(InvalidParameterError, match=r"k must be in \[1, 60\]"):
            normalize_params({"k": 61}, n=60)

    def test_json_roundtrip_canonical(self):
        # The normalized dict is the cache identity; equivalent requests
        # must normalize identically.
        assert normalize_params({"k": 3, "epsilon": 0.5}) == normalize_params(
            {"k": 3.0}
        )


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(["k", "shards", "coreset_size", "neighbors", "seed"]),
    value=_JSON_SCALARS,
)
def test_integer_fields_normalize_exactly_or_raise(field, value):
    """A count or seed is taken as the very integer sent, or refused —
    never truncated, rounded or coerced from a bool or text."""
    try:
        params = normalize_params({"k": 3, field: value})
    except InvalidParameterError:
        return
    if field == "coreset_size" and value is None:
        assert params[field] is None
        return
    assert not isinstance(value, (bool, str)) and value is not None
    assert type(params[field]) is int and params[field] == value


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["epsilon", "fallback_slack"]), value=_JSON_SCALARS)
def test_real_fields_normalize_exactly_or_raise(field, value):
    try:
        params = normalize_params({"k": 3, field: value})
    except InvalidParameterError:
        return
    assert not isinstance(value, (bool, str)) and value is not None
    assert type(params[field]) is float and math.isfinite(params[field])
    assert params[field] == float(value)


class TestJobTable:
    def test_create_and_finish(self):
        table = JobTable()
        job, fresh = table.create("inst", {"k": 3})
        assert fresh and job.status == "queued"
        table.finish(job, result={"cost": 1.0})
        assert table.get(job.job_id).status == "done"
        assert table.counts() == {"total": 1, "done": 1}

    def test_identical_inflight_coalesces(self):
        table = JobTable()
        j1, fresh1 = table.create("inst", {"k": 3})
        j2, fresh2 = table.create("inst", {"k": 3})
        assert fresh1 and not fresh2
        assert j1.job_id == j2.job_id

    def test_different_params_do_not_coalesce(self):
        table = JobTable()
        j1, _ = table.create("inst", {"k": 3})
        j2, fresh = table.create("inst", {"k": 4})
        assert fresh and j1.job_id != j2.job_id

    def test_finished_job_frees_the_key(self):
        table = JobTable()
        j1, _ = table.create("inst", {"k": 3})
        table.finish(j1, result={})
        j2, fresh = table.create("inst", {"k": 3})
        assert fresh and j2.job_id != j1.job_id

    def test_failed_job_reports_error(self):
        table = JobTable()
        job, _ = table.create("inst", {"k": 3})
        table.finish(job, error="boom")
        view = table.get(job.job_id).to_json()
        assert view["status"] == "failed"
        assert view["error"] == "boom"
        assert "wall_s" in view

    def test_fail_queued_sweeps_only_queued(self):
        table = JobTable()
        queued, _ = table.create("inst", {"k": 3})
        done, _ = table.create("inst", {"k": 4})
        table.finish(done, result={})
        assert table.fail_queued("stopping") == 1
        assert table.get(queued.job_id).status == "failed"
        assert table.get(done.job_id).status == "done"

    def test_add_completed_marks_cached(self):
        table = JobTable()
        job = table.add_completed("inst", {"k": 3}, {"cost": 2.0})
        assert job.status == "done" and job.cached
        assert table.get(job.job_id).result == {"cost": 2.0}
