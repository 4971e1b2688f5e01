"""Instance objects: objectives, assignment, and validation."""

import numpy as np
import pytest

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.metrics.space import MetricSpace


@pytest.fixture
def hand_instance():
    """2 facilities × 3 clients with hand-checkable numbers."""
    D = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 1.0]])
    f = np.array([5.0, 4.0])
    return FacilityLocationInstance(D, f)


class TestFacilityLocationInstance:
    def test_caller_keeps_writing_its_arrays(self):
        """The instance copies a caller's writable ``D`` and ``f`` rather
        than freezing them, and its own copies stay read-only."""
        D = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 1.0]])
        f = np.array([5.0, 4.0])
        inst = FacilityLocationInstance(D, f)
        D[0] = 5.0
        f[0] = 5.0
        assert inst.D[0, 0] == 1.0 and inst.f[0] == 5.0
        assert inst.cost([0]) == pytest.approx(5 + 1 + 2 + 3)
        with pytest.raises(ValueError, match="read-only"):
            inst.D[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            inst.f[0] = 1.0

    def test_read_only_arrays_are_kept(self):
        """A builder that hands over read-only arrays is not copied."""
        D = np.array([[1.0, 2.0], [3.0, 1.0]])
        f = np.array([5.0, 4.0])
        D.setflags(write=False)
        f.setflags(write=False)
        inst = FacilityLocationInstance(D, f)
        assert inst.D is D and inst.f is f

    def test_shapes(self, hand_instance):
        assert hand_instance.n_facilities == 2
        assert hand_instance.n_clients == 3
        assert hand_instance.m == 6

    def test_cost_single_facility(self, hand_instance):
        assert hand_instance.cost([0]) == pytest.approx(5 + 1 + 2 + 3)
        assert hand_instance.cost([1]) == pytest.approx(4 + 3 + 1 + 1)

    def test_cost_both(self, hand_instance):
        assert hand_instance.cost([0, 1]) == pytest.approx(9 + 1 + 1 + 1)

    def test_cost_boolean_mask(self, hand_instance):
        assert hand_instance.cost(np.array([True, False])) == hand_instance.cost([0])

    def test_cost_components_sum(self, hand_instance):
        total = hand_instance.cost([0, 1])
        assert total == pytest.approx(
            hand_instance.facility_cost([0, 1]) + hand_instance.connection_cost([0, 1])
        )

    def test_assignment_closest(self, hand_instance):
        assert hand_instance.assignment([0, 1]).tolist() == [0, 1, 1]

    def test_assignment_restricted(self, hand_instance):
        assert hand_instance.assignment([1]).tolist() == [1, 1, 1]

    def test_connection_distances(self, hand_instance):
        assert hand_instance.connection_distances([0, 1]).tolist() == [1.0, 1.0, 1.0]

    def test_duplicate_indices_deduped(self, hand_instance):
        assert hand_instance.cost([0, 0]) == hand_instance.cost([0])

    def test_empty_open_set_rejected(self, hand_instance):
        with pytest.raises(InvalidParameterError, match="at least one"):
            hand_instance.cost([])

    def test_out_of_range_index_rejected(self, hand_instance):
        with pytest.raises(InvalidParameterError):
            hand_instance.cost([5])

    def test_bad_mask_shape_rejected(self, hand_instance):
        with pytest.raises(InvalidParameterError):
            hand_instance.cost(np.array([True, False, True]))

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidInstanceError):
            FacilityLocationInstance(np.ones((1, 2)), np.array([-1.0]))

    def test_rejects_negative_distance(self):
        with pytest.raises(InvalidInstanceError):
            FacilityLocationInstance(np.array([[-1.0, 1.0]]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            FacilityLocationInstance(np.ones((2, 3)), np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInstanceError):
            FacilityLocationInstance(np.ones((0, 3)), np.ones(0))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInstanceError):
            FacilityLocationInstance(np.array([[np.nan, 1.0]]), np.array([1.0]))

    def test_matrices_readonly(self, hand_instance):
        with pytest.raises(ValueError):
            hand_instance.D[0, 0] = 9.0
        with pytest.raises(ValueError):
            hand_instance.f[0] = 9.0

    def test_from_metric_consistency(self):
        sp = MetricSpace.from_points(np.random.default_rng(0).random((6, 2)))
        inst = FacilityLocationInstance.from_metric(sp, [0, 1], [2, 3, 4, 5], np.ones(2))
        assert inst.D.shape == (2, 4)
        assert inst.D[0, 0] == sp.distance(0, 2)

    def test_metric_mismatch_rejected(self):
        sp = MetricSpace.from_points(np.random.default_rng(0).random((4, 2)))
        with pytest.raises(InvalidInstanceError, match="disagrees"):
            FacilityLocationInstance(
                np.zeros((2, 2)),
                np.ones(2),
                metric=sp,
                facility_ids=np.array([0, 1]),
                client_ids=np.array([2, 3]),
            )

    def test_partial_metric_args_rejected(self):
        sp = MetricSpace.from_points(np.random.default_rng(0).random((4, 2)))
        with pytest.raises(InvalidInstanceError, match="together"):
            FacilityLocationInstance(np.ones((1, 1)), np.ones(1), metric=sp)


@pytest.fixture
def line_clustering():
    """5 points on a line at 0,1,2,3,10 with k=2."""
    pts = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
    return ClusteringInstance(MetricSpace.from_points(pts), 2)


class TestClusteringInstance:
    def test_kmedian_cost(self, line_clustering):
        # centers {1, 4}: distances 1,0,1,2,0
        assert line_clustering.kmedian_cost([1, 4]) == pytest.approx(4.0)

    def test_kmeans_cost(self, line_clustering):
        assert line_clustering.kmeans_cost([1, 4]) == pytest.approx(1 + 0 + 1 + 4 + 0)

    def test_kcenter_cost(self, line_clustering):
        assert line_clustering.kcenter_cost([1, 4]) == pytest.approx(2.0)

    def test_check_budget_enforced(self, line_clustering):
        with pytest.raises(InvalidParameterError, match="k=2"):
            line_clustering.check_budget([0, 1, 2])

    def test_check_budget_ok(self, line_clustering):
        assert line_clustering.check_budget([0, 4]).tolist() == [0, 4]

    def test_k_range_validation(self, line_clustering):
        with pytest.raises(InvalidParameterError):
            ClusteringInstance(line_clustering.space, 0)
        with pytest.raises(InvalidParameterError):
            ClusteringInstance(line_clustering.space, 6)

    def test_requires_metric_space(self):
        with pytest.raises(InvalidInstanceError):
            ClusteringInstance(np.zeros((3, 3)), 1)

    def test_n_property(self, line_clustering):
        assert line_clustering.n == 5

    def test_single_center_cost(self, line_clustering):
        assert line_clustering.kmedian_cost([2]) == pytest.approx(2 + 1 + 0 + 1 + 8)
