from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsearch.clustering import (
    ClusteringError,
    assign,
    inertia,
    kmeans_fit,
    kmeans_init_plusplus,
    squared_distances,
    _cluster_means,
    _repair_empty,
)


def reference_squared_distances(points, centroids):
    """(n, k) squared distances, one ``einsum`` over the differences per centroid."""
    out = np.empty((points.shape[0], centroids.shape[0]))
    for j in range(centroids.shape[0]):
        diff = points - centroids[j]
        out[:, j] = np.einsum("nd,nd->n", diff, diff)
    return out


@st.composite
def distance_cases(draw):
    """Points and centroids of shared dimension, spread over several scales."""
    n, k, d = draw(st.integers(1, 60)), draw(st.integers(1, 36)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    points = rng.normal(size=(n, d)) * scale
    centroids = rng.normal(size=(k, d)) * scale
    if draw(st.booleans()):  # centroids on points give exact zeros
        centroids[: min(n, k)] = points[: min(n, k)]
    return points, centroids


def brute_force_bipartition(points):
    """Minimum within-cluster sum of squares over every 2-way split."""
    n = len(points)
    best = np.inf
    for r in range(1, n):
        for left in combinations(range(n), r):
            left = list(left)
            right = [i for i in range(n) if i not in left]
            cost = 0.0
            for side in (left, right):
                block = points[side]
                cost += ((block - block.mean(axis=0)) ** 2).sum()
            best = min(best, cost)
    return best


class TestInitPlusPlus:
    def test_k1_is_a_data_point(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(10, 3))
        c = kmeans_init_plusplus(points, 1, seed=0)
        assert any(np.array_equal(c[0], p) for p in points)

    def test_two_distinct_points_forced(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        c = kmeans_init_plusplus(points, 2, seed=5)
        assert {tuple(c[0]), tuple(c[1])} == {(0.0, 0.0), (10.0, 10.0)}

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 2))
        a = kmeans_init_plusplus(points, 4, seed=77)
        b = kmeans_init_plusplus(points, 4, seed=77)
        np.testing.assert_array_equal(a, b)

    def test_k_exceeding_distinct_points(self):
        points = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ClusteringError, match=r"distinct points \(2\)"):
            kmeans_init_plusplus(points, 3, seed=0)

    def test_distances_come_from_the_lloyd_kernel(self, monkeypatch):
        calls = []

        def counted(points, centroids):
            calls.append(centroids.shape)
            return squared_distances(points, centroids)

        monkeypatch.setattr("mixsearch.clustering.squared_distances", counted)
        points = np.random.default_rng(2).normal(size=(40, 3))
        kmeans_init_plusplus(points, 5, seed=4)
        assert calls == [(1, 3)] * 4


class TestAssignAndInertia:
    def test_point_on_centroid(self):
        centroids = np.arange(10.0).reshape(5, 2)
        point = centroids[3:4].copy()
        assert assign(point, centroids)[0] == 3

    def test_equidistant_tie_goes_to_lower_id(self):
        centroids = np.array([[5.0], [-1.0], [9.0], [3.0], [1.0]])
        # point 0 is equidistant from centroids 1 and 4
        assert assign(np.array([[0.0]]), centroids)[0] == 1

    def test_every_point_assigned(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(40, 3)) + 100.0
        centroids = rng.normal(size=(4, 3))
        labels = assign(points, centroids)
        assert labels.shape == (40,)
        assert np.all((labels >= 0) & (labels < 4))

    @settings(max_examples=100, deadline=None)
    @given(distance_cases())
    def test_matches_per_centroid_reference(self, case):
        points, centroids = case
        got = squared_distances(points, centroids)
        ref = reference_squared_distances(points, centroids)
        tol = 1e-9 * ref.max()
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= tol
        # Wherever the reference's nearest centroid wins by more than the
        # tolerance, the assignment must agree with it.
        ranked = np.sort(ref, axis=1)
        clear = (ranked[:, 1] - ranked[:, 0] > tol if ref.shape[1] > 1
                 else np.ones(len(ref), dtype=bool))
        np.testing.assert_array_equal(assign(points, centroids)[clear],
                                      np.argmin(ref, axis=1)[clear])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_mirrored_centroids_give_equal_columns(self, n, d, seed):
        # Points and c are 0 on the mirrored axes (axis 0 and a random subset)
        # and v is non-zero only there, so c + v and c - v mirror each other
        # across the points' subspace: every point is exactly equidistant.
        rng = np.random.default_rng(seed)
        mirrored = rng.random(d + 1) < 0.5
        mirrored[0] = True
        points = rng.normal(size=(n, d + 1)) * 10.0 ** rng.integers(-3, 4)
        points[:, mirrored] = 0.0
        c = np.where(mirrored, 0.0, rng.normal(size=d + 1))
        v = np.where(mirrored, rng.normal(size=d + 1), 0.0)
        dist = squared_distances(points, np.stack([c + v, c - v]))
        assert dist[:, 0].tobytes() == dist[:, 1].tobytes()
        np.testing.assert_array_equal(assign(points, np.stack([c + v, c - v])),
                                      np.zeros(n, dtype=np.int64))

    def test_dimension_mismatch(self):
        with pytest.raises(ClusteringError, match="mismatch"):
            assign(np.zeros((3, 2)), np.zeros((2, 5)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(25, 2))
        centroids = rng.normal(size=(3, 2))
        perm = rng.permutation(25)
        np.testing.assert_array_equal(assign(points, centroids)[perm],
                                      assign(points[perm], centroids))

    def test_inertia_zero_when_points_sit_on_centroids(self):
        centroids = np.array([[1.0, 2.0], [3.0, 4.0]])
        points = centroids[[0, 1, 1]]
        assert inertia(points, np.array([0, 1, 1]), centroids) == 0.0

    def test_inertia_is_squared_distance(self):
        centroids = np.array([[0.0]])
        assert inertia(np.array([[2.0]]), np.array([0]), centroids) == 4.0

    def test_inertia_matches_resummation_oracle(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 3))
        centroids = rng.normal(size=(5, 3))
        labels = assign(points, centroids)
        oracle = sum(((points[i] - centroids[labels[i]]) ** 2).sum()
                     for i in range(30))
        assert inertia(points, labels, centroids) == pytest.approx(oracle, rel=1e-12)


class TestKMeansFit:
    def test_two_far_pairs(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]])
        model = kmeans_fit(points, 2, seed=0)
        assert model.inertia == pytest.approx(brute_force_bipartition(points),
                                              abs=1e-9)
        got = {tuple(c) for c in model.centroids}
        assert got == {(0.0, 0.5), (100.0, 0.5)}

    def test_k_equals_distinct_points_zero_inertia(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(6, 2))
        model = kmeans_fit(points, 6, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(np.sort(model.sizes), np.ones(6))

    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            points = rng.normal(size=(n, 2))
            model = kmeans_fit(points, 2, seed=trial, n_init=20)
            assert model.inertia == pytest.approx(
                brute_force_bipartition(points), abs=1e-9), f"instance {trial}"

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(200, 4))
        model = kmeans_fit(points, 5, seed=1)
        hist = np.array(model.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1]))

    def test_degenerate_input_rejected(self):
        points = np.ones((10, 2))
        with pytest.raises(ClusteringError, match="identical"):
            kmeans_fit(points, 2, seed=0)

    def test_k_exceeding_distinct_points_rejected(self):
        points = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ClusteringError, match=r"distinct points \(2\)"):
            kmeans_fit(points, 3, seed=0)

    @pytest.mark.parametrize("max_iter", [300, 1], ids=["converged", "max_iter_1"])
    def test_history_holds_one_inertia_per_update_and_the_final(self, max_iter):
        points = np.random.default_rng(7).normal(size=(200, 4))
        model = kmeans_fit(points, 5, max_iter=max_iter, seed=1)
        if max_iter == 1:
            assert model.n_iter == 1
        else:
            assert model.n_iter < max_iter  # stopped by tol, not by the cap
        assert len(model.inertia_history) == model.n_iter + 1
        assert model.inertia_history[-1] == model.inertia

    def test_fixed_seed_byte_identical(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(120, 3))
        a = kmeans_fit(points, 4, seed=99)
        b = kmeans_fit(points, 4, seed=99)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.assignments.tobytes() == b.assignments.tobytes()
        assert a.inertia == b.inertia
        assert a.inertia_history == b.inertia_history

    def test_sizes_sum_and_non_empty(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(300, 2))
        model = kmeans_fit(points, 12, seed=2)
        assert model.sizes.sum() == 300
        assert np.all(model.sizes > 0)

    def test_default_scale_k36_all_clusters_populated(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(2000, 6))
        model = kmeans_fit(points, 36, seed=3, n_init=3)
        assert model.k == 36
        assert np.all(model.sizes > 0)
        assert model.sizes.sum() == 2000

    def test_repair_gives_empty_cluster_the_farthest_point(self):
        points = np.array([[0.0], [1.0], [10.0]])
        assignments = np.array([0, 0, 0])
        centroids = np.array([[0.5], [99.0]])  # cluster 1 empty
        new_assign, new_centroids = _repair_empty(points, assignments, centroids, 2)
        assert new_assign[2] == 1
        assert new_centroids[1, 0] == 10.0
        assert np.bincount(new_assign, minlength=2).min() == 1

    def test_cluster_means_equal_boolean_mask_reference(self):
        rng = np.random.default_rng(11)
        sizes = [1, 57, 3, 200, 8, 2]
        assignments = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        points = rng.normal(size=(assignments.size, 5)) * 10.0 ** rng.integers(-3, 4, 5)
        want = np.array([points[assignments == j].mean(axis=0)
                         for j in range(len(sizes))])
        assert _cluster_means(points, assignments, len(sizes)).tobytes() == want.tobytes()
