import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mixsearch.clustering import (
    ClusteringError,
    assign,
    cluster_members,
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


def running_sum_squared_distances(points, centroids):
    """(n, k) squared distances, each summed one dimension at a time in order."""
    out = np.zeros((points.shape[0], centroids.shape[0]))
    for j in range(points.shape[1]):
        out += (points[:, j, None] - centroids[None, :, j]) ** 2
    return out


class RecordingGenerator(np.random.Generator):
    """A PCG64 generator that keeps the bytes of every ``choice`` weight vector."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.weights = []

    def choice(self, a, p=None, **kwargs):
        self.weights.append(p.tobytes())
        return super().choice(a, p=p, **kwargs)


def brute_force_seeding(points, k, rng):
    """kmeans_init_plusplus with every distance from cdist."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        d2 = np.minimum(d2, cdist(points, centroids[j - 1:j], "sqeuclidean")[:, 0])
        centroids[j] = points[int(rng.choice(n, p=d2 / d2.sum()))]
    return centroids


def brute_force_lloyd(points, k, seed, n_init, max_iter=300, tol=1e-6):
    """kmeans_fit's restarts, seeding and Lloyd loop with every distance from cdist.

    Returns (centroids, assignments, inertia, history, n_iter) of the restart
    with the lowest inertia, the first one on a tie.
    """
    best = None
    for stream in np.random.SeedSequence(seed).spawn(n_init):
        centroids = brute_force_seeding(points, k, np.random.default_rng(stream))
        history, shift = [], np.inf
        for n_iter in range(max_iter + 1):
            labels = np.argmin(cdist(points, centroids, "sqeuclidean"), axis=1)
            labels, centroids = _repair_empty(points, labels, centroids, k)
            history.append(inertia(points, labels, centroids))
            if shift < tol or n_iter == max_iter:
                break
            new = np.array([points[labels == j].mean(axis=0) for j in range(k)])
            shift = np.sqrt(((new - centroids) ** 2).sum(axis=1)).max()
            centroids = new
        if best is None or history[-1] < best[2]:
            best = (centroids, labels, history[-1], history, n_iter)
    return best


@st.composite
def near_tie_cases(draw):
    """Points and centroids whose distances the screen cannot tell apart.

    ``ulps``: every centroid a few ulps from one base vector; ``lattice``:
    integer grids, full of exact ties; ``normal``: Gaussian draws.  Scales
    run from 1e-8 to 1e8, and k may be 1.
    """
    n, k, d = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 8))
    kind = draw(st.sampled_from(["ulps", "lattice", "normal"]))
    if kind == "lattice":
        points = rng.integers(-3, 4, size=(n, d)) * scale
        centroids = rng.integers(-3, 4, size=(k, d)) * scale
    else:
        points = rng.normal(size=(n, d)) * scale
        centroids = rng.normal(size=(k, d)) * scale
        if kind == "ulps":
            base = centroids[0]
            centroids = base + rng.integers(-4, 5, size=(k, d)) * np.spacing(base)
    return kind, points, centroids


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

    def test_draw_weights_bit_identical_to_cdist_seeding(self):
        # The q rows lie on the plane that mirrors a onto b, and b sits a few
        # ulps nearer to it, so drawing b after a lowers every q's d2 by a few
        # ulps: inside the screen's slack, where only exact rows keep the bits.
        # The q rows' d2 differ widely, so the next draw's weights change too.
        lead = 1e3
        a = np.array([lead, 0.0, 0.0, 0.0])
        b = np.array([-(lead - 4 * np.spacing(lead)), 0.0, 0.0, 0.0])
        q = np.column_stack([np.zeros(5),
                             np.random.default_rng(0).normal(size=(5, 3)) * lead])
        points = np.vstack([np.tile(a, (10, 1)), b, q])
        hits = 0
        for seed in range(20):
            got, want = RecordingGenerator(seed), RecordingGenerator(seed)
            centroids = kmeans_init_plusplus(points, 4, got)
            assert centroids.tobytes() == brute_force_seeding(points, 4, want).tobytes()
            assert got.weights == want.weights
            folded = list(centroids[:3, 0])  # the last draw's distances are never folded in
            hits += lead in folded and b[0] in folded[folded.index(lead):]
        assert hits  # some seed folded in a, then b

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

    @settings(max_examples=150, deadline=None)
    @given(distance_cases())
    def test_kernel_bytes_equal_running_sum_and_cdist(self, case):
        points, centroids = case
        got = squared_distances(points, centroids).tobytes()
        assert got == running_sum_squared_distances(points, centroids).tobytes()
        assert got == cdist(points, centroids, "sqeuclidean").tobytes()

    @settings(max_examples=200, deadline=None)
    @given(near_tie_cases())
    def test_assign_equals_argmin_of_exact_distances(self, case):
        kind, points, centroids = case
        ref = cdist(points, centroids, "sqeuclidean")
        assert squared_distances(points, centroids).tobytes() == ref.tobytes()
        with mock.patch("mixsearch.clustering.squared_distances",
                        side_effect=squared_distances) as exact:
            got = assign(points, centroids)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.argmin(ref, axis=1))
        if kind == "ulps" and centroids.shape[0] > 1:
            # Centroids ulps apart are inside every point's slack.
            assert [c.args[0].shape[0] for c in exact.call_args_list] == [len(points)]

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

    def test_inertia_equals_einsum_of_differences(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(500, 7)) * 10.0 ** rng.integers(-3, 4, 7)
        centroids = rng.normal(size=(9, 7))
        labels = assign(points, centroids)
        diff = points - centroids[labels]
        assert inertia(points, labels, centroids) == float(np.einsum("nd,nd->", diff, diff))

    def test_inertia_peak_is_one_gather(self):
        rng = np.random.default_rng(13)
        points = rng.normal(size=(20_000, 16))
        centroids = rng.normal(size=(8, 16))
        labels = rng.integers(8, size=points.shape[0])
        tracemalloc.start()
        try:
            inertia(points, labels, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * points.nbytes


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_identical_to_brute_force_cdist_lloyd(self, seed):
        # Gaussian blobs plus integer-grid points, which tie exactly.
        rng = np.random.default_rng(seed)
        blobs = rng.normal(size=(6, 5)) * 4.0
        points = np.concatenate([
            blobs[rng.integers(6, size=150)] + rng.normal(size=(150, 5)),
            rng.integers(-2, 3, size=(90, 5)).astype(float)])
        model = kmeans_fit(points, 8, seed=seed, n_init=3)
        centroids, labels, best, history, n_iter = brute_force_lloyd(points, 8, seed, 3)
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.assignments.tobytes() == labels.astype(np.int64).tobytes()
        assert model.inertia == best
        assert model.inertia_history == history
        assert model.n_iter == n_iter

    def test_logs_one_line_per_restart(self, caplog):
        points = np.random.default_rng(7).normal(size=(200, 4))
        with caplog.at_level("INFO", logger="mixsearch.clustering"):
            model = kmeans_fit(points, 5, seed=1, n_init=3)
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(":")[0] for line in lines] == [
            f"k-means restart {i}/3" for i in (1, 2, 3)]
        assert "(best so far)" in lines[0]
        best = [line for line in lines if "(best so far)" in line][-1]
        assert f"{model.n_iter} iterations, inertia {model.inertia:.6g} " in best

    def test_equal_restarts_keep_the_first(self, caplog):
        points = np.random.default_rng(5).normal(size=(6, 2))
        with caplog.at_level("INFO", logger="mixsearch.clustering"):
            kmeans_fit(points, 6, seed=0, n_init=3)  # every restart has inertia 0
        marked = ["(best so far)" in r.getMessage() for r in caplog.records]
        assert marked == [True, False, False]

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

    def test_cluster_members_equal_per_cluster_positions(self):
        assignments = np.random.default_rng(14).integers(5, size=300)
        assignments[assignments == 3] = 1  # cluster 3 empty
        groups = cluster_members(assignments, 6)
        assert len(groups) == 6
        for j, members in enumerate(groups):
            np.testing.assert_array_equal(members, np.flatnonzero(assignments == j))

    def test_cluster_means_equal_boolean_mask_reference(self):
        rng = np.random.default_rng(11)
        sizes = [1, 57, 3, 200, 8, 2]
        assignments = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        points = rng.normal(size=(assignments.size, 5)) * 10.0 ** rng.integers(-3, 4, 5)
        want = np.array([points[assignments == j].mean(axis=0)
                         for j in range(len(sizes))])
        assert _cluster_means(points, assignments, len(sizes)).tobytes() == want.tobytes()
