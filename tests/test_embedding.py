import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixsearch.dataset import WindowSet
from mixsearch.embedding import (
    EmbeddingError,
    FEATURIZE_BLOCK,
    FORMAT_VERSION,
    MAGIC,
    featurize_block,
    featurize_window_set,
    featurize_windows,
    read_embedding_file,
    write_embedding_file,
    zscore_features,
)

from conftest import make_window_set

MEAN, STD, MIN, MAX, LAST, SLOPE, AUTOCORR = range(7)


def slope_oracle(x):
    """Least-squares line fit against the timestep index."""
    t = np.arange(len(x))
    return np.polyfit(t, x, 1)[0]


def autocorr_oracle(x):
    """Pearson correlation of the series against itself shifted by one."""
    a, b = np.asarray(x[:-1], float), np.asarray(x[1:], float)
    if a.std() == 0.0 or b.std() == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


class TestFeaturizer:
    def test_constant_channel(self):
        f = featurize_windows(np.zeros((1, 4, 1)))[0]
        np.testing.assert_array_equal(f, np.zeros(7))

    def test_ramp_channel(self):
        f = featurize_windows(np.array([1.0, 2.0, 3.0, 4.0])[None, :, None])[0]
        assert f[MEAN] == 2.5
        assert f[LAST] == 4.0
        assert f[SLOPE] == pytest.approx(slope_oracle([1, 2, 3, 4]), abs=1e-12)
        assert f[SLOPE] == pytest.approx(1.0, abs=1e-12)

    def test_alternating_channel(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        f = featurize_windows(x[None, :, None])[0]
        assert f[MEAN] == 0.0
        assert f[AUTOCORR] == pytest.approx(autocorr_oracle(x), abs=1e-12)
        assert f[AUTOCORR] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_oracles_on_random_channels(self):
        rng = np.random.default_rng(0)
        windows = rng.normal(size=(6, 25, 2))
        feats = featurize_windows(windows)
        for i in range(6):
            for c in range(2):
                x = windows[i, :, c]
                got = feats[i, 7 * c:7 * (c + 1)]
                assert got[MEAN] == pytest.approx(x.mean(), abs=1e-12)
                assert got[STD] == pytest.approx(x.std(), abs=1e-12)
                assert got[MIN] == x.min() and got[MAX] == x.max()
                assert got[LAST] == x[-1]
                assert got[SLOPE] == pytest.approx(slope_oracle(x), abs=1e-9)
                assert got[AUTOCORR] == pytest.approx(autocorr_oracle(x), abs=1e-12)

    def test_autocorr_always_in_unit_range(self):
        rng = np.random.default_rng(1)
        feats = featurize_windows(rng.normal(size=(100, 10, 1)))
        assert np.all(np.abs(feats[:, AUTOCORR]) <= 1.0 + 1e-12)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 20, 2))
        base = featurize_windows(w)
        shifted = featurize_windows(w + 5.0)
        for c in range(2):
            o = 7 * c
            np.testing.assert_allclose(shifted[:, o + STD], base[:, o + STD], atol=1e-9)
            np.testing.assert_allclose(shifted[:, o + SLOPE], base[:, o + SLOPE], atol=1e-9)
            np.testing.assert_allclose(shifted[:, o + AUTOCORR], base[:, o + AUTOCORR],
                                       atol=1e-9)
            for stat in (MEAN, MIN, MAX, LAST):
                np.testing.assert_allclose(shifted[:, o + stat],
                                           base[:, o + stat] + 5.0, atol=1e-9)

    def test_identical_windows_identical_vectors(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(1, 15, 3))
        stack = np.concatenate([w, w])
        feats = featurize_windows(stack)
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_too_short_window_rejected(self):
        with pytest.raises(EmbeddingError, match="2 timesteps"):
            featurize_windows(np.zeros((1, 1, 1)))

    def test_channel_major_layout(self):
        w = np.zeros((1, 4, 2))
        w[0, :, 1] = [1.0, 2.0, 3.0, 4.0]
        f = featurize_windows(w)[0]
        assert f[MEAN] == 0.0          # channel 0 stats first
        assert f[7 + MEAN] == 2.5      # then channel 1

    def test_blocked_featurization_equals_one_call(self):
        rng = np.random.default_rng(6)
        n = FEATURIZE_BLOCK + 3
        stack = rng.normal(size=(n, 12, 2))
        m = featurize_window_set(make_window_set(stack, np.zeros((n, 12, 1))))
        assert m.tobytes() == featurize_windows(stack).astype(np.float32).tobytes()

    def test_featurize_window_set_writes_one_float32_output(self):
        rng = np.random.default_rng(9)
        n = 40 * FEATURIZE_BLOCK
        windows = make_window_set(rng.normal(size=(n, 12, 2)), np.zeros((n, 12, 1)))
        tracemalloc.start()
        try:
            m = featurize_window_set(windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m.shape[1] * np.dtype(np.float64).itemsize


def profile_windows(rows, lengths, w, stride):
    """A WindowSet over ``rows`` cut into runs of ``lengths`` rows, windows
    starting every ``stride`` rows of each run as ``make_windows`` cuts them."""
    bounds = np.cumsum([0, *lengths])
    start = np.concatenate([np.arange(a, b - w + 1, stride)
                            for a, b in zip(bounds[:-1], bounds[1:])])
    return WindowSet(input_rows=rows, target_rows=np.zeros((len(rows), 1)), start=start,
                     split=np.full(start.size, "train", dtype="U5"), window_length=w,
                     input_names=[f"in{i}" for i in range(rows.shape[1])],
                     target_names=["tgt0"])


@st.composite
def profile_window_sets(draw):
    """Windows over one to four profile runs of different lengths: white
    noise, a slow drift or a shifted level around an offset far above the
    spread, with a constant stretch of one channel inside some runs."""
    w = draw(st.integers(2, 24))
    stride = draw(st.sampled_from([1, 2, 3, w, w + 5]))
    c = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(w, w + 300), min_size=1, max_size=4))
    offset = draw(st.sampled_from([0.0, 1e4, -250.0]))
    spread = draw(st.sampled_from([1e-2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = []
    for length in lengths:
        kind = rng.integers(3)
        noise = rng.normal(size=(length, c))
        if kind == 1:
            noise = np.cumsum(noise, axis=0) / np.sqrt(length)
        run = offset + spread * (noise + rng.uniform(-50, 50) * (kind == 2))
        if length >= w + 2 and rng.random() < 0.6:
            a = int(rng.integers(0, length - w))
            run[a:a + w + int(rng.integers(0, 3)), rng.integers(c)] = run[a, 0] + 0.5 * spread
        runs.append(run)
    windows = profile_windows(np.concatenate(runs), lengths, w, stride)
    if draw(st.booleans()):  # starts need not be in row order
        order = rng.permutation(len(windows))
        windows = replace(windows, start=windows.start[order], split=windows.split[order])
    return windows


class TestWindowSetFeaturizer:
    @settings(max_examples=60, deadline=None)
    @given(profile_window_sets())
    def test_matches_the_reference(self, windows):
        # Every value casts to the reference's float32; on a channel constant
        # on the window, std, slope and autocorrelation are exactly 0.  Before
        # the cast each value is within its stated bound of the reference,
        # and that bound is below a quarter of a float32 step.
        n, w, c = len(windows), windows.window_length, windows.input_rows.shape[1]
        ref = featurize_windows(windows.gather(np.arange(n))).reshape(n, c, 7)
        got = featurize_window_set(windows).reshape(n, c, 7)
        zeroed = np.zeros(ref.shape, dtype=bool)
        zeroed[:, :, [STD, SLOPE, AUTOCORR]] = (ref[:, :, MIN] == ref[:, :, MAX])[:, :, None]
        assert np.all(got[zeroed] == 0.0)
        assert got[~zeroed].tobytes() == ref.astype(np.float32)[~zeroed].tobytes()
        for i in range(0, n, FEATURIZE_BLOCK):
            stats, bound = featurize_block(windows.input_rows,
                                           windows.start[i:i + FEATURIZE_BLOCK], w)
            keep = ~zeroed[i:i + FEATURIZE_BLOCK]
            error = np.abs(stats - ref[i:i + FEATURIZE_BLOCK])[keep]
            assert np.all(error <= bound[keep])
            assert np.all(bound[keep] <= 2.0**-22 * np.abs(stats[keep]))

    def test_unresolved_windows_come_from_the_reference(self):
        # The windows one row before and after a constant stretch have a
        # constant tail or head: the prefix sums cannot resolve its variance,
        # so the reference featurizes them and their bound is 0.
        rows = np.random.default_rng(10).normal(size=(400, 1))
        rows[100:200] = 0.3
        windows = profile_windows(rows, [400], 50, 1)
        stats, bound = featurize_block(windows.input_rows, windows.start[:FEATURIZE_BLOCK], 50)
        edges = [99, 151]
        assert np.all(bound[edges] == 0.0)
        assert stats[edges].tobytes() == featurize_windows(windows.gather(edges)).tobytes()

    def test_memory_does_not_grow_with_overlapping_windows(self):
        # W=300, stride 1: one gathered block would be 256 x 300 rows; the
        # featurizer holds a few copies of the block's 555 rows instead.
        w, c = 300, 2
        rng = np.random.default_rng(11)
        for blocks in (2, 16):
            n = blocks * FEATURIZE_BLOCK
            windows = profile_windows(rng.normal(size=(n + w - 1, c)), [n + w - 1], w, 1)
            tracemalloc.start()
            try:
                m = featurize_window_set(windows)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - m.nbytes < FEATURIZE_BLOCK * w * c * 8 // 2


class TestEmbeddingFile:
    def test_header_and_payload_size(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(np.zeros((2, 3), np.float32), path)
        raw = path.read_bytes()
        assert len(raw) == 20 + 2 * 3 * 4
        assert raw[:4] == MAGIC
        assert struct.unpack_from("<I", raw, 4)[0] == FORMAT_VERSION
        assert struct.unpack_from("<Q", raw, 8)[0] == 2
        assert struct.unpack_from("<I", raw, 16)[0] == 3

    def test_single_value_payload_encoding(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(np.array([[0.5]], np.float32), path)
        assert path.read_bytes()[20:] == struct.pack("<f", 0.5)

    def test_random_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(10, 8)).astype(np.float32)
        path = tmp_path / "e.tsem"
        write_embedding_file(data, path)
        back = read_embedding_file(path, expected_rows=10)
        np.testing.assert_array_equal(back, data)

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float32, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                  elements=st.floats(-2.0**60, 2.0**60, width=32,
                                     allow_subnormal=False)))
    def test_roundtrip_identity_property(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("tsem") / "prop.tsem"
        write_embedding_file(data, path)
        back = read_embedding_file(path, expected_rows=data.shape[0])
        np.testing.assert_array_equal(back, data)

    def test_float64_rounds_as_astype_float32(self, tmp_path):
        # centroids.tsem is written from k-means' float64 centroids.
        data = np.random.default_rng(12).normal(size=(6, 9)) * 10.0 ** np.arange(-4, 5)
        path = tmp_path / "e.tsem"
        write_embedding_file(data, path)
        assert path.read_bytes()[20:] == data.astype(np.float32).tobytes()

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(np.zeros((5, 2), np.float32), path)
        with pytest.raises(EmbeddingError, match="5 rows but 6"):
            read_embedding_file(path, expected_rows=6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tsem"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(EmbeddingError, match="magic"):
            read_embedding_file(path, expected_rows=1)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(np.zeros((5, 2), np.float32), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(EmbeddingError, match="payload"):
            read_embedding_file(path, expected_rows=5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nan_payload_rejected(self, tmp_path, value):
        path = tmp_path / "e.tsem"
        write_embedding_file(np.zeros((1, 2), np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[20:24] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(EmbeddingError, match="non-finite"):
            read_embedding_file(path, expected_rows=1)


class TestZScore:
    def test_train_statistics_only(self):
        data = np.array([[0.0], [2.0], [100.0]], dtype=np.float32)
        out = zscore_features(data, np.array([True, True, False]))
        np.testing.assert_allclose(out[:2, 0], [-1.0, 1.0])

    def test_constant_dimension_not_rescaled(self):
        data = np.array([[5.0, 1.0], [5.0, 3.0]], dtype=np.float32)
        out = zscore_features(data, np.array([True, True]))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])

    def test_needs_train_windows(self):
        matrix = np.zeros((2, 1), np.float32)
        with pytest.raises(EmbeddingError, match="training"):
            zscore_features(matrix, np.array([False, False]))

    def test_requested_rows_equal_standardizing_every_row(self):
        rng = np.random.default_rng(7)
        matrix = (rng.normal(size=(50, 4)) * [1.0, 1e3, 1e-3, 0.0]).astype(np.float32)
        rows = np.sort(rng.choice(50, size=20, replace=False))
        data = matrix.astype(np.float64)
        sigma = data[rows].std(axis=0)
        want = (data - data[rows].mean(axis=0)) / np.where(sigma > 0.0, sigma, 1.0)
        assert zscore_features(matrix, rows).tobytes() == want[rows].tobytes()

    def test_peak_is_one_copy_of_the_requested_rows(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(20_000, 16)).astype(np.float32)
        rows = np.arange(0, len(matrix), 10)
        tracemalloc.start()
        try:
            out = zscore_features(matrix, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (rows.size, 16)
        assert peak < 3 * out.nbytes

    def test_featurize_window_set_has_seven_stats_per_channel(self):
        rng = np.random.default_rng(5)
        m = featurize_window_set(make_window_set(rng.normal(size=(4, 10, 2)),
                                                 np.zeros((4, 10, 1))))
        assert m.shape[1] == 14
