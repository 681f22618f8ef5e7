import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixsearch.embedding import (
    EmbeddingError,
    EmbeddingMatrix,
    FEATURIZE_BLOCK,
    FORMAT_VERSION,
    MAGIC,
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
        assert m.data.tobytes() == featurize_windows(stack).astype(np.float32).tobytes()

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
        assert peak < n * m.dims * np.dtype(np.float64).itemsize


class TestEmbeddingFile:
    def test_header_and_payload_size(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(EmbeddingMatrix(np.zeros((2, 3), np.float32), "builtin"),
                             path)
        raw = path.read_bytes()
        assert len(raw) == 20 + 2 * 3 * 4
        assert raw[:4] == MAGIC
        assert struct.unpack_from("<I", raw, 4)[0] == FORMAT_VERSION
        assert struct.unpack_from("<Q", raw, 8)[0] == 2
        assert struct.unpack_from("<I", raw, 16)[0] == 3

    def test_single_value_payload_encoding(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(EmbeddingMatrix(np.array([[0.5]], np.float32), "builtin"),
                             path)
        assert path.read_bytes()[20:] == struct.pack("<f", 0.5)

    def test_random_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(10, 8)).astype(np.float32)
        path = tmp_path / "e.tsem"
        write_embedding_file(EmbeddingMatrix(data, "builtin"), path)
        back = read_embedding_file(path, expected_rows=10)
        np.testing.assert_array_equal(back.data, data)
        assert back.provenance == "external"

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float32, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                  elements=st.floats(-2.0**60, 2.0**60, width=32,
                                     allow_subnormal=False)))
    def test_roundtrip_identity_property(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("tsem") / "prop.tsem"
        write_embedding_file(EmbeddingMatrix(data, "builtin"), path)
        back = read_embedding_file(path, expected_rows=data.shape[0])
        np.testing.assert_array_equal(back.data, data)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(EmbeddingMatrix(np.zeros((5, 2), np.float32), "builtin"),
                             path)
        with pytest.raises(EmbeddingError, match="5 rows but 6"):
            read_embedding_file(path, expected_rows=6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tsem"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(EmbeddingError, match="magic"):
            read_embedding_file(path, expected_rows=1)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(EmbeddingMatrix(np.zeros((5, 2), np.float32), "builtin"),
                             path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(EmbeddingError, match="payload"):
            read_embedding_file(path, expected_rows=5)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "e.tsem"
        write_embedding_file(EmbeddingMatrix(np.zeros((1, 2), np.float32), "builtin"),
                             path)
        raw = bytearray(path.read_bytes())
        raw[20:24] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(EmbeddingError, match="non-finite"):
            read_embedding_file(path, expected_rows=1)

    def test_matrix_invariants(self):
        with pytest.raises(EmbeddingError, match="non-finite"):
            EmbeddingMatrix(np.array([[np.inf]], np.float32), "builtin")
        with pytest.raises(EmbeddingError, match="2-D"):
            EmbeddingMatrix(np.zeros(3, np.float32), "builtin")


class TestZScore:
    def test_train_statistics_only(self):
        data = np.array([[0.0], [2.0], [100.0]], dtype=np.float32)
        matrix = EmbeddingMatrix(data, "builtin")
        out = zscore_features(matrix, np.array([True, True, False]))
        np.testing.assert_allclose(out[:2, 0], [-1.0, 1.0])

    def test_constant_dimension_not_rescaled(self):
        data = np.array([[5.0, 1.0], [5.0, 3.0]], dtype=np.float32)
        out = zscore_features(EmbeddingMatrix(data, "builtin"),
                              np.array([True, True]))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])

    def test_needs_train_windows(self):
        matrix = EmbeddingMatrix(np.zeros((2, 1), np.float32), "builtin")
        with pytest.raises(EmbeddingError, match="training"):
            zscore_features(matrix, np.array([False, False]))

    def test_requested_rows_equal_standardizing_every_row(self):
        rng = np.random.default_rng(7)
        matrix = EmbeddingMatrix(rng.normal(size=(50, 4)) * [1.0, 1e3, 1e-3, 0.0], "builtin")
        rows = np.sort(rng.choice(50, size=20, replace=False))
        data = matrix.data.astype(np.float64)
        sigma = data[rows].std(axis=0)
        want = (data - data[rows].mean(axis=0)) / np.where(sigma > 0.0, sigma, 1.0)
        assert zscore_features(matrix, rows).tobytes() == want[rows].tobytes()

    def test_peak_is_one_copy_of_the_requested_rows(self):
        rng = np.random.default_rng(8)
        matrix = EmbeddingMatrix(rng.normal(size=(20_000, 16)), "builtin")
        rows = np.arange(0, matrix.rows, 10)
        tracemalloc.start()
        try:
            out = zscore_features(matrix, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (rows.size, 16)
        assert peak < 3 * out.nbytes

    def test_featurize_window_set_provenance(self):
        rng = np.random.default_rng(5)
        m = featurize_window_set(make_window_set(rng.normal(size=(4, 10, 2)),
                                                 np.zeros((4, 10, 1))))
        assert m.provenance == "builtin"
        assert m.dims == 14
