import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixsearch.dataset import (
    DatasetError,
    derive_ewma,
    expected_window_count,
    load_dataset,
    load_processed_table,
    make_windows,
    save_table,
    split_and_scale,
)

from conftest import make_table


def runs_oracle(ids):
    """Contiguous equal-id runs, one row at a time."""
    runs, start = [], 0
    for i in range(1, len(ids) + 1):
        if i == len(ids) or ids[i] != ids[start]:
            runs.append((int(ids[start]), slice(start, i)))
            start = i
    return runs


def ewma_oracle(x, span):
    """Direct recurrence evaluation, one step at a time."""
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def lfilter_ewma(x, span):
    """One run through scipy's first-order IIR filter, seeded so y_0 ~ x_0."""
    from scipy.signal import lfilter
    alpha = 2.0 / (span + 1.0)
    zi = np.array([(1.0 - alpha) * x[0]])
    return lfilter([alpha], [1.0, -(1.0 - alpha)], x, zi=zi)[0]


class TestLoadDataset:
    SCHEMA = {"profile_id": "id", "u_d": "input", "pm": "target"}

    def test_three_row_csv(self, csv_factory):
        path = csv_factory(["profile_id", "u_d", "pm"],
                           [[1, 0.5, 2.0], [1, 0.6, 2.1], [2, 0.7, 2.2]])
        table = load_dataset(path, self.SCHEMA)
        assert table.n_rows == 3
        assert table.input_columns == ["u_d"]
        assert table.target_columns == ["pm"]
        assert table.profiles() == [1, 2]

    def test_non_numeric_cell_names_row_and_column(self, csv_factory):
        path = csv_factory(["profile_id", "u_d", "pm"],
                           [[1, 0.5, 2.0], [1, "oops", 2.1], [2, 0.7, 2.2]])
        with pytest.raises(DatasetError, match=r"row 2.*'u_d'"):
            load_dataset(path, self.SCHEMA)

    def test_motor_log_has_profile_65(self, csv_factory):
        rows = [[p, 0.1 * i, 0.2 * i] for p in (60, 65, 81) for i in range(4)]
        path = csv_factory(["profile_id", "u_d", "pm"], rows)
        table = load_dataset(path, self.SCHEMA)
        assert 65 in table.profiles()

    def test_missing_column(self, csv_factory):
        path = csv_factory(["profile_id", "u_d"], [[1, 0.5]])
        with pytest.raises(DatasetError, match="missing column"):
            load_dataset(path, self.SCHEMA)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(path, self.SCHEMA)

    def test_non_finite_cell_rejected(self, csv_factory):
        path = csv_factory(["profile_id", "u_d", "pm"], [[1, "nan", 2.0]])
        with pytest.raises(DatasetError, match="non-finite"):
            load_dataset(path, self.SCHEMA)

    def test_repeated_header_column_rejected(self, csv_factory):
        path = csv_factory(["profile_id", "u_d", "u_d", "pm"], [[1, 1.0, 2.0, 3.0]])
        with pytest.raises(DatasetError, match=r"\['u_d'\] named more than once"):
            load_dataset(path, self.SCHEMA)

    @pytest.mark.parametrize("pid", ["1e20", "9223372036854775808", "-9.3e18"])
    def test_profile_id_beyond_int64_names_row_and_column(self, csv_factory, pid):
        path = csv_factory(["profile_id", "u_d", "pm"], [[1, 0.5, 2.0], [pid, 0.6, 2.1]])
        with pytest.raises(DatasetError, match=r"row 2, column 'profile_id'.*int64"):
            load_dataset(path, self.SCHEMA)

    def test_profile_ids_at_int64_limits_load(self, csv_factory):
        path = csv_factory(["profile_id", "u_d", "pm"],
                           [[-2**63, 0.5, 2.0], [2**62, 0.6, 2.1]])
        assert load_dataset(path, self.SCHEMA).profiles() == [-2**63, 2**62]

    def test_schema_needs_roles(self):
        with pytest.raises(DatasetError, match="id column"):
            load_dataset("whatever.csv", {"a": "input", "b": "target"})


class TestProfileRuns:
    profile_ids = st.lists(st.integers(0, 4), max_size=40)

    def test_non_contiguous_repeat_is_a_new_run(self):
        table = make_table([[0.0, 0.0]] * 4, [1, 1, 2, 1])
        assert table.profile_runs() == [(1, slice(0, 2)), (2, slice(2, 3)),
                                        (1, slice(3, 4))]
        assert table.profiles() == [1, 2]

    def test_empty_table_has_no_runs(self):
        table = make_table(np.zeros((0, 2)), [])
        assert table.profile_runs() == []
        assert table.profiles() == []

    @settings(max_examples=80, deadline=None)
    @given(profile_ids)
    def test_runs_and_profiles_match_per_row_oracle(self, ids):
        table = make_table(np.zeros((len(ids), 2)), ids)
        assert table.profile_runs() == runs_oracle(ids)
        assert table.profiles() == list(dict.fromkeys(ids))

    @settings(max_examples=80, deadline=None)
    @given(profile_ids.filter(bool), st.sets(st.integers(0, 4)),
           st.sets(st.integers(0, 4)), st.integers(0, 2**32 - 1))
    def test_split_tags_match_per_row_oracle(self, ids, test, val, seed):
        val = val - test
        present = set(ids)
        assume(not (test and present <= test) and not (val and present <= val))
        values = np.random.default_rng(seed).normal(size=(len(ids), 3))
        table = make_table(values, ids)
        train = [row for row, p in zip(values.tolist(), ids)
                 if p not in test and p not in val]
        if not train:  # test and val together cover every profile
            with pytest.raises(DatasetError, match="no training rows"):
                split_and_scale(table, test, val)
            return
        out, mins, maxs = split_and_scale(table, test, val)
        expected = ["test" if p in test else "val" if p in val else "train"
                    for p in ids]
        assert out.split.tolist() == expected
        lo = [min(col) for col in zip(*train)]
        hi = [max(col) for col in zip(*train)]
        scaled = [[0.0 if a == b else (x - a) / (b - a) for x, a, b in zip(row, lo, hi)]
                  for row in values.tolist()]
        # compared as bits: the oracle is today's rule, one row at a time
        for got, want in ((mins, lo), (maxs, hi), (out.values, scaled)):
            np.testing.assert_array_equal(got.view(np.uint64),
                                          np.array(want).view(np.uint64))


class TestDeriveEwma:
    def test_constant_series_is_fixed_point(self):
        table = make_table([[5.0, 0], [5.0, 0], [5.0, 0]], [1, 1, 1])
        out = derive_ewma(table, [3])
        np.testing.assert_array_equal(out.values[:, 2], [5.0, 5.0, 5.0])

    def test_two_point_recurrence(self):
        # span 3 -> alpha 0.5; y = [1, 0.5*3 + 0.5*1] = [1, 2]
        table = make_table([[1.0, 0], [3.0, 0]], [1, 1])
        out = derive_ewma(table, [3])
        np.testing.assert_allclose(out.values[:, 2], [1.0, 2.0], atol=1e-12)

    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        table = make_table(np.column_stack([x, np.zeros(200)]), np.zeros(200))
        for span in (3, 10, 200):
            out = derive_ewma(table, [span])
            np.testing.assert_allclose(out.values[:, 2], ewma_oracle(x, span),
                                       atol=1e-12)

    def test_default_span_set_adds_eight_columns(self):
        rng = np.random.default_rng(1)
        table = make_table(rng.normal(size=(10, 3)), np.zeros(10),
                           roles=["input", "input", "target"])
        out = derive_ewma(table, [200, 500, 1500, 4000])
        assert len(out.column_names) == 3 + 8
        assert out.roles[3:] == ["input"] * 8

    @pytest.mark.parametrize("spans", [[0], [8, 8]], ids=["zero", "repeated"])
    def test_rejects_bad_span(self, spans):
        table = make_table([[1.0, 0]], [1])
        with pytest.raises(DatasetError, match="span"):
            derive_ewma(table, spans)

    def test_profile_boundaries_are_hard(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        table = make_table(np.column_stack([np.concatenate([a, b]), np.zeros(11)]),
                           [1] * 6 + [2] * 5)
        out = derive_ewma(table, [4])
        np.testing.assert_allclose(out.values[:6, 2], ewma_oracle(a, 4), atol=1e-12)
        np.testing.assert_allclose(out.values[6:, 2], ewma_oracle(b, 4), atol=1e-12)
        # permuting profile blocks leaves each profile's derived column unchanged
        swapped = make_table(np.column_stack([np.concatenate([b, a]), np.zeros(11)]),
                             [2] * 5 + [1] * 6)
        out2 = derive_ewma(swapped, [4])
        np.testing.assert_array_equal(out2.values[5:, 2], out.values[:6, 2])
        np.testing.assert_array_equal(out2.values[:5, 2], out.values[6:, 2])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324]),
                             min_size=1, max_size=30), min_size=1, max_size=6),
           st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True))
    @example(runs=[[-1e-323, 0.0, -0.0]], spans=[3])  # the result's sign is the filter's
    @example(runs=[[2.0], [-3.5, 0.0, 1.0], [7.0]], spans=[1])
    def test_bit_identical_to_lfilter_per_run(self, runs, spans):
        x = np.concatenate([np.asarray(r, dtype=np.float64) for r in runs])
        ids = np.repeat(np.arange(len(runs)), [len(r) for r in runs])
        table = make_table(np.column_stack([x, -x, np.zeros(len(x))]), ids)
        out = derive_ewma(table, spans).values
        j = 3
        for col in (x, -x):
            for span in spans:
                expected = np.concatenate([lfilter_ewma(col[ids == r], span)
                                           for r in range(len(runs))])
                # compared as bits, so a zero's sign must match as well
                np.testing.assert_array_equal(out[:, j].view(np.uint64),
                                              expected.view(np.uint64))
                j += 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           st.integers(1, 50), st.floats(-100, 100))
    def test_shift_equivariance_and_bounds(self, xs, span, shift):
        x = np.asarray(xs)
        table = make_table(np.column_stack([x, np.zeros(len(x))]), np.zeros(len(x)))
        out = derive_ewma(table, [span]).values[:, 2]
        # bounded by the running extrema of the input
        running_min = np.minimum.accumulate(x)
        running_max = np.maximum.accumulate(x)
        assert np.all(out >= running_min - 1e-9 * (1 + np.abs(running_min)))
        assert np.all(out <= running_max + 1e-9 * (1 + np.abs(running_max)))
        shifted = make_table(np.column_stack([x + shift, np.zeros(len(x))]),
                             np.zeros(len(x)))
        out_shifted = derive_ewma(shifted, [span]).values[:, 2]
        np.testing.assert_allclose(out_shifted, out + shift,
                                   atol=1e-7, rtol=1e-9)


class TestScaler:
    def test_minmax_from_train_rows_only(self):
        table = make_table([[2.0, 0], [4.0, 0], [6.0, 0], [99.0, 0]],
                           [1, 1, 1, 9])
        _, mins, maxs = split_and_scale(table, {9}, set())
        assert mins[0] == 2.0 and maxs[0] == 6.0

    def test_unclamped_outside_unit_interval(self):
        table = make_table([[0.0, 0], [1.0, 0], [9.0, 0]], [1, 1, 9])
        out, _, _ = split_and_scale(table, {9}, set())
        assert out.values[2, 0] == 9.0

    def test_degenerate_column_maps_to_zero(self):
        table = make_table([[7.0, 1.0], [7.0, 2.0]], [1, 1])
        out, mins, maxs = split_and_scale(table, set(), set())
        assert mins[0] == maxs[0] and mins[1] != maxs[1]
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.0])

    def test_formula_endpoints_and_midpoint(self):
        table = make_table([[2.0, 0], [4.0, 0], [6.0, 0]], [1, 1, 1])
        out, _, _ = split_and_scale(table, set(), set())
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0], atol=1e-15)

    def test_train_cells_in_unit_interval_after_scaling(self):
        rng = np.random.default_rng(3)
        table = make_table(rng.normal(size=(50, 3)) * 10,
                           [1] * 30 + [2] * 20,
                           roles=["input", "input", "target"])
        out, _, _ = split_and_scale(table, {2}, set())
        train = out.values[:30]
        assert train.min() >= 0.0 and train.max() <= 1.0

    def test_no_train_rows(self):
        table = make_table([[1.0, 0]] * 2, [1, 2])
        with pytest.raises(DatasetError, match="training"):
            split_and_scale(table, {1}, {2})


class TestSplitByProfile:
    def test_test_profile_rows_tagged(self):
        table = make_table([[1.0, 0]] * 4, [65, 65, 3, 3])
        out, _, _ = split_and_scale(table, {65}, set())
        assert list(out.split) == ["test", "test", "train", "train"]

    def test_multiple_val_profiles(self):
        pids = [18, 39, 46, 56, 75, 1]
        table = make_table([[1.0, 0]] * 6, pids)
        out, _, _ = split_and_scale(table, set(), {18, 39, 46, 56, 75})
        assert list(out.split) == ["val"] * 5 + ["train"]

    def test_empty_split_gives_all_train(self):
        table = make_table([[1.0, 0]] * 3, [1, 2, 3])
        out, _, _ = split_and_scale(table, set(), set())
        assert set(out.split) == {"train"}

    def test_absent_profile_warns_not_fails(self, caplog):
        table = make_table([[1.0, 0]] * 2, [1, 2])
        with caplog.at_level("WARNING"):
            out, _, _ = split_and_scale(table, {99}, set())
        assert "99" in caplog.text
        assert set(out.split) == {"train"}

    def test_overlapping_sets_rejected(self):
        table = make_table([[1.0, 0]] * 2, [1, 2])
        with pytest.raises(DatasetError, match="overlap"):
            split_and_scale(table, {1}, {1})

    def test_split_covering_everything_rejected(self):
        table = make_table([[1.0, 0]] * 2, [1, 2])
        with pytest.raises(DatasetError, match="cover"):
            split_and_scale(table, {1, 2}, set())


class TestMakeWindows:
    def _table(self, lengths, tags=None):
        rows = sum(lengths)
        rng = np.random.default_rng(4)
        values = rng.normal(size=(rows, 2))
        pids = np.concatenate([np.full(n, i + 1) for i, n in enumerate(lengths)])
        split = np.concatenate([
            np.full(n, (tags or ["train"] * len(lengths))[i], dtype="U5")
            for i, n in enumerate(lengths)])
        return make_table(values, pids, split=split)

    def test_exact_length_profile_gives_one_window(self):
        ws = make_windows(self._table([300]), 300, 1)
        assert len(ws) == 1

    def test_305_rows_give_six_windows(self):
        ws = make_windows(self._table([305]), 300, 1)
        assert len(ws) == expected_window_count(305, 300, 1) == 6

    def test_windows_never_cross_profiles(self):
        table = self._table([300, 300])
        ws = make_windows(table, 300, 1)
        assert len(ws) == 2
        assert list(table.profile_ids[ws.start]) == [1, 2]
        assert list(ws.start) == [0, 300]

    def test_short_profile_skipped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            ws = make_windows(self._table([10, 300]), 300, 1)
        assert len(ws) == 1
        assert "shorter" in caplog.text

    def test_split_tag_follows_profile(self):
        ws = make_windows(self._table([300, 300], tags=["train", "val"]), 150, 150)
        assert list(ws.split) == ["train", "train", "val", "val"]

    def test_input_target_blocks_split_by_role(self):
        table = self._table([50])
        ws = make_windows(table, 10, 5)
        assert ws.inputs[:].shape == (len(ws), 10, 1)
        assert ws.targets.shape == (len(ws), 1)
        np.testing.assert_array_equal(ws.inputs[0][:, 0], table.values[:10, 0])
        np.testing.assert_array_equal(ws.targets[0], table.values[9, 1:])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 20), st.integers(1, 10))
    def test_count_matches_closed_form(self, rows, length, stride):
        table = self._table([rows])
        if rows < length:
            with pytest.raises(DatasetError):
                make_windows(table, length, stride)
        else:
            ws = make_windows(table, length, stride)
            assert len(ws) == (rows - length) // stride + 1

    def test_rejects_untagged_table(self):
        table = make_table([[1.0, 0]] * 10, [1] * 10)
        with pytest.raises(DatasetError, match="split-tagged"):
            make_windows(table, 5, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 30)),
                    min_size=1, max_size=5),
           st.integers(1, 12), st.integers(1, 5))
    def test_windows_are_start_rows_into_the_table(self, runs, length, stride):
        ids = np.concatenate([np.full(n, pid) for pid, n in runs])
        rng = np.random.default_rng(len(ids))
        table = make_table(rng.normal(size=(len(ids), 4)), ids,
                           roles=["input", "target", "input", "target"],
                           split=np.where(ids == 2, "val", "train"))
        # The sliding-window offsets of each run, as windows were once cut.
        expected = [np.lib.stride_tricks.sliding_window_view(
                        np.arange(sl.start, sl.stop), length)[::stride, 0]
                    for _, sl in runs_oracle(ids) if sl.stop - sl.start >= length]
        if not expected:
            with pytest.raises(DatasetError, match="long enough"):
                make_windows(table, length, stride)
            return
        ws = make_windows(table, length, stride)
        start = ws.start
        np.testing.assert_array_equal(start, np.concatenate(expected))
        assert (ids[start] == ids[start + length - 1]).all()
        np.testing.assert_array_equal(ws.split, table.split[start])
        gathered = ws.inputs[np.arange(len(ws))]
        for i in range(len(ws)):
            rows = table.values[start[i]:start[i] + length]
            np.testing.assert_array_equal(ws.inputs[i], rows[:, [0, 2]])
            np.testing.assert_array_equal(gathered[i], rows[:, [0, 2]])
            np.testing.assert_array_equal(ws.targets[i], rows[-1, [1, 3]])

    def test_no_array_has_a_window_axis(self):
        ws = make_windows(self._table([40, 37]), 13, 1)
        assert len(ws) == 28 + 25
        arrays = [v for obj in (ws, ws.inputs) for v in vars(obj).values()
                  if isinstance(v, np.ndarray)]
        assert arrays
        for array in arrays:
            assert 13 not in array.shape

    @pytest.mark.parametrize("key", [
        5, slice(3, 40, 4), np.arange(53) % 3 == 0,
        np.array([52, 0, 7, 7, 30]), np.array([], dtype=np.int64)],
        ids=["int", "slice", "mask", "index-array", "empty"])
    def test_gather_equals_per_window_row_slices(self, key):
        ws = make_windows(self._table([40, 37]), 13, 1)
        before = ws.input_rows.copy()
        got = ws.inputs[key]
        want = np.array([ws.input_rows[s:s + 13] for s in ws.start])[key]
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        got[...] = 99.0
        np.testing.assert_array_equal(ws.input_rows, before)

    @pytest.mark.parametrize("key", [5, np.array([52, 0, 7, 7, 30])], ids=["int", "index-array"])
    def test_gather_is_c_contiguous(self, key):
        got = make_windows(self._table([40, 37]), 13, 1).inputs[key]
        assert got.flags.c_contiguous and got.flags.writeable

    def test_gather_copies_no_table(self):
        # An M-sized table: 240,000 rows of 15 inputs and one target.
        rows = 240_000
        table = make_table(np.random.default_rng(5).normal(size=(rows, 16)),
                           np.ones(rows), split=np.full(rows, "train"))
        ws = make_windows(table, 300, 1)
        tracemalloc.start()
        try:
            ws.inputs[np.array([0, 7, 1_000, 50_000, 200_000])]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ws.input_rows.nbytes / 20


class TestPersistence:
    def _table(self):
        rng = np.random.default_rng(5)
        table = make_table(rng.normal(size=(20, 3)), [1] * 10 + [2] * 10,
                           roles=["input", "input", "target"])
        return split_and_scale(table, set(), {2})

    def test_table_roundtrip_is_exact(self, tmp_path):
        table, mins, maxs = self._table()
        path = tmp_path / "t.npz"
        save_table(table, mins, maxs, path)
        back = load_processed_table(path)
        np.testing.assert_array_equal(back.values, table.values)
        np.testing.assert_array_equal(back.profile_ids, table.profile_ids)
        np.testing.assert_array_equal(back.split, table.split)
        assert back.column_names == table.column_names
        assert back.roles == table.roles
        assert back.id_column == table.id_column

    def test_scaler_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        table = make_table(rng.normal(size=(9, 2)), [1] * 9)
        table, mins, maxs = split_and_scale(table, set(), set())
        path = tmp_path / "t.npz"
        save_table(table, mins, maxs, path)
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["scaler_min"], mins)
            np.testing.assert_array_equal(archive["scaler_max"], maxs)
        assert load_processed_table(path).column_names == table.column_names

    def test_processed_file_validation(self, tmp_path):
        table, mins, maxs = self._table()
        good = tmp_path / "good.npz"
        save_table(table, mins, maxs, good)

        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(good.read_bytes()[:200])
        with pytest.raises(DatasetError, match="unreadable"):
            load_processed_table(truncated)

        bad_tag = tmp_path / "bad_tag.npz"
        table.split[3] = "dev"
        save_table(table, mins, maxs, bad_tag)
        with pytest.raises(DatasetError, match="row 4: bad split tag 'dev'"):
            load_processed_table(bad_tag)

        nan = tmp_path / "nan.npz"
        table.split[3] = "train"
        table.values[7, 1] = np.nan
        save_table(table, mins, maxs, nan)
        with pytest.raises(DatasetError, match="row 8: non-finite"):
            load_processed_table(nan)

        with pytest.raises(DatasetError, match="No such file"):
            load_processed_table(tmp_path / "missing.npz")
