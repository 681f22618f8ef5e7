"""Raw table ingestion, feature derivation, scaling, splitting, and windowing.

The pipeline operates on plain multivariate tables: one row per timestep and
an integer profile id per row marking which recording session the row belongs
to.  Columns carry a role, either ``input`` (measured or derived channels the
forecaster may read) or ``target`` (channels the forecaster must predict).

No operation modifies its argument.  A result may share the arrays that the
operation leaves unchanged, such as the profile ids.
"""

from __future__ import annotations

import csv
import logging
import math
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import MixsearchError

logger = logging.getLogger(__name__)

ROLE_INPUT = "input"
ROLE_TARGET = "target"
ROLE_ID = "id"

SPLIT_TRAIN = "train"
SPLIT_VAL = "val"
SPLIT_TEST = "test"


class DatasetError(MixsearchError, ValueError):
    """Raised when a table or file violates the ingestion contract."""


@dataclass
class RawTable:
    """A multivariate time-series table.

    ``values`` holds the numeric columns (inputs and targets) row-major;
    the profile id column is kept separately as integers.  ``split`` is
    ``None`` until :func:`split_and_scale` tags the rows.
    """

    column_names: list[str]
    roles: list[str]
    profile_ids: np.ndarray
    values: np.ndarray
    split: np.ndarray | None = None
    id_column: str = "profile_id"

    def __post_init__(self) -> None:
        if len(self.column_names) != len(self.roles):
            raise DatasetError("column_names and roles must align")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.column_names):
            raise DatasetError("values shape does not match column count")
        if self.profile_ids.shape[0] != self.values.shape[0]:
            raise DatasetError("every row needs a profile id")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def input_columns(self) -> list[str]:
        return [c for c, r in zip(self.column_names, self.roles) if r == ROLE_INPUT]

    @property
    def target_columns(self) -> list[str]:
        return [c for c, r in zip(self.column_names, self.roles) if r == ROLE_TARGET]

    def role_indices(self, role: str) -> np.ndarray:
        return np.array([i for i, r in enumerate(self.roles) if r == role], dtype=np.intp)

    def profiles(self) -> list[int]:
        """Distinct profile ids in first-appearance order."""
        _, first = np.unique(self.profile_ids, return_index=True)
        return [int(p) for p in self.profile_ids[np.sort(first)]]

    def profile_runs(self) -> list[tuple[int, slice]]:
        """Contiguous runs of equal profile id, in row order.

        Derivations and windowing treat each run as an independent recording;
        a change of profile id is a hard boundary.
        """
        ids = self.profile_ids
        if ids.size == 0:
            return []
        bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), ids.size]
        return [(int(ids[a]), slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


class WindowGather:
    """``inputs[idx]`` of a :class:`WindowSet`: gathers the windows ``idx``
    (an int, slice, boolean mask or index array) from the per-row inputs as
    a (len(idx), W, C_in) copy, or (W, C_in) for an int."""

    def __init__(self, rows: np.ndarray, start: np.ndarray, length: int):
        self.rows = rows
        self.start = start
        self.length = length

    def __getitem__(self, idx) -> np.ndarray:
        # Row r of this read-only (rows - W + 1, W, C_in) view is the window
        # starting at r, so fancy indexing copies each window as one block.
        # An array key keeps an int's gather a copy, not a view.
        rows = self.rows
        by_start = np.lib.stride_tricks.as_strided(
            rows, shape=(max(rows.shape[0] - self.length + 1, 0), self.length, rows.shape[1]),
            strides=(rows.strides[0], *rows.strides), writeable=False)
        return by_start[np.asarray(self.start[idx])]


@dataclass
class WindowSet:
    """Fixed-length windows as start rows into a per-row table.

    The table's input and target columns are held once, as ``input_rows``
    and ``target_rows``; window ``i`` is rows ``start[i] : start[i] + W`` of
    both, never crossing a profile run.  ``inputs[idx]`` gathers windows on
    demand (see :class:`WindowGather`) and ``targets`` holds each window's
    last-step targets, the only ones the forecasters predict.
    """

    input_rows: np.ndarray    # (rows, C_in)
    target_rows: np.ndarray   # (rows, C_tgt)
    start: np.ndarray         # (n,) int, global start row
    split: np.ndarray         # (n,) unicode tags
    window_length: int
    input_names: list[str]
    target_names: list[str]
    inputs: WindowGather = field(init=False, repr=False)
    targets: np.ndarray = field(init=False, repr=False)  # (n, C_tgt)

    def __post_init__(self) -> None:
        self.inputs = WindowGather(self.input_rows, self.start, self.window_length)
        self.targets = self.target_rows[self.start + (self.window_length - 1)]

    def __len__(self) -> int:
        return self.start.shape[0]

    def split_mask(self, split: str) -> np.ndarray:
        return self.split == split

    def split_indices(self, split: str) -> np.ndarray:
        return np.flatnonzero(self.split == split)


def load_dataset(path: str | Path, schema: dict[str, str]) -> RawTable:
    """Parse a CSV file into a :class:`RawTable` under a column-role schema.

    The header must match the schema keys exactly, each named once.  Exactly
    one column must carry role ``id`` and hold int64 profile ids; every cell
    of the other columns must parse to a finite number.  Errors name the
    offending row (1-based, counting data rows) and column.
    """
    _validate_schema(schema)
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise DatasetError(f"{path}: column(s) {repeated} named more than once")
        missing = [c for c in schema if c not in header]
        if missing:
            raise DatasetError(f"{path}: missing column(s) {missing}")
        unexpected = [c for c in header if c not in schema]
        if unexpected:
            raise DatasetError(f"{path}: column(s) {unexpected} not in schema")

        id_col = next(c for c, r in schema.items() if r == ROLE_ID)
        id_pos = header.index(id_col)
        value_cols = [c for c in header if c != id_col]
        value_pos = [header.index(c) for c in value_cols]

        profile_ids: list[int] = []
        rows: list[list[float]] = []
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}")
            profile_ids.append(_parse_profile_id(row[id_pos], path, row_no, id_col))
            parsed = []
            for col, pos in zip(value_cols, value_pos):
                parsed.append(_parse_cell(row[pos], path, row_no, col))
            rows.append(parsed)

    if not rows:
        raise DatasetError(f"{path}: no data rows")

    table = RawTable(
        column_names=value_cols,
        roles=[schema[c] for c in value_cols],
        profile_ids=np.asarray(profile_ids, dtype=np.int64),
        values=np.asarray(rows, dtype=np.float64),
        id_column=id_col,
    )
    logger.info("loaded %s: %d rows, %d inputs, %d targets, %d profiles",
                path, table.n_rows, len(table.input_columns),
                len(table.target_columns), len(table.profiles()))
    return table


def _validate_schema(schema: dict[str, str]) -> None:
    roles = list(schema.values())
    bad = sorted({r for r in roles if r not in (ROLE_INPUT, ROLE_TARGET, ROLE_ID)})
    if bad:
        raise DatasetError(f"unknown role(s) {bad}; expected input/target/id")
    if roles.count(ROLE_ID) != 1:
        raise DatasetError("schema must designate exactly one id column")
    if roles.count(ROLE_INPUT) < 1 or roles.count(ROLE_TARGET) < 1:
        raise DatasetError("schema needs at least one input and one target column")


def _parse_profile_id(text: str, path: Path, row_no: int, col: str) -> int:
    try:
        value = float(text)
    except ValueError:
        raise DatasetError(
            f"{path}: row {row_no}, column {col!r}: unparsable value {text!r}") from None
    if not math.isfinite(value) or value != int(value) or not -2**63 <= value < 2**63:
        raise DatasetError(
            f"{path}: row {row_no}, column {col!r}: profile id must be an int64, got {text!r}")
    return int(value)


def _parse_cell(text: str, path: Path, row_no: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DatasetError(
            f"{path}: row {row_no}, column {col!r}: unparsable value {text!r}") from None
    if not math.isfinite(value):
        raise DatasetError(
            f"{path}: row {row_no}, column {col!r}: non-finite value {text!r}")
    return value


def derive_ewma(table: RawTable, spans: list[int]) -> RawTable:
    """Append exponentially weighted moving averages of every input column.

    For each input column x and span s a new input column is appended with
    smoothing alpha = 2/(s+1) and keep = 1 - alpha.  Each profile run is
    smoothed independently, so no value leaks across a profile boundary.
    The arithmetic is that of the first-order IIR filter
    ``scipy.signal.lfilter([alpha], [1, -keep], x, zi=[keep*x_0])``,
    evaluated in the same order so the result is bit-identical:

        y_0 = keep*x_0 + alpha*x_0
        y_t = keep*y_{t-1} + (0*x_{t-1} + alpha*x_t)

    y_0 is x_0 up to rounding, not always exactly.  The ``0*x_{t-1}`` term
    is the filter's zero numerator tap; it only decides the sign of a zero.
    """
    if table.n_rows == 0:
        raise DatasetError("cannot derive features from an empty table")
    for i, s in enumerate(spans):
        if int(s) != s or s <= 0:
            raise DatasetError(f"EWMA span must be a positive integer, got {s!r}")
        if s in spans[:i]:
            raise DatasetError(f"EWMA span {s!r} given more than once")

    base_cols = table.role_indices(ROLE_INPUT)
    new_names = [f"{name}_ewma{int(s)}" for name in table.input_columns for s in spans]
    clash = set(new_names) & set(table.column_names)
    if clash:
        raise DatasetError(f"derived column name(s) already present: {sorted(clash)}")

    # Step-major layout: block t holds row t of every run longer than t, runs
    # longest first, so each block's runs are a prefix of the block before
    # and one step of every run is one slice operation.
    runs = table.profile_runs()
    starts = np.array([sl.start for _, sl in runs], dtype=np.intp)
    lengths = np.array([sl.stop - sl.start for _, sl in runs], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    active = len(runs) - np.cumsum(np.bincount(lengths))[:-1]  # runs longer than t
    offset = np.cumsum(active) - active                         # block t's first row
    step = np.repeat(np.arange(active.size), active)
    src = starts[order][np.arange(table.n_rows) - offset[step]] + step  # table row

    alpha = 2.0 / (np.array([int(s) for s in spans], dtype=np.float64) + 1.0)
    keep = 1.0 - alpha
    x = table.values[:, base_cols]
    first = len(runs)  # block 0: every run's first row
    y = alpha * x[src, :, None]
    y[first:] += x[src[first:] - 1, :, None] * 0.0  # 0*x_{t-1}
    y[:first] += keep * x[src[:first], :, None]      # y_0
    y = y.reshape(table.n_rows, len(new_names))
    keep = np.tile(keep, len(base_cols))
    prev = y[:first]
    for lo, m in zip(offset[1:].tolist(), active[1:].tolist()):
        cur = y[lo:lo + m]
        cur += keep * prev[:m]
        prev = cur

    n_cols = table.values.shape[1]
    values = np.empty((table.n_rows, n_cols + y.shape[1]))
    values[:, :n_cols] = table.values
    values[src, n_cols:] = y
    return replace(
        table,
        column_names=table.column_names + new_names,
        roles=table.roles + [ROLE_INPUT] * len(new_names),
        values=values,
    )


def split_and_scale(table: RawTable, test_profiles, val_profiles
                    ) -> tuple[RawTable, np.ndarray, np.ndarray]:
    """Tag every row train/val/test by its profile id and map every column
    through (x - min) / (max - min), with the per-column min and max of the
    rows tagged train.  Returns the tagged, scaled table and the mins and maxs.

    Profiles listed but absent from the data only produce a warning.  Sets
    that overlap, a test or val set that swallows every profile, and a split
    that leaves no train row are refused.  Values outside the training range
    land outside [0, 1]; they are not clamped.  Columns constant on train map
    to 0, so they contribute no signal downstream.
    """
    test, val = ({int(p) for p in wanted} for wanted in (test_profiles, val_profiles))
    if test & val:
        raise DatasetError(f"test and val profiles overlap: {sorted(test & val)}")
    present = set(table.profiles())
    for name, wanted in (("test", test), ("val", val)):
        absent = sorted(wanted - present)
        if absent:
            logger.warning("%s profiles %s not present in the data", name, absent)
        if wanted and present <= wanted:
            raise DatasetError(f"{name} profiles would cover every profile in the data")

    tags = np.full(table.n_rows, SPLIT_TRAIN, dtype="U5")
    tags[np.isin(table.profile_ids, sorted(val))] = SPLIT_VAL
    tags[np.isin(table.profile_ids, sorted(test))] = SPLIT_TEST
    counts = {s: int(np.sum(tags == s)) for s in (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST)}
    logger.info("split rows: train=%(train)d val=%(val)d test=%(test)d", counts)
    if not counts[SPLIT_TRAIN]:
        raise DatasetError("no training rows left to fit the scaler on")

    train = table.values[tags == SPLIT_TRAIN]
    mins, maxs = train.min(axis=0), train.max(axis=0)
    del train  # freed before the scaled table is allocated
    degenerate = mins == maxs
    if degenerate.any():
        deg = [c for c, d in zip(table.column_names, degenerate) if d]
        logger.warning("%d column(s) constant on train, will scale to 0: %s", len(deg), deg)
    values = table.values - mins
    values /= np.where(degenerate, 1.0, maxs - mins)
    values[:, degenerate] = 0.0
    return replace(table, values=values, split=tags), mins, maxs


def make_windows(table: RawTable, length: int, stride: int = 1) -> WindowSet:
    """Start rows of fixed-length windows, cut per profile run.

    Windows start at offsets 0, stride, 2*stride, ... within each run and
    never cross a run boundary.  Runs shorter than ``length`` contribute
    no windows.  The table must already carry split tags.
    """
    if table.split is None:
        raise DatasetError("table must be split-tagged before windowing")

    starts = []
    for pid, sl in table.profile_runs():
        n_rows = sl.stop - sl.start
        if expected_window_count(n_rows, length, stride) == 0:
            logger.warning("profile %d run of %d rows is shorter than W=%d, skipped",
                           pid, n_rows, length)
            continue
        starts.append(np.arange(sl.start, sl.stop - length + 1, stride, dtype=np.int64))

    if not starts:
        raise DatasetError(f"no profile run is long enough for W={length}")

    start = np.concatenate(starts)
    ws = WindowSet(
        # take keeps the rows C-ordered, so a window gather copies no table.
        input_rows=table.values.take(table.role_indices(ROLE_INPUT), axis=1),
        target_rows=table.values.take(table.role_indices(ROLE_TARGET), axis=1),
        start=start,
        split=table.split[start],
        window_length=length,
        input_names=list(table.input_columns),
        target_names=list(table.target_columns),
    )
    logger.info("cut %d windows of %d steps (stride %d): train=%d val=%d test=%d",
                len(ws), length, stride,
                int(ws.split_mask(SPLIT_TRAIN).sum()),
                int(ws.split_mask(SPLIT_VAL).sum()),
                int(ws.split_mask(SPLIT_TEST).sum()))
    return ws


def expected_window_count(run_length: int, length: int, stride: int) -> int:
    """Closed-form window count for one run: floor((T-W)/stride)+1 if T >= W."""
    if length < 1:
        raise DatasetError(f"window length must be >= 1, got {length}")
    if stride < 1:
        raise DatasetError(f"stride must be >= 1, got {stride}")
    if run_length < length:
        return 0
    return (run_length - length) // stride + 1


# ---------------------------------------------------------------------------
# Persistence: the processed table and its scaling as one .npz archive.

PROCESSED_ARRAYS = ("values", "profile_ids", "split", "column_names", "roles",
                    "id_column", "scaler_min", "scaler_max")


def save_table(table: RawTable, mins: np.ndarray, maxs: np.ndarray,
               path: str | Path) -> None:
    """Write :func:`split_and_scale`'s table, mins and maxs as one ``.npz`` of
    the arrays named in :data:`PROCESSED_ARRAYS`, readable with ``np.load``.
    Floats are stored in binary, so a reload is bit-exact."""
    with Path(path).open("wb") as fh:  # a file handle keeps numpy from adding ".npz"
        np.savez(fh, values=table.values, profile_ids=table.profile_ids,
                 split=table.split, column_names=np.array(table.column_names),
                 roles=np.array(table.roles), id_column=np.array(table.id_column),
                 scaler_min=mins, scaler_max=maxs)


def load_processed_table(path: str | Path) -> RawTable:
    """Reload the table written by :func:`save_table`.  A missing, unreadable
    or incomplete file, split tags that are not train/val/test or do not line
    up with the rows, and a non-finite value raise :class:`DatasetError`."""
    try:
        with Path(path).open("rb") as fh, np.load(fh) as archive:
            arrays = {name: archive[name] for name in PROCESSED_ARRAYS}
    except (OSError, EOFError, ValueError, KeyError, TypeError,
            zipfile.BadZipFile) as exc:
        raise DatasetError(f"{path}: unreadable processed table: {exc}") from None
    values, split = arrays["values"], arrays["split"]
    if split.shape != values.shape[:1]:
        raise DatasetError(f"{path}: {split.size} split tags for {len(values)} rows")
    bad = np.flatnonzero(~np.isin(split, (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST)))
    if bad.size:
        raise DatasetError(
            f"{path}: row {bad[0] + 1}: bad split tag {str(split[bad[0]])!r}")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise DatasetError(f"{path}: row {bad[0] + 1}: non-finite value")
    return RawTable(
        column_names=arrays["column_names"].tolist(),
        roles=arrays["roles"].tolist(),
        profile_ids=arrays["profile_ids"],
        values=values,
        split=split,
        id_column=str(arrays["id_column"]),
    )
