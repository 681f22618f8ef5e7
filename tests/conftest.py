import numpy as np
import pytest

from mixsearch.dataset import RawTable, WindowSet


@pytest.fixture
def csv_factory(tmp_path):
    """Write a small CSV from a header and rows of cell strings."""
    counter = {"n": 0}

    def write(header, rows):
        counter["n"] += 1
        path = tmp_path / f"data_{counter['n']}.csv"
        lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    return write


def make_table(values, profile_ids, roles=None, names=None, split=None):
    values = np.asarray(values, dtype=np.float64)
    n_cols = values.shape[1]
    roles = roles or ["input"] * (n_cols - 1) + ["target"]
    names = names or [f"c{i}" for i in range(n_cols)]
    return RawTable(
        column_names=list(names),
        roles=list(roles),
        profile_ids=np.asarray(profile_ids, dtype=np.int64),
        values=values,
        split=None if split is None else np.asarray(split, dtype="U5"),
    )


def make_window_set(inputs, targets, split=None,
                    input_names=None, target_names=None):
    """A WindowSet whose (n, W, C) ``inputs``/``targets`` stacks are laid out
    back to back as rows: window i starts at row i*W."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n, w, _ = inputs.shape
    return WindowSet(
        input_rows=inputs.reshape(n * w, -1),
        target_rows=targets.reshape(n * w, -1),
        start=np.arange(n, dtype=np.int64) * w,
        split=(np.full(n, "train", dtype="U5") if split is None
               else np.asarray(split, dtype="U5")),
        window_length=w,
        input_names=input_names or [f"in{i}" for i in range(inputs.shape[2])],
        target_names=target_names or [f"tgt{i}" for i in range(targets.shape[2])],
    )
