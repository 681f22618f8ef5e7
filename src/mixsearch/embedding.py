"""Per-window embeddings: a built-in statistical featurizer plus file I/O
for externally computed embedding matrices.

The built-in path summarizes each input channel with seven statistics
(mean, std, min, max, last value, linear-trend slope, lag-1 autocorrelation),
concatenated channel-major.  Externally produced embeddings are ingested
through the TSEM binary format described below, so a foundation encoder can
replace the featurizer without touching the rest of the pipeline.

TSEM format, little-endian throughout:

    bytes 0..3    magic "TSEM"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..15   row count, uint64
    bytes 16..19  embedding dimension, uint32
    then          rows * dims IEEE-754 float32 values, row-major
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import WindowSet

MAGIC = b"TSEM"
FORMAT_VERSION = 1
STATS_PER_CHANNEL = 7
FEATURIZE_BLOCK = 256  # windows gathered per featurizer call

PROVENANCE_BUILTIN = "builtin"
PROVENANCE_EXTERNAL = "external"


class EmbeddingError(ValueError):
    """Raised for malformed embedding matrices or files."""


@dataclass
class EmbeddingMatrix:
    """One fixed-length float32 vector per window."""

    data: np.ndarray  # (rows, dims) float32
    provenance: str

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or self.data.shape[1] < 1:
            raise EmbeddingError("embedding matrix must be 2-D with dims >= 1")
        if not np.all(np.isfinite(self.data)):
            raise EmbeddingError("embedding matrix contains non-finite values")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        return self.data.shape[1]


def featurize_windows(inputs: np.ndarray) -> np.ndarray:
    """Vectorized featurizer over a (n, W, C_in) stack of windows.

    Per channel, in order: mean, standard deviation (population), min, max,
    last value, least-squares slope against the timestep index, and lag-1
    autocorrelation (Pearson correlation of the series against itself
    shifted by one step).  A constant channel yields std 0, slope 0 and
    autocorrelation 0.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise EmbeddingError("expected a (n, W, C) window stack")
    n, w, c = inputs.shape
    if w < 2:
        raise EmbeddingError(f"windows must have at least 2 timesteps, got {w}")

    mean = inputs.mean(axis=1)
    std = inputs.std(axis=1)
    lo = inputs.min(axis=1)
    hi = inputs.max(axis=1)
    last = inputs[:, -1, :]

    t = np.arange(w, dtype=np.float64)
    tc = t - t.mean()
    slope = np.einsum("w,nwc->nc", tc, inputs - mean[:, None, :]) / np.sum(tc * tc)

    head = inputs[:, :-1, :]
    tail = inputs[:, 1:, :]
    hc = head - head.mean(axis=1, keepdims=True)
    tlc = tail - tail.mean(axis=1, keepdims=True)
    num = np.sum(hc * tlc, axis=1)
    denom = np.sqrt(np.sum(hc * hc, axis=1) * np.sum(tlc * tlc, axis=1))
    autocorr = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)

    stats = np.stack([mean, std, lo, hi, last, slope, autocorr], axis=2)  # (n, C, 7)
    return stats.reshape(n, c * STATS_PER_CHANNEL)


def featurize_window_set(windows: WindowSet) -> EmbeddingMatrix:
    """Featurize every window into a builtin-provenance embedding matrix.

    Windows are gathered and featurized :data:`FEATURIZE_BLOCK` at a time,
    so memory stays bounded by one block; each window's statistics depend
    on that window alone, so the result equals one call on the full stack.
    """
    blocks = [featurize_windows(windows.inputs[i:i + FEATURIZE_BLOCK])
              for i in range(0, len(windows), FEATURIZE_BLOCK)]
    return EmbeddingMatrix(np.concatenate(blocks).astype(np.float32),
                           provenance=PROVENANCE_BUILTIN)


def zscore_features(matrix: EmbeddingMatrix, train_mask: np.ndarray) -> np.ndarray:
    """Standardize each dimension using statistics of the training windows.

    Returns float64 data ready for clustering.  Dimensions constant on the
    training windows are centered but not rescaled.
    """
    train_mask = np.asarray(train_mask, dtype=bool)
    if train_mask.shape != (matrix.rows,):
        raise EmbeddingError("train mask length must equal the number of rows")
    if not train_mask.any():
        raise EmbeddingError("no training windows to standardize against")
    data = matrix.data.astype(np.float64)
    train = data[train_mask]
    mu, sigma = train.mean(axis=0), train.std(axis=0)
    data -= mu
    data /= np.where(sigma > 0.0, sigma, 1.0)
    return data


def write_embedding_file(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write a matrix in the TSEM binary layout (bit-exact, see module doc)."""
    path = Path(path)
    payload = np.ascontiguousarray(matrix.data, dtype="<f4").tobytes()
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", matrix.rows))
        fh.write(struct.pack("<I", matrix.dims))
        fh.write(payload)


def read_embedding_file(path: str | Path, expected_rows: int | None) -> EmbeddingMatrix:
    """Read a TSEM file, validating layout, finiteness and row count."""
    path = Path(path)
    if not path.exists():
        raise EmbeddingError(f"no such file: {path}")
    header_len = 4 + 4 + 8 + 4
    with path.open("rb") as fh:
        raw = fh.read(header_len)
        if len(raw) < header_len:
            raise EmbeddingError(f"{path}: truncated header")
        if raw[:4] != MAGIC:
            raise EmbeddingError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
        version, = struct.unpack_from("<I", raw, 4)
        if version != FORMAT_VERSION:
            raise EmbeddingError(f"{path}: unsupported format version {version}")
        rows, = struct.unpack_from("<Q", raw, 8)
        dims, = struct.unpack_from("<I", raw, 16)
        if dims < 1:
            raise EmbeddingError(f"{path}: dimension must be >= 1, got {dims}")
        payload_bytes = os.fstat(fh.fileno()).st_size - header_len
        if payload_bytes != rows * dims * 4:
            raise EmbeddingError(
                f"{path}: payload is {payload_bytes} bytes, "
                f"expected {rows * dims * 4} for {rows}x{dims}")
        if expected_rows is not None and rows != expected_rows:
            raise EmbeddingError(
                f"{path}: file has {rows} rows but {expected_rows} windows were expected")
        # Read straight into the matrix: no bytes object, no second copy.
        data = np.empty((rows, dims), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise EmbeddingError(f"{path}: payload shrank while it was read")
    if not np.all(np.isfinite(data)):
        raise EmbeddingError(f"{path}: payload contains non-finite values")
    return EmbeddingMatrix(data, provenance=PROVENANCE_EXTERNAL)
