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
from pathlib import Path

import numpy as np

from . import MixsearchError
from .dataset import WindowSet

MAGIC = b"TSEM"
FORMAT_VERSION = 1
STATS_PER_CHANNEL = 7
MEAN, STD, MIN, MAX, LAST, SLOPE, AUTOCORR = range(STATS_PER_CHANNEL)
FEATURIZE_BLOCK = 256  # windows per featurizer block

PROVENANCE_BUILTIN = "builtin"
PROVENANCE_EXTERNAL = "external"


class EmbeddingError(MixsearchError, ValueError):
    """Raised for malformed embedding matrices or files."""


def featurize_windows(inputs: np.ndarray) -> np.ndarray:
    """Vectorized featurizer over a (n, W, C_in) stack of windows.

    Per channel, in order: mean, standard deviation (population), min, max,
    last value, least-squares slope against the timestep index, and lag-1
    autocorrelation (Pearson correlation of the series against itself
    shifted by one step).  On a constant channel std, slope and
    autocorrelation carry the float mean's rounding (std 1.4e-17 and
    autocorrelation 1.0 on 300 rows of 0.1); :func:`featurize_window_set`
    sets them to exactly 0.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
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


def featurize_window_set(windows: WindowSet) -> np.ndarray:
    """Featurize every window into a C-contiguous (windows, C·7) float32 matrix.

    Windows are featurized :data:`FEATURIZE_BLOCK` at a time by
    :func:`featurize_block`, straight from the per-row table, into one
    float32 output.  It equals :func:`featurize_windows` on the gathered
    stack, cast to float32, except that a channel constant on a window has
    std, slope and autocorrelation exactly 0.  Each block reads the rows
    from its first to its last window, so starts in row order, as
    :func:`~mixsearch.dataset.make_windows` cuts them, keep that span short.
    A window whose statistics overflow float32 is refused, naming its column.
    """
    w = windows.window_length
    if w < 2:
        raise EmbeddingError(f"windows must have at least 2 timesteps, got {w}")
    n, c = len(windows), windows.input_rows.shape[1]
    out = np.empty((n, c * STATS_PER_CHANNEL), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        for i in range(0, n, FEATURIZE_BLOCK):
            stats, _ = featurize_block(windows.input_rows, windows.start[i:i + FEATURIZE_BLOCK], w)
            out[i:i + FEATURIZE_BLOCK] = stats.reshape(len(stats), -1)
            bad = np.argwhere(~np.isfinite(out[i:i + FEATURIZE_BLOCK]))
            if bad.size:
                window, dim = bad[0]
                raise EmbeddingError(f"window {i + window}: the statistics of input column "
                                     f"{windows.input_names[dim // STATS_PER_CHANNEL]!r} "
                                     f"overflow float32; rescale the data")
    return out


def featurize_block(rows: np.ndarray, start: np.ndarray, w: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Statistics of the windows ``rows[start[i] : start[i] + w]`` as
    (len(start), C, 7) float64, and a bound on each one's distance from the
    value :func:`featurize_windows` computes for the same window.

    No window is gathered.  The rows the block spans are recentred, per
    group of overlapping windows (one profile run, at a stride below W), on
    the group's mean as y.  Each window's sums of y, y², j·y and
    y_j·y_{j+1} (j the row's index in the span) are differences of prefix
    sums made exact up to one final rounding by compensation, and its min
    and max come from a van Herk/Gil-Werman scan.  The bound covers the
    rounding of those sums, of the formulas built on them and of the
    reference itself.  A window with a value whose bound reaches a float32
    rounding boundary is featurized by :func:`featurize_windows` instead, so
    every value casts to the reference's float32, except on a channel
    constant on the window: there std, slope and autocorrelation are exactly
    0 (bound 0), where the reference may leave rounding residue.
    """
    first = int(start.min())
    x = rows[first:int(start.max()) + w]
    s = start - first   # each window's first and last row in the span
    e = s + (w - 1)
    r, c = x.shape
    stats = np.empty((start.size, c, STATS_PER_CHANNEL))
    bound = np.zeros_like(stats)
    lo, hi = _sliding_extrema(x, s, w)
    stats[:, :, MIN], stats[:, :, MAX], stats[:, :, LAST] = lo, hi, x[e]

    step = np.diff(s)  # starts out of order make one group
    cut = np.flatnonzero(step >= w) + 1 if (step >= 0).all() else np.empty(0, np.intp)
    first_rows = np.r_[0, s[cut]]
    size = np.diff(np.r_[first_rows, r])
    centre = np.add.reduceat(x, first_rows, axis=0) / size[:, None]
    y = x - np.repeat(centre, size, axis=0)
    mu = np.repeat(centre, np.diff(np.r_[0, cut, s.size]), axis=0)  # each window's centre
    y_first, y_last = y[s], y[e]
    terms, prefix, comp = np.empty((r, c)), np.zeros((r + 1, c)), np.zeros((r + 1, c))
    sums, slack = [], []
    for k in range(4):  # each window's sums of y, y², j·y and y_j·y_{j+1}
        if k == 0:
            terms[...] = y
        elif k == 3:
            np.multiply(y[:-1], y[1:], out=terms[:-1])
            terms[-1] = 0.0
        else:
            np.multiply(y, y if k == 1 else np.arange(r, dtype=np.float64)[:, None], out=terms)
        _compensated_cumsum(terms, prefix, comp)
        end = e if k == 3 else e + 1
        sums.append((prefix[end] - prefix[s]) + (comp[end] - comp[s]))
        slack.append(r * np.abs(comp).max(axis=0))  # comp's own rounding, over 2u
    total, squares, moment, pairs = sums
    del y, terms, prefix, comp

    # Every bound uses eps, twice the unit roundoff, for a factor 2 of slack.
    eps = np.finfo(np.float64).eps
    dev = np.maximum(hi - mu, mu - lo)            # max |y| on the window
    ref_mean = (w + 2) * eps * np.maximum(np.abs(lo), np.abs(hi))  # the reference's mean error
    d_total = eps * (np.abs(total) + w * dev + slack[0])
    d_head = d_total + eps * (np.abs(total) + dev)  # head and tail sums
    # Squared deviations of the window, its head and tail, and the lag product.
    d_square = (eps * (5 * squares + 2 * dev * dev + np.maximum(slack[1], slack[3]))
                + 2 * dev * d_head + d_head * d_head / (w - 1))
    d_moment = eps * (np.abs(moment) + (s[:, None] + w) * w * dev + slack[2])

    stats[:, :, MEAN] = total / w + mu
    bound[:, :, MEAN] = d_total / w + 2 * eps * (np.abs(mu) + dev) + ref_mean

    std = np.sqrt(np.maximum(squares - total * total / w, 0.0) / w)
    d_var = d_square / w + eps * std * std
    stats[:, :, STD] = std
    with np.errstate(divide="ignore", invalid="ignore"):
        bound[:, :, STD] = (d_var / np.maximum(std, np.sqrt(d_var)) + (w + 4) * eps * std
                            + ref_mean * ref_mean / np.maximum(ref_mean, std))

    middle = s[:, None] + (w - 1) / 2             # each window's middle row
    ssq_t = w * (w * w - 1) / 12                  # sum of squared centred timesteps
    slope = (moment - middle * total) / ssq_t
    stats[:, :, SLOPE] = slope
    bound[:, :, SLOPE] = ((d_moment + middle * d_total
                           + eps * (np.abs(moment) + middle * np.abs(total))
                           + (w + 2) * eps * w * w / 4 * (2 * dev + ref_mean)) / ssq_t
                          + eps * np.abs(slope))

    head, tail = total - y_last, total - y_first
    head_sq = squares - y_last * y_last - head * head / (w - 1)
    tail_sq = squares - y_first * y_first - tail * tail / (w - 1)
    denom = np.sqrt(np.maximum(head_sq, 0.0) * np.maximum(tail_sq, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        autocorr = np.where(denom > 0.0, (pairs - head * tail / (w - 1)) / denom, 0.0)
        gain = 1.0 / denom + np.abs(autocorr) * (1.0 / head_sq + 1.0 / tail_sq) / 2
        stats[:, :, AUTOCORR] = autocorr
        bound[:, :, AUTOCORR] = np.where(
            4 * d_square < np.minimum(head_sq, tail_sq),  # else first order does not hold
            2 * gain * (d_square + (w - 1) * ref_mean * ref_mean) + 2 * (w + 4) * eps,
            np.inf)

    zeroed = np.zeros(stats.shape, dtype=bool)
    zeroed[:, :, [STD, SLOPE, AUTOCORR]] = (lo == hi)[:, :, None]
    redo = np.flatnonzero(~(_rounds_alike(stats, bound) | zeroed).all(axis=(1, 2)))
    gathered = x.take(s[redo, None] + np.arange(w), axis=0)  # most often none
    stats[redo] = featurize_windows(gathered).reshape(-1, c, STATS_PER_CHANNEL)
    bound[redo] = 0.0
    stats[zeroed] = bound[zeroed] = 0.0
    return stats, bound


def _compensated_cumsum(terms: np.ndarray, prefix: np.ndarray, comp: np.ndarray) -> None:
    """``prefix[1:]`` = cumsum(terms) and ``comp[1:]`` the cumsum of each
    step's rounding error, found exactly by Knuth's TwoSum, so ``prefix + comp``
    is the exact prefix sum up to ``comp``'s own rounding.  Row 0 of both
    stays as it is; ``terms`` is overwritten."""
    before, after, lost = prefix[:-1], prefix[1:], comp[1:]
    np.cumsum(terms, axis=0, out=after)
    np.subtract(after, before, out=lost)  # the term as it was added
    np.subtract(terms, lost, out=terms)   # what the term lost
    np.subtract(after, lost, out=lost)
    np.subtract(before, lost, out=lost)   # what the running sum lost
    lost += terms
    np.cumsum(lost, axis=0, out=lost)


def _rounds_alike(values: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether every value within ``bound`` of each of ``values`` rounds to
    the same float32: False also where the bound is not finite."""
    single = values.astype(np.float32)
    with np.errstate(invalid="ignore", over="ignore"):
        below = (single.astype(np.float64)
                 + np.nextafter(single, np.float32(-np.inf)).astype(np.float64)) / 2
        above = (single.astype(np.float64)
                 + np.nextafter(single, np.float32(np.inf)).astype(np.float64)) / 2
        return (values - below > bound) & (above - values > bound)


def _sliding_extrema(x: np.ndarray, s: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of ``x[s:s + w]`` for each start ``s``, by the van
    Herk/Gil-Werman scan: running extrema forward and backward within blocks
    of ``w`` rows, so a window is the backward value at its first row and
    the forward value at its last."""
    r, c = x.shape
    padded = np.empty((-(-r // w) * w, c))
    padded[:r] = x
    padded[r:] = x[-1]  # never inside a window
    blocks = padded.reshape(-1, w, c)
    forward, backward = np.empty_like(blocks), np.empty_like(blocks)
    extrema = []
    for op in (np.minimum, np.maximum):
        op.accumulate(blocks, axis=1, out=forward)
        op.accumulate(blocks[:, ::-1], axis=1, out=backward[:, ::-1])
        extrema.append(op(backward.reshape(-1, c)[s], forward.reshape(-1, c)[s + (w - 1)]))
    return extrema[0], extrema[1]


def zscore_features(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Only ``rows`` (indices or a mask) of the (windows, dims) ``matrix`` as
    float64, standardized per dimension on their own statistics; dimensions
    constant on them are only centered."""
    data = matrix[rows].astype(np.float64)
    if data.shape[0] == 0:
        raise EmbeddingError("no training windows to standardize against")
    mu, sigma = data.mean(axis=0), data.std(axis=0)
    data -= mu
    data /= np.where(sigma > 0.0, sigma, 1.0)
    return data


def write_embedding_file(matrix: np.ndarray, path: str | Path) -> None:
    """Write a 2-D float matrix in the TSEM binary layout (see module doc),
    each value rounded to float32 as ``astype(np.float32)`` rounds it."""
    path = Path(path)
    payload = np.ascontiguousarray(matrix, dtype="<f4")  # no copy of float32 on little-endian
    rows, dims = payload.shape
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", rows))
        fh.write(struct.pack("<I", dims))
        fh.write(payload.data)


def read_embedding_file(path: str | Path, expected_rows: int) -> np.ndarray:
    """A TSEM file as a C-contiguous (rows, dims) float32 matrix, refused unless its
    layout holds, dims >= 1, rows == ``expected_rows`` and every value is finite."""
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
        if rows != expected_rows:
            raise EmbeddingError(
                f"{path}: file has {rows} rows but {expected_rows} windows were expected")
        # Read straight into the matrix: no bytes object, no second copy.
        data = np.empty((rows, dims), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise EmbeddingError(f"{path}: payload shrank while it was read")
    if not np.all(np.isfinite(data)):
        raise EmbeddingError(f"{path}: payload contains non-finite values")
    return data
