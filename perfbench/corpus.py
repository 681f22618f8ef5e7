"""Seeded profile corpus for the benchmark workloads.

The file has the column layout of ``mixsearch.benchmark.write_raw_profile_csv``
(``profile_id,u_d,u_q,speed,pm,winding``, floats written with ``repr``), so
``mixsearch preprocess`` ingests it like any measured table.

Twelve profiles: six are held out with the ``preprocess`` default split (val
18, 39, 46, 56, 75; test 65) and six train.  Each profile draws from one of
six regimes with its own level and oscillation shape.  In the three *signal*
regimes the targets follow one linear law of the inputs; in the three
*noise* regimes, whose levels interleave with theirs, the targets are drawn
independently of the inputs from a range above the law's outputs.  Every
regime has one training profile, and the held-out profiles are fresh draws
of the signal regimes.  Training on the whole corpus therefore pulls the fit
off the law, and a mixture that down-weights the noise clusters scores a
lower validation MSE: ``val_mse_ratio`` measures the paper's less-is-more
effect.  Noise targets centred on the law's outputs would harm the fit only
by chance, and on some seeds not at all.

The seed draws the noise only; the regimes' shapes are fixed, so every seed
poses the same problem at the same cost.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HEADER = ["profile_id", "u_d", "u_q", "speed", "pm", "winding"]
SCHEMA = {"profile_id": "id", "u_d": "input", "u_q": "input",
          "speed": "input", "pm": "target", "winding": "target"}

VAL_PROFILES = (18, 39, 46, 56, 75)   # `mixsearch preprocess` defaults
TEST_PROFILES = (65,)
TRAIN_SIGNAL_PROFILES = (3, 27, 50)
TRAIN_NOISE_PROFILES = (11, 33, 61)
N_REGIMES = 6
# Profile id -> regime.  Even regimes are signal regimes, odd ones noise
# regimes, so their levels interleave.
REGIMES = {**dict(zip(TRAIN_SIGNAL_PROFILES, (0, 2, 4))),
           **dict(zip(TRAIN_NOISE_PROFILES, (1, 3, 5))),
           **dict(zip(VAL_PROFILES + TEST_PROFILES, (0, 2, 4, 0, 2, 4)))}
PROFILE_IDS = tuple(sorted(REGIMES))
SIGNAL_PROFILES = frozenset(p for p, r in REGIMES.items() if r % 2 == 0)

TARGET_COEF = np.array([[0.5, -0.2], [0.3, 0.6], [-0.4, 0.3]])
TARGET_BIAS = 0.3
TARGET_NOISE = 0.01
INPUT_NOISE = 0.02
NOISE_TARGET_RANGE = (1.2, 1.8)
SEED_STREAM = 307


def profile_series(rng: np.random.Generator, regime: int,
                   rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, 3) inputs and (rows, 2) targets of one profile of ``regime``."""
    t = np.arange(rows) / rows
    level = regime / N_REGIMES
    phase = 2.0 * np.pi * (regime + 1) * np.array([0.1, 0.4, 0.7])
    x = np.stack([
        level + 0.05 * np.sin(2 * np.pi * (1 + regime % 3) * t + phase[0]),
        level + 0.1 + 0.04 * np.cos(2 * np.pi * t + phase[1]),
        level + 0.2 + 0.03 * np.sin(2 * np.pi * (2 + regime % 2) * t + phase[2]),
    ], axis=1)
    x = x + INPUT_NOISE * rng.standard_normal(x.shape)
    if regime % 2 == 0:
        y = x @ TARGET_COEF + TARGET_BIAS
        y = y + TARGET_NOISE * rng.standard_normal(y.shape)
    else:
        y = rng.uniform(*NOISE_TARGET_RANGE, size=(rows, 2))
    return x, y


def write_corpus(out_dir: str | Path, seed: int,
                 rows_per_profile: int) -> tuple[Path, Path]:
    """Write ``profiles.csv`` and ``schema.txt`` into ``out_dir``.

    The same seed and size give byte-identical files.  Returns both paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, SEED_STREAM)))
    lines = [",".join(HEADER)]
    for pid in PROFILE_IDS:
        x, y = profile_series(rng, REGIMES[pid], rows_per_profile)
        for row in np.hstack([x, y]):
            lines.append(",".join([str(pid)] + [repr(float(v)) for v in row]))
    data_path = out / "profiles.csv"
    schema_path = out / "schema.txt"
    data_path.write_text("\n".join(lines) + "\n")
    schema_path.write_text("".join(f"{c}={r}\n" for c, r in SCHEMA.items()))
    return data_path, schema_path
