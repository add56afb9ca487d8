"""Shared numeric plumbing for the verification models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probability floor used by every smoothed model.
DEFAULT_DELTA = float(np.exp(-20.0))

DEFAULT_N_STATES = 20
DEFAULT_MAX_ITER = 50
DEFAULT_TOL = 1e-6

# How far a probability row's sum may stray from 1.
STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TrainConfig:
    """Knobs shared by the model trainers; only the relevant ones apply to
    each method."""

    delta: float = DEFAULT_DELTA  # probability floor wherever counts can be zero
    n_states: int = DEFAULT_N_STATES
    max_iter: int = DEFAULT_MAX_ITER
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self) -> None:
        check_floor(self.delta)
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        # NaN fails the comparison; Infinity stops at the first check
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def check_floor(delta: float) -> float:
    """The probability floor, which every smoothed model needs in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return delta


def as_index_array(window, size: int) -> np.ndarray:
    """Validate a symbol-index window: a non-empty 1-D integer array of
    indices in [0, size), returned as int64."""
    arr = np.asarray(window)
    if arr.ndim != 1:
        raise ValueError(f"window must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("window must be non-empty")
    return check_indices(arr, size)


def as_window_matrix(windows, size: int) -> np.ndarray:
    """Validate a batch of equal-length windows: a (W, n) integer array of
    indices in [0, size), returned as int64; a single window is a (1, n)
    batch."""
    arr = np.asarray(windows)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"expected (W, n) window batch, got shape {arr.shape}")
    return check_indices(arr, size)


def check_indices(arr: np.ndarray, size: int) -> np.ndarray:
    """arr as int64, or ValueError if its dtype is not an integer one (a
    float or bool index is never truncated) or an entry is outside [0, size)."""
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"symbol indices must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValueError(f"symbol index out of range [0, {size})")
    return arr.astype(np.int64, copy=False)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize non-negative counts; all-zero rows become uniform."""
    m = np.asarray(matrix, dtype=np.float64)
    sums = m.sum(axis=1, keepdims=True)
    dead = sums[:, 0] == 0.0
    out = np.where(dead[:, None], 1.0 / m.shape[1], m / np.where(sums == 0.0, 1.0, sums))
    return out


def random_simplex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Rows of uniform variates normalized to sum to one."""
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def assert_stochastic(matrix: np.ndarray) -> None:
    """Raise unless every entry is >= 0 and every row sums to 1 within
    STOCHASTIC_TOL; NaN and inf fail."""
    m = np.asarray(matrix, dtype=np.float64)
    worst = np.abs(m.sum(axis=-1) - 1.0).max(initial=0.0)
    if not worst <= STOCHASTIC_TOL:
        raise ValueError(f"rows not stochastic (max deviation {worst:.3e})")
    if not m.min(initial=0.0) >= 0.0:
        raise ValueError("rows not stochastic (negative entry)")
