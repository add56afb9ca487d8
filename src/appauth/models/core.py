"""Shared numeric plumbing for the verification models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probability floor used by every smoothed model.
DEFAULT_DELTA = float(np.exp(-20.0))

DEFAULT_N_STATES = 20
DEFAULT_MAX_ITER = 50
DEFAULT_TOL = 1e-6


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
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


def as_index_array(window) -> np.ndarray:
    """Validate and coerce a symbol-index window to a 1-D int64 array."""
    arr = np.asarray(window, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"window must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("window must be non-empty")
    return arr


def as_window_matrix(windows) -> np.ndarray:
    """Coerce a batch of equal-length windows to a (W, n) int64 array."""
    arr = np.asarray(windows, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"expected (W, n) window batch, got shape {arr.shape}")
    return arr


def check_indices(arr: np.ndarray, size: int) -> None:
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValueError(f"symbol index out of range [0, {size})")


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


def assert_stochastic(matrix: np.ndarray, tol: float = 1e-9) -> None:
    """Raise unless every row sums to 1 within tol; NaN and inf rows fail."""
    worst = np.abs(np.asarray(matrix, dtype=np.float64).sum(axis=-1) - 1.0).max(initial=0.0)
    if not worst <= tol:
        raise ValueError(f"rows not stochastic (max deviation {worst:.3e})")
