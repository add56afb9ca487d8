"""Weighted edit-distance matching of a test window against usage history.

The model keeps the owner's whole training symbol sequence as the text and
aligns each test window against its best-matching substring (semi-global
alignment: leading and trailing text are free). Substitutions are graded by
how much of the symbol matches — same app in a shifted context is cheaper
than a different app — and insertions/deletions cost as much as a full
mismatch. The negated distance is the verification score.
"""

from __future__ import annotations

import numpy as np

from ..encode import Vocabulary
from .core import TrainConfig, as_index_array, as_window_matrix, check_indices

INDEL_COST = 3
MISMATCH_COST = 3

# DP cells (windows x (lead + T)) aligned at once; bounds `med` scoring
# memory and keeps a chunk's two int32 rows (512 KiB each) and its int8 cost
# rows within a 2 MiB per-core L2 cache.
CHUNK_CELLS = 1 << 17


class MedModel:
    """Edit-distance matcher over a stored training sequence."""

    method = "med"

    def __init__(self, vocab: Vocabulary, train_indices: np.ndarray):
        arr = as_index_array(train_indices)
        check_indices(arr, vocab.size)
        self.vocab = vocab
        self.train_indices = arr.copy()
        tables = (vocab.symbol_app, vocab.symbol_tz, vocab.symbol_day)
        self._text_attrs = [a[self.train_indices] for a in tables]

    @classmethod
    def fit(
        cls, train_indices, vocab: Vocabulary, config: TrainConfig = TrainConfig(), base=None
    ) -> "MedModel":
        return cls(vocab, np.asarray(train_indices, dtype=np.int64))

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"train_indices": self.train_indices}

    @classmethod
    def from_arrays(cls, vocab: Vocabulary, meta: dict, arrays) -> "MedModel":
        return cls(vocab, arrays["train_indices"])

    def score_windows(self, windows) -> np.ndarray:
        """Negated semi-global alignment distance of each window to the text.

        Only the batch's distinct windows are aligned, in chunks of at most
        CHUNK_CELLS DP cells, against one int8 substitution-cost row per
        distinct symbol of the batch. Memory is O(chunk x T) plus those rows,
        not O(windows x T); the DP is exact int32 arithmetic.

        The running minimum along the text (a text gap) is a few shifted
        minimum passes over flat buffers instead of a cumulative scan. Two
        facts about D[i, j], the distance of window prefix i to text ending
        at j, make that exact:

        - D[i, j] <= INDEL_COST * i (delete the whole prefix), and a text
          gap of length L costs INDEL_COST * L. So in DP row i no gap longer
          than i wins, and passes with shifts 1, 2, 4, ... up to a total
          reach of at least i cover every gap that can.
        - E = D - INDEL_COST * (i + j) is <= 0, so a zero cell never lowers
          a minimum. Each window's row is padded in front with `lead` zero
          cells, more than any row's total shift, so the passes never carry
          a value from one window's row into the next.
        """
        mat = as_window_matrix(windows)
        n = mat.shape[1]
        text_len = self.train_indices.size
        if n > text_len:
            raise ValueError(f"window length {n} exceeds training sequence length {text_len}")
        # Distinct windows, each compared as one raw-bytes value: equal bytes
        # are equal windows, and np.unique(axis=0) is ~10x slower here.
        as_bytes = np.ascontiguousarray(mat).view(np.dtype((np.void, mat.itemsize * n)))
        unique, inverse = np.unique(as_bytes.ravel(), return_inverse=True)
        symbols, rows = np.unique(unique.view(np.int64), return_inverse=True)
        rows = rows.reshape(len(unique), n)

        # A window's DP row is `width` flat cells: `lead` zero cells, the
        # last of them column 0, then text columns 1..T. Row i shifts by at
        # most 2 ** i.bit_length() - 1 <= lead - 1 cells in total.
        lead = 1 << n.bit_length()
        width = lead + text_len
        t_app, t_tz, t_day = self._text_attrs
        check_indices(symbols, self.vocab.size)  # a gather would wrap -1
        tables = (self.vocab.symbol_app, self.vocab.symbol_tz, self.vocab.symbol_day)
        s_app, s_tz, s_day = (a[symbols, None] for a in tables)
        cost = np.zeros((len(symbols), width), dtype=np.int8)
        body = cost[:, lead:]
        body += s_tz != t_tz
        body += s_day != t_day
        body[s_app != t_app] = MISMATCH_COST
        body -= 2 * INDEL_COST

        # The DP runs on E[i, j] = D[i, j] - INDEL_COST * (i + j). In that
        # frame both gap moves cost 0 and a substitution costs
        # cost - 2 * INDEL_COST, so a row is E[i - 1] shifted plus the cost
        # row, a minimum with E[i - 1], and a running minimum along the
        # text that needs to reach only i cells back. E[i, 0] = 0 and, as
        # D[i, j] <= INDEL_COST * i, E <= 0 everywhere: the zero lead cells
        # are neutral. The flat add and the passes write the previous
        # window's values into a window's lead cells, so those are zeroed
        # again before each row's passes; nothing precedes the first
        # window, so its lead cells stay 0 in both buffers and a pass need
        # not write the first `shift` cells.
        dist = np.empty(len(unique), dtype=np.int32)
        step = max(1, CHUNK_CELLS // width)
        ramp = INDEL_COST * np.arange(text_len + 1, dtype=np.int32)
        first_row = np.zeros(width, dtype=np.int32)
        first_row[lead - 1 :] = -ramp  # leading text is free
        for start in range(0, len(unique), step):
            chunk = rows[start : start + step]
            prev = np.tile(first_row, len(chunk))
            cand = np.zeros_like(prev)
            costs = np.empty((len(chunk), width), dtype=np.int8)
            flat_costs = costs.ravel()
            for i in range(1, n + 1):
                # indices are in range; "clip" skips the buffered copy "raise" makes
                np.take(cost, chunk[:, i - 1], axis=0, out=costs, mode="clip")
                np.add(prev[:-1], flat_costs[1:], out=cand[1:])
                np.minimum(cand, prev, out=cand)
                cand.reshape(-1, width)[:, :lead] = 0
                src, dst = cand, prev
                for k in range(i.bit_length()):
                    shift = 1 << k
                    np.minimum(src[shift:], src[:-shift], out=dst[shift:])
                    src, dst = dst, src
                prev, cand = src, dst
            # trailing text is free
            last = prev.reshape(len(chunk), width)[:, lead - 1 :]
            dist[start : start + step] = (last + ramp).min(axis=1) + INDEL_COST * n
        return -dist[inverse].astype(np.float64)
