"""The vectorised score-table consumers against a plain loop over rows."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import score_table
from appauth.evaluation import confusion_counts, eer_threshold, roc_curve
from appauth.simulate import genuine_score_thresholds

# Few distinct values, so ties across and within the two sides are common;
# both signed zeros are drawn.
VALUES = (-2.0, -1.5, -0.0, 0.0, 0.5, 1.0, 3.0)


def oracle_confusion(rows, threshold):
    tp = fp = tn = fn = 0
    for mo, wo, score in rows:
        accept = score >= threshold
        if mo == wo:
            tp += accept
            fn += not accept
        else:
            fp += accept
            tn += not accept
    return tp, fp, tn, fn


def oracle_sweep(rows):
    genuine = [s for mo, wo, s in rows if mo == wo]
    impostor = [s for mo, wo, s in rows if mo != wo]
    if not genuine or not impostor:
        raise ValueError("one side is empty")
    thresholds = sorted(set(genuine + impostor))
    thresholds.append(thresholds[-1] + 1.0)
    points = []
    for t in thresholds:
        far = sum(1 for s in impostor if s >= t) / len(impostor)
        frr = sum(1 for s in genuine if s < t) / len(genuine)
        points.append((t, far, frr))
    return points


def oracle_eer_threshold(rows):
    points = oracle_sweep(rows)
    diff = [frr - far for _, far, frr in points]
    above = next(i for i, d in enumerate(diff) if d > 0.0)
    k = above - 1
    lam = -diff[k] / (diff[above] - diff[k]) if diff[above] != diff[k] else 0.0
    far_k, far_above = points[k][1], points[above][1]
    pick = k if abs(diff[k]) <= abs(diff[above]) else above
    return 100.0 * (far_k + lam * (far_above - far_k)), points[pick][0]


def oracle_thresholds(rows, percentile):
    by_user: dict[str, list[float]] = {}
    for mo, wo, score in rows:
        if mo == wo:
            by_user.setdefault(mo, []).append(score)
    return {u: float(np.percentile(by_user[u], percentile)) for u in sorted(by_user)}


def random_rows(rng, kind):
    users = ["a", "b", "c"][: int(rng.integers(1, 4))]
    rows = []
    for _ in range(int(rng.integers(1, 30))):
        mo = users[int(rng.integers(len(users)))]
        if kind == "genuine":
            wo = mo
        elif kind == "impostor":
            wo = f"x{rng.integers(2)}"
        else:
            wo = users[int(rng.integers(len(users)))]
        rows.append((mo, wo, VALUES[int(rng.integers(len(VALUES)))]))
    return rows


@pytest.mark.parametrize("kind", ["mixed", "genuine", "impostor"])
def test_vectorised_consumers_match_row_loop(kind):
    rng = np.random.default_rng({"mixed": 0, "genuine": 1, "impostor": 2}[kind])
    for _ in range(300):
        rows = random_rows(rng, kind)
        table = score_table(rows)
        for threshold in (-0.0, 0.0, 0.25, float(rng.choice(VALUES))):
            cc = confusion_counts(table, threshold)
            assert (cc.tp, cc.fp, cc.tn, cc.fn) == oracle_confusion(rows, threshold)
        for p in (0.0, 5.0, 50.0):
            assert genuine_score_thresholds(table, p) == oracle_thresholds(rows, p)
        has_both = any(mo == wo for mo, wo, _ in rows) and any(mo != wo for mo, wo, _ in rows)
        if not has_both:
            with pytest.raises(ValueError):
                roc_curve(table)
            continue
        curve = roc_curve(table)
        assert list(map(tuple, curve.tolist())) == oracle_sweep(rows)
        assert eer_threshold(curve) == oracle_eer_threshold(rows)
