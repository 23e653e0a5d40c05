"""Model selection and evaluation metrics.

Covers the Bayesian information criterion on the robust training loss,
(normalized) mean absolute prediction errors, the Hand-Till multi-class
generalization of the ROC area, and a paired two-sided Wilcoxon
signed-rank test for comparing methods across bootstrap replicates.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateTestError, MetricError

__all__ = [
    "midranks",
    "bic",
    "mae",
    "nmae",
    "multiclass_auc",
    "wilcoxon_signed_rank",
]


def midranks(values) -> np.ndarray:
    """1-based ranks of ``values``, tied entries sharing their average rank."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], arr.size]
    ranks = np.empty(arr.size)
    # A tie block at sorted positions starts..ends-1 has ranks starts+1..ends.
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def bic(e_train: float, n_params: int, n_measurements: int) -> float:
    """Bayesian information criterion ``2 E + Q ln N``.

    ``e_train`` is the robust training loss at the selected iteration,
    ``n_params`` the total number of fitted parameters (curves plus two per
    subject) and ``n_measurements`` the number of training points.
    """
    if n_measurements < 1:
        raise MetricError("BIC needs at least one measurement")
    if n_params < 1:
        raise MetricError("BIC needs at least one parameter")
    return 2.0 * float(e_train) + n_params * math.log(n_measurements)


def mae(
    actual: Mapping[str, Sequence[float]],
    predicted: Mapping[str, Sequence[float]],
) -> dict[str, float]:
    """Per-biomarker mean absolute error over aligned value pairs.

    Pairs where either side is missing (``None`` or NaN) are skipped; a
    biomarker with no complete pair has no error and raises.
    """
    if set(actual) != set(predicted):
        raise MetricError("actual and predicted must cover the same biomarkers")
    out: dict[str, float] = {}
    for name in sorted(actual):
        # None becomes NaN here, so one test skips both kinds of gap.
        a = _float_array(actual[name])
        p = _float_array(predicted[name])
        if a.size != p.size:
            raise MetricError(f"biomarker {name!r}: unequal pair counts")
        complete = ~(np.isnan(a) | np.isnan(p))
        if not complete.any():
            raise MetricError(f"biomarker {name!r}: no complete pairs")
        out[name] = float(np.mean(np.abs(a[complete] - p[complete])))
    return out


def _float_array(values) -> np.ndarray:
    """``values``, an array or any iterable of numbers or None, as floats."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=float)


def nmae(
    mae_by_biomarker: Mapping[str, float],
    sd_by_biomarker: Mapping[str, float],
) -> float:
    """Mean over biomarkers of MAE divided by the evaluation-set spread.

    Values below one mean predictions beat the per-biomarker standard
    deviation, i.e. the model explains more than a constant would.
    """
    if not mae_by_biomarker:
        raise MetricError("no biomarkers to normalize")
    if set(mae_by_biomarker) - set(sd_by_biomarker):
        raise MetricError("missing spread for some biomarkers")
    ratios = []
    for name in sorted(mae_by_biomarker):
        sd = float(sd_by_biomarker[name])
        if not math.isfinite(sd):
            raise MetricError(f"biomarker {name!r}: non-finite spread")
        if not sd > 0:
            raise MetricError(f"biomarker {name!r}: non-positive spread")
        ratios.append(float(mae_by_biomarker[name]) / sd)
    return float(np.mean(ratios))


def multiclass_auc(posteriors: Sequence[Mapping], truths: Sequence) -> float:
    """Hand-Till area under the ROC surface for 2+ classes.

    Averages, over all ordered class pairs, the probability that a member
    of one class receives a higher posterior for that class than a member
    of the other, with ties counted half.  Entries whose truth is missing
    (``None`` or the missing diagnosis) are excluded.
    """

    def is_missing(label) -> bool:
        return label is None or str(getattr(label, "value", label)) == "Missing"

    posteriors = list(posteriors)
    truths = list(truths)
    if len(posteriors) != len(truths):
        raise MetricError("posteriors and truths must align")
    pairs = [(p, t) for p, t in zip(posteriors, truths) if not is_missing(t)]
    labels = sorted({t for _, t in pairs}, key=lambda x: str(getattr(x, "value", x)))
    if len(labels) < 2:
        raise MetricError("need at least 2 represented classes")
    for p, _ in pairs:
        for label in labels:
            if label not in p:
                raise MetricError(f"posterior missing class {label!r}")

    total = 0.0
    n_c = len(labels)
    for i in range(n_c):
        for k in range(i + 1, n_c):
            members_i = [p for p, t in pairs if t == labels[i]]
            members_k = [p for p, t in pairs if t == labels[k]]
            n_i, n_k = len(members_i), len(members_k)
            col_i = np.array([p[labels[i]] for p in members_i + members_k])
            ranks_i = midranks(col_i)
            sr_i = float(ranks_i[:n_i].sum())
            a_ik = (sr_i - n_i * (n_i + 1) / 2.0) / (n_i * n_k)
            col_k = np.array([p[labels[k]] for p in members_i + members_k])
            ranks_k = midranks(col_k)
            sr_k = float(ranks_k[n_i:].sum())
            a_ki = (sr_k - n_k * (n_k + 1) / 2.0) / (n_i * n_k)
            total += a_ik + a_ki
    return total / (n_c * (n_c - 1))


def _exact_signed_rank_cdf(n: int, w: int) -> float:
    """P(W+ <= w) under random signs on ranks 1..n (no ties)."""
    max_sum = n * (n + 1) // 2
    ways = np.zeros(max_sum + 1, dtype=float)
    ways[0] = 1.0
    for k in range(1, n + 1):
        shifted = np.zeros_like(ways)
        shifted[k:] = ways[:-k]
        ways = ways + shifted
    return float(ways[: w + 1].sum() / 2.0**n)


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Paired two-sided Wilcoxon signed-rank test.

    Zero differences are dropped; tied magnitudes get midranks.  The
    statistic is ``min(W+, W-)``.  For 25 or fewer untied pairs the p-value
    is exact (full enumeration of sign assignments); otherwise a normal
    approximation with tie correction and continuity correction is used.

    Returns ``(statistic, p_value)``.
    """
    xa = np.asarray(list(x), dtype=float)
    ya = np.asarray(list(y), dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise MetricError("paired samples must be equal-length vectors")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise MetricError("paired samples must be finite")
    d = xa - ya
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise DegenerateTestError("all paired differences are zero")

    magnitudes = np.abs(d)
    ranks = midranks(magnitudes)
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    has_ties = np.unique(magnitudes).size < n
    if n <= 25 and not has_ties:
        p = min(1.0, 2.0 * _exact_signed_rank_cdf(n, int(round(w))))
        return w, p

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(magnitudes, return_counts=True)
    var -= float(np.sum(counts.astype(float) ** 3 - counts)) / 48.0
    if var <= 0:
        raise DegenerateTestError("all differences are tied; variance is zero")
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return w, p
