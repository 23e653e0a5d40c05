import math

import numpy as np
import pytest
from scipy.stats import rankdata

from dpsfit.cohort import Diagnosis
from dpsfit.errors import DegenerateTestError, MetricError
from dpsfit.metrics import bic, mae, midranks, multiclass_auc, nmae, wilcoxon_signed_rank


# ----------------------------------------------------------------------
# ranks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("values", [
    [3.2, -1.0, 7.5, 0.0, 2.2],
    [1.0, 2.0, 2.0, 3.0, 2.0, 1.0, 5.0],
    [4.0, 4.0, 4.0],
    [0.5],
    [],
    np.random.default_rng(0).integers(0, 6, size=200).astype(float),
    np.random.default_rng(1).standard_normal(200),
])
def test_midranks_match_scipy(values):
    np.testing.assert_array_equal(midranks(values), rankdata(values))


# ----------------------------------------------------------------------
# information criterion
# ----------------------------------------------------------------------

def test_bic_hand_arithmetic():
    assert bic(100.0, 10, 1000) == pytest.approx(
        200.0 + 10.0 * math.log(1000.0), rel=1e-12
    )
    assert bic(100.0, 10, 1000) == pytest.approx(269.0776, abs=5e-5)
    assert bic(0.0, 1, 1) == 0.0


def test_bic_penalizes_parameters():
    values = [bic(50.0, q, 500) for q in (1, 5, 25)]
    assert values[0] < values[1] < values[2]


def test_bic_validation():
    with pytest.raises(MetricError):
        bic(1.0, 0, 10)
    with pytest.raises(MetricError):
        bic(1.0, 3, 0)


# ----------------------------------------------------------------------
# absolute errors
# ----------------------------------------------------------------------

def test_mae_hand_cases():
    assert mae({"m": [1.0, 2.0]}, {"m": [1.0, 2.0]}) == {"m": 0.0}
    assert mae({"m": [0.0, 2.0]}, {"m": [1.0, 1.0]}) == {"m": 1.0}


def test_mae_is_invariant_to_pair_order():
    a = {"m": [0.0, 5.0, 2.0]}
    p = {"m": [1.0, 4.0, 0.0]}
    swapped = {"m": [2.0, 0.0, 5.0]}, {"m": [0.0, 1.0, 4.0]}
    assert mae(a, p)["m"] == pytest.approx(mae(*swapped)["m"], rel=1e-15)


def test_mae_skips_missing_pairs():
    out = mae({"m": [1.0, None, 3.0, 4.0]}, {"m": [2.0, 2.0, float("nan"), 4.0]})
    assert out["m"] == pytest.approx((1.0 + 0.0) / 2.0)


def test_mae_validation():
    with pytest.raises(MetricError):
        mae({"m": [1.0]}, {"q": [1.0]})
    with pytest.raises(MetricError):
        mae({"m": [1.0, 2.0]}, {"m": [1.0]})
    with pytest.raises(MetricError, match="no complete pairs"):
        mae({"m": [None, None]}, {"m": [1.0, 2.0]})


def test_nmae_cases():
    assert nmae({"m": 2.0}, {"m": 2.0}) == 1.0
    assert nmae({"m": 1.0}, {"m": 2.0}) == 0.5
    assert nmae({"m": 0.0}, {"m": 3.0}) == 0.0
    assert nmae({"a": 0.5, "b": 1.5}, {"a": 1.0, "b": 1.0}) == pytest.approx(1.0)


def test_nmae_validation():
    with pytest.raises(MetricError):
        nmae({}, {})
    with pytest.raises(MetricError):
        nmae({"m": 1.0}, {})
    with pytest.raises(MetricError, match="spread"):
        nmae({"m": 1.0}, {"m": 0.0})
    with pytest.raises(MetricError, match="biomarker 'm': non-finite spread"):
        nmae({"m": 1.0}, {"m": float("inf")})


# ----------------------------------------------------------------------
# multi-class AUC
# ----------------------------------------------------------------------

def hand_till_oracle(posteriors, truths):
    """Pair-counting Hand-Till AUC, mirroring the production summation order."""
    pairs = [
        (p, t)
        for p, t in zip(posteriors, truths)
        if not (t is None or str(getattr(t, "value", t)) == "Missing")
    ]
    labels = sorted({t for _, t in pairs}, key=lambda x: str(getattr(x, "value", x)))
    total = 0.0
    c = len(labels)
    for i in range(c):
        for k in range(i + 1, c):
            members_i = [p for p, t in pairs if t == labels[i]]
            members_k = [p for p, t in pairs if t == labels[k]]
            n_i, n_k = len(members_i), len(members_k)

            def frac(column, winners, losers):
                count = 0.0
                for x in winners:
                    for y in losers:
                        if x[column] > y[column]:
                            count += 1.0
                        elif x[column] == y[column]:
                            count += 0.5
                return count / (n_i * n_k)

            a_ik = frac(labels[i], members_i, members_k)
            a_ki = frac(labels[k], members_k, members_i)
            total += a_ik + a_ki
    return total / (c * (c - 1))


def one_hot(label, labels, confidence=1.0):
    rest = (1.0 - confidence) / (len(labels) - 1)
    return {x: (confidence if x == label else rest) for x in labels}


def test_auc_perfect_separation():
    labels = [Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD]
    truths = [Diagnosis.CN] * 4 + [Diagnosis.MCI] * 3 + [Diagnosis.AD] * 5
    posteriors = [one_hot(t, labels, confidence=0.9) for t in truths]
    assert multiclass_auc(posteriors, truths) == 1.0


def test_auc_uninformative_posteriors():
    labels = [Diagnosis.CN, Diagnosis.AD]
    truths = [Diagnosis.CN] * 5 + [Diagnosis.AD] * 5
    posteriors = [{Diagnosis.CN: 0.5, Diagnosis.AD: 0.5} for _ in truths]
    assert multiclass_auc(posteriors, truths) == 0.5


def test_auc_matches_pair_counting_oracle_exactly():
    rng = np.random.default_rng(42)
    all_labels = [Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD, Diagnosis.MISSING]
    for _ in range(100):
        n_classes = int(rng.integers(2, 5))
        labels = all_labels[:n_classes] if n_classes < 4 else [
            Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD, "Other",
        ]
        n = int(rng.integers(n_classes, 31))
        truths = [labels[int(rng.integers(0, n_classes))] for _ in range(n)]
        # force every class to appear
        for i, label in enumerate(labels):
            truths[i % n] = label
        posteriors = []
        for _ in range(n):
            raw = rng.random(n_classes)
            raw = np.round(raw, 1)            # coarse grid provokes ties
            raw = raw / max(raw.sum(), 1e-9)
            posteriors.append(dict(zip(labels, raw.tolist())))
        got = multiclass_auc(posteriors, truths)
        want = hand_till_oracle(posteriors, truths)
        assert got == want


def test_auc_invariant_under_monotone_transform_of_scores():
    rng = np.random.default_rng(7)
    labels = [Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD]
    truths = [labels[int(rng.integers(0, 3))] for _ in range(24)]
    for i, label in enumerate(labels):
        truths[i] = label
    posteriors = [
        dict(zip(labels, rng.random(3).tolist())) for _ in range(24)
    ]
    warped = [{k: v**3 for k, v in p.items()} for p in posteriors]
    assert multiclass_auc(warped, truths) == multiclass_auc(posteriors, truths)


def test_auc_excludes_missing_truths():
    labels = [Diagnosis.CN, Diagnosis.AD]
    posteriors = [
        one_hot(Diagnosis.CN, labels), one_hot(Diagnosis.AD, labels),
        {Diagnosis.CN: 0.0, Diagnosis.AD: 1.0},
    ]
    truths = [Diagnosis.CN, Diagnosis.AD, Diagnosis.MISSING]
    with_missing = multiclass_auc(posteriors, truths)
    without = multiclass_auc(posteriors[:2], truths[:2])
    assert with_missing == without == 1.0
    assert multiclass_auc(posteriors, [Diagnosis.CN, Diagnosis.AD, None]) == 1.0


def test_auc_validation():
    labels = [Diagnosis.CN, Diagnosis.AD]
    with pytest.raises(MetricError, match="2 represented"):
        multiclass_auc([one_hot(Diagnosis.CN, labels)] * 3, [Diagnosis.CN] * 3)
    with pytest.raises(MetricError, match="align"):
        multiclass_auc([one_hot(Diagnosis.CN, labels)], [Diagnosis.CN, Diagnosis.AD])
    with pytest.raises(MetricError, match="missing class"):
        multiclass_auc(
            [{Diagnosis.CN: 1.0}, {Diagnosis.CN: 0.2}],
            [Diagnosis.CN, Diagnosis.AD],
        )


# ----------------------------------------------------------------------
# Wilcoxon signed-rank
# ----------------------------------------------------------------------

def exact_two_sided_p(d):
    """Enumerate all sign assignments on the ranked magnitudes."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    w = min(w_plus, w_minus)
    n = d.size
    hits = 0
    for mask in range(2**n):
        wp = sum(ranks[j] for j in range(n) if mask >> j & 1)
        if wp <= w:
            hits += 1
    return w, min(1.0, 2.0 * hits / 2**n)


def test_wilcoxon_all_positive_differences():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    y = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]  # six distinct positive differences
    w, p = wilcoxon_signed_rank(x, y)
    assert w == 0.0
    assert p == pytest.approx(0.03125, rel=1e-12)


def test_wilcoxon_swap_symmetry():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 10)
    y = x + rng.normal(0.3, 0.5, 10)
    assert wilcoxon_signed_rank(x, y) == wilcoxon_signed_rank(y, x)


def test_wilcoxon_identical_samples_degenerate():
    with pytest.raises(DegenerateTestError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])


def test_wilcoxon_drops_zero_differences():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    y = [1.0, 1.0, 1.5, 1.8, 2.0, 2.0, 1.5]  # first pair drops out
    w, p = wilcoxon_signed_rank(x, y)
    assert (w, p) == (0.0, pytest.approx(0.03125))


def test_wilcoxon_exact_path_matches_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(3, 13))
        x = rng.normal(0, 1, n)
        y = x + rng.normal(0.2, 0.7, n)  # continuous: no ties, no zeros
        got_w, got_p = wilcoxon_signed_rank(x, y)
        want_w, want_p = exact_two_sided_p(x - y)
        assert got_w == want_w
        assert got_p == pytest.approx(want_p, rel=1e-12)


def test_wilcoxon_midranks_for_tied_magnitudes():
    x = [2.0, 2.0, 0.0, 3.0]
    y = [1.0, 1.0, 1.0, 1.0]  # differences +1, +1, -1, +2
    w, p = wilcoxon_signed_rank(x, y)
    assert w == 2.0  # the negative unit difference carries midrank 2
    assert 0.0 < p <= 1.0


def test_wilcoxon_large_sample_normal_path():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, 40)
    shifted = x + 0.8 + 0.2 * rng.standard_normal(40)
    _, p_shifted = wilcoxon_signed_rank(shifted, x)
    assert p_shifted < 1e-4
    y = x + 0.01 * rng.standard_normal(40)
    _, p_null = wilcoxon_signed_rank(x, y)
    assert p_null > 0.05
