import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsfit.curves import (
    CurveArrays,
    CurveParams,
    LogisticKind,
    dps_gradient,
    evaluate,
    inflection_point,
    param_gradient,
    value_and_gradients,
)
from dpsfit.errors import DomainError

ALL_KINDS = list(LogisticKind)

PARAM_NAMES = ("a", "d", "b", "c", "gamma")


def make(kind, a=1.0, d=0.0, b=1.0, c=0.0, gamma=1.0):
    return CurveParams(kind=kind, a=a, d=d, b=b, c=c, gamma=gamma)


def finite_difference_param(p, s, name, h=1e-5):
    hi = evaluate(p.replace(**{name: getattr(p, name) + h}), s)
    lo = evaluate(p.replace(**{name: getattr(p, name) - h}), s)
    return (hi - lo) / (2 * h)


def finite_difference_score(p, s, h=1e-5):
    return (evaluate(p, s + h) - evaluate(p, s - h)) / (2 * h)


# ----------------------------------------------------------------------
# fixed values
# ----------------------------------------------------------------------

def test_verhulst_value_at_inflection():
    p = make(LogisticKind.VERHULST, a=1, d=0, b=2, c=1)
    assert evaluate(p, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_gompertz_value_at_inflection():
    p = make(LogisticKind.GOMPERTZ, a=1, d=0, b=1, c=0)
    assert evaluate(p, 0.0) == pytest.approx(math.exp(-1), abs=1e-15)


def test_modified_stannard_value_at_inflection():
    p = make(LogisticKind.MODIFIED_STANNARD, a=1, d=0, b=1, c=0, gamma=2)
    assert evaluate(p, 0.0) == pytest.approx((1 + 0.5) ** -2, abs=1e-15)
    assert evaluate(p, 0.0) == pytest.approx(4 / 9, abs=1e-15)


def test_richards_gamma_one_equals_verhulst_pointwise():
    r = make(LogisticKind.RICHARDS, b=1.3, c=-0.2, gamma=1.0)
    v = make(LogisticKind.VERHULST, b=1.3, c=-0.2)
    assert evaluate(r, 0.37) == pytest.approx(evaluate(v, 0.37), abs=1e-15)


def test_dps_gradient_verhulst_at_inflection():
    p = make(LogisticKind.VERHULST, a=1, d=0, b=2, c=0)
    # b * g * (1 - g) with g = 1/2
    assert dps_gradient(p, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_dps_gradient_gompertz_value():
    p = make(LogisticKind.GOMPERTZ, a=1, d=0, b=1, c=0)
    w = math.exp(-1.0)
    expected = w * math.exp(-w)  # b * w * exp(-w) at s = 1
    assert dps_gradient(p, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.25465, abs=5e-6)


def test_flat_curve_has_zero_gradient():
    for kind in ALL_KINDS:
        p = make(kind, a=2.5, d=2.5, b=1.0, c=0.0)
        s = np.linspace(-5, 5, 11)
        assert np.all(evaluate(p, s) == 2.5)
        assert np.all(dps_gradient(p, s) == 0.0)


def test_inflection_point_returns_c():
    for kind in ALL_KINDS:
        assert inflection_point(make(kind, c=3.003)) == 3.003
        assert inflection_point(make(kind, c=0.0)) == 0.0


# ----------------------------------------------------------------------
# derivative consistency
# ----------------------------------------------------------------------

def test_param_gradient_asymptote_columns_are_growth_fractions():
    rng = np.random.default_rng(1)
    for kind in ALL_KINDS:
        p = make(kind, a=3.0, d=-1.0, b=0.8, c=0.5, gamma=1.7)
        s = rng.uniform(-4, 4, size=20)
        grads = param_gradient(p, s)
        g = (evaluate(p, s) - p.d) / (p.a - p.d)
        np.testing.assert_allclose(grads[:, 0], g, atol=1e-14)
        np.testing.assert_allclose(grads[:, 1], 1.0 - g, atol=1e-14)


def test_param_gradient_c_column_is_negative_slope():
    for kind in ALL_KINDS:
        p = make(kind, a=2.0, d=0.5, b=1.1, c=-0.3, gamma=0.6)
        s = np.linspace(-3, 3, 13)
        grads = param_gradient(p, s)
        np.testing.assert_allclose(grads[:, 3], -dps_gradient(p, s), atol=1e-14)


def test_param_gradient_modified_stannard_case():
    p = make(LogisticKind.MODIFIED_STANNARD, a=1, d=0, b=1, c=0, gamma=1.5)
    s = 0.4
    grads = param_gradient(p, s)
    for i, name in enumerate(PARAM_NAMES):
        fd = finite_difference_param(p, s, name)
        assert grads[i] == pytest.approx(fd, rel=1e-6, abs=1e-9), name


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_param_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = make(
            kind,
            a=rng.uniform(0.5, 30.0),
            d=rng.uniform(-5.0, 0.4),
            b=rng.uniform(0.1, 4.0),
            c=rng.uniform(-3.0, 3.0),
            gamma=rng.uniform(0.25, 4.0),
        )
        s = p.c + rng.uniform(-5.0, 5.0) / p.b
        grads = param_gradient(p, s)
        for i, name in enumerate(PARAM_NAMES):
            fd = finite_difference_param(p, s, name)
            err = abs(grads[i] - fd)
            assert err <= 1e-5 * max(1.0, abs(grads[i]), abs(fd)), (name, p)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dps_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = make(
            kind,
            a=rng.uniform(0.5, 10.0),
            d=rng.uniform(-2.0, 0.4),
            b=rng.uniform(0.1, 4.0),
            c=rng.uniform(-3.0, 3.0),
            gamma=rng.uniform(0.25, 4.0),
        )
        s = p.c + rng.uniform(-5.0, 5.0) / p.b
        an = dps_gradient(p, s)
        fd = finite_difference_score(p, s)
        assert abs(an - fd) <= 1e-5 * max(1.0, abs(an), abs(fd))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_second_difference_vanishes_at_inflection(kind):
    p = make(kind, a=4.0, d=-1.0, b=1.3, c=0.7, gamma=2.2)
    h = 1e-4
    second = evaluate(p, p.c + h) - 2 * evaluate(p, p.c) + evaluate(p, p.c - h)
    normalized = second / (h * h) / (p.b**2 * abs(p.a - p.d))
    assert abs(normalized) <= 1e-6


# ----------------------------------------------------------------------
# family identities
# ----------------------------------------------------------------------

def test_richards_gamma_one_is_verhulst_bulk():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        b = rng.uniform(0.1, 5.0)
        c = rng.uniform(-5.0, 5.0)
        s = c + rng.uniform(-10.0, 10.0) / b
        r = evaluate(make(LogisticKind.RICHARDS, b=b, c=c, gamma=1.0), s)
        v = evaluate(make(LogisticKind.VERHULST, b=b, c=c), s)
        assert abs(r - v) <= 1e-12


def test_modified_stannard_gamma_one_is_verhulst_bulk():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        b = rng.uniform(0.1, 5.0)
        c = rng.uniform(-5.0, 5.0)
        s = c + rng.uniform(-10.0, 10.0) / b
        m = evaluate(make(LogisticKind.MODIFIED_STANNARD, b=b, c=c, gamma=1.0), s)
        v = evaluate(make(LogisticKind.VERHULST, b=b, c=c), s)
        assert abs(m - v) <= 1e-12


def test_richards_small_gamma_approaches_gompertz():
    rng = np.random.default_rng(9)
    for _ in range(200):
        b = rng.uniform(0.2, 3.0)
        c = rng.uniform(-3.0, 3.0)
        s = c + rng.uniform(-6.0, 6.0) / b
        r = evaluate(make(LogisticKind.RICHARDS, b=b, c=c, gamma=1e-8), s)
        g = evaluate(make(LogisticKind.GOMPERTZ, b=b, c=c), s)
        assert abs(r - g) <= 1e-6


# The module docstring's formulas of the asymmetric kinds, in each kind's
# own coordinates: g(x) at x = s - c.
CLOSED_FORMS = {
    LogisticKind.RICHARDS: lambda x, b, gamma: (1.0 + gamma * np.exp(-b * x)) ** (-1.0 / gamma),
    LogisticKind.MODIFIED_STANNARD:
        lambda x, b, gamma: (1.0 + np.exp(-(b / gamma) * x) / gamma) ** (-gamma),
}


@pytest.mark.parametrize("kind", list(CLOSED_FORMS))
def test_asymmetric_kinds_match_their_closed_forms(kind):
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = make(
            kind,
            a=rng.uniform(0.5, 3.0),
            d=rng.uniform(-2.0, 0.4),
            b=rng.uniform(0.1, 4.0),
            c=rng.uniform(-3.0, 3.0),
            gamma=10.0 ** rng.uniform(-1.0, 1.0),
        )
        s = p.c + rng.uniform(-6.0, 6.0, 25) / p.b
        want = (p.a - p.d) * CLOSED_FORMS[kind](s - p.c, p.b, p.gamma) + p.d
        assert np.max(np.abs(evaluate(p, s) - want)) <= 1e-12 * abs(p.a - p.d), p


@pytest.mark.parametrize("gamma", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_richards_gamma_column_matches_its_closed_form(gamma):
    # The kernel takes Richards' column by the chain rule from modified
    # Stannard's; this is the derivative of Richards' own closed form.
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = make(
            LogisticKind.RICHARDS,
            a=rng.uniform(0.5, 3.0),
            d=rng.uniform(-2.0, 0.4),
            b=rng.uniform(0.1, 4.0),
            c=rng.uniform(-3.0, 3.0),
            gamma=gamma,
        )
        s = p.c + np.linspace(-40.0, 40.0, 801) / p.b
        w = np.exp(-p.b * (s - p.c))
        log_term = np.log1p(gamma * w)
        g = np.exp(-log_term / gamma)
        want = (p.a - p.d) * g * (log_term / gamma**2 - w / (1.0 + gamma * w) / gamma)
        got = value_and_gradients(p, s)[1][:, 4]
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), p


# ----------------------------------------------------------------------
# range, monotonicity, stability
# ----------------------------------------------------------------------

@given(
    kind=st.sampled_from(ALL_KINDS),
    b=st.floats(0.1, 5.0),
    c=st.floats(-5.0, 5.0),
    gamma=st.floats(0.1, 10.0),
    offsets=st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_values_stay_in_range_and_increase(kind, b, c, gamma, offsets):
    p = make(kind, a=2.0, d=-1.0, b=b, c=c, gamma=gamma)
    s = np.sort(np.array(offsets)) / b + c
    f = evaluate(p, s)
    assert np.all(f >= p.d) and np.all(f <= p.a)
    assert np.all(np.diff(f) >= 0)


def test_orientation_follows_asymptotes():
    increasing = make(LogisticKind.VERHULST, a=1.0, d=0.0, b=1.0)
    decreasing = make(LogisticKind.VERHULST, a=0.0, d=1.0, b=1.0)
    s = np.array([-2.0, 0.0, 2.0])
    assert np.all(np.diff(evaluate(increasing, s)) > 0)
    assert np.all(np.diff(evaluate(decreasing, s)) < 0)
    assert np.all(dps_gradient(increasing, s) > 0)
    assert np.all(dps_gradient(decreasing, s) < 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_extreme_scores_return_asymptotes(kind):
    p = make(kind, a=3.0, d=-2.0, b=2.0, c=0.0, gamma=0.5)
    far = 1e6
    assert evaluate(p, far) == pytest.approx(p.a, abs=1e-12)
    assert evaluate(p, -far) == pytest.approx(p.d, abs=1e-12)
    # the clamp keeps the huge-exponent region finite, gradients included
    for s in (-far, -350.0, 350.0, far):
        assert math.isfinite(evaluate(p, s))
        assert math.isfinite(dps_gradient(p, s))
        assert np.all(np.isfinite(param_gradient(p, s)))


def test_scalar_and_array_shapes():
    p = make(LogisticKind.RICHARDS, gamma=2.0)
    assert isinstance(evaluate(p, 0.5), float)
    assert evaluate(p, np.zeros(4)).shape == (4,)
    assert param_gradient(p, 0.5).shape == (5,)
    assert param_gradient(p, np.zeros(4)).shape == (4, 5)


def test_gamma_column_zero_for_symmetric_kinds():
    s = np.linspace(-2, 2, 5)
    for kind in (LogisticKind.VERHULST, LogisticKind.GOMPERTZ):
        grads = param_gradient(make(kind), s)
        assert np.all(grads[:, 4] == 0.0)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_rejects_nonpositive_rate():
    with pytest.raises(DomainError):
        make(LogisticKind.VERHULST, b=0.0)
    with pytest.raises(DomainError):
        make(LogisticKind.VERHULST, b=-1.0)


def test_rejects_nonpositive_gamma():
    with pytest.raises(DomainError):
        make(LogisticKind.RICHARDS, gamma=0.0)


def test_rejects_nonfinite_parameters():
    with pytest.raises(DomainError):
        make(LogisticKind.VERHULST, c=math.nan)
    with pytest.raises(DomainError):
        make(LogisticKind.GOMPERTZ, a=math.inf)


def test_rejects_nonfinite_scores():
    p = make(LogisticKind.VERHULST)
    for bad in (math.nan, math.inf, np.array([0.0, math.inf])):
        with pytest.raises(DomainError):
            evaluate(p, bad)
        with pytest.raises(DomainError):
            dps_gradient(p, bad)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_of_an_overwritten_entry_equal_those_of_curve_params(kind):
    # The curve solver evaluates a parameter row with its free columns
    # overwritten in place of a checked CurveParams.
    base = make(kind, a=2.0, d=-0.5, b=0.8, c=1.0, gamma=1.0)
    free = np.array([2.75, -0.25, 1.3, -0.7, 0.35])
    cols = [0, 1, 2, 3, 4] if kind.has_symmetry_param else [0, 1, 2, 3]
    row = np.array([getattr(base, n) for n in PARAM_NAMES])
    row[cols] = free[cols]
    entry = CurveArrays(kind, *row.tolist())
    p = base.replace(**{PARAM_NAMES[j]: free[j] for j in cols})
    s = np.concatenate([np.linspace(-30.0, 30.0, 241), [1e-9, -1e6, 1e6]])
    f_entry, g_entry = value_and_gradients(entry, s)
    f_params, g_params = value_and_gradients(p, s)
    assert np.array_equal(f_entry, f_params)
    assert np.array_equal(g_entry, g_params)
