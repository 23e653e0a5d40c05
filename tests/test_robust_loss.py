import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsfit.errors import DomainError
from dpsfit.robust_loss import LossKind, _rho, loss_terms, psi, rho, weight

ALL_KINDS = list(LossKind)

ROBUST_KINDS = [k for k in ALL_KINDS if k is not LossKind.L2]


def base_loss(kind, u):
    # Independent implementation of the unscaled losses.
    if kind is LossKind.L2:
        return u * u
    if kind is LossKind.L1L2:
        return 2.0 * (math.sqrt(1.0 + u * u) - 1.0)
    if kind is LossKind.LOGISTIC:
        return math.log(math.cosh(u))
    if kind is LossKind.MODIFIED_HUBER:
        if abs(u) <= math.pi / 2:
            return 1.0 - math.cos(u)
        return abs(u) + 1.0 - math.pi / 2
    return math.log(1.0 + u * u)


def test_tau_constants():
    assert LossKind.L2.tau == 1.0
    assert LossKind.L1L2.tau == 1.0
    assert LossKind.LOGISTIC.tau == 1.205
    assert LossKind.MODIFIED_HUBER.tau == 1.2107
    assert LossKind.CAUCHY_LORENTZ.tau == 2.3849


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rho_zero_at_zero(kind):
    assert rho(kind, 0.0) == 0.0


def test_rho_fixed_values():
    assert rho(LossKind.L2, 3.0) == pytest.approx(9.0, abs=1e-15)
    tau = LossKind.CAUCHY_LORENTZ.tau
    assert rho(LossKind.CAUCHY_LORENTZ, tau) == pytest.approx(
        tau * tau * math.log(2.0), rel=1e-14
    )
    assert rho(LossKind.CAUCHY_LORENTZ, tau) == pytest.approx(3.9424, abs=5e-5)
    tau = LossKind.LOGISTIC.tau
    assert rho(LossKind.LOGISTIC, tau) == pytest.approx(
        tau * tau * math.log(math.cosh(1.0)), rel=1e-14
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rho_matches_scaled_base(kind):
    tau = kind.tau
    for r in np.linspace(-8.0, 8.0, 33):
        expected = tau * tau * base_loss(kind, r / tau)
        assert rho(kind, float(r)) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@given(r=st.floats(-100.0, 100.0), kind=st.sampled_from(ALL_KINDS))
@settings(max_examples=200, deadline=None)
def test_rho_symmetric_and_nonnegative(kind, r):
    assert rho(kind, r) == rho(kind, -r)
    assert rho(kind, r) >= 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rho_monotone_in_magnitude(kind):
    r = np.linspace(0.0, 60.0, 400)
    values = rho(kind, r)
    assert np.all(np.diff(values) >= 0)
    assert np.all(values[1:] > 0)


def test_outlier_suppression_ordering_at_large_residual():
    r = 50.0
    assert rho(LossKind.CAUCHY_LORENTZ, r) < rho(LossKind.MODIFIED_HUBER, r)
    assert rho(LossKind.MODIFIED_HUBER, r) < rho(LossKind.L2, r)
    for kind in ROBUST_KINDS:
        assert rho(kind, r) < rho(LossKind.L2, r)


# ----------------------------------------------------------------------
# influence function
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_psi_zero_at_zero_and_odd(kind):
    assert psi(kind, 0.0) == 0.0
    for r in (0.3, 1.0, 2.5, 17.0):
        assert psi(kind, -r) == pytest.approx(-psi(kind, r), rel=1e-14)


def test_psi_l2_is_twice_residual():
    assert psi(LossKind.L2, 1.7) == pytest.approx(3.4, abs=1e-15)


def test_psi_modified_huber_tail_is_constant():
    tau = LossKind.MODIFIED_HUBER.tau
    kink = tau * math.pi / 2
    for r in (kink + 0.01, 5.0, 100.0):
        assert psi(LossKind.MODIFIED_HUBER, r) == pytest.approx(tau, abs=1e-15)
        assert psi(LossKind.MODIFIED_HUBER, -r) == pytest.approx(-tau, abs=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_psi_matches_finite_differences(kind):
    h = 1e-6
    kink = kind.tau * math.pi / 2
    rng = np.random.default_rng(13)
    for r in rng.uniform(-6.0, 6.0, size=300):
        if kind is LossKind.MODIFIED_HUBER and abs(abs(r) - kink) < 1e-2:
            continue  # the tail joins the sine branch with a slope jump
        fd = (rho(kind, r + h) - rho(kind, r - h)) / (2 * h)
        an = psi(kind, float(r))
        assert abs(an - fd) <= 1e-6 * max(1.0, abs(an), abs(fd))


# ----------------------------------------------------------------------
# IRLS weights
# ----------------------------------------------------------------------

def test_weight_l2_constant():
    r = np.array([-5.0, -0.1, 0.0, 2.0, 40.0])
    assert np.all(weight(LossKind.L2, r) == 2.0)


def test_weight_limits_at_zero():
    assert weight(LossKind.CAUCHY_LORENTZ, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert weight(LossKind.L1L2, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert weight(LossKind.LOGISTIC, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert weight(LossKind.MODIFIED_HUBER, 0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weight_continuous_at_zero(kind):
    w0 = weight(kind, 0.0)
    assert weight(kind, 1e-12) == pytest.approx(w0, rel=1e-9)
    assert weight(kind, -1e-12) == pytest.approx(w0, rel=1e-9)


def test_weight_downweights_outliers():
    assert weight(LossKind.LOGISTIC, 10.0) < weight(LossKind.LOGISTIC, 0.1) / 5


@pytest.mark.parametrize("kind", ROBUST_KINDS)
def test_weight_nonincreasing_in_magnitude(kind):
    r = np.linspace(0.0, 50.0, 500)
    w = weight(kind, r)
    assert np.all(np.diff(w) <= 1e-15)
    assert np.all(w >= 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weight_consistent_with_psi(kind):
    for r in (0.05, 0.7, 1.9, 6.0, 30.0):
        assert weight(kind, r) * r == pytest.approx(psi(kind, r), rel=1e-9)


# ----------------------------------------------------------------------
# validation and shapes
# ----------------------------------------------------------------------

def test_rejects_nonfinite_residuals():
    for fn in (rho, psi, weight):
        with pytest.raises(DomainError):
            fn(LossKind.L2, math.nan)
        with pytest.raises(DomainError):
            fn(LossKind.LOGISTIC, np.array([0.0, math.inf]))


def test_vectorized_shapes():
    r = np.linspace(-2, 2, 7)
    for fn in (rho, psi, weight):
        assert fn(LossKind.CAUCHY_LORENTZ, r).shape == (7,)
        assert isinstance(fn(LossKind.CAUCHY_LORENTZ, 1.0), float)


def test_accepts_string_kind():
    assert rho("l2", 2.0) == 4.0
    assert psi("logistic", 0.0) == 0.0


# Residuals on which the unchecked solver kernels must match the public
# functions bit for bit.
BITWISE_GRID = np.concatenate([
    [0.0, 1e-9, -1e-9, 1e6, -1e6, 1e-300, -1e-300],
    np.linspace(-40.0, 40.0, 801),
    np.geomspace(1e-12, 1e5, 200),
    -np.geomspace(1e-12, 1e5, 200),
])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_terms_equal_psi_and_weight_bitwise(kind):
    r = BITWISE_GRID
    psi_r, wt = loss_terms(kind, r)
    assert np.array_equal(psi_r, psi(kind, r))
    assert np.array_equal(wt, weight(kind, r))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unchecked_rho_equals_rho_bitwise(kind):
    assert np.array_equal(_rho(kind, BITWISE_GRID), rho(kind, BITWISE_GRID))
