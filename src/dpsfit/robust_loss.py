"""M-estimator loss functions for robust curve fitting.

Each loss is used in its scaled form ``rho(r) = tau^2 rho_base(r / tau)``,
where ``tau`` is the fixed tuning constant that gives 95% asymptotic
efficiency on Gaussian residuals.  ``psi`` is the influence function
``d rho / d r`` and ``weight(r) = psi(r) / r`` is the factor used by
iteratively reweighted least squares, extended continuously at ``r = 0``.

Available kinds, with their base losses on ``u = r / tau``:

    l2               u**2                          tau = 1
    l1l2             2 (sqrt(1 + u**2) - 1)        tau = 1
    logistic         log(cosh(u))                  tau = 1.205
    modified_huber   1 - cos(u)        |u| <= pi/2
                     |u| + 1 - pi/2    |u| >  pi/2  tau = 1.2107
    cauchy_lorentz   log(1 + u**2)                 tau = 2.3849

All five are symmetric and zero at zero; all but plain least squares grow
sub-quadratically, which is what tames outliers.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError

__all__ = ["LossKind", "rho", "psi", "weight", "loss_terms"]

_HALF_PI = math.pi / 2.0
_LN2 = math.log(2.0)


class LossKind(str, Enum):
    L2 = "l2"
    L1L2 = "l1l2"
    LOGISTIC = "logistic"
    MODIFIED_HUBER = "modified_huber"
    CAUCHY_LORENTZ = "cauchy_lorentz"

    @property
    def tau(self) -> float:
        """95% Gaussian-efficiency tuning constant."""
        return _TAU[self]


_TAU = {
    LossKind.L2: 1.0,
    LossKind.L1L2: 1.0,
    LossKind.LOGISTIC: 1.205,
    LossKind.MODIFIED_HUBER: 1.2107,
    LossKind.CAUCHY_LORENTZ: 2.3849,
}


def _as_array(r) -> tuple[np.ndarray, bool]:
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("residuals must be finite")
    return arr, arr.ndim == 0


def _logcosh(u: np.ndarray) -> np.ndarray:
    # log(cosh(u)) = |u| + log1p(exp(-2|u|)) - log(2), stable for large |u|.
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - _LN2


def rho(kind: LossKind, r):
    """Scaled loss ``tau^2 rho_base(r / tau)`` at residual(s) ``r``."""
    kind = LossKind(kind)
    arr, scalar = _as_array(r)
    tau = kind.tau
    u = arr / tau
    if kind is LossKind.L2:
        base = u * u
    elif kind is LossKind.L1L2:
        base = 2.0 * (np.sqrt(1.0 + u * u) - 1.0)
    elif kind is LossKind.LOGISTIC:
        base = _logcosh(u)
    elif kind is LossKind.MODIFIED_HUBER:
        au = np.abs(u)
        base = np.where(au <= _HALF_PI, 1.0 - np.cos(au), au + 1.0 - _HALF_PI)
    else:  # Cauchy-Lorentz
        base = np.log1p(u * u)
    out = tau * tau * base
    return float(out) if scalar else out


def psi(kind: LossKind, r):
    """Influence function ``d rho / d r``, an odd function of ``r``."""
    kind = LossKind(kind)
    arr, scalar = _as_array(r)
    out = _psi(kind, arr, arr / kind.tau)
    return float(out) if scalar else out


def weight(kind: LossKind, r):
    """IRLS weight ``psi(r) / r`` continued by its limit at ``r = 0``.

    Nonnegative everywhere and nonincreasing in ``|r|`` for every kind,
    which keeps reweighted Gauss-Newton curvature positive semidefinite.
    """
    kind = LossKind(kind)
    arr, scalar = _as_array(r)
    out = _weight(kind, arr / kind.tau)
    return float(out) if scalar else out


def loss_terms(kind: LossKind, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(psi(r), weight(r))`` in one call, for solver inner loops.

    Unchecked: ``kind`` must already be a :class:`LossKind` and ``r`` a
    finite float array.  The values are those of :func:`psi` and
    :func:`weight`, bit for bit.
    """
    u = r / _TAU[kind]
    return _psi(kind, r, u), _weight(kind, u)


def _psi(kind: LossKind, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`psi` of residuals ``r`` whose scaled values are ``u``."""
    tau = _TAU[kind]
    if kind is LossKind.L2:
        return 2.0 * r
    if kind is LossKind.L1L2:
        return 2.0 * r / np.sqrt(1.0 + u * u)
    if kind is LossKind.LOGISTIC:
        return tau * np.tanh(u)
    if kind is LossKind.MODIFIED_HUBER:
        # The sine branch saturates into a constant-magnitude tail at
        # |u| = pi/2, where both branches equal tau * sign(u).
        return np.where(np.abs(u) <= _HALF_PI, tau * np.sin(u), tau * np.sign(u))
    # Cauchy-Lorentz
    return 2.0 * r / (1.0 + u * u)


def _weight(kind: LossKind, u: np.ndarray) -> np.ndarray:
    """:func:`weight` at scaled residuals ``u``."""
    if kind is LossKind.L2:
        return np.full_like(u, 2.0)
    if kind is LossKind.L1L2:
        return 2.0 / np.sqrt(1.0 + u * u)
    if kind is LossKind.LOGISTIC:
        small = np.abs(u) < 1e-8
        safe = np.where(small, 1.0, u)
        return np.where(small, 1.0 - u * u / 3.0, np.tanh(safe) / safe)
    if kind is LossKind.MODIFIED_HUBER:
        au = np.abs(u)
        small = au < 1e-8
        safe = np.where(small, 1.0, u)
        sine = np.where(small, 1.0 - u * u / 6.0, np.sin(safe) / safe)
        tail = 1.0 / np.maximum(au, 1e-300)
        return np.where(au <= _HALF_PI, sine, tail)
    # Cauchy-Lorentz
    return 2.0 / (1.0 + u * u)
