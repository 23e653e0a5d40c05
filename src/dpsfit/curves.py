"""Generalized logistic curve family with adjustable asymptotes.

Four unit-range growth curves share the affine range adjustment

    f(s) = (a - d) * g(s) + d,

mapping a disease progression score (DPS) ``s`` to a biomarker value that
runs from ``d`` (as ``s -> -inf``) to ``a`` (as ``s -> +inf``).  All four
shapes place their inflection point exactly at ``s = c``, which is what
makes fitted curves directly comparable when biomarkers are ordered on a
shared progression timeline:

    verhulst           g(s) = 1 / (1 + exp(-b (s - c)))
    gompertz           g(s) = exp(-exp(-b (s - c)))
    richards           g(s) = (1 + gamma exp(-b (s - c))) ** (-1 / gamma)
    modified_stannard  g(s) = (1 + exp(-(b / gamma)(s - c)) / gamma) ** (-gamma)

Richards and modified Stannard reduce to Verhulst at ``gamma = 1``, and
Richards approaches Gompertz as ``gamma -> 0``.  The symmetry parameter
``gamma`` of the two asymmetric kinds controls how quickly the curve leaves
one plateau relative to the other.  The two are one family, the generalized
logistic of Richards (1959): modified Stannard ``(b, gamma)`` is Richards
``(b / gamma, 1 / gamma)``, a map that is its own inverse.  The kernel
evaluates both in modified Stannard coordinates, Richards through the map.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "LogisticKind",
    "CurveParams",
    "CurveArrays",
    "evaluate",
    "dps_gradient",
    "param_gradient",
    "inflection_point",
]

# exp(709.8) overflows an IEEE double; clamp exponents comfortably inside.
_EXP_CLAMP = 700.0

# Column order of parameter gradients.
PARAM_NAMES = ("a", "d", "b", "c", "gamma")


class LogisticKind(str, Enum):
    """The four supported sigmoid shapes."""

    VERHULST = "verhulst"
    GOMPERTZ = "gompertz"
    RICHARDS = "richards"
    MODIFIED_STANNARD = "modified_stannard"

    @property
    def has_symmetry_param(self) -> bool:
        """Whether ``gamma`` is a live parameter for this kind."""
        return self in (LogisticKind.RICHARDS, LogisticKind.MODIFIED_STANNARD)


@dataclass(frozen=True)
class CurveParams:
    """Parameters of one biomarker trajectory.

    Attributes
    ----------
    kind : LogisticKind
        Sigmoid shape.
    a, d : float
        Values approached as the score goes to ``+inf`` and ``-inf``.
        ``a == d`` is representable (a flat curve) but not useful.
    b : float
        Growth rate, strictly positive.  Orientation comes from the sign of
        ``a - d``, never from ``b``.
    c : float
        Inflection point location on the score axis.
    gamma : float
        Symmetry parameter, strictly positive; ignored by the Verhulst and
        Gompertz kinds.
    """

    kind: LogisticKind
    a: float
    d: float
    b: float
    c: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", LogisticKind(self.kind))
        for name in ("a", "d", "b", "c", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        values = (self.a, self.d, self.b, self.c, self.gamma)
        if not all(np.isfinite(v) for v in values):
            raise DomainError(f"curve parameters must be finite, got {values}")
        if self.b <= 0.0:
            raise DomainError(f"growth rate b must be positive, got {self.b}")
        if self.gamma <= 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")

    def replace(self, **kwargs) -> "CurveParams":
        return dataclasses.replace(self, **kwargs)


class CurveArrays(NamedTuple):
    """Parameters of curves of one kind, one array entry per curve.

    :func:`value_and_slope` takes it in place of a :class:`CurveParams`
    and evaluates score ``s[n]`` on entry ``n``, so one call serves points
    of many curves.  Build it with :meth:`stack`, then :meth:`take` the
    entry of every point.
    """

    kind: LogisticKind
    a: np.ndarray
    d: np.ndarray
    b: np.ndarray
    c: np.ndarray
    gamma: np.ndarray

    @classmethod
    def stack(cls, curve_list: Sequence[CurveParams]) -> "CurveArrays":
        """One entry per curve of ``curve_list``, which share one kind."""
        kinds = {p.kind for p in curve_list}
        if len(kinds) > 1:
            raise DomainError("curves stacked together must share one kind")
        # An empty table evaluates no point, so its kind does not matter.
        kind = kinds.pop() if kinds else LogisticKind.VERHULST
        table = np.array([[p.a, p.d, p.b, p.c, p.gamma] for p in curve_list], dtype=float)
        return cls(kind, *table.reshape(-1, 5).T.copy())

    def take(self, index: np.ndarray) -> "CurveArrays":
        """The entries at ``index``, e.g. each point's curve."""
        return CurveArrays(self.kind, *(v[index] for v in self[1:]))


def _as_array(s) -> tuple[np.ndarray, bool]:
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("score values must be finite")
    return arr, arr.ndim == 0


def _stannard(p: CurveParams | CurveArrays):
    """``p``'s ``(b, gamma)`` in the modified Stannard coordinates."""
    if p.kind is LogisticKind.RICHARDS:
        return p.b / p.gamma, 1.0 / p.gamma
    return p.b, p.gamma


def _growth(p: CurveParams | CurveArrays, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the unit-range curve ``g`` and its score derivative.

    Returns ``(g, dgds, w, q)`` where ``w`` is the clamped exponential term
    and ``q`` the kind-specific ratio reused by the parameter gradients.
    Products are ordered so that extreme ``w`` never meets an infinity.
    """
    asymmetric = p.kind.has_symmetry_param
    b, gamma = _stannard(p)
    rate = b / gamma if asymmetric else b
    w = np.exp(np.clip(-rate * (s - p.c), -_EXP_CLAMP, _EXP_CLAMP))

    if asymmetric:  # modified Stannard, and Richards in its coordinates
        w_gamma = w / gamma
        g = np.exp(-gamma * np.log1p(w_gamma))
        q = w / (1.0 + w_gamma)
    elif p.kind is LogisticKind.VERHULST:
        g = 1.0 / (1.0 + w)
        q = 1.0 - g
    else:  # Gompertz
        g = np.exp(-w)
        q = w
    dgds = rate * q * g
    return g, dgds, w, q


def evaluate(p: CurveParams, s):
    """Biomarker value ``f(s) = (a - d) g(s) + d`` at score(s) ``s``.

    Accepts a scalar or an array; returns the matching shape.  Exponents are
    clamped at +-700 so arbitrarily extreme scores return the asymptote
    instead of overflowing.
    """
    arr, scalar = _as_array(s)
    g, _, _, _ = _growth(p, arr)
    out = (p.a - p.d) * g + p.d
    return float(out) if scalar else out


def dps_gradient(p: CurveParams, s):
    """Derivative of the biomarker value with respect to the score.

    Shares the sign of ``a - d`` everywhere and vanishes identically only
    for the degenerate flat curve ``a == d``.
    """
    arr, scalar = _as_array(s)
    _, dgds, _, _ = _growth(p, arr)
    out = (p.a - p.d) * dgds
    return float(out) if scalar else out


def param_gradient(p: CurveParams, s):
    """Partial derivatives of ``f(s)`` in the order ``(a, d, b, c, gamma)``.

    For a scalar score returns shape ``(5,)``; for an array of scores,
    shape ``(n, 5)``.  The ``gamma`` column is identically zero for the
    Verhulst and Gompertz kinds.
    """
    arr, scalar = _as_array(s)
    grads = value_and_gradients(p, np.atleast_1d(arr))[1]
    return grads[0] if scalar else grads


def inflection_point(p: CurveParams) -> float:
    """Score at which the curvature of ``f`` changes sign.

    By construction this is ``c`` for every supported kind.
    """
    return p.c


# ----------------------------------------------------------------------
# internal fast paths used by the fitting code
# ----------------------------------------------------------------------

def value_and_slope(p: CurveParams | CurveArrays, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f(s), df/ds)`` without the parameter gradients; assumes finite s.

    With :class:`CurveArrays` for ``p``, point ``n`` is evaluated on entry
    ``n``, bit for bit as a call with that entry's :class:`CurveParams`.
    """
    g, dgds, _, _ = _growth(p, s)
    span = p.a - p.d
    return span * g + p.d, span * dgds


def value_and_gradients(p: CurveParams | CurveArrays, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f(s), df/dparams)`` with gradients of shape ``(n, 5)``.

    Like :func:`value_and_slope`, it takes a :class:`CurveArrays` for
    ``p``; one whose fields are floats is a single unchecked curve,
    evaluated bit for bit as the matching :class:`CurveParams`.
    """
    g, dgds, w, q = _growth(p, s)
    span = p.a - p.d
    f = span * g + p.d
    dfds = span * dgds

    grads = np.empty(s.shape + (5,), dtype=float)
    grads[..., 0] = g
    grads[..., 1] = 1.0 - g
    # b and gamma enter only through the exponent, so df/db follows from
    # df/ds by the chain rule regardless of kind.
    grads[..., 2] = dfds * (s - p.c) / p.b
    grads[..., 3] = -dfds
    if p.kind.has_symmetry_param:
        b, gamma = _stannard(p)
        grads[..., 4] = span * g * (
            -np.log1p(w / gamma)
            - q * b * (s - p.c) / gamma**2
            + q / gamma
        )
        if p.kind is LogisticKind.RICHARDS:  # the chain rule through _stannard's map
            grads[..., 4] = -(dfds * (s - p.c) + grads[..., 4] / p.gamma) / p.gamma
    else:
        grads[..., 4] = 0.0
    return f, grads
