"""Value-weighting curves, time-decay weighting and weight normalization.

The value curve is pinned at (0,0) and (4,4) and tuned through (2,y):
exponential for y in (0,2), the identity for y=2, logarithmic for y in
(2,4).  Time weighting discounts a qualifier of age TE days by gamma**TE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import lt
from typing import Sequence

from .errors import ConfigError, FitError

X_MIN, X_MAX = 0.0, 4.0
LINEAR_Y = 2.0

_FIT_TOL = 1e-9
# tolerance for float dust on curve inputs produced by upstream arithmetic
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class CurveParams:
    """Fitted value-weighting curve: a*exp(b*x)+c, identity, or a*ln(b*x+1)."""

    kind: str  # "exponential" | "linear" | "logarithmic"
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0


@dataclass(frozen=True)
class WeightingSpec:
    """Tuning parameter y, its fitted curve, and the time-decay constant gamma."""

    y: float
    gamma: float
    curve: CurveParams


def fit_curve(y: float) -> CurveParams:
    """Fit the value-weighting curve through (0,0), (2,y), (4,4).

    The exponential branch has a closed form from the three constraints;
    the logarithmic branch solves a*ln(b*x+1) by bracketing root search
    over b with a(b) = y/ln(2b+1).
    """
    if not (0.0 < y < 4.0):
        raise ConfigError(f"curve tuning parameter y must lie in (0, 4), got {y}")
    if y == LINEAR_Y:
        return CurveParams("linear")
    if y < LINEAR_Y:
        # a*exp(2b)+c = y and a*exp(4b)+c = 4 with c = -a
        t = 4.0 / y - 1.0
        b = math.log(t) / 2.0
        a = y / (t - 1.0)
        params = CurveParams("exponential", a=a, b=b, c=-a)
    else:
        params = _fit_logarithmic(y)
    _check_fit(params, y)
    return params


def _fit_logarithmic(y: float) -> CurveParams:
    # The root b grows like exp(ln2 / (4/y - 1)) as y approaches 4, so the
    # search runs over u = ln(b).  residual(u -> -inf) -> 2y-4 > 0 and
    # residual(u -> +inf) -> y-4 < 0; the upper end sits just below the
    # float64 overflow of b.
    def residual(u: float) -> float:
        b = math.exp(u)
        return y * math.log1p(4.0 * b) / math.log1p(2.0 * b) - 4.0

    from scipy.optimize import brentq  # imported here: slow, and only needed here

    lo_u, hi_u = math.log(1e-12), 700.0
    if residual(hi_u) > 0.0:
        raise FitError(
            f"logarithmic fit for y={y} needs a curve parameter b beyond double "
            f"precision (residual {residual(hi_u):.3e} at b=e^700); choose y "
            "further from 4"
        )
    u = brentq(residual, lo_u, hi_u, xtol=1e-13, rtol=8.9e-16, maxiter=300)
    if abs(residual(u)) > _FIT_TOL:
        raise FitError(
            f"logarithmic fit for y={y} did not converge: residual {residual(u):.3e} "
            f"at b={math.exp(u)!r} (bracket e^({lo_u:.1f}, {hi_u:.1f}))"
        )
    b = math.exp(u)
    a = y / math.log1p(2.0 * b)
    return CurveParams("logarithmic", a=a, b=b)


def _check_fit(params: CurveParams, y: float) -> None:
    for x, want in ((0.0, 0.0), (2.0, y), (4.0, 4.0)):
        got = _curve_value(params, x)
        if abs(got - want) > _FIT_TOL:
            raise FitError(
                f"fitted {params.kind} curve misses constraint f({x})={want}: got {got!r}"
            )


def _curve_value(params: CurveParams, x: float) -> float:
    if params.kind == "linear":
        return x
    if params.kind == "exponential":
        return params.a * math.exp(params.b * x) + params.c
    if params.kind == "logarithmic":
        return params.a * math.log(params.b * x + 1.0)
    raise ConfigError(f"unknown curve kind {params.kind!r}")


def apply_curve(spec: "WeightingSpec | CurveParams", x: float) -> float:
    """Evaluate the fitted curve at x in [0, 4]."""
    params = spec.curve if isinstance(spec, WeightingSpec) else spec
    if x < X_MIN - _EDGE_TOL or x > X_MAX + _EDGE_TOL:
        raise ValueError(f"curve input {x!r} outside [0, 4]")
    x = min(max(x, X_MIN), X_MAX)
    return _curve_value(params, x)


def make_spec(y: float = LINEAR_Y, gamma: float = 1.0) -> WeightingSpec:
    """Validate (y, gamma) and fit the curve once for reuse."""
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"time decay constant gamma must lie in (0, 1], got {gamma}")
    return WeightingSpec(y=y, gamma=gamma, curve=fit_curve(y))


def time_elapsed(day_of_qualifier: int, reference_day: int) -> int:
    """Age of a qualifier in full days relative to the evaluation reference day."""
    if reference_day < day_of_qualifier:
        raise ValueError(
            f"qualifier day {day_of_qualifier} is newer than reference day {reference_day}"
        )
    return reference_day - day_of_qualifier


def time_weight(te: int, gamma: float) -> float:
    """Raw time weight gamma**TE for a qualifier aged TE days."""
    if te < 0:
        raise ValueError(f"time elapsed must be non-negative, got {te}")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"time decay constant gamma must lie in (0, 1], got {gamma}")
    return gamma**te


def normalize_weights(weights: Sequence[float]) -> list[float]:
    """Scale non-negative weights so they sum to one, preserving ratios."""
    # w < 0 for each weight (False for nan), without a Python frame per weight
    if any(map(lt, weights, repeat(0))):
        raise ValueError("weights must be non-negative")
    total = math.fsum(weights)
    if total <= 0.0:
        raise ValueError("cannot normalize: all weights are zero (degenerate node)")
    return [w / total for w in weights]


def gamma_from_fraction(fraction: float, horizon_days: int) -> float:
    """Gamma such that a qualifier ``horizon_days`` old keeps ``fraction`` of its weight."""
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"decay fraction must lie in (0, 1], got {fraction}")
    if horizon_days <= 0:
        raise ConfigError(f"decay horizon must be a positive day count, got {horizon_days}")
    return fraction ** (1.0 / horizon_days)


def parse_gamma(text: str) -> float:
    """Parse a gamma setting: plain value ("0.964", "1") or "FRACTION@DAYS"
    such as "1/3@30" meaning one third of the weight remains after 30 days."""
    raw = text.strip()
    try:
        if "@" in raw:
            frac_text, _, days_text = raw.partition("@")
            gamma = gamma_from_fraction(_parse_fraction(frac_text), int(days_text))
        else:
            gamma = _parse_fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse gamma setting {text!r}: {exc}") from None
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma setting {text!r} is outside (0, 1]")
    return gamma


def _parse_fraction(text: str) -> float:
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)
