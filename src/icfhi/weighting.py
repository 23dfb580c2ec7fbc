"""Value-weighting curves, time-decay constants and weight normalization.

The value curve is pinned at (0,0) and (4,4) and tuned through (2,y):
exponential for y in (0,2), the identity for y=2, logarithmic for y in
(2,4).  The engine discounts a qualifier of age TE days by gamma**TE.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import lt
from typing import Callable, NamedTuple, Sequence

from .codes import QUALIFIER_MAX, QUALIFIER_MIN
from .errors import ConfigError, FitError

LINEAR_Y = 2.0

_FIT_TOL = 1e-9
# both fits lose their constraints to rounding within about 1e-7 of 2; a
# failure this close to 2 is reported as such, with a margin
_NEAR_LINEAR = 1e-6
# tolerance for float dust on curve inputs produced by upstream arithmetic
_EDGE_TOL = 1e-9


class CurveParams(NamedTuple):
    """Fitted value-weighting curve: a*exp(b*x)+c, identity, or a*ln(b*x+1)."""

    kind: str  # "exponential" | "linear" | "logarithmic"
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0


class WeightingSpec(NamedTuple):
    """Tuning parameter y, its fitted curve, and the time-decay constant gamma."""

    y: float
    gamma: float
    curve: CurveParams


def fit_curve(y: float) -> CurveParams:
    """Fit the value-weighting curve through (0,0), (2,y), (4,4).

    The exponential branch has a closed form from the three constraints;
    the logarithmic branch solves a*ln(b*x+1) by bracketing root search
    over b with a(b) = y/ln(2b+1).  Within about 1e-7 of 2 both branches
    lose the constraints to rounding; a y within 1e-6 of 2 that cannot be
    fitted is one FitError that says to use 2.
    """
    if not (QUALIFIER_MIN < y < QUALIFIER_MAX):
        raise ConfigError(f"curve tuning parameter y must lie in (0, 4), got {y}")
    if y == LINEAR_Y:
        return CurveParams("linear")
    try:
        if y < LINEAR_Y:
            # a*exp(2b)+c = y and a*exp(4b)+c = 4 with c = -a
            t = 4.0 / y - 1.0
            b = math.log(t) / 2.0
            a = y / (t - 1.0)
            params = CurveParams("exponential", a=a, b=b, c=-a)
        else:
            params = _fit_logarithmic(y)
        _check_fit(params, y)
    except FitError:
        if abs(y - LINEAR_Y) > _NEAR_LINEAR:
            raise
        raise FitError(f"curve tuning parameter y={y} is too close to 2 to fit in double "
                       "precision; use 2") from None
    return params


def _fit_logarithmic(y: float) -> CurveParams:
    # The root b grows like exp(ln2 / (4/y - 1)) as y approaches 4, so the
    # search runs over u = ln(b).  residual(u -> -inf) -> 2y-4 > 0 and
    # residual(u -> +inf) -> y-4 < 0; the upper end sits just below the
    # float64 overflow of b.
    def residual(u: float) -> float:
        b = math.exp(u)
        return y * math.log1p(4.0 * b) / math.log1p(2.0 * b) - 4.0

    lo_u, hi_u = math.log(1e-12), 700.0
    if residual(hi_u) > 0.0:
        raise FitError(
            f"logarithmic fit for y={y} needs a curve parameter b beyond double "
            f"precision (residual {residual(hi_u):.3e} at b=e^700); choose y "
            "further from 4"
        )
    u = _brentq(residual, lo_u, hi_u, xtol=1e-13, rtol=8.9e-16, maxiter=300)
    if u is None:
        raise FitError(f"logarithmic fit for y={y}: the residual has the same sign at "
                       f"both ends of the bracket e^({lo_u:.1f}, {hi_u:.1f})")
    if abs(residual(u)) > _FIT_TOL:
        raise FitError(
            f"logarithmic fit for y={y} did not converge: residual {residual(u):.3e} "
            f"at b={math.exp(u)!r} (bracket e^({lo_u:.1f}, {hi_u:.1f}))"
        )
    b = math.exp(u)
    a = y / math.log1p(2.0 * b)
    return CurveParams("logarithmic", a=a, b=b)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> "float | None":
    """Brent's root finder, step for step as scipy.optimize.brentq runs it
    (its C ``brentq.c``), so every iterate is bit-identical to scipy's
    without importing scipy.optimize, which takes about 0.3 s.  Returns
    None when f has the same sign at both ends and the last iterate when
    maxiter runs out; the caller checks the residual."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


def _check_fit(params: CurveParams, y: float) -> None:
    curve = curve_function(params)
    for x, want in ((0.0, 0.0), (2.0, y), (4.0, 4.0)):
        got = curve(x)
        if abs(got - want) > _FIT_TOL:
            raise FitError(
                f"fitted {params.kind} curve misses constraint f({x})={want}: got {got!r}"
            )


@lru_cache(maxsize=1024)
def curve_function(params: CurveParams) -> Callable[[float], float]:
    """The fitted curve as a function of x in [0, 4], resolved once per
    curve: x within float dust beyond an end is clamped to it, x further
    out is a ValueError."""
    kind, a, b, c = params
    formula = {"linear": lambda x: x,
               "exponential": lambda x: a * math.exp(b * x) + c,
               "logarithmic": lambda x: a * math.log(b * x + 1.0)}.get(kind)
    if formula is None:
        raise ConfigError(f"unknown curve kind {kind!r}")
    low, high = QUALIFIER_MIN - _EDGE_TOL, QUALIFIER_MAX + _EDGE_TOL

    def curve(x: float) -> float:
        if x < low or x > high:
            raise ValueError(f"curve input {x!r} outside [0, 4]")
        # a conditional, not min(max(...)): this runs once per node and spec
        return formula(QUALIFIER_MIN if x < QUALIFIER_MIN
                       else QUALIFIER_MAX if x > QUALIFIER_MAX else x)

    return curve


def apply_curve(spec: "WeightingSpec | CurveParams", x: float) -> float:
    """Evaluate the fitted curve at x in [0, 4]."""
    return curve_function(spec.curve if isinstance(spec, WeightingSpec) else spec)(x)


def make_spec(y: float = LINEAR_Y, gamma: float = 1.0) -> WeightingSpec:
    """Validate (y, gamma) and fit the curve once for reuse."""
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"time decay constant gamma must lie in (0, 1], got {gamma}")
    return WeightingSpec(y=y, gamma=gamma, curve=fit_curve(y))


def normalize_weights(weights: Sequence[float]) -> list[float]:
    """Scale non-negative, finite weights so they sum to one, preserving ratios."""
    # w < 0 for each weight (False for nan), without a Python frame per weight
    if any(map(lt, weights, repeat(0))):
        raise ValueError("weights must be non-negative")
    total = math.fsum(weights)
    # with no weight negative, the sum is nan or infinite exactly when a weight is
    if not math.isfinite(total):
        raise ValueError("weights must be finite")
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
