import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.optimize import brentq

from icfhi import (
    ConfigError,
    CurveParams,
    FitError,
    apply_curve,
    fit_curve,
    gamma_from_fraction,
    make_spec,
    normalize_weights,
    parse_gamma,
)

from icfhi.weighting import _brentq, _check_fit, curve_function

from conftest import GAMMA_THIRD_30, GAMMA_TWENTIETH_30, engine_alphas, run_python
from oracle import bisect_log_fit

FIT_TOL = 1e-9


def test_linear_case_identity():
    params = fit_curve(2.0)
    assert params.kind == "linear"
    for x in (0.0, 1.3, 3.1, 4.0):
        assert apply_curve(params, x) == x


def test_exponential_closed_form_y075():
    params = fit_curve(0.75)
    assert params.kind == "exponential"
    assert params.a == pytest.approx(0.225, abs=1e-12)
    assert params.b == pytest.approx(math.log(13.0 / 3.0) / 2.0, abs=1e-12)
    assert params.c == pytest.approx(-0.225, abs=1e-12)
    assert apply_curve(params, 2.0) == pytest.approx(0.75, abs=FIT_TOL)
    assert apply_curve(params, 4.0) == pytest.approx(4.0, abs=FIT_TOL)


def test_logarithmic_matches_bisection_oracle_y325():
    params = fit_curve(3.25)
    assert params.kind == "logarithmic"
    a_ref, b_ref = bisect_log_fit(3.25)
    assert params.a == pytest.approx(a_ref, abs=1e-8)
    assert params.b == pytest.approx(b_ref, abs=1e-8)
    assert params.a * math.log(2 * params.b + 1) == pytest.approx(3.25, abs=FIT_TOL)
    assert params.a * math.log(4 * params.b + 1) == pytest.approx(4.0, abs=FIT_TOL)


@pytest.mark.parametrize("y", [-1.0, 0.0, 4.0, 5.0])
def test_fit_rejects_out_of_range(y):
    with pytest.raises(ConfigError):
        fit_curve(y)


@given(st.floats(min_value=0.05, max_value=3.95).filter(lambda y: abs(y - 2.0) > 1e-6))
def test_fit_constraints_hold(y):
    params = fit_curve(y)
    assert apply_curve(params, 0.0) == pytest.approx(0.0, abs=FIT_TOL)
    assert apply_curve(params, 2.0) == pytest.approx(y, abs=FIT_TOL)
    assert apply_curve(params, 4.0) == pytest.approx(4.0, abs=FIT_TOL)


@given(st.floats(min_value=0.05, max_value=3.95))
def test_curve_strictly_increasing_and_sided(y):
    params = fit_curve(y)
    xs = [i * 4.0 / 200 for i in range(201)]
    values = [apply_curve(params, x) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))
    interior = list(zip(xs, values))[1:-1]
    if y < 2.0:
        assert all(v <= x + 1e-12 for x, v in interior)
    elif y > 2.0:
        assert all(v >= x - 1e-12 for x, v in interior)


def test_apply_curve_domain():
    params = fit_curve(2.0)
    with pytest.raises(ValueError):
        apply_curve(params, -0.5)
    with pytest.raises(ValueError):
        apply_curve(params, 4.5)
    # float dust from upstream weighted means is tolerated
    assert apply_curve(params, 4.0 + 1e-12) == 4.0


# one y per curve kind, and y = 3.99, whose logarithmic curve has b near e^700;
# fit_curve raises FitError for a y within about 1e-7 of 2
CURVE_YS = (st.floats(min_value=0.01, max_value=2.0 - 1e-6) | st.just(2.0)
            | st.floats(min_value=2.0 + 1e-6, max_value=3.99) | st.just(3.99))


def _formula(params, x):
    """The three curves as written: a*exp(b*x)+c, x, a*ln(b*x+1)."""
    if params.kind == "exponential":
        return params.a * math.exp(params.b * x) + params.c
    if params.kind == "linear":
        return x
    return params.a * math.log(params.b * x + 1.0)


def _bits(value):
    return struct.pack("<d", value)


@given(CURVE_YS, st.floats(min_value=-2e-9, max_value=4.0 + 2e-9)
       | st.sampled_from([0.0, -0.0, 4.0, -1e-9, 4.0 + 1e-9, math.nan]))
def test_curve_function_is_the_formula_at_the_clamped_input(y, x):
    # within 1e-9 of [0, 4] x is clamped to it; further out it is rejected
    params = fit_curve(y)
    curve = curve_function(params)
    if x < -1e-9 or x > 4.0 + 1e-9:
        message = re.escape(f"curve input {x!r} outside [0, 4]")
        with pytest.raises(ValueError, match=message):
            curve(x)
        with pytest.raises(ValueError, match=message):
            apply_curve(make_spec(y), x)
        return
    want = _bits(_formula(params, min(max(x, 0.0), 4.0)))
    assert _bits(curve(x)) == want
    assert _bits(apply_curve(params, x)) == _bits(apply_curve(make_spec(y), x)) == want


@given(CURVE_YS, st.floats(max_value=-1.1e-9) | st.floats(min_value=4.0 + 1.1e-9))
def test_curve_function_rejects_an_input_beyond_the_tolerance(y, x):
    with pytest.raises(ValueError, match=re.escape(f"curve input {x!r} outside [0, 4]")):
        curve_function(fit_curve(y))(x)


@pytest.mark.parametrize("y", [2.0 + sign * 10.0 ** -k for k in range(4, 16) for sign in (1, -1)])
def test_a_y_near_2_fits_or_is_too_close_to_fit(y):
    # within about 1e-7 of 2 both fits lose their constraints to rounding
    try:
        params = fit_curve(y)
    except FitError as exc:
        assert str(exc) == (f"curve tuning parameter y={y} is too close to 2 to fit in double "
                            "precision; use 2")
    else:
        for x, want in ((0.0, 0.0), (2.0, y), (4.0, 4.0)):
            assert apply_curve(params, x) == pytest.approx(want, abs=FIT_TOL)


def test_a_curve_that_misses_its_constraints_is_a_fit_error():
    with pytest.raises(FitError, match=re.escape("misses constraint f(2.0)=1.0: got")):
        _check_fit(CurveParams("exponential", a=1.0, b=1.0, c=-1.0), 1.0)
    with pytest.raises(FitError, match="needs a curve parameter b beyond double precision"):
        fit_curve(3.999)
    with pytest.raises(ConfigError, match="unknown curve kind 'cubic'"):
        apply_curve(CurveParams("cubic"), 1.0)


def test_time_weight_reference_decays():
    # the time weight the engine gives a record: gamma**age
    [third] = engine_alphas([30], GAMMA_THIRD_30)
    [twentieth] = engine_alphas([30], GAMMA_TWENTIETH_30)
    assert third == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert twentieth == pytest.approx(0.05, abs=1e-12)
    assert engine_alphas([0], GAMMA_THIRD_30) == [1.0]
    assert engine_alphas([0, 7, 123], 1.0) == [1.0, 1.0, 1.0]


@given(st.integers(min_value=0, max_value=400), st.floats(min_value=0.01, max_value=1.0))
def test_time_weight_monotone_in_age(te, gamma):
    older, newer = engine_alphas([te + 1, te], gamma)
    assert older <= newer + 1e-15


def test_normalize_weights():
    assert normalize_weights([1, 1, 1, 1]) == [0.25, 0.25, 0.25, 0.25]
    assert normalize_weights([2, 1, 1]) == [0.5, 0.25, 0.25]
    out = normalize_weights([0.9, 0.3])
    assert out[0] == pytest.approx(0.75, abs=1e-12)
    assert out[1] == pytest.approx(0.25, abs=1e-12)


def test_normalize_weights_errors():
    with pytest.raises(ValueError):
        normalize_weights([0.0, 0.0])
    for negative in ([1.0, -0.1], [2, -1], [1.0, -1e-300], [-0.5], np.array([3, -1])):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_weights(negative)
    # nan is not negative, but neither is it, nor an infinity, a weight
    for broken in ([float("nan"), 1.0], [float("inf"), 1.0], [1.0, math.inf, 2.0],
                   [math.nan], np.array([1.0, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            normalize_weights(broken)
    assert normalize_weights([-0.0, 1.0]) == [-0.0, 1.0]
    # numpy scalars and fractions compare as before
    assert normalize_weights(np.array([3, 1])) == [0.75, 0.25]
    assert normalize_weights(np.array([3, 1], dtype=np.float32)) == [0.75, 0.25]
    assert normalize_weights([Fraction(1, 4), Fraction(3, 4)]) == [0.25, 0.75]


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20)
       .filter(lambda ws: sum(ws) > 1e-9))
def test_normalize_weights_sums_to_one_and_preserves_ratios(ws):
    out = normalize_weights(ws)
    assert math.fsum(out) == pytest.approx(1.0, abs=1e-12)
    total = math.fsum(ws)
    for w, o in zip(ws, out):
        assert o == pytest.approx(w / total, rel=1e-12, abs=1e-15)


def test_parse_gamma_forms():
    assert parse_gamma("1") == 1.0
    assert parse_gamma("0.95") == 0.95
    assert parse_gamma("1/3@30") == pytest.approx(GAMMA_THIRD_30, abs=1e-15)
    assert parse_gamma("1/20@30") == pytest.approx(GAMMA_TWENTIETH_30, abs=1e-15)
    assert gamma_from_fraction(0.5, 10) == pytest.approx(0.5 ** 0.1, abs=1e-15)


@pytest.mark.parametrize("bad", ["", "abc", "2.0", "0", "-0.5", "1/3@", "1/3@0", "3/2@30"])
def test_parse_gamma_rejects(bad):
    with pytest.raises(ConfigError):
        parse_gamma(bad)


def test_make_spec_validates_gamma():
    with pytest.raises(ConfigError):
        make_spec(2.0, 0.0)
    spec = make_spec(0.75, 0.9)
    assert spec.curve.kind == "exponential"


# the logarithmic fit's root finder is a port of scipy.optimize.brentq

LOG_BRACKET = (math.log(1e-12), 700.0)


def _log_residual(y):
    def residual(u):
        b = math.exp(u)
        return y * math.log1p(4.0 * b) / math.log1p(2.0 * b) - 4.0
    return residual


def _scipy_log_fit(y):
    """fit_curve's logarithmic branch with scipy.optimize.brentq as its root
    finder: the fitted params, or FitError where fit_curve must raise it."""
    residual = _log_residual(y)
    if residual(LOG_BRACKET[1]) > 0.0:
        return FitError
    u = brentq(residual, *LOG_BRACKET, xtol=1e-13, rtol=8.9e-16, maxiter=300)
    if abs(residual(u)) > FIT_TOL:
        return FitError
    b = math.exp(u)
    params = CurveParams("logarithmic", a=y / math.log1p(2.0 * b), b=b)
    try:
        _check_fit(params, y)
    except FitError:
        return FitError
    return params


def test_log_fit_is_bit_identical_to_scipy_brentq():
    ys = [(2000 + i) / 1000 for i in range(1, 2000)] + [2.6, 3.25, 3.8]
    mismatches, raised = [], 0
    for y in ys:
        want = _scipy_log_fit(y)
        try:
            got = fit_curve(y)
        except FitError:
            got = FitError
        raised += got is FitError
        if want is FitError or got is FitError:
            same = want is got
        else:
            same = (got.kind, got.a.hex(), got.b.hex(), got.c) == (want.kind, want.a.hex(),
                                                                   want.b.hex(), want.c)
        if not same:
            mismatches.append((y, got, want))
    assert not mismatches, mismatches[:5]
    assert 0 < raised < 10  # only y within about 0.004 of 4 needs b beyond e^700


def test_brentq_port_returns_scipys_last_iterate_when_maxiter_runs_out():
    for y in (2.3, 3.25, 3.9):
        residual = _log_residual(y)
        for maxiter in range(12):
            want = brentq(residual, *LOG_BRACKET, xtol=1e-13, rtol=8.9e-16, maxiter=maxiter,
                          disp=False)
            got = _brentq(residual, *LOG_BRACKET, xtol=1e-13, rtol=8.9e-16, maxiter=maxiter)
            assert got.hex() == want.hex(), (y, maxiter)


def test_brentq_port_rejects_a_bracket_without_a_sign_change():
    assert _brentq(lambda u: u * u + 1.0, -1.0, 1.0, xtol=1e-13, rtol=8.9e-16,
                   maxiter=300) is None
    assert _brentq(lambda u: u, 0.0, 1.0, xtol=1e-13, rtol=8.9e-16, maxiter=300) == 0.0


def test_log_fit_loads_no_scipy():
    proc = run_python("-c", "import sys; from icfhi import fit_curve; fit_curve(3.25); "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
