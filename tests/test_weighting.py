import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icfhi import (
    ConfigError,
    apply_curve,
    fit_curve,
    gamma_from_fraction,
    make_spec,
    normalize_weights,
    parse_gamma,
    time_elapsed,
    time_weight,
)

from conftest import GAMMA_THIRD_30, GAMMA_TWENTIETH_30
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


def test_time_elapsed():
    assert time_elapsed(0, 30) == 30
    assert time_elapsed(15, 15) == 0
    assert time_elapsed(10, 25) == 15
    with pytest.raises(ValueError):
        time_elapsed(5, 4)


def test_time_weight_reference_decays():
    assert time_weight(30, GAMMA_THIRD_30) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert time_weight(30, GAMMA_TWENTIETH_30) == pytest.approx(0.05, abs=1e-12)
    assert time_weight(0, GAMMA_THIRD_30) == 1.0
    for te in (0, 7, 123):
        assert time_weight(te, 1.0) == 1.0


@given(st.integers(min_value=0, max_value=400), st.floats(min_value=0.01, max_value=1.0))
def test_time_weight_monotone_in_age(te, gamma):
    assert time_weight(te + 1, gamma) <= time_weight(te, gamma) + 1e-15


def test_time_weight_rejects_bad_inputs():
    with pytest.raises(ValueError):
        time_weight(-1, 0.9)
    with pytest.raises(ValueError):
        time_weight(3, 0.0)
    with pytest.raises(ValueError):
        time_weight(3, 1.5)


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
    # nan is not negative: it passes the check and spreads, as before
    assert all(map(math.isnan, normalize_weights([float("nan"), 1.0])))
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
