import math

import numpy as np
import pytest
from scipy.integrate import quad

from firingmap import (
    EssentialBounds,
    PiecewiseConstant,
    Sampled,
    TrigPolynomial,
    constant,
    parse_signal,
    signal_spec,
)

from helpers import half_on_half_off


def test_trig_eval_at_zero():
    sig = TrigPolynomial(2.0, [(1, 0.8, 0.0)])
    assert sig.eval(0.0) == pytest.approx(2.8, abs=1e-15)


def test_pwc_eval_inside_and_periodic():
    sig = half_on_half_off()
    assert sig.eval(0.25) == 2.0
    assert sig.eval(1.75) == 0.0
    assert sig.eval(-0.25) == 0.0  # same point as 0.75


def test_trig_full_period_integral():
    sig = TrigPolynomial(2.0, [(1, 1.0, 0.0)])
    assert sig.integral(0.0, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_pwc_period_mass():
    assert half_on_half_off().integral(0.0, 1.0) == 1.0


def test_empty_interval_integral():
    for sig in (TrigPolynomial(2.0, [(1, 0.3, 0.2)]), half_on_half_off()):
        assert sig.integral(0.7, 0.7) == 0.0


def _weighted(sig, sigma, a, b):
    """Integral of [f(u) - sigma] exp(sigma*u) over [a, b], from the scaled form."""
    return math.exp(sigma * a) * sig.weighted_integral_scaled(sigma, a, b - a)


def test_weighted_integral_sigma_zero_degenerates():
    sig = TrigPolynomial(2.0, [(1, 0.5, 0.1)])
    for t, delta in [(0.0, 1.0), (0.2, 2.5), (-1.3, 1.7)]:
        assert sig.weighted_integral_scaled(0.0, t, delta) == sig.integral(t, t + delta)


def test_weighted_integral_constant_closed_form():
    c, sigma = 2.5, 0.7
    sig = constant(c)
    for a, b in [(0.0, 1.0), (0.3, 1.9), (-0.5, 0.25)]:
        expected = (c - sigma) * (math.exp(sigma * b) - math.exp(sigma * a)) / sigma
        got = _weighted(sig, sigma, a, b)
        assert got == pytest.approx(expected, rel=1e-13)


def test_weighted_integral_trig_vs_quadrature():
    sig = TrigPolynomial(2.0, [(1, 0.8, 0.0)])
    got = _weighted(sig, 1.0, 0.0, 1.0)
    oracle, _ = quad(lambda u: (sig.eval(u) - 1.0) * math.exp(u), 0.0, 1.0,
                     epsabs=1e-14, epsrel=1e-14)
    assert got == pytest.approx(oracle, rel=1e-12)


def _jump_points(sig, a, b):
    # tell the adaptive oracle where the integrand is discontinuous
    if not isinstance(sig, PiecewiseConstant):
        return None
    pts = []
    k = math.floor(a)
    while k <= math.ceil(b):
        pts.extend(k + bp for bp in sig.breakpoints)
        k += 1
    return [p for p in pts if a < p < b] or None


def test_closed_forms_vs_quadrature_random_intervals():
    rng = np.random.default_rng(42)
    trig = TrigPolynomial(1.7, [(1, 0.4, -0.3), (3, -0.2, 0.15)])
    pwc = PiecewiseConstant([0.0, 0.25, 0.6], [1.0, 3.0, 0.5])
    for _ in range(25):
        a = float(rng.uniform(-2, 2))
        b = a + float(rng.uniform(0, 3))
        sigma = float(rng.uniform(0.1, 2.0))
        for sig in (trig, pwc):
            pts = _jump_points(sig, a, b)
            plain, _ = quad(sig.eval, a, b, epsabs=1e-13, epsrel=1e-13,
                            limit=200, points=pts)
            assert sig.integral(a, b) == pytest.approx(plain, rel=1e-10, abs=1e-11)
            weighted, _ = quad(
                lambda u: (sig.eval(u) - sigma) * math.exp(sigma * u),
                a, b, epsabs=1e-13, epsrel=1e-13, limit=200, points=pts,
            )
            assert _weighted(sig, sigma, a, b) == pytest.approx(
                weighted, rel=1e-10, abs=1e-10
            )


def test_periodicity_of_eval():
    rng = np.random.default_rng(0)
    trig = TrigPolynomial(2.0, [(1, 0.6, 0.2), (2, -0.1, 0.05)])
    pwc = half_on_half_off()
    for t in rng.uniform(-3, 3, 1000):
        assert abs(trig.eval(t + 1.0) - trig.eval(t)) < 1e-12
        assert abs(pwc.eval(t + 1.0) - pwc.eval(t)) < 1e-12


def test_integral_additivity_and_shift():
    rng = np.random.default_rng(1)
    sig = TrigPolynomial(2.0, [(1, 0.6, 0.2), (4, 0.05, -0.3)])
    for _ in range(200):
        a, b, c = np.sort(rng.uniform(-3, 3, 3))
        whole = sig.integral(a, c)
        split = sig.integral(a, b) + sig.integral(b, c)
        assert whole == pytest.approx(split, abs=1e-12)
        assert sig.integral(a + 1.0, b + 1.0) == pytest.approx(
            sig.integral(a, b), abs=1e-12
        )


def test_weighted_shift_identity():
    # integral over [a+1, b+1] of [f-s]e^{su} equals e^s times the [a, b] one
    rng = np.random.default_rng(2)
    sig = TrigPolynomial(2.0, [(1, 0.7, -0.2)])
    sigma = 0.9
    for _ in range(100):
        a = float(rng.uniform(-2, 2))
        b = a + float(rng.uniform(0, 2))
        lhs = _weighted(sig, sigma, a + 1.0, b + 1.0)
        rhs = math.exp(sigma) * _weighted(sig, sigma, a, b)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_essential_bounds_constant():
    assert constant(2.0).essential_bounds(1.0) == EssentialBounds(1.0, 2.0)


def test_essential_bounds_trig():
    sig = TrigPolynomial(2.0, [(1, 0.8, 0.0)])  # 2(1 + 0.4 cos)
    b = sig.essential_bounds(1.0)
    assert b.lower == pytest.approx(0.2, abs=1e-10)
    assert b.upper == pytest.approx(2.8, abs=1e-10)


def test_essential_bounds_trig_with_sine_mix():
    sig = TrigPolynomial(1.0, [(1, 0.3, 0.4), (2, 0.0, -0.2)])
    grid = sig.eval_array(np.linspace(0, 1, 200001))
    b = sig.essential_bounds(0.25)
    assert b.lower == pytest.approx(float(grid.min()) - 0.25, abs=1e-8)
    assert b.upper == pytest.approx(float(grid.max()), abs=1e-8)


def test_essential_bounds_trig_near_the_float_range():
    # the cell bound's parabola term must not overflow for amplitudes near 1e306
    b = TrigPolynomial(2e306, [(1, 1e306, 0.0)]).essential_bounds(0.0)
    assert b.lower == pytest.approx(1e306, rel=1e-12) and b.lower <= 1e306
    assert b.upper == pytest.approx(3e306, rel=1e-12) and b.upper >= 3e306


def test_essential_bounds_pwc():
    b = half_on_half_off().essential_bounds(0.0)
    assert (b.lower, b.upper) == (0.0, 2.0)


def test_sampled_eval_and_integral():
    values = [1.0, 2.0, 0.5, 1.5]
    sig = Sampled(values)
    assert sig.eval(0.0) == 1.0
    assert sig.eval(0.25) == 2.0
    assert sig.eval(0.125) == 1.5  # midpoint of first segment
    assert sig.eval(0.875 + 3.0) == 1.25  # wraps to values[0]
    plain, _ = quad(sig.eval, 0.1, 2.3, epsabs=1e-12, limit=200)
    assert sig.integral(0.1, 2.3) == pytest.approx(plain, abs=1e-9)
    # trapezoid of the nodes is exact for the interpolant over a full period
    assert sig.integral(0.0, 1.0) == pytest.approx(np.mean(values), abs=1e-14)


def test_sampled_weighted_vs_quadrature():
    sig = Sampled([1.0, 2.0, 0.5, 1.5, 1.2, 0.8, 1.9, 1.1])
    oracle, _ = quad(
        lambda u: (sig.eval(u) - 0.5) * math.exp(0.5 * u), 0.2, 1.7,
        epsabs=1e-12, limit=400,
    )
    assert _weighted(sig, 0.5, 0.2, 1.7) == pytest.approx(oracle, rel=1e-7)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TrigPolynomial(1.0, [(0, 1.0, 0.0)])
    with pytest.raises(ValueError):
        TrigPolynomial(1.0, [(2, 1.0, 0.0), (2, 0.5, 0.0)])
    with pytest.raises(ValueError):
        PiecewiseConstant([0.1, 0.5], [1.0, 2.0])  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseConstant([0.0, 0.5, 0.4], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Sampled([1.0])


def test_grammar_round_trip():
    for spec in ["const:2", "trig:2;1,0.8,0", "trig:1.5;1,0.3,-0.2;3,0,0.1",
                 "pwc:0,2;0.5,0", "pwc:0,1;0.25,3;0.6,0.5"]:
        assert signal_spec(parse_signal(spec)) == spec


def test_grammar_canonicalizes():
    assert signal_spec(parse_signal("trig:2.0")) == "const:2"
    assert signal_spec(parse_signal("pwc:0.0,2.00;0.50,0")) == "pwc:0,2;0.5,0"


def test_grammar_sampled(tmp_path):
    path = tmp_path / "values.csv"
    path.write_text("1.0\n2.0\n0.5\n")
    sig = parse_signal(f"sampled:{path}")
    assert isinstance(sig, Sampled)
    assert sig.eval(0.0) == 1.0
    assert signal_spec(sig) == f"sampled:{path}"


def test_grammar_errors():
    for bad in ["nope:1", "trig:", "pwc:0.5,1", "const:abc"]:
        with pytest.raises(ValueError):
            parse_signal(bad)
