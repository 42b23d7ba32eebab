"""Cross-checks against independent brute-force oracles.

Everything here recomputes firing circuitry a second way: direct ODE event
integration for firing times, dense sampling for extrema, midpoint Riemann
sums for invariant masses.  Slower than the unit tests but catches solver
biases no closed-form self-check would.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from firingmap import (
    IFSystem,
    PiecewiseConstant,
    Sampled,
    TrigPolynomial,
    empirical_isi_dist,
    firing_time,
    isi_density_pi,
    isi_sequence,
    iterate,
    pi_rotation,
    rotation_number,
)

from helpers import cosine_lif


def ode_firing_time(sigma, f, t, horizon=12.0):
    def rhs(u, x):
        return -sigma * x[0] + f(u)

    def hit(u, x):
        return x[0] - 1.0

    hit.terminal = True
    hit.direction = 1
    sol = solve_ivp(rhs, (t, t + horizon), [0.0], events=hit,
                    rtol=1e-12, atol=1e-14, max_step=0.05)
    assert sol.t_events[0].size, "oracle never reached the threshold"
    return float(sol.t_events[0][0])


def test_trig_lif_vs_ode():
    for beta in (0.1, 0.25, 0.45):
        system = cosine_lif(beta)
        for t in (0.0, 0.3, 0.77, -0.4, 5.21):
            mine = firing_time(system, t)
            oracle = ode_firing_time(1.0, system.signal.eval, t)
            assert mine == pytest.approx(oracle, abs=5e-10)


def test_pwc_lif_vs_ode():
    sig = PiecewiseConstant([0.0, 0.3, 0.7], [3.0, 1.5, 2.2])
    system = IFSystem(1.0, sig)
    for t in (0.0, 0.15, 0.3, 0.64, 0.95, 2.33):
        mine = firing_time(system, t)
        oracle = ode_firing_time(1.0, sig.eval, t)
        assert mine == pytest.approx(oracle, abs=5e-9)


def test_sampled_lif_vs_ode():
    values = 2.0 + 0.4 * np.sin(2 * np.pi * np.arange(48) / 48)
    sig = Sampled(values)
    system = IFSystem(1.0, sig)
    for t in (0.0, 0.41, 1.87):
        mine = firing_time(system, t)
        oracle = ode_firing_time(1.0, sig.eval, t)
        assert mine == pytest.approx(oracle, abs=1e-7)


def test_large_leak_rate_vs_ode():
    sig = TrigPolynomial(6.0, [(1, 0.5, 0.0)])
    system = IFSystem(5.0, sig)
    for t in (0.0, 0.6):
        mine = firing_time(system, t)
        oracle = ode_firing_time(5.0, sig.eval, t, horizon=3.0)
        assert mine == pytest.approx(oracle, abs=5e-10)
    orbit = iterate(system, 0.0, 500)
    assert np.all(np.diff(orbit.times) > 0)


def test_nonneg_pi_trig_with_zero_vs_ode():
    # f = 1 + cos touches zero at t = 1/2: nonneg-PI regime, continuous map
    sig = TrigPolynomial(1.0, [(1, 1.0, 0.0)])
    system = IFSystem(0.0, sig)
    for t in (0.0, 0.45, 0.8):
        mine = firing_time(system, t)
        oracle = ode_firing_time(0.0, sig.eval, t)
        assert mine == pytest.approx(oracle, abs=1e-8)
    # at t = 1/2 the threshold is reached tangentially (the drive has a
    # double zero exactly at the crossing), so the root is cube-root
    # conditioned: no solver resolves it beyond ~(eps)^(1/3).  Exact answer
    # is 3/2; stay within that conditioning limit.
    assert firing_time(system, 0.5) == pytest.approx(1.5, abs=1e-5)
    # rotation number of the closed form still applies
    assert pi_rotation(sig).value == pytest.approx(1.0, abs=1e-14)


def test_far_from_origin_starts():
    system = cosine_lif(0.25)
    for base in (-1000.0, 1e6, 12345.678):
        near = firing_time(system, base) - base
        ref = firing_time(system, base - math.floor(base))
        ref_d = ref - (base - math.floor(base))
        assert near == pytest.approx(ref_d, abs=1e-8)


def test_multi_harmonic_density_transport():
    # two harmonics: displacement levels can have four roots; golden-mean
    # level keeps the rotation number safely irrational
    from helpers import GOLDEN_A0

    sig = TrigPolynomial(GOLDEN_A0, [(1, 0.35, 0.0), (2, 0.0, 0.2)])
    system = IFSystem(0.0, sig)
    curve = isi_density_pi(sig)
    assert curve.integral() == pytest.approx(1.0, abs=0.02)
    emp = empirical_isi_dist(isi_sequence(iterate(system, 0.0, 200_000)))
    cdf = curve.cdf()
    ks = float(np.max(np.abs(cdf / cdf[-1] - emp.cdf(curve.y))))
    assert ks < 0.01


def test_invariant_mass_vs_riemann():
    # invariant measure of an interval via the exact antiderivative against
    # a midpoint Riemann sum on the raw signal
    sig = TrigPolynomial(2.0, [(1, 0.7, -0.4)])
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = float(rng.uniform(0, 1))
        b = a + float(rng.uniform(0, 1))
        m = 20000
        xs = a + (np.arange(m) + 0.5) * (b - a) / m
        riemann = float(np.sum(sig.eval_array(xs))) * (b - a) / m
        assert sig.integral(a, b) == pytest.approx(riemann, abs=1e-7)


def test_rotation_against_long_double_average():
    # two independent estimates bracketing the same rotation number
    system = cosine_lif(0.2)
    a = rotation_number(system, 0.0, 40000)
    b = rotation_number(system, 0.5, 80000)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound

def test_pwc_lif_walk_rounding_stall_regression():
    # k + breakpoint can round to exactly the current walk position, which
    # used to freeze the segment walk one ulp below the breakpoint
    breaks = [0.0, 0.1396832397055564, 0.31886797452353394,
              0.392668314297717, 0.675193602049266]
    vals = [0.8980945389658621, 1.124487148291275, 2.0715212417511,
            0.6320526089304642, 2.8364698884697104]
    sig = PiecewiseConstant(breaks, vals)
    system = IFSystem(0.09245466310001726, sig)
    t = 0.8859698267366785
    mine = firing_time(system, t)
    oracle = ode_firing_time(system.sigma, sig.eval, t)
    assert mine == pytest.approx(oracle, abs=5e-9)


def test_randomized_pwc_lif_vs_ode():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(8):
        m = int(rng.integers(2, 6))
        breaks = [0.0] + sorted(float(b) for b in rng.uniform(0.05, 0.95, m - 1))
        sigma = float(rng.uniform(0.05, 1.5))
        vals = [float(v) for v in rng.uniform(sigma + 0.2, sigma + 3.0, m)]
        sig = PiecewiseConstant(breaks, vals)
        system = IFSystem(sigma, sig)
        for t in rng.uniform(-1.0, 3.0, 2):
            t = float(t)
            mine = firing_time(system, t)
            oracle = ode_firing_time(sigma, sig.eval, t, horizon=10.0)
            assert mine == pytest.approx(oracle, abs=5e-8)
            checked += 1
    assert checked == 16
