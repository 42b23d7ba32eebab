"""Property-based checks over random drives of every kind.

Each strict drive keeps ess inf(f - sigma) >= 0.2, so the firing map is the
lift of a circle homeomorphism and every crossing is simple.  The leaky
drives cover every signal kind; the batched map is also checked on perfect
integrators (sigma = 0) with trigonometric drives.  Step-drive perfect
integrators, zero steps included, must match the exact rational oracle of
``helpers`` bit for bit.  The essential bounds of arbitrary trigonometric
drives must match the extremum oracle of ``helpers`` to rounding, move by
sigma alone, and enclose the 40-digit values of f at its local extrema.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from firingmap import (
    EssentialBounds,
    IFSystem,
    PiecewiseConstant,
    Sampled,
    TrigPolynomial,
    check_lift,
    detect_locking,
    firing_time,
    firing_times,
    iterate,
    parse_signal,
    pi_rotation,
    rotation_enclosure,
    rotation_number,
)

from helpers import (
    half_on_half_off,
    mp_weighted_integral,
    pwc_crossing_oracle,
    pwc_integral_oracle,
    threshold_gap,
    trig_extrema_oracle,
    trig_value_mp,
)

MARGIN = 0.2
sigmas = st.floats(0.25, 3.0)
levels = st.floats(MARGIN, 3.0)


@st.composite
def trig_drives(draw, sigma):
    ks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    hs = [(k, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))) for k in ks]
    a0 = sigma + MARGIN + sum(abs(c) + abs(s) for _, c, s in hs) + draw(st.floats(0.0, 1.0))
    return TrigPolynomial(a0, hs)


@st.composite
def step_drives(draw, sigma):
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
    breaks = [0.0] + sorted(inner)
    return PiecewiseConstant(breaks, [sigma + draw(levels) for _ in breaks])


@st.composite
def sampled_drives(draw, sigma):
    n = draw(st.integers(2, 40))
    return Sampled([sigma + draw(levels) for _ in range(n)])


@st.composite
def lif_systems(draw):
    sigma = draw(sigmas)
    kind = draw(st.sampled_from([trig_drives, step_drives, sampled_drives]))
    return IFSystem(sigma, draw(kind(sigma)))


strict_systems = st.one_of(lif_systems(), trig_drives(0.0).map(lambda sig: IFSystem(0.0, sig)))
grids = st.floats(-3.0, 3.0).map(lambda t0: t0 + np.linspace(0.0, 1.0, 257))


@settings(max_examples=40, deadline=None)
@given(lif_systems(), st.floats(-3.0, 3.0))
# t0 % 1.0 rounds to 1.0, the end of the warm-start table
@example(IFSystem(1.0, TrigPolynomial(2.0, [(1, 0.5, 0.0)])), -4.785273787104962e-104)
def test_iterate_steps_equal_cold_firing_times(system, t0):
    orbit = iterate(system, t0, 40)
    starts = np.concatenate([[t0], orbit.times[:-1]])
    for t, phi in zip(starts.tolist(), orbit.times.tolist()):
        assert firing_time(system, t) == phi
        res = system.signal.weighted_integral_scaled(system.sigma, t, phi - t) - 1.0
        assert abs(res) < 1e-9


@settings(max_examples=40, deadline=None)
@given(lif_systems())
def test_lift_property(system):
    assert check_lift(system, np.linspace(0.0, 1.0, 9)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(strict_systems, grids)
@example(IFSystem(0.0, TrigPolynomial(2.0, [(1, 0.5, 0.0)])),
         -4.785273787104962e-104 + np.linspace(0.0, 1.0, 257))
def test_firing_times_equal_scalar_firing_time(system, ts):
    phi = firing_times(system, ts)
    for t, p in zip(ts.tolist(), phi.tolist()):
        assert firing_time(system, t) == pytest.approx(p, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(strict_systems, grids)
def test_firing_times_monotone(system, ts):
    assert np.all(np.diff(firing_times(system, ts)) >= 0.0)


@settings(max_examples=40, deadline=None)
@given(strict_systems, grids)
def test_firing_times_lift(system, ts):
    assert np.max(np.abs(firing_times(system, ts + 1.0) - firing_times(system, ts) - 1.0)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(sigmas.flatmap(lambda sigma: trig_drives(sigma).map(lambda sig: IFSystem(sigma, sig))))
# drives on which plain safeguarded Newton falls into a 2-cycle
@example(IFSystem(1.0, TrigPolynomial(3.23125, [(1, 0.0625, 0.0), (4, 1.0, 0.5)])))
@example(IFSystem(2.0, TrigPolynomial(2.93828125, [(2, 0.046875, 0.0), (3, 0.31640625, 0.375)])))
def test_locking_status_holds_on_independent_grid(system):
    res = detect_locking(system, rho_tol=1e-4)
    ts = np.arange(1024) / 1024
    phi = ts
    for _ in range(res.q):
        phi = firing_times(system, phi)
    g = phi - ts - res.p
    flips = bool(np.any(g * np.roll(g, -1) <= 0.0))
    if res.status == "unlocked":
        assert not flips
        # the grid's own values carry up to q solver steps of error
        assert np.min(np.abs(g)) >= res.margin - res.q * 1e-12
    elif res.status == "locked":
        assert flips or res.residual < 1e-8


ENCLOSURE_TOL = 1e-5  # caps an enclosure orbit at 1e5 spikes


def _enclosure_interval(system):
    est, _ = rotation_enclosure(system, rho_tol=ENCLOSURE_TOL)
    assert est.error_bound <= ENCLOSURE_TOL
    return est.value - est.error_bound, est.value + est.error_bound


@settings(max_examples=10, deadline=None)
@given(trig_drives(0.0))
def test_rotation_enclosure_contains_pi_rotation(sig):
    lo, hi = _enclosure_interval(IFSystem(0.0, sig))
    exact = pi_rotation(sig)
    assert lo - exact.error_bound <= exact.value <= hi + exact.error_bound


@settings(max_examples=5, deadline=None)
@given(sigmas.flatmap(lambda sigma: st.sampled_from([trig_drives, step_drives]).flatmap(
    lambda kind: kind(sigma)).map(lambda sig: IFSystem(sigma, sig))), st.floats(0.1, 0.9))
def test_rotation_enclosure_meets_long_orbit_interval(system, t0):
    lo, hi = _enclosure_interval(system)
    other = rotation_number(system, t0, 100_000)  # an independent orbit, bound 1e-5
    assert lo <= other.value + other.error_bound and other.value - other.error_bound <= hi


# step drives on which a slope certificate that took ess sup f for ess inf(f - sigma)
# accepts spikes from t0 = 1000 up to twice as far off as the bound below allows
FAR_STEP_A = IFSystem(1.915891199989868, PiecewiseConstant(
    [0.0, 0.18625728654513513, 0.35444498466363517, 0.43257286861297223, 0.8347667736539746],
    [2.1481476039365655, 4.624261798378978, 4.636817225940089, 3.207814851479808,
     3.188038432232651]))
FAR_STEP_B = IFSystem(0.9268386187830562, PiecewiseConstant(
    [0.0, 0.020372635773827995, 0.14113626470288468, 0.18577154726336734],
    [3.175297237525294, 3.868723833739293, 1.233320649329267, 1.8553798476256806]))
# sigma Q/(f - sigma) = 9.2 at a spike near t = 131072: a solver that takes
# exp(sigma*d) at d but Q at the rounded t + d misplaces it by 1.4 times the bound
FAR_STEP_C = IFSystem(0.9609375, PiecewiseConstant([0.0, 0.4765625], [1.1609375, 3.890625]))


@settings(max_examples=30, deadline=None)
@given(sigmas.flatmap(lambda sigma: st.sampled_from([trig_drives, step_drives]).flatmap(
    lambda kind: kind(sigma)).map(lambda sig: IFSystem(sigma, sig))), st.floats(1e3, 1e6))
@example(FAR_STEP_A, 1000.0)
@example(FAR_STEP_B, 1000.0)
@example(FAR_STEP_C, 131071.25)
def test_far_spikes_meet_the_threshold(system, t0):
    # Far from t = 0 the slope certificate accepts most spikes, and no spike
    # may lie further from the 40-digit crossing than the bracket test allows:
    # width_tol/2, plus ulp/2 for rounding t + d.  In potential units that is
    # the slope f - sigma times this.
    orbit = iterate(system, t0, 20)
    sig, sigma = system.signal, system.sigma
    for t, x in zip([t0, *orbit.times[:-1].tolist()], orbit.times.tolist()):
        gap = float(threshold_gap(sig, sigma, t, x))
        f = sig.kernel(sigma)(x)[1]
        ulp = math.ulp(x)
        assert abs(gap) <= (f - sigma) * (0.5 * 8e-16 * abs(t) + 0.5 * ulp)


@settings(max_examples=30, deadline=None)
@given(sigmas, st.lists(levels, min_size=2, max_size=12), st.floats(-5.0, 5.0), st.floats(0.05, 3.0))
def test_sampled_weighted_integral_exact(sigma, levels_, t, delta):
    values = [sigma + v for v in levels_]
    got = Sampled(values).weighted_integral_scaled(sigma, t, delta)
    with mpmath.workdps(30):  # of (f - sigma) exp(sigma (u - t)) over [t, t + delta]
        ref = mpmath.exp(-sigma * mpmath.mpf(t)) * mp_weighted_integral(
            Sampled(values), sigma, t, mpmath.mpf(t) + mpmath.mpf(delta))
    assert got == pytest.approx(float(ref), rel=1e-12)


@st.composite
def pi_step_drives(draw):
    """1 to 64 steps, zero steps allowed, positive mean."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=63, unique=True))
    breaks = [0.0] + sorted(inner)
    values = draw(st.lists(st.just(0.0) | st.floats(0.01, 8.0),
                           min_size=len(breaks), max_size=len(breaks)))
    sig = PiecewiseConstant(breaks, values)
    assume(sig.mean() > 1e-9)
    return sig


SPECIAL_STARTS = [1e-300, 5e-324, 1e6]
# 64 steps with non-dyadic breakpoints and a zero step two in every three
STEP64 = PiecewiseConstant([math.sqrt(j / 64) for j in range(64)],
                           [0.0 if j % 3 else 0.5 + 0.1 * j for j in range(64)])
# unit mass: from t = 0 every threshold is reached exactly where a zero step begins
HALF_ON = half_on_half_off()


def pi_starts(sig):
    """A uniform start, a breakpoint shifted by whole periods, or an extreme start."""
    shifted = st.tuples(st.integers(-3, 3), st.sampled_from(sig.breakpoints)).map(sum)
    return st.floats(-5.0, 5.0) | shifted | st.sampled_from(SPECIAL_STARTS)


pi_step_cases = pi_step_drives().flatmap(lambda sig: st.tuples(st.just(sig), pi_starts(sig)))


@settings(max_examples=60, deadline=None)
@given(pi_step_cases)
@example((STEP64, STEP64.breakpoints[31] + 2))
@example((HALF_ON, 0.0))
def test_pi_step_firing_time_and_cumulative_match_oracle(case):
    sig, t = case
    system = IFSystem(0.0, sig)
    want, x = [], t  # each spike is the correctly rounded crossing from the float before
    for _ in range(5):
        x = float(pwc_crossing_oracle(sig, Fraction(x), 1))
        want.append(x)
    assert firing_time(system, t) == want[0]
    assert iterate(system, t, 5).times.tolist() == want


@settings(max_examples=30, deadline=None)
@given(pi_step_drives(), st.floats(-5.0, 5.0))
@example(STEP64, 0.3)
@example(HALF_ON, 0.0)
def test_pi_step_firing_times_lanes_match_oracle(sig, u):
    ts = [u, *SPECIAL_STARTS] + [k + b for b in sig.breakpoints for k in (0, -2, 3)]
    phi = firing_times(IFSystem(0.0, sig), ts)
    assert phi.tolist() == [float(pwc_crossing_oracle(sig, t, 1)) for t in ts]


@settings(max_examples=60, deadline=None)
@given(pi_step_cases, st.floats(0.0, 10.0))
@example((STEP64, 5e-324), 7.3)
def test_pi_step_integral_matches_oracle(case, width):
    sig, a = case
    for b in (a + width, a + 1.0, 1e6):
        if b >= a:
            assert sig.integral(a, b) == float(pwc_integral_oracle(sig, a, b))


# two nearly level wells: the grid's best point lies in the shallower one
NEAR_LEVEL_WELLS = TrigPolynomial(3.0, [(1, 0.0, 1e-6), (3, 1.0, 0.0)])
# a grid maximum in the wrong well, 3.2e-4 below the true maximum 11.85953417
HIGH_HARMONICS = parse_signal(
    "trig:7.597111468050278;8,-0.3829488895870716,-0.5948891385019035;"
    "17,-0.17697387727276728,0.9678072570350138;24,0.6116001531870114,0.5883497403797692;"
    "25,0.2136276032155486,0.6609100304325133;35,1.4476000014639705,-1.0648768888459912"
)

# 4,096 wells level to 2e-6 for each extremum
MANY_LEVEL_WELLS = TrigPolynomial(3.0, [(1, 1e-6, 0.0), (4096, 1.0, 0.0)])


@st.composite
def any_trig_drives(draw):
    ks = draw(st.lists(st.integers(1, 24), min_size=1, max_size=5, unique=True))
    amp = st.floats(-2.0, 2.0)
    return TrigPolynomial(draw(st.floats(-3.0, 3.0)), [(k, draw(amp), draw(amp)) for k in ks])


@settings(max_examples=100, deadline=None)
@given(any_trig_drives(), st.floats(0.0, 3.0))
@example(NEAR_LEVEL_WELLS, 1.9999996)
@example(HIGH_HARMONICS, 1.0)
@example(MANY_LEVEL_WELLS, 1.0)
def test_trig_essential_bounds_match_oracle(sig, sigma):
    lo, hi = trig_extrema_oracle(sig)
    tol = 1e-13 * (abs(sig.a0) + sum(math.hypot(c, s) for _, c, s in sig.harmonics))
    b = sig.essential_bounds(0.0)
    assert b.lower == pytest.approx(lo, abs=tol)
    assert b.upper == pytest.approx(hi, abs=tol)
    # sigma only shifts the lower bound, by one rounding
    assert sig.essential_bounds(sigma) == EssentialBounds(b.lower - sigma, b.upper)


@settings(max_examples=100, deadline=None)
@given(any_trig_drives())
@example(NEAR_LEVEL_WELLS)
@example(HIGH_HARMONICS)
@example(MANY_LEVEL_WELLS)
def test_trig_essential_bounds_are_certified(sig):
    # the bounds enclose f at every local extremum the oracle finds, to 40
    # digits; at sigma = 0, so that lower is not rounded once more
    _, _, argmins, argmaxs = trig_extrema_oracle(sig, with_args=True)
    b = sig.essential_bounds(0.0)
    assert all(b.lower <= trig_value_mp(sig, x) for x in argmins.tolist())
    assert all(b.upper >= trig_value_mp(sig, x) for x in argmaxs.tolist())


def test_trig_essential_bounds_evaluate_few_points(monkeypatch):
    # 4,096 level wells each for the minimum and the maximum: f is evaluated
    # through the array kernel, counted here, at most 4 times per grid point
    sig = TrigPolynomial(MANY_LEVEL_WELLS.a0, MANY_LEVEL_WELLS.harmonics)
    kernel_array, points = sig.kernel_array, []

    def counting(sigma):
        kern = kernel_array(sigma)

        def count(xs):
            points.append(np.size(xs))
            return kern(xs)

        return count

    monkeypatch.setattr(sig, "kernel_array", counting)
    sig.essential_bounds(1.0)
    assert 0 < sum(points) <= 262_144
