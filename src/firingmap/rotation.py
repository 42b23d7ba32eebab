"""Rotation numbers, phase locking and conjugacy to rigid rotation.

The firing map of a validated system lifts a circle homeomorphism, so
``(Phi^n(t) - t)/n`` converges to a rotation number independent of t, with
the classical a-priori bound |estimate - rho| < 1/n.  For the perfect
integrator the rotation number and the conjugacy to the rotation are
available in closed form.  Phase locking is decided by certificates that
the monotonicity of the lift draws from one short orbit
(:func:`detect_locking`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FiringMapError, IllPosedError, LockedError
from .firing import (
    _RESIDUAL_TOL,
    IFSystem,
    Regime,
    _max_displacement,
    firing_times,
    iterate,
)
from .signals import PeriodicSignal


@dataclass(frozen=True)
class RotationEstimate:
    """A rotation-number value with a rigorous error bound."""

    value: float
    error_bound: float
    n_iterates: int  # length of the orbit behind it; 0 for a closed form


@dataclass(frozen=True)
class LockingResult:
    """Outcome of a phase-locking test.

    ``p``/``q`` (coprime, q <= q_max) is the fraction the outcome is about.
    ``status`` is one of

    * ``locked``: a periodic-orbit witness, i.e. Phi^q - Id - p has a
      (near-)zero; ``locked`` is True for this status only;
    * ``unlocked``: rho is certified strictly between two Farey neighbours
      a/b < rho < c/d with b + d > q_max, so no fraction with q <= q_max is
      the rotation number; p/q is the one of them nearer the estimate;
    * ``undecided``: neither could be shown within the work allowed.

    ``residual`` is the smallest |Phi^q(t) - t - p| seen.  ``margin`` is,
    for an ``unlocked`` result, the monotone lower bound on
    |Phi^q - Id - p| from the computed values; it exceeds their error
    allowance (see :func:`detect_locking`), so |Phi^q - Id - p| > 0
    everywhere.  It is 0 for the other statuses.
    """

    locked: bool
    p: int
    q: int
    residual: float
    status: str
    margin: float = 0.0


def rotation_number(system: IFSystem, t0: float, n: int) -> RotationEstimate:
    """Estimate the rotation number from n iterates started at t0.

    The bound |value - rho| <= 1/n holds whenever the firing map lifts a
    circle homeomorphism.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return RotationEstimate((float(iterate(system, t0, n).times[-1]) - t0) / n, 1.0 / n, n)


def pi_rotation(signal: PeriodicSignal) -> RotationEstimate:
    """Closed-form perfect-integrator rotation number 1 / mean(f)."""
    m = signal.mean()
    if m <= 0.0:
        raise IllPosedError(f"mean input {m:.6g} <= 0; no rotation number")
    value = 1.0 / m
    return RotationEstimate(value, 1e-14 * abs(value), 0)


def pi_conjugacy(signal: PeriodicSignal, t: float) -> float:
    """Lift of the map conjugating the PI firing phase map to the rotation.

    Gamma(t) = integral_0^t f / integral_0^1 f; increasing, Gamma(0) = 0 and
    Gamma(t+1) = Gamma(t) + 1.  Requires f >= 0 a.e. with positive mean.
    """
    IFSystem(0.0, signal).regime  # validates
    return signal.integral(0.0, t) / signal.mean()


def best_rational(x: float, q_max: int) -> tuple[int, int]:
    """Best rational approximation p/q of x with 1 <= q <= q_max, coprime.

    Walks the Stern-Brocot tree down to the Farey neighbours a/b <= x <= c/d
    with b + d > q_max and returns the nearer one.
    """
    lo, hi = (math.floor(x), 1), (math.floor(x) + 1, 1)
    while lo[1] + hi[1] <= q_max:
        m, n = lo[0] + hi[0], lo[1] + hi[1]
        if x == m / n:
            return m, n
        if x < m / n:
            hi = (m, n)
        else:
            lo = (m, n)
    return lo if x - lo[0] / lo[1] <= hi[0] / hi[1] - x else hi


_ORBIT_SPIKES = 1024  # length of the first certificate orbit
_GRID_SIZE = 64  # grid of a mediant the orbit cannot place
_MIN_RHO_TOL = 2.0 ** -22  # the least rho_tol: an orbit of at most 4,194,304 spikes


def _orbit_cap(rho_tol: float) -> int:
    """The certificate orbit's cap ceil(1/rho_tol); refuses rho_tol below 2**-22."""
    if not rho_tol >= _MIN_RHO_TOL:
        raise ValueError(f"rho_tol must be >= 2**-22, which caps the orbit at "
                         f"{math.ceil(1.0 / _MIN_RHO_TOL):,} spikes; got {rho_tol!r}")
    return max(1, math.ceil(1.0 / rho_tol))


def _slack(q: int, t_max: float, dmax: float) -> float:
    """Error allowance of Phi^q - Id - p computed by q solver steps within |t| <= t_max.

    A step is accurate to the solver's residual 1e-13 (which bounds |g/g'|),
    to a quarter of its width_tol by the slope certificate, or to half its
    last bracket, at most 1e-15 dmax + 8e-16 |t|, and
    rounding t + d adds ulp(t)/2; so 1e-13 + 1e-15 (dmax + t_max) per step,
    added up over the q steps.  Forming the differences and the phase gaps
    rounds by at most 1e-15 (t_max + 1) more.
    """
    return q * (_RESIDUAL_TOL + 1e-15 * (dmax + t_max)) + 1e-15 * (t_max + 1.0)


def _monotone_bounds(s: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Bounds on G = Phi^q - Id - p from its values v at sorted phases s in [0, 1).

    Phi^q is non-decreasing, so on the cell [s_i, s_{i+1}] (the last one
    wraps to s_0 + 1, G being 1-periodic) G >= v_i - gap_i and
    G <= v_{i+1} + gap_i.  Returns ``(above, below)``: G >= above
    everywhere and G <= -below everywhere.
    """
    gap = np.diff(s, append=s[0] + 1.0)
    return float(np.min(v - gap)), float(np.min(-np.roll(v, -1) - gap))


def _grid_test(system: IFSystem, p: int, q: int, residual_tol: float):
    """Phi^q - Id - p on a uniform grid of [0, 1), as q batched solves.

    Returns ``(side, margin, residual)``.  ``side`` is 0 at a sign change,
    whose bracket is bisected for the smallest residual (``margin`` > 0 when
    the grid certifies both signs of a continuous Phi^q, proving a zero);
    +1 or -1 when the grid's monotone bounds certify rho above or below p/q by
    ``margin``; 0 again when the smallest residual is below ``residual_tol``; else None.
    """
    ts = np.linspace(0.0, 1.0, _GRID_SIZE, endpoint=False)
    phi_q = ts
    for _ in range(q):
        phi_q = firing_times(system, phi_q)
    vals = phi_q - ts - p
    residual = float(np.min(np.abs(vals)))
    dmax = _max_displacement(system)
    slack = _slack(q, 1.0 + q * dmax, dmax)
    flips = np.flatnonzero((vals == 0.0) | (vals * np.roll(vals, -1) < 0.0))
    if flips.size:
        lo = float(ts[flips[0]])
        hi = lo + 1.0 / _GRID_SIZE
        glo = float(vals[flips[0]])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = float(iterate(system, mid, q).times[-1]) - mid - p
            residual = min(residual, abs(gm))
            if residual <= 1e-3 * residual_tol:
                break
            if (gm > 0.0) == (glo > 0.0):
                lo, glo = mid, gm
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        both = min(float(np.max(vals)), -float(np.min(vals)))  # > slack: both signs shown
        return 0, (both if system.regime is Regime.STRICT_LIF and both > slack else 0.0), residual
    above, below = _monotone_bounds(ts, vals)
    if above > slack:
        return 1, above, residual
    if below > slack:
        return -1, below, residual
    return (0 if residual < residual_tol else None), 0.0, residual


def _weighted_mean(x: np.ndarray) -> float:
    """Weighted Birkhoff average with weight exp(-1/(s(1-s))) on s in (0, 1).

    For a smooth quasi-periodic sequence it converges faster than any power
    of 1/n (Das, Sander, Saiki, Yorke et al., Nonlinearity 30, 2017).
    """
    s = np.arange(1, x.size + 1) / (x.size + 1.0)
    w = np.exp(-1.0 / (s * (1.0 - s)))
    return float(np.dot(w, x) / w.sum())


def _certify(
    system: IFSystem,
    t0: float,
    max_spikes: int,
    q_max: int,
    residual_tol: float,
    width: float = 0.0,
) -> tuple[RotationEstimate, LockingResult]:
    """Locking test and enclosure from a 1024-spike orbit from t0, doubled up to ``max_spikes``.

    Walks the Stern-Brocot tree, from the integers next to the weighted Birkhoff
    estimate of rho, down to Farey neighbours a/b < rho < c/d with b + d > q_max.
    Each mediant m/n is placed by the orbit's monotone bounds (:func:`_monotone_bounds`
    on v_k = t_{k+n} - t_k - m at the sorted phases), which must clear :func:`_slack`.
    A mediant they leave open gets :func:`_grid_test`: a zero witness ends the walk,
    certified grid bounds continue it, and otherwise the orbit doubles, iterating on
    from its last spike.  The result is ``undecided`` at ``max_spikes``, or once the
    orbit has settled: when two of its phases lie within one step's error allowance,
    further spikes add no phases the orbit has not already placed.

    With ``width > 0`` the walk goes on past that result, by the orbit's bounds alone, until
    the bracket's half-width is at most ``width``; a run of mediants on one side gallops
    (2, 4, ... steps per trial, halved on a miss).  Returns the estimate and the result.
    """
    spikes = min(_ORBIT_SPIKES, max_spikes)
    times = np.concatenate([[t0], iterate(system, t0, spikes).times])
    dmax = _max_displacement(system)
    lo = hi = None  # certified Farey neighbours (m, n, margin, residual) below and above rho
    rho = _weighted_mean(np.diff(times))
    m, n = math.floor(rho), 1
    order, gridded, result = None, False, None
    run, stride = 0, 1  # side of the last placement; mediant steps per trial past the result
    while True:
        if order is None:
            phases = times - np.floor(times)
            order = np.argsort(phases)
            t_max = max(abs(times[0]), abs(times[-1]))
        side = None
        if n <= spikes:
            k = order[order <= spikes - n]
            v = times[k + n] - times[k] - m
            above, below = _monotone_bounds(phases[k], v)
            slack = _slack(n, t_max, dmax)
            residual = float(np.min(np.abs(v)))
            if above > slack:
                side, margin = 1, above
            elif below > slack:
                side, margin = -1, below
        if side is None and result is None and not gridded:
            gridded = True
            side, margin, residual = _grid_test(system, m, n, residual_tol)
            if side == 0:  # a sign change without a zero is a jump of Phi^q: undecided
                locked = residual < residual_tol
                result = LockingResult(locked, m, n, residual, "locked" if locked else "undecided")
                if result.locked and margin > 0.0:  # a proof: rho = m/n
                    lo = hi = (m, n)
                    break
                if not width:
                    break
        if stride > 1 and side != run:  # the stride overshot: retry with half of it
            stride //= 2
        elif not side:  # not placed, or locked without a proof
            if result is None:
                s = phases[order]
                settled = np.min(np.diff(s, append=s[0] + 1.0)) <= _slack(1, t_max, dmax)
                if spikes >= max_spikes or settled:
                    result = LockingResult(False, m, n, residual, "undecided")
            if result is not None and (spikes >= max_spikes or not width):
                break
            spikes = min(2 * spikes, max_spikes)
            more = iterate(system, float(times[-1]), spikes + 1 - times.size)
            times = np.concatenate([times, more.times])
            rho, order = _weighted_mean(np.diff(times)), None
            continue
        else:
            if side > 0:
                lo = (m, n, margin, residual)
            else:
                hi = (m, n, margin, residual)
            if result is not None:
                stride = 2 * stride if side == run else 1
            run, gridded = side, False
            if lo is not None and hi is not None:
                if result is None and lo[1] + hi[1] > q_max:
                    # the fraction with q <= q_max nearest the estimate is one of the two ends
                    near = lo if rho - lo[0] / lo[1] <= hi[0] / hi[1] - rho else hi
                    p, q, margin, residual = near
                    result = LockingResult(False, p, q, residual, "unlocked", margin)
                # Farey neighbours: the bracket's half-width is 1/(2 b d)
                if result is not None and (not width or 2.0 * width * lo[1] * hi[1] >= 1.0):
                    break
        # next: an integer beside the end certified, or stride mediant steps from the last moved
        if lo is None or hi is None:
            m, n = (hi[0] - 1, 1) if lo is None else (lo[0] + 1, 1)
        else:
            wl, wh = (1, stride) if run > 0 else (stride, 1)
            m, n = wl * lo[0] + wh * hi[0], wl * lo[1] + wh * hi[1]
    value, r = (times[-1] - times[0]) / spikes, 1.0 / spikes
    a = value - r if lo is None else max(value - r, lo[0] / lo[1])
    c = value + r if hi is None else min(value + r, hi[0] / hi[1])
    # the interval lies inside value +- r; the min drops the rounding of c - a
    return RotationEstimate(0.5 * (a + c), min(0.5 * (c - a), r), spikes), result


def detect_locking(
    system: IFSystem,
    q_max: int = 64,
    rho_tol: float = 1e-6,
    residual_tol: float = 1e-8,
) -> LockingResult:
    """Test for q:p phase locking (a periodic orbit with Phi^q = Id + p).

    The firing map lifts an orientation-preserving circle homeomorphism (for
    the nonnegative perfect integrator a non-decreasing lift, which may
    jump), so Phi^n is non-decreasing and its values at the sorted phases
    of one orbit bound Phi^n - Id - m on every cell between them: wherever
    ``min(v_i - gap_i)`` clears the error allowance, rho > m/n, and wherever
    ``max(v_{i+1} + gap_i)`` stays below minus the allowance, rho < m/n.
    The allowance is n times the solver's per-step tolerance plus the
    rounding of ``t mod 1`` and of the differences (:func:`_slack`); it
    assumes the steps' errors add up along the orbit without growing.

    A 1024-spike orbit from t = 0 is walked down the Stern-Brocot tree with
    these certificates until rho sits between Farey neighbours a/b < rho < c/d
    with b + d > q_max (``unlocked``).  A mediant the orbit cannot place is
    tested on a 64-point grid of Phi^n: a sign change (bisected for its
    residual) or a residual below ``residual_tol`` is a locking witness,
    unless the grid's own monotone bounds certify a side, which overrides
    the residual; a sign change without a small residual is a jump of
    Phi^n, not a witness.  Failing both, the orbit doubles: ``rho_tol``
    caps it at ``ceil(1/rho_tol)`` spikes, and an orbit whose phases
    repeat stops at once; either way the result is ``undecided``.
    A nearly rational estimate alone never counts as locking.  A ``rho_tol``
    below 2**-22 raises :class:`ValueError` before any spike is computed.
    """
    return _certify(system, 0.0, _orbit_cap(rho_tol), q_max, residual_tol)[1]


def rotation_enclosure(
    system: IFSystem,
    t0: float = 0.0,
    q_max: int = 64,
    rho_tol: float = 1e-6,
    residual_tol: float = 1e-8,
) -> tuple[RotationEstimate, LockingResult]:
    """Certified rotation-number interval and locking test from one orbit started at t0.

    The walk of :func:`detect_locking` (whose result it gives from t0 = 0) goes on past
    q_max until the Farey bracket a/b < rho < c/d has half-width at most ``rho_tol``,
    doubling the orbit up to ``ceil(1/rho_tol)`` spikes (``rho_tol`` >= 2**-22, as there).
    The estimate is the midpoint and half-width of that bracket intersected with the
    orbit's (t_n - t_0)/n +- 1/n, so ``error_bound <= rho_tol``; or p/q with bound 0 when
    a grid sign change of the continuous Phi^q - Id - p proves a periodic orbit.
    """
    return _certify(system, t0, _orbit_cap(rho_tol), q_max, residual_tol, rho_tol)


@dataclass(frozen=True)
class ScanPoint:
    """One row of a parameter scan; exactly one of estimate/error is set."""

    param: float
    estimate: RotationEstimate | None
    locking: LockingResult | None
    error: str | None = None


def staircase_scan(
    family: Callable[[float], IFSystem],
    param_grid: Sequence[float],
    n: int,
    t0: float = 0.0,
    q_max: int = 64,
    residual_tol: float = 1e-8,
) -> list[ScanPoint]:
    """Certified rotation-number interval and locking test across a parameter grid.

    Each point runs :func:`rotation_enclosure`'s walk from t0 on at most n spikes, down to
    a half-width of 1/n: ``error_bound <= 1/n``, or 0 when a grid sign change proves p/q.
    Each grid point is independent; failures are recorded per point and the
    scan continues.  Output order follows the input grid.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for param in param_grid:
        try:
            est, locking = _certify(family(float(param)), t0, n, q_max, residual_tol, 1.0 / n)
            out.append(ScanPoint(float(param), est, locking))
        except FiringMapError as exc:
            out.append(ScanPoint(float(param), None, None, error=str(exc)))
    return out


def estimate_conjugacy(
    system: IFSystem,
    t0: float,
    n: int,
    grid: Sequence[float],
) -> np.ndarray:
    """Empirical conjugacy lift from orbit phases.

    Gamma(t) is estimated as the fraction of the first n firing phases that
    fall in [0, t]; by unique ergodicity this converges uniformly to the
    invariant-measure CDF when the rotation number is irrational.  A locked
    system raises :class:`LockedError`, since a periodic orbit carries no
    information about the invariant measure.
    """
    res = detect_locking(system, rho_tol=1e-4)
    if res.locked:
        raise LockedError(
            f"system appears locked at {res.p}/{res.q} "
            f"(residual {res.residual:.3e}); empirical conjugacy is invalid"
        )
    orbit = iterate(system, t0, n)
    phases = np.sort(orbit.phases)
    grid = np.asarray(grid, dtype=float)
    return np.searchsorted(phases, grid, side="right") / float(n)
