"""Rotation numbers, phase locking and conjugacy to rigid rotation.

The firing map of a validated system lifts a circle homeomorphism, so
``(Phi^n(t) - t)/n`` converges to a rotation number independent of t, with
the classical a-priori bound |estimate - rho| < 1/n.  For the perfect
integrator the rotation number and the conjugacy to the rotation are
available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import FiringMapError, IllPosedError, LockedError
from .firing import IFSystem, firing_time, firing_times, iterate
from .signals import PeriodicSignal


class Method(Enum):
    ITERATE_BOUND = "iterate-bound"
    PI_CLOSED_FORM = "pi-closed-form"


@dataclass(frozen=True)
class RotationEstimate:
    """A rotation-number value with a rigorous error bound."""

    value: float
    error_bound: float
    n_iterates: int
    method: Method


@dataclass(frozen=True)
class LockingResult:
    """Outcome of a phase-locking test.

    ``p``/``q`` is the best rational candidate (coprime, q <= q_max) for the
    rotation number; ``locked`` is True only when a periodic-orbit witness
    was found, i.e. Phi^q - Id - p has a (near-)zero.  ``residual`` is the
    smallest |Phi^q(t) - t - p| seen.
    """

    locked: bool
    p: int
    q: int
    residual: float


def rotation_number(system: IFSystem, t0: float, n: int) -> RotationEstimate:
    """Estimate the rotation number from n iterates started at t0.

    The bound |value - rho| <= 1/n holds whenever the firing map lifts a
    circle homeomorphism.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    orbit = iterate(system, t0, n)
    value = (float(orbit.times[-1]) - t0) / n
    return RotationEstimate(value, 1.0 / n, n, Method.ITERATE_BOUND)


def pi_rotation(signal: PeriodicSignal) -> RotationEstimate:
    """Closed-form perfect-integrator rotation number 1 / mean(f)."""
    m = signal.mean()
    if m <= 0.0:
        raise IllPosedError(f"mean input {m:.6g} <= 0; no rotation number")
    value = 1.0 / m
    return RotationEstimate(value, 1e-14 * abs(value), 0, Method.PI_CLOSED_FORM)


def pi_conjugacy(signal: PeriodicSignal, t: float) -> float:
    """Lift of the map conjugating the PI firing phase map to the rotation.

    Gamma(t) = integral_0^t f / integral_0^1 f; increasing, Gamma(0) = 0 and
    Gamma(t+1) = Gamma(t) + 1.  Requires f >= 0 a.e. with positive mean.
    """
    if signal.essential_bounds(0.0).lower < -1e-12:
        raise IllPosedError("conjugacy formula requires a nonnegative input")
    m = signal.mean()
    if m <= 0.0:
        raise IllPosedError(f"mean input {m:.6g} <= 0")
    return signal.integral(0.0, t) / m


def _continued_fraction(x: float, q_max: int):
    """Convergents p/q of x with q <= q_max, plus the last semiconvergent."""
    a0 = math.floor(x)
    h_prev, k_prev = 1, 0
    h, k = a0, 1
    cands = [(h, k)]
    rem = x - a0
    for _ in range(64):
        if rem <= 1e-15:
            break
        rem = 1.0 / rem
        a = math.floor(rem)
        rem -= a
        h_new, k_new = a * h + h_prev, a * k + k_prev
        if k_new > q_max:
            j = (q_max - k_prev) // k
            if j >= 1:
                cands.append((h_prev + j * h, k_prev + j * k))
            break
        cands.append((h_new, k_new))
        h_prev, k_prev, h, k = h, k, h_new, k_new
    return cands


def best_rational(x: float, q_max: int) -> tuple[int, int]:
    """Best rational approximation p/q of x with 1 <= q <= q_max, coprime."""
    best = None
    for p, q in _continued_fraction(x, q_max):
        if q < 1 or q > q_max:
            continue
        err = abs(x - p / q)
        if best is None or err < best[2]:
            best = (p, q, err)
    assert best is not None
    p, q, _ = best
    g = math.gcd(abs(p), q)
    return (p // g, q // g) if g > 1 else (p, q)


def _phi_power(system: IFSystem, t: float, q: int) -> float:
    x = t
    for _ in range(q):
        x = firing_time(system, x)
    return x


def detect_locking(
    system: IFSystem,
    q_max: int = 64,
    grid_size: int = 64,
    rho_tol: float = 1e-6,
    residual_tol: float = 1e-8,
    rho_estimate: RotationEstimate | None = None,
) -> LockingResult:
    """Test for q:p phase locking (a periodic orbit with Phi^q = Id + p).

    The rotation number is estimated to within ``rho_tol`` (closed form for
    the perfect integrator), the best rational p/q with q <= q_max is taken
    from its continued fraction, and locking is declared only when
    |Phi^q(t) - t - p| has a near-zero or a sign change on the grid: a
    nearly rational estimate alone cannot distinguish locking from a nearby
    irrational rotation number.
    """
    if rho_estimate is None:
        if system.is_pi:
            rho_estimate = pi_rotation(system.signal)
        else:
            n = max(1, math.ceil(1.0 / rho_tol))
            rho_estimate = rotation_number(system, 0.0, n)
    p, q = best_rational(rho_estimate.value, q_max)
    ts = np.linspace(0.0, 1.0, grid_size, endpoint=False)
    phi_q = ts
    for _ in range(q):  # the whole grid as one batched solve per power
        phi_q = firing_times(system, phi_q)
    vals = phi_q - ts - p
    i_min = int(np.argmin(np.abs(vals)))
    residual = abs(float(vals[i_min]))
    if residual < residual_tol:
        return LockingResult(True, p, q, residual)
    sign_flip = None
    for i in range(grid_size):
        a, b = vals[i], vals[(i + 1) % grid_size]
        if a == 0.0 or a * b < 0.0:
            sign_flip = i
            break
    if sign_flip is None:
        return LockingResult(False, p, q, residual)
    lo = float(ts[sign_flip])
    hi = lo + 1.0 / grid_size
    glo = float(vals[sign_flip])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = _phi_power(system, mid, q) - mid - p
        if abs(gm) < residual:
            residual = abs(gm)
        if residual <= 1e-3 * residual_tol:
            break
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return LockingResult(residual < residual_tol, p, q, residual)


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
    with_locking: bool = True,
) -> list[ScanPoint]:
    """Rotation number (and optional locking test) across a parameter grid.

    Each grid point is independent; failures are recorded per point and the
    scan continues.  Output order follows the input grid.
    """
    out = []
    for param in param_grid:
        try:
            system = family(float(param))
            est = rotation_number(system, t0, n)
            locking = None
            if with_locking:
                locking = detect_locking(
                    system,
                    q_max=q_max,
                    residual_tol=residual_tol,
                    rho_estimate=est,
                )
            out.append(ScanPoint(float(param), est, locking))
        except FiringMapError as exc:
            out.append(ScanPoint(float(param), None, None, error=str(exc)))
    return out


def estimate_conjugacy(
    system: IFSystem,
    t0: float,
    n: int,
    grid: Sequence[float],
    check_locking: bool = True,
) -> np.ndarray:
    """Empirical conjugacy lift from orbit phases.

    Gamma(t) is estimated as the fraction of the first n firing phases that
    fall in [0, t]; by unique ergodicity this converges uniformly to the
    invariant-measure CDF when the rotation number is irrational.  With
    ``check_locking`` a locked system raises :class:`LockedError`, since a
    periodic orbit carries no information about the invariant measure.
    """
    if check_locking:
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
