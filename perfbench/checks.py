"""Checks of the program's outputs against ``oracle.py`` and method properties.

Each check returns a list of failure messages; an empty list is a pass.
No check compares against a stored copy of earlier output or involves
elapsed time.  Tolerances:

* ``SPIKE_EPS``: the solver stops at a scaled threshold residual of 1e-13 or
  a bracket of width ``max(1e-15 dmax, 8e-16 |t|)``; with ``|t| < 1e6`` and
  ess sup f < 6 that is below 5e-9 in units of the threshold, and the
  oracle's own error stays under 1e-12 here.  A spike moved by 1e-6 is off
  by at least ``1e-6 ess inf(f - sigma)`` wherever f - sigma stays positive.
* ``LIFT_TOL``, ``MASS_TOL``, ``KS_TOL``: the limits the repository's
  acceptance tests hold the program to (lift property 1e-9, density mass
  within 0.02 of 1, Kolmogorov-Smirnov distance 0.01).
* ``RANGE_TOL``: golden-section refinement to 1e-12 around a 512-point grid
  extremum puts the displacement range far inside 1e-7 of the true one; a
  2^15-point oracle grid is within ``max|Psi''| h^2 / 8 < 1e-8`` of it.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import wasserstein_distance

import oracle

SPIKE_EPS = 5e-9
LIFT_TOL = 1e-9
KS_TOL = 0.01
MASS_TOL = 0.02
RANGE_TOL = 1e-7
RESIDUAL_TOL = 1e-8  # detect_locking's default witness tolerance


def spikes(label, drive, sigma, t_prev, t_next, eps=SPIKE_EPS):
    """x reaches the threshold at every spike and stays below it before."""
    out = []
    for a, b in zip(np.asarray(t_prev).tolist(), np.asarray(t_next).tolist()):
        x_end, x_max = oracle.spike_x(drive, sigma, a, b)
        if not abs(x_end - 1.0) <= eps:
            out.append(f"{label}: x({b!r}) - 1 = {x_end - 1.0:.3e} after reset at {a!r}")
        if not x_max <= 1.0 + eps:
            out.append(f"{label}: x exceeds 1 by {x_max - 1.0:.3e} before {b!r}")
    return out


def orbit(label, drive, sigma, t0, times, picks, strict=True, eps=SPIKE_EPS):
    """Strictly increasing times, ISIs within 1/ess inf(f - sigma), spikes at picks."""
    ts = np.concatenate([[t0], np.asarray(times, dtype=float)])
    isi = np.diff(ts)
    out = []
    if not np.all(isi > 0.0):
        out.append(f"{label}: orbit not strictly increasing at index {int(np.argmin(isi > 0.0))}")
    if strict:
        bound = 1.0 / oracle.lower_bound(drive, sigma)
        if isi.max() > bound * (1.0 + 1e-12):
            out.append(f"{label}: ISI {isi.max()!r} above 1/ess inf(f - sigma) = {bound!r}")
    picks = np.asarray(picks, dtype=int)
    return out + spikes(label, drive, sigma, ts[picks], ts[picks + 1], eps)


def isi_outputs(label, t0, times, isi_values, samples, clusters, tol):
    """isi_sequence, empirical_isi_dist and cluster_values of one orbit."""
    out = []
    isi = np.diff(np.concatenate([[t0], times]))
    if not np.array_equal(isi_values, isi):
        out.append(f"{label}: isi_sequence differs from the orbit's differences")
    if samples is not None and not np.array_equal(samples, np.sort(isi)):
        out.append(f"{label}: empirical_isi_dist samples are not the sorted ISIs")
    if clusters is not None:
        v = np.sort(isi)
        sizes = np.diff(np.concatenate([[0], np.flatnonzero(np.diff(v) >= tol) + 1, [v.size]]))
        if [c[1] for c in clusters] != sizes.tolist():
            out.append(f"{label}: {len(clusters)} clusters at tol {tol}, expected {sizes.size}")
    return out


def lift(label, value):
    return [] if value < LIFT_TOL else [f"{label}: check_lift {value!r} >= {LIFT_TOL}"]


def witness(drive, sigma, p, q, grid=1024):
    """(sign change found, min |Phi^q(t) - t - p|) on a grid, with the oracle's map."""
    ts = np.arange(grid) / grid
    g = oracle.phi_power(drive, sigma, ts, q) - ts - p
    flips = bool(np.any(g * np.roll(g, -1) <= 0.0))
    return flips, float(np.abs(g).min())


def locked_claim(label, drive, sigma, locked, p, q, expect_locked):
    """A locked p/q has a periodic-orbit witness; an unlocked one has none."""
    flips, smallest = witness(drive, sigma, p, q)
    confirmed = flips or smallest <= RESIDUAL_TOL
    if locked and not confirmed:
        return [f"{label}: locked {p}/{q} but Phi^q - Id - p has no zero (min {smallest:.3e})"]
    if expect_locked is not None and locked != expect_locked:
        return [f"{label}: locked={locked} at {p}/{q}, expected {expect_locked}"]
    if not locked and confirmed:
        return [f"{label}: unlocked at {p}/{q} but Phi^q - Id - p changes sign"]
    return []


def staircase(points, drives, sigma):
    """rho non-increasing in a0 up to 1/n; every locked p/q within 1/n and witnessed."""
    out = []
    for a, b in zip(points, points[1:]):
        if b.estimate.value > a.estimate.value + a.estimate.error_bound + b.estimate.error_bound:
            out.append(f"staircase: rho({b.param}) = {b.estimate.value!r} above "
                       f"rho({a.param}) = {a.estimate.value!r}")
    for pt in points:
        lk = pt.locking
        if not lk.locked:
            continue
        if abs(pt.estimate.value - lk.p / lk.q) > pt.estimate.error_bound:
            out.append(f"staircase a0={pt.param}: locked {lk.p}/{lk.q} is not within "
                       f"1/n of rho = {pt.estimate.value!r}")
        out += locked_claim(f"staircase a0={pt.param}", drives[pt.param], sigma,
                            True, lk.p, lk.q, None)
    return out


def rotation_pair(label, a, b):
    """Two rotation estimates agree within the sum of their 1/n bounds."""
    if abs(a.value - b.value) <= a.error_bound + b.error_bound:
        return []
    return [f"{label}: rho {a.value!r} and {b.value!r} differ by more than their bounds"]


def normalised_cdf(y, density):
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(y)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    return cdf[-1], cdf / cdf[-1]


def density(label, y, values, pushforward, empirical=None):
    """Mass within 0.02 of 1; CDF within KS 0.01 of the pushforward (and orbit)."""
    mass, cdf = normalised_cdf(np.asarray(y), np.asarray(values))
    mass = float(mass)
    out = []
    if abs(mass - 1.0) > MASS_TOL:
        out.append(f"{label}: density integrates to {mass!r}")
    refs = [("pushforward", pushforward)] + ([("orbit", empirical)] if empirical is not None else [])
    for name, sample in refs:
        ks = float(np.max(np.abs(cdf - np.searchsorted(sample, y, side="right") / sample.size)))
        if ks > KS_TOL:
            out.append(f"{label}: KS {ks:.4f} against the {name} CDF")
    return out


def displacement_range(label, drive, sigma, lo, hi, isis, grid=1 << 15):
    """Range within 1e-7 of the oracle's extremes on a dense grid; encloses the ISIs."""
    psi = oracle.psi(drive, sigma, np.arange(grid) / grid)
    g_lo, g_hi = float(psi.min()), float(psi.max())
    out = []
    if abs(lo - g_lo) > RANGE_TOL or abs(hi - g_hi) > RANGE_TOL:
        out.append(f"{label}: range [{lo!r}, {hi!r}] vs grid [{g_lo!r}, {g_hi!r}]")
    i_lo, i_hi = float(np.min(isis)), float(np.max(isis))
    if i_lo < lo - 1e-9 or i_hi > hi + 1e-9:
        out.append(f"{label}: ISIs [{i_lo!r}, {i_hi!r}] leave [{lo!r}, {hi!r}]")
    return out


def perturbation(label, base, pert, sigma, grid, sup_phi, sup_dphi, d_f, samples):
    """Sup deviations against the oracle's maps; d_F against scipy's Wasserstein."""
    ts = np.linspace(0.0, 1.0, grid)
    own_phi = float(np.max(np.abs(oracle.psi(base, sigma, ts) - oracle.psi(pert, sigma, ts))))
    own_dphi = float(np.max(np.abs(oracle.trig_derivative(base, sigma, ts)
                                   - oracle.trig_derivative(pert, sigma, ts))))
    ref = float(wasserstein_distance(*samples))
    out = []
    if abs(sup_phi - own_phi) > 1e-10 + 1e-10 * own_phi:
        out.append(f"{label}: sup_phi_dev {sup_phi!r}, oracle {own_phi!r}")
    if abs(sup_dphi - own_dphi) > 1e-8 + 1e-9 * own_dphi:
        out.append(f"{label}: sup_dphi_dev {sup_dphi!r}, oracle {own_dphi!r}")
    if abs(d_f - ref) > 1e-12 + 1e-9 * ref:
        out.append(f"{label}: d_F {d_f!r}, scipy wasserstein_distance {ref!r}")
    return out


def regularity(label, result, isi, q, eps, burn_in, periodic):
    """Periodic(q) exactly when |ISI_{n+q} - ISI_n| < eps everywhere."""
    dq = np.abs(isi[q:] - isi[:-q])
    if periodic:
        if result.kind != "periodic" or result.period != q:
            return [f"{label}: {result.kind} (period {result.period}), expected periodic {q}"]
        if dq.max() >= eps:
            return [f"{label}: periodic claimed but |ISI_(n+q) - ISI_n| reaches {dq.max():.3e}"]
        return []
    if result.kind in ("periodic", "asymptotically-periodic"):
        return [f"{label}: quasi-periodic sequence classified {result.kind}"]
    if dq[burn_in:].max() < eps:
        return [f"{label}: no |ISI_(n+q) - ISI_n| >= eps found; sequence is not quasi-periodic"]
    return []
