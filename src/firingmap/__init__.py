"""Firing maps of periodically driven integrate-and-fire models.

Library layout:

* :mod:`firingmap.signals` -- 1-periodic input currents and their integrals
* :mod:`firingmap.firing` -- the firing map, orbits, derivative, lift check
* :mod:`firingmap.rotation` -- rotation numbers, locking, conjugacy
* :mod:`firingmap.isi` -- interspike-interval sequences and distributions
* :mod:`firingmap.cli` -- command-line front end
"""

from types import ModuleType as _ModuleType

from .errors import (
    CriticalValueError,
    FiringMapError,
    IllPosedError,
    InsufficientDataError,
    LockedError,
    NoConvergenceError,
    NotDifferentiableError,
    RationalRotationError,
)
from .firing import (
    IFSystem,
    Orbit,
    Regime,
    check_lift,
    derivative,
    displacement,
    firing_time,
    firing_times,
    iterate,
    validate,
)
from .isi import (
    DensityCurve,
    EmpiricalDist,
    IsiSeq,
    PerturbationReport,
    RegularityResult,
    check_measure_invariance,
    classify_regularity,
    cluster_values,
    displacement_range,
    empirical_isi_dist,
    fortet_mourier,
    isi_density_pi,
    isi_sequence,
    perturbation_harness,
    pi_invariant_density,
)
from .rotation import (
    LockingResult,
    RotationEstimate,
    ScanPoint,
    best_rational,
    detect_locking,
    estimate_conjugacy,
    pi_conjugacy,
    pi_rotation,
    rotation_enclosure,
    rotation_number,
    staircase_scan,
)
from .signals import (
    EssentialBounds,
    PeriodicSignal,
    PiecewiseConstant,
    Sampled,
    TrigPolynomial,
    constant,
    parse_signal,
    signal_spec,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
