"""Command-line front end.

Subcommands: ``simulate`` (orbit CSV), ``rotation`` (JSON), ``scan``
(staircase CSV), ``isi`` (histogram CSV + summary JSON), ``density``
(density CSV), ``compare`` (perturbation report JSON).

Systems come from ``--sigma`` and ``--signal`` (grammar in
:mod:`firingmap.signals`) or from an INI-style config file with ``[system]``,
``[perturbed]``, ``[run]`` and ``[tolerances]`` sections; command-line flags
override the file.  All floating-point output uses 12 significant digits and
every command is deterministic: identical inputs give byte-identical files.

Exit codes: 0 success, 1 usage error, 2 mathematical precondition failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, fields

from .errors import FiringMapError
from .firing import IFSystem, Regime, iterate
from .isi import (
    classify_regularity,
    cluster_values,
    displacement_range,
    empirical_isi_dist,
    isi_density_pi,
    isi_sequence,
    perturbation_harness,
)
from .rotation import _orbit_cap, detect_locking, pi_rotation, rotation_enclosure, staircase_scan
from .signals import parse_signal


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _jnum(x):
    # trim to 12 significant digits but keep JSON-numeric output
    return float(f"{float(x):.12g}")


@dataclass
class RunConfig:
    sigma: float = 1.0
    signal: str | None = None
    sigma2: float | None = None
    signal2: str | None = None
    t0: float = 0.0
    n: int = 10_000
    out: str | None = None
    bins: int = 200
    q: int = 1
    eps: float = 1e-6
    burn_in: int = 1000
    param_grid: str | None = None
    rho_tol: float = 1e-6
    residual_tol: float = 1e-8
    q_max: int = 64


# config section -> key -> (RunConfig field, cast)
_CONFIG_KEYS = {
    "system": {"sigma": ("sigma", float), "signal": ("signal", str)},
    "perturbed": {"sigma": ("sigma2", float), "signal": ("signal2", str)},
    "run": {key: (key, cast) for key, cast in [
        ("t0", float), ("n", int), ("out", str), ("bins", int), ("q", int), ("eps", float),
        ("burn_in", int), ("param_grid", str)]},
    "tolerances": {key: (key, cast) for key, cast in [
        ("rho_tol", float), ("residual_tol", float), ("q_max", int)]},
}


def load_config(path: str) -> RunConfig:
    """Read an INI config; an unknown section or key or a malformed value is a usage error."""
    cp = configparser.ConfigParser(default_section="")
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise UsageError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    cfg = RunConfig()
    for section in cp.sections():
        keys = _CONFIG_KEYS.get(section)
        if keys is None:
            raise UsageError(f"config {path!r}: unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in keys:
                raise UsageError(f"config {path!r}: unknown key {key!r} in [{section}]")
            field, cast = keys[key]
            try:
                setattr(cfg, field, cast(value))
            except ValueError:
                raise UsageError(f"config {path!r}: [{section}] {key} = {value!r} "
                                 f"is not a valid {cast.__name__}") from None
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="firingmap", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--sigma", type=float, help="leak rate (>= 0)")
        p.add_argument("--signal", help="signal grammar string")
        p.add_argument("--t0", type=float, help="start time")
        p.add_argument("--n", type=int, help="number of spikes / iterates")
        p.add_argument("--tol", type=float, help="rotation-estimate tolerance")

    p = sub.add_parser("simulate", help="write an orbit as index,time,isi CSV")
    common(p)

    p = sub.add_parser("rotation", help="rotation number and locking as JSON")
    common(p)

    p = sub.add_parser("scan", help="rotation staircase over a parameter grid")
    common(p)
    p.add_argument("--param-grid", help="start:stop:step or comma list; substituted for PARAM")

    p = sub.add_parser("isi", help="ISI histogram CSV plus summary JSON")
    common(p)
    p.add_argument("--bins", type=int, help="histogram bin count (default 200)")
    p.add_argument("--q", type=int, help="candidate ISI period for classification")
    p.add_argument("--eps", type=float, help="regularity tolerance")
    p.add_argument("--burn-in", type=int, dest="burn_in", help="burn-in spikes")

    p = sub.add_parser("density", help="closed-form PI ISI density as y,delta CSV")
    common(p)

    p = sub.add_parser("compare", help="perturbation report between two systems")
    common(p)
    p.add_argument("--sigma2", type=float, help="perturbed leak rate")
    p.add_argument("--signal2", help="perturbed signal grammar string")
    return parser


# RunConfig field -> argparse destination, where the flag has another name
_FLAG_DEST = {"rho_tol": "tol"}
# the least accepted value of each count, and the tolerances, which must be > 0
_MIN_COUNT = {"n": 1, "bins": 1, "q": 1, "q_max": 1, "burn_in": 0}
_POSITIVE = ("eps", "rho_tol", "residual_tol")


def _merge(args) -> RunConfig:
    """The config file (if any) overridden by the flags given, then range-checked."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, _FLAG_DEST.get(f.name, f.name), None)
        if value is not None:
            setattr(cfg, f.name, value)
    for name, least in _MIN_COUNT.items():
        if getattr(cfg, name) < least:
            raise UsageError(f"{name} must be >= {least}, got {getattr(cfg, name)}")
    if not math.isfinite(cfg.t0):
        raise UsageError(f"t0 must be finite, got {cfg.t0!r}")
    for name in _POSITIVE:
        if not getattr(cfg, name) > 0:
            raise UsageError(f"{name} must be > 0, got {getattr(cfg, name)!r}")
    try:
        _orbit_cap(cfg.rho_tol)  # the library's floor on rho_tol
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _system_from(cfg: RunConfig, signal: str | None, sigma: float) -> IFSystem:
    if signal is None:
        raise UsageError("no signal given (use --signal or a [system] config section)")
    try:
        sig = parse_signal(signal)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad signal spec {signal!r}: {exc}") from exc
    if sigma < 0:
        raise UsageError("sigma must be >= 0")
    return IFSystem(sigma, sig)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError("param grid must be start:stop:step or a comma list")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise UsageError("param grid step must be > 0")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(max(count, 0))]
    return [float(p) for p in spec.split(",") if p.strip()]


def cmd_simulate(cfg: RunConfig) -> int:
    system = _system_from(cfg, cfg.signal, cfg.sigma)
    orbit = iterate(system, cfg.t0, cfg.n)
    lines = ["index,time,isi"]
    isis = orbit.isi
    for i, (t, d) in enumerate(zip(orbit.times, isis), start=1):
        lines.append(f"{i},{_fmt(t)},{_fmt(d)}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_rotation(cfg: RunConfig) -> int:
    system = _system_from(cfg, cfg.signal, cfg.sigma)
    tols = {"q_max": cfg.q_max, "rho_tol": cfg.rho_tol, "residual_tol": cfg.residual_tol}
    if system.is_pi:
        est, locking = pi_rotation(system.signal), detect_locking(system, **tols)
    else:
        est, locking = rotation_enclosure(system, cfg.t0, **tols)
    payload = {
        "rho": _jnum(est.value),
        "error_bound": _jnum(est.error_bound),
        "locked": locking.locked,
        "p": locking.p,
        "q": locking.q,
        "residual": _jnum(locking.residual),
        "status": locking.status,
        "margin": _jnum(locking.margin),
    }
    _emit(cfg, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.signal is None:
        raise UsageError("scan needs a --signal template (may contain PARAM)")
    if cfg.param_grid is None:
        raise UsageError("scan needs --param-grid")
    grid = _parse_grid(cfg.param_grid)

    def family(value: float) -> IFSystem:
        spec = cfg.signal.replace("PARAM", _fmt(value))
        return _system_from(cfg, spec, cfg.sigma)

    points = staircase_scan(
        family,
        grid,
        cfg.n,
        t0=cfg.t0,
        q_max=cfg.q_max,
        residual_tol=cfg.residual_tol,
    )
    lines = ["param,rho,error_bound,locked,p,q,residual,error"]
    for pt in points:
        if pt.error is not None:
            lines.append(f"{_fmt(pt.param)},,,,,,,{pt.error}")
        else:
            est, lock = pt.estimate, pt.locking
            lines.append(
                f"{_fmt(pt.param)},{_fmt(est.value)},{_fmt(est.error_bound)},"
                f"{str(lock.locked).lower()},{lock.p},{lock.q},{_fmt(lock.residual)},"
            )
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_isi(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise UsageError("isi writes a histogram CSV and needs --out")
    if cfg.n < 2:
        raise UsageError(f"isi needs n >= 2 firing times, got {cfg.n}")
    system = _system_from(cfg, cfg.signal, cfg.sigma)
    orbit = iterate(system, cfg.t0, cfg.n)
    seq = isi_sequence(orbit)
    dist = empirical_isi_dist(seq)
    lo = hi = None
    if system.regime is Regime.STRICT_LIF:
        rng_lo, rng_hi = displacement_range(system)
        if rng_hi - rng_lo > 1e-9:  # atomic ranges fall back to sample binning
            pad = 0.01 * (rng_hi - rng_lo)
            lo, hi = rng_lo - pad, rng_hi + pad
    edges, counts = dist.histogram(bins=cfg.bins, lo=lo, hi=hi)
    lines = ["bin_left,bin_right,count,frequency"]
    for left, right, c in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{_fmt(left)},{_fmt(right)},{int(c)},{_fmt(c / dist.n)}")
    with open(cfg.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    try:
        cls = classify_regularity(seq, cfg.q, cfg.eps, cfg.burn_in)
        classification = {"kind": cls.kind, "period": cls.period, "window": cls.window}
    except FiringMapError as exc:
        classification = {"kind": "insufficient-data", "detail": str(exc)}
    summary = {
        "n": int(dist.n),
        "mean": _jnum(dist.mean()),
        "range": [_jnum(dist.samples[0]), _jnum(dist.samples[-1])],
        "clusters": len(cluster_values(dist.samples, 1e-4)),
        "classification": classification,
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_density(cfg: RunConfig) -> int:
    system = _system_from(cfg, cfg.signal, cfg.sigma)
    if not system.is_pi:
        raise UsageError("density requires sigma = 0 (perfect integrator)")
    try:
        curve = isi_density_pi(
            system.signal, q_max=cfg.q_max, residual_tol=cfg.residual_tol
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = ["y,delta"]
    for y, d in zip(curve.y, curve.density):
        lines.append(f"{_fmt(y)},{_fmt(d)}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    base = _system_from(cfg, cfg.signal, cfg.sigma)
    sigma2 = cfg.sigma if cfg.sigma2 is None else cfg.sigma2
    perturbed = _system_from(cfg, cfg.signal2, sigma2)
    report = perturbation_harness(base, perturbed, orbit_len=cfg.n, t0=cfg.t0)
    payload = {
        "sup_phi_dev": _jnum(report.sup_phi_dev),
        "sup_dphi_dev": _jnum(report.sup_dphi_dev),
        "d_F_isi": _jnum(report.d_f_isi),
    }
    _emit(cfg, json.dumps(payload, indent=2) + "\n")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "rotation": cmd_rotation,
    "scan": cmd_scan,
    "isi": cmd_isi,
    "density": cmd_density,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"firingmap: error: {exc}", file=sys.stderr)
        return 1
    except FiringMapError as exc:
        print(f"firingmap: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
