"""Command-line front end.

Subcommands
-----------
``entropy``   all entropy routes for one configured system -> entropy.csv
``induce``    build + verify the first-return tower -> tower.csv
``density``   stationary or spread density -> density.csv
``tail``      slow-orbit tail profile and decay fits -> tail.csv, tail.svg
``sweep``     parameter sweep with per-row reports -> sweep.csv, sweep.svg
``probe``     derivative power-law probe near the critical set

Common flags: ``--config PATH`` (key = value file), ``--seed N`` (overrides
the config), ``--out DIR`` (overrides ``out_dir``), ``--workers N``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ExperimentConfig, load_config
from .errors import ConfigError, SrbLabError
from .experiments import (build_system, run_density, run_entropy, run_induce,
                          run_sweep, run_tail)
from .maps import nondegeneracy_probe
from .reporting import format_real
from .rng import StreamKey, stream


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srblab",
        description="Induced Markov towers, invariant densities and entropy "
                    "of expanding interval and cylinder maps.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    common.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (used by sweep)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("entropy", parents=[common],
                   help="run all entropy estimators, emit entropy.csv")
    sub.add_parser("induce", parents=[common],
                   help="build and verify the first-return tower, emit tower.csv")
    p_density = sub.add_parser("density", parents=[common],
                               help="stationary/spread density, emit density.csv")
    p_density.add_argument("--target", choices=("map", "tower", "spread"),
                           default="map", help="which density to compute")
    sub.add_parser("tail", parents=[common],
                   help="slow-orbit tail profile and decay fits")
    sub.add_parser("sweep", parents=[common],
                   help="parameter sweep, emit sweep.csv and sweep.svg")
    p_probe = sub.add_parser("probe", parents=[common],
                             help="power-law derivative probe near the critical set")
    p_probe.add_argument("--constant", type=float, default=4.0, metavar="B",
                         help="power-law constant B")
    p_probe.add_argument("--exponent", type=float, default=1.0, metavar="BETA",
                         help="power-law exponent beta")
    p_probe.add_argument("--points", type=int, default=4096, metavar="N",
                         help="sample size")
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    config.validate()
    return config


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "n/a"
    return format_real(x)


def _cmd_entropy(args) -> int:
    rep = run_entropy(_load(args))
    print(f"family: {rep.family} {rep.params}")
    for route in rep.routes.values():
        line = f"{route.name:<10} = {_fmt(route.estimate)}"
        if route.std_error is not None:
            line += f" (se {_fmt(route.std_error)})"
        if route.truncation_bound is not None:
            line += f" (truncation bound {_fmt(route.truncation_bound)})"
        print(line)
    for k, v in sorted(rep.discrepancies.items()):
        print(f"discrepancy {k}: {_fmt(v)}")
    for k, v in sorted(rep.errors.items()):
        print(f"unavailable {k}: {v}")
    return 0


def _cmd_induce(args) -> int:
    F, ver = run_induce(_load(args))
    print(f"{F!r}")
    print(f"cells = {len(F.cells)}, deficit = {_fmt(F.deficit)}, "
          f"partial = {_fmt(F.partial_mass)}")
    for name, value, ok, cell in (
            ("markov defect", ver.markov_defect, ver.markov_ok, ver.defect_cell),
            ("kappa", ver.kappa, ver.expansion_ok, ver.kappa_cell),
            ("distortion", ver.distortion, ver.distortion_ok, ver.distortion_cell)):
        print(f"{name} = {_fmt(value)} ({'ok' if ok else 'FAIL'}) at cell {cell} "
              f"[{_fmt(F.cells.lo[cell])}, {_fmt(F.cells.hi[cell])})")
    print(f"comparison constant = {_fmt(ver.comparison_constant)}")
    return 0


def _cmd_density(args) -> int:
    density = run_density(_load(args), target=args.target)
    print(f"bins = {density.values.size}, mass = {_fmt(density.mass)}, "
          f"provenance = {density.provenance}")
    if density.truncation_bound:
        print(f"truncation bound = {_fmt(density.truncation_bound)}")
    return 0


def _cmd_tail(args) -> int:
    run = run_tail(_load(args))
    profile = run.profile
    print(f"sample = {profile.sample_size}, censored = {profile.censored_count}")
    print(f"union fraction at n_max: {_fmt(float(profile.frac_union[-1]))}")
    for name, fit in run.fits.items():
        if isinstance(fit, str):
            print(f"fit {name}: {fit}")
        else:
            print(f"fit {name}: gamma = {_fmt(fit.gamma)}, C = {_fmt(fit.C)}, "
                  f"residual = {_fmt(fit.residual)}")
    print(f"preferred model: {run.preferred or 'none'}")
    return 0


def _cmd_sweep(args) -> int:
    table = run_sweep(_load(args), workers=args.workers)
    failures = sum(1 for r in table.rows if r.get("error"))
    print(f"{table.family}.{table.parameter}: {len(table.rows)} rows, "
          f"{failures} failed")
    print("wrote " + " and ".join(path for path in (table.csv_path, table.svg_path) if path))
    return 0


def _cmd_probe(args) -> int:
    config = _load(args)
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    for flag, value in (("--constant", args.constant), ("--exponent", args.exponent)):
        if not value > 0:
            raise ConfigError(f"{flag} must be positive")
    m = build_system(config)
    pts = m.sample_uniform(stream(config.seed, StreamKey.PROBE), args.points)
    rep = nondegeneracy_probe(m, args.constant, args.exponent, pts)
    print(f"B = {_fmt(rep.B)}, beta = {_fmt(rep.beta)}")
    for label, ratio, points in (  # each ratio with the point(s) where it is worst
            ("derivative lower bound ratio:", rep.norm_ratio, [rep.norm_witness]),
            ("inverse-log Lipschitz ratio: ", rep.lipschitz_inv_ratio, rep.lipschitz_inv_witness),
            ("det-log Lipschitz ratio:     ", rep.lipschitz_det_ratio, rep.lipschitz_det_witness)):
        at = " and ".join("(" + ", ".join(map(_fmt, p)) + ")" for p in points)
        at = f" at {at}" if any(points) else ""
        print(f"{label} {_fmt(ratio)}{at}")
    print("probe passed" if rep.passed else "probe FAILED (ratios above 1)")
    return 0


_COMMANDS = {
    "entropy": _cmd_entropy,
    "induce": _cmd_induce,
    "density": _cmd_density,
    "tail": _cmd_tail,
    "sweep": _cmd_sweep,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SrbLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
