"""Command-line interface.

Subcommands: ``coeffs`` (tabulate coefficients to CSV + JSON manifest),
``fpe`` (grid solve), ``sde`` (ensemble simulation / equivalence check) and
``validate`` (consistency suite, written as a JSON report).

``--hbar`` alone picks the dynamics: 0 (the default) classical, > 0 quantum.

Exit codes: 0 success, 1 bad input (a usage error, an FPE grid too coarse
for its initial density, an output that cannot be written, ...) or a failed
consistency check, 2 a numerical failure inside the engines (unbounded tail,
pole-window crossing, ...).

Settings may come from a flat key-value config file (``--config``): one
``key = value`` pair per line, ``#`` comments, keys spelled like the long
flags with ``-`` or ``_``; a key that matches no flag, or a value outside its
flag's choices, is refused (exit 1).  Explicit command-line flags override
config values, which override built-in defaults.

``main`` resolves every setting before any work: ``--threads`` (else
``QBM_THREADS``), the mode, and each command's defaults (coeffs ``t_min`` and
quantum ``n_max``, a quantum fpe ``t_start``).  Input refused there (bad
physical parameters, coeffs ``--n-points`` below 1, sde with hbar > 0, an
output or manifest that is a directory or into a missing one) runs and
writes nothing.  Then the one command runs and returns its exit code and run
record; ``main`` writes the manifest ``{version, **record, config}``, where
``config`` is every parsed setting with its defaults resolved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .coefficients import N_MODES, build_table, write_csv
from .errors import InvalidInput, QbmError
from .fpe import ANALYTIC_LIMIT, SolverConfig, solve
from .model import derive
from .sde import equivalence_report, simulate_langevin, simulate_reduced
from .validation import run_suite

__all__ = ["main", "build_parser", "load_config"]

# ---------------------------------------------------------------------------
# flat key-value config files


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def load_config(path) -> dict:
    """Parse a flat ``key = value`` file into a dict.

    Keys are normalized to underscores; values are coerced to bool, int or
    float when they parse as such, else kept as strings.
    """
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, val = parts
            key = key.strip().replace("-", "_")
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            cfg[key] = _coerce(val.strip())
    return cfg


def _apply_config_defaults(parsers, overrides: dict) -> None:
    """Make config values the parsers' defaults; a key that no parser knows
    (a typo, a retired option) or a value outside its flag's choices, which
    argparse checks on flags only, raises InvalidInput naming the key."""
    known = set()
    for parser in parsers:
        for a in parser._actions:
            if a.dest in overrides and a.choices and overrides[a.dest] not in a.choices:
                raise InvalidInput(f"config key {a.dest}: invalid choice {overrides[a.dest]!r} "
                                   f"(choose from {', '.join(a.choices)})")
        dests = {a.dest for a in parser._actions}
        known |= dests
        parser.set_defaults(**{k: v for k, v in overrides.items() if k in dests})
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise InvalidInput(f"unknown config key(s): {', '.join(unknown)}")


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A usage error raises InvalidInput: exit 1 with one ``error:`` line."""

    def error(self, message):
        raise InvalidInput(message)


def _add_physics(ap: argparse.ArgumentParser) -> None:
    g = ap.add_argument_group("physical parameters")
    g.add_argument("--gamma", type=float, default=1.0, help="friction rate")
    g.add_argument("--omega0-sq", type=float, default=0.16, help="potential curvature")
    g.add_argument("--mass", type=float, default=1.0, help="particle mass")
    g.add_argument("--temp", type=float, default=1.0, help="bath temperature")
    g.add_argument("--hbar", type=float, default=0.0, help="Planck constant over 2*pi (0 = classical)")
    g.add_argument(
        "--unit-mode",
        choices=("reduced", "si"),
        default="reduced",
        help="unit system for k_B",
    )


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qbm",
        description="Brownian oscillator in an Ohmic bath: FPE coefficients, "
        "grid solver, and trajectory ensembles.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--config", default=None, help="flat key-value settings file")
    ap.add_argument("--threads", type=int, default=None, help="sde ensemble threads (or QBM_THREADS)")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coeffs", help="tabulate coefficients to CSV")
    _add_physics(c)
    c.add_argument("--t-min", type=float, default=None)
    c.add_argument("--t-max", type=float, default=10.0)
    c.add_argument("--n-points", "--n", type=int, default=201, dest="n_points")
    c.add_argument(
        "--n-max", type=int, default=None,
        help=f"Matsubara mode cutoff N of quantum coefficients (default {N_MODES}; "
        "recorded in the manifest)",
    )
    c.add_argument(
        "--tol", type=float, default=1e-8,
        help="target of the certified tail bounds; it does not change the mode cutoff",
    )
    c.add_argument("--out", default="coeffs.csv")

    f = sub.add_parser("fpe", help="evolve a density on a grid")
    _add_physics(f)
    f.add_argument("--t-final", type=float, default=5.0)
    f.add_argument("--t-start", type=float, default=0.0)
    f.add_argument("--n-q", type=int, default=801)
    f.add_argument("--dt", type=float, default=1e-3)
    f.add_argument("--scheme", choices=("cn-central", "split-upwind"), default="cn-central")
    f.add_argument("--boundary", choices=("zero-flux", "absorbing"), default="zero-flux")
    f.add_argument("--q0", type=float, default=0.0)
    f.add_argument("--init-var", type=float, default=1e-2)
    f.add_argument("--compare-analytic", action="store_true")
    f.add_argument("--out", default="fpe.csv")

    s = sub.add_parser("sde", help="simulate path ensembles")
    _add_physics(s)
    s.add_argument("--paths", type=int, default=10000)
    s.add_argument("--dt", type=float, default=1e-3)
    s.add_argument("--t-final", type=float, default=5.0)
    s.add_argument("--seed", type=int, default=20260823)
    s.add_argument("--q0", type=float, default=1.0)
    s.add_argument("--v0-mode", choices=("zero", "thermal"), default="thermal")
    s.add_argument(
        "--compare",
        action="store_true",
        help="run both the reduced SDE and the Langevin dynamics and report equivalence",
    )
    s.add_argument(
        "--dump-paths",
        default=None,
        help="also write recorded positions as binary: uint64 {n_paths, n_times} "
        "header then row-major float64, all little-endian",
    )
    s.add_argument("--out", default="sde.csv")

    v = sub.add_parser("validate", help="run the consistency suite")
    _add_physics(v)
    v.add_argument("--suite", choices=("quick", "full"), default="quick", help="suite depth")
    v.add_argument("--out", default="validation.json")

    if config:
        _apply_config_defaults([ap, c, f, s, v], config)
    return ap


# ---------------------------------------------------------------------------
# command implementations


def _resolve(args):
    """Resolve every default in ``args`` and refuse bad input, all before
    any work or write; returns the physical parameters and the manifest path.

    ``threads`` comes from the flag, then ``QBM_THREADS``, then 1; the mode
    from ħ alone (``sde`` refuses ħ > 0).  coeffs gets its ``t_min`` and
    quantum ``n_max``, and a quantum fpe run a ``t_start`` past 0, where the
    quantum coefficients are undefined.  An output or manifest that is a
    directory, or into a missing one, is refused.
    """
    env = os.environ.get("QBM_THREADS")
    args.threads = max(1, args.threads if args.threads is not None else int(env or 1))
    p = derive(args.mass, args.gamma, args.omega0_sq, args.temp, args.hbar, args.unit_mode)
    args.mode = "classical" if p.is_classical else "quantum"
    if args.command == "sde" and not p.is_classical:
        raise InvalidInput("sde simulates the classical dynamics only; pass --hbar 0")
    if args.command == "coeffs":
        if args.n_points < 1:
            raise InvalidInput(f"--n-points must be at least 1, got {args.n_points}")
        if args.t_min is None:
            args.t_min = 0.0 if p.is_classical else args.t_max / (10.0 * args.n_points)
        if not p.is_classical and args.n_max is None:
            args.n_max = N_MODES
    elif args.command == "fpe" and not p.is_classical and args.t_start <= 0.0:
        args.t_start = args.t_final / 1000.0
    manifest = args.out if args.command == "validate" else args.out + ".json"
    for path in (args.out, manifest, getattr(args, "dump_paths", None)):
        if path and os.path.isdir(path):
            raise InvalidInput(f"cannot write {path}: it is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise InvalidInput(f"cannot write {path}: no directory {os.path.dirname(path)!r}")
    return p, manifest


def _write_manifest(path, record: dict, args) -> None:
    with open(path, "w") as fh:
        json.dump({"version": __version__, **record, "config": vars(args)}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _cmd_coeffs(args, p):
    grid = np.linspace(args.t_min, args.t_max, args.n_points)
    table = build_table(p, grid, mode=args.mode, n_max=args.n_max, tol=args.tol)
    table.to_csv(args.out)
    print(f"wrote {args.out} ({len(grid)} rows, mode={args.mode})")
    diag = table.diagnostics
    if not diag.get("tol_met", True):
        print(
            f"warning: tol not met: certified tail bounds d1 {diag['d1_tail_bound_max']:.3e},"
            f" sigma1 {diag['sigma1_tail_bound_max']:.3e}; tol {args.tol:.3e}"
            f" at {int(diag['n_modes_max'])} modes",
            file=sys.stderr,
        )
    if table.pole_windows:
        print(f"pole windows: {table.pole_windows}")
    return 0, {**table.manifest(), "csv": os.path.basename(args.out)}


def _cmd_fpe(args, p):
    cfg = SolverConfig(
        n_q=args.n_q,
        dt=args.dt,
        scheme=args.scheme,
        boundary=args.boundary,
        t_start=args.t_start,
        q0=args.q0,
        init_var=args.init_var,
        compare_analytic=args.compare_analytic,
    )
    res = solve(p, "adelman", args.mode, args.t_final, cfg)
    write_csv(args.out, ("q", "rho"), (res.field.q, res.field.rho))
    print(f"wrote {args.out}: mass drift {res.mass_drift:.3e}, {res.n_steps} steps")
    record = {
        "t_final": res.field.t,
        "mass_initial": res.mass_initial,
        "mass_final": res.mass_final,
        "min_density": res.min_density,
        "peclet_max": res.peclet_max,
        "n_steps": res.n_steps,
    }
    if args.mode == "quantum":  # the table's mode cutoff, tail bounds and whether they met tol
        record["coefficients"] = {k: getattr(res.table, k) for k in ("n_max", "tol", "diagnostics")}
    code = 0
    if res.linf_error is not None:
        record["linf_error"] = res.linf_error
        record["peak_density"] = res.peak_density
        # an exact density too narrow for the grid has peak 0: unbounded deviation
        rel = res.linf_error / res.peak_density if res.peak_density > 0.0 else np.inf
        print(f"sup-norm deviation from analytic: {rel:.3e} of peak")
        code = int(rel > ANALYTIC_LIMIT)
    return code, record


def _cmd_sde(args, p):
    stats_l = simulate_langevin(
        p, args.q0, args.v0_mode, args.paths, args.dt, args.t_final, args.seed,
        threads=args.threads, keep_paths=args.dump_paths is not None,
    )
    stats_l.to_csv(args.out)
    record = {"label": stats_l.label, "n_record": len(stats_l.t), "rng_draws": stats_l.rng_draws}
    if args.dump_paths:
        stats_l.dump_paths(args.dump_paths)
        record["paths_file"] = os.path.basename(args.dump_paths)
        record["paths_layout"] = "uint64 n_paths, uint64 n_times, then row-major float64 (little-endian)"
    print(f"wrote {args.out} ({stats_l.label}, {args.paths} paths)")
    if not args.compare:
        return 0, record
    from .response import chi_q
    from .coefficients import sigma_cl_closed

    grid = np.linspace(0.0, args.t_final, 1025)
    table = build_table(p, grid, mode="classical")
    stats_r = simulate_reduced(
        p, table, args.q0, args.paths, args.dt, args.t_final, args.seed + 1,
        threads=args.threads,
    )
    analytic = {
        "mean": lambda t: np.atleast_1d(chi_q(p, t)) * args.q0,
        "var": lambda t: np.atleast_1d(sigma_cl_closed(p, t)),
    }
    rep = equivalence_report(stats_r, stats_l, analytic)
    for k, v in rep.items():
        print(f"  {k}: {v}")
    record["reduced"] = {"label": stats_r.label, "rng_draws": stats_r.rng_draws}
    record["equivalence"] = {k: v for k, v in rep.items() if k != "labels"}
    return int(not rep["passed"]), record


def _cmd_validate(args, p):
    rep = run_suite(p, quick=args.suite == "quick")
    for line in rep.lines():
        print(line)
    return int(not rep.passed), {"mode": args.mode, **rep.to_dict()}


_HANDLERS = {"coeffs": _cmd_coeffs, "fpe": _cmd_fpe, "sde": _cmd_sde, "validate": _cmd_validate}


def main(argv=None) -> int:
    pre = _Parser(add_help=False)
    pre.add_argument("--config", default=None)
    try:
        known, _ = pre.parse_known_args(argv)
        try:
            config = load_config(known.config) if known.config else None
        except OSError as exc:
            raise InvalidInput(f"cannot read config: {exc}") from exc
        args = build_parser(config).parse_args(argv)
        p, manifest = _resolve(args)
        code, record = _HANDLERS[args.command](args, p)
        _write_manifest(manifest, record, args)
        return code
    except (QbmError, ValueError, OSError) as exc:  # OSError: an output not writable
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (InvalidInput, ValueError, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
