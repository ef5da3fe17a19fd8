"""Command-line interface.

Subcommands:

    solve          integrate one problem and write the trajectory CSV
    converge       run a step-size ladder and write the convergence CSV
    list-problems  show registered problems and their default configs

Flags can be preloaded from a key=value config file via --config;
explicitly passed flags win over file values.  Exit codes: 0 success,
2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields

from .errors import ExpidaeError
from .harness import NORMS, emit_csv, run_convergence
from .integrators import (
    SCHEME_IDS,
    SchemeConfig,
    integrate,
    save_trajectory_binary,
    save_trajectory_csv,
)
from .problems import PROBLEMS, MeshConfig, build_problem, parse_config_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _number(value, name: str) -> float:
    """``float(value)``, or a ``ValueError`` naming the flag of option ``name``."""
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"--{name.replace('_', '-')}: {value!r} is not a number") from None


def _parse_h(text: str) -> int:
    """Mesh size given as '1/N' or as a float; returns N.

    h must lie in (0, 1/4], the four cells a mesh needs at least
    (``MeshConfig``).
    """
    text = text.strip()
    num, slash, den = text.partition("/")
    value = _number(num, "h")
    if slash:
        den = _number(den, "h")
        if den == 0.0:
            raise ValueError(f"mesh size h={text} has a zero denominator")
        value /= den
    if not 0.0 < value <= 0.25:
        raise ValueError(f"--h: mesh size h={text} out of range (0, 1/4]")
    n_cells = round(1.0 / value)
    if abs(n_cells * value - 1.0) > 1e-9:
        raise ValueError(f"mesh size h={text} is not the reciprocal of an integer")
    return n_cells


def _parse_taus(text: str) -> list[float]:
    taus = [_number(tok, "taus") for tok in text.split(",") if tok.strip()]
    if not taus:
        raise ValueError("empty step-size list")
    return taus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expidae",
        description="Exponential integrators for constrained parabolic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file supplying defaults for flags")
        p.add_argument("--problem", help=f"problem name, one of {sorted(PROBLEMS)}")
        p.add_argument("--h", dest="h", help="mesh size as 1/N (mesh problems only)")
        p.add_argument("--t-end", dest="t_end", type=float, help="final time")
        p.add_argument("--scheme", choices=SCHEME_IDS, help="time integration scheme")
        p.add_argument("--c2", type=float, help="stage parameter of the family scheme")
        p.add_argument("--theta", type=float, help="consistency blend of alt-euler")
        p.add_argument("--flow-tol", dest="flow_tol", type=float,
                       help="Krylov flow tolerance")
        p.add_argument("--out", help="output CSV path")

    p_solve = sub.add_parser("solve", help="integrate and write the trajectory")
    common(p_solve)
    p_solve.add_argument("--tau", type=float, help="step size")
    p_solve.add_argument("--dump-state", dest="dump_state",
                         help="also write the full state history as binary")

    p_conv = sub.add_parser("converge", help="run a convergence study")
    common(p_conv)
    p_conv.add_argument("--taus", help="comma-separated step-size ladder")
    p_conv.add_argument("--norm", choices=NORMS, help="error norm")
    p_conv.add_argument("--ref-tau", dest="ref_tau", type=float,
                        help="reference step size")
    p_conv.add_argument("--sample", choices=("final", "max"), default=None,
                        help="error functional: at t-end only, or max over the grid")
    p_conv.add_argument("--cache-dir", dest="cache_dir",
                        help="directory for cached reference solutions")

    sub.add_parser("list-problems", help="list registered problems")
    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill values left unset on the command line from the config file."""
    if not getattr(args, "config", None):
        return
    values = parse_config_file(args.config)
    for key, value in values.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _build(args):
    if args.h is None:
        return build_problem(args.problem)
    if args.problem in PROBLEMS and PROBLEMS[args.problem][0] is not MeshConfig:
        raise ValueError(f"--h: problem {args.problem} has no mesh")
    return build_problem(args.problem, n_cells=_parse_h(str(args.h)))


def _scheme_config(args) -> SchemeConfig:
    kwargs = {"scheme": args.scheme}
    for name in ("c2", "theta", "flow_tol"):
        if getattr(args, name, None) is not None:
            kwargs[name] = _number(getattr(args, name), name)
    return SchemeConfig(**kwargs)


def _cmd_solve(args) -> int:
    _require(args, "problem", "tau", "t_end", "scheme", "out")
    problem = _build(args)
    config = _scheme_config(args)
    t_end, tau = _number(args.t_end, "t_end"), _number(args.tau, "tau")
    trajectory, diag = integrate(problem.system, config, problem.u0, 0.0, t_end, tau)
    # A failed write removes the output files this command created.
    created = [p for p in (args.out, args.dump_state) if p and not os.path.lexists(p)]
    try:
        save_trajectory_csv(trajectory, diag, args.out)
        if args.dump_state:
            save_trajectory_binary(trajectory, args.dump_state)
    except BaseException:
        for path in created:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise
    print(
        f"solve {args.problem} scheme={args.scheme} steps={diag.steps} "
        f"max_constraint_residual={diag.max_constraint_residual:.3e} "
        f"repairs={diag.repairs} max_basis={diag.max_basis_size} "
        f"checks={diag.flow_checks} arnoldi_steps={diag.arnoldi_steps} -> {args.out}"
    )
    return EXIT_OK


def _cmd_converge(args) -> int:
    _require(args, "problem", "taus", "t_end", "scheme", "norm", "ref_tau", "out")
    problem = _build(args)
    config = _scheme_config(args)
    taus = _parse_taus(str(args.taus))
    table = run_convergence(
        problem,
        config,
        taus,
        _number(args.t_end, "t_end"),
        norm=args.norm,
        tau_ref=_number(args.ref_tau, "ref_tau"),
        cache_dir=args.cache_dir,
        sample=args.sample or "final",
    )
    emit_csv(table, args.out)
    print(
        f"converge {args.problem} scheme={args.scheme} norm={args.norm} "
        f"fitted_order={table.fitted_order:.3f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_list_problems() -> int:
    for name in sorted(PROBLEMS):
        cfg_cls, _ = PROBLEMS[name]
        defaults = ", ".join(f"{f.name}={getattr(cfg_cls(), f.name)}" for f in fields(cfg_cls))
        print(f"{name}: {defaults}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-problems":
            return _cmd_list_problems()
        _apply_config_file(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_converge(args)
    except ExpidaeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
