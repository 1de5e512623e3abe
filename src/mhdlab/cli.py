"""Command line front end.

Subcommands: run, sweep, mms, compactness, validate.  Exit codes encode the
failure class so batch scripts can tell a bad config (2) from a violated
runtime invariant (3) from a numerical blow-up (4).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compactness import oscillation_experiment, write_defect_table
from .constitutive import check_admissible, make_standard_law, validate_hypotheses
from .errors import ConfigError, InvariantViolation, NumericalAbort
from .mms import spatial_convergence_study, temporal_convergence_study
from .scenario import load_scenario, run_scenario, sweep_scenarios
from .solver import SchemeParams


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdlab",
        description="desk-scale laboratory for a regularized viscous MHD system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--override", action="append", default=[], metavar="SEC.KEY=VAL")

    p = sub.add_parser("sweep", help="run the sweep declared in the config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--override", action="append", default=[], metavar="SEC.KEY=VAL")

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--out", required=True)
    p.add_argument("--quick", action="store_true", help="small grids, short horizon")

    p = sub.add_parser("compactness", help="oscillation defect experiment")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check config, closure and initial data")
    p.add_argument("--config", required=True)
    p.add_argument("--override", action="append", default=[], metavar="SEC.KEY=VAL")

    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.config, args.override)
    summary = run_scenario(scenario, args.out)
    for key in ("steps", "t_final", "mass_drift", "div_H_rel", "rho_min", "theta_min"):
        print(f"{key} = {summary[key]}")
    return 0


def _cmd_sweep(args) -> int:
    rows = sweep_scenarios(
        args.config, args.out, threads=args.threads, overrides=args.override
    )
    for row in rows:
        print(
            f"value={row['value']:g} steps={row['steps']} "
            f"pressure_avg={row['artificial_pressure_avg']:.6g}"
        )
    return 0


def _cmd_mms(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1)
    if args.quick:
        spatial = spatial_convergence_study(law, params, cells=(32, 64), t_end=0.02)
        temporal = temporal_convergence_study(
            law, params, cells=32, t_end=0.04, base_dt=2e-3, refinements=2
        )
    else:
        spatial = spatial_convergence_study(law, params)
        temporal = temporal_convergence_study(law, params)
    for rep, name in ((spatial, "spatial"), (temporal, "temporal")):
        with open(out / f"mms-{name}.csv", "w") as fh:
            fh.write("resolution," + ",".join(rep.errors) + "\n")
            for i, r in enumerate(rep.resolutions):
                cells = ",".join(format(rep.errors[b][i], ".17g") for b in rep.errors)
                fh.write(f"{r:g},{cells}\n")
        print(f"{name} orders:", {b: round(o[-1], 3) for b, o in rep.orders.items()})
    return 0


def _cmd_compactness(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = oscillation_experiment(
        make_standard_law(), SchemeParams(epsilon=0.05, delta=0.1)
    )
    write_defect_table(out / "defect-table.csv", table)
    for n, d1, d2 in zip(table.modes, table.flux_defect, table.pressure_defect):
        print(f"mode={n} flux_defect={d1:.6g} pressure_defect={d2:.6g}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.config, args.override)
    report = validate_hypotheses(scenario.law)
    for check in report.checks:
        print(f"{'ok' if check.passed else 'FAIL'}  {check.name}: {check.description}")
    weight = check_admissible(scenario.params.omega)
    print(f"{'ok' if weight.ok else 'FAIL'}  renormalizer weight admissible")
    print("config ok")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "mms": _cmd_mms,
    "compactness": _cmd_compactness,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
