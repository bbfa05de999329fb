"""Command-line front end.

Subcommands: predict, compare, sweep, emit.  Exit codes: 0 all
comparisons pass, 1 comparison failures, 2 validation errors, 3 runtime/IO
errors (argparse usage errors exit with 2 as well).  The engine uses no
randomness anywhere.
"""

from __future__ import annotations

import argparse
import sys

from . import asymptotics, harness, quadrature, simulator

EXIT_OK = 0
EXIT_COMPARE_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="darkshelf",
        description="Dark-soliton shelf engine: asymptotic predictions vs direct NLS simulation.",
    )
    p.add_argument("--config", default=None,
                   help=f"preset name or JSON config path (presets: {', '.join(sorted(harness.PRESETS))})")
    p.add_argument("--out-dir", default="out", help="directory for CSV/JSON outputs")
    p.add_argument("--run-id", default=None, help="output file prefix (defaults to the subcommand)")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("predict", help="run the slow-parameter cascade only; emit prediction CSV")
    sub.add_parser("compare", help="simulate, measure and grade against the asymptotics")
    sw = sub.add_parser("sweep", help="compare across a list of core phase angles, in parallel")
    sw.add_argument("--delta-phi0", type=float, nargs="+", required=True,
                    help="core phase changes to sweep (radians)")
    em = sub.add_parser("emit", help="simulate and emit plot data of the requested kinds (no grading)")
    em.add_argument("--kinds", nargs="+", default=None,
                    help="profile contour trajectory layer snapshots (default: config outputs)")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.config is None:
        print("error: --config is required (preset name or JSON path)", file=sys.stderr)
        return EXIT_VALIDATION
    run_id = args.run_id or args.command
    try:
        cfg = harness.load_config(args.config)
        if args.command == "sweep":
            report = harness.run_sweep(cfg, args.delta_phi0)
            path = harness.write_report(report, args.out_dir, run_id)
            print(report.table())
            print(f"report: {path}")
            return EXIT_OK if report.passed else EXIT_COMPARE_FAILED
        if args.command == "emit" and args.kinds:
            cfg["outputs"] = args.kinds  # validated with the config, before the run
        exp = harness.validate(cfg)
        if args.command == "predict":
            traj = harness.predict(exp)
            path = harness.write_prediction_csv(traj, args.out_dir, run_id)
            print(f"prediction: {path}")
            return EXIT_OK
        if args.command == "compare":
            report, art = harness.compare(exp)
            harness.write_report(report, args.out_dir, run_id)
            harness.emit_plotdata(art, exp.outputs, args.out_dir, run_id)
            print(report.table())
            return EXIT_OK if report.passed else EXIT_COMPARE_FAILED
        written = harness.emit_plotdata(harness.simulate(exp), exp.outputs or ("profile",), args.out_dir, run_id)
        print("\n".join(written))
        return EXIT_OK
    except harness.ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (simulator.SimulationError, asymptotics.ShallowSolitonError,
            asymptotics.BackgroundCollapseError, quadrature.QuadratureError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
