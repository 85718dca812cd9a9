"""Command-line interface.

Subcommands:
  slope        field -> slope CSV
  crit         slope (or field) -> critical-set CSV
  descend      f, g, start point -> descent path CSV
  determine    f, g -> JSON report (exit 0 equal / 2 violated / 3 inconclusive)
  reconstruct  slopes + critical values -> field CSV, or witness JSON (exit 1)
  gallery      figure tag -> CSV (or gnuplot) columns
  verify       seeded random property suites (--suite, --trials, --seed)

Exit codes: 0 success, 1 inadmissible reconstruction or failed verify
suite, 2/3 determine verdicts as above, 64 usage error, 70 internal
error, 74 unreadable or invalid input files. Output is byte-identical
across repeated runs with the same configuration and inputs.
"""
from __future__ import annotations

import argparse
import sys

# The one slopekit module loaded at import: each command imports what it
# calls, so a process loads the modules of its own command only.
from .errors import FileFormatError, SlopeKitError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_IO = 74

# Gallery sizes: fig3 at level 12 has 3**12 + 1 points, within MAX_POINTS.
MAX_POINTS = 10**6
MAX_LEVEL = 12


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert):
    """An argparse type: `convert` applied to the option's text, with
    each error it raises reported as a usage error."""
    def parse(text: str):
        try:
            return convert(text)
        except (SlopeKitError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _int_in(lo: int, hi: int | None = None):
    """An argparse type: an integer in [lo, hi], or >= lo if hi is None."""
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"

    def convert(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            raise ValueError(f"must be an integer {bounds}, got {value}")
        return value
    return _checked(convert)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_slope(args) -> int:
    from . import io as skio
    from .slope import slope_field
    space = skio.load_graph_csv(args.space)
    f = skio.load_field_csv(args.f, space)
    slopes = slope_field(space, f, cap=args.cap)
    if args.format == "json":
        rows = [(p, None if inf else v, int(inf)) for p, (v, inf) in enumerate(
            zip(slopes.values.tolist(), slopes.infinite.tolist()))]
        text = skio.render_rows_json(("point", "slope", "is_infinite"), rows)
    else:
        text = skio.render_slope_csv(slopes)
    _emit(text, args.out)
    return EXIT_OK


def cmd_crit(args) -> int:
    from . import io as skio
    from .critical import critical_set
    from .slope import slope_field
    space = skio.load_graph_csv(args.space)
    if args.slopes is not None:
        slopes = skio.load_slope_csv(args.slopes, space, cap=args.cap)
    else:
        f = skio.load_field_csv(args.f, space)
        slopes = slope_field(space, f, cap=args.cap)
    crit = critical_set(slopes, tol=args.tol_crit)
    _emit(skio.render_crit_csv(crit, slopes), args.out)
    return EXIT_OK


def cmd_descend(args) -> int:
    from . import io as skio
    from .critical import critical_set
    from .descent import descent_path
    from .slope import slope_field
    space = skio.load_graph_csv(args.space)
    f = skio.load_field_csv(args.f, space)
    g = skio.load_field_csv(args.g, space)
    crit = critical_set(slope_field(space, f, cap=args.cap),
                        tol=args.tol_crit)
    path = descent_path(space, f, g, args.start, crit,
                        max_steps=args.max_steps, cap=args.cap)
    _emit(skio.render_path_csv(path), args.out)
    return EXIT_OK


def cmd_determine(args) -> int:
    from . import io as skio
    from .determination import determine
    space = skio.load_graph_csv(args.space)
    f = skio.load_field_csv(args.f, space)
    g = skio.load_field_csv(args.g, space)
    report = determine(space, f, g, tol_slope=args.tol_slope,
                       tol_crit=args.tol_crit,
                       tol_residual=args.tol_residual, cap=args.cap)
    _emit(skio.render_determination_report(report), args.out)
    return report.exit_code


def cmd_reconstruct(args) -> int:
    from . import io as skio
    from .reconstruct import Inadmissible, SlopeData, reconstruct
    space = skio.load_graph_csv(args.space)
    slopes = skio.load_slope_csv(args.slopes, space, cap=args.cap)
    crit_values = skio.load_crit_values_csv(args.crit_values, space)
    outcome = reconstruct(space, SlopeData(slopes, crit_values),
                          tol=args.tol)
    if isinstance(outcome, Inadmissible):
        _emit(skio.render_witness_report(outcome), args.out)
        return EXIT_FAILED
    _emit(skio.render_field_csv(outcome), args.out)
    return EXIT_OK


def cmd_gallery(args) -> int:
    from . import io as skio
    from .gallery import emit_figure_data
    header, rows = emit_figure_data(args.figure, n=args.n, level=args.level,
                                    cap=args.cap)
    if args.format == "gnuplot":
        text = skio.render_rows_gnuplot(header, rows)
    else:
        text = skio.render_rows_csv(header, rows)
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .testing import SUITES
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        result = SUITES[name](trials=args.trials, seed=args.seed)
        status = "PASS" if result.passed else "FAIL"
        line = (f"suite={result.name} trials={result.trials} "
                f"checks={result.checks} failures={result.failures} {status}")
        if result.first_failure:
            line += f" ({result.first_failure})"
        print(line)
        failed = failed or not result.passed
    return EXIT_FAILED if failed else EXIT_OK


def build_parser() -> _Parser:
    from .slope import OVERFLOW_CAP, check_cap, check_tol
    cap_type = _checked(lambda text: check_cap(float(text)))
    tol_type = _checked(lambda text: check_tol(float(text)))
    parser = _Parser(prog="slopekit",
                     description="Slope calculus on finite metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    space_parent = _Parser(add_help=False)
    space_parent.add_argument("--space", required=True,
                              help="edge list CSV (u,v,length)")

    cap_parent = _Parser(add_help=False)
    cap_parent.add_argument("--cap", type=cap_type, default=OVERFLOW_CAP,
                            help="slope overflow cap (default 1e12)")

    out_parent = _Parser(add_help=False)
    out_parent.add_argument("--out", default=None,
                            help="write output here instead of stdout")

    p = sub.add_parser("slope", parents=[space_parent, cap_parent, out_parent],
                       help="compute the slope field of a scalar field")
    p.add_argument("--f", required=True, help="field CSV (point,value)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("crit", parents=[space_parent, cap_parent, out_parent],
                       help="extract the critical set")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--slopes", default=None,
                        help="slope CSV (point,slope[,is_infinite])")
    source.add_argument("--f", default=None,
                        help="field CSV, slopes computed here")
    p.add_argument("--tol-crit", type=tol_type, default=0.0,
                   help="slope zero-test tolerance (default 0)")
    p.set_defaults(func=cmd_crit)

    p = sub.add_parser("descend",
                       parents=[space_parent, cap_parent, out_parent],
                       help="run a descent path to a critical point")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--tol-crit", type=tol_type, default=0.0)
    p.add_argument("--max-steps", type=_int_in(0), default=None)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("determine",
                       parents=[space_parent, cap_parent, out_parent],
                       help="check whether g = f + constant (JSON report)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--tol-slope", type=tol_type, default=1e-9)
    p.add_argument("--tol-crit", type=tol_type, default=1e-9)
    p.add_argument("--tol-residual", type=tol_type, default=None)
    p.set_defaults(func=cmd_determine)

    p = sub.add_parser("reconstruct",
                       parents=[space_parent, cap_parent, out_parent],
                       help="rebuild a field from slopes and critical values")
    p.add_argument("--slopes", required=True)
    p.add_argument("--crit-values", required=True)
    p.add_argument("--tol", type=tol_type, default=1e-9)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("gallery", parents=[cap_parent, out_parent],
                       help="emit figure data for the example pairs")
    p.add_argument("figure", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--n", type=_int_in(2, MAX_POINTS), default=None,
                   help=f"grid size override, at most {MAX_POINTS}")
    p.add_argument("--level", type=_int_in(0, MAX_LEVEL), default=8,
                   help=f"staircase approximation level (fig3), at most "
                        f"{MAX_LEVEL}")
    p.add_argument("--format", choices=("csv", "gnuplot"), default="csv")
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("verify",
                       help="run seeded random property suites")
    p.add_argument("--suite", default="all",
                   choices=("all", "lemma", "descent", "determine",
                            "reconstruct", "homogeneity"))
    p.add_argument("--trials", type=_int_in(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"slopekit: input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SlopeKitError as exc:
        print(f"slopekit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
