"""Command-line front end.

Subcommands: mean, elliptic, coeffs, scan, verify.  Output formats: text
(default), csv, json.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error.  Exact rationals print as num/den in text and
CSV and as paired decimal strings in JSON; floats print with --digits
significant digits (display only, never fed back into computation).

Each subcommand imports only the layer it runs, and json only where it
prints JSON through json.dumps, so that a fresh `mean` or `elliptic`
process loads neither the exact-rational layer nor the verifier.
coeffs writes each row, in every format, as the recurrence produces
it, and never builds the table or loads json.  The value types of
every layer are plain classes on means.Record, so no command generates
classes at import.
"""

import argparse
import math
import sys


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _rounded(value: float, digits: int) -> float:
    return float(_fmt(value, digits))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agmbounds",
        description=(
            "Bivariate means, complete elliptic integrals of the first kind, "
            "exact coefficient tables, and the verification suite for the "
            "sharp bounds L < M < (pi/2)L."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--digits", type=int, default=15,
                       help="significant digits for floating output (1..17)")

    p_mean = sub.add_parser("mean", help="evaluate a bivariate mean")
    p_mean.add_argument("--kind", required=True,
                        choices=("log", "identric", "genlog", "agm"))
    p_mean.add_argument("--p", type=float, default=None,
                        help="order for --kind genlog")
    p_mean.add_argument("--a", type=float, required=True)
    p_mean.add_argument("--b", type=float, required=True)
    add_common(p_mean)

    p_ell = sub.add_parser("elliptic", help="complete elliptic integral K")
    p_ell.add_argument("--method", required=True,
                       choices=("series", "agm", "quadrature"))
    p_ell.add_argument("--t", type=float, default=None, help="modulus in [0, 1)")
    p_ell.add_argument("--a", type=float, default=None)
    p_ell.add_argument("--b", type=float, default=None)
    add_common(p_ell)

    p_coeffs = sub.add_parser("coeffs", help="exact coefficient table")
    p_coeffs.add_argument("--kmax", type=int, required=True)
    add_common(p_coeffs)

    p_scan = sub.add_parser("scan", help="scan the ratio M(1,t)/L(1,t)")
    p_scan.add_argument("--points", type=int, required=True)
    p_scan.add_argument("--tmin", type=float, required=True)
    p_scan.add_argument("--tmax", type=float, required=True)
    add_common(p_scan)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    # None stands for verify.DEFAULT_SEED, read only once verify is imported
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--timings", action="store_true",
                          help="write 'claim_id elapsed_s' per check to stderr")
    add_common(p_verify)

    return parser


def _cmd_mean(args, out) -> int:
    from agmbounds import means

    inp = means.MeanInput(args.a, args.b)
    if args.kind == "genlog":
        if args.p is None:
            raise ValueError("--kind genlog requires --p")
        value = means.gen_log_mean(args.p, inp)
    elif args.p is not None:
        raise ValueError("--p is only valid with --kind genlog")
    elif args.kind == "log":
        value = means.log_mean(inp)
    elif args.kind == "identric":
        value = means.identric_mean(inp)
    else:
        value = means.agm(inp).limit
    if args.format == "text":
        print(_fmt(value, args.digits), file=out)
    elif args.format == "csv":
        print("kind,p,a,b,value", file=out)
        p_cell = "" if args.p is None else _fmt(args.p, args.digits)
        print(
            f"{args.kind},{p_cell},{_fmt(args.a, args.digits)},"
            f"{_fmt(args.b, args.digits)},{_fmt(value, args.digits)}",
            file=out,
        )
    else:
        import json

        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "p": args.p,
                    "a": args.a,
                    "b": args.b,
                    "value": _rounded(value, args.digits),
                },
                sort_keys=True,
            ),
            file=out,
        )
    return 0


def _cmd_elliptic(args, out) -> int:
    from agmbounds import elliptic

    has_pair = args.a is not None or args.b is not None
    if args.t is not None and has_pair:
        raise ValueError("give either --t or --a/--b, not both")
    if args.t is None and not (args.a is not None and args.b is not None):
        raise ValueError("give --t, or both --a and --b")

    scale = 1.0
    if args.method == "quadrature":
        if args.t is not None:
            m = elliptic.Modulus(args.t)
            result = elliptic.k_quadrature(1.0, m.complement())
        else:
            result = elliptic.k_quadrature(args.a, args.b)
    else:
        if args.t is not None:
            m = elliptic.Modulus(args.t)
        else:
            m, scale = elliptic.modulus_from_pair(args.a, args.b)
        result = elliptic.k_series(m) if args.method == "series" else elliptic.k_agm(m)

    value = result.value / scale
    err = result.error_estimate / scale
    if args.format == "text":
        print(f"value: {_fmt(value, args.digits)}", file=out)
        print(f"method: {result.method}", file=out)
        print(f"terms_or_iterations: {result.terms_or_iterations}", file=out)
        print(f"error_estimate: {_fmt(err, args.digits)}", file=out)
    elif args.format == "csv":
        print("method,value,terms_or_iterations,error_estimate", file=out)
        print(
            f"{result.method},{_fmt(value, args.digits)},"
            f"{result.terms_or_iterations},{_fmt(err, args.digits)}",
            file=out,
        )
    else:
        import json

        print(
            json.dumps(
                {
                    "method": result.method,
                    "value": _rounded(value, args.digits),
                    "terms_or_iterations": result.terms_or_iterations,
                    "error_estimate": _rounded(err, args.digits),
                },
                sort_keys=True,
            ),
            file=out,
        )
    return 0


def _cmd_coeffs(args, out) -> int:
    from agmbounds import coefficients as coeffs

    # rows stream from the recurrence, one write per row; table_rows checks
    # k_max before the first row, so a bad k_max writes nothing
    rows = coeffs.table_rows(args.kmax)
    if args.format == "json":
        coeffs.write_json(args.kmax, rows, out.write)
        out.write("\n")
    elif args.format == "csv":
        coeffs.write_csv(rows, out.write)
    else:
        for k, a, *_ in rows:
            if a is not None:
                out.write(f"a_{k} = {a.numerator}/{a.denominator}\n")
    return 0


def _cmd_scan(args, out) -> int:
    from agmbounds import verify

    scan = verify.scan_ratio(args.points, args.tmin, args.tmax)
    upper = math.pi / 2.0
    if args.format == "json":
        import json

        print(
            json.dumps(
                {
                    "grid": list(scan.grid),
                    "ratio": list(scan.ratio),
                    "monotone_decreasing": scan.monotone_decreasing,
                    "min_value": scan.min_value,
                    "max_value": scan.max_value,
                    "lower_bound": 1.0,
                    "upper_bound": upper,
                },
                sort_keys=True,
            ),
            file=out,
        )
    else:
        # text and csv share the plottable four-column layout
        print("t,ratio,lower_bound,upper_bound", file=out)
        for t, r in zip(scan.grid, scan.ratio):
            print(
                f"{_fmt(t, args.digits)},{_fmt(r, args.digits)},1,"
                f"{_fmt(upper, args.digits)}",
                file=out,
            )
    return 0


def _print_timing(report, elapsed_s) -> None:
    print(f"{report.claim_id} {elapsed_s:.6f}", file=sys.stderr)


def _cmd_verify(args, out) -> int:
    from agmbounds import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    if args.timings:
        reports = verify.run_all(profile=args.profile, seed=seed, on_check=_print_timing)
    else:
        reports = verify.run_all(profile=args.profile, seed=seed)
    if args.format == "json":
        print(verify.reports_to_json(reports), file=out)
    elif args.format == "csv":
        print("claim_id,status,checked_points,witness", file=out)
        for r in reports:
            witness = "" if r.witness is None else r.witness.replace(",", ";")
            print(f"{r.claim_id},{r.status},{r.checked_points},{witness}", file=out)
    else:
        out.write(verify.reports_to_text(reports))
    return 0 if verify.all_passed(reports) else 1


_COMMANDS = {
    "mean": _cmd_mean,
    "elliptic": _cmd_elliptic,
    "coeffs": _cmd_coeffs,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def run(argv=None, out=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not 1 <= args.digits <= 17:
            parser.error(f"--digits must lie in [1, 17], got {args.digits}")
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if isinstance(exc.code, int) else 2
    out = out if out is not None else sys.stdout
    try:
        return _COMMANDS[args.command](args, out)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        if isinstance(exc, RuntimeError):
            # TermBudgetExhausted is the one RuntimeError that is a domain
            # error; elliptic is imported here so commands without it skip it
            from agmbounds.elliptic import TermBudgetExhausted

            if not isinstance(exc, TermBudgetExhausted):
                raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
