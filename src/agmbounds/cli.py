"""Command-line front end.

Subcommands: mean, elliptic, coeffs, scan, verify.  Output formats: text
(default), csv, json.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error, 141 (128 + SIGPIPE) when the reader of stdout
closes it before the output ends.  Exact rationals print as num/den in
text and CSV and as paired decimal strings in JSON.  Floats print with
--digits significant digits in text and CSV (display only, never fed
back into computation), and as their repr in JSON, so the JSON of every
command is the same at every --digits and parses back to the doubles
computed.

The grammar is stated once, in _GRAMMAR.  _read_argv reads well-formed
argv from it without argparse: each option spelled in full, at most
once, as `--name value` or `--name=value`, with a value that converts
and passes its choices.  Anything else (help, diagnostics, abbreviated
or repeated options, and option values that start with `-` and are
written without `=`) goes to the argparse parser that _build_parser
makes from the same table, so argparse loads only for those.

Each subcommand imports only the layer it runs, so that a fresh `mean`,
`elliptic` or `scan` process loads neither the exact-rational layer nor
the verifier.  Each returns its exit code and the pieces of its stdout,
having done first all that can raise, so a domain error writes nothing;
run writes every output through _write, which joins the pieces into
writes of at least _OUT_CHUNK characters and writes the final newline
alone.  mean, elliptic and verify return their text as one piece.  scan
runs in the means layer: it computes every ratio first, then formats its
output in every format, JSON included, in pieces of _SCAN_CHUNK grid
points, so it never holds its whole text.  coeffs formats each row, in
every format, as the recurrence produces it, and never builds the table.
mean, elliptic and verify build their JSON with means._json_dumps,
which loads json only for a string that needs escaping or a float that
is not finite; no passing command prints one, so no passing command
loads json.  The exact layer works in int pairs, so no command loads
fractions, decimal or numbers.
The value types of every layer are plain classes on means.Record, so no
command generates classes at import.
"""

import math
import os
import sys
import types
from itertools import chain, pairwise

# The default of an option that must be given.
_REQUIRED = object()

# The CLI grammar: subcommand -> (help, options), where each option maps
# its full name to (type, choices, default, help).  The dest is the name
# without its dashes; the type bool marks a flag that is False unless
# given.  _COMMON follows the options of every subcommand.
_COMMON = {
    "--format": (str, ("text", "csv", "json"), "text", None),
    "--digits": (int, None, 15, "significant digits for text and CSV floats (1..17)"),
}
_GRAMMAR = {
    "mean": ("evaluate a bivariate mean", {
        "--kind": (str, ("log", "identric", "genlog", "agm"), _REQUIRED, None),
        "--p": (float, None, None, "order for --kind genlog"),
        "--a": (float, None, _REQUIRED, None),
        "--b": (float, None, _REQUIRED, None),
    }),
    "elliptic": ("complete elliptic integral K", {
        "--method": (str, ("series", "agm", "quadrature"), _REQUIRED, None),
        "--t": (float, None, None, "modulus in [0, 1)"),
        "--a": (float, None, None, None),
        "--b": (float, None, None, None),
    }),
    "coeffs": ("exact coefficient table", {
        "--kmax": (int, None, _REQUIRED, None),
    }),
    "scan": ("scan the ratio M(1,t)/L(1,t)", {
        "--points": (int, None, _REQUIRED, None),
        "--tmin": (float, None, _REQUIRED, None),
        "--tmax": (float, None, _REQUIRED, None),
    }),
    "verify": ("run the verification suite", {
        "--profile": (str, ("quick", "full"), "quick", None),
        # None stands for verify.DEFAULT_SEED, read only once verify is imported
        "--seed": (int, None, None, None),
        "--timings": (bool, None, False,
                      "write 'claim_id elapsed_s' per check to stderr"),
    }),
}


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _build_parser():
    """The argparse parser of _GRAMMAR, for argv that _read_argv refuses."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="agmbounds",
        description=(
            "Bivariate means, complete elliptic integrals of the first kind, "
            "exact coefficient tables, and the verification suite for the "
            "sharp bounds L < M < (pi/2)L."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=command_help)
        for name, (kind, choices, default, help_text) in {**options, **_COMMON}.items():
            if kind is bool:
                p.add_argument(name, action="store_true", help=help_text)
            else:
                required = default is _REQUIRED
                p.add_argument(name, type=kind, choices=choices, required=required,
                               default=None if required else default, help=help_text)
    return parser


def _read_argv(argv):
    """The namespace argparse gives for well-formed argv, or None.

    Accepts only a subcommand followed by its options and the common
    ones, each spelled in full and given at most once, as `--name value`
    with a value that does not start with `-`, or as `--name=value`;
    a flag is given bare.  Each value must convert and pass its choices,
    every required option must be present, and --digits must lie in
    [1, 17].  None sends argv to the argparse parser.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    options = {**_GRAMMAR[argv[0]][1], **_COMMON}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        dest = name[2:]
        if name not in options or dest in values:
            return None
        kind, choices, _, _ = options[name]
        if kind is bool:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value reads as an option
            if value.startswith("-"):
                return None
        try:
            value = kind(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for name, (_, _, default, _) in options.items():
        if name[2:] not in values:
            if default is _REQUIRED:
                return None
            values[name[2:]] = default
    if not 1 <= values["digits"] <= 17:
        return None
    return types.SimpleNamespace(command=argv[0], **values)


def _cmd_mean(args):
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
        text = _fmt(value, args.digits)
    elif args.format == "csv":
        p_cell = "" if args.p is None else _fmt(args.p, args.digits)
        text = (f"kind,p,a,b,value\n{args.kind},{p_cell},{_fmt(args.a, args.digits)},"
                f"{_fmt(args.b, args.digits)},{_fmt(value, args.digits)}")
    else:
        text = means._json_dumps({"kind": args.kind, "p": args.p, "a": args.a, "b": args.b,
                                  "value": value})
    return 0, (text + "\n",)


def _cmd_elliptic(args):
    from agmbounds import elliptic, means

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
        text = (f"value: {_fmt(value, args.digits)}\n"
                f"method: {result.method}\n"
                f"terms_or_iterations: {result.terms_or_iterations}\n"
                f"error_estimate: {_fmt(err, args.digits)}")
    elif args.format == "csv":
        text = (f"method,value,terms_or_iterations,error_estimate\n"
                f"{result.method},{_fmt(value, args.digits)},"
                f"{result.terms_or_iterations},{_fmt(err, args.digits)}")
    else:
        text = means._json_dumps({"method": result.method, "value": value,
                                  "terms_or_iterations": result.terms_or_iterations,
                                  "error_estimate": err})
    return 0, (text + "\n",)


# The characters that _write joins into each write before an output's
# end.  With PYTHONUNBUFFERED set, stdout is a raw FileIO, so each write
# is a syscall that wakes the reader: writing a row at a time made
# coeffs --kmax 500 --format json 504 writes, and 16 KiB chunks make it
# 70.  A chunk is held twice while it grows and while it is written, as
# text and as bytes: 16 KiB raised the peak resident set of that process
# by 0.04 MB, 64 KiB by 0.19 MB and was no faster, and 256 KiB by
# 0.70 MB and was slower.
_OUT_CHUNK = 16 * 1024


def _write(out, pieces) -> None:
    """Write the text of pieces to out in writes of at least _OUT_CHUNK
    characters, holding at most one chunk and the last piece, and the
    output's last character, its final newline, as a write of its own:
    on an unbuffered stdout a reader that closes it during a write cuts
    that write short without an error, and only a further write fails."""
    text = ""
    for piece in pieces:
        # a chunk is written before the piece that follows it is held, so
        # the last piece is always held at the end
        if len(text) >= _OUT_CHUNK:
            out.write(text)
            text = piece
        else:
            text += piece
    if len(text) > 1:
        out.write(text[:-1])
    out.write(text[-1:])


def _cmd_coeffs(args):
    from agmbounds import coefficients as coeffs

    # rows stream from the recurrence as they are written; table_rows
    # checks k_max at the call, so a bad k_max raises before any output
    rows = coeffs.table_rows(args.kmax)
    if args.format == "json":
        return 0, chain(coeffs.json_pieces(args.kmax, rows), ("\n",))
    if args.format == "csv":
        return 0, coeffs.csv_lines(rows)
    return 0, (f"a_{k} = {a[0]}/{a[1]}\n" for k, a, *_ in rows if a is not None)


# The grid points whose output scan formats as one piece: scan holds one
# piece and at most one chunk of its text at a time.  Over a write per
# piece, chunked writes raised the peak resident set of scan --points
# 2000 by 0.06 MB with pieces of 256 points, and not measurably with
# pieces of 64.
_SCAN_CHUNK = 64


def _cmd_scan(args):
    from agmbounds import means

    # every ratio is computed, and checked finite, before scan returns
    grid, ratio = means.scan_ratio(args.points, args.tmin, args.tmax)
    upper = math.pi / 2.0
    starts = range(0, len(grid), _SCAN_CHUNK)
    if args.format == "json":
        # the text of json.dumps(..., sort_keys=True): the keys in sorted
        # order, and each float, all finite, as its repr
        def floats(values):
            for i in starts:
                yield (", " if i else "") + ", ".join(map(repr, values[i:i + _SCAN_CHUNK]))

        monotone = all(x > y for x, y in pairwise(ratio))
        tail = (f'], "lower_bound": 1.0, "max_value": {max(ratio)!r}, '
                f'"min_value": {min(ratio)!r}, '
                f'"monotone_decreasing": {"true" if monotone else "false"}, "ratio": [')
        return 0, chain(('{"grid": [',), floats(grid), (tail,), floats(ratio),
                        (f'], "upper_bound": {upper!r}}}\n',))
    # text and csv share the plottable four-column layout, with the
    # constant bound cells formatted once
    digits = args.digits
    bounds = f",1,{_fmt(upper, digits)}"
    lines = ("".join([f"\n{_fmt(t, digits)},{_fmt(r, digits)}{bounds}"
                      for t, r in zip(grid[i:i + _SCAN_CHUNK], ratio[i:i + _SCAN_CHUNK])])
             for i in starts)
    return 0, chain(("t,ratio,lower_bound,upper_bound",), lines, ("\n",))


def _print_timing(report, elapsed_s) -> None:
    print(f"{report.claim_id} {elapsed_s:.6f}", file=sys.stderr)


def _cmd_verify(args):
    from agmbounds import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    reports = verify.run_all(profile=args.profile, seed=seed,
                             on_check=_print_timing if args.timings else None)
    if args.format == "json":
        text = verify.reports_to_json(reports) + "\n"
    elif args.format == "csv":
        text = "claim_id,status,checked_points,witness\n" + "".join(
            f"{r.claim_id},{r.status},{r.checked_points},"
            f"{'' if r.witness is None else r.witness.replace(',', ';')}\n"
            for r in reports)
    else:
        text = verify.reports_to_text(reports)
    return (0 if verify.all_passed(reports) else 1), (text,)


_COMMANDS = {
    "mean": _cmd_mean,
    "elliptic": _cmd_elliptic,
    "coeffs": _cmd_coeffs,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def run(argv=None, out=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
            if not 1 <= args.digits <= 17:
                parser.error(f"--digits must lie in [1, 17], got {args.digits}")
        except SystemExit as exc:  # argparse already printed the diagnostic
            return exc.code if isinstance(exc.code, int) else 2
    try:
        code, pieces = _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(sys.stdout if out is None else out, pieces)
    return code


def main() -> None:
    try:
        code = run()
        # flush inside the try, so a reader that closed stdout early is
        # seen here and not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a process it killed
    sys.exit(code)


if __name__ == "__main__":
    main()
