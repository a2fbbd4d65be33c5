"""Command-line interface.

Subcommands: count, table, verify, primes, logconcave.  Exit codes follow a
stable contract: 0 success / all identities hold, 1 identity or property
violation, 2 usage error, 3 unsupported order, out-of-range oracle request or
too little memory.  A malformed command fails before any count is computed,
with one error line from the parser or, for a rule across arguments, from
`main`.  An unsupported order prints one `error:` line on stderr, from
`main`, as does an n/a cell of `table 1 --strict` once the table is printed;
where --oracle was not given and the oracle covers the order and class, the
line suggests it.
A reader that closes standard output early (as `| head` does) ends the run
with 141 and no traceback, the status a shell reports for a filter killed by
SIGPIPE (128 + 13).
Every number is printed as a full decimal string together with its provenance
(formula / oracle); JSON output is line-delimited with sorted keys, so
re-rendering parsed records reproduces the bytes exactly.  The output format
comes from --format, else from CIRCENUM_FORMAT, else text.
A process builds the argument parser once and every `main` call reuses it;
CIRCENUM_FORMAT is read on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import UnsupportedOrderError
from .counting import (CLASSES, VALENCY_CLASSES, CountResult, count_by_formula,
                       has_formula, log_concavity_probe, value_at)
from .identities import IDENTITIES, IDENTITY_KEYS, covered, verify_range
from .numtheory import cunningham_pairs, nearly_doubled_primes
from . import oracle

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_BROKEN_PIPE = 141

FORMATS = ("text", "csv", "json")
TABLE1_COLUMNS = ("C_d", "C_u", "C_o", "C_sd", "C_su", "C_t")
_ORACLE_HINT = " (try --oracle for desk-scale orders)"
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_line(record: dict) -> str:
    return _JSON.encode(record)


def _get_count(order: int, klass: str, use_oracle: bool, total_only: bool = False):
    """The oracle's count, or the closed form's: its series, or with
    total_only its total alone, read at z = 1 without the series."""
    if use_oracle:
        return oracle.enumerate_circulants(order, klass)
    try:
        if total_only:
            return CountResult(order, klass, value_at(order, klass))
        return count_by_formula(order, klass)
    except UnsupportedOrderError as exc:
        if not oracle.covers(order, klass):
            raise
        raise UnsupportedOrderError(f"{exc}{_ORACLE_HINT}") from None


def _require_series(klass: str) -> None:
    if klass not in VALENCY_CLASSES:
        raise ValueError(f"class {klass!r} has no valency series")


def cmd_count(args) -> int:
    series = args.poly or args.valency is not None
    if series:
        _require_series(args.klass)
    result = _get_count(args.order, args.klass, args.oracle,
                        total_only=not series and args.format != "json")
    if args.format == "json":
        print(_json_line(result.to_json()))
        return EXIT_OK
    if args.valency is not None:
        print(f"{result.by_valency.coeff(args.valency)} ({result.provenance})")
    elif args.poly:
        print(*result.by_valency.coeffs, f"({result.provenance})")
    else:
        print(f"{result.total} ({result.provenance})")
    return EXIT_OK


def _table_count(order: int, klass: str, use_oracle: bool, total_only: bool = False):
    """A table cell's count: the formula where one exists, else the oracle
    where --oracle is given."""
    return _get_count(order, klass, use_oracle and not has_formula(order, klass),
                      total_only)


def cmd_table(args) -> int:
    orders = args.orders or list(range(2, args.max + 1))
    if args.which == 1:
        rows = []
        for n in orders:
            cells = []
            for klass in CLASSES:
                cells.append(_table_count(n, klass, args.oracle, total_only=True)
                             if covered(n, klass, args.oracle) else None)
            rows.append((n, cells))
        if args.format == "json":
            for n, cells in rows:
                record = {"n": n}
                for col, cell in zip(TABLE1_COLUMNS, cells):
                    record[col] = None if cell is None else str(cell.total)
                    record[col + "_provenance"] = None if cell is None else cell.provenance
                print(_json_line(record))
        else:
            sep = "," if args.format == "csv" else "\t"
            print(sep.join(("n",) + TABLE1_COLUMNS))
            for n, cells in rows:
                out = [str(n)]
                for cell in cells:
                    out.append("n/a" if cell is None else str(cell.total))
                print(sep.join(out))
        missing = [(n, klass) for n, cells in rows
                   for klass, cell in zip(CLASSES, cells) if cell is None]
        if args.strict and missing:
            hint = ("" if args.oracle or not any(oracle.covers(*cell) for cell in missing)
                    else _ORACLE_HINT)
            orders = ", ".join(map(str, dict.fromkeys(n for n, _ in missing)))
            raise UnsupportedOrderError(f"table 1 has n/a cells at n = {orders}{hint}")
        return EXIT_OK
    # table 2: valency columns for one class
    klass = args.klass
    _require_series(klass)
    columns = {n: _table_count(n, klass, args.oracle).by_valency for n in orders}
    top = max(p.degree for p in columns.values())
    # the undirected catalog is laid out by even valency only
    step = 2 if klass == "u" else 1
    if args.format == "json":
        for n in orders:
            record = {"n": n, "class": klass,
                      "coefficients": [str(c) for c in columns[n].coeffs]}
            print(_json_line(record))
        return EXIT_OK
    sep = "," if args.format == "csv" else "\t"
    print(sep.join(["r"] + [f"n={n}" for n in orders]))
    for r in range(0, top + 1, step):
        cells = [str(columns[n].coeff(r)) if r <= columns[n].degree else ""
                 for n in orders]
        print(sep.join([str(r)] + cells))
    return EXIT_OK


def cmd_verify(args) -> int:
    keys = None if args.all else tuple(args.identity)
    reports = verify_range(keys, order_bound=args.max, lemma_bound=args.lemma_max,
                           allow_oracle=args.oracle)
    fails = sum(r.status == "fails" for r in reports)
    if args.format == "json":
        for report in reports:
            print(_json_line(report.to_json()))
    elif args.format == "csv":
        # one summary row per identity, like a systematized list
        print("key,formula,orders,holds,fails,status")
        by_key: dict[str, list] = {}
        for report in reports:
            by_key.setdefault(report.key, []).append(report)
        for key, group in by_key.items():
            formula = IDENTITIES[key].description
            orders = " ".join(str(r.order) for r in group)
            n_fail = sum(r.status == "fails" for r in group)
            status = "fails" if n_fail else "holds"
            print(f'{key},"{formula}","{orders}",{len(group) - n_fail},{n_fail},{status}')
    else:
        for report in reports:
            detail = (f" (lhs={report.lhs}, rhs={report.rhs})"
                      if report.status == "fails" else "")
            print(f"{report.key} n={report.order}: {report.status}{detail}")
        holds = sum(r.status == "holds" for r in reports)
        print(f"-- {holds} hold, {fails} fail, "
              f"{sum(r.status == 'not-applicable' for r in reports)} not applicable")
    return EXIT_VIOLATION if fails else EXIT_OK


def cmd_primes(args) -> int:
    if args.nearly_doubled:
        pairs = nearly_doubled_primes(args.limit)
        for pair in pairs:
            if args.format == "json":
                print(_json_line({"q": pair.q, "p": pair.p}))
            else:
                print(f"q={pair.q} p={pair.p}")
        if args.format != "json":
            print(f"-- {len(pairs)} pairs with p <= {args.limit}")
        return EXIT_OK
    # chain mode; cunningham_pairs rejects an even or non-positive ptilde
    if args.ptilde is None:
        raise ValueError("--chain needs --ptilde")
    ks = cunningham_pairs(args.ptilde, args.kmax, rounds=args.mr_rounds)
    if args.format == "json":
        print(_json_line({"ptilde": args.ptilde, "k_max": args.kmax, "k": ks}))
    else:
        shown = ", ".join(str(k) for k in ks) if ks else "none"
        print(f"chain starts k with {args.ptilde}*2^k+1 and {args.ptilde}*2^(k+1)+1 "
              f"prime, k <= {args.kmax}: {shown}")
    return EXIT_OK


def cmd_logconcave(args) -> int:
    series = _get_count(args.order, "u", args.oracle).by_valency
    violations = log_concavity_probe(args.order, series)
    if args.format == "json":
        print(_json_line({
            "order": args.order,
            "violations": [{"r": r, "window": [str(a), str(b), str(c)]}
                           for r, a, b, c in violations]}))
    elif not violations:
        print(f"order {args.order}: log-concave")
    else:
        for r, a, b, c in violations:
            print(f"order {args.order}: violation at r={r}: {b}^2 < {a}*{c}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _add_format_option(subparser) -> None:
    # accepted after the subcommand too; when given there, replaces the
    # top-level value, and when absent leaves it alone
    subparser.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)


def _add_oracle_options(subparser, help=None) -> None:
    subparser.add_argument("--oracle", action="store_true", help=help)
    # accepted and ignored: the oracle's whole range needs no gate
    subparser.add_argument("--allow-slow", action="store_true", help=argparse.SUPPRESS)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _orders(text: str) -> list[int]:
    """argparse type: comma-separated orders, each at least 1."""
    return [_int_at_least(1)(x) for x in text.split(",")]


_orders.__name__ = "order list"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circenum",
        description="Exact counts of circulant graphs, identity checks, and a "
                    "brute-force isomorphism oracle.")
    parser.add_argument("--format", choices=FORMATS,
                        help="output format (default from CIRCENUM_FORMAT)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count circulants of one order and class")
    p_count.add_argument("--order", type=_int_at_least(1), required=True)
    p_count.add_argument("--class", dest="klass", required=True, choices=CLASSES)
    p_count.add_argument("--poly", action="store_true",
                         help="print the valency series")
    p_count.add_argument("--valency", type=_int_at_least(0),
                         help="print one coefficient")
    _add_oracle_options(p_count, "force brute-force enumeration")
    _add_format_option(p_count)
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser("table", help="emit a catalog table")
    p_table.add_argument("which", type=int, choices=(1, 2))
    p_table.add_argument("--max", type=_int_at_least(2), default=14)
    p_table.add_argument("--orders", type=_orders)
    p_table.add_argument("--class", dest="klass", default="u", choices=CLASSES,
                         metavar="KLASS", help="class for table 2 (d, u or o)")
    _add_oracle_options(p_table, "fill cells without a formula from the oracle")
    p_table.add_argument("--strict", action="store_true",
                         help="exit 3 when any cell is unsupported")
    _add_format_option(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="check counting identities")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--identity", action="append", choices=IDENTITY_KEYS,
                       metavar="IDENTITY", help="identity key, repeatable")
    p_verify.add_argument("--max", type=_int_at_least(0), default=100,
                          help="largest order to instantiate")
    p_verify.add_argument("--lemma-max", type=_int_at_least(0), default=64,
                          help="largest parameter for the symbolic lemmas")
    p_verify.add_argument("--oracle", action="store_true",
                          help="add oracle-backed instantiations at desk scale")
    _add_format_option(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_primes = sub.add_parser("primes", help="nearly doubled primes and chains")
    mode = p_primes.add_mutually_exclusive_group(required=True)
    mode.add_argument("--nearly-doubled", action="store_true")
    mode.add_argument("--chain", action="store_true")
    p_primes.add_argument("--limit", type=_int_at_least(2), default=1000)
    p_primes.add_argument("--ptilde", type=int)
    p_primes.add_argument("--kmax", type=_int_at_least(0), default=100)
    p_primes.add_argument("--mr-rounds", type=_int_at_least(0), default=40,
                          help="extra Miller-Rabin bases for chain candidates "
                               "above 2^64 with ptilde >= 2^k (Proth's theorem "
                               "decides the others there)")
    _add_format_option(p_primes)
    p_primes.set_defaults(func=cmd_primes)

    p_log = sub.add_parser("logconcave",
                           help="probe the undirected counts for log-concavity")
    p_log.add_argument("--order", type=_int_at_least(1), required=True)
    _add_oracle_options(p_log)
    _add_format_option(p_log)
    p_log.set_defaults(func=cmd_logconcave)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = os.environ.get("CIRCENUM_FORMAT", "text")
    if args.format not in FORMATS:  # argparse does not check the environment
        parser.error(f"CIRCENUM_FORMAT: invalid choice: {args.format!r} "
                     f"(choose from {', '.join(FORMATS)})")
    # counts print in full, past the interpreter's int-string digit limit;
    # the arguments above were parsed under it (absent before 3.10.7)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UnsupportedOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:  # an argument rule, the command's or a library's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # a sieve or table larger than the memory at hand
        print("error: not enough memory for this request", file=sys.stderr)
        return EXIT_UNSUPPORTED
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def main_exit() -> None:
    """Console-script and ``python -m circenum`` entry point."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # stdout at devnull, so the flush at shutdown writes nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main_exit()
