"""Command-line front end.

Subcommands: table, verify {C|E|D}, solve, search, galaxy, scheme-info.
Exit statuses: 0 success, 1 check failed, 2 usage error, 3 internal
failure; no error prints a traceback.  Big integers print in full, as
decimal strings in JSON, so no consumer loses precision.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .conditions import (
    InadmissibleFamily,
    condition_C_sweep,
    condition_E_sweep,
    full_admissibility,
)
from .construction import SchemeError, coefficient_table
from .crt import Incompatible, solve_scheme, unlimited_int_digits
from .search import galaxy_report, search_tuples, witness_from_json_dict
from .variants import SCHEMES, get_scheme, qnr_anchor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
MAX_DIGITS = 4300  # Python's default limit on int <-> str conversion (3.11+)


class UsageError(argparse.ArgumentTypeError):
    """Bad input: exit 2.  argparse reports it from a type= parser too."""


def _parse_int(text: str) -> int:
    """Integer, allowing scientific notation like 1e6, read exactly (not via float)."""
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal, InvalidOperation  # imported here: it slows start-up
    try:
        value = Decimal(text)
        if not value.is_finite() or value != value.to_integral_value():
            raise InvalidOperation
    except InvalidOperation:
        raise UsageError(f"not an integer: {text!r}") from None
    if value.adjusted() >= MAX_DIGITS:
        raise UsageError(f"more than {MAX_DIGITS} digits: {text[:20]!r}")
    return int(value)


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        if (value := _parse_int(text)) < minimum:
            raise UsageError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive lo..hi range."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"expected lo..hi, got {text!r}")
    lo, hi = _parse_int(lo), _parse_int(hi)
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


@contextlib.contextmanager
def _out(args):
    """The -o file or stdout.  Python's int <-> str digit limit (3.11+) is
    lifted while it is open, so integers print in full; input is read before."""
    if args.output and args.output != "-":
        try:
            stream = open(args.output, "w")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        stream = contextlib.nullcontext(sys.stdout)
    with stream as fh, unlimited_int_digits():
        yield fh


def cmd_table(args) -> int:
    scheme = get_scheme(args.scheme)
    lo, hi = _parse_range(args.range)
    rows = coefficient_table(scheme, lo, hi)
    with _out(args) as fh:
        if args.format == "json":
            json.dump([f.to_json_dict(s) for s, f in rows], fh, indent=2)
            fh.write("\n")
        elif args.format == "tsv":
            for s, f in rows:
                fh.write(f"{s}\t{f.value}\t{f}\n")
        else:
            width = max(len(str(s)) for s, _ in rows)
            for s, f in rows:
                fh.write(f"{s:>{width}}  {f}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    scheme = get_scheme(args.scheme)
    if args.condition == "C":
        bound = args.range if args.range is not None else 2000
        violation = condition_C_sweep(scheme, bound)
        if violation is None:
            print(f"C: pass (all |s|,|t| <= {bound}, scheme {scheme.scheme_id})")
            return EXIT_OK
        print(f"C: FAIL at (s, t) = {violation}")
        return EXIT_CHECK_FAILED
    if args.condition == "E":
        bound = args.range if args.range is not None else 300
        failures = condition_E_sweep(scheme, bound)
        if not failures:
            print(f"E: pass (all |s| <= {bound}, scheme {scheme.scheme_id})")
            return EXIT_OK
        print(f"E: FAIL at (s, p) = {failures[0]}")
        return EXIT_CHECK_FAILED
    # condition D
    if args.q is None:
        raise UsageError("verify D requires --q")
    family = solve_scheme(scheme, args.q)
    report = full_admissibility(family)
    primes = [p for p, _ in report.checked]
    if report.overall:
        print(f"D: pass for q={args.q}, checked primes {{{', '.join(map(str, primes))}}}")
        return EXIT_OK
    print(f"D: FAIL at p = {report.failing_primes()[0]}")
    return EXIT_CHECK_FAILED


def cmd_solve(args) -> int:
    scheme = get_scheme(args.scheme)
    family = solve_scheme(scheme, args.q)
    with _out(args) as fh:
        if args.format == "json":
            json.dump(family.to_json_dict(), fh, indent=2)
            fh.write("\n")
        else:
            fh.write(f"q = {family.q}\nbase = {family.base}\nmodulus = {family.modulus}\n")
            for s, xbar, step in family.progressions():
                fh.write(f"s={s:>3}  a={family.moduli[s]}  xbar={xbar}  step={step}\n")
    return EXIT_OK


def cmd_search(args) -> int:
    scheme = get_scheme(args.scheme)
    family = solve_scheme(scheme, args.q)
    k_lo, k_hi = _parse_range(args.k)
    with _out(args) as fh:
        witnesses = search_tuples(
            family,
            k_start=k_lo,
            k_count=k_hi - k_lo + 1,
            r_min=args.rmin,
            max_witnesses=args.max_witnesses,
            use_sieve=not args.no_sieve,
            extra_rounds=args.extra_rounds,
            workers=args.workers,
        )
        for w in witnesses:
            fh.write(json.dumps(w.to_json_dict(), sort_keys=True) + "\n")
        summary = {
            "witnesses": len(witnesses),
            "k_range": [str(k_lo), str(k_hi)],
            "q": family.q,
            "scheme": scheme.scheme_id,
        }
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return EXIT_OK


def _first_witness(text: str) -> dict:
    """A witness object from plain JSON or from a search JSONL stream."""
    try:
        data = json.loads(text)
        if isinstance(data, dict) and "values" in data:
            return data
    except json.JSONDecodeError:
        pass
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if isinstance(data, dict) and "values" in data:
            return data
    raise UsageError("no witness object found in input")


def cmd_galaxy(args) -> int:
    scheme = get_scheme(args.scheme)
    text = args.witness
    if args.witness_file:
        try:
            with open(args.witness_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read witness file: {exc}") from None
    try:
        witness = witness_from_json_dict(_first_witness(text))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise UsageError(f"malformed witness: {exc!r}") from None
    if 0 not in witness.values:
        raise UsageError("malformed witness: no value at s = 0")
    try:
        report = galaxy_report(scheme, witness)
    except ValueError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    with _out(args) as fh:
        if args.format == "json":
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        else:
            fh.write(report.render_text() + "\n")
    return EXIT_OK


def cmd_scheme_info(args) -> int:
    scheme = get_scheme(args.scheme)
    info = {
        "scheme": scheme.scheme_id,
        "anchors_n1": {str(p): str(scheme.anchor(p, 1)) for p in (2, 3, 5, 7, 11, 13)},
    }
    if scheme.scheme_id == "euler_prime":
        info["qnr_choices"] = [qnr_anchor(p).to_json_dict() for p in (3, 5, 7, 11, 13)]
    print(json.dumps(info, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorseq",
        description="Coefficient sequences, congruence solving, and prime tuple search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_choices=("text", "json")):
        p.add_argument("--scheme", default="default", choices=sorted(SCHEMES))
        p.add_argument("--format", default=fmt_choices[0], choices=fmt_choices)
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    p = sub.add_parser("table", help="coefficient table over an index range")
    add_common(p, ("text", "json", "tsv"))
    p.add_argument("--range", required=True, help="inclusive index range lo..hi")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="check condition C, E, or D")
    p.add_argument("condition", choices=["C", "E", "D"])
    p.add_argument("--scheme", default="default", choices=sorted(SCHEMES))
    p.add_argument("--range", type=_parse_int, default=None, help="index bound for C/E sweeps")
    p.add_argument("--q", type=_parse_int, default=None, help="range bound for D")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="solve the congruence system for range q")
    add_common(p)
    p.add_argument("--q", type=_parse_int, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("search", help="search shifts k for all-prime tuples")
    add_common(p, ("jsonl",))
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--k", required=True, help="inclusive shift range lo..hi (1e6 ok)")
    p.add_argument("--rmin", type=_parse_int, default=0, help="strict lower bound on entries")
    p.add_argument("--max-witnesses", type=_int_at_least(1), default=None)
    p.add_argument("--no-sieve", action="store_true")
    p.add_argument("--extra-rounds", type=_int_at_least(0), default=0)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("galaxy", help="factored galaxy report around a witness")
    add_common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--witness-file", help="JSON witness (as emitted by search)")
    g.add_argument("--witness", help="inline JSON witness")
    p.set_defaults(func=cmd_galaxy)

    p = sub.add_parser("scheme-info", help="describe a scheme's anchors")
    p.add_argument("--scheme", default="default", choices=sorted(SCHEMES))
    p.set_defaults(func=cmd_scheme_info)

    return parser


def _merge_range_values(argv: list[str]) -> list[str]:
    """Join `--range -3..3` into `--range=-3..3` so argparse does not
    mistake the negative bound for an option."""
    merged: list[str] = []
    for token in argv:
        if merged and merged[-1] in ("--range", "--k") and token.startswith("-"):
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_range_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InadmissibleFamily as exc:
        print(f"inadmissible family: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (Incompatible, SchemeError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
