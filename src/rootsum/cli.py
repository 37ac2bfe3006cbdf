"""Command-line front end.

Subcommands: eval (one sum), roots (enumerate roots of unity), check
(criterion vs. oracle for one case), scan (exhaustive range verification),
hunt (counterexamples for weakened criteria).  Output is plain text by
default; --format json/csv select machine formats.  A CSV row is a JSON
record's fields in order, with clause lists joined and check's nested
witness left out.

Machine output is deterministic: timing is excluded from JSON unless
--timing is given (CSV never carries it), so identical configs produce
byte-identical payloads regardless of worker count.

Exit codes: 0 success / clean scan; 1 scan found mismatches or lemma
failures; 2 usage error.  Inputs for n and moduli are capped at 2**31,
scan --jobs at MAX_JOBS = 64 worker processes, and roots at
MAX_ROOTS = 2**20 roots: the count is known from the factorization of n
before any root is built, and a larger count is a usage error.

Limits that are not capped: eval and check cost O(k + log n) in constant
memory (the closed form in derivsum.sum_direct), about 0.4 microseconds
per unit of k.  check --n 1000000 --k 200000 --alpha 1 and eval --n
2147483647 --k 3000 each take 0.16 s, interpreter start included, and
k = 2**22 takes 1.8 s, so a k near the 2**31 cap would take about 15
minutes (extrapolated, not run).  A sum with n <= k is empty and costs
nothing.  scan and hunt take time that grows with max_n and with
min(max_k, n - 1), not with max_k: every k >= n is an empty sum that
every criterion predicts vanishes, so it is settled by that argument,
not summed, and still counted in cases (scan --max-n 2 --max-k
2147483647 reports 4294967296 cases in 0.1 s on a 2-vCPU VM).  They
fold one n at a time, so their memory is what they report (mismatches,
lemma failures, hunt records) plus derivsum's memo of falling-factorial
rows: up to 256 rows of up to n entries each, per process, about 7 MB
near n = 1000 and about 0.9 GB near n = 10**5 (extrapolated, not run).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional

from .criterion import _root_count, explain, roots_of_unity
from .derivsum import SumQuery, sum_direct
from .harness import (
    _DROP_LABELS,
    MismatchRecord,
    ScanConfig,
    hunt_weakened,
    scan,
)

__all__ = ["main", "build_parsers", "UsageError", "MAX_INPUT", "MAX_JOBS", "MAX_ROOTS"]

MAX_INPUT = 2**31
MAX_JOBS = 64
MAX_ROOTS = 2**20

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _check_cap(name: str, value: int, minimum: int = 0) -> int:
    if value < minimum:
        raise UsageError(f"--{name} must be >= {minimum}, got {value}")
    if value > MAX_INPUT:
        raise UsageError(f"--{name} must be <= 2**31 = {MAX_INPUT}, got {value}")
    return value


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name.

    A subcommand's parser is the one the top-level parser hands the rest of
    argv to, so either route reads the same options.  Each sets its
    handler as the default ``run``.
    """
    parser = argparse.ArgumentParser(
        prog="rootsum",
        description=(
            "Evaluate and exhaustively verify the vanishing criterion for "
            "derivatives of 1 + t + ... + t^(n-1) at n-th roots of unity mod n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "csv", "plain"),
            default="plain",
            help="output format (default: plain)",
        )

    p_eval = sub.add_parser("eval", help="evaluate S(n, k, alpha) mod a modulus")
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--k", type=int, required=True)
    p_eval.add_argument("--alpha", type=int, required=True)
    p_eval.add_argument("--modulus", type=int, required=True)
    add_format(p_eval)
    p_eval.set_defaults(run=_cmd_eval)

    p_roots = sub.add_parser(
        "roots", help=f"enumerate n-th roots of unity mod n (at most {MAX_ROOTS} of them)"
    )
    p_roots.add_argument("--n", type=int, required=True)
    add_format(p_roots)
    p_roots.set_defaults(run=_cmd_roots)

    p_check = sub.add_parser("check", help="criterion vs. oracle for one (n, k, alpha)")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--k", type=int, required=True)
    p_check.add_argument("--alpha", type=int, required=True)
    add_format(p_check)
    p_check.set_defaults(run=_cmd_check)

    p_scan = sub.add_parser("scan", help="verify the criterion on a whole range")
    p_scan.add_argument("--max-n", type=int, required=True)
    p_scan.add_argument("--max-k", type=int, required=True)
    p_scan.add_argument(
        "--jobs", type=int, default=1, help=f"worker processes, at most {MAX_JOBS} (default 1)"
    )
    p_scan.add_argument(
        "--check-lemmas",
        action="store_true",
        help="also re-verify the supporting identities and congruences inline",
    )
    p_scan.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed_ms in JSON output (off by default so "
        "machine output is byte-stable)",
    )
    add_format(p_scan)
    p_scan.set_defaults(run=_cmd_scan)

    p_hunt = sub.add_parser("hunt", help="drop one hypothesis and hunt for counterexamples")
    p_hunt.add_argument(
        "--drop",
        choices=_DROP_LABELS,
        required=True,
        help="which hypothesis to weaken",
    )
    p_hunt.add_argument("--max-n", type=int, required=True)
    p_hunt.add_argument("--max-k", type=int, required=True)
    add_format(p_hunt)
    p_hunt.set_defaults(run=_cmd_hunt)

    return parser, sub.choices


def _json(value, indent: str) -> str:
    """value as json.dumps(value, indent=2) writes it, nested at indent.

    json.dumps takes the pure-Python encoder whenever indent is given, one
    generator step per item, and its nested closures leave cyclic garbage.
    Here containers are joined with str.join and every leaf is written by
    a C-level function, so a reply leaves nothing for the cyclic collector.
    A list of plain ints (a roots list) is one join over int.__repr__.
    Dict keys are strings.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = (
            f"{encode_basestring_ascii(key)}: {_json(item, inner)}" for key, item in value.items()
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = (_json(item, inner) for item in value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _emit(
    args,
    payload: dict,
    records: Callable[[], Iterable[dict]],
    lines: Callable[[], Iterable[str]],
    header: Optional[list[str]] = None,
) -> None:
    """Print the rendering that --format asks for, and build only that one.

    json prints payload as _json writes it: the same bytes as
    json.dumps(payload, indent=2), built with str.join and C-level scalar
    writers instead of the pure-Python encoder.  csv prints the JSON
    records that records() gives as a table: each row is a record's fields
    in order, with clause lists joined and nested dicts (check's witness)
    left out.  Its header is header, or the first record's own fields when
    header is None, which only a table that is never empty may use.  plain
    prints the lines that lines() gives.
    """
    if args.format == "json":
        print(_json(payload, ""))
    elif args.format == "csv":
        rows = [
            {key: "".join(value) if isinstance(value, list) else value
             for key, value in record.items() if not isinstance(value, dict)}
            for record in records()
        ]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header or rows[0].keys())
        writer.writerows(row.values() for row in rows)
    else:
        print(*lines(), sep="\n")


def _witness_text(witness: dict) -> str:
    q = witness["k_plus_1"]
    if "four_divides_n" in witness:
        tail = "4 | n" if witness["four_divides_n"] else "4 does not divide n"
        return f"k+1 = 4; {tail}"
    if "q" in witness:
        parts = [f"k+1 = {q} is prime"]
        parts.append(f"{q} | n" if witness["q_divides_n"] else f"{q} does not divide n")
        parts.append(
            f"alpha == 1 (mod {q})" if witness["alpha_is_one_mod_q"] else f"alpha != 1 (mod {q})"
        )
        return "; ".join(parts)
    return f"k+1 = {q} is neither 4 nor prime"


def _mismatch_dict(r: MismatchRecord) -> dict:
    # clauses as a list, which _emit joins into one CSV cell
    return dict(vars(r), clauses=list(r.clauses), agree=False)


_MISMATCH_HEADER = [*(f.name for f in fields(MismatchRecord)), "agree"]


def _mismatch_text(r: MismatchRecord, predicted: str) -> str:
    """One plain line of a mismatch table; predicted labels the verdict."""
    clauses = "".join(sorted(r.clauses)) or "-"
    return (
        f"n={r.n} k={r.k} alpha={r.alpha} {predicted}={r.predicted} "
        f"oracle_residue={r.oracle_residue} clauses={clauses}"
    )


def _cmd_eval(args) -> int:
    n = _check_cap("n", args.n, minimum=1)
    k = _check_cap("k", args.k)
    m = _check_cap("modulus", args.modulus, minimum=1)
    residue = sum_direct(SumQuery(n=n, k=k, alpha=args.alpha, modulus=m)).value
    record = {"n": n, "k": k, "alpha": args.alpha, "modulus": m, "residue": residue}
    _emit(
        args, record, lambda: [record], lambda: [f"S({n}, {k}, {args.alpha}) mod {m} = {residue}"]
    )
    return EXIT_OK


def _cmd_roots(args) -> int:
    n = _check_cap("n", args.n, minimum=1)
    count = _root_count(n)
    if count > MAX_ROOTS:
        raise UsageError(f"n = {n} has {count} roots of unity; roots lists at most {MAX_ROOTS}")
    rs = roots_of_unity(n)

    def plain() -> Iterator[str]:
        listing = " ".join(str(a) for a in rs)
        yield f"{len(rs)} roots of unity modulo {n}: {listing}"

    payload = {"n": n, "count": len(rs), "roots": rs}
    _emit(args, payload, lambda: ({"alpha": a} for a in rs), plain, ["alpha"])
    return EXIT_OK


def _cmd_check(args) -> int:
    n = _check_cap("n", args.n, minimum=1)
    k = _check_cap("k", args.k)
    e = explain(n, k, args.alpha)
    v = e.verdict
    record = {
        "n": e.n,
        "k": e.k,
        "alpha": e.alpha,
        "predicted": v.vanishes_predicted,
        "clauses": sorted(v.clauses),
        "witness": v.witness,
        "oracle_residue": e.oracle_residue,
        "hypothesis_ok": e.hypothesis_ok,
        "agree": e.agree,
    }

    def plain() -> Iterator[str]:
        yield f"S({n}, {k}, {args.alpha}) mod {n} = {e.oracle_residue}"
        status = "holds" if e.hypothesis_ok else "VIOLATED (criterion makes no claim)"
        yield f"hypothesis alpha^n == 1 (mod n): {status}"
        label = "vanishes" if v.vanishes_predicted else "does not vanish"
        clauses = "{" + ", ".join(record["clauses"]) + "}"
        yield f"predicted: {label}; clauses: {clauses}"
        yield f"witness: {_witness_text(v.witness)}"
        yield f"prediction agrees with oracle: {'yes' if e.agree else 'NO'}"

    _emit(args, record, lambda: [record], plain)
    return EXIT_OK


def _cmd_scan(args) -> int:
    max_n = _check_cap("max-n", args.max_n, minimum=1)
    max_k = _check_cap("max-k", args.max_k)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > MAX_JOBS:
        raise UsageError(f"--jobs must be <= {MAX_JOBS}, got {args.jobs}")
    cfg = ScanConfig(
        max_n=max_n, max_k=max_k, parallelism=args.jobs, check_lemmas=args.check_lemmas
    )
    report = scan(cfg)
    payload = {
        "cases": report.cases_checked,
        "roots": report.roots_enumerated,
        "mismatches": [_mismatch_dict(r) for r in report.mismatches],
        "lemma_failures": list(report.lemma_failures),
    }
    if args.timing:
        payload["elapsed_ms"] = round(report.elapsed_seconds * 1000)

    def plain() -> Iterator[str]:
        yield f"scan: max_n={max_n} max_k={max_k} jobs={args.jobs}"
        yield f"cases checked: {report.cases_checked} ({report.roots_enumerated} roots enumerated)"
        for r in report.mismatches:
            yield "MISMATCH " + _mismatch_text(r, "predicted")
        for f in report.lemma_failures:
            yield f"LEMMA FAILURE: {f}"
        yield f"mismatches: {len(report.mismatches)}  lemma failures: {len(report.lemma_failures)}"
        yield f"elapsed: {report.elapsed_seconds:.2f} s"
        if report.clean:
            yield "ok: prediction matched the oracle on every case"

    _emit(args, payload, lambda: payload["mismatches"], plain, _MISMATCH_HEADER)
    return EXIT_OK if report.clean else EXIT_MISMATCH


def _cmd_hunt(args) -> int:
    max_n = _check_cap("max-n", args.max_n, minimum=1)
    max_k = _check_cap("max-k", args.max_k)
    found = hunt_weakened(max_n, max_k, args.drop)
    payload = {"drop": args.drop, "records": [_mismatch_dict(r) for r in found]}

    def plain() -> Iterator[str]:
        yield f"hunt: drop={args.drop} max_n={max_n} max_k={max_k}"
        for r in found:
            yield _mismatch_text(r, "weakened_predicted")
        yield f"{len(found)} case(s) where the weakened criterion fails"

    _emit(args, payload, lambda: payload["records"], plain, _MISMATCH_HEADER)
    return EXIT_OK


# built on the first call to main and reused: parsing leaves them unchanged.
# When argv starts with a subcommand, main parses the rest of argv with that
# subcommand's parser alone.  The top-level parser runs only when argv does
# not start with a subcommand, or when the subcommand's parser leaves
# arguments over; it then prints the help or usage error it always did
# ("rootsum: error: unrecognized arguments: ...").
_parsers: Optional[tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parsers
    if _parsers is None:
        _parsers = build_parsers()
    parser, commands = _parsers
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, None)
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
