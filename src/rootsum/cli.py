"""Command-line front end.

Subcommands: eval (one sum), roots (enumerate roots of unity), check
(criterion vs. oracle for one case), scan (exhaustive range verification),
hunt (counterexamples for weakened criteria).  Output is plain text by
default; --format json/csv select machine formats.

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
nothing.  scan and hunt take time that grows with the range they are
given, and memory that grows with what they report (mismatches, lemma
failures, hunt records), not with the range: they fold one n at a time.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Optional

from .criterion import Explanation, _root_count, explain, roots_of_unity
from .derivsum import SumQuery, sum_direct
from .harness import (
    DROP_CLAUSE_B,
    DROP_CLAUSE_C_ALPHA,
    DROP_NONE,
    MismatchRecord,
    ScanConfig,
    ScanReport,
    hunt_weakened,
    scan,
)

__all__ = ["main", "build_parser", "UsageError", "MAX_INPUT", "MAX_JOBS", "MAX_ROOTS"]

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


def build_parser() -> argparse.ArgumentParser:
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

    p_roots = sub.add_parser(
        "roots", help=f"enumerate n-th roots of unity mod n (at most {MAX_ROOTS} of them)"
    )
    p_roots.add_argument("--n", type=int, required=True)
    add_format(p_roots)

    p_check = sub.add_parser("check", help="criterion vs. oracle for one (n, k, alpha)")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--k", type=int, required=True)
    p_check.add_argument("--alpha", type=int, required=True)
    add_format(p_check)

    p_scan = sub.add_parser("scan", help="verify the criterion on a whole range")
    p_scan.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_scan.add_argument("--max-k", type=int, required=True, dest="max_k")
    p_scan.add_argument(
        "--jobs", type=int, default=1, help=f"worker processes, at most {MAX_JOBS} (default 1)"
    )
    p_scan.add_argument(
        "--check-lemmas",
        action="store_true",
        dest="check_lemmas",
        help="also re-verify the supporting identities and congruences inline",
    )
    p_scan.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed_ms in JSON output (off by default so "
        "machine output is byte-stable)",
    )
    add_format(p_scan)

    p_hunt = sub.add_parser("hunt", help="drop one hypothesis and hunt for counterexamples")
    p_hunt.add_argument(
        "--drop",
        choices=(DROP_CLAUSE_C_ALPHA, DROP_CLAUSE_B, DROP_NONE),
        required=True,
        help="which hypothesis to weaken",
    )
    p_hunt.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_hunt.add_argument("--max-k", type=int, required=True, dest="max_k")
    add_format(p_hunt)

    return parser


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _clauses_field(clauses) -> str:
    return "".join(sorted(clauses))


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


def _explain_dict(e: Explanation) -> dict:
    return {
        "n": e.n,
        "k": e.k,
        "alpha": e.alpha,
        "predicted": e.verdict.vanishes_predicted,
        "clauses": sorted(e.verdict.clauses),
        "witness": e.verdict.witness,
        "oracle_residue": e.oracle_residue,
        "hypothesis_ok": e.hypothesis_ok,
        "agree": e.agree,
    }


def _mismatch_dict(r: MismatchRecord) -> dict:
    return {
        "n": r.n,
        "k": r.k,
        "alpha": r.alpha,
        "clauses": list(r.clauses),
        "predicted": r.predicted,
        "oracle_residue": r.oracle_residue,
        "agree": False,
    }


def _mismatch_row(r: MismatchRecord) -> list:
    return [r.n, r.k, r.alpha, _clauses_field(r.clauses), r.predicted, r.oracle_residue, False]


_MISMATCH_HEADER = ["n", "k", "alpha", "clauses", "predicted", "oracle_residue", "agree"]


def _cmd_eval(args) -> int:
    n = _check_cap("n", args.n, minimum=1)
    k = _check_cap("k", args.k)
    m = _check_cap("modulus", args.modulus, minimum=1)
    residue = sum_direct(SumQuery(n=n, k=k, alpha=args.alpha, modulus=m)).value
    if args.format == "json":
        _emit_json({"n": n, "k": k, "alpha": args.alpha, "modulus": m, "residue": residue})
    elif args.format == "csv":
        _emit_csv(["n", "k", "alpha", "modulus", "residue"], [[n, k, args.alpha, m, residue]])
    else:
        print(f"S({n}, {k}, {args.alpha}) mod {m} = {residue}")
    return EXIT_OK


def _cmd_roots(args) -> int:
    n = _check_cap("n", args.n, minimum=1)
    count = _root_count(n)
    if count > MAX_ROOTS:
        raise UsageError(f"n = {n} has {count} roots of unity; roots lists at most {MAX_ROOTS}")
    rs = roots_of_unity(n)
    if args.format == "json":
        _emit_json({"n": n, "count": len(rs), "roots": list(rs)})
    elif args.format == "csv":
        _emit_csv(["alpha"], [[a] for a in rs])
    else:
        listing = " ".join(str(a) for a in rs)
        print(f"{len(rs)} roots of unity modulo {n}: {listing}")
    return EXIT_OK


def _cmd_check(args) -> int:
    n = _check_cap("n", args.n, minimum=1)
    k = _check_cap("k", args.k)
    e = explain(n, k, args.alpha)
    if args.format == "json":
        _emit_json(_explain_dict(e))
    elif args.format == "csv":
        _emit_csv(
            ["n", "k", "alpha", "predicted", "clauses", "oracle_residue", "hypothesis_ok", "agree"],
            [[e.n, e.k, e.alpha, e.verdict.vanishes_predicted, _clauses_field(e.verdict.clauses),
              e.oracle_residue, e.hypothesis_ok, e.agree]],
        )
    else:
        v = e.verdict
        print(f"S({n}, {k}, {args.alpha}) mod {n} = {e.oracle_residue}")
        status = "holds" if e.hypothesis_ok else "VIOLATED (criterion makes no claim)"
        print(f"hypothesis alpha^n == 1 (mod n): {status}")
        label = "vanishes" if v.vanishes_predicted else "does not vanish"
        clauses = "{" + ", ".join(sorted(v.clauses)) + "}"
        print(f"predicted: {label}; clauses: {clauses}")
        print(f"witness: {_witness_text(v.witness)}")
        print(f"prediction agrees with oracle: {'yes' if e.agree else 'NO'}")
    return EXIT_OK


def _scan_dict(report: ScanReport, timing: bool) -> dict:
    out = {
        "cases": report.cases_checked,
        "roots": report.roots_enumerated,
        "mismatches": [_mismatch_dict(r) for r in report.mismatches],
        "lemma_failures": list(report.lemma_failures),
    }
    if timing:
        out["elapsed_ms"] = round(report.elapsed_seconds * 1000)
    return out


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
    if args.format == "json":
        _emit_json(_scan_dict(report, args.timing))
    elif args.format == "csv":
        _emit_csv(_MISMATCH_HEADER, [_mismatch_row(r) for r in report.mismatches])
    else:
        print(f"scan: max_n={max_n} max_k={max_k} jobs={args.jobs}")
        print(f"cases checked: {report.cases_checked} ({report.roots_enumerated} roots enumerated)")
        for r in report.mismatches:
            print(
                f"MISMATCH n={r.n} k={r.k} alpha={r.alpha} predicted={r.predicted} "
                f"oracle_residue={r.oracle_residue} clauses={_clauses_field(r.clauses) or '-'}"
            )
        for f in report.lemma_failures:
            print(f"LEMMA FAILURE: {f}")
        print(f"mismatches: {len(report.mismatches)}  lemma failures: {len(report.lemma_failures)}")
        print(f"elapsed: {report.elapsed_seconds:.2f} s")
        if report.clean:
            print("ok: prediction matched the oracle on every case")
    return EXIT_OK if report.clean else EXIT_MISMATCH


def _cmd_hunt(args) -> int:
    max_n = _check_cap("max-n", args.max_n, minimum=1)
    max_k = _check_cap("max-k", args.max_k)
    records = hunt_weakened(max_n, max_k, args.drop)
    if args.format == "json":
        _emit_json(
            {"drop": args.drop, "records": [_mismatch_dict(r) for r in records]}
        )
    elif args.format == "csv":
        _emit_csv(_MISMATCH_HEADER, [_mismatch_row(r) for r in records])
    else:
        print(f"hunt: drop={args.drop} max_n={max_n} max_k={max_k}")
        for r in records:
            print(
                f"n={r.n} k={r.k} alpha={r.alpha} weakened_predicted={r.predicted} "
                f"oracle_residue={r.oracle_residue} clauses={_clauses_field(r.clauses) or '-'}"
            )
        print(f"{len(records)} case(s) where the weakened criterion fails")
    return EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "roots": _cmd_roots,
    "check": _cmd_check,
    "scan": _cmd_scan,
    "hunt": _cmd_hunt,
}


# built on the first call to main and reused: parse_args leaves it unchanged
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
