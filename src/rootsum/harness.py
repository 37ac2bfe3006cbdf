"""Exhaustive verification harness.

scan() walks every (n, root of unity alpha, k) triple in a range and
compares the clause criterion against the direct-summation oracle; a clean
report is an exhaustive confirmation of the criterion on that range.
hunt_weakened() does the same with one clause hypothesis deliberately
dropped, to surface the cases proving the hypothesis necessary.  bench()
times the fast criterion against full summation.

Both scan() and hunt_weakened() run one per-n unit, _scan_unit(): it
enumerates the roots of unity mod n once and checks every k against each
root.  Units are independent, so scan() can spread them over worker
processes and the merged report is identical regardless of worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Collection, Optional

from .criterion import predict_vanishing, roots_of_unity
from .derivsum import (
    CongruenceReport,
    SumQuery,
    _sum_mod,
    closed_form_congruence,
    leibnitz_identity_check,
    sum_by_crt,
    sum_direct,
)
from .falling import falling_mod, falling_sum, valuation_bounds
from .numtheory import _valuation_of_int, factorize

__all__ = [
    "DROP_CLAUSE_B",
    "DROP_CLAUSE_C_ALPHA",
    "DROP_NONE",
    "ScanConfig",
    "MismatchRecord",
    "ScanReport",
    "BenchReport",
    "scan",
    "hunt_weakened",
    "bench",
]

DROP_CLAUSE_C_ALPHA = "clause-c-alpha"
DROP_CLAUSE_B = "clause-b"
DROP_NONE = "none"

_DROP_LABELS = (DROP_CLAUSE_C_ALPHA, DROP_CLAUSE_B, DROP_NONE)


@dataclass(frozen=True)
class ScanConfig:
    max_n: int
    max_k: int
    parallelism: int = 1
    check_lemmas: bool = False

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")
        if self.max_k < 0:
            raise ValueError(f"max_k must be >= 0, got {self.max_k}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass(frozen=True)
class MismatchRecord:
    """A case where prediction and oracle disagree."""

    n: int
    k: int
    alpha: int
    clauses: tuple[str, ...]
    predicted: bool
    oracle_residue: int


@dataclass
class ScanReport:
    cases_checked: int
    roots_enumerated: int
    mismatches: list[MismatchRecord]
    lemma_failures: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.lemma_failures


@dataclass(frozen=True)
class BenchReport:
    """Per-call mean wall time of the three evaluation routes."""

    n: int
    k: int
    alpha: int
    repetitions: int
    direct_mean_s: float
    crt_mean_s: float
    predict_mean_s: float


def _lemma_checks(n: int, max_k: int) -> list[str]:
    """Inline re-verification of the supporting facts at a single n.

    Covers the valuation case analysis of (n-1)-falling-k over k+1, the
    telescoping sum identity in multiplied form, the near-unity congruence
    for every prime p | n, and a few Leibnitz closed-form probes.  Returns
    human-readable failure strings; an empty list means all checks passed.

    The near-unity report depends on alpha only through alpha mod p^(l+e),
    with l = nu_p(n) and e = nu_p(k+1), since the sum is evaluated mod that
    power.  It is therefore computed once per residue class for each (p, k)
    and reused for every other alpha in the class; failures are still
    reported once per alpha, in ascending alpha order.
    """
    failures: list[str] = []

    for k in range(1, max_k + 1):
        for p, _ in factorize(k + 1):
            vb = valuation_bounds(n, k, p)
            if vb.case == "a" and not vb.v >= vb.e:
                failures.append(f"valuation case a: n={n} k={k} p={p} v={vb.v} < e={vb.e}")
            if vb.case == "b":
                if not vb.v >= vb.e - 1:
                    failures.append(
                        f"valuation case b: n={n} k={k} p={p} v={vb.v} < e-1={vb.e - 1}"
                    )
                if vb.v == vb.e - 1 and n % p != 0:
                    failures.append(
                        f"valuation case b equality without p | n: n={n} k={k} p={p}"
                    )
            expect_negative = k + 1 in (4, p) and n % (k + 1) == 0
            if vb.fraction_negative != expect_negative:
                failures.append(
                    f"negative-fraction characterization: n={n} k={k} p={p} "
                    f"got {vb.fraction_negative}, expected {expect_negative}"
                )
            if vb.fraction_negative and vb.v - vb.e != -1:
                failures.append(
                    f"negative fraction deficit not -1: n={n} k={k} p={p} v-e={vb.v - vb.e}"
                )

    for k in range(max_k + 1):
        lhs = (k + 1) * falling_sum(0, n, k, n).value % n
        rhs = (falling_mod(n, k + 1, n).value - falling_mod(0, k + 1, n).value) % n
        if lhs != rhs:
            failures.append(f"telescoping sum identity: n={n} k={k} lhs={lhs} rhs={rhs}")

    for p, ell in factorize(n):
        for k in range(max_k + 1):
            m = p ** (ell + _valuation_of_int(k + 1, p))
            reports: dict[int, CongruenceReport] = {}
            for alpha in range(1, n, p):
                report = reports.get(alpha % m)
                if report is None:
                    report = reports[alpha % m] = closed_form_congruence(n, k, alpha, p)
                if not report.congruent:
                    failures.append(
                        f"near-unity congruence: n={n} k={k} p={p} alpha={alpha} "
                        f"lhs={report.lhs_times_kp1.value} rhs={report.rhs_times_kp1.value}"
                    )

    for k in range(min(max_k, 6) + 1):
        for t in (0, 2, n - 2):
            if t < 0 or math.gcd(1 - t, n) != 1:
                continue
            if not leibnitz_identity_check(n, k, t, n):
                failures.append(f"leibnitz closed form: n={n} k={k} t={t}")

    return failures


def _scan_unit(
    n: int, max_k: int, drop: str, check_lemmas: bool
) -> tuple[int, list[MismatchRecord], list[str]]:
    """Root count, criterion/oracle disagreements and lemma failures at one n.

    drop selects the criterion as in hunt_weakened; DROP_NONE is the full one.
    Every clause, weakened or not, reads alpha only through alpha mod (k+1),
    so each verdict is decided once per (k, alpha mod (k+1)).
    """
    roots = roots_of_unity(n)
    mismatches: list[MismatchRecord] = []
    for k in range(max_k + 1):
        verdicts: dict[int, tuple[bool, Collection[str]]] = {}
        for alpha in roots:
            verdict = verdicts.get(alpha % (k + 1))
            if verdict is None:
                verdict = verdicts[alpha % (k + 1)] = _weakened_clauses(n, k, alpha, drop)
            predicted, clauses = verdict
            residue = _sum_mod(n, k, alpha, n)
            if predicted != (residue == 0):
                mismatches.append(
                    MismatchRecord(
                        n=n,
                        k=k,
                        alpha=alpha,
                        clauses=tuple(sorted(clauses)),
                        predicted=predicted,
                        oracle_residue=residue,
                    )
                )
    failures = _lemma_checks(n, max_k) if check_lemmas else []
    return len(roots), mismatches, failures


def scan(cfg: ScanConfig) -> ScanReport:
    """Compare criterion and oracle on every triple up to (max_n, max_k).

    The report content is deterministic for a fixed config regardless of
    parallelism, and mismatches come in (n, k, alpha) order: units are
    merged in n order (Pool.starmap keeps its input order), and each unit
    emits k outermost and roots ascending.  Mismatches are data, not errors.
    """
    t0 = time.perf_counter()
    args = [(n, cfg.max_k, DROP_NONE, cfg.check_lemmas) for n in range(1, cfg.max_n + 1)]
    if cfg.parallelism == 1:
        units = [_scan_unit(*a) for a in args]
    else:
        chunk = max(1, len(args) // (cfg.parallelism * 8))
        with multiprocessing.Pool(cfg.parallelism) as pool:
            units = pool.starmap(_scan_unit, args, chunksize=chunk)
    mismatches: list[MismatchRecord] = []
    lemma_failures: list[str] = []
    roots_total = 0
    for n_roots, unit_mismatches, unit_failures in units:
        roots_total += n_roots
        mismatches.extend(unit_mismatches)
        lemma_failures.extend(unit_failures)
    return ScanReport(
        cases_checked=roots_total * (cfg.max_k + 1),
        roots_enumerated=roots_total,
        mismatches=mismatches,
        lemma_failures=lemma_failures,
        elapsed_seconds=time.perf_counter() - t0,
    )


def _weakened_clauses(n: int, k: int, alpha: int, drop: str) -> tuple[bool, Collection[str]]:
    verdict = predict_vanishing(n, k, alpha)
    clauses: Collection[str] = verdict.clauses
    witness = verdict.witness
    if drop == DROP_CLAUSE_C_ALPHA and "q" in witness:
        # clause c loses its alpha escape hatch: it fires only when q does
        # not divide n
        clauses = () if witness["q_divides_n"] else ("c",)
    elif drop == DROP_CLAUSE_B and "four_divides_n" in witness:
        # clause b loses the 4-does-not-divide-n condition: it fires for
        # every n once k+1 = 4
        clauses = ("b",)
    return bool(clauses), clauses


def hunt_weakened(max_n: int, max_k: int, drop: Optional[str]) -> list[MismatchRecord]:
    """Scan for disagreements after dropping one clause hypothesis.

    drop is "clause-c-alpha" (clause c keeps only its divisibility
    disjunct), "clause-b" (clause b fires for every n), or "none"/None
    (full criterion; over root-of-unity inputs this finds nothing).  Every
    record returned is a case where the weakened criterion gets the oracle
    wrong, demonstrating that the dropped hypothesis carries weight.
    Records come in (n, k, alpha) order, as units run in n order and each
    emits k outermost and roots ascending.
    """
    if drop is None:
        drop = DROP_NONE
    if drop not in _DROP_LABELS:
        raise ValueError(f"unknown drop label {drop!r}; expected one of {_DROP_LABELS}")
    if max_n < 0 or max_k < 0:
        raise ValueError("hunt_weakened requires max_n >= 0 and max_k >= 0")
    records: list[MismatchRecord] = []
    for n in range(1, max_n + 1):
        records.extend(_scan_unit(n, max_k, drop, False)[1])
    return records


def bench(n: int, k: int, repetitions: int, alpha: Optional[int] = None) -> BenchReport:
    """Mean per-call wall time of sum_direct, sum_by_crt and the criterion.

    alpha defaults to n-1; the cost of every route is independent of which
    alpha is chosen.  One warm-up call per route runs first so cached
    falling-factorial rows do not skew the comparison.
    """
    if n < 1 or k < 0 or repetitions < 1:
        raise ValueError("bench requires n >= 1, k >= 0, repetitions >= 1")
    if alpha is None:
        alpha = n - 1 if n > 1 else 0
    query = SumQuery(n=n, k=k, alpha=alpha, modulus=n)

    def mean(fn) -> float:
        fn()
        t0 = time.perf_counter()
        for _ in range(repetitions):
            fn()
        return (time.perf_counter() - t0) / repetitions

    direct = mean(lambda: sum_direct(query))
    crt = mean(lambda: sum_by_crt(n, k, alpha))
    predict = mean(lambda: predict_vanishing(n, k, alpha))
    return BenchReport(
        n=n,
        k=k,
        alpha=alpha,
        repetitions=repetitions,
        direct_mean_s=direct,
        crt_mean_s=crt,
        predict_mean_s=predict,
    )
