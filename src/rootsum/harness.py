"""Exhaustive verification harness.

scan() walks every (n, root of unity alpha, k) triple in a range and
compares the clause criterion against the direct-summation oracle; a clean
report is an exhaustive confirmation of the criterion on that range.
hunt_weakened() does the same with one clause hypothesis deliberately
dropped, to surface the cases proving the hypothesis necessary.

Both scan() and hunt_weakened() run one per-n unit, _scan_unit(): it
enumerates the roots of unity mod n once and checks every k against each
root.  One generator, _units(), runs the units for n = 1..max_n and yields
them in n order, and both callers fold them into their output as they
arrive, so no unit is held after it is folded: memory is what is
reported plus the memo of falling-factorial rows, up to 256 rows of up
to n entries each per process (derivsum._falling_row).  Units are
independent, so scan() can spread them over worker processes and the
report is identical regardless of worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Collection, Iterator

from .criterion import predict_vanishing, roots_of_unity
from .derivsum import (
    _falling_row,
    _horner,
    _near_unity_sides,
    leibnitz_identity_check,
)
from .falling import valuation_bounds
from .numtheory import factorize

__all__ = [
    "DROP_CLAUSE_B",
    "DROP_CLAUSE_C_ALPHA",
    "DROP_NONE",
    "ScanConfig",
    "MismatchRecord",
    "ScanReport",
    "scan",
    "hunt_weakened",
]

DROP_CLAUSE_C_ALPHA = "clause-c-alpha"
DROP_CLAUSE_B = "clause-b"
DROP_NONE = "none"

_DROP_LABELS = (DROP_CLAUSE_C_ALPHA, DROP_CLAUSE_B, DROP_NONE)

# values of n per Pool.imap task: imap builds each task as a tuple of this
# many arguments, so a fixed size keeps every task small whatever max_n is
_CHUNK = 16


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


def _lemma_checks(n: int, max_k: int) -> list[str]:
    """Inline re-verification of the supporting facts at a single n.

    Covers the valuation case analysis of (n-1)-falling-k over k+1, the
    telescoping sum identity in multiplied form, the near-unity congruence
    for every prime p | n, and a few Leibnitz closed-form probes.  Returns
    human-readable failure strings, section by section in that order; an
    empty list means all checks passed.

    The last three sections run in one ascending pass over k, and each
    reads the scan's own memoized row of i-falling-k mod n, the one its
    direct sums read, so they check those entries rather than a second
    computation of them; right after _scan_unit the rows up to k = 255 are
    still warm.  The telescoping identity's right side,
    n-falling-(k+1) - 0-falling-(k+1), is 0 mod n for every n and k, so
    (k+1) times the row sum is compared with 0.

    The near-unity congruence covers every alpha == 1 (mod p) below n.  With
    q = p^l, l = nu_p(n), e = nu_p(k+1) and m = p^(l+e), both of its sides
    mod m depend on alpha only through alpha mod q, since k+1 = p^e * u
    makes (k+1) * S mod m a function of S mod q.  q divides n, so those
    classes are exactly range(1, q, p).  For each (p, k) the modulus, the
    Taylor coefficients of (k+1) * S(n, k, 1 + y) mod m and the right side
    are taken once from _near_unity_sides, the computation
    closed_form_congruence makes: the row mod n reduced mod q, folded onto
    one block of q, and l synthetic divisions by x - 1.  Each class c is
    then checked by its own Horner pass at y = c - 1 over at most l
    coefficients, not over n terms.  A failing class is reported once per
    alpha in it, in ascending alpha order.
    """
    valuation: list[str] = []
    for k in range(1, max_k + 1):
        for p, _ in factorize(k + 1):
            vb = valuation_bounds(n, k, p)
            if vb.case == "a" and not vb.v >= vb.e:
                valuation.append(f"valuation case a: n={n} k={k} p={p} v={vb.v} < e={vb.e}")
            if vb.case == "b":
                if not vb.v >= vb.e - 1:
                    valuation.append(
                        f"valuation case b: n={n} k={k} p={p} v={vb.v} < e-1={vb.e - 1}"
                    )
                if vb.v == vb.e - 1 and n % p != 0:
                    valuation.append(
                        f"valuation case b equality without p | n: n={n} k={k} p={p}"
                    )
            expect_negative = k + 1 in (4, p) and n % (k + 1) == 0
            if vb.fraction_negative != expect_negative:
                valuation.append(
                    f"negative-fraction characterization: n={n} k={k} p={p} "
                    f"got {vb.fraction_negative}, expected {expect_negative}"
                )
            if vb.fraction_negative and vb.v - vb.e != -1:
                valuation.append(
                    f"negative fraction deficit not -1: n={n} k={k} p={p} v-e={vb.v - vb.e}"
                )

    parts = [(p, p**ell) for p, ell in factorize(n)]
    telescoping: list[str] = []
    near_unity: dict[int, list[str]] = {p: [] for p, _ in parts}
    leibnitz: list[str] = []
    # at n = 2 and n = 4, n - 2 repeats a probe
    probes = [t for t in dict.fromkeys((0, 2, n - 2)) if t >= 0 and math.gcd(1 - t, n) == 1]
    for k in range(max_k + 1):
        row = _falling_row(n, k, n)
        # the right side n-falling-(k+1) - 0-falling-(k+1) is 0 mod n: the
        # first product has the factor n, the second crosses zero
        lhs = (k + 1) * sum(row) % n
        if lhs != 0:
            telescoping.append(f"telescoping sum identity: n={n} k={k} lhs={lhs} rhs=0")

        for p, q in parts:
            m, coeffs, rhs = _near_unity_sides(n, k, p, row)
            bad: list[tuple[int, int]] = []
            for c in range(1, q, p):
                lhs = _horner(coeffs, c - 1, m)
                if lhs != rhs:
                    bad.extend((alpha, lhs) for alpha in range(c, n, q))
            near_unity[p].extend(
                f"near-unity congruence: n={n} k={k} p={p} alpha={alpha} lhs={lhs} rhs={rhs}"
                for alpha, lhs in sorted(bad)
            )

        if k <= 6:
            leibnitz.extend(
                f"leibnitz closed form: n={n} k={k} t={t}"
                for t in probes
                if not leibnitz_identity_check(n, k, t, n)
            )

    return [*valuation, *telescoping, *chain.from_iterable(near_unity.values()), *leibnitz]


def _scan_unit(
    n: int, max_k: int, drop: str, check_lemmas: bool
) -> tuple[int, list[MismatchRecord], list[str]]:
    """Root count, criterion/oracle disagreements and lemma failures at one n.

    drop selects the criterion as in hunt_weakened; DROP_NONE is the full one.
    Every clause, weakened or not, reads alpha only through alpha mod (k+1),
    so each verdict is decided once per (k, alpha mod (k+1)).

    Every k >= n is settled by argument and neither summed nor checked: the
    sum is empty, so it is 0, and every criterion, full or weakened,
    predicts vanishing (k+1 = 4 > n cannot divide n, nor can a prime
    k+1 > n).  Each lemma check is vacuous there too: the valuation of
    (n-1)-falling-k is infinite, the telescoping row and the near-unity
    coefficients are empty with (n-1)-falling-k = 0, and both Leibnitz
    sides are 0.  So the loops stop at k = min(max_k, n - 1), while scan
    still counts those cases in cases_checked.
    """
    top = min(max_k, n - 1)
    roots = roots_of_unity(n)
    mismatches: list[MismatchRecord] = []
    for k in range(top + 1):
        row = _falling_row(n, k, n)
        verdicts: dict[int, tuple[bool, Collection[str]]] = {}
        for alpha in roots:
            verdict = verdicts.get(alpha % (k + 1))
            if verdict is None:
                verdict = verdicts[alpha % (k + 1)] = _weakened_clauses(n, k, alpha, drop)
            predicted, clauses = verdict
            residue = _horner(row, alpha, n)
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
    failures = _lemma_checks(n, top) if check_lemmas else []
    return len(roots), mismatches, failures


def _units(
    max_n: int, max_k: int, drop: str, check_lemmas: bool, jobs: int
) -> Iterator[tuple[int, list[MismatchRecord], list[str]]]:
    """_scan_unit(n, max_k, drop, check_lemmas) for n = 1..max_n, in n order.

    One job runs the units here, one at a time.  More jobs hand them to a
    process pool in tasks of _CHUNK values of n.  Pool.imap keeps input
    order, and it builds tasks only as far ahead as its pipe to the workers
    holds, so neither the arguments nor the results of the whole range are
    ever held at once.
    """
    unit = partial(_scan_unit, max_k=max_k, drop=drop, check_lemmas=check_lemmas)
    if jobs == 1:
        yield from map(unit, range(1, max_n + 1))
    else:
        import multiprocessing  # 10 ms of import, paid only by a parallel scan

        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(unit, range(1, max_n + 1), chunksize=_CHUNK)


def scan(cfg: ScanConfig) -> ScanReport:
    """Compare criterion and oracle on every triple up to (max_n, max_k).

    The report content is deterministic for a fixed config regardless of
    parallelism, and mismatches come in (n, k, alpha) order: _units yields
    the per-n units in n order, and each unit emits k outermost and roots
    ascending.  Units are folded into the report as they arrive, so no unit
    is held after it is folded.  Mismatches are data, not errors.
    """
    t0 = time.perf_counter()
    report = ScanReport(cases_checked=0, roots_enumerated=0, mismatches=[])
    units = _units(cfg.max_n, cfg.max_k, DROP_NONE, cfg.check_lemmas, cfg.parallelism)
    for n_roots, unit_mismatches, unit_failures in units:
        report.roots_enumerated += n_roots
        report.mismatches.extend(unit_mismatches)
        report.lemma_failures.extend(unit_failures)
    report.cases_checked = report.roots_enumerated * (cfg.max_k + 1)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


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


def hunt_weakened(max_n: int, max_k: int, drop: str) -> list[MismatchRecord]:
    """Scan for disagreements after dropping one clause hypothesis.

    drop is "clause-c-alpha" (clause c keeps only its divisibility
    disjunct), "clause-b" (clause b fires for every n), or "none" (full
    criterion; over root-of-unity inputs this finds nothing).  Every
    record returned is a case where the weakened criterion gets the oracle
    wrong, demonstrating that the dropped hypothesis carries weight.
    Records come in (n, k, alpha) order, as units run in n order and each
    emits k outermost and roots ascending.
    """
    if drop not in _DROP_LABELS:
        raise ValueError(f"unknown drop label {drop!r}; expected one of {_DROP_LABELS}")
    if max_n < 0 or max_k < 0:
        raise ValueError("hunt_weakened requires max_n >= 0 and max_k >= 0")
    return [r for _, unit, _ in _units(max_n, max_k, drop, False, 1) for r in unit]
