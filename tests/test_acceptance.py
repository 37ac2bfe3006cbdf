"""Acceptance suite: one test per shipping criterion, exact tolerances.

Every criterion here is exact (integer equality / empty mismatch lists);
the only non-integer threshold is the scan wall-clock budget.  Each test
prints one [PASS]/[FAIL] line; run with `pytest -s` to see them.

The two largest sweeps (the near-unity congruence and chinese-remainder
consistency over every alpha) evaluate the sums with an independent
vectorized direct-summation engine and additionally push a random
subsample through the public library operations, so the fast paths are
exercised, not assumed.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from rootsum import (
    ScanConfig,
    SumQuery,
    closed_form_congruence,
    factorize,
    falling_sum,
    integrality_check,
    legendre,
    leibnitz_identity_check,
    roots_of_unity,
    scan,
    sum_by_crt,
    sum_direct,
    valuation_bounds,
)
from oracles import brute_valuation, exact_falling, naive_is_prime


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "rootsum", *argv], capture_output=True, text=True
    )


# ----------------------------------------------------------------------
# independent vectorized direct summation (test-side engine)
# ----------------------------------------------------------------------


def falling_row_mod(n: int, k: int, m: int) -> list[int]:
    """i-falling-k mod m for k <= i < n, built from exact integers.

    Incremental exact recurrence i-falling-k = (i-1)-falling-k * i // (i-k),
    a different algorithm from the library's k-recurrence.
    """
    row = []
    value = math.factorial(k)
    for i in range(k, n):
        if i > k:
            value = value * i // (i - k)
        row.append(value % m)
    return row


def vector_sum_mod(n: int, k: int, m: int, alphas: np.ndarray) -> np.ndarray:
    """S(n, k, alpha) mod m for every alpha, by direct summation.

    All operands stay below m <= 2**31, so int64 products cannot overflow.
    """
    a = alphas.astype(np.int64) % m
    total = np.zeros(a.shape, dtype=np.int64)
    power = np.ones(a.shape, dtype=np.int64) % m
    for ff in falling_row_mod(n, k, m):
        total = (total + ff * power) % m
        power = power * a % m
    return total


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_01_exhaustive_equivalence_at_desk_scale():
    """scan over n <= 300, k <= 12: zero mismatches, single-threaded, < 120 s."""
    t0 = time.perf_counter()
    rep = scan(ScanConfig(max_n=300, max_k=12, parallelism=1))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.lemma_failures == [] and elapsed < 120.0
    report(
        "criterion equivalence scan (n<=300, k<=12)",
        ok,
        f"{rep.cases_checked} cases, {elapsed:.1f} s",
    )
    assert rep.mismatches == []
    assert elapsed < 120.0


def test_02_flagship_example_via_cli():
    """check --n 6 --k 2 --alpha 5: vanishes, exactly clause c via the alpha condition."""
    proc = run_cli("check", "--n", "6", "--k", "2", "--alpha", "5", "--format", "json")
    rec = json.loads(proc.stdout)
    ok = (
        proc.returncode == 0
        and rec["oracle_residue"] == 0
        and rec["predicted"] is True
        and rec["clauses"] == ["c"]
        and rec["agree"] is True
        and rec["hypothesis_ok"] is True
        # witness: q = 3 divides n, so only "alpha != 1 (mod q)" carries the clause
        and rec["witness"]["q"] == 3
        and rec["witness"]["q_divides_n"] is True
        and rec["witness"]["alpha_is_one_mod_q"] is False
    )
    report("flagship example check (6, 2, 5)", ok, "clauses {c}, alpha != 1 (mod 3)")
    assert ok, rec


def test_03_hypotheses_are_necessary_via_cli():
    """hunt surfaces (6,2,5) without the alpha condition and (4,3,1) without 4 | n."""
    proc_c = run_cli(
        "hunt", "--drop", "clause-c-alpha", "--max-n", "6", "--max-k", "2", "--format", "json"
    )
    recs_c = json.loads(proc_c.stdout)["records"]
    hit_c = [r for r in recs_c if (r["n"], r["k"], r["alpha"]) == (6, 2, 5)]
    ok_c = (
        proc_c.returncode == 0
        and len(hit_c) == 1
        and hit_c[0]["predicted"] is False
        and hit_c[0]["oracle_residue"] == 0
    )

    proc_b = run_cli(
        "hunt", "--drop", "clause-b", "--max-n", "4", "--max-k", "3", "--format", "json"
    )
    recs_b = json.loads(proc_b.stdout)["records"]
    hit_b = [r for r in recs_b if (r["n"], r["k"], r["alpha"]) == (4, 3, 1)]
    ok_b = (
        proc_b.returncode == 0
        and len(hit_b) == 1
        and hit_b[0]["predicted"] is True
        and hit_b[0]["oracle_residue"] == 2
    )
    report("hunt: clause-c alpha condition necessary", ok_c, "(6, 2, 5) surfaced")
    report("hunt: clause-b condition necessary", ok_b, "(4, 3, 1) surfaced, residue 2")
    assert ok_c, recs_c
    assert ok_b, recs_b


TELESCOPE_MODULI = [97, 4096, 1_000_000_007]


def test_04_collapsing_sum_identity_full_range():
    """(k+1) * sum == n1-falling-(k+1) - n0-falling-(k+1) (mod m), all pairs <= 2000.

    With S(x) the prefix sum and F(x) = x-falling-(k+1), the pair (n0, n1)
    instance reads (k+1)(S(n1)-S(n0)) == F(n1)-F(n0), i.e. the defect
    D(x) = (k+1)S(x) - F(x) takes the same value at n1 and n0.  D(0) = 0,
    so checking D(x) == 0 for every x <= 2000 covers all pairs exactly.
    The public falling_sum is additionally spot-checked against the prefix
    table on random pairs.
    """
    limit = 2000
    failures = []
    rng = random.Random(20_26)
    for m in TELESCOPE_MODULI:
        for k in range(13):
            prefix = 0
            fall_k = falling_row_mod(limit + 1, k, m)  # i-falling-k for i in [k, limit]
            fall_k1 = falling_row_mod(limit + 2, k + 1, m)
            prefix_table = [0] * (limit + 1)
            for x in range(1, limit + 1):
                i = x - 1
                term = fall_k[i - k] if i >= k else 0
                prefix = (prefix + term) % m
                prefix_table[x] = prefix
            for x in range(limit + 1):
                f_x = fall_k1[x - (k + 1)] if x >= k + 1 else 0
                defect = ((k + 1) * prefix_table[x] - f_x) % m
                if defect != 0:
                    failures.append((m, k, x, defect))
            for _ in range(8):
                n0 = rng.randint(0, limit)
                n1 = rng.randint(n0, limit)
                got = falling_sum(n0, n1, k, m).value
                want = (prefix_table[n1] - prefix_table[n0]) % m
                if got != want:
                    failures.append(("falling_sum", m, k, n0, n1, got, want))
    ok = not failures
    report(
        "collapsing-sum identity (n0 <= n1 <= 2000, k <= 12)",
        ok,
        f"{len(TELESCOPE_MODULI)} moduli" + ("" if ok else f"; first failures {failures[:3]}"),
    )
    assert ok, failures[:10]


def test_05_valuation_case_analysis_full_range():
    """Valuation bounds for (n-1)-falling-k over k+1: n <= 2000, k <= 30, p | k+1."""
    failures = []
    checked = 0
    for k in range(1, 31):
        primes = [p for p, _ in factorize(k + 1)]
        for n in range(1, 2001):
            for p in primes:
                b = valuation_bounds(n, k, p)
                checked += 1
                if b.case == "a" and not b.v >= b.e:
                    failures.append(("case a", n, k, p, b))
                if b.case == "b":
                    if not b.v >= b.e - 1:
                        failures.append(("case b bound", n, k, p, b))
                    if b.v == b.e - 1 and n % p != 0:
                        failures.append(("case b equality", n, k, p, b))
                expect_negative = k + 1 in (4, p) and n % (k + 1) == 0
                if b.fraction_negative != expect_negative:
                    failures.append(("negativity iff", n, k, p, b))
                if b.fraction_negative and b.v - b.e != -1:
                    failures.append(("deficit not -1", n, k, p, b))
    ok = not failures
    report("valuation case analysis (n <= 2000, k <= 30)", ok, f"{checked} triples")
    assert ok, failures[:10]


def test_06_integrality_corollary():
    """integrality_check vs exact rationals (n <= 30, k <= 12) and the
    clause characterization (n <= 2000, k <= 30)."""
    failures = []
    for n in range(1, 31):
        for k in range(0, 13):
            exact_integer = Fraction(exact_falling(n - 1, k), k + 1).denominator == 1
            if integrality_check(n, k).is_integer != exact_integer:
                failures.append(("exact division", n, k))
    for n in range(1, 2001):
        for k in range(0, 31):
            v = integrality_check(n, k)
            clause_i = k + 1 == 4 and n % 4 == 0
            clause_ii = naive_is_prime(k + 1) and n % (k + 1) == 0
            if v.is_integer != (not clause_i and not clause_ii):
                failures.append(("characterization", n, k, v))
            elif not v.is_integer:
                if clause_i and (v.clause, v.failing_prime) != ("i", 2):
                    failures.append(("clause i label", n, k, v))
                if clause_ii and (v.clause, v.failing_prime) != ("ii", k + 1):
                    failures.append(("clause ii label", n, k, v))
    ok = not failures
    report("integrality corollary (exact + characterization)", ok)
    assert ok, failures[:10]


def test_07_near_unity_congruence_full_range():
    """(k+1)*S == (n-1)-falling-k * n (mod p^(l+e)) for n <= 300, k <= 12,
    p | n, every alpha in [0, n) with alpha == 1 (mod p); non-roots included."""
    failures = []
    checked = 0
    non_root_cases = 0
    pairs = []  # (n, p) with p | n, for the library subsample
    one = lambda n: 1 % n
    for n in range(2, 301):
        for p, ell in factorize(n):
            pairs.append((n, p))
            alphas = np.arange(1, n, p, dtype=np.int64)
            non_root_cases += sum(
                1 for a in alphas if pow(int(a), n, n) != one(n)
            )
            for k in range(13):
                e = brute_valuation(k + 1, p)
                modulus = p ** (ell + e)
                rhs = exact_falling(n - 1, k) % modulus * (n % modulus) % modulus
                lhs_vec = (k + 1) * vector_sum_mod(n, k, modulus, alphas) % modulus
                checked += len(alphas)
                bad = np.nonzero(lhs_vec != rhs)[0]
                for idx in bad[:3]:
                    failures.append((n, k, p, int(alphas[idx]), int(lhs_vec[idx]), rhs))

    # the same statement through the public operation, on a random subsample
    rng = random.Random(7)
    for n, p in rng.sample(pairs, k=min(300, len(pairs))):
        k = rng.randint(0, 12)
        alpha = rng.randrange(1, n, p)
        rep = closed_form_congruence(n, k, alpha, p)
        if not rep.congruent:
            failures.append(("library op", n, k, p, alpha))

    ok = not failures and non_root_cases > 0
    report(
        "near-unity congruence (n <= 300, k <= 12, all alpha == 1 mod p)",
        ok,
        f"{checked} cases, {non_root_cases} with non-root alpha",
    )
    assert not failures, failures[:10]
    assert non_root_cases > 0


LEIBNITZ_MODULI = [7, 8, 9, 13, 25]  # five prime powers


def test_08_leibnitz_identity_full_range():
    """leibnitz_identity_check true for n <= 100, k <= 8, every invertible t."""
    failures = []
    checked = 0
    for m in LEIBNITZ_MODULI:
        ts = [t for t in range(m) if math.gcd(1 - t, m) == 1]
        for n in range(1, 101):
            for k in range(0, 9):
                for t in ts:
                    checked += 1
                    if not leibnitz_identity_check(n, k, t, m):
                        failures.append((n, k, t, m))
    ok = not failures
    report(
        "leibnitz closed form (n <= 100, k <= 8, invertible t)",
        ok,
        f"{checked} checks over moduli {LEIBNITZ_MODULI}",
    )
    assert ok, failures[:10]


LEGENDRE_PRIMES = [2, 3, 5, 7, 11, 13, 47]


def test_09_legendre_formula_full_range():
    """legendre(j, p) equals the factor-by-factor valuation of j!, j <= 5000."""
    failures = []
    for p in LEGENDRE_PRIMES:
        acc = 0  # running nu_p(j!) built one factor at a time
        for j in range(0, 5001):
            if j > 0:
                acc += brute_valuation(j, p)
            if legendre(j, p) != acc:
                failures.append(("value", j, p, legendre(j, p), acc))
            if j >= 1 and not legendre(j, p) < j:
                failures.append(("bound", j, p))
    ok = not failures
    report("legendre formula (j <= 5000, 7 primes)", ok)
    assert ok, failures[:10]


def test_10_crt_consistency_full_range():
    """sum_by_crt == sum_direct mod n for all n <= 300, k <= 12, alpha in [0, n)."""
    failures = []
    checked = 0
    for n in range(1, 301):
        alphas = np.arange(max(n, 1), dtype=np.int64)
        parts = []
        for p, ell in factorize(n):
            q = p**ell
            rest = n // q
            basis = rest * pow(rest, -1, q) % n
            parts.append((q, basis))
        for k in range(13):
            direct_vec = vector_sum_mod(n, k, n, alphas)
            crt_vec = np.zeros(len(alphas), dtype=np.int64)
            for q, basis in parts:
                table = vector_sum_mod(n, k, q, np.arange(q, dtype=np.int64))
                crt_vec = (crt_vec + table[alphas % q] * basis) % n
            checked += len(alphas)
            bad = np.nonzero(direct_vec != crt_vec)[0]
            for idx in bad[:3]:
                failures.append((n, k, int(alphas[idx])))

    # same comparison through the public operations
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 300)
        k = rng.randint(0, 12)
        alpha = rng.randrange(n)
        via_crt = sum_by_crt(n, k, alpha).value
        via_direct = sum_direct(SumQuery(n=n, k=k, alpha=alpha, modulus=n)).value
        if via_crt != via_direct:
            failures.append(("library op", n, k, alpha, via_crt, via_direct))
    ok = not failures
    report("chinese-remainder consistency (n <= 300, k <= 12, all alpha)", ok, f"{checked} cases")
    assert ok, failures[:10]


def test_11_clause_b_needs_no_alpha_condition():
    """For every n <= 300 with 4 | n, every root of unity mod n is odd."""
    failures = []
    roots_seen = 0
    for n in range(4, 301, 4):
        for alpha in roots_of_unity(n):
            roots_seen += 1
            if alpha % 2 == 0:
                failures.append((n, alpha))
    ok = not failures and roots_seen > 0
    report("clause b: roots are odd whenever 4 | n", ok, f"{roots_seen} roots")
    assert ok, failures[:10]


def test_12_scan_json_deterministic_across_parallelism():
    """scan emits byte-identical JSON with 1 worker and 8 workers."""
    args = ["scan", "--max-n", "100", "--max-k", "8", "--format", "json"]
    one = run_cli(*args, "--jobs", "1")
    eight = run_cli(*args, "--jobs", "8")
    ok = (
        one.returncode == 0
        and eight.returncode == 0
        and one.stdout == eight.stdout
        and len(one.stdout) > 0
    )
    report("scan determinism (jobs 1 vs 8)", ok, f"{len(one.stdout)} bytes")
    assert ok
