"""Tests for the scan / hunt / bench harness."""

import dataclasses
from collections import Counter

import pytest

from rootsum import (
    DROP_CLAUSE_B,
    DROP_CLAUSE_C_ALPHA,
    DROP_NONE,
    ScanConfig,
    bench,
    hunt_weakened,
    roots_of_unity,
    scan,
)
from rootsum import harness


class TestScan:
    def test_tiny_range_is_clean(self):
        report = scan(ScanConfig(max_n=6, max_k=3))
        assert report.mismatches == []
        assert report.clean

    def test_minimal_range_counts(self):
        report = scan(ScanConfig(max_n=1, max_k=0))
        assert report.cases_checked == 1
        assert report.roots_enumerated == 1
        assert report.mismatches == []

    def test_case_count_formula(self):
        max_n, max_k = 40, 5
        report = scan(ScanConfig(max_n=max_n, max_k=max_k))
        expected_roots = sum(len(roots_of_unity(n)) for n in range(1, max_n + 1))
        assert report.roots_enumerated == expected_roots
        assert report.cases_checked == expected_roots * (max_k + 1)

    def test_parallel_report_matches_serial(self):
        serial = scan(ScanConfig(max_n=40, max_k=6, parallelism=1))
        parallel = scan(ScanConfig(max_n=40, max_k=6, parallelism=4))
        assert serial.mismatches == parallel.mismatches
        assert serial.cases_checked == parallel.cases_checked
        assert serial.roots_enumerated == parallel.roots_enumerated
        assert serial.lemma_failures == parallel.lemma_failures

    def test_inline_lemma_suites_pass(self):
        report = scan(ScanConfig(max_n=30, max_k=4, check_lemmas=True))
        assert report.lemma_failures == []
        assert report.clean

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(max_n=0, max_k=3)
        with pytest.raises(ValueError):
            ScanConfig(max_n=3, max_k=-1)
        with pytest.raises(ValueError):
            ScanConfig(max_n=3, max_k=3, parallelism=0)

    def test_elapsed_is_recorded(self):
        report = scan(ScanConfig(max_n=5, max_k=2))
        assert report.elapsed_seconds > 0


class TestResidueClassMemos:
    def test_near_unity_checked_once_per_class_and_reported_per_alpha(self, monkeypatch):
        from oracles import brute_valuation

        real = harness.closed_form_congruence
        calls = []

        def failing_one_class(n, k, alpha, p):
            # 72 = 2^3 * 3^2 and nu_3(3) = 1, so the class of 4 mod 27 at (p, k) = (3, 2)
            calls.append((p, k, alpha))
            report = real(n, k, alpha, p)
            if (p, k) == (3, 2) and alpha % 27 == 4:
                return dataclasses.replace(report, congruent=False)
            return report

        monkeypatch.setattr(harness, "closed_form_congruence", failing_one_class)
        n, max_k = 72, 5
        failures = harness._lemma_checks(n, max_k)

        report = real(n, 2, 4, 3)
        tail = f"lhs={report.lhs_times_kp1.value} rhs={report.rhs_times_kp1.value}"
        assert failures == [
            f"near-unity congruence: n=72 k=2 p=3 alpha={alpha} {tail}" for alpha in (4, 31, 58)
        ]
        for p in (2, 3):
            for k in range(max_k + 1):
                m = p ** (brute_valuation(n, p) + brute_valuation(k + 1, p))
                called = [alpha % m for q, kk, alpha in calls if (q, kk) == (p, k)]
                assert sorted(called) == sorted({alpha % m for alpha in range(1, n, p)})

    def test_scan_unit_decides_once_per_k_and_alpha_mod_k_plus_1(self, monkeypatch):
        real = harness.predict_vanishing
        calls = Counter()

        def counting(n, k, alpha):
            calls[k] += 1
            return real(n, k, alpha)

        monkeypatch.setattr(harness, "predict_vanishing", counting)
        n, max_k = 72, 6
        roots = roots_of_unity(n)
        for drop in (DROP_NONE, DROP_CLAUSE_C_ALPHA, DROP_CLAUSE_B):
            calls.clear()
            harness._scan_unit(n, max_k, drop, False)
            assert calls == {k: len({a % (k + 1) for a in roots}) for k in range(max_k + 1)}


class TestHuntWeakened:
    def test_dropping_alpha_condition_surfaces_the_flagship_case(self):
        records = hunt_weakened(6, 2, DROP_CLAUSE_C_ALPHA)
        keyed = {(r.n, r.k, r.alpha): r for r in records}
        assert (6, 2, 5) in keyed
        r = keyed[(6, 2, 5)]
        assert r.predicted is False  # weakened criterion says "does not vanish"
        assert r.oracle_residue == 0  # but the sum does vanish
        assert r.clauses == ()

    def test_dropping_clause_b_condition_surfaces_4_3_1(self):
        records = hunt_weakened(4, 3, DROP_CLAUSE_B)
        keyed = {(r.n, r.k, r.alpha): r for r in records}
        assert (4, 3, 1) in keyed
        r = keyed[(4, 3, 1)]
        assert r.predicted is True  # weakened clause b fires although 4 | 4
        assert r.oracle_residue == 2
        assert "b" in r.clauses

    def test_no_drop_finds_nothing(self):
        assert hunt_weakened(40, 6, DROP_NONE) == []
        assert hunt_weakened(40, 6, None) == []

    def test_empty_range(self):
        assert hunt_weakened(0, 3, DROP_CLAUSE_B) == []

    def test_records_are_sorted(self):
        records = hunt_weakened(30, 4, DROP_CLAUSE_C_ALPHA)
        keys = [(r.n, r.k, r.alpha) for r in records]
        assert keys == sorted(keys)
        assert len(records) > 0

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            hunt_weakened(5, 2, "clause-a")

    def test_finds_every_counterexample(self):
        from oracles import brute_sum, naive_is_prime

        def weakened(drop, n, k, alpha):
            # the three clauses with one hypothesis dropped
            q = k + 1
            if q == 4:
                return drop == DROP_CLAUSE_B or n % 4 != 0
            if naive_is_prime(q):
                return n % q != 0 or (drop != DROP_CLAUSE_C_ALPHA and alpha % q != 1)
            return True

        for drop in (DROP_CLAUSE_C_ALPHA, DROP_CLAUSE_B):
            expected = set()
            for n in range(1, 41):
                for alpha in (a for a in range(n) if pow(a, n, n) == 1 % n):
                    for k in range(7):
                        residue = brute_sum(n, k, alpha, n)
                        if weakened(drop, n, k, alpha) != (residue == 0):
                            expected.add((n, k, alpha, residue))
            got = {(r.n, r.k, r.alpha, r.oracle_residue) for r in hunt_weakened(40, 6, drop)}
            assert expected and got == expected

    def test_weakened_mismatches_are_real_disagreements(self):
        from oracles import brute_sum

        for drop in (DROP_CLAUSE_C_ALPHA, DROP_CLAUSE_B):
            for r in hunt_weakened(30, 4, drop):
                assert r.predicted != (brute_sum(r.n, r.k, r.alpha, r.n) == 0)
                assert 0 <= r.oracle_residue < r.n


class TestBench:
    def test_minimal_inputs_complete(self):
        report = bench(1, 0, 1)
        assert report.direct_mean_s >= 0
        assert report.crt_mean_s >= 0
        assert report.predict_mean_s >= 0

    def test_criterion_beats_summation(self):
        report = bench(300, 12, 100)
        assert report.predict_mean_s < report.direct_mean_s

    def test_large_n_completes_quickly(self):
        import time

        t0 = time.perf_counter()
        report = bench(10_000, 8, 10)
        assert time.perf_counter() - t0 < 30.0
        assert report.direct_mean_s > 0 and report.crt_mean_s > 0

    def test_alpha_defaults_to_n_minus_one(self):
        assert bench(50, 2, 1).alpha == 49
        assert bench(1, 0, 1).alpha == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bench(0, 1, 1)
        with pytest.raises(ValueError):
            bench(5, 1, 0)
