"""Tests for the scan / hunt harness."""

from collections import Counter

import pytest

from rootsum import (
    DROP_CLAUSE_B,
    DROP_CLAUSE_C_ALPHA,
    DROP_NONE,
    ScanConfig,
    hunt_weakened,
    roots_of_unity,
    scan,
)
from rootsum import harness
from rootsum.numtheory import factorize


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

    @pytest.mark.parametrize(
        "max_n, max_k, jobs, check_lemmas",
        [(40, 6, 4, False), (60, 8, 2, True), (3, 2, 4, False)],
        ids=["plain", "check-lemmas", "more-jobs-than-n"],
    )
    def test_parallel_report_matches_serial(self, max_n, max_k, jobs, check_lemmas):
        serial = scan(ScanConfig(max_n, max_k, parallelism=1, check_lemmas=check_lemmas))
        parallel = scan(ScanConfig(max_n, max_k, parallelism=jobs, check_lemmas=check_lemmas))
        assert serial.mismatches == parallel.mismatches
        assert serial.cases_checked == parallel.cases_checked
        assert serial.roots_enumerated == parallel.roots_enumerated
        assert serial.lemma_failures == parallel.lemma_failures

    def test_bookkeeping_memory_is_bounded_by_the_output(self, monkeypatch):
        # with a unit that reports nothing, what scan and hunt keep per n is
        # all that is left; it must not grow with max_n
        import tracemalloc

        monkeypatch.setattr(harness, "_scan_unit", lambda n, max_k, drop, check_lemmas: (1, [], []))
        tracemalloc.start()
        try:
            report = scan(ScanConfig(max_n=100_000, max_k=12))
            records = hunt_weakened(100_000, 12, DROP_CLAUSE_B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cases_checked == 1_300_000 and report.clean
        assert records == []
        assert peak < 1_000_000

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
        from rootsum import closed_form_congruence, derivsum

        # 72 = 2^3 * 3^2 and nu_3(3) = 1, so the class of 4 mod 27 at (p, k) = (3, 2)
        target = derivsum._period_row(72, 2, 27, 9)
        real_horner, real_sides = derivsum._horner, harness._near_unity_sides
        visits = []

        def sides(n, k, p):
            visits.append(((p, k), []))
            return real_sides(n, k, p)

        def failing_one_class(coeffs, a, m):
            # the Horner pass closed_form_congruence runs
            value = real_horner(coeffs, a, m)
            if m == 27 and a == 4 and coeffs == target:
                return (value + 1) % m
            return value

        def counted(coeffs, a, m):
            # the Horner pass the harness loop runs, once per class
            visits[-1][1].append(a)
            return failing_one_class(coeffs, a, m)

        good = closed_form_congruence(72, 2, 4, 3)
        monkeypatch.setattr(harness, "_near_unity_sides", sides)
        monkeypatch.setattr(harness, "_horner", counted)
        monkeypatch.setattr(derivsum, "_horner", failing_one_class)
        # k = 8 gives m = 3^4 = 81 > n, where the classes stop below n
        n, max_k = 72, 8
        failures = harness._lemma_checks(n, max_k)

        report = closed_form_congruence(72, 2, 4, 3)
        assert good.congruent and not report.congruent
        assert report.rhs_times_kp1 == good.rhs_times_kp1
        tail = f"lhs={report.lhs_times_kp1.value} rhs={report.rhs_times_kp1.value}"
        assert failures == [
            f"near-unity congruence: n=72 k=2 p=3 alpha={alpha} {tail}" for alpha in (4, 31, 58)
        ]
        assert sorted(key for key, _ in visits) == [
            (p, k) for p in (2, 3) for k in range(max_k + 1)
        ]
        for (p, k), classes in visits:
            m = p ** (brute_valuation(n, p) + brute_valuation(k + 1, p))
            assert sorted(classes) == sorted({alpha % m for alpha in range(1, n, p)})

    def test_near_unity_loop_and_closed_form_congruence_are_one_computation(self, monkeypatch):
        from rootsum import closed_form_congruence

        real_sides = harness._near_unity_sides
        rhs_seen = {}

        def every_class_fails(n, k, p):
            # a right side no lhs in [0, m) can equal, so _lemma_checks lists
            # every alpha with the lhs it computed for alpha's class
            m, row, rhs = real_sides(n, k, p)
            rhs_seen[n, k, p] = rhs
            assert set(range(1, min(n, m), p)) == {a % m for a in range(1, n, p)}
            return m, row, -1

        monkeypatch.setattr(harness, "_near_unity_sides", every_class_fails)
        prefix = "near-unity congruence: "
        for n in range(1, 121):
            listed = {}
            for failure in harness._lemma_checks(n, 12):
                assert failure.startswith(prefix)
                fields = dict(f.split("=") for f in failure[len(prefix):].split())
                assert int(fields["n"]) == n and fields["rhs"] == "-1"
                key = int(fields["k"]), int(fields["p"])
                listed.setdefault(key, []).append((int(fields["alpha"]), int(fields["lhs"])))
            expected_keys = {(k, p) for p, _ in factorize(n) for k in range(13)}
            assert set(listed) == expected_keys
            for (k, p), rows in listed.items():
                assert [alpha for alpha, _ in rows] == list(range(1, n, p))
                for alpha, lhs in rows:
                    report = closed_form_congruence(n, k, alpha, p)
                    assert lhs == report.lhs_times_kp1.value
                    assert rhs_seen[n, k, p] == report.rhs_times_kp1.value

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


class TestLemmaChecks:
    def test_telescoping_check_reads_the_oracle_row(self, monkeypatch):
        real = harness._falling_row

        def corrupt_one_entry(n, k, m):
            row = real(n, k, m)
            if (n, k, m) == (72, 3, 72):
                return row[:5] + ((row[5] + 1) % m,) + row[6:]
            return row

        assert harness._lemma_checks(72, 5) == []
        monkeypatch.setattr(harness, "_falling_row", corrupt_one_entry)
        failures = harness._lemma_checks(72, 5)
        assert len(failures) == 1
        assert failures[0].startswith("telescoping sum identity: n=72 k=3 ")

    def test_telescoping_right_side_is_zero_mod_n(self):
        # _lemma_checks compares (k+1) * row sum with 0, because the right
        # side n-falling-(k+1) - 0-falling-(k+1) always is 0 mod n
        from oracles import exact_falling
        from rootsum import falling_mod

        for n in range(1, 120):
            for k in range(0, 16):
                assert falling_mod(n, k + 1, n).value == 0
                assert falling_mod(0, k + 1, n).value == 0
                exact = exact_falling(n, k + 1)
                assert (k + 1) * sum(exact_falling(i, k) for i in range(n)) == exact
                assert exact % n == 0


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


def test_bench_is_not_exported():
    # bench and BenchReport were removed; the route table's timings are the
    # timeit commands in the sum_direct docstring
    import rootsum

    for name in ("bench", "BenchReport"):
        assert name not in rootsum.__all__ and name not in harness.__all__
        assert not hasattr(rootsum, name) and not hasattr(harness, name)
