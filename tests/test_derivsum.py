"""Tests for the derivative-sum evaluators and the structural identities."""

import math
import random
import re
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsum import (
    INFINITY,
    NotAUnitError,
    Residue,
    SumQuery,
    closed_form_congruence,
    factorize,
    falling_valuation,
    legendre,
    leibnitz_identity_check,
    roots_of_unity,
    sum_by_crt,
    sum_direct,
)
from rootsum import derivsum, harness
from rootsum.derivsum import (
    _falling_row,
    _horner,
    _leibnitz_rhs,
    _near_unity_sides,
    _row,
    _SHORT_ROW,
    _split_modulus,
    _sum_closed,
    _sum_mod,
)
from rootsum.falling import _falling_int
from rootsum.harness import DROP_NONE, _scan_unit
from oracles import brute_sum, brute_valuation, exact_falling, sum_doubling


def direct(n, k, alpha, m):
    return sum_direct(SumQuery(n=n, k=k, alpha=alpha, modulus=m)).value


class TestSumQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            SumQuery(0, 0, 1, 5)
        with pytest.raises(ValueError):
            SumQuery(3, -1, 1, 5)
        with pytest.raises(ValueError):
            SumQuery(3, 0, 1, 0)


class TestSumDirect:
    def test_flagship_case_vanishes(self):
        # raw sum is 2*1 + 6*5 + 12*25 + 20*125 = 2832, a multiple of 6
        assert brute_sum(6, 2, 5, 10**9) == 2832
        assert direct(6, 2, 5, 10**9) == 2832
        assert direct(6, 2, 5, 6) == 0

    def test_modulus_one(self):
        assert direct(1, 0, 12345, 1) == 0

    def test_single_term_cases(self):
        assert exact_falling(3, 3) == 6
        assert direct(4, 3, 1, 4) == 2
        assert exact_falling(4, 4) == 24
        assert direct(5, 4, 1, 5) == 4

    def test_empty_sum_when_n_at_most_k(self):
        for n in range(1, 8):
            for k in range(n, n + 5):
                for m in (1, 2, 9, 97):
                    assert direct(n, k, 7, m) == 0

    def test_against_exact_oracle_grid(self):
        for n in range(1, 25):
            for k in range(0, 7):
                for alpha in (0, 1, 2, 5, 23):
                    for m in (1, 2, 97, 10**6):
                        assert direct(n, k, alpha, m) == brute_sum(n, k, alpha, m)

    def test_negative_alpha_against_oracle(self):
        for alpha in (-1, -5, -12):
            for m in (7, 36):
                assert direct(10, 2, alpha, m) == brute_sum(10, 2, alpha % m, m)

    @given(
        st.integers(1, 120),
        st.integers(0, 10),
        st.integers(-10**6, 10**6),
        st.integers(1, 10**6),
    )
    @settings(max_examples=200)
    def test_representative_independence(self, n, k, alpha, m):
        base = direct(n, k, alpha, m)
        assert direct(n, k, alpha + m, m) == base
        assert direct(n, k, alpha - m, m) == base

    def test_representative_independence_bulk(self):
        # ten thousand seeded random cases over a fixed modulus pool
        import random

        rng = random.Random(424242)
        moduli = [1, 2, 7, 36, 97, 360, 9973]
        for _ in range(10_000):
            n = rng.randint(1, 60)
            k = rng.randint(0, 8)
            alpha = rng.randint(-10**6, 10**6)
            m = rng.choice(moduli)
            base = direct(n, k, alpha, m)
            assert direct(n, k, alpha + m, m) == base
            assert direct(n, k, alpha - m, m) == base


ROW_MODULI = (1, 2, 8, 9, 360, 2**31 - 1)
ROW_LENGTHS = (0, 1, 2, 7, 33, 40)
ROW_DEPTHS = range(41)


class TestFallingRow:
    def _assert_rows(self, keys):
        _falling_row.cache_clear()
        for n, k, m in keys:
            expected = [_falling_int(i, k, m) for i in range(k, n)]
            assert list(_falling_row(n, k, m)) == expected == list(_row(n, k, m)), (n, k, m)

    def test_ascending_k(self):
        self._assert_rows((n, k, m) for m in ROW_MODULI for n in ROW_LENGTHS for k in ROW_DEPTHS)

    def test_descending_k(self):
        self._assert_rows(
            (n, k, m) for m in ROW_MODULI for n in ROW_LENGTHS for k in reversed(ROW_DEPTHS)
        )

    def test_moduli_interleaved(self):
        self._assert_rows((n, k, m) for n in ROW_LENGTHS for k in ROW_DEPTHS for m in ROW_MODULI)

    def test_large_k_against_exact_oracle(self):
        # the row route at n = 3000, k = 1000, from a cold cache: its chain
        # of 1001 rows passes through the memo, which keeps at most 256
        _falling_row.cache_clear()
        assert _sum_mod(3000, 1000, 3, 1000003) == brute_sum(3000, 1000, 3, 1000003)
        assert _falling_row.cache_info().currsize <= 256

    def test_larger_k_than_the_recursion_limit(self):
        # brute_sum(6000, 5000, 3, 1000003) == 848734 takes ~20 s; a chain
        # as deep as k would raise RecursionError here
        _falling_row.cache_clear()
        assert _sum_mod(6000, 5000, 3, 1000003) == 848734

    def test_scan_unit_builds_no_entry_as_its_own_product(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _falling_int(*args)

        monkeypatch.setattr(derivsum, "_falling_int", counting)
        _falling_row.cache_clear()
        _scan_unit(300, 12, DROP_NONE, False)
        _scan_unit(60, 59, DROP_NONE, False)
        assert calls == []

    def test_scan_unit_asks_for_one_row_per_k(self, monkeypatch):
        # rows k = 0..n-1 in order, each summed at every root by _horner
        real = harness._falling_row
        asked = []

        def counting(n, k, m):
            asked.append((n, k, m))
            return real(n, k, m)

        def no_sum_mod(*args):
            raise AssertionError(f"_sum_mod{args}")

        monkeypatch.setattr(harness, "_falling_row", counting)
        monkeypatch.setattr(derivsum, "_sum_mod", no_sum_mod)
        _falling_row.cache_clear()
        assert _scan_unit(72, 100, DROP_NONE, False)[1] == []
        assert asked == [(72, k, 72) for k in range(72)]

    def test_rows_past_n_are_not_climbed(self):
        # every row k >= n is empty, so the climb through rows 0..k stops
        # before it starts: a million empty rows would fill the memo
        _falling_row.cache_clear()
        _sum_mod(5, 2, 2, 7)
        before = _falling_row.cache_info().currsize
        assert leibnitz_identity_check(5, 10**6, 2, 7)
        assert _falling_row.cache_info().currsize == before

    def test_cold_chain_caches_the_rows_below(self):
        _falling_row.cache_clear()
        _sum_mod(50, 12, 3, 1000003)
        assert _falling_row.cache_info().currsize <= 13


class TestNearUnityCoefficients:
    def test_classes_match_direct_sum(self):
        # every alpha == 1 (mod p) below 3n, for every p | n and, with
        # q = 1 and m = p^e or m = 1, for small primes not dividing n; the
        # scan's row mod n and closed_form_congruence's row mod q give the
        # same sides
        shapes = set()
        for n in range(1, 81):
            for p in sorted({p for p, _ in factorize(n)} | {2, 3, 5, 7}):
                for k in range(n + 3):
                    ell, e = brute_valuation(n, p), brute_valuation(k + 1, p)
                    q = p**ell
                    m, coeffs, rhs = sides = _near_unity_sides(n, k, p, _row(n, k, n))
                    assert sides == _near_unity_sides(n, k, p, _row(q, k, q)), (n, k, p)
                    assert m == p ** (ell + e) and len(coeffs) <= ell, (n, k, p)
                    assert rhs == exact_falling(n - 1, k) * n % m
                    for alpha in range(1, 3 * n, p):
                        lhs = (k + 1) * _sum_mod(n, k, alpha, m) % m
                        assert _horner(coeffs, alpha % m - 1, m) == lhs, (n, k, p, alpha)
                        assert _horner(coeffs, alpha % q - 1, m) == lhs, (n, k, p, alpha)
                    shapes.add("q = 1" if q == 1 else "k >= q" if k >= q else
                               "q = n" if q == n else "q < n")
        assert shapes == {"q = 1", "k >= q", "q = n", "q < n"}

    def test_closed_form_congruence_reads_the_coefficients(self):
        # p need not divide n: then l = 0 and m = p^e, down to m = 1
        for n in range(1, 41):
            for p in (2, 3, 5, 7):
                for k in range(n + 3):
                    m = p ** (brute_valuation(n, p) + brute_valuation(k + 1, p))
                    for alpha in range(1, 3 * n, p):
                        rep = closed_form_congruence(n, k, alpha, p)
                        assert rep.lhs_times_kp1 == Residue((k + 1) * _sum_mod(n, k, alpha, m), m)
                        assert rep.congruent, (n, k, alpha, p)

    def test_coefficients_at_a_glance(self):
        # q = n = 8, so nothing folds: S(8, 1, 1 + y) is the sum over s of
        # (s+1) * C(8, s+2) * y^s, whose first l = 3 coefficients 28, 112,
        # 210 reduce to 4, 0, 2 mod 8, and k + 1 = 2 lifts them to 8, 0, 4
        # mod m = 16
        assert _near_unity_sides(8, 1, 2, _row(8, 1, 8)) == (16, (8, 0, 4), 7 * 8 % 16)
        # n = 30 folds onto 10 blocks of q = 3; the constant term is still
        # 3 * S(30, 2, 1) = 6 * C(30, 3) = 24360 == 6 (mod 9)
        assert _near_unity_sides(30, 2, 3, _row(30, 2, 30)) == (9, (6,), 29 * 28 * 30 % 9)
        # k >= q: every i-falling-k is 0 mod q
        assert _near_unity_sides(9, 10, 3, ()) == (9, (), 0)
        # p divides neither n nor k + 1
        assert _near_unity_sides(6, 0, 5, _row(6, 0, 6)) == (1, (), 0)


class TestSumByCrt:
    def test_flagship_case(self):
        r = sum_by_crt(6, 2, 5)
        assert (r.value, r.modulus) == (0, 6)

    def test_n_one_collapses_to_trivial_modulus(self):
        r = sum_by_crt(1, 3, 9)
        assert (r.value, r.modulus) == (0, 1)

    def test_agrees_with_direct_at_twelve(self):
        expected = brute_sum(12, 1, 5, 12)
        assert direct(12, 1, 5, 12) == expected
        assert sum_by_crt(12, 1, 5).value == expected

    def test_consistency_exhaustive_small_range(self):
        for n in range(1, 61):
            for k in range(0, 7):
                for alpha in range(n):
                    assert sum_by_crt(n, k, alpha).value == direct(n, k, alpha, n)

    def test_no_root_hypothesis_required(self):
        # alpha = 2 is not a root of unity mod 9, the routes must still agree
        assert 2 not in roots_of_unity(9)
        assert sum_by_crt(9, 4, 2).value == direct(9, 4, 2, 9)


class TestDoublingRoute:
    # the closed-form route of single queries, against direct summation and
    # the binary-doubling reference in oracles.py, which reaches n = 2**31
    def test_against_exact_oracle(self):
        rng = random.Random(1901)
        cases = [(3000, 14, -7, 1), (1, 0, -1, 1000003)]
        for _ in range(40):
            k = rng.randint(0, 14)
            n = rng.randint(k + 1, 3000)
            alpha = rng.randint(-1000, 1000)
            m = rng.choice([1, 2, 360, 1000003, 2**31, rng.randint(1, 2**31)])
            cases.append((n, k, alpha, m))
        for n, k, alpha, m in cases:
            expected = brute_sum(n, k, alpha, m)
            assert _sum_closed(n, k, alpha, m) == sum_doubling(n, k, alpha, m) == expected, (n, k, alpha, m)

    def test_route_boundary(self, monkeypatch):
        # direct summation takes every non-empty row of at most _SHORT_ROW
        # products (n - k) * (k + 1); one term more, or an empty row, is closed
        routed = []

        def spy(*args):
            routed.append(args)
            return _sum_closed(*args)

        monkeypatch.setattr(derivsum, "_sum_closed", spy)
        assert _SHORT_ROW == 16
        for k, first in ((0, 17), (1, 9), (3, 5), (7, 3), (8, 2), (12, 2), (16, 1)):
            for terms in {-1, 0, first - 1, first}:
                n = k + terms
                if n < 1:
                    continue
                for alpha, m in ((3, 1000003), (-2, 360), (n - 1, n)):
                    routed.clear()
                    assert direct(n, k, alpha, m) == brute_sum(n, k, alpha, m)
                    assert routed == ([(n, k, alpha, m)] if terms in (-1, 0, first) else [])

    def test_large_k_takes_the_closed_form(self, monkeypatch):
        # O(k) steps where a cold row takes (n - k) * k products
        monkeypatch.setattr(derivsum, "_sum_mod", None)
        assert direct(3000, 1000, 3, 1000003) == sum_doubling(3000, 1000, 3, 1000003)
        assert direct(3000, 1000, 1, 3000) == exact_falling(3000, 1001) // 1001 % 3000

    @pytest.mark.parametrize("n", [2**31, 2 * 3 * 5 * 7 * 11 * 13 * 17])
    def test_closed_values_at_the_input_cap(self, n):
        # alpha = 1 telescopes to n-falling-(k+1) / (k+1); alpha = 0 leaves
        # the single term i = k, which is k!
        for k in range(13):
            telescoped = exact_falling(n, k + 1) // (k + 1)
            for m in (1, 97, 1000003, n):
                assert direct(n, k, 1, m) == telescoped % m
                assert direct(n, k, 0, m) == math.factorial(k) % m
            assert sum_by_crt(n, k, 1).value == telescoped % n

    def test_matches_sum_mod_on_every_root_triple(self):
        # the acceptance range of the scan: n <= 300, k <= 12, every root
        triples = 0
        for n in range(1, 301):
            for alpha in roots_of_unity(n):
                for k in range(13):
                    assert _sum_closed(n, k, alpha, n) == _sum_mod(n, k, alpha, n), (n, k, alpha)
                    triples += 1
        assert triples == 42_835

    def test_every_shape_on_a_small_grid(self):
        # m splits as b * g: every prime of b divides alpha - 1, g is prime
        # to it; each shape of the split is met, against direct summation
        shapes = set()
        for m in range(1, 49):
            for alpha in range(-3, m + 3):
                a = alpha % m
                b, g = _split_modulus(m, a)
                assert b * g == m and math.gcd(g, a - 1) == 1
                assert all((a - 1) % p == 0 for p, _ in factorize(b))
                shapes.update(
                    name
                    for name, hit in (
                        ("b = 1", b == 1), ("g = 1", g == 1), ("b, g > 1", b > 1 and g > 1),
                        ("a = 0", a == 0), ("a = 1", a == 1 % m), ("m = 1", m == 1),
                        ("m = 2^j > 2", m > 2 and m & (m - 1) == 0), ("alpha < 0", alpha < 0),
                    )
                    if hit
                )
                for n in range(1, 25):
                    for k in range(10):
                        assert _sum_closed(n, k, alpha, m) == _sum_mod(n, k, alpha, m), (n, k, alpha, m)
                        if n <= k:
                            shapes.add("n <= k")
        assert shapes == {
            "b = 1", "g = 1", "b, g > 1", "a = 0", "a = 1", "m = 1", "m = 2^j > 2", "alpha < 0", "n <= k"
        }

    def test_random_triples_up_to_the_input_cap(self):
        rng = random.Random(2031)
        for _ in range(300):
            k = rng.randint(0, 30)
            n = rng.randint(1, 2**31)
            m = rng.choice([rng.randint(1, 2**31), n, 2 ** rng.randint(0, 31), 3 ** rng.randint(0, 19)])
            near_one = 1 + rng.randint(-99, 99) * (m // math.gcd(m, rng.randint(1, m)))
            alpha = rng.choice([rng.randint(-(2**31), 2**31), near_one])
            assert _sum_closed(n, k, alpha, m) == sum_doubling(n, k, alpha, m), (n, k, alpha, m)

    def test_documented_timing_commands_run(self):
        # the route table in sum_direct rests on these commands; each setup
        # and statement must still run, e.g. after a private name is renamed
        commands = re.findall(r'python -m timeit -s "([^"]*)" "([^"]*)"', sum_direct.__doc__)
        assert len(commands) == 4
        for setup, stmt in commands:
            timeit.timeit(stmt, setup, number=1)

    @pytest.mark.parametrize(
        "statement",
        [
            pytest.param("_sum_closed(1000, 12, 3, 1000003)", id="closed-form"),
            pytest.param("_falling_row.cache_clear(); _sum_mod(1000, 12, 3, 1000003)", id="direct-cold"),
            pytest.param("_sum_mod(1000, 12, 3, 1000003)", id="direct-warm"),
            pytest.param("predict_vanishing(300, 12, 299)", id="criterion"),
        ],
    )
    def test_documented_timing_command_times_its_column(self, statement):
        # one command per column of the table, each timing the call it names
        statements = re.findall(r'python -m timeit -s "[^"]*" "([^"]*)"', sum_direct.__doc__)
        assert statements.count(statement) == 1


LEIBNITZ_MODULI = [7, 8, 9, 13, 25]


class TestLeibnitzIdentity:
    def test_worked_integer_example(self):
        # n=5, k=1, t=2: direct side is 1 + 4 + 12 + 32 = 49
        assert brute_sum(5, 1, 2, 10**6) == 49
        assert leibnitz_identity_check(5, 1, 2, 10**6)

    def test_geometric_series_case(self):
        assert brute_sum(3, 0, 2, 101) == 7
        assert leibnitz_identity_check(3, 0, 2, 101)

    def test_modulus_nine_case(self):
        assert leibnitz_identity_check(6, 2, 5, 9)

    def test_non_invertible_one_minus_t(self):
        with pytest.raises(NotAUnitError):
            leibnitz_identity_check(5, 2, 1, 7)
        with pytest.raises(NotAUnitError):
            leibnitz_identity_check(5, 2, 4, 9)  # 1-4 = -3 shares 3 with 9

    def test_depth_exceeding_length(self):
        # every surviving closed-form term keeps a nonnegative power of t
        for n in range(1, 6):
            for k in range(n, n + 4):
                for m in (7, 9, 25):
                    for t in range(m):
                        if math.gcd(1 - t, m) == 1:
                            assert leibnitz_identity_check(n, k, t, m)

    def test_identity_on_grid(self):
        for m in LEIBNITZ_MODULI:
            ts = [t for t in range(m) if math.gcd(1 - t, m) == 1]
            for n in range(1, 31):
                for k in range(0, 7):
                    for t in ts:
                        assert leibnitz_identity_check(n, k, t, m)


class TestLeibnitzVanishing:
    # for p**l dividing n, alpha**n == 1 and alpha != 1 (mod p), the factor
    # alpha**n - 1 kills the first closed-form term and n-falling-(k-i), a
    # multiple of n, kills every other, so S vanishes mod p**l
    def test_flagship_case(self):
        assert _leibnitz_rhs(6, 2, 5, 3) == 0
        assert direct(6, 2, 5, 3) == 0

    def test_zeroth_derivative(self):
        assert brute_sum(6, 0, 5, 3) == 0
        assert _leibnitz_rhs(6, 0, 5, 3) == 0

    # each hypothesis is needed: drop one and S no longer vanishes
    def test_rejects_non_root(self):
        # 2^5 = 32 is 2 mod 5, not 1, so alpha**n - 1 leaves the first term
        assert _leibnitz_rhs(5, 1, 2, 5) == direct(5, 1, 2, 5) == 4

    def test_rejects_alpha_congruent_one(self):
        # 4 is 1 mod 3, so 1 - alpha has no inverse and the closed form is void
        with pytest.raises(NotAUnitError):
            _leibnitz_rhs(6, 2, 4, 3)
        assert direct(6, 2, 4, 3) == 1

    def test_rejects_modulus_not_dividing_n(self):
        # 5^6 is 1 mod 9 but 9 does not divide 6
        assert pow(5, 6, 9) == 1
        assert _leibnitz_rhs(6, 2, 5, 9) == direct(6, 2, 5, 9) == 6

    def test_vanishes_and_matches_direct_on_range(self):
        checked = 0
        for n in range(2, 61):
            for p, ell in factorize(n):
                q = p**ell
                for alpha in range(q):
                    if alpha % p == 1 or pow(alpha, n, q) != 1 % q:
                        continue
                    for k in range(0, 7):
                        assert _leibnitz_rhs(n, k, alpha, q) == 0
                        assert direct(n, k, alpha, q) == 0
                        checked += 1
        assert checked > 100  # the route is genuinely exercised


class TestClosedFormCongruence:
    def test_near_unity_example(self):
        # S(6, 2, 4) = 2 + 24 + 192 + 1280 = 1498; times 3 is 4494;
        # the closed side is 5*4*6 = 120; both are 3 mod 9
        assert brute_sum(6, 2, 4, 10**9) == 1498
        rep = closed_form_congruence(6, 2, 4, 3)
        assert rep.p == 3 and rep.ell == 1
        assert rep.lhs_times_kp1.modulus == 9
        assert rep.lhs_times_kp1.value == rep.rhs_times_kp1.value == 3
        assert rep.congruent

    def test_alpha_one_telescopes_exactly(self):
        # alpha = 1 turns S into a plain falling sum: 4*6 = 24 on both sides
        rep = closed_form_congruence(4, 3, 1, 2)
        assert rep.ell == 2
        assert rep.lhs_times_kp1.modulus == 16
        assert rep.lhs_times_kp1.value == rep.rhs_times_kp1.value == 24 % 16
        assert rep.congruent

    def test_geometric_case(self):
        # S(9, 0, 4) = (4^9 - 1) / 3 = 87381, a multiple of 9
        assert (4**9 - 1) // 3 % 9 == 0
        rep = closed_form_congruence(9, 0, 4, 3)
        assert rep.ell == 2
        assert rep.congruent
        assert rep.lhs_times_kp1.value == 0

    def test_rejects_alpha_not_one_mod_p(self):
        with pytest.raises(ValueError):
            closed_form_congruence(6, 2, 5, 3)

    def test_p_not_dividing_n_allowed(self):
        rep = closed_form_congruence(6, 2, 6, 5)  # 6 is 1 mod 5, 5 does not divide 6
        assert rep.ell == 0
        assert rep.congruent

    def test_holds_on_grid_including_non_roots(self):
        non_root_seen = False
        for n in range(2, 61):
            for p, _ in factorize(n):
                for alpha in range(1, n, p):
                    if alpha not in roots_of_unity(n):
                        non_root_seen = True
                    for k in range(0, 7):
                        assert closed_form_congruence(n, k, alpha, p).congruent
        assert non_root_seen

    @given(st.integers(2, 300), st.integers(0, 12), st.data())
    @settings(max_examples=300)
    def test_depends_on_alpha_only_mod_p_to_the_l_plus_e(self, n, k, data):
        # the harness computes one report per residue class mod p^(l+e)
        p = data.draw(st.sampled_from([p for p, _ in factorize(n)]))
        m = p ** (brute_valuation(n, p) + brute_valuation(k + 1, p))
        alpha = 1 + p * data.draw(st.integers(0, n // p))
        j = data.draw(st.integers(-5, 5).filter(bool))
        base = closed_form_congruence(n, k, alpha, p)
        shifted = closed_form_congruence(n, k, alpha + j * m, p)
        assert shifted.lhs_times_kp1 == base.lhs_times_kp1
        assert shifted.rhs_times_kp1 == base.rhs_times_kp1
        assert shifted.congruent == base.congruent


def expansion_valuations(n, k, alpha, p, j):
    # term j of S(n, k, 1 + y) expanded in powers of y is (y^j / j!) times
    # (n-1)-falling-(k+j) / (k+j+1) times n; returns nu_p of the weight and
    # of the fraction.  y = 0 at alpha = 1, where the weight is INFINITY
    weight = j * brute_valuation(alpha - 1, p) - legendre(j, p) if alpha != 1 else INFINITY
    fraction = falling_valuation(n - 1, k + j, p) - brute_valuation(k + j + 1, p)
    return weight, fraction


class TestExpansionTermValuations:
    # for alpha == 1 (mod p) and j >= 1 the weight has valuation at least 1
    # (p | y and nu_p(j!) < j) and the fraction at least -1, so every such
    # term is divisible by p**nu_p(n)
    def test_single_step_weight(self):
        assert expansion_valuations(6, 2, 4, 3, 1) == (1, 1)

    def test_weights_follow_legendre(self):
        # y = 9 has valuation 2, so the weight at j is 2j - nu_3(j!)
        for j in range(1, 10):
            weight, _ = expansion_valuations(10, 0, 10, 3, j)
            assert weight == 2 * j - brute_valuation(math.factorial(j), 3)
            assert weight >= 1

    def test_alpha_one_gives_infinite_weights(self):
        # y = 0 kills every term with j >= 1, leaving S(8, 1, 1) = 7 * 8 / 2
        for j in range(1, 7):
            weight, _ = expansion_valuations(8, 1, 1, 7, j)
            assert weight == INFINITY
        assert direct(8, 1, 1, 10**6) == 28

    def test_bounds_hold_on_grid(self):
        for n in range(2, 40):
            for p in (2, 3, 5):
                for alpha in (1, 1 + p, 1 + 3 * p, 1 - p):
                    for k in range(0, 4):
                        for j in range(1, n - k):
                            weight, fraction = expansion_valuations(n, k, alpha, p, j)
                            if alpha != 1:
                                assert weight >= 1
                            assert fraction >= -1

    def test_fraction_valuation_against_exact_values(self):
        n, k, alpha, p = 12, 1, 3, 2
        for j in range(1, n - k):
            weight, fraction = expansion_valuations(n, k, alpha, p, j)
            assert weight == j * brute_valuation(alpha - 1, p) - brute_valuation(math.factorial(j), p)
            assert fraction == brute_valuation(exact_falling(n - 1, k + j), p) - brute_valuation(
                k + j + 1, p
            )


def test_retired_lemma_entry_points_are_not_exported():
    # leibnitz_vanishing, ExpansionTerm and expansion_term_valuations were
    # removed; the statements they checked are the two test classes above
    import rootsum

    for name in ("leibnitz_vanishing", "ExpansionTerm", "expansion_term_valuations"):
        assert name not in rootsum.__all__ and name not in derivsum.__all__
        assert not hasattr(rootsum, name) and not hasattr(derivsum, name)
