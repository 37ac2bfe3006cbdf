"""Tests for the clause criterion, root enumeration and explanations."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsum import (
    explain,
    predict_vanishing,
    roots_of_unity,
)
from rootsum.cli import MAX_ROOTS
from rootsum.criterion import _root_count
from oracles import brute_sum, naive_is_prime, naive_roots


class TestPredictVanishing:
    def test_flagship_case_fires_clause_c(self):
        v = predict_vanishing(6, 2, 5)
        assert v.vanishes_predicted
        assert v.clauses == frozenset({"c"})
        # q = 3 divides 6, so only the alpha disjunct carries the clause
        assert v.witness["q"] == 3
        assert v.witness["q_divides_n"] is True
        assert v.witness["alpha_is_one_mod_q"] is False

    def test_four_dividing_n_blocks_everything(self):
        v = predict_vanishing(4, 3, 1)
        assert not v.vanishes_predicted
        assert v.clauses == frozenset()
        assert v.witness["four_divides_n"] is True

    def test_composite_k_plus_one_fires_clause_a(self):
        v = predict_vanishing(7, 5, 1)
        assert v.clauses == frozenset({"a"})
        assert brute_sum(7, 5, 1, 7) == 0

    def test_n_one_always_vanishes(self):
        for k in range(0, 12):
            for alpha in (0, 1, 7):
                assert predict_vanishing(1, k, alpha).vanishes_predicted

    def test_clause_characterization_exhaustive(self):
        for n in range(1, 41):
            for k in range(0, 13):
                q = k + 1
                for alpha in range(n):
                    v = predict_vanishing(n, k, alpha)
                    expect_a = q != 4 and not naive_is_prime(q)
                    expect_b = q == 4 and n % 4 != 0
                    expect_c = naive_is_prime(q) and (n % q != 0 or alpha % q != 1)
                    assert ("a" in v.clauses) == expect_a
                    assert ("b" in v.clauses) == expect_b
                    assert ("c" in v.clauses) == expect_c
                    assert v.vanishes_predicted == bool(v.clauses)
                    assert len(v.clauses) <= 1  # the clauses partition on k+1

    def test_clause_a_depends_only_on_k(self):
        for k in (5, 7, 8, 9, 11, 13, 14):  # k+1 in {6, 8, 9, 10, 12, 14, 15}
            assert predict_vanishing(3, k, 2).clauses == frozenset({"a"})
            for n in (1, 4, 9, 30, 128):
                for alpha in (0, 1, n - 1):
                    assert predict_vanishing(n, k, alpha).vanishes_predicted

    @given(st.integers(1, 300), st.integers(0, 20), st.integers(-1000, 1000))
    @settings(max_examples=200)
    def test_invariant_under_alpha_shift(self, n, k, alpha):
        # shifting by a common multiple of n and k+1 preserves the witness too
        assert predict_vanishing(n, k, alpha) == predict_vanishing(n, k, alpha + n * (k + 1) * 7)

    @given(st.integers(1, 300), st.integers(0, 20), st.integers(-1000, 1000))
    @settings(max_examples=200)
    def test_verdict_invariant_under_adding_n(self, n, k, alpha):
        a = predict_vanishing(n, k, alpha)
        b = predict_vanishing(n, k, alpha + n)
        assert a.vanishes_predicted == b.vanishes_predicted
        assert a.clauses == b.clauses

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            predict_vanishing(0, 1, 1)
        with pytest.raises(ValueError):
            predict_vanishing(5, -1, 1)


class TestRootsOfUnity:
    def test_n_one(self):
        assert roots_of_unity(1) == (0,)

    def test_six(self):
        assert roots_of_unity(6) == (1, 5)

    def test_primes_have_only_one(self):
        # Fermat: alpha^p == alpha (mod p), so alpha^p == 1 forces alpha == 1
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            assert roots_of_unity(p) == (1,)

    def test_matches_naive_enumeration(self):
        for n in range(1, 120):
            assert list(roots_of_unity(n)) == naive_roots(n)

    def test_one_is_always_a_member(self):
        for n in range(1, 200):
            assert 1 % n in roots_of_unity(n)

    def test_group_closure_and_inverses_to_1000(self):
        for n in range(1, 1001):
            rs = roots_of_unity(n)
            members = set(rs)
            assert sorted(members) == list(rs)
            for a in rs:
                assert pow(a, n - 1, n) in members  # alpha^(n-1) inverts alpha
                for b in rs:
                    assert a * b % n in members

    def test_membership_is_canonical(self):
        # members are the representatives in [0, n); other integers are not
        rs = roots_of_unity(6)
        assert 5 in rs
        assert 11 not in rs
        assert 2 not in rs


def gcd_product_count(n):
    # prod over p^l || n of gcd(n, phi(p^l)), by trial division to sqrt(n)
    count, rest, d = 1, n, 2
    while d * d <= rest:
        if rest % d == 0:
            q = 1
            while rest % d == 0:
                rest //= d
                q *= d
            count *= math.gcd(n, q // d * (d - 1))
        d += 1
    if rest > 1:
        count *= math.gcd(n, rest - 1)
    return count


def assert_all_roots(n, rs):
    # distinct valid roots, as many as the gcd product, are all of them
    assert _root_count(n) == gcd_product_count(n) == len(rs)
    assert all(a < b for a, b in zip(rs, rs[1:]))
    assert 0 <= rs[0] and rs[-1] < n
    assert all(pow(a, n, n) == 1 % n for a in rs)


class TestStructuralRoots:
    def test_matches_pow_trial_to_2000(self):
        for n in range(1, 2001):
            one = 1 % n
            assert roots_of_unity(n) == tuple(a for a in range(n) if pow(a, n, n) == one), n

    @pytest.mark.parametrize(
        "n",
        [
            1,
            2, 4, 2**10, 2**16,  # 2^l: every odd residue
            3**7, 5**5, 7**4,  # p^l
            # 5 is the least primitive root mod 40487 but 5^40486 == 1 (mod 40487^2),
            # so only the lifted generator 5 + 40487 reaches every root
            40487**2,
            2 * 3**7, 2 * 7**4, 2 * 40487,  # 2 p^l
        ],
    )
    def test_prime_power_shapes(self, n):
        assert_all_roots(n, roots_of_unity(n))

    def test_random_n_below_the_input_cap(self):
        rng = random.Random(20190118)
        checked = 0
        while checked < 50:
            n = rng.randrange(1, 2**31)
            if gcd_product_count(n) > MAX_ROOTS:
                continue
            assert_all_roots(n, roots_of_unity(n))
            checked += 1


class TestExplain:
    def test_flagship_case(self):
        e = explain(6, 2, 5)
        assert e.agree and e.hypothesis_ok
        assert e.oracle_residue == 0
        assert e.verdict.clauses == frozenset({"c"})

    def test_hypothesis_violation_is_flagged(self):
        e = explain(6, 2, 4)  # 4^6 is 4 mod 6
        assert not e.hypothesis_ok

    def test_non_vanishing_case_agrees(self):
        e = explain(4, 3, 1)
        assert e.agree
        assert e.oracle_residue == 2
        assert not e.verdict.vanishes_predicted

    def test_agreement_over_all_roots_small_range(self):
        for n in range(1, 50):
            for alpha in roots_of_unity(n):
                for k in range(0, 8):
                    e = explain(n, k, alpha)
                    assert e.hypothesis_ok
                    assert e.agree, (n, k, alpha)
