"""Tests for falling factorials, their valuations, sums and integrality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsum import (
    INFINITY,
    falling_mod,
    falling_sum,
    falling_valuation,
    integrality_check,
    valuation_bounds,
)
from oracles import brute_valuation, exact_falling

PRIMES = [2, 3, 5, 7, 11, 13]


class TestFallingMod:
    def test_small_product(self):
        assert exact_falling(5, 2) == 20
        assert falling_mod(5, 2, 1000).value == 20

    def test_zero_when_base_below_depth(self):
        assert falling_mod(3, 5, 97).value == 0

    def test_wraps_modulus(self):
        assert exact_falling(6, 3) == 120
        assert falling_mod(6, 3, 7).value == 1

    def test_depth_zero_is_one(self):
        assert falling_mod(0, 0, 50).value == 1
        assert falling_mod(9, 0, 1).value == 0  # 1 mod 1

    def test_base_zero_positive_depth(self):
        assert falling_mod(0, 3, 11).value == 0

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            falling_mod(-1, 2, 7)
        with pytest.raises(ValueError):
            falling_mod(2, -1, 7)
        with pytest.raises(ValueError):
            falling_mod(2, 1, 0)

    def test_matches_exact_product_on_grid(self):
        for n in range(0, 40):
            for k in range(0, 14):
                for m in (1, 2, 7, 97, 10**9):
                    assert falling_mod(n, k, m).value == exact_falling(n, k) % m

    def test_integer_zero_iff_base_below_depth(self):
        big = 10**30  # exceeds any falling value on this grid
        for n in range(0, 25):
            for k in range(0, 25):
                assert (falling_mod(n, k, big).value == 0) == (n < k)

    def test_divisible_by_every_small_d(self):
        for n in range(0, 300):
            for k in range(1, 13):
                for d in range(1, k + 1):
                    assert falling_mod(n, k, d).value == 0


class TestDeltaIdentity:
    """(i+1)-falling-(k+1) minus i-falling-(k+1) equals (k+1) * i-falling-k."""

    def test_exhaustive_small_grid(self):
        for i in range(0, 120):
            for k in range(0, 13):
                for m in (16, 97, 10**9):
                    lhs = (
                        falling_mod(i + 1, k + 1, m).value
                        - falling_mod(i, k + 1, m).value
                    ) % m
                    rhs = (k + 1) * falling_mod(i, k, m).value % m
                    assert lhs == rhs

    @given(
        st.integers(0, 2000),
        st.integers(0, 20),
        st.integers(1, 10**9),
    )
    @settings(max_examples=200)
    def test_random(self, i, k, m):
        lhs = (falling_mod(i + 1, k + 1, m).value - falling_mod(i, k + 1, m).value) % m
        rhs = (k + 1) * falling_mod(i, k, m).value % m
        assert lhs == rhs


class TestFallingSum:
    def test_direct_example(self):
        # 0 + 0 + 2 + 6 + 12; the telescoped form is 5*4*3 / 3 = 20
        assert sum(exact_falling(i, 2) for i in range(5)) == 20
        assert falling_sum(0, 5, 2, 10**6).value == 20

    def test_empty_block(self):
        assert falling_sum(7, 7, 3, 99).value == 0

    def test_single_term(self):
        assert falling_sum(2, 3, 2, 100).value == 2

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            falling_sum(5, 4, 2, 100)

    def test_matches_exact_summation_on_grid(self):
        for n0 in range(0, 20):
            for n1 in range(n0, 25):
                for k in (0, 1, 2, 5):
                    exact = sum(exact_falling(i, k) for i in range(n0, n1))
                    assert falling_sum(n0, n1, k, 10**6).value == exact % 10**6

    def test_multiplied_telescoping_form_small_grid(self):
        # (k+1) * sum == n1-falling-(k+1) - n0-falling-(k+1)  (mod m)
        for m in (97, 10**9):
            for n1 in range(0, 60):
                for n0 in range(0, n1 + 1):
                    for k in range(0, 9):
                        lhs = (k + 1) * falling_sum(n0, n1, k, m).value % m
                        rhs = (
                            falling_mod(n1, k + 1, m).value
                            - falling_mod(n0, k + 1, m).value
                        ) % m
                        assert lhs == rhs

    @given(
        st.integers(0, 800),
        st.integers(0, 800),
        st.integers(0, 12),
        st.integers(1, 10**9),
    )
    @settings(max_examples=100)
    def test_multiplied_telescoping_form_random(self, a, b, k, m):
        n0, n1 = min(a, b), max(a, b)
        lhs = (k + 1) * falling_sum(n0, n1, k, m).value % m
        rhs = (falling_mod(n1, k + 1, m).value - falling_mod(n0, k + 1, m).value) % m
        assert lhs == rhs


class TestFallingValuation:
    def test_depth_zero(self):
        assert falling_valuation(7, 0, 5) == 0

    def test_factor_loop_example(self):
        assert brute_valuation(exact_falling(4, 3), 2) == 3
        assert falling_valuation(4, 3, 2) == 3

    def test_zero_product_is_infinite(self):
        assert falling_valuation(3, 5, 2) == INFINITY

    def test_matches_exact_valuation_on_grid(self):
        for n in range(0, 60):
            for k in range(0, 12):
                for p in (2, 3, 5):
                    v = falling_valuation(n, k, p)
                    exact = exact_falling(n, k)
                    if exact == 0:
                        assert v == INFINITY
                    else:
                        assert v == brute_valuation(exact, p)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            falling_valuation(5, 2, 6)


class TestIntegralityCheck:
    def test_depth_zero_always_integer(self):
        for n in (1, 2, 5, 100):
            assert integrality_check(n, 0).is_integer

    def test_four_divides_n_case(self):
        v = integrality_check(4, 3)
        assert not v.is_integer
        assert v.failing_prime == 2
        assert v.clause == "i"

    def test_prime_divides_n_case(self):
        # 5*4 / 3 = 20/3
        assert Fraction(exact_falling(5, 2), 3).denominator != 1
        v = integrality_check(6, 2)
        assert not v.is_integer
        assert v.failing_prime == 3
        assert v.clause == "ii"

    def test_failure_reports_are_complete(self):
        for n in range(1, 120):
            for k in range(0, 16):
                v = integrality_check(n, k)
                if not v.is_integer:
                    assert v.failing_prime is not None
                    assert v.clause in ("i", "ii")

    def test_against_exact_rational_division(self):
        for n in range(1, 31):
            for k in range(0, 13):
                exact = Fraction(exact_falling(n - 1, k), k + 1)
                assert integrality_check(n, k).is_integer == (exact.denominator == 1)


class TestValuationBounds:
    def test_four_dividing_eight(self):
        b = valuation_bounds(8, 3, 2)
        assert (b.e, b.v, b.case, b.fraction_negative) == (2, 1, "b", True)

    def test_prime_dividing_n(self):
        assert brute_valuation(exact_falling(4, 4), 5) == 0
        b = valuation_bounds(5, 4, 5)
        assert (b.e, b.v, b.case, b.fraction_negative) == (1, 0, "b", True)

    def test_composite_k_plus_one(self):
        assert brute_valuation(exact_falling(6, 5), 2) == 4
        b = valuation_bounds(7, 5, 2)
        assert (b.e, b.case, b.fraction_negative) == (1, "a", False)
        assert b.v == 4

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            valuation_bounds(5, 3, 3)  # 3 does not divide 4

    def test_lemma_inequalities_small_grid(self):
        for n in range(1, 200):
            for k in range(1, 21):
                for p in PRIMES:
                    if (k + 1) % p != 0:
                        continue
                    b = valuation_bounds(n, k, p)
                    if b.case == "a":
                        assert b.v >= b.e
                    else:
                        assert b.v >= b.e - 1
                        if b.v == b.e - 1:
                            assert n % p == 0
                    expect_negative = k + 1 in (4, p) and n % (k + 1) == 0
                    assert b.fraction_negative == expect_negative
                    if b.fraction_negative:
                        assert b.v - b.e == -1
