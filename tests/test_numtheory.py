"""Tests for the integer and modular arithmetic primitives."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsum import (
    INFINITY,
    NotAUnitError,
    Residue,
    crt_combine,
    expansion_term_valuations,
    factorize,
    falling_valuation,
    is_prime,
    legendre,
    mod_inv,
    mod_pow,
    nu_p,
    valuation_bounds,
)
from rootsum import numtheory
from oracles import (
    brute_valuation,
    crt_brute_search,
    naive_factorize,
    naive_is_prime,
    naive_mod_pow,
)

PRIMES = [2, 3, 5, 7, 11, 13, 47]


class TestResidue:
    def test_normalizes_value(self):
        assert Residue(17, 5).value == 2
        assert Residue(-1, 7).value == 6
        assert Residue(-14, 7).value == 0

    def test_modulus_one_forces_zero(self):
        assert Residue(12345, 1).value == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            Residue(0, 0)
        with pytest.raises(ValueError):
            Residue(3, -2)

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_always_reduced(self, v, m):
        r = Residue(v, m)
        assert 0 <= r.value < m


class TestIsPrime:
    def test_matches_naive_scan(self):
        # negative n must be rejected before factorize, which raises below 1
        for n in range(-50, 500):
            assert is_prime(n) == naive_is_prime(n), n

    def test_large_exact_cases(self):
        assert is_prime(2**31 - 1)
        assert 3 * 715827883 == 2**31 + 1
        assert not is_prime(2**31 + 1)
        assert not is_prime(2 * 1_000_000_007)


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == []

    def test_twelve(self):
        assert factorize(12) == [(2, 2), (3, 1)]

    def test_360_against_oracle(self):
        expected = naive_factorize(360)
        assert expected == [(2, 3), (3, 2), (5, 1)]
        assert factorize(360) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_invariants_small_range(self):
        for n in range(1, 3000):
            fac = factorize(n)
            primes = [p for p, _ in fac]
            assert primes == sorted(primes) and len(set(primes)) == len(primes)
            assert all(naive_is_prime(p) for p in primes)
            assert all(e >= 1 for _, e in fac)
            prod = 1
            for p, e in fac:
                prod *= p**e
            assert prod == n

    @given(st.integers(1, 10**6))
    def test_round_trip(self, n):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


class TestNuP:
    def test_twelve_has_two_factors_of_two(self):
        assert nu_p(12, 2) == 2

    def test_zero_is_infinite(self):
        assert nu_p(0, 3) == INFINITY
        assert nu_p(Fraction(0), 5) == INFINITY

    def test_fraction_oracle(self):
        # nu_5(7/50) = nu_5(7) - nu_5(50)
        assert brute_valuation(7, 5) - brute_valuation(50, 5) == -2
        assert nu_p(Fraction(7, 50), 5) == -2

    def test_negative_inputs(self):
        assert nu_p(-12, 2) == 2
        assert nu_p(Fraction(-7, 50), 5) == -2

    def test_rejects_non_prime(self):
        for p in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError):
                nu_p(10, p)

    @given(
        st.integers(-10**6, 10**6).filter(lambda x: x != 0),
        st.integers(-10**6, 10**6).filter(lambda x: x != 0),
        st.sampled_from(PRIMES),
    )
    def test_additive_on_products(self, a, b, p):
        assert nu_p(a * b, p) == nu_p(a, p) + nu_p(b, p)

    def test_infinity_sentinel_compares_above_everything(self):
        assert INFINITY > 10**18
        assert not INFINITY < 0


class TestLegendre:
    def test_empty_factorial(self):
        assert legendre(0, 2) == 0

    def test_ten_factorial_against_oracle(self):
        fact = math.factorial(10)
        assert brute_valuation(fact, 2) == 8
        assert legendre(10, 2) == 8

    def test_below_p_no_factors(self):
        for p in PRIMES:
            assert legendre(p - 1, p) == 0

    def test_matches_factorwise_valuation(self):
        for p in (2, 3, 7):
            acc = 0
            for j in range(1, 400):
                acc += brute_valuation(j, p)
                assert legendre(j, p) == acc

    def test_strictly_below_j(self):
        for p in PRIMES:
            for j in range(1, 400):
                assert legendre(j, p) < j

    def test_rejects_negative_or_composite(self):
        with pytest.raises(ValueError):
            legendre(-1, 2)
        with pytest.raises(ValueError):
            legendre(10, 4)


class TestPrimeCheckedOncePerCall:
    # each valuation helper checks p itself, then sums Legendre unchecked
    @pytest.mark.parametrize(
        "fn, args, checks",
        [
            (falling_valuation, (12, 5, 3), 1),
            (valuation_bounds, (12, 5, 3), 2),
            (expansion_term_valuations, (12, 2, 5, 2, 6), 7),
        ],
        ids=["falling_valuation", "valuation_bounds", "expansion_term_valuations"],
    )
    def test_is_prime_calls(self, monkeypatch, fn, args, checks):
        real = numtheory.is_prime
        calls = []

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(numtheory, "is_prime", counting)
        fn(*args)
        assert len(calls) == checks


class TestModPow:
    def test_root_of_unity_case(self):
        assert mod_pow(5, 6, 6).value == 1

    def test_zero_exponent(self):
        assert mod_pow(123, 0, 7).value == 1
        assert mod_pow(123, 0, 1).value == 0

    def test_plain_value(self):
        assert mod_pow(2, 10, 1000).value == 24

    def test_negative_base(self):
        assert mod_pow(-2, 3, 7).value == naive_mod_pow(-2 % 7, 3, 7)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            mod_pow(2, -1, 7)

    @given(st.integers(-10**6, 10**6), st.integers(0, 64), st.integers(1, 10**4))
    @settings(max_examples=150)
    def test_matches_repeated_multiplication(self, base, exp, m):
        assert mod_pow(base, exp, m).value == naive_mod_pow(base % m, exp, m)


class TestModInv:
    def test_identity(self):
        assert mod_inv(1, 9).value == 1
        assert mod_inv(1, 1).value == 0

    def test_minus_one_is_self_inverse(self):
        assert mod_inv(-1, 7).value == 6

    def test_four_mod_nine_against_search(self):
        expected = next(x for x in range(9) if 4 * x % 9 == 1)
        assert expected == 7
        assert mod_inv(4, 9).value == 7

    def test_non_unit_raises(self):
        with pytest.raises(NotAUnitError):
            mod_inv(6, 9)
        with pytest.raises(NotAUnitError):
            mod_inv(0, 5)

    def test_not_a_unit_is_a_value_error(self):
        assert issubclass(NotAUnitError, ValueError)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    @settings(max_examples=150)
    def test_inverse_property(self, a, m):
        if math.gcd(a, m) == 1:
            inv = mod_inv(a, m).value
            assert inv * a % m == 1 % m
        else:
            with pytest.raises(NotAUnitError):
                mod_inv(a, m)


class TestCrtCombine:
    def test_two_small_moduli(self):
        r = crt_combine([Residue(0, 2), Residue(1, 3)])
        assert (r.value, r.modulus) == (4, 6)

    def test_singleton_identity(self):
        r = crt_combine([Residue(5, 7)])
        assert (r.value, r.modulus) == (5, 7)

    def test_empty_combination(self):
        r = crt_combine([])
        assert (r.value, r.modulus) == (0, 1)

    def test_prime_power_moduli_against_scan(self):
        expected = crt_brute_search([(2, 4), (2, 9)])
        assert expected == (2, 36)
        r = crt_combine([Residue(2, 4), Residue(2, 9)])
        assert (r.value, r.modulus) == expected

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_combine([Residue(1, 6), Residue(3, 4)])

    def test_modulus_one_inputs_are_neutral(self):
        r = crt_combine([Residue(0, 1), Residue(3, 5), Residue(0, 1)])
        assert (r.value, r.modulus) == (3, 5)

    @given(st.data())
    @settings(max_examples=150)
    def test_agrees_with_exhaustive_search(self, data):
        moduli_pool = [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]
        chosen: list[int] = []
        prod = 1
        for m in data.draw(st.permutations(moduli_pool)):
            if prod * m <= 10**4 and all(math.gcd(m, c) == 1 for c in chosen):
                chosen.append(m)
                prod *= m
        residues = [
            Residue(data.draw(st.integers(0, m - 1)), m) for m in chosen
        ]
        combined = crt_combine(residues)
        expected = crt_brute_search([(r.value, r.modulus) for r in residues])
        assert (combined.value, combined.modulus) == expected
