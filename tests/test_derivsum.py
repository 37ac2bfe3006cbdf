"""Tests for the derivative-sum evaluators and the structural identities."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsum import (
    INFINITY,
    NotAUnitError,
    SumQuery,
    closed_form_congruence,
    expansion_term_valuations,
    factorize,
    legendre,
    leibnitz_identity_check,
    leibnitz_vanishing,
    roots_of_unity,
    sum_by_crt,
    sum_direct,
)
from rootsum import derivsum
from rootsum.derivsum import _sum_doubling, _sum_mod
from oracles import brute_sum, brute_valuation, exact_falling


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
            assert _sum_doubling(n, k, alpha, m) == brute_sum(n, k, alpha, m), (n, k, alpha, m)

    def test_route_boundary(self, monkeypatch):
        # doubling takes the fewest terms n - k above k * bit_length(n - k);
        # one term fewer stays direct
        routed = []

        def spy(*args):
            routed.append(args)
            return _sum_doubling(*args)

        monkeypatch.setattr(derivsum, "_sum_doubling", spy)
        for k, first in ((1, 3), (2, 7), (5, 26), (12, 85)):
            for terms in (first - 1, first):
                n = k + terms
                for alpha, m in ((3, 1000003), (-2, 360), (n - 1, n)):
                    routed.clear()
                    assert direct(n, k, alpha, m) == _sum_mod(n, k, alpha, m)
                    assert routed == ([(n, k, alpha, m)] if terms == first else [])

    def test_large_k_stays_direct(self, monkeypatch):
        # k * bit_length(n - k) above n - k: the k^2 cost would outgrow the row
        monkeypatch.setattr(derivsum, "_sum_doubling", None)
        assert direct(3000, 1000, 3, 1000003) == _sum_doubling(3000, 1000, 3, 1000003)

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
                    assert _sum_doubling(n, k, alpha, n) == _sum_mod(n, k, alpha, n), (n, k, alpha)
                    triples += 1
        assert triples == 42_835


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
    def test_flagship_case(self):
        r = leibnitz_vanishing(6, 2, 5, 3, 1)
        assert (r.value, r.modulus) == (0, 3)
        assert direct(6, 2, 5, 3) == 0

    def test_zeroth_derivative(self):
        assert brute_sum(6, 0, 5, 3) == 0
        r = leibnitz_vanishing(6, 0, 5, 3, 1)
        assert (r.value, r.modulus) == (0, 3)

    def test_rejects_non_root(self):
        # 2^5 = 32 is 2 mod 5, not 1
        with pytest.raises(ValueError):
            leibnitz_vanishing(5, 1, 2, 5, 1)

    def test_rejects_alpha_congruent_one(self):
        with pytest.raises(ValueError):
            leibnitz_vanishing(6, 2, 4, 3, 1)  # 4 is 1 mod 3

    def test_rejects_modulus_not_dividing_n(self):
        with pytest.raises(ValueError):
            leibnitz_vanishing(6, 2, 5, 3, 2)  # 9 does not divide 6

    def test_vanishes_and_matches_direct_on_range(self):
        checked = 0
        for n in range(2, 61):
            for p, ell in factorize(n):
                q = p**ell
                for alpha in range(q):
                    if alpha % p == 1 or pow(alpha, n, q) != 1 % q:
                        continue
                    for k in range(0, 7):
                        r = leibnitz_vanishing(n, k, alpha, p, ell)
                        assert r.value == 0
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


class TestExpansionTermValuations:
    def test_single_step_weight(self):
        terms = expansion_term_valuations(6, 2, 4, 3, 3)
        assert [t.j for t in terms] == [1, 2, 3]
        assert terms[0].weight_valuation == 1
        assert terms[0].fraction_valuation == 1

    def test_weights_follow_legendre(self):
        # y = 9 has valuation 2, so the weight at j is 2j - nu_3(j!)
        terms = expansion_term_valuations(10, 0, 10, 3, 5)
        for t in terms:
            assert t.weight_valuation == 2 * t.j - legendre(t.j, 3)
            assert t.weight_valuation >= 1

    def test_alpha_one_gives_infinite_weights(self):
        terms = expansion_term_valuations(8, 1, 1, 7, 4)
        assert all(t.weight_valuation == INFINITY for t in terms)

    def test_bounds_hold_on_grid(self):
        for n in range(2, 40):
            for p in (2, 3, 5):
                for alpha in (1, 1 + p, 1 + 3 * p, 1 - p):
                    for k in range(0, 4):
                        j_max = n - 1 - k
                        if j_max < 0:
                            continue
                        for t in expansion_term_valuations(n, k, alpha, p, j_max):
                            assert t.weight_valuation >= 1
                            assert t.fraction_valuation >= -1

    def test_fraction_valuation_against_exact_values(self):
        n, k, p = 12, 1, 2
        for t in expansion_term_valuations(n, k, 3, p, n - 1 - k):
            exact = exact_falling(n - 1, k + t.j)
            if exact == 0:
                assert t.fraction_valuation == INFINITY
            else:
                assert t.fraction_valuation == brute_valuation(exact, p) - brute_valuation(
                    k + t.j + 1, p
                )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expansion_term_valuations(6, 2, 5, 3, 1)  # 5 is not 1 mod 3
        with pytest.raises(ValueError):
            expansion_term_valuations(6, 2, 4, 3, 4)  # j_max above n-1-k
