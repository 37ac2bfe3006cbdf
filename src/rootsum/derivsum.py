"""Derivative sums of the geometric polynomial 1 + t + ... + t^(n-1).

S(n, k, alpha) denotes the k-th derivative of that polynomial at t = alpha,
i.e. the sum of i-falling-k * alpha^(i-k) over k <= i < n.  Terms with
i < k vanish identically because i-falling-k = 0 there, so the sum never
needs a negative power of alpha and is defined for every integer alpha.

Besides evaluation (direct summation or binary doubling, and a
chinese-remainder variant), this module checks the two structural
identities that explain when S vanishes:

* the Leibnitz product-rule closed form, obtained by differentiating
  (t^n - 1) * (t - 1)^(-1) k times, valid whenever 1 - t is a unit; and
* the congruence (k+1) * S(n, k, alpha) == (n-1)-falling-k * n modulo
  p^(l+e), which holds whenever alpha == 1 (mod p), where l = nu_p(n) and
  e = nu_p(k+1).  This is the integral, multiplied-through form of the
  statement that S is congruent to ((n-1)-falling-k / (k+1)) * n mod p^l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .falling import _falling_int
from .numtheory import (
    Residue,
    _crt_unit,
    _require_prime,
    _valuation_of_int,
    factorize,
    mod_inv,
)

__all__ = [
    "SumQuery",
    "CongruenceReport",
    "sum_direct",
    "sum_by_crt",
    "leibnitz_identity_check",
    "closed_form_congruence",
]


@dataclass(frozen=True)
class SumQuery:
    """Arguments for one evaluation of S(n, k, alpha) mod modulus.

    alpha may be any integer, of any sign; the result depends only on its
    residue class mod modulus.
    """

    n: int
    k: int
    alpha: int
    modulus: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")


_ROW_CHAIN_K = 32  # a cold chain recurses at most this deep and caches at most 33 of the 256 rows


@lru_cache(maxsize=256)
def _falling_row(n: int, k: int, m: int) -> tuple[int, ...]:
    # i-falling-k mod m for k <= i < n, from row k - 1 by
    # i-falling-k = i * (i-1)-falling-(k-1)
    if k == 0:
        return (1 % m,) * n
    if k > _ROW_CHAIN_K:
        return tuple(_falling_int(i, k, m) for i in range(k, n))
    return tuple(i * r % m for i, r in zip(range(k, n), _falling_row(n, k - 1, m)))


@lru_cache(maxsize=256)
def _period_row(n: int, k: int, m: int, period: int) -> tuple[int, ...]:
    # c_r with S(n, k, alpha) == sum of c_r * alpha^r (mod m) whenever
    # alpha^period == 1 (mod m).  i-falling-k mod m has period m in i and
    # is 0 for i < k, so the terms repeat every L = lcm(m, period) indices
    # and each full block of L adds the first one again.  At most len(row)
    # long: when period exceeds the row, c_r is the row itself.
    block = math.lcm(m, period)
    row = _falling_row(min(n, block), k, m)
    full, tail = divmod(n, block)
    stop = max(tail - k, 0)
    return tuple(
        (full * sum(row[r::period]) + sum(row[r:stop:period])) % m
        for r in range(min(period, len(row)))
    )


def _horner(coeffs: tuple[int, ...], a: int, m: int) -> int:
    # sum of coeffs[r] * a^r mod m: c_0 + a*(c_1 + a*(... + a*c_last))
    total = 0
    for c in reversed(coeffs):
        total = (total * a + c) % m
    return total


def _sum_mod(n: int, k: int, alpha: int, m: int) -> int:
    # the row of i-falling-k for k <= i < n is the coefficient list in alpha
    return _horner(_falling_row(n, k, m), alpha % m, m)


def _binomials(a: int, k: int, m: int) -> list[int]:
    # C(a, r) mod m for 0 <= r <= k, reduced from exact integers, since
    # r + 1 need not be a unit mod m
    row = [1 % m]
    c = 1
    for r in range(k):
        c = c * (a - r) // (r + 1)
        row.append(c % m)
    return row


def _sum_doubling(n: int, k: int, alpha: int, m: int) -> int:
    # S = k! * sum over j < n-k of C(j+k, k) alpha^j, and by Vandermonde
    # C(j+k, k) = sum over t of C(k, t) C(j, t).  T_t(N), the sum over
    # j < N of C(j, t) alpha^j, obeys
    #     T_t(A+B) = T_t(A) + alpha^A * sum over s of C(A, t-s) T_s(B),
    # so T(n-k) is built from the bits of n-k: O(k^2 log n) steps, no
    # division, any modulus and any alpha.
    length = n - k
    if length <= 0:
        return 0
    a = alpha % m
    t_vec = [0] * (k + 1)  # T(A)
    power = 1 % m  # alpha^A
    done = 0  # A
    for bit in bin(length)[2:]:
        if done:  # A -> 2A
            binom = _binomials(done, k, m)
            t_vec = [
                (x + power * sum(map(mul, binom[t::-1], t_vec))) % m
                for t, x in enumerate(t_vec)
            ]
            power = power * power % m
            done *= 2
        if bit == "1":  # A -> A+1: T_t gains C(A, t) alpha^A
            t_vec = [(x + power * c) % m for x, c in zip(t_vec, _binomials(done, k, m))]
            power = power * a % m
            done += 1
    total = sum(map(mul, _binomials(k, k, m), t_vec))
    return _falling_int(k, k, m) * total % m


def _sum_single(n: int, k: int, alpha: int, m: int) -> int:
    # one evaluation with no row to share: doubling once n - k exceeds
    # k * bit_length(n - k), direct summation below
    terms = n - k
    if terms > k * terms.bit_length():
        return _sum_doubling(n, k, alpha, m)
    return _sum_mod(n, k, alpha, m)


def sum_direct(q: SumQuery) -> Residue:
    """Evaluate S(n, k, alpha) mod modulus for one query.

    Two routes give the same residue:

    * direct summation over i from n-1 down to k in Horner form, over a
      row of falling factorials memoized per (n, k, modulus): row k is one
      multiply per term from row k - 1 (each term its own k-term product
      above k = 32), then one multiply-add per term, so O(n * k) cold and
      O(n-k) once row k or k - 1 is warm;
    * binary doubling over binomial sums (Vandermonde's identity), with
      no row and no division, in O(k^2 log n).

    Doubling runs when n - k exceeds k * bit_length(n - k), the ratio of
    the cold direct cost to the doubling cost with constants dropped.  That
    one bound keeps a large k on direct summation, where the k^2 cost of
    doubling outgrows the row, and sends every long sum with a small k to
    doubling, whether or not its row would be reused: a warm row beats
    doubling only when nearly every call repeats a key (at n = 1000,
    k = 12, above 90% of calls), and on short sums the two differ by a few
    microseconds.  Measured at modulus 1000003 and alpha 3, best of five
    calls on a 2-vCPU VM (direct cold: the median of three such runs, each
    building the whole chain of rows 0..k):

        n        k     doubling   direct cold   direct warm   route
        20       2     0.02 ms    0.008 ms      0.002 ms      doubling
        50       12    0.08 ms    0.07 ms       0.003 ms      direct
        100      12    0.08 ms    0.13 ms       0.007 ms      doubling
        300      12    0.11 ms    0.39 ms       0.03 ms       doubling
        1000     12    0.15 ms    1.4 ms        0.07 ms       doubling
        3000     12    0.19 ms    5.0 ms        0.29 ms       doubling
        1e5      12    0.39 ms    174 ms        7.2 ms        doubling
        2**31    12    0.55 ms    -             -             doubling
        1000     2     0.06 ms    0.32 ms       0.09 ms       doubling
        5000     100   4.8 ms     41 ms         0.36 ms       doubling
        3000     1000  208 ms     184 ms        0.20 ms       direct

    Each column is one timeit command, run from the repository root (shown
    at n = 1000, k = 12; the criterion, which evaluates no sum, for scale):

        PYTHONPATH=src python -m timeit -s "from rootsum.derivsum import _sum_doubling" "_sum_doubling(1000, 12, 3, 1000003)"
        PYTHONPATH=src python -m timeit -s "from rootsum.derivsum import _sum_mod, _falling_row" "_falling_row.cache_clear(); _sum_mod(1000, 12, 3, 1000003)"
        PYTHONPATH=src python -m timeit -s "from rootsum.derivsum import _sum_mod" "_sum_mod(1000, 12, 3, 1000003)"
        PYTHONPATH=src python -m timeit -s "from rootsum import predict_vanishing" "predict_vanishing(300, 12, 299)"

    Returns 0 when n <= k (empty sum).
    """
    return Residue(_sum_single(q.n, q.k, q.alpha, q.modulus), q.modulus)


def sum_by_crt(n: int, k: int, alpha: int) -> Residue:
    """Evaluate S(n, k, alpha) mod n through its prime-power parts.

    Factorizes n, evaluates the sum mod each p^l || n, and recombines by
    the chinese remainder theorem: the sum of each part residue times the
    unit vector that is 1 mod p^l and 0 mod n / p^l, the one
    roots_of_unity builds its roots with.  At n = 1 the sum is empty and
    the result is 0 mod 1.  Each part takes the route sum_direct takes for
    (n, k): binary doubling when n - k exceeds k * bit_length(n - k),
    direct summation otherwise (measurements in sum_direct).  Agrees with
    sum_direct at modulus n for every alpha; no root-of-unity hypothesis is
    involved.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    total = 0
    for p, ell in factorize(n):
        q = p**ell
        total += _sum_single(n, k, alpha, q) * _crt_unit(n, q)
    return Residue(total, n)


def _leibnitz_rhs(n: int, k: int, t: int, m: int) -> int:
    """The product-rule closed form of S(n, k, t) mod m.

    Writing the geometric polynomial as (t^n - 1) * (t - 1)^(-1) and
    differentiating k times:

        S(n, k, t) = -(t^n - 1) * k! * (1-t)^(-1-k)
                     - sum over 0 <= i < k of
                       k-falling-i * n-falling-(k-i) * t^(n-k+i) * (1-t)^(-1-i)

    Raises NotAUnitError when 1 - t is not invertible mod m.  Terms whose
    power of t would be negative carry the integer coefficient
    n-falling-(k-i) = 0 (as k - i > n there) and are skipped exactly.
    """
    u = mod_inv(1 - t, m).value
    t_red = t % m
    rhs = -(pow(t_red, n, m) - 1) * _falling_int(k, k, m) % m * pow(u, k + 1, m) % m
    for i in range(k):
        if k - i > n:
            continue
        coeff = _falling_int(k, i, m) * _falling_int(n, k - i, m) % m
        term = coeff * pow(t_red, n - k + i, m) % m * pow(u, i + 1, m) % m
        rhs = (rhs - term) % m
    return rhs


def leibnitz_identity_check(n: int, k: int, t: int, m: int) -> bool:
    """Compare direct summation of S(n, k, t) with the Leibnitz closed form.

    An algebraic identity: the result must be True whenever the
    precondition gcd(1 - t, m) = 1 holds.  A False return disproves the
    implementation (or the identity).
    """
    if n < 1 or k < 0:
        raise ValueError("leibnitz_identity_check requires n >= 1 and k >= 0")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return _sum_mod(n, k, t, m) == _leibnitz_rhs(n, k, t, m)


def _near_unity_sides(n: int, k: int, p: int) -> tuple[int, tuple[int, ...], int]:
    # (m, row, rhs) for the near-unity congruence at (n, k, p): the modulus
    # m = p^(l+e), the period sums with S(n, k, alpha) ==
    # _horner(row, alpha mod m, m) (mod m) for every alpha == 1 (mod p), and
    # the right side (n-1)-falling-k * n mod m.  p is prime.
    m = p ** (_valuation_of_int(n, p) + _valuation_of_int(k + 1, p))
    return m, _period_row(n, k, m, m // p or 1), _falling_int(n - 1, k, m) * (n % m) % m


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one near-unity congruence check.

    Both sides are the multiplied-through integers: lhs is (k+1) * S and
    rhs is (n-1)-falling-k * n, compared mod p^(ell + e).  ``congruent``
    must be True whenever alpha == 1 (mod p); False would disprove the
    congruence.
    """

    p: int
    ell: int
    lhs_times_kp1: Residue
    rhs_times_kp1: Residue
    congruent: bool


def closed_form_congruence(n: int, k: int, alpha: int, p: int) -> CongruenceReport:
    """Check (k+1) * S(n, k, alpha) == (n-1)-falling-k * n mod p^(l+e).

    Requires alpha == 1 (mod p); p need not divide n (then l = 0 and the
    congruence lives mod p^e alone).  Dividing by k+1 recovers the rational
    statement mod p^l, since multiplying by k+1 shifts every p-valuation by
    exactly e.

    S is evaluated mod m = p^(l+e) as a polynomial in alpha of degree below
    m/p: every alpha == 1 (mod p) has alpha^(m/p) == 1 (mod m), so the n - k
    terms fold into at most m/p period sums, memoized per (n, k, m), and
    each call is one Horner pass over those.  The modulus, the period sums
    and the right side come from _near_unity_sides, which the
    --check-lemmas loop also reads, once per (p, k).
    """
    if n < 1 or k < 0:
        raise ValueError("closed_form_congruence requires n >= 1 and k >= 0")
    _require_prime(p)
    if alpha % p != 1:
        raise ValueError(f"alpha = {alpha} must be 1 mod {p}")
    m, row, rhs = _near_unity_sides(n, k, p)
    lhs = (k + 1) * _horner(row, alpha % m, m) % m
    return CongruenceReport(
        p=p,
        ell=_valuation_of_int(n, p),
        lhs_times_kp1=Residue(lhs, m),
        rhs_times_kp1=Residue(rhs, m),
        congruent=lhs == rhs,
    )
