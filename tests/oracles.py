"""Brute-force reference implementations used as test oracles.

Everything here is deliberately independent of the library: exact big-int
arithmetic and naive loops, plus binary doubling as the one reference that
reaches n up to 2**31, so that agreement with the fast paths is evidence
rather than tautology.
"""

from __future__ import annotations

import math
from operator import mul


def naive_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def naive_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while n > 1:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    return out


def brute_valuation(x: int, p: int) -> int:
    """Largest v with p**v dividing x; x must be nonzero."""
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def exact_falling(n: int, k: int) -> int:
    """n(n-1)...(n-k+1) as an exact integer."""
    out = 1
    for f in range(n, n - k, -1):
        out *= f
    return out


def brute_sum(n: int, k: int, alpha: int, m: int) -> int:
    """S(n, k, alpha) mod m from exact integers, reduced once at the end.

    Terms with i < k have an exactly-zero falling factor and are skipped,
    mirroring the definition without ever forming a negative power.
    """
    total = 0
    for i in range(n):
        ff = exact_falling(i, k)
        if ff:
            total += ff * alpha ** (i - k)
    return total % m


def binomials(a: int, k: int, m: int) -> list[int]:
    """C(a, r) mod m for 0 <= r <= k, reduced from exact integers."""
    row = [1 % m]
    c = 1
    for r in range(k):
        c = c * (a - r) // (r + 1)
        row.append(c % m)
    return row


def sum_doubling(n: int, k: int, alpha: int, m: int) -> int:
    """S(n, k, alpha) mod m by binary doubling over binomial sums.

    The large-n reference, in O(k^2 log n) with no division mod m.
    S = k! * sum over j < n-k of C(j+k, k) alpha^j, and by Vandermonde
    C(j+k, k) = sum over t of C(k, t) C(j, t).  T_t(N), the sum over j < N
    of C(j, t) alpha^j, obeys
        T_t(A+B) = T_t(A) + alpha^A * sum over s of C(A, t-s) T_s(B),
    so T(n-k) is built from the bits of n-k.
    """
    length = n - k
    if length <= 0:
        return 0
    a = alpha % m
    t_vec = [0] * (k + 1)  # T(A)
    power = 1 % m  # alpha^A
    done = 0  # A
    for bit in bin(length)[2:]:
        if done:  # A -> 2A
            binom = binomials(done, k, m)
            t_vec = [
                (x + power * sum(map(mul, binom[t::-1], t_vec))) % m
                for t, x in enumerate(t_vec)
            ]
            power = power * power % m
            done *= 2
        if bit == "1":  # A -> A+1: T_t gains C(A, t) alpha^A
            t_vec = [(x + power * c) % m for x, c in zip(t_vec, binomials(done, k, m))]
            power = power * a % m
            done += 1
    total = sum(map(mul, binomials(k, k, m), t_vec))
    return math.factorial(k) * total % m


def naive_mod_pow(base: int, exp: int, m: int) -> int:
    out = 1 % m
    for _ in range(exp):
        out = out * base % m
    return out


def naive_roots(n: int) -> list[int]:
    """Roots of unity mod n via repeated multiplication, no pow()."""
    out = []
    for a in range(n):
        acc = 1 % n
        for _ in range(n):
            acc = acc * a % n
        if acc == 1 % n:
            out.append(a)
    return out


def crt_brute_search(residues: list[tuple[int, int]]) -> tuple[int, int]:
    """Scan 0..prod-1 for the unique value matching every (value, modulus)."""
    prod = 1
    for _, m in residues:
        prod *= m
    hits = [
        x for x in range(prod) if all(x % m == v % m for v, m in residues)
    ]
    assert len(hits) == 1, f"expected a unique solution, got {hits}"
    return hits[0], prod
