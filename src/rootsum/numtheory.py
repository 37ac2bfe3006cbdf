"""Exact integer and modular arithmetic primitives.

Trial-division factorization, p-adic valuations, Legendre's factorial
valuation formula, modular exponentiation and inversion, and
chinese-remainder recombination.  Everything is a pure function of its
arguments and all arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "INFINITY",
    "Valuation",
    "Factorization",
    "Residue",
    "NotAUnitError",
    "is_prime",
    "factorize",
    "nu_p",
    "legendre",
    "mod_pow",
    "mod_inv",
    "crt_combine",
]

#: Valuation of 0.  Compares above every finite valuation.
INFINITY: float = float("inf")

#: A p-adic valuation: an exact integer, or INFINITY for nu_p(0).
Valuation = Union[int, float]

#: Prime factorization as (prime, exponent) pairs, primes ascending.
#: The empty list represents 1.
Factorization = list[tuple[int, int]]


class NotAUnitError(ValueError):
    """A modular inverse was requested for a non-invertible element."""


@dataclass(frozen=True)
class Residue:
    """An integer kept reduced into [0, modulus).

    Construction accepts any integer value (negative included) and
    normalizes it.  ``modulus >= 1`` always; modulus 1 forces value 0.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)

    def __int__(self) -> int:
        return self.value


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division through factorize."""
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: Factorization = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            factors.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _valuation_of_int(x: int, p: int) -> int:
    # x != 0; repeated division, never materializes a large power of p
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def nu_p(x: Union[int, Fraction], p: int) -> Valuation:
    """p-adic valuation of an integer or Fraction; nu_p(0) is INFINITY.

    For fractions the result is nu_p(numerator) - nu_p(denominator), so it
    may be negative.
    """
    _require_prime(p)
    if x == 0:
        return INFINITY
    if isinstance(x, Fraction):
        return _valuation_of_int(x.numerator, p) - _valuation_of_int(x.denominator, p)
    return _valuation_of_int(x, p)


def legendre(j: int, p: int) -> int:
    """nu_p(j!) as the finite sum of floor(j / p^i) over i >= 1."""
    if j < 0:
        raise ValueError(f"legendre requires j >= 0, got {j}")
    _require_prime(p)
    total = 0
    q = p
    while q <= j:
        total += j // q
        q *= p
    return total


def mod_pow(base: int, exp: int, m: int) -> Residue:
    """base**exp mod m for exp >= 0; negative bases are normalized first."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if exp < 0:
        raise ValueError(f"exponent must be >= 0, got {exp}")
    return Residue(pow(base % m, exp, m), m)


def mod_inv(a: int, m: int) -> Residue:
    """Multiplicative inverse of a modulo m.

    Raises NotAUnitError when gcd(a, m) != 1; callers that reach this on a
    structural precondition must treat it as "this route is inapplicable".
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    try:
        return Residue(pow(a, -1, m), m)
    except ValueError:
        raise NotAUnitError(f"{a} is not a unit modulo {m}") from None


def crt_combine(residues: Iterable[Residue]) -> Residue:
    """Combine residues with pairwise coprime moduli into a single residue.

    The result is the unique residue modulo the product of the moduli that
    reduces to every input.  The empty combination is 0 mod 1.
    """
    value, modulus = 0, 1
    for r in residues:
        if math.gcd(modulus, r.modulus) != 1:
            raise ValueError("moduli must be pairwise coprime")
        if r.modulus == 1:
            continue
        # x == value (mod modulus) and x == r.value (mod r.modulus)
        t = (r.value - value) * pow(modulus, -1, r.modulus) % r.modulus
        value += modulus * t
        modulus *= r.modulus
    return Residue(value, modulus)
