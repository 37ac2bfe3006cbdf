"""Exact integer and modular arithmetic primitives.

Trial-division factorization, the p-adic valuation of a nonzero integer,
Legendre's factorial valuation formula, modular exponentiation and
inversion, and the chinese-remainder unit vectors that recombine residues
mod the prime-power parts of n into one residue mod n.  Everything is a
pure function of its arguments and all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "INFINITY",
    "Valuation",
    "Factorization",
    "Residue",
    "NotAUnitError",
    "is_prime",
    "factorize",
    "legendre",
    "mod_pow",
    "mod_inv",
]

#: Valuation of 0.  Compares above every finite valuation.
INFINITY: float = float("inf")

#: A p-adic valuation: an exact integer, or INFINITY for the valuation of 0.
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


def legendre(j: int, p: int) -> int:
    """nu_p(j!) as the finite sum of floor(j / p^i) over i >= 1."""
    if j < 0:
        raise ValueError(f"legendre requires j >= 0, got {j}")
    _require_prime(p)
    return _legendre(j, p)


def _legendre(j: int, p: int) -> int:
    # legendre without its checks, for callers that have already checked p
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


def _crt_unit(n: int, q: int) -> int:
    # for q || n, the residue that is 1 mod q and 0 mod n/q; the sum of
    # r_q * _crt_unit(n, q) over the parts q is the residue mod n reducing to
    # every r_q (0 at q = 1, where both conditions say 0)
    return n // q * pow(n // q, -1, q)
