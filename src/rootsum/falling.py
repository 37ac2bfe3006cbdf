"""Falling-factorial calculus.

The falling factorial n-falling-k is n(n-1)...(n-k+1): the k-th derivative
of t^n picks it up as a coefficient.  It equals 1 for k = 0 and equals 0
whenever 0 <= n < k, because the factor range then crosses zero.  This
module evaluates falling factorials modulo m, computes their p-adic
valuations by Legendre's formula, sums them over index blocks, and analyses
when (n-1)-falling-k divided by k+1 is an integer.

Quotients like (n-1)-falling-k over k+1 are never materialized as
rationals; every integrality or sign question is answered through per-prime
valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .numtheory import (
    INFINITY,
    Residue,
    Valuation,
    _require_prime,
    _valuation_of_int,
    factorize,
    legendre,
)

__all__ = [
    "IntegralityVerdict",
    "ValuationBounds",
    "falling_mod",
    "falling_valuation",
    "falling_sum",
    "integrality_check",
    "valuation_bounds",
]


def _falling_int(n: int, k: int, m: int) -> int:
    # k-term modular product; exactly 0 when the factor range crosses zero
    if k == 0:
        return 1 % m
    if n < k:
        return 0
    prod = 1
    for f in range(n, n - k, -1):
        prod = prod * f % m
    return prod


def falling_mod(n: int, k: int, m: int) -> Residue:
    """n-falling-k mod m, computed as a k-term modular product."""
    if n < 0 or k < 0:
        raise ValueError("falling_mod requires n >= 0 and k >= 0")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return Residue(_falling_int(n, k, m), m)


def falling_valuation(n: int, k: int, p: int) -> Valuation:
    """nu_p of n-falling-k = n! / (n-k)!, by Legendre's formula.

    INFINITY when the product is 0 (n < k); 0 for the empty product k = 0.
    """
    if n < 0 or k < 0:
        raise ValueError("falling_valuation requires n >= 0 and k >= 0")
    _require_prime(p)
    if n < k:
        return INFINITY
    return legendre(n, p) - legendre(n - k, p)


def falling_sum(n0: int, n1: int, k: int, m: int) -> Residue:
    """Sum of i-falling-k over n0 <= i < n1, mod m, by direct summation.

    The telescoping closed form (n1-falling-(k+1) - n0-falling-(k+1)) / (k+1)
    is deliberately not used here: it involves a division that has no modular
    meaning in general.  Identity checks multiply it through by k+1 instead.
    """
    if n0 < 0 or k < 0:
        raise ValueError("falling_sum requires n0 >= 0 and k >= 0")
    if n1 < n0:
        raise ValueError(f"need n0 <= n1, got {n0} > {n1}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    total = 0
    for i in range(n0, n1):
        total = (total + _falling_int(i, k, m)) % m
    return Residue(total, m)


@dataclass(frozen=True)
class IntegralityVerdict:
    """Whether (n-1)-falling-k divided by k+1 is an integer.

    When it is not, ``failing_prime`` carries the obstructing prime and
    ``clause`` names the only two ways this can happen: "i" when k+1 = 4
    and 4 | n, "ii" when k+1 is a prime dividing n.
    """

    is_integer: bool
    failing_prime: Optional[int] = None
    clause: Optional[str] = None


def integrality_check(n: int, k: int) -> IntegralityVerdict:
    """Decide integrality of (n-1)-falling-k over k+1 by p-adic valuations."""
    if n < 1 or k < 0:
        raise ValueError("integrality_check requires n >= 1 and k >= 0")
    for p, _ in factorize(k + 1):
        if valuation_bounds(n, k, p).fraction_negative:
            if k + 1 == 4:
                clause = "i"
            elif k + 1 == p:
                clause = "ii"
            else:
                # the valuation case analysis says this cannot happen
                raise AssertionError(
                    f"unclassified non-integral case n={n} k={k} p={p}"
                )
            return IntegralityVerdict(False, failing_prime=p, clause=clause)
    return IntegralityVerdict(True)


@dataclass(frozen=True)
class ValuationBounds:
    """Valuation data for (n-1)-falling-k against k+1 at a prime p | k+1.

    ``e`` is nu_p(k+1), ``v`` is nu_p of the falling factorial, ``case`` is
    "b" when k+1 is exactly the prime power p**e and "a" otherwise, and
    ``fraction_negative`` says whether nu_p of the quotient is negative.
    The guaranteed inequalities: v >= e in case "a"; v >= e-1 in case "b"
    with equality only when p | n; and the quotient valuation is negative
    exactly when k+1 is 4 or p itself and k+1 divides n, in which case the
    deficit v - e is exactly -1.
    """

    e: int
    v: Valuation
    case: str
    fraction_negative: bool


def valuation_bounds(n: int, k: int, p: int) -> ValuationBounds:
    """Case analysis for the integrality of (n-1)-falling-k over k+1."""
    if n < 1 or k < 1:
        raise ValueError("valuation_bounds requires n >= 1 and k >= 1")
    _require_prime(p)
    if (k + 1) % p != 0:
        raise ValueError(f"{p} does not divide k+1 = {k + 1}")
    e = _valuation_of_int(k + 1, p)
    v = falling_valuation(n - 1, k, p)
    case = "b" if k + 1 == p**e else "a"
    return ValuationBounds(e=e, v=v, case=case, fraction_negative=v < e)
