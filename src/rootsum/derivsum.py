"""Derivative sums of the geometric polynomial 1 + t + ... + t^(n-1).

S(n, k, alpha) denotes the k-th derivative of that polynomial at t = alpha,
i.e. the sum of i-falling-k * alpha^(i-k) over k <= i < n.  Terms with
i < k vanish identically because i-falling-k = 0 there, so the sum never
needs a negative power of alpha and is defined for every integer alpha.

Besides evaluation (direct summation, a closed form for single queries and
a chinese-remainder variant), this module checks the two structural
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
from itertools import accumulate

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


@lru_cache(maxsize=256)
def _falling_row(n: int, k: int, m: int) -> tuple[int, ...]:
    # i-falling-k mod m for k <= i < n, from row k - 1 by
    # i-falling-k = i * (i-1)-falling-(k-1), one multiply per entry.  A miss
    # recurses through every missing row below, so only loops that ask for
    # rows k = 0, 1, ... in order call this directly (harness._scan_unit and
    # the pass over k in harness._lemma_checks); every other caller goes
    # through _row
    if k == 0:
        return (1 % m,) * n
    return tuple(i * r % m for i, r in zip(range(k, n), _falling_row(n, k - 1, m)))


def _row(n: int, k: int, m: int) -> tuple[int, ...]:
    # _falling_row(n, k, m), with rows 0..k asked for in order so that no
    # miss recurses more than one row deep; rows k >= n are empty
    if k >= n:
        return ()
    for j in range(k):
        _falling_row(n, j, m)
    return _falling_row(n, k, m)


def _horner(coeffs: tuple[int, ...], a: int, m: int) -> int:
    # sum of coeffs[r] * a^r mod m: c_0 + a*(c_1 + a*(... + a*c_last))
    total = 0
    for c in reversed(coeffs):
        total = (total * a + c) % m
    return total


def _sum_mod(n: int, k: int, alpha: int, m: int) -> int:
    # the row of i-falling-k for k <= i < n is the coefficient list in alpha
    return _horner(_row(n, k, m), alpha % m, m)


def _leibnitz_rhs(n: int, k: int, t: int, m: int) -> int:
    """The product-rule closed form of S(n, k, t) mod m.

    Writing the geometric polynomial as (1 - t^n) * u with u = (1 - t)^(-1)
    and differentiating k times by the Leibnitz rule:

        S(n, k, t) = k! * u^(k+1)
                     - sum over 0 <= j <= k of
                       (k!/j!) * n-falling-j * t^(n-j) * u^(k+1-j)

    For n > k the sum is t^(n-k) * u times sum over j of
    n-falling-j * (k!/j!) * (t*u)^(k-j), one Horner pass in j with a running
    n-falling-j: O(k + log n) steps and no list.  For n <= k, S is the empty
    sum 0 (the terms with j > n carry n-falling-j = 0).

    Raises NotAUnitError when 1 - t is not invertible mod m.
    """
    u = mod_inv(1 - t, m).value
    if n <= k:
        return 0
    t %= m
    v = t * u % m
    falling = 1
    acc = 1 % m
    for j in range(k):
        falling = falling * (n - j) % m
        acc = (acc * (j + 1) * v + falling) % m
    return (_falling_int(k, k, m) * pow(u, k + 1, m) - pow(t, n - k, m) * u * acc) % m


def _split_modulus(m: int, a: int) -> tuple[int, int]:
    # m = b * g with every prime of b dividing a - 1 and g prime to a - 1
    g = m
    d = math.gcd(g, a - 1)
    while d > 1:
        g //= d
        d = math.gcd(g, d)
    return m // g, g


def _sum_near_one(n: int, k: int, y: int, b: int) -> int:
    # S(n, k, 1 + y) mod b when every prime of b divides y.  Expanding
    # (1 + y)^(i-k) and summing each power of y by the hockey-stick identity,
    #     S = sum over s >= 0 of y^s * n-falling-(k+s+1) / ((k+s+1) * s!)
    # exactly, and y^s == 0 (mod b) from s = bit_length(b) on.  Each
    # quotient is exact, so it is the numerator mod b * d divided by d, for
    # d = (k+s+1) * s!; one running numerator mod b * lcm(d) serves every s.
    terms = 1
    while pow(y, terms, b):
        terms += 1
    divisors = [(k + s + 1) * math.factorial(s) for s in range(terms)]
    big = b * math.lcm(*divisors)
    numerator = _falling_int(n, k + 1, big)
    total = 0
    for s, d in enumerate(divisors):
        total += pow(y, s, b) * (numerator % (b * d) // d)
        numerator = numerator * (n - k - 1 - s) % big
    return total % b


def _sum_closed(n: int, k: int, alpha: int, m: int) -> int:
    # S(n, k, alpha) mod m in O(k + log n) with no row and no factorization:
    # the Leibnitz form mod the part g of m prime to alpha - 1, the
    # expansion around alpha = 1 mod the rest b, recombined by CRT
    if n <= k:
        return 0
    a = alpha % m
    b, g = _split_modulus(m, a)
    total = 0
    if g > 1:
        total += _leibnitz_rhs(n, k, a, g) * _crt_unit(m, g)
    if b > 1:
        total += _sum_near_one(n, k, a - 1, b) * _crt_unit(m, b)
    return total % m


_SHORT_ROW = 16  # direct summation up to this many falling-factorial products


def _sum_single(n: int, k: int, alpha: int, m: int) -> int:
    # one evaluation with no row to share: a cold row chain costs about
    # (n - k) * (k + 1) products, which beats the closed form only on the
    # shortest rows
    if 0 < (n - k) * (k + 1) <= _SHORT_ROW:
        return _sum_mod(n, k, alpha, m)
    return _sum_closed(n, k, alpha, m)


def sum_direct(q: SumQuery) -> Residue:
    """Evaluate S(n, k, alpha) mod modulus for one query.

    Two routes give the same residue:

    * direct summation over i from n-1 down to k in Horner form, over a
      row of falling factorials memoized per (n, k, modulus): row k is one
      multiply per term from row k - 1, then one multiply-add per term, so
      O(n * k) cold and O(n-k) once rows 0..k are warm;
    * a closed form in O(k + log n), with no row, no factorization and no
      integer that grows with k.  The modulus splits as b * g, where every
      prime of b divides alpha - 1 and g is prime to it.  Mod g, 1 - alpha
      is a unit and the Leibnitz product-rule form applies; mod b, the
      expansion of S around alpha = 1 ends after at most bit_length(b)
      terms.  The chinese remainder theorem joins the two parts.

    Direct summation runs only on short non-empty rows, where the
    (n - k) * (k + 1) products of a cold row chain number at most 16, and
    the closed form takes everything else, whether or not a row would be
    reused: a warm row beats it only on short sums, by a few microseconds.
    Each row of a cold chain costs about a microsecond, so the crossover
    depends mostly on k: cold direct summation beats the closed form up to
    about 50 terms at k = 0, and they tie at 6 to 16 terms at k = 1 and
    at about 4 terms at k = 2 (12 to 32 products, across runs), while from
    k = 3 on the closed form wins at any length.  The bound of 16 sits in
    the measured crossover at k = 1 and 2; elsewhere below k = 16 it is
    off by a few microseconds.  Measured at modulus 1000003 and alpha 3,
    best of five calls on a 2-vCPU VM (direct cold: the median of three
    such runs, each building the whole chain of rows 0..k):

        n        k        closed     direct cold   direct warm
        20       2        0.004 ms   0.008 ms      0.001 ms
        50       12       0.005 ms   0.05 ms       0.003 ms
        100      12       0.005 ms   0.10 ms       0.008 ms
        300      12       0.007 ms   0.29 ms       0.02 ms
        1000     12       0.006 ms   1.4 ms        0.10 ms
        3000     12       0.010 ms   3.5 ms        0.21 ms
        1e5      12       0.006 ms   139 ms        6.9 ms
        2**31    12       0.008 ms   -             -
        1000     2        0.003 ms   0.22 ms       0.06 ms
        5000     100      0.023 ms   59 ms         0.35 ms
        3000     1000     0.30 ms    248 ms        233 ms
        1e6      200000   53 ms      -             -

    A chain longer than the memo's 256 rows, as at k = 1000, finds its low
    rows evicted and is rebuilt on every call, so it is never warm.

    Each column is one timeit command, run from the repository root (shown
    at n = 1000, k = 12; the criterion, which evaluates no sum, for scale):

        PYTHONPATH=src python -m timeit -s "from rootsum.derivsum import _sum_closed" "_sum_closed(1000, 12, 3, 1000003)"
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
    the result is 0 mod 1.  Each part takes the route sum_direct takes:
    direct summation on short rows, the closed form otherwise (measurements
    in sum_direct).  Agrees with sum_direct at modulus n for every alpha; no
    root-of-unity hypothesis is involved.
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


def _near_unity_sides(
    n: int, k: int, p: int, row: tuple[int, ...]
) -> tuple[int, tuple[int, ...], int]:
    # (m, coeffs, rhs) for the near-unity congruence at (n, k, p): the
    # modulus m = p^(l+e), the Taylor coefficients of (k+1) * S(n, k, 1 + y)
    # mod m, with (k+1) * S(n, k, alpha) == _horner(coeffs, y, m) (mod m) for
    # every alpha == 1 (mod p) and y == alpha - 1 (mod q), and the right side
    # (n-1)-falling-k * n mod m.  p is prime, q = p^l, and row is
    # i-falling-k modulo any multiple of q for k <= i < q (or longer).  With
    # k+1 = p^e * u, (k+1) * S mod m depends on S only through S mod q.
    # i-falling-k mod q has period q in i and alpha^q == 1 (mod q), and q
    # divides n, so the n - k terms fold onto one block of q exactly n/q
    # times; each synthetic division by x - 1 then peels off one coefficient
    # of S, and l of them suffice because p^s divides y^s.  Only the peeled
    # coefficients are reduced mod q: l passes grow the sums by a factor of
    # at most q each, and reducing every partial sum doubled the fold's time
    # over n <= 150.  Scaling by (k+1) * (n/q) lifts them into mod m.
    ell = _valuation_of_int(n, p)
    q = p**ell
    m = q * p ** _valuation_of_int(k + 1, p)
    coeffs = row[: max(q - k, 0)]
    taylor = []
    while coeffs and len(taylor) < ell:
        sums = list(accumulate(reversed(coeffs)))
        taylor.append(sums.pop() % q)
        coeffs = sums[::-1]
    scale = (k + 1) * (n // q)
    return m, tuple(scale * c % m for c in taylor), _falling_int(n - 1, k, m) * (n % m) % m


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

    (k+1) * S is evaluated mod m = p^(l+e) from its expansion around
    alpha = 1.  With k+1 = p^e * u, (k+1) * S mod m depends on S only
    through S mod q = p^l, hence on alpha only through alpha mod q.
    Writing alpha = 1 + y, p^s divides y^s, so at most l Taylor
    coefficients of S(n, k, 1 + y) survive mod q, and k+1 times each is
    exact mod m; each call is one Horner pass over those at
    y = alpha mod m - 1.  The coefficients come from the falling-factorial
    row mod q, folded onto one block of q terms (q divides n), not from a
    series, so the check tests that row.  The modulus, the coefficients
    and the right side come from _near_unity_sides, which the
    --check-lemmas loop also reads, once per (p, k), over the scan's own
    row mod n.
    """
    if n < 1 or k < 0:
        raise ValueError("closed_form_congruence requires n >= 1 and k >= 0")
    _require_prime(p)
    if alpha % p != 1:
        raise ValueError(f"alpha = {alpha} must be 1 mod {p}")
    ell = _valuation_of_int(n, p)
    q = p**ell
    m, coeffs, rhs = _near_unity_sides(n, k, p, _row(q, k, q))
    lhs = _horner(coeffs, alpha % m - 1, m)
    return CongruenceReport(
        p=p,
        ell=ell,
        lhs_times_kp1=Residue(lhs, m),
        rhs_times_kp1=Residue(rhs, m),
        congruent=lhs == rhs,
    )
