"""The vanishing criterion and its brute-force ground truth.

For f(t) = 1 + t + ... + t^(n-1) and any integer alpha with
alpha^n == 1 (mod n), the k-th derivative f^(k)(alpha) = S(n, k, alpha)
is divisible by n if and only if at least one of three clauses holds:

  a: k+1 is neither 4 nor a prime;
  b: k+1 = 4 and 4 does not divide n;
  c: k+1 is a prime q, and q does not divide n or alpha != 1 (mod q).

predict_vanishing evaluates the clauses from the arithmetic of k+1, n and
alpha alone, in time independent of n's size.  The ground truth is direct
summation, derivsum.sum_direct: the two must agree on every n-th root of
unity mod n, and the scan harness checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivsum import SumQuery, sum_direct
from .numtheory import is_prime, mod_pow

__all__ = [
    "CriterionVerdict",
    "Explanation",
    "predict_vanishing",
    "roots_of_unity",
    "explain",
]


@dataclass(frozen=True)
class CriterionVerdict:
    """Predicted vanishing plus the clauses that hold.

    ``clauses`` is a subset of {"a", "b", "c"}; the prediction is
    "vanishes" exactly when it is nonempty.  At most one of the three can
    apply for a given k, since the clauses partition on the shape of k+1.
    ``witness`` records the facts the decision turned on: always
    ``k_plus_1``; ``four_divides_n`` when k+1 = 4; ``q``, ``q_divides_n``
    and ``alpha_is_one_mod_q`` when k+1 is the prime q (clause c fires when
    either disjunct fails, and the witness shows which).
    """

    vanishes_predicted: bool
    clauses: frozenset[str]
    witness: dict


@dataclass(frozen=True)
class Explanation:
    """One fully-expanded comparison of prediction against ground truth.

    ``hypothesis_ok`` records whether alpha^n == 1 (mod n); when it is
    False the criterion makes no claim and ``agree`` is informational only.
    """

    n: int
    k: int
    alpha: int
    verdict: CriterionVerdict
    oracle_residue: int
    hypothesis_ok: bool
    agree: bool


def predict_vanishing(n: int, k: int, alpha: int) -> CriterionVerdict:
    """Decide the clauses for (n, k, alpha) without evaluating the sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    q = k + 1
    clauses = set()
    witness: dict = {"k_plus_1": q}
    if q == 4:
        four_divides_n = n % 4 == 0
        witness["four_divides_n"] = four_divides_n
        if not four_divides_n:
            clauses.add("b")
    elif is_prime(q):
        q_divides_n = n % q == 0
        alpha_is_one = alpha % q == 1
        witness["q"] = q
        witness["q_divides_n"] = q_divides_n
        witness["alpha_is_one_mod_q"] = alpha_is_one
        if not q_divides_n or not alpha_is_one:
            clauses.add("c")
    else:
        clauses.add("a")
    return CriterionVerdict(
        vanishes_predicted=bool(clauses),
        clauses=frozenset(clauses),
        witness=witness,
    )


def roots_of_unity(n: int) -> tuple[int, ...]:
    """Every alpha in [0, n) with alpha^n == 1 (mod n), ascending.

    Found by exhaustive scan.  These residues form a group under
    multiplication mod n; 1 is always a member (0 when n = 1, where every
    residue is 0).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    one = 1 % n
    return tuple(a for a in range(n) if mod_pow(a, n, n).value == one)


def explain(n: int, k: int, alpha: int) -> Explanation:
    """Bundle prediction, oracle residue, hypothesis status and agreement."""
    verdict = predict_vanishing(n, k, alpha)
    residue = sum_direct(SumQuery(n=n, k=k, alpha=alpha, modulus=n)).value
    hypothesis_ok = pow(alpha % n, n, n) == 1 % n
    return Explanation(
        n=n,
        k=k,
        alpha=alpha,
        verdict=verdict,
        oracle_residue=residue,
        hypothesis_ok=hypothesis_ok,
        agree=verdict.vanishes_predicted == (residue == 0),
    )
