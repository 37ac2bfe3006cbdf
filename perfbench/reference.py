"""Expected answers for the benchmark, computed without rootsum.

Nothing here imports rootsum.  The arithmetic uses different algorithms
from the program under test, so agreement is evidence and not tautology:

* S(n, k, alpha) mod m by binary doubling over binomial sums, in
  O(k^2 log n) steps and with no division, instead of direct summation;
* the number of n-th roots of unity mod n from the factorization of n,
  prod over p^l || n of gcd(n, phi(p^l)), instead of trial of every residue;
* the clause criterion of the paper, written out from its statement.

For every root of unity alpha mod n the paper's theorem says S vanishes
mod n exactly when the clause criterion holds, so the expected scan verdict
is clean and the expected hunt records are the triples where the weakened
criterion departs from the full one.  Every residue a record reports is
still evaluated here rather than assumed.
"""

from __future__ import annotations

import math

DROP_CLAUSE_C_ALPHA = "clause-c-alpha"
DROP_CLAUSE_B = "clause-b"


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(q: int) -> bool:
    return q >= 2 and factorize(q) == [(q, 1)]


def root_count(n: int) -> int:
    """Number of alpha in [0, n) with alpha^n == 1 (mod n).

    Mod an odd prime power the units form a cyclic group of order
    phi(p^l), so x^n = 1 has gcd(n, phi(p^l)) solutions.  Mod 2^l with
    2^l | n every unit already satisfies x^n = 1, and there are
    phi(2^l) = gcd(n, phi(2^l)) of them.  The chinese remainder theorem
    multiplies the counts.
    """
    count = 1
    for p, ell in factorize(n):
        count *= math.gcd(n, (p - 1) * p ** (ell - 1))
    return count


def carmichael(n: int) -> int:
    """Exponent of the unit group mod n (Carmichael's lambda)."""
    lam = 1
    for p, ell in factorize(n):
        if p == 2 and ell >= 3:
            part = 2 ** (ell - 2)
        else:
            part = (p - 1) * p ** (ell - 1)
        lam = lam * part // math.gcd(lam, part)
    return lam


def deriv_sum(n: int, k: int, alpha: int, m: int) -> int:
    """S(n, k, alpha) mod m, the k-th derivative of 1 + t + ... + t^(n-1).

    S = k! * sum over j < n-k of C(j+k, k) alpha^j, and by Vandermonde
    C(j+k, k) = sum over t of C(k, t) C(j, t).  The vector
    T_t(N) = sum over j < N of C(j, t) alpha^j obeys
    T_t(A+B) = T_t(A) + alpha^A * sum over s of C(A, t-s) T_s(B),
    which builds T(n-k) from the bits of n-k.
    """
    length = n - k
    if length <= 0:
        return 0
    a = alpha % m
    t_vec = [0] * (k + 1)  # T(0)
    power = 1 % m  # alpha^A
    done = 0  # A
    for bit in bin(length)[2:]:
        if done:
            # A -> 2A: B = A
            binom = [math.comb(done, r) % m for r in range(k + 1)]
            t_vec = [
                (t_vec[t] + power * sum(binom[t - s] * t_vec[s] for s in range(t + 1))) % m
                for t in range(k + 1)
            ]
            power = power * power % m
            done *= 2
        if bit == "1":
            # A -> A+1: T_t gains C(A, t) alpha^A
            t_vec = [(t_vec[t] + power * math.comb(done, t)) % m for t in range(k + 1)]
            power = power * a % m
            done += 1
    total = sum(math.comb(k, t) * t_vec[t] for t in range(k + 1))
    return math.factorial(k) * total % m


def criterion(n: int, k: int, alpha: int) -> tuple[bool, list[str], dict]:
    """The paper's clause test: (predicted vanishing, clauses, witness)."""
    q = k + 1
    witness: dict = {"k_plus_1": q}
    if q == 4:
        witness["four_divides_n"] = n % 4 == 0
        clauses = [] if n % 4 == 0 else ["b"]
    elif is_prime(q):
        witness["q"] = q
        witness["q_divides_n"] = n % q == 0
        witness["alpha_is_one_mod_q"] = alpha % q == 1
        clauses = [] if n % q == 0 and alpha % q == 1 else ["c"]
    else:
        clauses = ["a"]
    return bool(clauses), clauses, witness


def _roots(n: int) -> list[int]:
    # the definition itself, for ranges of small n
    one = 1 % n
    return [a for a in range(n) if pow(a, n, n) == one]


def scan_answer(max_n: int, max_k: int) -> dict:
    """The JSON a clean `scan` (with or without --check-lemmas) must emit."""
    roots = sum(root_count(n) for n in range(1, max_n + 1))
    return {"cases": roots * (max_k + 1), "roots": roots, "mismatches": [], "lemma_failures": []}


def hunt_answer(max_n: int, max_k: int, drop: str) -> dict:
    """The JSON `hunt --drop <drop>` must emit: every failure of the weakened test."""
    if drop not in (DROP_CLAUSE_C_ALPHA, DROP_CLAUSE_B):
        raise ValueError(f"unknown drop {drop!r}")
    records = []
    for n in range(1, max_n + 1):
        roots = _roots(n)
        for k in range(max_k + 1):
            q = k + 1
            if drop == DROP_CLAUSE_C_ALPHA and is_prime(q) and n % q == 0:
                # clause c lost its alpha escape: wrong wherever alpha != 1 (mod q)
                predicted, clauses, wrong = False, [], [a for a in roots if a % q != 1]
            elif drop == DROP_CLAUSE_B and q == 4 and n % 4 == 0:
                # clause b fires for every n: wrong wherever 4 | n
                predicted, clauses, wrong = True, ["b"], roots
            else:
                continue
            for alpha in wrong:
                residue = deriv_sum(n, k, alpha, n)
                if (residue == 0) == predicted:
                    raise ArithmeticError(f"reference disagrees with the theorem at {(n, k, alpha)}")
                records.append(
                    {"n": n, "k": k, "alpha": alpha, "clauses": clauses, "predicted": predicted,
                     "oracle_residue": residue, "agree": False}
                )
    return {"drop": drop, "records": records}


def check_answer(n: int, k: int, alpha: int) -> dict:
    """The JSON `check` must emit for one case."""
    predicted, clauses, witness = criterion(n, k, alpha)
    residue = deriv_sum(n, k, alpha, n)
    return {
        "n": n, "k": k, "alpha": alpha, "predicted": predicted, "clauses": clauses,
        "witness": witness, "oracle_residue": residue,
        "hypothesis_ok": pow(alpha % n, n, n) == 1 % n,
        "agree": predicted == (residue == 0),
    }


def eval_answer(n: int, k: int, alpha: int, modulus: int) -> dict:
    """The JSON `eval` must emit for one case."""
    return {"n": n, "k": k, "alpha": alpha, "modulus": modulus,
            "residue": deriv_sum(n, k, alpha, modulus)}


def roots_ok(n: int, out: dict) -> bool:
    """Whether `roots` JSON lists exactly the n-th roots of unity mod n.

    Distinct valid roots, as many as root_count(n), are all of them.
    """
    roots = out.get("roots")
    if set(out) != {"n", "count", "roots"} or out["n"] != n or not isinstance(roots, list):
        return False
    if out["count"] != root_count(n) or len(roots) != out["count"]:
        return False
    one = 1 % n
    return all(
        isinstance(a, int) and 0 <= a < n and (i == 0 or roots[i - 1] < a) and pow(a, n, n) == one
        for i, a in enumerate(roots)
    )
