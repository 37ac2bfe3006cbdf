"""Workload definitions: the rootsum argv each workload sends, from its seed.

A workload is a sequence of rounds, and a round is a list of argv lists
that the benchmark hands to `rootsum.cli.main` one after another.  The
benchmark stops between rounds, so every round is a complete unit of
work.  Each workload has a `unit`: the number of rounds the traced run
measures once with tracing off and once with it on.

Why these four (the ROADMAP's engine items are the bucketed scan kernel,
the log-time evaluator and structural root enumeration):

* scan    - the paper's headline check, `scan` over 1 <= n <= 400,
            k <= 12.  About 90% of its time is direct summation, so a
            faster summation kernel shows here first.
* hunt    - `hunt` with each hypothesis dropped, n <= 300, k <= 12.  It
            re-enumerates the roots for every k, so root enumeration and
            mod_pow carry a third of its time, and each call emits about
            2,000 records through JSON (1,986 and 2,046, pinned in the
            smoke test).
* lemmas  - `scan --check-lemmas`, n <= 150, k <= 12: sums under many
            prime-power moduli plus the falling-factorial and Leibnitz
            checks, which are off the plain scan path.
* query   - a closed loop of single-case `roots`, `check` and `eval`
            calls with n up to 1e5; it bypasses the scan harness
            entirely, so a per-case evaluator or root enumerator shows
            here and a scan kernel does not.

Seeds only change the query stream: the scan, hunt and lemmas inputs are
one fixed range each, because the range is the workload.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

import reference

MAX_K = 12
# Largest n per workload; the query size is the top of the log-uniform range.
SIZES = {"scan": 400, "hunt": 300, "lemmas": 150, "query": 100_000}

# Query stream.  Each block of BLOCK queries has the same make-up, with n
# stratified over the log range per query kind, so every block (and so every
# seed) draws the same spread of sizes and the percentiles do not depend on
# which values a seed happens to pick.
MAX_MODULUS = 2**31
BLOCK_ROOTS = 14
BLOCK_CHECK = 18
BLOCK_EVAL = 18
BLOCK = BLOCK_ROOTS + BLOCK_CHECK + BLOCK_EVAL
# Of each block's check and eval queries, this many each reuse the
# (n, k, modulus) key of a recent query of their kind with a new alpha:
# 10 of 50, so 20% of queries repeat a key.
BLOCK_REPEATS = 5
REPEAT_WINDOW = 100  # recent keys only, so they are still in a 256-row cache
QUERY_MAX_BLOCKS = 60  # 3000 queries at most in one run


def _log_uniform_strata(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    span = math.log(high) - math.log(low)
    return [
        min(high, max(low, round(math.exp(math.log(low) + span * (i + rng.random()) / count))))
        for i in range(count)
    ]


def root_of_unity(rng: random.Random, n: int) -> int:
    """A random alpha in [0, n) with alpha^n == 1 (mod n), verified here.

    For a unit x, x^(lambda / gcd(n, lambda)) has order dividing n, where
    lambda is the exponent of the unit group.
    """
    lam = reference.carmichael(n)
    while True:
        x = rng.randrange(n)
        if math.gcd(x, n) == 1:
            break
    alpha = pow(x, lam // math.gcd(n, lam), n)
    if pow(alpha, n, n) != 1 % n:
        raise ArithmeticError(f"{alpha} is not an {n}-th root of unity")
    return alpha


def query_blocks(seed: int, max_n: int) -> Iterator[list[list[str]]]:
    """The query stream of a seed, one block of BLOCK argv lists at a time."""
    rng = random.Random(seed)
    keys: dict[str, list[tuple[int, int, int]]] = {"check": [], "eval": []}
    fresh = {"roots": BLOCK_ROOTS, "check": BLOCK_CHECK - BLOCK_REPEATS,
             "eval": BLOCK_EVAL - BLOCK_REPEATS}
    for _ in range(QUERY_MAX_BLOCKS):
        plan = [(kind, n) for kind, count in fresh.items()
                for n in _log_uniform_strata(rng, count, 2, max_n)]
        plan += [(kind, None) for kind in keys for _ in range(BLOCK_REPEATS)]
        rng.shuffle(plan)
        block = []
        for kind, n in plan:
            if kind == "roots":
                block.append(["roots", "--n", str(n), "--format", "json"])
                continue
            if n is None and keys[kind]:
                n, k, modulus = rng.choice(keys[kind][-REPEAT_WINDOW:])
            else:
                if n is None:  # a repeat before any key of its kind exists
                    n = _log_uniform_strata(rng, 1, 2, max_n)[0]
                k = rng.randint(0, MAX_K)
                modulus = n if kind == "check" else _log_uniform_strata(rng, 1, 2, MAX_MODULUS)[0]
            keys[kind].append((n, k, modulus))
            if kind == "check":
                argv = ["check", "--n", str(n), "--k", str(k), "--alpha", str(root_of_unity(rng, n))]
            else:
                argv = ["eval", "--n", str(n), "--k", str(k), "--alpha", str(rng.randrange(n)),
                        "--modulus", str(modulus)]
            block.append(argv + ["--format", "json"])
        yield block


FIXED_MAX_ROUNDS = 100  # bounds a run's output should the program get much faster

# Rounds in the unit that the traced run measures with tracing off and on;
# it is also the least a timed run completes.  Four query blocks are 200
# queries, enough for ten samples above the 95th percentile.
UNIT = {"scan": 1, "hunt": 1, "lemmas": 1, "query": 4}


def scan_argv(max_n: int, check_lemmas: bool = False) -> list[str]:
    lemmas = ["--check-lemmas"] if check_lemmas else []
    return ["scan", "--max-n", str(max_n), "--max-k", str(MAX_K), "--jobs", "1", *lemmas,
            "--format", "json"]


def hunt_argv(max_n: int, drop: str) -> list[str]:
    return ["hunt", "--drop", drop, "--max-n", str(max_n), "--max-k", str(MAX_K), "--format", "json"]


def rounds(name: str, seed: int, size: int) -> Iterator[list[list[str]]]:
    """The rounds of workload `name` at largest n `size`, in order."""
    if name == "query":
        yield from query_blocks(seed, size)
        return
    if name == "scan":
        round_ = [scan_argv(size)]
    elif name == "hunt":
        round_ = [hunt_argv(size, reference.DROP_CLAUSE_C_ALPHA),
                  hunt_argv(size, reference.DROP_CLAUSE_B)]
    elif name == "lemmas":
        round_ = [scan_argv(size, check_lemmas=True)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    for _ in range(FIXED_MAX_ROUNDS):
        yield round_
