"""Smoke test of the benchmark: its reference, its checker and every workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TINY = {"scan": 30, "hunt": 30, "lemmas": 20, "query": 300}


def exact_sum(n: int, k: int, alpha: int) -> int:
    """S(n, k, alpha) as an exact integer, straight from the definition."""
    total = 0
    for i in range(k, n):
        falling = 1
        for f in range(i, i - k, -1):
            falling *= f
        total += falling * alpha ** (i - k)
    return total


def brute_roots(n: int) -> list[int]:
    return [a for a in range(n) if a**n % n == 1 % n]


def test_paper_worked_example():
    # S(6, 2, 5) = 2 + 30 + 300 + 2500 = 2832 = 6 * 472
    assert exact_sum(6, 2, 5) == 2832
    assert reference.deriv_sum(6, 2, 5, 10**6) == 2832
    assert reference.deriv_sum(6, 2, 5, 6) == 0
    answer = reference.check_answer(6, 2, 5)
    assert answer["predicted"] and answer["clauses"] == ["c"] and answer["oracle_residue"] == 0
    assert answer["witness"] == {"k_plus_1": 3, "q": 3, "q_divides_n": True,
                                 "alpha_is_one_mod_q": False}


def test_deriv_sum_matches_definition():
    rng = random.Random(0)
    for _ in range(2000):
        n, k = rng.randint(1, 40), rng.randint(0, 14)
        alpha, m = rng.randint(-50, 50), rng.randint(1, 10**9)
        assert reference.deriv_sum(n, k, alpha, m) == exact_sum(n, k, alpha) % m, (n, k, alpha, m)


def test_root_count_and_carmichael_match_brute_force():
    for n in range(1, 200):
        roots = brute_roots(n)
        assert reference.root_count(n) == len(roots), n
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        lam = reference.carmichael(n)
        assert all(pow(a, lam, n) == 1 % n for a in units), n
        assert reference.roots_ok(n, {"n": n, "count": len(roots), "roots": roots})


def test_range_answers_match_brute_force():
    """Small ranges, from exact sums only: no use of the paper's theorem."""
    max_n, max_k = 36, 7
    assert reference.scan_answer(max_n, max_k)["cases"] == (max_k + 1) * sum(
        len(brute_roots(n)) for n in range(1, max_n + 1)
    )
    def drop_c_alpha(n, k, a):  # clause c fires only when q does not divide n
        q = k + 1
        return n % q != 0 if q == 4 or reference.is_prime(q) else True

    def drop_b(n, k, a):  # clause b fires for every n
        return reference.criterion(n, k, a)[0] or k + 1 == 4

    weakened = {reference.DROP_CLAUSE_C_ALPHA: drop_c_alpha, reference.DROP_CLAUSE_B: drop_b}
    for drop, predict in weakened.items():
        records = []
        for n in range(1, max_n + 1):
            for k in range(max_k + 1):
                for a in brute_roots(n):
                    residue = exact_sum(n, k, a) % n
                    assert reference.criterion(n, k, a)[0] == (residue == 0), (n, k, a)
                    if predict(n, k, a) != (residue == 0):
                        records.append((n, k, a, residue))
        got = reference.hunt_answer(max_n, max_k, drop)["records"]
        assert [(r["n"], r["k"], r["alpha"], r["oracle_residue"]) for r in got] == records


def test_pinned_counts_at_300_12():
    assert reference.scan_answer(300, 12)["cases"] == 42_835
    assert reference.scan_answer(600, 12)["cases"] == 123_929
    c_alpha = reference.hunt_answer(300, 12, reference.DROP_CLAUSE_C_ALPHA)["records"]
    clause_b = reference.hunt_answer(300, 12, reference.DROP_CLAUSE_B)["records"]
    assert len(c_alpha) == 1986 and len(clause_b) == 2046
    assert (6, 2, 5) in {(r["n"], r["k"], r["alpha"]) for r in c_alpha}
    assert (4, 3, 1) in {(r["n"], r["k"], r["alpha"]) for r in clause_b}


def test_query_stream_is_seeded_and_well_formed():
    first = list(workloads.query_blocks(7, 1000))
    assert first == list(workloads.query_blocks(7, 1000))
    assert first != list(workloads.query_blocks(8, 1000))
    keys = {"check": [], "eval": []}
    for block in first:
        kinds = [argv[0] for argv in block]
        assert len(block) == workloads.BLOCK
        assert kinds.count("roots") == workloads.BLOCK_ROOTS
        assert kinds.count("check") == workloads.BLOCK_CHECK
        for argv in block:
            o = run._options(argv)
            assert 2 <= int(o["n"]) <= 1000
            if argv[0] == "check":
                n, alpha = int(o["n"]), int(o["alpha"])
                assert pow(alpha, n, n) == 1 % n
                keys["check"].append((n, o["k"]))
            elif argv[0] == "eval":
                keys["eval"].append((o["n"], o["k"], o["modulus"]))
    for kind, seen in keys.items():
        repeated = len(seen) - len(set(seen))
        assert repeated >= (workloads.BLOCK_REPEATS - 1) * len(first), kind


def _names(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_clean_at_tiny_size(workload, trace):
    result, meta = run.run(workload, seed=3, seconds=0.2, trace=trace, size=TINY[workload])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(section)
    for key in ("python", "nproc", "loadavg_start", "loadavg_end", "probe_ms_start", "probe_ms_end", "seed", "commit"):
        assert key in meta


def test_benchmark_json_lists_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.SIZES)
    assert set(_names("per_layer")) == set(tracing.METRICS) | {"trace.overhead_s", "error_share"}


def test_a_wrong_output_counts_as_failed():
    checker = run.Checker()
    argvs = run.call_argvs("query", 5, TINY["query"], 1)
    reply = run.run_worker("query", 5, TINY["query"], 0, 1, 1, False)
    assert run.score(checker, argvs, reply["calls"]) == 0
    for kind in ("roots", "check", "eval"):
        calls = [list(c) for c in reply["calls"]]
        i = next(i for i, argv in enumerate(argvs) if argv[0] == kind)
        out = json.loads(calls[i][2])
        if kind == "roots":
            out["roots"] = out["roots"][:-1]
        else:
            out["oracle_residue" if kind == "check" else "residue"] += 1
        calls[i][2] = json.dumps(out)
        assert run.score(checker, argvs, calls) == 1, kind
    scan_argv = workloads.scan_argv(TINY["scan"])
    good = json.dumps(reference.scan_answer(TINY["scan"], workloads.MAX_K))
    bad = json.dumps(dict(reference.scan_answer(TINY["scan"], workloads.MAX_K), cases=1))
    assert run.score(checker, [scan_argv] * 2, [[1.0, 0, good], [1.0, 0, bad]]) == 1
    assert run.score(checker, [scan_argv], [[1.0, 1, good]]) == 1


def test_tracer_reports_a_renamed_name_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import rootsum.cli
    import rootsum.derivsum

    saved = {m: dict(vars(m)) for m in (rootsum.cli, rootsum.derivsum)}
    monkeypatch.setattr(tracing, "SPANS", [
        ("cli.main", "rootsum.cli", "main"),
        ("derivsum.sum_mod", "rootsum.derivsum", "_sum_mod"),
        ("derivsum.falling_row", "rootsum.derivsum", "_renamed_row"),
    ])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert rootsum.cli.main(["eval", "--n", "6", "--k", "2", "--alpha", "5",
                                     "--modulus", "1000000"]) == 0
    finally:
        for module, attrs in saved.items():
            vars(module).update(attrs)
    values, absent = tracer.metrics()
    assert values["derivsum.sum_mod.calls"] == 1 and values["derivsum.sum_terms"] == 4
    assert "derivsum.falling_row.self_s" in absent and "derivsum.falling_row.hits" in absent


def test_fails_without_rootsum_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
