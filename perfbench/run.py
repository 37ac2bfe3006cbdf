"""Benchmark of the rootsum command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan,hunt,lemmas,query} \
        --seed N --seconds S --trace {0,1}

rootsum is driven only through `rootsum.cli.main(argv)`, in a fresh worker
interpreter (worker.py), by one closed-loop client on one thread, with
`--jobs 1`: the machine is small and shared, so a parallel scan would time
the scheduler as much as the program.  Every output is checked, after the
timed calls, against expected answers that reference.py computes without
rootsum; a call whose exit code or JSON differs is a failed operation.

`--trace 0` measures the end-to-end metrics for about S seconds; each
workload reports all of them.  A verdict is a call that decides
(n, alpha, k) triples: a whole-range `scan` or `hunt` call, or a single
`check` query.

  setup_s        median spawn-to-exit time of 11 fresh interpreters that
                 `import rootsum.cli`, after one that compiles bytecode
  verdict_s      median latency of a verdict call
  cases_per_s    triples decided by verdict calls per second of their time
  query_p50_ms   median latency of any call; on scan, hunt and lemmas a
                 call is the whole-range verdict, so this is verdict_s
  query_p95_ms   95th-percentile call latency (nearest rank), from a run
                 of at least 200 calls so that ten lie beyond it.  Query
                 runs always have that many.  Scan, hunt and lemmas runs
                 have a few long calls, whose slowest one swings with the
                 machine's load by more than any bound, so there it falls
                 back to the median, the one percentile the sample supports
  queries_per_s  calls completed per second of call time
  peak_rss_mb    ru_maxrss of the worker process

`--trace 1` runs the workload's unit (workloads.UNIT) once untraced and
once traced, each in a fresh worker, and reports the per-layer metrics of
tracing.py plus `trace.overhead_s` (traced minus untraced call time) and
`error_share` (failed over attempted calls).

Before the result, a line `{"meta": ...}` records the Python version, CPU
count, load average and a machine-speed probe at start and end, seed,
commit and a digest of `src/`, so runs on a noisy machine can be told
apart.  The last line is the result: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
SETUP_TIMEOUT_S = 60
TAIL_MIN_CALLS = 200  # fewest calls that leave ten beyond the 95th percentile
SETUP_SPAWNS = 11  # half before the timed calls, half after, to straddle load bursts
SETUP_CMD = [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, 'src'); import rootsum.cli"]


def setup_times(count: int) -> list[float]:
    """Wall times of `count` fresh interpreters importing rootsum.cli.

    Popen.wait() with a timeout polls with sleeps of up to 50 ms, which
    would quantize these ~0.1 s times, so a watchdog thread enforces the
    time limit and the wait itself blocks.
    """
    times = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.Popen(SETUP_CMD, cwd=ROOT)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"importing rootsum.cli exited with {code}")
    return times


def run_worker(workload: str, seed: int, size: int, seconds: float, min_rounds: int,
               max_rounds: int | None, trace: bool) -> dict:
    request = {"workload": workload, "seed": seed, "size": size, "seconds": seconds,
               "min_rounds": min_rounds, "max_rounds": max_rounds, "trace": trace}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(request),
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def _options(argv: list[str]) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) else None
            opts[token[2:]] = True if value is None or value.startswith("--") else value
    return opts


class Checker:
    """Compares each call's output with the reference answer for its argv."""

    def __init__(self) -> None:
        self._ranges: dict[tuple[str, ...], dict] = {}  # scan and hunt answers, reused every round

    def _range_answer(self, argv: list[str]) -> dict:
        key = tuple(argv)
        if key not in self._ranges:
            o = _options(argv)
            max_n, max_k = int(o["max-n"]), int(o["max-k"])
            self._ranges[key] = (reference.scan_answer(max_n, max_k) if argv[0] == "scan"
                                 else reference.hunt_answer(max_n, max_k, o["drop"]))
        return self._ranges[key]

    def ok(self, argv: list[str], code, stdout: str) -> bool:
        if code != 0:
            return False
        try:
            out = json.loads(stdout)
        except ValueError:
            return False
        o = _options(argv)
        if argv[0] == "roots":
            return isinstance(out, dict) and reference.roots_ok(int(o["n"]), out)
        if argv[0] == "check":
            expected = reference.check_answer(int(o["n"]), int(o["k"]), int(o["alpha"]))
        elif argv[0] == "eval":
            expected = reference.eval_answer(int(o["n"]), int(o["k"]), int(o["alpha"]),
                                             int(o["modulus"]))
        else:
            expected = self._range_answer(argv)
        return out == expected


def decided(argv: list[str]) -> int:
    """(n, alpha, k) triples a call decides: a whole range, one case, or none."""
    if argv[0] in ("scan", "hunt"):
        o = _options(argv)
        return reference.scan_answer(int(o["max-n"]), int(o["max-k"]))["cases"]
    return 1 if argv[0] == "check" else 0


def call_argvs(workload: str, seed: int, size: int, rounds: int) -> list[list[str]]:
    """The argv of every call in the first `rounds` rounds, in order."""
    out = []
    for i, round_ in enumerate(workloads.rounds(workload, seed, size)):
        if i == rounds:
            break
        out.extend(round_)
    return out


def score(checker: Checker, argvs: list[list[str]], calls: list) -> int:
    """Number of calls whose output is not the expected answer."""
    if len(argvs) != len(calls):
        raise ValueError(f"{len(calls)} results for {len(argvs)} calls")
    return sum(not checker.ok(argv, code, stdout) for argv, (_, code, stdout) in zip(argvs, calls))


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, seed: int, size: int, seconds: float) -> tuple[dict, dict]:
    setup_times(1)  # compiles bytecode
    setup = setup_times(SETUP_SPAWNS // 2)
    unit = workloads.UNIT[workload]
    reply = run_worker(workload, seed, size, seconds, unit, None, False)
    setup += setup_times(SETUP_SPAWNS - len(setup))
    argvs = call_argvs(workload, seed, size, reply["rounds"])
    checker = Checker()
    failed = score(checker, argvs, reply["calls"])
    latencies = [c[0] for c in reply["calls"]]
    verdicts = [(decided(a), c[0]) for a, c in zip(argvs, reply["calls"])]
    verdicts = [(cases, t) for cases, t in verdicts if cases]
    tail = (nearest_rank(latencies, 0.95) if len(latencies) >= TAIL_MIN_CALLS
            else statistics.median(latencies))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (statistics.median(t for _, t in verdicts), "s"),
        "cases_per_s": (sum(c for c, _ in verdicts) / sum(t for _, t in verdicts), "1/s"),
        "query_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "query_p95_ms": (tail * 1000, "ms"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (reply["peak_rss_kib"] / 1024, "MB"),
    }
    info = {"calls": len(latencies), "verdict_calls": len(verdicts), "rounds": reply["rounds"],
            "failed": failed}
    return metrics, info


def traced(workload: str, seed: int, size: int) -> tuple[dict, dict]:
    unit = workloads.UNIT[workload]
    argvs = call_argvs(workload, seed, size, unit)
    checker = Checker()
    plain = run_worker(workload, seed, size, 0, unit, unit, False)
    with_trace = run_worker(workload, seed, size, 0, unit, unit, True)
    failed = score(checker, argvs, plain["calls"]) + score(checker, argvs, with_trace["calls"])
    attempted = len(plain["calls"]) + len(with_trace["calls"])
    overhead = sum(c[0] for c in with_trace["calls"]) - sum(c[0] for c in plain["calls"])
    metrics = {name: (value, tracing.METRICS[name]) for name, value in with_trace["metrics"].items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["error_share"] = (failed / attempted, "ratio")
    info = {"calls": attempted, "failed": failed, "absent": with_trace["absent"],
            "module_self_share": with_trace["module_shares"]}
    return metrics, info


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Load averages inside the container miss contention from outside it,
    which on a shared host slows every run by tens of percent for minutes
    at a time; this probe shows it, so noisy runs can be told apart.
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: int | None = None) -> tuple[dict, dict]:
    """(result, meta) of one benchmark run."""
    size = workloads.SIZES[workload] if size is None else size
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(), "probe_ms_start": machine_probe_ms(),
        "commit": commit(), "src_sha256": src_digest(),
    }
    if trace:
        metrics, info = traced(workload, seed, size)
    else:
        metrics, info = end_to_end(workload, seed, size, seconds)
    meta.update(info)
    meta["error_share"] = info["failed"] / info["calls"]
    meta["loadavg_end"] = os.getloadavg()
    meta["probe_ms_end"] = machine_probe_ms()
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["calls"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rootsum" / "cli.py").is_file():
        print(f"error: no rootsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
