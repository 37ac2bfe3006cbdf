"""Run one workload's rootsum calls in a fresh interpreter.

Usage: python3 perfbench/worker.py < request.json > reply.json

The request is one JSON object: workload, seed, size, seconds, min_rounds,
max_rounds (or null) and trace.  The worker imports rootsum from `src/`,
then, as a single closed-loop client on one thread, hands each argv of
each round to `rootsum.cli.main` with stdout captured, timing every call.
It stops before a round that would take it past `seconds`, once it has
done `min_rounds`, or at `max_rounds`.  Running in its own process keeps
the benchmark's reference arithmetic out of `ru_maxrss` and gives every
run cold caches.

The reply is one JSON object: one [latency_s, exit_code, stdout] entry per
call, the rounds done, ru_maxrss in KiB and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rootsum.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def call(argv: list[str]) -> list:
    """[latency_s, exit code, stdout] of one main(argv) call.

    The exit code is an int, or the text of an exception main() raised.
    """
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = rootsum.cli.main(argv)
    except SystemExit as exc:  # argparse rejecting argv
        code = exc.code
    except Exception as exc:  # recorded, and counted as a failed call
        code = f"{type(exc).__name__}: {exc}"
    return [time.perf_counter() - t0, code, out.getvalue()]


def main() -> None:
    req = json.load(sys.stdin)
    tracer = None
    if req["trace"]:
        tracer = tracing.Tracer()
        tracer.install()  # rebinds rootsum.cli.main too, which call() looks up each time
    calls = []
    done = 0
    start = time.perf_counter()
    for round_ in workloads.rounds(req["workload"], req["seed"], req["size"]):
        elapsed = time.perf_counter() - start
        if req["max_rounds"] is not None and done >= req["max_rounds"]:
            break
        if done >= req["min_rounds"] and elapsed + elapsed / done > req["seconds"]:
            break
        calls.extend(call(argv) for argv in round_)
        done += 1
    reply = {
        "calls": calls,
        "rounds": done,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        reply["metrics"], reply["absent"] = tracer.metrics()
        reply["module_shares"] = tracer.module_shares()
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
