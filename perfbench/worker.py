"""Run one workload's batches in this fresh process and write the raw results.

    python3 worker.py <ops.json> <result.json> <seconds> <min_ops> [<passes>] [--trace <spans.json>]

Closed loop, one client, no threads: each CLI invocation starts after the
previous one returns.  Passes run until ``seconds`` have elapsed and at
least ``min_ops`` ops were timed (or exactly ``passes`` passes when given).
A calibration sample (``calibrate.py``) is taken between consecutive ops,
and each op's time is scaled by the samples on either side of it.
Outputs are checked after each pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
from check import check_op


class Invoker:
    """Calls the CLI in process and captures its stdout, stderr and exit code.

    The two buffers are reused: click caches a wrapper per output stream, so
    a fresh buffer per call would pile up in that cache and in peak memory.
    """

    def __init__(self, main):
        self.main = main
        self.out, self.err = io.StringIO(), io.StringIO()

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        for buffer in (self.out, self.err):
            buffer.seek(0)
            buffer.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                code = self.main(argv)
            except Exception as exc:  # an escaped exception is a failed op, not a crash
                code = -1
                self.err.write(f"{type(exc).__name__}: {exc}")
        return code, self.out.getvalue(), self.err.getvalue()


def main() -> None:
    args = sys.argv[1:]
    spans_path = None
    if "--trace" in args:
        spans_path = Path(args[args.index("--trace") + 1])
        args = args[: args.index("--trace")]
    ops_path, result_path, seconds, min_ops = Path(args[0]), Path(args[1]), float(args[2]), int(args[3])
    fixed_passes = int(args[4]) if len(args) > 4 else None
    root = ops_path.parent
    batches = json.loads(ops_path.read_text())

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from pairrank.cli import main as cli_main

    invoke = Invoker(cli_main)
    invoke(["example", "--id", "3.1"])  # warm-up: lazy imports, first-call costs

    passes, latencies, factors, failures = [], [], [], []
    undecided = 0
    started = time.perf_counter()
    for p, batch in enumerate(batches):
        if fixed_passes is not None:
            if p == fixed_passes:
                break
        elif p > 0 and time.perf_counter() - started >= seconds and len(latencies) >= min_ops:
            break
        results = []
        speed = calibrate.sample()
        for op in batch:
            if tracer is not None:
                tracer.begin_op(f"{p}:{op['cls']}")
            t_op = time.perf_counter()
            code, out, err = invoke(op["argv"])
            dt = time.perf_counter() - t_op
            if tracer is not None:
                tracer.end_op()
            after = calibrate.sample()
            results.append((op, code, out, err, dt, calibrate.factor(speed, after)))
            speed = after
        passes.append(sum(dt * f for *_, dt, f in results))
        for op, code, out, err, dt, f in results:
            latencies.append([op["cls"], dt * f])
            factors.append(f)
            undecided += code == 3
            try:
                check_op(op, code, out, root)
            except Exception as exc:  # malformed output breaks the checker: a failed op
                failures.append(f"pass {p} {' '.join(op['argv'])}: {type(exc).__name__}: {exc} {err[-300:]}")
    if fixed_passes is not None and len(passes) < fixed_passes:
        raise SystemExit(f"only {len(batches)} batches for {fixed_passes} passes")

    result = {
        "passes": passes,
        "latencies": latencies,
        "factors": factors,
        "failures": failures,
        "undecided": undecided,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(len(passes), factors)
        tracer.dump(spans_path)
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
