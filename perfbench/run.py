"""pairrank benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Inputs are generated from ``--seed``
before any timing and written under ``.perfbench/``; the package only ever
sees those files.  Each run:

* times ``setup_s``: fresh interpreters importing ``pairrank.cli``;
* runs the workload in its own fresh worker process (``worker.py``): one
  closed-loop client calling ``pairrank.cli.main(argv)`` in process, one
  invocation at a time, pass after pass until ``--seconds`` have elapsed
  and at least 100 ops were timed, checking every output;
* with ``--trace 1`` runs the same passes once untraced and once traced
  (``tracer.py``) and reports the per-layer metrics instead.

The last line of stdout is one JSON object with the verdict and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibrate
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
MAX_PASSES = 24
SETUP_STARTS = 7
DEADLINE_S = 170  # every run ends well inside the 180 s limit


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> float:
    """Median time for a fresh interpreter to import pairrank.cli (after one
    untimed start that leaves the bytecode cache warm), calibrated like every
    other time."""
    times = []
    speed = calibrate.sample()
    for k in range(SETUP_STARTS + 1):
        t = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-c", "import pairrank.cli"], env=python_env(), cwd=ROOT,
                           check=True, timeout=60)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            fail(f"a fresh interpreter could not import pairrank.cli: {exc}")
        dt = time.perf_counter() - t
        after = calibrate.sample()
        if k:
            times.append(dt * calibrate.factor(speed, after))
        speed = after
    return statistics.median(times)


def run_worker(workdir: Path, name: str, seconds: float, min_ops: int, started: float,
               passes: int | None = None, spans: Path | None = None) -> dict:
    result_path = workdir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir / "ops.json"), str(result_path),
           str(seconds), str(min_ops)]
    if passes is not None:
        cmd.append(str(passes))
    if spans is not None:
        cmd += ["--trace", str(spans)]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=python_env(), cwd=workdir, timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        fail(f"{name} worker did not finish within the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        fail(f"{name} worker exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def describe(res: dict) -> None:
    """Human-readable lines ahead of the JSON verdict."""
    by_cls = defaultdict(list)
    for cls, dt in res["latencies"]:
        by_cls[cls].append(dt)
    print(f"samples: {len(res['latencies'])} ops over {len(res['passes'])} passes;"
          f" pass times {', '.join(f'{p:.3f}' for p in res['passes'])} s")
    print(f"machine speed: calibration factor median {statistics.median(res['factors']):.3f}"
          f" (range {min(res['factors']):.3f}-{max(res['factors']):.3f}); times below are scaled by it")
    for cls, values in sorted(by_cls.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {cls:<22} n={len(values):<4} median {statistics.median(values) * 1e3:9.2f} ms"
              f"  range {min(values) * 1e3:.2f}-{max(values) * 1e3:.2f} ms")
    for line in res["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "pairrank" / "cli.py").is_file():
        fail(f"package source not found at {SRC / 'pairrank'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        batches = build(args.workload, args.seed, MAX_PASSES, workdir, "inputs")
        (workdir / "ops.json").write_text(json.dumps(batches))
        if args.trace:
            plain = run_worker(workdir, "untraced", args.seconds / 2, 0, started)
            spans = out_dir / f"spans-{args.workload}-{args.seed}.json.gz"
            res = run_worker(workdir, "traced", 0, 0, started, len(plain["passes"]), spans)
            describe(res)
            metrics = dict(res["layers"])
            metrics["trace.overhead_frac"] = (
                statistics.median(res["passes"]) / statistics.median(plain["passes"]) - 1
            )
            print("waiting: not applicable -- one thread, no queues between layers")
            print(f"spans written to {spans.relative_to(ROOT)}")
            res["failures"] += plain["failures"]
            attempted = len(res["latencies"]) + len(plain["latencies"])
        else:
            setup_s = measure_setup()
            res = run_worker(workdir, "untraced", args.seconds, MIN_OPS, started)
            describe(res)
            lat = [dt for _, dt in res["latencies"]]
            attempted = len(lat)
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(res["passes"]),
                "op_p50_s": statistics.median(lat),
                "op_p90_s": statistics.quantiles(lat, n=10)[8],
                "ok_frac": 1 - len(res["failures"]) / attempted,
                "decided_frac": 1 - res["undecided"] / attempted,
                "peak_rss_mb": res["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        fail(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }))


if __name__ == "__main__":
    main()
