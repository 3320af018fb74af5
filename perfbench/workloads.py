"""The three workloads: one batch of CLI invocations per pass.

Each pass gets its own inputs, drawn from ``Random(f"{workload}:{seed}:{pass}")``,
so repeated passes never re-run an identical input.  Generators fix the
structure (object count, edges per multiplicity, macrovertex shape) of every
op class, so a class does the same amount of work on every seed and its
latencies stay in one narrow band.  Op counts per class are chosen so that
the median and the 90th percentile of per-op latency fall inside a class,
not on the boundary between two.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen

EPS = ["--epsilon", "1/10"]
METHODS = {"rowsum": ["rowsum"], "ls": ["ls"], "grs": ["grs", *EPS]}

# enumerate-sc count on the fixed weighted problem below, recorded at the
# commit that introduced the benchmark.
WEIGHTED_ENUM_SEED = 20170102
WEIGHTED_ENUM_COUNT = json.loads(
    (Path(__file__).parent / "data" / "expected.json").read_text()
)["weighted_enumerate_sc_total"]


class Batch:
    """Ops of one pass, with their input files written under ``root``."""

    def __init__(self, root: Path, folder: str):
        self.root = root
        self.folder = folder
        (root / folder).mkdir(parents=True, exist_ok=True)
        self.ops: list[dict] = []

    def write(self, name: str, problem: gen.Problem, as_csv: bool = False) -> str:
        rel = f"{self.folder}/{name}.{'csv' if as_csv else 'json'}"
        (self.root / rel).write_text(problem.to_csv() if as_csv else problem.to_json())
        return rel

    def add(self, cls: str, argv: list[str], expect: dict, path: str | None = None) -> None:
        if path is not None:
            argv = [*argv, "--input", path]
        self.ops.append({"cls": cls, "argv": argv, "input": path, "expect": expect})

    def check(self, cls: str, path: str, axiom: str, method: str, codes: list[int], *extra: str) -> None:
        argv = ["check", "--axiom", axiom, "--method", *METHODS[method], *extra, "--json"]
        self.add(cls, argv, {"kind": "check", "codes": codes}, path)


def perturbation_sweep(batch: Batch, rng: random.Random) -> None:
    """Full single-pair perturbation sweeps: many with_pair copies, scorer
    re-runs on small problems and macrovertex detection.

    Per pass, by latency: 18 fast ops (IIM with exact scorers, which stop at
    the first violation; MVI at n = 7), 12 MVI sweeps at n = 8-9 that hold
    the median, 6 MVA sweeps, 10 ops near 0.2 s (IIM row-sum sweeps at
    n = 10, round robins of 5) that hold the 90th percentile, and the two
    heaviest sweeps (IIM at n = 14, a round robin of 6).
    """
    for k in range(3):
        path = batch.write(f"iim-exact{k}", gen.mirrored(rng, 8))
        for method in ("ls", "grs"):
            batch.check("iim-exact-n8", path, "iim", method, [2])
    for n, size, outside_pairs, count in ((7, 2, 6, 6), (8, 3, 6, 3), (9, 3, 8, 3)):
        for k in range(count):
            path = batch.write(f"mv{n}-{k}", gen.planted_macrovertex(rng, n, size, outside_pairs))
            for method in ("ls", "grs"):
                batch.check(f"mvi-planted-n{n}", path, "mvi", method, [0])
                if k == 0:
                    batch.check(f"mva-planted-n{n}", path, "mva", method, [0])
    for k in range(6):
        path = batch.write(f"iim10-{k}", gen.sparse_connected(rng, 10, 12, 2))
        batch.check("iim-rowsum-n10", path, "iim", "rowsum", [0])
    for k in range(2):
        path = batch.write(f"rr5-{k}", gen.round_robin(rng, 5, 1))
        batch.check("mv-rr-n5", path, "mva", "ls", [0])
        batch.check("mv-rr-n5", path, "mvi", "grs", [0])
    path = batch.write("iim14", gen.sparse_connected(rng, 14, 16, 2))
    batch.check("iim-rowsum-n14", path, "iim", "rowsum", [0])
    path = batch.write("rr6", gen.round_robin(rng, 6, 1))
    batch.check("mv-rr-n6", path, "mvi", "ls", [0])


def large_solve(batch: Batch, rng: random.Random) -> None:
    """Exact dense solves on Swiss-system tables, parse and validation around them.

    Per pass: 20 tables of 40 (the median), 6 of 80 (the 90th percentile;
    one read as a CSV match list) and 1 of 150, each ranked by LS and GRS.
    """
    for n, count in ((40, 20), (80, 6), (150, 1)):
        for k in range(count):
            path = batch.write(f"swiss{n}-{k}", gen.swiss(rng, n), as_csv=n == 80 and k == 0)
            for method in ("ls", "grs"):
                argv = ["rank", "--method", *METHODS[method], "--json"]
                batch.add(f"rank-n{n}", argv, {"kind": "rank", "codes": [0]}, path)


def dominance_search(batch: Batch, rng: random.Random) -> None:
    """Self-consistency dominance searches, weak-order enumeration and the
    Theorem 3.1 derivation; one scoring per op, negligible linear algebra.

    Per pass, by latency: 57 ops of a few ms (SC/WSC on seeded problems,
    the small paper instances) hold the median, Theorem 3.1, 8 relabelled
    copies of example 3.2 hold the 90th percentile, then two searches cut
    short by the layer-split budget and the weighted enumeration.
    """
    problems = [
        gen.dense_weighted(rng, 5, 1, 0.5),
        gen.dense_weighted(rng, 6, 2, 0.5),
        gen.dense_weighted(rng, 7, 2, 0.4),
        gen.dense_weighted(rng, 8, 1, 0.5),
        gen.dense_weighted(rng, 7, 1, 0.6),
        gen.regular(rng, 6, 3),
        gen.regular(rng, 8, 3),
        gen.round_robin(rng, 5, 1),
        gen.round_robin(rng, 6, 1),
    ]
    for k, problem in enumerate(problems):
        path = batch.write(f"sc{k}", problem)
        for axiom in ("sc", "wsc"):
            batch.check("sc-wsc", path, axiom, "rowsum", [0, 2])
            for method in ("ls", "grs"):
                batch.check("sc-wsc", path, axiom, method, [0])
    for name, total in (("3.1", 1), ("3.3", 5)):
        path = batch.write(f"paper{name}", gen.PAPER[name])
        batch.add(f"enumerate-{name}", ["enumerate-sc"], {"kind": "enumerate", "codes": [0], "total": total}, path)
    path = batch.write("paper3.3-sc", gen.PAPER["3.3"])
    batch.check("sc-rowsum-3.3", path, "sc", "rowsum", [2])
    batch.add("theorem31", ["theorem31"], {"kind": "theorem31", "codes": [0]})
    for k in range(8):
        path = batch.write(f"paper3.2-{k}", gen.permuted(rng, gen.PAPER["3.2"]))
        batch.add("enumerate-3.2", ["enumerate-sc"], {"kind": "enumerate", "codes": [0], "total": 130}, path)
    for k, method in enumerate(("ls", "grs")):
        path = batch.write(f"budget{k}", gen.round_robin_one_tie(rng, 8, 3))
        batch.check("sc-budget", path, "sc", method, [0, 3], "--budget", "2500")
    path = batch.write("weighted", gen.dense_weighted(random.Random(WEIGHTED_ENUM_SEED), 6, 2, 0.5))
    expect = {"kind": "enumerate", "codes": [0], "total": WEIGHTED_ENUM_COUNT}
    batch.add("enumerate-weighted", ["enumerate-sc"], expect, path)


WORKLOADS = {
    "perturbation-sweep": perturbation_sweep,
    "large-solve": large_solve,
    "dominance-search": dominance_search,
}


def build(workload: str, seed: int, passes: int, root: Path, folder: str) -> list[list[dict]]:
    """Write the inputs of ``passes`` batches under ``root/folder``; return their ops."""
    batches = []
    for p in range(passes):
        batch = Batch(root, f"{folder}/p{p}")
        WORKLOADS[workload](batch, random.Random(f"{workload}:{seed}:{p}"))
        batches.append(batch.ops)
    return batches
