"""Self-test of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

The checker must accept the program's real outputs and reject each of them
with one detail altered; on a traced op, the layers' self times must add up
to the op's traced wall time.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
from check import Rejected, check_op  # noqa: E402
from worker import Invoker  # noqa: E402


def expect_rejected(op: dict, code: int, out: str, root: Path, what: str) -> None:
    try:
        check_op(op, code, out, root)
    except Rejected as exc:
        print(f"ok: rejects {what} ({exc})")
        return
    raise SystemExit(f"FAIL: checker accepted {what}")


def run(invoke: Invoker, root: Path, argv: list[str], expect: dict, path: str | None) -> tuple[dict, int, str]:
    op = {"argv": [*argv, "--input", path] if path else argv, "input": path, "expect": expect}
    code, out, err = invoke(op["argv"])
    check_op(op, code, out, root)  # the real output passes
    return op, code, out


def main() -> None:
    from pairrank.cli import main

    cli = Invoker(main)

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        root = Path(tmp)

        def write(name: str, problem: gen.Problem, as_csv: bool = False) -> str:
            (root / name).write_text(problem.to_csv() if as_csv else problem.to_json())
            return name

        os.chdir(root)
        table = gen.swiss(random.Random(7), 24)
        for method, as_csv in ((["ls"], False), (["grs", "--epsilon", "1/10"], True)):
            path = write(f"swiss-{method[0]}.{'csv' if as_csv else 'json'}", table, as_csv)
            op, code, out = run(cli, root, ["rank", "--method", *method, "--json"], {"kind": "rank", "codes": [0]}, path)
            doc = json.loads(out)
            label = next(iter(doc["ratings"]))
            doc["ratings"][label] = str(Fraction(doc["ratings"][label]) + Fraction(1, 10**6))
            expect_rejected(op, code, json.dumps(doc), root, f"{method[0]} ratings with one entry altered")

        path = write("paper3.3.json", gen.PAPER["3.3"])
        argv = ["check", "--axiom", "sc", "--method", "rowsum", "--json"]
        op, code, out = run(cli, root, argv, {"kind": "check", "codes": [2]}, path)
        doc = json.loads(out)
        layer = doc["witness"]["layer_results"][0]
        i, k = doc["witness"]["pair"][0], doc["witness"]["bijections"][0][0][0]
        layer[i][k] = str(Fraction(layer[i][k]) + 1)
        expect_rejected(op, code, json.dumps(doc), root, "an SC witness with one layer entry changed")

        path = write("mirrored.json", gen.mirrored(random.Random(3), 8))
        argv = ["check", "--axiom", "iim", "--method", "ls", "--json"]
        op, code, out = run(cli, root, argv, {"kind": "check", "codes": [2]}, path)
        doc = json.loads(out)
        doc["witness"]["perturbed_ratings"][0] = str(Fraction(doc["witness"]["perturbed_ratings"][0]) * 2 + 1)
        expect_rejected(op, code, json.dumps(doc), root, "an IIM witness with one rating altered")

        path = write("paper3.2.json", gen.PAPER["3.2"])
        op, code, out = run(cli, root, ["enumerate-sc"], {"kind": "enumerate", "codes": [0], "total": 130}, path)
        expect_rejected({**op, "expect": {**op["expect"], "total": 129}}, code, out, root, "a wrong enumerate-sc count")

        from tracer import LAYERS, Tracer

        tracer = Tracer()
        tracer.install()
        path = write("planted.json", gen.planted_macrovertex(random.Random(5), 8, 3, 6))
        for argv in (["check", "--axiom", "mva", "--method", "ls", "--json", "--input", path],
                     ["rank", "--method", "grs", "--epsilon", "1/10", "--input", "swiss-ls.json"],
                     ["enumerate-sc", "--input", "paper3.2.json"]):
            tracer.begin_op(argv[0])
            cli(argv)
            tracer.end_op()
            op = tracer.op
            root_span = next(s for s in tracer.spans if s[4] == op and s[3] == -1)
            wall = root_span[2] - root_span[1]
            layers = dict.fromkeys(LAYERS, 0.0)
            for span, own in zip(tracer.spans, tracer.self_times()):
                if span[4] == op:
                    layers[span[0].split(".")[0]] += own
            total = sum(layers.values())
            if abs(total - wall) > 1e-9 * len(tracer.spans) or set(layers) != set(LAYERS):
                raise SystemExit(f"FAIL: layer self times {total} != traced wall {wall} for {argv[0]}")
            busy = ", ".join(f"{name} {layers[name] * 1e3:.2f}" for name in LAYERS if layers[name])
            print(f"ok: {argv[0]} self times add up to the traced wall {wall * 1e3:.2f} ms ({busy} ms)")
        os.chdir(HERE.parent)
    print("selftest passed")


if __name__ == "__main__":
    main()
