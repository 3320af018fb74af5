"""Output checker, independent of the package under test.

Every verdict is judged from the input file and the printed output alone,
with this file's own exact arithmetic: rating vectors by the residual of
the paper's linear system, full sweeps by their instance count, witnesses
by replay, and verdicts against known results (row sum satisfies IIM;
least squares and the generalized row sum satisfy SC, MVA and MVI).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from gen import macrovertices

EXIT_OF_VERDICT = {"satisfied-on-instances-checked": 0, "violated": 2, "budget-exceeded": 3}


class Rejected(Exception):
    """The output is wrong; the message says why."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def load(path: Path) -> tuple[list[str], list[list[Fraction]], list[list[int]]]:
    """Read a problem file the way the CLI's formats define it."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".csv":
        doc = json.loads(text)
        return doc["labels"], [[Fraction(x) for x in row] for row in doc["R"]], doc["M"]
    rows = list(csv.reader(io.StringIO(text)))[1:]
    index: dict[str, int] = {}
    for a, b, _, _ in rows:
        index.setdefault(a, len(index))
        index.setdefault(b, len(index))
    n = len(index)
    R = [[Fraction(0)] * n for _ in range(n)]
    M = [[0] * n for _ in range(n)]
    for a, b, score_a, score_b in rows:
        i, j = index[a], index[b]
        result = Fraction(score_a) - Fraction(score_b)
        R[i][j] += result
        R[j][i] -= result
        M[i][j] += 1
        M[j][i] += 1
    return list(index), R, M


def _components(M) -> list[list[int]]:
    n, seen, out = len(M), set(), []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        stack, members = [start], []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in range(n):
                if M[u][v] and v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(members)
    return out


def check_ratings(method: str, R, M, q: list[Fraction]) -> None:
    """Exact residual of the rating system for ``method`` (rowsum, ls or grs(eps))."""
    n = len(M)
    require(len(q) == n, f"{len(q)} ratings for {n} objects")
    s = [sum(row, Fraction(0)) for row in R]
    if method == "rowsum":
        require(list(q) == s, "ratings are not the row sums")
        return
    lq = [
        sum((M[i][j] * (q[i] - q[j]) for j in range(n) if M[i][j]), Fraction(0))
        for i in range(n)
    ]
    if method == "ls":
        bad = [i for i in range(n) if lq[i] != s[i]]
        require(not bad, f"L q != s at object {bad[:1]}")
        for component in _components(M):
            require(sum(q[i] for i in component) == 0, "a component's ratings do not sum to zero")
        return
    require(method.startswith("grs(") and method.endswith(")"), f"unknown method {method!r}")
    eps = Fraction(method[4:-1])
    factor = 1 + eps * max(max(row) for row in M) * n
    bad = [i for i in range(n) if q[i] + eps * lq[i] != factor * s[i]]
    require(not bad, f"(I + eps L) x != (1 + eps m n) s at object {bad[:1]}")


def variants(m: int) -> int:
    """Single-pair replacements a sweep tries: match count moves by at most
    one, the integer result stays within the new count, the base is skipped."""
    return sum(2 * m2 + 1 for m2 in (m - 1, m, m + 1) if m2 >= 0) - 1


def iim_instances(M) -> int:
    n = len(M)
    pairs = sum(variants(M[k][l]) for k in range(n) for l in range(k + 1, n))
    return pairs * comb(n - 2, 2)


def mv_instances(M, which: str) -> int:
    n, total = len(M), 0
    for members in macrovertices(M):
        outside = [k for k in range(n) if k not in members]
        change, watch = (members, outside) if which == "mvi" else (outside, members)
        if len(change) < 2 or len(watch) < 2:
            continue
        total += sum(variants(M[a][b]) for a, b in combinations(change, 2)) * comb(len(watch), 2)
    return total


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def check_order_witness(method: str, R, M, w: dict, axiom: str) -> None:
    """Replay an IIM/MVA/MVI witness: one changed pair, exact ratings on both
    problems, and a real flip of the watched pair."""
    n = len(M)
    k, l = w["perturbed_pair"]
    i, j = w["target_pair"]
    R2 = [[Fraction(x) for x in row] for row in w["perturbed_results"]]
    M2 = w["perturbed_matches"]
    changed = {
        (a, b) for a in range(n) for b in range(a + 1, n) if R[a][b] != R2[a][b] or M[a][b] != M2[a][b]
    }
    require(changed == {(min(k, l), max(k, l))}, f"perturbed problem differs at {sorted(changed)}")
    require(all(R2[a][b] == -R2[b][a] and M2[a][b] == M2[b][a] for a in range(n) for b in range(n)),
            "perturbed problem is not skew/symmetric")
    require(abs(R2[k][l]) <= M2[k][l], "perturbed result exceeds its match count")
    if axiom == "iim":
        require(not {k, l} & {i, j}, "perturbed pair touches the target pair")
    else:
        inside = set(w["macrovertex"])
        require(tuple(sorted(inside)) in macrovertices(M), "witness set is not a macrovertex")
        watched = {i, j} <= inside if axiom == "mva" else not {i, j} & inside
        moved = not {k, l} & inside if axiom == "mva" else {k, l} <= inside
        require(watched and moved, "witness pairs lie on the wrong sides of the macrovertex")
    base, after = _fractions(w["base_ratings"]), _fractions(w["perturbed_ratings"])
    check_ratings(method, R, M, base)
    check_ratings(method, R2, M2, after)
    a, b = w["flipped"]
    require({a, b} == {i, j}, "flipped pair is not the target pair")
    require(base[a] >= base[b] and after[a] < after[b], "the watched order did not flip")


def check_dominance_witness(method: str, R, M, w: dict, axiom: str) -> None:
    """Replay an SC/WSC witness: layers re-sum to the input, every pairing is
    a bijection of the two objects' layer opponents, every premise holds,
    and the ratings break the conclusion the dominance forces."""
    n = len(M)
    i, j = w["pair"]
    q = _fractions(w["ratings"])
    check_ratings(method, R, M, q)
    layers_r = [[[Fraction(x) for x in row] for row in layer] for layer in w["layer_results"]]
    layers_m = w["layer_matches"]
    require(len(layers_r) == len(layers_m) == len(w["bijections"]), "layer counts differ")
    for a in range(n):
        for b in range(n):
            require(sum(layer[a][b] for layer in layers_r) == R[a][b], f"layers do not re-sum at ({a}, {b})")
            require(sum(layer[a][b] for layer in layers_m) == M[a][b], f"layer matches do not re-sum at ({a}, {b})")
    strict = False
    for lr, lm, pairing in zip(layers_r, layers_m, w["bijections"]):
        for a in range(n):
            for b in range(n):
                require(lm[a][b] in (0, 1) and lm[a][b] == lm[b][a], "layer is not a unit-match problem")
                require(lr[a][b] == -lr[b][a] and abs(lr[a][b]) <= lm[a][b], "layer result out of range")
        left = sorted(k for k, _ in pairing)
        right = sorted(l for _, l in pairing)
        require(left == [k for k in range(n) if k != i and lm[i][k]], "pairing misses an opponent of i")
        require(right == [l for l in range(n) if l != j and lm[j][l]], "pairing misses an opponent of j")
        for k, l in pairing:
            require(lr[i][k] >= lr[j][l], "a paired result premise fails")
            require(q[k] >= q[l], "a paired opponent-strength premise fails")
            strict = strict or lr[i][k] > lr[j][l] or (axiom == "sc" and q[k] > q[l])
    if w["dominance"] == "strict":
        require(strict, "witness claims strict dominance without a strict premise")
        require(q[i] <= q[j], "strict dominance is already honoured by the ratings")
    else:
        require(q[i] < q[j], "weak dominance is already honoured by the ratings")


def _method_of(argv: list[str]) -> str:
    method = argv[argv.index("--method") + 1]
    if method == "grs":
        return f"grs({Fraction(argv[argv.index('--epsilon') + 1])})"
    return method


def check_op(op: dict, code: int, out: str, root: Path) -> None:
    """Raise :class:`Rejected` unless ``out`` and ``code`` are right for ``op``."""
    expect = op["expect"]
    require(code in expect["codes"], f"exit code {code} not in {expect['codes']}")
    kind = expect["kind"]
    if kind == "theorem31":
        lines = out.splitlines()
        require(lines[-1] == "verdict: contradiction established", "no contradiction established")
        require(all(line.startswith("[ok]") for line in lines[:-1]), "a derivation step failed")
        return
    labels, R, M = load(root / op["input"])
    if kind == "enumerate":
        lines = out.splitlines()
        require(lines[-1] == f"total: {expect['total']}", f"expected total {expect['total']}, got {lines[-1]!r}")
        require(len(set(lines[:-1])) == len(lines) - 1 == expect["total"], "listed rankings do not match the total")
        return
    method = _method_of(op["argv"])
    doc = json.loads(out)
    if kind == "rank":
        require(doc["method"] == method, f"method {doc['method']!r}")
        require(list(doc["ratings"]) == labels, "rating labels differ from the input")
        q = [Fraction(doc["ratings"][label]) for label in labels]
        check_ratings(method, R, M, q)
        ranking = doc["ranking"]
        require(sorted(x for group in ranking for x in group) == sorted(labels), "ranking is not a partition")
        value = {label: v for label, v in zip(labels, q)}
        for group in ranking:
            require(len({value[x] for x in group}) == 1, "a ranking level holds unequal ratings")
        heads = [value[group[0]] for group in ranking]
        require(all(a > b for a, b in zip(heads, heads[1:])), "ranking levels are not in rating order")
        return
    axiom = op["argv"][op["argv"].index("--axiom") + 1]
    require(doc["axiom"] == axiom and doc["method"] == method, "report names another axiom or method")
    require(EXIT_OF_VERDICT[doc["verdict"]] == code, f"verdict {doc['verdict']!r} with exit {code}")
    if doc["verdict"] == "violated":
        if axiom in ("sc", "wsc"):
            check_dominance_witness(method, R, M, doc["witness"], axiom)
        else:
            check_order_witness(method, R, M, doc["witness"], axiom)
    elif doc["verdict"] == "satisfied-on-instances-checked" and axiom in ("iim", "mva", "mvi"):
        full = iim_instances(M) if axiom == "iim" else mv_instances(M, axiom)
        require(doc["instances_checked"] == full, f"{doc['instances_checked']} instances, full sweep is {full}")
