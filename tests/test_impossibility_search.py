"""The impossibility of IIM with SC found by exhaustive search on four
objects, not only replayed on the paper's instance 3.3.

Every problem on four objects with at most one unit match per pair (each of
the six pairs unplayed, or played once with result -1, 0 or 1: 4**6 = 4,096
problems) gets its SC-admitted weak orders from one table of the 75 orders
(``_OrderLanes``).  Problems P and P' clash at (i, j) when they differ in
one pair disjoint from {i, j}, every order P admits puts i strictly above j,
and every order P' admits puts j strictly above i: then no scorer satisfies
both SC and IIM, which is the structure of the proof of Theorem 3.1.  In the
weak variant, P only puts i at least as high as j.

A problem is written as six characters, one per pair in the order (X1, X2),
(X1, X3), (X1, X4), (X2, X3), (X2, X4), (X3, X4): ``.`` unplayed, ``+`` a
win for the first object, ``-`` a loss, ``0`` a draw.
"""

import itertools

import pytest

from pairrank.axioms import _OrderLanes
from pairrank.core import problem_from_results_matches
from pairrank.methods import iter_weak_orders
from pairrank.registry import get_instance

from helpers import ranks_above, ranks_at_least
from oracles import naive_sc_dominance

PAIRS = list(itertools.combinations(range(4), 2))
STATES = dict(zip(".-0+", (None, -1, 0, 1)))

# The clashes, one of each mirrored couple (P, P', i, j) and (P', P, j, i):
# P's one decisive result is a win and P' is P with it turned into a loss.
CLASHES = {
    ("+.00.0", "-.00.0", 3, 2),
    ("+0..00", "-0..00", 2, 3),
    (".+000.", ".-000.", 3, 1),
    (".0+00.", ".0-00.", 2, 1),
    (".00+0.", ".00-0.", 3, 0),
    (".000+.", ".000-.", 2, 0),
    ("0+..00", "0-..00", 1, 3),
    ("0.+0.0", "0.-0.0", 1, 2),
    ("0.0+.0", "0.0-.0", 0, 3),
    ("0.00.+", "0.00.-", 1, 0),
    ("00..+0", "00..-0", 0, 2),
    ("00..0+", "00..0-", 0, 1),
}


def _problem(code):
    results = [[0] * 4 for _ in range(4)]
    matches = [[0] * 4 for _ in range(4)]
    for (a, b), state in zip(PAIRS, code):
        if STATES[state] is not None:
            matches[a][b] = matches[b][a] = 1
            results[a][b], results[b][a] = STATES[state], -STATES[state]
    return problem_from_results_matches(results, matches)


def _code(problem):
    return "".join(
        "." if not problem.matches[a][b] else "-0+"[int(problem.results[a][b]) + 1] for a, b in PAIRS
    )


@pytest.fixture(scope="module")
def search():
    """Every problem's admitted orders, and the clashes, strict and weak."""
    lanes = _OrderLanes(4)
    admitted = {"".join(code): lanes.admitted(_problem(code)) for code in itertools.product(STATES, repeat=6)}

    def forcing(relation):
        return {code for code, orders in admitted.items() if orders & relation == orders}

    pairs = list(itertools.permutations(range(4), 2))
    strict = {(i, j): forcing(lanes.strict[i, j]) for i, j in pairs}
    weak = {(i, j): forcing(lanes.weak[i, j]) for i, j in pairs}
    clashes, weak_clashes = set(), set()
    for i, j in pairs:
        changed = PAIRS.index(tuple(sorted({0, 1, 2, 3} - {i, j})))
        for code in weak[i, j]:
            for state in STATES:
                other = code[:changed] + state + code[changed + 1:]
                if state != code[changed] and other in strict[j, i]:
                    weak_clashes.add((code, other, i, j))
                    if code in strict[i, j]:
                        clashes.add((code, other, i, j))
    return admitted, clashes, weak_clashes


def test_every_problem_on_four_objects_admits_an_order(search):
    admitted, _, _ = search
    assert len(admitted) == 4**6
    assert all(admitted.values())


def test_the_clashes_are_twelve_mirrored_couples(search):
    _, clashes, _ = search
    assert clashes == CLASHES | {(other, code, j, i) for code, other, i, j in CLASHES}
    assert len(clashes) == 24


def test_instance_33_and_its_mirror_clash_at_x1_x2(search):
    _, clashes, _ = search
    base, mirrored = (_code(get_instance(name).problem) for name in ("3.3", "3.3-prime"))
    assert (base, mirrored, 0, 1) in clashes
    assert (mirrored, base, 1, 0) in clashes


def test_no_clash_lies_between_two_round_robins(search):
    # The possibility result for round robins: each clash needs an unplayed pair.
    _, clashes, weak_clashes = search
    assert all("." in code or "." in other for code, other, _, _ in weak_clashes)
    assert clashes <= weak_clashes


def test_the_weak_variant_adds_the_all_draw_cycles(search):
    # P then only forces i at least as high as j: the three 4-cycles of draws,
    # each against its eight neighbours with one decisive result.
    _, clashes, weak_clashes = search
    added = weak_clashes - clashes
    assert len(weak_clashes) == 48 and len(added) == 24
    assert {code for code, _, _, _ in added} == {".0000.", "0.00.0", "00..00"}


def test_each_clash_replays_through_the_naive_dominance_oracle(search):
    # The SC orders of every problem in a clash, one order and one pair at a
    # time through the exhaustive scalar oracle, are the table's and force the
    # same order of i and j.
    admitted, clashes, weak_clashes = search
    orders = list(iter_weak_orders(4))

    def naive_admitted(code):
        problem = _problem(code)
        return [
            order
            for order in orders
            if all(
                ranks_above(order, i, j)
                or (kind := naive_sc_dominance(problem, order, i, j)) == "none"
                or kind == "weak" and ranks_at_least(order, i, j)
                for i, j in itertools.permutations(range(4), 2)
            )
        ]

    replayed = {code: naive_admitted(code) for clash in weak_clashes for code in clash[:2]}
    assert len(replayed) == 27
    for code, found in replayed.items():
        assert found == [order for x, order in enumerate(orders) if admitted[code] >> x & 1], code
    for code, other, i, j in weak_clashes:
        assert replayed[code] and all(ranks_at_least(order, i, j) for order in replayed[code])
        assert replayed[other] and all(ranks_above(order, j, i) for order in replayed[other])
        if (code, other, i, j) in clashes:
            assert all(ranks_above(order, i, j) for order in replayed[code])
