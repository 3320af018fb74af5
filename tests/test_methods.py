import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from pairrank import cli, linalg, methods
from pairrank.core import multigraph, problem_from_results_matches, with_pair
from pairrank.methods import (
    format_order,
    generalized_row_sum,
    induce_ranking,
    iter_weak_orders,
    least_squares,
    make_scorer,
    order_groups,
    row_sum,
    weak_order_lines,
)
from pairrank.serialize import parse_problem_json

from helpers import order_from_groups, ranks_above, ranks_at_least, reversed_order, tied
from oracles import (
    dense_generalized_row_sum,
    dense_laplacian,
    dense_least_squares,
    fubini,
    matrix_apply,
    reference_format_order,
    reference_levels,
    reference_order_groups,
    reference_weak_order_levels,
)


def frac(values):
    return tuple(Fraction(v) for v in values)


def test_row_sum_values(instance_31, instance_33):
    assert row_sum(instance_31).values == frac([2, 0, 0, -2])
    assert row_sum(instance_33).values == frac([0, 0, -1, 1])


def test_row_sum_zero():
    p = problem_from_results_matches([[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)])
    assert row_sum(p).values == frac([0, 0, 0])


def test_generalized_row_sum_cycle(instance_33):
    x = generalized_row_sum(instance_33, 1)
    assert x.values == frac([Fraction(1, 3), Fraction(-1, 3), Fraction(-4, 3), Fraction(4, 3)])
    # Verify by substitution: (I + L) x == 5 s.
    lap = dense_laplacian(instance_33)
    s = row_sum(instance_33).values
    lhs = tuple(
        x.values[i] + matrix_apply(lap, x.values)[i] for i in range(4)
    )
    assert lhs == tuple(5 * v for v in s)


def test_generalized_row_sum_rejects_bad_epsilon(instance_33):
    with pytest.raises(ValueError):
        generalized_row_sum(instance_33, 0)
    with pytest.raises(ValueError):
        generalized_row_sum(instance_33, -1)


def test_generalized_row_sum_zero_results():
    p = problem_from_results_matches(
        [[0, 0], [0, 0]], [[0, 1], [1, 0]]
    )
    assert generalized_row_sum(p, Fraction(1, 7)).values == frac([0, 0])


def test_least_squares_cycle(instance_33):
    q = least_squares(instance_33)
    assert q.values == frac([Fraction(1, 8), Fraction(-1, 8), Fraction(-3, 8), Fraction(3, 8)])
    lap = dense_laplacian(instance_33)
    assert matrix_apply(lap, q.values) == row_sum(instance_33).values
    assert sum(q.values) == 0


def test_least_squares_round_robin_closed_form():
    p = problem_from_results_matches(
        [[0, 2, -1], [-2, 0, 1], [1, -1, 0]],
        [[0, 2, 2], [2, 0, 2], [2, 2, 0]],
    )
    s = row_sum(p).values
    q = least_squares(p).values
    mn = 2 * 3
    assert q == tuple(v / mn for v in s)
    x = generalized_row_sum(p, Fraction(3, 7)).values
    assert x == s


def test_least_squares_isolated_object():
    p = problem_from_results_matches(
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    )
    q = least_squares(p)
    assert q.values[2] == 0
    assert q.values[0] + q.values[1] == 0
    assert q.note.startswith("unconnected")


def test_induce_ranking(instance_33):
    assert format_order(induce_ranking(row_sum(instance_33))) == "X4 > (X1 ~ X2) > X3"
    assert format_order(induce_ranking(least_squares(instance_33))) == "X4 > X1 > X2 > X3"
    unplayed = problem_from_results_matches([[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)])
    assert order_groups(induce_ranking(row_sum(unplayed))) == [[0, 1, 2]]


def test_weak_order_api():
    order = order_from_groups([[0], [1, 2], [3]])
    assert order == (0, 1, 1, 2)
    assert ranks_above(order, 0, 3)
    assert tied(order, 1, 2)
    assert ranks_at_least(order, 1, 2) and ranks_at_least(order, 2, 1)
    assert reversed_order(order) == (2, 1, 1, 0)
    assert format_order(order, ["a", "b", "c", "d"]) == "a > (b ~ c) > d"


def test_gapped_and_negative_levels_group_by_their_sorted_values():
    assert format_order((2, 0, 2, 5)) == "X2 > (X1 ~ X3) > X4"
    assert order_groups((2, 0, 2, 5)) == [[1], [0, 2], [3]]
    assert order_groups((1, -1, 1)) == [[1], [0, 2]]
    assert format_order((1, -1, 1), ["a", "b", "c"]) == "b > (a ~ c)"


def test_order_groups_and_text_match_the_reference():
    for n in range(1, 7):
        labels = [f"team {chr(ord('a') + i)}" for i in range(n)]
        for order in iter_weak_orders(n):
            assert order_groups(order) == reference_order_groups(order)
            assert format_order(order) == reference_format_order(order)
            assert format_order(order, labels) == reference_format_order(order, labels)


def test_weak_order_counts_match_recurrence():
    for n in range(1, 8):
        kept = weak_order_lines.cache_info().currsize
        assert sum(1 for _ in iter_weak_orders(n)) == fubini(n)
    # Past the six-object enumeration limit the table is built for one call.
    assert weak_order_lines.cache_info().currsize == kept


def test_weak_order_walk_matches_the_sorted_reference():
    for n in range(7):
        assert list(iter_weak_orders(n)) == reference_weak_order_levels(n)


def test_weak_order_lines_are_the_orders_written_by_format_order():
    # The labels hold format fields, braces and the separators themselves:
    # a template formats its arguments without reading them.
    labels = ["{0}", "a}b", "(c", "d > e", "f ~ g", "{"]
    for n in range(1, 7):
        lines = weak_order_lines(n)
        assert list(lines) == list(iter_weak_orders(n)) == reference_weak_order_levels(n)
        for levels, line in lines.items():
            assert line.format(*labels[:n]) == format_order(levels, labels[:n])
            assert line.format(*labels[:n]) == reference_format_order(levels, labels[:n])
            assert line.format(*(f"X{k + 1}" for k in range(n))) == format_order(levels)
        tied = " ~ ".join(f"{{{k}}}" for k in range(n))
        assert lines[(0,) * n] == (f"({tied})" if n > 1 else "{0}")
    assert weak_order_lines(4)[(1, 1, 2, 0)] == "{3} > ({0} ~ {1}) > {2}"
    assert weak_order_lines(0) == {(): ""}


def test_weak_orders_distinct():
    orders = list(iter_weak_orders(4))
    assert len(set(orders)) == len(orders)


def test_make_scorer_tags(instance_33):
    assert make_scorer("rowsum")(instance_33).method == "rowsum"
    assert make_scorer("grs", "1/10")(instance_33).method == "grs(1/10)"
    assert make_scorer("ls")(instance_33).method == "ls"
    with pytest.raises(ValueError):
        make_scorer("grs")
    with pytest.raises(ValueError):
        make_scorer("elo")
    for epsilon in (0, "-1/3"):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            make_scorer("grs", epsilon)


def test_make_scorer_returns_the_scoring_functions(instance_33):
    # A scorer is its rating function: nothing wraps row sums or LS, and a
    # GRS scorer gives exactly the ratings of generalized_row_sum.
    assert make_scorer("rowsum") is row_sum
    assert make_scorer("ls") is least_squares
    for epsilon in (Fraction(1, 10), "1/3", 2):
        assert make_scorer("grs", epsilon)(instance_33) == generalized_row_sum(instance_33, epsilon)


def test_every_epsilon_is_read_by_one_guarded_check(instance_33):
    # make_scorer and generalized_row_sum read epsilon as the command line
    # does, with its messages; a string past the digit cap is refused at
    # once instead of being expanded.
    readers = (lambda eps: make_scorer("grs", eps), lambda eps: generalized_row_sum(instance_33, eps))
    for read in readers:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^epsilon must be a rational number, got '1e99999999'$"):
            read("1e99999999")
        assert time.perf_counter() - start < 5
        for epsilon in ("fish", "1/0"):
            with pytest.raises(ValueError, match=f"^epsilon must be a rational number, got '{epsilon}'$"):
                read(epsilon)
        for epsilon in ("0", "-1/3", Fraction(-2, 4)):
            with pytest.raises(ValueError, match=f"^epsilon must be positive, got {epsilon}$"):
                read(epsilon)


def test_each_score_factors_its_system_once(monkeypatch, capsys, instance_41):
    # A scorer's ratings come from one solve per component, whose
    # factorization their pair update keeps for its columns: a second
    # factorization of the same system, from a separate rating path, would
    # show here.  The update takes the solve's integers as they are, so the
    # ratings' denominators are cleared once per solve, not again for it.
    # Factorizations of both kinds are counted: Swiss tables of 20 and 40
    # teams are lifted modulo a prime, the smaller systems eliminated.
    sizes, cleared = [], []

    def counting_factor(rows, p):
        sizes.append(len(rows))
        return factor(rows, p)

    class CountingElimination(linalg.Elimination):
        def __init__(self, rows):
            sizes.append(len(rows))
            super().__init__(rows)

    factor, clear = linalg._factor, methods._cleared
    monkeypatch.setattr(linalg, "_factor", counting_factor)
    monkeypatch.setattr(linalg, "Elimination", CountingElimination)
    monkeypatch.setattr(methods, "_cleared", lambda values: cleared.append(len(values)) or clear(values))
    inputs = Path(__file__).parent / "golden" / "inputs"
    swiss20 = parse_problem_json((inputs / "swiss20.json").read_text()).problem
    disconnected = parse_problem_json((inputs / "disconnected.json").read_text()).problem
    for problem, ls, grs in ((instance_41, [5], [6]), (swiss20, [19], [20]), (disconnected, [2, 2, 0], [7])):
        problem.row_sums  # read first, so that only the scorers' clearing is counted
        sizes.clear()
        cleared.clear()
        least_squares(problem)
        assert sizes == ls and len(cleared) == len(ls)
        sizes.clear()
        cleared.clear()
        generalized_row_sum(problem, Fraction(1, 3))
        assert sizes == grs and len(cleared) == 1
    sizes.clear()
    assert cli.main(["rank", "--method", "ls", "--input", str(inputs / "swiss40.json")]) == 0
    assert capsys.readouterr().out.startswith("T01: ")
    assert sizes == [39]


def _fractional_problem(rng: random.Random, n: int):
    """About half the pairs played, 1-3 times, results with denominators up to 6."""
    results = [[Fraction(0)] * n for _ in range(n)]
    matches = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                mu, den = rng.randint(1, 3), rng.randint(1, 6)
                rho = Fraction(rng.randint(-mu * den, mu * den), den)
                results[i][j], results[j][i] = rho, -rho
                matches[i][j] = matches[j][i] = mu
    return problem_from_results_matches(results, matches)


def _scoring_corpus():
    """The golden inputs, seeded problems with fractional results, and
    single-pair copies of both that give a pair a fractional result."""
    inputs = Path(__file__).parent / "golden" / "inputs"
    rng = random.Random(2701)
    problems = [parse_problem_json(path.read_text()).problem for path in sorted(inputs.glob("*.json"))]
    problems += [_fractional_problem(rng, rng.randint(1, 12)) for _ in range(30)]
    copies = []
    for problem in problems:
        if problem.n > 1:
            i, j = rng.sample(range(problem.n), 2)
            mu = rng.randint(0, 3)
            copies.append(with_pair(problem, i, j, Fraction(rng.randint(-3 * mu, 3 * mu), 3), mu))
    return problems + copies


def test_row_sums_ranks_and_least_squares_match_plain_fraction_arithmetic():
    for problem in _scoring_corpus():
        sums = problem.row_sums
        assert sums == tuple(sum(row, Fraction(0)) for row in problem.results)
        assert all(type(s) is Fraction for s in sums)
        ls = least_squares(problem)
        assert ls.values == dense_least_squares(problem)
        grs = generalized_row_sum(problem, Fraction(1, 7))
        assert grs.values == dense_generalized_row_sum(problem, Fraction(1, 7))
        # Every method's ratings carry their pair update, except LS off a
        # connected problem; the update is no part of equality, hash or repr.
        assert (ls.pair_update is None) == (len(multigraph(problem).components) != 1)
        for ratings in (row_sum(problem), ls, grs):
            assert induce_ranking(ratings) == reference_levels(ratings.values)
            assert ratings.pair_update is not None or ratings is ls
            bare = replace(ratings, pair_update=None)
            assert bare == ratings and hash(bare) == hash(ratings) and repr(bare) == repr(ratings)
            assert "pair_update" not in repr(ratings)
