from fractions import Fraction

import pytest

from pairrank.core import problem_from_results_matches
from pairrank.methods import (
    WeakOrder,
    generalized_row_sum,
    induce_ranking,
    iter_weak_order_levels,
    iter_weak_orders,
    least_squares,
    make_scorer,
    row_sum,
)

from helpers import order_from_groups, ranks_above, ranks_at_least, reversed_order, tied
from oracles import dense_laplacian, fubini, matrix_apply, reference_weak_order_levels


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
    assert induce_ranking(row_sum(instance_33)).format() == "X4 > (X1 ~ X2) > X3"
    assert induce_ranking(least_squares(instance_33)).format() == "X4 > X1 > X2 > X3"
    assert WeakOrder.from_ratings(frac([1, 1, 1])).groups() == ((0, 1, 2),)


def test_weak_order_api():
    order = order_from_groups([[0], [1, 2], [3]])
    assert order.levels == (0, 1, 1, 2)
    assert ranks_above(order, 0, 3)
    assert tied(order, 1, 2)
    assert ranks_at_least(order, 1, 2) and ranks_at_least(order, 2, 1)
    assert reversed_order(order).levels == (2, 1, 1, 0)
    assert order.format(["a", "b", "c", "d"]) == "a > (b ~ c) > d"
    with pytest.raises(ValueError):
        WeakOrder((0, 2))  # gap in levels


def test_weak_order_counts_match_recurrence():
    for n in range(1, 7):
        assert sum(1 for _ in iter_weak_orders(n)) == fubini(n)


def test_weak_order_walk_matches_the_sorted_reference():
    for n in range(7):
        assert list(iter_weak_order_levels(n)) == reference_weak_order_levels(n)


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
