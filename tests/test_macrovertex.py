import pytest

from pairrank.axioms import BUDGET_EXCEEDED, SATISFIED, BudgetExceededError
from pairrank.core import problem_from_results_matches, with_pair
from pairrank.macrovertex import find_macrovertices, is_macrovertex, search_mv_violation
from pairrank.methods import make_scorer

from corpus import random_round_robin, random_with_macrovertex
from oracles import check_iim_instance, check_mva_instance, check_mvi_instance

ROWSUM = make_scorer("rowsum")
GRS1 = make_scorer("grs", 1)
LS = make_scorer("ls")


def test_is_macrovertex_instance_41(instance_41):
    assert is_macrovertex(instance_41, (0, 1, 2))
    assert not is_macrovertex(instance_41, (3, 4, 5))
    assert is_macrovertex(instance_41, (2,))  # singletons qualify vacuously
    assert is_macrovertex(instance_41, tuple(range(6)))
    with pytest.raises(ValueError):
        is_macrovertex(instance_41, (0, 9))


def test_find_macrovertices_instance_41(instance_41):
    found = find_macrovertices(instance_41)
    members = [mv.members for mv in found]
    assert members == [(1, 2), (0, 1, 2), (0, 1, 2, 3)]
    assert (3, 4, 5) not in members
    outside_multiplicities = tuple(
        (k, *{instance_41.matches[i][k] for i in (0, 1, 2)}) for k in range(6) if k not in (0, 1, 2)
    )
    assert outside_multiplicities == ((3, 2), (4, 1), (5, 0))


def test_find_macrovertices_round_robin():
    p = random_round_robin(5, 4, max_multiplicity=2)
    found = [mv.members for mv in find_macrovertices(p)]
    expected = [
        members
        for size in range(2, 4)
        for members in __import__("itertools").combinations(range(4), size)
    ]
    assert found == expected


def test_find_macrovertices_size_guard():
    p = problem_from_results_matches(
        [[0] * 21 for _ in range(21)], [[0] * 21 for _ in range(21)]
    )
    with pytest.raises(BudgetExceededError, match="limited to twenty objects, got 21"):
        find_macrovertices(p)


def test_mvi_instance_clean(instance_41):
    changed = with_pair(instance_41, 1, 2, 1, 3)  # inside {0,1,2}
    for scorer in (ROWSUM, GRS1, LS):
        report = check_mvi_instance(scorer, instance_41, changed, (0, 1, 2), 3, 4)
        assert report.verdict == SATISFIED


def test_mva_instance_clean(instance_41):
    changed = with_pair(instance_41, 4, 5, 2, 3)  # outside {0,1,2}
    for scorer in (ROWSUM, GRS1, LS):
        report = check_mva_instance(scorer, instance_41, changed, (0, 1, 2), 0, 1)
        assert report.verdict == SATISFIED


def test_mva_instance_survives_disconnection(instance_41):
    # Dropping the X4-X5 matches splits nothing here, but dropping X5-X6
    # isolates X6; the per-component convention must still apply cleanly.
    changed = with_pair(instance_41, 4, 5, 0, 0)
    report = check_mva_instance(LS, instance_41, changed, (0, 1, 2), 0, 2)
    assert report.verdict == SATISFIED


def test_instance_preconditions(instance_41):
    inside_change = with_pair(instance_41, 1, 2, 1, 3)
    outside_change = with_pair(instance_41, 4, 5, 2, 3)
    with pytest.raises(ValueError):
        check_mvi_instance(ROWSUM, instance_41, inside_change, (3, 4, 5), 0, 1)  # not a macrovertex
    with pytest.raises(ValueError):
        check_mvi_instance(ROWSUM, instance_41, outside_change, (0, 1, 2), 3, 4)  # change outside
    with pytest.raises(ValueError):
        check_mva_instance(ROWSUM, instance_41, inside_change, (0, 1, 2), 0, 1)  # change inside
    with pytest.raises(ValueError):
        check_mvi_instance(ROWSUM, instance_41, inside_change, (0, 1, 2), 0, 4)  # watch inside
    with pytest.raises(ValueError):
        check_mva_instance(ROWSUM, instance_41, outside_change, (0, 1, 2), 0, 4)  # watch outside
    with pytest.raises(ValueError):
        check_mvi_instance(ROWSUM, instance_41, instance_41, (0, 1, 2), 3, 4)  # identical


def test_search_clean_on_instance_41(instance_41):
    for scorer in (ROWSUM, GRS1, LS):
        for which in ("mva", "mvi"):
            report = search_mv_violation(scorer, instance_41, which)
            assert report.verdict == SATISFIED
            assert report.instances_checked > 0


def test_search_zero_budget(instance_41):
    report = search_mv_violation(ROWSUM, instance_41, "mva", budget=0)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.exit_code() == 3
    assert report.instances_checked == 0
    assert report.detail == "instance budget exhausted"


def test_search_requires_macrovertex():
    # A path with distinct end multiplicities has no nontrivial macrovertex.
    p = problem_from_results_matches(
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 1, 0], [1, 0, 2], [0, 2, 0]],
    )
    assert find_macrovertices(p) == []
    with pytest.raises(ValueError):
        search_mv_violation(ROWSUM, p, "mva")
    with pytest.raises(ValueError):
        search_mv_violation(ROWSUM, p, "upside-down")


def test_macrovertex_ignores_results(instance_41):
    # Same matches, scrambled results: detection must not move.
    scrambled = with_pair(instance_41, 1, 2, 3, 3)
    assert is_macrovertex(scrambled, (0, 1, 2))
    assert [mv.members for mv in find_macrovertices(scrambled)] == [
        mv.members for mv in find_macrovertices(instance_41)
    ]


def test_round_robin_pairs_reduce_to_independence():
    # In a round robin every pair is a macrovertex and the localized check
    # coincides with the plain independence instance check.
    p = random_round_robin(77, 5, max_multiplicity=2)
    i, j = 0, 1
    assert is_macrovertex(p, (i, j))
    k, l = 2, 3
    changed = with_pair(p, k, l, 0, p.matches[k][l])
    if changed == p:
        changed = with_pair(p, k, l, 1, p.matches[k][l])
    for scorer in (ROWSUM, GRS1, LS):
        via_macro = check_mva_instance(scorer, p, changed, (i, j), i, j)
        via_iim = check_iim_instance(scorer, p, changed, i, j)
        assert via_macro.verdict == via_iim.verdict == SATISFIED


def test_planted_corpus_has_macrovertices():
    for seed in range(5):
        p = random_with_macrovertex(3000 + seed)
        assert find_macrovertices(p), seed
