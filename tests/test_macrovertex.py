import itertools
import random
from dataclasses import replace

import pytest

from pairrank import macrovertex
from pairrank.axioms import BUDGET_EXCEEDED, SATISFIED, AxiomReport, BudgetExceededError
from pairrank.core import problem_from_results_matches, with_pair
from pairrank.macrovertex import MAX_MACROVERTICES, find_macrovertices, is_macrovertex, search_mv_violation
from pairrank.methods import make_scorer

from corpus import (
    macrovertex_corpus,
    random_problem,
    random_round_robin,
    random_with_macrovertex,
    random_with_nested_macrovertices,
    round_robin_corpus,
    sc_corpus,
)
from oracles import (
    benchmark_generators,
    check_iim_instance,
    check_mva_instance,
    check_mvi_instance,
    reference_macrovertices,
)

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
    members = find_macrovertices(instance_41)
    assert members == [(1, 2), (0, 1, 2), (0, 1, 2, 3)]
    assert (3, 4, 5) not in members
    outside_multiplicities = tuple(
        (k, *{instance_41.matches[i][k] for i in (0, 1, 2)}) for k in range(6) if k not in (0, 1, 2)
    )
    assert outside_multiplicities == ((3, 2), (4, 1), (5, 0))


def test_find_macrovertices_round_robin():
    p = random_round_robin(5, 4, max_multiplicity=2)
    found = find_macrovertices(p)
    expected = [
        members
        for size in range(2, 4)
        for members in itertools.combinations(range(4), size)
    ]
    assert found == expected


def unplayed(n):
    """``n`` objects and no matches: every subset of 2..n-1 is a macrovertex."""
    return problem_from_results_matches([[0] * n for _ in range(n)], [[0] * n for _ in range(n)])


def test_find_macrovertices_size_guard():
    # 2**21 - 23 sets, refused from the count before any is listed.
    with pytest.raises(BudgetExceededError, match=r"^2097129 macrovertices exceed the cap of 1048576$"):
        find_macrovertices(unplayed(21))


def test_mv_search_over_the_cap_is_budget_exceeded():
    # The sweep reports the refusal as its verdict, naming the method its
    # ratings give, as every other report does.
    detail = "2097129 macrovertices exceed the cap of 1048576"
    renamed = lambda p: replace(ROWSUM(p), method="renamed")
    for which in ("mva", "mvi"):
        report = search_mv_violation(ROWSUM, unplayed(21), which)
        assert report == AxiomReport(which, "rowsum", BUDGET_EXCEEDED, None, 0, detail)
        assert report.exit_code() == 3
        for scorer, method in ((GRS1, "grs(1)"), (LS, "ls"), (renamed, "renamed")):
            assert search_mv_violation(scorer, unplayed(21), which).method == method


def test_macrovertex_cap_counts_sets(monkeypatch):
    # Eight unplayed objects have 2**8 - 10 macrovertices: exactly the cap
    # is listed, one fewer is refused.
    monkeypatch.setattr(macrovertex, "MAX_MACROVERTICES", 2**8 - 10)
    assert len(find_macrovertices(unplayed(8))) == 2**8 - 10
    monkeypatch.setattr(macrovertex, "MAX_MACROVERTICES", 2**8 - 11)
    with pytest.raises(BudgetExceededError, match=r"^246 macrovertices exceed the cap of 245$"):
        find_macrovertices(unplayed(8))
    # A round robin of 20 objects (2**20 - 22 sets) stays within the default
    # cap; one of 21 (2**21 - 23) does not.
    assert 2**20 - 22 <= MAX_MACROVERTICES < 2**21 - 23


def reference_corpus():
    """Seeded problems of up to 14 objects: the test corpora, sparse ones with
    unplayed objects, round robins, planted nested macrovertices and the
    benchmark's macrovertex-sweep inputs."""
    corpus = sc_corpus() + macrovertex_corpus() + round_robin_corpus()
    corpus += [random_problem(9700 + seed, 6 + seed % 9, edge_probability=0.25) for seed in range(18)]
    corpus += [random_round_robin(9800 + seed, 7 + seed, max_multiplicity=3) for seed in range(8)]
    corpus += [random_with_nested_macrovertices(9900 + seed, 6 + seed % 9) for seed in range(27)]
    gen = benchmark_generators()
    rng = random.Random(9950)
    tables = [gen.planted_macrovertex(rng, n, size, pairs) for n, size, pairs in ((7, 2, 6), (8, 3, 6), (9, 3, 8))]
    tables += [gen.round_robin(rng, n, 1) for n in (5, 6)]
    corpus += [problem_from_results_matches(table.R, table.M) for table in tables]
    return corpus


def test_find_macrovertices_matches_the_subset_scan_on_the_seeded_corpus():
    corpus = reference_corpus()
    assert max(problem.n for problem in corpus) == 14
    assert any(not any(row) for problem in corpus for row in problem.matches)  # unplayed objects
    nested = 0  # problems with one macrovertex inside another, short of every subset qualifying
    for problem in corpus:
        expected = reference_macrovertices(problem)
        assert find_macrovertices(problem) == expected
        if len(expected) < 2**problem.n - problem.n - 2:
            nested += any(set(a) < set(b) for a, b in itertools.combinations(expected, 2))
    assert nested >= 10


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
    assert find_macrovertices(scrambled) == find_macrovertices(instance_41)


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
