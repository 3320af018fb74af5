"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything asserts exact rational equality; there are no numeric
tolerances anywhere.
"""

from fractions import Fraction

import pytest

import invariant_checks as inv
from pairrank.axioms import (
    SATISFIED,
    VIOLATED,
    check_wsc,
    enumerate_sc_rankings,
    impossibility_trace,
    search_iim_violation,
)
from pairrank.cli import main
from pairrank.core import classify
from pairrank.macrovertex import find_macrovertices, search_mv_violation
from pairrank.methods import (
    generalized_row_sum,
    induce_ranking,
    least_squares,
    make_scorer,
    row_sum,
)
from pairrank.registry import get_instance

from corpus import limit_corpus, macrovertex_corpus, round_robin_corpus, sc_corpus
from helpers import order_from_groups, reversed_order

EPS_SMALL = (Fraction(1, 10), Fraction(1), Fraction(10))


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """Materialize the registry through the CLI itself (end to end)."""
    root = tmp_path_factory.mktemp("instances")
    paths = {}
    import io
    from contextlib import redirect_stdout

    for instance_id in ("3.1", "3.2", "3.3", "3.3-prime", "4.1"):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["example", "--id", instance_id, "--emit"]) == 0
        path = root / f"{instance_id}.json"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        paths[instance_id] = str(path)
    return paths


def _silent(argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_criterion_01_unique_self_consistent_ranking(instance_files):
    problem = get_instance("3.1").problem
    orders = enumerate_sc_rankings(problem)
    assert orders == [order_from_groups([[0], [1, 2], [3]])]
    code, out = _silent(["enumerate-sc", "--input", instance_files["3.1"]])
    assert code == 0
    assert out.strip().splitlines() == ["X1 > (X2 ~ X3) > X4", "total: 1"]
    print("ACCEPTANCE 01 PASS - instance 3.1 admits exactly one self-consistent ranking")


def test_criterion_02_multiple_self_consistent_rankings():
    problem = get_instance("3.2").problem
    orders = set(enumerate_sc_rankings(problem))
    assert len(orders) >= 3
    first = order_from_groups([[0, 1, 2], [3, 4, 5]])
    second = order_from_groups([[4], [3, 5], [0, 2], [1]])
    assert first in orders and second in orders and reversed_order(second) in orders
    print(
        "ACCEPTANCE 02 PASS - instance 3.2 admits %d rankings incl. both reference"
        " orders and a reversal" % len(orders)
    )


def test_criterion_03_impossibility_trace():
    trace = impossibility_trace()
    assert [step.holds for step in trace.steps] == [True] * 5
    by_name = {step.name: step for step in trace.steps}
    assert by_name["same-opponents-1-over-3"].holds  # forces f1 > f3
    assert by_name["same-opponents-4-over-2"].holds  # forces f4 > f2
    assert by_name["cross-opponents-1-over-2"].holds  # forces f1 > f2
    assert by_name["mirror-instance"].holds  # forces f2 > f1 on the variant
    assert trace.verdict == "contradiction established"
    print("ACCEPTANCE 03 PASS - impossibility trace derives all forcings and the clash")


def test_criterion_04_row_sum_verdicts(instance_files):
    code, _ = _silent(["check", "--axiom", "sc", "--method", "rowsum", "--input", instance_files["3.3"]])
    assert code == 2
    for instance_id in ("3.1", "3.2", "3.3"):
        code, _ = _silent(
            ["check", "--axiom", "iim", "--method", "rowsum", "--input", instance_files[instance_id]]
        )
        assert code == 0
    print("ACCEPTANCE 04 PASS - row sum: SC violated on 3.3 (exit 2), IIM clean on 3.1-3.3")


def test_criterion_05_corrected_methods_verdicts(instance_files):
    problem = get_instance("3.3").problem
    scorers = [make_scorer("grs", eps) for eps in EPS_SMALL] + [make_scorer("ls")]
    for scorer in scorers:
        report = search_iim_violation(scorer, problem)
        assert report.verdict == VIOLATED
        assert report.witness["perturbed_pair"] == [2, 3]
        assert report.witness["target_pair"] == [0, 1]
    for method_args in (
        ["--method", "grs", "--epsilon", "1/10"],
        ["--method", "grs", "--epsilon", "1"],
        ["--method", "grs", "--epsilon", "10"],
        ["--method", "ls"],
    ):
        code, _ = _silent(
            ["check", "--axiom", "iim", *method_args, "--input", instance_files["3.3"]]
        )
        assert code == 2, method_args
    for instance_id in ("3.1", "3.2", "3.3", "3.3-prime", "4.1"):
        for method_args in (
            ["--method", "grs", "--epsilon", "1/10"],
            ["--method", "grs", "--epsilon", "1"],
            ["--method", "grs", "--epsilon", "10"],
            ["--method", "ls"],
        ):
            code, _ = _silent(
                ["check", "--axiom", "sc", *method_args, "--input", instance_files[instance_id]]
            )
            assert code == 0, (instance_id, method_args)
    print(
        "ACCEPTANCE 05 PASS - grs/ls: IIM witness {X3,X4}->(X1,X2) on 3.3, SC clean on"
        " every registry"
    )


def test_criterion_06_exact_rating_values():
    problem = get_instance("3.3").problem
    assert row_sum(problem).values == (0, 0, -1, 1)
    assert least_squares(problem).values == (
        Fraction(1, 8),
        Fraction(-1, 8),
        Fraction(-3, 8),
        Fraction(3, 8),
    )
    assert generalized_row_sum(problem, 1).values == (
        Fraction(1, 3),
        Fraction(-1, 3),
        Fraction(-4, 3),
        Fraction(4, 3),
    )
    print("ACCEPTANCE 06 PASS - exact rating vectors on 3.3 match the hand-solved systems")


def test_criterion_07_round_robin_agreement():
    corpus = round_robin_corpus(100)
    assert len(corpus) == 100
    assert all(p.n <= 6 and p.max_multiplicity() <= 3 for p in corpus)
    for problem in corpus:
        s = row_sum(problem)
        for eps in EPS_SMALL:
            assert generalized_row_sum(problem, eps).values == s.values
        assert induce_ranking(least_squares(problem)) == induce_ranking(s)
    print("ACCEPTANCE 07 PASS - 100 seeded round robins: grs equals row sum exactly,"
          " least squares agrees in ranking")


def test_criterion_08_limit_behavior():
    corpus = limit_corpus(50)
    assert len(corpus) == 50
    extensions = 0
    for problem in corpus:
        s_rank = induce_ranking(row_sum(problem))
        q_rank = induce_ranking(least_squares(problem))
        low = induce_ranking(generalized_row_sum(problem, Fraction(1, 10**6)))
        if low != s_rank:
            extensions += 1
            low = induce_ranking(generalized_row_sum(problem, Fraction(1, 10**7)))
        assert low == s_rank
        high = induce_ranking(generalized_row_sum(problem, Fraction(10**6)))
        if high != q_rank:
            extensions += 1
            high = induce_ranking(generalized_row_sum(problem, Fraction(10**7)))
        assert high == q_rank
    print(
        "ACCEPTANCE 08 PASS - 50 seeded connected problems: endpoint rankings equal"
        f" row sum / least squares ({extensions} decade extensions)"
    )


def test_criterion_09_macrovertex_results(instance_files):
    problem = get_instance("4.1").problem
    members = find_macrovertices(problem)
    assert (0, 1, 2) in members
    assert (3, 4, 5) not in members
    scorers = [make_scorer("rowsum")] + [make_scorer("grs", e) for e in EPS_SMALL] + [
        make_scorer("ls")
    ]
    for scorer in scorers:
        for which in ("mva", "mvi"):
            assert search_mv_violation(scorer, problem, which).verdict == SATISFIED
    for which in ("mva", "mvi"):
        for method_args in (
            ["--method", "rowsum"],
            ["--method", "grs", "--epsilon", "1"],
            ["--method", "ls"],
        ):
            code, _ = _silent(
                ["check", "--axiom", which, *method_args, "--input", instance_files["4.1"]]
            )
            assert code == 0, (which, method_args)
    for corpus_problem in macrovertex_corpus():
        inv.check_no_mv_violations(corpus_problem, sweep=EPS_SMALL)
    print(
        "ACCEPTANCE 09 PASS - {X1,X2,X3} detected, {X4,X5,X6} rejected; no MVA/MVI"
        " violation for any method on 4.1 or the corpus"
    )


def test_criterion_10_weak_self_consistency(instance_files):
    for instance_id in ("3.1", "3.2", "3.3", "3.3-prime", "4.1"):
        code, _ = _silent(
            ["check", "--axiom", "wsc", "--method", "rowsum", "--input", instance_files[instance_id]]
        )
        assert code == 0
    corpus = sc_corpus()
    rowsum = make_scorer("rowsum")
    for problem in corpus:
        assert check_wsc(rowsum, problem).verdict == SATISFIED
    # Whenever SC holds, WSC must hold for the same method.
    for problem in corpus:
        for scorer in (rowsum, make_scorer("grs", 1), make_scorer("ls")):
            inv.check_wsc_follows_sc(problem, scorer)
    print("ACCEPTANCE 10 PASS - row sum weakly self-consistent everywhere; WSC follows SC")


def test_criterion_11_contradiction_instance_classes():
    flags = classify(get_instance("3.3").problem)
    assert flags.balanced and flags.unweighted and flags.extremal
    print("ACCEPTANCE 11 PASS - the impossibility instance is balanced, unweighted, extremal")


def test_criterion_12_invariant_suite():
    registries = [
        get_instance(instance_id).problem
        for instance_id in ("3.1", "3.2", "3.3", "3.3-prime", "4.1")
    ]
    corpus = sc_corpus() + registries
    for index, problem in enumerate(corpus):
        inv.check_matrix_invariants(problem)
        inv.check_class_implications(problem)
        inv.check_laplacian_invariants(problem, seed=index)
        inv.check_sum_algebra(problem)
        inv.check_decomposition_round_trip(problem)
        inv.check_rating_identities(problem)
        inv.check_limit_refinement(problem)
        inv.check_sign_flip(problem)
        perm = tuple(reversed(range(problem.n)))
        inv.check_equivariance(problem, perm)
        inv.check_rowsum_independence(problem)
        inv.check_macrovertex_results_blind(problem)
        inv.check_self_consistency_suite(problem)
    for problem in round_robin_corpus(20):
        inv.check_round_robin_agreement(problem)
    print(
        "ACCEPTANCE 12 PASS - module invariants hold over %d corpus problems"
        % len(corpus)
    )
