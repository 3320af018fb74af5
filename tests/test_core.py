import time
from fractions import Fraction
from pathlib import Path

import pytest

from pairrank.core import (
    InvalidProblemError,
    classify,
    laplacian,
    multigraph,
    permute_problem,
    problem_from_results_matches,
    with_pair,
)
from pairrank.serialize import parse_problem_json

from corpus import limit_corpus, macrovertex_corpus, random_problem, round_robin_corpus, sc_corpus
from helpers import canonical_unweighted_decomposition, negate_results, sum_problems, tournament
from invariant_checks import check_laplacian_invariants
from oracles import _changed_pairs, connected_components, problem_from_tournament


def test_problem_from_tournament_basic():
    t = [
        [0, 1, 1, Fraction(1, 2)],
        [0, 0, Fraction(1, 2), 1],
        [0, Fraction(1, 2), 0, 1],
        [Fraction(1, 2), 0, 0, 0],
    ]
    p = problem_from_tournament(t)
    assert p.results[0][1] == 1
    assert p.results[0][3] == 0
    assert p.matches[0][1] == 1
    assert p.matches[0][3] == 1
    assert tournament(p) == tuple(tuple(Fraction(x) for x in row) for row in t)


def test_problem_from_tournament_zero():
    p = problem_from_tournament([[0] * 4 for _ in range(4)])
    assert all(x == 0 for row in p.results for x in row)
    assert all(x == 0 for row in p.matches for x in row)


def test_tournament_round_trip(instance_31):
    rebuilt = problem_from_tournament(tournament(instance_31))
    assert rebuilt == instance_31


def test_tournament_rejects_bad_input():
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, 1], [1, 0.25]])  # nonzero diagonal
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, -1], [1, 0]])  # negative score
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, Fraction(1, 2)], [Fraction(3, 4), 0]])  # non-integer total
    with pytest.raises(InvalidProblemError):
        problem_from_tournament([[0, 1, 0], [0, 0, 1]])  # not square


def test_results_matches_validation_messages():
    with pytest.raises(InvalidProblemError) as excinfo:
        problem_from_results_matches([[0, 2], [-2, 0]], [[0, 1], [1, 0]])
    assert "|result| <= matches violated at (X1, X2)" in str(excinfo.value)

    with pytest.raises(InvalidProblemError) as excinfo:
        problem_from_results_matches([[0, 1], [0, 0]], [[0, 1], [1, 0]])
    assert "skew-symmetry" in str(excinfo.value)

    with pytest.raises(InvalidProblemError):
        problem_from_results_matches([[0, 0], [0, 0]], [[0, 2], [1, 0]])

    with pytest.raises(InvalidProblemError):
        problem_from_results_matches([[0, 0], [0, 0]], [[0, -1], [-1, 0]])

    with pytest.raises(InvalidProblemError, match="a ranking problem needs at least one object"):
        problem_from_results_matches([], [])


def test_registry_31_is_valid_and_classified(instance_31):
    flags = classify(instance_31)
    assert flags.balanced and flags.unweighted and flags.extremal and flags.connected
    assert not flags.round_robin


def test_classify_round_robin():
    p = problem_from_results_matches(
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 2, 2], [2, 0, 2], [2, 2, 0]],
    )
    flags = classify(p)
    assert flags.round_robin and flags.balanced


def test_classify_instance_41(instance_41):
    flags = classify(instance_41)
    assert not flags.balanced
    assert flags.connected


def test_multigraph_31(instance_31):
    g = multigraph(instance_31)
    assert g.degrees == (2, 2, 2, 2)
    assert instance_31.max_multiplicity() == 1
    assert g.components == ((0, 1, 2, 3),)


def test_multigraph_empty():
    p = problem_from_results_matches([[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)])
    g = multigraph(p)
    assert g.degrees == (0, 0, 0)
    assert g.components == ((0,), (1,), (2,))


def test_multigraph_41(instance_41):
    g = multigraph(instance_41)
    assert g.degrees == (3, 6, 6, 7, 7, 3)
    assert instance_41.max_multiplicity() == 3
    assert len(g.components) == 1


def test_multigraph_components_match_the_flood_fill_oracle():
    # Components in order of smallest member, each sorted: the corpora, sparse
    # problems that fall apart, and the golden disconnected input.
    path = Path(__file__).parent / "golden" / "inputs" / "disconnected.json"
    disconnected = parse_problem_json(path.read_text()).problem
    assert multigraph(disconnected).components == ((0, 2, 5), (1, 3, 4), (6,))
    sparse = [random_problem(seed, 4 + seed % 9, edge_probability=0.2) for seed in range(100)]
    problems = sc_corpus() + macrovertex_corpus() + round_robin_corpus() + limit_corpus() + sparse
    graphs = [multigraph(p).components for p in problems]
    assert sum(len(components) > 1 and any(len(c) > 2 for c in components) for components in graphs) >= 10
    for problem in [disconnected, *problems]:
        assert multigraph(problem).components == tuple(map(tuple, connected_components(problem)))


def test_laplacian_cycle(instance_33):
    rows = laplacian(instance_33)
    assert rows == [
        {1: -1, 3: -1, 0: 2},
        {0: -1, 2: -1, 1: 2},
        {1: -1, 3: -1, 2: 2},
        {0: -1, 2: -1, 3: 2},
    ]
    assert [list(row) for row in rows] == [[1, 3, 0], [0, 2, 1], [1, 3, 2], [0, 2, 3]]


def test_laplacian_zero_and_round_robin():
    empty = problem_from_results_matches([[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)])
    assert laplacian(empty) == [{0: 0}, {1: 0}, {2: 0}]
    rr = problem_from_results_matches(
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    assert laplacian(rr) == [{1: -1, 2: -1, 0: 2}, {0: -1, 2: -1, 1: 2}, {0: -1, 1: -1, 2: 2}]


def test_laplacian_matches_the_dense_oracle_on_the_seeded_corpus():
    corpus = sc_corpus() + macrovertex_corpus() + round_robin_corpus(20)
    corpus += [random_problem(9500 + seed, 6, edge_probability=0.2) for seed in range(20)]
    assert any(not any(row) for problem in corpus for row in problem.matches)  # isolated objects
    for seed, problem in enumerate(corpus):
        check_laplacian_invariants(problem, seed)


def test_sum_problems_identity_and_doubling(instance_31):
    zero = problem_from_results_matches([[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)])
    assert sum_problems(instance_31, zero) == instance_31
    doubled = sum_problems(instance_31, instance_31)
    assert doubled.results[0][1] == 2
    assert doubled.matches[0][1] == 2
    with pytest.raises(InvalidProblemError):
        sum_problems(instance_31, problem_from_results_matches([[0]], [[0]]))


def test_split_and_resum(instance_31):
    # Tear the instance into two layers, each holding two of its matches.
    first = problem_from_results_matches(
        [[0, 1, 1, 0], [-1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
    )
    second = problem_from_results_matches(
        [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, -1, -1, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 1, 1, 0]],
    )
    assert sum_problems(first, second) == instance_31


def test_canonical_decomposition_unweighted_is_identity(instance_31):
    decomposition = canonical_unweighted_decomposition(instance_31)
    assert len(decomposition.layers) == 1
    assert decomposition.layers[0] == instance_31
    assert decomposition.parent_fingerprint == instance_31.fingerprint


def test_canonical_decomposition_forced_and_tie():
    p = problem_from_results_matches([[0, 2], [-2, 0]], [[0, 2], [2, 0]])
    layers = canonical_unweighted_decomposition(p).layers
    assert [layer.results[0][1] for layer in layers] == [1, 1]
    assert [layer.matches[0][1] for layer in layers] == [1, 1]

    tied = problem_from_results_matches([[0, 0], [0, 0]], [[0, 2], [2, 0]])
    layers = canonical_unweighted_decomposition(tied).layers
    assert [layer.results[0][1] for layer in layers] == [0, 0]


def test_canonical_decomposition_rejects_fractional_results():
    p = problem_from_results_matches(
        [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], [[0, 1], [1, 0]]
    )
    with pytest.raises(InvalidProblemError):
        canonical_unweighted_decomposition(p)


def test_permute_and_negate(instance_33, instance_33_prime):
    assert permute_problem(instance_33, (1, 0, 3, 2)) == instance_33_prime
    with pytest.raises(ValueError, match="not a permutation"):
        permute_problem(instance_33, (0, 0, 1, 2))
    flipped = negate_results(instance_33)
    assert flipped.results[2][3] == 1
    assert flipped.matches == instance_33.matches


def test_with_pair_and_differing_pairs(instance_33):
    changed = with_pair(instance_33, 2, 3, 1, 1)
    assert _changed_pairs(instance_33, changed) == [(2, 3)]
    assert changed.results[3][2] == -1
    assert changed.row_sums == tuple(sum(row, Fraction(0)) for row in changed.results)
    with pytest.raises(InvalidProblemError, match=r"diagonal pair \(1, 1\)"):
        with_pair(instance_33, 1, 1, 0, 0)
    for i, j in ((0, 4), (4, 0), (-1, 2)):
        with pytest.raises(InvalidProblemError, match="out of range"):
            with_pair(instance_33, i, j, 0, 1)
    with pytest.raises(InvalidProblemError, match=r"negative match count at \(X1, X2\)"):
        with_pair(instance_33, 0, 1, 0, -1)
    with pytest.raises(InvalidProblemError, match="not an integer"):
        with_pair(instance_33, 0, 1, 0, Fraction(3, 2))
    with pytest.raises(InvalidProblemError, match=r"\|result\| <= matches violated at \(X1, X2\)"):
        with_pair(instance_33, 0, 1, 5, 1)


def test_outside_numbers_past_the_digit_cap_are_refused_at_once(instance_33):
    # Match cells and the values a single-pair copy takes are read as result
    # cells are: 1e99999999 is refused before Fraction expands 10**99999999.
    start = time.perf_counter()
    with pytest.raises(InvalidProblemError, match=r"^matches\[0\]\[1\] is not a number: more than 4300 digits"):
        problem_from_results_matches([[0, 0], [0, 0]], [[0, "1e99999999"], ["1e99999999", 0]])
    for result, count in (("1e99999999", 1), (0, "1e99999999")):
        with pytest.raises(ValueError, match="^more than 4300 digits with the exponent$"):
            with_pair(instance_33, 0, 1, result, count)
    assert time.perf_counter() - start < 5
    # Strings within the cap still convert.
    assert problem_from_results_matches([[0, 0], [0, 0]], [[0, "2"], ["2", 0]]).matches == ((0, 2), (2, 0))
    changed = with_pair(instance_33, 0, 1, "1/2", "1")
    assert (changed.results[0][1], changed.matches[0][1]) == (Fraction(1, 2), 1)


def test_fingerprint_distinguishes(instance_33, instance_33_prime):
    assert instance_33.fingerprint != instance_33_prime.fingerprint
    assert instance_33.fingerprint == instance_33.fingerprint


def test_one_non_integer_result_anywhere_is_found():
    # One half-point pair, at any played entry, gives False, whether the
    # integer cells are the intake's shared objects or all distinct.
    for problem in [random_problem(seed, 6, max_multiplicity=2) for seed in range(4)] + [
        parse_problem_json(
            '{"version": 1, "labels": ["a", "b", "c", "d"], "R": [["0", "1", "-2", "0"], ["-1", "0", "1", "2"],'
            ' ["2", "-1", "0", "-1"], ["0", "-2", "1", "0"]], "M": [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]}'
        ).problem
    ]:
        assert problem.has_integer_results()
        distinct = [[Fraction(x.numerator) for x in row] for row in problem.results]
        assert problem_from_results_matches(distinct, problem.matches).has_integer_results()
        played = [(i, j) for i in range(problem.n) for j in problem.neighbors(i)]
        assert played
        for base in problem.results, distinct:
            for i, j in played:
                results = [list(row) for row in base]
                half = Fraction(1, 2) if results[i][j] < problem.matches[i][j] else Fraction(-1, 2)
                results[i][j], results[j][i] = results[i][j] + half, results[j][i] - half
                assert not problem_from_results_matches(results, problem.matches).has_integer_results(), (i, j)


def test_row_sums_equal_plain_fraction_sums_over_distinct_objects_and_denominators():
    # Equal results as distinct objects (1/2 three times, 1 twice), results
    # over the denominators 2, 3, 5 and 7, and unplayed zero entries.
    a, b, c, d = Fraction(1, 2), Fraction(2, 4), Fraction(-3, 6), Fraction(1)
    results = [
        [Fraction(0), a, Fraction(-1, 3), Fraction(2, 5), Fraction(0)],
        [-a, Fraction(0), b, Fraction(0), Fraction(-3, 7)],
        [Fraction(1, 3), -b, Fraction(0), c, d],
        [Fraction(-2, 5), Fraction(0), -c, Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(3, 7), -d, Fraction(-1), Fraction(0)],
    ]
    matches = [[0, 1, 2, 1, 0], [1, 0, 1, 0, 3], [2, 1, 0, 1, 1], [1, 0, 1, 0, 2], [0, 3, 1, 2, 0]]
    problem = problem_from_results_matches(results, matches)
    assert problem.results[0][1] is a and problem.results[1][2] is b and problem.results[2][3] is c
    assert problem.row_sums == tuple(sum(row, Fraction(0)) for row in results)
    assert problem.row_sums == (Fraction(17, 30), Fraction(-3, 7), Fraction(1, 3), Fraction(11, 10), Fraction(-11, 7))


@pytest.mark.parametrize("seed", range(6))
def test_row_sums_do_not_depend_on_which_results_share_an_object(seed):
    problem = random_problem(7300 + seed, 9, edge_probability=0.7)
    copied = [[Fraction(x.numerator, x.denominator) for x in row] for row in problem.results]
    fresh = problem_from_results_matches(copied, problem.matches)
    assert len({id(x) for row in fresh.results for x in row}) == 81
    assert fresh.row_sums == problem.row_sums == tuple(sum(row, Fraction(0)) for row in copied)


def test_intake_parsers_validate_their_typed_rows_without_a_second_scan(monkeypatch):
    from pairrank import core
    from pairrank.serialize import ingest_matches

    scanned = []
    for name in ("_to_fraction_matrix", "_to_int_matrix"):
        convert = getattr(core, name)
        monkeypatch.setattr(core, name, lambda rows, what, convert=convert: scanned.append(what) or convert(rows, what))
    document = '{"version": 1, "labels": ["a", "b"], "R": [["0", "1/2"], ["-1/2", 0]], "M": [[0, 1], [1, 0]]}'
    parsed = parse_problem_json(document).problem
    ingested = ingest_matches(["object_a,object_b,score_a,score_b", "a,b,3/4,1/4"]).problem
    assert scanned == []
    assert parsed == ingested == problem_from_results_matches([[0, "1/2"], ["-1/2", 0]], [[0, 1], [1, 0]])
    assert scanned == ["results", "matches"]
    assert type(parsed.results) is type(parsed.matches) is tuple
