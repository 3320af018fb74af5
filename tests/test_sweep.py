"""The incremental single-pair sweep against the full-rebuild oracle."""

import itertools
import random
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import pytest

from pairrank import axioms, linalg, methods
from pairrank.axioms import SATISFIED, VIOLATED, pair_variants, search_iim_violation
from pairrank.axioms import _flipped, _keeps_order, _order_interval, _ranks
from pairrank.core import multigraph, problem_from_results_matches, with_pair
from pairrank.macrovertex import find_macrovertices, search_mv_violation
from pairrank.methods import make_scorer
from pairrank.registry import get_instance
from pairrank.serialize import parse_problem_json

from corpus import (
    limit_corpus,
    macrovertex_corpus,
    random_problem,
    random_round_robin,
    random_with_macrovertex,
    round_robin_corpus,
    sc_corpus,
)
from oracles import PARITY, _sweep_steps, _variants, rebuild_with_pair, sweep_outcomes, sweep_report

ROWSUM, LS = make_scorer("rowsum"), make_scorer("ls")
GRS3, GRS10 = make_scorer("grs", Fraction(1, 3)), make_scorer("grs", Fraction(1, 10))
# Each scorer's name: the test ids, and the checks that single out LS.
NAMES = {ROWSUM: "rowsum", LS: "ls", GRS3: "grs(1/3)", GRS10: "grs(1/10)", PARITY: "parity"}
SCORERS = [ROWSUM, LS, GRS3, PARITY]

# The path X2 - X1 - X3 - X4: every edge is a bridge.
PATH = problem_from_results_matches(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]],
)

PROBLEMS = [
    random_problem(7101, 4, max_multiplicity=2),
    random_problem(7102, 5, max_multiplicity=3),
    random_problem(7103, 5, edge_probability=0.3),
    random_round_robin(7104, 4, max_multiplicity=2),
    random_with_macrovertex(7105, 5),
    random_with_macrovertex(7106, 6),
    PATH,
]


def _search(scorer, problem, axiom, budget):
    if axiom == "iim":
        return search_iim_violation(scorer, problem, budget)
    return search_mv_violation(scorer, problem, axiom, budget)


def _cases():
    for p, problem in enumerate(PROBLEMS):
        for axiom in ("iim", "mva", "mvi"):
            if axiom == "iim" and problem.n > 5 or axiom != "iim" and not find_macrovertices(problem):
                continue  # too slow to re-run at every budget / nothing to sweep
            for scorer in SCORERS:
                yield pytest.param(problem, axiom, scorer, id=f"p{p}-{axiom}-{NAMES[scorer]}")


@pytest.mark.parametrize("problem,axiom,scorer", _cases())
def test_sweep_agrees_with_rebuild_oracle_at_every_budget(problem, axiom, scorer):
    outcomes = sweep_outcomes(scorer, problem, axiom)
    full = _search(scorer, problem, axiom, None)
    assert asdict(full) == sweep_report(full.method, axiom, outcomes)
    # The re-runs share ratings, which keeps the budget scan fast; the oracle
    # above scored every instance afresh.  Every scorer here is a function
    # of the matches and the row sums alone, so those are the cache key.  The
    # cached ratings carry their pair update, so the closed form is what is
    # compared; the parity scorer gives none and covers the re-scoring path.
    ratings = {}

    def cached(p):
        key = (p.matches, p.row_sums)
        if key not in ratings:
            ratings[key] = scorer(p)
        return ratings[key]

    for budget in range(full.instances_checked + 2):
        expected = sweep_report(full.method, axiom, outcomes, budget)
        assert asdict(_search(cached, problem, axiom, budget)) == expected, budget


CLOSED_FORM = [ROWSUM, LS, GRS3, GRS10]


def _keys(xs, zs, step):
    """The keys of one variant on its line: ``xs*s + zs*t`` for its step (s, t)."""
    s, t = step
    return [x * s + z * t for x, z in zip(xs, zs)]


def _updated(scorer, problem):
    """The scorer's ratings and the pair update they carry."""
    base = scorer(problem)
    return base, base.pair_update


def _closed_form_ranks(scorer, problem, a, b, r2, m2):
    """Ranks of one change from the pair update of the scorer's ratings, or
    None where it has no closed form; the ratings must be the scorer's."""
    base, update = _updated(scorer, problem)
    assert base == scorer(problem)
    if update is None:
        return None
    xs, zs, variant = update(a, b, range(problem.n))
    step = variant(r2, m2)
    return None if step is None else _ranks(_keys(xs, zs, step))


def _quarter_results(problem, seed):
    """The problem with each played pair's result redrawn in quarter points,
    such as -1/2 or 3/4, so that base ratings and result changes carry
    denominators."""
    rng = random.Random(seed)
    results = [list(row) for row in problem.results]
    for i, j in itertools.combinations(range(problem.n), 2):
        m = problem.matches[i][j]
        if m:
            results[i][j] = Fraction(rng.randint(-4 * m, 4 * m), 4)
            results[j][i] = -results[i][j]
    return problem_from_results_matches(results, problem.matches)


def _closed_form_problems():
    for seed in range(36):
        yield random_problem(7400 + seed, 4 + seed % 4, edge_probability=0.35 + seed % 3 * 0.15)
    for seed in range(12):
        yield _quarter_results(random_problem(7500 + seed, 4 + seed % 4, edge_probability=0.5), seed)


def _golden_problem(name):
    return parse_problem_json((Path(__file__).parent / "golden" / "inputs" / name).read_text()).problem


@pytest.mark.parametrize("scorer", CLOSED_FORM, ids=NAMES.get)
def test_closed_form_ranks_equal_a_full_rescore(scorer):
    seen = {"disconnected": 0, "bridge": 0, "variants": 0, "rational": 0}
    for seed, problem in enumerate([*_closed_form_problems(), _golden_problem("disconnected.json")]):
        disconnected = len(multigraph(problem).components) > 1
        seen["disconnected"] += disconnected
        base, update = _updated(scorer, problem)
        # The ratings carrying the update are the scorer's, note included (LS
        # on a disconnected problem), and the update is None exactly there.
        assert base == scorer(problem)
        assert (update is None) == (NAMES[scorer] == "ls" and disconnected)
        if update is None:
            continue
        for a, b in itertools.combinations(range(problem.n), 2):
            xs, zs, variant = update(a, b, range(problem.n))
            for r2, m2 in pair_variants(problem, a, b):
                perturbed = with_pair(problem, a, b, r2, m2)
                step = variant(r2, m2)
                if step is None:
                    assert NAMES[scorer] == "ls" and len(multigraph(perturbed).components) == 2
                    seen["bridge"] += 1
                    continue
                assert step[0] > 0
                assert _ranks(_keys(xs, zs, step)) == _ranks(scorer(perturbed).values), (seed, a, b, r2, m2)
                seen["variants"] += 1
                seen["rational"] += problem.results[a][b].denominator > 1
    assert seen["disconnected"] >= 5 and seen["variants"] > 1000 and seen["rational"] > 200
    assert (seen["bridge"] > 0) == (NAMES[scorer] == "ls")


def _connected_corpus():
    """The connected problems of the shared corpora, and a five-object path
    on which every edge is a bridge."""
    problems = sc_corpus() + macrovertex_corpus() + round_robin_corpus() + limit_corpus()
    problems.append(_golden_problem("path5.json"))
    return [problem for problem in problems if len(multigraph(problem).components) == 1]


def _watched_sets(problem, macrovertices, a, b):
    """The watched objects of every sweep that changes pair (a, b): all
    others (IIM), the outside of each macrovertex holding a and b (MVI) and
    each macrovertex holding neither (MVA), where two or more are watched."""
    rest = tuple(x for x in range(problem.n) if x not in (a, b))
    sets = [rest] if problem.n >= 4 else []
    for members in macrovertices:
        if a in members and b in members:
            sets.append(tuple(x for x in range(problem.n) if x not in members))
        elif a not in members and b not in members:
            sets.append(members)
    return [watched for watched in sets if len(watched) >= 2]


@pytest.mark.parametrize("scorer", CLOSED_FORM[:3], ids=NAMES.get)
def test_closed_form_gives_up_exactly_where_least_squares_disconnects(scorer):
    # The update's denominator is zscale * det A' / det A: positive for GRS,
    # whose A' is positive definite, and for row sums; for LS det A' counts
    # spanning trees, so it is zero exactly when the change disconnects.
    # A change the level query decides for some sweep's watched objects
    # has a line at every count, and a full re-score of each of its
    # variants keeps those objects' order.
    gave_up, level = 0, 0
    for problem in _connected_corpus():
        base, update = _updated(scorer, problem)
        before = _ranks(base.values)
        macrovertices = find_macrovertices(problem)
        for a, b in itertools.combinations(range(problem.n), 2):
            _, _, variant = update(a, b, range(problem.n))
            watched_sets = _watched_sets(problem, macrovertices, a, b)
            decided = [watched for watched in watched_sets if update.level(a, b, watched)]
            level += len(decided)
            for r2, m2 in pair_variants(problem, a, b):
                perturbed = with_pair(problem, a, b, r2, m2)
                disconnects = len(multigraph(perturbed).components) > 1
                none = variant(r2, m2) is None
                assert none == (disconnects and NAMES[scorer] == "ls"), (problem, a, b, r2, m2)
                gave_up += none
                if decided:
                    assert not none, (problem, a, b, r2, m2)
                    after = _ranks(scorer(perturbed).values)
                    pairs = itertools.combinations(range(problem.n), 2)
                    flips = [{i, j} for i, j in pairs if _flipped(before, after, i, j)]
                    for watched in decided:
                        assert not [f for f in flips if f <= set(watched)], (problem, a, b, r2, m2, watched)
    assert (gave_up > 0) == (NAMES[scorer] == "ls")
    assert level > 0
    # A disconnected base: LS gives its ratings with no update at all.
    disconnected = _golden_problem("disconnected.json")
    base, update = _updated(scorer, disconnected)
    assert base == scorer(disconnected) and (update is None) == (NAMES[scorer] == "ls")


@pytest.mark.parametrize("scorer", CLOSED_FORM[:3], ids=NAMES.get)
def test_order_interval_decides_each_variant_as_its_keys_do(scorer):
    # A sweep decides all variants of a change from one interval of its
    # line: on every change and variant of the corpora, that decision must
    # be the test on the variant's keys.  The watched sets are those of IIM
    # (all but the changed pair, where a row sum's z is zero) and every
    # object, so the changed pair's own steps, and the ties they break, are
    # on the chain too.
    seen = {"kept": 0, "flipped": 0, "tie broken": 0, "tie broken, kept": 0, "off the line": 0}
    for problem in [*PROBLEMS, *_closed_form_problems(), *_connected_corpus()]:
        base, update = _updated(scorer, problem)
        if update is None:
            continue  # LS on a disconnected problem: every change is re-scored
        before = _ranks(base.values)
        for a, b in itertools.combinations(range(problem.n), 2):
            rest = [x for x in range(problem.n) if x not in (a, b)]
            for watched in (rest, range(problem.n)):
                chain = sorted(watched, key=before.__getitem__)
                ties = [t for t in range(len(chain) - 1) if before[chain[t]] == before[chain[t + 1]]]
                xs, zs, variant = update(a, b, chain)
                keeps = _order_interval(ties, xs, zs)
                broken = any(zs[t] != zs[t + 1] for t in ties)
                for r2, m2 in pair_variants(problem, a, b):
                    step = variant(r2, m2)
                    if step is None:  # d <= 0: a bridge removed, left to the re-score
                        seen["off the line"] += 1
                        continue
                    kept = _keeps_order(ties, _keys(xs, zs, step))
                    assert keeps(*step) == kept, (problem, a, b, list(watched), r2, m2)
                    seen["kept" if kept else "flipped"] += 1
                    seen["tie broken"] += broken and step[1] != 0
                    seen["tie broken, kept"] += broken and step[1] == 0
    assert seen["kept"] > 1000 and seen["flipped"] > 1000, seen
    assert seen["tie broken"] > 100 and seen["tie broken, kept"] > 0, seen
    assert (seen["off the line"] > 0) == (NAMES[scorer] == "ls"), seen


def test_bridge_removal_has_no_closed_form():
    ls = make_scorer("ls")
    for a, b in ((0, 1), (0, 2), (2, 3)):
        assert _closed_form_ranks(ls, PATH, a, b, Fraction(0), 0) is None
        perturbed = with_pair(PATH, a, b, Fraction(1), 2)  # not a removal
        assert _closed_form_ranks(ls, PATH, a, b, Fraction(1), 2) == _ranks(ls(perturbed).values)
    for scorer in CLOSED_FORM[::2]:  # removing a bridge is no special case for row sum and GRS
        perturbed = with_pair(PATH, 0, 2, Fraction(0), 0)
        assert _closed_form_ranks(scorer, PATH, 0, 2, Fraction(0), 0) == _ranks(scorer(perturbed).values)


def test_a_bridge_removal_is_rescored_even_where_z_is_level():
    # On the path X1 - X2 - X3 - X4 - X5 the LS sweep's first change is
    # X1-X2, a bridge.  Its z is level on X3, X4 and X5, but removing it
    # has no line (d = 0), so the change is not counted at once: the
    # removal is re-scored, the sweep's only re-score before the one that
    # confirms its violation at (X1, X4).
    path = _golden_problem("path5.json")
    update = LS(path).pair_update
    _, zs, variant = update(0, 1, [2, 3, 4])
    assert len(set(zs)) == 1 and variant(Fraction(0), 0) is None
    assert not update.level(0, 1, [2, 3, 4])
    calls = []
    report = search_iim_violation(lambda p: calls.append(p) or LS(p), path)
    assert (report.verdict, report.instances_checked, report.witness["perturbed_pair"]) == (VIOLATED, 34, [0, 3])
    assert calls == [path, with_pair(path, 0, 1, Fraction(0), 0), with_pair(path, 0, 3, Fraction(-1), 1)]


def test_joining_two_components():
    # {X1, X2} and {X3, X4}; a match between X2 and X3 joins them.
    split = problem_from_results_matches(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    )
    for scorer in CLOSED_FORM:
        assert (scorer(split).pair_update is None) == (NAMES[scorer] == "ls")
        for r2 in (-1, 0, 1):
            joined = with_pair(split, 1, 2, Fraction(r2), 1)
            # LS has no closed form on a disconnected base; the others do.
            expected = None if NAMES[scorer] == "ls" else _ranks(scorer(joined).values)
            assert _closed_form_ranks(scorer, split, 1, 2, Fraction(r2), 1) == expected
        assert asdict(search_iim_violation(scorer, split)) == sweep_report(
            scorer(split).method, "iim", sweep_outcomes(scorer, split, "iim")
        )


def test_grs_maximal_multiplicity_changes_keep_closed_form_ranks():
    # Only X1-X2 meets twice: lowering it or raising X3-X4 to two matches
    # moves the maximal multiplicity (the right-hand-side factor) 2 -> 1 or
    # 2 -> 3 or keeps it while another pair reaches it.
    problem = problem_from_results_matches(
        [[0, 2, 1, 0, -1], [-2, 0, 0, 1, 0], [-1, 0, 0, 0, 1], [0, -1, 0, 0, 1], [1, 0, -1, -1, 0]],
        [[0, 2, 1, 0, 1], [2, 0, 0, 1, 0], [1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [1, 0, 1, 1, 0]],
    )
    changes = [(0, 1, 1, 1), (0, 1, -1, 1), (0, 1, 3, 3), (0, 1, 0, 3), (1, 3, 2, 2), (1, 3, -2, 2)]
    for eps in (Fraction(1, 3), Fraction(1, 10), Fraction(5)):
        grs = make_scorer("grs", eps)
        for a, b, r2, m2 in changes:
            perturbed = with_pair(problem, a, b, Fraction(r2), m2)
            assert perturbed.max_multiplicity() != 2 or (a, b) == (1, 3)
            ranks = _closed_form_ranks(grs, problem, a, b, Fraction(r2), m2)
            assert ranks == _ranks(grs(perturbed).values), (eps, a, b, r2, m2)


def _reversing(a, b, watched):
    """A lying line: every change reverses the watched objects' ranks, its
    keys falling from len(watched) to 1 along the chain."""
    return [0] * len(watched), list(range(len(watched), 0, -1)), lambda r2, m2: (1, 1)


_reversing.level = lambda a, b, watched: False  # so every change is read along its chain


def test_a_closed_form_flip_the_rescore_does_not_confirm_raises(instance_33):
    # Row sum never flips a watched pair; ratings whose update claims it
    # reverses the watched objects' ranks are caught when the witness is
    # re-scored.
    rowsum = make_scorer("rowsum")
    lying = lambda p: replace(rowsum(p), pair_update=_reversing)
    assert search_iim_violation(rowsum, instance_33).verdict == SATISFIED
    with pytest.raises(ArithmeticError):
        search_iim_violation(lying, instance_33)


def test_a_closed_form_flip_the_rescore_reverses_raises(instance_33):
    # Every object ties on 3.3 and any change orders them by index, so the
    # first change flips X3 below X4; ratings whose update claims the
    # reverse order flip X4 below X3 instead, and the re-score must not
    # confirm that.
    def by_index(p):
        values = [0] * p.n if p == instance_33 else range(p.n)
        return methods.RatingVector(values=tuple(map(Fraction, values)), method="index", problem=p)

    assert search_iim_violation(by_index, instance_33).witness["flipped"] == [2, 3]
    lying = lambda p: replace(by_index(p), pair_update=_reversing)
    with pytest.raises(ArithmeticError):
        search_iim_violation(lying, instance_33)


@pytest.mark.parametrize("seed", range(8))
def test_with_pair_agrees_with_full_rebuild(seed):
    rng = random.Random(seed)
    problem = random_problem(7200 + seed, rng.randint(3, 8))
    for _ in range(12):
        i, j = rng.sample(range(problem.n), 2)
        m = rng.randint(0, 3)
        r = Fraction(rng.randint(-2 * m, 2 * m), 2)
        changed = with_pair(problem, i, j, r, m)
        rebuilt = rebuild_with_pair(problem, i, j, r, m)
        assert changed.results == rebuilt.results
        assert changed.matches == rebuilt.matches
        assert changed.row_sums == tuple(sum(row, Fraction(0)) for row in rebuilt.results)
        assert changed.row_sums == problem_from_results_matches(changed.results, changed.matches).row_sums
        problem = changed  # chain the changes so seeded sums carry over


def test_mvi_sweep_scores_each_distinct_perturbation_once(monkeypatch):
    # In a round robin every subset is a macrovertex, so one change inside
    # recurs under many macrovertices, and all 15 pairs change.  The closed
    # form factors the sweep's matrix once, for the base ratings and the
    # columns alike: one solve for the base and one column solve per object
    # that a change touches (LS grounds object 0, whose column is zero),
    # whatever the pairs' variants and however often they recur.  The
    # scorer is asked once, for the base ratings that carry the pair
    # update, and never again; the base solve is the one call of
    # ``solve_linear_system``, whose factorization the columns share.
    # Instance 4.1 has six objects too.  Factorizations and solves of both
    # kinds are counted: these systems are eliminated fraction-free, but the
    # counts hold for the lifted ones as well.
    def counting_system(rows, rhs):
        systems.append(len(rows))
        return solve_linear_system(rows, rhs)

    def counting_factor(rows, p):
        factors.append(len(rows))
        return factor(rows, p)

    class CountingElimination(linalg.Elimination):
        def __init__(self, rows):
            factors.append(len(rows))
            super().__init__(rows)

    def counting(solve):
        return lambda factorization, rhs: solves.append(len(rhs)) or solve(factorization, rhs)

    solve_linear_system, factor = methods.solve_linear_system, linalg._factor
    monkeypatch.setattr(methods, "solve_linear_system", counting_system)
    monkeypatch.setattr(linalg, "_factor", counting_factor)
    for kind in (linalg.Factorization, linalg.Elimination):
        monkeypatch.setattr(kind, "solve", counting(kind.solve))
    monkeypatch.setattr(linalg, "Elimination", CountingElimination)
    round_robin = random_round_robin(7300, 6, max_multiplicity=1)
    for problem in (round_robin, get_instance("4.1").problem):
        touched = {x for a, b, _, _ in _sweep_steps(problem, "mvi") for x in (a, b)}
        assert problem is not round_robin or len(touched) == problem.n
        for scorer, rows, columns in (
            (LS, 5, len(touched - {0})),
            (GRS3, 6, len(touched)),
        ):
            systems, factors, solves, calls = [], [], [], []
            counting = lambda p, scorer=scorer: calls.append(p) or scorer(p)
            report = search_mv_violation(counting, problem, "mvi")
            assert report.verdict == SATISFIED and report.instances_checked > 0
            assert calls == [problem]
            assert systems == factors == [rows]
            assert solves == [rows] * (1 + columns) and columns <= rows


@pytest.mark.parametrize("instance,axiom", [("4.1", "mva"), ("4.1", "mvi"), ("3.1", "iim")])
def test_each_variant_keys_only_the_watched_objects(instance, axiom, monkeypatch):
    # A reach counter of the sweep.  Each change first asks its base's level
    # query for its watched objects, in the order the change gives them; a
    # level change (every one of LS and GRS on 4.1's macrovertices) is
    # counted then and there, with no keys, no interval and no step.  Any
    # other change asks the pair update once for its watched objects in
    # base-rank order, which gives one x and one z per watched object, not
    # one per object of the problem; the sweep builds one interval from
    # them, and every variant is then one step (s, t).  None of these
    # sweeps flips, so no variant's keys are built and no instance is
    # scanned.
    problem = get_instance(instance).problem
    intervals = []

    def recording_interval(ties, xs, zs):
        intervals.append((len(xs), len(zs)))
        return order_interval(ties, xs, zs)

    order_interval = axioms._order_interval
    monkeypatch.setattr(axioms, "_order_interval", recording_interval)
    monkeypatch.setattr(axioms, "_flipped", lambda *args: pytest.fail("a scan of some variant's instances"))
    for scorer in (LS, GRS3):
        levels, calls = [], []
        intervals.clear()

        def recording(p, scorer=scorer):
            base = scorer(p)
            pair = base.pair_update

            def watching(a, b, watched):
                xs, zs, variant = pair(a, b, watched)
                steps = []
                calls.append((a, b, list(watched), steps))

                def recorded(r2, m2):
                    steps.append(variant(r2, m2))
                    return steps[-1]

                return xs, zs, recorded

            def level(a, b, watched):
                levels.append((a, b, list(watched), pair.level(a, b, watched)))
                return levels[-1][-1]

            watching.level = level
            return replace(base, pair_update=watching)

        base = scorer(problem).values
        report = _search(recording, problem, axiom, None)
        assert report.verdict == SATISFIED
        assert [(a, b, watched) for a, b, watched, _ in levels] == [
            (a, b, watch) for a, b, watch, _ in _sweep_steps(problem, axiom)
        ]
        stepped = [(a, b, sorted(watched, key=base.__getitem__)) for a, b, watched, level in levels if not level]
        # z is level on the far side of every macrovertex (LS and GRS satisfy
        # MVA and MVI), while 3.1's IIM changes move some watched objects apart.
        assert bool(stepped) == (axiom == "iim")
        assert [(a, b, watched) for a, b, watched, _ in calls] == stepped
        assert intervals == [(len(watched), len(watched)) for _, _, watched in stepped]
        for a, b, watched, variants in calls:
            assert len(variants) == len(list(_variants(problem, a, b))), (NAMES[scorer], a, b)
            assert all(isinstance(s, int) and isinstance(t, int) and s > 0 for s, t in variants)


def test_level_sweeps_build_no_interval(monkeypatch):
    # A reach counter: LS and GRS on a round robin, where every set of
    # objects is a macrovertex, and row sum, whose z is zero off the changed
    # pair, decide every change of these sweeps by the level query; none
    # sorts a chain or builds an order interval, and each counts all its
    # instances.  LS IIM on the Swiss table, whose changes move watched
    # objects apart, builds intervals.
    def counting_interval(ties, xs, zs):
        intervals.append(len(xs))
        return order_interval(ties, xs, zs)

    order_interval = axioms._order_interval
    monkeypatch.setattr(axioms, "_order_interval", counting_interval)
    round_robin = random_round_robin(7302, 8, max_multiplicity=1)
    swiss = _golden_problem("swiss20.json")
    sweeps = [(scorer, round_robin, axiom) for scorer in (LS, GRS3) for axiom in ("mvi", "mva")]
    for scorer, problem, axiom in [*sweeps, (ROWSUM, swiss, "iim")]:
        intervals = []
        report = _search(scorer, problem, axiom, None)
        total = sum(
            len(watch) * (len(watch) - 1) // 2 * len(list(_variants(problem, a, b)))
            for a, b, watch, _ in _sweep_steps(problem, axiom)
        )
        assert report.verdict == SATISFIED and report.instances_checked == total > 0
        assert intervals == [], (NAMES[scorer], axiom)
    intervals = []
    assert _search(LS, swiss, "iim", None).verdict == VIOLATED and intervals


@pytest.mark.parametrize("axiom", ["mva", "mvi"])
def test_a_rescoring_sweep_scores_each_distinct_perturbation_once(axiom):
    # A round robin of six plus one object that plays nobody: LS has no
    # closed form off a connected graph, so every variant is re-scored, and
    # a change recurs under many macrovertices (up to 2^4 - 1 times under
    # MVI).  Each distinct change is still scored once, and the base once,
    # its ratings carrying no pair update.
    rr = random_round_robin(7301, 6, max_multiplicity=1)
    pad = lambda rows: [list(row) + [0] for row in rows] + [[0] * 7]
    problem = problem_from_results_matches(pad(rr.results), pad(rr.matches))
    scorer = make_scorer("ls")
    assert _updated(scorer, problem) == (scorer(problem), None)
    calls = []
    counting = lambda p: calls.append(p) or scorer(p)
    report = search_mv_violation(counting, problem, axiom)
    assert report.verdict == SATISFIED
    steps = [(a, b) for a, b, _, _ in _sweep_steps(problem, axiom)]
    distinct = {(a, b, r2, m2) for a, b in steps for r2, m2 in _variants(problem, a, b)}
    assert len(steps) > len(set(steps))
    assert len(calls) == 1 + len(distinct)
